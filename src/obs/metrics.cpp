#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dic {
namespace obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw std::logic_error("Histogram: bounds must be non-empty");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::logic_error("Histogram: bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  // Upper-edge search: first bucket whose bound >= v; beyond the last
  // bound lands in the overflow slot. Bucket counts are small (<= ~16),
  // so a linear scan beats binary search in practice.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::totalCount() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    total += counts_[i].load(std::memory_order_relaxed);
  return total;
}

double quantile(const MetricValue& h, double q) {
  if (h.kind != MetricValue::Kind::kHistogram || h.bounds.empty()) return 0;
  std::uint64_t total = 0;
  for (std::uint64_t c : h.buckets) total += c;
  if (total == 0) return 0;
  // The rank stays a double: a snapshot decoded from the wire may carry
  // any counts, and converting an out-of-range double to an integer is
  // undefined.
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    seen += h.buckets[i];
    if (static_cast<double>(seen) >= rank) return h.bounds[i];
  }
  return h.bounds.back();  // overflow bucket
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& m, const std::string& n) { return m.name < n; });
  return it != metrics.end() && it->name == name ? &*it : nullptr;
}

std::uint64_t MetricsSnapshot::counterValue(const std::string& name) const {
  const MetricValue* m = find(name);
  return m && m->kind == MetricValue::Kind::kCounter ? m->counter : 0;
}

std::int64_t MetricsSnapshot::gaugeValue(const std::string& name) const {
  const MetricValue* m = find(name);
  return m && m->kind == MetricValue::Kind::kGauge ? m->gauge : 0;
}

std::vector<double> defaultLatencyBounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
          2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5};
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Registry::Entry& Registry::entry(const std::string& name,
                                 MetricValue::Kind kind) {
  // Caller holds mu_.
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("Registry: '" + name +
                             "' already registered with a different kind");
    return it->second;
  }
  Entry e;
  e.kind = kind;
  return metrics_.emplace(name, std::move(e)).first->second;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, MetricValue::Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, MetricValue::Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, MetricValue::Kind::kHistogram);
  if (!e.histogram)
    e.histogram = std::make_unique<Histogram>(
        bounds.empty() ? defaultLatencyBounds() : std::move(bounds));
  return *e.histogram;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(metrics_.size());
  // metrics_ is a std::map: iteration is already name-sorted.
  for (const auto& [name, e] : metrics_) {
    MetricValue m;
    m.name = name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricValue::Kind::kCounter:
        m.counter = e.counter->value();
        break;
      case MetricValue::Kind::kGauge:
        m.gauge = e.gauge->value();
        break;
      case MetricValue::Kind::kHistogram: {
        m.bounds = e.histogram->bounds();
        m.buckets.resize(m.bounds.size() + 1);
        for (std::size_t i = 0; i <= m.bounds.size(); ++i)
          m.buckets[i] = e.histogram->bucketCount(i);
        m.sum = e.histogram->sum();
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

}  // namespace obs
}  // namespace dic
