#pragma once
/// \file metrics.hpp
/// The unified metrics registry (docs/observability.md): typed counters,
/// gauges, and fixed-bucket histograms registered by name. Hot paths
/// hold references (stable for the registry's lifetime) and update with
/// relaxed atomics; snapshot() returns every metric sorted by name, the
/// deterministic order the kMetrics wire frame and `check_client
/// --metrics` rely on. The registry is the only store of server and
/// listener telemetry: ServerStats and ListenerStats are read-only views
/// computed from a snapshot (server::statsFromMetrics, Listener::stats).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dic {
namespace obs {

/// Monotonic unsigned counter (relaxed atomics; safe from any thread).
class Counter {
 public:
  /// Add `d` (default 1).
  void add(std::uint64_t d = 1) {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Current value.
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Signed point-in-time value (queue depth, cache bytes).
class Gauge {
 public:
  /// Overwrite the value.
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  /// Adjust the value by `d`.
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Current value.
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram: bounds are upper edges, observations land in
/// the first bucket whose bound is >= the value (values above the last
/// bound land in the overflow bucket, index bounds().size()). Bucket
/// layout is fixed at registration; observe() is lock-free. A running
/// sum of every observed value rides along, so sum / count is the
/// lifetime mean.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  /// Record one observation.
  void observe(double v);

  /// The upper bucket edges (size B).
  const std::vector<double>& bounds() const { return bounds_; }

  /// Count in bucket `i` (0..B inclusive; B is overflow).
  std::uint64_t bucketCount(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Total observations across all buckets.
  std::uint64_t totalCount() const;

  /// Sum of every observed value.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< B + 1 slots
  std::atomic<double> sum_{0};
};

/// One metric's value as captured by Registry::snapshot().
struct MetricValue {
  /// Discriminates which of the value fields is meaningful.
  enum class Kind : std::uint8_t {
    kCounter = 0,   ///< `counter` holds the value
    kGauge = 1,     ///< `gauge` holds the value
    kHistogram = 2  ///< `bounds`/`buckets`/`sum` hold the value
  };
  std::string name;            ///< registration name
  Kind kind{Kind::kCounter};   ///< value discriminator
  std::uint64_t counter{0};    ///< Kind::kCounter value
  std::int64_t gauge{0};       ///< Kind::kGauge value
  std::vector<double> bounds;  ///< Kind::kHistogram upper edges (B)
  std::vector<std::uint64_t> buckets;  ///< Kind::kHistogram counts (B+1)
  double sum{0};               ///< Kind::kHistogram sum of observations
};

/// The upper edge of the bucket holding a histogram's q-th observation
/// (q in [0, 1]; rank ceil(q * count), at least 1). An observation in
/// the overflow bucket reports the last bound, a lower limit on its
/// true value. 0 for an empty histogram or a non-histogram value.
double quantile(const MetricValue& histogram, double q);

/// A full registry capture, sorted by metric name (deterministic — the
/// wire encoding of two snapshots taken after identical work is
/// byte-identical for counters and gauges).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  ///< name-sorted metric values

  /// The named metric, or nullptr if absent (binary search: relies on
  /// the name-sorted order).
  const MetricValue* find(const std::string& name) const;

  /// The named counter's value, or 0 if absent / not a counter.
  std::uint64_t counterValue(const std::string& name) const;

  /// The named gauge's value, or 0 if absent / not a gauge.
  std::int64_t gaugeValue(const std::string& name) const;
};

/// Default service-latency bucket edges in seconds (100us .. 2.5s,
/// roughly logarithmic) for Registry::histogram callers that don't pick
/// their own.
std::vector<double> defaultLatencyBounds();

/// A named metric store. Registration is mutex-guarded and idempotent
/// (same name returns the same object; a kind mismatch throws
/// std::logic_error). Returned references stay valid for the registry's
/// lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// A process-wide registry for call sites with nothing better to
  /// plumb; servers own their own instance.
  static Registry& global();

  /// Find-or-create the counter `name`.
  Counter& counter(const std::string& name);

  /// Find-or-create the gauge `name`.
  Gauge& gauge(const std::string& name);

  /// Find-or-create the histogram `name`; `bounds` (default
  /// defaultLatencyBounds()) only applies on first registration.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Capture every metric, sorted by name.
  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricValue::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(const std::string& name, MetricValue::Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;  ///< ordered => sorted snapshot
};

}  // namespace obs
}  // namespace dic
