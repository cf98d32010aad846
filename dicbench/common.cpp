#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dicbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

Summary summarize(std::vector<double> v, double pct) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  // Step down the ladder until at least ten samples lie beyond.
  const double n = static_cast<double>(v.size());
  for (double step : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0})
    if (step <= pct && (n * (1 - step / 100) >= 10 || step == 50)) {
      pct = step;
      break;
    }
  s.tailPct = pct;
  // Nearest-rank percentile.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100 * n));
  s.tail = v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
  return s;
}

std::uint64_t SpanLog::add(const std::string& name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t traceId) {
  static const Clock::time_point epoch = Clock::now();
  Span s;
  s.name = name;
  s.startUs = std::chrono::duration<double, std::micro>(start - epoch).count();
  s.durUs = std::chrono::duration<double, std::micro>(end - start).count();
  s.parent = parent;
  s.traceId = traceId;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = nextId_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per trace id, so a request's spans stack together.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.traceId),
                 s.startUs, s.durUs, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double selfPeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double selfCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int emit(const RunConfig& cfg, const Outcome& out) {
  std::printf("\n== dicbench %s (seed %llu, %s run, %.0f s) ==\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", cfg.seconds);
  for (const auto& [name, m] : out.report)
    std::printf("  %-34s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  std::printf("provenance: {");
  for (std::size_t i = 0; i < out.provenance.size(); ++i)
    std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                out.provenance[i].first.c_str(),
                out.provenance[i].second.c_str());
  std::printf("}\n");
  if (!out.correct)
    std::fprintf(stderr, "dicbench: INCORRECT: %s\n", out.why.c_str());
  // The contract line: last line of stdout, one JSON object.
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  std::size_t i = 0;
  for (const auto& [name, m] : out.metrics)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i++ ? ", " : "", name.c_str(), m.value, m.unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace dicbench
