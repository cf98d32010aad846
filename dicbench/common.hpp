#pragma once
// Shared pieces of the DIC benchmark program: clocks, sample summaries,
// the benchmark's own span log, result/metric plumbing, and process
// resource readings. See dicbench/README.md for the workloads, metrics,
// and the layer -> end-to-end prediction table.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dicbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double secondsSince(Clock::time_point a) {
  return secondsBetween(a, Clock::now());
}

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string gitSha{"unknown"};
  std::string outDir{"."};
  int hostCores{1};
};

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// A timing summary: median plus a tail percentile.
struct Summary {
  std::size_t n{0};
  double p50{0};
  double tail{0};
  double tailPct{0};  ///< percentile `tail` was read at (e.g. 99)
};
/// Summarize at the workload's fixed tail percentile `pct`. A tail must
/// have at least ten samples beyond it; when the sample is too small
/// for `pct`, the tail steps down to the highest percentile that has
/// (tailPct says which), so a short run never quotes an unsupported p99.
Summary summarize(std::vector<double> v, double pct);

/// One metric as printed: value plus unit.
struct Metric {
  double value{0};
  std::string unit;
};

/// What a workload run hands back to main(): the contract metrics for
/// the final JSON line, every other figure for the human report, and
/// the oracle verdict.
struct Outcome {
  std::map<std::string, Metric> metrics;  ///< the JSON line's metrics
  std::vector<std::pair<std::string, Metric>> report;  ///< human lines
  std::vector<std::pair<std::string, std::string>> provenance;
  std::size_t attempted{0};
  std::size_t failed{0};     ///< errors + rejections + oracle mismatches
  bool correct{true};
  std::string why;           ///< first failure, for stderr

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, {value, unit}});
  }
  void fail(const std::string& what) {
    if (correct) why = what;
    correct = false;
  }
};

/// The benchmark's own spans: recorded around calls into the library's
/// public entry points, kept in memory, written once at exit as Chrome
/// trace_event JSON (loads in Perfetto / chrome://tracing).
class SpanLog {
 public:
  /// Record a finished span; returns its id (parent links use it).
  std::uint64_t add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t traceId = 0);
  /// Write all spans as Chrome JSON; false if the file cannot be opened.
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Span {
    std::string name;
    double startUs{0};
    double durUs{0};
    std::uint64_t id{0};
    std::uint64_t parent{0};
    std::uint64_t traceId{0};
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t nextId_{1};  // guarded by mu_
};

/// Peak resident set of this process, MiB.
double selfPeakRssMb();
/// CPU time (user + system) this process has used, seconds.
double selfCpuSeconds();

/// Print the human report, the provenance line and, last, the contract
/// JSON line. Returns the process exit code (0 only when correct).
int emit(const RunConfig& cfg, const Outcome& out);

}  // namespace dicbench
