// cold_chip: the library-to-report path. Each iteration puts a copy of
// a generated chip in a fresh Workspace (pool of nproc workers) and runs
// one hierarchical DRC, one check at a time (closed loop). Two chip
// sizes with the same distinct cells alternate so scaling shows.
#include <cmath>
#include <string>

#include "drc/checker.hpp"
#include "report/scorer.hpp"
#include "workloads.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace dicbench {
namespace {

using namespace dic;

// Same distinct cells, 4x the block instances: ~28k and ~113k flat
// elements.
constexpr workload::ChipParams kSmall{2, 2, 12, 22, true};
constexpr workload::ChipParams kLarge{4, 4, 12, 22, true};
constexpr double kTailPct = 80;  // ~60 large checks per 20 s run

// Only defect classes the hierarchical DRC request flags, plus the
// same-net decoys it must NOT flag. Accidental FETs and contacts over
// gates are found by the structured checks, shorts and floating nets by
// ERC; neither runs on this path.
workload::InjectionPlan drcPlan() {
  workload::InjectionPlan p;
  p.accidentalFets = 0;
  p.contactsOverGate = 0;
  p.powerGroundShorts = 0;
  p.floatingNets = 0;
  return p;
}

struct Chip {
  workload::GeneratedChip gen;
  std::vector<report::GroundTruth> truths;
  std::size_t flatElements{0};
  std::size_t cells{0};
  std::string oracleText;  ///< serial drc::Checker report
  std::size_t oracleCount{0};
};

Chip makeChip(const tech::Technology& t, const workload::ChipParams& p,
              std::uint64_t seed, Outcome& out) {
  Chip c{workload::generateChip(t, p), {}, 0, 0, {}, 0};
  c.truths = workload::inject(c.gen, t, drcPlan(),
                              static_cast<unsigned>(seed));
  const auto st = c.gen.lib.sizeStats(c.gen.top);
  c.flatElements = st.flatElements;
  c.cells = st.cells;
  // The oracle: a serial Checker run of the same chip.
  drc::Checker serial(c.gen.lib, c.gen.top, t, drc::Options{});
  const report::Report rep = serial.run();
  c.oracleText = rep.text();
  c.oracleCount = rep.count();
  const report::VennCounts v =
      report::score(c.truths, rep, 4 * t.lambda());
  if (v.realUnchecked != 0 || v.falseErrors != 0)
    out.fail("injected errors not all found: " +
             std::to_string(v.realUnchecked) + " unchecked, " +
             std::to_string(v.falseErrors) + " false of " +
             std::to_string(v.totalReal) + " real");
  return c;
}

/// One cold check: fresh Workspace over a copy of the chip, one DRC.
/// Returns wall seconds (and, through `cpu`, the CPU seconds every
/// thread of this process spent meanwhile); checks the report against
/// the oracle.
double coldCheck(const Chip& c, const tech::Technology& t, int threads,
                 Outcome& out, double* cpu = nullptr) {
  layout::Library copy = c.gen.lib;  // the input; not timed
  const double cpu0 = selfCpuSeconds();
  const auto t0 = Clock::now();
  Workspace ws(std::move(copy), t, WorkspaceOptions{threads});
  const CheckResult r = ws.run(CheckRequest::drc(c.gen.top));
  const double s = secondsSince(t0);
  if (cpu) *cpu = selfCpuSeconds() - cpu0;
  ++out.attempted;
  if (!r.ok() || r.report.text() != c.oracleText) {
    ++out.failed;
    out.fail(r.ok() ? "cold report differs from the serial oracle"
                    : "cold check failed: " + r.error);
  }
  return s;
}

}  // namespace

Outcome runColdChip(const RunConfig& cfg) {
  Outcome out;
  const tech::Technology t = tech::nmos();
  const int threads = cfg.hostCores;

  // Set-up, five times: generate + inject both chips and make their
  // serial oracle reports. The median is setup_s; the last is kept.
  std::vector<double> setups;
  Chip small, large;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    small = makeChip(t, kSmall, cfg.seed, out);
    large = makeChip(t, kLarge, cfg.seed, out);
    setups.push_back(secondsSince(t0));
  }

  // Warm the allocator and page cache once per size (not measured).
  coldCheck(small, t, threads, out);
  coldCheck(large, t, threads, out);

  std::vector<double> smallS, largeS, largeCpu;
  std::vector<double> gaps;  // bench time between checks (copy + glue)
  const auto start = Clock::now();
  auto prevEnd = start;
  while (secondsSince(start) < cfg.seconds || largeS.size() < 3) {
    const bool big = smallS.size() > largeS.size();
    const auto t0 = Clock::now();
    double cpu = 0;
    const double s = coldCheck(big ? large : small, t, threads, out, &cpu);
    if (big) largeCpu.push_back(cpu);
    gaps.push_back(secondsBetween(prevEnd, t0));
    prevEnd = Clock::now();
    (big ? largeS : smallS).push_back(s);
  }

  const Summary L = summarize(largeS, kTailPct);
  const Summary S = summarize(smallS, kTailPct);
  const double nL = static_cast<double>(large.flatElements);
  const double nS = static_cast<double>(small.flatElements);
  const double exponent = std::log(L.p50 / S.p50) / std::log(nL / nS);

  if (!cfg.trace) {
    out.put("setup_s", median(setups), "s");
    out.put("peak_rss_mb", selfPeakRssMb(), "MB");
    out.put("cpu_ms_per_op", median(largeCpu) * 1e3, "ms");
  }
  out.note("setup_s", median(setups), "s");
  out.note("peak_rss_mb", selfPeakRssMb(), "MB");
  out.note("fail_ratio", out.attempted ? double(out.failed) / out.attempted
                                       : 0, "ratio");
  out.note("cold_check_p50_s", L.p50, "s");
  out.note("cold_check_tail_s", L.tail, "s");
  out.note("cold_check_tail_percentile", L.tailPct, "pct");
  out.note("cold_check_samples", double(L.n), "count");
  out.note("cold_check_small_p50_s", S.p50, "s");
  out.note("cold_us_per_flat_element", L.p50 * 1e6 / nL, "us");
  out.note("cold_us_per_distinct_cell", L.p50 * 1e6 / double(large.cells),
           "us");
  out.note("cold_scaling_exponent", exponent, "ratio");
  out.note("flat_elements_small", nS, "count");
  out.note("flat_elements_large", nL, "count");
  out.note("distinct_cells", double(large.cells), "count");
  out.note("oracle_violations_large", double(large.oracleCount), "count");
  out.note("cpu_ms_per_large_check", median(largeCpu) * 1e3, "ms");
  out.note("checks_per_s", double(smallS.size() + largeS.size()) /
                               secondsSince(start), "1/s");

  out.provenance.push_back({"pool_threads", std::to_string(threads)});
  out.provenance.push_back({"chips", "2x2 and 4x4 blocks of 12x22 inverters"});
  out.provenance.push_back({"tail_limit", "none (closed loop)"});

  if (cfg.trace) {
    SpanLog spans;
    // Tracing overhead: alternate untraced and traced (span-recorded)
    // cold checks of the large chip.
    std::vector<double> plain, traced;
    for (int i = 0; i < 4; ++i) {
      plain.push_back(coldCheck(large, t, threads, out));
      const auto t0 = Clock::now();
      const double s = coldCheck(large, t, threads, out);
      spans.add("service.cold_check", t0, Clock::now(), 0, 1);
      traced.push_back(s);
    }
    const double coldP50 = median(plain);

    PeelInput in;
    in.threads = threads;
    in.shards = 1;
    in.threadsPerShard = threads;
    PeelLibrary pl{"chip", large.gen.lib, large.gen.top, {}};
    for (int i = 0; i < 4; ++i) pl.requests.push_back(CheckRequest::drc(pl.root));
    EditShadow shadow(large.gen.lib, large.gen.top);
    for (int i = 0; i < 6; ++i) pl.requests.push_back(shadow.next(cfg.seed + i));
    in.libraries.push_back(std::move(pl));
    const PeelTimes pt = peelLayers(in, spans, out);

    out.put("obs.tracing_overhead_ratio", median(traced) / coldP50, "ratio");
    // The stages were peeled serially, so they are held against the
    // serial cold run; the pool's share is engine.pool_speedup.
    out.put("unattributed_ratio",
            (pt.coldSerialRun - pt.coldStages) / pt.coldSerialRun, "ratio");
    out.put("bench.generator_lag_ms", median(gaps) * 1e3, "ms");
    const std::string path = cfg.outDir + "/trace_cold_chip.json";
    if (!spans.write(path)) out.fail("cannot write " + path);
    out.note("trace_spans", double(spans.size()), "count");
  }
  return out;
}

}  // namespace dicbench
