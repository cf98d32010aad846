// Serving throughput -- the serving trajectory: a dic::Workspace
// handling repeated and mixed check traffic, measured in
// requests/second. Cold vs warm isolates what the per-(root, revision)
// view/netlist cache buys; serial vs pooled isolates what batch dispatch
// over the shared executor buys on top; and the multi-shard sweep drives
// a dic::server::Server fleet (shards x threads x open/closed-loop
// arrivals) with the workload traffic generator, reporting per-shard
// req/s and the queue-wait vs service-time split. The sweep is also
// emitted as machine-readable JSON (bench_serving_throughput.json in the
// working directory) for trend tracking.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "engine/executor.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace dic;

/// --trace-out <path>: dump the traced sweep section's span ring as
/// Chrome/Perfetto JSON (the CI release job archives it as an artifact).
const char* gTraceOut = nullptr;

workload::GeneratedChip makeChip(const workload::ChipParams& p,
                                 const tech::Technology& t) {
  workload::GeneratedChip chip = workload::generateChip(t, p);
  workload::InjectionPlan plan;
  workload::inject(chip, t, plan, /*seed=*/42);
  return chip;
}

std::vector<CheckRequest> mixedBatch(layout::CellId top, int copies) {
  std::vector<CheckRequest> reqs;
  for (int k = 0; k < copies; ++k) {
    reqs.push_back(CheckRequest::drc(top));
    reqs.push_back(CheckRequest::baseline(top));
    reqs.push_back(CheckRequest::ercCheck(top));
    reqs.push_back(CheckRequest::netlistOnly(top));
  }
  return reqs;
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void printColdVsWarm() {
  dic::bench::title(
      "Repeated identical DRC request: cold vs warm cache (per request)");
  std::printf("%-16s %10s %10s %9s %12s %12s\n", "chip", "cold-ms",
              "warm-ms", "speedup", "warm-req/s", "view-hits");
  const tech::Technology t = tech::nmos();
  const workload::ChipParams cases[] = {{1, 1, 2, 2, true},
                                        {2, 2, 2, 4, true},
                                        {2, 4, 4, 4, true}};
  for (const auto& p : cases) {
    workload::GeneratedChip chip = makeChip(p, t);
    const layout::CellId top = chip.top;
    Workspace ws(std::move(chip.lib), t, {/*threads=*/0});
    const CheckRequest req = CheckRequest::drc(top);

    const auto c0 = std::chrono::steady_clock::now();
    ws.run(req);  // cold: builds view, grids, netlist
    const double coldS = secondsSince(c0);

    constexpr int kWarm = 20;
    const auto w0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kWarm; ++k) ws.run(req);
    const double warmS = secondsSince(w0) / kWarm;

    char name[64];
    std::snprintf(name, sizeof name, "%dx%d blk %dx%d inv", p.blockRows,
                  p.blockCols, p.invRows, p.invCols);
    const Workspace::CacheStats s = ws.cacheStats();
    std::printf("%-16s %10.2f %10.2f %8.2fx %12.1f %12zu\n", name,
                coldS * 1e3, warmS * 1e3, warmS > 0 ? coldS / warmS : 0.0,
                warmS > 0 ? 1.0 / warmS : 0.0, s.viewHits);
  }
  dic::bench::note(
      "\nWarm requests reuse the cached hierarchy view, grid indexes, and "
      "extracted netlist;\nonly the checks themselves re-run. Reports are "
      "byte-identical cold or warm.");
}

void printBatchDispatch() {
  dic::bench::title(
      "Mixed batch (drc+baseline+erc+netlist x4): serial vs pooled "
      "dispatch, warm cache");
  std::printf("(host hardware threads: %d)\n",
              engine::Executor::hardwareThreads());
  std::printf("%-10s %8s %10s %10s %9s\n", "threads", "workers", "wall-ms",
              "req/s", "speedup");
  const tech::Technology t = tech::nmos();
  double base = 0;
  for (const int threads : {1, 2, 4, 0}) {
    workload::GeneratedChip chip = makeChip({2, 2, 2, 4, true}, t);
    const layout::CellId top = chip.top;
    Workspace ws(std::move(chip.lib), t, {threads});
    const std::vector<CheckRequest> reqs = mixedBatch(top, 4);
    ws.runBatch(reqs);  // warm the cache; measure steady-state serving
    const auto t0 = std::chrono::steady_clock::now();
    ws.runBatch(reqs);
    const double wall = secondsSince(t0);
    if (threads == 1) base = wall;
    std::printf("%-10s %8d %10.2f %10.1f %8.2fx\n",
                threads == 0 ? "0 (auto)" : std::to_string(threads).c_str(),
                ws.executor().threads(), wall * 1e3,
                wall > 0 ? reqs.size() / wall : 0.0,
                wall > 0 ? base / wall : 0.0);
  }
  dic::bench::note(
      "\nrunBatch is run() on each request in order; the pool "
      "parallelizes inside each\nrequest's pipeline. Results are "
      "byte-identical to sequential single runs at every\npool size.");
}

void BM_WarmDrcRequest(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = makeChip({2, 2, 2, 4, true}, t);
  const layout::CellId top = chip.top;
  Workspace ws(std::move(chip.lib), t,
               {static_cast<int>(state.range(0))});
  const CheckRequest req = CheckRequest::drc(top);
  ws.run(req);  // warm
  for (auto _ : state) benchmark::DoNotOptimize(ws.run(req));
}
BENCHMARK(BM_WarmDrcRequest)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ColdDrcRequest(benchmark::State& state) {
  // Cache invalidated every iteration: the price of a library edit.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = makeChip({2, 2, 2, 4, true}, t);
  const layout::CellId top = chip.top;
  Workspace ws(std::move(chip.lib), t, {4});
  const CheckRequest req = CheckRequest::drc(top);
  for (auto _ : state) {
    ws.library().invalidateCaches();
    benchmark::DoNotOptimize(ws.run(req));
  }
}
BENCHMARK(BM_ColdDrcRequest)->Unit(benchmark::kMillisecond);

void BM_MixedBatch(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = makeChip({2, 2, 2, 4, true}, t);
  const layout::CellId top = chip.top;
  Workspace ws(std::move(chip.lib), t,
               {static_cast<int>(state.range(0))});
  const std::vector<CheckRequest> reqs = mixedBatch(top, 4);
  ws.runBatch(reqs);  // warm
  for (auto _ : state) benchmark::DoNotOptimize(ws.runBatch(reqs));
}
BENCHMARK(BM_MixedBatch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- multi-shard server sweep ------------------------------------------------

/// One sweep configuration's measurement.
struct SweepResult {
  int shards{0};
  int threadsPerShard{0};
  const char* mode{""};  ///< "closed", "open", or "warm-edit*"
  int dispatchers{1};    ///< open-loop submitter threads (1 in closed mode)
  std::size_t requests{0};
  double wallSeconds{0};
  /// Row carries an explicit "gated": false in the JSON (warm-edit rows:
  /// informational until a baseline lands, then compare_bench gates them
  /// via the row flag).
  bool informational{false};
  server::ServerStats stats;

  double reqPerSec() const {
    return wallSeconds > 0 ? static_cast<double>(requests) / wallSeconds : 0;
  }
};

// --- warm edit-then-check: incremental vs full rebuild ----------------------

/// Toggle one element of `cell` between its original position and a
/// one-lambda nudge, serving an edit-carrying DRC request each time, and
/// measure the warm per-request latency two ways: the incremental path
/// (cached view patched in place, only the dirty window re-checked) and
/// the full-rebuild path (invalidateCaches() before every request — the
/// classic price of an edit, BM_ColdDrcRequest's pattern). Emits
/// "warm-edit" / "warm-edit-full" rows into the sweep JSON (explicitly
/// ungated until a baseline lands).
void printWarmEditCheck(std::vector<SweepResult>& results) {
  dic::bench::title(
      "Warm edit-then-check: incremental vs full rebuild (per request)");
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = makeChip({2, 4, 4, 4, true}, t);
  const layout::CellId top = chip.top;
  const std::array<layout::CellId, 3> candidates{top, chip.block,
                                                 chip.cells.inverter};
  Workspace ws(std::move(chip.lib), t, {/*threads=*/4});
  ws.run(CheckRequest::drc(top));  // warm + populate the incremental cache

  // Pick the edit that a warm interactive session actually issues: nudge an
  // *interior* element — one whose bbox stays a lambda clear of the cell
  // bbox, so the move preserves the cell bbox and the cached interaction
  // reports outside the dirty window stay valid. Prefer the smallest such
  // element (fewest nearby interfaces), searching the top cell first (one
  // placement) and falling back to shared cells; validate each pick with a
  // trial toggle that must ride the whole fast path (view patched, netlist
  // kept).
  const layout::Library& lib = std::as_const(ws).library();
  layout::CellId cell = top;
  std::size_t idx = 0;
  layout::Element e0 = lib.cell(top).elements.empty()
                           ? lib.cell(chip.block).elements[0]
                           : lib.cell(top).elements[0];
  bool picked = false;
  for (const layout::CellId c : candidates) {
    const geom::Rect cb = lib.cellBBox(c);
    std::size_t best = 0;
    long long bestPerim = 0;
    bool interior = false;
    for (std::size_t k = 0; k < lib.cell(c).elements.size(); ++k) {
      const geom::Rect bb = lib.cell(c).elements[k].bbox();
      const geom::Rect b = bb.inflated(25);
      if (b.lo.x < cb.lo.x || b.lo.y < cb.lo.y || b.hi.x > cb.hi.x ||
          b.hi.y > cb.hi.y)
        continue;
      const long long perim =
          (long long)(bb.hi.x - bb.lo.x) + (long long)(bb.hi.y - bb.lo.y);
      if (!interior || perim < bestPerim) {
        best = k;
        bestPerim = perim;
      }
      interior = true;
    }
    if (!interior) continue;
    const layout::Element cand = lib.cell(c).elements[best];
    CheckRequest probe = CheckRequest::drc(top);
    probe.edits.push_back(
        EditOp::setElement(c, best, cand.transformed(geom::translate({25, 0}))));
    const CheckResult fwd = ws.run(probe);
    CheckRequest undo = CheckRequest::drc(top);
    undo.edits.push_back(EditOp::setElement(c, best, cand));
    ws.run(undo);
    if (fwd.ok() && fwd.incrementalHit && fwd.netlistCacheHit) {
      cell = c;
      idx = best;
      e0 = cand;
      picked = true;
      break;
    }
  }
  if (!picked)
    dic::bench::note("warm-edit: no interior fast-path element found; "
                     "timing the first top element instead");
  const layout::Element e1 = e0.transformed(geom::translate({25, 0}));
  const auto editReq = [&](bool alt) {
    CheckRequest req = CheckRequest::drc(top);
    req.edits.push_back(EditOp::setElement(cell, idx, alt ? e1 : e0));
    return req;
  };

  // Median per-request latency: single warm requests are a few ms, where
  // scheduler noise on a shared machine can double an individual sample.
  constexpr int kIters = 30;
  const auto median = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
  };
  std::size_t incHits = 0;
  std::vector<double> samples;
  samples.reserve(kIters);
  for (int k = 0; k < kIters; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    incHits += ws.run(editReq((k & 1) != 0)).incrementalHit ? 1u : 0u;
    samples.push_back(secondsSince(t0));
  }
  const double incS = median(samples);

  samples.clear();
  for (int k = 0; k < kIters; ++k) {
    ws.library().invalidateCaches();  // edit log cleared: full rebuild
    const auto t0 = std::chrono::steady_clock::now();
    ws.run(editReq((k & 1) != 0));
    samples.push_back(secondsSince(t0));
  }
  const double fullS = median(samples);

  std::printf("%-18s %12s %12s %9s %12s\n", "path", "med ms/req", "req/s",
              "speedup", "inc-hits");
  std::printf("%-18s %12.2f %12.1f %9s %11zu/%d\n", "incremental",
              incS * 1e3, incS > 0 ? 1.0 / incS : 0.0, "-", incHits, kIters);
  std::printf("%-18s %12.2f %12.1f %8.2fx\n", "full-rebuild", fullS * 1e3,
              fullS > 0 ? 1.0 / fullS : 0.0, incS > 0 ? fullS / incS : 0.0);
  dic::bench::note(
      "\nBoth paths apply the same element toggle through the tracked edit "
      "API and return\nbyte-identical reports; the incremental path patches "
      "the cached view in place and\nre-checks only the edit's dirty window "
      "(docs/workspace.md, \"Incremental edit-then-check\").");

  for (const bool full : {false, true}) {
    SweepResult r;
    r.mode = full ? "warm-edit-full" : "warm-edit";
    r.shards = 0;
    r.threadsPerShard = 4;
    r.requests = kIters;
    r.wallSeconds = (full ? fullS : incS) * kIters;
    r.informational = true;
    results.push_back(std::move(r));
  }
}

/// Build the library fleet and register it; returns each library's root.
std::vector<layout::CellId> registerFleet(server::Server& srv,
                                          std::size_t libraries,
                                          const tech::Technology& t) {
  std::vector<layout::CellId> tops;
  for (std::size_t l = 0; l < libraries; ++l) {
    workload::GeneratedChip chip = makeChip({1, 1, 2, 4, true}, t);
    tops.push_back(chip.top);
    srv.addLibrary(workload::libraryName(l), std::move(chip.lib), t);
  }
  return tops;
}

/// Drive one configuration: warm each library once, then replay the
/// trace closed-loop (4 client threads, submit-on-completion) or
/// open-loop (submit on the trace's arrival schedule from `dispatchers`
/// striding submitter threads — workload::driveOpenLoop — so high rates
/// are not capped by one submitter's loop latency).
SweepResult runSweepConfig(int shards, int threadsPerShard, bool openLoop,
                           int dispatchers,
                           const std::vector<workload::TrafficEvent>& trace,
                           std::size_t libraries,
                           const tech::Technology& t, bool traced = false) {
  server::ServerOptions opts;
  opts.shards = shards;
  opts.threadsPerShard = threadsPerShard;
  opts.queue.capacity = 512;
  server::Server srv(opts);
  const std::vector<layout::CellId> tops = registerFleet(srv, libraries, t);

  // Warm pass: one DRC per library pays the view/netlist builds so the
  // sweep measures steady-state serving, not first-touch construction.
  {
    std::vector<std::future<CheckResult>> warm;
    for (std::size_t l = 0; l < libraries; ++l)
      warm.push_back(
          srv.submit(workload::libraryName(l), CheckRequest::drc(tops[l])));
    for (auto& f : warm) f.get();
  }
  const server::ServerStats warmStats = srv.stats();

  // Closed-loop rows feed the CI perf gate, and a single replay of 48
  // requests spans only tens of milliseconds — one scheduler hiccup
  // inside that window would read as a 30% "regression". Best-of-3
  // replays (server and caches stay warm between them) keeps the gated
  // number a capacity measurement instead of a noise sample.
  const int repeats = openLoop ? 1 : 3;
  double wall = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    if (openLoop) {
      std::mutex futMu;  // submits race from the dispatcher threads
      std::vector<std::future<CheckResult>> futs;
      futs.reserve(trace.size());
      workload::driveOpenLoop(
          trace, dispatchers, [&](const workload::TrafficEvent& ev) {
            std::future<CheckResult> f =
                srv.submit(workload::libraryName(ev.library),
                           workload::materialize(ev, tops[ev.library]));
            std::lock_guard<std::mutex> lock(futMu);
            futs.push_back(std::move(f));
          });
      for (auto& f : futs) f.get();
    } else {
      constexpr int kClients = 4;
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = static_cast<std::size_t>(c); i < trace.size();
               i += kClients) {
            const workload::TrafficEvent& ev = trace[i];
            CheckRequest req = workload::materialize(ev, tops[ev.library]);
            // The traced row measures full span emission, so every
            // request must carry a live trace id (id 0 emits nothing).
            if (traced) req.traceId = obs::newTraceId();
            srv.submit(workload::libraryName(ev.library), std::move(req))
                .get();
          }
        });
      }
      for (std::thread& th : clients) th.join();
    }
    const double w = secondsSince(t0);
    if (rep == 0 || w < wall) wall = w;
  }
  SweepResult r;
  r.wallSeconds = wall;
  r.shards = shards;
  r.threadsPerShard = threadsPerShard;
  r.mode = openLoop ? "open" : "closed";
  r.dispatchers = openLoop ? dispatchers : 1;
  r.requests = trace.size();
  r.stats = srv.stats();
  // Subtract the warm pass and normalize to ONE replay window so
  // per-shard req/s lines up with wallSeconds (means/quantiles still
  // include every job -- the warm pass is a few samples among hundreds).
  for (std::size_t s = 0; s < r.stats.shards.size(); ++s) {
    r.stats.shards[s].served -= warmStats.shards[s].served;
    r.stats.shards[s].served /= static_cast<std::size_t>(repeats);
  }
  return r;
}

void printMultiShardSweep(std::vector<SweepResult>& results) {
  dic::bench::title(
      "Multi-shard server sweep: 4 libraries, mixed traffic (zipf "
      "popularity), per-shard split");
  std::printf("(host hardware threads: %d; closed loop = 4 clients; open "
              "loop = 120 req/s x1 dispatcher, 480 req/s x4 dispatchers)\n",
              engine::Executor::hardwareThreads());
  const tech::Technology t = tech::nmos();
  constexpr std::size_t kLibraries = 4;

  workload::TrafficOptions topt;
  topt.libraries = kLibraries;
  topt.requests = 48;
  topt.seed = 7;
  const std::vector<workload::TrafficEvent> closedTrace =
      workload::generateTrace(topt);
  topt.arrivalsPerSecond = 120;
  const std::vector<workload::TrafficEvent> openTrace =
      workload::generateTrace(topt);
  // The saturation fix: one submitter caps the drivable rate at
  // ~1/submit-latency, so the fast schedule is shared by 4 striding
  // dispatcher threads (workload::driveOpenLoop) — same trace, same
  // per-event arrival times, 4x the submission parallelism.
  topt.arrivalsPerSecond = 480;
  const std::vector<workload::TrafficEvent> fastOpenTrace =
      workload::generateTrace(topt);

  struct Config {
    bool open;
    int dispatchers;
    const std::vector<workload::TrafficEvent>* trace;
  };
  const Config configs[] = {{false, 1, &closedTrace},
                            {true, 1, &openTrace},
                            {true, 4, &fastOpenTrace}};

  std::printf("%-7s %7s %7s %6s %9s %9s | per-shard: %s\n", "mode", "shards",
              "thr/sh", "disp", "wall-ms", "req/s",
              "req/s (queue-wait-ms / service-ms)");
  for (const Config& cfg : configs) {
    for (const int shards : {1, 2, 4}) {
      SweepResult r = runSweepConfig(shards, /*threadsPerShard=*/2, cfg.open,
                                     cfg.dispatchers, *cfg.trace, kLibraries,
                                     t);
      std::printf("%-7s %7d %7d %6d %9.1f %9.1f | ", r.mode, r.shards,
                  r.threadsPerShard, r.dispatchers, r.wallSeconds * 1e3,
                  r.reqPerSec());
      for (const server::ShardStats& sh : r.stats.shards)
        std::printf("%.0f (%.2f/%.2f)  ",
                    r.wallSeconds > 0
                        ? static_cast<double>(sh.served) / r.wallSeconds
                        : 0.0,
                    sh.meanQueueWaitSeconds * 1e3,
                    sh.meanServiceSeconds * 1e3);
      std::printf("\n");
      results.push_back(std::move(r));
    }
  }
  dic::bench::note(
      "\nEach library routes to one shard by stable hash, so shard req/s "
      "is uneven under zipf\npopularity (library 0 dominates). Queue-wait "
      "vs service split shows where time goes:\nclosed-loop waits are "
      "bounded by the client count, open-loop waits grow whenever the\n"
      "arrival rate beats a shard's service rate. The x4-dispatcher rows "
      "drive the schedule\nfrom 4 striding submitter threads, so the "
      "measured range is not capped by one\nsubmitter's loop latency.");
}

/// The tracing cost contract, measured: the closed-loop warm config
/// re-run with the runtime flag on and every request carrying a live
/// trace id. Emits one informational "traced" row (same schema/key as
/// the "closed" rows, "gated": false until a baseline lands — then
/// compare_bench gates the enabled-vs-disabled delta at -5%).
void printTracingOverhead(std::vector<SweepResult>& results) {
  dic::bench::title(
      "Span tracing overhead: closed-loop warm serving, runtime flag on");
  const tech::Technology t = tech::nmos();
  workload::TrafficOptions topt;
  topt.libraries = 4;
  topt.requests = 48;
  topt.seed = 7;
  const std::vector<workload::TrafficEvent> trace =
      workload::generateTrace(topt);

  obs::Tracer::instance().clear();
  obs::Tracer::instance().setEnabled(true);
  SweepResult on = runSweepConfig(/*shards=*/2, /*threadsPerShard=*/2,
                                  /*openLoop=*/false, /*dispatchers=*/1,
                                  trace, topt.libraries, t, /*traced=*/true);
  obs::Tracer::instance().setEnabled(false);
  on.mode = "traced";
  on.informational = true;

  // The matching flag-off number is the sweep's own closed/2-shard row
  // (best-of-3 in this same process), so the comparison needs no extra
  // run.
  double offReqPerSec = 0;
  for (const SweepResult& r : results)
    if (std::string(r.mode) == "closed" && r.shards == on.shards &&
        r.threadsPerShard == on.threadsPerShard)
      offReqPerSec = r.reqPerSec();
  std::printf("%-12s %9s %9s %9s\n", "flag", "wall-ms", "req/s", "delta");
  if (offReqPerSec > 0)
    std::printf("%-12s %9s %9.1f %9s\n", "off (gated)", "-", offReqPerSec,
                "-");
  std::printf("%-12s %9.1f %9.1f %8.1f%%\n", "on (traced)",
              on.wallSeconds * 1e3, on.reqPerSec(),
              offReqPerSec > 0
                  ? (on.reqPerSec() / offReqPerSec - 1.0) * 100.0
                  : 0.0);
  dic::bench::note(
      "\nEvery request of the traced row carries a live trace id, so each "
      "one pays full span\nemission (session stages, pipeline stages, "
      "kernel sections) into the central ring.\nThe row is informational "
      "until a baseline lands; the contract is within 5% of the\n"
      "flag-off closed-loop row.");

  if (gTraceOut) {
    const std::string json =
        obs::toChromeTraceJson(obs::Tracer::instance().snapshot());
    if (std::FILE* f = std::fopen(gTraceOut, "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("(span ring exported to %s — load in ui.perfetto.dev)\n",
                  gTraceOut);
    }
  }
  results.push_back(std::move(on));
}

void writeSweepJson(const std::vector<SweepResult>& results,
                    const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) return;
  // host_cores records where the numbers came from: refresh_baselines.sh
  // warns when a fetched baseline was measured on a 1-core container.
  std::fprintf(f, "{\n  \"host_cores\": %d,\n  \"multi_shard_sweep\": [\n",
               engine::Executor::hardwareThreads());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"shards\": %d, "
                 "\"threadsPerShard\": %d, \"dispatchers\": %d, "
                 "\"requests\": %zu, "
                 "\"wallSeconds\": %.6f, \"reqPerSec\": %.2f,%s\n"
                 "     \"perShard\": [",
                 r.mode, r.shards, r.threadsPerShard, r.dispatchers,
                 r.requests, r.wallSeconds, r.reqPerSec(),
                 r.informational ? " \"gated\": false," : "");
    for (std::size_t s = 0; s < r.stats.shards.size(); ++s) {
      const server::ShardStats& sh = r.stats.shards[s];
      std::fprintf(
          f,
          "%s{\"served\": %zu, \"reqPerSec\": %.2f, "
          "\"meanQueueWaitMs\": %.4f, \"meanServiceMs\": %.4f, "
          "\"p50Ms\": %.4f, \"p95Ms\": %.4f, \"cacheBytes\": %zu}",
          s == 0 ? "" : ", ", sh.served,
          r.wallSeconds > 0 ? static_cast<double>(sh.served) / r.wallSeconds
                            : 0.0,
          sh.meanQueueWaitSeconds * 1e3, sh.meanServiceSeconds * 1e3,
          sh.p50Seconds * 1e3, sh.p95Seconds * 1e3, sh.cacheBytes);
    }
    std::fprintf(f, "]}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n(machine-readable sweep written to %s)\n", path);
}

void printAll() {
  printColdVsWarm();
  printBatchDispatch();
  std::vector<SweepResult> sweep;
  printWarmEditCheck(sweep);
  printMultiShardSweep(sweep);
  printTracingOverhead(sweep);
  writeSweepJson(sweep, "bench_serving_throughput.json");
}

}  // namespace

// Hand-rolled DIC_BENCH_MAIN so the bench can strip its own --trace-out
// flag before google-benchmark sees (and rejects) it.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      gTraceOut = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int n = static_cast<int>(args.size());
  printAll();
  ::benchmark::Initialize(&n, args.data());
  if (::benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
