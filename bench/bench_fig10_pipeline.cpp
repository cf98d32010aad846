// Fig. 10 -- The DIC flow chart: PARSE CIF / CHECK ELEMENTS / CHECK
// PRIMITIVE SYMBOLS / CHECK LEGAL CONNECTIONS / GENERATE HIERARCHICAL NET
// LIST / CHECK INTERACTIONS. Reports the per-stage wall-clock breakdown
// and the Options::threads sweep.
#include <chrono>
#include <string>

#include "bench_util.hpp"
#include "cif/parser.hpp"
#include "cif/writer.hpp"
#include "drc/checker.hpp"
#include "engine/executor.hpp"
#include "layout/cifio.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dic;

void printFig10() {
  dic::bench::title("Fig. 10: pipeline stage breakdown (ms)");
  std::printf("%-16s %8s %9s %8s %8s %8s %8s %8s\n", "chip", "parse",
              "elements", "symbols", "connect", "netlist", "interact",
              "total");
  const tech::Technology t = tech::nmos();
  const workload::ChipParams cases[] = {
      {1, 1, 2, 2, true}, {2, 2, 2, 4, true}, {2, 4, 4, 4, true}};
  for (const auto& p : cases) {
    workload::GeneratedChip chip = workload::generateChip(t, p);

    // Stage 0: write to CIF and parse it back (the paper's entry point).
    const cif::CifFile out = layout::toCif(
        chip.lib, chip.top, [&](int l) { return t.layer(l).cifName; });
    const std::string text = cif::write(out);
    const auto t0 = std::chrono::steady_clock::now();
    layout::Library lib2;
    const layout::CellId root2 = layout::fromCif(
        cif::parse(text), lib2,
        [&](const std::string& n) { return t.layerByCifName(n).value_or(-1); });
    const auto t1 = std::chrono::steady_clock::now();
    const double parseMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    drc::Checker checker(lib2, root2, t, {});
    checker.run();
    const drc::StageTimes& st = checker.stageTimes();
    char name[64];
    std::snprintf(name, sizeof name, "%dx%d blk %dx%d inv", p.blockRows,
                  p.blockCols, p.invRows, p.invCols);
    std::printf("%-16s %8.2f %9.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", name,
                parseMs, st.elements * 1e3, st.symbols * 1e3,
                st.connections * 1e3, st.netlist * 1e3,
                st.interactions * 1e3, parseMs + st.total() * 1e3);
  }
  dic::bench::note(
      "\nExpected shape: interaction checking and net list generation "
      "dominate; element and symbol\nchecks are cheap because they run "
      "once per definition (20-30 device symbols on a chip).");
}

void printThreadSweep() {
  dic::bench::title(
      "Checker thread sweep: interaction stage (ms), identical output");
  // The run is timed by outside wall clock, which also covers the report
  // merges between stages. `workers` is the actual pool size a row ran
  // with: it differs from `threads` only on the auto row (threads=0
  // resolves to the cached hardware concurrency), which is exactly when
  // the label matters.
  std::printf("(host hardware threads: %d)\n",
              dic::engine::Executor::hardwareThreads());
  std::printf("%-10s %8s %10s %10s %10s %10s\n", "threads", "workers",
              "interact", "netlist", "wall", "speedup");
  const tech::Technology t = tech::nmos();
  // A chip big enough that per-worker items are far larger than thread
  // spawn overhead; on a single-core host expect ~1.0x regardless.
  workload::GeneratedChip chip = workload::generateChip(t, {4, 4, 4, 6, true});
  double base = 0;
  for (const int threads : {1, 2, 4, 0}) {
    drc::Options opt;
    opt.threads = threads;
    const int workers =
        threads <= 0 ? dic::engine::Executor::hardwareThreads() : threads;
    drc::Checker checker(chip.lib, chip.top, t, opt);
    const auto w0 = std::chrono::steady_clock::now();
    checker.run();
    const auto w1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(w1 - w0).count();
    const drc::StageTimes& st = checker.stageTimes();
    if (threads == 1) base = wall;
    std::printf("%-10s %8d %10.2f %10.2f %10.2f %9.2fx\n",
                threads == 0 ? "0 (auto)" : std::to_string(threads).c_str(),
                workers, st.interactions * 1e3, st.netlist * 1e3, wall * 1e3,
                wall > 0 ? base / wall : 0.0);
  }
  dic::bench::note(
      "\nStages run in order; their per-cell/window fan-outs share one "
      "work-stealing pool;\nviolation ordering is deterministic, so every "
      "row produces byte-identical reports.");
}

void BM_FullPipeline(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(
      t, {static_cast<int>(state.range(0)), 2, 2, 4, true});
  for (auto _ : state) {
    drc::Checker checker(chip.lib, chip.top, t, {});
    benchmark::DoNotOptimize(checker.run());
  }
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_InteractionStageThreads(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {2, 2, 4, 4, true});
  drc::Options opt;
  opt.threads = static_cast<int>(state.range(0));
  drc::Checker checker(chip.lib, chip.top, t, opt);
  const netlist::Netlist nl = checker.generateNetlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.checkInteractions(nl));
  }
}
BENCHMARK(BM_InteractionStageThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void printAll() {
  printFig10();
  printThreadSweep();
}

}  // namespace

DIC_BENCH_MAIN(printAll)
