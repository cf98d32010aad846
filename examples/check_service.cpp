// The serving story: one dic::Workspace handling repeated mixed traffic
// over a design, the way a layout-editor session or a submit-queue
// service would drive it.
//
//   * a mixed batch (DRC + baseline + ERC + netlist), served in order
//     on the Workspace's persistent pool,
//   * a second identical batch served from the per-(root, revision) view
//     cache (watch viewCacheHit/netlistCacheHit flip to true),
//   * an edit -- the revision bump invalidates the cache -- and a
//     recheck that transparently rebuilds.
//
//   $ ./examples/check_service [threads]
#include <cstdio>
#include <cstdlib>

#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace {

void printResults(const char* phase,
                  const std::vector<dic::CheckResult>& results) {
  std::printf("%s\n", phase);
  for (const dic::CheckResult& r : results) {
    if (!r.ok()) {
      std::printf("  %-8s FAILED: %s\n", dic::toString(r.kind).c_str(),
                  r.error.c_str());
      continue;
    }
    std::printf(
        "  %-8s rev %llu  %6.2f ms  %3zu violation(s)  view:%s netlist:%s\n",
        dic::toString(r.kind).c_str(),
        static_cast<unsigned long long>(r.revision), r.seconds * 1e3,
        r.report.count(), r.viewCacheHit ? "hit " : "MISS",
        r.netlist ? (r.netlistCacheHit ? "hit " : "MISS") : "  --");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dic;
  const int threads = argc > 1 ? std::atoi(argv[1]) : 0;

  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {2, 2, 2, 4, true});
  workload::InjectionPlan plan;
  const auto truths = workload::inject(chip, t, plan, /*seed=*/42);
  const layout::CellId top = chip.top;

  Workspace ws(std::move(chip.lib), t, {threads});
  std::printf("check service on %zu-cell library, pool of %d worker(s), %zu "
              "injected defects\n\n",
              ws.library().cellCount(), ws.executor().threads(),
              truths.size());

  const CheckRequest batch[] = {
      CheckRequest::drc(top),
      CheckRequest::baseline(top),
      CheckRequest::ercCheck(top),
      CheckRequest::netlistOnly(top),
  };

  // Cold: every request shares the one view build of this batch.
  printResults("cold batch (fresh workspace):", ws.runBatch(batch));

  // Warm: the same traffic again -- no view, grid, or netlist rebuild.
  printResults("\nwarm batch (same revision):", ws.runBatch(batch));

  // An edit session touches the top cell; the revision bump invalidates.
  ws.library().cell(top);
  printResults("\nafter edit (revision bumped, cache rebuilt):",
               ws.runBatch(batch));

  const Workspace::CacheStats s = ws.cacheStats();
  std::printf(
      "\ncache: %zu hits, %zu misses, %zu evictions, %zu netlist hits, "
      "%zu live view(s)\n",
      s.viewHits, s.viewMisses, s.viewEvictions, s.netlistHits,
      s.cachedViews);
  return 0;
}
