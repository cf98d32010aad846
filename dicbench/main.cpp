// dicbench: the DIC benchmark program (dicbench/README.md).
//
//   dicbench --workload cold_chip|tcp_read|tcp_edit --seed N --seconds S
//            --trace 0|1 [--git-sha SHA] [--out-dir DIR]
//
// Prints a human report, a provenance line, and as its last stdout line
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1 (spans go
// to DIR/trace_<workload>.json). Exits 1 when any output disagrees with
// its oracle, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/executor.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace dicbench;
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::atof(v.c_str());
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--git-sha") cfg.gitSha = v;
    else if (k == "--out-dir") cfg.outDir = v;
    else {
      std::fprintf(stderr, "dicbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "dicbench: --seconds must be positive\n");
    return 2;
  }
  cfg.hostCores = dic::engine::Executor::hardwareThreads();

  Outcome out;
  if (cfg.workload == "cold_chip") out = runColdChip(cfg);
  else if (cfg.workload == "tcp_read") out = runTcp(cfg, false);
  else if (cfg.workload == "tcp_edit") out = runTcp(cfg, true);
  else {
    std::fprintf(stderr,
                 "dicbench: --workload must be cold_chip, tcp_read or "
                 "tcp_edit\n");
    return 2;
  }
  out.provenance.insert(
      out.provenance.begin(),
      {{"workload", cfg.workload},
       {"seed", std::to_string(cfg.seed)},
       {"host_cores", std::to_string(cfg.hostCores) +
                          (cfg.hostCores == 1 ? " (1-core host: pool and "
                                                "shard figures are serial)"
                                              : "")},
       {"build_type", DICBENCH_BUILD_TYPE},
       {"DIC_SIMD_ARCH", DICBENCH_SIMD_ARCH},
       {"git_sha", cfg.gitSha}});
  return emit(cfg, out);
}
