// The serving tier: a dic::server::Server fronting a fleet of libraries
// with sharded Workspaces, bounded submit queues, and futures.
//
//   * three libraries registered under stable ids (each routes to its
//     shard by hash -- watch the shard column),
//   * a mixed submit storm from four client threads driven by the
//     workload traffic generator,
//   * one library dropped mid-traffic (its in-flight work completes,
//     later requests report LibraryNotFound),
//   * the ServerStats view of the server's metrics registry: per-shard
//     queue depth, served count, p50/p95 latency, queue-wait vs service
//     split, cache bytes,
//   * two-phase shutdown draining everything that was accepted.
//
//   $ ./examples/check_server [shards] [threadsPerShard]
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "server/server.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

int main(int argc, char** argv) {
  using namespace dic;
  server::ServerOptions opts;
  opts.shards = argc > 1 ? std::atoi(argv[1]) : 2;
  opts.threadsPerShard = argc > 2 ? std::atoi(argv[2]) : 2;
  opts.queue.capacity = 64;
  server::Server srv(opts);

  const tech::Technology t = tech::nmos();
  constexpr std::size_t kLibraries = 3;
  std::vector<layout::CellId> tops;
  for (std::size_t l = 0; l < kLibraries; ++l) {
    workload::GeneratedChip chip = workload::generateChip(t, {1, 1, 2, 3, true});
    workload::InjectionPlan plan;
    workload::inject(chip, t, plan, /*seed=*/static_cast<unsigned>(40 + l));
    tops.push_back(chip.top);
    const std::string id = workload::libraryName(l);
    srv.addLibrary(id, std::move(chip.lib), t);
    std::printf("registered %-5s -> shard %d\n", id.c_str(), srv.shardOf(id));
  }

  // A deterministic mixed trace, four closed-loop clients.
  workload::TrafficOptions topt;
  topt.libraries = kLibraries;
  topt.requests = 60;
  topt.seed = 11;
  const std::vector<workload::TrafficEvent> trace =
      workload::generateTrace(topt);
  std::size_t okCount = 0, droppedCount = 0;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::size_t ok = 0, dropped = 0;
      bool rolledDrop = false;
      for (std::size_t i = static_cast<std::size_t>(c); i < trace.size();
           i += 4) {
        // Drop lib2 mid-storm from client 0: requests already accepted
        // finish, later ones report LibraryNotFound.
        if (c == 0 && !rolledDrop && i >= trace.size() / 2) {
          srv.dropLibrary("lib2");
          rolledDrop = true;
        }
        const workload::TrafficEvent& ev = trace[i];
        const CheckResult r =
            srv.submit(workload::libraryName(ev.library),
                       workload::materialize(ev, tops[ev.library]))
                .get();
        if (r.ok())
          ++ok;
        else
          ++dropped;
      }
      std::lock_guard<std::mutex> lock(mu);
      okCount += ok;
      droppedCount += dropped;
    });
  }
  for (std::thread& th : clients) th.join();
  std::printf(
      "\nstorm: %zu served, %zu LibraryNotFound after dropLibrary(lib2)\n",
      okCount, droppedCount);

  srv.shutdown();  // two-phase: intake closed, queues drained

  const server::ServerStats st = srv.stats();
  std::printf("\n%-6s %5s %6s %7s %7s %9s %9s %9s %11s\n", "shard", "libs",
              "queue", "served", "reject", "p50-ms", "p95-ms", "wait-ms",
              "cache-KiB");
  for (std::size_t s = 0; s < st.shards.size(); ++s) {
    const server::ShardStats& sh = st.shards[s];
    std::printf("%-6zu %5zu %6zu %7zu %7zu %9.2f %9.2f %9.2f %11.1f\n", s,
                sh.libraries, sh.queueDepth, sh.served, sh.rejected,
                sh.p50Seconds * 1e3, sh.p95Seconds * 1e3,
                sh.meanQueueWaitSeconds * 1e3,
                static_cast<double>(sh.cacheBytes) / 1024.0);
  }
  std::printf("\ntotal: %zu served, %zu cache bytes across %d shard(s)\n",
              st.totalServed(), st.totalCacheBytes(), srv.shardCount());
  return 0;
}
