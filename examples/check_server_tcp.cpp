// The TCP front door: a dic::server::Server fleet behind net::Listener,
// serving framed check traffic over real sockets (docs/net.md).
//
// The process registers `libraries` copies of the canonical fleet chip
// (workload::fleetChip — the recipe external drivers regenerate locally
// as an oracle), binds the listener, and prints one machine-parseable
// line on stdout:
//
//     LISTENING <port>
//
// It then serves until stdin reaches EOF — the termination handshake
// the net load driver (bench_net_throughput) uses for a spawned server:
// closing the child's stdin triggers the graceful drain, and the exit
// status reports whether the drain answered everything it accepted.
//
//   $ ./examples/check_server_tcp [port] [libraries] [shards]
//         [threadsPerShard] [queue.capacity] [block|reject]
//         [trace|notrace] [slowMs]
//
// port 0 (the default) picks an ephemeral port. "trace" flips the
// runtime span-tracing flag on (so clients can fetch request traces with
// check_client --trace); slowMs > 0 arms the slow-request stderr hook at
// that end-to-end latency threshold.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/listener.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "workload/traffic.hpp"

int main(int argc, char** argv) {
  using namespace dic;
  const std::uint16_t port =
      argc > 1 ? static_cast<std::uint16_t>(std::atoi(argv[1])) : 0;
  const std::size_t libraries =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  server::ServerOptions sopts;
  sopts.shards = argc > 3 ? std::atoi(argv[3]) : 2;
  sopts.threadsPerShard = argc > 4 ? std::atoi(argv[4]) : 2;
  sopts.queue.capacity =
      argc > 5 ? static_cast<std::size_t>(std::atoi(argv[5])) : 256;
  if (argc > 6 && std::strcmp(argv[6], "reject") == 0)
    sopts.queue.overflow = server::OverflowPolicy::kReject;
  const bool tracing = argc > 7 && std::strcmp(argv[7], "trace") == 0;
  if (argc > 8) sopts.slowRequestSeconds = std::atof(argv[8]) / 1e3;
  obs::Tracer::instance().setEnabled(tracing);

  server::Server srv(sopts);
  const tech::Technology t = tech::nmos();
  for (std::size_t l = 0; l < libraries; ++l) {
    workload::GeneratedChip chip = workload::fleetChip(t);
    srv.addLibrary(workload::libraryName(l), std::move(chip.lib), t);
  }

  net::ListenerOptions lopts;
  lopts.port = port;
  net::Listener listener(srv, lopts);
  // The handshake line a spawning driver parses for the ephemeral port.
  std::printf("LISTENING %u\n", listener.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "check_server_tcp: %zu libraries on %d shard(s) x %d "
               "thread(s), queue %zu (%s)%s; close stdin to drain\n",
               libraries, srv.shardCount(), sopts.threadsPerShard,
               sopts.queue.capacity,
               sopts.queue.overflow == server::OverflowPolicy::kReject
                   ? "reject"
                   : "block",
               tracing ? ", tracing on" : "");

  // Serve until the controlling process closes our stdin.
  while (std::fgetc(stdin) != EOF) {
  }

  listener.shutdown();  // drain: answer everything accepted, then close
  srv.shutdown();

  const net::ListenerStats ls = listener.stats();
  const server::ServerStats st = srv.stats();
  std::fprintf(stderr,
               "drained: %zu sessions, %zu frames in, %zu frames out, %zu "
               "malformed; served %zu, rejected %zu\n",
               ls.sessionsAccepted, ls.framesIn, ls.framesOut,
               ls.malformedSessions, st.totalServed(), st.totalRejected());
  // Every decoded request must have produced a response frame; a deficit
  // means the drain dropped work (frames out also counts report parts,
  // so it can only legitimately exceed frames in).
  return ls.framesOut >= ls.framesIn ? 0 : 1;
}
