#pragma once
/// \file listener.hpp
/// The TCP front door for dic::server::Server: a net::Listener accepts
/// connections and runs one Session per connection — a reader thread
/// decoding kCheck frames into Server::submitAsync (and answering trace
/// and metrics requests), and a writer thread streaming completed
/// results back in completion order.
/// Many request ids multiplex over one socket; responses carry the id
/// back, so clients correlate out-of-order completions without one
/// connection per request.
///
/// Failure and backpressure mapping (full contract in docs/net.md):
///  * a malformed frame (bad magic/version/type/flags, oversized
///    declared length, undecodable payload) closes THAT session only —
///    a best-effort kError frame is sent first, the socket closes, and
///    every other session (and the process) is untouched;
///  * a mid-frame disconnect is an ordinary session end;
///  * OverflowPolicy::kReject surfaces as a kRejected frame for the
///    offending request id;
///  * OverflowPolicy::kBlock blocks the session's reader inside the
///    shard queue — the session stops reading its socket, the kernel
///    receive buffer fills, and the client feels TCP pushback;
///  * large reports stream as kReportPart frames closed by kReportEnd,
///    serialized chunk by chunk so neither side materializes a
///    million-violation report as one buffer.
///
/// Shutdown is a drain, mirroring the server's two-phase contract: new
/// connections are refused, each session's read side closes (no new
/// requests), every request already handed to the server completes and
/// its response is flushed, then sockets close.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "server/server.hpp"

namespace dic::net {

/// Listener construction knobs.
struct ListenerOptions {
  /// Numeric IPv4 address to bind ("0.0.0.0" fronts all interfaces).
  std::string host{"127.0.0.1"};
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port{0};
  /// Violations per kReportPart frame when a response streams. Small
  /// values are useful in tests to force the streaming path.
  std::size_t reportChunkViolations{kDefaultReportChunk};
};

/// The network tier's telemetry, a read-only view of the "net.*"
/// metrics in the fronted server's registry (cumulative counters plus
/// the "net.sessions_open" gauge). Listeners fronting one server share
/// these metrics.
struct ListenerStats {
  std::size_t sessionsAccepted{0};  ///< connections ever accepted
  std::size_t sessionsOpen{0};      ///< sessions currently live
  std::size_t framesIn{0};          ///< request frames fully decoded
  std::size_t framesOut{0};         ///< response frames fully written
  std::size_t malformedSessions{0}; ///< sessions closed on protocol error
};

class Listener {
 public:
  /// Bind, listen, and start accepting. Throws std::runtime_error if
  /// the address cannot be bound (there is no serving tier without a
  /// socket). `srv` must outlive the Listener.
  Listener(server::Server& srv, ListenerOptions opts = {});
  /// shutdown(), then joins every thread.
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const { return acceptor_.port(); }
  /// The bound host.
  const std::string& host() const { return opts_.host; }

  /// Graceful drain: refuse new connections, stop reading new frames,
  /// answer everything already accepted, flush, close. Idempotent.
  void shutdown();

  /// The "net.*" metrics, read from the server's registry.
  ListenerStats stats() const;

 private:
  struct Session;

  void acceptLoop();
  /// Drop sessions whose threads have finished (called on the accept
  /// thread so the session list cannot grow without bound).
  void reapFinished();

  server::Server& srv_;
  ListenerOptions opts_;
  Acceptor acceptor_;
  std::thread acceptThread_;
  std::once_flag shutdownOnce_;

  // "net.*" metrics in srv_'s registry, updated as each event happens.
  obs::Counter& sessionsAccepted_;   ///< connections ever accepted
  obs::Counter& framesIn_;           ///< request frames fully read
  obs::Counter& framesOut_;          ///< response frames fully written
  obs::Counter& malformedSessions_;  ///< sessions closed on protocol error
  obs::Gauge& sessionsOpen_;         ///< sessions with a live loop

  std::mutex mu_;  ///< guards sessions_
  std::vector<std::shared_ptr<Session>> sessions_;
};

}  // namespace dic::net
