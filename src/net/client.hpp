#pragma once
/// \file client.hpp
/// The dic::net client library: one TCP connection to a net::Listener,
/// multiplexing any number of in-flight requests over it. `submit`
/// returns a std::future<CheckResult> keyed by a client-chosen request
/// id; a background reader thread matches response frames back to their
/// futures (streamed kReportPart sequences are reassembled through
/// ResultAssembler), so completions arrive in the server's completion
/// order while callers keep the familiar future shape of
/// server::Server::submit.
///
/// Failures come back through the same per-request error channel the
/// server uses — a CheckResult whose `error` names the failure — so a
/// caller handles one shape whether the check failed, the queue was
/// full (server::kErrQueueFull via a kRejected frame), the request
/// timed out client-side (kErrNetTimeout), or the connection dropped
/// mid-flight (kErrConnectionLost). A lost connection fails every
/// pending future; the next submit reconnects when
/// ClientOptions::reconnect is set.

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace dic::net {

/// CheckResult::error for a request that outlived
/// ClientOptions::requestTimeoutSeconds (the server may still complete
/// it; the late response frame is discarded).
inline constexpr const char* kErrNetTimeout = "NetTimeout";
/// CheckResult::error for a request whose connection died first.
inline constexpr const char* kErrConnectionLost = "ConnectionLost";
/// CheckResult::error prefix for a protocol-level failure (a kError
/// frame from the server, or an undecodable response).
inline constexpr const char* kErrNetProtocol = "NetProtocol";

/// Client construction knobs.
struct ClientOptions {
  std::string host{"127.0.0.1"};  ///< numeric IPv4 of the listener
  std::uint16_t port{0};
  double connectTimeoutSeconds{5.0};
  /// Per-request deadline, measured from submit() to the response frame
  /// completing. 0 waits forever (the in-process semantics).
  double requestTimeoutSeconds{0};
  /// Reconnect lazily on the next submit after a lost connection.
  bool reconnect{true};
};

/// Client-side observability counters (cumulative).
struct ClientTelemetry {
  std::size_t framesOut{0};        ///< request frames fully sent
  std::size_t framesIn{0};         ///< response frames fully received
  std::size_t reportPartFrames{0}; ///< streamed report slices received
  std::size_t rejectedFrames{0};   ///< backpressure turndowns received
  std::size_t reconnects{0};       ///< successful re-connects
  std::size_t timeouts{0};         ///< requests expired client-side
};

/// One connection to a net::Listener. Thread-safe: any number of
/// threads may submit concurrently over the one socket; request ids are
/// assigned internally and responses are matched back by id.
class Client {
 public:
  explicit Client(ClientOptions opts);
  /// close() — pending futures fail with kErrConnectionLost.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect now (submit/metrics otherwise connect lazily). False with a
  /// reason in *err; true if already connected.
  bool connect(std::string* err = nullptr);
  bool connected() const;

  /// Drop the connection and fail every pending future with
  /// kErrConnectionLost. Idempotent; submit() after close() fails
  /// without reconnecting.
  void close();

  /// Send one check; the future completes when the response (or a
  /// failure) arrives. Never throws — connection failures surface as
  /// error-carrying CheckResults, exactly like server-level failures do
  /// through server::Server::submit. When `idOut` is non-null it
  /// receives the request id this submission went out under (0 on an
  /// immediate connection failure) — the handle a later trace() call
  /// uses to fetch the request's span tree.
  std::future<CheckResult> submit(std::string_view library, CheckRequest req,
                                  std::uint64_t* idOut = nullptr);

  /// Synchronous convenience: submit(...).get().
  CheckResult check(std::string_view library, CheckRequest req);

  /// Fetch a MetricsSnapshot over the wire (kMetricsRequest / kMetrics).
  /// Blocks up to requestTimeoutSeconds (forever when 0).
  bool metrics(obs::MetricsSnapshot& out, std::string* err = nullptr);

  /// The server's ServerStats view: metrics() followed by
  /// server::statsFromMetrics. Same blocking contract as metrics().
  bool stats(server::ServerStats& out, std::string* err = nullptr);

  /// Fetch one trace's spans over the wire (kTraceRequest / kTrace).
  /// `traceId` is the request id a prior submit() reported through
  /// `idOut` (the session roots the trace with it). An unknown or
  /// already-evicted trace succeeds with an empty span list. Same
  /// blocking contract as metrics().
  bool trace(std::uint64_t traceId, std::vector<obs::SpanRecord>& out,
             std::string* err = nullptr);

  /// Counter snapshot.
  ClientTelemetry telemetry() const;

 private:
  struct PendingCheck;
  struct RawReply;

  /// Lazily (re)connect; joins a dead reader thread first. False when
  /// closed, connection fails, or reconnect is disabled after a drop.
  bool ensureConnected(std::string* err);
  /// Send one frame, failing over to disconnect handling on error.
  bool sendFrame(const std::vector<std::uint8_t>& frame);
  void readerLoop();
  /// Fail every pending request and raw wait with kErrConnectionLost
  /// and drop the socket.
  void failAllPending();
  /// Complete pending checks whose deadline has passed (reader thread,
  /// on receive-timeout ticks).
  void expireDeadlines();
  /// Send `frame` and block for the matching `expect`-typed response
  /// payload (the shared machinery behind metrics() and trace()).
  bool rawRoundTrip(FrameType expect, std::vector<std::uint8_t> frame,
                    std::uint64_t id, std::vector<std::uint8_t>& payloadOut,
                    std::string* err);

  ClientOptions opts_;

  /// Serializes frame writes (submitters race). Held only across
  /// sendAll — never while waiting for mu_ — so a submitter blocked by
  /// server-side kBlock backpressure cannot stall the reader's
  /// dispatching. sock_ replacement holds both mutexes.
  std::mutex sendMu_;

  mutable std::mutex mu_;  ///< guards everything below
  Socket sock_;
  /// Socket has been shut down but not closed: close() is deferred to
  /// the next reconnect (under both mutexes) so a concurrent sendAll
  /// never races descriptor reuse.
  bool sockDead_{false};
  std::thread readerThread_;
  bool closed_{false};
  bool everConnected_{false};
  std::uint64_t nextId_{1};
  std::unordered_map<std::uint64_t, std::unique_ptr<PendingCheck>> pending_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RawReply>> pendingRaw_;
  ClientTelemetry telemetry_;
};

}  // namespace dic::net
