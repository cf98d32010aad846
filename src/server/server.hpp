#pragma once
/// \file server.hpp
/// The sharded multi-library check-serving tier.
///
/// A dic::Workspace is one library's checking session; a
/// `dic::server::Server` is the process that serves many of them under
/// concurrent traffic. It owns N shards — each with its own persistent
/// engine::Executor pool, its own bounded submit queue, and one serving
/// thread driving the shard's Workspaces. Routing is one rule: every
/// request for a library, read or edit, goes to its owner shard,
/// `stableHash(id) % shardCount()` (`shardOf`), where its Workspace and
/// all its state live.
///
/// The front door is asynchronous: `submit` returns a
/// std::future<CheckResult>, and `submitAsync` takes a completion
/// callback instead. Backpressure is explicit: each shard
/// queue is bounded, and a full queue either blocks the submitter or
/// rejects with a CheckResult whose error is kErrQueueFull, per
/// ServerOptions::queue.overflow. Shutdown is two-phase: close the intake,
/// then drain — every accepted request completes with a real result.
/// The full contract lives in docs/server.md.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/workspace.hpp"

namespace dic {
/// \namespace dic::server
/// The sharded multi-library serving tier on top of dic::Workspace.
namespace server {

/// Stable identity of a registered library. Routing hashes it with a
/// fixed function (stableHash), so a given id maps to the same owner
/// shard in every process and run — unlike std::hash, which may differ
/// per implementation.
using LibraryId = std::string;

/// FNV-1a 64-bit: the stable routing hash over LibraryId bytes.
std::uint64_t stableHash(const LibraryId& id);

/// What a full submit queue does to a new submission.
enum class OverflowPolicy : std::uint8_t {
  kBlock,   ///< the submitting thread waits for a queue slot
  kReject,  ///< the future completes immediately with kErrQueueFull
};

/// Machine-checkable CheckResult::error values for server-level
/// failures (the check itself never ran).
inline constexpr const char* kErrQueueFull = "QueueFull";
inline constexpr const char* kErrLibraryNotFound = "LibraryNotFound";
inline constexpr const char* kErrServerStopped = "ServerStopped";

/// Queue/backpressure knobs, one per-shard group (nested in
/// ServerOptions::queue).
struct QueueOptions {
  /// Bounded submit-queue capacity per shard, in requests. The
  /// backpressure boundary.
  std::size_t capacity{256};
  /// Full-queue behavior.
  OverflowPolicy overflow{OverflowPolicy::kBlock};
};

/// Server construction knobs: sizing at the top level, queue/
/// backpressure under `queue`.
struct ServerOptions {
  /// Shard count. <= 0 selects half the hardware threads, clamped to
  /// [1, 8] — enough shards to spread libraries without starving each
  /// shard's pool.
  int shards{0};
  /// Worker-pool size of each shard's executor (WorkspaceOptions
  /// semantics: <= 0 hardware concurrency, 1 serial). Every Workspace
  /// on the shard shares this one pool.
  int threadsPerShard{0};
  /// Queue/backpressure knobs (capacity, overflow policy).
  QueueOptions queue{};
  /// Per-library Workspace view-cache cap, bytes
  /// (WorkspaceOptions::maxCacheBytes; 0 = unbounded). The knob that
  /// keeps long-running shards' memory flat.
  std::size_t maxCacheBytesPerLibrary{0};
  /// Slow-request hook threshold, seconds of end-to-end latency (queue
  /// wait + service). A job at or above it gets one stderr log line
  /// (request/trace id, library, wait/service split, top-3 spans) and
  /// its trace retained past ring churn (obs::Tracer::retain). 0 (the
  /// default) disables the hook entirely.
  double slowRequestSeconds{0};
};

/// Per-library serving heat, reported under the library's owner shard
/// (the only shard that serves it). Read from the registry counters
/// "library.<id>.{served,rejected,bytes}", which addLibrary creates.
struct LibraryHeat {
  LibraryId id;               ///< the library
  std::size_t served{0};      ///< requests completed for it
  std::size_t rejected{0};    ///< requests refused (kErrQueueFull)
  std::uint64_t bytes{0};     ///< approx. result bytes served
};

/// One shard's observability view, read from its "shard.<i>.*" metrics.
struct ShardStats {
  std::size_t libraries{0};     ///< registered libraries on this shard
  std::size_t queueDepth{0};    ///< jobs waiting right now
  std::size_t submitted{0};     ///< requests accepted
  std::size_t served{0};        ///< requests completed
  std::size_t rejected{0};      ///< requests refused with kErrQueueFull
  /// Accepted requests that completed with a server-level error instead
  /// of being served (the library was dropped before they reached the
  /// front). Keeps the books balanced: submitted == served + failed +
  /// currently queued/in-flight.
  std::size_t failed{0};
  /// Median end-to-end latency (queue + service) per job: the upper
  /// edge of the latency histogram bucket holding it, over the
  /// server's lifetime.
  double p50Seconds{0};
  double p95Seconds{0};         ///< tail latency, same bucket quantile
  double meanQueueWaitSeconds{0};  ///< mean time jobs sat queued
  double meanServiceSeconds{0};    ///< mean time jobs spent being served
  std::size_t cacheBytes{0};    ///< accounted view-cache bytes, all libraries
  /// Per-library heat on this shard, sorted by library id.
  std::vector<LibraryHeat> heat;
};

/// Whole-server view (per shard plus totals).
struct ServerStats {
  std::vector<ShardStats> shards;

  std::size_t totalServed() const {
    std::size_t n = 0;
    for (const ShardStats& s : shards) n += s.served;
    return n;
  }
  std::size_t totalRejected() const {
    std::size_t n = 0;
    for (const ShardStats& s : shards) n += s.rejected;
    return n;
  }
  std::size_t totalFailed() const {
    std::size_t n = 0;
    for (const ShardStats& s : shards) n += s.failed;
    return n;
  }
  std::size_t totalCacheBytes() const {
    std::size_t n = 0;
    for (const ShardStats& s : shards) n += s.cacheBytes;
    return n;
  }
};

/// The ServerStats view of a registry snapshot (local or decoded from a
/// kMetrics frame): shard count from "server.shards"; per shard the
/// "shard.<i>.*" counters and gauges, p50/p95 as obs::quantile of
/// "shard.<i>.latency_seconds", and the means as sum / count of the
/// queue-wait and service histograms; heat from the "library.<id>.*"
/// counters, placed under shard stableHash(id) % shards.
ServerStats statsFromMetrics(const obs::MetricsSnapshot& snap);

/// The sharded check server. Thread-safe for every public member:
/// submissions, registration, and stats may race freely from any number
/// of client threads. Results are byte-identical to running the same
/// requests sequentially on a per-library Workspace — each library's
/// requests execute on one shard thread over one Workspace, and the
/// engine's determinism contract covers the pool underneath.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Destruction shuts down (two-phase: intake closed, queues drained).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register a library under `id` (takes ownership; the Workspace is
  /// created on the owning shard). Returns false — and takes nothing —
  /// if the id is already registered or the server is shutting down.
  bool addLibrary(const LibraryId& id, layout::Library lib,
                  tech::Technology tech);

  /// Unregister `id`. The removal is atomic with respect to serving: a
  /// request either sees the library and runs to completion, or
  /// completes with kErrLibraryNotFound — never a half-dropped state.
  /// An in-flight request on the dropped library finishes first (it
  /// shares ownership of the Workspace); queued requests that reach the
  /// front after the drop report kErrLibraryNotFound. Returns false if
  /// the id was not registered.
  bool dropLibrary(const LibraryId& id);

  /// Registered library count, all shards.
  std::size_t libraryCount() const;

  /// The shard that serves `id`: stableHash(id) % shardCount(). Every
  /// request for the library — read or edit — and its add/dropLibrary
  /// go there (docs/server.md, "Routing").
  int shardOf(const LibraryId& id) const {
    return static_cast<int>(stableHash(id) % shards_.size());
  }
  /// \deprecated The owner shard wrapped in a struct, for callers
  /// written against the older placement API. Use shardOf().
  struct Placement {
    int owner{-1};
  };
  /// \deprecated Same as `Placement{shardOf(id)}`.
  Placement placementOf(const LibraryId& id) const { return {shardOf(id)}; }
  /// Number of shards.
  int shardCount() const { return static_cast<int>(shards_.size()); }

  /// Submit one request for `id`'s library. Always returns a valid
  /// future. Server-level failures (queue full under kReject, unknown
  /// library, stopped server) come back through the future as a
  /// CheckResult with the corresponding kErr* string in `error` — the
  /// same per-request error channel the Workspace uses, so callers
  /// handle one shape.
  ///
  /// Edits ride the request: a CheckRequest carrying EditOps routes to
  /// the owning shard like any other submission, and the shard's single
  /// serving thread applies the edits to the library and then checks —
  /// so edit-then-check requests serialize with the library's plain
  /// checks in queue order, and concurrent submitters always observe a
  /// coherent post- or pre-edit result, never a torn one. The serving
  /// Workspace patches its cached view in place when the edit qualifies
  /// (docs/server.md, "Edit routing").
  std::future<CheckResult> submit(const LibraryId& id, CheckRequest req);

  /// submit() with a completion callback instead of a future: `done` is
  /// invoked exactly once with the result — on the owning shard's
  /// serving thread for served requests, or inline on the submitting
  /// thread for immediate failures (stopped server, full queue under
  /// kReject). This is the network tier's drain hook: a net session
  /// hands every decoded frame here and gets told the moment the result
  /// exists, in true completion order, with no future polling. The
  /// callback must not throw and must not block the serving thread on
  /// slow work (a session callback just moves the result to its writer
  /// queue). Under kBlock a full queue blocks the submitting thread,
  /// exactly like submit() — which is what lets a session apply TCP
  /// backpressure by simply pausing its reader.
  void submitAsync(const LibraryId& id, CheckRequest req,
                   std::function<void(CheckResult)> done);

  /// True while the intake is open (before shutdown()). Sessions use
  /// this to refuse new work during a drain without racing the
  /// queue-close handshake.
  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Two-phase shutdown. Phase 1: the intake closes — every later (or
  /// racing) submit completes with kErrServerStopped. Phase 2: each
  /// shard's queue drains — all accepted jobs are served to completion —
  /// and the serving threads join. Idempotent; the destructor calls it.
  void shutdown();

  /// Observability view: statsFromMetrics(metricsSnapshot()). Queue
  /// depths, served/rejected counts, p50/p95 end-to-end latency,
  /// queue-wait vs service split, accounted cache bytes, and per-library
  /// heat, per shard. Callable any time, including after shutdown
  /// (counters freeze at their final values).
  ServerStats stats() const;

  /// The server's metrics registry, the only store of its telemetry.
  /// Per-shard counters and latency histograms ("shard.<i>.*") and
  /// per-library heat counters ("library.<id>.*") update live; the
  /// listener records its own "net.*" metrics here too. Exposed so
  /// embedders can add their own metrics alongside.
  obs::Registry& metrics() { return metrics_; }

  /// Registry capture for the kMetrics wire frame: refreshes the
  /// point-in-time gauges (per-shard libraries, queue depth and cache
  /// bytes; aggregate cache counters) from live state, then returns
  /// metrics().snapshot() — name-sorted, so counter-only subsets (the
  /// per-library heat) are byte-stable across identical runs.
  obs::MetricsSnapshot metricsSnapshot() const;

  /// The options the server actually runs with (shards resolved from
  /// the <= 0 default).
  const ServerOptions& options() const { return opts_; }

 private:
  struct Shard;
  struct Job;

  /// The shared submit preamble: accepting check, enqueue on the owner
  /// shard, and all accept/reject/closed bookkeeping. Every entry point
  /// (submit/submitAsync) is a thin wrapper over this.
  void dispatch(Job&& job);
  void serveLoop(Shard& shard);

  ServerOptions opts_;
  /// Live counters and histograms + point-in-time gauges. Declared
  /// before shards_, which hold references into it.
  mutable obs::Registry metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> accepting_{true};
  std::once_flag shutdownOnce_;
};

}  // namespace server
}  // namespace dic
