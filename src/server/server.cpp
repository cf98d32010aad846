#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <thread>
#include <utility>

#include "engine/arena.hpp"
#include "obs/trace.hpp"
#include "server/queue.hpp"

namespace dic {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A server-level failure result for one request (the check never ran).
CheckResult errorResult(const CheckRequest& req, const char* err) {
  CheckResult r;
  r.kind = req.kind;
  r.root = req.root;
  r.tag = req.tag;
  r.error = err;
  return r;
}

std::vector<CheckResult> errorResults(const std::vector<CheckRequest>& reqs,
                                      const char* err) {
  std::vector<CheckResult> out;
  out.reserve(reqs.size());
  for (const CheckRequest& r : reqs) out.push_back(errorResult(r, err));
  return out;
}

/// Latency samples kept per shard for the p50/p95 snapshot: a fixed ring
/// of the most recent jobs, so long-running servers report current — not
/// lifetime-averaged — tails without unbounded storage.
constexpr std::size_t kLatencyWindow = 1024;

/// Per-library latency ring depth (LibraryHeat::p95Seconds). Smaller
/// than the shard ring: many libraries share one shard.
constexpr std::size_t kHeatLatencyWindow = 256;

/// Approximate serialized size of one result — what LibraryHeat::bytes
/// accumulates. Mirrors the wire envelope's shape (fixed fields plus the
/// variable strings) without paying for an actual encode; deterministic
/// for deterministic results, which is what makes the heat counters
/// byte-stable over the kMetrics frame.
std::uint64_t approxResultBytes(const CheckResult& r) {
  std::uint64_t b = 64 + r.error.size() + r.tag.size();
  for (const report::Violation& v : r.report.violations())
    b += 44 + v.rule.size() + v.cell.size() + v.message.size();
  return b;
}

double p95Of(std::vector<double> lat) {
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  return lat[std::min(lat.size() - 1,
                      static_cast<std::size_t>(
                          static_cast<double>(lat.size()) * 0.95))];
}

}  // namespace

std::uint64_t stableHash(const LibraryId& id) {
  // FNV-1a 64-bit. std::hash is deliberately not used: its value may
  // change across standard libraries and process runs, and routing must
  // be stable so a library's owner shard — and its warm caches —
  // survive.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One queue job: a single request or a whole batch, with its promise
/// and the enqueue timestamp the wait/service split is measured from.
struct Server::Job {
  LibraryId lib;
  std::vector<CheckRequest> reqs;
  bool isBatch{false};
  std::promise<CheckResult> single;
  std::promise<std::vector<CheckResult>> batch;
  /// Completion hook for submitAsync jobs: when set, the result is
  /// delivered here instead of through `single` (net sessions ride
  /// this; the callback runs on the serving thread, or inline on the
  /// submitter for immediate failures).
  std::function<void(CheckResult)> done;
  Clock::time_point enqueued{};

  void deliverSingle(CheckResult&& r) {
    if (done)
      done(std::move(r));
    else
      single.set_value(std::move(r));
  }

  void fail(const char* err) {
    if (isBatch)
      batch.set_value(errorResults(reqs, err));
    else
      deliverSingle(errorResult(reqs.front(), err));
  }
};

struct Server::Shard {
  explicit Shard(const ServerOptions& opts)
      : exec(opts.threadsPerShard), queue(opts.queue.capacity) {}

  engine::Executor exec;  ///< the shard's worker pool, shared by its Workspaces
  BoundedQueue<Job> queue;
  std::thread thread;  ///< the serving thread (drives Workspaces serially)

  /// Per-library heat bookkeeping. A library is served only by its owner
  /// shard, so its monotonic counters in the server's metrics registry
  /// ("library.<id>.*") are exactly its heat; they are cached here as
  /// pointers so the hot path is a relaxed add, not a map lookup. The
  /// latency ring is shard-local under mu.
  struct Heat {
    obs::Counter* served{nullptr};
    obs::Counter* rejected{nullptr};
    obs::Counter* bytes{nullptr};
    std::vector<double> latency;    ///< end-to-end ring, kHeatLatencyWindow
    std::size_t latencyNext{0};
  };

  mutable std::mutex mu;  ///< guards workspaces + the state below
  std::map<LibraryId, std::shared_ptr<Workspace>> workspaces;
  std::map<LibraryId, Heat> heat;  ///< survives dropLibrary (history)
  std::size_t submitted{0};
  std::size_t served{0};
  std::size_t rejected{0};
  std::size_t failed{0};  ///< accepted but library dropped before serving
  double sumQueueWait{0};
  double sumService{0};
  std::size_t jobCount{0};
  std::vector<double> latency;  ///< end-to-end ring, kLatencyWindow deep
  std::size_t latencyNext{0};

  /// Find-or-create a library's heat slot (call with mu held); the
  /// registry counters are resolved once and cached.
  Heat& heatFor(obs::Registry& reg, const LibraryId& id) {
    auto it = heat.find(id);
    if (it == heat.end()) {
      Heat h;
      h.served = &reg.counter("library." + id + ".served");
      h.rejected = &reg.counter("library." + id + ".rejected");
      h.bytes = &reg.counter("library." + id + ".bytes");
      it = heat.emplace(id, std::move(h)).first;
    }
    return it->second;
  }
};

Server::Server(ServerOptions options) : opts_(options) {
  int n = opts_.shards;
  if (n <= 0)
    n = std::clamp(engine::Executor::hardwareThreads() / 2, 1, 8);
  opts_.shards = n;
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>(opts_));
  for (auto& s : shards_)
    s->thread = std::thread([this, sh = s.get()] { serveLoop(*sh); });
}

Server::~Server() { shutdown(); }

bool Server::addLibrary(const LibraryId& id, layout::Library lib,
                        tech::Technology tech) {
  if (!accepting_.load(std::memory_order_acquire)) return false;
  Shard& s = *shards_[static_cast<std::size_t>(shardOf(id))];
  WorkspaceOptions wopts;
  wopts.maxCacheBytes = opts_.maxCacheBytesPerLibrary;
  auto ws = std::make_shared<Workspace>(std::move(lib), std::move(tech),
                                        s.exec, wopts);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.workspaces.emplace(id, std::move(ws)).second;
}

bool Server::dropLibrary(const LibraryId& id) {
  Shard& s = *shards_[static_cast<std::size_t>(shardOf(id))];
  std::lock_guard<std::mutex> lock(s.mu);
  // Erasing the map reference is the whole handoff: the serving thread
  // resolves the Workspace under this mutex per job, and an in-flight
  // job holds its own shared_ptr, so the Workspace (and the library it
  // owns) is destroyed only after the last in-flight request completes.
  return s.workspaces.erase(id) > 0;
}

std::size_t Server::libraryCount() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->workspaces.size();
  }
  return n;
}

void Server::dispatch(Job&& job) {
  const std::size_t n = job.reqs.size();
  if (!accepting_.load(std::memory_order_acquire)) {
    job.fail(kErrServerStopped);
    return;
  }
  Shard& s = *shards_[static_cast<std::size_t>(shardOf(job.lib))];
  job.enqueued = Clock::now();
  const PushResult pushed = opts_.queue.overflow == OverflowPolicy::kBlock
                                ? s.queue.pushBlocking(job)
                                : s.queue.tryPush(job);
  // Failure delivery runs outside the shard mutex: a submitAsync
  // callback may itself take locks, and holding s.mu across foreign
  // code invites ordering bugs.
  switch (pushed) {
    case PushResult::kOk: {
      std::lock_guard<std::mutex> lock(s.mu);
      s.submitted += n;
      break;
    }
    case PushResult::kFull: {
      {
        std::lock_guard<std::mutex> lock(s.mu);
        s.rejected += n;
        Shard::Heat& h = s.heatFor(metrics_, job.lib);
        h.rejected->add(n);
        metrics_.counter("server.rejected").add(n);
      }
      job.fail(kErrQueueFull);
      break;
    }
    case PushResult::kClosed:
      job.fail(kErrServerStopped);
      break;
  }
}

std::future<CheckResult> Server::submit(const LibraryId& id,
                                        CheckRequest req) {
  Job job;
  job.lib = id;
  job.reqs.push_back(std::move(req));
  std::future<CheckResult> fut = job.single.get_future();
  dispatch(std::move(job));
  return fut;
}

void Server::submitAsync(const LibraryId& id, CheckRequest req,
                         std::function<void(CheckResult)> done) {
  Job job;
  job.lib = id;
  job.reqs.push_back(std::move(req));
  job.done = std::move(done);
  dispatch(std::move(job));
}

std::future<std::vector<CheckResult>> Server::submitBatch(
    const LibraryId& id, std::vector<CheckRequest> reqs) {
  Job job;
  job.lib = id;
  job.reqs = std::move(reqs);
  job.isBatch = true;
  std::future<std::vector<CheckResult>> fut = job.batch.get_future();
  if (job.reqs.empty()) {
    job.batch.set_value({});
    return fut;
  }
  dispatch(std::move(job));
  return fut;
}

void Server::serveLoop(Shard& shard) {
  obs::Counter& cServed = metrics_.counter("server.served");
  obs::Counter& cFailed = metrics_.counter("server.failed");
  obs::Histogram& hService = metrics_.histogram("server.service_seconds");
  obs::Histogram& hWait = metrics_.histogram("server.queue_wait_seconds");
  Job job;
  while (shard.queue.pop(job)) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t n = job.reqs.size();
    std::shared_ptr<Workspace> ws;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.workspaces.find(job.lib);
      if (it != shard.workspaces.end()) ws = it->second;
    }
    if (!ws) {
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.failed += n;
      }
      cFailed.add(n);
      job.fail(kErrLibraryNotFound);
      continue;
    }
    const double wait = secondsBetween(job.enqueued, t0);
    // The queue-wait span: measured by timestamps (the wait already
    // happened), emitted under the request's trace so the exported
    // timeline shows intake → queue → service as one chain. Batches
    // attribute it to their first request's trace.
    const std::uint64_t traceId = job.reqs.front().traceId;
    if (traceId != 0 && obs::Tracer::instance().enabled()) {
      obs::ContextGuard guard(obs::TraceContext{traceId, 0});
      const auto waitNs = static_cast<std::uint64_t>(wait * 1e9);
      obs::emitSpan("queue.wait", obs::nowNs() - waitNs, waitNs);
    }
    std::vector<CheckResult> batchOut;
    CheckResult singleOut;
    std::uint64_t bytes = 0;
    if (job.isBatch) {
      batchOut = ws->runBatch(job.reqs);
      for (const CheckResult& r : batchOut) bytes += approxResultBytes(r);
    } else {
      singleOut = ws->run(job.reqs.front());
      bytes = approxResultBytes(singleOut);
    }
    const Clock::time_point t1 = Clock::now();
    const double service = secondsBetween(t0, t1);
    const double total = secondsBetween(job.enqueued, t1);
    {
      // Stats are recorded *before* the promise resolves, so a client
      // that just observed its result never reads a served count that
      // hasn't caught up with it yet.
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.served += n;
      shard.sumQueueWait += wait;
      shard.sumService += service;
      ++shard.jobCount;
      if (shard.latency.size() < kLatencyWindow) {
        shard.latency.push_back(total);
      } else {
        shard.latency[shard.latencyNext] = total;
        shard.latencyNext = (shard.latencyNext + 1) % kLatencyWindow;
      }
      Shard::Heat& heat = shard.heatFor(metrics_, job.lib);
      heat.served->add(n);
      heat.bytes->add(bytes);
      if (heat.latency.size() < kHeatLatencyWindow) {
        heat.latency.push_back(total);
      } else {
        heat.latency[heat.latencyNext] = total;
        heat.latencyNext = (heat.latencyNext + 1) % kHeatLatencyWindow;
      }
    }
    cServed.add(n);
    hService.observe(service);
    hWait.observe(wait);
    // The slow-request hook: one stderr line plus span retention (the
    // trace survives ring churn for a later --trace fetch). Off unless
    // ServerOptions::slowRequestSeconds is set.
    if (opts_.slowRequestSeconds > 0 && total >= opts_.slowRequestSeconds) {
      obs::Tracer& tracer = obs::Tracer::instance();
      std::string top;
      if (traceId != 0 && tracer.enabled()) {
        tracer.retain(traceId);
        std::vector<obs::SpanRecord> spans = tracer.collect(traceId);
        std::sort(spans.begin(), spans.end(),
                  [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                    return a.durNs > b.durNs;
                  });
        char buf[96];
        for (std::size_t i = 0; i < spans.size() && i < 3; ++i) {
          std::snprintf(buf, sizeof buf, " %s=%.3fms", spans[i].name,
                        static_cast<double>(spans[i].durNs) / 1e6);
          top += buf;
        }
      }
      std::fprintf(stderr,
                   "dic-server: slow request id=%" PRIu64
                   " lib=%s kind=%s wait=%.3fms service=%.3fms top:%s\n",
                   traceId, job.lib.c_str(),
                   toString(job.reqs.front().kind).c_str(), wait * 1e3,
                   service * 1e3, top.empty() ? " (no spans)" : top.c_str());
    }
    if (job.isBatch)
      job.batch.set_value(std::move(batchOut));
    else
      job.deliverSingle(std::move(singleOut));
  }
}

void Server::shutdown() {
  // Phase 1: close the intake. Submissions observing this complete with
  // kErrServerStopped; one racing past it lands in a queue that close()
  // below turns away (kClosed) or that the drain still serves — either
  // way its future completes.
  accepting_.store(false, std::memory_order_release);
  // Phase 2: drain. close() stops producers; pop() keeps handing out
  // accepted jobs until each queue is empty, so every accepted future
  // resolves with a real result before the serving threads exit.
  std::call_once(shutdownOnce_, [this] {
    for (auto& s : shards_) s->queue.close();
    for (auto& s : shards_)
      if (s->thread.joinable()) s->thread.join();
  });
}

ServerStats Server::stats() const {
  ServerStats out;
  out.shards.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    ShardStats st;
    st.queueDepth = s.queue.size();
    std::vector<double> lat;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      st.libraries = s.workspaces.size();
      st.submitted = s.submitted;
      st.served = s.served;
      st.rejected = s.rejected;
      st.failed = s.failed;
      if (s.jobCount > 0) {
        st.meanQueueWaitSeconds =
            s.sumQueueWait / static_cast<double>(s.jobCount);
        st.meanServiceSeconds =
            s.sumService / static_cast<double>(s.jobCount);
      }
      lat = s.latency;
      for (const auto& [id, ws] : s.workspaces) {
        (void)id;
        st.cacheBytes += ws->cacheStats().cacheBytes;
      }
      // Per-library heat: the registry counters, p95 from each library's
      // own recent-latency ring. The map iterates in id order, so the
      // vector is already sorted.
      for (const auto& [id, h] : s.heat) {
        LibraryHeat lh;
        lh.id = id;
        lh.served = static_cast<std::size_t>(h.served->value());
        lh.rejected = static_cast<std::size_t>(h.rejected->value());
        lh.bytes = h.bytes->value();
        lh.p95Seconds = p95Of(h.latency);
        st.heat.push_back(std::move(lh));
      }
    }
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      st.p50Seconds = lat[lat.size() / 2];
      st.p95Seconds = lat[std::min(lat.size() - 1,
                                   static_cast<std::size_t>(
                                       static_cast<double>(lat.size()) *
                                       0.95))];
    }
    out.shards.push_back(std::move(st));
  }
  return out;
}

obs::MetricsSnapshot Server::metricsSnapshot() const {
  // Live counters ("server.served", "library.<id>.*", the latency
  // histograms) are already current; snapshot-style state is republished
  // as gauges here so one frame carries both.
  std::size_t queueDepth = 0;
  std::size_t libraries = 0;
  Workspace::CacheStats agg;
  for (const auto& sp : shards_) {
    queueDepth += sp->queue.size();
    std::lock_guard<std::mutex> lock(sp->mu);
    libraries += sp->workspaces.size();
    for (const auto& [id, ws] : sp->workspaces) {
      (void)id;
      const Workspace::CacheStats cs = ws->cacheStats();
      agg.viewHits += cs.viewHits;
      agg.viewMisses += cs.viewMisses;
      agg.viewEvictions += cs.viewEvictions;
      agg.lruEvictions += cs.lruEvictions;
      agg.netlistHits += cs.netlistHits;
      agg.cachedViews += cs.cachedViews;
      agg.cacheBytes += cs.cacheBytes;
    }
  }
  const auto setGauge = [this](const char* name, std::size_t v) {
    metrics_.gauge(name).set(static_cast<std::int64_t>(v));
  };
  setGauge("server.queue_depth", queueDepth);
  setGauge("server.libraries", libraries);
  setGauge("cache.view_hits", agg.viewHits);
  setGauge("cache.view_misses", agg.viewMisses);
  setGauge("cache.view_evictions", agg.viewEvictions);
  setGauge("cache.lru_evictions", agg.lruEvictions);
  setGauge("cache.netlist_hits", agg.netlistHits);
  setGauge("cache.views", agg.cachedViews);
  setGauge("cache.bytes", agg.cacheBytes);
  setGauge("cache.scratch_bytes", engine::Arena::totalReservedBytes());
  return metrics_.snapshot();
}

}  // namespace server
}  // namespace dic
