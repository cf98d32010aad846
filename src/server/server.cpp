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

/// "shard.<i>.<field>": the registry name of one shard's metric.
std::string shardMetric(std::size_t shard, const char* field) {
  return "shard." + std::to_string(shard) + "." + field;
}

/// Lifetime mean of a histogram (sum / count), 0 when absent or empty.
double meanOf(const obs::MetricValue* h) {
  if (!h || h->kind != obs::MetricValue::Kind::kHistogram) return 0;
  std::uint64_t count = 0;
  for (std::uint64_t c : h->buckets) count += c;
  return count > 0 ? h->sum / static_cast<double>(count) : 0;
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

/// One queue job: one request, its promise, and the enqueue timestamp
/// the wait/service split is measured from.
struct Server::Job {
  LibraryId lib;
  CheckRequest req;
  std::promise<CheckResult> result;
  /// Completion hook for submitAsync jobs: when set, the result is
  /// delivered here instead of through `result` (net sessions ride
  /// this; the callback runs on the serving thread, or inline on the
  /// submitter for immediate failures).
  std::function<void(CheckResult)> done;
  Clock::time_point enqueued{};

  void deliver(CheckResult&& r) {
    if (done)
      done(std::move(r));
    else
      result.set_value(std::move(r));
  }

  void fail(const char* err) { deliver(errorResult(req, err)); }
};

struct Server::Shard {
  Shard(const ServerOptions& opts, obs::Registry& reg, std::size_t index)
      : exec(opts.threadsPerShard),
        queue(opts.queue.capacity),
        submitted(reg.counter(shardMetric(index, "submitted"))),
        served(reg.counter(shardMetric(index, "served"))),
        rejected(reg.counter(shardMetric(index, "rejected"))),
        failed(reg.counter(shardMetric(index, "failed"))),
        queueWait(reg.histogram(shardMetric(index, "queue_wait_seconds"))),
        service(reg.histogram(shardMetric(index, "service_seconds"))),
        latency(reg.histogram(shardMetric(index, "latency_seconds"))) {}

  engine::Executor exec;  ///< the shard's worker pool, shared by its Workspaces
  BoundedQueue<Job> queue;
  std::thread thread;  ///< the serving thread (drives Workspaces serially)

  // The shard's telemetry ("shard.<i>.*" in the server's registry),
  // resolved once so the hot path is a relaxed atomic add.
  obs::Counter& submitted;  ///< requests accepted
  obs::Counter& served;     ///< requests completed
  obs::Counter& rejected;   ///< requests refused with kErrQueueFull
  obs::Counter& failed;     ///< accepted, but the library was gone
  obs::Histogram& queueWait;  ///< per job: enqueue -> serving starts
  obs::Histogram& service;    ///< per job: serving starts -> result
  obs::Histogram& latency;    ///< per job: enqueue -> result

  /// A registered library: its Workspace plus its heat counters
  /// ("library.<id>.*"), created by addLibrary and never for an id that
  /// was not registered. The counters outlive dropLibrary (history).
  struct Library {
    std::shared_ptr<Workspace> ws;
    obs::Counter* served{nullptr};
    obs::Counter* rejected{nullptr};
    obs::Counter* bytes{nullptr};
  };

  mutable std::mutex mu;  ///< guards libraries
  std::map<LibraryId, Library> libraries;

  /// The registered library `id`, or an empty entry (call with mu held).
  Library find(const LibraryId& id) const {
    auto it = libraries.find(id);
    return it != libraries.end() ? it->second : Library{};
  }
};

Server::Server(ServerOptions options) : opts_(options) {
  int n = opts_.shards;
  if (n <= 0)
    n = std::clamp(engine::Executor::hardwareThreads() / 2, 1, 8);
  opts_.shards = n;
  shards_.reserve(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
    shards_.push_back(std::make_unique<Shard>(opts_, metrics_, i));
  metrics_.gauge("server.shards").set(n);
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
  Shard::Library entry;
  entry.ws = std::make_shared<Workspace>(std::move(lib), std::move(tech),
                                         s.exec, wopts);
  entry.served = &metrics_.counter("library." + id + ".served");
  entry.rejected = &metrics_.counter("library." + id + ".rejected");
  entry.bytes = &metrics_.counter("library." + id + ".bytes");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.libraries.emplace(id, std::move(entry)).second;
}

bool Server::dropLibrary(const LibraryId& id) {
  Shard& s = *shards_[static_cast<std::size_t>(shardOf(id))];
  std::lock_guard<std::mutex> lock(s.mu);
  // Erasing the map reference is the whole handoff: the serving thread
  // resolves the Workspace under this mutex per job, and an in-flight
  // job holds its own shared_ptr, so the Workspace (and the library it
  // owns) is destroyed only after the last in-flight request completes.
  return s.libraries.erase(id) > 0;
}

std::size_t Server::libraryCount() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->libraries.size();
  }
  return n;
}

void Server::dispatch(Job&& job) {
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
    case PushResult::kOk:
      s.submitted.add(1);
      break;
    case PushResult::kFull: {
      s.rejected.add(1);
      // Only a registered library has heat counters: an unknown id from
      // outside counts on the shard alone and allocates nothing.
      obs::Counter* heat = nullptr;
      {
        std::lock_guard<std::mutex> lock(s.mu);
        heat = s.find(job.lib).rejected;
      }
      if (heat) heat->add(1);
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
  job.req = std::move(req);
  std::future<CheckResult> fut = job.result.get_future();
  dispatch(std::move(job));
  return fut;
}

void Server::submitAsync(const LibraryId& id, CheckRequest req,
                         std::function<void(CheckResult)> done) {
  Job job;
  job.lib = id;
  job.req = std::move(req);
  job.done = std::move(done);
  dispatch(std::move(job));
}

void Server::serveLoop(Shard& shard) {
  Job job;
  while (shard.queue.pop(job)) {
    const Clock::time_point t0 = Clock::now();
    Shard::Library lib;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      lib = shard.find(job.lib);
    }
    if (!lib.ws) {
      shard.failed.add(1);
      job.fail(kErrLibraryNotFound);
      continue;
    }
    const double wait = secondsBetween(job.enqueued, t0);
    // The queue-wait span: measured by timestamps (the wait already
    // happened), emitted under the request's trace so the exported
    // timeline shows intake → queue → service as one chain.
    const std::uint64_t traceId = job.req.traceId;
    if (traceId != 0 && obs::Tracer::instance().enabled()) {
      obs::ContextGuard guard(obs::TraceContext{traceId, 0});
      const auto waitNs = static_cast<std::uint64_t>(wait * 1e9);
      obs::emitSpan("queue.wait", obs::nowNs() - waitNs, waitNs);
    }
    CheckResult out = lib.ws->run(job.req);
    const Clock::time_point t1 = Clock::now();
    const double service = secondsBetween(t0, t1);
    const double total = secondsBetween(job.enqueued, t1);
    // Telemetry is recorded *before* the promise resolves, so a client
    // that just observed its result never reads a served count that
    // hasn't caught up with it yet.
    shard.served.add(1);
    shard.queueWait.observe(wait);
    shard.service.observe(service);
    shard.latency.observe(total);
    lib.served->add(1);
    lib.bytes->add(approxResultBytes(out));
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
                   toString(job.req.kind).c_str(), wait * 1e3,
                   service * 1e3, top.empty() ? " (no spans)" : top.c_str());
    }
    job.deliver(std::move(out));
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
  return statsFromMetrics(metricsSnapshot());
}

obs::MetricsSnapshot Server::metricsSnapshot() const {
  // Counters and histograms are already current; point-in-time state is
  // published as gauges here so one snapshot carries both.
  const auto setGauge = [this](const std::string& name, std::size_t v) {
    metrics_.gauge(name).set(static_cast<std::int64_t>(v));
  };
  Workspace::CacheStats agg;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    std::size_t libraries = 0, cacheBytes = 0;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      libraries = s.libraries.size();
      for (const auto& [id, lib] : s.libraries) {
        (void)id;
        const Workspace::CacheStats cs = lib.ws->cacheStats();
        cacheBytes += cs.cacheBytes;
        agg.viewHits += cs.viewHits;
        agg.viewMisses += cs.viewMisses;
        agg.viewEvictions += cs.viewEvictions;
        agg.lruEvictions += cs.lruEvictions;
        agg.netlistHits += cs.netlistHits;
        agg.cachedViews += cs.cachedViews;
        agg.cacheBytes += cs.cacheBytes;
      }
    }
    setGauge(shardMetric(i, "libraries"), libraries);
    setGauge(shardMetric(i, "queue_depth"), s.queue.size());
    setGauge(shardMetric(i, "cache_bytes"), cacheBytes);
  }
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

ServerStats statsFromMetrics(const obs::MetricsSnapshot& snap) {
  const auto count = [&snap](const std::string& name) {
    return static_cast<std::size_t>(snap.counterValue(name));
  };
  const auto gauge = [&snap](const std::string& name) {
    return static_cast<std::size_t>(
        std::max<std::int64_t>(0, snap.gaugeValue(name)));
  };
  ServerStats out;
  // Every shard registers several metrics, so a snapshot cannot describe
  // more shards than it has metrics: the cap keeps a hostile gauge from
  // sizing the allocation.
  const std::size_t shards =
      std::min(gauge("server.shards"), snap.metrics.size());
  out.shards.resize(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    ShardStats& st = out.shards[i];
    st.libraries = gauge(shardMetric(i, "libraries"));
    st.queueDepth = gauge(shardMetric(i, "queue_depth"));
    st.cacheBytes = gauge(shardMetric(i, "cache_bytes"));
    st.submitted = count(shardMetric(i, "submitted"));
    st.served = count(shardMetric(i, "served"));
    st.rejected = count(shardMetric(i, "rejected"));
    st.failed = count(shardMetric(i, "failed"));
    if (const obs::MetricValue* lat =
            snap.find(shardMetric(i, "latency_seconds"))) {
      st.p50Seconds = obs::quantile(*lat, 0.5);
      st.p95Seconds = obs::quantile(*lat, 0.95);
    }
    st.meanQueueWaitSeconds =
        meanOf(snap.find(shardMetric(i, "queue_wait_seconds")));
    st.meanServiceSeconds =
        meanOf(snap.find(shardMetric(i, "service_seconds")));
  }
  if (shards == 0) return out;
  // Heat: "library.<id>.<field>" counters, a contiguous name-sorted run.
  // The std::map keeps each shard's entries sorted by id.
  const std::string prefix = "library.";
  std::map<LibraryId, LibraryHeat> heat;
  auto it = std::lower_bound(snap.metrics.begin(), snap.metrics.end(), prefix,
                             [](const obs::MetricValue& m,
                                const std::string& n) { return m.name < n; });
  for (; it != snap.metrics.end() && it->name.rfind(prefix, 0) == 0; ++it) {
    const std::size_t dot = it->name.rfind('.');
    if (dot < prefix.size() || it->kind != obs::MetricValue::Kind::kCounter)
      continue;
    const LibraryId id = it->name.substr(prefix.size(), dot - prefix.size());
    const std::string field = it->name.substr(dot + 1);
    LibraryHeat& h = heat[id];
    h.id = id;
    if (field == "served") h.served = static_cast<std::size_t>(it->counter);
    if (field == "rejected") h.rejected = static_cast<std::size_t>(it->counter);
    if (field == "bytes") h.bytes = it->counter;
  }
  for (auto& [id, h] : heat)
    out.shards[stableHash(id) % shards].heat.push_back(std::move(h));
  return out;
}

}  // namespace server
}  // namespace dic
