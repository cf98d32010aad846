// Tests for dic::obs: span nesting and parent links across the
// work-stealing pool, ring overflow accounting, retained traces, the
// Chrome trace export, histogram bucket-edge semantics, registry kind
// safety, trace consistency across repeated Workspace runs, and the
// concurrent emission/update stress cases CI replays under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/executor.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace dic {
namespace {

/// Enable + clear the tracer for one test and restore the quiet default
/// on exit, so span state never leaks across test cases.
struct TracerFixture {
  TracerFixture() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(true);
  }
  ~TracerFixture() {
    obs::Tracer::instance().setEnabled(false);
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setCapacity(65536);
  }
};

// Every test that expects spans to be recorded needs the emission
// machinery compiled in; a -DDIC_TRACING=OFF build skips them (the
// no-op stubs are still exercised by compiling the rest of the tree).
#if DIC_TRACING_ENABLED

std::vector<obs::SpanRecord> spansOf(std::uint64_t traceId) {
  return obs::Tracer::instance().collect(traceId);
}

TEST(Trace, NestedSpansShareTraceAndChainParents) {
  TracerFixture fx;
  const std::uint64_t t = obs::newTraceId();
  {
    obs::ScopedSpan root("root", t);
    obs::ScopedSpan mid("mid");
    obs::ScopedSpan leaf("leaf");
  }
  std::vector<obs::SpanRecord> spans = spansOf(t);
  ASSERT_EQ(spans.size(), 3u);
  // Spans flush innermost-first (they close in reverse nesting order).
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.startNs < b.startNs;
            });
  EXPECT_EQ(spans[0].label(), "root");
  EXPECT_EQ(spans[1].label(), "mid");
  EXPECT_EQ(spans[2].label(), "leaf");
  EXPECT_EQ(spans[0].parentId, 0u);
  EXPECT_EQ(spans[1].parentId, spans[0].spanId);
  EXPECT_EQ(spans[2].parentId, spans[1].spanId);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.traceId, t);
    EXPECT_GT(s.durNs, 0u);
    EXPECT_GE(spans[0].startNs + spans[0].durNs, s.startNs + s.durNs)
        << "child " << s.label() << " outlived the root";
  }
}

TEST(Trace, SpansOutsideATraceAreNotRecorded) {
  TracerFixture fx;
  { obs::ScopedSpan s("orphan"); }  // no ambient trace -> inactive
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(Trace, DisabledTracerRecordsNothing) {
  TracerFixture fx;
  obs::Tracer::instance().setEnabled(false);
  const std::uint64_t t = obs::newTraceId();
  { obs::ScopedSpan s("quiet", t); }
  EXPECT_TRUE(spansOf(t).empty());
}

TEST(Trace, NestingSurvivesParallelForSteal) {
  TracerFixture fx;
  engine::Executor exec(4);
  const std::uint64_t t = obs::newTraceId();
  constexpr std::size_t kN = 64;
  std::uint64_t rootId = 0;
  {
    obs::ScopedSpan root("fanout.root", t);
    rootId = obs::currentContext().spanId;
    exec.parallelFor(kN, [](std::size_t) {
      obs::ScopedSpan chunk("fanout.chunk");
    });
  }
  const std::vector<obs::SpanRecord> spans = spansOf(t);
  ASSERT_EQ(spans.size(), kN + 1);
  std::size_t chunks = 0;
  std::set<std::uint32_t> tids;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.traceId, t);
    tids.insert(s.tid);
    if (s.label() == "fanout.chunk") {
      ++chunks;
      // The captured context rides the task through any steal: every
      // chunk parents on the root span no matter which thread ran it.
      EXPECT_EQ(s.parentId, rootId);
    } else {
      EXPECT_EQ(s.label(), "fanout.root");
      EXPECT_EQ(s.parentId, 0u);
    }
  }
  EXPECT_EQ(chunks, kN);
  EXPECT_GE(tids.size(), 1u);  // >1 whenever the pool actually stole
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  TracerFixture fx;
  obs::Tracer::instance().setCapacity(64);
  const std::uint64_t t = obs::newTraceId();
  constexpr std::size_t kEmit = 200;
  for (std::size_t i = 0; i < kEmit; ++i) {
    obs::ScopedSpan s("span" + std::to_string(i), t);
  }
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 64u);
  EXPECT_EQ(obs::Tracer::instance().dropped(), kEmit - 64);
  // Oldest-first snapshot of the newest 64 spans.
  EXPECT_EQ(spans.front().label(), "span" + std::to_string(kEmit - 64));
  EXPECT_EQ(spans.back().label(), "span" + std::to_string(kEmit - 1));
  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(Trace, RetainedTraceSurvivesRingWrap) {
  TracerFixture fx;
  obs::Tracer::instance().setCapacity(64);
  const std::uint64_t keep = obs::newTraceId();
  { obs::ScopedSpan s("precious", keep); }
  obs::Tracer::instance().retain(keep);
  const std::uint64_t churn = obs::newTraceId();
  for (int i = 0; i < 200; ++i) {
    obs::ScopedSpan s("churn", churn);
  }
  const std::vector<obs::SpanRecord> spans = spansOf(keep);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].label(), "precious");
}

TEST(Trace, LongNamesTruncateSafely) {
  TracerFixture fx;
  const std::uint64_t t = obs::newTraceId();
  const std::string longName(100, 'n');
  { obs::ScopedSpan s(longName, t); }
  const std::vector<obs::SpanRecord> spans = spansOf(t);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].label(),
            std::string_view(longName).substr(0, sizeof(spans[0].name) - 1));
}

TEST(Trace, ChromeExportIsWellFormed) {
  TracerFixture fx;
  const std::uint64_t t = obs::newTraceId();
  {
    obs::ScopedSpan root("outer", t);
    obs::ScopedSpan leaf("inner");
  }
  const std::string json = obs::toChromeTraceJson(spansOf(t));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  // Ids cross as decimal strings (JSON doubles lose u64 precision).
  EXPECT_NE(json.find("\"trace\":\"" + std::to_string(t) + "\""),
            std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Trace, ConcurrentEmissionKeepsEverySpan) {
  TracerFixture fx;
  obs::Tracer::instance().setCapacity(1 << 17);
  constexpr int kThreads = 8;
  constexpr int kSpansPer = 2000;
  std::vector<std::uint64_t> traces(kThreads);
  for (auto& t : traces) t = obs::newTraceId();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&traces, w] {
      for (int i = 0; i < kSpansPer; ++i) {
        obs::ScopedSpan outer("outer", traces[static_cast<std::size_t>(w)]);
        obs::ScopedSpan inner("inner");
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
  for (int w = 0; w < kThreads; ++w) {
    const std::vector<obs::SpanRecord> spans =
        spansOf(traces[static_cast<std::size_t>(w)]);
    EXPECT_EQ(spans.size(), 2u * kSpansPer);
  }
}

TEST(Trace, ConcurrentSnapshotAndClearRaceEmitters) {
  TracerFixture fx;
  obs::Tracer::instance().setCapacity(1024);
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int w = 0; w < 4; ++w) {
    emitters.emplace_back([&stop] {
      const std::uint64_t t = obs::newTraceId();
      while (!stop.load(std::memory_order_relaxed)) {
        obs::ScopedSpan s("racer", t);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    obs::Tracer::instance().snapshot();
    obs::Tracer::instance().collect(1);
    if (i % 50 == 49) obs::Tracer::instance().clear();
  }
  stop.store(true);
  for (auto& th : emitters) th.join();
}

/// Sorted span names of one trace — the stage-shape fingerprint two
/// identical runs must agree on.
std::vector<std::string> sortedNames(std::uint64_t traceId) {
  std::vector<std::string> names;
  for (const obs::SpanRecord& s : spansOf(traceId))
    names.emplace_back(s.label());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Trace, RepeatedWorkspaceRunsTraceTheSameStages) {
  TracerFixture fx;
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {1, 1, 2, 2, true});
  workload::InjectionPlan plan;
  workload::inject(chip, t, plan, /*seed=*/7);
  Workspace ws(std::move(chip.lib), t, {/*threads=*/2});

  auto tracedRun = [&](std::uint64_t traceId) {
    CheckRequest req = CheckRequest::drc(chip.top);
    req.traceId = traceId;
    const std::vector<CheckResult> res = ws.runBatch({&req, 1});
    ASSERT_EQ(res.size(), 1u);
    ASSERT_TRUE(res[0].ok()) << res[0].error;
  };

  const std::uint64_t cold = obs::newTraceId();
  tracedRun(cold);
  ASSERT_FALSE(spansOf(cold).empty());
  for (const obs::SpanRecord& s : spansOf(cold)) {
    EXPECT_EQ(s.traceId, cold);
    EXPECT_FALSE(s.label().empty());
  }

  // Two warm runs execute the same pipeline stages, so their traces
  // carry identical span-name multisets; the cold run's stages cover
  // everything a warm run does.
  const std::uint64_t warmA = obs::newTraceId();
  tracedRun(warmA);
  const std::uint64_t warmB = obs::newTraceId();
  tracedRun(warmB);
  const std::vector<std::string> a = sortedNames(warmA);
  EXPECT_EQ(a, sortedNames(warmB));
  ASSERT_FALSE(a.empty());
  const std::vector<std::string> coldNames = sortedNames(cold);
  EXPECT_TRUE(std::includes(coldNames.begin(), coldNames.end(), a.begin(),
                            a.end()));
}

#endif  // DIC_TRACING_ENABLED

TEST(Metrics, HistogramBucketEdges) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // under the first edge
  h.observe(1.0);   // exactly on an edge lands in that bucket
  h.observe(1.5);
  h.observe(2.0);   // edge again
  h.observe(4.0);   // last edge
  h.observe(4.001); // past the last edge -> overflow
  EXPECT_EQ(h.bucketCount(0), 2u);
  EXPECT_EQ(h.bucketCount(1), 2u);
  EXPECT_EQ(h.bucketCount(2), 1u);
  EXPECT_EQ(h.bucketCount(3), 1u);
  EXPECT_EQ(h.totalCount(), 6u);
  ASSERT_EQ(h.bounds().size(), 3u);
}

TEST(Metrics, RegistryIsTypedAndIdempotent) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("req.count");
  c.add();
  c.add(4);
  EXPECT_EQ(&reg.counter("req.count"), &c);  // same object on re-request
  EXPECT_THROW(reg.gauge("req.count"), std::logic_error);
  EXPECT_THROW(reg.histogram("req.count"), std::logic_error);

  reg.gauge("queue.depth").set(9);
  reg.histogram("latency").observe(0.001);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snap.metrics.begin(), snap.metrics.end(),
                             [](const obs::MetricValue& a,
                                const obs::MetricValue& b) {
                               return a.name < b.name;
                             }));
  EXPECT_EQ(snap.counterValue("req.count"), 5u);
  EXPECT_EQ(snap.counterValue("queue.depth"), 0u);  // not a counter
  EXPECT_EQ(snap.counterValue("absent"), 0u);
}

TEST(Metrics, ConcurrentRegistrationAndUpdates) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPer = 4000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&reg] {
      // Everyone registers the same names: find-or-create must converge
      // on one object per name under contention.
      obs::Counter& c = reg.counter("shared.count");
      obs::Histogram& h = reg.histogram("shared.latency", {0.5, 1.5});
      for (int i = 0; i < kPer; ++i) {
        c.add();
        h.observe(i % 2 == 0 ? 0.25 : 1.0);
        reg.gauge("shared.depth").set(i);
      }
    });
  }
  for (auto& th : workers) th.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counterValue("shared.count"),
            static_cast<std::uint64_t>(kThreads) * kPer);
  const obs::MetricValue* m = snap.find("shared.latency");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->buckets.size(), 3u);
  EXPECT_EQ(m->buckets[0] + m->buckets[1] + m->buckets[2],
            static_cast<std::uint64_t>(kThreads) * kPer);
  // Half the observations are 0.25, half 1.0: every partial sum is a
  // multiple of 0.25 far below 2^53, so the concurrent sum is exact.
  EXPECT_EQ(m->sum, kThreads * kPer * (0.25 + 1.0) / 2);
  EXPECT_EQ(m->sum, 20000.0);
}

TEST(Metrics, QuantileIsUpperEdgeOfHoldingBucket) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  EXPECT_EQ(obs::quantile(*reg.snapshot().find("lat"), 0.5), 0.0);  // empty
  for (int i = 0; i < 6; ++i) h.observe(0.5);  // bucket 0
  for (int i = 0; i < 3; ++i) h.observe(3.0);  // bucket 2
  h.observe(9.0);                              // overflow
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue& m = *snap.find("lat");
  EXPECT_EQ(obs::quantile(m, 0.0), 1.0);   // rank clamps to the first
  EXPECT_EQ(obs::quantile(m, 0.5), 1.0);   // 5th of 10 in bucket 0
  EXPECT_EQ(obs::quantile(m, 0.61), 4.0);  // 7th: bucket 2
  EXPECT_EQ(obs::quantile(m, 1.0), 4.0);   // overflow reports the last bound
  EXPECT_EQ(m.sum, 6 * 0.5 + 3 * 3.0 + 9.0);
  EXPECT_EQ(snap.find("absent"), nullptr);
}

/// The "library.*" counter subset of a snapshot, re-encoded as a wire
/// frame — the byte-stability contract `check_client --metrics` leans on.
std::vector<std::uint8_t> libraryHeatBytes(const obs::MetricsSnapshot& snap) {
  obs::MetricsSnapshot heat;
  for (const obs::MetricValue& m : snap.metrics)
    if (m.name.rfind("library.", 0) == 0) heat.metrics.push_back(m);
  return net::encodeMetricsFrame(1, heat);
}

TEST(Metrics, PerLibraryHeatByteStableAcrossIdenticalRuns) {
  const tech::Technology t = tech::nmos();
  auto runServer = [&]() {
    server::ServerOptions opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    server::Server srv(opts);
    for (unsigned l = 0; l < 2; ++l) {
      workload::GeneratedChip chip =
          workload::generateChip(t, {1, 1, 2, 2, true});
      workload::InjectionPlan plan;
      workload::inject(chip, t, plan, /*seed=*/l + 1);
      const std::string id = "lib" + std::to_string(l);
      EXPECT_TRUE(srv.addLibrary(id, chip.lib, t));
      for (int i = 0; i < 3; ++i) {
        const CheckResult r =
            srv.submit(id, CheckRequest::drc(chip.top)).get();
        EXPECT_TRUE(r.ok()) << r.error;
      }
    }
    return libraryHeatBytes(srv.metricsSnapshot());
  };
  const std::vector<std::uint8_t> first = runServer();
  const std::vector<std::uint8_t> second = runServer();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dic
