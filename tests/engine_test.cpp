// Tests for the shared hierarchy-view/spatial-query engine: GridIndex key
// packing (negative coordinates, cell straddling, dedup), HierarchyView
// candidate pairs against a brute-force oracle, the stage runner, the
// parallel executor's determinism contract, and flat-vs-hierarchical
// violation-set equivalence now that both run through the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>

#include "drc/checker.hpp"
#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "engine/pipeline.hpp"
#include "geom/spatial.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace dic {
namespace {

using geom::makeRect;
using geom::Rect;

// --- GridIndex key packing ---------------------------------------------------

TEST(GridIndex, NegativeCoordinatesDoNotAlias) {
  // Rows at negative gy used to collide with large positive rows. Every
  // inserted rect must be found by a query over its own area, and a
  // far-away query must not return it.
  geom::GridIndex idx(100);
  idx.insert(0, makeRect(-250, -250, -150, -150));
  idx.insert(1, makeRect(150, 150, 250, 250));
  idx.insert(2, makeRect(-250, 150, -150, 250));
  idx.insert(3, makeRect(150, -250, 250, -150));
  for (std::size_t i = 0; i < 4; ++i) {
    const Rect probe = i == 0   ? makeRect(-260, -260, -140, -140)
                       : i == 1 ? makeRect(140, 140, 260, 260)
                       : i == 2 ? makeRect(-260, 140, -140, 260)
                                : makeRect(140, -260, 260, -140);
    const auto got = idx.query(probe);
    EXPECT_EQ(got, std::vector<std::size_t>{i}) << "quadrant " << i;
  }
}

TEST(GridIndex, CellBoundaryStraddlingDeduplicated) {
  // A rect spanning many grid cells is inserted into each of them but
  // must be reported exactly once.
  geom::GridIndex idx(64);
  idx.insert(7, makeRect(-200, -200, 200, 200));
  const auto got = idx.query(makeRect(-300, -300, 300, 300));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7u);
}

TEST(GridIndex, RandomOracleWithNegativeCoords) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<geom::Coord> c(-50000, 50000), s(1, 4000);
  std::vector<Rect> rects;
  geom::GridIndex idx(1024);
  for (int i = 0; i < 250; ++i) {
    const geom::Coord x = c(rng), y = c(rng);
    rects.push_back(makeRect(x, y, x + s(rng), y + s(rng)));
    idx.insert(i, rects.back());
  }
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const auto cand = idx.query(rects[i]);
    // Sorted + deduplicated.
    EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    EXPECT_EQ(std::adjacent_find(cand.begin(), cand.end()), cand.end());
    // No false negatives.
    for (std::size_t j = 0; j < rects.size(); ++j) {
      if (i == j || !geom::closedTouch(rects[i], rects[j])) continue;
      EXPECT_NE(std::find(cand.begin(), cand.end(), j), cand.end())
          << i << " vs " << j;
    }
  }
}

// --- HierarchyView -----------------------------------------------------------

/// A three-level library: top instantiates mid twice (one rotated), mid
/// instantiates leaf twice. Elements at every level.
struct SmallHierarchy {
  layout::Library lib;
  layout::CellId leaf, mid, top;

  SmallHierarchy() {
    layout::Cell l;
    l.name = "leaf";
    l.elements.push_back(layout::makeBox(0, makeRect(0, 0, 100, 100)));
    l.elements.push_back(layout::makeBox(1, makeRect(200, 0, 300, 100)));
    leaf = lib.addCell(std::move(l));

    layout::Cell m;
    m.name = "mid";
    m.elements.push_back(layout::makeBox(0, makeRect(0, 200, 400, 260)));
    m.instances.push_back({leaf, {geom::Orient::kR0, {0, 0}}, "a"});
    m.instances.push_back({leaf, {geom::Orient::kR0, {500, 0}}, "b"});
    mid = lib.addCell(std::move(m));

    layout::Cell t;
    t.name = "top";
    t.elements.push_back(layout::makeBox(1, makeRect(-300, -300, -100, -100)));
    t.instances.push_back({mid, {geom::Orient::kR0, {0, 0}}, "m0"});
    t.instances.push_back({mid, {geom::Orient::kR90, {2000, 0}}, "m1"});
    top = lib.addCell(std::move(t));
  }
};

TEST(HierarchyView, PlacementEnumeration) {
  SmallHierarchy h;
  engine::HierarchyView view(h.lib, h.top);
  EXPECT_EQ(view.placementsOf(h.top).size(), 1u);
  EXPECT_EQ(view.placementsOf(h.mid).size(), 2u);
  EXPECT_EQ(view.placementsOf(h.leaf).size(), 4u);
  std::vector<std::string> paths;
  for (const auto& p : view.placementsOf(h.leaf)) paths.push_back(p.path);
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths, (std::vector<std::string>{"m0.a", "m0.b", "m1.a", "m1.b"}));
}

TEST(HierarchyView, FlatViewsAndLayerQueries) {
  SmallHierarchy h;
  engine::HierarchyView view(h.lib, h.top);
  const auto& flat = view.flat(true);
  // 1 top + 2 mids x (1 + 2 leaves x 2) = 11 elements.
  EXPECT_EQ(flat.elements.size(), 11u);
  // Layer-restricted candidate queries return only that layer.
  const auto onLayer0 =
      view.flatCandidates(true, 0, makeRect(-5000, -5000, 5000, 5000));
  for (std::size_t i : onLayer0)
    EXPECT_EQ(flat.elements[i].element.layer, 0);
}

TEST(HierarchyView, FlatPairsMatchBruteForceOracle) {
  SmallHierarchy h;
  engine::HierarchyView view(h.lib, h.top);
  const auto& flat = view.flat(true);
  for (const geom::Coord dist : {geom::Coord{1}, geom::Coord{150},
                                 geom::Coord{1000}, geom::Coord{5000}}) {
    const auto pairs = view.flatPairs(true, dist);
    std::vector<std::pair<std::size_t, std::size_t>> oracle;
    for (std::size_t i = 0; i < flat.elements.size(); ++i)
      for (std::size_t j = i + 1; j < flat.elements.size(); ++j)
        if (geom::rectDistance(flat.bboxes[i], flat.bboxes[j],
                               geom::Metric::kOrthogonal) <=
            static_cast<double>(dist))
          oracle.push_back({i, j});
    EXPECT_EQ(pairs, oracle) << "dist " << dist;
  }
}

TEST(HierarchyView, LocalPairsMatchBruteForceOracle) {
  std::mt19937 rng(21);
  std::uniform_int_distribution<geom::Coord> c(-8000, 8000), s(10, 900);
  layout::Library lib;
  layout::Cell cell;
  cell.name = "rand";
  std::vector<Rect> boxes;
  for (int i = 0; i < 120; ++i) {
    const geom::Coord x = c(rng), y = c(rng);
    boxes.push_back(makeRect(x, y, x + s(rng), y + s(rng)));
    cell.elements.push_back(layout::makeBox(0, boxes.back()));
  }
  const auto id = lib.addCell(std::move(cell));
  engine::HierarchyView view(lib, id);
  const geom::Coord dist = 500;
  const auto pairs = view.localPairs(id, dist);
  std::vector<std::pair<std::size_t, std::size_t>> oracle;
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      if (geom::rectDistance(boxes[i], boxes[j], geom::Metric::kOrthogonal) <=
          static_cast<double>(dist))
        oracle.push_back({i, j});
  EXPECT_EQ(pairs, oracle);
}

TEST(SpatialSet, CandidatesNeverMiss) {
  std::mt19937 rng(5);
  std::uniform_int_distribution<geom::Coord> c(-30000, 30000), s(1, 2500);
  std::vector<Rect> rects;
  for (int i = 0; i < 200; ++i) {
    const geom::Coord x = c(rng), y = c(rng);
    rects.push_back(makeRect(x, y, x + s(rng), y + s(rng)));
  }
  const engine::SpatialSet set(rects);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const auto cand = set.candidates(rects[i], 100);
    for (std::size_t j = 0; j < rects.size(); ++j) {
      if (i == j) continue;
      if (geom::rectDistance(rects[i], rects[j], geom::Metric::kOrthogonal) >
          100.0)
        continue;
      EXPECT_NE(std::find(cand.begin(), cand.end(), j), cand.end());
    }
  }
}

// --- Executor + Pipeline -----------------------------------------------------

TEST(Executor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 4}) {
    engine::Executor exec(threads);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    exec.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(Executor, PropagatesWorkerExceptions) {
  for (const int threads : {1, 4}) {
    engine::Executor exec(threads);
    EXPECT_THROW(exec.parallelFor(200,
                                  [](std::size_t i) {
                                    if (i == 37)
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
  }
}

TEST(Executor, HardwareThreadsCachedAndUsedForNonPositiveRequest) {
  const int hw = engine::Executor::hardwareThreads();
  EXPECT_GE(hw, 1);
  // Cached once per process: repeated calls agree.
  EXPECT_EQ(hw, engine::Executor::hardwareThreads());
  engine::Executor def(0), neg(-3);
  EXPECT_EQ(def.threads(), hw);
  EXPECT_EQ(neg.threads(), hw);
}

TEST(Executor, NestedParallelForSharesOnePool) {
  // A stage-like outer fan-out whose items each fan out again. The inner
  // loops share the same pool via work-stealing; every (outer, inner)
  // pair must run exactly once.
  engine::Executor exec(4);
  constexpr std::size_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  exec.parallelFor(outer, [&](std::size_t o) {
    exec.parallelFor(
        inner, [&](std::size_t i) { hits[o * inner + i].fetch_add(1); });
  });
  for (std::size_t k = 0; k < outer * inner; ++k)
    EXPECT_EQ(hits[k].load(), 1) << "slot " << k;
}

TEST(Executor, SubmitRunsTasksAndHelpUntilDrains) {
  for (const int threads : {1, 4}) {
    engine::Executor exec(threads);
    constexpr int n = 100;
    std::atomic<int> doneCount{0};
    for (int i = 0; i < n; ++i)
      exec.submit([&] { doneCount.fetch_add(1); });
    exec.helpUntil([&] { return doneCount.load() == n; });
    EXPECT_EQ(doneCount.load(), n);
  }
}

TEST(Executor, ScopedHelpStealsOnlyMatchingTasks) {
  // One pool worker, parked on a latch so the deque piles up. The main
  // thread then helps with scope A: it must run the A-tagged tasks (its
  // "own pipeline run") and leave the B-tagged one for the worker —
  // that's what keeps a blocked coordinator's wall clock free of sibling
  // runs' work.
  engine::Executor exec(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> parked{false};
  exec.submit([&] {
    parked.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!parked.load()) std::this_thread::yield();

  const engine::Executor::ScopeId scopeA = engine::Executor::newScope();
  const engine::Executor::ScopeId scopeB = engine::Executor::newScope();
  std::atomic<int> aDone{0};
  std::atomic<bool> bDone{false};
  exec.submit([&] { bDone.store(true); }, scopeB);
  for (int i = 0; i < 3; ++i)
    exec.submit(
        [&] {
          // A nested submit inherits the executing task's scope, so the
          // scoped helper may pick it up too (a stage's inner fan-out).
          exec.submit([&] { aDone.fetch_add(1); });
          aDone.fetch_add(1);
        },
        scopeA);

  exec.helpUntil([&] { return aDone.load() == 6; }, scopeA);
  EXPECT_EQ(aDone.load(), 6);
  EXPECT_FALSE(bDone.load());  // foreign scope: not stolen by the helper

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The worker (which ignores scopes) drains the B task.
  exec.helpUntil([&] { return bDone.load(); });
  EXPECT_TRUE(bDone.load());
}

TEST(Pipeline, DependenciesGateExecutionAndMergeIsDeclaredOrder) {
  for (const int threads : {1, 4}) {
    engine::Executor exec(threads);
    engine::Pipeline pipe;
    std::mutex mu;
    std::vector<std::string> started;
    auto stage = [&](const std::string& name) {
      return [&, name](engine::Executor&) {
        {
          std::lock_guard<std::mutex> lock(mu);
          started.push_back(name);
        }
        report::Report r;
        report::Violation v;
        v.message = name;
        r.add(std::move(v));
        return r;
      };
    };
    pipe.add({"a", {}, stage("a")});
    pipe.add({"b", {}, stage("b")});
    pipe.add({"gate", {}, stage("gate")});
    pipe.add({"after", {"gate"}, stage("after")});
    const report::Report rep = pipe.run(exec);
    // "after" cannot start before "gate" completed.
    const auto posGate = std::find(started.begin(), started.end(), "gate");
    const auto posAfter = std::find(started.begin(), started.end(), "after");
    EXPECT_LT(posGate, posAfter);
    // Merged report follows declaration order whatever the schedule was.
    ASSERT_EQ(rep.count(), 4u);
    EXPECT_EQ(rep.violations()[0].message, "a");
    EXPECT_EQ(rep.violations()[1].message, "b");
    EXPECT_EQ(rep.violations()[2].message, "gate");
    EXPECT_EQ(rep.violations()[3].message, "after");
    // Every stage got a timing slot.
    EXPECT_EQ(pipe.results().size(), 4u);
    EXPECT_GE(pipe.seconds("after"), 0.0);
  }
}

TEST(Pipeline, UnknownDependencyThrows) {
  engine::Executor exec(1);
  engine::Pipeline pipe;
  pipe.add({"x", {"nope"}, [](engine::Executor&) { return report::Report{}; }});
  EXPECT_THROW(pipe.run(exec), std::invalid_argument);
}

TEST(Pipeline, DependencyCycleThrows) {
  engine::Executor exec(1);
  engine::Pipeline pipe;
  pipe.add({"x", {"y"}, [](engine::Executor&) { return report::Report{}; }});
  pipe.add({"y", {"x"}, [](engine::Executor&) { return report::Report{}; }});
  EXPECT_THROW(pipe.run(exec), std::invalid_argument);
}

TEST(Pipeline, CycleIsDetectedUpFrontAndNoStageRuns) {
  // The dispatcher rejects cycles before dispatching anything, even when
  // the cycle sits downstream of runnable stages and even with a pool.
  for (const int threads : {1, 4}) {
    engine::Executor exec(threads);
    engine::Pipeline pipe;
    std::atomic<int> ran{0};
    auto counting = [&](engine::Executor&) {
      ran.fetch_add(1);
      return report::Report{};
    };
    pipe.add({"root", {}, counting});
    pipe.add({"a", {"root", "c"}, counting});
    pipe.add({"b", {"a"}, counting});
    pipe.add({"c", {"b"}, counting});  // a -> b -> c -> a
    EXPECT_THROW(pipe.run(exec), std::invalid_argument);
    EXPECT_EQ(ran.load(), 0) << "threads=" << threads;
  }
  // Self-dependency is the smallest cycle.
  engine::Executor exec(1);
  engine::Pipeline pipe;
  pipe.add({"s", {"s"}, [](engine::Executor&) { return report::Report{}; }});
  EXPECT_THROW(pipe.run(exec), std::invalid_argument);
}

TEST(Pipeline, ResultsStayInDeclarationOrderWhateverTheCompletionOrder) {
  // Stages deliberately finish in an order scrambled against declaration
  // (the last-declared stage has no deps and the cheapest cost hints push
  // it to complete first in parallel runs); results() must still line up
  // with declaration and carry start timestamps for every stage.
  for (const int threads : {1, 4}) {
    engine::Executor exec(threads);
    engine::Pipeline pipe;
    auto noop = [](engine::Executor&) { return report::Report{}; };
    pipe.add({"first", {}, noop, /*cost=*/1.0});
    pipe.add({"second", {"first"}, noop, /*cost=*/5.0});
    pipe.add({"third", {}, noop, /*cost=*/9.0});
    pipe.add({"fourth", {}, noop, /*cost=*/0.5});
    pipe.run(exec);
    const std::vector<engine::StageResult>& rs = pipe.results();
    ASSERT_EQ(rs.size(), 4u);
    EXPECT_EQ(rs[0].name, "first");
    EXPECT_EQ(rs[1].name, "second");
    EXPECT_EQ(rs[2].name, "third");
    EXPECT_EQ(rs[3].name, "fourth");
    for (const engine::StageResult& r : rs) {
      EXPECT_GE(r.start, 0.0) << r.name;
      EXPECT_GE(r.seconds, 0.0) << r.name;
    }
    // A dependent can never have started before its dependency started.
    EXPECT_GE(rs[1].start, rs[0].start);
  }
}

TEST(Pipeline, DependentOfFastStageDoesNotWaitForSlowIndependentStage) {
  // Diamond DAG: source fans out to a slow and a fast branch which join
  // in a sink. Under the old wave scheduler "dep" (the fast branch's
  // second hop) could not start until "slow" drained the wave; the
  // ready-queue dispatcher must start it while "slow" is still running.
  // Proved by start *ordering*, not wall-clock: "slow" blocks until it
  // observes "dep" having started (bounded by a generous timeout so a
  // regression fails rather than hangs).
  engine::Executor exec(4);
  engine::Pipeline pipe;
  std::mutex mu;
  std::condition_variable cv;
  bool depStarted = false;
  bool slowSawDepStart = false;
  auto noop = [](engine::Executor&) { return report::Report{}; };
  pipe.add({"source", {}, noop});
  pipe.add({"slow",
            {"source"},
            [&](engine::Executor&) {
              std::unique_lock<std::mutex> lock(mu);
              slowSawDepStart = cv.wait_for(
                  lock, std::chrono::seconds(10), [&] { return depStarted; });
              return report::Report{};
            }});
  pipe.add({"fast", {"source"}, noop});
  pipe.add({"dep",
            {"fast"},
            [&](engine::Executor&) {
              {
                std::lock_guard<std::mutex> lock(mu);
                depStarted = true;
              }
              cv.notify_all();
              return report::Report{};
            }});
  pipe.add({"sink", {"slow", "dep"}, noop});
  pipe.run(exec);
  EXPECT_TRUE(slowSawDepStart)
      << "'dep' did not start while the slow independent stage was running "
         "-- the dispatcher is barrier-scheduling again";
  // And the recorded timestamps tell the same story.
  const std::vector<engine::StageResult>& rs = pipe.results();
  const auto find = [&](const std::string& name) {
    for (const engine::StageResult& r : rs)
      if (r.name == name) return r;
    return engine::StageResult{};
  };
  const engine::StageResult slow = find("slow"), dep = find("dep");
  EXPECT_LT(dep.start, slow.start + slow.seconds)
      << "'dep' started only after 'slow' finished";
}

TEST(Pipeline, CrossRequestCheckStartsWhileSiblingExtractRuns) {
  // Two independent chains (view -> extract -> check) share one
  // dispatcher. Under chain-at-a-time scheduling, chain B's check could
  // never start before chain A completed; with the ready queue it starts
  // the moment B's own chain allows.
  // Proved by ordering, not wall-clock: A's extract stage blocks until it
  // OBSERVES B's check starting (generous timeout so a regression fails
  // rather than hangs).
  engine::Executor exec(4);
  engine::Pipeline pipe;
  std::mutex mu;
  std::condition_variable cv;
  bool bCheckStarted = false;
  bool aExtractSawIt = false;
  auto noop = [](engine::Executor&) { return report::Report{}; };
  pipe.add({"a:view", {}, noop, /*cost=*/3.0});
  pipe.add({"a:extract",
            {"a:view"},
            [&](engine::Executor&) {
              std::unique_lock<std::mutex> lock(mu);
              aExtractSawIt = cv.wait_for(lock, std::chrono::seconds(10),
                                          [&] { return bCheckStarted; });
              return report::Report{};
            },
            /*cost=*/6.0});
  pipe.add({"a:check", {"a:extract"}, noop, /*cost=*/10.0});
  pipe.add({"b:view", {}, noop, /*cost=*/3.0});
  pipe.add({"b:extract", {"b:view"}, noop, /*cost=*/6.0});
  pipe.add({"b:check",
            {"b:extract"},
            [&](engine::Executor&) {
              {
                std::lock_guard<std::mutex> lock(mu);
                bCheckStarted = true;
              }
              cv.notify_all();
              return report::Report{};
            },
            /*cost=*/10.0});
  pipe.run(exec);
  EXPECT_TRUE(aExtractSawIt)
      << "chain B's check stage never started while chain A's extract "
         "stage was running -- the dispatcher is scheduling "
         "chain-at-a-time again";
  // The recorded timestamps tell the same story.
  const std::vector<engine::StageResult>& rs = pipe.results();
  const auto find = [&](const std::string& name) {
    for (const engine::StageResult& r : rs)
      if (r.name == name) return r;
    return engine::StageResult{};
  };
  const engine::StageResult aExtract = find("a:extract");
  const engine::StageResult bCheck = find("b:check");
  EXPECT_LT(bCheck.start, aExtract.start + aExtract.seconds);
}

// --- Whole-pipeline equivalences --------------------------------------------

/// Canonical text of a violation set, order-independent (sorted multiset).
std::vector<std::string> canonical(const report::Report& rep) {
  std::vector<std::string> out;
  out.reserve(rep.count());
  for (const report::Violation& v : rep.violations()) {
    out.push_back(report::toString(v.category) + "|" + v.rule + "|" +
                  geom::toString(v.where) + "|" + v.cell + "|" +
                  std::to_string(v.layerA) + "," + std::to_string(v.layerB) +
                  "|" + v.message);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EngineEquivalence, FlatAndHierarchicalProduceIdenticalViolationSets) {
  const tech::Technology t = tech::nmos();
  const workload::ChipParams scenarios[] = {
      {1, 1, 2, 2, false}, {1, 2, 2, 2, true}, {2, 2, 2, 2, true}};
  int scenario = 0;
  for (const auto& params : scenarios) {
    workload::GeneratedChip chip = workload::generateChip(t, params);
    workload::InjectionPlan plan;  // defaults: plant a bit of everything
    workload::inject(chip, t, plan, /*seed=*/1234 + scenario);

    drc::Options flat;
    flat.hierarchicalInteractions = false;
    drc::Options hier;
    hier.hierarchicalInteractions = true;

    drc::Checker cf(chip.lib, chip.top, t, flat);
    drc::Checker ch(chip.lib, chip.top, t, hier);
    const auto rf = cf.checkInteractions(cf.generateNetlist());
    const auto rh = ch.checkInteractions(ch.generateNetlist());
    EXPECT_EQ(canonical(rf), canonical(rh)) << "scenario " << scenario;
    ++scenario;
  }
}

TEST(EngineEquivalence, ThreadSweepIsByteIdenticalToSerial) {
  // The determinism contract over the work-stealing pool: threads ∈
  // {2, 8} (fewer and more workers than the five pipeline stages) must
  // reproduce the threads=1 reference byte for byte, in both interaction
  // modes.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip =
      workload::generateChip(t, {1, 2, 2, 3, true});
  workload::InjectionPlan plan;
  workload::inject(chip, t, plan, /*seed=*/99);

  for (const bool hierarchical : {true, false}) {
    drc::Options serial;
    serial.hierarchicalInteractions = hierarchical;
    serial.threads = 1;
    drc::Checker c1(chip.lib, chip.top, t, serial);
    const std::string t1 = c1.run().text();
    const drc::InteractionStats& s1 = c1.interactionStats();

    for (const int threads : {2, 8}) {
      drc::Options threaded = serial;
      threaded.threads = threads;
      drc::Checker cn(chip.lib, chip.top, t, threaded);
      const std::string tn = cn.run().text();
      EXPECT_EQ(t1, tn) << "hierarchical=" << hierarchical
                        << " threads=" << threads;

      const drc::InteractionStats& sn = cn.interactionStats();
      EXPECT_EQ(s1.candidatePairs, sn.candidatePairs);
      EXPECT_EQ(s1.distanceChecks, sn.distanceChecks);
      EXPECT_EQ(s1.connectionChecks, sn.connectionChecks);
      EXPECT_EQ(s1.perLayerPair, sn.perLayerPair);
    }
  }
}

}  // namespace
}  // namespace dic
