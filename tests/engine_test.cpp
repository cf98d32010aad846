// Tests for the shared hierarchy-view/spatial-query engine: GridIndex key
// packing (negative coordinates, cell straddling, dedup), HierarchyView
// candidate pairs against a brute-force oracle, the parallel executor's
// determinism contract, and flat-vs-hierarchical violation-set
// equivalence now that both run through the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>

#include "drc/checker.hpp"
#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
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

// --- Executor ----------------------------------------------------------------

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
