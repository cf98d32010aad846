// Tests for the DIC pipeline stages (Fig. 10) and the paper's headline
// behaviours: per-symbol checking, net-aware interactions, device rules.
#include <gtest/gtest.h>

#include "drc/checker.hpp"
#include "drc/stages.hpp"
#include "workload/generator.hpp"

namespace dic::drc {
namespace {

using geom::makeRect;
using layout::makeBox;
using layout::makeWire;

class DrcTest : public ::testing::Test {
 protected:
  tech::Technology t = tech::nmos();
  const int nd = *t.layerByName("diff");
  const int np = *t.layerByName("poly");
  const int nm = *t.layerByName("metal");
  const int ncut = *t.layerByName("contact");
  const geom::Coord L = t.lambda();
};

// --- Stage 1: element checks -----------------------------------------------

TEST_F(DrcTest, ElementWidthBoxOk) {
  EXPECT_TRUE(
      checkElementWidth(makeBox(nm, makeRect(0, 0, 3 * L, 10 * L)), t)
          .empty());
}

TEST_F(DrcTest, ElementWidthBoxNarrow) {
  const auto v =
      checkElementWidth(makeBox(nm, makeRect(0, 0, 2 * L, 10 * L)), t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].category, report::Category::kWidth);
  EXPECT_EQ(v[0].rule, "W.metal");
}

TEST_F(DrcTest, ElementWidthWire) {
  EXPECT_TRUE(
      checkElementWidth(makeWire(np, {{0, 0}, {10 * L, 0}}, 2 * L), t)
          .empty());
  EXPECT_FALSE(
      checkElementWidth(makeWire(np, {{0, 0}, {10 * L, 0}}, L), t).empty());
}

TEST_F(DrcTest, ElementWidthPolygonNeedsGeneralRoutine) {
  // An L-polygon with one thin arm.
  const auto v = checkElementWidth(
      layout::makePolygon(nm, {{0, 0},
                               {10 * L, 0},
                               {10 * L, L},
                               {3 * L, L},
                               {3 * L, 10 * L},
                               {0, 10 * L}}),
      t);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].category, report::Category::kWidth);
}

TEST_F(DrcTest, NonManhattanFlagged) {
  const auto v = checkElementWidth(
      layout::makePolygon(nm, {{0, 0}, {10 * L, 0}, {0, 10 * L}}), t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "GEOM.MANHATTAN");
}

// --- Stage 3: legal connections (Fig. 11 / Fig. 15) -------------------------

TEST_F(DrcTest, ConnectionLegalOverlap) {
  // Boxes overlapping by at least the minimum width: skeletons touch.
  layout::Cell c;
  c.name = "c";
  c.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  c.elements.push_back(makeBox(nm, makeRect(7 * L, 0, 17 * L, 3 * L)));
  EXPECT_TRUE(checkCellConnections(c, t).empty());
}

TEST_F(DrcTest, ConnectionButtingFlagged) {
  // Abutting boxes: touch but skeletons do not connect.
  layout::Cell c;
  c.name = "c";
  c.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  c.elements.push_back(makeBox(nm, makeRect(10 * L, 0, 20 * L, 3 * L)));
  const auto v = checkCellConnections(c, t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].category, report::Category::kConnection);
}

TEST_F(DrcTest, ConnectionDifferentLayersIgnored) {
  layout::Cell c;
  c.name = "c";
  c.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  c.elements.push_back(makeBox(np, makeRect(0, 0, 10 * L, 3 * L)));
  EXPECT_TRUE(checkCellConnections(c, t).empty());
}

// --- Stage 2: device checks (Figs. 6, 7) -----------------------------------

layout::Cell fetCell(const tech::Technology& t, geom::Coord polyHalfLen,
                     geom::Coord diffHalfLen, const char* type = "TRAN") {
  const geom::Coord L = t.lambda();
  layout::Cell c;
  c.name = "dev";
  c.deviceType = type;
  c.elements.push_back(layout::makeBox(
      *t.layerByName("poly"), makeRect(-polyHalfLen, -L, polyHalfLen, L)));
  c.elements.push_back(layout::makeBox(
      *t.layerByName("diff"), makeRect(-L, -diffHalfLen, L, diffHalfLen)));
  return c;
}

TEST_F(DrcTest, FetOk) {
  EXPECT_TRUE(checkDeviceCell(fetCell(t, 3 * L, 3 * L), t).empty());
}

TEST_F(DrcTest, FetGateOverlapTooSmall) {
  // Poly extends only 1L past the gate; rule is 2L ("source and drain
  // may short").
  const auto v = checkDeviceCell(fetCell(t, 2 * L, 3 * L), t);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, "DEV.GATE_OVERLAP");
}

TEST_F(DrcTest, FetNoGate) {
  layout::Cell c;
  c.name = "dev";
  c.deviceType = "TRAN";
  c.elements.push_back(makeBox(np, makeRect(0, 0, 6 * L, 2 * L)));
  c.elements.push_back(makeBox(nd, makeRect(10 * L, 0, 12 * L, 6 * L)));
  const auto v = checkDeviceCell(c, t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "DEV.NOGATE");
}

TEST_F(DrcTest, DepletionNeedsImplant) {
  layout::Cell c = fetCell(t, 3 * L, 3 * L, "DTRAN");
  const auto missing = checkDeviceCell(c, t);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rule, "DEV.IMPLANT");
  c.elements.push_back(layout::makeBox(
      *t.layerByName("implant"), makeRect(-3 * L, -3 * L, 3 * L, 3 * L)));
  EXPECT_TRUE(checkDeviceCell(c, t).empty());
}

TEST_F(DrcTest, ContactOverGateFlagged) {
  layout::Cell c = fetCell(t, 3 * L, 3 * L);
  c.elements.push_back(makeBox(ncut, makeRect(-L, -L, L, L)));
  const auto v = checkDeviceCell(c, t);
  ASSERT_FALSE(v.empty());
  bool found = false;
  for (const auto& x : v)
    if (x.category == report::Category::kContactOverGate) found = true;
  EXPECT_TRUE(found);
}

TEST_F(DrcTest, ButtingContactLegal) {
  // Fig. 7: the same cut-over-poly-and-diff pattern is legal in a
  // butting-contact device.
  layout::Cell c;
  c.name = "butt";
  c.deviceType = "BUTT";
  c.elements.push_back(makeBox(nd, makeRect(-3 * L, -2 * L, L, 2 * L)));
  c.elements.push_back(makeBox(np, makeRect(-L, -2 * L, 3 * L, 2 * L)));
  c.elements.push_back(makeBox(nm, makeRect(-3 * L, -2 * L, 3 * L, 2 * L)));
  c.elements.push_back(makeBox(ncut, makeRect(-2 * L, -L, 2 * L, L)));
  EXPECT_TRUE(checkDeviceCell(c, t).empty());
}

TEST_F(DrcTest, ContactEnclosure) {
  layout::Cell c;
  c.name = "con";
  c.deviceType = "CON_MD";
  c.elements.push_back(makeBox(nd, makeRect(-2 * L, -2 * L, 2 * L, 2 * L)));
  c.elements.push_back(makeBox(nm, makeRect(-2 * L, -2 * L, 2 * L, 2 * L)));
  c.elements.push_back(makeBox(ncut, makeRect(-L, -L, 2 * L, L)));
  const auto v = checkDeviceCell(c, t);  // cut sticks out to the east
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, "DEV.CON_MET");
}

TEST_F(DrcTest, BipolarFig6DeviceDependent) {
  const tech::Technology bt = tech::bipolar();
  const geom::Coord U = bt.lambda();
  auto cellWith = [&](const char* type) {
    layout::Cell c;
    c.name = std::string("d_") + type;
    c.deviceType = type;
    c.elements.push_back(layout::makeBox(*bt.layerByName("base"),
                                         makeRect(0, 0, 10 * U, 6 * U)));
    // Isolation abutting the base: the Fig. 6 situation.
    c.elements.push_back(layout::makeBox(*bt.layerByName("iso"),
                                         makeRect(10 * U, 0, 16 * U, 6 * U)));
    return c;
  };
  const auto npn = checkDeviceCell(cellWith("NPN"), bt);
  ASSERT_EQ(npn.size(), 1u);  // error: device integrity destroyed
  EXPECT_EQ(npn[0].rule, "DEV.BASE_ISO");
  EXPECT_TRUE(checkDeviceCell(cellWith("BRES"), bt).empty());  // legal
}

TEST_F(DrcTest, PrecheckedDeviceSkipped) {
  layout::Library lib;
  layout::Cell bad = fetCell(t, 2 * L, 3 * L);  // overlap violation
  bad.prechecked = true;
  const auto devId = lib.addCell(std::move(bad));
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({devId, {geom::Orient::kR0, {0, 0}}, "d"});
  const auto root = lib.addCell(std::move(top));
  Checker checker(lib, root, t);
  EXPECT_TRUE(checker.checkPrimitiveSymbols().empty());
}

// --- Stage 5: interactions (Figs. 5, 12) -------------------------------------

struct InteractionFixture {
  layout::Library lib;
  layout::CellId root{};
};

TEST_F(DrcTest, SameNetSpacingSkippedDiffNetFlagged) {
  // Fig. 5a: two boxes 1L apart. Same net -> no check; different nets ->
  // spacing error. (CLK/IN are chip-global labels, so equal labels merge.)
  for (const bool sameNet : {true, false}) {
    layout::Library lib;
    layout::Cell top;
    top.name = "top";
    top.elements.push_back(
        makeBox(nm, makeRect(0, 0, 10 * L, 3 * L), "CLK"));
    top.elements.push_back(makeBox(nm, makeRect(0, 4 * L, 10 * L, 7 * L),
                                   sameNet ? "CLK" : "IN1"));
    const auto root = lib.addCell(std::move(top));
    Checker checker(lib, root, t, {});
    const auto nl = checker.generateNetlist();
    const auto rep = checker.checkInteractions(nl);
    if (sameNet) {
      EXPECT_TRUE(rep.empty()) << rep.text();
    } else {
      ASSERT_EQ(rep.count(report::Category::kSpacing), 1u) << rep.text();
    }
  }
}

TEST_F(DrcTest, ResistorSameNetStillChecked) {
  // Fig. 5b: geometry electrically tied to a resistor body must still
  // keep its distance (a short would bypass the resistor).
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.resistor, {geom::Orient::kR0, {0, 0}}, "r1"});
  // Diff wire from port A, hooking around 1L below the body.
  top.elements.push_back(makeWire(nd,
                                  {{-4 * L, 0},
                                   {-8 * L, 0},
                                   {-8 * L, -4 * L},
                                   {0, -4 * L}},
                                  2 * L, "end"));
  const auto root = lib.addCell(std::move(top));
  Checker checker(lib, root, t, {});
  const auto nl = checker.generateNetlist();
  const auto rep = checker.checkInteractions(nl);
  EXPECT_GE(rep.count(report::Category::kSpacing), 1u) << rep.text();
}

TEST_F(DrcTest, CleanInverterHasNoViolations) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "i1"});
  const auto root = lib.addCell(std::move(top));
  Checker checker(lib, root, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
}

TEST_F(DrcTest, FlatAndHierarchicalAgree) {
  const workload::ChipParams params{.blockRows = 1,
                                    .blockCols = 2,
                                    .invRows = 2,
                                    .invCols = 2,
                                    .withPads = true};
  workload::GeneratedChip chip = workload::generateChip(t, params);

  Options flat;
  flat.hierarchicalInteractions = false;
  Options hier;
  hier.hierarchicalInteractions = true;

  Checker cf(chip.lib, chip.top, t, flat);
  Checker ch(chip.lib, chip.top, t, hier);
  const auto nlf = cf.generateNetlist();
  const auto nlh = ch.generateNetlist();
  const auto rf = cf.checkInteractions(nlf);
  const auto rh = ch.checkInteractions(nlh);
  EXPECT_EQ(rf.count(), rh.count()) << "flat:\n"
                                    << rf.text() << "hier:\n"
                                    << rh.text();
}

TEST_F(DrcTest, CleanChipIsCleanEndToEnd) {
  const workload::ChipParams params{.blockRows = 1,
                                    .blockCols = 1,
                                    .invRows = 2,
                                    .invCols = 2,
                                    .withPads = true};
  workload::GeneratedChip chip = workload::generateChip(t, params);
  Checker checker(chip.lib, chip.top, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
}

TEST_F(DrcTest, InteractionStatsPruneSameNet) {
  const workload::ChipParams params{.blockRows = 1,
                                    .blockCols = 1,
                                    .invRows = 2,
                                    .invCols = 2,
                                    .withPads = false};
  workload::GeneratedChip chip = workload::generateChip(t, params);
  Checker checker(chip.lib, chip.top, t, {});
  checker.run();
  const InteractionStats& s = checker.interactionStats();
  EXPECT_GT(s.candidatePairs, 0u);
  EXPECT_GT(s.sameNetSkipped + s.relatedSkipped, 0u);
  EXPECT_GT(s.noRulePairs, 0u);
}

// --- Net identity: colliding instance names, device relations at depth ---

/// Two sibling instances of cell "W" (one 3L metal box), 1L apart and on
/// different nets. An empty name takes the auto-name "W_<childNo>".
layout::CellId siblingBoxes(layout::Library& lib, const tech::Technology& t,
                            const std::string& nameA,
                            const std::string& nameB) {
  const int nm = *t.layerByName("metal");
  const geom::Coord L = t.lambda();
  layout::Cell w;
  w.name = "W";
  w.elements.push_back(makeBox(nm, makeRect(0, 0, 3 * L, 3 * L)));
  const layout::CellId leaf = lib.addCell(std::move(w));
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({leaf, {geom::Orient::kR0, {0, 0}}, nameA});
  top.instances.push_back({leaf, {geom::Orient::kR0, {4 * L, 0}}, nameB});
  return lib.addCell(std::move(top));
}

TEST_F(DrcTest, CollidingInstanceNamesKeepDistinctNets) {
  // Instances are told apart by their place in the flat order, not by
  // their path: two siblings that share a path ("x" twice, or an
  // explicit "W_1" next to an unnamed sibling auto-named "W_1") are
  // still on different nets, so the 1L gap is a DIFFNET violation, as
  // it is with distinct names.
  for (const bool hierarchical : {true, false}) {
    Options opt;
    opt.hierarchicalInteractions = hierarchical;
    layout::Library ref;
    const layout::CellId refRoot = siblingBoxes(ref, t, "a", "b");
    const report::Report want = Checker(ref, refRoot, t, opt).run();
    ASSERT_EQ(want.count(), 1u) << want.text();
    ASSERT_EQ(want.violations()[0].rule, "S.metal.metal.DIFFNET");
    for (const auto& [a, b] : {std::pair<std::string, std::string>{"x", "x"},
                               {"W_1", ""}}) {
      layout::Library lib;
      const layout::CellId root = siblingBoxes(lib, t, a, b);
      const report::Report got = Checker(lib, root, t, opt).run();
      ASSERT_EQ(got.count(), want.count())
          << "names '" << a << "','" << b << "' hierarchical=" << hierarchical
          << "\n" << got.text();
      EXPECT_EQ(got.violations()[0].rule, want.violations()[0].rule);
      EXPECT_EQ(got.violations()[0].where, want.violations()[0].where);
    }
  }
}

TEST_F(DrcTest, DeviceRelationsAtDepth) {
  // Devices two instance levels below the root (top.m.p), after siblings
  // that put elements and devices ahead of them in the flat order, so
  // each net lookup composes non-zero placement bases and child offsets.
  // In cell "pair" (bipolar base layer, U = 100):
  //   q2 [-16U,-10U]  q [-9U,-3U]  r [0,12U]   device bodies, y [0,4U]
  //   I  [-16U,2U] x [5U,9U]                   interconnect over all three
  // Each device's base port sits 1U above its body, under I, so r, q,
  // q2 and I share one net.
  //   - I vs q, I vs q2 and q vs q2 are RELATED (rule 0): skipped;
  //   - r is a resistor, so I vs r (1U) and q vs r (3U) are DIFFNET;
  //   - r's second body box is 1U from its first: same device, nothing;
  //   - q2 holds a non-device cell whose base box sits 1U above I. It
  //     lies below a device cell, so it has no device nets: DIFFNET.
  const tech::Technology bt = tech::bipolar();
  const geom::Coord U = bt.lambda();
  const int base = *bt.layerByName("base");
  const int met = *bt.layerByName("met1");
  layout::Library lib;
  auto box = [&](geom::Coord x1, geom::Coord y1, geom::Coord x2,
                 geom::Coord y2) {
    return makeRect(x1 * U, y1 * U, x2 * U, y2 * U);
  };
  auto at = [&](geom::Coord x, geom::Coord y) {
    return geom::Transform{geom::Orient::kR0, {x * U, y * U}};
  };

  layout::Cell res;
  res.name = "res";
  res.deviceType = "BRES";
  res.elements.push_back(makeBox(base, box(0, 0, 12, 4)));
  res.elements.push_back(makeBox(base, box(4, -5, 12, -1)));
  res.ports.push_back({"A", base, box(0, 5, 2, 6), -1});
  const layout::CellId resId = lib.addCell(std::move(res));

  layout::Cell npn;
  npn.name = "npn";
  npn.deviceType = "NPN";
  npn.elements.push_back(makeBox(base, box(0, 0, 6, 4)));
  npn.ports.push_back({"B", base, box(0, 5, 6, 6), -1});
  const layout::CellId npnId = lib.addCell(npn);

  layout::Cell stub;
  stub.name = "stub";
  stub.elements.push_back(makeBox(base, box(0, 10, 6, 14)));
  const layout::CellId stubId = lib.addCell(std::move(stub));
  npn.name = "npnx";  // the same NPN, with "stub" instanced inside it
  npn.instances.push_back({stubId, at(0, 0), "s"});
  const layout::CellId npnxId = lib.addCell(std::move(npn));

  layout::Cell pair;
  pair.name = "pair";
  pair.elements.push_back(makeBox(base, box(-16, 5, 2, 9)));
  pair.instances.push_back({npnxId, at(-16, 0), "q2"});
  pair.instances.push_back({npnId, at(-9, 0), "q"});
  pair.instances.push_back({resId, at(0, 0), "r"});
  const layout::CellId pairId = lib.addCell(std::move(pair));

  layout::Cell pad;  // an element and a device ahead of "p" in "mid"
  pad.name = "pad";
  pad.elements.push_back(makeBox(met, box(0, 0, 4, 4)));
  pad.instances.push_back({npnId, at(0, 10), "d"});
  const layout::CellId padId = lib.addCell(std::move(pad));

  layout::Cell mid;
  mid.name = "mid";
  mid.elements.push_back(makeBox(met, box(0, 0, 4, 4)));
  mid.instances.push_back({padId, at(100, 0), "pad"});
  mid.instances.push_back({pairId, at(200, 0), "p"});
  const layout::CellId midId = lib.addCell(std::move(mid));

  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(met, box(0, 0, 4, 4)));
  top.instances.push_back({padId, at(0, 100), "pad"});
  top.instances.push_back({midId, at(0, 200), "m"});
  const layout::CellId root = lib.addCell(std::move(top));

  for (const bool hierarchical : {true, false}) {
    Options opt;
    opt.hierarchicalInteractions = hierarchical;
    Checker checker(lib, root, bt, opt);
    const report::Report rep = checker.checkInteractions(
        checker.generateNetlist());
    const InteractionStats& s = checker.interactionStats();
    const std::string what = hierarchical ? "hierarchical" : "flat";
    // The three DIFFNET pairs, in report order: the box below q2 vs I,
    // I vs r, q vs r (top.m.p sits at (200U, 200U)).
    const geom::Rect where[] = {makeRect(18299, 20899, 19101, 21001),
                                makeRect(19899, 20399, 20301, 20501),
                                makeRect(19699, 19699, 20001, 20701)};
    ASSERT_EQ(rep.count(), 3u) << what << "\n" << rep.text();
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(rep.violations()[k].rule, "S.base.base.DIFFNET") << what;
      EXPECT_EQ(rep.violations()[k].where, where[k]) << what << " #" << k;
    }
    EXPECT_EQ(s.relatedSkipped, 3u) << what;  // I-q, I-q2, q-q2
    EXPECT_EQ(s.distanceChecks, 3u) << what;
  }
}

}  // namespace
}  // namespace dic::drc
