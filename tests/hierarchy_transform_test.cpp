// Hierarchy-under-transform tests: the checker must give identical
// answers for rotated, mirrored and deeply nested instances -- the
// paper's hierarchical checking is only sound if per-definition results
// are placement-invariant.
#include <gtest/gtest.h>

#include "drc/checker.hpp"
#include "erc/erc.hpp"
#include "netlist/netlist.hpp"
#include "workload/generator.hpp"

namespace dic {
namespace {

class TransformTest : public ::testing::Test {
 protected:
  tech::Technology t = tech::nmos();
  const geom::Coord L = t.lambda();

  layout::Library lib;
  workload::NmosCells cells = workload::installNmosCells(lib, t);

  layout::CellId topWithInverter(geom::Orient o, geom::Point at) {
    layout::Cell top;
    top.name = "top_" + std::to_string(static_cast<int>(o)) + "_" +
               std::to_string(at.x);
    top.instances.push_back({cells.inverter, {o, at}, "u"});
    return lib.addCell(std::move(top));
  }
};

TEST_F(TransformTest, InverterCleanInAllEightOrientations) {
  for (int i = 0; i < 8; ++i) {
    const auto root = topWithInverter(static_cast<geom::Orient>(i),
                                      {10000 , -7000});
    drc::Checker checker(lib, root, t, {});
    const auto rep = checker.run();
    EXPECT_TRUE(rep.empty()) << "orient " << i << "\n" << rep.text();
  }
}

TEST_F(TransformTest, NetlistInvariantUnderOrientation) {
  for (int i = 0; i < 8; ++i) {
    const auto root = topWithInverter(static_cast<geom::Orient>(i),
                                      {-3000, 5000});
    const netlist::Netlist nl = netlist::extract(lib, root, t);
    EXPECT_EQ(nl.devices.size(), 6u) << "orient " << i;
    const netlist::Net* vdd = nl.findNet("VDD");
    const netlist::Net* gnd = nl.findNet("GND");
    ASSERT_NE(vdd, nullptr) << "orient " << i;
    ASSERT_NE(gnd, nullptr) << "orient " << i;
    EXPECT_NE(vdd->id, gnd->id);
    // The depletion load's gate is tied to its source in every placement.
    for (const netlist::ExtractedDevice& d : nl.devices) {
      if (d.type != "DTRAN") continue;
      EXPECT_EQ(nl.portNetAt(d, "G"), nl.portNetAt(d, "S"))
          << "orient " << i;
    }
    const auto erc = erc::check(nl, t);
    EXPECT_TRUE(erc.empty()) << "orient " << i << "\n" << erc.text();
  }
}

TEST_F(TransformTest, MirroredPairAbutsCleanly) {
  // A common layout trick: mirror a cell about x so two instances share a
  // rail. Rails overlap exactly (same y span) -> legal connections only.
  layout::Cell top;
  top.name = "mirror_pair";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "a"});
  // kMY flips y; translate so the flipped GND rail [0,3L] lands on
  // [-3L,0]... instead place it so the two GND rails coincide: flipped
  // rail occupies [-3L,0]; shift up by 3L to overlap [0,3L].
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kMY, {26 * L, 3 * L}}, "b"});
  const auto root = lib.addCell(std::move(top));
  drc::Checker checker(lib, root, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
  const netlist::Netlist nl = netlist::extract(lib, root, t);
  EXPECT_EQ(nl.devices.size(), 12u);
}

TEST_F(TransformTest, DeepNestingWithRotationsStaysClean) {
  // wrap the inverter three levels deep with accumulated transforms.
  layout::Cell l1;
  l1.name = "l1";
  l1.instances.push_back(
      {cells.inverter, {geom::Orient::kR90, {0, 0}}, "i"});
  const auto l1id = lib.addCell(std::move(l1));
  layout::Cell l2;
  l2.name = "l2";
  l2.instances.push_back({l1id, {geom::Orient::kR180, {40 * L, 0}}, "m"});
  const auto l2id = lib.addCell(std::move(l2));
  layout::Cell top;
  top.name = "deep";
  top.instances.push_back({l2id, {geom::Orient::kMY, {0, 50 * L}}, "t"});
  const auto root = lib.addCell(std::move(top));

  drc::Checker checker(lib, root, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
  // Netlist is still a well-formed inverter.
  const netlist::Netlist nl = netlist::extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 6u);
  EXPECT_TRUE(erc::check(nl, t).empty());
}

TEST_F(TransformTest, FlatHierAgreeUnderRotation) {
  layout::Cell top;
  top.name = "rot_pair";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "a"});
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR180, {50 * L, 80 * L}}, "b"});
  // A deliberate diff-net metal spacing violation between them.
  const int nm = *t.layerByName("metal");
  top.elements.push_back(layout::makeBox(
      nm, geom::makeRect(0, 44 * L, 6 * L, 47 * L), "IN9"));
  top.elements.push_back(layout::makeBox(
      nm, geom::makeRect(0, 48 * L, 6 * L, 51 * L), "CLK"));
  const auto root = lib.addCell(std::move(top));

  drc::Options flat;
  flat.hierarchicalInteractions = false;
  drc::Checker cf(lib, root, t, flat);
  drc::Checker ch(lib, root, t, {});
  const auto rf = cf.run();
  const auto rh = ch.run();
  EXPECT_EQ(rf.count(report::Category::kSpacing),
            rh.count(report::Category::kSpacing))
      << "flat:\n" << rf.text() << "hier:\n" << rh.text();
  EXPECT_GE(rh.count(report::Category::kSpacing), 1u);
}

TEST_F(TransformTest, ViolationInstantiatedAtEveryPlacement) {
  // A cell with a width violation placed 3 times reports 3 violations at
  // 3 distinct transformed locations.
  layout::Cell bad;
  bad.name = "badcell";
  const int nm = *t.layerByName("metal");
  bad.elements.push_back(
      layout::makeBox(nm, geom::makeRect(0, 0, 8 * L, 2 * L)));
  const auto badId = lib.addCell(std::move(bad));
  layout::Cell top;
  top.name = "three";
  top.instances.push_back({badId, {geom::Orient::kR0, {0, 0}}, "p"});
  top.instances.push_back({badId, {geom::Orient::kR90, {50 * L, 0}}, "q"});
  top.instances.push_back(
      {badId, {geom::Orient::kMX, {0, 50 * L}}, "r"});
  const auto root = lib.addCell(std::move(top));
  drc::Checker checker(lib, root, t, {});
  const auto rep = checker.checkElements();
  ASSERT_EQ(rep.count(), 3u);
  // All three locations distinct.
  EXPECT_NE(rep.violations()[0].where, rep.violations()[1].where);
  EXPECT_NE(rep.violations()[1].where, rep.violations()[2].where);
}

TEST_F(TransformTest, PerDefinitionCheckingCountsOnce) {
  // With instantiation off, N placements still yield one report.
  layout::Cell bad;
  bad.name = "badcell2";
  const int nm = *t.layerByName("metal");
  bad.elements.push_back(
      layout::makeBox(nm, geom::makeRect(0, 0, 8 * L, 2 * L)));
  const auto badId = lib.addCell(std::move(bad));
  layout::Cell top;
  top.name = "many";
  for (int i = 0; i < 16; ++i)
    top.instances.push_back(
        {badId, {geom::Orient::kR0, {i * 20 * L, 0}}, "p" + std::to_string(i)});
  const auto root = lib.addCell(std::move(top));
  drc::Options once;
  once.instantiateViolations = false;
  drc::Checker checker(lib, root, t, once);
  EXPECT_EQ(checker.checkElements().count(), 1u);
}

}  // namespace
}  // namespace dic
