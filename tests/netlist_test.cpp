// Tests for netlist extraction: skeletal connectivity, device terminals,
// hierarchical names, label merging, golden comparison.
#include <gtest/gtest.h>

#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "netlist_canonical.hpp"
#include "netlist/unionfind.hpp"
#include "tech/technology.hpp"
#include "workload/generator.hpp"

namespace dic::netlist {
namespace {

using geom::makeRect;
using layout::makeBox;
using layout::makeWire;

TEST(UnionFind, Basics) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.connected(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 4));
}

class ExtractTest : public ::testing::Test {
 protected:
  tech::Technology t = tech::nmos();
  const int nm = *t.layerByName("metal");
  const int np = *t.layerByName("poly");
  const geom::Coord L = t.lambda();
};

TEST_F(ExtractTest, TwoOverlappingWiresOneNet) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeWire(nm, {{0, 0}, {40 * L, 0}}, 3 * L));
  top.elements.push_back(makeWire(nm, {{20 * L, 0}, {20 * L, 40 * L}}, 3 * L));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 1u);
  EXPECT_EQ(nl.nets[0].elementCount, 2u);
}

TEST_F(ExtractTest, AbuttingMinWidthWiresNotConnected) {
  // Fig. 11 right: skeletons of merely-abutting elements do not touch.
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  top.elements.push_back(makeBox(nm, makeRect(10 * L, 0, 20 * L, 3 * L)));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
}

TEST_F(ExtractTest, DifferentLayersStayApart) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  top.elements.push_back(makeBox(np, makeRect(0, 0, 10 * L, 3 * L)));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
}

TEST_F(ExtractTest, GlobalLabelMergesWithoutGeometry) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L), "VDD"));
  top.elements.push_back(
      makeBox(nm, makeRect(100 * L, 0, 110 * L, 3 * L), "VDD"));
  top.elements.push_back(
      makeBox(nm, makeRect(200 * L, 0, 210 * L, 3 * L), "local"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
  const Net* vdd = nl.findNet("VDD");
  ASSERT_NE(vdd, nullptr);
  EXPECT_EQ(vdd->elementCount, 2u);
}

TEST_F(ExtractTest, LocalLabelsQualifiedByPath) {
  layout::Library lib;
  layout::Cell leaf;
  leaf.name = "leaf";
  leaf.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L), "out"));
  const auto leafId = lib.addCell(std::move(leaf));
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({leafId, {geom::Orient::kR0, {0, 0}}, "a"});
  top.instances.push_back(
      {leafId, {geom::Orient::kR0, {0, 100 * L}}, "b"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
  EXPECT_NE(nl.findNet("a.out"), nullptr);
  EXPECT_NE(nl.findNet("b.out"), nullptr);
}

TEST_F(ExtractTest, DeviceTerminalsAndInternalGroups) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  // A metal wire onto a contact's metal side; a diff check through its
  // internal group is implied by the contact device semantics.
  top.instances.push_back(
      {cells.contactMD, {geom::Orient::kR0, {0, 0}}, "c1"});
  top.elements.push_back(
      makeWire(nm, {{0, 0}, {30 * L, 0}}, 3 * L, "sig"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 1u);
  const ExtractedDevice& d = nl.devices[0];
  EXPECT_EQ(d.type, "CON_MD");
  // Both ports are on the same net (internal group) and that net carries
  // the wire's label.
  ASSERT_EQ(nl.portNets(d).size(), 2u);
  EXPECT_EQ(nl.portNetAt(d, "A"), nl.portNetAt(d, "B"));
  EXPECT_TRUE(nl.nets[nl.portNetAt(d, "A")].hasName("sig"));
}

TEST_F(ExtractTest, TransistorKeepsSourceDrainApart) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  const int nd = *t.layerByName("diff");
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({cells.tran, {geom::Orient::kR0, {0, 0}}, "t1"});
  top.elements.push_back(
      makeWire(nd, {{0, -3 * L}, {0, -20 * L}}, 2 * L, "s"));
  top.elements.push_back(makeWire(nd, {{0, 3 * L}, {0, 20 * L}}, 2 * L, "d"));
  top.elements.push_back(
      makeWire(np, {{-3 * L, 0}, {-20 * L, 0}}, 2 * L, "g"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 1u);
  const ExtractedDevice& d = nl.devices[0];
  EXPECT_NE(nl.portNetAt(d, "S"), nl.portNetAt(d, "D"));
  EXPECT_NE(nl.portNetAt(d, "G"), nl.portNetAt(d, "S"));
  EXPECT_TRUE(nl.nets[nl.portNetAt(d, "S")].hasName("s"));
  EXPECT_TRUE(nl.nets[nl.portNetAt(d, "D")].hasName("d"));
  EXPECT_TRUE(nl.nets[nl.portNetAt(d, "G")].hasName("g"));
  // G and G2 are the same poly piece.
  EXPECT_EQ(nl.portNetAt(d, "G"), nl.portNetAt(d, "G2"));
  // Like std::map::at, an unknown port name throws.
  EXPECT_THROW(nl.portNetAt(d, "B"), std::out_of_range);
}

TEST_F(ExtractTest, InverterExtractsAsExpected) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "i1"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);

  // Devices: driver, load, 4 contacts.
  ASSERT_EQ(nl.devices.size(), 6u);
  const ExtractedDevice* driver = nullptr;
  const ExtractedDevice* load = nullptr;
  for (const ExtractedDevice& d : nl.devices) {
    if (d.type == "TRAN") driver = &d;
    if (d.type == "DTRAN") load = &d;
  }
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(load, nullptr);

  const Net* vdd = nl.findNet("VDD");
  const Net* gnd = nl.findNet("GND");
  ASSERT_NE(vdd, nullptr);
  ASSERT_NE(gnd, nullptr);
  EXPECT_NE(vdd->id, gnd->id);

  // Driver: source on GND, drain on the output, gate on the input.
  EXPECT_EQ(nl.portNetAt(*driver, "S"), gnd->id);
  const int outNet = nl.portNetAt(*driver, "D");
  EXPECT_NE(outNet, gnd->id);
  // Load: source tied to output, gate tied to output (depletion load),
  // drain on VDD.
  EXPECT_EQ(nl.portNetAt(*load, "S"), outNet);
  EXPECT_EQ(nl.portNetAt(*load, "G"), outNet);
  EXPECT_EQ(nl.portNetAt(*load, "D"), vdd->id);
  // Input is its own net.
  EXPECT_NE(nl.portNetAt(*driver, "G"), outNet);
  EXPECT_NE(nl.portNetAt(*driver, "G"), gnd->id);
}

TEST_F(ExtractTest, GoldenComparisonAcceptsInverter) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "i1"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);

  std::vector<GoldenDevice> golden = {
      {"TRAN", {{"G", "in"}, {"S", "GND"}, {"D", "out"}}},
      {"DTRAN", {{"G", "out"}, {"S", "out"}, {"D", "VDD"}}},
      {"CON_MD", {{"A", "out"}}},
      {"CON_MD", {{"A", "GND"}}},
      {"CON_MD", {{"A", "VDD"}}},
      {"CON_MP", {{"A", "out"}}},
  };
  EXPECT_TRUE(compareAgainstGolden(nl, golden).empty());

  // A wrong golden (driver source on VDD) must be rejected.
  std::vector<GoldenDevice> wrong = golden;
  wrong[0].ports["S"] = "VDD";
  EXPECT_FALSE(compareAgainstGolden(nl, wrong).empty());
}

TEST(ExtractParallel, ThreadSweepIsByteIdenticalToSerial) {
  // The pooled extraction overload collects connectivity edges in
  // per-index slots and replays the unions serially, so every pool size
  // must reproduce the serial netlist exactly -- ids, names, terminals.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {1, 2, 2, 3, true});

  engine::HierarchyView view(chip.lib, chip.top);
  engine::Executor serial(1);
  const std::string ref = testing::canonicalText(extract(view, t, serial));
  EXPECT_FALSE(ref.empty());
  for (const int threads : {2, 8}) {
    engine::Executor pooled(threads);
    EXPECT_EQ(ref, testing::canonicalText(extract(view, t, pooled))) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dic::netlist
