// Hierarchical netlist extraction against the flat oracle: the extractor
// probes geometry once per cell definition and replays edges per
// placement, and must still produce the flat extractor's netlist byte for
// byte -- across chip sizes, injected defects, all eight orientations,
// odd-width geometry, a CIF round-trip, label merging on and off, and
// pool sizes. The scaling test pins the paper's claim that hierarchical
// cost follows definitions and windows, not instances.
#include <gtest/gtest.h>

#include "cif/parser.hpp"
#include "cif/writer.hpp"
#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "flat_extract_oracle.hpp"
#include "layout/cifio.hpp"
#include "netlist/netlist.hpp"
#include "netlist_canonical.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace dic::netlist {
namespace {

const tech::Technology& nmos() {
  static const tech::Technology t = tech::nmos();
  return t;
}

/// Assert the hierarchical extraction of `root` equals the flat oracle
/// for label merging on and off and pool sizes 1 and 4.
void expectMatchesFlat(const layout::Library& lib, layout::CellId root,
                       const std::string& what) {
  for (const bool merge : {true, false}) {
    ExtractOptions opts;
    opts.mergeByLabel = merge;
    engine::HierarchyView oracleView(lib, root);
    engine::Executor serial(1);
    const std::string want = testing::canonicalText(
        testing::flatExtract(oracleView, nmos(), serial, opts));
    for (const int threads : {1, 4}) {
      engine::HierarchyView view(lib, root);
      engine::Executor exec(threads);
      EXPECT_EQ(want, testing::canonicalText(extract(view, nmos(), exec, opts)))
          << what << " merge=" << merge << " threads=" << threads;
      // Extraction reads placements and per-definition variants only.
      EXPECT_FALSE(view.flatBuilt(false)) << what;
      EXPECT_FALSE(view.flatBuilt(true)) << what;
    }
  }
}

TEST(NetlistHier, GeneratedChipsMatchFlatOracle) {
  for (const int blocks : {1, 2, 4}) {
    const workload::GeneratedChip chip =
        workload::generateChip(nmos(), {blocks, blocks, 2, 3, true});
    expectMatchesFlat(chip.lib, chip.top,
                      std::to_string(blocks) + "x" + std::to_string(blocks));
  }
}

TEST(NetlistHier, InjectedDefectsMatchFlatOracle) {
  // The default plan turns every defect class on: spacing and width
  // violations, same-net decoys, accidental FETs, contacts over gates,
  // butting halves, power/ground shorts and floating nets.
  const workload::InjectionPlan plan;
  ASSERT_GT(plan.powerGroundShorts, 0);
  ASSERT_GT(plan.floatingNets, 0);
  ASSERT_GT(plan.accidentalFets, 0);
  ASSERT_GT(plan.contactsOverGate, 0);
  for (const unsigned seed : {1u, 7u, 401u}) {
    workload::GeneratedChip chip =
        workload::generateChip(nmos(), {2, 2, 2, 4, true});
    const auto truths = workload::inject(chip, nmos(), plan, seed);
    ASSERT_FALSE(truths.empty());
    expectMatchesFlat(chip.lib, chip.top, "seed " + std::to_string(seed));
  }
}

TEST(NetlistHier, AllEightOrientationsMatchFlatOracle) {
  // A whole generated chip wrapped under each orientation, so every
  // definition is placed rotated or mirrored, next to a mirrored pair of
  // inverters sharing a rail (an instance-pair overlap window).
  workload::GeneratedChip chip =
      workload::generateChip(nmos(), {1, 2, 2, 2, true});
  const geom::Coord L = nmos().lambda();
  layout::Cell pair;
  pair.name = "mirror_pair";
  pair.instances.push_back(
      {chip.cells.inverter, {geom::Orient::kR0, {0, 0}}, "a"});
  pair.instances.push_back(
      {chip.cells.inverter, {geom::Orient::kMY, {0, 3 * L}}, "b"});
  const layout::CellId pairId = chip.lib.addCell(std::move(pair));
  for (int o = 0; o < 8; ++o) {
    layout::Cell wrap;
    wrap.name = "wrap" + std::to_string(o);
    wrap.instances.push_back(
        {chip.top, {static_cast<geom::Orient>(o), {-3000, 5000}}, "c"});
    wrap.instances.push_back(
        {pairId, {static_cast<geom::Orient>(o), {0, -200 * L}}, "p"});
    const layout::CellId root = chip.lib.addCell(std::move(wrap));
    expectMatchesFlat(chip.lib, root, "orient " + std::to_string(o));
  }
}

TEST(NetlistHier, MixedOrientationsWithOddWidthsMatchFlatOracle) {
  // One definition placed under all eight orientations at once, with
  // odd-width wires (whose regions are not rotation-symmetric) touching
  // its contact's ports and each other across instance boundaries.
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, nmos());
  const geom::Coord L = nmos().lambda();
  const int metal = *nmos().layerByName("metal");
  const int diff = *nmos().layerByName("diff");
  // A width-(3L+1) wire on y = 0 covers y in [-3L/2, 3L/2 + 1] unrotated
  // but [-3L/2 - 1, 3L/2] when mirrored in y. The pin's port sits on the
  // unrotated edge, so it connects only in orientations that keep y.
  const geom::Coord edge = 3 * L / 2 + 1;
  layout::Cell pin;
  pin.name = "pin";
  pin.deviceType = "PIN";
  pin.ports.push_back({"P", metal, {{4 * L, edge}, {5 * L, edge + L}}, -1});
  const layout::CellId pinId = lib.addCell(std::move(pin));
  layout::Cell sub;
  sub.name = "sub";
  sub.instances.push_back({cells.contactMD, {geom::Orient::kR0, {0, 0}}, "k"});
  sub.instances.push_back({pinId, {geom::Orient::kR0, {0, 0}}, "p"});
  sub.elements.push_back(
      layout::makeWire(metal, {{0, 0}, {6 * L, 0}}, 3 * L + 1, "m"));
  sub.elements.push_back(
      layout::makeWire(diff, {{0, 0}, {0, 5 * L}}, 2 * L + 1));
  const layout::CellId subId = lib.addCell(std::move(sub));
  layout::Cell top;
  top.name = "top";
  for (int o = 0; o < 8; ++o)
    top.instances.push_back({subId,
                             {static_cast<geom::Orient>(o),
                              {(o % 4) * 20 * L, (o / 4) * 20 * L}},
                             "s" + std::to_string(o)});
  top.elements.push_back(
      layout::makeWire(metal, {{0, 0}, {70 * L, 0}}, 3 * L + 1, "VDD"));
  // A bare odd-width wire mirrored in y reaches one unit past its
  // mirrored own-frame bbox; a pin abutting that edge must still join it.
  layout::Cell bar;
  bar.name = "bar";
  bar.elements.push_back(
      layout::makeWire(metal, {{0, 0}, {6 * L, 0}}, 3 * L + 1));
  const layout::CellId barId = lib.addCell(std::move(bar));
  top.instances.push_back({barId, {geom::Orient::kMY, {0, -20 * L}}, "b"});
  top.instances.push_back(
      {pinId, {geom::Orient::kR0, {0, -20 * L}}, "q"});
  const layout::CellId root = lib.addCell(std::move(top));
  expectMatchesFlat(lib, root, "mixed");
}

TEST(NetlistHier, CifRoundTripChipMatchesFlatOracle) {
  workload::GeneratedChip chip =
      workload::generateChip(nmos(), {1, 2, 2, 2, true});
  workload::inject(chip, nmos(), workload::InjectionPlan{}, 11);
  const cif::CifFile file = layout::toCif(
      chip.lib, chip.top, [&](int l) { return nmos().layer(l).cifName; });
  layout::Library lib2;
  const layout::CellId root2 = layout::fromCif(
      cif::parse(cif::write(file)), lib2, [&](const std::string& n) {
        return nmos().layerByCifName(n).value_or(-1);
      });
  expectMatchesFlat(lib2, root2, "cif");
}

TEST(NetlistHier, DeviceRootMatchesFlatOracle) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, nmos());
  expectMatchesFlat(lib, cells.butting, "device root");
  expectMatchesFlat(lib, cells.inverter, "inverter root");
}

TEST(NetlistHier, DevicesInsideDevicesAndDegenerateBoxesMatchFlatOracle) {
  // A composite cell placed both inside a device (no flat(false) slot)
  // and outside it, a device nested in a device, and zero-area boxes:
  // two share a global label, so their net's bbox is the fold of empty
  // rects, which depends on flat order.
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, nmos());
  const geom::Coord L = nmos().lambda();
  const int metal = *nmos().layerByName("metal");
  layout::Cell shared;
  shared.name = "shared";
  shared.elements.push_back(
      layout::makeWire(metal, {{0, 0}, {6 * L, 0}}, 3 * L + 1, "loc"));
  shared.elements.push_back(
      layout::makeBox(metal, {{9 * L, 0}, {9 * L, 2 * L}}, "BUSZ"));
  const layout::CellId sharedId = lib.addCell(std::move(shared));
  layout::Cell outer;
  outer.name = "outer";
  outer.deviceType = "PAD";
  outer.elements.push_back(
      layout::makeBox(metal, {{0, 0}, {4 * L, 4 * L}}));
  outer.ports.push_back({"P", metal, {{0, 0}, {4 * L, 4 * L}}, -1});
  outer.instances.push_back({sharedId, {geom::Orient::kR90, {0, 0}}, "s"});
  outer.instances.push_back(
      {cells.contactMD, {geom::Orient::kR0, {2 * L, 2 * L}}, "k"});
  const layout::CellId outerId = lib.addCell(std::move(outer));
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(
      layout::makeBox(metal, {{-30 * L, 0}, {-30 * L, 0}}, "BUSZ"));
  top.elements.push_back(layout::makeBox(metal, {{-40 * L, 0}, {-40 * L, 0}}));
  top.instances.push_back({outerId, {geom::Orient::kMX, {0, 0}}, "o"});
  top.instances.push_back({sharedId, {geom::Orient::kR0, {2 * L, 2 * L}}, "a"});
  top.instances.push_back({sharedId, {geom::Orient::kR180, {50 * L, 0}}, ""});
  top.instances.push_back({outerId, {geom::Orient::kR270, {80 * L, 0}}, "p"});
  const layout::CellId root = lib.addCell(std::move(top));
  expectMatchesFlat(lib, root, "nested devices");
}

TEST(NetlistHier, PortNetsMatchFlatOracle) {
  // The flat port-net array directly, not through canonical text: one
  // entry per flat(false) port, every device's slice in bounds and
  // contiguous, each (device, port) net and each net's terminal count
  // equal to the flat oracle's.
  workload::GeneratedChip chip =
      workload::generateChip(nmos(), {2, 2, 2, 4, true});
  ASSERT_FALSE(workload::inject(chip, nmos(), {}, 401).empty());
  engine::HierarchyView oracleView(chip.lib, chip.top);
  engine::Executor serial(1);
  const Netlist want = testing::flatExtract(oracleView, nmos(), serial);
  for (const int threads : {1, 4}) {
    engine::HierarchyView view(chip.lib, chip.top);
    engine::Executor exec(threads);
    const Netlist got = extract(view, nmos(), exec);
    ASSERT_EQ(got.portNet.size(), view.counts(view.root()).ports);
    ASSERT_EQ(got.devices.size(), want.devices.size());
    std::size_t next = 0;
    for (std::size_t d = 0; d < got.devices.size(); ++d) {
      const ExtractedDevice& dev = got.devices[d];
      ASSERT_EQ(dev.firstPort, next) << "device " << d;
      ASSERT_LE(dev.firstPort + got.portNames(dev).size(), got.portNet.size())
          << "device " << d;
      next = dev.firstPort + got.portNames(dev).size();
      const std::span<const int> nets = got.portNets(dev);
      const std::span<const int> oracle = want.portNets(want.devices[d]);
      ASSERT_EQ(got.portNames(dev), want.portNames(want.devices[d]));
      for (std::size_t k = 0; k < nets.size(); ++k)
        EXPECT_EQ(nets[k], oracle[k])
            << "device " << d << " port " << got.portNames(dev)[k]
            << " threads=" << threads;
    }
    EXPECT_EQ(next, got.portNet.size());
    ASSERT_EQ(got.nets.size(), want.nets.size());
    for (std::size_t n = 0; n < got.nets.size(); ++n)
      EXPECT_EQ(got.nets[n].terminalCount, want.nets[n].terminalCount)
          << "net " << n << " threads=" << threads;
  }
}

TEST(NetlistHierScaling, ProbesFollowDefinitionsNotInstances) {
  // Same distinct cells, 4x the block instances: flat elements grow ~4x,
  // while the geometry probes (per definition and window) stay flat --
  // the paper's hierarchical scaling claim, asserted.
  struct Run {
    std::size_t flatElements;
    ExtractStats stats;
  };
  auto run = [](int blocks) {
    const workload::GeneratedChip chip =
        workload::generateChip(nmos(), {blocks, blocks, 3, 4, true});
    engine::HierarchyView view(chip.lib, chip.top);
    engine::Executor exec(2);
    Run r{0, {}};
    extract(view, nmos(), exec, {}, r.stats);
    r.flatElements = view.flat(false).elements.size();
    return r;
  };
  const Run small = run(2);
  const Run large = run(4);
  EXPECT_GT(small.stats.probes, 0u);
  EXPECT_GT(small.stats.windows, 0u);
  EXPECT_GE(large.flatElements * 10, small.flatElements * 35)
      << small.flatElements << " -> " << large.flatElements;
  EXPECT_LE(large.stats.probes * 4, small.stats.probes * 5)
      << small.stats.probes << " -> " << large.stats.probes;
  EXPECT_LE(large.stats.windows * 4, small.stats.windows * 5)
      << small.stats.windows << " -> " << large.stats.windows;

  // Counters are deterministic across pool sizes.
  const workload::GeneratedChip chip =
      workload::generateChip(nmos(), {2, 2, 3, 4, true});
  ExtractStats serial, pooled;
  engine::HierarchyView v1(chip.lib, chip.top), v4(chip.lib, chip.top);
  engine::Executor e1(1), e4(4);
  extract(v1, nmos(), e1, {}, serial);
  extract(v4, nmos(), e4, {}, pooled);
  EXPECT_EQ(serial.probes, pooled.probes);
  EXPECT_EQ(serial.windows, pooled.windows);
}

}  // namespace
}  // namespace dic::netlist
