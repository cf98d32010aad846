// Full-fidelity CIF round-trip tests: ports (4P), prechecked (4C),
// device types (4D), nets (4N) -- a generated chip exported to CIF and
// re-imported must verify and extract identically.
#include <gtest/gtest.h>

#include "cif/parser.hpp"
#include "cif/writer.hpp"
#include "drc/checker.hpp"
#include "erc/erc.hpp"
#include "layout/cifio.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace dic {
namespace {

TEST(CifPortExtension, ParseAndWrite) {
  const cif::CifFile f = cif::parse(
      "DS 1; 9 con; 4D CON_MD; 4C;"
      "4P A ND -500 -500 500 500 0;"
      "4P B NM -500 -500 500 500 0;"
      "L ND; B 1000 1000 0 0; DF; E");
  const cif::CifSymbol& s = f.symbols.at(1);
  EXPECT_TRUE(s.prechecked);
  ASSERT_EQ(s.ports.size(), 2u);
  EXPECT_EQ(s.ports[0].name, "A");
  EXPECT_EQ(s.ports[0].layer, "ND");
  EXPECT_EQ(s.ports[0].lo, (geom::Point{-500, -500}));
  EXPECT_EQ(s.ports[0].internalGroup, 0);

  const cif::CifFile g = cif::parse(cif::write(f));
  ASSERT_EQ(g.symbols.at(1).ports.size(), 2u);
  EXPECT_EQ(g.symbols.at(1).ports[1].name, "B");
  EXPECT_TRUE(g.symbols.at(1).prechecked);
}

TEST(CifPortExtension, NegativeGroupRoundTrips) {
  const cif::CifFile f = cif::parse(
      "DS 1; 4D TRAN; 4P S ND 0 0 10 10 -1; L ND; B 10 10 5 5; DF; E");
  EXPECT_EQ(f.symbols.at(1).ports[0].internalGroup, -1);
  const cif::CifFile g = cif::parse(cif::write(f));
  EXPECT_EQ(g.symbols.at(1).ports[0].internalGroup, -1);
}

class ChipRoundTrip : public ::testing::Test {
 protected:
  tech::Technology t = tech::nmos();

  layout::CellId reimport(const layout::Library& lib, layout::CellId root,
                          layout::Library& lib2) {
    const cif::CifFile file = layout::toCif(
        lib, root, [&](int l) { return t.layer(l).cifName; });
    const std::string text = cif::write(file);
    return layout::fromCif(cif::parse(text), lib2, [&](const std::string& n) {
      return t.layerByCifName(n).value_or(-1);
    });
  }
};

TEST_F(ChipRoundTrip, CleanChipStaysCleanAfterRoundTrip) {
  workload::GeneratedChip chip = workload::generateChip(
      t, {.blockRows = 1, .blockCols = 2, .invRows = 2, .invCols = 2,
          .withPads = true});
  layout::Library lib2;
  const layout::CellId root2 = reimport(chip.lib, chip.top, lib2);

  EXPECT_EQ(lib2.cellBBox(root2), chip.lib.cellBBox(chip.top));

  drc::Checker checker(lib2, root2, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
  const netlist::Netlist nl = checker.generateNetlist();
  EXPECT_TRUE(erc::check(nl, t).empty());

  // Same device population as the original.
  const netlist::Netlist orig = netlist::extract(chip.lib, chip.top, t);
  EXPECT_EQ(nl.devices.size(), orig.devices.size());
  EXPECT_EQ(nl.nets.size(), orig.nets.size());
}

TEST_F(ChipRoundTrip, InjectedErrorsSurviveRoundTrip) {
  workload::GeneratedChip chip = workload::generateChip(
      t, {.blockRows = 1, .blockCols = 2, .invRows = 2, .invCols = 2,
          .withPads = true});
  workload::InjectionPlan plan;
  plan.powerGroundShorts = 0;
  plan.floatingNets = 1;
  const auto truths = workload::inject(chip, t, plan, 11);

  layout::Library lib2;
  const layout::CellId root2 = reimport(chip.lib, chip.top, lib2);
  drc::Checker c1(chip.lib, chip.top, t, {});
  drc::Checker c2(lib2, root2, t, {});
  const auto r1 = c1.run();
  const auto r2 = c2.run();
  EXPECT_EQ(r1.count(), r2.count()) << "orig:\n"
                                    << r1.text() << "reimported:\n"
                                    << r2.text();
}

TEST_F(ChipRoundTrip, PrecheckedFlagSurvives) {
  layout::Library lib;
  layout::Cell dev;
  dev.name = "odd";
  dev.deviceType = "TRAN";
  dev.prechecked = true;  // intentionally-broken but marked checked
  const int np = *t.layerByName("poly");
  dev.elements.push_back(
      layout::makeBox(np, geom::makeRect(0, 0, 1000, 500)));
  const auto devId = lib.addCell(std::move(dev));
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({devId, {geom::Orient::kR0, {0, 0}}, "d"});
  const auto root = lib.addCell(std::move(top));

  layout::Library lib2;
  const layout::CellId root2 = reimport(lib, root, lib2);
  drc::Checker checker(lib2, root2, t, {});
  EXPECT_TRUE(checker.checkPrimitiveSymbols().empty());
}

/// A symbol chain `depth` cells deep (depth >= 2): symbol 1 holds one
/// metal box 1 lambda wide (one width violation), symbol k calls symbol
/// k-1, and the top calls the last symbol.
std::string chainCif(int depth) {
  std::string text = "DS 1; L NM; B 250 1000 125 500; DF;\n";
  for (int k = 2; k < depth; ++k)
    text += "DS " + std::to_string(k) + "; C " + std::to_string(k - 1) +
            "; DF;\n";
  return text + "C " + std::to_string(depth - 1) + "; E";
}

TEST_F(ChipRoundTrip, DepthCapRejectsDeeperChainAndChecksChainAtCap) {
  const auto resolve = [&](const std::string& n) {
    return t.layerByCifName(n).value_or(-1);
  };
  layout::Library deep;
  try {
    layout::fromCif(cif::parse(chainCif(layout::kMaxHierarchyDepth + 1)),
                    deep, resolve);
    FAIL() << "a chain deeper than kMaxHierarchyDepth was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deeper than"), std::string::npos)
        << e.what();
  }

  layout::Library lib;
  const layout::CellId root = layout::fromCif(
      cif::parse(chainCif(layout::kMaxHierarchyDepth)), lib, resolve);
  Workspace ws(std::move(lib), t, {/*threads=*/2});
  const CheckResult drc = ws.run(CheckRequest::drc(root));
  ASSERT_TRUE(drc.ok()) << drc.error;
  ASSERT_EQ(drc.report.count(), 1u) << drc.report.text();
  const CheckResult nl = ws.run(CheckRequest::netlistOnly(root));
  ASSERT_TRUE(nl.ok()) << nl.error;
  EXPECT_EQ(nl.netlist->nets.size(), 1u);
}

}  // namespace
}  // namespace dic
