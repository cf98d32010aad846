// Tests for the layout database: elements, hierarchy, flattening, CIF IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cif/parser.hpp"
#include "cif/writer.hpp"
#include "engine/hierarchy_view.hpp"
#include "layout/cifio.hpp"
#include "layout/library.hpp"
#include "tech/technology.hpp"
#include "workload/generator.hpp"

namespace dic::layout {
namespace {

using geom::makeRect;
using geom::Point;

TEST(Element, BoxRegionAndBBox) {
  const Element e = makeBox(0, makeRect(0, 0, 10, 20));
  EXPECT_EQ(e.region().area(), 200);
  EXPECT_EQ(e.bbox(), makeRect(0, 0, 10, 20));
}

TEST(Element, WireRegionSquareCaps) {
  const Element e = makeWire(0, {{0, 0}, {10, 0}}, 4);
  // Segment inflated by half width in all directions.
  EXPECT_EQ(e.region().bbox(), makeRect(-2, -2, 12, 2));
  EXPECT_EQ(e.region().area(), 14 * 4);
  EXPECT_EQ(e.bbox(), makeRect(-2, -2, 12, 2));
}

TEST(Element, LWireRegion) {
  const Element e = makeWire(0, {{0, 0}, {10, 0}, {10, 10}}, 4);
  // Two segments; the corner is covered once.
  const geom::Region r = e.region();
  EXPECT_TRUE(r.contains({10, 10}));
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_EQ(r.area(), 14 * 4 + 14 * 4 - 4 * 4);
}

TEST(Element, PolygonRegion) {
  const Element e =
      makePolygon(0, {{0, 0}, {20, 0}, {20, 10}, {10, 10}, {10, 20}, {0, 20}});
  EXPECT_EQ(e.region().area(), 300);
}

TEST(Element, TransformedWire) {
  const Element e = makeWire(0, {{0, 0}, {10, 0}}, 4);
  const Element t = e.transformed({geom::Orient::kR90, {0, 0}});
  EXPECT_EQ(t.region().bbox(), makeRect(-2, -2, 2, 12));
}

TEST(Library, AddAndFind) {
  Library lib;
  Cell c;
  c.name = "leaf";
  const CellId id = lib.addCell(std::move(c));
  EXPECT_EQ(lib.findCell("leaf"), std::optional<CellId>(id));
  EXPECT_FALSE(lib.findCell("nope").has_value());
  Cell dup;
  dup.name = "leaf";
  EXPECT_THROW(lib.addCell(std::move(dup)), std::invalid_argument);
}

TEST(Library, AddInstanceDepthCapAcceptsChainAtCapRejectsOneMore) {
  // Cells c0..c{cap-1}, each instancing the previous one: a call chain of
  // exactly kMaxHierarchyDepth cells built through addInstance alone.
  Library lib;
  std::vector<CellId> chain;
  for (int k = 0; k < kMaxHierarchyDepth; ++k) {
    Cell c;
    c.name = "c" + std::to_string(k);
    chain.push_back(lib.addCell(std::move(c)));
    if (k > 0)
      lib.addInstance(chain[k], {chain[k - 1], {}, "i"});
  }
  Cell above, below;
  above.name = "above";
  below.name = "below";
  const CellId aboveId = lib.addCell(std::move(above));
  const CellId belowId = lib.addCell(std::move(below));
  const std::uint64_t rev = lib.revision();

  // One more cell on either end of the chain is one too many.
  EXPECT_THROW(lib.addInstance(aboveId, {chain.back(), {}, "i"}),
               std::invalid_argument);
  EXPECT_THROW(lib.addInstance(chain.front(), {belowId, {}, "i"}),
               std::invalid_argument);
  EXPECT_EQ(lib.revision(), rev);
  EXPECT_TRUE(std::as_const(lib).cell(aboveId).instances.empty());
  EXPECT_TRUE(std::as_const(lib).cell(chain.front()).instances.empty());

  // A side branch that stays within the cap is still accepted.
  lib.addInstance(aboveId, {chain[kMaxHierarchyDepth - 2], {}, "i"});
  EXPECT_EQ(lib.revision(), rev + 1);
}

Library makeTwoLevel(CellId& top, CellId& leaf) {
  Library lib;
  Cell l;
  l.name = "leaf";
  l.elements.push_back(makeBox(0, makeRect(0, 0, 10, 10)));
  leaf = lib.addCell(std::move(l));
  Cell t;
  t.name = "top";
  t.elements.push_back(makeBox(1, makeRect(0, 0, 100, 5)));
  t.instances.push_back({leaf, {geom::Orient::kR0, {20, 20}}, "a"});
  t.instances.push_back({leaf, {geom::Orient::kR90, {60, 20}}, "b"});
  top = lib.addCell(std::move(t));
  return lib;
}

TEST(Library, CellBBoxRecursive) {
  CellId top, leaf;
  Library lib = makeTwoLevel(top, leaf);
  EXPECT_EQ(lib.cellBBox(leaf), makeRect(0, 0, 10, 10));
  // b instance: R90 of (0,0,10,10) is (-10,0,0,10), translated to (50,20).
  EXPECT_EQ(lib.cellBBox(top), makeRect(0, 0, 100, 30));
}

TEST(Library, FlattenPathsAndTransforms) {
  CellId top, leaf;
  Library lib = makeTwoLevel(top, leaf);
  std::vector<FlatElement> fe;
  std::vector<FlatDevice> fd;
  lib.flatten(top, fe, fd);
  ASSERT_EQ(fe.size(), 3u);
  EXPECT_TRUE(fd.empty());
  EXPECT_EQ(fe[0].path, "");
  EXPECT_EQ(fe[1].path, "a");
  EXPECT_EQ(fe[2].path, "b");
  EXPECT_EQ(fe[1].element.bbox(), makeRect(20, 20, 30, 30));
  EXPECT_EQ(fe[2].element.bbox(), makeRect(50, 20, 60, 30));
}

TEST(Library, FlattenStopsAtDevices) {
  Library lib;
  Cell dev;
  dev.name = "tran";
  dev.deviceType = "TRAN";
  dev.elements.push_back(makeBox(0, makeRect(-5, -5, 5, 5)));
  dev.ports.push_back({"G", 0, makeRect(-5, -5, -4, 5), 0});
  const CellId devId = lib.addCell(std::move(dev));
  Cell t;
  t.name = "top";
  t.instances.push_back({devId, {geom::Orient::kR0, {100, 100}}, "t1"});
  const CellId top = lib.addCell(std::move(t));

  std::vector<FlatElement> fe;
  std::vector<FlatDevice> fd;
  lib.flatten(top, fe, fd, /*includeDeviceGeometry=*/false);
  EXPECT_TRUE(fe.empty());
  ASSERT_EQ(fd.size(), 1u);
  EXPECT_EQ(fd[0].deviceType, "TRAN");
  EXPECT_EQ(fd[0].path, "t1");
  EXPECT_EQ(fd[0].ports[0].at, makeRect(95, 95, 96, 105));

  fe.clear();
  fd.clear();
  lib.flatten(top, fe, fd, /*includeDeviceGeometry=*/true);
  EXPECT_EQ(fe.size(), 1u);
  EXPECT_EQ(fd.size(), 1u);
}

TEST(Library, WindowedCollectionPrunes) {
  CellId top, leaf;
  Library lib = makeTwoLevel(top, leaf);
  engine::HierarchyView view(lib, top);
  std::vector<engine::WindowElement> out;
  view.collectWindow(top, geom::identityTransform(), makeRect(19, 19, 31, 31),
                     "", out);
  // The top strip (y<=5) does not intersect; instance b does not.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].path, "a");
}

TEST(Library, PlacementBasesIndexTheFlatView) {
  // Placements are pre-order like flatten, so each placement's subtree
  // is one run of flat(false) elements and devices starting at its
  // bases; child offsets and window offsets compose onto them.
  const tech::Technology t = tech::nmos();
  const workload::GeneratedChip chip =
      workload::generateChip(t, {2, 2, 2, 3, true});
  engine::HierarchyView view(chip.lib, chip.top);
  const engine::HierarchyView::Flat& f = view.flat(false);
  std::size_t checked = 0;
  for (const auto& [id, places] : view.placements()) {
    const Cell& c = chip.lib.cell(id);
    for (const engine::Placement& p : places) {
      ASSERT_NE(p.elemBase, engine::kNoFlatIndex) << p.path;
      if (c.isDevice()) {
        ASSERT_LT(p.deviceBase, f.devices.size());
        EXPECT_EQ(f.devices[p.deviceBase].path, p.path);
        continue;
      }
      for (std::size_t i = 0; i < c.elements.size(); ++i) {
        ASSERT_LT(p.elemBase + i, f.elements.size());
        const FlatElement& fe = f.elements[p.elemBase + i];
        EXPECT_EQ(fe.sourceCell, id);
        EXPECT_EQ(fe.sourceIndex, i);
        EXPECT_EQ(fe.path, p.path);
      }
      for (const engine::ChildRef& ch : view.children(id)) {
        std::vector<engine::WindowElement> win;
        view.collectWindow(ch.cell, ch.transform, ch.bbox, ch.name, win);
        for (const engine::WindowElement& we : win) {
          ASSERT_FALSE(we.belowDevice);
          const std::string path = engine::joinPath(p.path, we.path);
          if (we.fromDevice) {
            const std::size_t d = p.deviceBase + ch.deviceOffset + we.offset;
            ASSERT_LT(d, f.devices.size());
            EXPECT_EQ(f.devices[d].path, path);
          } else {
            const std::size_t k = p.elemBase + ch.elemOffset + we.offset;
            ASSERT_LT(k, f.elements.size());
            EXPECT_EQ(f.elements[k].path, path);
            EXPECT_EQ(f.elements[k].sourceCell, we.sourceCell);
            EXPECT_EQ(f.elements[k].sourceIndex, we.sourceIndex);
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, f.elements.size());
}

TEST(Library, SizeStats) {
  CellId top, leaf;
  Library lib = makeTwoLevel(top, leaf);
  const Library::SizeStats s = lib.sizeStats(top);
  EXPECT_EQ(s.cells, 2u);
  EXPECT_EQ(s.hierarchicalElements, 2u);
  EXPECT_EQ(s.flatElements, 3u);
  EXPECT_EQ(s.maxDepth, 2);
}

/// Every SizeStats field from first principles: flatten with device
/// geometry for the flat counts, an unmemoized recursion for the depth.
void expectSizeStatsMatchFlatten(const Library& lib, CellId root) {
  Library::SizeStats want;
  lib.forEachCellOnce(root, [&](CellId id) {
    want.cells++;
    want.hierarchicalElements += lib.cell(id).elements.size();
  });
  std::vector<FlatElement> fe;
  std::vector<FlatDevice> fd;
  lib.flatten(root, fe, fd, /*includeDeviceGeometry=*/true);
  want.flatElements = fe.size();
  want.deviceInstancesFlat = fd.size();
  const std::function<int(CellId)> depth = [&](CellId id) {
    int d = 1;
    for (const Instance& inst : lib.cell(id).instances)
      d = std::max(d, 1 + depth(inst.cell));
    return d;
  };
  want.maxDepth = depth(root);

  const Library::SizeStats got = lib.sizeStats(root);
  EXPECT_EQ(got.cells, want.cells);
  EXPECT_EQ(got.hierarchicalElements, want.hierarchicalElements);
  EXPECT_EQ(got.flatElements, want.flatElements);
  EXPECT_EQ(got.deviceInstancesFlat, want.deviceInstancesFlat);
  EXPECT_EQ(got.maxDepth, want.maxDepth);
}

TEST(Library, SizeStatsMatchFlattenedCounts) {
  const tech::Technology t = tech::nmos();
  for (const int b : {1, 2, 4}) {
    SCOPED_TRACE("generated chip " + std::to_string(b) + "x" +
                 std::to_string(b));
    const workload::GeneratedChip chip =
        workload::generateChip(t, {b, b, 12, 22, true});
    expectSizeStatsMatchFlatten(chip.lib, chip.top);
  }
  {
    SCOPED_TRACE("CIF round-trip chip");
    const workload::GeneratedChip chip =
        workload::generateChip(t, {1, 2, 2, 4, true});
    const cif::CifFile out = toCif(chip.lib, chip.top, [&](int l) {
      return t.layer(l).cifName;
    });
    Library lib;
    const CellId root =
        fromCif(cif::parse(cif::write(out)), lib, [&](const std::string& n) {
          return t.layerByCifName(n).value_or(-1);
        });
    expectSizeStatsMatchFlatten(lib, root);
  }
  {
    // A device cell nested inside another device cell: its internals are
    // flat geometry, but only the outer device is a device instance.
    SCOPED_TRACE("device nested in a device");
    Library lib;
    Cell inner;
    inner.name = "inner";
    inner.deviceType = "CON_MD";
    inner.elements.push_back(makeBox(0, makeRect(0, 0, 4, 4)));
    inner.elements.push_back(makeBox(3, makeRect(0, 0, 4, 4)));
    inner.ports.push_back({"A", 0, makeRect(0, 0, 4, 4), 0});
    const CellId innerId = lib.addCell(std::move(inner));
    Cell outer;
    outer.name = "outer";
    outer.deviceType = "TRAN";
    outer.elements.push_back(makeBox(1, makeRect(0, 0, 10, 2)));
    outer.instances.push_back({innerId, {geom::Orient::kR0, {20, 0}}, "c"});
    outer.instances.push_back({innerId, {geom::Orient::kR90, {30, 0}}, ""});
    const CellId outerId = lib.addCell(std::move(outer));
    Cell mid;
    mid.name = "mid";
    mid.elements.push_back(makeBox(3, makeRect(0, 0, 50, 5)));
    mid.instances.push_back({outerId, {geom::Orient::kR0, {0, 10}}, "t"});
    mid.instances.push_back({innerId, {geom::Orient::kR0, {60, 0}}, "k"});
    const CellId midId = lib.addCell(std::move(mid));
    Cell top;
    top.name = "top";
    top.instances.push_back({midId, {geom::Orient::kR0, {0, 0}}, "m0"});
    top.instances.push_back({midId, {geom::Orient::kMX, {0, 100}}, "m1"});
    top.instances.push_back({outerId, {geom::Orient::kR0, {200, 0}}, "t9"});
    const CellId topId = lib.addCell(std::move(top));
    expectSizeStatsMatchFlatten(lib, topId);
    const Library::SizeStats s = lib.sizeStats(topId);
    EXPECT_EQ(s.deviceInstancesFlat, 5u);  // 2x(outer + inner) + outer
    EXPECT_EQ(s.maxDepth, 4);
  }
}

TEST(Library, ForEachCellOncePostOrder) {
  CellId top, leaf;
  Library lib = makeTwoLevel(top, leaf);
  std::vector<CellId> order;
  lib.forEachCellOnce(top, [&](CellId id) { order.push_back(id); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], leaf);  // substrates first
  EXPECT_EQ(order[1], top);
}

TEST(CifIo, ImportExportRoundTrip) {
  const tech::Technology t = tech::nmos();
  const std::string src =
      "DS 1; 9 leaf; 4D TRAN; L NP; B 1500 500 0 0; L ND; B 500 1500 0 0; "
      "DF; 9 top; L NM; 4N VDD; B 1000 750 500 375; C 1 T 5000 5000; E";
  Library lib;
  auto resolver = [&](const std::string& n) {
    return t.layerByCifName(n).value_or(-1);
  };
  const cif::CifFile parsed = cif::parse(src);
  const CellId rootId = fromCif(parsed, lib, resolver);
  EXPECT_EQ(lib.cell(rootId).name, "top");
  ASSERT_EQ(lib.cell(rootId).elements.size(), 1u);
  EXPECT_EQ(lib.cell(rootId).elements[0].net, "VDD");
  ASSERT_EQ(lib.cell(rootId).instances.size(), 1u);
  const CellId leafId = lib.cell(rootId).instances[0].cell;
  EXPECT_EQ(lib.cell(leafId).deviceType, "TRAN");

  // Export and re-import; structure must survive.
  const cif::CifFile out = toCif(lib, rootId, [&](int l) {
    return t.layer(l).cifName;
  });
  Library lib2;
  const CellId root2 = fromCif(out, lib2, resolver);
  EXPECT_EQ(lib2.cell(root2).elements.size(), 1u);
  EXPECT_EQ(lib2.cell(root2).instances.size(), 1u);
  EXPECT_EQ(lib2.cellBBox(root2), lib.cellBBox(rootId));
}

TEST(CifIo, ScaleFactorApplies) {
  const tech::Technology t = tech::nmos();
  Library lib;
  auto resolver = [&](const std::string& n) {
    return t.layerByCifName(n).value_or(-1);
  };
  const CellId root = fromCif(
      cif::parse("DS 1 2 1; L NM; B 10 10 0 0; DF; 9 top; C 1; E"), lib,
      resolver);
  const CellId leaf = lib.cell(root).instances[0].cell;
  EXPECT_EQ(lib.cell(leaf).elements[0].bbox(), makeRect(-10, -10, 10, 10));
}

TEST(CifIo, UnknownLayerThrows) {
  Library lib;
  EXPECT_THROW(fromCif(cif::parse("L XX; B 4 4 0 0; E"), lib,
                       [](const std::string&) { return -1; }),
               std::runtime_error);
}

TEST(CifIo, DuplicatePortNamesAreRejected) {
  // Extraction addresses a device port by name; a symbol declaring two
  // "A" ports is refused before it enters the library.
  const tech::Technology t = tech::nmos();
  Library lib;
  auto resolver = [&](const std::string& n) {
    return t.layerByCifName(n).value_or(-1);
  };
  const std::string src =
      "DS 1; 9 con; 4D CON_MD; 4P A ND -2 -2 2 2 0; 4P A NM -2 -2 2 2 0; "
      "L ND; B 4 4 0 0; DF; C 1; E";
  try {
    fromCif(cif::parse(src), lib, resolver);
    FAIL() << "duplicate port names accepted";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("duplicate port name A in cell con"),
              std::string::npos)
        << ex.what();
  }
  EXPECT_EQ(lib.cellCount(), 0u);

  Cell dev;
  dev.name = "dev";
  dev.deviceType = "TRAN";
  dev.ports.push_back({"G", 0, makeRect(0, 0, 1, 1), -1});
  dev.ports.push_back({"S", 0, makeRect(0, 0, 1, 1), -1});
  dev.ports.push_back({"G", 0, makeRect(2, 2, 3, 3), -1});
  EXPECT_THROW(lib.addCell(dev), std::invalid_argument);
  dev.ports.back().name = "D";
  EXPECT_NO_THROW(lib.addCell(dev));
}

}  // namespace
}  // namespace dic::layout
