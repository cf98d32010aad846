#include "layout/cifio.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace dic::layout {

namespace {

geom::Coord scaleCoord(geom::Coord v, int num, int den) {
  const geom::Coord scaled = v * num;
  if (scaled % den != 0)
    throw std::runtime_error("CIF scale produces non-integral coordinate");
  return scaled / den;
}

Element convertElement(const cif::CifElement& ce, int layer, int num,
                       int den) {
  auto sc = [&](geom::Coord v) { return scaleCoord(v, num, den); };
  switch (ce.kind) {
    case cif::CifElement::Kind::kBox: {
      const geom::Coord l = sc(ce.length), w = sc(ce.width);
      const geom::Point c{sc(ce.center.x), sc(ce.center.y)};
      return makeBox(layer,
                     {{c.x - l / 2, c.y - w / 2},
                      {c.x - l / 2 + l, c.y - w / 2 + w}},
                     ce.net);
    }
    case cif::CifElement::Kind::kWire: {
      std::vector<geom::Point> pts;
      pts.reserve(ce.path.size());
      for (const geom::Point& p : ce.path) pts.push_back({sc(p.x), sc(p.y)});
      return makeWire(layer, std::move(pts), sc(ce.width), ce.net);
    }
    case cif::CifElement::Kind::kPolygon: {
      std::vector<geom::Point> pts;
      pts.reserve(ce.path.size());
      for (const geom::Point& p : ce.path) pts.push_back({sc(p.x), sc(p.y)});
      return makePolygon(layer, std::move(pts), ce.net);
    }
    case cif::CifElement::Kind::kFlash: {
      // Round flashes are approximated by their bounding box; the DIC
      // data model is Manhattan (documented substitution).
      const geom::Coord d = sc(ce.width);
      const geom::Point c{sc(ce.center.x), sc(ce.center.y)};
      return makeBox(layer,
                     {{c.x - d / 2, c.y - d / 2},
                      {c.x - d / 2 + d, c.y - d / 2 + d}},
                     ce.net);
    }
  }
  throw std::logic_error("unreachable");
}

}  // namespace

CellId fromCif(const cif::CifFile& file, Library& lib,
               const LayerResolver& layers) {
  auto layerOf = [&](const std::string& name) {
    const int idx = layers(name);
    if (idx < 0) throw std::runtime_error("unknown CIF layer: " + name);
    return idx;
  };

  std::map<int, CellId> idMap;
  // Symbol id -> cells on its longest call chain. Definitions precede
  // use, so each symbol's depth is known from its callees' in one pass.
  std::map<int, int> depthOf;

  auto convertSymbol = [&](const cif::CifSymbol& sym,
                           const std::string& fallbackName, int& depth) {
    depth = 1;
    Cell cell;
    cell.name = sym.name.empty() ? fallbackName : sym.name;
    cell.deviceType = sym.deviceType;
    cell.prechecked = sym.prechecked;
    for (const cif::CifPort& p : sym.ports) {
      auto sc = [&](geom::Coord v) {
        return scaleCoord(v, sym.scaleNum, sym.scaleDen);
      };
      cell.ports.push_back({p.name, layerOf(p.layer),
                            {{sc(p.lo.x), sc(p.lo.y)},
                             {sc(p.hi.x), sc(p.hi.y)}},
                            p.internalGroup});
    }
    for (const cif::CifElement& ce : sym.elements)
      cell.elements.push_back(convertElement(ce, layerOf(ce.layer),
                                             sym.scaleNum, sym.scaleDen));
    for (const cif::CifCall& call : sym.calls) {
      auto it = idMap.find(call.symbolId);
      if (it == idMap.end())
        throw std::runtime_error("call of undefined symbol " +
                                 std::to_string(call.symbolId));
      depth = std::max(depth, depthOf.at(call.symbolId) + 1);
      if (depth > kMaxHierarchyDepth)
        throw std::runtime_error(
            "CIF symbol hierarchy deeper than " +
            std::to_string(kMaxHierarchyDepth) + " levels");
      geom::Transform t = call.transform;
      t.t.x = scaleCoord(t.t.x, sym.scaleNum, sym.scaleDen);
      t.t.y = scaleCoord(t.t.y, sym.scaleNum, sym.scaleDen);
      cell.instances.push_back({it->second, t, {}});
    }
    return cell;
  };

  // CIF requires symbols to be defined before use in our dialect; the
  // std::map iterates in id order, which matches how generators emit them.
  for (const auto& [id, sym] : file.symbols) {
    Cell cell = convertSymbol(sym, "S" + std::to_string(id), depthOf[id]);
    idMap[id] = lib.addCell(std::move(cell));
  }
  int topDepth = 0;
  Cell top = convertSymbol(file.top, "TOP", topDepth);
  return lib.addCell(std::move(top));
}

cif::CifFile toCif(const Library& lib, CellId root,
                   const std::function<std::string(int)>& layerName) {
  cif::CifFile file;
  std::map<CellId, int> idMap;
  int nextId = 1;

  lib.forEachCellOnce(root, [&](CellId id) {
    if (id == root) return;
    idMap[id] = nextId++;
  });

  auto convertCell = [&](const Cell& cell, int cifId) {
    cif::CifSymbol sym;
    sym.id = cifId;
    sym.name = cell.name;
    sym.deviceType = cell.deviceType;
    sym.prechecked = cell.prechecked;
    for (const Port& p : cell.ports)
      sym.ports.push_back(
          {p.name, layerName(p.layer), p.at.lo, p.at.hi, p.internalGroup});
    for (const Element& e : cell.elements) {
      cif::CifElement ce;
      ce.layer = layerName(e.layer);
      ce.net = e.net;
      switch (e.kind) {
        case ElementKind::kBox:
          // CIF boxes are centered, so odd dimensions cannot round-trip
          // exactly; emit those as 4-point polygons instead.
          if (e.box.width() % 2 != 0 || e.box.height() % 2 != 0) {
            ce.kind = cif::CifElement::Kind::kPolygon;
            ce.path = {e.box.lo,
                       {e.box.hi.x, e.box.lo.y},
                       e.box.hi,
                       {e.box.lo.x, e.box.hi.y}};
            break;
          }
          ce.kind = cif::CifElement::Kind::kBox;
          ce.length = e.box.width();
          ce.width = e.box.height();
          ce.center = {e.box.lo.x + e.box.width() / 2,
                       e.box.lo.y + e.box.height() / 2};
          break;
        case ElementKind::kWire:
          ce.kind = cif::CifElement::Kind::kWire;
          ce.width = e.wireWidth;
          ce.path = e.path;
          break;
        case ElementKind::kPolygon:
          ce.kind = cif::CifElement::Kind::kPolygon;
          ce.path = e.path;
          break;
      }
      sym.elements.push_back(std::move(ce));
    }
    for (const Instance& inst : cell.instances)
      sym.calls.push_back({idMap.at(inst.cell), inst.transform});
    return sym;
  };

  for (const auto& [cellId, cifId] : idMap)
    file.symbols[cifId] = convertCell(lib.cell(cellId), cifId);
  file.top = convertCell(lib.cell(root), 0);
  return file;
}

}  // namespace dic::layout
