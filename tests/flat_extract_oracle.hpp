#pragma once
// Test-only oracle: the flat netlist extractor the library used before
// extraction became hierarchical. One grid probe per flat element and per
// flat device port over the view's flat(false) indexes; nets numbered in
// first-encounter node order. The hierarchical extractor must reproduce
// its output byte for byte (compare through netlist_canonical.hpp). Not
// part of the library.

#include <map>
#include <string>
#include <vector>

#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "netlist/unionfind.hpp"

namespace dic::netlist::testing {

/// True if the element's region (closed) touches the port rect.
inline bool flatElementTouchesPort(const layout::Element& e,
                                   const geom::Rect& port) {
  if (!geom::closedTouch(e.bbox(), port)) return false;
  const geom::Region region = e.region();
  for (const geom::Rect& r : region.rects())
    if (geom::closedTouch(r, port)) return true;
  return false;
}

inline Netlist flatExtract(engine::HierarchyView& view,
                           const tech::Technology& tech,
                           engine::Executor& exec,
                           const ExtractOptions& opts = {}) {
  Netlist out;

  // Build the flat view, spatial indexes, and port index up front on the
  // calling thread, so the fan-outs below start against read-only caches
  // instead of queueing every worker on the first lazy build.
  view.prepare(false);
  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<layout::FlatElement>& elements = flat.elements;
  const std::vector<layout::FlatDevice>& devices = flat.devices;
  const std::vector<geom::Rect>& bboxes = flat.bboxes;

  // Node ids: elements first, then (device, port) pairs, then one node per
  // distinct global label.
  const std::size_t ne = elements.size();
  const std::vector<engine::HierarchyView::PortRef>& portNodes = view.ports();
  const std::size_t np = portNodes.size();
  std::map<std::string, std::size_t> labelNode;
  if (opts.mergeByLabel) {
    for (const auto& fe : elements)
      if (!fe.element.net.empty() && opts.isGlobalLabel(fe.element.net) &&
          !labelNode.count(fe.element.net))
        labelNode.emplace(fe.element.net, ne + np + labelNode.size());
  }
  UnionFind uf(ne + np + labelNode.size());

  // The connectivity probes below are the netlist stage's critical path
  // (skeleton construction, grid queries, region/port touch tests). Each
  // fan-out writes only its own index's slot; the union-find itself is
  // not thread-safe, so the collected edges replay serially afterwards in
  // index order. Net numbering depends only on the final partition (ids
  // are assigned in first-encounter node order when nets are built), so
  // the result is byte-identical to serial for any pool size.

  // Precompute skeletons (bboxes come cached from the view).
  std::vector<geom::Skeleton> skels(ne);
  exec.parallelFor(ne, [&](std::size_t i) {
    const layout::Element& e = elements[i].element;
    skels[i] = e.skeleton(tech.layer(e.layer).minWidth);
  });

  // Element-element connections via the engine's per-layer indexes. The
  // layer equality re-check guards against negative layer ids, which the
  // view's candidate API treats as the all-layers sentinel.
  std::vector<std::vector<std::size_t>> elemEdges(ne);
  exec.parallelFor(ne, [&](std::size_t i) {
    static thread_local std::vector<std::size_t> cand;
    view.flatCandidatesInto(false, elements[i].element.layer, bboxes[i], 0,
                            cand);
    for (std::size_t j : cand) {
      if (j <= i) continue;
      if (elements[j].element.layer != elements[i].element.layer) continue;
      if (!geom::closedTouch(bboxes[i], bboxes[j])) continue;
      if (geom::skeletonsConnected(skels[i], skels[j]))
        elemEdges[i].push_back(j);
    }
  });
  for (std::size_t i = 0; i < ne; ++i)
    for (std::size_t j : elemEdges[i]) uf.unite(i, j);

  // Element-port and port-port connections: probe in parallel, unite
  // serially. portEdges[pn] holds element nodes (< ne) touching the port
  // and same/cross-device port nodes (>= ne) shorted to it.
  std::vector<std::vector<std::size_t>> portEdges(np);
  exec.parallelFor(np, [&](std::size_t pn) {
    const std::size_t d = portNodes[pn].device;
    const layout::Port& port = devices[d].ports[portNodes[pn].port];
    static thread_local std::vector<std::size_t> cand;
    view.flatCandidatesInto(false, port.layer, port.at, 0, cand);
    for (std::size_t i : cand) {
      if (elements[i].element.layer != port.layer) continue;
      if (flatElementTouchesPort(elements[i].element, port.at))
        portEdges[pn].push_back(i);
    }
    // Internal groups connect ports of the same device.
    for (std::size_t qn = pn + 1; qn < np; ++qn) {
      if (portNodes[qn].device != d) break;  // ports are grouped by device
      const layout::Port& port2 = devices[d].ports[portNodes[qn].port];
      if ((port.internalGroup >= 0 &&
           port.internalGroup == port2.internalGroup) ||
          // Abutting ports on the same layer short directly (butting
          // devices).
          (port.layer == port2.layer && geom::closedTouch(port.at, port2.at)))
        portEdges[pn].push_back(ne + qn);
    }
    // Port-port across devices (abutting device terminals).
    for (std::size_t qn : view.portCandidates(port.at, 1)) {
      if (qn <= pn) continue;
      const std::size_t d2 = portNodes[qn].device;
      if (d2 == d) continue;
      const layout::Port& port2 = devices[d2].ports[portNodes[qn].port];
      if (port.layer == port2.layer && geom::closedTouch(port.at, port2.at))
        portEdges[pn].push_back(ne + qn);
    }
  });
  for (std::size_t pn = 0; pn < np; ++pn)
    for (std::size_t other : portEdges[pn]) uf.unite(ne + pn, other);

  // Global label merging.
  if (opts.mergeByLabel) {
    for (std::size_t i = 0; i < ne; ++i) {
      const std::string& label = elements[i].element.net;
      if (!label.empty() && opts.isGlobalLabel(label))
        uf.unite(i, labelNode.at(label));
    }
  }

  // Build nets.
  std::map<std::size_t, int> rootToNet;
  auto netOf = [&](std::size_t node) {
    const std::size_t r = uf.find(node);
    auto it = rootToNet.find(r);
    if (it != rootToNet.end()) return it->second;
    const int id = static_cast<int>(out.nets.size());
    Net n;
    n.id = id;
    out.nets.push_back(std::move(n));
    rootToNet.emplace(r, id);
    return id;
  };

  out.elementNet.resize(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    const int id = netOf(i);
    out.elementNet[i] = id;
    out.nets[id].elementCount++;
    out.nets[id].bbox = geom::bound(out.nets[id].bbox, bboxes[i]);
    const std::string& label = elements[i].element.net;
    if (!label.empty()) {
      // Global labels keep their bare name; local labels are qualified
      // with the dot-notation instance path ("a.b refers to element b in
      // the instance a").
      const std::string qualified =
          elements[i].path.empty() || opts.isGlobalLabel(label)
              ? label
              : elements[i].path + "." + label;
      if (!out.nets[id].hasName(qualified))
        out.nets[id].names.push_back(qualified);
    }
  }

  out.devices.reserve(devices.size());
  out.cellPorts.resize(view.library().cellCount());
  std::size_t firstPort = 0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    std::vector<std::string>& names = out.cellPorts[devices[d].cell];
    if (names.empty())
      for (const layout::Port& p : devices[d].ports) names.push_back(p.name);
    ExtractedDevice ed;
    ed.firstPort = firstPort;
    firstPort += devices[d].ports.size();
    ed.path = devices[d].path;
    ed.type = devices[d].deviceType;
    const tech::DeviceRules* rules = tech.deviceRules(ed.type);
    if (rules) ed.cls = rules->cls;
    ed.cell = devices[d].cell;
    ed.bbox = devices[d].bbox;
    out.devices.push_back(std::move(ed));
  }
  out.portNet.resize(portNodes.size());
  for (std::size_t pn = 0; pn < portNodes.size(); ++pn) {
    const int id = netOf(ne + pn);
    out.portNet[pn] = id;
    out.nets[id].terminalCount++;
  }

  return out;
}

}  // namespace dic::netlist::testing
