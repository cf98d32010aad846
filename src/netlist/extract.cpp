#include <algorithm>
#include <array>
#include <map>

#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "netlist/unionfind.hpp"

namespace dic::netlist {

namespace {

using geom::Rect;
using layout::CellId;

/// One connectivity node in some frame: an interconnect element with its
/// skeleton, or a device port (elem == nullptr).
struct Node {
  std::size_t id{0};  ///< node id; numbering is up to the caller
  const layout::Element* elem{nullptr};
  Rect box{};  ///< element bbox or port rect
  int layer{0};
  geom::Skeleton skel;  ///< elements only
};

Node elementNode(std::size_t id, const layout::Element& e,
                 const tech::Technology& tech) {
  return {id, &e, e.bbox(), e.layer, e.skeleton(tech.layer(e.layer).minWidth)};
}

Node portNode(std::size_t id, const layout::Port& p) {
  return {id, nullptr, p.at, p.layer, {}};
}

/// True if the element's region (closed) touches the rect.
bool regionTouches(const layout::Element& e, const Rect& r) {
  const geom::Region region = e.region();
  for (const Rect& q : region.rects())
    if (geom::closedTouch(q, r)) return true;
  return false;
}

/// THE connectivity predicate: two nodes on the same layer whose boxes
/// closed-touch connect iff both are elements with touching skeletons
/// (Fig. 11), an element's region touches a port, or two ports abut.
/// Every extraction path (the per-definition probes and the incremental
/// path's probeElementEdges) decides connectivity here.
bool connected(const Node& a, const Node& b) {
  if (a.layer != b.layer || !geom::closedTouch(a.box, b.box)) return false;
  if (a.elem && b.elem) return geom::skeletonsConnected(a.skel, b.skel);
  if (a.elem) return regionTouches(*a.elem, b.box);
  if (b.elem) return regionTouches(*b.elem, a.box);
  return true;
}

/// Closed bounding-box union (geom::bound drops degenerate rects, which
/// are still closed-touchable nodes here).
Rect hull(const Rect& a, const Rect& b) {
  return {{std::min(a.lo.x, b.lo.x), std::min(a.lo.y, b.lo.y)},
          {std::max(a.hi.x, b.hi.x), std::max(a.hi.y, b.hi.y)}};
}

// --- the hierarchical extractor ----------------------------------------------
//
// Node ids relative to a definition D: D's subtree contributes a contiguous
// run of flat(false) elements and of device ports (placements are
// pre-order), so an element at subtree offset r is node r and a port at
// subtree port offset q is node elems(D) + q, with the subtree counts read
// from the view. A placement of D whose subtree starts at flat element eb
// and flat port pb maps r to eb + r and elems(D) + q to ne + pb + q: edges
// computed once per definition replay per placement as integer work.
//
// Geometry is computed per (definition, orientation) variant in the frame
// of that orientation with zero translation. Element regions and bboxes
// are translation-equivariant but not rotation-equivariant (odd wire
// widths split their half-widths asymmetrically), so this frame reproduces
// the flat geometry exactly up to a translation, which none of the
// predicates can see -- and a flat element's bbox is its variant-frame
// bbox shifted by the placement's translation.

constexpr int kOrients = 8;

using Counts = engine::HierarchyView::SubtreeCounts;

/// Orientation-independent facts about one definition.
struct Def {
  bool any{false};       ///< the subtree holds at least one node
  Rect box{};            ///< own-frame hull of every node box (if any)
  unsigned orients{0};   ///< bit o: placed under orientation o
  std::array<int, kOrients> variant{};  ///< orientation -> variant slot
};

/// A child instance seen from one variant's frame.
struct Child {
  CellId cell{0};
  geom::Transform t{};   ///< child -> variant frame
  Rect box{};            ///< child subtree hull in the variant frame
  std::size_t eBase{0};  ///< node id of the child's first element
  std::size_t pBase{0};  ///< node id of the child's first port
};

/// One (definition, orientation) unit of connectivity work.
struct Variant {
  CellId cell{0};
  geom::Orient orient{geom::Orient::kR0};
  std::vector<layout::Element> own;  ///< own elements in this frame
  std::vector<Node> nodes;           ///< own element nodes, or device ports
  std::vector<Child> children;       ///< children that hold nodes
  std::vector<std::pair<std::size_t, std::size_t>> edges;
};

/// One unit of parallel probe work within a variant.
struct Item {
  enum Kind { kIntra, kElemChild, kChildPair } kind{kIntra};
  std::size_t variant{0};
  std::size_t a{0};  ///< child index (kElemChild, kChildPair)
  std::size_t b{0};  ///< second child index (kChildPair)
};

class HierExtractor {
 public:
  HierExtractor(const engine::HierarchyView& view,
                const tech::Technology& tech)
      : view_(view),
        lib_(view.library()),
        root_(view.root()),
        tech_(tech),
        defs_(lib_.cellCount()) {}

  /// Union every connectivity edge of the design into `uf`, whose node
  /// space is [elements | ports] with `ne` flat elements.
  void run(engine::Executor& exec, UnionFind& uf, std::size_t ne,
           ExtractStats& stats) {
    hulls();
    propagateOrients();

    exec.parallelFor(variants_.size(),
                     [&](std::size_t v) { prepare(variants_[v]); });

    std::vector<Item> items;
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      const Variant& var = variants_[v];
      items.push_back({Item::kIntra, v, 0, 0});
      for (std::size_t k = 0; k < var.children.size(); ++k)
        items.push_back({Item::kElemChild, v, k, 0});
      std::vector<Rect> boxes;
      boxes.reserve(var.children.size());
      for (const Child& ch : var.children) boxes.push_back(ch.box);
      for (const auto& [i, j] : engine::pairsWithin(boxes, 0))
        items.push_back({Item::kChildPair, v, i, j});
    }
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> itemEdges(
        items.size());
    std::vector<ExtractStats> itemStats(items.size());
    exec.parallelFor(items.size(), [&](std::size_t t) {
      probe(items[t], itemEdges[t], itemStats[t]);
    });
    for (std::size_t t = 0; t < items.size(); ++t) {
      auto& edges = variants_[items[t].variant].edges;
      edges.insert(edges.end(), itemEdges[t].begin(), itemEdges[t].end());
      stats.windows += itemStats[t].windows;
      stats.probes += itemStats[t].probes;
    }

    replay(root_, geom::Orient::kR0, 0, 0, ne, uf);
  }

  /// The own element nodes (or device ports) of `id` in the frame of
  /// orientation `o`, which every flat placement of `id` was probed in.
  const std::vector<Node>& nodes(CellId id, geom::Orient o) const {
    return variants_[defs_[id].variant[static_cast<int>(o)]].nodes;
  }

 private:
  const Counts& counts(CellId id) const { return view_.counts(id); }

  /// Each reachable definition's own-frame node hull, children first.
  void hulls() {
    for (const CellId id : view_.cells()) {
      const layout::Cell& c = lib_.cell(id);
      Def& d = defs_[id];
      auto include = [&](const Rect& r) {
        d.box = d.any ? hull(d.box, r) : r;
        d.any = true;
      };
      if (c.isDevice()) {
        for (const layout::Port& p : c.ports) include(p.at);
        continue;
      }
      for (const layout::Element& e : c.elements) include(e.bbox());
      for (const layout::Instance& inst : c.instances) {
        const Def& cd = defs_[inst.cell];
        if (cd.any) include(inst.transform.apply(cd.box));
      }
    }
  }

  /// Orientation sets, parents before children (reverse post-order), and
  /// one variant per (definition, orientation) that occurs. Device cells
  /// pass no orientation on: flat(false) does not descend into them.
  void propagateOrients() {
    defs_[root_].orients = 1u << static_cast<int>(geom::Orient::kR0);
    const std::vector<CellId>& post = view_.cells();
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      Def& d = defs_[*it];
      d.variant.fill(-1);
      const layout::Cell& c = lib_.cell(*it);
      for (int o = 0; o < kOrients; ++o) {
        if (!(d.orients & (1u << o))) continue;
        d.variant[o] = static_cast<int>(variants_.size());
        Variant v;
        v.cell = *it;
        v.orient = static_cast<geom::Orient>(o);
        variants_.push_back(std::move(v));
        if (c.isDevice()) continue;
        for (const layout::Instance& inst : c.instances)
          defs_[inst.cell].orients |=
              1u << static_cast<int>(geom::compose(
                  inst.transform.orient, static_cast<geom::Orient>(o)));
      }
    }
  }

  /// A variant's own nodes (skeletons built once per definition and
  /// orientation) and its children in the variant frame.
  void prepare(Variant& v) const {
    const layout::Cell& c = lib_.cell(v.cell);
    const geom::Transform frame{v.orient, {0, 0}};
    if (c.isDevice()) {
      for (std::size_t p = 0; p < c.ports.size(); ++p) {
        layout::Port port = c.ports[p];
        port.at = frame.apply(port.at);
        v.nodes.push_back(portNode(p, port));
      }
      return;
    }
    v.own.reserve(c.elements.size());
    for (const layout::Element& e : c.elements)
      v.own.push_back(e.transformed(frame));
    for (std::size_t i = 0; i < v.own.size(); ++i)
      v.nodes.push_back(elementNode(i, v.own[i], tech_));
    std::size_t eb = c.elements.size();
    std::size_t pb = counts(v.cell).elems;
    for (const layout::Instance& inst : c.instances) {
      const Def& cd = defs_[inst.cell];
      if (cd.any) {
        const geom::Transform t = geom::compose(inst.transform, frame);
        // A rotated element's bbox can sit one unit off its rotated
        // own-frame bbox (odd widths), so hulls are widened by one.
        v.children.push_back({inst.cell, t, t.apply(cd.box).inflated(1), eb,
                              pb});
      }
      eb += counts(inst.cell).elems;
      pb += counts(inst.cell).ports;
    }
  }

  /// The nodes of one child window. Element nodes point into `store`, so
  /// they are built only once the walk stops growing it.
  struct Window {
    std::vector<layout::Element> store;
    std::vector<std::size_t> storeIds;
    std::vector<Node> nodes;
  };

  /// Every node of `id`'s subtree (placed by `t`) whose box closed-touches
  /// `window`, numbered from (eBase, pBase).
  void collect(CellId id, const geom::Transform& t, const Rect& window,
               std::size_t eBase, std::size_t pBase, Window& out) const {
    const layout::Cell& c = lib_.cell(id);
    if (c.isDevice()) {
      for (std::size_t p = 0; p < c.ports.size(); ++p) {
        layout::Port port = c.ports[p];
        port.at = t.apply(port.at);
        if (geom::closedTouch(port.at, window))
          out.nodes.push_back(portNode(pBase + p, port));
      }
      return;
    }
    for (std::size_t i = 0; i < c.elements.size(); ++i) {
      // Cheap widened pre-test before paying for the element copy.
      if (!geom::closedTouch(t.apply(c.elements[i].bbox()).inflated(1),
                             window))
        continue;
      layout::Element e = c.elements[i].transformed(t);
      if (!geom::closedTouch(e.bbox(), window)) continue;
      out.store.push_back(std::move(e));
      out.storeIds.push_back(eBase + i);
    }
    std::size_t eb = eBase + c.elements.size();
    std::size_t pb = pBase;
    for (const layout::Instance& inst : c.instances) {
      const Def& cd = defs_[inst.cell];
      const geom::Transform ct = geom::compose(inst.transform, t);
      if (cd.any && geom::closedTouch(ct.apply(cd.box).inflated(1), window))
        collect(inst.cell, ct, window, eb, pb, out);
      eb += counts(inst.cell).elems;
      pb += counts(inst.cell).ports;
    }
  }
  void collectChild(const Child& ch, const Rect& window, Window& out,
                    ExtractStats& stats) const {
    ++stats.windows;
    collect(ch.cell, ch.t, window, ch.eBase, ch.pBase, out);
    for (std::size_t k = 0; k < out.store.size(); ++k)
      out.nodes.push_back(elementNode(out.storeIds[k], out.store[k], tech_));
  }

  /// Exact-test one candidate pair whose layers and boxes allow contact.
  static void probePair(const Node& a, const Node& b,
                   std::vector<std::pair<std::size_t, std::size_t>>& edges,
                   ExtractStats& stats) {
    if (a.layer != b.layer || !geom::closedTouch(a.box, b.box)) return;
    ++stats.probes;
    if (connected(a, b)) edges.push_back({a.id, b.id});
  }

  void probe(const Item& item,
             std::vector<std::pair<std::size_t, std::size_t>>& edges,
             ExtractStats& stats) const {
    const Variant& v = variants_[item.variant];
    switch (item.kind) {
      case Item::kIntra: {
        const layout::Cell& c = lib_.cell(v.cell);
        if (c.isDevice()) {
          // Ports of one device connect through an internal group, or
          // directly when they abut.
          for (std::size_t p = 0; p < v.nodes.size(); ++p)
            for (std::size_t q = p + 1; q < v.nodes.size(); ++q) {
              const int g = c.ports[p].internalGroup;
              if (g >= 0 && g == c.ports[q].internalGroup)
                edges.push_back({p, q});
              else
                probePair(v.nodes[p], v.nodes[q], edges, stats);
            }
          return;
        }
        std::vector<Rect> boxes;
        boxes.reserve(v.nodes.size());
        for (const Node& n : v.nodes) boxes.push_back(n.box);
        for (const auto& [i, j] : engine::pairsWithin(boxes, 0))
          probePair(v.nodes[i], v.nodes[j], edges, stats);
        return;
      }
      case Item::kElemChild: {
        // Own elements against one child, through a single window: the
        // hull of the own elements touching the child, clipped to it.
        const Child& ch = v.children[item.a];
        Rect u{};
        bool any = false;
        for (const Node& n : v.nodes) {
          if (!geom::closedTouch(n.box, ch.box)) continue;
          u = any ? hull(u, n.box) : n.box;
          any = true;
        }
        if (!any) return;
        Window w;
        collectChild(ch, geom::intersect(u, ch.box), w, stats);
        for (const Node& n : v.nodes) {
          if (!geom::closedTouch(n.box, ch.box)) continue;
          for (const Node& x : w.nodes) probePair(n, x, edges, stats);
        }
        return;
      }
      case Item::kChildPair: {
        const Child& ci = v.children[item.a];
        const Child& cj = v.children[item.b];
        const Rect window = geom::intersect(ci.box, cj.box);
        Window wi, wj;
        collectChild(ci, window, wi, stats);
        if (wi.nodes.empty()) return;
        collectChild(cj, window, wj, stats);
        for (const Node& a : wi.nodes)
          for (const Node& b : wj.nodes) probePair(a, b, edges, stats);
        return;
      }
    }
  }

  /// Replay each placement's variant edges into the flat union-find:
  /// pre-order, like the view's placements, so (eb, pb) track the
  /// subtree's first flat element and port.
  void replay(CellId id, geom::Orient o, std::size_t eb, std::size_t pb,
              std::size_t ne, UnionFind& uf) const {
    const Def& d = defs_[id];
    const Variant& v = variants_[d.variant[static_cast<int>(o)]];
    const std::size_t elems = counts(id).elems;
    const auto flatNode = [&](std::size_t r) {
      return r < elems ? eb + r : ne + pb + (r - elems);
    };
    for (const auto& [a, b] : v.edges) uf.unite(flatNode(a), flatNode(b));
    const layout::Cell& c = lib_.cell(id);
    if (c.isDevice()) return;
    eb += c.elements.size();
    for (const layout::Instance& inst : c.instances) {
      if (defs_[inst.cell].any)
        replay(inst.cell, geom::compose(inst.transform.orient, o), eb, pb, ne,
               uf);
      eb += counts(inst.cell).elems;
      pb += counts(inst.cell).ports;
    }
  }

  const engine::HierarchyView& view_;
  const layout::Library& lib_;
  CellId root_;
  const tech::Technology& tech_;
  std::vector<Def> defs_;  ///< indexed by CellId
  std::vector<Variant> variants_;
};

/// A rect moved by `d`.
Rect shifted(const Rect& r, geom::Point d) { return {r.lo + d, r.hi + d}; }

}  // namespace

Netlist extract(const layout::Library& lib, layout::CellId root,
                const tech::Technology& tech, const ExtractOptions& opts) {
  engine::HierarchyView view(lib, root);
  return extract(view, tech, opts);
}

Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                const ExtractOptions& opts) {
  engine::Executor serial(1);
  return extract(view, tech, serial, opts);
}

Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                engine::Executor& exec, const ExtractOptions& opts) {
  ExtractStats stats;
  return extract(view, tech, exec, opts, stats);
}

Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                engine::Executor& exec, const ExtractOptions& opts,
                ExtractStats& stats) {
  Netlist out;
  const layout::Library& lib = view.library();
  const Counts& total = view.counts(view.root());

  // Node ids: elements first, then (device, port) pairs, both in
  // flat(false) order.
  const std::size_t ne = total.elems;
  UnionFind uf(ne + total.ports);

  // Geometry runs once per definition (fanned across `exec`); placements
  // only replay integer edges. Net numbering below depends only on the
  // final partition, so the result is byte-identical for any pool size.
  HierExtractor hx(view, tech);
  hx.run(exec, uf, ne, stats);

  // Each flat placement of a composite cell owns the flat elements
  // [elemBase, elemBase + own count); sorted by elemBase these runs walk
  // the flat(false) element order. Device placements land at their
  // deviceBase, with the type's rules, bbox and port names resolved once
  // per cell.
  std::vector<std::pair<const engine::Placement*, CellId>> runs;
  out.devices.resize(total.devices);
  out.cellPorts.resize(lib.cellCount());
  for (const auto& [id, placed] : view.placements()) {
    const layout::Cell& c = lib.cell(id);
    if (!c.isDevice()) {
      if (c.elements.empty()) continue;
      for (const engine::Placement& p : placed)
        if (p.elemBase != engine::kNoFlatIndex) runs.push_back({&p, id});
      continue;
    }
    const tech::DeviceRules* rules = tech.deviceRules(c.deviceType);
    const Rect box = lib.cellBBox(id);
    for (const layout::Port& port : c.ports)
      out.cellPorts[id].push_back(port.name);
    for (const engine::Placement& p : placed) {
      if (p.deviceBase == engine::kNoFlatIndex) continue;
      ExtractedDevice& ed = out.devices[p.deviceBase];
      ed.path = p.path;
      ed.type = c.deviceType;
      if (rules) ed.cls = rules->cls;
      ed.cell = id;
      ed.bbox = p.transform.apply(box);
    }
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.first->elemBase < b.first->elemBase;
  });

  // Global label merging: every element carrying a global label joins the
  // first element that carries it.
  if (opts.mergeByLabel) {
    std::map<std::string, std::size_t> first;
    for (const auto& [p, id] : runs) {
      const std::vector<layout::Element>& own = lib.cell(id).elements;
      for (std::size_t k = 0; k < own.size(); ++k) {
        const std::string& label = own[k].net;
        if (label.empty() || !opts.isGlobalLabel(label)) continue;
        const auto [it, fresh] = first.emplace(label, p->elemBase + k);
        if (!fresh) uf.unite(it->second, p->elemBase + k);
      }
    }
  }

  // Build nets, numbered in first-encounter order over flat(false).
  std::vector<int> rootToNet(uf.size(), -1);
  auto netOf = [&](std::size_t node) {
    int& id = rootToNet[uf.find(node)];
    if (id < 0) {
      id = static_cast<int>(out.nets.size());
      Net n;
      n.id = id;
      out.nets.push_back(std::move(n));
    }
    return id;
  };

  out.elementNet.resize(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    const int id = netOf(i);
    out.elementNet[i] = id;
    out.nets[id].elementCount++;
  }
  // Net bboxes and names, folded in flat order.
  for (const auto& [p, id] : runs) {
    const std::vector<layout::Element>& own = lib.cell(id).elements;
    const std::vector<Node>& nodes = hx.nodes(id, p->transform.orient);
    for (std::size_t k = 0; k < own.size(); ++k) {
      Net& net = out.nets[out.elementNet[p->elemBase + k]];
      net.bbox = geom::bound(net.bbox, shifted(nodes[k].box, p->transform.t));
      const std::string& label = own[k].net;
      if (label.empty()) continue;
      // Global labels keep their bare name; local labels are qualified
      // with the dot-notation instance path ("a.b refers to element b in
      // the instance a").
      const std::string qualified = p->path.empty() || opts.isGlobalLabel(label)
                                        ? label
                                        : p->path + "." + label;
      if (!net.hasName(qualified)) net.names.push_back(qualified);
    }
  }

  // Port nets in port-node order: flat(false) device order, then each
  // cell's `ports` order -- so port k is union-find node ne + k.
  out.portNet.resize(total.ports);
  for (std::size_t k = 0; k < total.ports; ++k) {
    const int id = netOf(ne + k);
    out.portNet[k] = id;
    out.nets[id].terminalCount++;
  }
  std::size_t firstPort = 0;
  for (ExtractedDevice& d : out.devices) {
    d.firstPort = firstPort;
    firstPort += out.cellPorts[d.cell].size();
  }

  return out;
}

std::vector<std::size_t> probeElementEdges(engine::HierarchyView& view,
                                           const tech::Technology& tech,
                                           std::size_t flatIndex) {
  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<layout::FlatElement>& elements = flat.elements;
  const std::vector<layout::FlatDevice>& devices = flat.devices;
  const std::size_t ne = elements.size();
  const Node self =
      elementNode(flatIndex, elements.at(flatIndex).element, tech);

  std::vector<std::size_t> out;
  std::vector<std::size_t> cand;
  view.flatCandidatesInto(false, self.layer, self.box, 0, cand);
  for (const std::size_t j : cand) {
    if (j == flatIndex || elements[j].element.layer != self.layer ||
        !geom::closedTouch(self.box, flat.bboxes[j]))
      continue;
    if (connected(self, elementNode(j, elements[j].element, tech)))
      out.push_back(j);
  }
  const std::vector<engine::HierarchyView::PortRef>& portNodes = view.ports();
  for (const std::size_t pn : view.portCandidates(self.box, 0)) {
    const layout::FlatDevice& d = devices[portNodes[pn].device];
    if (connected(self, portNode(pn, d.ports[portNodes[pn].port])))
      out.push_back(ne + pn);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void refreshNetBBoxes(Netlist& nl, const std::vector<geom::Rect>& bboxes) {
  for (Net& n : nl.nets) n.bbox = geom::Rect{};
  for (std::size_t i = 0;
       i < nl.elementNet.size() && i < bboxes.size(); ++i) {
    Net& n = nl.nets.at(static_cast<std::size_t>(nl.elementNet[i]));
    n.bbox = geom::bound(n.bbox, bboxes[i]);
  }
}

std::vector<std::string> compareAgainstGolden(
    const Netlist& extracted, const std::vector<GoldenDevice>& golden) {
  std::vector<std::string> issues;
  if (extracted.devices.size() != golden.size())
    issues.push_back("device count mismatch: extracted " +
                     std::to_string(extracted.devices.size()) + ", golden " +
                     std::to_string(golden.size()));

  // Greedy bijective matching on (type, port->net-label binding). Build a
  // consistent label mapping golden-label -> extracted-net-id.
  std::map<std::string, int> binding;
  std::vector<bool> used(extracted.devices.size(), false);
  for (const GoldenDevice& g : golden) {
    bool matched = false;
    for (std::size_t i = 0; i < extracted.devices.size() && !matched; ++i) {
      if (used[i] || extracted.devices[i].type != g.type) continue;
      // Tentatively extend the binding.
      std::map<std::string, int> trial = binding;
      bool ok = true;
      for (const auto& [port, label] : g.ports) {
        const int* id = extracted.findPortNet(extracted.devices[i], port);
        if (!id) {
          ok = false;
          break;
        }
        // Named nets must carry the same label in the extraction.
        const Net& net = extracted.nets[*id];
        auto bit = trial.find(label);
        if (bit == trial.end()) {
          if ((label == "VDD" || label == "GND") && !net.hasName(label)) {
            ok = false;
            break;
          }
          trial[label] = *id;
        } else if (bit->second != *id) {
          ok = false;
          break;
        }
      }
      if (ok) {
        binding = std::move(trial);
        used[i] = true;
        matched = true;
      }
    }
    if (!matched) issues.push_back("no extracted device matches golden " + g.type);
  }
  return issues;
}

}  // namespace dic::netlist
