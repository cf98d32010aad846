#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <span>

#include "drc/stages.hpp"
#include "geom/spacing.hpp"
#include "obs/trace.hpp"

namespace dic::drc {

namespace {

using geom::Coord;
using geom::Rect;
using geom::Region;

using engine::joinPath;  // the one true dot-notation path composition

/// A shape prepared for pair checking: geometry plus identity.
struct Shape {
  layout::Element elem;
  Rect bbox;
  Region region;
  geom::Skeleton skel;
  bool deviceInternal{false};
  /// Identity relative to the placement being evaluated: the flat(false)
  /// element offset of an interconnect element, or the device offset of
  /// a device-internal one.
  std::size_t ref{0};
  /// False when the element has no flat(false) identity of its own (it
  /// lies below a device cell): no net, no device nets. `ref` then only
  /// tells instances apart.
  bool listed{true};
  std::string localPath;  ///< path relative to the cell being processed
};

Shape makeShape(layout::Element e, const tech::Technology& tech,
                bool deviceInternal, std::size_t ref, bool listed,
                std::string localPath) {
  Shape s;
  s.bbox = e.bbox();
  s.region = e.region();
  s.skel = e.skeleton(tech.layer(e.layer).minWidth);
  s.elem = std::move(e);
  s.deviceInternal = deviceInternal;
  s.ref = ref;
  s.listed = listed;
  s.localPath = std::move(localPath);
  return s;
}

/// A window element of child `ch`, its offsets rebased from the child's
/// subtree to the parent's.
Shape makeShape(const engine::WindowElement& we, const engine::ChildRef& ch,
                const tech::Technology& tech) {
  return makeShape(we.element, tech, we.fromDevice,
                   we.offset + (we.fromDevice ? ch.deviceOffset
                                              : ch.elemOffset),
                   !we.belowDevice, we.path);
}

/// Placement-independent geometric facts about a candidate pair.
struct PairGeometry {
  bool sameLayer{false};
  bool touching{false};
  bool skeletallyConnected{false};
  std::optional<double> distance;  ///< below the max applicable rule
  Coord maxRule{0};
};

/// Integer interaction-distance filter: equivalent to the orthogonal
/// rectDistance comparison but with no double round-trip.
bool bboxesWithin(const Rect& a, const Rect& b, Coord d) {
  return geom::chebyshev(geom::rectGap(a, b)) <= d;
}

/// Flat net id of interconnect shape `s` in placement `p`; -1 when it has
/// no flat(false) slot or the netlist does not reach that far.
int netOf(const netlist::Netlist& nl, const Shape& s,
          const engine::Placement& p) {
  if (!s.listed || p.elemBase == engine::kNoFlatIndex) return -1;
  const std::size_t i = p.elemBase + s.ref;
  return i < nl.elementNet.size() ? nl.elementNet[i] : -1;
}

/// Extracted device of device-internal shape `s` in placement `p`, or
/// null (below a device cell, or past the netlist's devices).
const netlist::ExtractedDevice* deviceOf(const netlist::Netlist& nl,
                                         const Shape& s,
                                         const engine::Placement& p) {
  if (!s.listed || p.deviceBase == engine::kNoFlatIndex) return nullptr;
  const std::size_t i = p.deviceBase + s.ref;
  return i < nl.devices.size() ? &nl.devices[i] : nullptr;
}

bool onDevice(const netlist::Netlist& nl, const netlist::ExtractedDevice& d,
              int net) {
  for (const int n : nl.portNets(d))
    if (n == net) return true;
  return false;
}

bool shareNet(const netlist::Netlist& nl, const netlist::ExtractedDevice& a,
              const netlist::ExtractedDevice& b) {
  for (const int n : nl.portNets(a))
    if (onDevice(nl, b, n)) return true;
  return false;
}

/// Resistor devices always get spacing checks (Fig. 5b).
bool isResistor(const netlist::ExtractedDevice& d) {
  return d.cls == tech::DeviceClass::kResistor ||
         d.cls == tech::DeviceClass::kBipolarResistor;
}

/// Net relation of a shape pair in placement `p` (both shapes' ids are
/// relative to it). Returns nullopt for intra-device pairs (stage 2's
/// business).
std::optional<tech::NetRelation> relationOf(const InteractionContext& ctx,
                                            const Shape& a, const Shape& b,
                                            const engine::Placement& p) {
  if (a.deviceInternal && b.deviceInternal) {
    if (a.listed == b.listed && a.ref == b.ref)
      return std::nullopt;  // same device instance
    const netlist::ExtractedDevice* da = deviceOf(ctx.nl, a, p);
    const netlist::ExtractedDevice* db = deviceOf(ctx.nl, b, p);
    if (da && db && shareNet(ctx.nl, *da, *db))
      return (isResistor(*da) || isResistor(*db))
                 ? tech::NetRelation::kDiffNet
                 : tech::NetRelation::kRelated;
    return tech::NetRelation::kDiffNet;
  }
  if (a.deviceInternal || b.deviceInternal) {
    const netlist::ExtractedDevice* d =
        deviceOf(ctx.nl, a.deviceInternal ? a : b, p);
    const int net = netOf(ctx.nl, a.deviceInternal ? b : a, p);
    if (d && net >= 0 && onDevice(ctx.nl, *d, net))
      return isResistor(*d) ? tech::NetRelation::kDiffNet
                            : tech::NetRelation::kRelated;
    return tech::NetRelation::kDiffNet;
  }
  const int na = netOf(ctx.nl, a, p);
  const int nb = netOf(ctx.nl, b, p);
  if (na >= 0 && na == nb) return tech::NetRelation::kSameNet;
  return tech::NetRelation::kDiffNet;
}

/// Placement-independent geometry of a candidate pair.
PairGeometry pairGeometry(const InteractionContext& ctx, const Shape& a,
                          const Shape& b) {
  PairGeometry g;
  g.sameLayer = a.elem.layer == b.elem.layer;
  const tech::SpacingRule& rule = ctx.tech.spacing(a.elem.layer, b.elem.layer);
  g.maxRule = std::max({rule.sameNet, rule.diffNet, rule.related});
  if (g.sameLayer || g.maxRule > 0) {
    // SoA-vectorized closed-touch scan (byte-equivalent to the quadratic
    // closedTouch loop over both rect lists).
    const bool touch = geom::regionsTouch(a.region, b.region);
    g.touching = touch;
    if (g.sameLayer && touch)
      g.skeletallyConnected = geom::skeletonsConnected(a.skel, b.skel);
    if (!touch && g.maxRule > 0)
      g.distance =
          geom::distanceBelow(a.region, b.region, g.maxRule, ctx.metric);
    else if (touch)
      g.distance = 0.0;
  }
  return g;
}

/// Evaluate one candidate pair (geometry `g`) in one placement and emit
/// violations. Counts into `stats` (a worker-private copy during
/// parallel runs).
void evaluateInPlacement(const InteractionContext& ctx,
                         InteractionStats& stats, const Shape& a,
                         const Shape& b, const PairGeometry& g,
                         const engine::Placement& placement,
                         report::Report& rep, bool skipConnectionCheck) {
  const auto rel = ctx.useNets
                       ? relationOf(ctx, a, b, placement)
                       : std::optional<tech::NetRelation>(
                             tech::NetRelation::kUnknown);
  if (!rel) return;  // intra-device

  if (g.sameLayer && g.touching) {
    ++stats.connectionChecks;
    const bool portLanding =
        (a.deviceInternal != b.deviceInternal) &&
        *rel == tech::NetRelation::kRelated;
    if (!g.skeletallyConnected && !portLanding && !skipConnectionCheck) {
      report::Violation v;
      v.category = report::Category::kConnection;
      v.rule = "CONN." + ctx.tech.layer(a.elem.layer).name;
      v.where = placement.transform.apply(
          geom::intersect(a.bbox.inflated(1), b.bbox.inflated(1)));
      v.layerA = a.elem.layer;
      v.layerB = b.elem.layer;
      v.cell = joinPath(placement.path, a.localPath);
      v.message = "touching elements are not skeletally connected";
      rep.add(std::move(v));
    }
    if (g.skeletallyConnected) return;  // a legal connection, not spacing
  }

  const tech::SpacingRule& rule = ctx.tech.spacing(a.elem.layer, b.elem.layer);
  if (!rule.any()) {
    ++stats.noRulePairs;
    return;
  }
  const Coord s = rule.forRelation(*rel);
  if (s == 0) {
    if (*rel == tech::NetRelation::kSameNet)
      ++stats.sameNetSkipped;
    else if (*rel == tech::NetRelation::kRelated)
      ++stats.relatedSkipped;
    return;
  }
  ++stats.distanceChecks;
  const int la = std::min(a.elem.layer, b.elem.layer);
  const int lb = std::max(a.elem.layer, b.elem.layer);
  ++stats.perLayerPair[{la, lb}];
  if (!g.distance || *g.distance >= static_cast<double>(s)) return;

  report::Violation v;
  v.category = report::Category::kSpacing;
  v.rule = "S." + ctx.tech.layer(la).name + "." + ctx.tech.layer(lb).name +
           (*rel == tech::NetRelation::kSameNet
                ? ".SAMENET"
                : *rel == tech::NetRelation::kRelated ? ".RELATED"
                                                      : ".DIFFNET");
  const Coord pad = static_cast<Coord>(std::ceil(*g.distance)) + 1;
  v.where = placement.transform.apply(
      geom::intersect(a.bbox.inflated(pad), b.bbox.inflated(pad)));
  v.layerA = a.elem.layer;
  v.layerB = b.elem.layer;
  v.cell = joinPath(placement.path, a.localPath);
  v.message = "spacing " + std::to_string(*g.distance) + " < " +
              std::to_string(s);
  rep.add(std::move(v));
}

/// Evaluate one candidate pair in every placement of its cell. The
/// early-outs that need neither nets nor a placement -- a legal
/// connection, or a pair farther apart than every applicable rule -- are
/// decided once for all placements; a settled pair with no spacing rule
/// counts one no-rule pair per placement, as evaluating it in each would.
void evaluatePair(const InteractionContext& ctx, InteractionStats& stats,
                  const Shape& a, const Shape& b,
                  std::span<const engine::Placement> places,
                  report::Report& rep, bool skipConnectionCheck) {
  ++stats.candidatePairs;
  const PairGeometry g = pairGeometry(ctx, a, b);
  if (g.sameLayer && g.touching && g.skeletallyConnected) return;
  if (!(g.sameLayer && g.touching) && !g.distance) {
    if (!ctx.tech.spacing(a.elem.layer, b.elem.layer).any())
      stats.noRulePairs += places.size();
    return;
  }
  for (const engine::Placement& p : places)
    evaluateInPlacement(ctx, stats, a, b, g, p, rep, skipConnectionCheck);
}

/// The flat(false) identity of one flat(true) element.
struct FlatIdentity {
  std::size_t ref{0};       ///< Shape::ref at placement base 0
  std::size_t instance{0};  ///< pre-order number of its cell instance
  bool listed{true};        ///< Shape::listed
};

/// Identities of the `n` flat(true) elements, in their order: one
/// pre-order walk mirroring Library::flatten that counts flat(false)
/// elements, devices and instances as it goes.
std::vector<FlatIdentity> flatIdentities(const layout::Library& lib,
                                         layout::CellId root, std::size_t n) {
  std::vector<FlatIdentity> out;
  out.reserve(n);
  std::size_t elems = 0, devices = 0, instances = 0;
  std::function<void(layout::CellId, bool, std::size_t)> rec =
      [&](layout::CellId id, bool insideDevice, std::size_t device) {
        const layout::Cell& c = lib.cell(id);
        const std::size_t instance = instances++;
        const bool flatDevice = c.isDevice() && !insideDevice;
        if (flatDevice) device = devices++;
        for (std::size_t i = 0; i < c.elements.size(); ++i) {
          if (flatDevice)
            out.push_back({device, instance, true});
          else if (insideDevice)
            out.push_back({instance, instance, false});
          else
            out.push_back({elems++, instance, true});
        }
        for (const layout::Instance& inst : c.instances)
          rec(inst.cell, insideDevice || flatDevice, device);
      };
  rec(root, false, 0);
  return out;
}

}  // namespace

report::Report checkInteractionsFlat(InteractionContext& ctx,
                                     engine::Executor& exec) {
  report::Report rep;
  const Coord dmax = std::max<Coord>(ctx.tech.maxInteractionDistance(), 1);
  const layout::Library& lib = ctx.view.library();

  // Every element in the design, device internals included, with full
  // paths as local paths and ids relative to the root placement.
  const engine::HierarchyView::Flat& f = ctx.view.flat(true);
  const std::vector<FlatIdentity> ids =
      flatIdentities(lib, ctx.view.root(), f.elements.size());
  std::vector<Shape> shapes(f.elements.size());
  exec.parallelFor(f.elements.size(), [&](std::size_t i) {
    const layout::FlatElement& e = f.elements[i];
    shapes[i] = makeShape(e.element, ctx.tech,
                          lib.cell(e.sourceCell).isDevice(), ids[i].ref,
                          ids[i].listed, e.path);
  });

  // Workers stream candidate pairs straight out of the engine's
  // all-layer index over deterministic contiguous element ranges
  // (each element i owns its (i, j>i) pairs); reports and stats merge
  // back in chunk order -- byte-identical to a serial (i, j) sweep, with
  // the grid queries themselves parallelized and no pair list in memory.
  // Build the index once, serially, so workers start querying in parallel
  // instead of queuing on the first build.
  ctx.view.prepare(true);
  const std::size_t nChunks = std::max<std::size_t>(
      1, std::min<std::size_t>(shapes.size(),
                               static_cast<std::size_t>(exec.threads()) * 16));
  std::vector<report::Report> chunkReps(nChunks);
  std::vector<InteractionStats> chunkStats(nChunks);
  const engine::Placement root{geom::identityTransform(), "", 0, 0};
  // The whole candidate-pair sweep as one kernel-section span (per-pair
  // spans would swamp the hot loop; the chunked fan-out stays unmarked).
  obs::ScopedSpan walkSpan("spacing.walk");
  exec.parallelFor(nChunks, [&](std::size_t c) {
    const std::size_t lo = shapes.size() * c / nChunks;
    const std::size_t hi = shapes.size() * (c + 1) / nChunks;
    // One candidate buffer per chunk, reused across every query in the
    // range: no per-element vector churn on the hot path.
    std::vector<std::size_t> cand;
    for (std::size_t i = lo; i < hi; ++i) {
      ctx.view.flatCandidatesInto(true, -1, shapes[i].bbox, dmax, cand);
      for (std::size_t j : cand) {
        if (j <= i) continue;
        if (!bboxesWithin(shapes[i].bbox, shapes[j].bbox, dmax)) continue;
        // Same-cell-instance pairs had their connection legality checked
        // in stage 3; do not duplicate those reports.
        const bool sameCellInstance = ids[i].instance == ids[j].instance;
        evaluatePair(ctx, chunkStats[c], shapes[i], shapes[j], {&root, 1},
                     chunkReps[c], sameCellInstance);
      }
    }
  });
  for (std::size_t c = 0; c < nChunks; ++c) {
    rep.merge(chunkReps[c]);
    ctx.stats.merge(chunkStats[c]);
  }
  return rep;
}

namespace {

/// One unit of hierarchical interaction work. Items are enumerated in a
/// deterministic order (per cell: intra-cell pairs, then each child's
/// element-vs-instance window, then each instance-pair window) and their
/// reports merge back in that order.
struct HierItem {
  enum Kind { kIntra, kElemChild, kChildPair } kind{kIntra};
  std::size_t cellSlot{0};  ///< index into the per-cell work table
  std::size_t childA{0};
  std::size_t childB{0};
};

struct CellWork {
  layout::CellId id{0};
  const std::vector<engine::Placement>* places{nullptr};
  /// Prepared shapes of the cell's own elements; shared with (and on the
  /// fast path served from) the IncrementalCache's shape cache. Null for
  /// cells no affected intra/elem-child item reads this run.
  std::shared_ptr<const std::vector<Shape>> local;
  std::vector<engine::ChildRef> children;
};

/// The concrete type behind IncrementalCache::shapeCache: per-cell
/// prepared shapes, valid as long as the cell's elements are unchanged.
struct ShapeCache {
  std::map<layout::CellId, std::shared_ptr<const std::vector<Shape>>> byCell;
};

}  // namespace

/// Can an edit recorded in `dirty` change this item's output? Exact
/// window-membership reasoning, conservative on ties: an edited element
/// (at its old or new transformed bbox) participates in an item only if
/// it can enter the item's window and pair up within dmax — so an item no
/// dirty rect reaches is untouched and its cached report is the report a
/// recompute would produce.
namespace {
/// Cached items read the netlist only through netOf, deviceOf and
/// portNets, so under a netlist equal in these arrays every item no
/// dirty rect reaches keeps its report. Net ids depend only on the
/// partition, which makes this exact for an unchanged partition.
bool sameNets(const netlist::Netlist& a, const netlist::Netlist& b) {
  return a.elementNet == b.elementNet && a.portNet == b.portNet &&
         a.devices.size() == b.devices.size();
}

bool itemAffected(const HierItem& item, const CellWork& w,
                  const layout::Library& lib, const DirtyInfo& dirty,
                  Coord dmax) {
  switch (item.kind) {
    case HierItem::kIntra:
      // Uses only the cell's own elements (placements are unchanged on
      // the fast path, and reuse requires sameNets).
      return dirty.dirtyCells.count(w.id) != 0;
    case HierItem::kElemChild: {
      if (dirty.dirtyCells.count(w.id)) return true;
      const engine::ChildRef& ch = w.children[item.childA];
      auto it = dirty.dirtyRects.find(ch.cell);
      if (it == dirty.dirtyRects.end()) return false;
      // An edit in the child subtree matters iff its rect (old or new),
      // brought into this cell's frame, is within dmax of one of this
      // cell's own elements — exactly the pair-keep predicate.
      const layout::Cell& c = lib.cell(w.id);
      for (const Rect& r : it->second) {
        const Rect tr = ch.transform.apply(r);
        for (const layout::Element& e : c.elements)
          if (bboxesWithin(e.bbox(), tr, dmax)) return true;
      }
      return false;
    }
    case HierItem::kChildPair: {
      const engine::ChildRef& ci = w.children[item.childA];
      const engine::ChildRef& cj = w.children[item.childB];
      const Rect window =
          geom::intersect(ci.bbox.inflated(dmax), cj.bbox.inflated(dmax));
      // Window membership is the gate: collectWindow only emits elements
      // closed-touching the window, so a dirty rect outside it cannot
      // appear in (or vanish from) this item.
      for (const engine::ChildRef* ch : {&ci, &cj}) {
        auto it = dirty.dirtyRects.find(ch->cell);
        if (it == dirty.dirtyRects.end()) continue;
        for (const Rect& r : it->second)
          if (geom::closedTouch(ch->transform.apply(r), window)) return true;
      }
      return false;
    }
  }
  return true;
}
}  // namespace

report::Report checkInteractionsHierarchical(InteractionContext& ctx,
                                             engine::Executor& exec,
                                             IncrementalCache* cache,
                                             const DirtyInfo* dirty) {
  report::Report rep;
  const Coord dmax = std::max<Coord>(ctx.tech.maxInteractionDistance(), 1);
  const layout::Library& lib = ctx.view.library();

  // Per-cell substrate: local shapes and child bookkeeping, built once
  // per definition (the paper's per-cell-once economy) across workers.
  // Shape construction (regions, skeletons) is the expensive part, so it
  // is deferred until the reuse pass below knows which cells still host
  // an item that must recompute.
  std::vector<CellWork> work;
  for (layout::CellId cid : ctx.view.cells()) {
    const layout::Cell& c = lib.cell(cid);
    if (c.isDevice()) continue;  // internals handled by stage 2 + windows
    const auto& places = ctx.view.placementsOf(cid);
    if (places.empty()) continue;
    CellWork w;
    w.id = cid;
    w.places = &places;
    work.push_back(std::move(w));
  }
  exec.parallelFor(work.size(), [&](std::size_t wi) {
    work[wi].children = ctx.view.children(work[wi].id);
  });

  std::vector<HierItem> items;
  for (std::size_t wi = 0; wi < work.size(); ++wi) {
    const CellWork& w = work[wi];
    items.push_back({HierItem::kIntra, wi, 0, 0});
    for (std::size_t k = 0; k < w.children.size(); ++k)
      items.push_back({HierItem::kElemChild, wi, k, 0});
    for (std::size_t i = 0; i < w.children.size(); ++i)
      for (std::size_t j = i + 1; j < w.children.size(); ++j) {
        if (!bboxesWithin(w.children[i].bbox, w.children[j].bbox, dmax))
          continue;
        items.push_back({HierItem::kChildPair, wi, i, j});
      }
  }

  auto keyOf = [&](const HierItem& it) {
    return IncrementalCache::ItemKey{work[it.cellSlot].id,
                                     static_cast<int>(it.kind), it.childA,
                                     it.childB};
  };

  // Reuse pass: with a valid cache, fast-path dirty info and the nets the
  // cache was computed against, mark every item no dirty rect can reach;
  // those take their cached result. Items missing from the cache (or
  // reachable) recompute and refresh it.
  const bool reuse = cache && dirty && dirty->reuseInteractions &&
                     cache->valid && cache->cells == ctx.view.cells() &&
                     cache->netlist && sameNets(*cache->netlist, ctx.nl);
  std::vector<char> affected(items.size(), 1);
  if (reuse) {
    for (std::size_t t = 0; t < items.size(); ++t) {
      if (!cache->items.count(keyOf(items[t]))) continue;
      if (!itemAffected(items[t], work[items[t].cellSlot], lib, *dirty, dmax))
        affected[t] = 0;
    }
  }

  // Build local shapes only for cells an affected intra/elem-child item
  // still reads (child-pair items work purely off collected windows).
  // With a cache, shapes persist across runs per cell: on the fast path
  // only dirty cells rebuild their regions/skeletons, everyone else
  // shares last run's vector.
  ShapeCache* sc = nullptr;
  if (cache) {
    if (!cache->shapeCache)
      cache->shapeCache = std::make_shared<ShapeCache>();
    sc = static_cast<ShapeCache*>(cache->shapeCache.get());
    if (!reuse) sc->byCell.clear();
  }
  std::vector<char> needLocal(work.size(), 0);
  for (std::size_t t = 0; t < items.size(); ++t)
    if (affected[t] && items[t].kind != HierItem::kChildPair)
      needLocal[items[t].cellSlot] = 1;
  exec.parallelFor(work.size(), [&](std::size_t wi) {
    if (!needLocal[wi]) return;
    CellWork& w = work[wi];
    if (sc && reuse && !dirty->dirtyCells.count(w.id)) {
      // Fast-path invariant: only dirty cells' elements changed, so a
      // cached shape vector for any other cell is still exact.
      const auto it = sc->byCell.find(w.id);
      if (it != sc->byCell.end()) {
        w.local = it->second;
        return;
      }
    }
    const layout::Cell& c = lib.cell(w.id);
    auto built = std::make_shared<std::vector<Shape>>();
    built->reserve(c.elements.size());
    for (std::size_t i = 0; i < c.elements.size(); ++i)
      built->push_back(makeShape(c.elements[i], ctx.tech, false, i, true, ""));
    w.local = std::move(built);
  });
  // Publish this run's vectors serially (the map is not written during
  // the parallel pass above, only read).
  if (sc)
    for (const CellWork& w : work)
      if (w.local) sc->byCell[w.id] = w.local;

  std::vector<report::Report> itemReps(items.size());
  std::vector<InteractionStats> itemStats(items.size());
  exec.parallelFor(items.size(), [&](std::size_t t) {
    if (!affected[t]) return;
    const HierItem& item = items[t];
    const CellWork& w = work[item.cellSlot];
    report::Report& out = itemReps[t];
    InteractionStats& stats = itemStats[t];

    switch (item.kind) {
      case HierItem::kIntra: {
        // (a) Intra-cell pairs: geometry once, relation per placement.
        // Pair candidates come from the engine sweep over the bboxes the
        // CellWork pass already computed.
        const std::vector<Shape>& local = *w.local;
        std::vector<Rect> bboxes;
        bboxes.reserve(local.size());
        for (const Shape& s : local) bboxes.push_back(s.bbox);
        for (const auto& [i, j] : engine::pairsWithin(bboxes, dmax))
          evaluatePair(ctx, stats, local[i], local[j], *w.places, out,
                       /*skipConnectionCheck=*/true);
        break;
      }
      case HierItem::kElemChild: {
        // (b) Local elements vs one child instance's overlap windows.
        // One union window over every local element near the child: the
        // subtree is collected once and each window element's shape is
        // built once, shared across the local elements -- and only for
        // window elements within dmax of one of them, the pairs the loop
        // below keeps. The per-pair bboxesWithin filter is unchanged, so
        // the pair set and its (local, window) iteration order -- and
        // with them the emitted bytes -- are identical to per-element
        // windows.
        const engine::ChildRef& ch = w.children[item.childA];
        std::vector<const Shape*> near;
        Rect u{};
        for (const Shape& e : *w.local) {
          if (!bboxesWithin(e.bbox, ch.bbox, dmax)) continue;
          u = near.empty() ? e.bbox : geom::bound(u, e.bbox);
          near.push_back(&e);
        }
        if (near.empty()) break;
        const Rect window =
            geom::intersect(u.inflated(dmax), ch.bbox.inflated(dmax));
        std::vector<engine::WindowElement> inner;
        ctx.view.collectWindow(ch.cell, ch.transform, window, ch.name, inner);
        std::vector<Shape> xs;
        for (const engine::WindowElement& we : inner) {
          const Rect box = we.element.bbox();
          if (std::any_of(near.begin(), near.end(), [&](const Shape* e) {
                return bboxesWithin(e->bbox, box, dmax);
              }))
            xs.push_back(makeShape(we, ch, ctx.tech));
        }
        for (const Shape* e : near)
          for (const Shape& x : xs)
            if (bboxesWithin(e->bbox, x.bbox, dmax))
              evaluatePair(ctx, stats, *e, x, *w.places, out, false);
        break;
      }
      case HierItem::kChildPair: {
        // (c) One child-instance pair's overlap window.
        const engine::ChildRef& ci = w.children[item.childA];
        const engine::ChildRef& cj = w.children[item.childB];
        const Rect window = geom::intersect(ci.bbox.inflated(dmax),
                                            cj.bbox.inflated(dmax));
        std::vector<engine::WindowElement> wi, wj;
        ctx.view.collectWindow(ci.cell, ci.transform, window, ci.name, wi);
        ctx.view.collectWindow(cj.cell, cj.transform, window, cj.name, wj);
        std::vector<Shape> si, sj;
        si.reserve(wi.size());
        sj.reserve(wj.size());
        for (const auto& we : wi) si.push_back(makeShape(we, ci, ctx.tech));
        for (const auto& we : wj) sj.push_back(makeShape(we, cj, ctx.tech));
        for (const Shape& a : si)
          for (const Shape& b : sj)
            if (bboxesWithin(a.bbox, b.bbox, dmax))
              evaluatePair(ctx, stats, a, b, *w.places, out, false);
        break;
      }
    }
  });

  // Merge in item order — identical for cold, populate, and reuse runs,
  // which is what makes the reuse path byte-identical. The cache update
  // rides the serial merge loop, so the item map needs no locking.
  if (cache && !reuse) cache->items.clear();
  for (std::size_t t = 0; t < items.size(); ++t) {
    if (affected[t]) {
      rep.merge(itemReps[t]);
      ctx.stats.merge(itemStats[t]);
      if (cache)
        cache->items[keyOf(items[t])] = {itemReps[t], itemStats[t]};
    } else {
      const IncrementalCache::ItemResult& c = cache->items.at(keyOf(items[t]));
      rep.merge(c.report);
      ctx.stats.merge(c.stats);
    }
  }
  return rep;
}

}  // namespace dic::drc
