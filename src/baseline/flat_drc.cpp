#include "baseline/flat_drc.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "engine/arena.hpp"
#include "engine/hierarchy_view.hpp"
#include "geom/spacing.hpp"
#include "geom/width.hpp"
#include "netlist/unionfind.hpp"
#include "obs/trace.hpp"

namespace dic::baseline {

namespace {

using geom::Coord;
using geom::Rect;
using geom::Region;

/// Connected components (closed-touch) of a layer's mask region.
std::vector<std::vector<Rect>> components(const Region& layer) {
  const std::vector<Rect>& rects = layer.rects();
  netlist::UnionFind uf(rects.size());
  const engine::SpatialSet set(rects);
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    set.candidatesInto(rects[i], 1, cand);
    for (std::size_t j : cand)
      if (j > i && geom::closedTouch(rects[i], rects[j])) uf.unite(i, j);
  }
  std::map<std::size_t, std::size_t> rootToComp;
  std::vector<std::vector<Rect>> out;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const std::size_t r = uf.find(i);
    auto it = rootToComp.find(r);
    if (it == rootToComp.end()) {
      it = rootToComp.emplace(r, out.size()).first;
      out.emplace_back();
    }
    out[it->second].push_back(rects[i]);
  }
  return out;
}

Rect bboxOf(const std::vector<Rect>& rects) {
  Rect b{{0, 0}, {0, 0}};
  for (const Rect& r : rects) b = geom::bound(b, r);
  return b;
}

double setDistance(const std::vector<Rect>& a, const std::vector<Rect>& b,
                   geom::Metric m) {
  double best = std::numeric_limits<double>::infinity();
  for (const Rect& ra : a)
    for (const Rect& rb : b) {
      best = std::min(best, geom::rectDistance(ra, rb, m));
      if (best == 0) return 0;
    }
  return best;
}

bool setsOverlapOrTouch(const std::vector<Rect>& a,
                        const std::vector<Rect>& b) {
  for (const Rect& ra : a)
    for (const Rect& rb : b)
      if (geom::closedTouch(ra, rb)) return true;
  return false;
}

}  // namespace

report::Report check(const layout::Library& lib, layout::CellId root,
                     const tech::Technology& tech, const Options& opts,
                     Stats* stats) {
  engine::HierarchyView view(lib, root);
  return check(view, tech, opts, stats);
}

report::Report check(engine::HierarchyView& view, const tech::Technology& tech,
                     const Options& opts, Stats* stats) {
  report::Report rep;

  // Full instantiation: all topology and device identity discarded. The
  // flat view comes from the shared engine; only mask-level geometry
  // survives past this point.
  const std::vector<layout::FlatElement>& fe =
      view.flat(/*includeDeviceGeometry=*/true).elements;
  if (stats) stats->flatShapes = fe.size();

  std::vector<Region> mask(tech.layerCount());
  {
    // The mask-union boolean sweep over every flat shape — one of the
    // named kernel sections a request trace resolves down to.
    obs::ScopedSpan sweepSpan("boolean.sweep");
    // Per-layer staging rects live in the thread's scratch arena: the
    // whole batch is reclaimed in one release when this block exits.
    engine::Arena& arena = engine::scratchArena();
    engine::ArenaScope scratch(arena);
    const engine::ArenaAllocator<Rect> alloc(arena);
    std::vector<engine::ArenaVector<Rect>> rects(
        static_cast<std::size_t>(tech.layerCount()),
        engine::ArenaVector<Rect>(alloc));
    for (const layout::FlatElement& e : fe) {
      const Region region = e.element.region();
      for (const Rect& r : region.rects())
        rects[e.element.layer].push_back(r);
    }
    for (int l = 0; l < tech.layerCount(); ++l)
      mask[l] = Region::fromRects(rects[l]);
  }

  // Width: shrink-expand-compare on the unioned mask (per layer).
  if (opts.checkWidth) {
    for (int l = 0; l < tech.layerCount(); ++l) {
      const Coord minW = tech.layer(l).minWidth;
      if (minW <= 0 || mask[l].empty()) continue;
      for (const geom::WidthViolation& wv :
           geom::checkWidthShrinkExpand(mask[l], minW, opts.metric)) {
        report::Violation v;
        v.category = report::Category::kWidth;
        v.rule = "BASE.W." + tech.layer(l).name;
        v.where = wv.where;
        v.layerA = l;
        v.message = "mask width below minimum (shrink-expand-compare)";
        rep.add(std::move(v));
      }
    }
  }

  if (opts.checkSpacing) {
    // The whole component spacing walk (same-layer + inter-layer) as one
    // span — chunky enough to matter, far above the per-pair hot loop.
    obs::ScopedSpan walkSpan("spacing.walk");
    // Same-layer: expand-check-overlap between distinct mask components.
    // With no net information every close pair is flagged -- including
    // electrically equivalent ones (Fig. 5a false errors).
    std::vector<std::vector<std::vector<Rect>>> comps(tech.layerCount());
    for (int l = 0; l < tech.layerCount(); ++l) comps[l] = components(mask[l]);
    if (stats)
      for (int l = 0; l < tech.layerCount(); ++l)
        stats->layerComponents += comps[l].size();

    for (int l = 0; l < tech.layerCount(); ++l) {
      const Coord s = tech.spacing(l, l).forRelation(tech::NetRelation::kUnknown);
      if (s <= 0) continue;
      const auto& cs = comps[l];
      std::vector<Rect> bbs(cs.size());
      for (std::size_t i = 0; i < cs.size(); ++i) bbs[i] = bboxOf(cs[i]);
      const engine::SpatialSet set(bbs, 16 * s);
      std::vector<std::size_t> cand;
      for (std::size_t i = 0; i < cs.size(); ++i) {
        set.candidatesInto(bbs[i], s, cand);
        for (std::size_t j : cand) {
          if (j <= i) continue;
          if (stats) ++stats->pairChecks;
          const double d = setDistance(cs[i], cs[j], opts.metric);
          if (d >= static_cast<double>(s)) continue;
          report::Violation v;
          v.category = report::Category::kSpacing;
          v.rule = "BASE.S." + tech.layer(l).name;
          const Coord pad = static_cast<Coord>(d) + 1;
          v.where = geom::intersect(bbs[i].inflated(pad), bbs[j].inflated(pad));
          v.layerA = l;
          v.layerB = l;
          v.message = "mask spacing " + std::to_string(d) + " < " +
                      std::to_string(s);
          rep.add(std::move(v));
        }
      }
    }

    // Inter-layer spacing. Overlapping or abutting shapes on rule-bearing
    // layer pairs (poly/diff) are presumed to be intentional devices --
    // "it forms a legal transistor" -- which is exactly how accidental
    // transistors become unchecked errors at mask level.
    for (int la = 0; la < tech.layerCount(); ++la) {
      for (int lb = la + 1; lb < tech.layerCount(); ++lb) {
        const Coord s =
            tech.spacing(la, lb).forRelation(tech::NetRelation::kUnknown);
        if (s <= 0) continue;
        const auto ca = components(mask[la]);
        const auto cb = components(mask[lb]);
        std::vector<Rect> bbs(cb.size());
        for (std::size_t j = 0; j < cb.size(); ++j) bbs[j] = bboxOf(cb[j]);
        const engine::SpatialSet set(bbs, 16 * s);
        std::vector<std::size_t> cand;
        for (std::size_t i = 0; i < ca.size(); ++i) {
          const Rect ba = bboxOf(ca[i]);
          set.candidatesInto(ba, s, cand);
          for (std::size_t j : cand) {
            if (stats) ++stats->pairChecks;
            if (setsOverlapOrTouch(ca[i], cb[j])) continue;  // "a device"
            const double d = setDistance(ca[i], cb[j], opts.metric);
            if (d >= static_cast<double>(s)) continue;
            report::Violation v;
            v.category = report::Category::kSpacing;
            v.rule = "BASE.S." + tech.layer(la).name + "." +
                     tech.layer(lb).name;
            const Coord pad = static_cast<Coord>(d) + 1;
            v.where =
                geom::intersect(ba.inflated(pad), bbs[j].inflated(pad));
            v.layerA = la;
            v.layerB = lb;
            v.message = "mask spacing " + std::to_string(d) + " < " +
                        std::to_string(s);
            rep.add(std::move(v));
          }
        }
      }
    }
  }

  // Contact enclosure on mask geometry. A contact over a transistor gate
  // is enclosed by poly AND diff -- indistinguishable from a butting
  // contact, so it passes (Fig. 7's unchecked error).
  if (opts.checkContacts) {
    const auto cut = tech.layerByName("contact");
    const auto met = tech.layerByName("metal");
    const auto pol = tech.layerByName("poly");
    const auto dif = tech.layerByName("diff");
    if (cut && met && pol && dif && !mask[*cut].empty()) {
      const tech::DeviceRules* anyContact = tech.deviceRules("CON_MD");
      const Coord enc = anyContact ? anyContact->contactEnclosure
                                   : tech.lambda();
      const Region landing = unite(mask[*pol], mask[*dif]);
      for (const Rect& c : mask[*cut].rects()) {
        const Rect need = c.inflated(enc);
        const bool metOk = mask[*met].covers(need);
        const bool landOk = landing.covers(need);
        if (metOk && landOk) continue;
        report::Violation v;
        v.category = report::Category::kDevice;
        v.rule = "BASE.CON";
        v.where = c;
        v.layerA = *cut;
        v.message = metOk ? "contact cut not enclosed by poly/diff"
                          : "contact cut not enclosed by metal";
        rep.add(std::move(v));
      }
    }
  }

  return rep;
}

}  // namespace dic::baseline
