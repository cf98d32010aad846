#include "engine/hierarchy_view.hpp"

#include <algorithm>
#include <functional>

#include "engine/arena.hpp"

namespace dic::engine {

namespace {

using geom::Coord;
using geom::Rect;

std::string instanceName(const layout::Library& lib,
                         const layout::Instance& inst, int childNo) {
  return inst.name.empty()
             ? lib.cell(inst.cell).name + "_" + std::to_string(childNo)
             : inst.name;
}

// --- byte accounting helpers (approximate heap footprints) ------------------

std::size_t bytesOf(const std::string& s) { return s.capacity(); }

std::size_t bytesOf(const layout::Element& e) {
  return sizeof(e) + bytesOf(e.net) + e.path.capacity() * sizeof(geom::Point);
}

std::size_t bytesOf(const layout::Port& p) {
  return sizeof(p) + bytesOf(p.name);
}

std::size_t bytesOf(const layout::FlatElement& e) {
  return sizeof(e) - sizeof(e.element) + bytesOf(e.element) + bytesOf(e.path);
}

std::size_t bytesOf(const layout::FlatDevice& d) {
  std::size_t b = sizeof(d) + bytesOf(d.deviceType) + bytesOf(d.path);
  for (const layout::Port& p : d.ports) b += bytesOf(p);
  return b;
}

std::size_t bytesOf(const HierarchyView::Flat& f) {
  std::size_t b = sizeof(f) + f.bboxes.capacity() * sizeof(geom::Rect);
  b += (f.elements.capacity() - f.elements.size()) *
       sizeof(layout::FlatElement);
  for (const layout::FlatElement& e : f.elements) b += bytesOf(e);
  b += (f.devices.capacity() - f.devices.size()) * sizeof(layout::FlatDevice);
  for (const layout::FlatDevice& d : f.devices) b += bytesOf(d);
  return b;
}

}  // namespace

std::string joinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "." + b;
}

geom::Coord autoGridCell(const std::vector<Rect>& rects) {
  if (rects.empty()) return 4096;
  // Mean of the larger bbox dimension; a grid cell spanning a few typical
  // elements keeps both bucket occupancy and cells-per-query small.
  double sum = 0;
  for (const Rect& r : rects)
    sum += static_cast<double>(std::max(r.width(), r.height()));
  const double mean = sum / static_cast<double>(rects.size());
  const Coord cell = static_cast<Coord>(mean * 8.0);
  return std::clamp<Coord>(cell, 256, Coord{1} << 24);
}

const std::vector<layout::CellId>& HierarchyView::cells() const {
  ensurePlacements();
  return cells_;
}

const std::map<layout::CellId, std::vector<Placement>>&
HierarchyView::placements() const {
  ensurePlacements();
  return placements_;
}

const std::vector<Placement>& HierarchyView::placementsOf(
    layout::CellId id) const {
  ensurePlacements();
  static const std::vector<Placement> kNone;
  auto it = placements_.find(id);
  return it == placements_.end() ? kNone : it->second;
}

void HierarchyView::ensurePlacements() const {
  if (placementsReady_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (placementsReady_.load(std::memory_order_relaxed)) return;
  // Subtree counts, post-order so every child is counted before its
  // users.
  subtree_.assign(lib_.cellCount(), {});
  lib_.forEachCellOnce(root_, [&](layout::CellId id) {
    cells_.push_back(id);
    const layout::Cell& c = lib_.cell(id);
    SubtreeCounts& n = subtree_[id];
    if (c.isDevice()) {
      n.devices = 1;
      n.ports = c.ports.size();
      return;
    }
    n.elems = c.elements.size();
    for (const layout::Instance& inst : c.instances) {
      n.elems += subtree_[inst.cell].elems;
      n.devices += subtree_[inst.cell].devices;
      n.ports += subtree_[inst.cell].ports;
    }
  });
  // Pre-order, like Library::flatten, so a placement's subtree starts at
  // the running flat(false) counts when it is entered.
  std::size_t elems = 0, devices = 0;
  std::function<void(layout::CellId, const geom::Transform&,
                     const std::string&, bool)>
      rec = [&](layout::CellId id, const geom::Transform& t,
                const std::string& path, bool insideDevice) {
        placements_[id].push_back(
            {t, path, insideDevice ? kNoFlatIndex : elems,
             insideDevice ? kNoFlatIndex : devices});
        const layout::Cell& c = lib_.cell(id);
        if (!insideDevice) {
          if (c.isDevice())
            ++devices;
          else
            elems += c.elements.size();
        }
        int childNo = 0;
        for (const layout::Instance& inst : c.instances) {
          const std::string childName = instanceName(lib_, inst, childNo);
          ++childNo;
          rec(inst.cell, geom::compose(inst.transform, t),
              joinPath(path, childName), insideDevice || c.isDevice());
        }
      };
  rec(root_, geom::identityTransform(), "", false);
  // Warm the library's recursive bbox cache while still single-threaded:
  // the root's bbox transitively caches every reachable cell, so workers
  // hit the cache instead of contending on its mutex to recompute.
  lib_.cellBBox(root_);
  std::size_t b = cells_.capacity() * sizeof(layout::CellId) +
                  subtree_.capacity() * sizeof(SubtreeCounts);
  for (const auto& [id, v] : placements_) {
    (void)id;
    b += sizeof(v) + 3 * sizeof(void*);  // map node, approximate
    b += (v.capacity() - v.size()) * sizeof(Placement);
    for (const Placement& p : v) b += sizeof(Placement) + p.path.capacity();
  }
  accountedBytes_.fetch_add(b, std::memory_order_release);
  placementsReady_.store(true, std::memory_order_release);
}

const HierarchyView::SubtreeCounts& HierarchyView::counts(
    layout::CellId id) const {
  ensurePlacements();
  return subtree_.at(static_cast<std::size_t>(id));
}

std::vector<ChildRef> HierarchyView::children(layout::CellId id) const {
  // Warm the library's bbox cache (no-op after the first call) so the
  // cellBBox lookups below are cheap cache hits even from workers.
  ensurePlacements();
  const layout::Cell& c = lib_.cell(id);
  std::vector<ChildRef> out;
  out.reserve(c.instances.size());
  int childNo = 0;
  std::size_t elemOffset = c.elements.size(), deviceOffset = 0;
  for (std::size_t k = 0; k < c.instances.size(); ++k) {
    const layout::Instance& inst = c.instances[k];
    ChildRef ch;
    ch.index = k;
    ch.cell = inst.cell;
    ch.transform = inst.transform;
    ch.bbox = inst.transform.apply(lib_.cellBBox(inst.cell));
    ch.name = instanceName(lib_, inst, childNo);
    ch.elemOffset = elemOffset;
    ch.deviceOffset = deviceOffset;
    ++childNo;
    elemOffset += subtree_[inst.cell].elems;
    deviceOffset += subtree_[inst.cell].devices;
    out.push_back(std::move(ch));
  }
  return out;
}

const HierarchyView::Flat& HierarchyView::flat(
    bool includeDeviceGeometry) const {
  return ensureFlat(includeDeviceGeometry);
}

void HierarchyView::prepare(bool includeDeviceGeometry) const {
  ensureIndexes(includeDeviceGeometry);  // builds the flat view too
}

const HierarchyView::Flat& HierarchyView::ensureFlat(
    bool includeDeviceGeometry) const {
  const int v = includeDeviceGeometry ? 1 : 0;
  if (flatReady_[v].load(std::memory_order_acquire)) return *flat_[v];
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!flat_[v]) {
    auto f = std::make_unique<Flat>();
    lib_.flatten(root_, f->elements, f->devices, includeDeviceGeometry);
    f->bboxes.reserve(f->elements.size());
    for (const layout::FlatElement& e : f->elements)
      f->bboxes.push_back(e.element.bbox());
    const std::size_t b = bytesOf(*f);
    flat_[v] = std::move(f);
    flatBytes_[v] += b;
    accountedBytes_.fetch_add(b, std::memory_order_release);
    flatReady_[v].store(true, std::memory_order_release);
  }
  return *flat_[v];
}

const HierarchyView::LayerIndexes& HierarchyView::ensureIndexes(
    bool includeDeviceGeometry) const {
  const int v = includeDeviceGeometry ? 1 : 0;
  if (indexesReady_[v].load(std::memory_order_acquire)) return indexes_[v];
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LayerIndexes& idx = indexes_[v];
  if (indexesReady_[v].load(std::memory_order_relaxed)) return idx;
  const Flat& f = ensureFlat(includeDeviceGeometry);
  int maxLayer = -1;
  for (const layout::FlatElement& e : f.elements)
    maxLayer = std::max(maxLayer, e.element.layer);
  const Coord cell = autoGridCell(f.bboxes);
  idx.byLayer.reserve(maxLayer + 1);
  for (int l = 0; l <= maxLayer; ++l) idx.byLayer.emplace_back(cell);
  idx.all = std::make_unique<geom::GridIndex>(cell);
  for (std::size_t i = 0; i < f.elements.size(); ++i) {
    const int l = f.elements[i].element.layer;
    if (l >= 0) idx.byLayer[l].insert(i, f.bboxes[i]);
    idx.all->insert(i, f.bboxes[i]);
  }
  std::size_t b = idx.byLayer.capacity() * sizeof(geom::GridIndex);
  for (const geom::GridIndex& g : idx.byLayer) b += g.memoryBytes();
  b += sizeof(geom::GridIndex) + idx.all->memoryBytes();
  flatBytes_[v] += b;
  accountedBytes_.fetch_add(b, std::memory_order_release);
  indexesReady_[v].store(true, std::memory_order_release);
  return idx;
}

std::vector<std::size_t> HierarchyView::flatCandidates(
    bool includeDeviceGeometry, int layer, const Rect& query,
    Coord inflate) const {
  std::vector<std::size_t> out;
  flatCandidatesInto(includeDeviceGeometry, layer, query, inflate, out);
  return out;
}

void HierarchyView::flatCandidatesInto(bool includeDeviceGeometry, int layer,
                                       const Rect& query, Coord inflate,
                                       std::vector<std::size_t>& out) const {
  const LayerIndexes& idx = ensureIndexes(includeDeviceGeometry);
  const Rect q = inflate ? query.inflated(inflate) : query;
  if (layer >= 0) {
    if (layer >= static_cast<int>(idx.byLayer.size())) {
      out.clear();
      return;
    }
    idx.byLayer[layer].queryInto(q, out);
    return;
  }
  idx.all->queryInto(q, out);
}

std::vector<std::pair<std::size_t, std::size_t>> HierarchyView::flatPairs(
    bool includeDeviceGeometry, Coord dist) const {
  const Flat& f = ensureFlat(includeDeviceGeometry);
  const LayerIndexes& idx = ensureIndexes(includeDeviceGeometry);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < f.elements.size(); ++i) {
    for (std::size_t j : idx.all->query(f.bboxes[i].inflated(dist))) {
      if (j <= i) continue;
      if (geom::rectDistance(f.bboxes[i], f.bboxes[j],
                             geom::Metric::kOrthogonal) >
          static_cast<double>(dist))
        continue;
      out.push_back({i, j});
    }
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> pairsWithin(
    const std::vector<Rect>& bboxes, Coord dist) {
  const std::size_t n = bboxes.size();
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (n == 0) return out;
  geom::GridIndex grid(autoGridCell(bboxes));
  for (std::size_t i = 0; i < n; ++i) grid.insert(i, bboxes[i]);

  Arena& arena = scratchArena();
  ArenaScope scope(arena);
  // SoA copy of the boxes: the per-candidate gather below reads these
  // four contiguous arrays instead of strided Rect fields.
  Coord* xlo = arena.allocateArray<Coord>(n);
  Coord* ylo = arena.allocateArray<Coord>(n);
  Coord* xhi = arena.allocateArray<Coord>(n);
  Coord* yhi = arena.allocateArray<Coord>(n);
  for (std::size_t i = 0; i < n; ++i) {
    xlo[i] = bboxes[i].lo.x;
    ylo[i] = bboxes[i].lo.y;
    xhi[i] = bboxes[i].hi.x;
    yhi[i] = bboxes[i].hi.y;
  }

  // The scalar loop pays a sort+unique inside every grid.query() just to
  // canonicalize candidate order before the distance test throws most of
  // them away. Here the raw (unsorted, possibly duplicated) bucket
  // contents are gathered straight into SoA lanes, the branchless
  // Chebyshev-gap mask prunes them, and only the few SURVIVORS get the
  // sort+unique that fixes the output order -- so the expensive
  // canonicalization runs on the kept pairs instead of every candidate.
  static thread_local std::vector<std::size_t> cand;
  static thread_local std::vector<std::size_t> hits;
  std::size_t cap = 0;
  Coord *cx1 = nullptr, *cy1 = nullptr, *cx2 = nullptr, *cy2 = nullptr;
  std::uint8_t* keep = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    cand.clear();
    grid.queryRaw(bboxes[i].inflated(dist), cand);
    const std::size_t m = cand.size();
    if (m == 0) continue;
    if (m > cap) {
      cap = std::max(m, 2 * cap);
      cx1 = arena.allocateArray<Coord>(cap);
      cy1 = arena.allocateArray<Coord>(cap);
      cx2 = arena.allocateArray<Coord>(cap);
      cy2 = arena.allocateArray<Coord>(cap);
      keep = arena.allocateArray<std::uint8_t>(cap);
    }
    const std::size_t* js = cand.data();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t j = js[k];
      cx1[k] = xlo[j];
      cy1[k] = ylo[j];
      cx2[k] = xhi[j];
      cy2[k] = yhi[j];
    }
    const Coord ax1 = xlo[i], ay1 = ylo[i], ax2 = xhi[i], ay2 = yhi[i];
    // Integer Chebyshev-gap test: exactly the scalar double rectDistance
    // comparison for exact int64 coordinates, branchless so it
    // autovectorizes. The j <= i half the scalar loop skips is folded
    // into the same mask.
#pragma GCC ivdep
    for (std::size_t k = 0; k < m; ++k) {
      Coord gx = cx1[k] - ax2;
      const Coord gx2 = ax1 - cx2[k];
      gx = gx > gx2 ? gx : gx2;
      Coord gy = cy1[k] - ay2;
      const Coord gy2 = ay1 - cy2[k];
      gy = gy > gy2 ? gy : gy2;
      Coord g = gx > gy ? gx : gy;
      g = g > 0 ? g : 0;
      keep[k] = static_cast<std::uint8_t>((g <= dist) & (js[k] > i));
    }
    hits.clear();
    for (std::size_t k = 0; k < m; ++k)
      if (keep[k]) hits.push_back(js[k]);
    // Canonical (i, j)-ascending order, duplicates (rects spanning
    // several grid cells) collapsed -- byte-identical to the scalar
    // loop's sorted-unique candidate walk.
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    for (const std::size_t j : hits) out.push_back({i, j});
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> pairsWithinScalar(
    const std::vector<Rect>& bboxes, Coord dist) {
  geom::GridIndex grid(autoGridCell(bboxes));
  for (std::size_t i = 0; i < bboxes.size(); ++i) grid.insert(i, bboxes[i]);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < bboxes.size(); ++i) {
    for (std::size_t j : grid.query(bboxes[i].inflated(dist))) {
      if (j <= i) continue;
      if (geom::rectDistance(bboxes[i], bboxes[j],
                             geom::Metric::kOrthogonal) >
          static_cast<double>(dist))
        continue;
      out.push_back({i, j});
    }
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> HierarchyView::localPairs(
    layout::CellId id, Coord dist) const {
  const layout::Cell& c = lib_.cell(id);
  std::vector<Rect> bboxes;
  bboxes.reserve(c.elements.size());
  for (const layout::Element& e : c.elements) bboxes.push_back(e.bbox());
  return pairsWithin(bboxes, dist);
}

void HierarchyView::dropFlat() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (int v = 0; v < 2; ++v) {
    flatReady_[v].store(false, std::memory_order_relaxed);
    indexesReady_[v].store(false, std::memory_order_relaxed);
    flat_[v].reset();
    indexes_[v] = {};
    accountedBytes_.fetch_sub(flatBytes_[v], std::memory_order_release);
    flatBytes_[v] = 0;
  }
}

void HierarchyView::collectWindow(layout::CellId id, const geom::Transform& t,
                                  const Rect& window,
                                  const std::string& relPath,
                                  std::vector<WindowElement>& out) const {
  // Warm the library's bbox cache (see children()).
  ensurePlacements();
  // (elemOff, deviceOff) are the subtree-relative flat(false) offsets
  // where `cid`'s subtree starts; below a device cell deviceOff stays the
  // device's own offset.
  std::function<void(layout::CellId, const geom::Transform&,
                     const std::string&, bool, std::size_t, std::size_t)>
      rec = [&](layout::CellId cid, const geom::Transform& ct,
                const std::string& path, bool insideDevice,
                std::size_t elemOff, std::size_t deviceOff) {
        const layout::Cell& c = lib_.cell(cid);
        const bool deviceHere = insideDevice || c.isDevice();
        for (std::size_t i = 0; i < c.elements.size(); ++i) {
          const Rect b = ct.apply(c.elements[i].bbox());
          if (!geom::closedTouch(b, window)) continue;
          WindowElement we;
          we.element = c.elements[i].transformed(ct);
          we.sourceCell = cid;
          we.sourceIndex = i;
          we.path = path;
          we.fromDevice = deviceHere;
          we.belowDevice = insideDevice;
          we.offset = deviceHere ? deviceOff : elemOff + i;
          out.push_back(std::move(we));
        }
        int childNo = 0;
        std::size_t childElem = elemOff + c.elements.size();
        std::size_t childDevice = deviceOff;
        for (const layout::Instance& inst : c.instances) {
          const geom::Transform it = geom::compose(inst.transform, ct);
          const Rect cb = it.apply(lib_.cellBBox(inst.cell));
          const int no = childNo++;
          const std::size_t e = childElem, d = childDevice;
          if (!deviceHere) {
            childElem += subtree_[inst.cell].elems;
            childDevice += subtree_[inst.cell].devices;
          }
          if (!geom::closedTouch(cb, window)) continue;
          rec(inst.cell, it, joinPath(path, instanceName(lib_, inst, no)),
              deviceHere, e, d);
        }
      };
  rec(id, t, relPath, false, 0, 0);
}

SpatialSet::SpatialSet(const std::vector<Rect>& rects, Coord cellHint)
    : size_(rects.size()) {
  grid_ = std::make_unique<geom::GridIndex>(
      cellHint > 0 ? cellHint : autoGridCell(rects));
  for (std::size_t i = 0; i < rects.size(); ++i) grid_->insert(i, rects[i]);
}

std::vector<std::size_t> SpatialSet::candidates(const Rect& query,
                                                Coord inflate) const {
  return grid_->query(inflate ? query.inflated(inflate) : query);
}

void SpatialSet::candidatesInto(const Rect& query, Coord inflate,
                                std::vector<std::size_t>& out) const {
  grid_->queryInto(inflate ? query.inflated(inflate) : query, out);
}

}  // namespace dic::engine
