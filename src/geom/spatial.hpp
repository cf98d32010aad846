#pragma once
/// \file spatial.hpp
/// A simple uniform-grid spatial index over rect-keyed items. Used by the
/// interaction checker and the netlist extractor to find candidate pairs
/// without quadratic scans.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/rect.hpp"

namespace dic::geom {

class GridIndex {
 public:
  /// `cellSize` should be on the order of the largest interaction
  /// distance times a few (e.g. 16 * max spacing).
  explicit GridIndex(Coord cellSize) : cell_(cellSize > 0 ? cellSize : 1) {}

  /// Insert an item with the given bounding box; `id` is caller-defined.
  void insert(std::size_t id, const Rect& bbox) {
    forEachCell(bbox, [&](std::uint64_t key) { grid_[key].push_back(id); });
  }

  /// Collect ids whose grid cells intersect `query` (deduplicated;
  /// candidates only -- caller re-tests exact geometry).
  std::vector<std::size_t> query(const Rect& query) const {
    std::vector<std::size_t> out;
    queryInto(query, out);
    return out;
  }

  /// query() into a caller-owned buffer (cleared first): the hot-path
  /// form, letting per-check loops reuse one allocation across calls.
  /// Result is sorted and deduplicated, same as query().
  void queryInto(const Rect& query, std::vector<std::size_t>& out) const {
    out.clear();
    queryRaw(query, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

  /// Append raw bucket contents for every cell `query` touches, without
  /// sorting or deduplication -- ids spanning several cells appear once
  /// per cell. For callers that dedup as part of a later exact test.
  void queryRaw(const Rect& query, std::vector<std::size_t>& out) const {
    forEachCell(query, [&](std::uint64_t key) {
      auto it = grid_.find(key);
      if (it != grid_.end())
        out.insert(out.end(), it->second.begin(), it->second.end());
    });
  }

  /// Approximate heap footprint of the index, bytes: the per-cell bucket
  /// vectors. Feeds the engine's
  /// view-cache memory accounting (flat views and their grids dominate a
  /// cached hierarchy view).
  std::size_t memoryBytes() const {
    std::size_t b = grid_.bucket_count() * sizeof(void*);
    for (const auto& [key, ids] : grid_) {
      (void)key;
      b += sizeof(std::uint64_t) + sizeof(ids) +
           ids.capacity() * sizeof(std::size_t);
    }
    return b;
  }

 private:
  /// Zig-zag encoding maps signed cell coordinates to unsigned so that
  /// small-magnitude negatives stay small; the key packs the two encoded
  /// halves into disjoint 32-bit fields. (The previous
  /// `(gx << 24) ^ (gy & 0xffffff)` scheme aliased negative gy rows onto
  /// large positive ones and leaked gx bits into the gy field on wide
  /// layouts, degenerating buckets.)
  static constexpr std::uint64_t zigzag(Coord v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }

  template <typename F>
  void forEachCell(const Rect& r, F&& f) const {
    const Coord x0 = floorDiv(r.lo.x), x1 = floorDiv(r.hi.x);
    const Coord y0 = floorDiv(r.lo.y), y1 = floorDiv(r.hi.y);
    for (Coord gy = y0; gy <= y1; ++gy)
      for (Coord gx = x0; gx <= x1; ++gx)
        f((zigzag(gx) << 32) | (zigzag(gy) & 0xffffffffu));
  }

  Coord floorDiv(Coord v) const {
    return v >= 0 ? v / cell_ : -((-v + cell_ - 1) / cell_);
  }

  Coord cell_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> grid_;
};

}  // namespace dic::geom
