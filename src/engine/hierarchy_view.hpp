#pragma once
/// \file hierarchy_view.hpp
/// The shared hierarchy-view / spatial-query engine.
///
/// Every checker in this codebase works on the same substrate: the set of
/// placements of each cell under a root, flattened element/device views of
/// the design, and grid-indexed candidate-pair queries over those views.
/// Before this engine existed that substrate was re-implemented privately
/// by the interaction checker, the mask-level baseline, the netlist
/// extractor, and the structured-design checks. `HierarchyView` owns it
/// once: placement enumeration, cached flattening (both with and without
/// device-internal geometry), lazily built per-layer `geom::GridIndex`es,
/// and windowed subtree collection for instance-overlap checking.
///
/// All lazy caches are built under a mutex, so a single view can be shared
/// by every pool worker of a check; query results reference
/// built-once storage and are safe to read concurrently.

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "geom/spatial.hpp"
#include "layout/library.hpp"

namespace dic::engine {

/// Join two dot-notation instance-path segments. This is THE path
/// composition rule: every consumer that builds hierarchical paths
/// (placements, windowed collection, violation cells) must use it so
/// paths composed in one module match paths composed in another.
std::string joinPath(const std::string& a, const std::string& b);

/// Placement::elemBase/deviceBase of a placement inside a device cell,
/// whose subtree flat(false) omits.
inline constexpr std::size_t kNoFlatIndex = static_cast<std::size_t>(-1);

/// One placement of a cell under the root: the composed transform, the
/// dot-notation instance path, and where its subtree starts in
/// flat(false). Placements are enumerated in the same pre-order as
/// Library::flatten, so each subtree is one contiguous run of flat(false)
/// elements and one of devices: the subtree's element at relative offset
/// r is flat(false).elements[elemBase + r].
struct Placement {
  geom::Transform transform;  ///< composed root-to-instance transform
  std::string path;           ///< dot-notation instance path from root
  std::size_t elemBase{0};    ///< first flat(false) element of the subtree
  std::size_t deviceBase{0};  ///< first flat(false) device of the subtree
};

/// A child instance of a cell with the naming and bbox bookkeeping every
/// hierarchical traversal needs.
struct ChildRef {
  std::size_t index{0};        ///< index into the parent cell's instances
  layout::CellId cell{0};      ///< the instantiated (child) cell
  geom::Transform transform{}; ///< instance transform (parent coordinates)
  geom::Rect bbox{};           ///< child bbox in parent coordinates
  std::string name;            ///< instance name used in hierarchical paths
  /// Where the child's subtree starts inside the parent's subtree, in
  /// flat(false) elements and devices.
  std::size_t elemOffset{0};
  std::size_t deviceOffset{0};
};

/// An element produced by a windowed subtree walk.
struct WindowElement {
  layout::Element element;       ///< transformed into the caller's frame
  layout::CellId sourceCell{0};  ///< defining cell the element came from
  std::size_t sourceIndex{0};    ///< element index within the source cell
  std::string path;              ///< relPath-prefixed instance path
  bool fromDevice{false};        ///< element lives at or below a device cell
  /// Strictly below a device cell (in a cell the device instantiates):
  /// neither a flat(false) element nor the device's own geometry.
  bool belowDevice{false};
  /// Offset relative to the walked subtree: of the element among
  /// flat(false) elements, or, with fromDevice, of its device among
  /// flat(false) devices.
  std::size_t offset{0};
};

/// A read-only view of one hierarchy rooted at a cell.
class HierarchyView {
 public:
  /// Bind a view to one (library, root) pair. Caches build lazily on
  /// first use; the library must outlive the view and stay unmodified.
  HierarchyView(const layout::Library& lib, layout::CellId root)
      : lib_(lib), root_(root) {}

  /// The library this view reads from.
  const layout::Library& library() const { return lib_; }
  /// The root cell the hierarchy is viewed under.
  layout::CellId root() const { return root_; }

  /// Cells reachable from root, post-order (substrates before users),
  /// each once. This is the deterministic unit order used by the stage
  /// runner's per-cell fan-out.
  const std::vector<layout::CellId>& cells() const;

  /// All placements of every reachable cell (enumerated once, cached).
  const std::map<layout::CellId, std::vector<Placement>>& placements() const;

  /// Placements of one cell (empty if unreachable).
  const std::vector<Placement>& placementsOf(layout::CellId id) const;

  /// Child instances of a cell with names and parent-frame bboxes.
  std::vector<ChildRef> children(layout::CellId id) const;

  /// What one placement's subtree contributes to flat(false): elements,
  /// devices, and device ports. A device cell counts as one device, its
  /// own ports, and no elements (flat(false) does not descend into it).
  struct SubtreeCounts {
    std::size_t elems{0};
    std::size_t devices{0};
    std::size_t ports{0};
  };

  /// Subtree counts of one cell (all zero for a cell the root does not
  /// reach). counts(root()) sizes flat(false) without building it.
  const SubtreeCounts& counts(layout::CellId id) const;

  /// A cached flat view of the design.
  struct Flat {
    std::vector<layout::FlatElement> elements;  ///< flattened elements
    std::vector<layout::FlatDevice> devices;    ///< flattened device instances
    std::vector<geom::Rect> bboxes;  ///< element bboxes, parallel to elements
  };

  /// Flatten below root (cached per variant). With
  /// includeDeviceGeometry=false device internals are omitted and devices
  /// are reported only through Flat::devices; with true their geometry is
  /// emitted too (the mask-level baseline's view of the world).
  const Flat& flat(bool includeDeviceGeometry) const;

  /// Build the flat view and its spatial indexes now. Callers about to
  /// fan queries across workers use this to pay the one-time build
  /// serially instead of queueing every worker on the first query.
  void prepare(bool includeDeviceGeometry) const;

  /// Whether the flat view of one variant has been materialized. The
  /// incremental patch path reads this to decide if pre-edit state exists
  /// to probe (an unbuilt flat view simply builds later from the already
  /// edited library, which is equally correct).
  bool flatBuilt(bool includeDeviceGeometry) const {
    return flatReady_[includeDeviceGeometry ? 1 : 0].load(
        std::memory_order_acquire);
  }

  /// Candidate element indices (into flat(v).elements) whose grid cells
  /// intersect `query` inflated by `inflate`, on one layer (or all layers
  /// when layer < 0). Sorted, deduplicated; candidates only -- callers
  /// re-test exact geometry.
  std::vector<std::size_t> flatCandidates(bool includeDeviceGeometry,
                                          int layer, const geom::Rect& query,
                                          geom::Coord inflate = 0) const;

  /// flatCandidates() into a caller-owned buffer (cleared first; result
  /// sorted, deduplicated). The hot-path form: per-check loops reuse one
  /// buffer across thousands of queries instead of allocating each time.
  void flatCandidatesInto(bool includeDeviceGeometry, int layer,
                          const geom::Rect& query, geom::Coord inflate,
                          std::vector<std::size_t>& out) const;

  /// Approximate bytes of everything this view has lazily built so far:
  /// placements, flat element/device views, grid indexes, port tables.
  /// Grows as caches build (a fresh view reports only its own footprint)
  /// and is maintained incrementally by the builders, so reading it is a
  /// single atomic load — safe from any thread, even while another
  /// worker is mid-build. The Workspace's LRU cap is enforced against
  /// this number.
  std::size_t memoryBytes() const {
    return sizeof(*this) + accountedBytes_.load(std::memory_order_acquire);
  }

  /// All pairs (i < j) of flat elements whose bboxes are within `dist`
  /// of each other under the orthogonal metric, ordered by (i, j). This
  /// is the one-shot reference form of the sweep (used as the test
  /// oracle); the parallel interaction checker streams the same (i, j>i)
  /// enumeration per worker chunk via flatCandidates to avoid
  /// materializing the pair list.
  std::vector<std::pair<std::size_t, std::size_t>> flatPairs(
      bool includeDeviceGeometry, geom::Coord dist) const;

  /// All pairs (i < j) of one cell's *own* elements whose bboxes are
  /// within `dist` (orthogonal metric), ordered by (i, j). Pure: no
  /// shared state, safe to call from any worker.
  std::vector<std::pair<std::size_t, std::size_t>> localPairs(
      layout::CellId id, geom::Coord dist) const;

  /// Device terminal identity: flat(false).devices[device].ports[port].
  struct PortRef {
    std::size_t device{0};  ///< index into Flat::devices
    std::size_t port{0};    ///< port index within that device
  };

  /// All flattened device ports in (device, port) order.
  const std::vector<PortRef>& ports() const;

  /// Candidate port indices (into ports()) near `query`.
  std::vector<std::size_t> portCandidates(const geom::Rect& query,
                                          geom::Coord inflate = 0) const;

  /// Windowed subtree collection: every element at or below `id` (device
  /// internals included) whose transformed bbox closed-touches `window`,
  /// transformed by `t` and path-prefixed with `relPath`, with its
  /// flat(false) offset relative to `id`'s subtree. Subtrees whose bbox
  /// misses the window are pruned -- this is the "examine only the
  /// instance-overlap window" step of hierarchical interaction checking.
  void collectWindow(layout::CellId id, const geom::Transform& t,
                     const geom::Rect& window, const std::string& relPath,
                     std::vector<WindowElement>& out) const;

  /// In-place patch after a tracked element edit
  /// (layout::Library::setElement): re-transform the edited element at
  /// every placement in each materialized flat variant and splice its
  /// grid-index entries, leaving everything else untouched. The patched
  /// view is content-identical to a fresh build against the current
  /// library. Preconditions: the library already holds the new element,
  /// and the edit changed neither the cell's element count nor the
  /// element's layer. Returns false when the patch cannot be applied
  /// (bad index, layer changed, or a flat entry's placement path does not
  /// resolve) — the view may then be partially patched and must be
  /// discarded and rebuilt by the caller.
  bool patchElement(layout::CellId cell, std::size_t index);

  /// Flat slots (indices into flat(v).elements) holding instances of
  /// element (cell, index); empty when the variant is unbuilt or the
  /// cell is unreachable. Served from the same lazily built slot map
  /// patchElement uses, so the Workspace's pre-edit connectivity probes
  /// are O(placements of the edited cell), not O(flat size).
  std::vector<std::size_t> flatSlotsOf(bool includeDeviceGeometry,
                                       layout::CellId cell,
                                       std::size_t index) const;

 private:
  /// Per-layer grid indexes over one flat variant, plus a combined
  /// all-layer index for layer-agnostic queries and pair sweeps.
  struct LayerIndexes {
    std::vector<geom::GridIndex> byLayer;
    std::unique_ptr<geom::GridIndex> all;
  };

  // Lazy caches follow double-checked locking: the atomic ready flag is
  // set (release) only after the cache is fully built under mu_, so the
  // hot path from parallel workers is a single acquire load.
  const Flat& ensureFlat(bool includeDeviceGeometry) const;
  void ensureFlatSlots(int v) const;
  const LayerIndexes& ensureIndexes(bool includeDeviceGeometry) const;
  void ensurePlacements() const;
  void ensurePorts() const;

  const layout::Library& lib_;
  layout::CellId root_;

  mutable std::recursive_mutex mu_;
  mutable std::atomic<bool> placementsReady_{false};
  mutable std::vector<layout::CellId> cells_;
  mutable std::map<layout::CellId, std::vector<Placement>> placements_;
  mutable std::vector<SubtreeCounts> subtree_;  ///< indexed by CellId
  mutable std::unique_ptr<Flat> flat_[2];          ///< [includeDeviceGeometry]
  mutable std::atomic<bool> flatReady_[2]{};
  /// (sourceCell, sourceIndex) -> flat slots, built lazily by the first
  /// patchElement on each variant (under mu_). Stays valid as long as
  /// the flat vector itself: patches mutate entries in place, never
  /// resize or reorder.
  mutable std::map<std::pair<layout::CellId, std::size_t>,
                   std::vector<std::size_t>>
      flatSlots_[2];
  mutable bool flatSlotsBuilt_[2]{};
  mutable LayerIndexes indexes_[2];
  mutable std::atomic<bool> indexesReady_[2]{};
  mutable std::atomic<bool> portsReady_{false};
  mutable std::vector<PortRef> ports_;
  mutable std::unique_ptr<geom::GridIndex> portIndex_;
  /// Bytes of built lazy state; each ensureX adds its contribution once,
  /// right before publishing its ready flag.
  mutable std::atomic<std::size_t> accountedBytes_{0};
};

/// A one-shot spatial set over arbitrary rects -- derived geometry that is
/// not part of the hierarchy proper (mask-region rects, connected
/// components), so it cannot be served by HierarchyView's element indexes.
/// Wraps geom::GridIndex with an automatically chosen cell size so callers
/// never build grids by hand.
class SpatialSet {
 public:
  /// Index `rects` with grid cell size `cellHint` (0 = autoGridCell).
  explicit SpatialSet(const std::vector<geom::Rect>& rects,
                      geom::Coord cellHint = 0);

  /// Candidate rect indices near `query` (sorted, deduplicated).
  std::vector<std::size_t> candidates(const geom::Rect& query,
                                      geom::Coord inflate = 0) const;

  /// candidates() into a caller-owned buffer (cleared first).
  void candidatesInto(const geom::Rect& query, geom::Coord inflate,
                      std::vector<std::size_t>& out) const;

  /// Number of indexed rects.
  std::size_t size() const { return size_; }

 private:
  std::unique_ptr<geom::GridIndex> grid_;
  std::size_t size_{0};
};

/// Grid cell size heuristic shared by the engine's indexes: a few times
/// the mean bbox extent, clamped to a sane range.
geom::Coord autoGridCell(const std::vector<geom::Rect>& rects);

/// All pairs (i < j) of `bboxes` within `dist` of each other under the
/// orthogonal metric, ordered by (i, j). The grid-accelerated pair sweep
/// shared by HierarchyView::localPairs and callers that already hold
/// precomputed bboxes.
///
/// Vectorized: candidate boxes are gathered into SoA scratch (arena) and
/// filtered with a branchless integer Chebyshev-gap mask; for exact int64
/// coordinates that compare equals the scalar double rectDistance test,
/// so output matches pairsWithinScalar pair for pair.
std::vector<std::pair<std::size_t, std::size_t>> pairsWithin(
    const std::vector<geom::Rect>& bboxes, geom::Coord dist);

/// Scalar reference for pairsWithin (differential-test oracle).
std::vector<std::pair<std::size_t, std::size_t>> pairsWithinScalar(
    const std::vector<geom::Rect>& bboxes, geom::Coord dist);

}  // namespace dic::engine
