#pragma once
/// \file library.hpp
/// The hierarchical layout database: cells, instances, and the library.
/// Mirrors the paper's Fig. 9 structure -- functional blocks, subblocks,
/// primitive device symbols, and interconnect at every level.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "layout/element.hpp"

namespace dic::layout {

using CellId = int;

/// Deepest hierarchy a Library accepts: the number of cells on the
/// longest call chain from a top cell down to a leaf, both counted (a
/// cell without instances has depth 1). The checker's hierarchy walks
/// recurse once per level, so an unbounded chain overflows the stack;
/// real layouts are a few dozen levels deep. Enforced by fromCif and
/// Library::addInstance.
inline constexpr int kMaxHierarchyDepth = 1000;

/// An instance (CIF "call") of a cell under a transform.
struct Instance {
  CellId cell{0};
  geom::Transform transform{};
  std::string name;  ///< instance name for hierarchical net paths ("a.b")
};

/// A connection point exposed by a device cell: terminals like a
/// transistor's gate/source/drain or a contact's two layer landings.
struct Port {
  std::string name;      ///< "G", "S", "D", "A", "B", ...
  int layer{0};
  geom::Rect at{};       ///< landing rect in cell coordinates
  int internalGroup{-1}; ///< ports sharing a group are internally connected
};

/// A cell: either a composite (subblock / functional block / chip) or a
/// primitive device symbol (deviceType non-empty; the only way devices are
/// defined, per the paper's structured-design declaration rule).
struct Cell {
  std::string name;
  std::string deviceType;  ///< e.g. "TRAN", "DTRAN", "CON_MD", "RES"; empty
                           ///< for composite cells
  bool prechecked{false};  ///< device marked checked by the designer
  std::vector<Element> elements;
  std::vector<Instance> instances;
  std::vector<Port> ports;

  bool isDevice() const { return !deviceType.empty(); }
};

/// A flattened element: geometry in chip coordinates plus full identity.
struct FlatElement {
  Element element;        ///< transformed into root coordinates
  CellId sourceCell{0};   ///< the defining cell
  std::size_t sourceIndex{0};  ///< index within that cell's elements
  std::string path;       ///< dot-notation instance path ("blk0.inv3")
};

/// A flattened device instance with transformed ports.
struct FlatDevice {
  CellId cell{0};
  std::string deviceType;
  std::string path;  ///< dot-notation path of the device instance
  geom::Transform transform{};
  std::vector<Port> ports;  ///< rects in root coordinates
  geom::Rect bbox{};
};

/// One tracked element edit, recorded by Library::setElement. The old and
/// new element plus the cell's bbox before/after give a consumer (the
/// Workspace's incremental patch path) everything it needs to decide
/// whether a cached view can be patched in place and which windows are
/// dirty, without diffing cell contents.
struct CellEdit {
  CellId cell{0};
  std::size_t index{0};       ///< slot in cell.elements that changed
  Element oldElement;         ///< element content before the edit
  Element newElement;         ///< element content after the edit
  geom::Rect oldCellBBox{};   ///< recursive cellBBox before the edit
  geom::Rect newCellBBox{};   ///< recursive cellBBox after the edit
  std::uint64_t revision{0};  ///< revision() value after this edit
};

class Library {
 public:
  Library() = default;
  // The bbox-cache mutex is neither copyable nor movable, so the special
  // members are spelled out: content transfers, each object keeps its own
  // guard. Copies inherit the source's revision (they describe the same
  // geometry); the cache is copied too, it is valid for equal content.
  Library(const Library& o);
  Library(Library&& o) noexcept;
  Library& operator=(const Library& o);
  Library& operator=(Library&& o) noexcept;

  /// Create a cell; its name must be unique in the library and its port
  /// names unique in the cell (std::invalid_argument otherwise). Bumps
  /// revision().
  CellId addCell(Cell cell);

  const Cell& cell(CellId id) const { return cells_.at(id); }
  /// Mutable cell access. Handing out a mutable reference counts as a
  /// mutation: the revision is bumped and the bbox cache dropped
  /// conservatively, so persistent caches keyed by revision() (the
  /// Workspace view cache) self-invalidate even if the caller only might
  /// have edited the cell.
  Cell& cell(CellId id) {
    invalidateCaches();
    return cells_.at(id);
  }
  std::size_t cellCount() const { return cells_.size(); }

  /// Monotonic mutation counter: bumped by addCell, mutable cell(), and
  /// invalidateCaches. Two reads returning the same value bracket a span
  /// in which the library was not structurally modified -- the key
  /// persistent caches (per-(root, revision) hierarchy views) rely on.
  std::uint64_t revision() const { return revision_; }

  std::optional<CellId> findCell(const std::string& name) const;

  // --- tracked edit API (the incremental-checking entry points) ---------
  //
  // Unlike the mutable cell() accessor (which is a conservative "anything
  // may have changed" signal), these methods record exactly what changed,
  // so revision-keyed caches can be *patched* instead of rebuilt. Element
  // edits via setElement land in a bounded edit log replayable through
  // editsSince(); structural edits (add/remove element or instance) are
  // tracked per cell but clear the log — consumers must rebuild.

  /// Replace one element of `cell` in place. Records a CellEdit (old+new
  /// element, old+new recursive cell bbox), bumps revision() and the
  /// cell's generation, and drops the bbox cache. Throws std::out_of_range
  /// on a bad cell or index.
  void setElement(CellId cell, std::size_t index, Element e);

  /// Append an element to `cell`. Structural: bumps revision() and the
  /// cell's generation and clears the edit log (caches must rebuild).
  /// Returns the new element's index.
  std::size_t addElement(CellId cell, Element e);

  /// Erase element `index` of `cell` (later indexes shift down).
  /// Structural, like addElement.
  void removeElement(CellId cell, std::size_t index);

  /// Append an instance (placement) to `cell`. Structural, like
  /// addElement. Throws std::invalid_argument, leaving the library
  /// untouched, if `cell` is reachable from inst.cell (the instance would
  /// close a cycle) or if the new edge would make a call chain longer
  /// than kMaxHierarchyDepth cells.
  std::size_t addInstance(CellId cell, Instance inst);

  /// Erase instance `index` of `cell`. Structural, like addElement.
  void removeInstance(CellId cell, std::size_t index);

  /// The edits applied after the library was at revision `rev`, oldest
  /// first — or nullopt when the delta cannot be reconstructed (a
  /// structural or untracked mutation intervened, or the bounded log was
  /// trimmed past `rev`). An empty vector means "nothing changed":
  /// rev == revision().
  std::optional<std::vector<CellEdit>> editsSince(std::uint64_t rev) const;

  /// Monotonic per-cell dirty counter: bumped by every tracked edit that
  /// touches `id`, and by every untracked mutation (mutable cell(),
  /// invalidateCaches(), addCell) for *all* cells, conservatively. Two
  /// equal reads bracket a span in which the cell did not change.
  std::uint64_t cellGeneration(CellId id) const;

  /// Recursive bounding box of a cell. Cached under an internal mutex, so
  /// concurrent lookups from parallel workers (per-cell fan-outs,
  /// windowed traversals) are safe even on a cold cache; invalidated on
  /// addCell / mutation via invalidateCaches().
  geom::Rect cellBBox(CellId id) const;

  /// Drop derived caches and bump revision(). Call after mutating cell
  /// contents through a retained reference (mutable cell() does it for
  /// you at access time). Untracked: the edit log is cleared and every
  /// cell's generation advances, so incremental consumers fall back to a
  /// full rebuild.
  void invalidateCaches() {
    bumpRevision();
    ++allGen_;
    editLog_.clear();
    logStart_ = revision_;
  }

  /// Depth-first visit of each cell reachable from root, once.
  void forEachCellOnce(CellId root,
                       const std::function<void(CellId)>& fn) const;

  /// Flatten interconnect below `root`. Device cells are NOT descended
  /// into (their identity is preserved and reported through `devices`);
  /// pass includeDeviceGeometry=true to also emit device-internal
  /// elements (used by the mask-level baseline checker, which by design
  /// discards device knowledge).
  void flatten(CellId root, std::vector<FlatElement>& elements,
               std::vector<FlatDevice>& devices,
               bool includeDeviceGeometry = false) const;

  // (Windowed flattening lives in engine::HierarchyView::collectWindow,
  // which owns all hierarchical traversal beyond this primitive.)

  /// Count of elements in the fully instantiated (flat) design vs the
  /// hierarchical description -- the paper's complexity-management
  /// argument in numbers.
  struct SizeStats {
    std::size_t cells{0};
    std::size_t hierarchicalElements{0};
    std::size_t flatElements{0};
    std::size_t deviceInstancesFlat{0};
    int maxDepth{0};
  };
  SizeStats sizeStats(CellId root) const;

 private:
  void flattenRec(CellId id, const geom::Transform& t, std::string path,
                  std::vector<FlatElement>& elements,
                  std::vector<FlatDevice>* devices,
                  bool includeDeviceGeometry, bool insideDevice) const;

  /// Bump revision() and drop the bbox cache WITHOUT touching the edit
  /// log — the tracked-edit path, where the log itself is the record.
  void bumpRevision() {
    ++revision_;
    std::lock_guard<std::mutex> lock(bboxMu_);
    bboxCache_.clear();
  }
  /// Shared tail of the structural edit methods: per-cell generation
  /// bump + log reset (the delta is not replayable).
  void structuralEdit(CellId cell);

  /// Replayable setElement history, oldest first; trimmed to the newest
  /// kMaxEditLog entries (logStart_ tracks the oldest reconstructable
  /// revision).
  static constexpr std::size_t kMaxEditLog = 256;

  std::vector<Cell> cells_;
  std::map<std::string, CellId> byName_;
  std::uint64_t revision_{0};
  std::vector<CellEdit> editLog_;
  std::uint64_t logStart_{0};  ///< oldest revision editsSince can serve
  std::uint64_t allGen_{0};    ///< generation floor for every cell
  std::map<CellId, std::uint64_t> cellGen_;  ///< tracked per-cell bumps
  mutable std::mutex bboxMu_;  ///< guards bboxCache_ only
  mutable std::map<CellId, geom::Rect> bboxCache_;
};

}  // namespace dic::layout
