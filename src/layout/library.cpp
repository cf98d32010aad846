#include "layout/library.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace dic::layout {

namespace {

/// Cells on the longest chain from `start` along `next` edges, both ends
/// counted. Iterative with memoized lengths, so measuring a deep chain
/// cannot itself overflow the stack; a cycle (only reachable through
/// mutable cell()) is cut rather than followed.
int longestChain(CellId start, const std::vector<std::vector<CellId>>& next) {
  std::vector<int> len(next.size(), 0);  // 0 unvisited, -1 on the stack
  std::vector<std::pair<CellId, std::size_t>> stack{{start, 0}};
  len[start] = -1;
  while (!stack.empty()) {
    auto& [id, k] = stack.back();
    if (k < next[id].size()) {
      const CellId n = next[id][k++];
      if (len[n] == 0) {
        len[n] = -1;
        stack.push_back({n, 0});
      }
      continue;
    }
    int below = 0;
    for (CellId n : next[id]) below = std::max(below, len[n]);
    len[id] = below + 1;
    stack.pop_back();
  }
  return len[start];
}

}  // namespace

Library::Library(const Library& o) {
  std::lock_guard<std::mutex> lock(o.bboxMu_);
  cells_ = o.cells_;
  byName_ = o.byName_;
  revision_ = o.revision_;
  editLog_ = o.editLog_;
  logStart_ = o.logStart_;
  allGen_ = o.allGen_;
  cellGen_ = o.cellGen_;
  bboxCache_ = o.bboxCache_;
}

Library::Library(Library&& o) noexcept {
  std::lock_guard<std::mutex> lock(o.bboxMu_);
  cells_ = std::move(o.cells_);
  byName_ = std::move(o.byName_);
  revision_ = o.revision_;
  editLog_ = std::move(o.editLog_);
  logStart_ = o.logStart_;
  allGen_ = o.allGen_;
  cellGen_ = std::move(o.cellGen_);
  bboxCache_ = std::move(o.bboxCache_);
}

Library& Library::operator=(const Library& o) {
  if (this == &o) return *this;
  Library tmp(o);
  return *this = std::move(tmp);
}

Library& Library::operator=(Library&& o) noexcept {
  if (this == &o) return *this;
  std::scoped_lock lock(bboxMu_, o.bboxMu_);
  cells_ = std::move(o.cells_);
  byName_ = std::move(o.byName_);
  // The object's content changed wholesale: advance past both histories so
  // no revision ever seen on either object can alias the new content, and
  // treat the change as untracked (no replayable delta).
  revision_ = std::max(revision_, o.revision_) + 1;
  allGen_ = std::max(allGen_, o.allGen_) + 1;
  editLog_.clear();
  logStart_ = revision_;
  cellGen_.clear();
  bboxCache_ = std::move(o.bboxCache_);
  return *this;
}

CellId Library::addCell(Cell cell) {
  if (byName_.count(cell.name))
    throw std::invalid_argument("duplicate cell name: " + cell.name);
  // Extraction and the checks address a port by its name: two ports with
  // one name would be indistinguishable.
  for (std::size_t i = 0; i < cell.ports.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (cell.ports[i].name == cell.ports[j].name)
        throw std::invalid_argument("duplicate port name " +
                                    cell.ports[i].name + " in cell " +
                                    cell.name);
  const CellId id = static_cast<CellId>(cells_.size());
  byName_[cell.name] = id;
  cells_.push_back(std::move(cell));
  invalidateCaches();
  return id;
}

std::optional<CellId> Library::findCell(const std::string& name) const {
  auto it = byName_.find(name);
  if (it == byName_.end()) return std::nullopt;
  return it->second;
}

void Library::setElement(CellId cell, std::size_t index, Element e) {
  Cell& c = cells_.at(cell);
  CellEdit ed;
  ed.cell = cell;
  ed.index = index;
  ed.oldElement = c.elements.at(index);  // throws before any mutation
  ed.oldCellBBox = cellBBox(cell);
  c.elements[index] = std::move(e);
  ed.newElement = c.elements[index];
  bumpRevision();  // drops the now-stale bbox cache
  ed.newCellBBox = cellBBox(cell);
  ed.revision = revision_;
  ++cellGen_[cell];
  editLog_.push_back(std::move(ed));
  if (editLog_.size() > kMaxEditLog) {
    editLog_.erase(editLog_.begin(),
                   editLog_.end() - static_cast<std::ptrdiff_t>(kMaxEditLog));
    logStart_ = editLog_.front().revision - 1;
  }
}

void Library::structuralEdit(CellId cell) {
  bumpRevision();
  ++cellGen_[cell];
  editLog_.clear();
  logStart_ = revision_;
}

std::size_t Library::addElement(CellId cell, Element e) {
  Cell& c = cells_.at(cell);
  c.elements.push_back(std::move(e));
  structuralEdit(cell);
  return c.elements.size() - 1;
}

void Library::removeElement(CellId cell, std::size_t index) {
  Cell& c = cells_.at(cell);
  if (index >= c.elements.size())
    throw std::out_of_range("removeElement: bad index");
  c.elements.erase(c.elements.begin() + static_cast<std::ptrdiff_t>(index));
  structuralEdit(cell);
}

std::size_t Library::addInstance(CellId cell, Instance inst) {
  Cell& c = cells_.at(cell);
  cells_.at(inst.cell);  // validate the target before mutating
  // Every hierarchy walk recurses over instances, so a cycle would never
  // terminate: refuse the edge if `cell` is reachable from the target.
  std::vector<char> seen(cells_.size(), 0);
  std::vector<CellId> stack{inst.cell};
  while (!stack.empty()) {
    const CellId id = stack.back();
    stack.pop_back();
    if (id == cell)
      throw std::invalid_argument("addInstance: instancing " +
                                  cells_[inst.cell].name + " in " + c.name +
                                  " would create a cycle");
    const Cell& reached = cells_.at(id);
    if (seen[id]) continue;
    seen[id] = 1;
    for (const Instance& sub : reached.instances) stack.push_back(sub.cell);
  }
  // The longest chain through the new edge runs from a top cell down to
  // `cell`, then from the target down to a leaf.
  std::vector<std::vector<CellId>> children(cells_.size());
  std::vector<std::vector<CellId>> parents(cells_.size());
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    for (const Instance& sub : cells_[p].instances) {
      children[p].push_back(sub.cell);
      parents[sub.cell].push_back(static_cast<CellId>(p));
    }
  }
  const int depth =
      longestChain(cell, parents) + longestChain(inst.cell, children);
  if (depth > kMaxHierarchyDepth)
    throw std::invalid_argument(
        "addInstance: instancing " + cells_[inst.cell].name + " in " +
        c.name + " would make a call chain of " + std::to_string(depth) +
        " cells, deeper than " + std::to_string(kMaxHierarchyDepth));
  c.instances.push_back(std::move(inst));
  structuralEdit(cell);
  return c.instances.size() - 1;
}

void Library::removeInstance(CellId cell, std::size_t index) {
  Cell& c = cells_.at(cell);
  if (index >= c.instances.size())
    throw std::out_of_range("removeInstance: bad index");
  c.instances.erase(c.instances.begin() + static_cast<std::ptrdiff_t>(index));
  structuralEdit(cell);
}

std::optional<std::vector<CellEdit>> Library::editsSince(
    std::uint64_t rev) const {
  if (rev == revision_) return std::vector<CellEdit>{};
  if (rev > revision_ || rev < logStart_) return std::nullopt;
  std::vector<CellEdit> out;
  for (const CellEdit& e : editLog_)
    if (e.revision > rev) out.push_back(e);
  // Every revision step since `rev` must be accounted for by a logged
  // edit; a gap means an untracked mutation slipped in between.
  if (out.size() != revision_ - rev) return std::nullopt;
  return out;
}

std::uint64_t Library::cellGeneration(CellId id) const {
  auto it = cellGen_.find(id);
  const std::uint64_t tracked = it == cellGen_.end() ? 0 : it->second;
  // Sum, not max: both tracked edits to this cell and untracked global
  // mutations must each advance the observed value.
  return tracked + allGen_;
}

geom::Rect Library::cellBBox(CellId id) const {
  // The lock brackets only the map accesses, never the recursive descent,
  // so concurrent cold-cache lookups from parallel workers are safe (two
  // workers may compute the same bbox; both insert the identical value).
  {
    std::lock_guard<std::mutex> lock(bboxMu_);
    auto it = bboxCache_.find(id);
    if (it != bboxCache_.end()) return it->second;
  }
  const Cell& c = cells_.at(id);
  geom::Rect b{{0, 0}, {0, 0}};
  for (const Element& e : c.elements) b = geom::bound(b, e.bbox());
  for (const Instance& inst : c.instances)
    b = geom::bound(b, inst.transform.apply(cellBBox(inst.cell)));
  std::lock_guard<std::mutex> lock(bboxMu_);
  bboxCache_.emplace(id, b);
  return b;
}

void Library::forEachCellOnce(CellId root,
                              const std::function<void(CellId)>& fn) const {
  std::set<CellId> seen;
  std::function<void(CellId)> rec = [&](CellId id) {
    if (!seen.insert(id).second) return;
    for (const Instance& inst : cells_.at(id).instances) rec(inst.cell);
    fn(id);  // post-order: substrates before users
  };
  rec(root);
}

void Library::flatten(CellId root, std::vector<FlatElement>& elements,
                      std::vector<FlatDevice>& devices,
                      bool includeDeviceGeometry) const {
  flattenRec(root, geom::identityTransform(), "", elements, &devices,
             includeDeviceGeometry, false);
}

void Library::flattenRec(CellId id, const geom::Transform& t,
                         std::string path, std::vector<FlatElement>& elements,
                         std::vector<FlatDevice>* devices,
                         bool includeDeviceGeometry, bool insideDevice) const {
  const Cell& c = cells_.at(id);
  if (c.isDevice() && !insideDevice) {
    if (devices) {
      FlatDevice d;
      d.cell = id;
      d.deviceType = c.deviceType;
      d.path = path;
      d.transform = t;
      d.ports = c.ports;
      for (Port& p : d.ports) p.at = t.apply(p.at);
      d.bbox = t.apply(cellBBox(id));
      devices->push_back(std::move(d));
    }
    if (!includeDeviceGeometry) return;
    insideDevice = true;
  }
  for (std::size_t i = 0; i < c.elements.size(); ++i) {
    FlatElement fe;
    fe.element = c.elements[i].transformed(t);
    fe.sourceCell = id;
    fe.sourceIndex = i;
    fe.path = path;
    elements.push_back(std::move(fe));
  }
  int childNo = 0;
  for (const Instance& inst : c.instances) {
    std::string childName =
        inst.name.empty() ? cells_.at(inst.cell).name + "_" +
                                std::to_string(childNo)
                          : inst.name;
    ++childNo;
    std::string childPath =
        path.empty() ? childName : path + "." + childName;
    flattenRec(inst.cell, geom::compose(inst.transform, t),
               std::move(childPath), elements, devices, includeDeviceGeometry,
               insideDevice);
  }
}

Library::SizeStats Library::sizeStats(CellId root) const {
  // One post-order pass, each cell once: a cell's flat element count
  // (device internals included), top-level device instances and depth
  // follow from its children's, memoized by CellId.
  struct Sub {
    std::size_t flatElements{0};
    std::size_t devices{0};
    int depth{1};
  };
  std::vector<Sub> sub(cells_.size());
  SizeStats s;
  forEachCellOnce(root, [&](CellId id) {
    const Cell& c = cells_[id];
    s.cells++;
    s.hierarchicalElements += c.elements.size();
    Sub& n = sub[id];
    n.flatElements = c.elements.size();
    for (const Instance& inst : c.instances) {
      n.flatElements += sub[inst.cell].flatElements;
      n.devices += sub[inst.cell].devices;
      n.depth = std::max(n.depth, 1 + sub[inst.cell].depth);
    }
    // A device counts once however deep its own hierarchy goes.
    if (c.isDevice()) n.devices = 1;
  });
  s.flatElements = sub[root].flatElements;
  s.deviceInstancesFlat = sub[root].devices;
  s.maxDepth = sub[root].depth;
  return s;
}

}  // namespace dic::layout
