#include "service/workspace.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/arena.hpp"
#include "obs/trace.hpp"

namespace dic {

namespace {

/// Approximate heap bytes of an extracted netlist, for the LRU cap's
/// accounting (the netlist is cached alongside its view).
std::size_t netlistMemoryBytes(const netlist::Netlist& nl) {
  std::size_t b = sizeof(nl) + nl.elementNet.capacity() * sizeof(int) +
                  nl.portNet.capacity() * sizeof(int);
  for (const netlist::Net& n : nl.nets) {
    b += sizeof(n);
    for (const std::string& s : n.names) b += sizeof(s) + s.capacity();
  }
  for (const netlist::ExtractedDevice& d : nl.devices)
    b += sizeof(d) + d.path.capacity() + d.type.capacity();
  for (const std::vector<std::string>& names : nl.cellPorts) {
    b += sizeof(names);
    for (const std::string& s : names) b += sizeof(s) + s.capacity();
  }
  return b;
}

/// The result-affecting subset of drc::Options (threads deliberately
/// excluded: the determinism contract makes pool size invisible in the
/// report). Gates incremental-cache engagement: cached per-unit results
/// are only valid for a request that would have produced them.
bool sameResultOptions(const drc::Options& a, const drc::Options& b) {
  return a.metric == b.metric && a.checkDevices == b.checkDevices &&
         a.hierarchicalInteractions == b.hierarchicalInteractions &&
         a.useNetInformation == b.useNetInformation &&
         a.instantiateViolations == b.instantiateViolations &&
         a.extract == b.extract;
}

}  // namespace

std::string toString(CheckKind k) {
  switch (k) {
    case CheckKind::kHierarchicalDrc: return "drc";
    case CheckKind::kFlatBaselineDrc: return "baseline";
    case CheckKind::kErc: return "erc";
    case CheckKind::kNetlistOnly: return "netlist";
  }
  return "?";
}

CheckRequest CheckRequest::drc(layout::CellId root) {
  CheckRequest r;
  r.kind = CheckKind::kHierarchicalDrc;
  r.root = root;
  return r;
}

CheckRequest CheckRequest::baseline(layout::CellId root) {
  CheckRequest r;
  r.kind = CheckKind::kFlatBaselineDrc;
  r.root = root;
  r.metric = geom::Metric::kOrthogonal;
  return r;
}

CheckRequest CheckRequest::ercCheck(layout::CellId root) {
  CheckRequest r;
  r.kind = CheckKind::kErc;
  r.root = root;
  return r;
}

CheckRequest CheckRequest::netlistOnly(layout::CellId root) {
  CheckRequest r;
  r.kind = CheckKind::kNetlistOnly;
  r.root = root;
  return r;
}

EditOp EditOp::setElement(layout::CellId cell, std::size_t index,
                          layout::Element e) {
  EditOp op;
  op.kind = Kind::kSetElement;
  op.cell = cell;
  op.index = index;
  op.element = std::move(e);
  return op;
}

Workspace::Workspace(layout::Library lib, tech::Technology tech,
                     WorkspaceOptions options)
    : lib_(std::move(lib)),
      tech_(std::move(tech)),
      opts_(options),
      exec_(options.threads) {}

Workspace::Workspace(layout::Library lib, tech::Technology tech,
                     engine::Executor& exec, WorkspaceOptions options)
    : lib_(std::move(lib)),
      tech_(std::move(tech)),
      opts_(options),
      exec_(1),  // serial stub; all parallelism comes from *extExec_
      extExec_(&exec) {}

void Workspace::applyEdits(const std::vector<EditOp>& edits) {
  for (const EditOp& e : edits) {
    switch (e.kind) {
      case EditOp::Kind::kNone:
        break;
      case EditOp::Kind::kSetElement:
        lib_.setElement(e.cell, e.index, e.element);
        break;
      case EditOp::Kind::kAddElement:
        lib_.addElement(e.cell, e.element);
        break;
      case EditOp::Kind::kRemoveElement:
        lib_.removeElement(e.cell, e.index);
        break;
      case EditOp::Kind::kAddInstance:
        lib_.addInstance(e.cell, e.instance);
        break;
      case EditOp::Kind::kRemoveInstance:
        lib_.removeInstance(e.cell, e.index);
        break;
    }
  }
}

void Workspace::keepPreEditState(const std::vector<EditOp>& edits) {
  // Only element replacements can be patched; any other edit clears the
  // library's edit log, so every entry rebuilds and nothing is probed.
  if (!std::all_of(edits.begin(), edits.end(), [](const EditOp& e) {
        return e.kind == EditOp::Kind::kSetElement;
      }))
    return;
  // cacheMu_ then nlMu: the order acquire() -> tryPatch() takes them.
  std::lock_guard<std::mutex> lock(cacheMu_);
  for (const auto& [root, e] : cache_) {
    (void)root;
    if (e->revision != lib_.revision()) continue;
    std::lock_guard<std::mutex> nlock(e->nlMu);
    if (e->netlist) e->view->flat(false);
  }
}

bool Workspace::tryPatch(Entry& e, const std::vector<layout::CellEdit>& edits) {
  // Kernel section span: the in-place patch path is one of the hot
  // incremental-serving kernels the trace view attributes time to.
  obs::ScopedSpan patchSpan("view.patch");
  // Fast-path admission: element-content edits on composite cells with
  // the layer unchanged. (Structural edits never reach here — they clear
  // the library's edit log, so editsSince already returned nullopt.)
  for (const layout::CellEdit& ed : edits) {
    if (std::as_const(lib_).cell(ed.cell).isDevice()) return false;
    if (ed.oldElement.layer != ed.newElement.layer) return false;
  }
  // Unique edited slots, first-edit order. Multiple edits of one slot
  // patch once: patchElement reads the library's final content.
  std::vector<std::pair<layout::CellId, std::size_t>> slots;
  for (const layout::CellEdit& ed : edits) {
    const std::pair<layout::CellId, std::size_t> key{ed.cell, ed.index};
    if (std::find(slots.begin(), slots.end(), key) == slots.end())
      slots.push_back(key);
  }
  // Pre-patch connectivity probes. The view still holds the PRE-edit
  // geometry (the library has moved on, but flat state is a copy), so
  // probing now captures each edited element's old edge set. If the flat
  // view was never materialized there is no old state to probe — and
  // also no cached netlist to preserve (keepPreEditState builds the flat
  // view of every entry holding one before the edits land).
  const bool probed = e.view->flatBuilt(false);
  std::vector<std::size_t> flatIdx;
  std::vector<std::vector<std::size_t>> oldEdges;
  if (probed) {
    obs::ScopedSpan probeSpan("netlist.probe");
    for (const auto& [cell, idx] : slots) {
      const std::vector<std::size_t> ks = e.view->flatSlotsOf(false, cell, idx);
      flatIdx.insert(flatIdx.end(), ks.begin(), ks.end());
    }
    oldEdges.reserve(flatIdx.size());
    for (const std::size_t k : flatIdx)
      oldEdges.push_back(netlist::probeElementEdges(*e.view, tech_, k));
  }
  for (const auto& [cell, idx] : slots)
    if (!e.view->patchElement(cell, idx)) return false;
  // Post-patch probes: every edited flat instance keeping its exact edge
  // set (and net label) means the extraction's union-find partition — and
  // with it net numbering, names, and terminals — is unchanged; only net
  // bboxes (a pure element-bbox fold) can differ.
  bool netKept = probed;
  for (const layout::CellEdit& ed : edits)
    if (ed.oldElement.net != ed.newElement.net) netKept = false;
  if (netKept) {
    obs::ScopedSpan probeSpan("netlist.probe");
    for (std::size_t k = 0; k < flatIdx.size() && netKept; ++k)
      if (netlist::probeElementEdges(*e.view, tech_, flatIdx[k]) !=
          oldEdges[k])
        netKept = false;
  }
  bool bboxSame = true;
  for (const layout::CellEdit& ed : edits)
    if (!(ed.oldCellBBox == ed.newCellBBox)) bboxSame = false;
  {
    std::lock_guard<std::mutex> nlock(e.nlMu);
    if (e.netlist && netKept) {
      auto nl = std::make_shared<netlist::Netlist>(*e.netlist);
      netlist::refreshNetBBoxes(*nl, e.view->flat(false).bboxes);
      e.netlist = std::move(nl);
    } else if (e.netlist) {
      e.netlist.reset();
      e.netlistBytes.store(0, std::memory_order_release);
    }
  }
  e.revision = lib_.revision();
  e.pendingEdits.insert(e.pendingEdits.end(), edits.begin(), edits.end());
  e.netlistKept = e.netlistKept && netKept;
  e.bboxUnchanged = e.bboxUnchanged && bboxSame;
  return true;
}

std::shared_ptr<Workspace::Entry> Workspace::acquire(layout::CellId root,
                                                     bool& hit) {
  if (root < 0 || static_cast<std::size_t>(root) >= lib_.cellCount())
    throw std::invalid_argument("unknown root cell " + std::to_string(root));
  std::lock_guard<std::mutex> lock(cacheMu_);
  std::shared_ptr<Entry>& slot = cache_[root];
  if (slot && slot->revision == lib_.revision()) {
    hit = true;
    ++stats_.viewHits;
    slot->lastUse = ++lruTick_;
    return slot;
  }
  if (slot) {
    // Delta path: when every mutation since the entry's revision is a
    // tracked element edit, patch the cached view in place instead of
    // rebuilding — still a view cache hit, and the entry's incremental
    // state (pending dirty window, netlist) advances with it.
    if (const auto edits = lib_.editsSince(slot->revision);
        edits && tryPatch(*slot, *edits)) {
      hit = true;
      ++stats_.viewHits;
      slot->lastUse = ++lruTick_;
      return slot;
    }
    ++stats_.viewEvictions;
  }
  slot = std::make_shared<Entry>();
  slot->revision = lib_.revision();
  slot->lastUse = ++lruTick_;
  slot->view = std::make_shared<engine::HierarchyView>(lib_, root);
  ++stats_.viewMisses;
  hit = false;
  return slot;
}

void Workspace::enforceCacheLimit() {
  if (opts_.maxCacheBytes == 0) return;
  std::lock_guard<std::mutex> lock(cacheMu_);
  const auto entryBytes = [](const Entry& e) {
    return e.view->memoryBytes() +
           e.netlistBytes.load(std::memory_order_acquire);
  };
  // Evict coldest-first until the accounted total fits, sparing the most
  // recently acquired entry (evicting what we just served would turn a
  // too-small cap into a cold cache on every request). Eviction only
  // drops the map's reference: an in-flight request keeps its entry
  // alive through its own shared_ptr, and a later request on an evicted
  // root transparently rebuilds.
  while (cache_.size() > 1) {
    std::size_t total = 0;
    std::uint64_t newest = 0;
    for (const auto& [root, e] : cache_) {
      (void)root;
      total += entryBytes(*e);
      newest = std::max(newest, e->lastUse);
    }
    if (total <= opts_.maxCacheBytes) return;
    auto coldest = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second->lastUse == newest) continue;
      if (coldest == cache_.end() ||
          it->second->lastUse < coldest->second->lastUse)
        coldest = it;
    }
    if (coldest == cache_.end()) return;
    cache_.erase(coldest);
    ++stats_.lruEvictions;
  }
}

std::shared_ptr<engine::HierarchyView> Workspace::view(layout::CellId root) {
  bool hit = false;
  return acquire(root, hit)->view;
}

std::shared_ptr<const netlist::Netlist> Workspace::netlistFor(
    Entry& e, const netlist::ExtractOptions& opts, engine::Executor& exec,
    bool& hit) {
  // cacheMu_ must NOT be taken while nlMu is held: acquire() patches
  // entries (tryPatch takes nlMu) under cacheMu_, so nesting the other
  // way round is a lock-order inversion.
  std::shared_ptr<const netlist::Netlist> result;
  {
    std::lock_guard<std::mutex> lock(e.nlMu);
    if (e.netlist && e.nlOpts == opts) {
      hit = true;
    } else {
      obs::ScopedSpan extractSpan("netlist.extract");
      e.netlist = std::make_shared<const netlist::Netlist>(
          netlist::extract(*e.view, tech_, exec, opts));
      e.nlOpts = opts;
      e.netlistBytes.store(netlistMemoryBytes(*e.netlist),
                           std::memory_order_release);
      hit = false;
    }
    result = e.netlist;
  }
  if (hit) {
    std::lock_guard<std::mutex> slock(cacheMu_);
    ++stats_.netlistHits;
  }
  return result;
}

CheckResult Workspace::serve(const CheckRequest& req, engine::Executor& exec) {
  CheckResult r;
  r.kind = req.kind;
  r.root = req.root;
  r.tag = req.tag;
  std::shared_ptr<Entry> entry;
  const auto t0 = std::chrono::steady_clock::now();
  // The request's service-side root span: everything below (view
  // acquisition, the check's stages, kernel sections) nests
  // under it, attributed to req.traceId (or the ambient trace).
  obs::ScopedSpan span("serve:" + toString(req.kind), req.traceId);
  try {
    // Edits are applied first, inside the request's serial window; the
    // acquire below then sees the bumped revision and either patches the
    // cached view in place (tracked element edits) or rebuilds.
    if (!req.edits.empty()) {
      keepPreEditState(req.edits);
      applyEdits(req.edits);
    }
    bool viewHit = false;
    {
      obs::ScopedSpan acquireSpan("view.acquire");
      entry = acquire(req.root, viewHit);
    }
    r.viewCacheHit = viewHit;
    r.revision = entry->revision;

    switch (req.kind) {
      case CheckKind::kHierarchicalDrc: {
        drc::Options o;
        o.metric = req.metric;
        o.checkDevices = req.checkDevices;
        o.hierarchicalInteractions = req.hierarchicalInteractions;
        o.useNetInformation = req.useNetInformation;
        o.instantiateViolations = req.instantiateViolations;
        o.extract = req.extract;
        drc::Checker checker(entry->view, tech_, o);
        // Incremental edit-then-check. Signature-gated: the cache serves
        // only requests whose result-affecting options match the run that
        // populated it.
        drc::DirtyInfo dirty;
        bool engaged = false;
        bool populating = false;
        if (o.hierarchicalInteractions &&
            (!entry->icacheOptsSet ||
             sameResultOptions(entry->icacheOpts, o))) {
          if (entry->icache.valid) {
            dirty = drc::computeDirtyInfo(*entry->view, entry->pendingEdits);
            dirty.reuseInteractions =
                entry->netlistKept && entry->bboxUnchanged;
            checker.setIncremental(&entry->icache, &dirty);
            engaged = true;
          } else {
            checker.setIncremental(&entry->icache, nullptr);
            populating = true;
          }
          entry->icacheOpts = o;
          entry->icacheOptsSet = true;
        }
        // The checker's netlist stage goes through the per-view cache:
        // on a hit it is a handoff; on a miss netlistFor extracts and
        // publishes the netlist for later requests on this view.
        bool netlistHit = false;
        checker.setNetlistSupplier(
            [this, entry, &req, &netlistHit](engine::Executor& e) {
              return netlistFor(*entry, req.extract, e, netlistHit);
            });
        r.report = checker.run(exec);
        if (engaged || populating) {
          // The cache now reflects this run: snapshot the cell order it
          // is parallel to, publish validity, and consume the dirty
          // window the run just re-checked.
          entry->icache.cells = entry->view->cells();
          entry->icache.valid = true;
          entry->pendingEdits.clear();
          entry->netlistKept = true;
          entry->bboxUnchanged = true;
        }
        r.incrementalHit = engaged;
        r.netlistCacheHit = netlistHit;
        r.stageTimes = checker.stageTimes();
        r.interactionStats = checker.interactionStats();
        r.netlist = checker.lastNetlist();
        break;
      }
      case CheckKind::kFlatBaselineDrc: {
        baseline::Options o;
        o.metric = req.metric;
        o.checkWidth = req.baselineWidth;
        o.checkSpacing = req.baselineSpacing;
        o.checkContacts = req.baselineContacts;
        r.report = baseline::check(*entry->view, tech_, o, &r.baselineStats);
        break;
      }
      case CheckKind::kErc: {
        r.netlist = netlistFor(*entry, req.extract, exec, r.netlistCacheHit);
        r.report = erc::check(*r.netlist, tech_, req.erc);
        break;
      }
      case CheckKind::kNetlistOnly: {
        r.netlist = netlistFor(*entry, req.extract, exec, r.netlistCacheHit);
        break;
      }
    }
  } catch (const std::exception& ex) {
    r.error = ex.what();
    // A failed run may have partially overwritten the incremental cache's
    // slices; invalidate conservatively (costs one repopulating run).
    if (entry) entry->icache.valid = false;
  } catch (...) {
    r.error = "unknown failure";
    if (entry) entry->icache.valid = false;
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Cache bookkeeping is not part of the request's clock.
  enforceCacheLimit();
  return r;
}

CheckResult Workspace::run(const CheckRequest& req) {
  if (req.threads > 0) {
    engine::Executor dedicated(req.threads);
    return serve(req, dedicated);
  }
  return serve(req, activeExec());
}

std::vector<CheckResult> Workspace::runBatch(
    std::span<const CheckRequest> reqs) {
  std::vector<CheckResult> out;
  out.reserve(reqs.size());
  for (const CheckRequest& r : reqs) out.push_back(run(r));
  return out;
}

Workspace::CacheStats Workspace::cacheStats() const {
  std::lock_guard<std::mutex> lock(cacheMu_);
  CacheStats s = stats_;
  s.cachedViews = cache_.size();
  for (const auto& [root, e] : cache_) {
    (void)root;
    s.cacheBytes += e->view->memoryBytes() +
                    e->netlistBytes.load(std::memory_order_acquire);
  }
  s.scratchBytes = engine::Arena::totalReservedBytes();
  return s;
}

}  // namespace dic
