#include "service/workspace.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "engine/arena.hpp"
#include "engine/pipeline.hpp"
#include "obs/trace.hpp"

namespace dic {

namespace {

/// Relative stage-cost hints for batch dispatch, mirroring the Fig. 10
/// breakdown: full DIC pipelines dominate, the flat baseline's pair sweep
/// is next, extraction alone is mid-weight, ERC is a netlist walk.
double costHint(CheckKind k) {
  switch (k) {
    case CheckKind::kHierarchicalDrc: return 10.0;
    case CheckKind::kFlatBaselineDrc: return 6.0;
    case CheckKind::kNetlistOnly: return 4.0;
    case CheckKind::kErc: return 1.0;
  }
  return 1.0;
}

/// Does this request kind consume (and so publish) a cached netlist?
bool needsNetlist(CheckKind k) {
  // The baseline by design discards topology; everything else routes
  // through the per-view netlist cache.
  return k != CheckKind::kFlatBaselineDrc;
}

/// Approximate heap bytes of an extracted netlist, for the LRU cap's
/// accounting (the netlist is cached alongside its view).
std::size_t netlistMemoryBytes(const netlist::Netlist& nl) {
  std::size_t b = sizeof(nl) + nl.elementNet.capacity() * sizeof(int);
  for (const netlist::Net& n : nl.nets) {
    b += sizeof(n) + n.terminals.capacity() * sizeof(netlist::Terminal);
    for (const netlist::Terminal& t : n.terminals) b += t.port.capacity();
    for (const std::string& s : n.names) b += sizeof(s) + s.capacity();
  }
  for (const netlist::ExtractedDevice& d : nl.devices) {
    b += sizeof(d) + d.path.capacity() + d.type.capacity();
    // portNets: node per port, key short -- count node overhead + key.
    for (const auto& [port, net] : d.portNets) {
      (void)net;
      b += 3 * sizeof(void*) + sizeof(int) + port.capacity();
    }
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
  // nlMu is held across the extraction on purpose: a second request for
  // the same netlist blocks and then shares the result instead of
  // duplicating the critical-path work. cacheMu_ must NOT be taken while
  // nlMu is held: acquire() patches entries (tryPatch takes nlMu) under
  // cacheMu_, so nesting the other way round is a lock-order inversion.
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
  // acquisition, the check's pipeline stages, kernel sections) nests
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
        // Incremental edit-then-check (serve() only — the decomposed
        // batch path shares entries across concurrently running stages
        // and must not touch the per-entry cache). Signature-gated: the
        // cache serves only requests whose result-affecting options
        // match the run that populated it.
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
        // The pipeline's netlist stage goes through the per-view cache:
        // on a hit it is a handoff; on a miss netlistFor extracts while
        // holding the entry's netlist mutex, so a concurrent request for
        // the same netlist blocks and shares the one extraction instead
        // of duplicating the critical-path work.
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
        r.stageResults = checker.stageResults();
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
  // Edit-carrying requests are barriers: each one's library mutation and
  // check must run alone (the mutation invalidates/patches the very views
  // concurrent stages would be reading). The batch splits at those
  // boundaries — edit-free segments run through the decomposed dispatcher
  // below, each barrier serves serially in order via serve() (which is
  // also where it gets the incremental fast path) — so the result vector
  // is byte-identical to a sequential replay of the whole batch.
  const bool hasEdits =
      std::any_of(reqs.begin(), reqs.end(),
                  [](const CheckRequest& r) { return !r.edits.empty(); });
  if (hasEdits) {
    std::vector<CheckResult> out;
    out.reserve(reqs.size());
    std::size_t i = 0;
    while (i < reqs.size()) {
      if (!reqs[i].edits.empty()) {
        out.push_back(serve(reqs[i], activeExec()));
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < reqs.size() && reqs[j].edits.empty()) ++j;
      std::vector<CheckResult> seg = runBatchImpl(reqs.subspan(i, j - i));
      for (CheckResult& s : seg) out.push_back(std::move(s));
      i = j;
    }
    return out;
  }
  return runBatchImpl(reqs);
}

std::vector<CheckResult> Workspace::runBatchImpl(
    std::span<const CheckRequest> reqs) {
  const std::size_t n = reqs.size();
  std::vector<CheckResult> out(n);
  if (n == 0) return out;

  // Decomposed batch dispatch: instead of scheduling each request as one
  // opaque stage, every request contributes its INNER pipeline stages —
  // view warm-up, netlist extraction, the checks, and a merge — to one
  // batch-wide graph on the ready-queue dispatcher. Cross-request edges
  // express exactly the shared work (one view-build stage per root, one
  // extraction-prefetch stage per (root, ExtractOptions) pair with two or
  // more consumers), so request B's check stages start the moment B's own
  // dependencies finish — while request A's extraction is still running —
  // instead of queueing behind the whole of A. One pipeline run means one
  // help scope spanning the batch: the calling thread helps with any of
  // the batch's stages while it waits. Results stay byte-identical to
  // sequential per-request runs because every stage writes only its own
  // request's slots and each request's report merges its stage slots in
  // the request's own declaration order (the engine contract;
  // docs/workspace.md "Batch dispatch").
  engine::Pipeline pipe;

  // ---- shared view stages: one per unique root -------------------------
  // Entries are acquired up front (HierarchyView construction is lazy and
  // cheap); the stage pays the shared placement build once so consumers
  // start from a warm view. A bad root throws here and poisons exactly
  // the requests on that root (FailurePolicy::kIsolate).
  struct ViewShare {
    layout::CellId root{0};
    std::string name;
    std::shared_ptr<Entry> entry;
    bool hit{false};
  };
  std::vector<ViewShare> views;
  for (const CheckRequest& r : reqs) {
    if (std::find_if(views.begin(), views.end(), [&](const ViewShare& v) {
          return v.root == r.root;
        }) == views.end())
      views.push_back({r.root, "view" + std::to_string(views.size()), {}, false});
  }
  for (ViewShare& v : views) {
    v.entry = acquire(v.root, v.hit);
    pipe.add({v.name,
              {},
              [entry = v.entry](engine::Executor&) {
                entry->view->placements();
                return report::Report{};
              },
              /*cost=*/3.0});
  }
  const auto viewOf = [&](layout::CellId root) -> const ViewShare& {
    return *std::find_if(views.begin(), views.end(),
                         [&](const ViewShare& v) { return v.root == root; });
  };

  // ---- shared netlist prefetch stages ---------------------------------
  // One per (root, extract options) pair that two or more
  // netlist-consuming requests share: the extraction runs exactly once,
  // every consumer's own netlist stage becomes a cache handoff, and no
  // worker is ever pinned blocking on the per-entry netlist mutex. With a
  // single consumer the request's own netlist stage does the extraction
  // directly. A failing prefetch poisons its consumers, which then report
  // the same deterministic failure a sequential run would hit.
  struct NlShare {
    layout::CellId root{0};
    netlist::ExtractOptions opts;
    std::size_t uses{0};
    std::string name;
  };
  std::vector<NlShare> prefetches;
  for (const CheckRequest& r : reqs) {
    if (!needsNetlist(r.kind)) continue;
    auto it = std::find_if(prefetches.begin(), prefetches.end(),
                           [&](const NlShare& p) {
                             return p.root == r.root && p.opts == r.extract;
                           });
    if (it != prefetches.end())
      ++it->uses;
    else
      prefetches.push_back({r.root, r.extract, 1, ""});
  }
  prefetches.erase(std::remove_if(prefetches.begin(), prefetches.end(),
                                  [](const NlShare& p) { return p.uses < 2; }),
                   prefetches.end());
  for (std::size_t k = 0; k < prefetches.size(); ++k) {
    NlShare& p = prefetches[k];
    p.name = "nl" + std::to_string(k);
    pipe.add({p.name,
              {viewOf(p.root).name},
              [this, entry = viewOf(p.root).entry,
               opts = p.opts](engine::Executor& e) {
                bool nlHit = false;
                netlistFor(*entry, opts, e, nlHit);
                return report::Report{};
              },
              costHint(CheckKind::kNetlistOnly)});
  }
  const auto prefetchOf = [&](const CheckRequest& r) -> const NlShare* {
    auto it = std::find_if(prefetches.begin(), prefetches.end(),
                           [&](const NlShare& p) {
                             return p.root == r.root && p.opts == r.extract;
                           });
    return it != prefetches.end() ? &*it : nullptr;
  };

  // ---- per-request stages ---------------------------------------------
  // Stable per-request state the stage bodies write into (slots only;
  // the engine's slot-ordered-merge rule is what keeps the batch
  // byte-identical to sequential runs).
  struct ReqState {
    std::unique_ptr<drc::Checker> checker;  ///< hierarchical DRC only
    report::Report baselineRep;
    baseline::Stats baselineStats;
    report::Report ercRep;
    std::shared_ptr<const netlist::Netlist> netlist;  ///< erc/netlist-only
    bool netlistHit{false};
    std::vector<std::string> ownStages;  ///< declaration order, incl. merge
    const ViewShare* view{nullptr};
    const NlShare* prefetch{nullptr};
  };
  std::vector<ReqState> states(n);

  for (std::size_t i = 0; i < n; ++i) {
    const CheckRequest& req = reqs[i];
    ReqState& st = states[i];
    st.view = &viewOf(req.root);
    st.prefetch = needsNetlist(req.kind) ? prefetchOf(req) : nullptr;
    const std::string pfx = "req" + std::to_string(i) + ":";
    const std::vector<std::string> viewDep = {st.view->name};
    std::vector<std::string> nlDeps = viewDep;
    if (st.prefetch) nlDeps.push_back(st.prefetch->name);
    const std::shared_ptr<Entry> entry = st.view->entry;

    switch (req.kind) {
      case CheckKind::kHierarchicalDrc: {
        drc::Options o;
        o.metric = req.metric;
        o.checkDevices = req.checkDevices;
        o.hierarchicalInteractions = req.hierarchicalInteractions;
        o.useNetInformation = req.useNetInformation;
        o.instantiateViolations = req.instantiateViolations;
        o.extract = req.extract;
        st.checker = std::make_unique<drc::Checker>(entry->view, tech_, o);
        // The request's netlist stage routes through the per-view cache:
        // after the shared prefetch (or a sibling request) published the
        // extraction, this is a handoff.
        st.checker->setNetlistSupplier(
            [this, entry, opts = req.extract, &st](engine::Executor& e) {
              return netlistFor(*entry, opts, e, st.netlistHit);
            });
        std::vector<std::string> prefetchDep;
        if (st.prefetch) prefetchDep.push_back(st.prefetch->name);
        for (engine::Stage& s :
             st.checker->stages(pfx, viewDep, std::move(prefetchDep))) {
          s.traceId = req.traceId;  // this request's span tree, not ambient
          st.ownStages.push_back(s.name);
          pipe.add(std::move(s));
        }
        break;
      }
      case CheckKind::kFlatBaselineDrc: {
        baseline::Options o;
        o.metric = req.metric;
        o.checkWidth = req.baselineWidth;
        o.checkSpacing = req.baselineSpacing;
        o.checkContacts = req.baselineContacts;
        st.ownStages.push_back(pfx + "baseline");
        engine::Stage bs = baseline::stage(pfx + "baseline", viewDep,
                                           entry->view, tech_, o,
                                           &st.baselineRep, &st.baselineStats);
        bs.traceId = req.traceId;
        pipe.add(std::move(bs));
        break;
      }
      case CheckKind::kErc:
      case CheckKind::kNetlistOnly: {
        st.ownStages.push_back(pfx + "netlist");
        pipe.add({pfx + "netlist", std::move(nlDeps),
                  [this, entry, opts = req.extract, &st](engine::Executor& e) {
                    st.netlist = netlistFor(*entry, opts, e, st.netlistHit);
                    return report::Report{};
                  },
                  costHint(CheckKind::kNetlistOnly), req.traceId});
        if (req.kind == CheckKind::kErc) {
          st.ownStages.push_back(pfx + "erc");
          engine::Stage es = erc::stage(pfx + "erc", {pfx + "netlist"},
                                        &st.netlist, tech_, req.erc,
                                        &st.ercRep);
          es.traceId = req.traceId;
          pipe.add(std::move(es));
        }
        break;
      }
    }

    // The merge stage assembles the request's CheckResult from the slots
    // the moment the request's last stage finishes — it does not wait for
    // the rest of the batch. Timing fields are filled post-run from the
    // batch pipeline's results.
    pipe.add({pfx + "merge", st.ownStages,
              [this, &req, &st, &r = out[i], entry](engine::Executor&) {
                r.kind = req.kind;
                r.root = req.root;
                r.tag = req.tag;
                r.revision = entry->revision;
                r.viewCacheHit = st.view->hit;
                r.netlistCacheHit = st.netlistHit;
                switch (req.kind) {
                  case CheckKind::kHierarchicalDrc:
                    r.report = st.checker->report();
                    r.interactionStats = st.checker->interactionStats();
                    r.netlist = st.checker->lastNetlist();
                    break;
                  case CheckKind::kFlatBaselineDrc:
                    r.report = st.baselineRep;
                    r.baselineStats = st.baselineStats;
                    break;
                  case CheckKind::kErc:
                    r.report = st.ercRep;
                    r.netlist = st.netlist;
                    break;
                  case CheckKind::kNetlistOnly:
                    r.netlist = st.netlist;
                    break;
                }
                return report::Report{};
              },
              /*cost=*/0.1, req.traceId});
    st.ownStages.push_back(pfx + "merge");
  }

  // One dispatcher, one help scope, the whole batch: a failing stage
  // poisons only its transitive dependents (that request — and, for a
  // failing shared stage, that root's requests), never its siblings.
  pipe.run(activeExec(), engine::FailurePolicy::kIsolate);

  // ---- post-run: timings and failure reporting ------------------------
  std::map<std::string, const engine::StageResult*> byName;
  for (const engine::StageResult& r : pipe.results()) byName[r.name] = &r;
  for (std::size_t i = 0; i < n; ++i) {
    const CheckRequest& req = reqs[i];
    ReqState& st = states[i];
    CheckResult& r = out[i];
    // Shared stages first so the root cause's message wins over a
    // dependent's skip.
    std::vector<const engine::StageResult*> chain;
    chain.push_back(byName.at(st.view->name));
    if (st.prefetch) chain.push_back(byName.at(st.prefetch->name));
    for (const std::string& nm : st.ownStages) chain.push_back(byName.at(nm));
    std::string err;
    bool failed = false;
    for (const engine::StageResult* sr : chain) {
      if (sr->ok()) continue;
      failed = true;
      if (err.empty() && !sr->error.empty()) err = sr->error;
    }
    const auto spanOf = [](const std::vector<const engine::StageResult*>& c) {
      double first = -1.0, last = 0.0;
      for (const engine::StageResult* sr : c) {
        if (sr->start < 0) continue;
        if (first < 0 || sr->start < first) first = sr->start;
        last = std::max(last, sr->start + sr->seconds);
      }
      return first >= 0 ? last - first : 0.0;
    };
    if (failed) {
      // The merge stage was skipped; fill the identity fields here. The
      // clock spans everything the failed request's chain actually ran
      // (shared stages included — the failure often lives there), so a
      // failed request is never reported as zero-cost.
      r.kind = req.kind;
      r.root = req.root;
      r.tag = req.tag;
      r.revision = st.view->entry->revision;
      r.viewCacheHit = st.view->hit;
      r.seconds = spanOf(chain);
      r.error = err.empty() ? "batch stage skipped: dependency failed" : err;
      continue;
    }
    // The request's clock spans its own stages (batch-relative starts);
    // shared prefetch work is deliberately outside it, mirroring how a
    // warm sequential run would not pay for it either.
    std::vector<const engine::StageResult*> own;
    for (const std::string& nm : st.ownStages) own.push_back(byName.at(nm));
    r.seconds = spanOf(own);
    if (req.kind == CheckKind::kHierarchicalDrc) {
      const std::string pfx = "req" + std::to_string(i) + ":";
      for (const char* name :
           {"elements", "symbols", "connections", "netlist", "interactions"}) {
        engine::StageResult sr = *byName.at(pfx + name);
        sr.name = name;  // canonical stage names, as a standalone run
        r.stageResults.push_back(std::move(sr));
      }
      r.stageTimes.elements = r.stageResults[0].seconds;
      r.stageTimes.symbols = r.stageResults[1].seconds;
      r.stageTimes.connections = r.stageResults[2].seconds;
      r.stageTimes.netlist = r.stageResults[3].seconds;
      r.stageTimes.interactions = r.stageResults[4].seconds;
    }
  }
  enforceCacheLimit();
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
