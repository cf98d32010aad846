#pragma once
/// \file checker.hpp
/// The DIC pipeline (Fig. 10 of the paper):
///
///   PARSE CIF -> CHECK ELEMENTS -> CHECK PRIMITIVE SYMBOLS ->
///   CHECK LEGAL CONNECTIONS -> GENERATE HIERARCHICAL NET LIST ->
///   CHECK INTERACTIONS
///
/// Every stage works on the *hierarchical* database: element and device
/// checks run once per symbol definition (not once per instance) and
/// violations are then instantiated at each placement; interaction checks
/// descend into instance-overlap windows only.
///
/// Checker::run calls the five stages in that order on one shared
/// engine::HierarchyView. Each stage fans its per-cell checks (or
/// interaction windows) across one Options::threads-sized work-stealing
/// pool and merges them in a deterministic order, so threads=N output is
/// byte-identical to threads=1 (see docs/engine.md).

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "layout/library.hpp"
#include "netlist/netlist.hpp"
#include "report/violation.hpp"
#include "tech/technology.hpp"

namespace dic::drc {

/// Checking options.
struct Options {
  geom::Metric metric{geom::Metric::kEuclidean};
  /// Check primitive device symbols (the paper gives this stage low
  /// priority -- "primitive symbols are assumed to be prechecked" -- but
  /// implements it; cells with Cell::prechecked set are skipped).
  bool checkDevices{true};
  /// Use the hierarchical interaction algorithm (per-cell-once plus
  /// overlap windows). false: flatten everything (exact reference mode).
  bool hierarchicalInteractions{true};
  /// Ablation: discard net information during interaction checking, as a
  /// mask-level checker must. Every pair then uses the worst-case rule
  /// (NetRelation::kUnknown) -- reintroducing the paper's false errors.
  bool useNetInformation{true};
  /// Report each per-cell violation at every instance placement.
  bool instantiateViolations{true};
  /// Worker budget for the whole run: every stage's inner fan-out
  /// (per-cell checks, interaction windows) runs on one engine::Executor
  /// work-stealing pool of this size, so at most `threads` workers are
  /// ever active. The stages themselves run one after another on the
  /// calling thread. Semantics:
  ///   - threads <= 0: use the host's hardware concurrency, resolved
  ///     once per process (engine::Executor::hardwareThreads()).
  ///   - threads == 1: fully serial — the deterministic reference
  ///     schedule (stages in order, indices ascending).
  ///   - threads >= 2: threads-1 pool workers plus the calling thread.
  /// The report text is byte-identical for every value (slot-ordered
  /// merging; see docs/engine.md for the determinism contract).
  int threads{1};
  /// Options for the pipeline's netlist-generation stage (label merging,
  /// global-name prefixes). Requests that share a hierarchy view and
  /// equal extract options can share the extracted netlist (the
  /// dic::Workspace cache does exactly that).
  netlist::ExtractOptions extract{};
};

/// Wall-clock per stage, seconds (Fig. 10 breakdown bench). Stages run
/// one after another, so total() is the run's wall time minus the
/// report merges between them. A stage that never started (an earlier
/// stage threw) keeps 0.
struct StageTimes {
  double elements{0};
  double symbols{0};
  double connections{0};
  double netlist{0};
  double interactions{0};
  double total() const {
    return elements + symbols + connections + netlist + interactions;
  }
};

/// Statistics of the interaction stage (Fig. 12 bench): how many candidate
/// pairs fell into each sub-case and how many were pruned.
struct InteractionStats {
  std::size_t candidatePairs{0};
  std::size_t sameNetSkipped{0};
  std::size_t relatedSkipped{0};
  std::size_t noRulePairs{0};
  std::size_t distanceChecks{0};
  std::size_t connectionChecks{0};
  /// Checks per (layerA, layerB) matrix cell, layerA <= layerB.
  std::map<std::pair<int, int>, std::size_t> perLayerPair;

  /// Accumulate another worker's counts (all fields are additive).
  void merge(const InteractionStats& o) {
    candidatePairs += o.candidatePairs;
    sameNetSkipped += o.sameNetSkipped;
    relatedSkipped += o.relatedSkipped;
    noRulePairs += o.noRulePairs;
    distanceChecks += o.distanceChecks;
    connectionChecks += o.connectionChecks;
    for (const auto& [k, v] : o.perLayerPair) perLayerPair[k] += v;
  }
};

/// Reusable per-unit results of one hierarchical-DRC run, the substrate of
/// incremental edit-then-check. Byte-identity is preserved *structurally*:
/// the cache stores whole per-unit reports (per-cell stage reports, per
/// interaction item) keyed by the same deterministic unit identities a cold
/// run enumerates, and an incremental run recomputes only units an edit
/// could affect, merging cached and fresh results in the identical unit
/// order. Violations are never spliced geometrically, so a hit-path report
/// is the byte-for-byte cold report by construction.
///
/// One cache belongs to one (view, Options signature) pair; the Workspace
/// owns it per library entry and only engages it when the request's
/// result-affecting options match the options of the populating run.
/// Thread-safety: during a run each stage writes only its own slice
/// (perCell[i] by stage i, items by the interaction stage's serial merge
/// loop), so no locking is needed; `valid` and `cells` are set by the
/// orchestrator between runs.
struct IncrementalCache {
  /// Cells snapshot (view cells() order) the per-cell reports are
  /// parallel to; reuse requires it to equal the current view's cells().
  std::vector<layout::CellId> cells;
  /// Per-cell reports of the three per-cell stages (elements, symbols,
  /// connections), each parallel to `cells`.
  std::array<std::vector<report::Report>, 3> perCell;

  /// Identity of one hierarchical interaction item (see interaction.cpp:
  /// kind 0 = intra-cell, 1 = element-vs-child window, 2 = child-pair
  /// window). Stable across runs as long as the hierarchy structure is
  /// unchanged (child indexes are instance-vector positions).
  struct ItemKey {
    layout::CellId cell{0};
    int kind{0};
    std::size_t childA{0};
    std::size_t childB{0};
    bool operator<(const ItemKey& o) const {
      if (cell != o.cell) return cell < o.cell;
      if (kind != o.kind) return kind < o.kind;
      if (childA != o.childA) return childA < o.childA;
      return childB < o.childB;
    }
  };
  struct ItemResult {
    report::Report report;
    InteractionStats stats;
  };
  std::map<ItemKey, ItemResult> items;

  /// Opaque per-cell prepared-shape cache owned by the interaction stage
  /// (the concrete type is private to interaction.cpp). Shapes depend
  /// only on a cell's elements and the technology, so on the fast path
  /// entries for cells untouched by the pending edits are reused and
  /// only dirty cells pay region/skeleton construction again.
  std::shared_ptr<void> shapeCache;

  /// Set by the orchestrator after a successful populating run; cleared
  /// whenever an edit falls off the incremental fast path.
  bool valid{false};
};

/// What an accepted edit batch dirtied, consumed by Checker::setIncremental.
/// Computed by computeDirtyInfo from the library's tracked CellEdits.
struct DirtyInfo {
  /// Cells whose *own* elements changed; per-cell stages recompute exactly
  /// these (stages 1-3 are functions of a cell's own content only).
  std::set<layout::CellId> dirtyCells;
  /// Union of old+new bboxes of edited elements, per cell, in that cell's
  /// local coordinates — propagated bottom-up so an ancestor's rect list
  /// covers every edit anywhere in its subtree (capped by hull collapse).
  /// Drives the interaction stage's per-item affectedness test.
  std::map<layout::CellId, std::vector<geom::Rect>> dirtyRects;
  /// True when the cached netlist was reused AND no cell bbox changed, the
  /// preconditions for per-item interaction reuse (net relations, child
  /// bboxes, and windows are then all unchanged). When false the
  /// interaction stage recomputes everything (and repopulates the cache).
  bool reuseInteractions{false};
};

/// Build a DirtyInfo from tracked element edits: dirtyCells = edited
/// cells, dirtyRects = old+new element bboxes propagated to every ancestor
/// through instance transforms (cells() post-order guarantees children are
/// final before parents fold them in). reuseInteractions is left false;
/// the caller sets it once it knows the netlist-reuse and bbox outcomes.
DirtyInfo computeDirtyInfo(const engine::HierarchyView& view,
                           const std::vector<layout::CellEdit>& edits);

class Checker {
 public:
  Checker(const layout::Library& lib, layout::CellId root,
          const tech::Technology& tech, Options options = {});

  /// Share an existing hierarchy view (and everything it has lazily
  /// built: placements, flat views, grid indexes) instead of rebuilding
  /// from scratch -- the Workspace's per-(root, revision) cache hands its
  /// views to checkers through this constructor. `view` must be non-null
  /// and its library must outlive the checker.
  Checker(std::shared_ptr<engine::HierarchyView> view,
          const tech::Technology& tech, Options options = {});

  /// Run the five stages in Fig. 10 order; returns all violations merged
  /// in that order. Creates a pool of Options::threads workers for this
  /// run.
  report::Report run();

  /// Same, on a caller-owned executor (a Workspace's persistent pool).
  /// Options::threads is ignored; `exec` sizes all parallelism. Results
  /// are byte-identical to run() for every pool size.
  report::Report run(engine::Executor& exec);

  // Individual stages (callable independently; run() calls them in
  // this order with the same semantics).
  report::Report checkElements();
  report::Report checkPrimitiveSymbols();
  report::Report checkConnections();
  netlist::Netlist generateNetlist();
  report::Report checkInteractions(const netlist::Netlist& nl);

  const StageTimes& stageTimes() const { return times_; }

  const InteractionStats& interactionStats() const { return istats_; }

  /// Route the pipeline's netlist stage through a caller-owned producer
  /// instead of extracting directly. The Workspace uses this to funnel
  /// the stage through its per-view netlist cache: on a cache hit the
  /// stage is a handoff, and on a miss the extraction is published for
  /// later requests on the same view. The supplier runs inside the
  /// netlist stage (on run()'s executor) and must return a
  /// netlist equivalent to extracting this checker's view with
  /// Options::extract -- extraction is deterministic, so the report is
  /// byte-identical either way.
  void setNetlistSupplier(
      std::function<std::shared_ptr<const netlist::Netlist>(
          engine::Executor&)> supplier) {
    supplier_ = std::move(supplier);
  }

  /// The netlist generated (or reused) by the last run(); null before the
  /// netlist stage has completed. Callers cache this alongside the view
  /// so later requests skip extraction.
  std::shared_ptr<const netlist::Netlist> lastNetlist() const { return nl_; }

  /// The shared hierarchy view all stages run on.
  engine::HierarchyView& view() { return *view_; }

  /// Engage incremental checking for the next run. `cache` (caller-owned,
  /// outliving the run) receives this run's per-unit results. With
  /// `dirty` == nullptr the run is a cold populate: every unit computes
  /// and the cache fills. With `dirty` set, units untouched per DirtyInfo
  /// reuse their cached reports and only dirty units recompute — the
  /// merged output stays byte-identical to a cold run because units and
  /// merge order are unchanged. The caller must guarantee the cache was
  /// populated against the same view and result-affecting Options;
  /// stale-looking caches (cells mismatch) degrade safely to full
  /// recompute. Pass (nullptr, nullptr) to disengage.
  void setIncremental(IncrementalCache* cache, const DirtyInfo* dirty) {
    icache_ = cache;
    idirty_ = dirty;
  }

 private:
  report::Report checkElementsImpl(engine::Executor& exec);
  report::Report checkPrimitiveSymbolsImpl(engine::Executor& exec);
  report::Report checkConnectionsImpl(engine::Executor& exec);
  report::Report checkInteractionsImpl(const netlist::Netlist& nl,
                                       engine::Executor& exec);

  /// Fan `fn` across reachable cells; merge per-cell reports in the
  /// deterministic cells() order. `cacheSlot` (0..2) selects the
  /// IncrementalCache::perCell slice this stage reads/writes when
  /// incremental mode is engaged; on reuse only DirtyInfo::dirtyCells
  /// recompute and clean cells take their cached report.
  report::Report perCellStage(
      engine::Executor& exec, int cacheSlot,
      const std::function<void(layout::CellId, report::Report&)>& fn);

  /// Emit a per-cell violation at every placement of `cell`.
  void emitInstantiated(report::Report& rep, layout::CellId cell,
                        report::Violation v);

  const layout::Library& lib_;
  layout::CellId root_;
  const tech::Technology& tech_;
  Options opt_;
  std::shared_ptr<engine::HierarchyView> view_;  ///< never null
  std::function<std::shared_ptr<const netlist::Netlist>(engine::Executor&)>
      supplier_;
  std::shared_ptr<const netlist::Netlist> nl_;
  StageTimes times_;
  InteractionStats istats_;
  IncrementalCache* icache_{nullptr};
  const DirtyInfo* idirty_{nullptr};
};

}  // namespace dic::drc
