#pragma once
/// \file workspace.hpp
/// The unified check-service front door.
///
/// The paper's thesis is that DRC, net-list generation, and electrical
/// construction rules "should appropriately be handled by a single
/// program". `dic::Workspace` is that single program's API: it owns the
/// layout library and technology, keeps one persistent worker pool, and
/// serves every kind of check through one value-typed request/result
/// pair. Between requests it caches `engine::HierarchyView`s keyed by
/// (root cell, library revision) -- placements, flat views, and grid
/// indexes built for one request are reused by the next, and a netlist
/// extracted for one request is shared with any later request on the
/// same view with equal extract options. Any library mutation bumps
/// `layout::Library::revision()`, so stale views self-invalidate and the
/// next request transparently rebuilds.
///
/// There is one request path: `runBatch` is `run()` applied to each
/// request in order, so a batch is by definition byte-identical to the
/// same requests run one by one (see docs/workspace.md).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "baseline/flat_drc.hpp"
#include "drc/checker.hpp"
#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "erc/erc.hpp"
#include "layout/library.hpp"
#include "netlist/netlist.hpp"
#include "report/violation.hpp"
#include "tech/technology.hpp"

namespace dic {

/// What a CheckRequest asks the service to run.
enum class CheckKind : std::uint8_t {
  kHierarchicalDrc,  ///< the full DIC pipeline (Fig. 10)
  kFlatBaselineDrc,  ///< the mask-level reference checker
  kErc,              ///< electrical construction rules on the netlist
  kNetlistOnly,      ///< netlist extraction, no checking
};

/// Human-readable kind name ("drc", "baseline", "erc", "netlist").
std::string toString(CheckKind k);

/// One library mutation carried by a request ("edit-then-check"): the
/// Workspace applies it to its owned library through the tracked edit API
/// (layout::Library::setElement and friends) immediately before running
/// the check, inside the request's serial window. kSetElement edits are
/// the incremental fast path: cached views keep their placements and the
/// check re-runs only the dirty window (docs/workspace.md, "Incremental
/// edit-then-check"); every other kind falls back to a full rebuild with
/// identical results.
struct EditOp {
  enum class Kind : std::uint8_t {
    kNone,            ///< no-op (default-constructed)
    kSetElement,      ///< replace cell.elements[index] with `element`
    kAddElement,      ///< append `element` to the cell
    kRemoveElement,   ///< erase cell.elements[index]
    kAddInstance,     ///< append `instance` to the cell
    kRemoveInstance,  ///< erase cell.instances[index]
  };
  Kind kind{Kind::kNone};
  layout::CellId cell{0};
  std::size_t index{0};        ///< element/instance slot (set/remove kinds)
  layout::Element element;     ///< payload for kSetElement / kAddElement
  layout::Instance instance;   ///< payload for kAddInstance

  /// An element-replacing edit (the incremental fast path).
  static EditOp setElement(layout::CellId cell, std::size_t index,
                           layout::Element e);
};

/// One unit of service traffic: which check, on which root, with which
/// knobs. Value-typed and self-contained so requests can be queued,
/// logged, and replayed.
struct CheckRequest {
  /// The check to run.
  CheckKind kind{CheckKind::kHierarchicalDrc};
  /// Root cell of the hierarchy to check.
  layout::CellId root{0};
  /// Distance metric for geometric checks. DIC's reference is Euclidean;
  /// the mask-level baseline traditionally measures orthogonally (the
  /// baseline() factory sets that default).
  geom::Metric metric{geom::Metric::kEuclidean};

  // -- hierarchical-DRC knobs (mirrors drc::Options) ---------------------
  /// Check primitive device symbols (cells marked prechecked are skipped).
  bool checkDevices{true};
  /// Hierarchical interaction algorithm; false = flatten everything.
  bool hierarchicalInteractions{true};
  /// Ablation: false discards net information (mask-level worst case).
  bool useNetInformation{true};
  /// Report each per-cell violation at every instance placement.
  bool instantiateViolations{true};

  // -- flat-baseline knobs (mirrors baseline::Options) -------------------
  /// Baseline: shrink-expand-compare width checking.
  bool baselineWidth{true};
  /// Baseline: expand-check-overlap spacing checking.
  bool baselineSpacing{true};
  /// Baseline: mask-level contact enclosure checking.
  bool baselineContacts{true};

  /// Electrical-rule selection (ERC requests).
  erc::Options erc{};
  /// Netlist extraction options (netlist / ERC / hierarchical-DRC
  /// requests). Requests with equal options share one cached extraction
  /// per view.
  netlist::ExtractOptions extract{};

  /// Library edits to apply (in order, through the tracked edit API)
  /// before this check runs. The mutation and the check are one serial
  /// unit.
  std::vector<EditOp> edits;

  /// Caller correlation tag, echoed untouched in CheckResult::tag.
  std::string tag;

  /// Span-trace attribution (docs/observability.md): 0 = untraced (or
  /// inherit the caller's ambient trace); non-zero makes every span this
  /// request produces — pipeline stages, kernel sections — collectable
  /// under this id. The TCP session sets it to the wire request id;
  /// in-process callers may use obs::newTraceId(). Never serialized in
  /// the kCheck payload.
  std::uint64_t traceId{0};

  /// A hierarchical-DRC request on `root` with reference settings.
  static CheckRequest drc(layout::CellId root);
  /// A mask-level baseline request on `root` (orthogonal metric, the
  /// traditional checker's behavior).
  static CheckRequest baseline(layout::CellId root);
  /// An ERC request on `root`.
  static CheckRequest ercCheck(layout::CellId root);
  /// A netlist-extraction-only request on `root`.
  static CheckRequest netlistOnly(layout::CellId root);
};

/// What came back: the report plus uniform telemetry. Every kind fills
/// `report`, `seconds`, the cache flags, and `revision`; kind-specific
/// fields are documented inline.
struct CheckResult {
  /// The kind of the originating request.
  CheckKind kind{CheckKind::kHierarchicalDrc};
  /// Root cell the request ran on.
  layout::CellId root{0};
  /// All violations (empty for kNetlistOnly).
  report::Report report;
  /// Per-stage wall-clock (hierarchical DRC only; zeros otherwise).
  drc::StageTimes stageTimes;
  /// Interaction-stage statistics (hierarchical DRC only).
  drc::InteractionStats interactionStats;
  /// Mask-level statistics (flat baseline only).
  baseline::Stats baselineStats;
  /// The extracted netlist, shared with the Workspace cache (set for
  /// kNetlistOnly, kErc, and kHierarchicalDrc; null for the baseline,
  /// which by design discards topology).
  std::shared_ptr<const netlist::Netlist> netlist;
  /// True if the (root, revision) hierarchy view came from the cache --
  /// placements, flat views, and grid indexes were NOT rebuilt.
  bool viewCacheHit{false};
  /// True if the netlist was reused from a previous request on this view.
  bool netlistCacheHit{false};
  /// True if this hierarchical-DRC run went through the incremental
  /// cache with dirty-window information — per-cell and per-interaction-
  /// item results untouched by the pending edits were reused instead of
  /// recomputed. (A cold populating run reports false.)
  bool incrementalHit{false};
  /// Library revision this result was computed against.
  std::uint64_t revision{0};
  /// End-to-end wall-clock of this request, seconds. The request's stages
  /// run on the calling thread, which claims only its own loops' indices
  /// (docs/engine.md, "Stage order"), so this clock never absorbs work
  /// another caller queued on a shared pool.
  double seconds{0};
  /// Request tag, echoed back.
  std::string tag;
  /// Empty on success; otherwise the failure description (the request
  /// failed; a batch goes on with its next request).
  std::string error;

  /// True if the request completed without error.
  bool ok() const { return error.empty(); }
};

/// Workspace construction knobs.
struct WorkspaceOptions {
  /// Size of the persistent shared pool: <= 0 selects the host's
  /// hardware concurrency, 1 is fully serial (the deterministic
  /// reference schedule). Ignored when the Workspace is constructed on a
  /// caller-owned executor.
  int threads{0};

  /// LRU cap on the view cache, in accounted bytes (each entry's
  /// engine::HierarchyView::memoryBytes() plus its cached netlist; flat
  /// views and their grid indexes dominate). 0 = unbounded, the classic
  /// editor-session behavior: one live entry per root, stale revisions
  /// evicted on mutation. A server juggling many roots sets a cap: after
  /// every request the coldest entries are evicted (least-recent
  /// acquire first) until the accounted total fits. The entry serving
  /// the most recent request is never evicted, so a single view larger
  /// than the cap still serves (cache-of-one); evicted roots simply
  /// rebuild on their next request — correctness is never affected.
  std::size_t maxCacheBytes{0};
};

/// A long-lived checking session over one library + technology: the
/// service owns the data, callers send CheckRequests. Not itself
/// thread-safe for *callers* (one thread drives run()/runBatch(); the
/// parallelism lives inside), and the library must not be mutated while
/// a run is in flight.
class Workspace {
 public:
  /// Take ownership of the design and its technology. The pool spawns
  /// here and persists until destruction.
  Workspace(layout::Library lib, tech::Technology tech,
            WorkspaceOptions options = {});

  /// Same, but run on a caller-owned executor instead of spawning a
  /// private pool (WorkspaceOptions::threads is ignored; no workers are
  /// created). This is how a dic::server::Server shard hosts many
  /// Workspaces on one per-shard pool. `exec` must outlive the
  /// Workspace.
  Workspace(layout::Library lib, tech::Technology tech,
            engine::Executor& exec, WorkspaceOptions options = {});

  /// The owned library, read-only.
  const layout::Library& library() const { return lib_; }
  /// Mutable library access for edit sessions. Mutations bump
  /// layout::Library::revision(), so cached views self-invalidate on the
  /// next request. Do not mutate while a run is in flight.
  layout::Library& library() { return lib_; }
  /// The owned technology.
  const tech::Technology& technology() const { return tech_; }
  /// The executor requests run on: the private persistent pool, or the
  /// caller-owned one when constructed with the sharing constructor
  /// (benches size their tables off it).
  engine::Executor& executor() { return activeExec(); }

  /// Serve one request. Never throws for per-request failures: a failed
  /// check returns its message in CheckResult::error.
  CheckResult run(const CheckRequest& req);

  /// Serve a batch: run() on each request, in order. Reports, netlists,
  /// cache flags, revisions and errors equal those of the same run()
  /// calls made one by one; a failed request fails alone.
  std::vector<CheckResult> runBatch(std::span<const CheckRequest> reqs);

  /// The cached hierarchy view for `root` at the library's current
  /// revision (building or refreshing it if needed). Exposed so callers
  /// embedding deeper analyses reuse the service's substrate. The next
  /// edit releases its flat views, so references into them do not
  /// outlive the revision they were taken at.
  std::shared_ptr<engine::HierarchyView> view(layout::CellId root);

  /// Cache telemetry, cumulative since construction.
  struct CacheStats {
    std::size_t viewHits{0};       ///< requests served by a cached view
    std::size_t viewMisses{0};     ///< requests that built a fresh view
    std::size_t viewEvictions{0};  ///< stale views dropped after mutation
    std::size_t lruEvictions{0};   ///< cold views dropped by the byte cap
    std::size_t netlistHits{0};    ///< requests served by a cached netlist
    std::size_t cachedViews{0};    ///< live entries right now
    /// Accounted bytes of the live entries right now (views plus cached
    /// netlists) -- what WorkspaceOptions::maxCacheBytes is enforced
    /// against. Maintained incrementally by the views' builders, so the
    /// snapshot is cheap.
    std::size_t cacheBytes{0};
    /// Process-wide bytes reserved by engine::Arena scratch pools (bump
    /// allocators reset per pipeline stage / parallel index). Not counted
    /// against maxCacheBytes: the pools self-bound at their per-thread
    /// high-water mark.
    std::size_t scratchBytes{0};
  };
  /// Snapshot of the cache counters.
  CacheStats cacheStats() const;

 private:
  /// One cached (root, revision) entry: the view plus the lazily shared
  /// netlist extracted from it (default-equal extract options only).
  struct Entry {
    std::uint64_t revision{0};            ///< library revision at build
    std::uint64_t lastUse{0};             ///< LRU tick of the last acquire
    std::shared_ptr<engine::HierarchyView> view;
    std::mutex nlMu;                      ///< guards netlist + nlOpts
    std::shared_ptr<const netlist::Netlist> netlist;
    netlist::ExtractOptions nlOpts;       ///< options netlist was built with
    /// Approximate bytes of the cached netlist, published after each
    /// extraction. Atomic so the LRU accounting can read it without
    /// taking nlMu (which is held across whole extractions).
    std::atomic<std::size_t> netlistBytes{0};

    // --- incremental edit-then-check state -----------------------------
    // Written only inside run()/acquire() under the Workspace's
    // single-driver contract (one thread drives run/runBatch).
    /// Per-unit results of the last signature-matching DRC run on this
    /// view; valid=false until a populating run completes.
    drc::IncrementalCache icache;
    /// Result-affecting options icache was populated with; incremental
    /// serving engages only for requests matching this signature.
    drc::Options icacheOpts;
    bool icacheOptsSet{false};
    /// Tracked edits accepted by the patch path since the last run that
    /// refreshed icache — the dirty window of the next incremental run.
    std::vector<layout::CellEdit> pendingEdits;
    /// No pending patch changed any cell's recursive bbox — windows and
    /// child bboxes are unchanged, the Workspace's interaction-reuse gate
    /// (the checker adds the netlist one, drc::IncrementalCache::netlist).
    bool bboxUnchanged{true};
  };

  engine::Executor& activeExec() { return extExec_ ? *extExec_ : exec_; }
  std::shared_ptr<Entry> acquire(layout::CellId root, bool& hit);
  /// Apply a request's edits to the owned library through the tracked
  /// API (throws on a bad cell/index; the request then fails cleanly).
  void applyEdits(const std::vector<EditOp>& edits);
  /// Try to keep a stale cache entry alive across a tracked edit delta.
  /// On success the view keeps its placements but drops its flat copies
  /// (HierarchyView::dropFlat), the cached netlist is dropped, the
  /// revision and pending-dirty bookkeeping advance, and true is
  /// returned. On false (a device cell or a layer changed) nothing was
  /// touched and the entry must be rebuilt.
  bool tryPatch(Entry& e, const std::vector<layout::CellEdit>& edits);
  std::shared_ptr<const netlist::Netlist> netlistFor(
      Entry& e, const netlist::ExtractOptions& opts, engine::Executor& exec,
      bool& hit);
  /// Evict coldest entries until the accounted bytes fit maxCacheBytes
  /// (no-op when the cap is 0). Runs after every request; never evicts
  /// the most recently acquired entry.
  void enforceCacheLimit();

  layout::Library lib_;
  tech::Technology tech_;
  WorkspaceOptions opts_;
  engine::Executor exec_;
  engine::Executor* extExec_{nullptr};  ///< caller-owned pool, if sharing

  mutable std::mutex cacheMu_;  ///< guards cache_, the counters, lruTick_
  std::map<layout::CellId, std::shared_ptr<Entry>> cache_;
  std::uint64_t lruTick_{0};  ///< bumped per acquire; orders lastUse
  CacheStats stats_;
};

}  // namespace dic
