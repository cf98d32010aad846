#pragma once
/// \file pipeline.hpp
/// The stage runner: a declarative replacement for hard-wired serial
/// stage calls. A Pipeline holds named Stages with explicit dependencies
/// and executes them with a ready-queue dispatcher: every stage carries a
/// remaining-dependency counter, enters the ready queue the moment its
/// last dependency completes, and is started by the shared Executor pool
/// as soon as a worker is free — there is no wave barrier, so a stage
/// whose single dependency finishes early starts while unrelated slow
/// stages are still running. Wall-clock (and start timestamp) is recorded
/// per stage uniformly, and the stage Reports merge in *declaration*
/// order so the final report is independent of the execution schedule.
/// The scheduling model and determinism contract are documented in
/// docs/engine.md.

#include <functional>
#include <string>
#include <vector>

#include "engine/executor.hpp"
#include "report/violation.hpp"

namespace dic {
namespace engine {

/// One named unit of pipeline work. `run` receives the pipeline's
/// executor so a stage can fan its own inner work (per-cell checks,
/// interaction windows) across the same worker pool the dispatcher
/// schedules stages on.
struct Stage {
  std::string name;               ///< unique stage name, used in `deps`
  std::vector<std::string> deps;  ///< names of stages that must finish first
  std::function<report::Report(Executor&)> run;  ///< the stage body

  /// Relative cost hint (any positive scale). When several stages are
  /// ready at once the dispatcher starts the costliest first (declaration
  /// order breaks ties), so long stages — and the dependencies of long
  /// stages — are not stuck behind cheap ones. A hint only: it never
  /// affects results, which are schedule-independent by construction.
  double cost{1.0};
};

/// Timing and outcome of one stage. Each stage writes only its own
/// pre-allocated slot, so the `Pipeline::results()` vector stays in
/// declaration order no matter in which order stages complete.
struct StageResult {
  std::string name;    ///< stage name (copied from the Stage)
  double start{-1.0};  ///< seconds from run() entry to stage start; -1 if
                       ///< the stage never started (earlier failure)
  double seconds{0};   ///< stage wall-clock, 0 if the stage never started
  /// What the stage body threw (exception::what(), or "unknown failure"),
  /// empty if the stage succeeded or never ran. The same exception is
  /// also rethrown from run().
  std::string error;

  /// True if the stage ran to completion.
  bool ok() const { return error.empty() && start >= 0; }
};

/// A DAG of named stages executed by the ready-queue dispatcher.
class Pipeline {
 public:
  /// Append a stage. Declaration order defines the report-merge order and
  /// the deterministic serial schedule's tiebreak.
  void add(Stage s);

  /// Execute all stages on `exec`'s worker pool. Throws
  /// std::invalid_argument on an unknown or cyclic dependency — detected
  /// up front, before any stage runs. Returns the union of all stage
  /// reports, merged in declaration order regardless of how stages were
  /// scheduled. If a stage body throws, no new stages start, running
  /// stages finish, and the failed stage with the lowest declaration
  /// index is rethrown.
  ///
  /// With exec.threads() == 1 the dispatcher degenerates to a fully
  /// deterministic serial schedule (ready stages ordered by cost, then
  /// declaration); with more threads stage *start order* depends on
  /// timing, but the merged report and results() slots do not.
  report::Report run(Executor& exec);

  /// Per-stage timings of the last run, always in declaration order:
  /// slots are pre-allocated before dispatch and each stage writes only
  /// its own, so concurrent completion in any order cannot reorder or
  /// tear this vector. Valid only after run() returned (normally or by
  /// throwing).
  const std::vector<StageResult>& results() const { return results_; }

  /// Seconds spent in a stage during the last run (0 if the stage is
  /// unknown or never started). Declaration-order semantics as
  /// results().
  double seconds(const std::string& name) const;

 private:
  std::vector<Stage> stages_;
  std::vector<StageResult> results_;
};

}  // namespace engine
}  // namespace dic
