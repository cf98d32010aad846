#pragma once
/// \file executor.hpp
/// The engine's parallel executor: a persistent worker pool with per-worker
/// task deques and work-stealing, driven by one operation, `parallelFor`.
/// The Fig. 10 stages run one after another on the calling thread and
/// each fans its per-cell checks or interaction windows across the pool;
/// a nested `parallelFor` (a loop inside a loop body) puts its chunks on
/// the calling worker's own deque, where idle workers steal them.
///
/// Determinism contract: `parallelFor` gives no ordering guarantee on when
/// fn(i) runs, so callers that need serial-identical output write each
/// index's result into its own slot and merge slots in index order after
/// the fan-out completes. Every parallel consumer in this codebase follows
/// that pattern, which is why `--threads N` output is byte-identical to
/// serial. The full contract is documented in docs/engine.md.

#include <cstddef>
#include <functional>
#include <memory>

/// \namespace dic
/// Root namespace of the DIC reproduction.
namespace dic {
/// \namespace dic::engine
/// The execution engine: the shared hierarchy view and the work-stealing
/// executor.
namespace engine {

/// A persistent pool of `threads() - 1` worker threads plus the calling
/// thread. With one thread no pool is spawned and every operation runs
/// inline on the caller, in ascending index order — the serial reference
/// schedule.
///
/// Each worker owns a deque: it pushes and pops its own work LIFO (cache
/// locality for nested fan-outs) and steals FIFO from other workers when
/// its deque is empty, so outer and nested loop chunks balance across the
/// pool without a central queue bottleneck. Tasks are coarse (one chunk
/// task per participating worker per loop), so the deques are
/// mutex-guarded rather than lock-free.
///
/// The destructor stops and joins the workers; any task still queued is
/// drained first. parallelFor returns only after every index of its loop
/// has completed; a chunk task dequeued later finds no index left and
/// exits.
class Executor {
 public:
  /// threads <= 0 selects the cached hardware concurrency
  /// (hardwareThreads()); 1 is fully serial. threads - 1 pool workers are
  /// spawned immediately and live until destruction.
  explicit Executor(int threads = 1);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The worker budget: pool workers plus the participating caller.
  int threads() const { return threads_; }

  /// std::thread::hardware_concurrency resolved once per process and
  /// cached (the lookup can be a syscall; benches also use this to label
  /// thread-sweep tables with the actual worker count).
  static int hardwareThreads();

  /// Run fn(i) for every i in [0, n), dynamically scheduled across up to
  /// threads() participants (the caller claims indices too); blocks until
  /// every claimed index has completed. With one worker (or n <= 1) runs
  /// inline, in ascending index order. fn must be safe to call
  /// concurrently for distinct i; a throwing fn surfaces its first
  /// exception to the caller after the loop quiesces (remaining indices
  /// are abandoned). The caller claims only this loop's indices, never
  /// another caller's work, so its wall clock measures this loop alone.
  /// Safe to call from inside another loop's body: the nested loop's
  /// chunks go to the worker's own deque where idle workers steal them,
  /// and the nested caller always drains its own loop, so progress never
  /// depends on pool capacity.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Pool;  ///< worker threads, deques, and sleep/wake bookkeeping

  int threads_{1};
  std::unique_ptr<Pool> pool_;  ///< null when threads_ == 1 (serial mode)
};

}  // namespace engine
}  // namespace dic
