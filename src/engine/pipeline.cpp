#include "engine/pipeline.hpp"

#include <algorithm>

#include "engine/arena.hpp"
#include "obs/trace.hpp"
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>

namespace dic {
namespace engine {

void Pipeline::add(Stage s) { stages_.push_back(std::move(s)); }

double Pipeline::seconds(const std::string& name) const {
  for (const StageResult& r : results_)
    if (r.name == name) return r.seconds;
  return 0;
}

report::Report Pipeline::run(Executor& exec) {
  const std::size_t n = stages_.size();
  // Resolve dependency names to indices up front.
  std::vector<std::vector<std::size_t>> deps(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& d : stages_[i].deps) {
      bool found = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (stages_[j].name == d) {
          deps[i].push_back(j);
          found = true;
          break;
        }
      }
      if (!found)
        throw std::invalid_argument("pipeline stage '" + stages_[i].name +
                                    "' depends on unknown stage '" + d + "'");
    }
  }

  // Invert into dependents + remaining-dep counters, and reject cycles
  // before anything runs (Kahn's count over a scratch copy).
  std::vector<std::vector<std::size_t>> dependents(n);
  std::vector<int> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = static_cast<int>(deps[i].size());
    for (std::size_t d : deps[i]) dependents[d].push_back(i);
  }
  {
    std::vector<int> scratch = indegree;
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < n; ++i)
      if (scratch[i] == 0) queue.push_back(i);
    std::size_t reachable = 0;
    while (!queue.empty()) {
      const std::size_t i = queue.back();
      queue.pop_back();
      ++reachable;
      for (std::size_t d : dependents[i])
        if (--scratch[d] == 0) queue.push_back(d);
    }
    if (reachable < n)
      throw std::invalid_argument("pipeline has a dependency cycle");
  }

  std::vector<report::Report> reports(n);
  results_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) results_[i].name = stages_[i].name;
  if (n == 0) return {};

  const auto runT0 = std::chrono::steady_clock::now();
  auto runStage = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    results_[i].start = std::chrono::duration<double>(t0 - runT0).count();
    {
      // Per-stage scratch lifetime: anything the stage bump-allocates on
      // this thread is reclaimed when the body returns. Worker threads
      // running the stage's inner parallelFor chunks get the same
      // treatment per index inside the executor.
      ArenaScope scratch(scratchArena());
      // The stage's span carries the stage name verbatim (the trace↔
      // stage-graph consistency contract) and inherits the dispatching
      // thread's trace, which the executor carries into every task.
      obs::ScopedSpan span(stages_[i].name);
      reports[i] = stages_[i].run(exec);
    }
    const auto t1 = std::chrono::steady_clock::now();
    results_[i].seconds = std::chrono::duration<double>(t1 - t0).count();
  };
  // Costlier ready stages start first; declaration order breaks ties.
  auto costOrder = [&](std::vector<std::size_t>& v) {
    std::sort(v.begin(), v.end(), [&](std::size_t a, std::size_t b) {
      if (stages_[a].cost != stages_[b].cost)
        return stages_[a].cost > stages_[b].cost;
      return a < b;
    });
  };

  // Record a throwing stage body in its own results_ slot, so results()
  // names the failed stage; run() then rethrows the exception.
  auto describe = [](std::exception_ptr ep) -> std::string {
    try {
      std::rethrow_exception(ep);
    } catch (const std::exception& ex) {
      return ex.what();
    } catch (...) {
      return "unknown failure";
    }
  };

  std::vector<int> remaining = indegree;
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (remaining[i] == 0) ready.push_back(i);
  costOrder(ready);

  if (exec.threads() <= 1) {
    // Serial dispatch: same ready-queue discipline, fully deterministic
    // order. Exceptions propagate directly (nothing else is in flight).
    while (!ready.empty()) {
      const std::size_t i = ready.front();
      ready.erase(ready.begin());
      try {
        runStage(i);
      } catch (...) {
        results_[i].error = describe(std::current_exception());
        throw;
      }
      for (std::size_t d : dependents[i])
        if (--remaining[d] == 0) ready.push_back(d);
      costOrder(ready);
    }
  } else {
    std::mutex mu;  // guards `remaining` and `errors`
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> failed{false};  // stop starting new bodies
    std::vector<std::exception_ptr> errors(n);
    // Every stage of this run carries one fresh help-scope tag: the
    // coordinator blocked in helpUntil below then steals only this run's
    // stages (and their inner fan-out chunks, which inherit the tag), so
    // a pipeline run sharing the pool with another caller's run never
    // absorbs that run's work into its own wall clock. Pool workers
    // ignore the tag, so work conservation is unaffected.
    const Executor::ScopeId scope = Executor::newScope();
    // Stage tasks run on the pool; each one releases its dependents the
    // moment it completes, so a freed worker flows straight into the
    // next ready stage (or into another stage's inner parallelFor via
    // work-stealing). `dispatch` stays alive for the whole drain because
    // run() blocks in helpUntil below.
    std::function<void(std::size_t)> dispatch = [&](std::size_t i) {
      exec.submit([&, i] {
        if (!failed.load()) {
          try {
            runStage(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            results_[i].error = describe(std::current_exception());
            errors[i] = std::current_exception();
            failed.store(true);
          }
        }
        // After a failure dependents are still dispatched (their tasks
        // skip the stage body) so `completed` reaches n and run()
        // unblocks; matching the serial contract, no further stage
        // bodies execute.
        std::vector<std::size_t> newly;
        {
          std::lock_guard<std::mutex> lock(mu);
          for (std::size_t d : dependents[i])
            if (--remaining[d] == 0) newly.push_back(d);
        }
        costOrder(newly);
        for (std::size_t d : newly) dispatch(d);
        completed.fetch_add(1);
        exec.wake();  // helpUntil's done() may be true now
      }, scope);
    };
    for (std::size_t i : ready) dispatch(i);
    exec.helpUntil([&] { return completed.load() == n; }, scope);
    for (std::size_t i = 0; i < n; ++i)
      if (errors[i]) std::rethrow_exception(errors[i]);
  }

  report::Report merged;
  for (std::size_t i = 0; i < n; ++i) merged.merge(reports[i]);
  return merged;
}

}  // namespace engine
}  // namespace dic
