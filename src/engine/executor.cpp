#include "engine/executor.hpp"

#include <algorithm>

#include "engine/arena.hpp"
#include "obs/trace.hpp"
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dic {
namespace engine {

namespace {

/// Identifies the pool (and worker slot) the current thread belongs to,
/// so a nested parallelFor's chunks land on the calling worker's own
/// deque.
struct WorkerIdentity {
  void* pool{nullptr};
  std::size_t id{0};
};
thread_local WorkerIdentity tlWorker;

}  // namespace

struct Executor::Pool {
  /// A queued task plus the submitter's trace context — whichever worker
  /// runs the task adopts the context so spans it emits parent under the
  /// submitter's span.
  struct Task {
    std::function<void()> fn;
    obs::TraceContext trace;
  };

  /// One worker's deque. Owner pops LIFO from the back, thieves pop FIFO
  /// from the front. Mutex-guarded: tasks here are coarse (loop chunks),
  /// so contention is negligible and lock-free Chase-Lev machinery would
  /// buy nothing.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> q;
  };

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> workers;
  std::mutex sleepMu;
  std::condition_variable cv;
  // Counted *before* a task becomes visible in a deque and decremented
  // *after* it is removed, so "queued > 0" can transiently overshoot but
  // never undershoot — sleepers can wake spuriously but never miss work.
  std::atomic<std::size_t> queued{0};
  std::atomic<std::size_t> rr{0};  ///< round-robin cursor, external pushes
  std::atomic<bool> stop{false};

  explicit Pool(std::size_t nWorkers) {
    queues.reserve(nWorkers);
    for (std::size_t i = 0; i < nWorkers; ++i)
      queues.push_back(std::make_unique<WorkerQueue>());
    workers.reserve(nWorkers);
    for (std::size_t i = 0; i < nWorkers; ++i)
      workers.emplace_back([this, i] { workerLoop(i); });
  }

  ~Pool() {
    stop.store(true);
    {
      std::lock_guard<std::mutex> lock(sleepMu);
      cv.notify_all();
    }
    for (std::thread& t : workers) t.join();
  }

  void push(Task task) {
    std::size_t target;
    if (tlWorker.pool == this) {
      target = tlWorker.id;  // nested fan-out: own deque, stolen if busy
    } else {
      target = rr.fetch_add(1) % queues.size();
    }
    queued.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(queues[target]->mu);
      queues[target]->q.push_back(std::move(task));
    }
    std::lock_guard<std::mutex> lock(sleepMu);
    cv.notify_all();
  }

  bool popBack(std::size_t qi, Task& out) {
    WorkerQueue& wq = *queues[qi];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (wq.q.empty()) return false;
    out = std::move(wq.q.back());
    wq.q.pop_back();
    queued.fetch_sub(1);
    return true;
  }

  bool popFront(std::size_t qi, Task& out) {
    WorkerQueue& wq = *queues[qi];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (wq.q.empty()) return false;
    out = std::move(wq.q.front());
    wq.q.pop_front();
    queued.fetch_sub(1);
    return true;
  }

  /// Own deque first (LIFO), then steal round-robin (FIFO).
  bool tryAcquire(std::size_t self, Task& out) {
    if (popBack(self, out)) return true;
    const std::size_t w = queues.size();
    for (std::size_t k = 1; k < w; ++k)
      if (popFront((self + k) % w, out)) return true;
    return false;
  }

  void workerLoop(std::size_t id) {
    tlWorker = {this, id};
    Task task;
    while (true) {
      if (tryAcquire(id, task)) {
        obs::ContextGuard trace(task.trace);
        task.fn();
        task.fn = nullptr;
        continue;
      }
      std::unique_lock<std::mutex> lock(sleepMu);
      if (stop.load() && queued.load() == 0) return;
      cv.wait(lock,
              [this] { return stop.load() || queued.load() > 0; });
      if (stop.load() && queued.load() == 0) return;
    }
  }
};

Executor::Executor(int threads) {
  threads_ = threads <= 0 ? hardwareThreads() : threads;
  if (threads_ > 1)
    pool_ = std::make_unique<Pool>(static_cast<std::size_t>(threads_ - 1));
}

Executor::~Executor() = default;

int Executor::hardwareThreads() {
  static const int cached = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
  }();
  return cached;
}

namespace {

/// Shared state of one parallelFor: participants claim indices from
/// `next`, bump `done` per claimed index (run or skipped after a
/// failure), and the last one notifies the waiting caller. Held by
/// shared_ptr so chunk tasks that run after the caller returned (they
/// find next >= n and exit without touching fn) stay safe.
struct ForState {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::size_t n{0};
  const std::function<void(std::size_t)>* fn{nullptr};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
};

}  // namespace

void Executor::parallelFor(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (!pool_ || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      ArenaScope scratch(scratchArena());
      fn(i);
    }
    return;
  }
  auto st = std::make_shared<ForState>();
  st->n = n;
  st->fn = &fn;
  auto body = [st] {
    for (std::size_t i; (i = st->next.fetch_add(1)) < st->n;) {
      if (!st->failed.load(std::memory_order_relaxed)) {
        try {
          // Per-index scratch lifetime on whichever thread claims the
          // index: a mark/release pair, no heap traffic.
          ArenaScope scratch(scratchArena());
          (*st->fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(st->mu);
          if (!st->error) st->error = std::current_exception();
          st->failed.store(true, std::memory_order_relaxed);
        }
      }
      if (st->done.fetch_add(1) + 1 == st->n) {
        // Lock pairs with the caller's predicate check so the final
        // notify cannot slip between its check and its sleep.
        std::lock_guard<std::mutex> lock(st->mu);
        st->cv.notify_all();
      }
    }
  };
  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_) - 1, n - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    pool_->push({body, obs::currentContext()});
  body();  // the caller claims indices too — the loop never needs the pool
  {
    // Deliberate policy: during the loop tail (indices all claimed, a
    // few still in flight on other workers) the caller sleeps instead of
    // stealing pool tasks. Stealing would keep the core busy, but a
    // stolen chunk of another caller's loop would delay this loop's
    // return by that loop's remaining work and inflate the caller's
    // measured wall-clock with unrelated work — and the tail window is
    // at most one work item long.
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&] { return st->done.load() == st->n; });
  }
  // Serial contract: the first failure surfaces to the caller once the
  // loop has quiesced; remaining indices were abandoned.
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace engine
}  // namespace dic
