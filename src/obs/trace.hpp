#pragma once
/// \file trace.hpp
/// Request-scoped span tracing (docs/observability.md). One request's
/// journey — session decode, shard queue wait, pipeline stages, kernel
/// sections — is recorded as a tree of spans sharing a trace id, across
/// every thread that touched it. Emission is thread-local and lock-free:
/// each thread stages finished spans in its own buffer and hands them to
/// the central bounded ring only when its span nesting returns to depth
/// zero (or the staging buffer fills), so by the time a request's
/// outermost span closes its whole subtree on that thread is visible in
/// the ring, and no thread ever reads another thread's buffer.
///
/// Cost contract: with the runtime flag off (the default), opening a span
/// is one relaxed atomic load and a branch. Building with
/// -DDIC_TRACING_ENABLED=0 (CMake option DIC_TRACING=OFF) compiles every
/// emission site to nothing.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef DIC_TRACING_ENABLED
/// Compile-time master switch; the build sets it to 0 (CMake option
/// DIC_TRACING=OFF) to compile all span emission out of the binary.
#define DIC_TRACING_ENABLED 1
#endif

namespace dic {
/// \namespace dic::obs
/// Observability: span tracing and the metrics registry.
namespace obs {

/// One finished span, as staged per-thread and stored in the ring.
/// Timestamps are monotonic nanoseconds from a process-local epoch
/// (obs::nowNs), so spans from different threads order correctly.
struct SpanRecord {
  std::uint64_t traceId{0};  ///< the request/trace this span belongs to
  std::uint64_t spanId{0};   ///< process-unique id of this span
  std::uint64_t parentId{0}; ///< enclosing span's id, 0 for a trace root
  std::uint64_t startNs{0};  ///< monotonic start, ns since process epoch
  std::uint64_t durNs{0};    ///< duration in nanoseconds
  std::uint32_t tid{0};      ///< small sequential id of the emitting thread
  char name[43]{};           ///< NUL-terminated section name (truncated)
  std::uint8_t pad{0};       ///< explicit tail padding, always 0

  /// The span's name as a view over the embedded buffer.
  std::string_view label() const { return std::string_view(name); }
};

/// The ambient trace identity of the current thread: which trace new
/// spans join and which span becomes their parent. Captured into task
/// closures by engine::Executor and re-installed (ContextGuard) in the
/// task body, so parent/child links survive work stealing.
struct TraceContext {
  std::uint64_t traceId{0};  ///< 0 = not inside any trace
  std::uint64_t spanId{0};   ///< current innermost span (new spans' parent)
};

/// The process-wide span sink: a mutex-guarded bounded ring fed by the
/// per-thread staging buffers, plus a small retained-trace side table for
/// slow requests that must outlive ring churn. All methods are
/// thread-safe.
class Tracer {
 public:
  /// The singleton sink (thread-local staging makes per-instance tracers
  /// impractical; tests clear() between cases instead).
  static Tracer& instance();

  /// Flip the runtime flag. Spans opened while disabled are never
  /// recorded; spans already open keep recording so a mid-request flip
  /// cannot tear a trace.
  void setEnabled(bool on);

  /// The runtime flag (relaxed load — the span fast path).
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Resize the central ring (default 65536 spans). Drops current
  /// contents.
  void setCapacity(std::size_t spans);

  /// Drop ring contents, retained traces, and the dropped counter.
  /// Staged-but-unflushed spans on other threads survive and will land
  /// in the ring at their next flush.
  void clear();

  /// Spans overwritten (ring wrap) since the last clear().
  std::size_t dropped() const;

  /// Every span currently in the ring, oldest first.
  std::vector<SpanRecord> snapshot() const;

  /// All spans of one trace: retained copy first if present, else
  /// whatever the ring still holds, in arrival order.
  std::vector<SpanRecord> collect(std::uint64_t traceId) const;

  /// Copy a trace's ring spans into the retained side table so later
  /// collect() calls survive ring wrap (the slow-request hook). At most
  /// kMaxRetained traces are kept; the oldest retained trace is evicted.
  void retain(std::uint64_t traceId);

  /// Append a batch of finished spans from a thread's staging buffer.
  /// Called by the emission machinery, not by users.
  void sink(const SpanRecord* first, std::size_t n);

  /// Retained-trace table capacity (oldest-evicted).
  static constexpr std::size_t kMaxRetained = 32;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;       ///< circular once full
  std::size_t capacity_{65536};
  std::size_t head_{0};                ///< next overwrite slot once full
  std::size_t dropped_{0};
  std::map<std::uint64_t, std::vector<SpanRecord>> retained_;
  std::vector<std::uint64_t> retainOrder_;  ///< eviction order (FIFO)
};

/// Monotonic nanoseconds since a process-local epoch (steady_clock).
std::uint64_t nowNs();

/// Mint a trace id for an in-process root (bit 63 set, so ids never
/// collide with wire request ids, which the TCP session uses directly).
std::uint64_t newTraceId();

/// Render spans as Chrome/Perfetto trace_event JSON ("X" complete
/// events, microsecond timestamps). Load the result in ui.perfetto.dev
/// or chrome://tracing. Ids are emitted as decimal strings in args to
/// dodge JSON double precision.
std::string toChromeTraceJson(const std::vector<SpanRecord>& spans);

#if DIC_TRACING_ENABLED

/// The calling thread's ambient trace identity (zeroes outside a trace).
TraceContext currentContext();

/// Install a trace identity on the calling thread (task-body adoption;
/// prefer ContextGuard).
void setCurrentContext(const TraceContext& ctx);

/// RAII: install a captured TraceContext for a task body and restore the
/// previous one on exit. engine::Executor wraps every stolen task in one
/// so spans emitted on the thief parent correctly.
class ContextGuard {
 public:
  /// Installs `ctx`; the destructor restores what was there before.
  explicit ContextGuard(const TraceContext& ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext prev_;
};

/// RAII: one named span. Opens under the ambient context (no-op when
/// tracing is disabled or the thread is outside any trace) and records
/// itself into the thread's staging buffer on destruction. The two-arg
/// form overrides/starts the trace id — the Workspace uses it to root a
/// request's serve span in that request's trace, and servers use it to
/// root a request's trace from its wire id.
class ScopedSpan {
 public:
  /// Open a span named `name` in the ambient trace (inactive if none).
  explicit ScopedSpan(std::string_view name);
  /// Open a span named `name` in trace `traceId` (0 falls back to the
  /// ambient trace), becoming the thread's current context.
  ScopedSpan(std::string_view name, std::uint64_t traceId);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void open(std::string_view name, std::uint64_t traceId);
  SpanRecord rec_;
  TraceContext prev_;
  bool active_{false};
};

/// Record an already-timed interval (e.g. queue wait measured by
/// timestamps taken elsewhere) as a span under the ambient context.
void emitSpan(std::string_view name, std::uint64_t startNs,
              std::uint64_t durNs);

#else  // DIC_TRACING_ENABLED == 0: every emission site compiles to nothing

inline TraceContext currentContext() { return {}; }
inline void setCurrentContext(const TraceContext&) {}

/// No-op stand-in when tracing is compiled out.
class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext&) {}
};

/// No-op stand-in when tracing is compiled out.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view) {}
  ScopedSpan(std::string_view, std::uint64_t) {}
};

inline void emitSpan(std::string_view, std::uint64_t, std::uint64_t) {}

#endif  // DIC_TRACING_ENABLED

}  // namespace obs
}  // namespace dic
