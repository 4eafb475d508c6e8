// ExecContext: per-query execution governance — a deadline, a cooperative
// cancellation flag and an atomic memory budget, threaded through the
// engine without touching operator signatures.
//
// Why ambient (thread-local) rather than a parameter: the probe sites live
// in the hottest inner loops of the engine — FRep arena commits
// (core/frep.h), the leapfrog grounding loop (core/ground.cc), compiled
// kernel runs (core/kernel.cc), FRep::SweepBottomUp — and several of them
// (UnionBuilder::Finish, FRep::CommitUnion) have no context parameter to
// thread one through. A query binds its context with an ExecContext::Scope
// on the evaluating thread; ParallelEnumerator and the grounding build
// (core/ground.cc) re-bind the caller's context inside each morsel task so
// pool threads observe the same flag.
// Code that runs with no context bound (tests, benchmarks, library use)
// pays one thread-local load per probe and nothing else.
//
// Probe cost: CheckCancelled() is one relaxed atomic load; the monotonic
// clock is consulted only every kDeadlineStride-th probe (per thread), so
// probes are cheap enough for arena-growth granularity. The warm-path
// overhead is measured by BM_GovernanceOverhead in bench/micro_ops.cc and
// must stay within noise (<= 2%).
//
// Stop conditions unwind as FdbError subclasses so every existing
// catch (const FdbError&) boundary — QueryServer::ExecuteGroup, the REPL,
// the experiment drivers — already contains them:
//
//   FdbTimeout            deadline passed          -> protocol TIMEOUT
//   FdbResourceExhausted  budget / allocation      -> protocol RESOURCE
//   FdbCancelled          explicit RequestCancel() -> protocol ERR
//
// Memory accounting is cumulative-charged, not live: FRep arena growth
// charges bytes as they are appended and nothing is ever credited back
// (releases are rare on the build path and a monotone counter needs no
// pairing discipline). UnionBuilder scratch is deliberately not charged —
// it is recycled LIFO and bounded by build depth, not by data size.
#ifndef FDB_COMMON_EXEC_CONTEXT_H_
#define FDB_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/timer.h"
#include "common/types.h"

namespace fdb {

/// Deadline exceeded (detected at a cooperative probe). Serve answers
/// TIMEOUT.
class FdbTimeout : public FdbError {
 public:
  using FdbError::FdbError;
};

/// Memory budget exceeded or allocation failed. Serve answers RESOURCE.
class FdbResourceExhausted : public FdbError {
 public:
  using FdbError::FdbError;
};

/// Explicit cancellation (RequestCancel). Serve answers ERR.
class FdbCancelled : public FdbError {
 public:
  using FdbError::FdbError;
};

/// Cumulative per-query memory budget. Monotone: ChargeOrThrow only ever
/// adds, so charged() is "bytes ever appended", an upper bound on live
/// arena bytes. limit 0 means unlimited.
class MemoryBudget {
 public:
  /// Adds `bytes`; throws FdbResourceExhausted once the cumulative total
  /// exceeds the limit. Relaxed atomics: charges race benignly (the limit
  /// is a governance bound, not an exact accounting), and the first thread
  /// to observe an over-limit total throws.
  void ChargeOrThrow(size_t bytes);

  uint64_t charged() const { return charged_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_; }
  void set_limit(uint64_t bytes) { limit_ = bytes; }

 private:
  std::atomic<uint64_t> charged_{0};
  uint64_t limit_ = 0;  // 0 = unlimited; set before the query starts
};

/// One query's governance state. Create per evaluation, bind with Scope on
/// every thread that works for the query, probe with CheckCancelled().
/// Configuration (SetDeadline / set_limit) must happen before the context
/// is shared; Cancel and the probes are thread-safe.
class ExecContext {
 public:
  enum class StopReason : uint8_t {
    kNone = 0,
    kCancelled,  ///< explicit Cancel()
    kTimeout,    ///< deadline passed
    kResource,   ///< budget exceeded (set so sibling threads stop too)
  };

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Absolute deadline; `seconds <= 0` clears it. Not thread-safe — call
  /// before sharing the context.
  void SetDeadline(double seconds) {
    has_deadline_ = seconds > 0.0;
    if (has_deadline_) deadline_ = MonotonicDeadline(seconds);
  }
  void SetDeadlineAt(MonotonicClock::time_point tp) {
    has_deadline_ = true;
    deadline_ = tp;
  }
  bool has_deadline() const { return has_deadline_; }
  MonotonicClock::time_point deadline() const { return deadline_; }

  /// Requests cooperative stop; the next probe on any bound thread throws.
  /// Thread-safe, idempotent (the first reason wins).
  void Cancel(StopReason reason = StopReason::kCancelled) {
    uint8_t expected = 0;
    stop_.compare_exchange_strong(expected, static_cast<uint8_t>(reason),
                                  std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return stop_.load(std::memory_order_relaxed) != 0;
  }
  StopReason stop_reason() const {
    return static_cast<StopReason>(stop_.load(std::memory_order_relaxed));
  }

  /// Cooperative probe: throws the FdbError subclass matching the stop
  /// reason. One relaxed load on the fast path; the deadline clock is read
  /// only every kDeadlineStride-th probe per thread.
  void CheckCancelled() {
    const uint8_t s = stop_.load(std::memory_order_relaxed);
    if (s != 0) ThrowStop(static_cast<StopReason>(s));
    if (has_deadline_) MaybeCheckDeadline();
  }

  /// Non-throwing probe for callers that report timeouts as data instead
  /// of unwinding (the rdb/vdb baselines). Same cost profile.
  bool StopRequested() {
    if (stop_.load(std::memory_order_relaxed) != 0) return true;
    if (has_deadline_ && DeadlineStrideHit() &&
        MonotonicClock::now() >= deadline_) {
      Cancel(StopReason::kTimeout);
      return true;
    }
    return false;
  }

  MemoryBudget& budget() { return budget_; }
  const MemoryBudget& budget() const { return budget_; }

  /// Charges query memory against the budget (no-op when no context is
  /// bound — library callers are ungoverned). Throws FdbResourceExhausted
  /// over budget and flags the context so sibling threads stop promptly.
  void ChargeMemory(size_t bytes) {
    try {
      budget_.ChargeOrThrow(bytes);
    } catch (const FdbResourceExhausted&) {
      Cancel(StopReason::kResource);
      throw;
    }
  }

  /// The context bound to this thread (nullptr when ungoverned).
  static ExecContext* Current() { return tls_current_; }

  /// RAII binding of a context to the current thread. Nesting restores the
  /// previous binding; binding nullptr is allowed (explicitly ungoverned).
  class Scope {
   public:
    explicit Scope(ExecContext* ctx) : prev_(tls_current_) {
      tls_current_ = ctx;
    }
    ~Scope() { tls_current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ExecContext* prev_;
  };

 private:
  /// True every kDeadlineStride-th call on this thread. The counter is
  /// thread-local and shared across contexts — striding is a cost control,
  /// not a correctness property, so cross-context interleaving is fine.
  static bool DeadlineStrideHit() {
    return (++tls_probe_tick_ & (kDeadlineStride - 1)) == 0;
  }

  void MaybeCheckDeadline() {
    if (!DeadlineStrideHit()) return;
    if (MonotonicClock::now() >= deadline_) {
      Cancel(StopReason::kTimeout);
      ThrowStop(StopReason::kTimeout);
    }
  }

  [[noreturn]] void ThrowStop(StopReason reason) const;

  static constexpr uint32_t kDeadlineStride = 256;  // probes per clock read

  std::atomic<uint8_t> stop_{0};  // StopReason, 0 = running
  bool has_deadline_ = false;
  MonotonicClock::time_point deadline_{};
  MemoryBudget budget_;

  static thread_local ExecContext* tls_current_;
  static thread_local uint32_t tls_probe_tick_;
};

/// Probes the ambient context, if any. The canonical probe for engine
/// inner loops: one thread-local load when ungoverned.
inline void CheckAmbientCancelled() {
  if (ExecContext* ctx = ExecContext::Current()) ctx->CheckCancelled();
}

/// Charges the ambient context's budget, if any.
inline void ChargeAmbientMemory(size_t bytes) {
  if (ExecContext* ctx = ExecContext::Current()) ctx->ChargeMemory(bytes);
}

/// Runs `fn`, translating std::bad_alloc into FdbResourceExhausted so
/// allocation failure surfaces as a graceful FdbError instead of killing
/// the process. The only sanctioned place to catch std::bad_alloc —
/// tools/fdb_lint.py (bad-alloc-catch) rejects raw catches outside
/// src/common/.
template <typename Fn>
auto TranslateBadAlloc(Fn&& fn, const char* what) -> decltype(fn()) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::bad_alloc&) {
    throw FdbResourceExhausted(std::string("out of memory: ") + what);
  }
}

}  // namespace fdb

#endif  // FDB_COMMON_EXEC_CONTEXT_H_
