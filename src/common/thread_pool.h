// A small fixed-size worker thread pool shared across the process.
//
// Two entry points:
//   * Submit(fn)        — fire-and-forget task queued for the workers;
//   * ParallelFor(n,fn) — run fn(0..n-1) cooperatively on the pool *and*
//     the calling thread, returning when every index has been processed.
//
// ParallelFor is deadlock-free under nesting and pool exhaustion: indices
// are claimed from a shared atomic counter and the caller participates, so
// all work completes even if no pool thread ever picks up a helper task
// (helpers that fire late find the counter exhausted and return). The
// first exception thrown by `fn` is captured and rethrown on the caller
// after all in-flight work has drained.
//
// The process-wide Shared() pool is sized to the hardware concurrency and
// constructed lazily on first use; core/parallel_enumerate.cc and the
// grounding build (core/ground.cc) run their morsels on it, and
// serve/QueryServer can adopt it for its workers.
#ifndef FDB_COMMON_THREAD_POOL_H_
#define FDB_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fdb {

/// The thread count a `threads` knob asks for: itself when positive, else
/// (0 = one per hardware thread) std::thread::hardware_concurrency(), at
/// least 1. The hardware is asked once per process: the query costs
/// microseconds, which would show on tiny queries.
int ResolveThreads(int threads);

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Queues one task for the workers. Tasks must not throw.
  void Submit(std::function<void()> fn) EXCLUDES(mu_);

  /// Runs fn(i) for every i in [0, n) on up to `max_threads` threads
  /// (0 = caller plus every pool worker), including the calling thread.
  /// Returns when all indices are done; rethrows the first exception.
  /// Safe to call from inside a pool task (nested calls degrade to the
  /// caller doing the work itself rather than deadlocking).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   int max_threads = 0);

  /// The process-wide pool, sized to std::thread::hardware_concurrency()
  /// (minus the calling thread, minimum 1). Constructed on first use.
  static ThreadPool& Shared();

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Written only by the constructor (before any concurrency) and joined by
  /// the destructor; size() reads are safe without the mutex.
  std::vector<std::thread> threads_;
};

}  // namespace fdb

#endif  // FDB_COMMON_THREAD_POOL_H_
