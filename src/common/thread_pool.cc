#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/types.h"

namespace fdb {

ThreadPool::ThreadPool(int num_threads) {
  FDB_CHECK_MSG(num_threads > 0, "thread pool needs at least one worker");
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    FDB_CHECK_MSG(!stopping_, "Submit on a stopped thread pool");
    queue_.push_back(std::move(fn));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// Shared claim state of one ParallelFor. Owns a copy of the loop body so
// helper tasks that fire after the caller has returned (possible when the
// caller drained every index itself) touch only this state, never the
// caller's stack.
struct ForState {
  explicit ForState(std::function<void(size_t)> body, size_t total)
      : fn(std::move(body)), n(total) {}

  const std::function<void(size_t)> fn;
  const size_t n;
  std::atomic<size_t> next{0};

  Mutex mu;
  CondVar cv;
  size_t active GUARDED_BY(mu) = 0;  ///< helpers currently inside fn
  std::exception_ptr error GUARDED_BY(mu);

  // Claims and runs indices until exhausted (or an error aborts the loop).
  void Drain() {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(mu);
        if (error == nullptr) error = std::current_exception();
        next.store(n);  // abort: stop claiming further indices
      }
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             int max_threads) {
  if (n == 0) return;
  size_t helpers = std::min(threads_.size(), n - 1);
  if (max_threads > 0) {
    helpers = std::min(helpers, static_cast<size_t>(max_threads - 1));
  }
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>(fn, n);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] {
      {
        MutexLock lock(state->mu);
        ++state->active;
      }
      state->Drain();
      {
        MutexLock lock(state->mu);
        --state->active;
      }
      state->cv.NotifyAll();
    });
  }

  // The caller participates; once it runs out of indices it only has to
  // wait for helpers that are mid-index (claimed-but-unstarted helpers
  // will find the counter exhausted whenever they fire).
  state->Drain();
  MutexLock lock(state->mu);
  while (state->active != 0 || state->next.load() < state->n) {
    state->cv.Wait(state->mu);
  }
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

int ResolveThreads(int threads) {
  if (threads > 0) return threads;
  // Asking the hardware costs microseconds a call; the answer is read once
  // per process.
  static const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return hardware;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? static_cast<int>(hw) - 1 : 1;
  }());
  return pool;
}

}  // namespace fdb
