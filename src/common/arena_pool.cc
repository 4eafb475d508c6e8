#include "common/arena_pool.h"

#include <array>
#include <atomic>
#include <bit>
#include <new>

#include "common/asan.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fdb {

namespace {

// Class c holds blocks of kArenaBlockFloor << c bytes. The largest class is
// the cap: a larger block could never be parked.
constexpr int kClasses = std::bit_width(kArenaPoolCapBytes / kArenaBlockFloor);
constexpr size_t kLargestClassBytes = kArenaBlockFloor << (kClasses - 1);
static_assert(std::has_single_bit(kArenaBlockFloor) &&
                  std::has_single_bit(kArenaPoolCapBytes) &&
                  kLargestClassBytes == kArenaPoolCapBytes,
              "the floor and the cap are powers of two, the cap at or above "
              "the floor");
// The parked blocks of one class never outnumber the cap's worth of floor
// blocks, so each class fits a fixed array and parking never allocates.
constexpr size_t kMaxParkedPerClass = kArenaPoolCapBytes / kArenaBlockFloor;

bool Pooled(size_t bytes) {
  return bytes >= kArenaBlockFloor && bytes <= kLargestClassBytes;
}

// The class of a pooled request: its power of two, counted from the floor.
int ClassOf(size_t bytes) {
  return std::bit_width(std::bit_ceil(bytes) / kArenaBlockFloor) - 1;
}

size_t ClassBytes(int c) { return kArenaBlockFloor << c; }

struct Counters {
  Counter& hits;
  Counter& misses;
  Counter& high_water;
};

Counters& PoolCounters() {
  static Counters counters{
      MetricsRegistry::Global().GetCounter("fdb_arena_pool_hits_total"),
      MetricsRegistry::Global().GetCounter("fdb_arena_pool_misses_total"),
      MetricsRegistry::Global().GetCounter(
          "fdb_arena_pool_parked_peak_bytes_total")};
  return counters;
}

// Bytes parked now, front slots included, and the most ever parked.
std::atomic<size_t> parked{0};
std::atomic<size_t> high_water{0};

// Claims room for `bytes` under the cap; false when the cap has none.
bool ReserveParking(size_t bytes) {
  size_t cur = parked.load(std::memory_order_relaxed);
  do {
    if (bytes > kArenaPoolCapBytes - cur) return false;
  } while (!parked.compare_exchange_weak(cur, cur + bytes,
                                         std::memory_order_relaxed));
  // The high-water counter grows by each raise of the mark, so it reads the
  // mark itself.
  const size_t now = cur + bytes;
  size_t hw = high_water.load(std::memory_order_relaxed);
  while (now > hw) {
    if (high_water.compare_exchange_weak(hw, now,
                                         std::memory_order_relaxed)) {
      PoolCounters().high_water.Increment(now - hw);
      break;
    }
  }
  return true;
}

struct Front;

// The parked blocks: the shared lists, and the threads' front slots, which
// it can reach while their threads live.
class SharedPool {
 public:
  void Put(int c, void* p) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    free_[c][count_[c]++] = p;
  }

  // A block of class c from the shared lists, else from another thread's
  // front slot: a parked block is never stranded on an idle thread.
  void* Take(int c) EXCLUDES(mu_);

  // Makes `f`'s slots reachable; a thread past kMaxFronts keeps its slots
  // to itself until it exits.
  void Join(Front* f) EXCLUDES(mu_);
  // Moves `f`'s slots to the shared lists; no Take reads `f` afterwards.
  void Leave(Front* f) EXCLUDES(mu_);

 private:
  static constexpr size_t kMaxFronts = 64;

  Mutex mu_;
  std::array<std::array<void*, kMaxParkedPerClass>, kClasses> free_
      GUARDED_BY(mu_){};
  std::array<size_t, kClasses> count_ GUARDED_BY(mu_){};
  std::array<Front*, kMaxFronts> fronts_ GUARDED_BY(mu_){};
};

// Never destroyed: threads that exit after the statics go still return
// their front slots to it.
SharedPool& Shared() {
  static SharedPool* const pool = new SharedPool();
  return *pool;
}

// A thread's latest parked block of each class. Its owner parks and takes
// without the lock; other threads take from it under the pool's lock.
struct Front {
  std::array<std::atomic<void*>, kClasses> slot{};

  Front() { Shared().Join(this); }
  ~Front() { Shared().Leave(this); }

  void* Take(int c) {
    return slot[c].exchange(nullptr, std::memory_order_acquire);
  }
  // False when the slot is taken.
  bool Park(int c, void* p) {
    void* empty = nullptr;
    return slot[c].compare_exchange_strong(empty, p,
                                           std::memory_order_release,
                                           std::memory_order_relaxed);
  }
};

void* SharedPool::Take(int c) {
  MutexLock lock(mu_);
  if (count_[c] != 0) return free_[c][--count_[c]];
  for (Front* f : fronts_) {
    if (f == nullptr) continue;
    if (void* p = f->Take(c)) return p;
  }
  return nullptr;
}

void SharedPool::Join(Front* f) {
  MutexLock lock(mu_);
  for (Front*& slot : fronts_) {
    if (slot == nullptr) {
      slot = f;
      return;
    }
  }
}

void SharedPool::Leave(Front* f) {
  MutexLock lock(mu_);
  for (Front*& slot : fronts_) {
    if (slot == f) slot = nullptr;
  }
  for (int c = 0; c < kClasses; ++c) {
    if (void* p = f->Take(c)) free_[c][count_[c]++] = p;
  }
}

thread_local Front front;

void* Take(int c) {
  void* p = front.Take(c);
  if (p == nullptr) p = Shared().Take(c);
  if (p != nullptr) parked.fetch_sub(ClassBytes(c), std::memory_order_relaxed);
  return p;
}

void Free(void* p, size_t bytes) {
  asan::Unpoison(p, bytes);
  ::operator delete(p, bytes);
}

}  // namespace

void* AllocateArenaBlock(size_t bytes) {
  if (bytes < kArenaBlockFloor) return ::operator new(bytes);
  if (!Pooled(bytes)) {
    PoolCounters().misses.Increment();
    return ::operator new(bytes);
  }
  const int c = ClassOf(bytes);
  if (void* p = Take(c)) {
    PoolCounters().hits.Increment();
    asan::Unpoison(p, bytes);  // the rest of the block stays poisoned
    return p;
  }
  PoolCounters().misses.Increment();
  void* p = ::operator new(ClassBytes(c));
  asan::Poison(static_cast<char*>(p) + bytes, ClassBytes(c) - bytes);
  return p;
}

void ReleaseArenaBlock(void* p, size_t bytes) noexcept {
  if (p == nullptr) return;
  if (!Pooled(bytes)) {
    ::operator delete(p, bytes);
    return;
  }
  const int c = ClassOf(bytes);
  if (!ReserveParking(ClassBytes(c))) {
    Free(p, ClassBytes(c));
    return;
  }
  asan::Poison(p, ClassBytes(c));
  if (!front.Park(c, p)) Shared().Put(c, p);
}

ArenaPoolStats GetArenaPoolStats() {
  ArenaPoolStats s;
  s.hits = PoolCounters().hits.Value();
  s.misses = PoolCounters().misses.Value();
  s.parked_bytes = parked.load(std::memory_order_relaxed);
  s.parked_high_water = high_water.load(std::memory_order_relaxed);
  return s;
}

void DrainArenaPool() {
  for (int c = 0; c < kClasses; ++c) {
    while (void* p = Take(c)) Free(p, ClassBytes(c));
  }
}

}  // namespace fdb
