// Recycler of large arena blocks: the one place FRep arena memory meets the
// heap.
//
// Every FRep arena (core/frep.h) allocates through ArenaAllocator, which
// calls AllocateArenaBlock / ReleaseArenaBlock here. A grounding grows its
// arenas from empty by doubling, and its helpers' segments and the splice
// allocate again. Above glibc's mmap threshold each of those blocks arrives
// as fresh pages, and the first write to every page faults; on the 100k
// key/fk chain that was ~2,600 faults (~10 MB) per query. The recycler keeps
// freed large blocks mapped and hands them to the next arena growth of the
// same size:
//
//   * A block below kArenaBlockFloor goes straight to the heap: malloc's own
//     free lists already reuse small and mid-size blocks, and handing those
//     across threads cost their cache locality.
//   * A block at or above the floor is sized up to a power of two, its size
//     class. Freed, it is parked in its class instead of returned; the next
//     request of that class takes it, its pages already faulted in.
//   * At most kArenaPoolCapBytes are parked at once, over every class and
//     thread. A block freed past the cap goes back to the heap, and so does
//     one larger than the biggest class.
//   * Each thread parks its latest block of a class in its own front slot
//     and takes it back first, without a lock, so a thread that frees and
//     regrows keeps its own blocks. Further blocks go to shared lists
//     behind one Mutex. A request the thread's slot and the shared lists
//     cannot serve takes another thread's slot, under the same Mutex, so
//     no block is stranded on an idle thread. A thread's slots move to the
//     shared lists when it exits.
//   * Under ASan a parked block is poisoned whole and unpoisoned when taken,
//     so a read through a stale pointer into a parked block still reports
//     use-after-poison (tests/asan_poison_test.cc probes it).
//
// The floor and the cap are constants, not options. The pool publishes its
// hits, misses and parked-bytes high-water mark as counters of
// MetricsRegistry::Global() (common/metrics.h). Only arena_pool.cc calls
// ::operator new / ::operator delete for arena blocks (tools/fdb_lint.py
// arena-blocks).
#ifndef FDB_COMMON_ARENA_POOL_H_
#define FDB_COMMON_ARENA_POOL_H_

#include <cstddef>
#include <cstdint>

namespace fdb {

/// Smallest block the pool parks: 1 MiB. Smaller blocks go to the heap.
inline constexpr size_t kArenaBlockFloor = size_t{1} << 20;

/// Most bytes parked at once, over every class and thread: 64 MiB.
inline constexpr size_t kArenaPoolCapBytes = size_t{64} << 20;

/// A block of at least `bytes` bytes, aligned for any arena element
/// (__STDCPP_DEFAULT_NEW_ALIGNMENT__). Throws std::bad_alloc like
/// ::operator new.
void* AllocateArenaBlock(size_t bytes);

/// Frees a block from AllocateArenaBlock(`bytes`), parking it when it is at
/// or above the floor and the cap has room.
void ReleaseArenaBlock(void* p, size_t bytes) noexcept;

/// A reading of the pool's counters. hits + misses counts the requests at or
/// above the floor (blocks past the largest class count as misses).
struct ArenaPoolStats {
  uint64_t hits = 0;               ///< requests served by a parked block
  uint64_t misses = 0;             ///< requests the heap served
  size_t parked_bytes = 0;         ///< bytes parked now
  size_t parked_high_water = 0;    ///< most bytes ever parked at once
};
ArenaPoolStats GetArenaPoolStats();

/// Returns every parked block to the heap. For tests that need a pool with
/// nothing parked; blocks parked while it runs may stay.
void DrainArenaPool();

}  // namespace fdb

#endif  // FDB_COMMON_ARENA_POOL_H_
