// Manual AddressSanitizer poisoning of arena slack.
//
// The columnar arenas in core/frep.h (and the recycled UnionBuilder scratch
// buffers) live inside std::vector buffers. ASan instruments only the
// *allocation* edges of those buffers: a read past a union's live window
// that lands in the vector's spare capacity is invisible to it, because the
// whole [data, data+capacity) range is one valid heap chunk. The helpers
// here close that gap container-annotation-style: the owning structure
// poisons the slack [size, capacity) after every mutation and unpoisons it
// right before the vector writes into it, so an out-of-window read becomes
// a hard use-after-poison fault instead of silently returning stale bytes.
//
// Everything compiles to nothing when ASan is off (kEnabled == false and
// the bodies are empty), so release builds pay zero cost — not even a
// branch. tests/asan_poison_test.cc proves both directions: legal arena
// traffic stays clean under ASan, and a deliberate slack read is caught
// (the armed-probe pattern of cmake/CheckThreadSafety.cmake).
//
// Poisoning granularity is ASan's 8-byte shadow: a region edge that is not
// 8-aligned is poisoned conservatively (the misaligned fringe stays
// accessible). The arenas store 8-byte Values, 4-byte child ids and
// 32-byte headers off malloc-aligned bases, so in practice at most the
// first 4 bytes of a child-arena slack window stay unpoisoned.
//
// Arena blocks of 1 MiB or more are recycled rather than freed
// (common/arena_pool.h): the pool poisons a parked block whole and
// unpoisons the requested bytes when it hands the block out again, so a
// recycled block starts as clean as a fresh one and a stale read into a
// parked block still faults.
#ifndef FDB_COMMON_ASAN_H_
#define FDB_COMMON_ASAN_H_

#include <cstddef>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define FDB_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FDB_ASAN_ENABLED 1
#endif
#endif

#ifdef FDB_ASAN_ENABLED
#include <sanitizer/asan_interface.h>
#endif

namespace fdb {
namespace asan {

#ifdef FDB_ASAN_ENABLED
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Marks `[p, p+n)` as unreadable; any access reports use-after-poison.
inline void Poison(const void* p, size_t n) {
#ifdef FDB_ASAN_ENABLED
  if (n != 0) ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

/// Re-admits `[p, p+n)` for reads and writes.
inline void Unpoison(const void* p, size_t n) {
#ifdef FDB_ASAN_ENABLED
  if (n != 0) ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

/// Poisons a vector's slack `[data+size, data+capacity)`. Call after every
/// mutation that may have changed size or relocated the buffer.
template <typename T, typename A>
inline void PoisonTail(const std::vector<T, A>& v) {
  if constexpr (kEnabled) {
    Poison(v.data() + v.size(), (v.capacity() - v.size()) * sizeof(T));
  } else {
    (void)v;
  }
}

/// Unpoisons a vector's slack. Call immediately before any operation that
/// appends into the buffer (insert/push_back/resize): libstdc++ constructs
/// the new elements in place, and those writes must not fault. If the
/// operation reallocates instead, the old buffer is freed (ASan tracks the
/// heap's, the arena pool poisons a block it parks) and the new one starts
/// clean — re-poison via PoisonTail afterwards either way.
template <typename T, typename A>
inline void UnpoisonTail(std::vector<T, A>& v) {
  if constexpr (kEnabled) {
    Unpoison(v.data() + v.size(), (v.capacity() - v.size()) * sizeof(T));
  } else {
    (void)v;
  }
}

/// Poisons a vector's *entire* buffer `[data, data+capacity)`. For recycled
/// staging buffers that are logically dead between uses (UnionBuilder
/// scratch after Finish/Abandon): the vector must be clear()ed first.
template <typename T, typename A>
inline void PoisonBuffer(const std::vector<T, A>& v) {
  if constexpr (kEnabled) {
    Poison(v.data(), v.capacity() * sizeof(T));
  } else {
    (void)v;
  }
}

/// Re-admits a recycled buffer before handing it back out.
template <typename T, typename A>
inline void UnpoisonBuffer(std::vector<T, A>& v) {
  if constexpr (kEnabled) {
    Unpoison(v.data(), v.capacity() * sizeof(T));
  } else {
    (void)v;
  }
}

}  // namespace asan
}  // namespace fdb

#endif  // FDB_COMMON_ASAN_H_
