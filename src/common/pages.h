// Page advice for large, freshly allocated buffers: the one place the
// engine talks to the virtual-memory system.
//
// A buffer above glibc's mmap threshold arrives as untouched pages, and the
// first write to each one takes a page fault. Faulting a tens-of-megabytes
// result buffer one 4 KiB page at a time on one thread costs more than the
// enumeration that fills it. Two advice calls remove most of that cost:
//
//   AdviseHugePages    madvise(MADV_HUGEPAGE): back the buffer with 2 MiB
//                      transparent huge pages, 512x fewer faults.
//   PrefaultForWrite   madvise(MADV_POPULATE_WRITE): fault a range in with
//                      one call, so worker threads can populate disjoint
//                      slices of one buffer in parallel.
//
// Both are advice only. Each is a no-op where its MADV_* constant is not
// defined (non-Linux hosts, old headers), and a kernel that rejects the
// call (EINVAL before Linux 5.14 for MADV_POPULATE_WRITE, THP disabled)
// leaves the memory untouched: the first write then faults it in as
// before. Neither changes the buffer's contents, so callers behave the
// same with or without them. Only this module calls madvise / mmap
// (tools/fdb_lint.py page-advice).
#ifndef FDB_COMMON_PAGES_H_
#define FDB_COMMON_PAGES_H_

#include <cstddef>
#include <span>

namespace fdb {

/// Size of a transparent huge page on x86-64 and arm64 (4 KiB base pages).
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// The base page size of this process (sysconf; 4096 where unknown).
size_t BasePageBytes();

/// The largest sub-range of [p, p + bytes) whose both ends are multiples of
/// `align` (a power of two), rounded inward; empty (null data) when no whole
/// aligned block fits.
std::span<std::byte> AlignedInterior(void* p, size_t bytes, size_t align);

/// Advises huge pages over the kHugePageBytes-aligned interior of
/// [p, p + bytes). Returns true when the kernel accepted the advice; false
/// when the interior is empty, MADV_HUGEPAGE is not defined, or the kernel
/// rejected it (the range is then left as it was).
bool AdviseHugePages(void* p, size_t bytes);

/// Faults in the whole base pages inside [p, p + bytes) writable, without
/// changing their contents. Returns true when the kernel accepted the
/// advice; false when no whole page fits, MADV_POPULATE_WRITE is not
/// defined, or the kernel rejected it (the pages then fault on first
/// write). Safe to call concurrently on disjoint ranges.
bool PrefaultForWrite(void* p, size_t bytes);

}  // namespace fdb

#endif  // FDB_COMMON_PAGES_H_
