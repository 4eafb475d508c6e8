#include "common/pages.h"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace fdb {

namespace {

// Issues one madvise over the `align`-aligned interior of [p, p + bytes).
// A rejected call is ignored: the advice is an optimisation, and the range
// is left exactly as it was.
[[maybe_unused]] bool Advise(void* p, size_t bytes, size_t align,
                             int advice) {
  const std::span<std::byte> in = AlignedInterior(p, bytes, align);
  if (in.empty()) return false;
#if defined(__linux__)
  return madvise(in.data(), in.size(), advice) == 0;
#else
  (void)advice;
  return false;
#endif
}

}  // namespace

size_t BasePageBytes() {
#if defined(__linux__)
  static const size_t bytes = [] {
    const long n = sysconf(_SC_PAGESIZE);
    return n > 0 ? static_cast<size_t>(n) : size_t{4096};
  }();
  return bytes;
#else
  return 4096;
#endif
}

std::span<std::byte> AlignedInterior(void* p, size_t bytes, size_t align) {
  if (p == nullptr) return {};
  const uintptr_t mask = ~(static_cast<uintptr_t>(align) - 1);
  const uintptr_t begin = reinterpret_cast<uintptr_t>(p);
  const uintptr_t first = (begin + align - 1) & mask;
  const uintptr_t last = (begin + bytes) & mask;
  if (last <= first) return {};
  return {reinterpret_cast<std::byte*>(first),
          static_cast<size_t>(last - first)};
}

bool AdviseHugePages(void* p, size_t bytes) {
#ifdef MADV_HUGEPAGE
  return Advise(p, bytes, kHugePageBytes, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
  return false;
#endif
}

bool PrefaultForWrite(void* p, size_t bytes) {
#ifdef MADV_POPULATE_WRITE
  return Advise(p, bytes, BasePageBytes(), MADV_POPULATE_WRITE);
#else
  (void)p;
  (void)bytes;
  return false;
#endif
}

}  // namespace fdb
