// Core scalar types and error-checking macros shared by all FDB modules.
#ifndef FDB_COMMON_TYPES_H_
#define FDB_COMMON_TYPES_H_

// MSVC keeps __cplusplus at 199711L unless /Zc:__cplusplus is set; it
// reports the real language level in _MSVC_LANG instead.
#if !(defined(__cplusplus) && __cplusplus >= 202002L) && \
    !(defined(_MSVC_LANG) && _MSVC_LANG >= 202002L)
#error "FDB requires C++20 (std::popcount in common/attrset.h and friends); compile with -std=c++20 or use the provided CMake build."
#endif

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fdb {

/// A data value. FDB stores 8-byte integers; strings are dictionary-encoded
/// (the paper: "a singleton holds an 8 byte integer").
using Value = int64_t;

/// Global attribute identifier. Attributes live in a per-database universe of
/// at most kMaxAttrs attributes so that attribute sets fit in one 64-bit mask.
using AttrId = uint32_t;

/// Identifier of a relation within a database / query.
using RelId = uint32_t;

/// Maximum number of attributes in a database universe (fits an AttrSet).
inline constexpr AttrId kMaxAttrs = 64;

/// Maximum number of relations in a query (fits a RelSet bitmask).
inline constexpr RelId kMaxRels = 64;

/// A flat tuple; values are indexed positionally by a schema.
using Tuple = std::vector<Value>;

/// Exception type thrown on precondition violations and malformed input.
class FdbError : public std::runtime_error {
 public:
  explicit FdbError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Overflow-checked unsigned arithmetic. The tuple-count dynamic programs
/// (FRep::CountTuples, AggStats in core/agg_stats.h) accumulate in uint64_t so counts
/// stay exact; these helpers let them detect saturation instead of wrapping.
inline bool U64MulOverflow(uint64_t a, uint64_t b, uint64_t* out) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_mul_overflow(a, b, out);
#else
  if (b != 0 && a > UINT64_MAX / b) return true;
  *out = a * b;
  return false;
#endif
}

inline bool U64AddOverflow(uint64_t a, uint64_t b, uint64_t* out) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_add_overflow(a, b, out);
#else
  if (a > UINT64_MAX - b) return true;
  *out = a + b;
  return false;
#endif
}

namespace internal {

inline void ThrowCheckFailure(const char* expr, const char* file, int line,
                              const std::string& msg) {
  std::ostringstream os;
  os << "FDB_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw FdbError(os.str());
}

}  // namespace internal

// Always-on invariant check (these guard algorithmic preconditions such as
// the path constraint; the cost is negligible next to the guarded work).
#define FDB_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr))                                                            \
      ::fdb::internal::ThrowCheckFailure(#expr, __FILE__, __LINE__, "");    \
  } while (0)

#define FDB_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr))                                                            \
      ::fdb::internal::ThrowCheckFailure(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

}  // namespace fdb

#endif  // FDB_COMMON_TYPES_H_
