// The aggregate algebra of f-representations.
//
// COUNT, SUM, MIN and MAX distribute over the unions and products of an
// f-representation (Bakibayev, Kočiský, Olteanu, Závodný: "Aggregation and
// Ordering in Factorised Databases", PVLDB'13), so every aggregate the
// engine computes over one (core/aggregate.cc) is a fold of this algebra. A
// stats row describes a set of tuples: its tuple count plus, per aggregate
// spec, the sum, minimum and maximum of the spec's attribute over those
// tuples (one SpecStats per spec). Three steps build every row:
//   * product  (c, s, lo, hi) x (c', s', lo', hi')
//                = (c c', s c' + s' c, min(lo, lo'), max(hi, hi')):
//     a spec's attribute lives in at most one factor, and every factor is
//     non-empty, so the extremes of that factor are the product's;
//   * union    (c, s, lo, hi) + (c', s', lo', hi')
//                = (c + c', s + s', min(lo, lo'), max(hi, hi'));
//   * own value: an entry's value v is the one-tuple row with s = lo = hi
//     = v for every spec whose attribute is in the entry's node class.
// The empty product is (1, 0, +inf, -inf) and the empty union
// (0, 0, +inf, -inf), whose SpecStats are the defaults. A table of rows
// keeps the counts in one uint64_t array and the SpecStats of row i at
// [i * width(), (i + 1) * width()) of another, so no row allocates.
//
// Exactness: counts are uint64_t and every step checks them; past 2^64
// the weighted sums would be silently wrong, so the fold throws FdbError
// instead. Sums accumulate in double, exact below 2^53. Both widths, and
// the overflow policy, are chosen here and nowhere else.
#ifndef FDB_CORE_AGG_STATS_H_
#define FDB_CORE_AGG_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/attrset.h"
#include "common/types.h"
#include "storage/query.h"

namespace fdb {

/// One spec's statistics of a set of tuples. The defaults are the empty
/// set's: no sum, and extremes that every value beats.
struct SpecStats {
  double sum = 0.0;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();
};

/// The steps of the algebra for one list of aggregate specs. A row is a
/// count plus width() SpecStats; the steps update the row `(count, row)`
/// in place and take their other operand by value and pointer.
class AggStats {
 public:
  explicit AggStats(std::span<const AggSpec> specs)
      : specs_(specs.begin(), specs.end()) {
    for (const AggSpec& s : specs_) {
      if (s.fn != AggFn::kCount) attrs_.Add(s.attr);
    }
  }

  size_t width() const { return specs_.size(); }

  /// row := the empty product (one tuple over no attribute).
  void One(uint64_t& count, SpecStats* row) const {
    count = 1;
    std::fill_n(row, width(), SpecStats{});
  }

  /// row := row x other.
  void Mul(uint64_t& count, SpecStats* row, uint64_t other_count,
           const SpecStats* other) const {
    const double c = static_cast<double>(count);
    const double oc = static_cast<double>(other_count);
    for (size_t s = 0; s < width(); ++s) {
      row[s].sum = row[s].sum * oc + other[s].sum * c;
      row[s].min = std::min(row[s].min, other[s].min);
      row[s].max = std::max(row[s].max, other[s].max);
    }
    count = MulCount(count, other_count);
  }

  /// row := row + other.
  void Add(uint64_t& count, SpecStats* row, uint64_t other_count,
           const SpecStats* other) const {
    for (size_t s = 0; s < width(); ++s) {
      row[s].sum += other[s].sum;
      row[s].min = std::min(row[s].min, other[s].min);
      row[s].max = std::max(row[s].max, other[s].max);
    }
    count = AddCount(count, other_count);
  }

  /// row := row x the own value `v` of an entry whose node is labelled by
  /// the class `cls` (the count is unchanged).
  void MulOwn(AttrSet cls, Value v, uint64_t count, SpecStats* row) const {
    if (!cls.Intersects(attrs_)) return;
    for (size_t s = 0; s < width(); ++s) {
      if (specs_[s].fn == AggFn::kCount || !cls.Contains(specs_[s].attr)) {
        continue;
      }
      row[s].sum += static_cast<double>(v) * static_cast<double>(count);
      row[s].min = std::min(row[s].min, v);
      row[s].max = std::max(row[s].max, v);
    }
  }

  /// Spec `s`'s aggregate over the row's tuples (AVG = SUM / COUNT).
  double Result(size_t s, uint64_t count, const SpecStats* row) const {
    switch (specs_[s].fn) {
      case AggFn::kCount:
        return static_cast<double>(count);
      case AggFn::kSum:
        return row[s].sum;
      case AggFn::kAvg:
        return row[s].sum / static_cast<double>(count);
      case AggFn::kMin:
        return static_cast<double>(row[s].min);
      case AggFn::kMax:
        return static_cast<double>(row[s].max);
    }
    return 0.0;
  }

 private:
  static constexpr const char* kCountOverflow =
      "aggregate tuple count overflows uint64 — a weighted aggregate over "
      "this representation would be silently inexact";

  static uint64_t MulCount(uint64_t a, uint64_t b) {
    uint64_t out;
    FDB_CHECK_MSG(!U64MulOverflow(a, b, &out), kCountOverflow);
    return out;
  }

  static uint64_t AddCount(uint64_t a, uint64_t b) {
    uint64_t out;
    FDB_CHECK_MSG(!U64AddOverflow(a, b, &out), kCountOverflow);
    return out;
  }

  std::vector<AggSpec> specs_;
  AttrSet attrs_;  ///< the attributes of the non-COUNT specs
};

}  // namespace fdb

#endif  // FDB_CORE_AGG_STATS_H_
