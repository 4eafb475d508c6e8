// In-memory relations.
//
// A relation is a row-major array of 64-bit values plus a schema of global
// attribute ids. The engines (FDB grounding, RDB sort-merge) work on
// relations sorted lexicographically under a chosen column order, mirroring
// the paper's setup ("the relations are given sorted").
#ifndef FDB_STORAGE_RELATION_H_
#define FDB_STORAGE_RELATION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/attrset.h"
#include "common/types.h"

namespace fdb {

/// A flat relation instance over a fixed schema.
class Relation {
 public:
  /// `schema` lists the global attribute ids of the columns, left to right.
  /// Attribute ids must be distinct.
  explicit Relation(std::vector<AttrId> schema);

  // Copies and moves carry the source's stamp along with its content; a
  // moved-from relation and every assignment target get a fresh stamp.
  Relation(const Relation&) = default;
  Relation(Relation&& o) noexcept;
  Relation& operator=(const Relation& o);
  Relation& operator=(Relation&& o) noexcept;

  size_t arity() const { return schema_.size(); }
  size_t size() const { return arity() == 0 ? nullary_count_ : data_.size() / arity(); }
  bool empty() const { return size() == 0; }

  const std::vector<AttrId>& schema() const { return schema_; }
  AttrSet attr_set() const { return AttrSet::FromVector(schema_); }

  /// Column position of a global attribute id; throws if absent.
  size_t ColumnOf(AttrId attr) const;
  bool HasAttr(AttrId attr) const;

  void Reserve(size_t rows) { data_.reserve(rows * arity()); }

  /// Appends one tuple; `tuple.size()` must equal arity().
  void AddTuple(std::span<const Value> tuple);

  /// Bulk-appends `values.size() / arity()` rows stored row-major (the
  /// merge step of parallel enumeration sinks). `values.size()` must be a
  /// multiple of arity(), which must be positive.
  void AppendRows(std::span<const Value> values);

  /// AppendRows that takes ownership: when the relation is still empty the
  /// buffer is moved in wholesale (no copy — the fast path for a
  /// single-chunk kernel materialisation), otherwise it degrades to a
  /// plain append. Same size contract as AppendRows.
  void AdoptRows(std::vector<Value>&& values);
  void AddTuple(std::initializer_list<Value> tuple) {
    AddTuple(std::span<const Value>(tuple.begin(), tuple.size()));
  }

  Value At(size_t row, size_t col) const { return data_[row * arity() + col]; }
  std::span<const Value> Row(size_t row) const {
    return {data_.data() + row * arity(), arity()};
  }

  /// Sorts rows lexicographically by the given column positions (remaining
  /// columns are appended as tie-breakers so the order is total) and removes
  /// exact duplicate rows (relations are sets). A no-op when sort_order()
  /// already equals that total order.
  void SortByColumns(const std::vector<size_t>& cols);

  /// Sorts by columns 0,1,...,arity-1.
  void SortLex();

  /// Records, without sorting, that the rows are distinct and strictly
  /// increasing under `order` — a permutation of all column positions —
  /// for producers that emit in order (the enumeration sinks). Throws if
  /// `order` is not a permutation; under FDB_VALIDATE the rows are checked
  /// too.
  void MarkSorted(std::vector<size_t> order);

  /// The order contract of the rows: when non-empty, a permutation of all
  /// columns under which the rows are distinct and strictly increasing
  /// (set by SortByColumns or MarkSorted). Filter keeps it; every append
  /// clears it. Empty = unknown order, duplicates possible.
  const std::vector<size_t>& sort_order() const { return sort_order_; }

  /// First row index in [lo, hi) whose value in column `col` is >= v.
  /// Requires rows [lo, hi) to be sorted on `col` (true within an equal-
  /// prefix range of the sort order). The search gallops from lo, so a
  /// short move costs the log of its distance. A move past the gallop's
  /// first 32 rows interpolates instead: it guesses the row from the values
  /// at the ends of the remaining window and brackets the guess with a
  /// gallop, at most three times, and a binary search ends it. Long moves
  /// are grounding's common case on a key/fk chain: a leapfrog seek for an
  /// order's key in the whole of Lineitem. On evenly spread keys like
  /// these the guesses land a few rows off. A guess that lands far off
  /// costs a gallop from it, so on a skewed column a seek costs up to
  /// three gallops and a binary search, against one gallop and a binary
  /// search without the guesses.
  size_t LowerBound(size_t lo, size_t hi, size_t col, Value v) const;

  /// Sub-range of [lo, hi) whose `col` value equals v (same requirement).
  std::pair<size_t, size_t> EqualRange(size_t lo, size_t hi, size_t col,
                                       Value v) const;

  /// Content stamp: changes on every mutation of the row set or its order
  /// (AddTuple, AppendRows, AdoptRows, Filter, SortByColumns / SortLex when
  /// they reorder, copy and move assignment) and never repeats for one
  /// object. A cache derived from the rows can compare stamps to tell
  /// whether it is stale, whichever path changed the relation.
  uint64_t stamp() const { return stamp_; }

  /// Number of distinct values in a column (scans; used by the estimator).
  size_t DistinctCount(size_t col) const;

  /// Keeps only rows satisfying pred(row_index). Survivors keep their
  /// relative order, so a recorded sort_order() stays valid.
  template <typename Pred>
  void Filter(Pred pred) {
    size_t w = 0;
    const size_t n = size(), k = arity();
    for (size_t r = 0; r < n; ++r) {
      if (pred(r)) {
        if (w != r) {
          for (size_t c = 0; c < k; ++c) data_[w * k + c] = data_[r * k + c];
        }
        ++w;
      }
    }
    data_.resize(w * k);
    ++stamp_;
  }

  /// The rows satisfying pred(row_index), in order, as a new relation built
  /// in one pass; the copy keeps sort_order(), so a sorted input stays
  /// sorted.
  template <typename Pred>
  Relation Filtered(Pred pred) const {
    Relation out(schema_);
    out.sort_order_ = sort_order_;
    const size_t n = size(), k = arity();
    if (k == 0) {
      out.nullary_count_ = n > 0 && pred(size_t{0}) ? 1 : 0;
      return out;
    }
    for (size_t r = 0; r < n; ++r) {
      if (pred(r)) {
        const Value* row = data_.data() + r * k;
        out.data_.insert(out.data_.end(), row, row + k);
      }
    }
    return out;
  }

  /// Raw data access for tight loops.
  const std::vector<Value>& data() const { return data_; }

  bool operator==(const Relation& o) const {
    return schema_ == o.schema_ && data_ == o.data_ &&
           nullary_count_ == o.nullary_count_;
  }

 private:
  std::vector<AttrId> schema_;
  std::vector<Value> data_;
  std::vector<size_t> sort_order_;
  size_t nullary_count_ = 0;  // tuple count for arity-0 relations (0 or 1)
  uint64_t stamp_ = 0;
};

}  // namespace fdb

#endif  // FDB_STORAGE_RELATION_H_
