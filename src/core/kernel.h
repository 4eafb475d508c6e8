// Compiled enumeration kernels: the engine's one materialiser.
//
// The interpreted TupleEnumerator re-reads the f-tree shape on every frame
// advance: union headers are resolved per step, child-slot arithmetic uses
// the tree's child lists, and extracting a tuple re-indexes the sparse
// current_[] array once per attribute. A materialisation walks one *fixed*
// shape millions of times, so that shape is resolved once up front.
//
// EnumKernel specialises the enumeration loop for one shape. Compile()
// lowers the pre-order frame list (BuildPreOrderFrames) into a flat Step
// program: per frame the parent frame index, the child slot and stride, and
// the output columns its value feeds, resolved once. Running the program
// walks raw arena windows (UnionRef::values()/children() pointers — stable
// while the representation is frozen, which enumeration guarantees) with a
// fixed-size frame stack, and fuses visible-attribute extraction into row
// emission: each advance writes only the columns that changed and appends
// the assembled row directly, so MaterializeVisible never re-reads the
// enumerator per attribute.
//
// Output order: the program walks frames in pre-order and every union's
// values ascend, so its rows come out sorted under order() — the columns
// in f-tree pre-order — and distinct unless a frame outputs no column
// (distinct()). Compile records both; MaterializeVisible records that
// order on the result (Relation::MarkSorted) and sorts only the
// non-distinct shape.
//
// Morsel bounds (the EntryBound contract of core/enumerate.h: a pinned
// chain plus one ranged frame) restrict the run, so MaterializeVisible
// (core/parallel_enumerate.h) executes one kernel run per morsel. The
// count mode also sizes those morsels: CountEntries splits one count walk
// by the entries of its ranged frame, which is all the morsel planner
// needs — no pass over the union DAG.
//
// A kernel is only valid for representations whose f-tree matches the
// compiled shape (Matches(): one frame rebuild + signature compare).
// MaterializeVisible compiles one from the result's f-tree on every call
// (a few microseconds, the "kernel-compile" span) unless the caller
// passes a kernel that matches.
#ifndef FDB_CORE_KERNEL_H_
#define FDB_CORE_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/trace.h"
#include "core/enumerate.h"
#include "core/frep.h"

namespace fdb {

/// A shape-specialised enumeration program. Immutable after Compile();
/// safe to share between threads (runs carry all mutable state on the
/// stack), which is how MaterializeVisible runs it per morsel.
class EnumKernel {
 public:
  /// Lowers the (optionally visible-restricted) pre-order frame program of
  /// `tree` into a kernel. `visible_only` matches the TupleEnumerator mode:
  /// subtrees without visible attributes are skipped and the output schema
  /// is the visible attributes in increasing id order; otherwise every
  /// alive node gets a frame and the schema is all attributes. A non-null
  /// `trace` records a "kernel-compile" span.
  static EnumKernel Compile(const FTree& tree, bool visible_only,
                            QueryTrace* trace = nullptr);

  bool visible_only() const { return visible_only_; }

  /// Output schema: one column per attribute, increasing id order.
  const std::vector<AttrId>& schema() const { return schema_; }

  /// The order the stream comes out in: schema() columns listed in f-tree
  /// pre-order (each frame's columns in increasing id order), a
  /// permutation of all columns. Values strictly increase within a union,
  /// so the emitted rows — whole stream, or morsel runs concatenated in
  /// plan order — are lexicographically sorted under this column order.
  const std::vector<size_t>& order() const { return order_; }

  /// True iff the stream is duplicate-free: every frame outputs at least
  /// one column. False exactly when a visible-mode kernel keeps a frame
  /// for an invisible node with visible descendants (a projected middle
  /// node): two of its values may lead to equal rows below it, and those
  /// rows then also break the order. Full-mode kernels are always
  /// distinct. Decided once at Compile from the f-tree, never from data.
  bool distinct() const { return distinct_; }

  /// True iff `tree` lowers to the same step program — the kernel then
  /// enumerates any representation over `tree` correctly. Callers must
  /// check this before running a kernel against a representation it was
  /// not compiled from.
  bool Matches(const FTree& tree) const;

  /// Runs the program restricted to `bounds` (the EntryBound contract of
  /// core/enumerate.h; empty = the whole stream) and
  /// appends each tuple's values to `out` in schema() order, rows
  /// concatenated flat (Relation::AppendRows format). Returns the number
  /// of rows emitted. The nullary stream appends nothing and returns 1.
  /// `rep.tree()` must satisfy Matches().
  uint64_t Emit(const FRep& rep, std::span<const EntryBound> bounds,
                std::vector<Value>* out) const;

  /// Emit into a caller-owned window instead of a growing vector: rows are
  /// written from out.data() on, and `out` must hold at least
  /// CountRows(rep, bounds) * schema().size() values (checked; an
  /// undersized window throws FdbError). This is how the materialiser has
  /// every morsel write its own slice of one presized output buffer.
  uint64_t Emit(const FRep& rep, std::span<const EntryBound> bounds,
                std::span<Value> out) const;

  /// Row count of the restricted stream without materialising it; the
  /// innermost frame is counted by run length, not walked.
  uint64_t CountRows(const FRep& rep,
                     std::span<const EntryBound> bounds) const;

  /// An EntryBound end that every union length clamps: {0, kAllEntries}
  /// ranges over a whole frame.
  static constexpr uint32_t kAllEntries = 0xFFFFFFFFu;

  /// The count mode split by entry: the row count under each entry of the
  /// split frame — the frame the last bound restricts. `bounds` is non-empty
  /// and follows the EntryBound contract (every bound but the last pins one
  /// entry); the last bound's end is clamped to its union's length, so
  /// a pinned chain plus {0, kAllEntries} counts every entry of the first
  /// unpinned frame below it, and a lone [b, e) counts a range of frame 0.
  /// out[i] == CountRows(rep, bounds with the last bound narrowed to
  /// [b + i, b + i + 1)), so the entries sum to CountRows(rep, bounds).
  /// When the split frame is the innermost one every entry counts 1 row.
  /// Empty when a bound misses its union. One count walk: the cost of
  /// CountRows(rep, bounds).
  std::vector<uint64_t> CountEntries(const FRep& rep,
                                     std::span<const EntryBound> bounds) const;

  /// Number of pre-order frames the program walks (0 = the nullary stream).
  size_t num_frames() const { return steps_.size(); }

  /// Entries in frame 0's union of `rep` (its first kept root); 0 for the
  /// empty representation and the nullary stream.
  uint32_t TopFrameSize(const FRep& rep) const;

 private:
  /// One lowered pre-order frame. `out_cols_[out_begin, out_end)` are the
  /// output columns fed by this frame's value (every schema attribute of
  /// the frame's class).
  struct Step {
    int32_t node = -1;      ///< f-tree node (diagnostics only at run time)
    int32_t parent = -1;    ///< parent step index; -1 for roots
    uint32_t slot = 0;      ///< child slot under the parent / root slot
    uint32_t nslots = 0;    ///< parent's child count (child-array stride)
    uint32_t out_begin = 0;
    uint32_t out_end = 0;
  };

  /// The walk. With kEmit, `grow(n)` is called once per innermost run and
  /// returns where that run's n values go. Without it, a non-null
  /// `per_entry` receives CountEntries' split of the count.
  template <bool kEmit, typename Grow>
  uint64_t Run(const FRep& rep, std::span<const EntryBound> bounds,
               Grow&& grow, std::vector<uint64_t>* per_entry = nullptr) const;

  std::vector<Step> steps_;        ///< pre-order, one per kept frame
  std::vector<uint32_t> out_cols_; ///< flat per-step column lists
  std::vector<AttrId> schema_;     ///< output attributes, ascending
  std::vector<size_t> order_;      ///< out_cols_ widened: the row order
  std::vector<uint64_t> signature_;  ///< shape key compared by Matches()
  bool visible_only_ = false;
  bool distinct_ = true;
};

}  // namespace fdb

#endif  // FDB_CORE_KERNEL_H_
