// Tuple enumeration from f-representations.
//
// F-representations allow constant-delay enumeration: O(|E|) preparation and
// O(|S|) delay between successive tuples (§2). TupleEnumerator implements
// this with an explicit odometer over the f-tree's pre-order: advancing to
// the next tuple touches each of the |T| frames at most once.
#ifndef FDB_CORE_ENUMERATE_H_
#define FDB_CORE_ENUMERATE_H_

#include <vector>

#include "core/frep.h"

namespace fdb {

/// One pre-order frame of an f-tree walk: the node, the index of its
/// parent's frame in the frame list (-1 for roots), and the child slot
/// within the parent (for roots: the slot in the root list).
struct PreOrderFrame {
  int node;
  int parent_pos;
  size_t slot;
};

/// Frames for t.PreOrder(). When `keep` is given (indexed by node id, and
/// closed under parents: a kept node's parent is kept), skipped nodes get
/// no frame. Shared by TupleEnumerator and GroupedRep::Materialize.
std::vector<PreOrderFrame> BuildPreOrderFrames(const FTree& t,
                                               const std::vector<char>* keep =
                                                   nullptr);

/// The node mask of visible_only enumeration: a node is kept iff its
/// subtree contains a visible attribute (closed under parents, so it is a
/// valid `keep` argument for BuildPreOrderFrames).
std::vector<char> VisibleKeepMask(const FTree& t);

/// Half-open entry range [begin, end) restricting one pre-order frame of
/// an enumeration. A bounds vector restricts the first bounds.size()
/// frames (in the frame order of the walk, after the visible_only skip);
/// every bound but the last must pin exactly one entry (begin + 1 == end),
/// so the restricted frames form a chain whose unions never change during
/// the walk. The restricted stream is a contiguous slice of the
/// unrestricted stream, in the same order; a bound that misses its union
/// entirely yields the empty stream. Produced by the morsel planner in
/// core/parallel_enumerate.h and run by EnumKernel (core/kernel.h) and
/// GroupedRep::Materialize.
struct EntryBound {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Streams the tuples of an f-representation.
///
/// Contract: in the default mode each *distinct tuple over all attributes
/// of the f-tree* (visible or not) is emitted exactly once; callers
/// project as needed. Projecting the stream onto the visible attributes
/// may therefore repeat visible tuples when the tree retains invisible
/// (projected-away) nodes — consumers that count or aggregate the visible
/// relation must deduplicate, or enumerate with `visible_only`.
///
/// `visible_only` skips every subtree that contains no visible attribute:
/// odometer positions that differ only inside such subtrees collapse into
/// one, so invisible-only nodes no longer multiply the stream. Duplicate
/// *visible* tuples can still arise from invisible nodes that have visible
/// descendants (two values of the invisible node may lead to equal visible
/// sub-tuples below — a data property no structural skip can detect);
/// MaterializeVisible (core/parallel_enumerate.h) removes those by
/// sort+dedup, the only shape it sorts. In this mode only visible
/// attributes of the current tuple are meaningful.
///
/// This is the public pull iterator. Materialisation runs the compiled
/// kernel instead (core/kernel.h), which the tests check against this
/// interpreter as an independent reference.
class TupleEnumerator {
 public:
  explicit TupleEnumerator(const FRep& rep, bool visible_only = false);

  /// Advances to the next tuple; false when exhausted. The first call
  /// positions the enumerator on the first tuple.
  bool Next();

  /// Value of `attr` in the current tuple (valid after Next() == true).
  Value ValueOf(AttrId attr) const { return current_[attr]; }

  /// The current tuple indexed by attribute id (sparse; only attributes of
  /// the f-tree are meaningful).
  const std::vector<Value>& current() const { return current_; }

 private:
  struct Frame : PreOrderFrame {
    uint32_t union_id = 0;
    size_t entry = 0;
    /// The union's size, cached at reset so the hot advance loop compares
    /// one value instead of re-reading the union header on every step.
    size_t limit = 0;
  };

  // Sets frames_[i].union_id from the parent frame (or root slot), resets
  // its entry to 0, caches the union's size and writes the class values
  // into current_.
  void ResetFrame(size_t i);
  void WriteValues(size_t i);

  const FRep* rep_;
  std::vector<Frame> frames_;      // pre-order
  std::vector<size_t> root_slot_;  // frame index -> slot in rep roots
  std::vector<Value> current_;     // indexed by AttrId
  bool started_ = false;
  bool done_ = false;
  bool nullary_pending_ = false;
};

}  // namespace fdb

#endif  // FDB_CORE_ENUMERATE_H_
