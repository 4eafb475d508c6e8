// Factorised representations (f-representations, §2 Def. 1–2).
//
// An f-representation over an f-tree T is stored *columnar*: instead of one
// heap-allocated node per union, FRep owns three contiguous arenas and every
// union is a (offset, length) window into them:
//
//   values_    [ v v v | v v | v v v v | ... ]   one Value per union entry
//   children_  [ c c c c c c | c c | ... ]       child union ids, row-major:
//                                                entry-major, slot-minor
//   headers_   [ {node, len, val_off, child_off, num_children} ... ]
//              one small header per union; the union id is its index here
//
// One UnionRef (a non-owning view: FRep pointer + union id) materialises one
// occurrence of an f-tree node: the sorted distinct values of the grouping
// class in that context, and for every value one child union per child of
// the f-tree node. Views stay valid across arena growth because they
// re-resolve offsets through the FRep on every access; raw `values()` /
// `children()` pointers are only valid until the next arena append.
//
// Construction goes through UnionBuilder (FRep::StartUnion): entries are
// staged in a small scratch buffer (recycled LIFO across unions, so steady-
// state construction performs no per-union allocation) and committed to the
// arena tail in one append on Finish(). Builders nest like the operator
// recursion that drives them: a child subtree is fully committed before its
// parent finishes, so each committed union occupies one contiguous window.
// A union whose values are known before its children can skip the
// staging: FRep::AddUnion appends its header, values and child slots in
// one step, and the children, committed after it, fill the slots
// (grounding commits most of its childless unions this way, and CopyTree
// every union it copies). Abandon() discards a
// union that turned out empty; its header stays as an unreachable
// zero-length stub. Those stubs are all that the f-plan
// operators leave unreachable (they rebuild through PathRewrite,
// core/ops_common.h, which commits nothing for a dropped entry), but a
// representation read or built elsewhere may hold committed unions that
// nothing references, so every pass over the union DAG visits only what the
// roots reach: SweepBottomUp.
//
// Invariants (checked by Validate(), preserved by every operator):
//   * values within a union are strictly increasing (the paper's order
//     constraint, required by the swap/merge algorithms);
//   * no union stored in a non-empty representation is empty — emptiness
//     propagates to the whole representation (`empty()`);
//   * the child count of every entry equals the f-tree node's child count,
//     and child unions belong to the corresponding child f-tree nodes.
//
// Union ids carry no order: a shared union can sit below one parent's id
// and above another's (memoised copies and WriteFRep's renumbering produce
// both). The order every pass relies on comes from the last invariant
// instead: a child union is bound to a child f-tree node, one level deeper
// than its parents' node, so the unions graded by the depth of their node
// and visited deepest level first come children before parents.
//
// The empty relation over any tree is representable (empty() == true); the
// nullary relation <> is the non-empty representation over the empty forest.
#ifndef FDB_CORE_FREP_H_
#define FDB_CORE_FREP_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/arena_pool.h"
#include "common/asan.h"
#include "common/exec_context.h"
#include "common/fault.h"
#include "common/types.h"
#include "core/ftree.h"

namespace fdb {

class FRep;

/// Per-union arena header: where this union's window lives. Trivial, so
/// the header arena can grow without writing it (see Arena); `UnionHeader{}`
/// is the zeroed header.
struct UnionHeader {
  int32_t node;         ///< owning f-tree node id
  uint32_t len;         ///< number of entries (values)
  size_t val_off;       ///< first value in the value arena
  size_t child_off;     ///< first child id in the child arena
  size_t num_children;  ///< committed child ids (len * #tree children)
};

/// Allocator of the FRep arenas. Its blocks come from the recycler in
/// common/arena_pool.h, which parks a freed block of 1 MiB or more for the
/// next arena growth of its size instead of unmapping it. `resize`
/// default-initialises, which leaves the trivial arena elements unwritten,
/// so FRep::AppendUnions can size an arena once and fill its windows from
/// several threads; a recycled block therefore holds stale bytes until the
/// arena writes them.
template <typename T>
struct ArenaAllocator : std::allocator<T> {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "arena blocks carry the default new alignment");
  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& /*other*/) noexcept {}
  template <typename U>
  struct rebind {
    using other = ArenaAllocator<U>;
  };
  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(AllocateArenaBlock(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    ReleaseArenaBlock(p, n * sizeof(T));
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using Arena = std::vector<T, ArenaAllocator<T>>;

/// Non-owning view of one union. Cheap to copy; stable across arena growth
/// (offsets are re-resolved through the FRep on every access).
class UnionRef {
 public:
  UnionRef() = default;

  int node() const;
  /// Number of entries (values) in the union.
  size_t size() const;
  bool empty() const { return size() == 0; }
  Value value(size_t entry) const;
  /// Contiguous value window, `size()` entries. Valid until the arena grows.
  const Value* values() const;

  size_t num_children() const;
  uint32_t child(size_t i) const;
  /// Contiguous child-id window, `num_children()` entries (entry-major,
  /// slot-minor). Valid until the arena grows.
  const uint32_t* children() const;
  /// Child union of `entry` in child slot `slot` of `nslots`.
  uint32_t Child(size_t entry, size_t slot, size_t nslots) const {
    return children()[entry * nslots + slot];
  }

  /// Offset of this union's window in the value arena: entry `e` has the
  /// rep-wide entry index arena_offset() + e. Stable once the union is
  /// committed (windows never move), which makes it usable as a key for
  /// per-entry side arrays (see GroupedRep in core/aggregate.h).
  size_t arena_offset() const;

  uint32_t id() const { return id_; }

 private:
  friend class FRep;
  UnionRef(const FRep* rep, uint32_t id) : rep_(rep), id_(id) {}

  const FRep* rep_ = nullptr;
  uint32_t id_ = 0;
};

/// Append-only staging handle for one union under construction. Move-only;
/// exactly one of Finish() / Abandon() ends the build (the destructor
/// abandons an open builder). Values and child ids may be appended in any
/// interleaving; Finish() commits both windows to the arena atomically.
class UnionBuilder {
 public:
  UnionBuilder(const UnionBuilder&) = delete;
  UnionBuilder& operator=(const UnionBuilder&) = delete;
  UnionBuilder(UnionBuilder&& other) noexcept;
  UnionBuilder& operator=(UnionBuilder&& other) noexcept;
  ~UnionBuilder();

  uint32_t id() const { return id_; }
  /// Entries staged so far.
  size_t size() const;
  bool empty() const { return size() == 0; }

  void AddValue(Value v);
  void AddChild(uint32_t child);
  void AddValues(const Value* v, size_t n);
  /// Bulk-appends every value of `u` (typically a union of another FRep).
  void CopyValues(const UnionRef& u);

  /// Commits the staged entries to the arena; returns the union id.
  uint32_t Finish();
  /// Discards the staged entries; the id remains an unreachable stub.
  void Abandon();

 private:
  friend class FRep;
  struct Scratch {
    std::vector<Value> vals;
    std::vector<uint32_t> kids;
  };
  UnionBuilder(FRep* rep, uint32_t id, Scratch* s)
      : rep_(rep), s_(s), id_(id) {}

  FRep* rep_ = nullptr;
  Scratch* s_ = nullptr;  ///< null once finished/abandoned/moved-from
  uint32_t id_ = 0;
};

/// A factorised representation bound to an f-tree.
class FRep {
 public:
  /// The empty relation over `tree`.
  explicit FRep(FTree tree) : tree_(std::move(tree)) {}

  // Copies duplicate the arenas (three buffer memcpys); builder scratch is
  // never copied and no builder may be open on the source.
  FRep(const FRep& o)
      : tree_(o.tree_),
        values_(o.values_),
        children_(o.children_),
        headers_(o.headers_),
        roots_(o.roots_),
        empty_(o.empty_) {
    FDB_CHECK_MSG(o.scratch_top_ == 0, "cannot copy an FRep with open builders");
    // The freshly copied buffers carry no poison; re-arm their slack.
    asan::PoisonTail(values_);
    asan::PoisonTail(children_);
    asan::PoisonTail(headers_);
  }
  FRep& operator=(const FRep& o) {
    if (this != &o) *this = FRep(o);
    return *this;
  }
  // Moves relocate the arenas a live UnionBuilder points into, so they are
  // guarded like copies. Deliberately not noexcept: misuse must surface as
  // an FdbError, and containers fall back to the (equally guarded) copy.
  FRep(FRep&& o)
      : tree_(std::move(o.tree_)),
        values_(std::move(o.values_)),
        children_(std::move(o.children_)),
        headers_(std::move(o.headers_)),
        roots_(std::move(o.roots_)),
        empty_(o.empty_),
        scratch_(std::move(o.scratch_)) {
    FDB_CHECK_MSG(o.scratch_top_ == 0, "cannot move an FRep with open builders");
  }
  FRep& operator=(FRep&& o) {
    if (this != &o) {
      FDB_CHECK_MSG(scratch_top_ == 0 && o.scratch_top_ == 0,
                    "cannot move an FRep with open builders");
      tree_ = std::move(o.tree_);
      values_ = std::move(o.values_);
      children_ = std::move(o.children_);
      headers_ = std::move(o.headers_);
      roots_ = std::move(o.roots_);
      empty_ = o.empty_;
      scratch_ = std::move(o.scratch_);
    }
    return *this;
  }

  const FTree& tree() const { return tree_; }
  FTree& tree() { return tree_; }

  /// True for the empty relation (no tuples).
  bool empty() const { return empty_; }
  void MarkNonEmpty() { empty_ = false; }
  /// Empties the representation and gives up its arena capacity
  /// (shrink_to_fit semantics), so emptied intermediates inside f-plan
  /// execution do not pin peak memory. Blocks of 1 MiB or more are parked
  /// in the bounded arena pool (common/arena_pool.h) for the next arena
  /// growth rather than returned to the heap.
  void MarkEmpty();

  /// Opens a builder for a new union of f-tree node `node`. The id is
  /// assigned immediately; the data window is committed on Finish().
  UnionBuilder StartUnion(int node);

  /// Commits a union of f-tree node `node` holding the `n` values at
  /// `vals` (strictly increasing, n > 0) in one step: its header, values
  /// and `num_children` child slots (entry-major; none for a childless
  /// node) go to the arena tails together, with no builder and no scratch.
  /// The slots are then filled with SetChild, once the children are
  /// committed after it (a copy knows a union's values before its
  /// children). It charges the bytes StartUnion + Finish would, in one
  /// charge, after the same cancellation probe and frep_arena_commit fault
  /// site. Builders may be open: the union's windows are reserved whole,
  /// so they are contiguous like any other. `node` is not looked up (a
  /// build segment's tree is empty, see AppendUnions). Returns the union
  /// id.
  uint32_t AddUnion(int node, const Value* vals, size_t n,
                    size_t num_children = 0);

  /// Sets child slot `i` of a union committed by AddUnion.
  void SetChild(uint32_t id, size_t i, uint32_t child) {
    children_[headers_[id].child_off + i] = child;
  }

  /// View of union `id`.
  UnionRef u(uint32_t id) const { return UnionRef(this, id); }

  /// Root unions, aligned with tree().roots() order.
  std::vector<uint32_t>& roots() { return roots_; }
  const std::vector<uint32_t>& roots() const { return roots_; }

  size_t NumUnions() const { return headers_.size(); }

  // Read-only arena geometry, for the deep structural checker
  // (core/validate.h): it must bounds-check every header window against the
  // arenas *before* dereferencing values/children through UnionRef.
  const UnionHeader& HeaderOf(uint32_t id) const { return headers_[id]; }
  size_t ValueArenaSize() const { return values_.size(); }
  size_t ChildArenaSize() const { return children_.size(); }
  /// Allocated (not just live) value-arena entries. The slack
  /// [ValueArenaSize(), ValueArenaCapacity()) is ASan-poisoned between
  /// mutations (common/asan.h); tests/asan_poison_test.cc probes it.
  size_t ValueArenaCapacity() const { return values_.capacity(); }
  /// Builders currently open (non-zero means arenas may still move).
  size_t OpenBuilders() const { return scratch_top_; }

  /// Appends the unions of `segs`, in order, after this representation's
  /// own: the arenas grow once, then each segment copies its headers,
  /// values and child ids into its own window, union ids and arena offsets
  /// shifted past what precedes it, so the arenas read as if the segments'
  /// unions had been built here. A segment's ids thus shift by NumUnions()
  /// before the call plus the NumUnions() of the segments before it; add
  /// that to any id pointing into it, such as a root entry's children. A
  /// zero-length window (an abandoned stub) keeps its zero offsets, as it
  /// would have here. The copies run on up to `threads` threads of the
  /// shared pool (common/thread_pool.h). Segment roots are not carried
  /// over, and nothing is charged to the ambient budget: a segment charged
  /// its unions when it committed them. Builders may be open here (they
  /// stage outside the arenas, and the growth leaves room for what they
  /// have staged), not on the segments.
  void AppendUnions(const std::vector<const FRep*>& segs, int threads);

  /// Number of singletons (the paper's |E|): every value of a union counts
  /// once per *visible* attribute of its class.
  size_t NumSingletons() const;

  /// Number of physically stored values (one per union entry).
  size_t NumValues() const;

  /// Heap bytes held by this representation: value arena + child arena +
  /// union headers + roots + recycled builder scratch, capacity-based (what
  /// the allocator actually handed out, not just live data).
  size_t MemoryBytes() const;

  /// Calls fn(node, id) once for every union reachable from the roots,
  /// children before parents: a breadth-first pass from the roots grades
  /// the reachable unions by the depth of their f-tree node (see the
  /// header comment), and `fn` receives them deepest level first, in
  /// reverse discovery order (no order is promised within one level).
  /// When `keep` is given (indexed by f-tree node id, closed under
  /// parents), masked nodes and everything below them are pruned.
  /// Abandoned stubs and unreferenced unions are never visited. The one
  /// pass over the union DAG: counts, statistics and aggregates all fold
  /// through it, and it holds their governance probe (the ambient
  /// ExecContext's CheckCancelled every 256 unions). Trusts the child
  /// binding, so the validators keep their own walks.
  template <typename Fn>
  void SweepBottomUp(Fn&& fn, const std::vector<char>* keep = nullptr) const;

  /// Number of represented tuples (over all attributes, visible or not),
  /// by dynamic programming over the union DAG (SweepBottomUp). The DP
  /// accumulates in uint64_t, so the count is exact whenever it fits 64
  /// bits; past that it is the root product of SubtreeTupleCounts(). When
  /// `exact` is given it is set to true iff the returned double equals the
  /// true count.
  double CountTuples(bool* exact = nullptr) const;

  /// Exact tuple count; throws FdbError when the count overflows uint64_t
  /// (product-heavy representations can exceed 2^64 tuples).
  uint64_t CountTuplesExact() const;

  /// Exact tuple count into *out; false (and *out untouched) when it
  /// overflows uint64_t.
  bool TryCountTuples(uint64_t* out) const;

  /// The per-union tuple counts of one SweepBottomUp: out[id] = number of
  /// tuples represented by the subtree rooted at union id, accumulated in
  /// double (exact below 2^53). When `keep` is given (indexed by f-tree
  /// node id, closed under parents), child slots whose node is masked out
  /// contribute factor 1 — the count of the enumeration stream restricted
  /// to kept frames (TupleEnumerator's visible_only mode). Unions the
  /// sweep does not reach (abandoned stubs, unreferenced unions, unions
  /// below a masked node) read 0. Feeds CountTuples past 2^64 and the
  /// morsel-plan validator's oracle (core/validate.h); the planner itself
  /// sizes the stream with the kernel's count walk (EnumKernel::
  /// CountEntries), in proportion to the output rather than to the DAG.
  std::vector<double> SubtreeTupleCounts(
      const std::vector<char>* keep = nullptr) const;

  /// Checks all representation invariants; throws FdbError on violation.
  void Validate() const;

 private:
  friend class UnionRef;
  friend class UnionBuilder;
  using Scratch = UnionBuilder::Scratch;

  const UnionHeader& header(uint32_t id) const { return headers_[id]; }

  /// SweepBottomUp's grading: the reachable union ids in breadth-first
  /// order from the roots (shallower f-tree levels first).
  std::vector<uint32_t> ReachableTopDown(const std::vector<char>* keep) const;

  Scratch* AcquireScratch();
  void ReleaseScratch(Scratch* s);
  /// The governance of one commit, before it touches the arenas: a
  /// cancellation probe, the charge of `bytes` and the frep_arena_commit
  /// fault site.
  static void ChargeCommit(size_t bytes);
  /// Appends `h` to the header arena; returns its id.
  uint32_t PushHeader(const UnionHeader& h);
  void CommitUnion(uint32_t id, const Scratch& s);

  FTree tree_;
  Arena<Value> values_;          ///< value arena
  Arena<uint32_t> children_;     ///< child-id arena
  Arena<UnionHeader> headers_;   ///< union id -> window
  std::vector<uint32_t> roots_;
  bool empty_ = true;
  // LIFO pool of staging buffers for open builders; entries keep their
  // capacity across unions so steady-state building does not allocate.
  std::vector<std::unique_ptr<Scratch>> scratch_;
  size_t scratch_top_ = 0;  ///< scratch_[0, scratch_top_) are in use
};

// ---- UnionRef inline accessors (need FRep complete) ----

inline int UnionRef::node() const { return rep_->header(id_).node; }
inline size_t UnionRef::size() const { return rep_->header(id_).len; }
inline Value UnionRef::value(size_t entry) const {
  return rep_->values_[rep_->header(id_).val_off + entry];
}
inline const Value* UnionRef::values() const {
  return rep_->values_.data() + rep_->header(id_).val_off;
}
inline size_t UnionRef::num_children() const {
  return rep_->header(id_).num_children;
}
inline uint32_t UnionRef::child(size_t i) const {
  return rep_->children_[rep_->header(id_).child_off + i];
}
inline const uint32_t* UnionRef::children() const {
  return rep_->children_.data() + rep_->header(id_).child_off;
}
inline size_t UnionRef::arena_offset() const {
  return rep_->header(id_).val_off;
}

template <typename Fn>
void FRep::SweepBottomUp(Fn&& fn, const std::vector<char>* keep) const {
  const std::vector<uint32_t> order = ReachableTopDown(keep);
  ExecContext* const ctx = ExecContext::Current();
  for (size_t i = order.size(); i > 0; --i) {
    if (ctx != nullptr && (i & 255u) == 0) ctx->CheckCancelled();
    const uint32_t id = order[i - 1];
    fn(static_cast<int>(headers_[id].node), id);
  }
}

// ---- UnionBuilder inline members ----

inline size_t UnionBuilder::size() const { return s_->vals.size(); }
inline void UnionBuilder::AddValue(Value v) { s_->vals.push_back(v); }
inline void UnionBuilder::AddChild(uint32_t child) {
  s_->kids.push_back(child);
}
inline void UnionBuilder::AddValues(const Value* v, size_t n) {
  s_->vals.insert(s_->vals.end(), v, v + n);
}
inline void UnionBuilder::CopyValues(const UnionRef& u) {
  AddValues(u.values(), u.size());
}

inline UnionBuilder::UnionBuilder(UnionBuilder&& other) noexcept
    : rep_(other.rep_), s_(other.s_), id_(other.id_) {
  other.s_ = nullptr;
}
inline UnionBuilder& UnionBuilder::operator=(UnionBuilder&& other) noexcept {
  if (this != &other) {
    if (s_ != nullptr) Abandon();
    rep_ = other.rep_;
    s_ = other.s_;
    id_ = other.id_;
    other.s_ = nullptr;
  }
  return *this;
}
inline UnionBuilder::~UnionBuilder() {
  if (s_ != nullptr) Abandon();
}

inline uint32_t UnionBuilder::Finish() {
  FDB_CHECK_MSG(s_ != nullptr, "Finish() on a closed UnionBuilder");
  rep_->CommitUnion(id_, *s_);
  rep_->ReleaseScratch(s_);
  s_ = nullptr;
  return id_;
}

inline void UnionBuilder::Abandon() {
  FDB_CHECK_MSG(s_ != nullptr, "Abandon() on a closed UnionBuilder");
  rep_->ReleaseScratch(s_);
  s_ = nullptr;
}

// ---- FRep inline builder plumbing ----

inline uint32_t FRep::PushHeader(const UnionHeader& h) {
  asan::UnpoisonTail(headers_);
  headers_.push_back(h);
  asan::PoisonTail(headers_);
  return static_cast<uint32_t>(headers_.size()) - 1;
}

inline UnionBuilder FRep::StartUnion(int node) {
  ChargeAmbientMemory(sizeof(UnionHeader));
  UnionHeader h{};
  h.node = node;
  const uint32_t id = PushHeader(h);
  return UnionBuilder(this, id, AcquireScratch());
}

inline uint32_t FRep::AddUnion(int node, const Value* vals, size_t n,
                               size_t num_children) {
  FDB_CHECK(n > 0);
  // One charge for the header, the values and the child slots: a commit
  // that unwinds leaves no stub behind.
  ChargeCommit(sizeof(UnionHeader) + n * sizeof(Value) +
               num_children * sizeof(uint32_t));
  const uint32_t id = PushHeader(UnionHeader{node, static_cast<uint32_t>(n),
                                             values_.size(), children_.size(),
                                             num_children});
  asan::UnpoisonTail(values_);
  values_.insert(values_.end(), vals, vals + n);
  asan::PoisonTail(values_);
  if (num_children > 0) {
    asan::UnpoisonTail(children_);
    children_.resize(children_.size() + num_children);
    asan::PoisonTail(children_);
  }
  return id;
}

inline FRep::Scratch* FRep::AcquireScratch() {
  if (scratch_top_ == scratch_.size()) {
    scratch_.push_back(std::make_unique<Scratch>());
  }
  Scratch* s = scratch_[scratch_top_++].get();
  // Recycled buffers are poisoned while parked (ReleaseScratch); re-admit
  // them before the builder starts staging into them.
  asan::UnpoisonBuffer(s->vals);
  asan::UnpoisonBuffer(s->kids);
  return s;
}

inline void FRep::ReleaseScratch(Scratch* s) {
  // Builders nest with the operator recursion, so the released buffer is
  // almost always top-of-stack; out-of-order release (e.g. builders stored
  // in a container) is tolerated by swapping the slot to the top. Never
  // throws: this runs inside UnionBuilder's destructor.
  s->vals.clear();
  s->kids.clear();
  // Parked scratch is logically dead until the next AcquireScratch; poison
  // the whole buffers so a stale builder reference faults instead of
  // reading recycled bytes.
  asan::PoisonBuffer(s->vals);
  asan::PoisonBuffer(s->kids);
  for (size_t i = scratch_top_; i > 0; --i) {
    if (scratch_[i - 1].get() == s) {
      std::swap(scratch_[i - 1], scratch_[scratch_top_ - 1]);
      --scratch_top_;
      return;
    }
  }
}

inline void FRep::ChargeCommit(size_t bytes) {
  // Governance probe at arena-growth granularity: check for cancellation
  // and charge the appended bytes *before* mutating the arenas, so an
  // unwinding commit leaves the rep discardable rather than half-written
  // (the caller's UnionBuilder still owns the scratch and Abandons it).
  if (ExecContext* ctx = ExecContext::Current()) {
    ctx->CheckCancelled();
    ctx->ChargeMemory(bytes);
  }
  FDB_FAULT_POINT("frep_arena_commit");
}

inline void FRep::CommitUnion(uint32_t id, const Scratch& s) {
  ChargeCommit(s.vals.size() * sizeof(Value) +
               s.kids.size() * sizeof(uint32_t));
  UnionHeader& h = headers_[id];
  h.val_off = values_.size();
  h.child_off = children_.size();
  h.len = static_cast<uint32_t>(s.vals.size());
  h.num_children = s.kids.size();
  // The appends construct elements inside the (poisoned) slack when
  // capacity suffices; open the slack for the writes, then re-arm it. A
  // reallocating append frees or parks the old buffer and the fresh one
  // starts clean (common/asan.h), so PoisonTail is correct either way.
  asan::UnpoisonTail(values_);
  values_.insert(values_.end(), s.vals.begin(), s.vals.end());
  asan::PoisonTail(values_);
  asan::UnpoisonTail(children_);
  children_.insert(children_.end(), s.kids.begin(), s.kids.end());
  asan::PoisonTail(children_);
}

}  // namespace fdb

#endif  // FDB_CORE_FREP_H_
