// Internal helpers shared by the operator implementations.
//
// Every f-plan operator (§3) has the same shape: it rewrites the unions of
// one f-tree node's children and rebuilds the path above that node;
// everything else is copied. PathRewrite is that one walk. An operator
// names the node `p` whose entries it rewrites (-1 for the root list) and
// supplies a hook for one entry:
//
//   restructure  p = the lowest node whose outside the target f-tree
//                leaves alone (push-up: A's parent G; swap: A's parent;
//                projection: above every projected-away node; -1 when the
//                roots change): its slots become the merged unions of the
//                nodes that now hang below it (Restructure,
//                core/ops_restructure.cc).
//   merge        p = the common parent: A's and B's slots become their
//                join; an empty join drops the entry.
//   absorb       p = parent(B): restrict B's slot to the open A-value
//                (drops the entry when absent), then splice B's single
//                entry out.
//   select       p = parent(X): X's slot keeps the entries that pass; an
//                emptied X-union drops the entry.
//
// Copy policy. Operators produce tree-shaped representations, so plain
// duplication (CopyTree) is exact and is what restructuring, merge and
// absorb use; a swap deliberately duplicates the E_A subtrees per paired
// B-value, which is the size growth the paper's bounds account for.
// Selection and product copy memoised (CopySubtree), so a subtree shared in
// the input stays shared in the output. Both copies commit each union in
// one FRep::AddUnion and fill its child slots after the children.
#ifndef FDB_CORE_OPS_COMMON_H_
#define FDB_CORE_OPS_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/frep.h"
#include "core/validate.h"

namespace fdb {
namespace ops_internal {

/// Sentinel for "this union became empty".
inline constexpr uint32_t kNoUnion = 0xFFFFFFFFu;

/// Deep-copies the union `id` of `src` (with everything below) into `dst`
/// without memoisation: every reference gets its own copy.
uint32_t CopyTree(const FRep& src, uint32_t id, FRep* dst);

/// Deep-copies the union `id` of `src` (with everything below) into `dst`,
/// adding `node_offset` to every f-tree node id. `memo` must have
/// src.NumUnions() entries initialised to kNoUnion; shared subtrees stay
/// shared.
uint32_t CopySubtree(const FRep& src, uint32_t id, FRep* dst,
                     std::vector<uint32_t>* memo, int node_offset = 0);

/// Position of node `n` among its parent's children, or among the roots
/// when `n` is a root: the child slot its unions occupy in the parent's
/// entries (or in FRep::roots()).
size_t ChildSlot(const FTree& tree, int n);

/// How PathRewrite copies the unions it does not rebuild.
enum class CopyPolicy {
  kTree,    ///< CopyTree: one copy per reference
  kShared,  ///< CopySubtree: one copy per input union
};

/// The one rebuild walk of the f-plan operators (see the header comment).
/// Run(p, hook) fills `out` from `in`:
///   * the roots and unions off the root-to-p path are copied whole, by
///     the copy policy;
///   * the unions of p's ancestors are rebuilt entry by entry: the child on
///     the path is rebuilt first, and only if it survived are the entry's
///     value and its other children (copied) committed; an emptied union
///     dies in turn, and a dead root marks `out` empty;
///   * every entry of a union of p goes to the hook, as does the root list
///     (one entry) when p == -1:
///
///       bool hook(const uint32_t* kids, size_t k, std::vector<uint32_t>* nk)
///
///     `kids` are the entry's k child unions in `in` (aligned with p's
///     children, or the roots), and the hook appends the entry's new child
///     unions to `nk`, in the output tree's slot order. Returning false
///     drops the entry (the root list: the whole output); the hook must
///     then have committed nothing. The entry keeps its value.
/// A dropped entry commits nothing, so the only unreachable unions left in
/// `out` are the zero-length stubs of abandoned builders. Run ends with
/// the operators' FDB_VALIDATE_REP. An empty input leaves `out` empty.
class PathRewrite {
 public:
  PathRewrite(const FRep& in, FRep* out, CopyPolicy policy);

  /// Copies union `id` of the input into the output, by the policy.
  uint32_t Copy(uint32_t id) {
    return memo_.empty() ? CopyTree(in_, id, out_)
                         : CopySubtree(in_, id, out_, &memo_);
  }

  /// Value of the entry being rebuilt in the union of on-path node `n` (p
  /// or one of its ancestors); for hooks such as absorb's, which need the
  /// value of an ancestor.
  Value Open(int n) const;

  template <typename Hook>
  void Run(int p, Hook&& hook);

 private:
  template <typename Hook>
  uint32_t Rebuild(uint32_t id, size_t depth, Hook& hook);

  const FRep& in_;
  FRep* out_;
  std::vector<uint32_t> memo_;  ///< CopySubtree memo; empty for kTree
  std::vector<int> path_;       ///< roots-first: p's ancestors, then p
  std::vector<size_t> slot_;    ///< slot_[i]: path_[i]'s slot in its parent
  std::vector<Value> open_;     ///< open_[i]: open entry value of path_[i]
  std::vector<uint32_t> kids_;  ///< the hook's output for one p-entry
};

template <typename Hook>
void PathRewrite::Run(int p, Hook&& hook) {
  if (in_.empty()) return;
  out_->MarkNonEmpty();
  const FTree& t = in_.tree();
  path_.clear();
  slot_.clear();
  for (int x = p; x != -1; x = t.node(x).parent) path_.push_back(x);
  std::reverse(path_.begin(), path_.end());
  for (int x : path_) slot_.push_back(ChildSlot(t, x));
  open_.assign(path_.size(), 0);

  const std::vector<uint32_t>& in_roots = in_.roots();
  std::vector<uint32_t>& roots = out_->roots();
  bool alive;
  if (p == -1) {
    alive = hook(in_roots.data(), in_roots.size(), &roots);
  } else {
    const size_t top = slot_[0];
    const uint32_t nr = Rebuild(in_roots[top], 0, hook);
    alive = nr != kNoUnion;
    for (size_t j = 0; alive && j < in_roots.size(); ++j) {
      roots.push_back(j == top ? nr : Copy(in_roots[j]));
    }
  }
  if (!alive) out_->MarkEmpty();
  FDB_VALIDATE_REP(*out_);
}

template <typename Hook>
uint32_t PathRewrite::Rebuild(uint32_t id, size_t depth, Hook& hook) {
  UnionRef un = in_.u(id);
  const int n = path_[depth];
  const size_t k = in_.tree().node(n).children.size();
  const bool at_p = depth + 1 == path_.size();
  UnionBuilder nu = out_->StartUnion(n);
  for (size_t e = 0; e < un.size(); ++e) {
    open_[depth] = un.value(e);
    if (at_p) {
      kids_.clear();
      if (!hook(un.children() + e * k, k, &kids_)) continue;
      nu.AddValue(un.value(e));
      for (uint32_t c : kids_) nu.AddChild(c);
      continue;
    }
    const size_t slot = slot_[depth + 1];
    const uint32_t nc = Rebuild(un.Child(e, slot, k), depth + 1, hook);
    if (nc == kNoUnion) continue;
    nu.AddValue(un.value(e));
    for (size_t j = 0; j < k; ++j) {
      nu.AddChild(j == slot ? nc : Copy(un.Child(e, j, k)));
    }
  }
  if (nu.empty()) {
    nu.Abandon();
    return kNoUnion;
  }
  return nu.Finish();
}

}  // namespace ops_internal
}  // namespace fdb

#endif  // FDB_CORE_OPS_COMMON_H_
