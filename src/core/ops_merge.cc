#include <utility>
#include <vector>

#include "core/ops.h"
#include "core/ops_common.h"
#include "core/simd.h"

namespace fdb {

using ops_internal::ChildSlot;
using ops_internal::CopyPolicy;
using ops_internal::kNoUnion;
using ops_internal::PathRewrite;

// mu_{A,B} (§3.3, Fig. 3(c)): sort-merge join of two sibling unions. The
// merged node keeps A's id; its child slots are A's followed by B's.
FRep Merge(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  const int a = t.FindAttr(a_attr);
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "merge attribute not in the f-tree");
  if (a == b) return in;  // the condition already holds (same class)
  FDB_CHECK_MSG(t.node(a).parent == t.node(b).parent,
                "merge requires sibling nodes (or two roots)");

  const size_t ka = t.node(a).children.size();
  const size_t kb = t.node(b).children.size();
  const size_t slot_a = ChildSlot(t, a);
  const size_t slot_b = ChildSlot(t, b);

  FTree new_tree = t;
  new_tree.MergeTree(a, b);
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);

  // Sort-merge two unions; kNoUnion when the intersection is empty. The
  // value intersection runs first over the two contiguous arena windows
  // (branch-free / galloping, core/simd.h) — the child-copying pass then
  // only touches matching entries.
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  auto merge_unions = [&](uint32_t ida, uint32_t idb) -> uint32_t {
    UnionRef ua = in.u(ida);
    UnionRef ub = in.u(idb);
    matches.clear();
    simd::IntersectSorted(ua.values(), ua.size(), ub.values(), ub.size(),
                          &matches);
    if (matches.empty()) return kNoUnion;
    UnionBuilder m = out.StartUnion(a);
    for (const auto& [i, j] : matches) {
      m.AddValue(ua.value(i));
      for (size_t s = 0; s < ka; ++s) {
        m.AddChild(rw.Copy(ua.Child(i, s, ka)));
      }
      for (size_t s = 0; s < kb; ++s) {
        m.AddChild(rw.Copy(ub.Child(j, s, kb)));
      }
    }
    return m.Finish();
  };

  // The merged union takes A's slot and B's slot disappears (the slot
  // layout of MergeTree); a P-entry, or the root list, whose A- and
  // B-unions do not intersect is dropped, cascading upwards.
  rw.Run(t.node(a).parent,
         [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
           const uint32_t merged = merge_unions(kids[slot_a], kids[slot_b]);
           if (merged == kNoUnion) return false;
           for (size_t j = 0; j < k; ++j) {
             if (j == slot_b) continue;
             nk->push_back(j == slot_a ? merged : rw.Copy(kids[j]));
           }
           return true;
         });
  return out;
}

// alpha_{A,B} (§3.3, Fig. 3(d)): restrict each B-union to the value of its
// A-ancestor, splice the now-degenerate B node out, then normalise.
FRep Absorb(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  int a = t.FindAttr(a_attr);
  int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "absorb attribute not in the f-tree");
  if (a == b) return in;  // same class: condition already holds
  if (t.IsAncestor(b, a)) std::swap(a, b);  // orient: a above b
  FDB_CHECK_MSG(t.IsAncestor(a, b),
                "absorb requires ancestor/descendant classes");

  // ---- Phase 1: restrict (tree unchanged). Each B-union keeps only the
  // entry of its open A-value; a P-entry whose B-union lacks it is
  // dropped, cascading upwards. ----
  const int p = t.node(b).parent;
  const size_t slot_b = ChildSlot(t, b);
  const size_t kb = t.node(b).children.size();
  FRep mid(t);
  PathRewrite narrow(in, &mid, CopyPolicy::kTree);
  narrow.Run(p, [&](const uint32_t* kids, size_t k,
                    std::vector<uint32_t>* nk) {
    UnionRef ub = in.u(kids[slot_b]);
    const Value av = narrow.Open(a);
    // Branchless point lookup in the contiguous value window.
    const size_t e = simd::FindValue(ub.values(), ub.size(), av);
    if (e == ub.size()) return false;
    UnionBuilder nb = mid.StartUnion(b);
    nb.AddValue(av);
    for (size_t s = 0; s < kb; ++s) {
      nb.AddChild(narrow.Copy(ub.Child(e, s, kb)));
    }
    const uint32_t restricted = nb.Finish();
    for (size_t j = 0; j < k; ++j) {
      nk->push_back(j == slot_b ? restricted : narrow.Copy(kids[j]));
    }
    return true;
  });

  // ---- Phase 2: fuse B into A; B's children take B's slot under its
  // parent (FuseTree's layout). Every surviving B-union has one entry. ----
  FTree fused_tree = t;
  fused_tree.FuseTree(a, b);
  FRep out(std::move(fused_tree));
  PathRewrite fuse(mid, &out, CopyPolicy::kTree);
  fuse.Run(p, [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
    for (size_t j = 0; j < k; ++j) {
      if (j != slot_b) {
        nk->push_back(fuse.Copy(kids[j]));
        continue;
      }
      UnionRef ub = mid.u(kids[j]);
      FDB_CHECK(ub.size() == 1);
      for (size_t s = 0; s < kb; ++s) {
        nk->push_back(fuse.Copy(ub.Child(0, s, kb)));
      }
    }
    return true;
  });

  // ---- Phase 3: normalise (push up what the fuse made independent). ----
  return Normalize(std::move(out));
}

}  // namespace fdb
