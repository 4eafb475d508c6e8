#include "core/ops.h"
#include "core/ops_common.h"

namespace fdb {

using ops_internal::ChildSlot;
using ops_internal::CopyPolicy;
using ops_internal::PathRewrite;

namespace {

// Removes a fully projected *leaf* node: its unions disappear and the
// parent's dependency set inherits the leaf's (§3.4). Dropping a leaf union
// never empties anything and never duplicates tuples — which is exactly why
// projection sinks marked nodes to the leaves first.
FRep RemoveInvisibleLeaf(const FRep& in, int n) {
  const FTree& t = in.tree();
  const size_t slot_n = ChildSlot(t, n);

  FTree new_tree = t;
  new_tree.RemoveLeaf(n);
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);
  rw.Run(t.node(n).parent,
         [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
           for (size_t j = 0; j < k; ++j) {
             if (j != slot_n) nk->push_back(rw.Copy(kids[j]));
           }
           return true;
         });
  return out;
}

}  // namespace

// pi_keep (§3.4): mark attributes, sink fully marked nodes to the leaves by
// swapping them with a child, remove them there, then normalise. The steps
// are FTree::NextProjectStep's, which the f-plan simulation takes too.
FRep Project(const FRep& in, AttrSet keep) {
  FRep cur = in;
  cur.tree().RestrictVisible(keep);
  for (FTree::ProjectStep s = cur.tree().NextProjectStep(); s.node != -1;
       s = cur.tree().NextProjectStep()) {
    if (s.child == -1) {
      cur = RemoveInvisibleLeaf(cur, s.node);
    } else {
      // chi_{node, first child}: the child takes the node's place.
      const FTree& t = cur.tree();
      cur = Swap(cur, t.node(s.node).attrs.Min(), t.node(s.child).attrs.Min());
    }
  }
  return Normalize(cur);
}

}  // namespace fdb
