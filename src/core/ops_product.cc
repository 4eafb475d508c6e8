#include "core/ops.h"
#include "core/ops_common.h"
#include "core/validate.h"

namespace fdb {

namespace {

// Appends t2's nodes to t1 (ids shifted); returns the id offset.
int AppendForest(FTree* t1, const FTree& t2) {
  int offset = static_cast<int>(t1->pool_size());
  for (size_t i = 0; i < t2.pool_size(); ++i) {
    const FTreeNode& n = t2.node(static_cast<int>(i));
    int id = t1->NewNode(n.attrs, n.visible, n.cover_rels, n.dep_rels);
    FTreeNode& nn = t1->node(id);
    nn.constant = n.constant;
    nn.alive = n.alive;
    nn.parent = n.parent == -1 ? -1 : n.parent + offset;
    nn.children.reserve(n.children.size());
    for (int c : n.children) nn.children.push_back(c + offset);
  }
  for (int r : t2.roots()) t1->AttachRoot(r + offset);
  return offset;
}

}  // namespace

FRep Product(const FRep& e1, const FRep& e2) {
  const FTree& t1 = e1.tree();
  const FTree& t2 = e2.tree();
  FDB_CHECK_MSG(!t1.AllAttrs().Intersects(t2.AllAttrs()),
                "product inputs must have disjoint attributes");
  // Relation indices must be disjoint too: dependency sets would otherwise
  // incorrectly link the two forests.
  RelSet r1, r2;
  for (int n : t1.AliveNodes()) r1 = r1.Union(t1.node(n).dep_rels);
  for (int n : t2.AliveNodes()) r2 = r2.Union(t2.node(n).dep_rels);
  FDB_CHECK_MSG(!r1.Intersects(r2),
                "product inputs must use disjoint relation indices");

  FTree tree = t1;
  const int node_offset = AppendForest(&tree, t2);
  FRep out(std::move(tree));
  if (e1.empty() || e2.empty()) return out;  // empty x E = empty

  out.MarkNonEmpty();
  // Copy e1's unions as they are, then e2's with their f-tree node ids
  // shifted like AppendForest shifted its nodes.
  std::vector<uint32_t> memo1(e1.NumUnions(), ops_internal::kNoUnion);
  for (uint32_t r : e1.roots()) {
    out.roots().push_back(ops_internal::CopySubtree(e1, r, &out, &memo1));
  }
  std::vector<uint32_t> memo2(e2.NumUnions(), ops_internal::kNoUnion);
  for (uint32_t r : e2.roots()) {
    out.roots().push_back(
        ops_internal::CopySubtree(e2, r, &out, &memo2, node_offset));
  }
  FDB_VALIDATE_REP(out);
  return out;
}

}  // namespace fdb
