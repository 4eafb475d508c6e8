#include "core/ops_common.h"

namespace fdb {
namespace ops_internal {

uint32_t CopyTree(const FRep& src, uint32_t id, FRep* dst) {
  UnionRef un = src.u(id);
  const size_t k = un.num_children();
  const uint32_t out = dst->AddUnion(un.node(), un.values(), un.size(), k);
  for (size_t i = 0; i < k; ++i) {
    dst->SetChild(out, i, CopyTree(src, un.child(i), dst));
  }
  return out;
}

uint32_t CopySubtree(const FRep& src, uint32_t id, FRep* dst,
                     std::vector<uint32_t>* memo, int node_offset) {
  if ((*memo)[id] != kNoUnion) return (*memo)[id];
  UnionRef un = src.u(id);
  const size_t k = un.num_children();
  const uint32_t out =
      dst->AddUnion(un.node() + node_offset, un.values(), un.size(), k);
  for (size_t i = 0; i < k; ++i) {
    dst->SetChild(out, i,
                  CopySubtree(src, un.child(i), dst, memo, node_offset));
  }
  return (*memo)[id] = out;
}

size_t ChildSlot(const FTree& tree, int n) {
  const int p = tree.node(n).parent;
  const std::vector<int>& slots =
      p == -1 ? tree.roots() : tree.node(p).children;
  const auto it = std::find(slots.begin(), slots.end(), n);
  FDB_CHECK(it != slots.end());
  return static_cast<size_t>(it - slots.begin());
}

PathRewrite::PathRewrite(const FRep& in, FRep* out, CopyPolicy policy)
    : in_(in), out_(out) {
  if (policy == CopyPolicy::kShared) memo_.assign(in.NumUnions(), kNoUnion);
}

Value PathRewrite::Open(int n) const {
  const auto it = std::find(path_.begin(), path_.end(), n);
  FDB_CHECK_MSG(it != path_.end(), "Open() of a node off the rewrite path");
  return open_[static_cast<size_t>(it - path_.begin())];
}

}  // namespace ops_internal
}  // namespace fdb
