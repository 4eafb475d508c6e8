#include <cstdint>
#include <utility>
#include <vector>

#include "core/ops.h"
#include "core/ops_common.h"
#include "core/simd.h"

namespace fdb {

using ops_internal::ChildSlot;
using ops_internal::CopyPolicy;
using ops_internal::PathRewrite;

// sigma_{A theta c} (§3.3): one pass over the representation. Unions of A's
// node drop the entries failing the comparison; an emptied union removes the
// enclosing entry, cascading upwards. For theta = '=' the node afterwards
// holds the single value c everywhere, so it is flagged constant and the
// final normalisation floats it towards the root. Copies are memoised, so a
// subtree shared in the input stays shared.
FRep SelectConst(const FRep& in, AttrId attr, CmpOp op, Value c) {
  const FTree& t = in.tree();
  const int x = t.FindAttr(attr);
  FDB_CHECK_MSG(x >= 0, "selection attribute not in the f-tree");
  const size_t slot_x = ChildSlot(t, x);
  const size_t kx = t.node(x).children.size();

  FTree new_tree = t;
  if (op == CmpOp::kEq) new_tree.node(x).constant = true;
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kShared);

  // Predicate mask scratch, reused across X-unions: batched evaluation over
  // the contiguous value window (one vectorised pass) instead of per-entry
  // EvalCmp dispatch.
  std::vector<uint8_t> mask;
  rw.Run(t.node(x).parent,
         [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
           UnionRef ux = in.u(kids[slot_x]);
           mask.resize(ux.size());
           simd::CmpMask(ux.values(), ux.size(), op, c, mask.data());
           UnionBuilder nx = out.StartUnion(x);
           for (size_t e = 0; e < ux.size(); ++e) {
             if (mask[e] == 0) continue;
             nx.AddValue(ux.value(e));
             for (size_t j = 0; j < kx; ++j) {
               nx.AddChild(rw.Copy(ux.Child(e, j, kx)));
             }
           }
           if (nx.empty()) {
             nx.Abandon();
             return false;
           }
           const uint32_t filtered = nx.Finish();
           for (size_t j = 0; j < k; ++j) {
             nk->push_back(j == slot_x ? filtered : rw.Copy(kids[j]));
           }
           return true;
         });
  if (op == CmpOp::kEq) return Normalize(std::move(out));
  return out;
}

}  // namespace fdb
