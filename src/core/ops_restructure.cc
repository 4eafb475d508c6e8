#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "core/ops.h"
#include "core/ops_common.h"

namespace fdb {

using ops_internal::ChildSlot;
using ops_internal::CopyPolicy;
using ops_internal::kNoUnion;
using ops_internal::PathRewrite;

FRep PushUp(const FRep& in, AttrId b_attr) {
  const FTree& t = in.tree();
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(b >= 0, "push-up attribute not in the f-tree");
  const int a = t.node(b).parent;
  FDB_CHECK_MSG(a != -1, "cannot push up a root node");
  FDB_CHECK_MSG(!t.DependentOnSubtree(a, b),
                "push-up would violate the path constraint: parent depends "
                "on the lifted subtree");

  const size_t slot_b = ChildSlot(t, b);
  const size_t ka = t.node(a).children.size();
  const int g = t.node(a).parent;
  const size_t slot_a = ChildSlot(t, a);

  FTree new_tree = t;
  new_tree.PushUpTree(b);
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);

  // Rebuilds one occurrence of A's union without its B slot; the hoisted
  // B-union is taken from the first entry (all copies are equal because
  // neither B nor its subtree depends on A).
  auto rebuild_a = [&](uint32_t id, uint32_t* hoisted_b) {
    UnionRef un = in.u(id);
    FDB_CHECK(un.node() == a);
    *hoisted_b = rw.Copy(un.Child(0, slot_b, ka));
    UnionBuilder na = out.StartUnion(a);
    na.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < ka; ++j) {
        if (j != slot_b) na.AddChild(rw.Copy(un.Child(e, j, ka)));
      }
    }
    return na.Finish();
  };

  // Each G-entry gains the B-union hoisted out of its A-union where
  // PushUpTree puts B: a new last slot under G, or right after A among the
  // roots when A is a root.
  rw.Run(g, [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
    uint32_t hb = kNoUnion;
    for (size_t j = 0; j < k; ++j) {
      if (j != slot_a) {
        nk->push_back(rw.Copy(kids[j]));
        continue;
      }
      nk->push_back(rebuild_a(kids[j], &hb));
      if (g == -1) nk->push_back(hb);
    }
    if (g != -1) nk->push_back(hb);
    return true;
  });
  return out;
}

FRep Normalize(FRep cur) {
  for (int n = cur.tree().FirstLiftable(); n != -1;
       n = cur.tree().FirstLiftable()) {
    cur = PushUp(cur, cur.tree().node(n).attrs.Min());
  }
  return cur;
}

FRep Swap(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  const int a = t.FindAttr(a_attr);
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "swap attribute not in the f-tree");
  FDB_CHECK_MSG(t.node(b).parent == a,
                "swap requires the second node to be a child of the first");

  const size_t ka = t.node(a).children.size();
  const size_t slot_b = ChildSlot(t, b);
  const size_t slot_a = ChildSlot(t, a);
  // T_A: A's other children, in order.
  std::vector<size_t> ta_slots;
  for (size_t j = 0; j < ka; ++j) {
    if (j != slot_b) ta_slots.push_back(j);
  }
  // Partition B's children exactly as SwapTree does (on the old tree).
  const auto& b_children = t.node(b).children;
  const size_t kb = b_children.size();
  std::vector<size_t> tb_slots, tab_slots;
  for (size_t j = 0; j < kb; ++j) {
    if (t.DependentOnSubtree(a, b_children[j])) {
      tab_slots.push_back(j);
    } else {
      tb_slots.push_back(j);
    }
  }

  FTree new_tree = t;
  new_tree.SwapTree(a, b);

  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);

  // Fig. 4: regroups one occurrence of A's union by B-values using a
  // min-priority queue of (b value, A-entry index, position).
  auto swap_union = [&](uint32_t id) -> uint32_t {
    UnionRef un = in.u(id);
    FDB_CHECK(un.node() == a);
    using Key = std::tuple<Value, size_t, size_t>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> pq;
    for (size_t e = 0; e < un.size(); ++e) {
      pq.push({in.u(un.Child(e, slot_b, ka)).value(0), e, 0});
    }
    UnionBuilder nb = out.StartUnion(b);
    while (!pq.empty()) {
      const Value bmin = std::get<0>(pq.top());
      UnionBuilder va = out.StartUnion(a);  // the union V_bmin of paired A's
      std::vector<uint32_t> fb;             // T_B children of bmin, once
      bool captured = false;
      while (!pq.empty() && std::get<0>(pq.top()) == bmin) {
        auto [bv, e, pos] = pq.top();
        pq.pop();
        UnionRef ub = in.u(un.Child(e, slot_b, ka));
        if (!captured) {
          for (size_t j : tb_slots) {
            fb.push_back(rw.Copy(ub.Child(pos, j, kb)));
          }
          captured = true;
        }
        // New A entry: value a_e with children T_A then T_AB.
        va.AddValue(un.value(e));
        for (size_t j : ta_slots) {
          va.AddChild(rw.Copy(un.Child(e, j, ka)));
        }
        for (size_t j : tab_slots) {
          va.AddChild(rw.Copy(ub.Child(pos, j, kb)));
        }
        if (pos + 1 < ub.size()) {
          pq.push({ub.value(pos + 1), e, pos + 1});
        }
      }
      uint32_t va_id = va.Finish();
      nb.AddValue(bmin);
      for (uint32_t f : fb) nb.AddChild(f);
      nb.AddChild(va_id);  // A is B's last child
    }
    return nb.Finish();
  };

  // B's regrouped union takes A's slot (SwapTree puts B at A's position).
  rw.Run(t.node(a).parent,
         [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
           for (size_t j = 0; j < k; ++j) {
             nk->push_back(j == slot_a ? swap_union(kids[j])
                                       : rw.Copy(kids[j]));
           }
           return true;
         });
  return out;
}

}  // namespace fdb
