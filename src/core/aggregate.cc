#include "core/aggregate.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_set>

#include "common/exec_context.h"
#include "core/enumerate.h"
#include "core/ops.h"
#include "core/validate.h"

namespace fdb {

namespace {

constexpr const char* kCountOverflow =
    "aggregate tuple count overflows uint64 — a weighted aggregate over "
    "this representation would be silently inexact";

uint64_t MulCount(uint64_t a, uint64_t b) {
  uint64_t out;
  FDB_CHECK_MSG(!U64MulOverflow(a, b, &out), kCountOverflow);
  return out;
}

uint64_t AddCount(uint64_t a, uint64_t b) {
  uint64_t out;
  FDB_CHECK_MSG(!U64AddOverflow(a, b, &out), kCountOverflow);
  return out;
}

// DP over the union pool: for each union, the tuple count of the sub-
// representation and the sum of `attr` over its tuples. For an entry with
// value v and child counts c_1..c_k / child sums s_1..s_k:
//   count contribution:  prod_j c_j
//   sum contribution:    [node has attr] * v * prod_j c_j
//                        + sum_j s_j * prod_{j' != j} c_{j'}
// Counts accumulate in uint64_t and throw on overflow: past 2^64 the
// weighted sum recurrence would silently round, so SUM/AVG refuse.
struct CountSum {
  uint64_t count = 0;
  double sum = 0.0;
};

// Solves every reachable union in one FRep::SweepBottomUp, then combines
// the forest roots (a product): count multiplies; the sum of attr over a
// product is sum_i s_i * prod_{i' != i} c_{i'} — attr lives in exactly one
// root tree, so only one s_i is non-zero.
CountSum SolveForest(const FRep& rep, AttrId attr) {
  std::vector<CountSum> memo(rep.NumUnions());
  rep.SweepBottomUp([&](int node, uint32_t id) {
    const UnionRef un = rep.u(id);
    const FTreeNode& nd = rep.tree().node(node);
    const size_t k = nd.children.size();
    const bool has_attr = nd.attrs.Contains(attr);
    CountSum out;
    for (size_t e = 0; e < un.size(); ++e) {
      uint64_t prod = 1;
      double weighted = 0.0;  // sum_j s_j * prod_{j' != j} c_{j'}
      for (size_t j = 0; j < k; ++j) {
        const CountSum& c = memo[un.Child(e, j, k)];
        weighted = weighted * static_cast<double>(c.count) +
                   c.sum * static_cast<double>(prod);
        prod = MulCount(prod, c.count);
      }
      out.count = AddCount(out.count, prod);
      out.sum += weighted;
      if (has_attr) {
        out.sum += static_cast<double>(un.value(e)) * static_cast<double>(prod);
      }
    }
    memo[id] = out;
  });
  CountSum total{1, 0.0};
  for (uint32_t r : rep.roots()) {
    const CountSum& c = memo[r];
    total.sum = total.sum * static_cast<double>(c.count) +
                c.sum * static_cast<double>(total.count);
    total.count = MulCount(total.count, c.count);
  }
  return total;
}

int NodeOfAttr(const FRep& rep, AttrId attr) {
  int n = rep.tree().FindAttr(attr);
  FDB_CHECK_MSG(n >= 0, "aggregate attribute not in the f-tree");
  return n;
}

// Calls fn(union) for every reachable union of `node`: one sweep pruned to
// the f-tree path from a root down to `node`.
template <typename Fn>
void SweepUnionsOf(const FRep& rep, int node, Fn fn) {
  std::vector<char> path(rep.tree().pool_size(), 0);
  for (int n = node; n != -1; n = rep.tree().node(n).parent) {
    path[static_cast<size_t>(n)] = 1;
  }
  rep.SweepBottomUp(
      [&](int n, uint32_t id) {
        if (n == node) fn(rep.u(id));
      },
      &path);
}

}  // namespace

double Count(const FRep& rep) { return rep.CountTuples(); }

double Sum(const FRep& rep, AttrId attr) {
  NodeOfAttr(rep, attr);
  if (rep.empty()) return 0.0;
  return SolveForest(rep, attr).sum;
}

double Avg(const FRep& rep, AttrId attr) {
  NodeOfAttr(rep, attr);
  FDB_CHECK_MSG(!rep.empty(), "AVG over the empty relation");
  CountSum cs = SolveForest(rep, attr);
  return cs.sum / static_cast<double>(cs.count);
}

Value Min(const FRep& rep, AttrId attr) {
  int node = NodeOfAttr(rep, attr);
  FDB_CHECK_MSG(!rep.empty(), "MIN over the empty relation");
  Value best = std::numeric_limits<Value>::max();
  SweepUnionsOf(rep, node, [&](const UnionRef& un) {
    best = std::min(best, un.value(0));  // values are sorted
  });
  return best;
}

Value Max(const FRep& rep, AttrId attr) {
  int node = NodeOfAttr(rep, attr);
  FDB_CHECK_MSG(!rep.empty(), "MAX over the empty relation");
  Value best = std::numeric_limits<Value>::min();
  SweepUnionsOf(rep, node, [&](const UnionRef& un) {
    best = std::max(best, un.value(un.size() - 1));
  });
  return best;
}

size_t CountDistinct(const FRep& rep, AttrId attr) {
  int node = NodeOfAttr(rep, attr);
  if (rep.empty()) return 0;
  std::unordered_set<Value> seen;
  SweepUnionsOf(rep, node, [&](const UnionRef& un) {
    seen.insert(un.values(), un.values() + un.size());
  });
  return seen.size();
}

// ---------------------------------------------------------------------------
// Grouped aggregation (restructure-then-collapse; see aggregate.h).
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kNoNewUnion = 0xFFFFFFFFu;

// The grouping target: repeated chi swaps on the f-tree alone until every
// node whose class meets `group_attrs` has only such nodes as ancestors
// (the grouping classes become the f-tree's upper fragment). Swaps are
// always applicable to a (parent, child) pair; each one strictly shrinks
// the total number of non-group ancestors of group nodes, so the loop
// terminates. Among the applicable swaps the one whose resulting tree has
// the smallest s(T) is taken (greedy; mirrors the f-plan optimiser's cost
// measure without its equality-driven goal test). Each swap is appended
// to `plan`.
FTree GroupingTarget(FTree t, AttrSet group_attrs, EdgeCoverSolver& solver,
                     FPlan* plan) {
  for (;;) {
    int best_a = -1, best_b = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int b : t.AliveNodes()) {
      if (!t.node(b).attrs.Intersects(group_attrs)) continue;
      int a = t.node(b).parent;
      if (a == -1 || t.node(a).attrs.Intersects(group_attrs)) continue;
      FTree sim = t;
      sim.SwapTree(a, b);
      double cost = sim.Cost(solver);
      if (cost < best_cost) {
        best_cost = cost;
        best_a = a;
        best_b = b;
      }
    }
    if (best_b == -1) return t;
    plan->steps.push_back(PlanStep::MakeSwap(t.node(best_a).attrs.Min(),
                                             t.node(best_b).attrs.Min()));
    t.SwapTree(best_a, best_b);
  }
}

// Multi-spec statistics of whole sub-representations (the parts below the
// grouping frontier and the global root trees): tuple count plus per-spec
// sum/min/max of the spec's attribute, per union.
struct CollapseCtx {
  const FRep& rep;
  const std::vector<AggSpec>& specs;
  // spec_slot[node][j]: -1 when spec j's attribute is in the node's own
  // class, a child-slot index when it lives in that child's subtree, -2
  // when absent from the subtree (or spec j is COUNT).
  std::vector<std::vector<int>> spec_slot;

  std::vector<uint64_t> count;  ///< [union]
  std::vector<double> sum;      ///< [spec * NumUnions + union]
  std::vector<Value> mn, mx;    ///< [spec * NumUnions + union]
};

// Solves union `id` of `node` from its children's statistics (one step of
// the FRep::SweepBottomUp collapse). The memo arrays of `c` start zeroed /
// at the min-max sentinels, so stats accumulate into the owning union's
// slots directly; `weighted` is per-spec scratch.
void SolveStats(CollapseCtx& c, int node, uint32_t id,
                std::vector<double>& weighted) {
  const size_t ns = c.specs.size();
  const size_t nu = c.rep.NumUnions();
  const UnionRef un = c.rep.u(id);
  const size_t k = c.rep.tree().node(node).children.size();
  const std::vector<int>& slot = c.spec_slot[static_cast<size_t>(node)];
  uint64_t total_count = 0;
  for (size_t e = 0; e < un.size(); ++e) {
    uint64_t prod = 1;
    std::fill(weighted.begin(), weighted.end(), 0.0);
    for (size_t j = 0; j < k; ++j) {
      uint32_t ch = un.Child(e, j, k);
      for (size_t s = 0; s < ns; ++s) {
        weighted[s] = weighted[s] * static_cast<double>(c.count[ch]) +
                      c.sum[s * nu + ch] * static_cast<double>(prod);
      }
      prod = MulCount(prod, c.count[ch]);
    }
    total_count = AddCount(total_count, prod);
    for (size_t s = 0; s < ns; ++s) {
      c.sum[s * nu + id] += weighted[s];
      if (slot[s] == -1) {
        c.sum[s * nu + id] += static_cast<double>(un.value(e)) *
                              static_cast<double>(prod);
      } else if (slot[s] >= 0) {
        uint32_t ch = un.Child(e, static_cast<size_t>(slot[s]), k);
        c.mn[s * nu + id] = std::min(c.mn[s * nu + id], c.mn[s * nu + ch]);
        c.mx[s * nu + id] = std::max(c.mx[s * nu + id], c.mx[s * nu + ch]);
      }
    }
  }
  for (size_t s = 0; s < ns; ++s) {
    if (slot[s] == -1) {
      c.mn[s * nu + id] = un.value(0);  // values are sorted
      c.mx[s * nu + id] = un.value(un.size() - 1);
    }
  }
  c.count[id] = total_count;
}

}  // namespace

uint64_t GroupedRep::NumGroups() const {
  return rep.empty() ? 0 : rep.CountTuplesExact();
}

namespace {

// Grows `tbl`'s row storage by `rows` rows, charging the bytes to the
// query's memory budget before they are allocated.
void ReserveRows(GroupedTable& tbl, uint64_t rows) {
  const size_t keys = rows * tbl.group_schema.size();
  const size_t aggs = rows * tbl.specs.size();
  ChargeAmbientMemory(keys * sizeof(Value) + aggs * sizeof(double));
  tbl.keys.reserve(tbl.keys.size() + keys);
  tbl.aggs.reserve(tbl.aggs.size() + aggs);
}

// The frame-odometer walk of GroupedRep::Materialize, restricted to
// `bounds` on the top pre-order frames (empty = whole group stream; the
// EntryBound chain contract of core/enumerate.h). Appends the
// covered groups' rows to *tbl in odometer order; `rows`, the morsel's
// exact row count, pre-reserves the row storage.
void MaterializeRange(const GroupedRep& g, std::span<const EntryBound> bounds,
                      uint64_t rows, GroupedTable* tbl) {
  const FRep& rep = g.rep;
  const FTree& t = rep.tree();
  const size_t ns = g.specs.size();
  GroupedTable& out = *tbl;
  ReserveRows(out, rows);

  // Pre-order frames over the group forest (shared with TupleEnumerator)
  // plus the per-frame odometer state of this walk.
  struct Frame : PreOrderFrame {
    uint32_t union_id = 0;
    size_t entry = 0;
    size_t off = 0;  ///< current union's arena offset
  };
  std::vector<Frame> frames;
  std::vector<int> frame_of(t.pool_size(), -1);
  for (const PreOrderFrame& pf : BuildPreOrderFrames(t)) {
    Frame f;
    static_cast<PreOrderFrame&>(f) = pf;
    frame_of[static_cast<size_t>(f.node)] = static_cast<int>(frames.size());
    frames.push_back(f);
  }

  std::vector<Value> cur_val(kMaxAttrs, 0);
  std::vector<Value> key(out.group_schema.size());
  std::vector<double> row(ns);
  // Per-depth scratch for the running per-spec sums (avoids per-entry
  // allocation in the recursion below).
  std::vector<std::vector<double>> sums_at(frames.size() + 1,
                                           std::vector<double>(ns, 0.0));

  const double g_count = static_cast<double>(g.global_count);

  auto emit = [&](uint64_t cnt, const std::vector<double>& sums) {
    uint64_t total = MulCount(cnt, g.global_count);
    for (size_t j = 0; j < ns; ++j) {
      const AggSpec& sp = g.specs[j];
      // Pair-combine of the group-local fold with the global multipliers:
      // SUM = sums[j] * G + global_sum[j] * cnt (exactly one term is
      // non-zero unless the spec's attribute is a group attribute).
      switch (sp.fn) {
        case AggFn::kCount:
          row[j] = static_cast<double>(total);
          break;
        case AggFn::kSum:
        case AggFn::kAvg: {
          double s = g.spec_where[j] == GroupedRep::Where::kGroup
                         ? static_cast<double>(cur_val[sp.attr]) *
                               static_cast<double>(total)
                         : sums[j] * g_count +
                               g.global_sum[j] * static_cast<double>(cnt);
          row[j] = sp.fn == AggFn::kSum ? s : s / static_cast<double>(total);
          break;
        }
        case AggFn::kMin:
        case AggFn::kMax: {
          Value v = 0;
          if (g.spec_where[j] == GroupedRep::Where::kGroup) {
            v = cur_val[sp.attr];
          } else if (g.spec_where[j] == GroupedRep::Where::kGlobal) {
            v = sp.fn == AggFn::kMin ? g.global_min[j] : g.global_max[j];
          } else {
            const Frame& f =
                frames[static_cast<size_t>(frame_of[g.spec_node[j]])];
            size_t gi = f.off + f.entry;
            v = sp.fn == AggFn::kMin ? g.entry_min[j][gi]
                                     : g.entry_max[j][gi];
          }
          row[j] = static_cast<double>(v);
          break;
        }
      }
    }
    for (size_t c = 0; c < key.size(); ++c) {
      key[c] = cur_val[out.group_schema[c]];
    }
    out.AddRow(key, row);
  };

  auto rec = [&](auto&& self, size_t i, uint64_t cnt) -> void {
    if (i == frames.size()) {
      emit(cnt, sums_at[i]);
      return;
    }
    Frame& f = frames[i];
    if (f.parent_pos < 0) {
      f.union_id = rep.roots()[f.slot];
    } else {
      const Frame& pf = frames[static_cast<size_t>(f.parent_pos)];
      UnionRef pu = rep.u(pf.union_id);
      const size_t k = t.node(pf.node).children.size();
      f.union_id = pu.Child(pf.entry, f.slot, k);
    }
    UnionRef un = rep.u(f.union_id);
    f.off = un.arena_offset();
    const AttrSet attrs = t.node(f.node).attrs;
    const std::vector<double>& sums = sums_at[i];
    std::vector<double>& next = sums_at[i + 1];
    // Entry bounds restrict the first bounds.size() frames, exactly as in
    // EnumKernel: pinned chain above, one ranged frame at the end.
    size_t lo = 0, hi = un.size();
    if (i < bounds.size()) {
      lo = bounds[i].begin;
      hi = std::min<size_t>(hi, bounds[i].end);
    }
    for (size_t e = lo; e < hi; ++e) {
      f.entry = e;
      for (AttrId a : attrs) cur_val[a] = un.value(e);
      const size_t gi = f.off + e;
      for (size_t s = 0; s < ns; ++s) {
        next[s] = sums[s] * static_cast<double>(g.entry_count[gi]) +
                  g.entry_sum[s][gi] * static_cast<double>(cnt);
      }
      self(self, i + 1, MulCount(cnt, g.entry_count[gi]));
    }
  };
  rec(rec, 0, 1);
}

}  // namespace

GroupedTable GroupedRep::Materialize() const {
  EnumerateOptions sequential;
  sequential.threads = 1;
  return Materialize(sequential);
}

GroupedTable GroupedRep::Materialize(const EnumerateOptions& opts) const {
  GroupedTable tbl;
  tbl.group_schema = group_attrs.ToVector();
  tbl.specs = specs;
  if (rep.empty()) return tbl;

  // The morsel planner partitions the group forest's odometer exactly as
  // it partitions tuple enumeration; chunks concatenate in plan order, so
  // the row order matches the sequential walk for every thread count.
  ParallelEnumerator pe(rep, opts, /*visible_only=*/false);
  const MorselPlan& plan = pe.plan();
  if (pe.num_chunks() <= 1) {
    MaterializeRange(*this, {}, plan.total_rows, &tbl);
    return tbl;
  }
  std::vector<GroupedTable> parts(pe.num_chunks());
  pe.ForEachChunk([&](size_t i) {
    GroupedTable& part = parts[i];
    part.group_schema = tbl.group_schema;
    part.specs = tbl.specs;
    MaterializeRange(*this, plan.morsels[i].bounds, plan.morsels[i].rows,
                     &part);
  });
  size_t rows = 0;
  for (const GroupedTable& part : parts) rows += part.num_rows;
  ReserveRows(tbl, rows);
  for (const GroupedTable& part : parts) {
    tbl.keys.insert(tbl.keys.end(), part.keys.begin(), part.keys.end());
    tbl.aggs.insert(tbl.aggs.end(), part.aggs.begin(), part.aggs.end());
  }
  tbl.num_rows = rows;
  return tbl;
}

GroupedRep GroupByAggregate(FRep in, AttrSet group_attrs,
                            std::vector<AggSpec> specs,
                            EdgeCoverSolver* solver, FPlan* plan_out,
                            QueryTrace* trace) {
  for (AttrId a : group_attrs) {
    FDB_CHECK_MSG(in.tree().FindAttr(a) >= 0,
                  "GROUP BY attribute not in the f-tree");
  }
  for (const AggSpec& s : specs) {
    if (s.fn == AggFn::kCount) continue;
    FDB_CHECK_MSG(in.tree().FindAttr(s.attr) >= 0,
                  std::string(AggFnName(s.fn)) +
                      " attribute not in the f-tree");
  }

  EdgeCoverSolver local_solver;
  FPlan local_plan;
  FPlan* plan = plan_out != nullptr ? plan_out : &local_plan;
  const size_t planned = plan->steps.size();
  FTree target = GroupingTarget(in.tree(), group_attrs,
                                solver != nullptr ? *solver : local_solver,
                                plan);
  if (plan->steps.size() > planned) {
    QueryTrace::Scope span(trace, "restructure");
    in = Restructure(in, std::move(target));
    span.SetRows(plan->steps.size() - planned);
    span.SetBytes(in.MemoryBytes());
  }
  const FRep cur = std::move(in);
  QueryTrace::Scope collapse(trace, "collapse");
  const FTree& t = cur.tree();
  const size_t ns = specs.size();

  std::vector<char> is_group(t.pool_size(), 0);
  for (int n : t.AliveNodes()) {
    if (t.node(n).attrs.Intersects(group_attrs)) {
      is_group[static_cast<size_t>(n)] = 1;
    }
  }

  // The group forest: copies of the grouping nodes with structure (and
  // child order) preserved. Pre-order guarantees parents come first; every
  // group node's parent is a group node after restructuring.
  std::vector<int> order = t.PreOrder();
  FTree gt;
  std::vector<int> new_node(t.pool_size(), -1);
  for (int n : order) {
    if (!is_group[static_cast<size_t>(n)]) continue;
    const FTreeNode& nd = t.node(n);
    int nn = gt.NewNode(nd.attrs, nd.visible, nd.cover_rels, nd.dep_rels);
    gt.node(nn).constant = nd.constant;
    new_node[static_cast<size_t>(n)] = nn;
    if (nd.parent == -1) {
      gt.AttachRoot(nn);
    } else {
      gt.AttachChild(new_node[static_cast<size_t>(nd.parent)], nn);
    }
  }

  // Attribute containment per subtree (reverse pre-order), used to place
  // each spec and to route MIN/MAX through the child that owns the attr.
  std::vector<AttrSet> sub_attrs(t.pool_size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const FTreeNode& nd = t.node(*it);
    AttrSet s = nd.attrs;
    for (int c : nd.children) s = s.Union(sub_attrs[static_cast<size_t>(c)]);
    sub_attrs[static_cast<size_t>(*it)] = s;
  }

  GroupedRep out;
  out.group_attrs = group_attrs;
  out.specs = std::move(specs);
  out.spec_where.assign(ns, GroupedRep::Where::kNone);
  out.spec_node.assign(ns, -1);
  out.entry_sum.assign(ns, {});
  out.entry_min.assign(ns, {});
  out.entry_max.assign(ns, {});
  out.global_sum.assign(ns, 0.0);
  out.global_min.assign(ns, std::numeric_limits<Value>::max());
  out.global_max.assign(ns, std::numeric_limits<Value>::min());

  for (size_t j = 0; j < ns; ++j) {
    if (out.specs[j].fn == AggFn::kCount) continue;
    int n = t.FindAttr(out.specs[j].attr);
    if (is_group[static_cast<size_t>(n)]) {
      out.spec_where[j] = GroupedRep::Where::kGroup;
      out.spec_node[j] = new_node[static_cast<size_t>(n)];
      continue;
    }
    // Climb to the top of the non-group region containing n.
    int p = n;
    while (t.node(p).parent != -1 &&
           !is_group[static_cast<size_t>(t.node(p).parent)]) {
      p = t.node(p).parent;
    }
    if (t.node(p).parent == -1) {
      out.spec_where[j] = GroupedRep::Where::kGlobal;
    } else {
      out.spec_where[j] = GroupedRep::Where::kBelow;
      out.spec_node[j] =
          new_node[static_cast<size_t>(t.node(p).parent)];
    }
  }

  if (cur.empty()) {
    out.rep = FRep{std::move(gt)};
    FDB_VALIDATE_GROUPED(out);
    return out;
  }

  // Collapse context (per-node spec routing plus the per-union stats).
  CollapseCtx ctx{cur, out.specs, {}, {}, {}, {}, {}};
  ctx.spec_slot.assign(t.pool_size(), std::vector<int>(ns, -2));
  for (int n : t.AliveNodes()) {
    const FTreeNode& nd = t.node(n);
    for (size_t j = 0; j < ns; ++j) {
      if (out.specs[j].fn == AggFn::kCount) continue;
      AttrId a = out.specs[j].attr;
      if (nd.attrs.Contains(a)) {
        ctx.spec_slot[static_cast<size_t>(n)][j] = -1;
      } else {
        for (size_t c = 0; c < nd.children.size(); ++c) {
          if (sub_attrs[static_cast<size_t>(nd.children[c])].Contains(a)) {
            ctx.spec_slot[static_cast<size_t>(n)][j] = static_cast<int>(c);
            break;
          }
        }
      }
    }
  }
  const size_t nu = cur.NumUnions();
  ctx.count.assign(nu, 0);
  ctx.sum.assign(ns * nu, 0.0);
  ctx.mn.assign(ns * nu, std::numeric_limits<Value>::max());
  ctx.mx.assign(ns * nu, std::numeric_limits<Value>::min());
  // One sweep collapses every reachable non-group union: the subtrees
  // below the grouping frontier and the global root trees.
  std::vector<double> weighted(ns);
  cur.SweepBottomUp([&](int n, uint32_t id) {
    if (!is_group[static_cast<size_t>(n)]) SolveStats(ctx, n, id, weighted);
  });

  // Global root trees (no grouping class anywhere): collapse each whole
  // tree and pair-combine into the global multipliers.
  for (size_t i = 0; i < cur.roots().size(); ++i) {
    int rn = t.roots()[i];
    if (is_group[static_cast<size_t>(rn)]) continue;
    uint32_t rid = cur.roots()[i];
    for (size_t s = 0; s < ns; ++s) {
      out.global_sum[s] =
          out.global_sum[s] * static_cast<double>(ctx.count[rid]) +
          ctx.sum[s * nu + rid] * static_cast<double>(out.global_count);
      if (out.specs[s].fn != AggFn::kCount &&
          sub_attrs[static_cast<size_t>(rn)].Contains(out.specs[s].attr)) {
        out.global_min[s] = ctx.mn[s * nu + rid];
        out.global_max[s] = ctx.mx[s * nu + rid];
      }
    }
    out.global_count = MulCount(out.global_count, ctx.count[rid]);
  }

  // Rebuild the group forest's unions, collapsing every removed child
  // slot into the owning entry's payload. Memoised so shared subtrees
  // (push-up hoists copies) stay shared in the grouped rep.
  FRep grep{std::move(gt)};
  grep.MarkNonEmpty();
  // Per-node slot split, aligned with the new tree's child order.
  std::vector<std::vector<size_t>> group_slots(t.pool_size());
  std::vector<std::vector<size_t>> removed_slots(t.pool_size());
  for (int n : t.AliveNodes()) {
    if (!is_group[static_cast<size_t>(n)]) continue;
    const auto& ch = t.node(n).children;
    for (size_t c = 0; c < ch.size(); ++c) {
      if (is_group[static_cast<size_t>(ch[c])]) {
        group_slots[static_cast<size_t>(n)].push_back(c);
      } else {
        removed_slots[static_cast<size_t>(n)].push_back(c);
      }
    }
  }

  std::vector<uint32_t> rebuilt(nu, kNoNewUnion);
  std::vector<double> esum(ns);
  auto rebuild = [&](auto&& self, uint32_t id) -> uint32_t {
    if (rebuilt[id] != kNoNewUnion) return rebuilt[id];
    UnionRef un = cur.u(id);
    const int n = un.node();
    const size_t k = t.node(n).children.size();
    const auto& gslots = group_slots[static_cast<size_t>(n)];
    const auto& rslots = removed_slots[static_cast<size_t>(n)];

    UnionBuilder nb = grep.StartUnion(new_node[static_cast<size_t>(n)]);
    nb.CopyValues(un);
    const size_t len = un.size();
    std::vector<uint64_t> pcount(len, 1);
    std::vector<double> psum(ns * len, 0.0);
    std::vector<Value> pmin(ns * len, std::numeric_limits<Value>::max());
    std::vector<Value> pmax(ns * len, std::numeric_limits<Value>::min());
    for (size_t e = 0; e < len; ++e) {
      for (size_t j : gslots) {
        nb.AddChild(self(self, un.Child(e, j, k)));
      }
      uint64_t cnt = 1;
      std::fill(esum.begin(), esum.end(), 0.0);
      for (size_t j : rslots) {
        uint32_t ch = un.Child(e, j, k);
        for (size_t s = 0; s < ns; ++s) {
          esum[s] = esum[s] * static_cast<double>(ctx.count[ch]) +
                    ctx.sum[s * nu + ch] * static_cast<double>(cnt);
          if (out.specs[s].fn != AggFn::kCount &&
              sub_attrs[static_cast<size_t>(t.node(n).children[j])].Contains(
                  out.specs[s].attr)) {
            pmin[s * len + e] = ctx.mn[s * nu + ch];
            pmax[s * len + e] = ctx.mx[s * nu + ch];
          }
        }
        cnt = MulCount(cnt, ctx.count[ch]);
      }
      pcount[e] = cnt;
      for (size_t s = 0; s < ns; ++s) psum[s * len + e] = esum[s];
    }
    uint32_t nid = nb.Finish();
    const size_t off = grep.u(nid).arena_offset();
    // Commit order equals arena order, so the payload arrays grow exactly
    // in step with the value arena.
    FDB_CHECK(off == out.entry_count.size());
    out.entry_count.insert(out.entry_count.end(), pcount.begin(),
                           pcount.end());
    for (size_t s = 0; s < ns; ++s) {
      out.entry_sum[s].insert(out.entry_sum[s].end(), &psum[s * len],
                              &psum[s * len] + len);
      out.entry_min[s].insert(out.entry_min[s].end(), &pmin[s * len],
                              &pmin[s * len] + len);
      out.entry_max[s].insert(out.entry_max[s].end(), &pmax[s * len],
                              &pmax[s * len] + len);
    }
    rebuilt[id] = nid;
    return nid;
  };

  for (size_t i = 0; i < cur.roots().size(); ++i) {
    if (!is_group[static_cast<size_t>(t.roots()[i])]) continue;
    grep.roots().push_back(rebuild(rebuild, cur.roots()[i]));
  }
  out.rep = std::move(grep);
  FDB_VALIDATE_GROUPED(out);
  return out;
}

}  // namespace fdb
