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

constexpr uint32_t kNoNewUnion = 0xFFFFFFFFu;

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

// The collapse (step 2 of aggregate.h) of `cur`, whose grouping nodes (the
// nodes whose class meets `group_attrs`) form an upper fragment of its
// f-tree. One FRep::SweepBottomUp folds every reachable non-group union
// into its AggStats row: per entry the product of its collapsed children
// and its own value, summed over the entries. The root trees without a
// grouping node multiply into the global row. The group forest is then
// rebuilt, and each of its entries gets the same fold over its non-group
// children as its payload.
GroupedRep Collapse(const FRep& cur, AttrSet group_attrs,
                    std::vector<AggSpec> specs) {
  const FTree& t = cur.tree();
  for (AttrId a : group_attrs) {
    FDB_CHECK_MSG(t.FindAttr(a) >= 0, "GROUP BY attribute not in the f-tree");
  }
  for (const AggSpec& s : specs) {
    if (s.fn == AggFn::kCount) continue;
    FDB_CHECK_MSG(t.FindAttr(s.attr) >= 0,
                  std::string(AggFnName(s.fn)) +
                      " attribute not in the f-tree");
  }

  GroupedRep out;
  out.group_attrs = group_attrs;
  out.specs = std::move(specs);
  const AggStats alg(out.specs);
  const size_t w = alg.width();
  out.global_stats.assign(w, SpecStats{});

  // The group forest: copies of the grouping nodes with structure (and
  // child order) preserved. Pre-order guarantees parents come first; every
  // group node's parent is a group node.
  std::vector<char> is_group(t.pool_size(), 0);
  std::vector<int> new_node(t.pool_size(), -1);
  FTree gt;
  for (int n : t.PreOrder()) {
    const FTreeNode& nd = t.node(n);
    if (!nd.attrs.Intersects(group_attrs)) continue;
    is_group[static_cast<size_t>(n)] = 1;
    int nn = gt.NewNode(nd.attrs, nd.visible, nd.cover_rels, nd.dep_rels);
    gt.node(nn).constant = nd.constant;
    new_node[static_cast<size_t>(n)] = nn;
    if (nd.parent == -1) {
      gt.AttachRoot(nn);
    } else {
      gt.AttachChild(new_node[static_cast<size_t>(nd.parent)], nn);
    }
  }
  if (cur.empty()) {
    out.rep = FRep{std::move(gt)};
    FDB_VALIDATE_GROUPED(out);
    return out;
  }

  // Per node, the child slots that stay in the group forest and the ones
  // that collapse into the entries' rows (every slot of a non-group node).
  std::vector<std::vector<size_t>> kept(t.pool_size()), below(t.pool_size());
  for (int n : t.AliveNodes()) {
    const auto& ch = t.node(n).children;
    for (size_t c = 0; c < ch.size(); ++c) {
      (is_group[static_cast<size_t>(ch[c])] ? kept : below)
          [static_cast<size_t>(n)].push_back(c);
    }
  }

  const size_t nu = cur.NumUnions();
  std::vector<uint64_t> count(nu, 0);
  std::vector<SpecStats> stats(nu * w);
  // row := entry e of `un`: its collapsed children times its own value.
  auto fold_entry = [&](const UnionRef& un, size_t e, uint64_t& c,
                        SpecStats* row) {
    const FTreeNode& nd = t.node(un.node());
    const size_t k = nd.children.size();
    alg.One(c, row);
    for (size_t j : below[static_cast<size_t>(un.node())]) {
      const uint32_t ch = un.Child(e, j, k);
      alg.Mul(c, row, count[ch], stats.data() + ch * w);
    }
    alg.MulOwn(nd.attrs, un.value(e), c, row);
  };
  uint64_t acc_count = 0;
  std::vector<SpecStats> acc(w);
  cur.SweepBottomUp([&](int n, uint32_t id) {
    if (is_group[static_cast<size_t>(n)]) return;
    const UnionRef un = cur.u(id);
    for (size_t e = 0; e < un.size(); ++e) {
      fold_entry(un, e, acc_count, acc.data());
      alg.Add(count[id], stats.data() + id * w, acc_count, acc.data());
    }
  });
  for (size_t i = 0; i < cur.roots().size(); ++i) {
    if (is_group[static_cast<size_t>(t.roots()[i])]) continue;
    const uint32_t r = cur.roots()[i];
    alg.Mul(out.global_count, out.global_stats.data(), count[r],
            stats.data() + r * w);
  }

  // Rebuild the group forest's unions. Memoised so shared subtrees
  // (push-up hoists copies) stay shared in the grouped rep.
  FRep grep{std::move(gt)};
  grep.MarkNonEmpty();
  std::vector<uint32_t> rebuilt(nu, kNoNewUnion);
  auto rebuild = [&](auto&& self, uint32_t id) -> uint32_t {
    if (rebuilt[id] != kNoNewUnion) return rebuilt[id];
    const UnionRef un = cur.u(id);
    const int n = un.node();
    const size_t k = t.node(n).children.size();
    UnionBuilder nb = grep.StartUnion(new_node[static_cast<size_t>(n)]);
    nb.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j : kept[static_cast<size_t>(n)]) {
        nb.AddChild(self(self, un.Child(e, j, k)));
      }
    }
    const uint32_t nid = nb.Finish();
    // Commit order equals arena order, so the payloads grow exactly in
    // step with the value arena.
    const size_t off = grep.u(nid).arena_offset();
    FDB_CHECK(off == out.entry_count.size());
    out.entry_count.resize(off + un.size());
    out.entry_stats.resize((off + un.size()) * w);
    for (size_t e = 0; e < un.size(); ++e) {
      fold_entry(un, e, out.entry_count[off + e],
                 out.entry_stats.data() + (off + e) * w);
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

// One aggregate over all of `rep`: the global group of its collapse with
// no grouping attribute, on the caller's rep as it is.
double GlobalAggregate(const FRep& rep, AggSpec spec) {
  const GroupedRep g = Collapse(rep, {}, {spec});
  return AggStats(g.specs).Result(0, g.global_count, g.global_stats.data());
}

}  // namespace

double Count(const FRep& rep) { return rep.CountTuples(); }

double Sum(const FRep& rep, AttrId attr) {
  return GlobalAggregate(rep, AggSpec{AggFn::kSum, attr});
}

double Avg(const FRep& rep, AttrId attr) {
  const double avg = GlobalAggregate(rep, AggSpec{AggFn::kAvg, attr});
  FDB_CHECK_MSG(!rep.empty(), "AVG over the empty relation");
  return avg;
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

// The frame-odometer walk of GroupedRep::Materialize over the groups that
// `bounds` selects on the top pre-order frames (empty = every group; the
// EntryBound chain contract of core/enumerate.h). A group's row is the
// product of the payloads of its entries and the global row; the covered
// groups fill rows [row, end) of *tbl in odometer order.
void MaterializeRange(const GroupedRep& g, const AggStats& alg,
                      std::span<const EntryBound> bounds, size_t row,
                      size_t end, GroupedTable* tbl) {
  const FRep& rep = g.rep;
  const FTree& t = rep.tree();
  const size_t w = alg.width();
  const size_t kw = tbl->group_schema.size();

  // Pre-order frames over the group forest (shared with TupleEnumerator)
  // plus the per-frame odometer state of this walk.
  struct Frame : PreOrderFrame {
    uint32_t union_id = 0;
    size_t entry = 0;
  };
  std::vector<Frame> frames;
  for (const PreOrderFrame& pf : BuildPreOrderFrames(t)) {
    Frame f;
    static_cast<PreOrderFrame&>(f) = pf;
    frames.push_back(f);
  }
  const size_t nf = frames.size();
  // Row i <= nf holds the product of the payloads on frames [0, i); row
  // nf + 1 a group's row times the global row.
  std::vector<uint64_t> count(nf + 2);
  std::vector<SpecStats> acc((nf + 2) * w);
  alg.One(count[0], acc.data());
  std::vector<Value> cur_val(kMaxAttrs, 0);

  auto rec = [&](auto&& self, size_t i) -> void {
    if (i == nf) {
      FDB_CHECK_MSG(row < end, "grouped walk emitted more rows than planned");
      uint64_t& c = count[nf + 1];
      SpecStats* fin = acc.data() + (nf + 1) * w;
      c = count[nf];
      std::copy_n(acc.data() + nf * w, w, fin);
      alg.Mul(c, fin, g.global_count, g.global_stats.data());
      for (size_t s = 0; s < w; ++s) {
        tbl->aggs[row * w + s] = alg.Result(s, c, fin);
      }
      for (size_t col = 0; col < kw; ++col) {
        tbl->keys[row * kw + col] = cur_val[tbl->group_schema[col]];
      }
      ++row;
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
    const size_t off = un.arena_offset();
    const AttrSet attrs = t.node(f.node).attrs;
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
      count[i + 1] = count[i];
      std::copy_n(acc.data() + i * w, w, acc.data() + (i + 1) * w);
      alg.Mul(count[i + 1], acc.data() + (i + 1) * w, g.entry_count[off + e],
              g.entry_stats.data() + (off + e) * w);
      self(self, i + 1);
    }
  };
  rec(rec, 0);
  FDB_CHECK_MSG(row == end, "grouped walk emitted fewer rows than planned");
}

}  // namespace

uint64_t GroupedRep::NumGroups() const {
  return rep.empty() ? 0 : rep.CountTuplesExact();
}

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
  // it partitions tuple enumeration, and its row counts are exact: every
  // morsel writes its groups at its prefix-sum offset of one presized
  // table, so the row order is the sequential walk's for every thread
  // count.
  ParallelEnumerator pe(rep, opts, /*visible_only=*/false);
  const std::vector<Morsel>& morsels = pe.plan().morsels;
  std::vector<size_t> first(morsels.size() + 1, 0);
  for (size_t c = 0; c < morsels.size(); ++c) {
    first[c + 1] = first[c] + morsels[c].rows;
  }
  tbl.num_rows = first.back();
  const size_t keys = tbl.num_rows * tbl.group_schema.size();
  const size_t aggs = tbl.num_rows * tbl.specs.size();
  ChargeAmbientMemory(keys * sizeof(Value) + aggs * sizeof(double));
  tbl.keys.resize(keys);
  tbl.aggs.resize(aggs);
  const AggStats alg(specs);
  pe.ForEachChunk([&](size_t c) {
    MaterializeRange(*this, alg, morsels[c].bounds, first[c], first[c + 1],
                     &tbl);
  });
  return tbl;
}

GroupedRep GroupByAggregate(FRep in, AttrSet group_attrs,
                            std::vector<AggSpec> specs,
                            EdgeCoverSolver* solver, FPlan* plan_out,
                            QueryTrace* trace) {
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
  QueryTrace::Scope collapse(trace, "collapse");
  return Collapse(in, group_attrs, std::move(specs));
}

}  // namespace fdb
