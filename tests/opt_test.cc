#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <set>

#include "opt/cost.h"
#include "opt/estimates.h"
#include "opt/fplan_search.h"
#include "opt/ftree_search.h"
#include "opt/greedy.h"
#include "storage/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

// Builds a QueryInfo for a synthetic catalog-free setting: relation r
// covers the attributes in rel_attrs[r].
QueryInfo MakeInfo(std::vector<AttrSet> rel_attrs,
                   std::vector<std::pair<AttrId, AttrId>> eqs) {
  QueryInfo info;
  info.num_rels = static_cast<int>(rel_attrs.size());
  info.rel_attrs = std::move(rel_attrs);
  info.attr_rel.assign(kMaxAttrs, -1);
  for (int r = 0; r < info.num_rels; ++r) {
    for (AttrId a : info.rel_attrs[static_cast<size_t>(r)]) {
      info.attr_rel[a] = r;
      info.all_attrs.Add(a);
    }
  }
  info.classes = EqualityClasses(info.all_attrs, eqs);
  info.projection = info.all_attrs;
  return info;
}

TEST(FTreeSearch, GroceryQ2HasCostOne) {
  // Q2 = Produce(supplier,item) |x| Serve(supplier',location):
  // s(Q2) = 1 via T3 (Example 4/5).
  QueryInfo info = MakeInfo({AttrSet::Of({0, 1}), AttrSet::Of({2, 3})},
                            {{0, 2}});
  EdgeCoverSolver solver;
  auto res = FindOptimalFTree(info, solver);
  EXPECT_NEAR(res.cost, 1.0, 1e-6);
  res.tree.Validate();
  EXPECT_TRUE(res.tree.SatisfiesPathConstraint());
  EXPECT_TRUE(res.tree.IsNormalized());
}

TEST(FTreeSearch, GroceryQ1HasCostTwo) {
  // Q1 = Orders(oid,item) |x| Store(loc,item') |x| Disp(disp,loc'):
  // s(Q1) = 2 (Example 5).
  QueryInfo info = MakeInfo({AttrSet::Of({0, 1}), AttrSet::Of({2, 3}),
                             AttrSet::Of({4, 5})},
                            {{1, 3}, {2, 5}});
  EdgeCoverSolver solver;
  auto res = FindOptimalFTree(info, solver);
  EXPECT_NEAR(res.cost, 2.0, 1e-6);
}

TEST(FTreeSearch, SingleRelationIsPath) {
  QueryInfo info = MakeInfo({AttrSet::Of({0, 1, 2})}, {});
  EdgeCoverSolver solver;
  auto res = FindOptimalFTree(info, solver);
  EXPECT_NEAR(res.cost, 1.0, 1e-6);
  EXPECT_EQ(res.tree.NumAlive(), 3);
  EXPECT_EQ(res.tree.roots().size(), 1u);  // all attrs dependent: a path
}

TEST(FTreeSearch, CartesianProductIsForest) {
  QueryInfo info = MakeInfo({AttrSet::Of({0}), AttrSet::Of({1})}, {});
  EdgeCoverSolver solver;
  auto res = FindOptimalFTree(info, solver);
  EXPECT_NEAR(res.cost, 1.0, 1e-6);
  EXPECT_EQ(res.tree.roots().size(), 2u);
}

TEST(FTreeSearch, TriangleQueryFractionalCost) {
  // R(A,B), S(B',C), T(C',A'): the triangle join has s = 1.5.
  QueryInfo info = MakeInfo(
      {AttrSet::Of({0, 1}), AttrSet::Of({2, 3}), AttrSet::Of({4, 5})},
      {{1, 2}, {3, 4}, {5, 0}});
  EdgeCoverSolver solver;
  auto res = FindOptimalFTree(info, solver);
  EXPECT_NEAR(res.cost, 1.5, 1e-6);
}

TEST(FTreeSearch, ChainQueryCosts) {
  // Example 6: chain of equality joins R1(A1,B1) |x| ... with B_i = A_{i+1}.
  auto chain_info = [](int n) {
    std::vector<AttrSet> rels;
    std::vector<std::pair<AttrId, AttrId>> eqs;
    for (int i = 0; i < n; ++i) {
      AttrId a = static_cast<AttrId>(2 * i), b = static_cast<AttrId>(2 * i + 1);
      rels.push_back(AttrSet::Of({a, b}));
      if (i > 0) eqs.emplace_back(static_cast<AttrId>(2 * i - 1), a);
    }
    return MakeInfo(rels, eqs);
  };
  EdgeCoverSolver solver;
  EXPECT_NEAR(FindOptimalFTree(chain_info(2), solver).cost, 1.0, 1e-6);
  EXPECT_NEAR(FindOptimalFTree(chain_info(3), solver).cost, 2.0, 1e-6);
  EXPECT_NEAR(FindOptimalFTree(chain_info(4), solver).cost, 2.0, 1e-6);
  // Logarithmic growth: n = 8 stays well below the path bound of 5.
  double c8 = FindOptimalFTree(chain_info(8), solver).cost;
  EXPECT_LE(c8, 3.0 + 1e-6);
  EXPECT_GE(c8, 2.0 - 1e-6);
}

TEST(FTreeSearch, PaperScaleSmokeTest) {
  // R = 8 relations, A = 40 attributes, K = 6 equalities (Fig. 5 scale).
  WorkloadSpec spec;
  spec.num_rels = 8;
  spec.num_attrs = 40;
  spec.tuples_per_rel = 1;  // data irrelevant for optimisation
  spec.num_equalities = 6;
  spec.seed = 11;
  GeneratedWorkload w = GenerateWorkload(spec);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  auto res = FindOptimalFTree(info, solver);
  EXPECT_GE(res.cost, 1.0 - 1e-6);
  EXPECT_LE(res.cost, 3.0 + 1e-6);  // "rarely above 2" per the paper
  res.tree.Validate();
  EXPECT_TRUE(res.tree.SatisfiesPathConstraint());
}

// ---------- Memoised search vs the unmemoised reference ----------

// The plain branch-and-bound FindOptimalFTree ran before it memoised its
// subproblems, kept here as the oracle: the memo may change how much is
// searched, never which tree is chosen (the tree fixes the output order).
struct ReferenceSearcher {
  std::vector<uint64_t> covers;
  std::vector<uint64_t> adj;
  EdgeCoverSolver* solver;
  uint64_t explored = 0;

  using Edges = std::vector<std::pair<int, int>>;
  struct Sub {
    double cost;
    Edges edges;
  };

  std::vector<uint64_t> Components(uint64_t set) const {
    std::vector<uint64_t> comps;
    uint64_t remaining = set;
    while (remaining) {
      uint64_t seed = remaining & (~remaining + 1);
      uint64_t comp = seed, frontier = seed;
      while (frontier) {
        int c = std::countr_zero(frontier);
        frontier &= frontier - 1;
        uint64_t nbrs = adj[static_cast<size_t>(c)] & set & ~comp;
        comp |= nbrs;
        frontier |= nbrs;
      }
      comps.push_back(comp);
      remaining &= ~comp;
    }
    return comps;
  }

  std::optional<Sub> BestForest(uint64_t set, std::vector<uint64_t>& path,
                                double upper, int parent) {
    if (set == 0) return Sub{0.0, {}};
    Sub out{0.0, {}};
    for (uint64_t comp : Components(set)) {
      auto sub = BestComponent(comp, path, upper, parent);
      if (!sub) return std::nullopt;
      out.cost = std::max(out.cost, sub->cost);
      out.edges.insert(out.edges.end(), sub->edges.begin(), sub->edges.end());
    }
    return out;
  }

  std::optional<Sub> BestComponent(uint64_t comp, std::vector<uint64_t>& path,
                                   double upper, int parent) {
    uint64_t multi = 0;
    for (uint64_t rest = comp; rest;) {
      int c = std::countr_zero(rest);
      rest &= rest - 1;
      if (std::popcount(covers[static_cast<size_t>(c)]) >= 2) {
        multi |= uint64_t{1} << c;
      }
    }
    if (multi == 0) {
      path.push_back(covers[static_cast<size_t>(std::countr_zero(comp))]);
      ++explored;
      double cost = solver->Solve(path);
      path.pop_back();
      if (!CostLess(cost, upper)) return std::nullopt;
      Edges chain;
      int prev = parent;
      for (uint64_t rest = comp; rest;) {
        int c = std::countr_zero(rest);
        rest &= rest - 1;
        chain.emplace_back(c, prev);
        prev = c;
      }
      return Sub{cost, std::move(chain)};
    }

    double best = std::numeric_limits<double>::infinity();
    Edges best_edges;
    std::set<uint64_t> tried;
    for (uint64_t rest = multi; rest;) {
      int r = std::countr_zero(rest);
      rest &= rest - 1;
      if (!tried.insert(covers[static_cast<size_t>(r)]).second) continue;
      path.push_back(covers[static_cast<size_t>(r)]);
      ++explored;
      double prefix = solver->Solve(path);
      double bound = std::min(upper, best);
      if (!CostLess(prefix, bound)) {
        path.pop_back();
        continue;
      }
      uint64_t remainder = comp & ~(uint64_t{1} << r);
      std::optional<Sub> sub;
      if (remainder == 0) {
        sub = Sub{prefix, {}};
      } else {
        sub = BestForest(remainder, path, bound, r);
        if (sub) sub->cost = std::max(sub->cost, prefix);
      }
      path.pop_back();
      if (sub && CostLess(sub->cost, best)) {
        best = sub->cost;
        best_edges = std::move(sub->edges);
        best_edges.emplace_back(r, parent);
      }
    }
    if (best == std::numeric_limits<double>::infinity()) return std::nullopt;
    return Sub{best, std::move(best_edges)};
  }
};

FTreeSearchResult ReferenceOptimalFTree(const QueryInfo& info,
                                        EdgeCoverSolver& solver) {
  const size_t m = info.classes.size();
  ReferenceSearcher s;
  s.solver = &solver;
  for (const AttrSet& cls : info.classes) {
    s.covers.push_back(info.RelsCovering(cls).bits());
  }
  s.adj.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i != j && (s.covers[i] & s.covers[j]) != 0) {
        s.adj[i] |= uint64_t{1} << j;
      }
    }
  }
  uint64_t all = m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
  std::vector<uint64_t> path;
  auto res = s.BestForest(all, path, std::numeric_limits<double>::infinity(),
                          -1);
  std::vector<int> parent_of(m, -1);
  for (const auto& [c, p] : res->edges) parent_of[static_cast<size_t>(c)] = p;
  FTreeSearchResult out;
  out.tree = FTreeFromShape(info, info.classes, parent_of);
  out.cost = res->cost;
  out.explored = s.explored;
  return out;
}

// exp7's serve ladder: nine ternary relations r_i(a_i, b_i, c_i) joined on
// b_i = a_{i+1} and c_i = a_{i+2}, which leaves 12 attribute classes.
QueryInfo LadderInfo() {
  constexpr int kRels = 9;
  std::vector<AttrSet> rels;
  std::vector<std::pair<AttrId, AttrId>> eqs;
  auto attr = [](int rel, int col) {
    return static_cast<AttrId>(3 * rel + col);
  };
  for (int i = 0; i < kRels; ++i) {
    rels.push_back(AttrSet::Of({attr(i, 0), attr(i, 1), attr(i, 2)}));
    if (i + 1 < kRels) eqs.emplace_back(attr(i, 1), attr(i + 1, 0));
    if (i + 2 < kRels) eqs.emplace_back(attr(i, 2), attr(i + 2, 0));
  }
  return MakeInfo(rels, eqs);
}

void ExpectMatchesReference(const QueryInfo& info) {
  EdgeCoverSolver ref_solver, solver;
  FTreeSearchResult ref = ReferenceOptimalFTree(info, ref_solver);
  FTreeSearchResult got = FindOptimalFTree(info, solver);
  EXPECT_EQ(got.tree.ToString(), ref.tree.ToString());
  EXPECT_NEAR(got.cost, ref.cost, kCostEps);
  EXPECT_LE(got.explored, ref.explored);
}

TEST(FTreeSearch, MemoisedSearchMatchesReference) {
  {
    SCOPED_TRACE("ladder");
    ExpectMatchesReference(LadderInfo());
  }
  Rng rng(2026);
  for (uint64_t seed = 0; seed < 600; ++seed) {
    WorkloadSpec spec;
    spec.num_rels = static_cast<int>(rng.Uniform(1, 8));
    spec.num_attrs = static_cast<int>(rng.Uniform(12, 40));
    // K non-redundant equalities need K < A.
    spec.num_equalities =
        static_cast<int>(rng.Uniform(1, std::min(12, spec.num_attrs - 1)));
    spec.tuples_per_rel = 1;  // data irrelevant for optimisation
    spec.seed = seed;
    SCOPED_TRACE(::testing::Message()
                 << "R=" << spec.num_rels << " A=" << spec.num_attrs
                 << " K=" << spec.num_equalities << " seed=" << seed);
    GeneratedWorkload w = GenerateWorkload(spec);
    ExpectMatchesReference(AnalyzeQuery(w.catalog, w.query));
  }
}

TEST(FTreeSearch, LadderExploresFewNodes) {
  QueryInfo info = LadderInfo();
  ASSERT_EQ(info.classes.size(), 12u);
  EdgeCoverSolver solver;
  FTreeSearchResult res = FindOptimalFTree(info, solver);
  EXPECT_NEAR(res.cost, 2.0, kCostEps);
  EXPECT_LT(res.explored, 1000u);  // 3,521 root choices without the memo
}

// ---------- F-plan search ----------

// Example 11's input: root {A,D} (classes of two ternary relations),
// children B (child C) and E (child F); R0 = {A,B,C}, R1 = {D,E,F}.
FTree Example11Tree() {
  FTree t;
  AttrSet cad = AttrSet::Of({0, 3});
  int nad = t.NewNode(cad, cad, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nc = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int ne = t.NewNode(AttrSet::Of({4}), AttrSet::Of({4}), RelSet::Of({1}),
                     RelSet::Of({1}));
  int nf = t.NewNode(AttrSet::Of({5}), AttrSet::Of({5}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(nad);
  t.AttachChild(nad, nb);
  t.AttachChild(nb, nc);
  t.AttachChild(nad, ne);
  t.AttachChild(ne, nf);
  t.Validate();
  return t;
}

TEST(FPlanSearch, Example11FindsCostOnePlan) {
  FTree t = Example11Tree();
  EdgeCoverSolver solver;
  EXPECT_NEAR(t.Cost(solver), 1.0, 1e-6);

  auto res = FindOptimalFPlan(t, {{1, 5}}, solver);  // B = F
  EXPECT_TRUE(res.complete);
  // The naive absorb-based plan costs 2; the optimal plan (swap chi_{E,F}
  // then merge mu_{B,F}) stays at cost 1.
  EXPECT_NEAR(res.plan.cost_max_s, 1.0, 1e-6);
  EXPECT_NEAR(res.plan.result_s, 1.0, 1e-6);
  // Equality satisfied in the final tree.
  EXPECT_EQ(res.final_tree.FindAttr(1), res.final_tree.FindAttr(5));
  res.final_tree.Validate();
  EXPECT_TRUE(res.final_tree.SatisfiesPathConstraint());
}

TEST(FPlanSearch, AlreadySatisfiedIsEmptyPlan) {
  FTree t = Example11Tree();
  EdgeCoverSolver solver;
  auto res = FindOptimalFPlan(t, {{0, 3}}, solver);  // A = D already merged
  EXPECT_TRUE(res.plan.steps.empty());
}

TEST(FPlanSearch, MultipleEqualities) {
  FTree t = Example11Tree();
  EdgeCoverSolver solver;
  auto res = FindOptimalFPlan(t, {{1, 4}, {2, 5}}, solver);  // B=E, C=F
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.final_tree.FindAttr(1), res.final_tree.FindAttr(4));
  EXPECT_EQ(res.final_tree.FindAttr(2), res.final_tree.FindAttr(5));
  EXPECT_TRUE(res.final_tree.SatisfiesPathConstraint());
}

TEST(Greedy, MatchesSearchOnExample11) {
  FTree t = Example11Tree();
  EdgeCoverSolver solver;
  auto full = FindOptimalFPlan(t, {{1, 5}}, solver);
  auto greedy = GreedyFPlan(t, {{1, 5}}, solver);
  EXPECT_EQ(greedy.final_tree.FindAttr(1), greedy.final_tree.FindAttr(5));
  // Greedy is never better than full search; here it matches it.
  EXPECT_GE(greedy.plan.cost_max_s + 1e-6, full.plan.cost_max_s);
  EXPECT_NEAR(greedy.plan.cost_max_s, 1.0, 1e-6);
}

TEST(Greedy, NeverBeatsFullSearchOnRandomTrees) {
  EdgeCoverSolver solver;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    WorkloadSpec spec;
    spec.num_rels = 3;
    spec.num_attrs = 8;
    spec.tuples_per_rel = 1;
    spec.num_equalities = 2;
    spec.seed = seed;
    GeneratedWorkload w = GenerateWorkload(spec);
    QueryInfo info = AnalyzeQuery(w.catalog, w.query);
    auto t = FindOptimalFTree(info, solver);

    Rng rng(seed * 99);
    auto extra = DrawExtraEqualities(info.classes, 2, rng);
    if (extra.empty()) continue;

    auto full = FindOptimalFPlan(t.tree, extra, solver);
    auto greedy = GreedyFPlan(t.tree, extra, solver);
    EXPECT_GE(greedy.plan.cost_max_s + 1e-6, full.plan.cost_max_s)
        << "seed " << seed;
    // Both must satisfy all equalities.
    for (const auto& [a, b] : extra) {
      EXPECT_EQ(full.final_tree.FindAttr(a), full.final_tree.FindAttr(b));
      EXPECT_EQ(greedy.final_tree.FindAttr(a), greedy.final_tree.FindAttr(b));
    }
  }
}

TEST(Estimates, StatsAndPathCardinality) {
  Relation r({0, 1});
  for (Value v = 1; v <= 10; ++v) r.AddTuple({v, v % 3});
  Relation s({2});
  for (Value v = 1; v <= 4; ++v) s.AddTuple({v});
  DatabaseStats stats = DatabaseStats::Compute({&r, &s});
  EXPECT_EQ(stats.rel_size[0], 10.0);
  EXPECT_EQ(stats.attr_distinct[0], 10.0);
  EXPECT_EQ(stats.attr_distinct[1], 3.0);

  // Join of R and S on a class {1,2}: est = |R|*|S| / max(d1,d2) = 10.
  FTree t;
  AttrSet cls = AttrSet::Of({1, 2});
  int n = t.NewNode(cls, cls, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  t.AttachRoot(n);
  std::vector<int> path{n};
  double est = EstimatePathCardinality(stats, t, path);
  // Capped by the distinct bound min(3,4) = 3.
  EXPECT_NEAR(est, 3.0, 1e-9);
}

TEST(Estimates, FRepSizeSumsOverNodes) {
  Relation r({0, 1});
  for (Value v = 0; v < 6; ++v) r.AddTuple({v / 2, v});
  DatabaseStats stats = DatabaseStats::Compute({&r});
  FTree t = PathFTree({0, 1}, 0);
  double est = EstimateFRepSize(stats, t);
  EXPECT_GT(est, 0.0);
  // Root contributes ~3 (distinct of attr 0), leaf ~6.
  EXPECT_NEAR(est, 9.0, 1.0);
}

TEST(FPlanSearch, EstimateModeProducesValidPlan) {
  FTree t = Example11Tree();
  // Fake stats: two ternary relations of 100 tuples, 10 distinct per attr.
  DatabaseStats stats;
  stats.rel_size = {100.0, 100.0};
  stats.attr_distinct.assign(kMaxAttrs, 10.0);
  EdgeCoverSolver solver;
  FPlanSearchOptions opts;
  opts.mode = CostMode::kEstimates;
  opts.stats = &stats;
  auto res = FindOptimalFPlan(t, {{1, 5}}, solver, opts);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.final_tree.FindAttr(1), res.final_tree.FindAttr(5));
}

}  // namespace
}  // namespace fdb
