// Property-based tests: on random databases and random SPJ queries, FDB's
// factorised evaluation must agree tuple-for-tuple with the flat baselines,
// restructuring operators must preserve the represented relation, and the
// size bound |E| = O(|D|^{s(T)}) must hold on observed data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/trace.h"
#include "core/enumerate.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "opt/ftree_search.h"
#include "opt/fplan_search.h"
#include "opt/greedy.h"
#include "rdb/rdb.h"
#include "storage/generator.h"
#include "test_util.h"
#include "vdb/vdb.h"

namespace fdb {
namespace {

struct Params {
  int rels;
  int attrs;
  int eqs;
  Distribution dist;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "R" + std::to_string(p.rels) + "A" + std::to_string(p.attrs) + "K" +
         std::to_string(p.eqs) +
         (p.dist == Distribution::kZipf ? "zipf" : "uni") + "s" +
         std::to_string(p.seed);
}

class FlatEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(FlatEquivalence, FdbMatchesRdbAndVdb) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 40;
  spec.domain = 8;  // small domain: joins actually hit
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  // FDB: optimal f-tree + grounding.
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FTreeSearchResult t = FindOptimalFTree(info, solver);
  FRep rep = GroundQuery(t.tree, rels, w.query.const_preds);
  rep.Validate();

  RdbResult rdb = RdbEvaluate(w.catalog, rels, w.query);
  ASSERT_FALSE(rdb.timed_out);
  EXPECT_TRUE(testing_util::SameRelation(rep, rdb.relation));

  VdbResult vdb = VdbEvaluate(w.catalog, rels, w.query);
  ASSERT_FALSE(vdb.timed_out);
  EXPECT_TRUE(testing_util::SameRelation(vdb.relation, rdb.relation));

  // Observed size respects the bound |E| <= c * |D|^{s(T)} with a modest
  // constant (here: number of f-tree nodes as the per-node multiplier).
  double d = 0;
  for (const Relation& r : w.relations) d += static_cast<double>(r.size());
  double bound = (static_cast<double>(t.tree.NumAlive()) + 1.0) * 2.0 *
                 std::pow(d, t.cost);
  EXPECT_LE(static_cast<double>(rep.NumSingletons()), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlatEquivalence,
    ::testing::Values(
        Params{1, 3, 1, Distribution::kUniform, 1},
        Params{2, 5, 1, Distribution::kUniform, 2},
        Params{2, 5, 2, Distribution::kUniform, 3},
        Params{3, 7, 2, Distribution::kUniform, 4},
        Params{3, 7, 3, Distribution::kZipf, 5},
        Params{3, 9, 4, Distribution::kUniform, 6},
        Params{4, 9, 3, Distribution::kUniform, 7},
        Params{4, 10, 4, Distribution::kZipf, 8},
        Params{4, 10, 5, Distribution::kUniform, 9},
        Params{5, 11, 4, Distribution::kZipf, 10},
        Params{5, 12, 5, Distribution::kUniform, 11},
        Params{2, 6, 3, Distribution::kZipf, 12}),
    ParamName);

class RestructureInvariance : public ::testing::TestWithParam<Params> {};

TEST_P(RestructureInvariance, RandomSwapsPreserveRelation) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 25;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  if (rep.empty()) GTEST_SKIP() << "empty join result";
  Relation reference = MaterializeVisible(rep);

  Rng rng(p.seed * 1337);
  for (int step = 0; step < 12; ++step) {
    // Pick a random tree edge and swap it.
    std::vector<std::pair<AttrId, AttrId>> edges;
    const FTree& t = rep.tree();
    for (int n : t.AliveNodes()) {
      if (t.node(n).parent != -1) {
        edges.emplace_back(t.node(t.node(n).parent).attrs.Min(),
                           t.node(n).attrs.Min());
      }
    }
    if (edges.empty()) break;
    auto [pa, ch] =
        edges[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(edges.size()) - 1))];
    rep = Swap(rep, pa, ch);
    rep.Validate();
    EXPECT_TRUE(rep.tree().IsNormalized()) << "swap broke normalisation";
    // A swap changes the f-tree and with it the output order: compare as
    // sets.
    ASSERT_TRUE(testing_util::SameRelation(rep, reference))
        << "swap changed the relation at step " << step;
  }
  // Normalising at the end changes nothing semantically.
  FRep norm = Normalize(rep);
  EXPECT_TRUE(testing_util::SameRelation(norm, reference));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RestructureInvariance,
    ::testing::Values(Params{2, 5, 2, Distribution::kUniform, 21},
                      Params{3, 7, 2, Distribution::kUniform, 22},
                      Params{3, 8, 3, Distribution::kZipf, 23},
                      Params{4, 9, 3, Distribution::kUniform, 24},
                      Params{4, 10, 4, Distribution::kZipf, 25}),
    ParamName);

class FactorisedQueries : public ::testing::TestWithParam<Params> {};

TEST_P(FactorisedQueries, ExtraEqualitiesMatchFlatSelection) {
  // Experiment 4's semantics: L extra equalities evaluated on the
  // factorised result of the first query must equal the flat selection on
  // the materialised result.
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 30;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FTreeSearchResult t = FindOptimalFTree(info, solver);
  FRep rep = GroundQuery(t.tree, rels);
  if (rep.empty()) GTEST_SKIP() << "empty join result";

  Rng rng(p.seed * 7 + 1);
  auto extra = DrawExtraEqualities(info.classes, 2, rng);
  if (extra.empty()) GTEST_SKIP() << "no classes left to equate";

  auto plan = FindOptimalFPlan(rep.tree(), extra, solver);
  FRep out = ExecutePlan(rep, plan.plan);
  out.Validate();
  // Predicted tree equals executed tree.
  EXPECT_EQ(out.tree().CanonicalKey(), plan.final_tree.CanonicalKey());

  // Reference: filter the materialised first result.
  Relation flat = MaterializeVisible(rep);
  for (const auto& [a, b] : extra) {
    size_t ca = flat.ColumnOf(a), cb = flat.ColumnOf(b);
    flat.Filter([&](size_t row) { return flat.At(row, ca) == flat.At(row, cb); });
  }
  EXPECT_TRUE(testing_util::SameRelation(out, flat));

  // Greedy must produce the same relation.
  auto gplan = GreedyFPlan(rep.tree(), extra, solver);
  FRep gout = ExecutePlan(rep, gplan.plan);
  EXPECT_TRUE(testing_util::SameRelation(gout, flat));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FactorisedQueries,
    ::testing::Values(Params{3, 7, 2, Distribution::kUniform, 31},
                      Params{3, 8, 3, Distribution::kUniform, 32},
                      Params{4, 9, 2, Distribution::kZipf, 33},
                      Params{4, 10, 4, Distribution::kUniform, 34},
                      Params{4, 10, 5, Distribution::kZipf, 35},
                      Params{5, 11, 3, Distribution::kUniform, 36}),
    ParamName);

class ProjectionEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(ProjectionEquivalence, RandomProjectionsMatchRdb) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 30;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  // Keep a random half of the attributes.
  Rng rng(p.seed + 99);
  AttrSet keep;
  for (int a = 0; a < p.attrs; ++a) {
    if (rng.Uniform(0, 1) == 0) keep.Add(static_cast<AttrId>(a));
  }
  if (keep.Empty()) keep.Add(0);
  Query q = w.query;
  q.projection = keep;

  QueryInfo info = AnalyzeQuery(w.catalog, q);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  FRep proj = Project(rep, keep);
  proj.Validate();

  RdbResult rdb = RdbEvaluate(w.catalog, rels, q);
  ASSERT_FALSE(rdb.timed_out);
  EXPECT_TRUE(testing_util::SameRelation(proj, rdb.relation));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProjectionEquivalence,
    ::testing::Values(Params{2, 5, 2, Distribution::kUniform, 41},
                      Params{3, 7, 3, Distribution::kUniform, 42},
                      Params{3, 8, 2, Distribution::kZipf, 43},
                      Params{4, 9, 3, Distribution::kUniform, 44},
                      Params{4, 10, 4, Distribution::kZipf, 45}),
    ParamName);

// ---------------------------------------------------------------------------
// The materialisation contract (core/parallel_enumerate.h): rows distinct
// and strictly increasing under sort_order(), the visible columns in
// f-tree pre-order; the same set as the flat baseline; byte-identical
// across thread counts and with or without a caller's kernel; sorted only
// when the tree projects a middle node.

void ExpectDistinctAndSorted(const Relation& r) {
  const std::vector<size_t>& order = r.sort_order();
  ASSERT_EQ(order.size(), r.arity()) << "no order recorded";
  for (size_t row = 1; row < r.size(); ++row) {
    size_t j = 0;
    while (j < order.size() && r.At(row - 1, order[j]) == r.At(row, order[j])) {
      ++j;
    }
    ASSERT_LT(j, order.size()) << "duplicate row " << row;
    ASSERT_LT(r.At(row - 1, order[j]), r.At(row, order[j]))
        << "row " << row << " out of order";
  }
}

// The visible attributes in f-tree pre-order, as column positions of the
// materialised schema (visible attributes ascending).
std::vector<size_t> PreOrderColumns(const FTree& t) {
  const std::vector<AttrId> schema = t.VisibleAttrs().ToVector();
  std::vector<size_t> cols;
  for (int n : t.PreOrder()) {
    for (AttrId a : t.node(n).visible) {
      cols.push_back(static_cast<size_t>(
          std::find(schema.begin(), schema.end(), a) - schema.begin()));
    }
  }
  return cols;
}

// Whether an invisible node has a visible descendant.
bool ProjectsMiddle(const FTree& t) {
  for (int n : t.AliveNodes()) {
    if (!t.node(n).visible.Empty()) continue;
    for (int d : t.AliveNodes()) {
      if (d == n || t.node(d).visible.Empty()) continue;
      for (int p = t.node(d).parent; p != -1; p = t.node(p).parent) {
        if (p == n) return true;
      }
    }
  }
  return false;
}

using testing_util::HasSpan;

// Materialises `rep` every way and checks the contract against `expect`.
void CheckMaterializeContract(const FRep& rep, const Relation& expect) {
  EnumerateOptions sequential;
  sequential.threads = 1;
  const Relation seq = MaterializeVisible(rep, sequential);
  ExpectDistinctAndSorted(seq);
  EXPECT_TRUE(testing_util::SameRelation(seq, expect));
  if (seq.arity() > 0) {
    EXPECT_EQ(seq.sort_order(), PreOrderColumns(rep.tree()));
  }

  const bool middle = ProjectsMiddle(rep.tree());
  const EnumKernel kernel = EnumKernel::Compile(rep.tree(), true);
  EXPECT_EQ(kernel.distinct(), !middle);
  const EnumKernel* const kernels[] = {&kernel, nullptr};
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 4;
    for (const EnumKernel* k : kernels) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " kernel=" + std::to_string(k != nullptr));
      QueryTrace trace;
      const Relation got = MaterializeVisible(rep, opts, k, &trace);
      EXPECT_TRUE(got == seq);
      EXPECT_EQ(got.sort_order(), seq.sort_order());
      EXPECT_TRUE(HasSpan(trace, "emit"));
      EXPECT_EQ(HasSpan(trace, "sort-dedup"), middle);
    }
  }
}

class MaterializeContract : public ::testing::TestWithParam<Params> {};

TEST_P(MaterializeContract, RandomRepsMeetTheOrderAndSetContract) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 30;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  const FRep full = GroundQuery(FindOptimalFTree(info, solver).tree, rels,
                                w.query.const_preds);

  // The full tree (no sort), then random deferred projections: clearing
  // the visibility of nodes keeps them in the tree, so a cleared node with
  // a visible descendant is a projected middle node (sort + dedup).
  CheckMaterializeContract(full,
                           RdbEvaluate(w.catalog, rels, w.query).relation);
  Rng rng(p.seed * 31 + 7);
  for (int trial = 0; trial < 6; ++trial) {
    FRep rep = full;
    for (int n : rep.tree().AliveNodes()) {
      if (rng.Uniform(0, 2) == 0) rep.tree().node(n).visible = {};
    }
    if (rep.tree().VisibleAttrs().Empty()) continue;  // no rdb projection
    rep.Validate();
    Query q = w.query;
    q.projection = rep.tree().VisibleAttrs();
    SCOPED_TRACE("trial " + std::to_string(trial));
    CheckMaterializeContract(rep, RdbEvaluate(w.catalog, rels, q).relation);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaterializeContract,
    ::testing::Values(Params{1, 3, 0, Distribution::kUniform, 51},
                      Params{2, 5, 1, Distribution::kUniform, 52},
                      Params{3, 7, 2, Distribution::kZipf, 53},
                      Params{3, 8, 3, Distribution::kUniform, 54},
                      Params{4, 9, 3, Distribution::kUniform, 55},
                      Params{4, 10, 4, Distribution::kZipf, 56}),
    ParamName);

TEST(MaterializeContractShapes, ProjectedMiddleDedupsDataDuplicates) {
  // The deferred-projection shape of frep_test: an invisible root A over a
  // visible child B. Different A-values lead to equal B-values, so the
  // stream repeats and reorders rows and the sink must sort + dedup.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Relation r({0, 1});
    for (int i = 0; i < 60; ++i) {
      r.AddTuple({rng.Uniform(1, 9), rng.Uniform(1, 6)});
    }
    const FRep rep =
        GroundQuery(testing_util::DeferredProjectionTree(1, 0, true), {&r});
    rep.Validate();
    ASSERT_TRUE(ProjectsMiddle(rep.tree()));
    Relation expect({1});
    for (size_t row = 0; row < r.size(); ++row) expect.AddTuple({r.At(row, 1)});
    CheckMaterializeContract(rep, expect);
  }
}

}  // namespace
}  // namespace fdb
