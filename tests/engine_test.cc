#include <gtest/gtest.h>

#include "core/print.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::GroceryQ1;
using testing_util::GroceryQ2;
using testing_util::MakeGroceryDb;
using testing_util::SameRelation;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(MakeGroceryDb()), engine_(db_.get()) {}
  std::unique_ptr<Database> db_;
  Engine engine_;
};

TEST_F(EngineTest, Q1FlatEvaluationMatchesRdb) {
  Query q1 = GroceryQ1(*db_);
  FdbResult fdb = engine_.EvaluateFlat(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  fdb.rep.Validate();
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
  EXPECT_EQ(fdb.FlatTuples(), 14.0);
  // Factorised result is smaller than the flat one (many-to-many joins).
  EXPECT_LT(fdb.NumSingletons(), rdb.NumDataElements());
}

TEST_F(EngineTest, Q2HasLinearFactorisation) {
  Query q2 = GroceryQ2(*db_);
  FTreeSearchResult t = engine_.OptimizeFlat(q2);
  EXPECT_NEAR(t.cost, 1.0, 1e-6);  // s(Q2) = 1 (Example 5)
  FdbResult fdb = engine_.EvaluateFlat(q2);
  RdbResult rdb = engine_.ExecuteRdb(q2);
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
}

TEST_F(EngineTest, Example2JoinOfFactorisedResults) {
  // Q1 |x|_{location, item} Q2: evaluate both queries factorised, take the
  // product, then run an f-plan for the two extra equalities.
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  Query q2 = GroceryQ2(*db_);
  FRep rep2 = engine_.EvaluateFlat(q2).rep;

  AttrId item = db_->Attr("o_item"), pitem = db_->Attr("p_item");
  AttrId loc = db_->Attr("s_location"), svloc = db_->Attr("sv_location");
  FdbResult joined =
      engine_.JoinFactorised(r1.rep, rep2, {{item, pitem}, {loc, svloc}});
  joined.rep.Validate();

  // Reference: the five-way flat join.
  Query big;
  big.rels = {static_cast<RelId>(db_->catalog().FindRelation("Orders")),
              static_cast<RelId>(db_->catalog().FindRelation("Store")),
              static_cast<RelId>(db_->catalog().FindRelation("Disp")),
              static_cast<RelId>(db_->catalog().FindRelation("Produce")),
              static_cast<RelId>(db_->catalog().FindRelation("Serve"))};
  big.equalities = {{db_->Attr("o_item"), db_->Attr("s_item")},
                    {db_->Attr("s_location"), db_->Attr("d_location")},
                    {db_->Attr("supplier"), db_->Attr("sv_supplier")},
                    {item, pitem},
                    {loc, svloc}};
  RdbResult flat = engine_.ExecuteRdb(big);
  EXPECT_TRUE(SameRelation(joined.rep, flat.relation));
}

TEST_F(EngineTest, SqlEndToEnd) {
  FdbResult res = engine_.Execute(
      "SELECT * FROM Orders, Store, Disp "
      "WHERE o_item = s_item AND s_location = d_location");
  EXPECT_EQ(res.FlatTuples(), 14.0);
}

TEST_F(EngineTest, SqlWithConstantAndProjection) {
  FdbResult res = engine_.Execute(
      "SELECT oid, s_location FROM Orders, Store "
      "WHERE o_item = s_item AND o_item = 'Milk'");
  res.rep.Validate();
  // Milk is ordered once (oid 1) and stocked in 3 locations.
  EXPECT_EQ(res.FlatTuples(), 3.0);
  EXPECT_EQ(res.rep.tree().VisibleAttrs(),
            AttrSet::Of({db_->Attr("oid"), db_->Attr("s_location")}));
}

TEST_F(EngineTest, ProjectionMatchesRdb) {
  Query q1 = GroceryQ1(*db_);
  q1.projection = AttrSet::Of({db_->Attr("oid"), db_->Attr("dispatcher")});
  FdbResult fdb = engine_.EvaluateFlat(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  fdb.rep.Validate();
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
}

TEST_F(EngineTest, ConstPredicatesMatchRdb) {
  Query q1 = GroceryQ1(*db_);
  q1.const_preds = {
      {db_->Attr("oid"), CmpOp::kGe, 2},
      {db_->Attr("dispatcher"), CmpOp::kEq,
       db_->dict().Lookup("Adnan")}};
  FdbResult fdb = engine_.EvaluateFlat(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  fdb.rep.Validate();
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
}

TEST_F(EngineTest, GreedyEngineSameResult) {
  EngineOptions opts;
  opts.greedy_optimizer = true;
  Engine greedy(db_.get(), opts);
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  // Run an extra join on the factorised result with both optimisers.
  AttrId oid = db_->Attr("oid"), disp = db_->Attr("dispatcher");
  (void)disp;
  FdbResult a = engine_.EvaluateOnFRep(r1.rep, {{oid, oid}});
  FdbResult b = greedy.EvaluateOnFRep(r1.rep, {{oid, oid}});
  // The two plans may end in different f-trees, so compare as sets.
  EXPECT_TRUE(
      SameRelation(MaterializeVisible(a.rep), MaterializeVisible(b.rep)));
}

TEST_F(EngineTest, EstimatesModeReachesTheFPlanSearch) {
  // Example 2's join of two factorised results, optimised with
  // cardinality estimates: EngineOptions::search carries the mode and the
  // statistics, and the engine's plan is the one FindOptimalFPlan finds
  // under the same options.
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  Query q2 = GroceryQ2(*db_);
  FRep rep2 = engine_.EvaluateFlat(q2).rep;
  std::vector<const Relation*> rels = db_->RelationPtrs(GroceryQ1(*db_).rels);
  for (const Relation* r : db_->RelationPtrs(q2.rels)) rels.push_back(r);
  const DatabaseStats stats = DatabaseStats::Compute(rels);

  EngineOptions opts;
  opts.search.mode = CostMode::kEstimates;
  opts.search.stats = &stats;
  Engine estimating(db_.get(), opts);
  const std::vector<std::pair<AttrId, AttrId>> eqs = {
      {db_->Attr("o_item"), db_->Attr("p_item")},
      {db_->Attr("s_location"), db_->Attr("sv_location")}};
  FdbResult joined = estimating.JoinFactorised(r1.rep, rep2, eqs);

  FRep shifted = rep2;
  shifted.tree().ShiftRelIndices(r1.rep.tree().MaxRelIndex() + 1);
  EdgeCoverSolver solver;
  FPlanSearchResult direct =
      FindOptimalFPlan(Product(r1.rep, shifted).tree(), eqs, solver,
                       opts.search);
  EXPECT_EQ(joined.plan.ToString(), direct.plan.ToString());
  // The costs are estimated sizes, not the asymptotic exponents (2 here)
  // that an ignored mode would report.
  EXPECT_EQ(joined.plan.cost_max_s, direct.plan.cost_max_s);
  EXPECT_EQ(joined.plan.result_s, direct.plan.result_s);
}

TEST_F(EngineTest, EvaluateOnFRepWithConstAndProjection) {
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  AttrId oid = db_->Attr("oid");
  AttrSet keep = AttrSet::Of({db_->Attr("o_item"), oid});
  FdbResult res = engine_.EvaluateOnFRep(
      r1.rep, {}, {{oid, CmpOp::kLe, 2}}, keep);
  res.rep.Validate();

  Query q1 = GroceryQ1(*db_);
  q1.const_preds = {{oid, CmpOp::kLe, 2}};
  q1.projection = keep;
  RdbResult rdb = engine_.ExecuteRdb(q1);
  EXPECT_TRUE(SameRelation(res.rep, rdb.relation));
}

TEST_F(EngineTest, VdbAgreesOnGrocery) {
  Query q1 = GroceryQ1(*db_);
  VdbResult vdb = engine_.ExecuteVdb(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  EXPECT_EQ(vdb.NumTuples(), rdb.NumTuples());
}

TEST_F(EngineTest, PrintedFactorisationMentionsGroceries) {
  FdbResult res = engine_.EvaluateFlat(GroceryQ2(*db_));
  PrintOptions popts;
  popts.catalog = &db_->catalog();
  popts.dict = &db_->dict();
  popts.unicode = false;
  std::string s = ToExpressionString(res.rep, popts);
  EXPECT_NE(s.find("Guney"), std::string::npos);
  EXPECT_NE(s.find("Antalya"), std::string::npos);
}

}  // namespace
}  // namespace fdb
