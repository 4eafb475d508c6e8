#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "bench_util/workload.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/serialize.h"
#include "rdb/rdb.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::GroundMorsels;
using testing_util::SameRelation;

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(Ground, SingleRelationTrie) {
  Relation r = MakeRel({0, 1}, {{2, 1}, {1, 1}, {1, 2}});
  FRep rep = GroundRelation(r, 0);
  rep.Validate();
  r.SortLex();
  EXPECT_TRUE(SameRelation(rep, r));
}

TEST(Ground, DeduplicatesInputTuples) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 1}, {1, 1}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_EQ(rep.CountTuples(), 1.0);
}

TEST(Ground, TwoWayJoinOverMergedClass) {
  // R(A,B) |x|_{B=C} S(C,D) over the tree {B,C} -> A, {B,C} -> D.
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 5}, {3, 6}, {4, 9}});
  Relation s = MakeRel({2, 3}, {{5, 70}, {5, 71}, {6, 72}, {8, 73}});
  FTree t;
  AttrSet cls = AttrSet::Of({1, 2});
  int nj = t.NewNode(cls, cls, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nd = t.NewNode(AttrSet::Of({3}), AttrSet::Of({3}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(nj);
  t.AttachChild(nj, na);
  t.AttachChild(nj, nd);
  FRep rep = GroundQuery(t, {&r, &s});
  rep.Validate();
  // B=5: A in {1,2} x D in {70,71}; B=6: {3} x {72}. 5 join tuples.
  EXPECT_EQ(rep.CountTuples(), 5.0);
  // Factorised: 2 join values + 3 A values + 3 D values = 8 singletons
  // (x2 for the two-attribute class).
  EXPECT_EQ(rep.NumSingletons(), 2u * 2u + 3u + 3u);
}

TEST(Ground, AppliesConstPredicates) {
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 6}, {3, 7}});
  FTree t = PathFTree({0, 1}, 0);
  FRep rep = GroundQuery(t, {&r}, {ConstPred{1, CmpOp::kGe, 6}});
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 2.0);
}

TEST(Ground, EmptyJoinResult) {
  Relation r = MakeRel({0}, {{1}});
  Relation s = MakeRel({1}, {{2}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r, &s});
  EXPECT_TRUE(rep.empty());
}

TEST(Ground, EmptyInputRelation) {
  Relation r({0});
  FRep rep = GroundRelation(r, 0);
  EXPECT_TRUE(rep.empty());
}

TEST(Ground, RejectsPathConstraintViolation) {
  // R(A,B)'s attributes on two branches of a fork.
  Relation r = MakeRel({0, 1}, {{1, 2}});
  Relation s = MakeRel({2}, {{1}});
  FTree t;
  int root = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({1}),
                       RelSet::Of({1}));
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  t.AttachRoot(root);
  t.AttachChild(root, na);
  t.AttachChild(root, nb);
  EXPECT_THROW(GroundQuery(t, {&r, &s}), FdbError);
}

TEST(Ground, IntraRelationClassEquality) {
  // Class {A,B} within one relation keeps only tuples with A = B.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {3, 3}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r});
  EXPECT_EQ(rep.CountTuples(), 2.0);
}

TEST(Ground, GroceryQ1OverT1MatchesPaper) {
  // The factorised Q1 result of Example 1, over T1.
  auto db = testing_util::MakeGroceryDb();
  AttrId item = db->Attr("o_item"), sitem = db->Attr("s_item");
  AttrId loc = db->Attr("s_location"), dloc = db->Attr("d_location");
  AttrId oid = db->Attr("oid"), disp = db->Attr("dispatcher");

  FTree t1;
  AttrSet c_item = AttrSet::Of({item, sitem});
  AttrSet c_loc = AttrSet::Of({loc, dloc});
  int n_item =
      t1.NewNode(c_item, c_item, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int n_oid = t1.NewNode(AttrSet::Of({oid}), AttrSet::Of({oid}),
                         RelSet::Of({0}), RelSet::Of({0}));
  int n_loc =
      t1.NewNode(c_loc, c_loc, RelSet::Of({1, 2}), RelSet::Of({1, 2}));
  int n_disp = t1.NewNode(AttrSet::Of({disp}), AttrSet::Of({disp}),
                          RelSet::Of({2}), RelSet::Of({2}));
  t1.AttachRoot(n_item);
  t1.AttachChild(n_item, n_oid);
  t1.AttachChild(n_item, n_loc);
  t1.AttachChild(n_loc, n_disp);

  std::vector<const Relation*> rels = {
      &db->relation(static_cast<RelId>(db->catalog().FindRelation("Orders"))),
      &db->relation(static_cast<RelId>(db->catalog().FindRelation("Store"))),
      &db->relation(static_cast<RelId>(db->catalog().FindRelation("Disp")))};
  FRep rep = GroundQuery(t1, rels);
  rep.Validate();

  // Cross-check against RDB's flat evaluation of Q1.
  Query q1 = testing_util::GroceryQ1(*db);
  RdbResult flat = RdbEvaluate(db->catalog(), rels, q1);
  EXPECT_TRUE(SameRelation(rep, flat.relation));
  // 14 tuples flat (4 Milk + 6 Cheese + 4 Melon combinations); factorised
  // over T1 the result is strictly smaller than the 14 x 6 data elements.
  EXPECT_EQ(rep.CountTuples(), static_cast<double>(flat.NumTuples()));
  EXPECT_LT(rep.NumSingletons(), flat.NumTuples() * 6);
}

TEST(Ground, ExtremeValuesKeepTheirBlocks) {
  constexpr Value kMax = std::numeric_limits<Value>::max();
  constexpr Value kMin = std::numeric_limits<Value>::min();
  Relation r = MakeRel({0, 1}, {{kMax, 1}, {kMax, 2}, {kMin, 3}, {1, kMax}});
  FRep rep = GroundQuery(PathFTree({0, 1}, 0), {&r});
  EXPECT_EQ(rep.CountTuples(), 4.0);
  EXPECT_TRUE(SameRelation(rep, r));
}

TEST(Ground, PrepareFiltersSortsAndDeduplicates) {
  // Groups {0, 2} (must agree) then {1}: sorted by columns 0, 1, then 2.
  Relation r = MakeRel({0, 1, 2}, {{3, 1, 3}, {1, 2, 1}, {1, 2, 1}, {2, 0, 9},
                                   {1, 1, 1}});
  Relation p = PrepareRelation(r, {{0, 2}, {1}});
  EXPECT_EQ(p, MakeRel({0, 1, 2}, {{1, 1, 1}, {1, 2, 1}, {3, 1, 3}}));
  EXPECT_EQ(p.sort_order(), (std::vector<size_t>{0, 1, 2}));
}

TEST(Ground, PrepareFiltersByPredicatesBeforeSorting) {
  Relation r = MakeRel({4, 5}, {{3, 1}, {1, 2}, {1, 2}, {2, 0}, {5, 1}});
  // A predicate on an attribute the relation lacks is ignored.
  Relation p = PrepareRelation(
      r, {{1}, {0}}, {ConstPred{4, CmpOp::kLe, 3}, ConstPred{9, CmpOp::kEq, 0}});
  EXPECT_EQ(p, MakeRel({4, 5}, {{2, 0}, {3, 1}, {1, 2}}));
  EXPECT_EQ(p.sort_order(), (std::vector<size_t>{1, 0}));
}

TEST(Ground, TraceSplitsPrepareAndBuild) {
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 6}, {2, 6}, {3, 7}});
  FTree t = PathFTree({0, 1}, 0);
  QueryTrace trace;
  FRep rep = GroundQuery(t, {&r}, {ConstPred{1, CmpOp::kGe, 6}}, &trace);
  const std::vector<QueryTrace::Span>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "ground");
  EXPECT_EQ(spans[1].name, "ground-prepare");
  EXPECT_EQ(spans[2].name, "ground-build");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  // Filtered first, so only the two distinct kept rows are prepared.
  EXPECT_EQ(spans[1].rows, 2u);
  EXPECT_EQ(spans[1].bytes, 2u * 2u * sizeof(Value));
  EXPECT_EQ(spans[2].bytes, rep.MemoryBytes());
  EXPECT_EQ(spans[0].bytes, rep.MemoryBytes());
}

// ---- The Engine's prepared-relation cache --------------------------------

std::string FRepBytes(const FRep& rep) {
  std::ostringstream os;
  WriteFRep(os, rep);
  return os.str();
}

// Whether grounding `q` on `engine` reused every prepared relation: the
// ground-prepare span carries bytes only when it prepared one.
bool GroundsFromCache(Engine& engine, const Query& q) {
  QueryTrace trace;
  engine.EvaluateFlat(q, nullptr, &trace);
  for (const QueryTrace::Span& s : trace.spans()) {
    if (s.name == "ground-prepare") return !s.has_bytes;
  }
  ADD_FAILURE() << "no ground-prepare span";
  return false;
}

// The ground-prepare payload of grounding `q` on `engine`: the bytes of the
// relations this query prepared itself.
uint64_t PreparedBytes(Engine& engine, const Query& q) {
  QueryTrace trace;
  engine.EvaluateFlat(q, nullptr, &trace);
  for (const QueryTrace::Span& s : trace.spans()) {
    if (s.name == "ground-prepare") return s.bytes;
  }
  ADD_FAILURE() << "no ground-prepare span";
  return 0;
}

// Runs `sql` on a fresh engine (cold cache) and on `engine` (whose cache
// the call may fill) and then again on `engine` from its now warm cache:
// the three results must be byte-identical and equal to rdb's.
void ExpectColdWarmExact(Database& db, Engine& engine, const std::string& sql,
                         const FTreeSearchResult* pretree = nullptr) {
  SCOPED_TRACE(sql);
  Engine cold(&db);
  const Query q = cold.Parse(sql);
  const FdbResult c = cold.EvaluateFlat(q, pretree);
  const FdbResult w1 = engine.EvaluateFlat(q, pretree);
  const FdbResult w2 = engine.EvaluateFlat(q, pretree);
  const std::string bytes = FRepBytes(c.rep);
  EXPECT_EQ(FRepBytes(w1.rep), bytes);
  EXPECT_EQ(FRepBytes(w2.rep), bytes);
  const Relation rows = cold.MaterializeResult(c);
  EXPECT_EQ(engine.MaterializeResult(w2), rows);
  EXPECT_TRUE(SameRelation(rows, cold.ExecuteRdb(q).relation));
  if (pretree == nullptr) {
    EXPECT_TRUE(GroundsFromCache(engine, q));
  }
}

class GroundCacheTest : public ::testing::Test {
 protected:
  GroundCacheTest() : engine_(&db_) {
    r_ = db_.CreateRelation("R", {"a", "b", "c"});
    s_ = db_.CreateRelation("S", {"sb", "d"});
    for (int64_t i = 0; i < 40; ++i) {
      db_.Insert(r_, {i % 7, i % 5, i % 3});
      db_.Insert(s_, {i % 6, i});
    }
  }

  Database db_;
  Engine engine_;
  RelId r_ = 0, s_ = 0;
};

TEST_F(GroundCacheTest, PredicatesAreExact) {
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R, S WHERE b = sb");
  // Constant predicates filter the cached relations without re-sorting.
  ExpectColdWarmExact(db_, engine_,
                      "SELECT * FROM R, S WHERE b = sb AND a >= 3 AND d < 30");
  ExpectColdWarmExact(db_, engine_,
                      "SELECT a, d FROM R, S WHERE b = sb AND c = 1");
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R WHERE a = 99");
}

TEST_F(GroundCacheTest, IntraRelationClassEqualityIsExact) {
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R WHERE a = b");
  ExpectColdWarmExact(db_, engine_,
                      "SELECT * FROM R, S WHERE a = b AND b = sb");
}

TEST_F(GroundCacheTest, DuplicateInputRowsAreExact) {
  for (int k = 0; k < 3; ++k) {
    db_.Insert(r_, {1, 1, 1});
    db_.Insert(s_, {1, 7});
  }
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R, S WHERE b = sb");
  ExpectColdWarmExact(db_, engine_, "SELECT b FROM R");
}

TEST_F(GroundCacheTest, TwoPathOrdersOverOneRelation) {
  const AttrId a = db_.Attr("a"), b = db_.Attr("b"), c = db_.Attr("c");
  FTreeSearchResult abc{PathFTree({a, b, c}, 0), 1.0, 0};
  FTreeSearchResult cba{PathFTree({c, b, a}, 0), 1.0, 0};
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R", &abc);
  EXPECT_EQ(engine_.prepared_cache().size(), 1u);
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R", &cba);
  EXPECT_EQ(engine_.prepared_cache().size(), 2u);
  // Both orders stay cached side by side.
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R WHERE b <= 2", &abc);
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R WHERE b <= 2", &cba);
  EXPECT_EQ(engine_.prepared_cache().size(), 2u);
}

TEST_F(GroundCacheTest, OneOffSelectiveQuerySortsOnlyKeptRows) {
  const std::string sql = "SELECT * FROM R WHERE a = 3";
  const Query q = engine_.Parse(sql);
  const FdbResult expected = Engine(&db_).EvaluateFlat(q);
  // First sighting: only R's rows with a = 3 (i = 3, 10, ..., 38: 6
  // distinct rows) are prepared, and nothing is kept.
  EXPECT_EQ(PreparedBytes(engine_, q), 6u * 3u * sizeof(Value));
  EXPECT_EQ(engine_.prepared_cache().size(), 0u);
  EXPECT_EQ(engine_.prepared_cache().stats().deferred, 1u);
  // The repeat prepares the whole relation (its 40 rows are distinct) and
  // keeps it; from then on the query reuses it.
  EXPECT_EQ(PreparedBytes(engine_, q), 40u * 3u * sizeof(Value));
  EXPECT_EQ(engine_.prepared_cache().size(), 1u);
  EXPECT_TRUE(GroundsFromCache(engine_, q));
  const PreparedRelationCache::Stats st = engine_.prepared_cache().stats();
  EXPECT_EQ(st.deferred, 1u);
  EXPECT_EQ(st.prepared, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(FRepBytes(engine_.EvaluateFlat(q).rep), FRepBytes(expected.rep));
  // A query without predicates on R is kept at once.
  Engine other(&db_);
  EXPECT_EQ(PreparedBytes(other, other.Parse("SELECT * FROM R")),
            40u * 3u * sizeof(Value));
  EXPECT_EQ(other.prepared_cache().size(), 1u);
}

TEST_F(GroundCacheTest, MutationDropsEntriesOfEveryOrder) {
  const AttrId a = db_.Attr("a"), b = db_.Attr("b"), c = db_.Attr("c");
  FTreeSearchResult abc{PathFTree({a, b, c}, 0), 1.0, 0};
  FTreeSearchResult cba{PathFTree({c, b, a}, 0), 1.0, 0};
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R", &abc);
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R", &cba);
  EXPECT_EQ(engine_.prepared_cache().size(), 2u);
  db_.relation(r_).AddTuple({9, 4, 2});
  // Preparing R afresh along one order drops its stale copy along the other.
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R", &abc);
  EXPECT_EQ(engine_.prepared_cache().size(), 1u);
  ExpectColdWarmExact(db_, engine_, "SELECT * FROM R", &cba);
  EXPECT_EQ(engine_.prepared_cache().size(), 2u);
}

TEST_F(GroundCacheTest, MutationThroughDatabaseInsert) {
  const std::string sql = "SELECT * FROM R, S WHERE b = sb AND a <= 4";
  ExpectColdWarmExact(db_, engine_, sql);
  db_.Insert(r_, {4, 5, 0});  // a new join value, 5, for R
  db_.Insert(s_, {5, 100});
  const Query q = engine_.Parse(sql);
  EXPECT_FALSE(GroundsFromCache(engine_, q));  // both relations re-prepared
  ExpectColdWarmExact(db_, engine_, sql);
}

TEST_F(GroundCacheTest, MutationThroughRelationAccessor) {
  const std::string sql = "SELECT * FROM R, S WHERE b = sb";
  ExpectColdWarmExact(db_, engine_, sql);
  const size_t entries = engine_.prepared_cache().size();
  db_.relation(r_).AddTuple({9, 4, 2});
  ExpectColdWarmExact(db_, engine_, sql);
  // A stale entry is replaced, not added to.
  EXPECT_EQ(engine_.prepared_cache().size(), entries);

  db_.relation(s_).Filter([&](size_t row) {
    return db_.relation(s_).At(row, 0) != 2;
  });
  ExpectColdWarmExact(db_, engine_, sql);

  Relation fewer({db_.Attr("sb"), db_.Attr("d")});
  fewer.AddTuple({4, 1});
  db_.relation(s_) = fewer;
  ExpectColdWarmExact(db_, engine_, sql);
  db_.relation(s_) = Relation({db_.Attr("sb"), db_.Attr("d")});
  ExpectColdWarmExact(db_, engine_, sql);
}

TEST_F(GroundCacheTest, AssignmentOfAnEqualLengthHistory) {
  // The replacement went through as many mutations as S itself, so only an
  // assignment that moves the stamp on keeps the cache exact.
  const std::string sql = "SELECT * FROM R, S WHERE b = sb";
  ExpectColdWarmExact(db_, engine_, sql);
  Relation twin({db_.Attr("sb"), db_.Attr("d")});
  for (int64_t i = 0; i < 40; ++i) twin.AddTuple({i % 4, -i});
  ASSERT_EQ(twin.stamp(), db_.relation(s_).stamp());
  db_.relation(s_) = twin;
  ExpectColdWarmExact(db_, engine_, sql);
  Relation moved = twin;
  db_.relation(s_) = std::move(moved);
  ExpectColdWarmExact(db_, engine_, sql);
}

TEST_F(GroundCacheTest, ConcurrentColdCacheIsExact) {
  const std::vector<std::string> sqls = {
      "SELECT * FROM R, S WHERE b = sb",
      "SELECT * FROM R, S WHERE b = sb AND d >= 10",
      "SELECT a, c FROM R WHERE a = b",
      "SELECT * FROM R WHERE c = 2",
  };
  std::vector<Query> queries;
  std::vector<std::string> expected;
  {
    Engine reference(&db_);
    for (const std::string& sql : sqls) {
      queries.push_back(reference.Parse(sql));
      expected.push_back(FRepBytes(reference.EvaluateFlat(queries.back()).rep));
    }
  }
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t k = (i + static_cast<size_t>(t)) % queries.size();
          if (FRepBytes(engine_.EvaluateFlat(queries[k]).rep) != expected[k]) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int bad : mismatches) EXPECT_EQ(bad, 0);
  for (const Query& q : queries) EXPECT_TRUE(GroundsFromCache(engine_, q));
}

// ---- The morsel-parallel build --------------------------------------------

// Two builds compared union by union: the same ids, windows and contents,
// as if both had been built in one piece.
void ExpectSameArenas(const FRep& a, const FRep& b) {
  ASSERT_EQ(a.empty(), b.empty());
  ASSERT_EQ(a.NumUnions(), b.NumUnions());
  ASSERT_EQ(a.ValueArenaSize(), b.ValueArenaSize());
  ASSERT_EQ(a.ChildArenaSize(), b.ChildArenaSize());
  EXPECT_EQ(a.roots(), b.roots());
  for (uint32_t id = 0; id < a.NumUnions(); ++id) {
    const UnionHeader& x = a.HeaderOf(id);
    const UnionHeader& y = b.HeaderOf(id);
    ASSERT_EQ(x.node, y.node) << "union " << id;
    ASSERT_EQ(x.len, y.len) << "union " << id;
    ASSERT_EQ(x.val_off, y.val_off) << "union " << id;
    ASSERT_EQ(x.child_off, y.child_off) << "union " << id;
    ASSERT_EQ(x.num_children, y.num_children) << "union " << id;
    const UnionRef ua = a.u(id), ub = b.u(id);
    ASSERT_TRUE(std::equal(ua.values(), ua.values() + ua.size(), ub.values()))
        << "union " << id;
    ASSERT_TRUE(std::equal(ua.children(), ua.children() + ua.num_children(),
                           ub.children()))
        << "union " << id;
  }
}

// Grounds with `ground(threads, trace)` at thread caps 1, 2, 3 and 8 and
// expects one result: a valid rep with the same WriteFRep bytes, arenas
// and materialised rows as the build on the caller, whose rows equal
// `expected`. Returns the build's morsel count per cap.
template <typename Ground>
std::vector<uint64_t> ExpectSameAtEveryThreadCap(const Ground& ground,
                                                 const Relation& expected) {
  std::vector<uint64_t> morsels;
  std::optional<FRep> first;
  std::optional<Relation> rows;
  for (const int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    QueryTrace trace;
    FRep rep = ground(threads, &trace);
    morsels.push_back(GroundMorsels(trace));
    rep.Validate();
    EnumerateOptions opts;
    opts.threads = threads;
    Relation got = MaterializeVisible(rep, opts);
    if (!first) {
      EXPECT_TRUE(SameRelation(got, expected));
      first.emplace(std::move(rep));
      rows.emplace(std::move(got));
      continue;
    }
    EXPECT_EQ(FRepBytes(rep), FRepBytes(*first));
    ExpectSameArenas(rep, *first);
    EXPECT_EQ(got, *rows);
  }
  return morsels;
}

// `sql` evaluated by engines whose enumerate.threads is each cap, checked
// against rdb.
std::vector<uint64_t> ExpectSqlSameAtEveryThreadCap(Database& db,
                                                    const std::string& sql) {
  SCOPED_TRACE(sql);
  const Query q = Engine(&db).Parse(sql);
  auto ground = [&](int threads, QueryTrace* trace) {
    EngineOptions opts;
    opts.enumerate.threads = threads;
    Engine engine(&db, opts);
    return engine.EvaluateFlat(q, nullptr, trace).rep;
  };
  return ExpectSameAtEveryThreadCap(ground, Engine(&db).ExecuteRdb(q).relation);
}

TEST(Ground, ParallelBuildIsByteIdentical) {
  // A chain whose root has 8000 candidate rows: it splits at every cap
  // above 1 (into 4, 6 and 7 morsels at caps 2, 3 and 8).
  auto chain = MakeKeyForeignKeyChain(8000, 16000, 24000, 1).db;
  const std::vector<uint64_t> split = ExpectSqlSameAtEveryThreadCap(
      *chain, std::string("SELECT *") + testing_util::kChainJoin);
  EXPECT_EQ(split[0], 1u);
  for (size_t i = 1; i < split.size(); ++i) EXPECT_GT(split[i], 1u);

  // Constant predicates: no order of a customer past 2000 survives, so
  // the morsels over those customers come back empty; then nothing
  // survives at all.
  const std::vector<uint64_t> partly = ExpectSqlSameAtEveryThreadCap(
      *chain,
      std::string("SELECT *") + testing_util::kChainJoin + " AND o_ck <= 2000");
  EXPECT_GT(partly.back(), 1u);
  ExpectSqlSameAtEveryThreadCap(
      *chain,
      std::string("SELECT *") + testing_util::kChainJoin + " AND qty > 1000");

  // A star S(sa, sb) |x| T(tb, tc) on b whose root has 32 values, each
  // with 64 rows per side: morsels cut between values, never inside one.
  Database star;
  const RelId s = star.CreateRelation("S", {"sa", "sb"});
  const RelId t = star.CreateRelation("T", {"tb", "tc"});
  for (int64_t i = 1; i <= 2048; ++i) {
    star.Insert(s, {i, i % 32});
    star.Insert(t, {(i * 7) % 32, i});
  }
  const std::vector<uint64_t> star_morsels =
      ExpectSqlSameAtEveryThreadCap(star, "SELECT * FROM S, T WHERE sb = tb");
  EXPECT_GT(star_morsels.back(), 1u);

  // A two-root forest, R x P: the first root splits, the second is built
  // after it in one piece.
  Relation r({0});
  Relation p({1});
  Relation product({0, 1});
  for (Value i = 1; i <= 4096; ++i) {
    r.AddTuple({i});
    for (Value j = 1; j <= 3; ++j) product.AddTuple({i, j});
  }
  for (Value j = 1; j <= 3; ++j) p.AddTuple({j});
  FTree forest;
  const int nr = forest.NewNode(AttrSet::Of({0}), AttrSet::Of({0}),
                                RelSet::Of({0}), RelSet::Of({0}));
  const int np = forest.NewNode(AttrSet::Of({1}), AttrSet::Of({1}),
                                RelSet::Of({1}), RelSet::Of({1}));
  forest.AttachRoot(nr);
  forest.AttachRoot(np);
  const std::vector<uint64_t> forest_morsels = ExpectSameAtEveryThreadCap(
      [&](int threads, QueryTrace* trace) {
        return GroundQuery(forest, {&r, &p}, {}, trace, {}, threads);
      },
      product);
  EXPECT_GT(forest_morsels.back(), 1u);

  // One root value holds almost every row: its block cannot be split.
  Relation skew({0, 1});
  for (Value i = 1; i <= 4000; ++i) skew.AddTuple({1, i});
  for (Value i = 2; i <= 9; ++i) skew.AddTuple({i, i});
  for (uint64_t m : ExpectSameAtEveryThreadCap(
           [&](int threads, QueryTrace* trace) {
             return GroundQuery(PathFTree({0, 1}, 0), {&skew}, {}, trace, {},
                                threads);
           },
           skew)) {
    EXPECT_EQ(m, 1u);
  }
}

// ---- The run scan and the leaf commit --------------------------------------

// T(a, b, c) and U(ub, d): runs of a, and of b within each a, cycle through
// 1, 8, 9 and 100 rows, on both sides of the walk's eight-row linear scan
// (a run of 9 or 100 gallops). Values reach INT64_MIN and INT64_MAX in
// every column, so the run that ends at the largest Value is exercised at
// an inner node, a leapfrog node and a leaf. T has enough rows for its
// root to split at every cap above 1.
class GroundRunScanTest : public ::testing::Test {
 protected:
  static constexpr Value kMin = std::numeric_limits<Value>::min();
  static constexpr Value kMax = std::numeric_limits<Value>::max();

  void SetUp() override {
    t_ = db_.CreateRelation("T", {"a", "b", "c"});
    u_ = db_.CreateRelation("U", {"ub", "d"});
    constexpr size_t kRuns[] = {1, 8, 9, 100};
    std::vector<Value> as = {kMin, kMin + 1};
    for (Value a = 1; a <= 76; ++a) as.push_back(a * 1000);
    as.push_back(kMax - 1);
    as.push_back(kMax);
    for (size_t i = 0; i < as.size(); ++i) {
      const size_t rows = kRuns[i % 4];
      const size_t b_run = kRuns[(i / 4) % 4];
      const Value nb = static_cast<Value>((rows - 1) / b_run);
      for (size_t k = 0; k < rows; ++k) {
        const Value j = static_cast<Value>(k / b_run);
        // Some a's start their b's at INT64_MIN, others end them at
        // INT64_MAX; the c's of a run of a reach both extremes.
        const Value b = i % 3 == 0 ? kMin + j : i % 3 == 1 ? kMax - nb + j : j;
        const Value c = k == 0 ? kMin
                        : k + 1 == rows ? kMax
                                        : static_cast<Value>(k);
        db_.Insert(t_, {as[i], b, c});
      }
    }
    // U: 15 of T's b values, both extremes among them, with 1, 2 or 9 d's
    // each; T's other b values find no partner at the leapfrog node.
    std::vector<Value> ubs = {kMin, kMin + 1, 0, 1, 2, 4, 5, 6, 7, 11, 12, 50,
                              kMax - 2, kMax - 1, kMax};
    for (size_t i = 0; i < ubs.size(); ++i) {
      const size_t n = i % 3 == 0 ? 1 : i % 3 == 1 ? 2 : 9;
      for (size_t k = 0; k < n; ++k) {
        const Value d = k == 0       ? kMin
                        : k + 1 == n ? kMax
                                     : static_cast<Value>(k);
        db_.Insert(u_, {ubs[i], d});
      }
    }
  }

  AttrId A(const char* name) const { return db_.Attr(name); }
  const Relation& T() const { return db_.relation(t_); }
  const Relation& U() const { return db_.relation(u_); }

  // One f-tree node for the class `attrs`, covered by `cover`.
  static int Node(FTree& tree, std::initializer_list<AttrId> attrs,
                  std::initializer_list<AttrId> cover) {
    return tree.NewNode(AttrSet::Of(attrs), AttrSet::Of(attrs),
                        RelSet::Of(cover), RelSet::Of(cover));
  }

  // The rdb result of T |x| U on b = ub under `preds`.
  Relation JoinByRdb(const std::vector<ConstPred>& preds) {
    Query q;
    q.rels = {t_, u_};
    q.equalities = {{A("b"), A("ub")}};
    q.const_preds = preds;
    return Engine(&db_).ExecuteRdb(q).relation;
  }

  Database db_;
  RelId t_ = 0, u_ = 0;
};

TEST_F(GroundRunScanTest, SingleCoverPathMatchesEveryThreadCap) {
  // a -> b -> c over T alone: two single-cover inner nodes and a leaf.
  const FTree path = PathFTree(T().schema(), 0);
  const std::vector<uint64_t> morsels = ExpectSameAtEveryThreadCap(
      [&](int threads, QueryTrace* trace) {
        return GroundQuery(path, {&T()}, {}, trace, {}, threads);
      },
      T());
  EXPECT_GT(morsels.back(), 1u);
}

TEST_F(GroundRunScanTest, LeapfrogNodeWithSingleCoverLeavesMatchesRdb) {
  // a{T} -> b{T,U} -> (c{T}, d{U}): U is not narrowed by a, so every a
  // seeks the whole of U. Under the predicates some (a, b) ranges of c and
  // some b ranges of d come back empty: the b is dropped, and an a whose
  // every b is dropped goes with it.
  FTree tree;
  const int na = Node(tree, {A("a")}, {0});
  const int nb = Node(tree, {A("b"), A("ub")}, {0, 1});
  const int nc = Node(tree, {A("c")}, {0});
  const int nd = Node(tree, {A("d")}, {1});
  tree.AttachRoot(na);
  tree.AttachChild(na, nb);
  tree.AttachChild(nb, nc);
  tree.AttachChild(nb, nd);
  const std::vector<std::vector<ConstPred>> cases = {
      {},
      {ConstPred{A("c"), CmpOp::kGe, 5}},
      {ConstPred{A("d"), CmpOp::kGt, 1}, ConstPred{A("c"), CmpOp::kLt, 50}},
      {ConstPred{A("d"), CmpOp::kEq, 3}},
  };
  const size_t full = JoinByRdb({}).size();
  for (const std::vector<ConstPred>& preds : cases) {
    SCOPED_TRACE("predicates: " + std::to_string(preds.size()));
    const Relation expected = JoinByRdb(preds);
    EXPECT_GT(expected.size(), 0u);
    if (!preds.empty()) {
      EXPECT_LT(expected.size(), full);
    }
    ExpectSameAtEveryThreadCap(
        [&](int threads, QueryTrace* trace) {
          return GroundQuery(tree, {&T(), &U()}, preds, trace, {}, threads);
        },
        expected);
  }
}

TEST_F(GroundRunScanTest, TwoRootForestMatchesEveryThreadCap) {
  // a -> b -> c over T beside ub -> d over U: the first root splits, the
  // second is built after it on the caller, its leaves committed one by
  // one.
  FTree forest;
  const int na = Node(forest, {A("a")}, {0});
  const int nb = Node(forest, {A("b")}, {0});
  const int nc = Node(forest, {A("c")}, {0});
  const int nu = Node(forest, {A("ub")}, {1});
  const int nd = Node(forest, {A("d")}, {1});
  forest.AttachRoot(na);
  forest.AttachChild(na, nb);
  forest.AttachChild(nb, nc);
  forest.AttachRoot(nu);
  forest.AttachChild(nu, nd);
  Relation product({A("a"), A("b"), A("c"), A("ub"), A("d")});
  for (size_t i = 0; i < T().size(); ++i) {
    for (size_t j = 0; j < U().size(); ++j) {
      product.AddTuple({T().At(i, 0), T().At(i, 1), T().At(i, 2), U().At(j, 0),
                        U().At(j, 1)});
    }
  }
  const std::vector<uint64_t> morsels = ExpectSameAtEveryThreadCap(
      [&](int threads, QueryTrace* trace) {
        return GroundQuery(forest, {&T(), &U()}, {}, trace, {}, threads);
      },
      product);
  EXPECT_GT(morsels.back(), 1u);
}

}  // namespace
}  // namespace fdb
