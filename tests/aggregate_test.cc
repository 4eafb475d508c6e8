#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/ops.h"
#include "opt/ftree_search.h"
#include "rdb/rdb.h"
#include "storage/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

// Reference aggregates by enumeration.
struct Ref {
  double count = 0, sum = 0;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();
  std::set<Value> distinct;
};

Ref Enumerated(const FRep& rep, AttrId attr) {
  Ref ref;
  TupleEnumerator en(rep);
  while (en.Next()) {
    Value v = en.ValueOf(attr);
    ref.count += 1;
    ref.sum += static_cast<double>(v);
    ref.min = std::min(ref.min, v);
    ref.max = std::max(ref.max, v);
    ref.distinct.insert(v);
  }
  return ref;
}

TEST(Aggregate, SingleRelation) {
  Relation r = MakeRel({0, 1}, {{1, 10}, {1, 20}, {2, 30}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_EQ(Count(rep), 3.0);
  EXPECT_EQ(Sum(rep, 1), 60.0);
  EXPECT_EQ(Sum(rep, 0), 4.0);
  EXPECT_EQ(Min(rep, 1), 10);
  EXPECT_EQ(Max(rep, 1), 30);
  EXPECT_NEAR(Avg(rep, 1), 20.0, 1e-9);
  EXPECT_EQ(CountDistinct(rep, 0), 2u);
  EXPECT_EQ(CountDistinct(rep, 1), 3u);
}

TEST(Aggregate, SumDistributesOverProduct) {
  // R(A) x S(B): SUM(A) = sum_A(R) * |S|, computed without expanding the
  // product.
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1}, {{10}, {20}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  EXPECT_EQ(Count(prod), 6.0);
  EXPECT_EQ(Sum(prod, 0), 6.0 * 2.0 / 1.0);  // (1+2+3) * |S|
  EXPECT_EQ(Sum(prod, 1), 30.0 * 3.0 / 1.0); // (10+20) * |R|
  EXPECT_EQ(Min(prod, 1), 10);
  EXPECT_EQ(Max(prod, 0), 3);
}

TEST(Aggregate, NestedFactorisation) {
  // Grouped structure: A -> B; sums must weight B-sums by group sizes.
  Relation r = MakeRel({0, 1}, {{1, 5}, {1, 7}, {2, 9}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_EQ(Sum(rep, 1), 21.0);
  EXPECT_EQ(Sum(rep, 0), 1.0 + 1.0 + 2.0);
}

TEST(Aggregate, EmptyRelation) {
  FRep rep{PathFTree({0}, 0)};
  EXPECT_EQ(Count(rep), 0.0);
  EXPECT_EQ(Sum(rep, 0), 0.0);
  EXPECT_EQ(CountDistinct(rep, 0), 0u);
  EXPECT_THROW(Min(rep, 0), FdbError);
  EXPECT_THROW(Max(rep, 0), FdbError);
  EXPECT_THROW(Avg(rep, 0), FdbError);
}

TEST(Aggregate, NullaryRelation) {
  // The nullary relation <> (non-empty rep over the empty forest): COUNT
  // is 1; attribute aggregates throw because no attribute labels a node.
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  EXPECT_EQ(Count(rep), 1.0);
  EXPECT_EQ(rep.CountTuplesExact(), 1u);
  EXPECT_THROW(Sum(rep, 0), FdbError);
  EXPECT_THROW(Avg(rep, 0), FdbError);
  EXPECT_THROW(Min(rep, 0), FdbError);
  EXPECT_THROW(Max(rep, 0), FdbError);
  EXPECT_THROW(CountDistinct(rep, 0), FdbError);
}

// Product of `n` single-attribute relations with `vals` distinct values
// each: an adversarial rep with vals^n tuples in O(n * vals) space.
FRep BigProduct(int n, Value vals) {
  Relation r({0});
  for (Value v = 1; v <= vals; ++v) r.AddTuple({v});
  FRep rep = GroundRelation(r, 0);
  for (AttrId a = 1; a < static_cast<AttrId>(n); ++a) {
    Relation s({a});
    for (Value v = 1; v <= vals; ++v) s.AddTuple({v});
    rep = Product(rep, GroundRelation(s, static_cast<int>(a)));
  }
  return rep;
}

TEST(Aggregate, CountStaysExactPastDoublePrecision) {
  // 40^10 = 10485760000000000 > 2^53: the uint64 DP keeps it exact where
  // double accumulation could round.
  FRep rep = BigProduct(10, 40);
  EXPECT_EQ(rep.CountTuplesExact(), 10485760000000000ull);
  bool exact = false;
  EXPECT_EQ(rep.CountTuples(&exact), 1.048576e16);
  EXPECT_TRUE(exact);  // this count round-trips through double
  // SUM(attr0) = (1+...+40) * 40^9 — still a doubles-exact product here.
  EXPECT_EQ(Sum(rep, 0), 820.0 * 262144000000000.0);
}

TEST(Aggregate, CountSaturationIsDetected) {
  // 300^8 = 6.561e19 > 2^64: the count saturates uint64. CountTuples
  // flags the approximation, CountTuplesExact and the weighted SUM/AVG
  // DP throw instead of returning subtly wrong values.
  FRep rep = BigProduct(8, 300);
  bool exact = true;
  double approx = rep.CountTuples(&exact);
  EXPECT_FALSE(exact);
  EXPECT_NEAR(approx, 6.561e19, 1e6);
  EXPECT_THROW(rep.CountTuplesExact(), FdbError);
  EXPECT_THROW(Sum(rep, 0), FdbError);
  EXPECT_THROW(Avg(rep, 0), FdbError);
  // MIN/MAX/COUNT DISTINCT need no counting and keep working.
  EXPECT_EQ(Min(rep, 0), 1);
  EXPECT_EQ(Max(rep, 0), 300);
  EXPECT_EQ(CountDistinct(rep, 0), 300u);
}

TEST(Aggregate, UnknownAttributeThrows) {
  Relation r = MakeRel({0}, {{1}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_THROW(Sum(rep, 42), FdbError);
  EXPECT_THROW(Min(rep, 42), FdbError);
}

TEST(Aggregate, ClassAttributesShareValues) {
  // Class {A,B}: SUM(A) = SUM(B).
  Relation r = MakeRel({0, 1}, {{3, 3}, {4, 4}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r});
  EXPECT_EQ(Sum(rep, 0), 7.0);
  EXPECT_EQ(Sum(rep, 1), 7.0);
}

TEST(Aggregate, MatchesEnumerationOnGrocery) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  for (const char* name : {"oid", "o_item", "dispatcher"}) {
    AttrId a = db->Attr(name);
    Ref ref = Enumerated(res.rep, a);
    EXPECT_EQ(Count(res.rep), ref.count);
    EXPECT_NEAR(Sum(res.rep, a), ref.sum, 1e-9) << name;
    EXPECT_EQ(Min(res.rep, a), ref.min) << name;
    EXPECT_EQ(Max(res.rep, a), ref.max) << name;
    EXPECT_EQ(CountDistinct(res.rep, a), ref.distinct.size()) << name;
  }
}

// A hand-built rep with every shape a pass over the union DAG must get
// right, over the forest A -> {B -> C, E} plus a second root D. E and D
// are invisible, so the visible stream masks out a child slot of A and
// the whole D root. Union ids, in build order:
//   0  abandoned stub (node C)
//   1  B {10}      -> C: u2
//   2  C {5, 6}       shared: id below u3's and above u1's
//   3  B {20, 30}  -> C: u2, u2
//   4  C {99}         committed, never referenced (SelectConst's leftover)
//   5  E {100}
//   6  E {200, 300}
//   7  A {1, 2}    -> (B, E): (u1, u5), (u3, u6)
//   8  D {7, 8, 9}
//   9  B {50}      -> C: u2   committed, never referenced
FRep SharedAndUnreachableRep() {
  FTree t;
  const int a = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}),
                          RelSet::Of({0, 2}), RelSet::Of({0, 2}));
  const int b = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}),
                          RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  const int c = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}),
                          RelSet::Of({1}), RelSet::Of({1}));
  const int e = t.NewNode(AttrSet::Of({3}), AttrSet{}, RelSet::Of({2}),
                          RelSet::Of({2}));
  const int d = t.NewNode(AttrSet::Of({4}), AttrSet{}, RelSet::Of({3}),
                          RelSet::Of({3}));
  t.AttachRoot(a);
  t.AttachChild(a, b);
  t.AttachChild(a, e);
  t.AttachChild(b, c);
  t.AttachRoot(d);
  FRep rep{t};
  auto leaf = [&](int node, std::vector<Value> vals) {
    UnionBuilder u = rep.StartUnion(node);
    u.AddValues(vals.data(), vals.size());
    return u.Finish();
  };
  rep.StartUnion(c).Abandon();
  UnionBuilder b1 = rep.StartUnion(b);
  const uint32_t shared = leaf(c, {5, 6});
  b1.AddValue(10);
  b1.AddChild(shared);
  const uint32_t ub1 = b1.Finish();
  UnionBuilder b2 = rep.StartUnion(b);
  b2.AddValue(20);
  b2.AddChild(shared);
  b2.AddValue(30);
  b2.AddChild(shared);
  const uint32_t ub2 = b2.Finish();
  leaf(c, {99});
  const uint32_t ue1 = leaf(e, {100});
  const uint32_t ue2 = leaf(e, {200, 300});
  UnionBuilder ua = rep.StartUnion(a);
  ua.AddValue(1);
  ua.AddChild(ub1);
  ua.AddChild(ue1);
  ua.AddValue(2);
  ua.AddChild(ub2);
  ua.AddChild(ue2);
  rep.roots().push_back(ua.Finish());
  rep.roots().push_back(leaf(d, {7, 8, 9}));
  UnionBuilder orphan = rep.StartUnion(b);
  orphan.AddValue(50);
  orphan.AddChild(shared);
  orphan.Finish();
  rep.MarkNonEmpty();
  rep.Validate();
  return rep;
}

size_t StreamLength(const FRep& rep, bool visible_only) {
  size_t n = 0;
  for (TupleEnumerator en(rep, visible_only); en.Next();) ++n;
  return n;
}

TEST(Aggregate, SweepHandlesSharedAndUnreachableUnions) {
  const FRep rep = SharedAndUnreachableRep();
  ASSERT_EQ(rep.NumUnions(), 10u);
  ASSERT_EQ(rep.roots(), (std::vector<uint32_t>{7, 8}));
  const std::vector<uint32_t> unreachable = {0, 4, 9};

  // Counts against brute-force enumeration: 10 tuples in the A tree times
  // 3 in D; the visible stream drops E and D, leaving 6.
  const size_t n = StreamLength(rep, false);
  ASSERT_EQ(n, 30u);
  bool exact = false;
  EXPECT_EQ(rep.CountTuples(&exact), static_cast<double>(n));
  EXPECT_TRUE(exact);
  EXPECT_EQ(rep.CountTuplesExact(), n);
  EXPECT_EQ(Count(rep), static_cast<double>(n));

  const std::vector<double> all = rep.SubtreeTupleCounts();
  EXPECT_EQ(all[2], 2.0);
  EXPECT_EQ(all[3], 4.0);
  EXPECT_EQ(all[7], 10.0);
  EXPECT_EQ(all[8], 3.0);
  EXPECT_EQ(all[7] * all[8], static_cast<double>(n));
  const std::vector<char> keep = VisibleKeepMask(rep.tree());
  const std::vector<double> vis = rep.SubtreeTupleCounts(&keep);
  EXPECT_EQ(vis[7], static_cast<double>(StreamLength(rep, true)));
  EXPECT_EQ(vis[7], 6.0);
  for (uint32_t id : {5u, 6u, 8u}) {
    EXPECT_EQ(vis[id], 0.0) << "union " << id << " is below a masked node";
  }
  for (uint32_t id : unreachable) {
    EXPECT_EQ(all[id], 0.0) << "union " << id;
    EXPECT_EQ(vis[id], 0.0) << "union " << id;
  }

  // Unions 1, 2, 3, 5, 6, 7 and 8, the shared one once; only A, B and C
  // are visible.
  EXPECT_EQ(rep.NumValues(), 13u);
  EXPECT_EQ(rep.NumSingletons(), 7u);

  for (AttrId a = 0; a < 5; ++a) {
    const Ref ref = Enumerated(rep, a);
    EXPECT_EQ(Sum(rep, a), ref.sum) << "attr " << a;
    EXPECT_EQ(Avg(rep, a), ref.sum / ref.count) << "attr " << a;
    EXPECT_EQ(Min(rep, a), ref.min) << "attr " << a;
    EXPECT_EQ(Max(rep, a), ref.max) << "attr " << a;
    EXPECT_EQ(CountDistinct(rep, a), ref.distinct.size()) << "attr " << a;
  }

  // Grouped aggregates against enumerate-then-hash, over every attribute
  // set that forces a different restructure (none, through the shared
  // union, into the second root).
  Relation flat(rep.tree().AllAttrs().ToVector());
  for (TupleEnumerator en(rep); en.Next();) {
    std::vector<Value> row;
    for (AttrId a : flat.schema()) row.push_back(en.ValueOf(a));
    flat.AddTuple(row);
  }
  for (const AttrSet group :
       {AttrSet{}, AttrSet::Of({0}), AttrSet::Of({1}), AttrSet::Of({2}),
        AttrSet::Of({4}), AttrSet::Of({1, 4}), AttrSet::Of({2, 3})}) {
    for (AttrId a : {2, 3, 4}) {
      const std::vector<AggSpec> specs = {{AggFn::kCount, 0},
                                          {AggFn::kSum, a},
                                          {AggFn::kAvg, a},
                                          {AggFn::kMin, a},
                                          {AggFn::kMax, a}};
      GroupedTable got = GroupByAggregate(rep, group, specs).Materialize();
      got.SortByKey();
      GroupedTable want = HashGroupBy(flat, group, specs);
      want.SortByKey();
      ASSERT_EQ(got.num_rows, want.num_rows) << group.ToString();
      EXPECT_EQ(got.keys, want.keys) << group.ToString();
      EXPECT_EQ(got.aggs, want.aggs) << group.ToString() << " attr " << a;
    }
  }
}

class AggregateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregateProperty, MatchesEnumerationOnRandomJoins) {
  WorkloadSpec spec;
  spec.num_rels = 3;
  spec.num_attrs = 7;
  spec.tuples_per_rel = 30;
  spec.domain = 6;
  spec.num_equalities = 2;
  spec.seed = GetParam();
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  if (rep.empty()) GTEST_SKIP();
  for (AttrId a : info.all_attrs) {
    Ref ref = Enumerated(rep, a);
    EXPECT_NEAR(Sum(rep, a), ref.sum, 1e-6) << "attr " << a;
    EXPECT_EQ(Min(rep, a), ref.min) << "attr " << a;
    EXPECT_EQ(Max(rep, a), ref.max) << "attr " << a;
    EXPECT_EQ(CountDistinct(rep, a), ref.distinct.size()) << "attr " << a;
    EXPECT_EQ(Count(rep), ref.count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fdb
