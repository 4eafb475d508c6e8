#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/serialize.h"
#include "storage/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

FRep RoundTrip(const FRep& rep) {
  std::ostringstream out;
  WriteFRep(out, rep);
  std::istringstream in(out.str());
  return ReadFRep(in);
}

void ExpectSame(const FRep& a, const FRep& b) {
  EXPECT_EQ(a.empty(), b.empty());
  EXPECT_EQ(a.tree().CanonicalKey(), b.tree().CanonicalKey());
  EXPECT_EQ(a.NumSingletons(), b.NumSingletons());
  EXPECT_EQ(a.CountTuples(), b.CountTuples());
  if (!a.empty()) {
    EXPECT_TRUE(MaterializeVisible(a) == MaterializeVisible(b));
  }
}

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(Serialize, RoundTripSimple) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  ExpectSame(rep, RoundTrip(rep));
}

TEST(Serialize, RoundTripEmpty) {
  FRep rep{PathFTree({0, 1}, 0)};
  FRep back = RoundTrip(rep);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.tree().CanonicalKey(), rep.tree().CanonicalKey());
}

TEST(Serialize, RoundTripNullary) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  FRep back = RoundTrip(rep);
  EXPECT_FALSE(back.empty());
  EXPECT_EQ(back.CountTuples(), 1.0);
}

TEST(Serialize, RoundTripAfterOperators) {
  // A representation with dead tree nodes (merge kills one) and a constant
  // node must survive the round trip.
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1, 2}, {{1, 7}, {2, 8}, {3, 9}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep joined = Merge(prod, 0, 1);
  FRep selected = SelectConst(joined, 2, CmpOp::kNe, 8);
  ExpectSame(selected, RoundTrip(selected));
}

TEST(Serialize, RoundTripGrocery) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  ExpectSame(res.rep, RoundTrip(res.rep));
}

TEST(Serialize, RoundTripRandomWorkloads) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    WorkloadSpec spec;
    spec.num_rels = 3;
    spec.num_attrs = 7;
    spec.tuples_per_rel = 30;
    spec.domain = 6;
    spec.num_equalities = 2;
    spec.seed = seed;
    GeneratedWorkload w = GenerateWorkload(spec);
    std::vector<const Relation*> rels;
    for (const Relation& rel : w.relations) rels.push_back(&rel);
    QueryInfo info = AnalyzeQuery(w.catalog, w.query);
    EdgeCoverSolver solver;
    FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
    ExpectSame(rep, RoundTrip(rep));
  }
}

std::string Bytes(const FRep& rep) {
  std::ostringstream out;
  WriteFRep(out, rep);
  return out.str();
}

// The reader appends each node to its parent's children in node-record
// order, so the writer must emit the records in pre-order: a child list
// that is not in ascending id order would otherwise read back reordered,
// with its unions bound to the wrong slots.
void ExpectExactRoundTrip(const FRep& rep) {
  const FRep back = RoundTrip(rep);
  for (int n : rep.tree().AliveNodes()) {
    EXPECT_EQ(back.tree().node(n).children, rep.tree().node(n).children)
        << "node " << n;
  }
  EXPECT_EQ(back.tree().roots(), rep.tree().roots());
  EXPECT_EQ(Bytes(back), Bytes(rep));
  ExpectSame(rep, back);
}

TEST(Serialize, RoundTripKeepsChildOrder) {
  // A -> B -> C over R(a, b), S(b, c). Swapping A and B gives
  // B -> {C, A}: A, of a lower id than C, now follows it.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 1}});
  Relation s = MakeRel({1, 2}, {{1, 5}, {2, 6}, {2, 7}});
  FTree t;
  const int a = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                          RelSet::Of({0}));
  const int b = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}),
                          RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  const int c = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({1}),
                          RelSet::Of({1}));
  t.AttachRoot(a);
  t.AttachChild(a, b);
  t.AttachChild(b, c);
  const FRep swapped = Swap(GroundQuery(t, {&r, &s}), 0, 1);
  ASSERT_EQ(swapped.tree().node(b).children, (std::vector<int>{c, a}));
  ExpectExactRoundTrip(swapped);
}

TEST(Serialize, RoundTripProjectedRandomQuery) {
  // Seed 11 of the projection oracle (tests/project_oracle_test.cc,
  // RandomQueriesAndKeepSets): one of its projections has a node whose
  // children, [3, 0], are not in ascending id order.
  const uint64_t seed = 11;
  Rng rng(seed * 31 + 7);
  WorkloadSpec spec;
  spec.num_rels = static_cast<int>(rng.Uniform(2, 5));
  spec.num_attrs = static_cast<int>(rng.Uniform(spec.num_rels + 1, 10));
  spec.tuples_per_rel = static_cast<size_t>(rng.Uniform(10, 40));
  spec.domain = rng.Uniform(3, 8);
  spec.dist =
      rng.Uniform(0, 2) == 0 ? Distribution::kZipf : Distribution::kUniform;
  spec.num_equalities = static_cast<int>(rng.Uniform(1, spec.num_rels));
  spec.seed = seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& rel : w.relations) rels.push_back(&rel);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  bool unordered = false;
  for (int round = 0; round < 3; ++round) {
    if (round == 2 && rng.Uniform(0, 1) == 0) {
      std::vector<AttrId> attrs;
      for (AttrId at : rep.tree().AllAttrs()) attrs.push_back(at);
      const AttrId at = attrs[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(attrs.size()) - 1))];
      rep = SelectConst(rep, at,
                        rng.Uniform(0, 1) == 0 ? CmpOp::kEq : CmpOp::kLe,
                        rng.Uniform(1, spec.domain));
    } else if (round > 0) {
      const std::vector<int> alive = rep.tree().AliveNodes();
      const int b = alive[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(alive.size()) - 1))];
      const int a = rep.tree().node(b).parent;
      if (a != -1) {
        rep = Swap(rep, rep.tree().node(a).attrs.Min(),
                   rep.tree().node(b).attrs.Min());
      }
    }
    AttrSet keep;
    for (AttrId at : rep.tree().AllAttrs()) {
      if (rng.Uniform(0, 2) != 0) keep.Add(at);
    }
    const FRep projected = Project(rep, keep);
    for (int n : projected.tree().AliveNodes()) {
      const std::vector<int>& kids = projected.tree().node(n).children;
      unordered = unordered || !std::is_sorted(kids.begin(), kids.end());
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectExactRoundTrip(projected);
  }
  EXPECT_TRUE(unordered);
}

TEST(Serialize, FileRoundTrip) {
  Relation r = MakeRel({0, 1}, {{5, 6}});
  FRep rep = GroundRelation(r, 0);
  const std::string path = "/tmp/fdb_serialize_test.frep";
  WriteFRepFile(path, rep);
  ExpectSame(rep, ReadFRepFile(path));
}

TEST(Serialize, RejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ReadFRep(in);
  };
  EXPECT_THROW(parse(""), FdbError);
  EXPECT_THROW(parse("bogus header\nend\n"), FdbError);
  EXPECT_THROW(parse("fdb-frep 1\nnonempty\n"), FdbError);  // missing end
  EXPECT_THROW(parse("fdb-frep 1\nwhatisthis 3\nend\n"), FdbError);
  // Dangling child reference.
  EXPECT_THROW(
      parse("fdb-frep 1\n"
            "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n"
            "troot 0\nnonempty\n"
            "union 0 node=0 values=1 children=5\n"
            "uroot 0\nend\n"),
      FdbError);
  // Inconsistent representation (child count mismatch) must fail Validate.
  EXPECT_THROW(
      parse("fdb-frep 1\n"
            "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n"
            "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 parent=0\n"
            "troot 0\nnonempty\n"
            "union 0 node=0 values=1 children=\n"
            "uroot 0\nend\n"),
      FdbError);
}

// Fuzz-found crash classes (fuzz/corpus/frep_read/): each of these inputs
// used to reach an abort, undefined behaviour or an unbounded allocation
// instead of the header's promised FdbError.
TEST(Serialize, RejectsFuzzFoundCrashClasses) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ReadFRep(in);
  };
  const std::string node0 =
      "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n";
  // Hex with trailing garbage was silently truncated ("1zz" -> 0x1).
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 0 attrs=1zz visible=1 cover=1 dep=1 const=0 "
                     "parent=-1\ntroot 0\nempty\nend\n"),
               FdbError);
  // More than 16 hex digits overflows uint64; a sign must not negate-wrap.
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 0 attrs=ffffffffffffffffff visible=1 cover=1 "
                     "dep=1 const=0 parent=-1\ntroot 0\nempty\nend\n"),
               FdbError);
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 0 attrs=-1 visible=1 cover=1 dep=1 const=0 "
                     "parent=-1\ntroot 0\nempty\nend\n"),
               FdbError);
  // A huge node id must be refused up front, not drive the pool rebuild
  // into a multi-gigabyte allocation before validation runs.
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 999999999 attrs=1 visible=1 cover=1 dep=1 "
                     "const=0 parent=-1\ntroot 999999999\nempty\nend\n"),
               FdbError);
  // Out-of-pool troot dereferenced FTree::node() out of bounds.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 + "troot 7\nempty\nend\n"),
               FdbError);
  // Out-of-pool union node binding dereferenced the tree during Validate.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 +
                     "troot 0\nnonempty\n"
                     "union 0 node=9 values=1 children=\nuroot 0\nend\n"),
               FdbError);
  // Duplicate node records doubled children lists; duplicate troots
  // duplicated roots.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 + node0 + "troot 0\nempty\nend\n"),
               FdbError);
  EXPECT_THROW(
      parse("fdb-frep 1\n" + node0 + "troot 0\ntroot 0\nempty\nend\n"),
      FdbError);
  // A self-parent cycle passed the shallow tree Validate() and then hung
  // the CountTuples DP.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 +
                     "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 "
                     "parent=1\ntroot 0\nempty\nend\n"),
               FdbError);
  // Parent reference to a node the file never declares.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 +
                     "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 "
                     "parent=30000\ntroot 0\nempty\nend\n"),
               FdbError);
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  Relation r = MakeRel({0}, {{1}, {2}});
  FRep rep = GroundRelation(r, 0);
  std::ostringstream out;
  WriteFRep(out, rep);
  std::string text = "# compiled database\n\n" + out.str();
  std::istringstream in(text);
  ExpectSame(rep, ReadFRep(in));
}

}  // namespace
}  // namespace fdb
