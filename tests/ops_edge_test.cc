// Edge cases and composed-operator sequences that the main operator tests
// do not cover: forests with several roots, cascaded emptiness, repeated
// selections on merged classes, operator chains, and failure injection.
#include <gtest/gtest.h>

#include <sstream>

#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/fplan.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/serialize.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::SameRelation;

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(OpsEdge, ProductOfThreeForests) {
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}});
  Relation u = MakeRel({2}, {{7}, {8}, {9}});
  FRep p = Product(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                   GroundRelation(u, 2));
  p.Validate();
  EXPECT_EQ(p.tree().roots().size(), 3u);
  EXPECT_EQ(p.CountTuples(), 6.0);
  EXPECT_EQ(p.NumSingletons(), 6u);
}

TEST(OpsEdge, SwapRootWithinForest) {
  // Swap inside one tree of a multi-root forest; the other root must be
  // untouched.
  Relation r = MakeRel({0, 1}, {{1, 4}, {2, 5}});
  Relation s = MakeRel({2}, {{9}});
  FRep p = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep sw = Swap(p, 0, 1);
  sw.Validate();
  EXPECT_EQ(sw.tree().roots().size(), 2u);
  Relation joined({0, 1, 2});
  joined.AddTuple({1, 4, 9});
  joined.AddTuple({2, 5, 9});
  EXPECT_TRUE(SameRelation(sw, joined));
}

TEST(OpsEdge, MergeCascadeEmptiesDeepBranch) {
  // Sibling merge under a grouping node where only one group survives, and
  // the survivor's other branches must be preserved intact.
  Relation r = MakeRel({0, 1, 2}, {{1, 3, 10}, {2, 4, 20}});   // A,B,X
  Relation s = MakeRel({3, 4}, {{1, 3}, {2, 5}});              // A',C
  FTree t;
  AttrSet ca = AttrSet::Of({0, 3});
  int na = t.NewNode(ca, ca, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nx = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nc = t.NewNode(AttrSet::Of({4}), AttrSet::Of({4}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(nb, nx);
  t.AttachChild(na, nc);
  FRep rep = GroundQuery(t, {&r, &s});
  // Selection B = C: A=1 has B=3,C=3 (keep); A=2 has B=4,C=5 (dies).
  FRep merged = Merge(rep, 1, 4);
  merged.Validate();
  EXPECT_EQ(merged.CountTuples(), 1.0);
  TupleEnumerator en(merged);
  ASSERT_TRUE(en.Next());
  EXPECT_EQ(en.ValueOf(2), 10);  // X of the surviving group intact
}

TEST(OpsEdge, AbsorbThenAbsorbOnSamePath) {
  // R(A,B,C): enforce A=B then A=C by two absorbs; equals the diagonal.
  Relation r = MakeRel({0, 1, 2}, {{1, 1, 1}, {1, 1, 2}, {2, 2, 2}, {3, 2, 3}});
  FRep rep = GroundRelation(r, 0);
  FRep once = Absorb(rep, 0, 1);
  FRep twice = Absorb(once, 0, 2);
  twice.Validate();
  EXPECT_EQ(twice.CountTuples(), 2.0);  // (1,1,1) and (2,2,2)
  int n = twice.tree().FindAttr(0);
  EXPECT_EQ(twice.tree().node(n).attrs, AttrSet::Of({0, 1, 2}));
}

TEST(OpsEdge, SelectOnMergedClassFiltersAllAttrs) {
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1}, {{2}, {3}, {4}});
  FRep joined = Merge(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                      0, 1);
  // The class {0,1} holds {2,3}; select on attr 1 must constrain attr 0.
  FRep sel = SelectConst(joined, 1, CmpOp::kGt, 2);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), 1.0);
  EXPECT_EQ(Min(sel, 0), 3);
}

TEST(OpsEdge, SelectConstEqualityOnRootOfForest) {
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}, {6}});
  FRep p = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep sel = SelectConst(p, 0, CmpOp::kEq, 2);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), 2.0);
  int n = sel.tree().FindAttr(0);
  EXPECT_TRUE(sel.tree().node(n).constant);
}

TEST(OpsEdge, ProjectAfterSwapKeepsSemantics) {
  Relation r = MakeRel({0, 1, 2}, {{1, 4, 7}, {1, 5, 8}, {2, 4, 9}});
  FRep rep = GroundRelation(r, 0);
  FRep sw = Swap(rep, 1, 2);       // regroup C above B
  FRep proj = Project(sw, AttrSet::Of({0, 2}));
  proj.Validate();
  Relation expect({0, 2});
  expect.AddTuple({1, 7});
  expect.AddTuple({1, 8});
  expect.AddTuple({2, 9});
  EXPECT_TRUE(SameRelation(proj, expect));
}

TEST(OpsEdge, NormalizeAfterProjectSplitsIndependentParts) {
  // R(A,B) x S(C): project away nothing; then project away B — A stays a
  // separate root from C.
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 6}});
  Relation s = MakeRel({2}, {{7}});
  FRep p = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep proj = Project(p, AttrSet::Of({0, 2}));
  proj.Validate();
  EXPECT_EQ(proj.tree().roots().size(), 2u);
  EXPECT_TRUE(proj.tree().IsNormalized());
}

TEST(OpsEdge, OperatorsOnEmptyRepresentations) {
  FRep empty{PathFTree({0, 1}, 0)};
  EXPECT_TRUE(Swap(empty, 0, 1).empty());
  EXPECT_TRUE(Absorb(empty, 0, 1).empty());
  EXPECT_TRUE(SelectConst(empty, 0, CmpOp::kEq, 3).empty());
  EXPECT_TRUE(Project(empty, AttrSet::Of({0})).empty());
  EXPECT_TRUE(Normalize(empty).empty());
}

TEST(OpsEdge, PreconditionViolationsThrow) {
  Relation r = MakeRel({0, 1}, {{1, 2}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_THROW(Swap(rep, 1, 0), FdbError);   // 0 is the parent, not child
  EXPECT_THROW(Swap(rep, 0, 42), FdbError);  // unknown attribute
  EXPECT_THROW(Merge(rep, 0, 1), FdbError);  // parent/child, not siblings
  EXPECT_THROW(SelectConst(rep, 42, CmpOp::kEq, 1), FdbError);
  EXPECT_THROW(PushUp(rep, 0), FdbError);    // root cannot be pushed up
}

TEST(OpsEdge, LongOperatorChainPreservesRelation) {
  // A realistic plan: ground, swap, merge, select, swap back, project.
  Relation r = MakeRel({0, 1}, {{1, 5}, {1, 6}, {2, 5}, {3, 7}});
  Relation s = MakeRel({2, 3}, {{5, 100}, {6, 200}, {7, 100}});
  FRep cur = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  cur = Swap(cur, 0, 1);           // B above A
  cur = Merge(cur, 1, 2);          // B = C
  cur = SelectConst(cur, 3, CmpOp::kEq, 100);
  cur = Project(cur, AttrSet::Of({0, 1}));
  cur.Validate();

  // Reference by brute force.
  Relation expect({0, 1});
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      if (r.At(i, 1) == s.At(j, 0) && s.At(j, 1) == 100) {
        expect.AddTuple({r.At(i, 0), r.At(i, 1)});
      }
    }
  }
  expect.SortLex();
  EXPECT_TRUE(SameRelation(cur, expect));
}

TEST(OpsEdge, MergeIdenticalSubtreesDoesNotShareState) {
  // After merging, mutating semantics via a further selection on one
  // branch must not leak into sibling copies (operators deep-copy).
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1, 2}, {{1, 5}, {2, 5}});
  FRep joined = Merge(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                      0, 1);
  FRep sel = SelectConst(joined, 2, CmpOp::kEq, 5);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), joined.CountTuples());
}

// ---------- The root list and shared unions ----------

// Every tuple of `rep` over all of its attributes, read by TupleEnumerator:
// the reference the operator results below are checked against.
Relation Enumerated(const FRep& rep) {
  std::vector<AttrId> schema;
  for (AttrId a : rep.tree().AllAttrs()) schema.push_back(a);
  Relation out(schema);
  TupleEnumerator en(rep);
  std::vector<Value> t(schema.size());
  while (en.Next()) {
    for (size_t c = 0; c < schema.size(); ++c) t[c] = en.ValueOf(schema[c]);
    out.AddTuple(t);
  }
  return out;
}

// The tuples of `r` on the columns of `keep`.
Relation ProjectRows(const Relation& r, AttrSet keep) {
  std::vector<AttrId> schema;
  std::vector<size_t> cols;
  for (AttrId a : r.schema()) {
    if (!keep.Contains(a)) continue;
    schema.push_back(a);
    cols.push_back(r.ColumnOf(a));
  }
  Relation out(schema);
  std::vector<Value> t(cols.size());
  for (size_t row = 0; row < r.size(); ++row) {
    for (size_t c = 0; c < cols.size(); ++c) t[c] = r.At(row, cols[c]);
    out.AddTuple(t);
  }
  return out;
}

// No committed union is unreachable: the unions with entries are exactly
// the ones WriteFRep writes (it writes the reachable unions, once each).
void ExpectNoCommittedOrphans(const FRep& rep) {
  size_t committed = 0;
  for (uint32_t id = 0; id < rep.NumUnions(); ++id) {
    if (rep.u(id).size() > 0) ++committed;
  }
  std::stringstream bytes;
  WriteFRep(bytes, rep);
  EXPECT_EQ(committed, ReadFRep(bytes).NumUnions());
}

TEST(OpsEdge, PushUpOfARootsChild) {
  // A root A with an independent child B: B becomes a root right after A.
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}, {6}});
  FTree t;
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  FRep rep = GroundQuery(t, {&r, &s});
  FRep up = PushUp(rep, 1);
  up.Validate();
  EXPECT_EQ(up.tree().roots(), (std::vector<int>{na, nb}));
  EXPECT_EQ(up.roots().size(), 2u);
  EXPECT_TRUE(SameRelation(up, Enumerated(rep)));
}

TEST(OpsEdge, MergeOfTwoRoots) {
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1}, {{2}, {3}, {4}});
  Relation u = MakeRel({2}, {{7}});
  FRep prod = Product(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                      GroundRelation(u, 2));
  FRep merged = Merge(prod, 0, 1);
  merged.Validate();
  EXPECT_EQ(merged.tree().roots().size(), 2u);
  Relation expect({0, 1, 2});
  expect.AddTuple({2, 2, 7});
  expect.AddTuple({3, 3, 7});
  EXPECT_TRUE(SameRelation(merged, expect));
  ExpectNoCommittedOrphans(merged);

  // Disjoint roots: the root list dies, and with it the whole output.
  Relation v = MakeRel({3}, {{9}});
  FRep none = Merge(Product(GroundRelation(r, 0), GroundRelation(v, 1)), 0, 3);
  none.Validate();
  EXPECT_TRUE(none.empty());
}

TEST(OpsEdge, ProjectRemovesRootLeaf) {
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}, {6}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep proj = Project(prod, AttrSet::Of({0}));
  proj.Validate();
  EXPECT_EQ(proj.tree().roots().size(), 1u);
  EXPECT_EQ(proj.roots().size(), 1u);
  EXPECT_TRUE(SameRelation(proj, r));
}

TEST(OpsEdge, SelectConstEmptiesOneRootOfAForest) {
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}, {6}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep sel = SelectConst(prod, 1, CmpOp::kGt, 6);
  sel.Validate();
  EXPECT_TRUE(sel.empty());
  EXPECT_TRUE(sel.roots().empty());
  ExpectNoCommittedOrphans(sel);
}

// A hand-built representation whose B-union is shared by both A-entries
// (the shape of group_aggregate_test's SharedSubtreesCollapseOnce): A has
// an independent child B (its own relation, so B can be pushed up) and a
// dependent child C.
//   A=1: B {1,2} (shared), C {1,3}
//   A=2: B {1,2} (shared), C {3}
FRep SharedUnionRep() {
  FTree t;
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({1}),
                     RelSet::Of({1}));
  int nc = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({0}),
                     RelSet::Of({0}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(na, nc);
  FRep rep{t};
  auto leaf = [&](int node, std::vector<Value> vals) {
    UnionBuilder u = rep.StartUnion(node);
    for (Value v : vals) u.AddValue(v);
    return u.Finish();
  };
  const uint32_t shared_b = leaf(nb, {1, 2});
  const uint32_t c1 = leaf(nc, {1, 3});
  const uint32_t c2 = leaf(nc, {3});
  UnionBuilder ua = rep.StartUnion(na);
  ua.AddValue(1);
  ua.AddChild(shared_b);
  ua.AddChild(c1);
  ua.AddValue(2);
  ua.AddChild(shared_b);
  ua.AddChild(c2);
  rep.roots().push_back(ua.Finish());
  rep.MarkNonEmpty();
  rep.Validate();
  return rep;
}

TEST(OpsEdge, EveryOperatorOnASharedUnion) {
  const FRep rep = SharedUnionRep();
  const Relation flat = Enumerated(rep);
  ASSERT_EQ(flat.size(), 6u);
  auto check = [&](const FRep& out, const Relation& expect) {
    out.Validate();
    EXPECT_TRUE(SameRelation(out, expect));
  };
  auto where = [&](auto pred) {
    Relation r = flat;
    r.Filter([&](size_t row) { return pred(r, row); });
    return r;
  };
  auto col = [&](AttrId a) { return flat.ColumnOf(a); };

  check(PushUp(rep, 1), flat);
  check(Normalize(rep), flat);
  check(Swap(rep, 0, 1), flat);
  check(Swap(rep, 0, 2), flat);

  FRep merged = Merge(rep, 1, 2);
  check(merged, where([&](const Relation& r, size_t row) {
          return r.At(row, col(1)) == r.At(row, col(2));
        }));
  ExpectNoCommittedOrphans(merged);
  for (AttrId b : {1, 2}) {
    FRep absorbed = Absorb(rep, 0, b);
    check(absorbed, where([&](const Relation& r, size_t row) {
            return r.At(row, col(0)) == r.At(row, col(b));
          }));
    ExpectNoCommittedOrphans(absorbed);
  }

  for (AttrId a : {0, 1, 2}) {
    for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                     CmpOp::kGt, CmpOp::kGe}) {
      for (Value c : {1, 2, 3}) {
        FRep sel = SelectConst(rep, a, op, c);
        check(sel, where([&](const Relation& r, size_t row) {
                return EvalCmp(r.At(row, col(a)), op, c);
              }));
        ExpectNoCommittedOrphans(sel);
      }
    }
  }

  for (AttrSet keep : {AttrSet::Of({0, 2}), AttrSet::Of({0, 1}),
                       AttrSet::Of({1}), AttrSet::Of({2}), AttrSet{}}) {
    FRep proj = Project(rep, keep);
    proj.Validate();
    if (keep.Empty()) {
      EXPECT_FALSE(proj.empty());
      EXPECT_EQ(proj.tree().NumAlive(), 0);
    } else {
      EXPECT_TRUE(SameRelation(proj, ProjectRows(flat, keep)));
    }
  }

  Relation s = MakeRel({3}, {{8}, {9}});
  FRep prod = Product(rep, GroundRelation(s, 2));
  prod.Validate();
  EXPECT_EQ(prod.CountTuples(), 12.0);
}

TEST(OpsEdge, DroppedEntriesCommitNoUnions) {
  // A-entries with children [B (with X below), C]: selecting on C drops
  // A=2, whose B-subtree sits in the slot before C's. The rewrite decides
  // C's slot first, so that B-subtree is never copied.
  Relation r = MakeRel({0, 1, 2}, {{1, 3, 10}, {2, 4, 20}});  // A,B,X
  Relation s = MakeRel({3, 4}, {{1, 3}, {2, 5}});             // A',C
  FTree t;
  AttrSet ca = AttrSet::Of({0, 3});
  int na = t.NewNode(ca, ca, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nx = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nc = t.NewNode(AttrSet::Of({4}), AttrSet::Of({4}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(nb, nx);
  t.AttachChild(na, nc);
  FRep rep = GroundQuery(t, {&r, &s});
  FRep sel = SelectConst(rep, 4, CmpOp::kLt, 4);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), 1.0);
  ExpectNoCommittedOrphans(sel);
  FRep absorbed = Absorb(rep, 0, 2);
  absorbed.Validate();
  EXPECT_TRUE(absorbed.empty());
  FRep merged = Merge(rep, 1, 4);
  merged.Validate();
  ExpectNoCommittedOrphans(merged);
}

TEST(OpsEdge, SelectConstKeepsASharedUnionShared) {
  const FRep rep = SharedUnionRep();
  // Off the selection's path (C and A), the shared B-union is copied once.
  for (AttrId a : {0, 2}) {
    FRep sel = SelectConst(rep, a, CmpOp::kLe, 3);
    sel.Validate();
    ASSERT_EQ(sel.roots().size(), 1u);
    UnionRef root = sel.u(sel.roots()[0]);
    ASSERT_EQ(root.size(), 2u);
    EXPECT_EQ(root.Child(0, 0, 2), root.Child(1, 0, 2));
    ExpectNoCommittedOrphans(sel);
  }
}

}  // namespace
}  // namespace fdb
