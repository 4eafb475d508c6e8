#include <gtest/gtest.h>

#include "core/enumerate.h"
#include "core/fplan.h"
#include "core/ground.h"
#include "core/ops.h"
#include "common/rng.h"
#include "core/print.h"
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

// Reference equi-join of two relations on one attribute pair, keeping all
// columns of both (used as ground truth for merge/absorb).
Relation RefJoin(const Relation& l, const Relation& r, AttrId la, AttrId ra) {
  std::vector<AttrId> schema = l.schema();
  schema.insert(schema.end(), r.schema().begin(), r.schema().end());
  Relation out(schema);
  size_t lc = l.ColumnOf(la), rc = r.ColumnOf(ra);
  std::vector<Value> t(schema.size());
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (l.At(i, lc) != r.At(j, rc)) continue;
      for (size_t c = 0; c < l.arity(); ++c) t[c] = l.At(i, c);
      for (size_t c = 0; c < r.arity(); ++c) t[l.arity() + c] = r.At(j, c);
      out.AddTuple(t);
    }
  }
  out.SortLex();
  return out;
}

Relation RefSelect(const Relation& in, AttrId attr, CmpOp op, Value c) {
  Relation out = in;
  size_t col = out.ColumnOf(attr);
  out.Filter([&](size_t row) { return EvalCmp(out.At(row, col), op, c); });
  out.SortLex();
  return out;
}

// ---------- Product ----------

TEST(Product, CombinesForests) {
  Relation r = MakeRel({0, 1}, {{1, 2}, {3, 4}});
  Relation s = MakeRel({2}, {{7}, {8}, {9}});
  FRep e1 = GroundRelation(r, 0);
  FRep e2 = GroundRelation(s, 1);
  FRep prod = Product(e1, e2);
  prod.Validate();
  EXPECT_EQ(prod.CountTuples(), 6.0);
  EXPECT_EQ(prod.tree().roots().size(), 2u);
  // Linear size: 4 + 3 singletons, not 6 x 3.
  EXPECT_EQ(prod.NumSingletons(), 7u);
}

TEST(Product, EmptyAnnihilates) {
  Relation r = MakeRel({0}, {{1}});
  FRep e1 = GroundRelation(r, 0);
  FRep e2{PathFTree({1}, 1)};  // empty
  FRep prod = Product(e1, e2);
  EXPECT_TRUE(prod.empty());
}

TEST(Product, RejectsOverlappingAttrs) {
  Relation r = MakeRel({0}, {{1}});
  FRep e1 = GroundRelation(r, 0);
  FRep e2 = GroundRelation(r, 1);
  EXPECT_THROW(Product(e1, e2), FdbError);
}

TEST(Product, RejectsOverlappingRelIndices) {
  Relation r = MakeRel({0}, {{1}});
  Relation s = MakeRel({1}, {{1}});
  FRep e1 = GroundRelation(r, 0);
  FRep e2 = GroundRelation(s, 0);  // same query-local index
  EXPECT_THROW(Product(e1, e2), FdbError);
}

// ---------- SelectConst ----------

TEST(SelectConst, FiltersAndCascades) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  FRep sel = SelectConst(rep, 1, CmpOp::kGt, 1);  // B > 1
  sel.Validate();
  EXPECT_TRUE(SameRelation(sel, RefSelect(r, 1, CmpOp::kGt, 1)));
}

TEST(SelectConst, EmptyingSelection) {
  Relation r = MakeRel({0, 1}, {{1, 1}});
  FRep rep = GroundRelation(r, 0);
  FRep sel = SelectConst(rep, 0, CmpOp::kGt, 10);
  EXPECT_TRUE(sel.empty());
}

TEST(SelectConst, EqualityMakesNodeConstantAndFloats) {
  // B = 2 on A -> B: afterwards the B node is constant and pushed to the
  // top level (it no longer contributes to the cost).
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 1}});
  FRep rep = GroundRelation(r, 0);
  FRep sel = SelectConst(rep, 1, CmpOp::kEq, 2);
  sel.Validate();
  EXPECT_TRUE(SameRelation(sel, RefSelect(r, 1, CmpOp::kEq, 2)));
  int nb = sel.tree().FindAttr(1);
  EXPECT_TRUE(sel.tree().node(nb).constant);
  EXPECT_EQ(sel.tree().node(nb).parent, -1);  // floated to the roots
}

TEST(SelectConst, OnDeepNode) {
  Relation r = MakeRel({0, 1, 2}, {{1, 1, 5}, {1, 2, 6}, {2, 2, 7}});
  FRep rep = GroundRelation(r, 0);
  FRep sel = SelectConst(rep, 2, CmpOp::kLe, 6);
  sel.Validate();
  EXPECT_TRUE(SameRelation(sel, RefSelect(r, 2, CmpOp::kLe, 6)));
}

// ---------- PushUp / Normalize ----------

TEST(PushUp, HoistsIndependentChild) {
  // Product-shaped data re-expressed over a chain tree, then normalised
  // back apart: A x B with B nested under A.
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}, {6}});
  // Ground over the tree A -> B (B's relation is independent of A's).
  FTree t;
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  FRep rep = GroundQuery(t, {&r, &s});
  rep.Validate();
  EXPECT_EQ(rep.NumSingletons(), 6u);  // B repeated under each A value

  FRep up = PushUp(rep, 1);
  up.Validate();
  EXPECT_EQ(up.tree().roots().size(), 2u);
  EXPECT_EQ(up.NumSingletons(), 4u);  // factored out
  EXPECT_EQ(up.CountTuples(), rep.CountTuples());
  EXPECT_TRUE(SameRelation(up, MaterializeVisible(rep)));
}

TEST(PushUp, RejectsDependentChild) {
  Relation r = MakeRel({0, 1}, {{1, 1}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_THROW(PushUp(rep, 1), FdbError);  // B shares the relation with A
}

TEST(Normalize, ReachesNormalFormAndPreservesRelation) {
  // Three independent unary relations grounded over a chain; normalising
  // splits them into a forest of three roots.
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{3}, {4}});
  Relation u = MakeRel({2}, {{5}});
  FTree t;
  int n0 = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int n1 = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({1}),
                     RelSet::Of({1}));
  int n2 = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({2}),
                     RelSet::Of({2}));
  t.AttachRoot(n0);
  t.AttachChild(n0, n1);
  t.AttachChild(n1, n2);
  FRep rep = GroundQuery(t, {&r, &s, &u});
  FRep norm = Normalize(rep);
  norm.Validate();
  EXPECT_TRUE(norm.tree().IsNormalized());
  EXPECT_EQ(norm.tree().roots().size(), 3u);
  EXPECT_TRUE(SameRelation(norm, MaterializeVisible(rep)));
  EXPECT_LE(norm.NumSingletons(), rep.NumSingletons());
}

// ---------- Swap ----------

TEST(Swap, RegroupsByChildFirst) {
  // R(A,B): regrouping by B then A preserves the relation.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 1}});
  FRep rep = GroundRelation(r, 0);
  FRep sw = Swap(rep, 0, 1);
  sw.Validate();
  int na = sw.tree().FindAttr(0), nb = sw.tree().FindAttr(1);
  EXPECT_EQ(sw.tree().node(na).parent, nb);
  EXPECT_TRUE(SameRelation(sw, r));
}

TEST(Swap, RoundTripRestoresGrouping) {
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 5}, {2, 6}});
  FRep rep = GroundRelation(r, 0);
  FRep back = Swap(Swap(rep, 0, 1), 1, 0);
  back.Validate();
  EXPECT_TRUE(SameRelation(back, r));
  EXPECT_EQ(back.NumSingletons(), rep.NumSingletons());
}

TEST(Swap, DeepSwapInContext) {
  // R(A,B,C): swap B and C under each A-group.
  Relation r =
      MakeRel({0, 1, 2}, {{1, 1, 9}, {1, 2, 9}, {2, 1, 8}, {2, 1, 9}});
  FRep rep = GroundRelation(r, 0);
  FRep sw = Swap(rep, 1, 2);
  sw.Validate();
  EXPECT_TRUE(SameRelation(sw, r));
  // C is now B's parent inside each A context.
  int nb = sw.tree().FindAttr(1), nc = sw.tree().FindAttr(2);
  EXPECT_EQ(sw.tree().node(nb).parent, nc);
}

TEST(Swap, PaperExampleT1ToT2) {
  // Example 8: T1 -> T2 via chi_{item, location}, on the real Q1 result.
  auto db = testing_util::MakeGroceryDb();
  AttrId item = db->Attr("o_item"), sitem = db->Attr("s_item");
  AttrId loc = db->Attr("s_location"), dloc = db->Attr("d_location");
  AttrId oid = db->Attr("oid"), disp = db->Attr("dispatcher");

  // Build T1 over the classes {item}, {oid}, {location}, {dispatcher}.
  FTree t1;
  AttrSet c_item = AttrSet::Of({item, sitem});
  AttrSet c_loc = AttrSet::Of({loc, dloc});
  int n_item = t1.NewNode(c_item, c_item, RelSet::Of({0, 1}),
                          RelSet::Of({0, 1}));
  int n_oid = t1.NewNode(AttrSet::Of({oid}), AttrSet::Of({oid}),
                         RelSet::Of({0}), RelSet::Of({0}));
  int n_loc = t1.NewNode(c_loc, c_loc, RelSet::Of({1, 2}),
                         RelSet::Of({1, 2}));
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
  FRep over_t1 = GroundQuery(t1, rels);
  over_t1.Validate();

  FRep over_t2 = Swap(over_t1, item, loc);
  over_t2.Validate();
  // location now roots the tree; item below it; dispatcher beside item.
  int loc_node = over_t2.tree().FindAttr(loc);
  EXPECT_EQ(over_t2.tree().node(loc_node).parent, -1);
  EXPECT_TRUE(SameRelation(over_t2, MaterializeVisible(over_t1)));
}

// ---------- Merge ----------

TEST(Merge, TwoRootUnions) {
  // R(A) |x|_{A=B} S(B,C) via product + merge at the top level.
  Relation r = MakeRel({0}, {{1}, {2}, {4}});
  Relation s = MakeRel({1, 2}, {{1, 7}, {2, 8}, {2, 9}, {3, 7}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep joined = Merge(prod, 0, 1);
  joined.Validate();
  EXPECT_TRUE(SameRelation(joined, RefJoin(r, s, 0, 1)));
  // The merged class holds both attributes.
  int n = joined.tree().FindAttr(0);
  EXPECT_EQ(n, joined.tree().FindAttr(1));
  EXPECT_EQ(joined.tree().node(n).attrs, AttrSet::Of({0, 1}));
}

TEST(Merge, EmptyIntersection) {
  Relation r = MakeRel({0}, {{1}});
  Relation s = MakeRel({1}, {{2}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep joined = Merge(prod, 0, 1);
  EXPECT_TRUE(joined.empty());
}

TEST(Merge, InteriorSiblingsWithCascade) {
  // R(A,B,C): tree A -> {B, C} built by grounding a relation where B and C
  // come from different relations sharing A.
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 6}});   // A, B
  Relation s = MakeRel({2, 3}, {{1, 5}, {2, 7}});   // A', C with A=A'
  // Tree: class {A,A'} root, children B and C.
  FTree t;
  AttrSet ca = AttrSet::Of({0, 2});
  int na = t.NewNode(ca, ca, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nc = t.NewNode(AttrSet::Of({3}), AttrSet::Of({3}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(na, nc);
  FRep rep = GroundQuery(t, {&r, &s});
  // Now merge B and C (selection B = C): A=1 keeps (5,5); A=2 dies (6!=7).
  FRep merged = Merge(rep, 1, 3);
  merged.Validate();
  EXPECT_EQ(merged.CountTuples(), 1.0);
  TupleEnumerator en(merged);
  ASSERT_TRUE(en.Next());
  EXPECT_EQ(en.ValueOf(0), 1);
  EXPECT_EQ(en.ValueOf(1), 5);
  EXPECT_EQ(en.ValueOf(3), 5);
}

TEST(Merge, SameClassIsNoOp) {
  Relation r = MakeRel({0, 1}, {{1, 1}});
  FRep rep = GroundRelation(r, 0);
  FRep m = Merge(rep, 0, 0);
  EXPECT_TRUE(SameRelation(m, r));
}

// ---------- Absorb ----------

TEST(Absorb, AncestorDescendantSelection) {
  // R(A,B): selection A = B via absorb on the path tree A -> B.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 1}});
  FRep rep = GroundRelation(r, 0);
  FRep ab = Absorb(rep, 0, 1);
  ab.Validate();
  Relation expect = r;
  expect.Filter([&](size_t row) { return expect.At(row, 0) == expect.At(row, 1); });
  expect.SortLex();
  EXPECT_TRUE(SameRelation(ab, expect));
  int n = ab.tree().FindAttr(0);
  EXPECT_EQ(n, ab.tree().FindAttr(1));  // classes merged
}

TEST(Absorb, DeepDescendantWithNormalisation) {
  // Example 10: A -> {B,B'} -> {C,C'} -> D with R0{A,B}, R1{B',C},
  // R2{C',D}; absorb A = C. Afterwards D hangs directly under {A,C,C'}.
  Relation r0 = MakeRel({0, 1}, {{1, 10}, {2, 20}});        // A, B
  Relation r1 = MakeRel({2, 3}, {{10, 1}, {10, 2}, {20, 2}});  // B', C
  Relation r2 = MakeRel({4, 5}, {{1, 100}, {2, 200}});      // C', D

  FTree t;
  AttrSet cb = AttrSet::Of({1, 2}), cc = AttrSet::Of({3, 4});
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(cb, cb, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nc = t.NewNode(cc, cc, RelSet::Of({1, 2}), RelSet::Of({1, 2}));
  int nd = t.NewNode(AttrSet::Of({5}), AttrSet::Of({5}), RelSet::Of({2}),
                     RelSet::Of({2}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(nb, nc);
  t.AttachChild(nc, nd);
  FRep rep = GroundQuery(t, {&r0, &r1, &r2});
  rep.Validate();

  FRep ab = Absorb(rep, 0, 3);  // A = C
  ab.Validate();
  // Reference: join all three then filter A = C.
  Relation j = RefJoin(RefJoin(r0, r1, 1, 2), r2, 3, 4);
  j.Filter([&](size_t row) { return j.At(row, 0) == j.At(row, j.ColumnOf(3)); });
  j.SortLex();
  EXPECT_TRUE(SameRelation(ab, j));
  // Tree shape per Example 10: {A,C,C'} root; {B,B'} and D its children.
  int root = ab.tree().FindAttr(0);
  EXPECT_EQ(ab.tree().node(root).attrs, AttrSet::Of({0, 3, 4}));
  EXPECT_EQ(ab.tree().node(ab.tree().FindAttr(5)).parent, root);
  EXPECT_EQ(ab.tree().node(ab.tree().FindAttr(1)).parent, root);
}

TEST(Absorb, OrientationIsAutomatic) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {2, 3}});
  FRep rep = GroundRelation(r, 0);
  FRep ab = Absorb(rep, 1, 0);  // reversed argument order
  ab.Validate();
  EXPECT_EQ(ab.CountTuples(), 1.0);
}

// ---------- Project ----------

TEST(Project, DropsLeafAttribute) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  FRep proj = Project(rep, AttrSet::Of({0}));
  proj.Validate();
  EXPECT_EQ(proj.CountTuples(), 2.0);  // A values {1, 2}
  EXPECT_EQ(proj.tree().VisibleAttrs(), AttrSet::Of({0}));
}

TEST(Project, InnerNodeSinksAndKeepsTransitiveDependence) {
  // Section 3.4: A - B - C with R0{A,B}, R1{B,C}; project away B. The
  // result must stay a chain A - C (A and C remain dependent through B).
  Relation r0 = MakeRel({0, 1}, {{1, 5}, {2, 5}, {2, 6}});
  Relation r1 = MakeRel({2, 3}, {{5, 7}, {6, 8}});
  FTree t;
  AttrSet cb = AttrSet::Of({1, 2});
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(cb, cb, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nc = t.NewNode(AttrSet::Of({3}), AttrSet::Of({3}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(nb, nc);
  FRep rep = GroundQuery(t, {&r0, &r1});

  FRep proj = Project(rep, AttrSet::Of({0, 3}));
  proj.Validate();
  // Reference: projection of the join.
  Relation j = RefJoin(r0, r1, 1, 2);
  Relation expect({0, 3});
  for (size_t row = 0; row < j.size(); ++row) {
    expect.AddTuple({j.At(row, 0), j.At(row, j.ColumnOf(3))});
  }
  expect.SortLex();
  EXPECT_TRUE(SameRelation(proj, expect));
  // C stays below A: pushing it up would wrongly declare independence.
  int pa = proj.tree().FindAttr(0);
  int pc = proj.tree().FindAttr(3);
  EXPECT_EQ(proj.tree().node(pc).parent, pa);
}

TEST(Project, EverythingAwayYieldsNullaryWitness) {
  Relation r = MakeRel({0}, {{1}, {2}});
  FRep rep = GroundRelation(r, 0);
  FRep proj = Project(rep, AttrSet{});
  proj.Validate();
  EXPECT_FALSE(proj.empty());
  EXPECT_EQ(proj.CountTuples(), 1.0);  // the nullary tuple: R non-empty

  FRep none{PathFTree({0}, 0)};
  FRep proj2 = Project(none, AttrSet{});
  EXPECT_TRUE(proj2.empty());  // empty input stays empty
}

TEST(Project, NoOpKeepsEverything) {
  Relation r = MakeRel({0, 1}, {{1, 2}});
  FRep rep = GroundRelation(r, 0);
  FRep proj = Project(rep, AttrSet::Of({0, 1}));
  proj.Validate();
  EXPECT_TRUE(SameRelation(proj, r));
}

TEST(Project, PartialClassProjection) {
  // Class {A,B} (A=B join baked in): projecting away B keeps the node with
  // attribute A only.
  Relation r = MakeRel({0, 1}, {{1, 1}, {2, 2}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r});
  FRep proj = Project(rep, AttrSet::Of({0}));
  proj.Validate();
  EXPECT_EQ(proj.NumSingletons(), 2u);  // one per value, single attribute
  Relation expect = MakeRel({0}, {{1}, {2}});
  EXPECT_TRUE(SameRelation(proj, expect));
}

// ---------- Plans ----------

TEST(Plan, ExecuteMatchesSimulation) {
  Relation r = MakeRel({0, 1}, {{1, 4}, {2, 5}});
  Relation s = MakeRel({2, 3}, {{4, 7}, {5, 8}, {5, 9}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));

  FPlan plan;
  plan.steps = {PlanStep::MakeSwap(0, 1), PlanStep::MakeMerge(1, 2)};
  FRep out = ExecutePlan(prod, plan);
  out.Validate();

  FTree sim = prod.tree();
  for (const PlanStep& st : plan.steps) sim = SimulateStepOnTree(sim, st);
  EXPECT_EQ(out.tree().CanonicalKey(), sim.CanonicalKey());
  EXPECT_TRUE(SameRelation(out, RefJoin(r, s, 1, 2)));

  // Random projections after the join: the executed projection and its
  // simulation both take FTree::ProjectTree's tree, so they end in the same
  // f-tree, node for node.
  Rng rng(7);
  const std::vector<AttrId> attrs = {0, 1, 2, 3};
  for (int round = 0; round < 40; ++round) {
    AttrSet keep;
    for (AttrId a : attrs) {
      if (rng.Uniform(0, 1) == 1) keep.Add(a);
    }
    FPlan proj = plan;
    proj.steps.push_back(PlanStep::MakeProject(keep));
    if (rng.Uniform(0, 1) == 1) {
      proj.steps.push_back(PlanStep::MakeProject(
          keep.Intersect(AttrSet::Of({attrs[rng.Uniform(0, 3)]}))));
    }
    FRep got = ExecutePlan(prod, proj);
    got.Validate();
    FTree want = prod.tree();
    for (const PlanStep& st : proj.steps) want = SimulateStepOnTree(want, st);
    ASSERT_EQ(got.tree().ToString(), want.ToString()) << proj.ToString();
    EXPECT_TRUE(got.tree().IsNormalized());
    EXPECT_EQ(got.tree().VisibleAttrs(), proj.steps.back().keep);
  }
}

TEST(Plan, StepToString) {
  EXPECT_EQ(PlanStep::MakeSwap(1, 2).ToString(), "swap(a1,a2)");
  EXPECT_EQ(PlanStep::MakeMerge(1, 2).ToString(), "merge(a1=a2)");
  EXPECT_EQ(PlanStep::MakeAbsorb(1, 2).ToString(), "absorb(a1=a2)");
  EXPECT_EQ(PlanStep::MakeSelectConst(3, CmpOp::kGe, 7).ToString(),
            "select(a3>=7)");
}

}  // namespace
}  // namespace fdb
