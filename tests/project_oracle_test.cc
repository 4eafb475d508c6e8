// Project (core/ops.h) builds its output in one rewrite. This suite checks
// it against the step-by-step projection of §3.4, kept here as the
// reference: sink every fully projected node to a leaf by swaps, remove it
// there, normalise. The two must agree byte for byte (WriteFRep) and on the
// f-tree (ToString), and Project must commit no union it does not reach.
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "bench_util/workload.h"
#include "common/rng.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/ops_common.h"
#include "core/serialize.h"
#include "opt/ftree_search.h"
#include "storage/generator.h"

namespace fdb {
namespace {

using ops_internal::ChildSlot;
using ops_internal::CopyPolicy;
using ops_internal::PathRewrite;

// Removes a fully projected leaf: its unions disappear.
FRep RemoveInvisibleLeaf(const FRep& in, int n) {
  const FTree& t = in.tree();
  const size_t slot_n = ChildSlot(t, n);
  FTree new_tree = t;
  new_tree.RemoveLeaf(n);
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);
  rw.Run(t.node(n).parent,
         [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
           for (size_t j = 0; j < k; ++j) {
             if (j != slot_n) nk->push_back(rw.Copy(kids[j]));
           }
           return true;
         });
  return out;
}

// The reference: one full rewrite per swap and per leaf removal.
FRep ReferenceProject(const FRep& in, AttrSet keep) {
  FRep cur = in;
  cur.tree().RestrictVisible(keep);
  for (FTree::ProjectStep s = cur.tree().NextProjectStep(); s.node != -1;
       s = cur.tree().NextProjectStep()) {
    if (s.child == -1) {
      cur = RemoveInvisibleLeaf(cur, s.node);
    } else {
      const FTree& t = cur.tree();
      cur = Swap(cur, t.node(s.node).attrs.Min(), t.node(s.child).attrs.Min());
    }
  }
  return Normalize(cur);
}

std::string Bytes(const FRep& rep) {
  std::stringstream out;
  WriteFRep(out, rep);
  return out.str();
}

// Project(in, keep) equals the reference. When Project removed a node it
// built every union itself, so each one it committed must be reachable.
// (Counted by a sweep, not by ReadFRep(WriteFRep(out)): the file format
// keeps no child order, so a read-back tree whose children are not in
// ascending id order binds its unions to the wrong nodes.)
void ExpectMatchesReference(const FRep& in, AttrSet keep,
                            const std::string& what) {
  SCOPED_TRACE(what + " keep=" + keep.ToString());
  const FRep got = Project(in, keep);
  const FRep want = ReferenceProject(in, keep);
  got.Validate();
  EXPECT_EQ(got.tree().ToString(), want.tree().ToString());
  const std::string bytes = Bytes(got);
  EXPECT_EQ(bytes, Bytes(want));
  if (got.tree().NumAlive() < in.tree().NumAlive()) {
    size_t reached = 0;
    got.SweepBottomUp([&](int, uint32_t) { ++reached; });
    EXPECT_EQ(got.NumUnions(), reached);
  }
}

// Every keep set over the attributes of `in`.
void ExpectAllKeepSetsMatch(const FRep& in, const std::string& what) {
  std::vector<AttrId> attrs;
  for (AttrId a : in.tree().AllAttrs()) attrs.push_back(a);
  ASSERT_LE(attrs.size(), 10u);
  for (uint32_t mask = 0; mask < (1u << attrs.size()); ++mask) {
    AttrSet keep;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (mask & (1u << i)) keep.Add(attrs[i]);
    }
    ExpectMatchesReference(in, keep, what);
  }
}

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

// A node holding attribute `a` alone, covered by the relations `rels`.
int Node(FTree* t, AttrId a, std::initializer_list<AttrId> rels) {
  return t->NewNode(AttrSet::Of({a}), AttrSet::Of({a}), RelSet::Of(rels),
                    RelSet::Of(rels));
}

TEST(ProjectOracle, InvisibleRoot) {
  // A -> B over R(a, b): projecting A away leaves B's values merged.
  Relation r = MakeRel({0, 1}, {{1, 5}, {1, 6}, {2, 5}, {3, 7}, {3, 9}});
  FTree t;
  const int a = Node(&t, 0, {0});
  const int b = Node(&t, 1, {0});
  t.AttachRoot(a);
  t.AttachChild(a, b);
  ExpectAllKeepSetsMatch(GroundQuery(t, {&r}), "invisible root");
}

TEST(ProjectOracle, InvisibleLeavesOnly) {
  // A -> {B, C -> D} over R(a, b), S(a, c, d): drop any set of leaves.
  Relation r = MakeRel({0, 1}, {{1, 2}, {1, 3}, {2, 2}, {4, 1}});
  Relation s = MakeRel({0, 2, 3},
                       {{1, 7, 1}, {1, 7, 2}, {1, 8, 1}, {2, 9, 9}, {4, 7, 3}});
  FTree t;
  const int a = Node(&t, 0, {0, 1});
  const int b = Node(&t, 1, {0});
  const int c = Node(&t, 2, {1});
  const int d = Node(&t, 3, {1});
  t.AttachRoot(a);
  t.AttachChild(a, b);
  t.AttachChild(a, c);
  t.AttachChild(c, d);
  const FRep rep = GroundQuery(t, {&r, &s});
  ExpectMatchesReference(rep, AttrSet::Of({0, 2}), "leaves b, d");
  ExpectMatchesReference(rep, AttrSet::Of({0}), "leaves b, c, d");
  ExpectAllKeepSetsMatch(rep, "leaves");
}

TEST(ProjectOracle, TwoInvisibleSiblings) {
  // P -> {A -> X, B -> Y} over R(p, a, x), S(p, b, y), A and B away.
  Relation r = MakeRel({0, 1, 2}, {{1, 1, 4}, {1, 2, 4}, {1, 2, 5},
                                   {2, 1, 6}, {2, 3, 6}, {3, 3, 3}});
  Relation s = MakeRel({0, 3, 4}, {{1, 8, 1}, {1, 9, 1}, {1, 9, 2},
                                   {2, 8, 8}, {3, 1, 5}, {3, 2, 4}});
  FTree t;
  const int p = Node(&t, 0, {0, 1});
  const int a = Node(&t, 1, {0});
  const int x = Node(&t, 2, {0});
  const int b = Node(&t, 3, {1});
  const int y = Node(&t, 4, {1});
  t.AttachRoot(p);
  t.AttachChild(p, a);
  t.AttachChild(a, x);
  t.AttachChild(p, b);
  t.AttachChild(b, y);
  const FRep rep = GroundQuery(t, {&r, &s});
  ExpectMatchesReference(rep, AttrSet::Of({0, 2, 4}), "siblings");
  ExpectAllKeepSetsMatch(rep, "siblings");
}

TEST(ProjectOracle, NestedInvisibleNodes) {
  // P -> A -> A2 -> B over R(p, a, a2, b): A and A2 away.
  Relation r = MakeRel({0, 1, 2, 3},
                       {{1, 1, 1, 5}, {1, 1, 2, 6}, {1, 2, 1, 5}, {1, 2, 3, 4},
                        {2, 1, 1, 5}, {2, 4, 4, 4}, {3, 9, 1, 2}});
  FTree t;
  int prev = -1;
  for (AttrId at = 0; at < 4; ++at) {
    const int n = Node(&t, at, {0});
    if (prev == -1) {
      t.AttachRoot(n);
    } else {
      t.AttachChild(prev, n);
    }
    prev = n;
  }
  const FRep rep = GroundQuery(t, {&r});
  ExpectMatchesReference(rep, AttrSet::Of({0, 3}), "nested");
  ExpectMatchesReference(rep, AttrSet::Of({3}), "nested, no root");
  ExpectAllKeepSetsMatch(rep, "nested");
}

TEST(ProjectOracle, SiblingMovesUnderSibling) {
  // A -> {B, C} over R(a, b), S(a, c). Projecting A away gives B -> C: C
  // inherits A's relations, which B shares, so C stays below B and takes
  // its values from the A-entries whose B-union holds the chosen b.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 1}, {3, 3}});
  Relation s = MakeRel({0, 2}, {{1, 7}, {2, 8}, {2, 9}, {3, 5}, {3, 7}});
  FTree t;
  const int a = Node(&t, 0, {0, 1});
  const int b = Node(&t, 1, {0});
  const int c = Node(&t, 2, {1});
  t.AttachRoot(a);
  t.AttachChild(a, b);
  t.AttachChild(a, c);
  const FRep rep = GroundQuery(t, {&r, &s});
  const FRep out = Project(rep, AttrSet::Of({1, 2}));
  ASSERT_EQ(out.tree().roots(), std::vector<int>{b});
  EXPECT_EQ(out.tree().node(b).children, std::vector<int>{c});
  ExpectAllKeepSetsMatch(rep, "sibling moves");
}

TEST(ProjectOracle, NodeRisesAboveTheRemovedNodesParent) {
  // G -> P -> {A, Y} over R(g, p), S(p, a), U(g, y): Y does not depend on
  // P, so the input is not normalised. Projecting A away normalises the
  // tree to G -> {P, Y}: the rewrite must reach above P.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 1}, {3, 3}});
  Relation s = MakeRel({1, 2}, {{1, 4}, {1, 5}, {2, 4}, {3, 6}});
  Relation u = MakeRel({0, 3}, {{1, 7}, {1, 8}, {2, 7}, {3, 9}});
  FTree t;
  const int g = Node(&t, 0, {0, 2});
  const int p = Node(&t, 1, {0, 1});
  const int a = Node(&t, 2, {1});
  const int y = Node(&t, 3, {2});
  t.AttachRoot(g);
  t.AttachChild(g, p);
  t.AttachChild(p, a);
  t.AttachChild(p, y);
  const FRep rep = GroundQuery(t, {&r, &s, &u});
  const FRep out = Project(rep, AttrSet::Of({0, 1, 3}));
  EXPECT_EQ(out.tree().node(g).children, (std::vector<int>{p, y}));
  ExpectAllKeepSetsMatch(rep, "rises");
}

TEST(ProjectOracle, SharedUnionInput) {
  // A -> {B, C} whose B-union is shared by both A-entries (B does not
  // depend on A, so the input is not normalised either).
  FTree t;
  const int na = Node(&t, 0, {0});
  const int nb = Node(&t, 1, {1});
  const int nc = Node(&t, 2, {0});
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
  ExpectAllKeepSetsMatch(rep, "shared union");
}

TEST(ProjectOracle, EmptyRepAndNullaryResult) {
  Relation r = MakeRel({0, 1}, {{1, 2}, {3, 4}});
  Relation s = MakeRel({0, 2}, {{2, 5}});
  FTree t;
  const int a = Node(&t, 0, {0, 1});
  t.AttachRoot(a);
  t.AttachChild(a, Node(&t, 1, {0}));
  t.AttachChild(a, Node(&t, 2, {1}));
  const FRep empty = GroundQuery(t, {&r, &s});
  ASSERT_TRUE(empty.empty());
  ExpectAllKeepSetsMatch(empty, "empty");

  Relation s2 = MakeRel({0, 2}, {{1, 5}, {3, 6}});
  const FRep rep = GroundQuery(t, {&r, &s2});
  const FRep nullary = Project(rep, AttrSet());
  EXPECT_FALSE(nullary.empty());
  EXPECT_TRUE(nullary.tree().roots().empty());
  ExpectMatchesReference(rep, AttrSet(), "nullary");
}

// Random equi-join queries over their optimal f-trees, then the same reps
// after a random swap (often not normalised) and after a constant
// selection or a second swap, each projected on a random keep set.
TEST(ProjectOracle, RandomQueriesAndKeepSets) {
  int projected = 0, removed = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed * 31 + 7);
    WorkloadSpec spec;
    spec.num_rels = static_cast<int>(rng.Uniform(2, 5));
    spec.num_attrs = static_cast<int>(rng.Uniform(spec.num_rels + 1, 10));
    spec.tuples_per_rel = static_cast<size_t>(rng.Uniform(10, 40));
    spec.domain = rng.Uniform(3, 8);
    spec.dist = rng.Uniform(0, 2) == 0 ? Distribution::kZipf
                                       : Distribution::kUniform;
    spec.num_equalities = static_cast<int>(rng.Uniform(1, spec.num_rels));
    spec.seed = seed;
    GeneratedWorkload w = GenerateWorkload(spec);
    std::vector<const Relation*> rels;
    for (const Relation& r : w.relations) rels.push_back(&r);
    QueryInfo info = AnalyzeQuery(w.catalog, w.query);
    EdgeCoverSolver solver;
    FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
    for (int round = 0; round < 3; ++round) {
      if (round == 2 && rng.Uniform(0, 1) == 0) {
        // A constant selection: an equality makes its node constant.
        std::vector<AttrId> attrs;
        for (AttrId a : rep.tree().AllAttrs()) attrs.push_back(a);
        const AttrId at = attrs[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(attrs.size()) - 1))];
        rep = SelectConst(rep, at, rng.Uniform(0, 1) == 0 ? CmpOp::kEq
                                                           : CmpOp::kLe,
                          rng.Uniform(1, spec.domain));
      } else if (round > 0) {
        // Swap a random node with its parent.
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
      ExpectMatchesReference(
          rep, keep, "seed " + std::to_string(seed) + " round " +
                         std::to_string(round));
      ++projected;
      FTree tree = rep.tree();
      tree.ProjectTree(keep);
      if (tree.NumAlive() < rep.tree().NumAlive()) ++removed;
      if (HasFailure()) return;
    }
  }
  EXPECT_EQ(projected, 1200);
  EXPECT_GE(removed, 800);
}

// The 25 SPJ statements of the benchmark's serve-warm-chain workload, on
// its Customer <- Orders <- Lineitem chain at 1/20 scale (5,000 lineitems).
TEST(ProjectOracle, WarmChainStatements) {
  const BenchInstance inst = MakeKeyForeignKeyChain(501, 1251, 5000, 1);
  const Database& db = *inst.db;
  Engine engine(inst.db.get());
  for (int k = 1; k <= 25; ++k) {
    const Query q = engine.Parse(
        "SELECT ck, cnation, lk, qty FROM Customer, Orders, Lineitem "
        "WHERE ck = o_ck AND ok = l_ok AND cnation = " +
        std::to_string(k));
    const FRep rep = GroundQuery(engine.OptimizeFlat(q).tree,
                                 db.RelationPtrs(q.rels), q.const_preds);
    const AttrSet keep = AnalyzeQuery(db.catalog(), q).projection;
    ASSERT_LT(Project(rep, keep).tree().NumAlive(), rep.tree().NumAlive());
    ExpectMatchesReference(rep, keep, "cnation = " + std::to_string(k));
  }
}

}  // namespace
}  // namespace fdb
