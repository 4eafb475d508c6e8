// Restructure (core/ops.h) is the engine's one restructuring rewrite:
// Swap, PushUp, Normalize, Project and GroupByAggregate's restructure all
// move their data through it. This suite checks it against the step-by-step
// operators of §3, kept here as the reference: Fig. 4's priority-queue
// regroup for a swap, the hoist of a push-up, normalisation as one rewrite
// per push-up, and projection as swaps that sink every fully projected node
// to a leaf, leaf removals and a normalisation. Each result must equal the
// reference byte for byte (WriteFRep) and on the f-tree (ToString),
// validate, read back unchanged through ReadFRep, and, when the rewrite
// ran, commit no union it does not reach.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "bench_util/workload.h"
#include "common/rng.h"
#include "core/aggregate.h"
#include "core/fplan.h"
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
using ops_internal::kNoUnion;
using ops_internal::PathRewrite;

// psi_B: one occurrence of A's union is rebuilt without its B slot, and
// the B-union is hoisted out of its first entry (all copies are equal
// because neither B nor its subtree depends on A).
FRep ReferencePushUp(const FRep& in, AttrId b_attr) {
  const FTree& t = in.tree();
  const int b = t.FindAttr(b_attr);
  const int a = t.node(b).parent;
  const size_t slot_b = ChildSlot(t, b);
  const size_t ka = t.node(a).children.size();
  const int g = t.node(a).parent;
  const size_t slot_a = ChildSlot(t, a);

  FTree new_tree = t;
  new_tree.PushUpTree(b);
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);

  auto rebuild_a = [&](uint32_t id, uint32_t* hoisted_b) {
    UnionRef un = in.u(id);
    *hoisted_b = rw.Copy(un.Child(0, slot_b, ka));
    UnionBuilder na = out.StartUnion(a);
    na.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < ka; ++j) {
        if (j != slot_b) na.AddChild(rw.Copy(un.Child(e, j, ka)));
      }
    }
    return na.Finish();
  };

  // Each G-entry gains the hoisted B-union where PushUpTree puts B: a new
  // last slot under G, or right after A among the roots when A is a root.
  rw.Run(g, [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
    uint32_t hb = kNoUnion;
    for (size_t j = 0; j < k; ++j) {
      if (j != slot_a) {
        nk->push_back(rw.Copy(kids[j]));
        continue;
      }
      nk->push_back(rebuild_a(kids[j], &hb));
      if (g == -1) nk->push_back(hb);
    }
    if (g != -1) nk->push_back(hb);
    return true;
  });
  return out;
}

// eta: one full rewrite per push-up.
FRep ReferenceNormalize(FRep cur) {
  for (int n = cur.tree().FirstLiftable(); n != -1;
       n = cur.tree().FirstLiftable()) {
    cur = ReferencePushUp(cur, cur.tree().node(n).attrs.Min());
  }
  return cur;
}

// chi_{A,B} (Fig. 4): regroups each occurrence of A's union by B-values
// with a min-priority queue of (b value, A-entry index, position).
FRep ReferenceSwap(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  const int a = t.FindAttr(a_attr);
  const int b = t.FindAttr(b_attr);
  const size_t ka = t.node(a).children.size();
  const size_t slot_b = ChildSlot(t, b);
  const size_t slot_a = ChildSlot(t, a);
  std::vector<size_t> ta_slots;  // T_A: A's other children, in order
  for (size_t j = 0; j < ka; ++j) {
    if (j != slot_b) ta_slots.push_back(j);
  }
  // B's children partitioned exactly as SwapTree does (on the old tree).
  const auto& b_children = t.node(b).children;
  const size_t kb = b_children.size();
  std::vector<size_t> tb_slots, tab_slots;
  for (size_t j = 0; j < kb; ++j) {
    if (t.DependentOnSubtree(a, b_children[j])) {
      tab_slots.push_back(j);
    } else {
      tb_slots.push_back(j);
    }
  }

  FTree new_tree = t;
  new_tree.SwapTree(a, b);
  FRep out(std::move(new_tree));
  PathRewrite rw(in, &out, CopyPolicy::kTree);

  auto swap_union = [&](uint32_t id) -> uint32_t {
    UnionRef un = in.u(id);
    using Key = std::tuple<Value, size_t, size_t>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> pq;
    for (size_t e = 0; e < un.size(); ++e) {
      pq.push({in.u(un.Child(e, slot_b, ka)).value(0), e, 0});
    }
    UnionBuilder nb = out.StartUnion(b);
    while (!pq.empty()) {
      const Value bmin = std::get<0>(pq.top());
      UnionBuilder va = out.StartUnion(a);  // the union of paired A's
      std::vector<uint32_t> fb;             // T_B children of bmin, once
      bool captured = false;
      while (!pq.empty() && std::get<0>(pq.top()) == bmin) {
        auto [bv, e, pos] = pq.top();
        pq.pop();
        UnionRef ub = in.u(un.Child(e, slot_b, ka));
        if (!captured) {
          for (size_t j : tb_slots) {
            fb.push_back(rw.Copy(ub.Child(pos, j, kb)));
          }
          captured = true;
        }
        // New A entry: value a_e with children T_A then T_AB.
        va.AddValue(un.value(e));
        for (size_t j : ta_slots) va.AddChild(rw.Copy(un.Child(e, j, ka)));
        for (size_t j : tab_slots) {
          va.AddChild(rw.Copy(ub.Child(pos, j, kb)));
        }
        if (pos + 1 < ub.size()) pq.push({ub.value(pos + 1), e, pos + 1});
      }
      const uint32_t va_id = va.Finish();
      nb.AddValue(bmin);
      for (uint32_t f : fb) nb.AddChild(f);
      nb.AddChild(va_id);  // A is B's last child
    }
    return nb.Finish();
  };

  // B's regrouped union takes A's slot (SwapTree puts B at A's position).
  rw.Run(t.node(a).parent,
         [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
           for (size_t j = 0; j < k; ++j) {
             nk->push_back(j == slot_a ? swap_union(kids[j])
                                       : rw.Copy(kids[j]));
           }
           return true;
         });
  return out;
}

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
      cur = ReferenceSwap(cur, t.node(s.node).attrs.Min(),
                          t.node(s.child).attrs.Min());
    }
  }
  return ReferenceNormalize(cur);
}

std::string Bytes(const FRep& rep) {
  std::stringstream out;
  WriteFRep(out, rep);
  return out.str();
}

bool SameShape(const FTree& x, const FTree& y) {
  if (x.roots() != y.roots()) return false;
  for (int n : x.AliveNodes()) {
    if (!y.node(n).alive || y.node(n).children != x.node(n).children) {
      return false;
    }
  }
  return x.NumAlive() == y.NumAlive();
}

// `got`, computed from `in`, equals the reference `want`. When the shape
// changed the rewrite built every union itself, so each one it committed
// must be reachable.
void ExpectSameRep(const FRep& got, const FRep& want, const FRep& in) {
  got.Validate();
  EXPECT_EQ(got.tree().ToString(), want.tree().ToString());
  const std::string bytes = Bytes(got);
  EXPECT_EQ(bytes, Bytes(want));
  std::istringstream back(bytes);
  EXPECT_EQ(Bytes(ReadFRep(back)), bytes);
  if (!SameShape(got.tree(), in.tree())) {
    size_t reached = 0;
    got.SweepBottomUp([&](int, uint32_t) { ++reached; });
    EXPECT_EQ(got.NumUnions(), reached);
  }
}

// Project(in, keep) equals the reference.
void ExpectMatchesReference(const FRep& in, AttrSet keep,
                            const std::string& what) {
  SCOPED_TRACE(what + " keep=" + keep.ToString());
  ExpectSameRep(Project(in, keep), ReferenceProject(in, keep), in);
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

// A random equi-join query grounded over its optimal f-tree, or with
// `path` over a path of its classes in an order drawn from `rng` (valid,
// and seldom normalised); the spec is drawn from `rng` too.
FRep RandomRep(uint64_t seed, Rng* rng, WorkloadSpec* spec,
               bool path = false) {
  spec->num_rels = static_cast<int>(rng->Uniform(2, 5));
  spec->num_attrs = static_cast<int>(rng->Uniform(spec->num_rels + 1, 10));
  spec->tuples_per_rel = static_cast<size_t>(rng->Uniform(10, 40));
  spec->domain = rng->Uniform(3, 8);
  spec->dist = rng->Uniform(0, 2) == 0 ? Distribution::kZipf
                                       : Distribution::kUniform;
  spec->num_equalities = static_cast<int>(rng->Uniform(1, spec->num_rels));
  spec->seed = seed;
  GeneratedWorkload w = GenerateWorkload(*spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  if (path) {
    std::vector<AttrSet> classes = info.classes;
    std::vector<int> parent_of;
    for (size_t i = 0; i < classes.size(); ++i) {
      std::swap(classes[i],
                classes[static_cast<size_t>(rng->Uniform(
                    static_cast<int64_t>(i),
                    static_cast<int64_t>(classes.size()) - 1))]);
      parent_of.push_back(static_cast<int>(i) - 1);
    }
    return GroundQuery(FTreeFromShape(info, classes, parent_of), rels);
  }
  EdgeCoverSolver solver;
  return GroundQuery(FindOptimalFTree(info, solver).tree, rels);
}

// Random equi-join queries over their optimal f-trees, then the same reps
// after a random swap (often not normalised) and after a constant
// selection or a second swap, each projected on a random keep set.
TEST(ProjectOracle, RandomQueriesAndKeepSets) {
  int projected = 0, removed = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed * 31 + 7);
    WorkloadSpec spec;
    FRep rep = RandomRep(seed, &rng, &spec);
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

// A random applicable swap or push-up on `t` (a push-up half the time
// when there is one); normalisation when there is neither (every node a
// root).
PlanStep RandomStep(const FTree& t, Rng* rng) {
  std::vector<PlanStep> swaps, pushups;
  for (int b : t.AliveNodes()) {
    const int a = t.node(b).parent;
    if (a == -1) continue;
    swaps.push_back(
        PlanStep::MakeSwap(t.node(a).attrs.Min(), t.node(b).attrs.Min()));
    if (t.CanPushUp(b)) {
      pushups.push_back(PlanStep::MakePushUp(t.node(b).attrs.Min()));
    }
  }
  if (swaps.empty()) return PlanStep::MakeNormalize();
  const std::vector<PlanStep>& from =
      !pushups.empty() && rng->Uniform(0, 1) == 0 ? pushups : swaps;
  return from[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(from.size()) - 1))];
}

FRep ReferenceStep(const FRep& in, const PlanStep& step) {
  switch (step.kind) {
    case PlanStep::Kind::kSwap:
      return ReferenceSwap(in, step.a, step.b);
    case PlanStep::Kind::kPushUp:
      return ReferencePushUp(in, step.b);
    default:
      return ReferenceNormalize(in);
  }
}

// Random sequences of swaps and push-ups, on optimal and on path f-trees
// (some after a constant selection): each step by itself, the whole
// sequence as one Restructure, and the normalised end both by Normalize
// and as one Restructure from the start.
TEST(RestructureOracle, RandomSwapAndPushUpSequences) {
  int steps = 0, pushups = 0, nonempty = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 17 + 3);
    WorkloadSpec spec;
    FRep start = RandomRep(seed, &rng, &spec, /*path=*/seed % 2 == 0);
    if (rng.Uniform(0, 3) == 0) {
      std::vector<AttrId> attrs;
      for (AttrId a : start.tree().AllAttrs()) attrs.push_back(a);
      start = SelectConst(start, attrs[static_cast<size_t>(rng.Uniform(
                                     0, static_cast<int64_t>(attrs.size()) -
                                            1))],
                          CmpOp::kEq, rng.Uniform(1, spec.domain));
    }
    if (!start.empty()) ++nonempty;
    FRep want = start;
    const int n = static_cast<int>(rng.Uniform(1, 4));
    for (int i = 0; i < n; ++i) {
      const PlanStep step = RandomStep(want.tree(), &rng);
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   step.ToString());
      FRep next = ReferenceStep(want, step);
      ExpectSameRep(ExecuteStep(want, step), next, want);
      want = std::move(next);
      ++steps;
      if (step.kind == PlanStep::Kind::kPushUp) ++pushups;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameRep(Restructure(start, want.tree()), want, start);
    const FRep norm = ReferenceNormalize(want);
    ExpectSameRep(Normalize(want), norm, want);
    ExpectSameRep(Restructure(start, norm.tree()), norm, start);
    if (HasFailure()) return;
  }
  EXPECT_GE(steps, 700);
  EXPECT_GE(pushups, 100);
  EXPECT_GE(nonempty, 250);
}

// GroupByAggregate's planned swaps in one Restructure equal the swaps one
// by one, and its groups equal those of the reference's restructured rep
// (which needs no further swap). Returns the number of swaps planned.
size_t ExpectGroupByMatchesReference(const FRep& rep, AttrSet group,
                                     const std::vector<AggSpec>& specs) {
  FPlan plan;
  const GroupedRep got = GroupByAggregate(rep, group, specs, nullptr, &plan);
  FRep want = rep;
  FTree target = rep.tree();
  for (const PlanStep& step : plan.steps) {
    want = ReferenceSwap(want, step.a, step.b);
    target = SimulateStepOnTree(target, step);
  }
  ExpectSameRep(Restructure(rep, target), want, rep);
  FPlan none;
  const GroupedRep ref = GroupByAggregate(want, group, specs, nullptr, &none);
  EXPECT_TRUE(none.steps.empty());
  EXPECT_EQ(got.Materialize(), ref.Materialize());
  return plan.steps.size();
}

TEST(RestructureOracle, GroupByPlannedTargets) {
  int planned = 0, multi = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 13 + 5);
    WorkloadSpec spec;
    const FRep rep = RandomRep(seed, &rng, &spec);
    std::vector<AttrId> attrs;
    for (AttrId a : rep.tree().AllAttrs()) attrs.push_back(a);
    AttrSet group;
    for (int i = static_cast<int>(rng.Uniform(1, 3)); i > 0; --i) {
      group.Add(attrs[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(attrs.size()) - 1))]);
    }
    const AttrId summed = attrs[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(attrs.size()) - 1))];
    SCOPED_TRACE("seed " + std::to_string(seed) + " group " +
                 group.ToString());
    const size_t swaps = ExpectGroupByMatchesReference(
        rep, group, {AggSpec{}, AggSpec{AggFn::kSum, summed}});
    if (swaps > 0) ++planned;
    if (swaps > 1) ++multi;
    if (HasFailure()) return;
  }
  EXPECT_GE(planned, 100);
  EXPECT_GE(multi, 50);
}

// The five GROUP BY statements of the benchmark's serve-warm-chain
// workload, at 1/20 scale: each plans the one swap(ck, cnation).
TEST(RestructureOracle, WarmChainGroupBy) {
  const BenchInstance inst = MakeKeyForeignKeyChain(501, 1251, 5000, 1);
  const Database& db = *inst.db;
  Engine engine(inst.db.get());
  for (int p = 1; p <= 5; ++p) {
    const Query q = engine.Parse(
        "SELECT cnation, COUNT(*), SUM(qty) FROM Customer, Orders, Lineitem "
        "WHERE ck = o_ck AND ok = l_ok AND opri = " +
        std::to_string(p) + " GROUP BY cnation");
    const Query core = q.SpjCore();
    const FRep rep = GroundQuery(engine.OptimizeFlat(core).tree,
                                 db.RelationPtrs(core.rels), core.const_preds);
    SCOPED_TRACE("opri = " + std::to_string(p));
    EXPECT_EQ(ExpectGroupByMatchesReference(rep, q.group_by, q.aggregates),
              1u);
  }
}

}  // namespace
}  // namespace fdb
