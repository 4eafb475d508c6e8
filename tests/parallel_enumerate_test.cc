// Parallel chunked enumeration: the morsel planner must partition the
// stream exactly, and one kernel run per ParallelEnumerator chunk —
// concatenated in chunk order — must reproduce the sequential
// TupleEnumerator stream tuple for tuple, for every thread count, morsel
// size, visibility mode and rep shape (including empty and nullary reps).
// Runs under ThreadSanitizer in CI alongside the serve suite.
#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/engine.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "test_util.h"

namespace fdb {
namespace {

using Tuples = std::vector<std::vector<Value>>;

std::vector<AttrId> StreamAttrs(const FRep& rep, bool visible_only) {
  AttrSet s;
  for (int n : rep.tree().AliveNodes()) {
    const FTreeNode& nd = rep.tree().node(n);
    s = s.Union(visible_only ? nd.visible : nd.attrs);
  }
  return s.ToVector();
}

Tuples Drain(TupleEnumerator& en, const std::vector<AttrId>& attrs) {
  Tuples out;
  while (en.Next()) {
    std::vector<Value> t(attrs.size());
    for (size_t c = 0; c < attrs.size(); ++c) t[c] = en.ValueOf(attrs[c]);
    out.push_back(std::move(t));
  }
  return out;
}

Tuples SequentialStream(const FRep& rep, bool visible_only) {
  TupleEnumerator en(rep, visible_only);
  return Drain(en, StreamAttrs(rep, visible_only));
}

// Runs one kernel (full or visible mode) per ParallelEnumerator chunk and
// concatenates the per-chunk streams by chunk index; `chunks_out`
// (optional) receives the chunk count.
Tuples ParallelStream(const FRep& rep, bool visible_only,
                      const EnumerateOptions& opts,
                      size_t* chunks_out = nullptr) {
  const EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
  EXPECT_EQ(k.schema(), StreamAttrs(rep, visible_only));
  const size_t arity = k.schema().size();
  ParallelEnumerator pe(rep, opts, visible_only);
  if (chunks_out != nullptr) *chunks_out = pe.num_chunks();
  std::vector<Tuples> parts(pe.num_chunks());
  pe.ForEachChunk([&](size_t c) {
    std::vector<Value> flat;
    const uint64_t rows = k.Emit(rep, pe.plan().morsels[c].bounds, &flat);
    for (uint64_t r = 0; r < rows; ++r) {
      const auto row = flat.begin() + static_cast<std::ptrdiff_t>(r * arity);
      parts[c].emplace_back(row, row + static_cast<std::ptrdiff_t>(arity));
    }
  });
  Tuples all;
  for (Tuples& p : parts) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// The acceptance matrix of ISSUE 5: thread counts {1,2,3,8} x morsel
// sizes {1, huge} x visible_only {off, on}, parallel output must equal
// the sequential stream tuple for tuple.
void CheckAllModes(const FRep& rep) {
  for (bool visible_only : {false, true}) {
    const Tuples expect = SequentialStream(rep, visible_only);
    for (int threads : {1, 2, 3, 8}) {
      for (double morsel : {1.0, 1e18}) {
        EnumerateOptions opts;
        opts.threads = threads;
        opts.parallel_cutoff = 0;  // plan even tiny reps
        opts.target_morsel_tuples = morsel;
        size_t chunks = 0;
        Tuples got = ParallelStream(rep, visible_only, opts, &chunks);
        EXPECT_EQ(got, expect)
            << "threads=" << threads << " morsel=" << morsel
            << " visible_only=" << visible_only << " chunks=" << chunks;
        if (threads > 1 && morsel == 1.0 && expect.size() > 1) {
          EXPECT_GT(chunks, 1u);  // tiny morsels must actually split
        }
      }
    }
  }
}

Relation RandomRelation(std::vector<AttrId> schema, size_t rows,
                        int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Relation r(std::move(schema));
  std::vector<Value> t(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (Value& v : t) v = rng.Uniform(1, domain);
    r.AddTuple(t);
  }
  return r;
}

TEST(ParallelEnumerate, PathTreeRandomised) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 200, 8, seed), 0);
    CheckAllModes(rep);
  }
}

TEST(ParallelEnumerate, HighFanoutStarJoin) {
  // S(a,b) |x| T(b,c) on a small b-domain: the root union is small and
  // every entry dominates, forcing the planner to pin entries and recurse
  // one level down.
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(99);
  Relation& rs = db.relation(s);
  Relation& rt = db.relation(t);
  for (int64_t i = 1; i <= 160; ++i) {
    rs.AddTuple({i, rng.Uniform(1, 4)});
    rt.AddTuple({rng.Uniform(1, 4), i});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  FdbResult res = engine.EvaluateFlat(q);
  ASSERT_FALSE(res.rep.empty());
  CheckAllModes(res.rep);
}

TEST(ParallelEnumerate, MultiRootProductForest) {
  // Two independent root trees: the first root's union carries only part
  // of the stream weight; morsels over it still cover the cross product.
  Relation r = RandomRelation({0, 1}, 40, 16, 7);
  Relation s = RandomRelation({2, 3}, 30, 16, 8);
  FRep rep = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  CheckAllModes(rep);
}

TEST(ParallelEnumerate, SingleEntryTopUnionRecursesOneLevelDown) {
  // A constant first column gives the top union exactly one entry, so the
  // top frame alone offers nothing to split; the planner must pin it and
  // recurse into the frames below (CheckAllModes asserts that tiny
  // morsels still produce more than one chunk).
  Rng rng(11);
  Relation r({0, 1, 2});
  for (int64_t i = 0; i < 120; ++i) {
    r.AddTuple({Value{7}, rng.Uniform(1, 30), rng.Uniform(1, 6)});
  }
  FRep rep = GroundRelation(r, 0);
  ASSERT_EQ(rep.u(rep.roots()[0]).size(), 1u);
  CheckAllModes(rep);
}

TEST(ParallelEnumerate, DeferredProjectionVisibleOnly) {
  // Invisible nodes (deferred projection) change the visible_only frame
  // set; bounds must be planned against the same frames the enumerator
  // walks.
  Relation r = RandomRelation({0, 1, 2}, 150, 6, 21);
  FRep rep = GroundRelation(r, 0);
  // Project away attribute 1 with deferral: keep the node, clear
  // visibility (mirrors the deferred-projection trees of frep_test).
  rep.tree().node(rep.tree().FindAttr(1)).visible = {};
  rep.Validate();
  CheckAllModes(rep);
}

TEST(ParallelEnumerate, EmptyRep) {
  FRep rep{PathFTree({0, 1}, 0)};
  EXPECT_TRUE(SequentialStream(rep, false).empty());
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    size_t chunks = 99;
    EXPECT_TRUE(ParallelStream(rep, false, opts, &chunks).empty());
    EXPECT_EQ(chunks, 0u);
  }
}

TEST(ParallelEnumerate, NullaryRep) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  for (bool visible_only : {false, true}) {
    for (int threads : {1, 3, 8}) {
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = 0;
      opts.target_morsel_tuples = 1.0;
      size_t chunks = 0;
      Tuples got = ParallelStream(rep, visible_only, opts, &chunks);
      EXPECT_EQ(got.size(), 1u);  // the single empty tuple
      EXPECT_EQ(chunks, 1u);      // nothing to split over
    }
  }
}

TEST(ParallelEnumerate, FullyInvisibleRepVisibleOnly) {
  // All attributes deferred-projected away: one empty visible tuple, for
  // every thread count.
  Relation r = RandomRelation({0, 1}, 20, 5, 33);
  FRep rep = GroundRelation(r, 0);
  for (int n : rep.tree().AliveNodes()) rep.tree().node(n).visible = {};
  EnumerateOptions opts;
  opts.threads = 8;
  opts.parallel_cutoff = 0;
  EXPECT_EQ(ParallelStream(rep, true, opts).size(), 1u);
}

TEST(ParallelEnumerate, MaterializeVisibleParallelMatchesSequential) {
  Relation r = RandomRelation({0, 1, 2}, 300, 10, 77);
  FRep rep = GroundRelation(r, 0);
  rep.tree().node(rep.tree().FindAttr(2)).visible = {};  // deferred proj
  EnumerateOptions sequential;
  sequential.threads = 1;
  Relation seq = MaterializeVisible(rep, sequential);
  for (int threads : {2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 16;
    EXPECT_TRUE(MaterializeVisible(rep, opts) == seq) << threads;
  }
}

TEST(ParallelEnumerate, GroupedMaterializeParallelMatchesSequential) {
  // Random star instance, grouped by the join attribute: the parallel
  // grouped materialisation must produce the identical table (same rows,
  // same pre-sort order) as the sequential walk.
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(1234);
  for (int64_t i = 1; i <= 200; ++i) {
    db.relation(s).AddTuple({i, rng.Uniform(1, 12)});
    db.relation(t).AddTuple({rng.Uniform(1, 12), i});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  FdbResult res = engine.EvaluateFlat(q);
  ASSERT_FALSE(res.rep.empty());
  GroupedRep grouped = GroupByAggregate(
      res.rep, AttrSet::Of({db.Attr("b")}),
      {{AggFn::kCount, 0}, {AggFn::kSum, db.Attr("c")},
       {AggFn::kMin, db.Attr("a")}});
  GroupedTable seq = grouped.Materialize();
  for (int threads : {2, 3, 8}) {
    for (double morsel : {1.0, 64.0}) {
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = 0;
      opts.target_morsel_tuples = morsel;
      EXPECT_TRUE(grouped.Materialize(opts) == seq)
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelEnumerate, EngineMaterializeResult) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.Execute(
      "SELECT * FROM Orders, Store WHERE o_item = s_item");
  EXPECT_TRUE(engine.MaterializeResult(res) == MaterializeVisible(res.rep));
}

TEST(ParallelEnumerate, PlanMorselsIsOrderedAndSized) {
  // Direct planner checks: morsels come out in lexicographic odometer
  // order (prefix-pinned chains, ranges ascending) and their estimates
  // sum to the stream total.
  FRep rep = GroundRelation(RandomRelation({0, 1}, 120, 9, 3), 0);
  MorselPlan plan = PlanMorsels(rep, /*visible_only=*/false,
                                /*target_tuples=*/8);
  ASSERT_GT(plan.morsels.size(), 1u);
  EXPECT_EQ(plan.est_total, rep.CountTuples());
  double est_sum = 0;
  for (size_t m = 0; m < plan.morsels.size(); ++m) {
    const std::vector<EntryBound>& b = plan.morsels[m].bounds;
    ASSERT_FALSE(b.empty());
    for (size_t i = 0; i + 1 < b.size(); ++i) {
      EXPECT_EQ(b[i].begin + 1, b[i].end);  // pinned chain above the range
    }
    if (m > 0) {
      // Lexicographic: the first diverging bound must increase.
      const std::vector<EntryBound>& prev = plan.morsels[m - 1].bounds;
      size_t i = 0;
      while (i < prev.size() && i < b.size() &&
             prev[i].begin == b[i].begin) {
        ++i;
      }
      ASSERT_TRUE(i < prev.size() && i < b.size());
      EXPECT_GE(b[i].begin, prev[i].end);
    }
    est_sum += plan.morsels[m].est_tuples;
  }
  EXPECT_NEAR(est_sum, plan.est_total, 1e-6 * plan.est_total);
}

TEST(ParallelEnumerate, PlanCoversStreamExactly) {
  // Morsel estimates must add up to the plan total, and the per-chunk
  // streams must be non-overlapping contiguous slices (already implied by
  // the equality checks; here: the chunks' kernel row counts sum to the
  // stream length).
  FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 400, 12, 55), 0);
  EnumerateOptions opts;
  opts.threads = 4;
  opts.parallel_cutoff = 0;
  opts.target_morsel_tuples = 32;
  ParallelEnumerator pe(rep, opts, false);
  ASSERT_GT(pe.num_chunks(), 1u);
  double est_sum = 0;
  for (const Morsel& m : pe.plan().morsels) est_sum += m.est_tuples;
  EXPECT_NEAR(est_sum, pe.plan().est_total, 1e-6 * pe.plan().est_total);
  EXPECT_EQ(pe.plan().est_total, rep.CountTuples());
  const EnumKernel k = EnumKernel::Compile(rep.tree(), /*visible_only=*/false);
  std::vector<uint64_t> rows(pe.num_chunks());
  pe.ForEachChunk([&](size_t c) {
    rows[c] = k.CountRows(rep, pe.plan().morsels[c].bounds);
  });
  const uint64_t streamed =
      std::accumulate(rows.begin(), rows.end(), uint64_t{0});
  EXPECT_EQ(static_cast<double>(streamed), rep.CountTuples());
}

}  // namespace
}  // namespace fdb
