// Parallel chunked enumeration: the morsel planner must partition the
// stream exactly, and one kernel run per ParallelEnumerator chunk —
// concatenated in chunk order — must reproduce the sequential
// TupleEnumerator stream tuple for tuple, for every thread count, morsel
// size, visibility mode and rep shape (including empty and nullary reps).
// Runs under ThreadSanitizer in CI alongside the serve suite.
#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/engine.h"
#include "bench_util/workload.h"
#include "common/exec_context.h"
#include "common/fault.h"
#include "common/pages.h"
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
  // order (prefix-pinned chains, ranges ascending) and their row counts
  // sum to the stream total.
  FRep rep = GroundRelation(RandomRelation({0, 1}, 120, 9, 3), 0);
  MorselPlan plan = PlanMorsels(rep, /*visible_only=*/false,
                                /*target_tuples=*/8);
  ASSERT_GT(plan.morsels.size(), 1u);
  EXPECT_EQ(plan.total_rows, rep.CountTuplesExact());
  uint64_t row_sum = 0;
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
    row_sum += plan.morsels[m].rows;
  }
  EXPECT_EQ(row_sum, plan.total_rows);
}

TEST(ParallelEnumerate, PlanCoversStreamExactly) {
  // Morsel row counts must add up to the plan total, and the per-chunk
  // streams must be non-overlapping contiguous slices (already implied by
  // the equality checks; here: each chunk's kernel row count is its
  // morsel's, and they sum to the stream length).
  FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 400, 12, 55), 0);
  EnumerateOptions opts;
  opts.threads = 4;
  opts.parallel_cutoff = 0;
  opts.target_morsel_tuples = 32;
  ParallelEnumerator pe(rep, opts, false);
  ASSERT_GT(pe.num_chunks(), 1u);
  uint64_t row_sum = 0;
  for (const Morsel& m : pe.plan().morsels) row_sum += m.rows;
  EXPECT_EQ(row_sum, pe.plan().total_rows);
  EXPECT_EQ(pe.plan().total_rows, rep.CountTuplesExact());
  const EnumKernel k = EnumKernel::Compile(rep.tree(), /*visible_only=*/false);
  std::vector<uint64_t> rows(pe.num_chunks());
  pe.ForEachChunk([&](size_t c) {
    rows[c] = k.CountRows(rep, pe.plan().morsels[c].bounds);
    EXPECT_EQ(rows[c], pe.plan().morsels[c].rows) << c;
  });
  const uint64_t streamed =
      std::accumulate(rows.begin(), rows.end(), uint64_t{0});
  EXPECT_EQ(streamed, rep.CountTuplesExact());
}

// ---------------------------------------------------------------------------
// The DP planner the kernel-counted one replaced, kept as its oracle: the
// same greedy packing, driven by FRep::SubtreeTupleCounts. Below 2^53 its
// double estimates are exact, so both must give identical bounds and the
// oracle's estimates must equal the exact row counts.

struct DpCtx {
  const FRep& rep;
  const std::vector<PreOrderFrame>& frames;
  const std::vector<double>& counts;
  const std::vector<char>* keep;
  double target;
  std::vector<std::pair<std::vector<EntryBound>, double>>* out;
  std::vector<EntryBound> prefix;
  std::vector<uint32_t> chain_unions;
};

double DpExtCount(const DpCtx& c, const UnionRef& u, size_t e) {
  const std::vector<int>& ch = c.rep.tree().node(u.node()).children;
  const size_t k = ch.size();
  double p = 1.0;
  for (size_t j = 0; j < k; ++j) {
    if (c.keep != nullptr && !(*c.keep)[static_cast<size_t>(ch[j])]) continue;
    p *= c.counts[u.Child(e, j, k)];
  }
  return p;
}

uint32_t DpResolveUnion(const DpCtx& c, size_t f) {
  const PreOrderFrame& pf = c.frames[f];
  if (pf.parent_pos < 0) return c.rep.roots()[pf.slot];
  const size_t p = static_cast<size_t>(pf.parent_pos);
  UnionRef pu = c.rep.u(c.chain_unions[p]);
  const size_t k = c.rep.tree().node(c.frames[p].node).children.size();
  return pu.Child(c.prefix[p].begin, pf.slot, k);
}

void DpSplitFrame(DpCtx& c, size_t frame, uint32_t union_id, double mult) {
  UnionRef u = c.rep.u(union_id);
  c.chain_unions.push_back(union_id);
  uint32_t begin = 0;
  double acc = 0.0;
  auto flush = [&](uint32_t end) {
    if (end > begin) {
      std::vector<EntryBound> b = c.prefix;
      b.emplace_back(begin, end);
      c.out->emplace_back(std::move(b), acc);
    }
    begin = end;
    acc = 0.0;
  };
  const uint32_t len = static_cast<uint32_t>(u.size());
  for (uint32_t e = 0; e < len; ++e) {
    const double w = mult * DpExtCount(c, u, e);
    if (!(w <= c.target) && frame + 1 < c.frames.size() &&
        c.prefix.size() + 1 < 16) {
      flush(e);
      c.prefix.emplace_back(e, e + 1);
      const uint32_t nu = DpResolveUnion(c, frame + 1);
      const double cn = c.counts[nu];
      DpSplitFrame(c, frame + 1, nu, cn > 0 ? w / cn : w);
      c.prefix.pop_back();
      begin = e + 1;
    } else {
      if (acc > 0.0 && !(acc + w <= c.target)) flush(e);
      acc += w;
    }
  }
  flush(len);
  c.chain_unions.pop_back();
}

// The oracle's plan: (bounds, estimate) per morsel and the stream total.
// `target` <= 0 takes the default target for `threads`.
std::vector<std::pair<std::vector<EntryBound>, double>> DpPlan(
    const FRep& rep, bool visible_only, double target, int threads,
    double* total_out) {
  std::vector<char> keep;
  if (visible_only) keep = VisibleKeepMask(rep.tree());
  const std::vector<char>* mask = visible_only ? &keep : nullptr;
  const std::vector<double> counts = rep.SubtreeTupleCounts(mask);
  double total = 1.0;
  const std::vector<int>& roots = rep.tree().roots();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (mask == nullptr || keep[static_cast<size_t>(roots[i])]) {
      total *= counts[rep.roots()[i]];
    }
  }
  *total_out = total;
  if (target <= 0) target = std::max(1.0, total / (threads * 8.0));
  if (!(target >= 1.0)) target = 1.0;
  const std::vector<PreOrderFrame> frames =
      BuildPreOrderFrames(rep.tree(), mask);
  std::vector<std::pair<std::vector<EntryBound>, double>> out;
  DpCtx ctx{rep, frames, counts, mask, target, &out, {}, {}};
  const uint32_t u0 = rep.roots()[frames[0].slot];
  const double c0 = counts[u0];
  DpSplitFrame(ctx, 0, u0, c0 > 0 ? total / c0 : total);
  return out;
}

bool SameBounds(const std::vector<EntryBound>& a,
                const std::vector<EntryBound>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].begin != b[i].begin || a[i].end != b[i].end) return false;
  }
  return true;
}

void ExpectSamePlan(const MorselPlan& plan,
                    const std::vector<std::pair<std::vector<EntryBound>,
                                                double>>& dp,
                    double dp_total) {
  EXPECT_EQ(static_cast<double>(plan.total_rows), dp_total);
  ASSERT_EQ(plan.morsels.size(), dp.size());
  for (size_t m = 0; m < dp.size(); ++m) {
    EXPECT_TRUE(SameBounds(plan.morsels[m].bounds, dp[m].first)) << m;
    EXPECT_EQ(static_cast<double>(plan.morsels[m].rows), dp[m].second) << m;
  }
}

// A random rep of one of five shapes: a path tree, a two-root product
// forest, a path with an invisible leaf or middle node, and an engine
// join (branching tree).
FRep RandomRep(Rng& rng, uint64_t seed) {
  const size_t rows = static_cast<size_t>(rng.Uniform(1, 120));
  const int64_t domain = rng.Uniform(1, 12);
  switch (seed % 5) {
    case 0:
      return GroundRelation(RandomRelation({0, 1, 2}, rows, domain, seed), 0);
    case 1:
      return Product(
          GroundRelation(RandomRelation({0, 1}, rows / 4 + 1, domain, seed),
                         0),
          GroundRelation(
              RandomRelation({2, 3}, rows / 8 + 1, domain, seed + 1), 1));
    case 2:
    case 3: {
      FRep rep =
          GroundRelation(RandomRelation({0, 1, 2}, rows, domain, seed), 0);
      const AttrId hidden = seed % 5 == 2 ? 2 : 1;
      rep.tree().node(rep.tree().FindAttr(hidden)).visible = {};
      return rep;
    }
    default: {
      Database db;
      const RelId s = db.CreateRelation("S", {"a", "b"});
      const RelId t = db.CreateRelation("T", {"b2", "c"});
      for (size_t i = 1; i <= rows; ++i) {
        db.relation(s).AddTuple({static_cast<Value>(i),
                                 rng.Uniform(1, domain)});
        db.relation(t).AddTuple({rng.Uniform(1, domain),
                                 static_cast<Value>(i)});
      }
      Engine engine(&db);
      Query q;
      q.rels = {s, t};
      q.equalities = {{db.Attr("b"), db.Attr("b2")}};
      return engine.EvaluateFlat(q).rep;
    }
  }
}

TEST(ParallelEnumerate, PlanMatchesDpReference) {
  Rng rng(2024);
  size_t planned = 0;
  size_t pinned = 0;  // morsels below a pinned entry
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    const FRep rep = RandomRep(rng, seed);
    if (rep.empty()) continue;
    for (bool visible_only : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " visible_only "
                                      << visible_only);
      const std::vector<char> keep = VisibleKeepMask(rep.tree());
      if (BuildPreOrderFrames(rep.tree(), visible_only ? &keep : nullptr)
              .empty()) {
        continue;  // nullary stream: the whole-stream morsel, no split
      }
      const double target = static_cast<double>(rng.Uniform(1, 40));
      double dp_total = 0;
      const auto dp = DpPlan(rep, visible_only, target, 1, &dp_total);
      ExpectSamePlan(PlanMorsels(rep, visible_only, target), dp, dp_total);
      // The enumerator's default target, frame 0 counted on the pool.
      const int threads = static_cast<int>(rng.Uniform(2, 8));
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = 0;
      ParallelEnumerator pe(rep, opts, visible_only);
      const auto dp_default = DpPlan(rep, visible_only, 0, threads, &dp_total);
      ExpectSamePlan(pe.plan(), dp_default, dp_total);
      ++planned;
      for (const auto& [bounds, est] : dp) pinned += bounds.size() > 1;
    }
  }
  EXPECT_GE(planned, 500u);
  EXPECT_GT(pinned, 100u);  // the pin-and-recurse path is exercised
}

// Materialises `rep` at threads 1/2/4/8 (default options, and with the
// cutoff off) and checks every result is byte-identical to threads = 1.
void ExpectSameAtEveryThreadCount(const FRep& rep) {
  EnumerateOptions one;
  one.threads = 1;
  const Relation seq = MaterializeVisible(rep, one);
  ASSERT_GT(seq.size(), 0u);
  for (int threads : {1, 2, 4, 8}) {
    for (double cutoff : {32768.0, 0.0}) {
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = cutoff;
      EXPECT_TRUE(MaterializeVisible(rep, opts) == seq)  // schema + bytes
          << "threads=" << threads << " cutoff=" << cutoff;
    }
  }
}

TEST(ParallelEnumerate, SkewedRootIsPinnedAndByteIdentical) {
  // One root value holds > 90% of the rows: the planner pins it and splits
  // the frame below, under the pin's exact counts.
  Rng rng(31);
  Relation r({0, 1, 2});
  for (int64_t i = 0; i < 38000; ++i) {
    const Value a = i % 20 == 0 ? rng.Uniform(2, 400) : Value{1};
    r.AddTuple({a, rng.Uniform(1, 4000), rng.Uniform(1, 50)});
  }
  const FRep rep = GroundRelation(r, 0);
  const EnumKernel k = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  const EntryBound first(0, 1);
  ASSERT_GT(k.CountRows(rep, {&first, 1}) * 10, 9 * k.CountRows(rep, {}));
  EnumerateOptions opts;
  opts.threads = 4;
  ParallelEnumerator pe(rep, opts, /*visible_only=*/true);
  ASSERT_GT(pe.num_chunks(), 1u);
  EXPECT_EQ(pe.plan().morsels.front().bounds.size(), 2u)
      << "the dominating root entry must be pinned";
  ExpectSameAtEveryThreadCount(rep);
}

TEST(ParallelEnumerate, LargeTopFrameCountedInRanges) {
  // More than 2 x 1024 root entries: with threads > 1, frame 0 is counted
  // in entry ranges on the pool. The plan equals the sequential count's.
  const FRep rep =
      GroundRelation(RandomRelation({0, 1, 2}, 40000, 6000, 47), 0);
  ASSERT_GT(rep.u(rep.roots()[0]).size(), 4096u);
  for (int threads : {2, 4, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    ParallelEnumerator pe(rep, opts, /*visible_only=*/true);
    double dp_total = 0;
    const auto dp = DpPlan(rep, true, 0, threads, &dp_total);
    ExpectSamePlan(pe.plan(), dp, dp_total);
  }
  ExpectSameAtEveryThreadCount(rep);
}

TEST(ParallelEnumerate, MultiHugePageResultIsByteIdentical) {
  // A star result spanning several huge pages: its buffer is advised,
  // pre-faulted morsel by morsel on the pool and value-initialised before
  // the emit. The bytes equal the kernel's own append-mode stream and are
  // the same at every thread count.
  BenchInstance inst = MakeManyToManyStar(2000, 12, 5);
  Engine engine(inst.db.get());
  const FdbResult res = engine.EvaluateFlat(inst.query);
  const EnumKernel k =
      EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
  std::vector<Value> stream;
  k.Emit(res.rep, {}, &stream);
  EnumerateOptions one;
  one.threads = 1;
  const Relation seq = MaterializeVisible(res.rep, one);
  ASSERT_EQ(seq.arity(), 4u);
  ASSERT_GE(seq.size(), 300000u);
  ASSERT_GE(seq.data().size() * sizeof(Value), 4 * kHugePageBytes);
  EXPECT_TRUE(seq.data() == stream);
  ExpectSameAtEveryThreadCount(res.rep);
}

TEST(ParallelEnumerate, ResultStorageIsChargedBeforeItIsWritten) {
  // The SPJ result buffer is the materialisation's only charge: a budget
  // of exactly its size passes, one byte less stops the query before any
  // morsel runs, and a retry without the limit equals the clean result.
  const FRep rep =
      GroundRelation(RandomRelation({0, 1, 2}, 40000, 6000, 47), 0);
  EnumerateOptions opts;
  opts.threads = 4;
  const Relation clean = MaterializeVisible(rep, opts);
  const uint64_t bytes = clean.data().size() * sizeof(Value);
  {
    ExecContext exact;
    exact.budget().set_limit(bytes);
    ExecContext::Scope scope(&exact);
    EXPECT_TRUE(MaterializeVisible(rep, opts) == clean);
    EXPECT_EQ(exact.budget().charged(), bytes);
  }
  ExecContext over;
  over.budget().set_limit(bytes - 1);
  const uint64_t morsels = fault::HitCount("enumerate_morsel");
  {
    ExecContext::Scope scope(&over);
    QueryTrace trace;
    EXPECT_THROW(MaterializeVisible(rep, opts, nullptr, &trace),
                 FdbResourceExhausted);
    EXPECT_TRUE(testing_util::HasSpan(trace, "emit-buffer"));
  }
  EXPECT_EQ(over.stop_reason(), ExecContext::StopReason::kResource);
  EXPECT_EQ(fault::HitCount("enumerate_morsel"), morsels);  // none ran
  EXPECT_TRUE(MaterializeVisible(rep, opts) == clean);

  // The grouped table, materialised on the caller, charges its key and
  // aggregate storage the same way.
  const GroupedRep grouped = GroupByAggregate(
      rep, AttrSet::Of({0}), {{AggFn::kCount, 0}, {AggFn::kSum, 2}});
  const GroupedTable table = grouped.Materialize();
  const uint64_t table_bytes = table.keys.size() * sizeof(Value) +
                               table.aggs.size() * sizeof(double);
  ASSERT_GT(table_bytes, 0u);
  {
    ExecContext exact;
    exact.budget().set_limit(table_bytes);
    ExecContext::Scope scope(&exact);
    EXPECT_TRUE(grouped.Materialize() == table);
    EXPECT_EQ(exact.budget().charged(), table_bytes);
  }
  {
    ExecContext short_by_one;
    short_by_one.budget().set_limit(table_bytes - 1);
    ExecContext::Scope scope(&short_by_one);
    EXPECT_THROW(grouped.Materialize(), FdbResourceExhausted);
  }
  EXPECT_TRUE(grouped.Materialize() == table);

  // Split into many morsels on four threads, the grouped table is still
  // charged once, with exactly its own bytes.
  EnumerateOptions split;
  split.threads = 4;
  split.parallel_cutoff = 0;
  split.target_morsel_tuples = 64;
  ASSERT_GT(ParallelEnumerator(grouped.rep, split).num_chunks(), 1u);
  {
    ExecContext exact;
    exact.budget().set_limit(table_bytes);
    ExecContext::Scope scope(&exact);
    EXPECT_TRUE(grouped.Materialize(split) == table);
    EXPECT_EQ(exact.budget().charged(), table_bytes);
  }
}

TEST(ParallelEnumerate, CancellationDuringPlanningSurfaces) {
  // The planner's count walk probes the caller's context — on the caller
  // and inside the pool's frame-0 ranges — so a cancelled query stops in
  // planning with FdbCancelled, at every thread count.
  const FRep rep =
      GroundRelation(RandomRelation({0, 1, 2}, 40000, 6000, 47), 0);
  for (int threads : {1, 4}) {
    ExecContext ctx;
    ctx.Cancel();
    ExecContext::Scope scope(&ctx);
    EnumerateOptions opts;
    opts.threads = threads;
    EXPECT_THROW(ParallelEnumerator(rep, opts, /*visible_only=*/true),
                 FdbCancelled)
        << threads;
    QueryTrace trace;
    EXPECT_THROW(MaterializeVisible(rep, opts, nullptr, &trace),
                 FdbCancelled)
        << threads;
    EXPECT_FALSE(testing_util::HasSpan(trace, "emit")) << threads;
  }
  if (fault::kEnabled) {
    // Armed mid-walk: the first kernel run is the planner's.
    fault::Arm("kernel_run", {fault::Kind::kCancel, 0, 1, 0.0});
    ExecContext ctx;
    ExecContext::Scope scope(&ctx);
    EnumerateOptions opts;
    opts.threads = 4;
    EXPECT_THROW(ParallelEnumerator(rep, opts, /*visible_only=*/true),
                 FdbCancelled);
    fault::DisarmAll();
  }
}

}  // namespace
}  // namespace fdb
