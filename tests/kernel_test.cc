// Compiled enumeration kernels and the SIMD arena-scan primitives.
//
// The kernel contract is byte-identity: for every representation shape,
// visibility mode and morsel restriction, EnumKernel::Emit must reproduce
// the interpreted TupleEnumerator stream value for value, and
// MaterializeVisible must equal that stream (sorted and deduplicated only
// when the tree projects a middle node) for every thread count. The SIMD
// primitives are checked against their std:: reference implementations
// on randomised windows. Runs under ASan/TSan/UBSan in CI alongside the
// serve suite.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/engine.h"
#include "common/rng.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "core/simd.h"
#include "test_util.h"

namespace fdb {
namespace {

// ---------------------------------------------------------------------------
// SIMD primitives vs std:: references.
// ---------------------------------------------------------------------------

std::vector<Value> SortedUnique(Rng& rng, size_t n, int64_t domain) {
  std::vector<Value> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(rng.Uniform(1, domain));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(Simd, LowerBoundMatchesStd) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Value> v = SortedUnique(rng, 1 + trial * 7u, 200);
    std::vector<Value> keys = v;
    for (Value x : v) {
      keys.push_back(x - 1);
      keys.push_back(x + 1);
    }
    keys.push_back(-1000);
    keys.push_back(1000);
    for (Value key : keys) {
      const size_t expect = static_cast<size_t>(
          std::lower_bound(v.begin(), v.end(), key) - v.begin());
      EXPECT_EQ(simd::LowerBound(v.data(), v.size(), key), expect) << key;
    }
  }
  EXPECT_EQ(simd::LowerBound(nullptr, 0, 5), 0u);
}

TEST(Simd, FindValueMatchesStd) {
  Rng rng(7);
  std::vector<Value> v = SortedUnique(rng, 100, 300);
  for (Value key = 0; key <= 301; ++key) {
    const size_t got = simd::FindValue(v.data(), v.size(), key);
    const bool present = std::binary_search(v.begin(), v.end(), key);
    if (present) {
      ASSERT_LT(got, v.size());
      EXPECT_EQ(v[got], key);
    } else {
      EXPECT_EQ(got, v.size());
    }
  }
  EXPECT_EQ(simd::FindValue(nullptr, 0, 1), 0u);
}

TEST(Simd, CmpMaskMatchesEvalCmp) {
  Rng rng(13);
  std::vector<Value> vals;
  for (int i = 0; i < 257; ++i) vals.push_back(rng.Uniform(-5, 5));
  std::vector<uint8_t> mask(vals.size());
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    for (Value c : {-6, -1, 0, 3, 6}) {
      simd::CmpMask(vals.data(), vals.size(), op, c, mask.data());
      for (size_t i = 0; i < vals.size(); ++i) {
        EXPECT_EQ(mask[i] != 0, EvalCmp(vals[i], op, c))
            << "i=" << i << " v=" << vals[i] << " c=" << c;
      }
    }
  }
  simd::CmpMask(nullptr, 0, CmpOp::kEq, 0, nullptr);  // empty window is a no-op
}

// Reference intersection by nested lookup.
std::vector<std::pair<uint32_t, uint32_t>> RefIntersect(
    const std::vector<Value>& a, const std::vector<Value>& b) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (uint32_t i = 0; i < a.size(); ++i) {
    auto it = std::lower_bound(b.begin(), b.end(), a[i]);
    if (it != b.end() && *it == a[i]) {
      out.emplace_back(i, static_cast<uint32_t>(it - b.begin()));
    }
  }
  return out;
}

TEST(Simd, IntersectSortedMatchesReference) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Value> a = SortedUnique(rng, 1 + trial * 5u, 120);
    std::vector<Value> b = SortedUnique(rng, 1 + trial * 3u, 120);
    std::vector<std::pair<uint32_t, uint32_t>> got;
    const size_t n =
        simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), &got);
    EXPECT_EQ(n, got.size());
    EXPECT_EQ(got, RefIntersect(a, b));
  }
}

TEST(Simd, IntersectSortedGallopsBothWays) {
  // One side >= kGallopRatio times the other exercises the galloping path
  // (and its swapped variant); matches must be identical either way.
  Rng rng(5);
  std::vector<Value> small = SortedUnique(rng, 4, 4000);
  std::vector<Value> large = SortedUnique(rng, 2000, 4000);
  ASSERT_GE(large.size(), simd::kGallopRatio * small.size());
  std::vector<std::pair<uint32_t, uint32_t>> got;
  simd::IntersectSorted(small.data(), small.size(), large.data(), large.size(),
                        &got);
  EXPECT_EQ(got, RefIntersect(small, large));
  got.clear();
  simd::IntersectSorted(large.data(), large.size(), small.data(), small.size(),
                        &got);
  EXPECT_EQ(got, RefIntersect(large, small));
  // Empty windows.
  got.clear();
  EXPECT_EQ(simd::IntersectSorted(nullptr, 0, large.data(), large.size(), &got),
            0u);
  EXPECT_TRUE(got.empty());
}

// ---------------------------------------------------------------------------
// Kernel differential tests: compiled output == interpreted output.
// ---------------------------------------------------------------------------

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

// The interpreted stream flattened in the kernel's schema order — the
// byte-identity reference for Emit.
std::vector<Value> InterpretedFlat(const FRep& rep, const EnumKernel& k) {
  TupleEnumerator en(rep, k.visible_only());
  std::vector<Value> out;
  while (en.Next()) {
    for (AttrId a : k.schema()) out.push_back(en.ValueOf(a));
  }
  return out;
}

// The interpreted visible stream as a relation under the materialiser's
// contract: sorted and deduplicated under the kernel's order when the
// stream is not already a sorted set.
Relation InterpretedRelation(const FRep& rep, const EnumKernel& vk) {
  TupleEnumerator en(rep, /*visible_only=*/true);
  Relation out(vk.schema());
  std::vector<Value> row(vk.schema().size());
  while (en.Next()) {
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = en.ValueOf(vk.schema()[c]);
    }
    out.AddTuple(row);
  }
  if (!vk.distinct()) out.SortByColumns(vk.order());
  return out;
}

uint64_t InterpretedRows(const FRep& rep, bool visible_only) {
  TupleEnumerator en(rep, visible_only);
  uint64_t n = 0;
  while (en.Next()) ++n;
  return n;
}

// Full matrix on one rep: both visibility modes, whole-stream and
// morsel-restricted runs, count mode, and the kernel-aware materialiser
// across thread counts. Everything must equal the interpreted reference.
void CheckKernel(const FRep& rep) {
  for (bool visible_only : {false, true}) {
    EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
    EXPECT_TRUE(k.Matches(rep.tree()));
    const std::vector<Value> expect = InterpretedFlat(rep, k);
    const uint64_t expect_rows = InterpretedRows(rep, visible_only);

    std::vector<Value> got;
    EXPECT_EQ(k.Emit(rep, {}, &got), expect_rows) << visible_only;
    EXPECT_EQ(got, expect) << visible_only;
    EXPECT_EQ(k.CountRows(rep, {}), expect_rows) << visible_only;
    // The window overload writes the same values into caller memory.
    std::vector<Value> window(expect.size());
    EXPECT_EQ(k.Emit(rep, {}, std::span<Value>(window)), expect_rows);
    EXPECT_EQ(window, expect) << visible_only;

    // Morsel-restricted runs, concatenated in plan order, must reproduce
    // the whole stream — the shape ParallelEnumerator executes.
    for (double target : {1.0, 16.0}) {
      MorselPlan plan = PlanMorsels(rep, visible_only, target);
      std::vector<Value> chunked;
      uint64_t rows = 0;
      for (const Morsel& m : plan.morsels) {
        const uint64_t r = k.Emit(rep, m.bounds, &chunked);
        EXPECT_EQ(k.CountRows(rep, m.bounds), r);  // count mode agrees
        rows += r;
      }
      EXPECT_EQ(chunked, expect)
          << "visible_only=" << visible_only << " target=" << target;
      EXPECT_EQ(rows, expect_rows);
    }
  }
  // The materialiser equals the interpreted visible stream, sealed under
  // the kernel's order, for every thread count — with the caller's kernel
  // and with the one it compiles for a null kernel.
  EnumKernel vk = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  const Relation seq = InterpretedRelation(rep, vk);
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 16;
    EXPECT_TRUE(MaterializeVisible(rep, opts, &vk) == seq) << threads;
    EXPECT_TRUE(MaterializeVisible(rep, opts, nullptr) == seq) << threads;
  }
}

TEST(Kernel, PathTreeRandomised) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 200, 8, seed), 0);
    CheckKernel(rep);
  }
}

TEST(Kernel, HighFanoutStarJoin) {
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
  CheckKernel(res.rep);
}

TEST(Kernel, MultiRootProductForest) {
  Relation r = RandomRelation({0, 1}, 40, 16, 7);
  Relation s = RandomRelation({2, 3}, 30, 16, 8);
  FRep rep = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  CheckKernel(rep);
}

TEST(Kernel, SingleEntryTopUnion) {
  Rng rng(11);
  Relation r({0, 1, 2});
  for (int64_t i = 0; i < 120; ++i) {
    r.AddTuple({Value{7}, rng.Uniform(1, 30), rng.Uniform(1, 6)});
  }
  FRep rep = GroundRelation(r, 0);
  ASSERT_EQ(rep.u(rep.roots()[0]).size(), 1u);
  CheckKernel(rep);
}

TEST(Kernel, DeferredProjectionVisibleOnly) {
  // Invisible nodes change the visible_only frame set; the kernel must
  // lower against the same skipped frames the enumerator walks.
  Relation r = RandomRelation({0, 1, 2}, 150, 6, 21);
  FRep rep = GroundRelation(r, 0);
  rep.tree().node(rep.tree().FindAttr(1)).visible = {};
  rep.Validate();
  CheckKernel(rep);
}

TEST(Kernel, EmptyRep) {
  FRep rep{PathFTree({0, 1}, 0)};
  CheckKernel(rep);
  EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  std::vector<Value> out;
  EXPECT_EQ(k.Emit(rep, {}, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Kernel, NullaryRep) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  CheckKernel(rep);
  EnumKernel k = EnumKernel::Compile(rep.tree(), true);
  std::vector<Value> out;
  EXPECT_EQ(k.Emit(rep, {}, &out), 1u);  // one empty row, nothing appended
  EXPECT_TRUE(out.empty());
}

TEST(Kernel, FullyInvisibleRepVisibleOnly) {
  Relation r = RandomRelation({0, 1}, 20, 5, 33);
  FRep rep = GroundRelation(r, 0);
  for (int n : rep.tree().AliveNodes()) rep.tree().node(n).visible = {};
  CheckKernel(rep);
  // The collapsed visible stream is the single empty tuple.
  EnumKernel k = EnumKernel::Compile(rep.tree(), true);
  EXPECT_TRUE(k.schema().empty());
  EXPECT_EQ(k.CountRows(rep, {}), 1u);
  EnumerateOptions opts;
  opts.threads = 8;
  opts.parallel_cutoff = 0;
  EXPECT_EQ(MaterializeVisible(rep, opts, &k).size(), 1u);
}

using testing_util::HasSpan;

TEST(Kernel, MismatchedShapeFallsBack) {
  FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 80, 9, 17), 0);
  FRep other = GroundRelation(RandomRelation({0, 1}, 10, 4, 5), 0);
  EnumKernel wrong = EnumKernel::Compile(other.tree(), /*visible_only=*/true);
  EXPECT_FALSE(wrong.Matches(rep.tree()));
  // A full-tuple kernel is also rejected by the visible-only materialiser.
  EnumKernel full = EnumKernel::Compile(rep.tree(), /*visible_only=*/false);
  EnumKernel right = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  const Relation seq = InterpretedRelation(rep, right);
  EnumerateOptions opts;
  opts.threads = 2;
  opts.parallel_cutoff = 0;
  // A rejected kernel falls back to compiling one from the rep's f-tree,
  // which the trace shows; a matching kernel is reused as is. Every
  // morsel writes into one buffer, so no "concat" step runs.
  const EnumKernel* const rejected[] = {&wrong, &full, nullptr};
  for (const EnumKernel* k : rejected) {
    QueryTrace trace;
    EXPECT_TRUE(MaterializeVisible(rep, opts, k, &trace) == seq);
    EXPECT_TRUE(HasSpan(trace, "kernel-compile"));
    EXPECT_FALSE(HasSpan(trace, "concat"));
  }
  QueryTrace trace;
  EXPECT_TRUE(MaterializeVisible(rep, opts, &right, &trace) == seq);
  EXPECT_FALSE(HasSpan(trace, "kernel-compile"));
  EXPECT_FALSE(HasSpan(trace, "concat"));
}

TEST(Kernel, BoundsContract) {
  FRep rep = GroundRelation(RandomRelation({0, 1}, 10, 4, 5), 0);
  EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  std::vector<Value> out;
  // The EntryBound contract (core/enumerate.h) is enforced.
  EXPECT_THROW(k.Emit(rep, std::vector<EntryBound>{{0, 2}, {0, 1}}, &out),
               FdbError);
  EXPECT_THROW(k.Emit(rep, std::vector<EntryBound>{{1, 1}}, &out), FdbError);
  EXPECT_THROW(
      k.Emit(rep, std::vector<EntryBound>{{0, 1}, {0, 1}, {0, 1}}, &out),
      FdbError);
  // A bound past the union's entries yields the empty stream.
  out.clear();
  EXPECT_EQ(k.Emit(rep, std::vector<EntryBound>{{1000, 1001}}, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Kernel, EmitWindowMustHoldTheStream) {
  FRep rep = GroundRelation(RandomRelation({0, 1}, 30, 6, 9), 0);
  EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  const size_t values = k.CountRows(rep, {}) * k.schema().size();
  std::vector<Value> window(values - 1);
  EXPECT_THROW(k.Emit(rep, {}, std::span<Value>(window)), FdbError);
}

TEST(Kernel, OrderAndDistinctnessFollowTheTree) {
  // Path A -> B -> C: the order is the pre-order of the frames.
  Relation r = RandomRelation({2, 0, 1}, 50, 5, 4);
  FRep rep = GroundRelation(r, 0);  // path in schema order: 2, 0, 1
  EnumKernel full = EnumKernel::Compile(rep.tree(), false);
  EXPECT_EQ(full.schema(), (std::vector<AttrId>{0, 1, 2}));
  EXPECT_EQ(full.order(), (std::vector<size_t>{2, 0, 1}));
  EXPECT_TRUE(full.distinct());
  // Invisible leaf: skipped, still distinct. Invisible middle: kept
  // without a column, not distinct.
  FRep leaf = rep;
  leaf.tree().node(leaf.tree().FindAttr(1)).visible = {};
  EnumKernel kl = EnumKernel::Compile(leaf.tree(), true);
  EXPECT_EQ(kl.order(), (std::vector<size_t>{1, 0}));  // schema {0, 2}
  EXPECT_TRUE(kl.distinct());
  FRep middle = rep;
  middle.tree().node(middle.tree().FindAttr(0)).visible = {};
  EnumKernel km = EnumKernel::Compile(middle.tree(), true);
  EXPECT_EQ(km.order(), (std::vector<size_t>{1, 0}));  // schema {1, 2}
  EXPECT_FALSE(km.distinct());
}

// CountEntries under every pinned chain: each entry equals CountRows
// narrowed to that entry, the entries sum to CountRows over the chain, and
// the split frame's entries are all covered. Recurses until the split
// frame is the innermost one, where every entry counts one row.
void CheckCountEntries(const FRep& rep, const EnumKernel& k,
                       std::vector<EntryBound>* prefix) {
  std::vector<EntryBound> b = *prefix;
  b.emplace_back(0, EnumKernel::kAllEntries);
  const std::vector<uint64_t> counts = k.CountEntries(rep, b);
  ASSERT_FALSE(counts.empty()) << "depth " << prefix->size();
  uint64_t sum = 0;
  for (uint32_t e = 0; e < counts.size(); ++e) {
    b.back() = EntryBound(e, e + 1);
    EXPECT_EQ(counts[e], k.CountRows(rep, b))
        << "depth " << prefix->size() << " entry " << e;
    sum += counts[e];
  }
  EXPECT_EQ(sum, k.CountRows(rep, *prefix)) << "depth " << prefix->size();
  // One past the last entry misses the union.
  b.back() = EntryBound(static_cast<uint32_t>(counts.size()),
                        EnumKernel::kAllEntries);
  EXPECT_TRUE(k.CountEntries(rep, b).empty());
  if (prefix->size() + 1 == k.num_frames()) {
    for (uint64_t c : counts) EXPECT_EQ(c, 1u);  // innermost split frame
    return;
  }
  for (uint32_t e = 0; e < counts.size(); ++e) {
    prefix->emplace_back(e, e + 1);
    CheckCountEntries(rep, k, prefix);
    prefix->pop_back();
  }
}

TEST(Kernel, CountEntriesMatchesCountRows) {
  std::vector<FRep> reps;
  for (uint64_t seed : {1u, 2u, 3u}) {
    reps.push_back(GroundRelation(RandomRelation({0, 1, 2}, 40, 4, seed), 0));
  }
  // Multi-root forest: frame 0's entries carry the second tree's weight.
  reps.push_back(Product(GroundRelation(RandomRelation({0, 1}, 12, 5, 7), 0),
                         GroundRelation(RandomRelation({2, 3}, 9, 5, 8), 1)));
  // Deferred projection: an invisible leaf (skipped in visible mode) and
  // an invisible middle node (kept without a column).
  for (AttrId hidden : {2, 1}) {
    FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 40, 4, 9), 0);
    rep.tree().node(rep.tree().FindAttr(hidden)).visible = {};
    reps.push_back(std::move(rep));
  }
  // A branching tree: the star join's two leaves below one root.
  {
    Database db;
    const RelId s = db.CreateRelation("S", {"a", "b"});
    const RelId t = db.CreateRelation("T", {"b2", "c"});
    Rng rng(5);
    for (int64_t i = 1; i <= 24; ++i) {
      db.relation(s).AddTuple({i, rng.Uniform(1, 3)});
      db.relation(t).AddTuple({rng.Uniform(1, 3), i});
    }
    Engine engine(&db);
    Query q;
    q.rels = {s, t};
    q.equalities = {{db.Attr("b"), db.Attr("b2")}};
    reps.push_back(engine.EvaluateFlat(q).rep);
  }
  for (size_t r = 0; r < reps.size(); ++r) {
    const FRep& rep = reps[r];
    ASSERT_FALSE(rep.empty()) << r;
    for (bool visible_only : {false, true}) {
      SCOPED_TRACE(testing::Message() << "rep " << r << " visible_only "
                                      << visible_only);
      const EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
      ASSERT_GT(k.num_frames(), 0u);
      std::vector<EntryBound> prefix;
      CheckCountEntries(rep, k, &prefix);
      // Ranged frame 0: any [b, e) is the matching slice of the whole
      // frame, and an end past the union is clamped.
      const EntryBound whole(0, EnumKernel::kAllEntries);
      const std::vector<uint64_t> all = k.CountEntries(rep, {&whole, 1});
      ASSERT_EQ(all.size(), k.TopFrameSize(rep));
      const uint32_t len = k.TopFrameSize(rep);
      for (uint32_t b = 0; b < len; b += 2) {
        for (uint32_t e : {b + 1, (b + len + 1) / 2, len + 3}) {
          const EntryBound range(b, e);
          const std::vector<uint64_t> part = k.CountEntries(rep, {&range, 1});
          const uint32_t end = std::min(e, len);
          ASSERT_EQ(part.size(), end - b);
          EXPECT_TRUE(std::equal(part.begin(), part.end(), all.begin() + b))
              << "[" << b << ", " << e << ")";
        }
      }
    }
  }
  // The empty representation has no entries to count.
  FRep empty{PathFTree({0, 1}, 0)};
  const EnumKernel k = EnumKernel::Compile(empty.tree(), false);
  const EntryBound whole(0, EnumKernel::kAllEntries);
  EXPECT_TRUE(k.CountEntries(empty, {&whole, 1}).empty());
  EXPECT_EQ(k.TopFrameSize(empty), 0u);
}

TEST(Kernel, EngineMaterializeResultKernel) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res =
      engine.Execute("SELECT * FROM Orders, Store WHERE o_item = s_item");
  EnumKernel k = EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
  EXPECT_TRUE(engine.MaterializeResult(res, &k) ==
              engine.MaterializeResult(res));
  EXPECT_TRUE(engine.MaterializeResult(res, nullptr) ==
              engine.MaterializeResult(res));
}

}  // namespace
}  // namespace fdb
