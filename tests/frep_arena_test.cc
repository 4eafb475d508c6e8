// Tests for the columnar arena storage behind FRep: UnionBuilder staging,
// UnionRef view stability across arena growth, empty-union handling, memory
// accounting, serialisation round-trips through the arena, and the recycler
// of large arena blocks (common/arena_pool.h).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "bench_util/workload.h"
#include "common/arena_pool.h"
#include "core/enumerate.h"
#include "core/frep.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/serialize.h"
#include "test_util.h"

namespace fdb {
namespace {

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(FRepArena, BuilderAppendOrder) {
  // A -> B over R = {(1,10),(1,20),(2,30)}: children first for one entry,
  // values in bulk for another — staging tolerates any interleaving, the
  // committed windows come out entry-aligned.
  FTree t = PathFTree({0, 1}, 0);
  FRep rep{t};

  UnionBuilder ua = rep.StartUnion(0);
  {
    UnionBuilder ub = rep.StartUnion(1);  // B-union of A=1, built nested
    ub.AddValue(10);
    ub.AddValue(20);
    ua.AddValue(1);
    ua.AddChild(ub.Finish());
  }
  {
    UnionBuilder ub = rep.StartUnion(1);  // B-union of A=2
    ub.AddValue(30);
    ua.AddChild(ub.Finish());  // child appended before the value this time
    ua.AddValue(2);
  }
  EXPECT_EQ(ua.size(), 2u);
  rep.roots().push_back(ua.Finish());
  rep.MarkNonEmpty();
  rep.Validate();

  UnionRef a = rep.u(rep.roots()[0]);
  EXPECT_EQ(a.node(), 0);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.value(0), 1);
  EXPECT_EQ(a.value(1), 2);
  ASSERT_EQ(a.num_children(), 2u);
  UnionRef b1 = rep.u(a.Child(0, 0, 1));
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1.value(0), 10);
  EXPECT_EQ(b1.value(1), 20);
  UnionRef b2 = rep.u(a.Child(1, 0, 1));
  ASSERT_EQ(b2.size(), 1u);
  EXPECT_EQ(b2.value(0), 30);
  EXPECT_EQ(rep.CountTuples(), 3.0);
}

TEST(FRepArena, ViewStableAcrossArenaGrowth) {
  // Take a view of the first committed union, then grow the arena far past
  // any initial capacity; the view must keep reading the same data because
  // it re-resolves offsets through the FRep.
  FTree t;
  int n = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep{t};

  UnionBuilder first = rep.StartUnion(n);
  first.AddValue(7);
  first.AddValue(9);
  UnionRef view = rep.u(first.Finish());
  const Value* raw_before = view.values();

  for (int i = 0; i < 10000; ++i) {
    UnionBuilder filler = rep.StartUnion(n);
    filler.AddValue(i);
    filler.Finish();  // unreachable stubs; they only grow the arena
  }
  // The raw pointer may have moved (reallocation); the view must not care.
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.value(0), 7);
  EXPECT_EQ(view.value(1), 9);
  EXPECT_EQ(view.values()[1], 9);
  (void)raw_before;
}

TEST(FRepArena, BuildersTolerateOutOfOrderFinish) {
  // Operators finish builders LIFO, but the API must not blow up (e.g. in a
  // noexcept destructor) when builders are finished FIFO or via containers.
  FTree t;
  int n = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep{t};

  UnionBuilder first = rep.StartUnion(n);
  UnionBuilder second = rep.StartUnion(n);
  first.AddValue(1);
  second.AddValue(2);
  uint32_t id1 = first.Finish();  // FIFO: first out before second
  uint32_t id2 = second.Finish();
  EXPECT_EQ(rep.u(id1).value(0), 1);
  EXPECT_EQ(rep.u(id2).value(0), 2);

  // And a third builder after the shuffle still stages correctly.
  UnionBuilder third = rep.StartUnion(n);
  third.AddValue(3);
  EXPECT_EQ(rep.u(third.Finish()).value(0), 3);
}

TEST(FRepArena, ValidateRejectsCommittedEmptyUnion) {
  FTree t = PathFTree({0}, 0);
  FRep rep{t};
  UnionBuilder b = rep.StartUnion(0);
  EXPECT_TRUE(b.empty());
  rep.roots().push_back(b.Finish());  // zero-length union as a root
  rep.MarkNonEmpty();
  EXPECT_THROW(rep.Validate(), FdbError);
}

TEST(FRepArena, AbandonLeavesUnreachableStub) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  size_t values_before = rep.NumValues();

  UnionBuilder b = rep.StartUnion(0);
  b.AddValue(99);
  b.Abandon();  // staged data is dropped, id stays as an empty stub

  rep.Validate();  // the stub is unreachable, so invariants still hold
  EXPECT_EQ(rep.NumValues(), values_before);
  EXPECT_EQ(rep.u(static_cast<uint32_t>(rep.NumUnions()) - 1).size(), 0u);
}

TEST(FRepArena, MemoryBytesTracksArena) {
  FRep empty{PathFTree({0, 1}, 0)};
  size_t empty_bytes = empty.MemoryBytes();

  Relation r({0, 1, 2});
  for (Value v = 0; v < 500; ++v) r.AddTuple({v, v % 7, v % 11});
  FRep rep = GroundRelation(r, 0);
  // At least the reachable values must be accounted for.
  EXPECT_GE(rep.MemoryBytes(), rep.NumValues() * sizeof(Value));
  EXPECT_GT(rep.MemoryBytes(), empty_bytes);
}

TEST(FRepArena, MarkEmptyReleasesArenaCapacity) {
  Relation r({0, 1});
  for (Value v = 0; v < 1000; ++v) r.AddTuple({v, v + 1});
  FRep rep = GroundRelation(r, 0);
  ASSERT_GT(rep.MemoryBytes(), 0u);

  rep.MarkEmpty();
  EXPECT_TRUE(rep.empty());
  EXPECT_EQ(rep.MemoryBytes(), 0u);  // shrink_to_fit semantics
  rep.Validate();
}

TEST(FRepArena, CopyDuplicatesArenas) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  FRep copy = rep;  // three buffer memcpys, no per-union allocation
  copy.Validate();
  EXPECT_TRUE(testing_util::SameRelation(copy, r));
  // Emptying the copy must not disturb the original.
  copy.MarkEmpty();
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 3.0);
}

TEST(FRepArena, SerializeRoundTripEquality) {
  // Push the rep through an operator first so the arena contains unreachable
  // dropped-entry stubs; the writer compacts ids and the reader rebuilds a
  // dense arena that represents the same relation.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {5, 9}});
  FRep rep = SelectConst(GroundRelation(r, 0), 1, CmpOp::kLe, 5);

  std::stringstream ss;
  WriteFRep(ss, rep);
  FRep back = ReadFRep(ss);
  back.Validate();

  EXPECT_EQ(back.empty(), rep.empty());
  EXPECT_EQ(back.CountTuples(), rep.CountTuples());
  EXPECT_EQ(back.NumSingletons(), rep.NumSingletons());
  Relation expect = MaterializeVisible(rep);
  EXPECT_TRUE(testing_util::SameRelation(back, expect));
}

TEST(FRepArena, OperatorsKeepArenaValid) {
  // A small end-to-end sweep: ground, product, merge, swap, select, project
  // all construct through UnionBuilder; every intermediate must validate.
  Relation r = MakeRel({0, 1}, {{10, 1}, {20, 1}, {20, 2}});
  Relation s = MakeRel({2, 3}, {{10, 5}, {20, 5}, {30, 7}});
  FRep e1 = GroundRelation(r, 0);
  FRep e2 = GroundRelation(s, 1);
  FRep prod = Product(e1, e2);
  prod.Validate();
  FRep joined = Merge(prod, 0, 2);  // a = c (two root unions)
  joined.Validate();
  FRep swapped = Swap(joined, 0, 1);
  swapped.Validate();
  FRep sel = SelectConst(joined, 3, CmpOp::kEq, 5);
  sel.Validate();
  FRep proj = Project(joined, AttrSet::Of({0, 3}));
  proj.Validate();
  EXPECT_EQ(joined.CountTuples(), 3.0);
}

// ---- The arena block recycler (common/arena_pool.h) ------------------------

const std::string kChainStar =
    std::string("SELECT *") + testing_util::kChainJoin;

// `sql` grounded by a fresh engine at `threads` threads: its WriteFRep
// bytes, once it validates.
std::string GroundedBytes(Database& db, const std::string& sql, int threads) {
  EngineOptions opts;
  opts.enumerate.threads = threads;
  Engine engine(&db, opts);
  const FRep rep = engine.EvaluateFlat(engine.Parse(sql)).rep;
  rep.Validate();
  std::ostringstream os;
  WriteFRep(os, rep);
  return os.str();
}

// The chain of Ground.ParallelBuildIsByteIdentical, and one of the same
// sizes drawn from another seed: other values, union counts within a few
// percent, so both take header blocks of the same size classes (past the
// floor) at every thread count.
std::unique_ptr<Database> ChainA() {
  return MakeKeyForeignKeyChain(8000, 16000, 24000, 1).db;
}
std::unique_ptr<Database> ChainB() {
  return MakeKeyForeignKeyChain(8000, 16000, 24000, 2).db;
}

TEST(ArenaPool, RecycledBlocksGroundTheSameBytes) {
  // The arenas are not zeroed, so a recycled block holds the stale unions
  // of the representation that parked it. Grounding on such blocks must
  // write exactly what grounding on fresh ones does.
  auto a = ChainA();
  auto b = ChainB();
  for (const int threads : {1, 4}) {
    for (const auto& [first, second] :
         {std::pair{a.get(), b.get()}, std::pair{b.get(), a.get()}}) {
      SCOPED_TRACE("threads = " + std::to_string(threads) +
                   (first == a.get() ? ", A then B" : ", B then A"));
      // With nothing parked, the ground takes its blocks from the heap, as
      // the first ground of a process does.
      DrainArenaPool();
      const std::string fresh = GroundedBytes(*second, kChainStar, threads);
      DrainArenaPool();
      GroundedBytes(*first, kChainStar, threads);  // parks its blocks
      const uint64_t hits = GetArenaPoolStats().hits;
      EXPECT_EQ(GroundedBytes(*second, kChainStar, threads), fresh);
      EXPECT_GT(GetArenaPoolStats().hits, hits)
          << "the second ground took no recycled block";
    }
  }
}

TEST(ArenaPool, SecondGroundTakesEveryBlockFromThePool) {
  auto db = ChainA();
  EngineOptions opts;
  opts.enumerate.threads = 1;
  Engine engine(db.get(), opts);
  const Query q = engine.Parse(kChainStar);
  const ArenaPoolStats before = GetArenaPoolStats();
  engine.EvaluateFlat(q);
  const ArenaPoolStats first = GetArenaPoolStats();
  const uint64_t requests =
      first.hits + first.misses - before.hits - before.misses;
  ASSERT_GT(requests, 0u) << "no arena block reached the floor";
  engine.EvaluateFlat(q);
  const ArenaPoolStats second = GetArenaPoolStats();
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.hits - first.hits, requests);
}

TEST(ArenaPool, ParkedBytesStayUnderTheCap) {
  // Representations of many sizes, alive together and then freed together:
  // their blocks at or above the floor add up to more than the cap. Each
  // ground is kept with four copies, whose arenas are sized exactly.
  std::vector<FRep> reps;
  size_t held = 0;
  for (size_t rows = size_t{1} << 13; rows <= size_t{1} << 17; rows <<= 1) {
    Relation r({0, 1, 2});
    for (size_t i = 0; i < rows; ++i) {
      const Value v = static_cast<Value>(i);
      r.AddTuple({v, v % 7, v % 13});
    }
    reps.push_back(GroundRelation(r, 0));
    for (int copy = 0; copy < 4; ++copy) reps.push_back(FRep(reps.back()));
    for (size_t i = reps.size() - 5; i < reps.size(); ++i) {
      held += reps[i].MemoryBytes();
    }
    EXPECT_LE(GetArenaPoolStats().parked_bytes, kArenaPoolCapBytes);
  }
  ASSERT_GT(held, kArenaPoolCapBytes + kArenaPoolCapBytes / 2);
  reps.clear();
  const ArenaPoolStats s = GetArenaPoolStats();
  EXPECT_LE(s.parked_bytes, kArenaPoolCapBytes);
  EXPECT_LE(s.parked_high_water, kArenaPoolCapBytes);
  // The freed blocks filled the pool to within one block of the cap.
  EXPECT_GT(s.parked_bytes, kArenaPoolCapBytes / 2);
}

TEST(ArenaPool, ConcurrentGroundsShareThePool) {
  // Four callers, each grounding on two pool threads, park and take blocks
  // of the same classes at once; every result must match a lone ground.
  // The FDB_TSAN build runs this to check the pool's locking.
  auto a = ChainA();
  auto b = ChainB();
  const std::string want_a = GroundedBytes(*a, kChainStar, 2);
  const std::string want_b = GroundedBytes(*b, kChainStar, 2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        const bool use_a = (i + t) % 2 == 0;
        const std::string got =
            GroundedBytes(use_a ? *a : *b, kChainStar, 2);
        if (got != (use_a ? want_a : want_b)) ++mismatches;
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(GetArenaPoolStats().parked_high_water, kArenaPoolCapBytes);
}

}  // namespace
}  // namespace fdb
