// Poisoning semantics of the FRep arena slack (common/asan.h).
//
// Two directions, mirroring the cmake/CheckThreadSafety.cmake probe idea:
//   * every legal arena lifecycle — growth across reallocations, builder
//     scratch recycling, copy/move, MarkEmpty() and rebuild, serialize
//     round-trips — must stay clean under ASan (these tests run in every
//     build, and the ASan CI job runs them with poisoning armed);
//   * a deliberate read past a union's live window into the arena's spare
//     capacity must be *caught* as use-after-poison when ASan is on. That
//     read is exactly the class of bug ASan alone cannot see: the bytes
//     are inside a valid heap chunk, so only the manual slack poisoning
//     turns it into a fault. The death test proves the poisoning is armed,
//     not silently compiled out.
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena_pool.h"
#include "common/asan.h"
#include "core/frep.h"
#include "core/serialize.h"
#include "core/validate.h"

namespace fdb {
namespace {

// One visible node over attribute 0, relation 0 — the smallest tree that
// admits non-empty representations.
FTree OneNodeTree() {
  FTree t;
  int n = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
  t.AttachRoot(n);
  return t;
}

// A parent/child tree (attribute 0 over attribute 1) for nested builders.
FTree TwoNodeTree() {
  FTree t;
  int a = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
  int b = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                    RelSet::Of({0}));
  t.AttachRoot(a);
  t.AttachChild(a, b);
  return t;
}

TEST(AsanPoison, HelpersAreNoOpsWithoutAsan) {
  if (asan::kEnabled) GTEST_SKIP() << "helpers are live under ASan";
  int64_t buf[4] = {1, 2, 3, 4};
  asan::Poison(buf, sizeof(buf));
  EXPECT_EQ(buf[2], 3);  // poisoning compiled to nothing
  asan::Unpoison(buf, sizeof(buf));
  std::vector<int64_t> v;
  v.reserve(8);
  v.push_back(7);
  asan::PoisonTail(v);
  asan::UnpoisonTail(v);
  EXPECT_EQ(v[0], 7);
}

// Growth across many reallocations: every committed window must stay
// readable while the slack beyond it moves and gets re-poisoned.
TEST(AsanPoison, ArenaGrowthKeepsLiveWindowsReadable) {
  FRep rep(OneNodeTree());
  rep.MarkNonEmpty();
  uint32_t last = 0;
  for (int u = 0; u < 64; ++u) {
    UnionBuilder b = rep.StartUnion(0);
    for (int i = 0; i <= u; ++i) b.AddValue(i);
    last = b.Finish();
  }
  rep.roots().push_back(last);
  rep.Validate();
  // Read every committed value through the views (unreachable stubs too —
  // their windows are live arena, only the slack is poisoned).
  int64_t sum = 0;
  for (uint32_t id = 0; id < rep.NumUnions(); ++id) {
    UnionRef un = rep.u(id);
    for (size_t i = 0; i < un.size(); ++i) sum += un.value(i);
  }
  EXPECT_GT(sum, 0);
}

TEST(AsanPoison, MarkEmptyAndRebuild) {
  FRep rep(OneNodeTree());
  rep.MarkNonEmpty();
  {
    UnionBuilder b = rep.StartUnion(0);
    for (int i = 0; i < 100; ++i) b.AddValue(i);
    rep.roots().push_back(b.Finish());
  }
  rep.Validate();
  rep.MarkEmpty();
  EXPECT_TRUE(rep.empty());
  rep.MarkNonEmpty();
  {
    UnionBuilder b = rep.StartUnion(0);
    b.AddValue(42);
    rep.roots().push_back(b.Finish());
  }
  rep.Validate();
  EXPECT_EQ(rep.u(rep.roots()[0]).value(0), 42);
}

TEST(AsanPoison, CopyAndMovePreservePoisonConsistency) {
  FRep rep(OneNodeTree());
  rep.MarkNonEmpty();
  {
    UnionBuilder b = rep.StartUnion(0);
    for (int i = 0; i < 37; ++i) b.AddValue(i * 3);
    rep.roots().push_back(b.Finish());
  }
  FRep copy(rep);
  copy.Validate();
  EXPECT_EQ(copy.u(copy.roots()[0]).value(36 /*last*/), 36 * 3);
  FRep moved(std::move(copy));
  moved.Validate();
  EXPECT_EQ(moved.u(moved.roots()[0]).value(0), 0);
  // Append to the moved-to representation: its arenas must accept growth.
  UnionBuilder b = moved.StartUnion(0);
  b.AddValue(1000);
  b.Finish();
}

// Nested and abandoned builders drive the scratch-recycling poison cycle:
// released buffers are fully poisoned while parked, re-admitted on reuse.
TEST(AsanPoison, BuilderScratchRecycling) {
  FRep rep(TwoNodeTree());
  rep.MarkNonEmpty();
  for (int round = 0; round < 8; ++round) {
    UnionBuilder parent = rep.StartUnion(0);
    for (int e = 0; e < 4; ++e) {
      UnionBuilder child = rep.StartUnion(1);
      for (int i = 0; i < 16; ++i) child.AddValue(i + e);
      parent.AddValue(e);
      parent.AddChild(child.Finish());
    }
    UnionBuilder doomed = rep.StartUnion(1);
    doomed.AddValue(999);
    doomed.Abandon();  // must poison its scratch without faulting
    if (round + 1 == 8) {
      rep.roots().push_back(parent.Finish());
    } else {
      parent.Abandon();
    }
  }
  rep.Validate();
  FDB_VALIDATE_REP(rep);
}

TEST(AsanPoison, SerializeRoundTripUnderPoison) {
  FRep rep(TwoNodeTree());
  rep.MarkNonEmpty();
  UnionBuilder parent = rep.StartUnion(0);
  for (int e = 0; e < 5; ++e) {
    UnionBuilder child = rep.StartUnion(1);
    for (int i = 0; i < 3; ++i) child.AddValue(10 * e + i);
    parent.AddValue(e);
    parent.AddChild(child.Finish());
  }
  rep.roots().push_back(parent.Finish());

  std::ostringstream o1;
  WriteFRep(o1, rep);
  std::istringstream i1(o1.str());
  FRep back = ReadFRep(i1);
  std::ostringstream o2;
  WriteFRep(o2, back);
  EXPECT_EQ(o1.str(), o2.str());
}

// The armed probe: a read one past a union's live window, inside the value
// arena's spare capacity. Without the manual poisoning this read is
// invisible to ASan (the address is a valid heap byte); with it, ASan must
// kill the process with a use-after-poison report.
TEST(AsanPoisonDeathTest, SlackReadIsCaught) {
  if (!asan::kEnabled) {
    GTEST_SKIP() << "probe needs AddressSanitizer (FDB_SANITIZE=ON)";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FRep rep(OneNodeTree());
  rep.MarkNonEmpty();
  {
    // First union fills the initial allocation exactly; the second forces a
    // geometric growth, leaving real slack behind its one-value window.
    UnionBuilder a = rep.StartUnion(0);
    for (int i = 0; i < 5; ++i) a.AddValue(i);
    a.Finish();  // unreachable stub — reachability is irrelevant here
    UnionBuilder b = rep.StartUnion(0);
    b.AddValue(99);
    rep.roots().push_back(b.Finish());
  }
  rep.Validate();
  ASSERT_GT(rep.ValueArenaCapacity(), rep.ValueArenaSize())
      << "probe needs spare capacity behind the live arena";
  UnionRef last = rep.u(rep.roots()[0]);
  EXPECT_DEATH(
      {
        const Value* beyond = last.values() + last.size();
        volatile Value leaked = *beyond;  // first byte of poisoned slack
        (void)leaked;
      },
      "use-after-poison");
}

// An FRep whose one root union holds `n` values, so its value arena is one
// block of n * sizeof(Value) bytes.
std::unique_ptr<FRep> OneUnionRep(size_t n) {
  auto rep = std::make_unique<FRep>(OneNodeTree());
  std::vector<Value> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = static_cast<Value>(i);
  rep->roots().push_back(rep->AddUnion(0, vals.data(), n));
  rep->MarkNonEmpty();
  return rep;
}

// A value arena past the floor (common/arena_pool.h) is parked when its FRep
// dies, and the next arena of its size class takes it back: both sides must
// stay clean, however the block's poison was left.
TEST(AsanPoison, RecycledArenaBlocksAreReadmitted) {
  const size_t n = kArenaBlockFloor / sizeof(Value) + 1000;
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<FRep> rep = OneUnionRep(n);
    rep->Validate();
    UnionRef root = rep->u(rep->roots()[0]);
    ASSERT_EQ(root.size(), n);
    EXPECT_EQ(root.values()[n - 1], static_cast<Value>(n - 1));
    // The copy's arena takes a parked block of the same class (from the
    // round before) and parks it again.
    FRep copy = *rep;
    EXPECT_EQ(copy.u(copy.roots()[0]).values()[n - 1],
              static_cast<Value>(n - 1));
    copy.MarkEmpty();
    rep.reset();
  }
  EXPECT_GE(GetArenaPoolStats().parked_bytes, n * sizeof(Value));
}

// The armed probe for parked blocks: a read through the value window of a
// destroyed FRep whose arena block went to the pool instead of the heap. ASan
// cannot see it as a use-after-free (the block was never freed), so the pool
// must have poisoned the block whole.
TEST(AsanPoisonDeathTest, ParkedBlockReadIsCaught) {
  if (!asan::kEnabled) {
    GTEST_SKIP() << "probe needs AddressSanitizer (FDB_SANITIZE=ON)";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const size_t n = kArenaBlockFloor / sizeof(Value) + 1000;
  std::unique_ptr<FRep> rep = OneUnionRep(n);
  const Value* stale = rep->u(rep->roots()[0]).values();
  const size_t parked = GetArenaPoolStats().parked_bytes;
  rep.reset();
  ASSERT_GT(GetArenaPoolStats().parked_bytes, parked)
      << "the value arena was not parked";
  EXPECT_DEATH(
      {
        volatile Value leaked = stale[n / 2];  // inside the parked block
        (void)leaked;
      },
      "use-after-poison");
}

}  // namespace
}  // namespace fdb
