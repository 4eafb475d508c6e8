#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/attrset.h"
#include "common/dictionary.h"
#include "common/exec_context.h"
#include "common/pages.h"
#include "common/rng.h"
#include "common/str.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace fdb {
namespace {

TEST(AttrSet, BasicOps) {
  AttrSet s;
  EXPECT_TRUE(s.Empty());
  s.Add(3);
  s.Add(7);
  s.Add(63);
  EXPECT_EQ(s.Size(), 3);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(4));
  s.Remove(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.Min(), 7u);
}

TEST(AttrSet, SetAlgebra) {
  AttrSet a = AttrSet::Of({1, 2, 3});
  AttrSet b = AttrSet::Of({3, 4});
  EXPECT_EQ(a.Union(b), AttrSet::Of({1, 2, 3, 4}));
  EXPECT_EQ(a.Intersect(b), AttrSet::Of({3}));
  EXPECT_EQ(a.Minus(b), AttrSet::Of({1, 2}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(AttrSet::Of({5})));
  EXPECT_TRUE(a.ContainsAll(AttrSet::Of({1, 3})));
  EXPECT_FALSE(a.ContainsAll(b));
}

TEST(AttrSet, FirstN) {
  EXPECT_EQ(AttrSet::FirstN(0).Size(), 0);
  EXPECT_EQ(AttrSet::FirstN(5), AttrSet::Of({0, 1, 2, 3, 4}));
  EXPECT_EQ(AttrSet::FirstN(64).Size(), 64);
}

TEST(AttrSet, IterationAscending) {
  AttrSet s = AttrSet::Of({9, 1, 33});
  std::vector<AttrId> got = s.ToVector();
  EXPECT_EQ(got, (std::vector<AttrId>{1, 9, 33}));
}

TEST(AttrSet, OutOfRangeThrows) {
  AttrSet s;
  EXPECT_THROW(s.Add(64), FdbError);
  EXPECT_THROW(AttrSet().Min(), FdbError);
}

TEST(Dictionary, InternAndDecode) {
  Dictionary d;
  Value milk = d.Intern("Milk");
  Value cheese = d.Intern("Cheese");
  EXPECT_NE(milk, cheese);
  EXPECT_EQ(d.Intern("Milk"), milk);  // idempotent
  EXPECT_EQ(d.Decode(milk), "Milk");
  EXPECT_EQ(d.Lookup("Cheese"), cheese);
  EXPECT_EQ(d.Lookup("absent"), -1);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_THROW(d.Decode(99), FdbError);
}

// Interning is synchronised and append-only (the serve path parses SQL —
// which interns literals — concurrently with readers decoding result
// values; see common/dictionary.h). Codes must be consistent: one code per
// string, Decode(code) round-trips, and references returned by Decode stay
// valid while other threads intern.
TEST(Dictionary, ConcurrentInternIsConsistent) {
  Dictionary d;
  // Pre-intern a few strings so readers have stable targets.
  const Value pre0 = d.Intern("base0");
  const Value pre1 = d.Intern("base1");
  const std::string& ref0 = d.Decode(pre0);  // must survive growth

  constexpr int kThreads = 8;
  constexpr int kStrings = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<Value>> codes(
      kThreads, std::vector<Value>(kStrings, -1));
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kStrings; ++i) {
        // All threads intern the same kStrings strings, racing on firsts.
        std::string s = "shared" + std::to_string(i);
        Value c = d.Intern(s);
        codes[static_cast<size_t>(t)][static_cast<size_t>(i)] = c;
        if (d.Decode(c) != s) failures.fetch_add(1);
        if (d.Lookup(s) != c) failures.fetch_add(1);
        if (d.Decode(pre1) != "base1") failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Every thread agreed on every code.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(codes[static_cast<size_t>(t)], codes[0]);
  }
  EXPECT_EQ(d.size(), 2u + kStrings);
  EXPECT_EQ(ref0, "base0");  // reference from before the growth still valid
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(1, 20);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 20);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(1, 10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformKeepsItsSeededSequence) {
  // Seeded workloads depend on these draws; pinned from before the range
  // arithmetic moved to uint64_t.
  Rng rng(5);
  const std::vector<int64_t> want = {819, 395, 806, 996, 880, 846, 984, 195};
  for (int64_t w : want) EXPECT_EQ(rng.Uniform(-3, 1000), w);
  Rng wide(9);
  const std::vector<int64_t> want_wide = {
      -3417903805300418490, 570911236262277208, 1645595735889759751,
      2725694719252393016};
  for (int64_t w : want_wide) {
    EXPECT_EQ(wide.Uniform(-4611686018427387904LL, 4611686018427387903LL), w);
  }
}

TEST(Rng, UniformSpansWiderThanInt64Max) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng full(11);
  Rng raw(11);
  // The full range takes every draw as it comes.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(full.Uniform(kMin, kMax), static_cast<int64_t>(raw.Next()));
  }
  // Half ranges: the span is 2^63 (+1), past INT64_MAX.
  Rng rng(12);
  bool low_half = false, high_half = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t neg = rng.Uniform(kMin, 0);
    EXPECT_LE(neg, 0);
    low_half = low_half || neg < kMin / 2;
    const int64_t pos = rng.Uniform(-1, kMax);
    EXPECT_GE(pos, -1);
    high_half = high_half || pos > kMax / 2;
  }
  EXPECT_TRUE(low_half);
  EXPECT_TRUE(high_half);
  EXPECT_EQ(rng.Uniform(kMin, kMin), kMin);
  EXPECT_EQ(rng.Uniform(kMax, kMax), kMax);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, SkewsTowardsSmallValues) {
  Rng rng(4);
  ZipfSampler zipf(100, 1.0);
  size_t ones = 0, total = 20000;
  for (size_t i = 0; i < total; ++i) {
    int64_t v = zipf.Sample(rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    if (v == 1) ++ones;
  }
  // H(100) ~ 5.19, so P(1) ~ 19%; uniform would be 1%.
  EXPECT_GT(ones, total / 10);
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), FdbError);
  EXPECT_THROW(ZipfSampler(10, 0.0), FdbError);
}

TEST(Str, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(Str, TrimAndLower) {
  EXPECT_EQ(Trim("  x y\t"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
}

TEST(Str, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
}

TEST(Check, ThrowsWithMessage) {
  try {
    FDB_CHECK_MSG(false, "broken invariant");
    FAIL() << "expected FdbError";
  } catch (const FdbError& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool (runs under ThreadSanitizer in CI alongside this suite)
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForSmallAndEmptyRanges) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(1, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForMaxThreadsOneRunsOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  pool.ParallelFor(
      100,
      [&](size_t) {
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
      },
      /*max_threads=*/1);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 37) throw FdbError("boom");
                                }),
               FdbError);
  // The pool survives and stays usable.
  std::atomic<int> calls{0};
  pool.ParallelFor(10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 16);
}

TEST(ThreadPool, SharedPoolIsUsable) {
  EXPECT_GE(ThreadPool::Shared().size(), 1);
  std::atomic<int> calls{0};
  ThreadPool::Shared().ParallelFor(64, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ResolveThreadsReadsTheHardwareOnce) {
  const int hardware = ResolveThreads(0);
  EXPECT_GE(hardware, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ResolveThreads(0), hardware);
  EXPECT_EQ(ResolveThreads(3), 3);
  EXPECT_EQ(ResolveThreads(1), 1);
}

TEST(ThreadPool, ConcurrentParallelForsFromManyThreads) {
  // Several caller threads sharing one pool: every loop must still cover
  // its own range exactly (the claim state is per-call).
  ThreadPool pool(3);
  constexpr int kCallers = 6;
  std::vector<std::thread> callers;
  std::vector<std::atomic<size_t>> sums(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        pool.ParallelFor(100, [&](size_t i) { sums[c].fetch_add(i + 1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), 20u * (100u * 101u / 2u));
  }
}

TEST(ExecContext, AmbientScopeBindsAndRestores) {
  EXPECT_EQ(ExecContext::Current(), nullptr);
  ExecContext outer;
  {
    ExecContext::Scope s1(&outer);
    EXPECT_EQ(ExecContext::Current(), &outer);
    ExecContext inner;
    {
      ExecContext::Scope s2(&inner);
      EXPECT_EQ(ExecContext::Current(), &inner);
    }
    EXPECT_EQ(ExecContext::Current(), &outer);
  }
  EXPECT_EQ(ExecContext::Current(), nullptr);
}

TEST(ExecContext, CancelUnwindsAndFirstReasonWins) {
  ExecContext ctx;
  EXPECT_NO_THROW(ctx.CheckCancelled());
  EXPECT_FALSE(ctx.StopRequested());
  ctx.Cancel();
  ctx.Cancel(ExecContext::StopReason::kResource);  // loses the race
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.stop_reason(), ExecContext::StopReason::kCancelled);
  EXPECT_THROW(ctx.CheckCancelled(), FdbCancelled);
  EXPECT_THROW(ctx.CheckCancelled(), FdbError);  // subclass of FdbError
}

TEST(ExecContext, ExpiredDeadlineTripsWithinOneStride) {
  ExecContext ctx;
  ctx.SetDeadline(1e-9);
  // The deadline clock is consulted every kDeadlineStride-th probe per
  // thread, so an expired deadline must surface within one full stride.
  EXPECT_THROW(
      {
        for (int i = 0; i < 600; ++i) ctx.CheckCancelled();
      },
      FdbTimeout);
  EXPECT_EQ(ctx.stop_reason(), ExecContext::StopReason::kTimeout);
  // Once tripped, every subsequent probe throws immediately.
  EXPECT_THROW(ctx.CheckCancelled(), FdbTimeout);
}

TEST(ExecContext, MemoryBudgetIsCumulative) {
  ExecContext ctx;
  ctx.budget().set_limit(100);
  ctx.ChargeMemory(60);
  EXPECT_EQ(ctx.budget().charged(), 60u);
  EXPECT_THROW(ctx.ChargeMemory(60), FdbResourceExhausted);
  // The over-budget charge also flags the context so sibling threads of
  // the same evaluation stop at their next probe.
  EXPECT_EQ(ctx.stop_reason(), ExecContext::StopReason::kResource);
  EXPECT_THROW(ctx.CheckCancelled(), FdbResourceExhausted);
}

TEST(ExecContext, UnlimitedBudgetNeverThrows) {
  ExecContext ctx;  // limit 0 = unlimited
  for (int i = 0; i < 1000; ++i) ctx.ChargeMemory(1 << 20);
  EXPECT_NO_THROW(ctx.CheckCancelled());
}

TEST(ExecContext, AmbientHelpersAreNoOpsWithoutContext) {
  EXPECT_EQ(ExecContext::Current(), nullptr);
  EXPECT_NO_THROW(CheckAmbientCancelled());
  EXPECT_NO_THROW(ChargeAmbientMemory(size_t{1} << 40));
}

TEST(ExecContext, TranslateBadAllocMapsToResourceExhausted) {
  EXPECT_THROW(
      TranslateBadAlloc([] { throw std::bad_alloc(); }, "unit test"),
      FdbResourceExhausted);
  EXPECT_EQ(TranslateBadAlloc([] { return 41 + 1; }, "unit test"), 42);
}

// Page advice. Whether the kernel accepts it depends on the host (THP mode,
// Linux >= 5.14 for MADV_POPULATE_WRITE), so these tests pin the rounding
// and that advice never changes memory; a range with no whole page in it is
// never advised at all.

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

// Two huge pages of huge-page-aligned memory, filled with a byte pattern.
std::unique_ptr<std::byte, FreeDeleter> PatternedHugePages() {
  std::unique_ptr<std::byte, FreeDeleter> p(static_cast<std::byte*>(
      std::aligned_alloc(kHugePageBytes, 2 * kHugePageBytes)));
  for (size_t i = 0; i < 2 * kHugePageBytes; ++i) {
    p.get()[i] = static_cast<std::byte>(i * 7 + 3);
  }
  return p;
}

bool PatternIntact(const std::byte* p) {
  for (size_t i = 0; i < 2 * kHugePageBytes; ++i) {
    if (p[i] != static_cast<std::byte>(i * 7 + 3)) return false;
  }
  return true;
}

TEST(Pages, EmptyRangeIsNeverAdvised) {
  EXPECT_TRUE(AlignedInterior(nullptr, 0, 4096).empty());
  EXPECT_FALSE(AdviseHugePages(nullptr, 0));
  EXPECT_FALSE(PrefaultForWrite(nullptr, 0));
  auto buf = PatternedHugePages();
  EXPECT_TRUE(AlignedInterior(buf.get(), 0, BasePageBytes()).empty());
  EXPECT_FALSE(AdviseHugePages(buf.get(), 0));
  EXPECT_FALSE(PrefaultForWrite(buf.get(), 0));
  EXPECT_TRUE(PatternIntact(buf.get()));
}

TEST(Pages, RangeShorterThanOnePageIsNeverAdvised) {
  const size_t page = BasePageBytes();
  auto buf = PatternedHugePages();
  std::byte* const p = buf.get() + 100;
  EXPECT_TRUE(AlignedInterior(p, page - 200, page).empty());
  EXPECT_FALSE(PrefaultForWrite(p, page - 200));
  // Longer than a page but straddling a boundary: still no whole page.
  EXPECT_TRUE(AlignedInterior(p, page, page).empty());
  EXPECT_FALSE(PrefaultForWrite(p, page));
  EXPECT_FALSE(AdviseHugePages(p, kHugePageBytes));
  EXPECT_TRUE(PatternIntact(buf.get()));
}

TEST(Pages, UnalignedRangeRoundsInwardAtBothEnds) {
  const size_t page = BasePageBytes();
  auto buf = PatternedHugePages();
  std::byte* const base = buf.get();
  const std::span<std::byte> in =
      AlignedInterior(base + 100, 3 * page - 50, page);
  EXPECT_EQ(in.data(), base + page);
  EXPECT_EQ(in.size(), 2 * page);  // [page, 3 page): the end 3 page + 50
                                   // rounds down, the start 100 rounds up
  const std::span<std::byte> huge =
      AlignedInterior(base + 1, 2 * kHugePageBytes - 1, kHugePageBytes);
  EXPECT_EQ(huge.data(), base + kHugePageBytes);
  EXPECT_EQ(huge.size(), kHugePageBytes);
  PrefaultForWrite(base + 100, 3 * page - 50);
  AdviseHugePages(base + 1, 2 * kHugePageBytes - 1);
  EXPECT_TRUE(PatternIntact(base));
}

TEST(Pages, ExactHugePageMultipleIsAdvisedWhole) {
  auto buf = PatternedHugePages();
  std::byte* const base = buf.get();
  const std::span<std::byte> in =
      AlignedInterior(base, 2 * kHugePageBytes, kHugePageBytes);
  EXPECT_EQ(in.data(), base);
  EXPECT_EQ(in.size(), 2 * kHugePageBytes);
  EXPECT_EQ(AlignedInterior(base, 2 * kHugePageBytes, BasePageBytes()).size(),
            2 * kHugePageBytes);
  AdviseHugePages(base, 2 * kHugePageBytes);
  PrefaultForWrite(base, 2 * kHugePageBytes);
  EXPECT_TRUE(PatternIntact(base));
}

}  // namespace
}  // namespace fdb
