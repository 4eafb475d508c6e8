// Fault-injection suite (common/fault.h): arms each FDB_FAULT_POINT site
// and drives QueryServer through the injected fault, asserting the
// governance contract the rest of the repo assumes —
//
//   * every injected fault surfaces as a graceful protocol outcome
//     (ERR / TIMEOUT / RESOURCE), never a crash or a poisoned server;
//   * a retry after disarming returns a byte-identical body to the
//     clean run (failing plans are never cached);
//   * the server's stats stay consistent across faults;
//   * teardown is clean (the whole suite runs under the ASan and TSan
//     presets in CI with FDB_FAULTS=ON).
//
// Without FDB_FAULTS the sites compile out; every test skips itself via
// fault::kEnabled so the suite builds and passes in all configurations.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "bench_util/workload.h"
#include "common/exec_context.h"
#include "common/fault.h"
#include "core/aggregate.h"
#include "core/ground.h"
#include "core/serialize.h"
#include "core/kernel.h"
#include "core/parallel_enumerate.h"
#include "serve/query_server.h"
#include "storage/relation.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::MakeGroceryDb;

#define SKIP_WITHOUT_FAULTS()                                          \
  do {                                                                 \
    if (!fault::kEnabled) {                                            \
      GTEST_SKIP() << "built without FDB_FAULTS; sites compiled out."; \
    }                                                                  \
  } while (0)

const char kSpj[] = "SELECT * FROM Orders, Store WHERE o_item = s_item";
const char kAgg[] =
    "SELECT s_location, COUNT(*) FROM Orders, Store "
    "WHERE o_item = s_item GROUP BY s_location";

ServeOptions Workers(int n) {
  ServeOptions o;
  o.num_workers = n;
  return o;
}

// Every fault site reachable from a cold serve evaluation of kSpj.
const std::vector<std::string>& ServeReachableSites() {
  static const std::vector<std::string> sites = {
      "serve_execute_group",
      "ground_prepare_relation",
      "ground_build_union",
      "frep_arena_commit",
      "serve_render",
  };
  return sites;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(FaultInjectionTest, RegistryCountsHitsAndDisarms) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  QueryServer server(db.get(), Workers(1));
  const uint64_t before = fault::HitCount("frep_arena_commit");
  ASSERT_EQ(server.Query(kSpj).status, ServeStatus::kOk);
  EXPECT_GT(fault::HitCount("frep_arena_commit"), before)
      << "evaluating a join must commit unions through the fault site";
}

// bad_alloc injected at each engine/serve boundary surfaces as RESOURCE
// (TranslateBadAlloc in the worker), and a disarmed retry is byte-identical
// to the clean run.
TEST_F(FaultInjectionTest, BadAllocSurfacesAsResourceAndRetryIsClean) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  for (const std::string& site : ServeReachableSites()) {
    QueryServer server(db.get(), Workers(1));
    const std::string clean = server.Query(kSpj).body;
    ASSERT_FALSE(clean.empty());

    fault::Arm(site, {fault::Kind::kBadAlloc, 0, 1, 0.0});
    ServeResponse faulted = server.Query(kSpj);
    EXPECT_EQ(faulted.status, ServeStatus::kResource)
        << "site " << site << " answered: " << faulted.body;
    EXPECT_NE(faulted.body.find("out of memory"), std::string::npos);

    fault::DisarmAll();
    ServeResponse retry = server.Query(kSpj);
    EXPECT_EQ(retry.status, ServeStatus::kOk) << "site " << site;
    EXPECT_EQ(retry.body, clean)
        << "retry after fault at " << site << " must be byte-identical";

    ServerStats s = server.stats();
    EXPECT_EQ(s.resource_rejected, 1u) << "site " << site;
    EXPECT_EQ(s.cancelled, 1u) << "site " << site;
    EXPECT_LE(s.received,
              s.executed + s.coalesced + s.rejected + s.timeouts +
                  s.resource_rejected)
        << "site " << site;
  }
}

// The aggregate path commits unions through the same arena site.
TEST_F(FaultInjectionTest, BadAllocOnAggregatePathIsGraceful) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  QueryServer server(db.get(), Workers(1));
  ServeResponse clean = server.Query(kAgg);
  ASSERT_EQ(clean.status, ServeStatus::kOk) << clean.body;
  fault::Arm("frep_arena_commit", {fault::Kind::kBadAlloc, 0, 1, 0.0});
  ServeResponse faulted = server.Query(kAgg);
  EXPECT_EQ(faulted.status, ServeStatus::kResource) << faulted.body;
  fault::DisarmAll();
  EXPECT_EQ(server.Query(kAgg).body, clean.body);
}

// Latency injected ahead of the evaluation plus a short deadline: the
// worker sleeps through the deadline, and the next cooperative probe
// unwinds to TIMEOUT. The worker survives and serves the retry.
TEST_F(FaultInjectionTest, LatencyPlusDeadlineTimesOutGracefully) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  QueryServer server(db.get(), Workers(1));
  fault::Arm("serve_execute_group", {fault::Kind::kLatency, 0, 1, 0.25});
  ServeResponse r = server.Query(kSpj, /*deadline_seconds=*/0.05);
  EXPECT_EQ(r.status, ServeStatus::kTimeout) << r.body;
  fault::DisarmAll();
  EXPECT_EQ(server.Query(kSpj).status, ServeStatus::kOk);
  EXPECT_GE(server.stats().timeouts, 1u);
}

// Cancellation injected mid-evaluation: the ambient context flips, the
// site's own probe unwinds as FdbCancelled, and the server answers ERR.
TEST_F(FaultInjectionTest, CancelMidEvaluationAnswersErr) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  QueryServer server(db.get(), Workers(1));
  fault::Arm("ground_build_union", {fault::Kind::kCancel, 0, 1, 0.0});
  ServeResponse r = server.Query(kSpj);
  EXPECT_EQ(r.status, ServeStatus::kError);
  EXPECT_NE(r.body.find("cancelled"), std::string::npos) << r.body;
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.Query(kSpj).status, ServeStatus::kOk);
}

// The enumeration sites are not on the serve render path (it renders the
// factorised expression); drive them directly through materialisation.
TEST_F(FaultInjectionTest, EnumerationSitesUnwindCleanly) {
  SKIP_WITHOUT_FAULTS();
  Relation rel({0, 1});
  for (Value a = 0; a < 64; ++a) {
    for (Value b = 0; b < 8; ++b) rel.AddTuple({a, a * 8 + b});
  }
  FRep rep = GroundRelation(rel, 0);
  EnumKernel kernel = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  EnumerateOptions opts;
  opts.threads = 2;
  opts.parallel_cutoff = 1;  // force morsel dispatch through the pool
  const Relation clean = MaterializeVisible(rep, opts, &kernel, nullptr);

  for (const char* site : {"enumerate_morsel", "kernel_run"}) {
    fault::Arm(site, {fault::Kind::kBadAlloc, 0, 1, 0.0});
    EXPECT_THROW(MaterializeVisible(rep, opts, &kernel, nullptr),
                 std::bad_alloc)
        << site;
    fault::DisarmAll();
    Relation retry = MaterializeVisible(rep, opts, &kernel, nullptr);
    EXPECT_EQ(retry.size(), clean.size()) << site;
    EXPECT_TRUE(testing_util::SameRelation(rep, retry)) << site;
  }
}

// Grouped materialisation dispatches its morsels through the same governed
// ParallelEnumerator::ForEachChunk as the SPJ sink, so the morsel site
// fires there too, and the disarmed retry equals the clean table.
TEST_F(FaultInjectionTest, GroupedMaterializeMorselFaultUnwindsCleanly) {
  SKIP_WITHOUT_FAULTS();
  Relation rel({0, 1});
  for (Value a = 0; a < 64; ++a) {
    for (Value b = 0; b < 8; ++b) rel.AddTuple({a, a * 8 + b});
  }
  const GroupedRep grouped = GroupByAggregate(
      GroundRelation(rel, 0), AttrSet::Of({0}),
      {{AggFn::kCount, 0}, {AggFn::kSum, 1}});
  EnumerateOptions opts;
  opts.threads = 4;
  opts.parallel_cutoff = 0;  // force morsel dispatch through the pool
  opts.target_morsel_tuples = 4;  // 64 groups: many morsels
  const GroupedTable clean = grouped.Materialize(opts);
  ASSERT_EQ(clean.num_rows, 64u);

  fault::Arm("enumerate_morsel", {fault::Kind::kBadAlloc, 0, 1, 0.0});
  EXPECT_THROW(grouped.Materialize(opts), std::bad_alloc);
  fault::DisarmAll();
  EXPECT_TRUE(grouped.Materialize(opts) == clean);
}

std::string FRepBytes(const FRep& rep) {
  std::ostringstream os;
  WriteFRep(os, rep);
  return os.str();
}

// The prepare site fires once per relation per query, whether the engine's
// prepared-relation cache hits or misses.
TEST_F(FaultInjectionTest, PrepareSiteFiresOnCacheHitsAndMisses) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  Engine engine(db.get());
  const Query q = engine.Parse(kSpj);
  for (int round = 0; round < 3; ++round) {  // a miss, then hits
    const uint64_t before = fault::HitCount("ground_prepare_relation");
    engine.EvaluateFlat(q);
    EXPECT_EQ(fault::HitCount("ground_prepare_relation") - before,
              q.rels.size())
        << "round " << round;
  }
  EXPECT_EQ(engine.prepared_cache().size(), q.rels.size());
}

// A fault while the cache misses leaves only finished entries behind, and
// the disarmed retry is byte-identical to a clean engine's result.
TEST_F(FaultInjectionTest, PrepareFaultOnCacheMissLeavesNoPartialEntry) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  const Query q = Engine(db.get()).Parse(kSpj);
  const std::string clean = FRepBytes(Engine(db.get()).EvaluateFlat(q).rep);
  ASSERT_EQ(q.rels.size(), 2u);
  // skip = 0 faults before the first relation, skip = 1 after the first
  // relation was prepared and published.
  for (uint64_t skip : {0u, 1u}) {
    Engine engine(db.get());
    fault::Arm("ground_prepare_relation",
               {fault::Kind::kBadAlloc, skip, 1, 0.0});
    EXPECT_THROW(engine.EvaluateFlat(q), std::bad_alloc) << "skip " << skip;
    fault::DisarmAll();
    EXPECT_EQ(engine.prepared_cache().size(), skip) << "skip " << skip;
    EXPECT_EQ(FRepBytes(engine.EvaluateFlat(q).rep), clean) << "skip " << skip;
    EXPECT_EQ(FRepBytes(engine.EvaluateFlat(q).rep), clean) << "skip " << skip;
    EXPECT_EQ(engine.prepared_cache().size(), q.rels.size());
  }
  // A fault in the build after a cold prepare keeps the finished entries,
  // and the warm retry still matches.
  Engine engine(db.get());
  fault::Arm("ground_build_union", {fault::Kind::kBadAlloc, 0, 1, 0.0});
  EXPECT_THROW(engine.EvaluateFlat(q), std::bad_alloc);
  fault::DisarmAll();
  EXPECT_EQ(engine.prepared_cache().size(), q.rels.size());
  EXPECT_EQ(FRepBytes(engine.EvaluateFlat(q).rep), clean);
}

// The same under a constant predicate, whose first miss only records the
// relation and prepares its kept rows privately: a fault after it leaves
// no prepared entry, and the retries keep matching a clean engine.
TEST_F(FaultInjectionTest, PrepareFaultAfterFilteredFirstSighting) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  const std::string sql = std::string(kSpj) + " AND oid >= 2";
  const Query q = Engine(db.get()).Parse(sql);
  const std::string clean = FRepBytes(Engine(db.get()).EvaluateFlat(q).rep);
  ASSERT_EQ(q.rels.size(), 2u);
  Engine engine(db.get());
  fault::Arm("ground_prepare_relation", {fault::Kind::kBadAlloc, 1, 1, 0.0});
  EXPECT_THROW(engine.EvaluateFlat(q), std::bad_alloc);
  fault::DisarmAll();
  EXPECT_EQ(engine.prepared_cache().size(), 0u);
  EXPECT_EQ(FRepBytes(engine.EvaluateFlat(q).rep), clean);
  EXPECT_EQ(engine.prepared_cache().size(), q.rels.size());
  EXPECT_EQ(FRepBytes(engine.EvaluateFlat(q).rep), clean);
  EXPECT_EQ(engine.prepared_cache().stats().hits, q.rels.size());
}

// Repeated faults do not poison the server: alternate faulted and clean
// queries and check the stats identity at quiescence.
TEST_F(FaultInjectionTest, StatsStayConsistentAcrossRepeatedFaults) {
  SKIP_WITHOUT_FAULTS();
  auto db = MakeGroceryDb();
  QueryServer server(db.get(), Workers(2));
  for (int round = 0; round < 4; ++round) {
    fault::Arm("ground_build_union", {fault::Kind::kBadAlloc, 0, 1, 0.0});
    EXPECT_EQ(server.Query(kSpj).status, ServeStatus::kResource);
    fault::DisarmAll();
    EXPECT_EQ(server.Query(kSpj).status, ServeStatus::kOk);
  }
  ServerStats s = server.stats();
  EXPECT_EQ(s.received, 8u);
  EXPECT_EQ(s.executed + s.coalesced + s.rejected, s.received);
  EXPECT_EQ(s.resource_rejected, 4u);
  EXPECT_EQ(s.cancelled, 4u);
}

// ---- The morsel-parallel grounding build ---------------------------------

// A chain whose root has 8000 candidate rows: at four threads the build
// splits into seven morsels, helpers taking them from the back.
std::unique_ptr<Database> SplitChainDb() {
  return MakeKeyForeignKeyChain(8000, 16000, 24000, 1).db;
}

const std::string kChainSpj =
    std::string("SELECT *") + testing_util::kChainJoin;

EngineOptions Threads(int n) {
  EngineOptions o;
  o.enumerate.threads = n;
  return o;
}

// Evaluates `q` with `ctx` bound, as a serve worker does.
FdbResult EvaluateGoverned(Engine& engine, const Query& q, ExecContext& ctx,
                           QueryTrace* trace = nullptr) {
  ExecContext::Scope scope(&ctx);
  return TranslateBadAlloc(
      [&] { return engine.EvaluateFlat(q, nullptr, trace); }, "ground");
}

// Faults in the build unwind to RESOURCE whichever thread they hit, and a
// disarmed retry is byte-identical. The caller builds morsels from the
// front and helpers from the back, so a hit late in the build, or every
// hit past the middle, lands in a helper's morsel whenever the pool has a
// thread free.
TEST_F(FaultInjectionTest, GroundBuildFaultInHelperMorselIsGraceful) {
  SKIP_WITHOUT_FAULTS();
  auto db = SplitChainDb();
  ServeOptions opts = Workers(1);
  opts.engine = Threads(4);
  QueryServer server(db.get(), opts);
  const uint64_t before = fault::HitCount("ground_build_union");
  const ServeResponse clean = server.Query(kChainSpj);
  ASSERT_EQ(clean.status, ServeStatus::kOk);
  const uint64_t hits = fault::HitCount("ground_build_union") - before;
  ASSERT_GT(hits, 1000u);
  const std::vector<fault::Spec> specs = {
      {fault::Kind::kBadAlloc, hits * 3 / 4, 1, 0.0},
      {fault::Kind::kBadAlloc, hits - 2, 1, 0.0},
      {fault::Kind::kBadAlloc, hits / 2, -1, 0.0},
  };
  for (const fault::Spec& spec : specs) {
    SCOPED_TRACE("skip " + std::to_string(spec.skip));
    fault::Arm("ground_build_union", spec);
    const ServeResponse faulted = server.Query(kChainSpj);
    EXPECT_EQ(faulted.status, ServeStatus::kResource) << faulted.body;
    fault::DisarmAll();
    const ServeResponse retry = server.Query(kChainSpj);
    EXPECT_EQ(retry.status, ServeStatus::kOk);
    EXPECT_EQ(retry.body, clean.body);
  }
}

// A context flagged mid-build stops every morsel at its next probe instead
// of letting the others run to their end.
TEST_F(FaultInjectionTest, CancelledContextStopsEveryMorsel) {
  auto db = SplitChainDb();
  Engine engine(db.get(), Threads(4));
  const Query q = engine.Parse(kChainSpj);
  ExecContext full;
  QueryTrace trace;
  EvaluateGoverned(engine, q, full, &trace);
  ASSERT_GT(testing_util::GroundMorsels(trace), 1u);
  const uint64_t total = full.budget().charged();

  // Over budget halfway: the charge that crosses the limit flags the
  // context, and the other threads stop at their next probe.
  ExecContext over;
  over.budget().set_limit(total / 2);
  EXPECT_THROW(EvaluateGoverned(engine, q, over), FdbResourceExhausted);
  EXPECT_EQ(over.stop_reason(), ExecContext::StopReason::kResource);
  EXPECT_LT(over.budget().charged(), total * 3 / 4);

  // Cancelled before the build: no morsel builds anything.
  ExecContext cancelled;
  cancelled.Cancel();
  EXPECT_THROW(EvaluateGoverned(engine, q, cancelled), FdbCancelled);
  EXPECT_LE(cancelled.budget().charged(), sizeof(UnionHeader));

  if (!fault::kEnabled) return;
  // Cancelled from inside a morsel halfway: the rest of the build stops.
  const uint64_t before = fault::HitCount("ground_build_union");
  EvaluateGoverned(engine, q, full);
  const uint64_t hits = fault::HitCount("ground_build_union") - before;
  fault::Arm("ground_build_union", {fault::Kind::kCancel, hits / 2, 1, 0.0});
  ExecContext mid;
  const uint64_t start = fault::HitCount("ground_build_union");
  EXPECT_THROW(EvaluateGoverned(engine, q, mid), FdbCancelled);
  EXPECT_LT(fault::HitCount("ground_build_union") - start, hits * 3 / 4);
}

// The build charges the same bytes however it is split, so a budget
// verdict never depends on the core count.
TEST_F(FaultInjectionTest, GroundBudgetChargeIsIndependentOfThreads) {
  auto db = SplitChainDb();
  std::vector<uint64_t> charged;
  for (const int threads : {1, 4}) {
    Engine engine(db.get(), Threads(threads));
    const Query q = engine.Parse(kChainSpj);
    ExecContext ctx;
    QueryTrace trace;
    EvaluateGoverned(engine, q, ctx, &trace);
    EXPECT_EQ(testing_util::GroundMorsels(trace) > 1, threads > 1);
    charged.push_back(ctx.budget().charged());
  }
  EXPECT_GT(charged[0], 0u);
  EXPECT_EQ(charged[0], charged[1]);
}

}  // namespace
}  // namespace fdb
