// Tests for common/trace.h (span tree construction, RAII scopes, render
// format) and the engine integration: ExecuteTraced / EXPLAIN ANALYZE span
// structure. Durations are asserted only structurally (children sum to at
// most the parent; totals are positive) — never against wall-clock
// expectations, so the suite cannot flake on slow machines.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "bench_util/workload.h"
#include "common/trace.h"
#include "common/types.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/parallel_enumerate.h"
#include "sql/parser.h"
#include "test_util.h"

namespace fdb {
namespace {

TEST(QueryTrace, OpenCloseBuildsTree) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  int a = t.OpenSpan("parse");
  t.CloseSpan(a, 0.25);
  int b = t.OpenSpan("ground");
  int c = t.OpenSpan("kernel-compile");
  t.CloseSpan(c, 0.0625);
  t.CloseSpan(b, 0.5);
  t.CloseSpan(root, 1.0);

  const std::vector<QueryTrace::Span>& spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[root].name, "query");
  EXPECT_EQ(spans[root].parent, -1);
  EXPECT_EQ(spans[root].depth, 0);
  EXPECT_EQ(spans[a].parent, root);
  EXPECT_EQ(spans[a].depth, 1);
  EXPECT_EQ(spans[b].parent, root);
  EXPECT_EQ(spans[c].parent, b);
  EXPECT_EQ(spans[c].depth, 2);
  EXPECT_EQ(spans[root].seconds, 1.0);
  EXPECT_EQ(spans[c].seconds, 0.0625);
  EXPECT_EQ(t.TotalSeconds(), 1.0);
}

TEST(QueryTrace, CloseMustBeLifo) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  t.OpenSpan("inner");
  EXPECT_THROW(t.CloseSpan(root, 1.0), FdbError);
}

TEST(QueryTrace, RecordSpanAddsClosedLeaf) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  t.RecordSpan("render", 0.125);
  t.CloseSpan(root, 1.0);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].name, "render");
  EXPECT_EQ(t.spans()[1].parent, root);
  EXPECT_EQ(t.spans()[1].seconds, 0.125);
}

TEST(QueryTrace, RowsAndBytesPayloads) {
  QueryTrace t;
  int s = t.OpenSpan("enumerate");
  t.SetRows(s, 42);
  t.SetBytes(s, 1024);
  t.CloseSpan(s, 0.5);
  EXPECT_TRUE(t.spans()[s].has_rows);
  EXPECT_EQ(t.spans()[s].rows, 42u);
  EXPECT_TRUE(t.spans()[s].has_bytes);
  EXPECT_EQ(t.spans()[s].bytes, 1024u);
}

TEST(QueryTrace, ScopeIsRaii) {
  QueryTrace t;
  {
    QueryTrace::Scope root(&t, "query");
    {
      QueryTrace::Scope child(&t, "ground");
      child.SetBytes(99);
    }
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].name, "query");
  EXPECT_EQ(t.spans()[1].name, "ground");
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_TRUE(t.spans()[1].has_bytes);
  EXPECT_GE(t.spans()[0].seconds, 0.0);
  // The parent's wall time covers the child's.
  EXPECT_GE(t.spans()[0].seconds, t.spans()[1].seconds);
}

TEST(QueryTrace, NullTraceScopeIsANoOp) {
  QueryTrace::Scope scope(nullptr, "query");
  scope.SetRows(1);
  scope.SetBytes(2);
  // Nothing to assert beyond "does not crash": the scope never touches a
  // trace and never reads the clock.
}

TEST(QueryTrace, ChildrenSumAtMostParent) {
  QueryTrace t;
  {
    QueryTrace::Scope root(&t, "query");
    for (int i = 0; i < 3; ++i) {
      QueryTrace::Scope child(&t, "phase");
      // Do a little real work so child durations are non-trivial.
      volatile uint64_t x = 0;
      for (int j = 0; j < 10000; ++j) x = x + static_cast<uint64_t>(j);
    }
  }
  const auto& spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  double child_sum = 0.0;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, 0);
    child_sum += spans[i].seconds;
  }
  EXPECT_LE(child_sum, spans[0].seconds);
}

// Masks "time=<value>" fields so render output can be compared exactly
// without depending on wall times.
std::string MaskTimes(const std::string& rendered) {
  std::string out;
  std::istringstream is(rendered);
  std::string line;
  while (std::getline(is, line)) {
    size_t pos;
    while ((pos = line.find("time=")) != std::string::npos) {
      size_t end = line.find_first_of(" \n", pos);
      if (end == std::string::npos) end = line.size();
      line.replace(pos, end - pos, "T");
    }
    // The total line carries a time too.
    if (line.rfind("-- total", 0) == 0) line = "-- total";
    out += line;
    out += '\n';
  }
  return out;
}

TEST(QueryTrace, RenderFormat) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  int g = t.OpenSpan("ground");
  t.SetBytes(g, 2048);
  t.CloseSpan(g, 0.002);
  int e = t.OpenSpan("enumerate");
  t.SetRows(e, 7);
  t.CloseSpan(e, 0.001);
  t.CloseSpan(root, 0.004);

  EXPECT_EQ(MaskTimes(t.Render()),
            "EXPLAIN ANALYZE\n"
            "query  T\n"
            "  ground  T bytes=2048\n"
            "  enumerate  T rows=7\n"
            "-- total\n");
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

void LoadDemo(Database* db) {
  RelId orders = db->CreateRelation("orders", {"oid", "item:str"});
  RelId stock = db->CreateRelation("stock", {"sitem:str", "warehouse:str"});
  db->Insert(orders, {int64_t{1}, "Milk"});
  db->Insert(orders, {int64_t{1}, "Cheese"});
  db->Insert(orders, {int64_t{2}, "Melon"});
  db->Insert(stock, {"Milk", "North"});
  db->Insert(stock, {"Milk", "South"});
  db->Insert(stock, {"Cheese", "South"});
  db->Insert(stock, {"Melon", "North"});
}

// name -> index of its first occurrence.
std::map<std::string, int> IndexByName(const QueryTrace& t) {
  std::map<std::string, int> by_name;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    by_name.emplace(t.spans()[i].name, static_cast<int>(i));
  }
  return by_name;
}

TEST(EngineTrace, ExecuteTracedSpjSpanStructure) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  QueryTrace trace;
  Query q = engine.Parse("SELECT * FROM orders, stock WHERE item = sitem");
  {
    QueryTrace::Scope root(&trace, "query");
    engine.ExecuteTraced(q, &trace);
  }

  std::map<std::string, int> spans = IndexByName(trace);
  ASSERT_TRUE(spans.count("query"));
  ASSERT_TRUE(spans.count("f-tree-search"));
  ASSERT_TRUE(spans.count("ground"));
  ASSERT_TRUE(spans.count("morsel-plan"));
  ASSERT_TRUE(spans.count("enumerate"));
  const auto& all = trace.spans();
  int root = spans["query"];
  EXPECT_EQ(all[root].parent, -1);
  EXPECT_EQ(all[spans["ground"]].parent, root);
  EXPECT_TRUE(all[spans["ground"]].has_bytes);
  EXPECT_GT(all[spans["ground"]].bytes, 0u);
  // Ground splits into prepare (filter + sort, cached across queries) and
  // the leapfrog build, which carries the rep bytes.
  ASSERT_TRUE(spans.count("ground-prepare"));
  ASSERT_TRUE(spans.count("ground-build"));
  EXPECT_EQ(all[spans["ground-prepare"]].parent, spans["ground"]);
  EXPECT_EQ(all[spans["ground-build"]].parent, spans["ground"]);
  EXPECT_EQ(all[spans["ground-prepare"]].rows, 3u + 4u);  // orders + stock
  EXPECT_TRUE(all[spans["ground-prepare"]].has_bytes);    // a cold cache
  EXPECT_GT(all[spans["ground-prepare"]].bytes, 0u);
  EXPECT_EQ(all[spans["ground-build"]].bytes, all[spans["ground"]].bytes);
  // The search span's rows are the subproblems it priced.
  const auto& search = all[spans["f-tree-search"]];
  EXPECT_TRUE(search.has_rows);
  EXPECT_GT(search.rows, 0u);
  EXPECT_EQ(search.rows, engine.OptimizeFlat(q).explored);
  EXPECT_TRUE(all[spans["enumerate"]].has_rows);
  EXPECT_EQ(all[spans["enumerate"]].rows, 4u);  // the demo join has 4 rows
  // Materialisation compiles its kernel from the result's f-tree first,
  // then plans the morsels.
  ASSERT_TRUE(spans.count("kernel-compile"));
  EXPECT_EQ(all[spans["kernel-compile"]].parent, root);
  EXPECT_LT(spans["kernel-compile"], spans["morsel-plan"]);
  // The sink's own steps nest under enumerate. The join's f-tree projects
  // no middle node, so the stream is already a sorted set: no sort runs.
  // The kernel writes every morsel into one buffer: nothing concatenates.
  ASSERT_TRUE(spans.count("emit"));
  EXPECT_EQ(all[spans["emit"]].parent, spans["enumerate"]);
  EXPECT_EQ(all[spans["emit"]].rows, 4u);
  // The buffer's set-up (reserve, page advice, pre-fault, value-init) is
  // its own step inside emit, carrying the buffer's size: 4 rows of the
  // join's 4 visible columns.
  ASSERT_TRUE(spans.count("emit-buffer"));
  const auto& buffer = all[spans["emit-buffer"]];
  EXPECT_EQ(buffer.parent, spans["emit"]);
  EXPECT_TRUE(buffer.has_bytes);
  EXPECT_EQ(buffer.bytes, 4u * 4u * sizeof(Value));
  EXPECT_LT(buffer.seconds, all[spans["emit"]].seconds);
  EXPECT_FALSE(spans.count("sort-dedup"));
  EXPECT_FALSE(spans.count("concat"));

  // Direct children of the root account for at most its wall time.
  double child_sum = 0.0;
  for (const auto& s : all) {
    if (s.parent == root) child_sum += s.seconds;
  }
  EXPECT_LE(child_sum, all[root].seconds);
  EXPECT_GT(trace.TotalSeconds(), 0.0);
}

TEST(EngineTrace, SinkSpansOfEveryMaterializePath) {
  // A path f-tree A -> B -> C whose middle node B is projected away but
  // kept (deferred): values of B can repeat (A, C) rows, so the sink sorts
  // and deduplicates, and says so. The rows: (1,1,5) (1,2,5) (2,1,6): the
  // stream emits (1,5) twice.
  Relation r({0, 1, 2});
  r.AddTuple({1, 1, 5});
  r.AddTuple({1, 2, 5});
  r.AddTuple({2, 1, 6});
  FRep middle = GroundRelation(r, 0);
  middle.tree().node(middle.tree().FindAttr(1)).visible = {};
  const FRep plain = GroundRelation(r, 0);

  const FRep* const reps[] = {&plain, &middle};
  for (const FRep* rep : reps) {
    const bool sorts = rep == &middle;
    const EnumKernel kernel = EnumKernel::Compile(rep->tree(), true);
    const EnumKernel* const kernels[] = {&kernel, nullptr};
    for (int threads : {1, 2}) {
      for (const EnumKernel* k : kernels) {
        EnumerateOptions opts;
        opts.threads = threads;
        opts.parallel_cutoff = 0;
        opts.target_morsel_tuples = 1;
        QueryTrace trace;
        const Relation out = MaterializeVisible(*rep, opts, k, &trace);
        std::map<std::string, int> spans = IndexByName(trace);
        const auto& all = trace.spans();
        ASSERT_TRUE(spans.count("enumerate"));
        ASSERT_TRUE(spans.count("emit"));
        EXPECT_EQ(all[spans["emit"]].parent, spans["enumerate"]);
        EXPECT_EQ(all[spans["emit"]].rows, 3u);  // tuples emitted
        ASSERT_TRUE(spans.count("emit-buffer"));
        EXPECT_EQ(all[spans["emit-buffer"]].parent, spans["emit"]);
        EXPECT_EQ(all[spans["emit-buffer"]].bytes,  // 3 rows emitted
                  3u * out.arity() * sizeof(Value));
        EXPECT_LT(all[spans["emit-buffer"]].seconds,
                  all[spans["emit"]].seconds);
        EXPECT_EQ(all[spans["enumerate"]].rows, out.size());
        ASSERT_EQ(spans.count("sort-dedup") > 0, sorts)
            << "threads=" << threads << " kernel=" << (k != nullptr);
        // Only a call without a kernel compiles one.
        EXPECT_EQ(spans.count("kernel-compile") > 0, k == nullptr);
        EXPECT_FALSE(spans.count("concat"));
        if (sorts) {
          EXPECT_EQ(all[spans["sort-dedup"]].parent, spans["enumerate"]);
          EXPECT_EQ(all[spans["sort-dedup"]].rows, 2u);  // rows kept
          EXPECT_EQ(out.size(), 2u);
        }
      }
    }
  }
}

TEST(EngineTrace, ExecuteTracedAggregateSpanStructure) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  QueryTrace trace;
  {
    QueryTrace::Scope root(&trace, "query");
    Query q = engine.Parse(
        "SELECT warehouse, COUNT(*) FROM orders, stock "
        "WHERE item = sitem GROUP BY warehouse");
    engine.ExecuteTraced(q, &trace);
  }
  std::map<std::string, int> spans = IndexByName(trace);
  ASSERT_TRUE(spans.count("restructure-aggregate"));
  ASSERT_TRUE(spans.count("materialize-groups"));
  // The one restructuring rewrite (warehouse sits below item on the
  // join's tree, so at least one swap is planned) and the collapse are
  // child spans, each shorter than the whole.
  const int agg = spans["restructure-aggregate"];
  int restructures = 0, collapses = 0;
  for (const QueryTrace::Span& s : trace.spans()) {
    EXPECT_NE(s.name, "swap");
    if (s.name != "restructure" && s.name != "collapse") continue;
    const bool restructure = s.name == "restructure";
    (restructure ? restructures : collapses) += 1;
    EXPECT_EQ(s.parent, agg) << s.name;
    EXPECT_LT(s.seconds, trace.spans()[agg].seconds) << s.name;
    EXPECT_EQ(s.has_bytes, restructure) << s.name;
    EXPECT_EQ(s.has_rows, restructure) << s.name;
    if (restructure) {
      EXPECT_GE(s.rows, 1u);
    }
  }
  EXPECT_EQ(restructures, 1);
  EXPECT_EQ(collapses, 1);
  EXPECT_TRUE(trace.spans()[spans["materialize-groups"]].has_rows);
  EXPECT_EQ(trace.spans()[spans["materialize-groups"]].rows, 2u);
  // No enumeration spans: aggregate output is a grouped table.
  EXPECT_FALSE(spans.count("enumerate"));
}

TEST(EngineTrace, PretreeSkipsSearchSpan) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  Query q = engine.Parse("SELECT * FROM orders, stock WHERE item = sitem");
  FTreeSearchResult pre = engine.OptimizeFlat(q);
  QueryTrace trace;
  engine.EvaluateFlat(q, &pre, &trace);
  std::map<std::string, int> spans = IndexByName(trace);
  EXPECT_FALSE(spans.count("f-tree-search"));
  EXPECT_TRUE(spans.count("ground"));
}

TEST(EngineTrace, WarmGroundPreparesNothing) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  Query q = engine.Parse(
      "SELECT * FROM orders, stock WHERE item = sitem AND warehouse = 'North'");
  // Under its predicate, stock is first only recorded (the query sorts its
  // kept rows) and kept on the next miss; from then on nothing is sorted.
  for (bool cold : {true, true, false}) {
    QueryTrace trace;
    engine.EvaluateFlat(q, nullptr, &trace);
    std::map<std::string, int> spans = IndexByName(trace);
    ASSERT_TRUE(spans.count("ground-prepare"));
    const QueryTrace::Span& prepare = trace.spans()[spans["ground-prepare"]];
    // Bytes only when this query sorted a relation; rows either way.
    EXPECT_EQ(prepare.has_bytes, cold);
    EXPECT_EQ(prepare.rows, 3u + 2u);  // orders + stock in the North
  }
}

// The ground-build span counts the build's morsels: one for a small
// query, several for the 100k chain at four threads.
TEST(EngineTrace, GroundBuildRecordsMorsels) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  QueryTrace small;
  engine.EvaluateFlat(
      engine.Parse("SELECT * FROM orders, stock WHERE item = sitem"), nullptr,
      &small);
  EXPECT_EQ(testing_util::GroundMorsels(small), 1u);

  auto chain = MakeKeyForeignKeyChain(10001, 25001, 100000, 1).db;
  EngineOptions opts;
  opts.enumerate.threads = 4;
  Engine parallel(chain.get(), opts);
  QueryTrace big;
  parallel.EvaluateFlat(
      parallel.Parse(std::string("SELECT *") + testing_util::kChainJoin),
      nullptr, &big);
  EXPECT_GT(testing_util::GroundMorsels(big), 1u);

  // The split build times its splice inside ground-build; the one-morsel
  // build has no splice.
  EXPECT_FALSE(testing_util::HasSpan(small, "ground-splice"));
  std::map<std::string, int> spans = IndexByName(big);
  ASSERT_TRUE(spans.count("ground-splice"));
  const QueryTrace::Span& s = big.spans()[spans["ground-splice"]];
  EXPECT_EQ(s.parent, spans["ground-build"]);
  EXPECT_TRUE(s.has_rows);
  EXPECT_LT(s.rows, testing_util::GroundMorsels(big));
  EXPECT_TRUE(s.has_bytes);
  EXPECT_EQ(s.bytes == 0, s.rows == 0);
}

TEST(EngineTrace, ExplainAnalyzeExecute) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  FdbResult res = engine.Execute(
      "EXPLAIN ANALYZE SELECT * FROM orders, stock WHERE item = sitem");
  ASSERT_TRUE(res.explain.has_value());
  const std::string& body = *res.explain;
  EXPECT_EQ(body.rfind("EXPLAIN ANALYZE\n", 0), 0u);
  EXPECT_NE(body.find("query"), std::string::npos);
  EXPECT_NE(body.find("parse"), std::string::npos);
  const size_t search = body.find("f-tree-search");
  ASSERT_NE(search, std::string::npos);
  EXPECT_NE(body.substr(search, body.find('\n', search) - search)
                .find(" rows="),
            std::string::npos);
  EXPECT_NE(body.find("ground"), std::string::npos);
  EXPECT_NE(body.find("    ground-prepare  "), std::string::npos);
  EXPECT_NE(body.find("    ground-build  "), std::string::npos);
  EXPECT_NE(body.find("enumerate"), std::string::npos);
  EXPECT_NE(body.find("-- total"), std::string::npos);
  // The factorised result still rides along.
  EXPECT_GT(res.FlatTuples(), 0.0);
}

TEST(EngineTrace, PlainExecuteHasNoExplain) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  FdbResult res =
      engine.Execute("SELECT * FROM orders, stock WHERE item = sitem");
  EXPECT_FALSE(res.explain.has_value());
}

TEST(SqlParse, IsExplainAnalyzeTextScan) {
  EXPECT_TRUE(IsExplainAnalyze("EXPLAIN ANALYZE SELECT 1"));
  EXPECT_TRUE(IsExplainAnalyze("  explain   Analyze select *"));
  EXPECT_TRUE(IsExplainAnalyze("\texplain analyze"));
  EXPECT_FALSE(IsExplainAnalyze("SELECT * FROM t"));
  EXPECT_FALSE(IsExplainAnalyze("explainanalyze select"));
  EXPECT_FALSE(IsExplainAnalyze("explain select"));
  EXPECT_FALSE(IsExplainAnalyze("explained analyze"));
  EXPECT_FALSE(IsExplainAnalyze(""));
}

}  // namespace
}  // namespace fdb
