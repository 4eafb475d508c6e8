// Micro-benchmarks (ablations) for the operator kernels and substrates:
// grounding throughput, the swap operator's regrouping (the restructuring
// rewrite), merge, normalisation, projection, grouped aggregation, constant-delay enumeration, the edge-cover LP with
// and without the memo cache, and the two optimisers. These isolate the
// design choices DESIGN.md calls out (arena-backed unions, LP memoisation,
// bottleneck Dijkstra vs greedy).
#include <benchmark/benchmark.h>

#include "bench_util/workload.h"
#include "common/exec_context.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "lp/edge_cover.h"
#include "opt/fplan_search.h"
#include "opt/ftree_search.h"
#include "opt/greedy.h"
#include "serve/protocol.h"

namespace fdb {
namespace {

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

void BM_GroundRelation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Relation r = RandomRelation({0, 1, 2}, n, 100, 1);
  for (auto _ : state) {
    FRep rep = GroundRelation(r, 0);
    benchmark::DoNotOptimize(rep.NumValues());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  // Accounted outside the timed loop: the counter reports size, not speed.
  state.counters["rep_bytes"] =
      static_cast<double>(GroundRelation(r, 0).MemoryBytes());
}
BENCHMARK(BM_GroundRelation)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GroundQueryChain(benchmark::State& state) {
  // GroundQuery on the 100k Customer <- Orders <- Lineitem chain over its
  // optimal f-tree, the relations prepared once and reused, as the
  // engine's cache does, so the loop times the build step. Arg = thread
  // cap: 1 builds on the caller, 0 on every core.
  BenchInstance inst = MakeKeyForeignKeyChain(10001, 25001, 100000, 42);
  Engine engine(inst.db.get());
  const FTree tree = engine.OptimizeFlat(inst.query).tree;
  const std::vector<const Relation*> rels =
      inst.db->RelationPtrs(inst.query.rels);
  PreparedRelationCache cache;
  const PrepareFn prepare = [&](size_t r, const ColumnGroups& groups,
                                bool filtered) {
    return cache.Get(inst.query.rels[r], *rels[r], groups, filtered);
  };
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    FRep rep = GroundQuery(tree, rels, {}, nullptr, prepare, threads);
    benchmark::DoNotOptimize(rep.NumValues());
  }
  // Accounted outside the timed loop: the build's morsel count, and the
  // unions (arena headers) and values it writes, so the time reads per
  // union.
  QueryTrace trace;
  const FRep rep = GroundQuery(tree, rels, {}, &trace, prepare, threads);
  for (const QueryTrace::Span& s : trace.spans()) {
    if (s.name == "ground-build") {
      state.counters["morsels"] = static_cast<double>(s.rows);
    }
  }
  state.counters["unions"] = static_cast<double>(rep.NumUnions());
  state.counters["values"] = static_cast<double>(rep.NumValues());
}
BENCHMARK(BM_GroundQueryChain)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_ProjectChainSpj(benchmark::State& state) {
  // Project alone on one serve-warm-chain SPJ statement (benchmark/): the
  // seed-1 100k Customer <- Orders <- Lineitem chain grounded once over
  // its optimal f-tree with `cnation = 7`, then projected on ck, cnation,
  // lk, qty, which removes the order key and priority.
  BenchInstance inst = MakeKeyForeignKeyChain(10001, 25001, 100000, 1);
  Engine engine(inst.db.get());
  const Query q = engine.Parse(
      "SELECT ck, cnation, lk, qty FROM Customer, Orders, Lineitem "
      "WHERE ck = o_ck AND ok = l_ok AND cnation = 7");
  const FRep rep = GroundQuery(engine.OptimizeFlat(q).tree,
                               inst.db->RelationPtrs(q.rels), q.const_preds);
  const AttrSet keep = AnalyzeQuery(inst.db->catalog(), q).projection;
  size_t unions = 0;
  for (auto _ : state) {
    FRep out = Project(rep, keep);
    unions = out.NumUnions();
    benchmark::DoNotOptimize(unions);
  }
  state.counters["in_unions"] = static_cast<double>(rep.NumUnions());
  state.counters["out_unions"] = static_cast<double>(unions);
}
BENCHMARK(BM_ProjectChainSpj)->Unit(benchmark::kMicrosecond);

void BM_GroupByChain(benchmark::State& state) {
  // GroupByAggregate alone on one serve-warm-chain GROUP BY statement
  // (benchmark/): the seed-1 100k Customer <- Orders <- Lineitem chain
  // grounded once over its optimal f-tree with `opri = 3`, then
  // restructured to cnation above ck (one planned swap, one rewrite) and
  // collapsed. The copy of the grounded rep is made outside the timing.
  BenchInstance inst = MakeKeyForeignKeyChain(10001, 25001, 100000, 1);
  Engine engine(inst.db.get());
  const Query q = engine.Parse(
      "SELECT cnation, COUNT(*), SUM(qty) FROM Customer, Orders, Lineitem "
      "WHERE ck = o_ck AND ok = l_ok AND opri = 3 GROUP BY cnation");
  const Query core = q.SpjCore();
  const FRep rep = GroundQuery(engine.OptimizeFlat(core).tree,
                               inst.db->RelationPtrs(core.rels),
                               core.const_preds);
  uint64_t groups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FRep in = rep;
    state.ResumeTiming();
    const GroupedRep g =
        GroupByAggregate(std::move(in), q.group_by, q.aggregates);
    groups = g.NumGroups();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["in_unions"] = static_cast<double>(rep.NumUnions());
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_GroupByChain)->Unit(benchmark::kMicrosecond);

void BM_RenderChainSpj(benchmark::State& state) {
  // RenderResult alone on one serve-warm-chain SPJ statement (benchmark/):
  // the seed-1 100k Customer <- Orders <- Lineitem chain's `cnation = 7`
  // result, executed once outside the timing, rendered as the server
  // renders its bodies (expression plus stats line).
  BenchInstance inst = MakeKeyForeignKeyChain(10001, 25001, 100000, 1);
  Engine engine(inst.db.get());
  const FdbResult res = engine.Execute(
      "SELECT ck, cnation, lk, qty FROM Customer, Orders, Lineitem "
      "WHERE ck = o_ck AND ok = l_ok AND cnation = 7");
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = RenderResult(*inst.db, res);
    bytes = body.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["body_bytes"] = static_cast<double>(bytes);
  state.counters["unions"] = static_cast<double>(res.rep.NumUnions());
}
BENCHMARK(BM_RenderChainSpj)->Unit(benchmark::kMicrosecond);

void BM_Swap(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Relation r = RandomRelation({0, 1}, n, 1000, 2);
  FRep rep = GroundRelation(r, 0);
  for (auto _ : state) {
    FRep sw = Swap(rep, 0, 1);
    benchmark::DoNotOptimize(sw.NumValues());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rep.NumValues()));
  // Accounted outside the timed loop: the counter reports size, not speed.
  state.counters["rep_bytes"] =
      static_cast<double>(Swap(rep, 0, 1).MemoryBytes());
}
BENCHMARK(BM_Swap)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Merge(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Relation r = RandomRelation({0}, n, static_cast<int64_t>(n), 3);
  Relation s = RandomRelation({1, 2}, n, static_cast<int64_t>(n), 4);
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  for (auto _ : state) {
    FRep m = Merge(prod, 0, 1);
    benchmark::DoNotOptimize(m.empty());
  }
}
BENCHMARK(BM_Merge)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Normalize(benchmark::State& state) {
  // Product data nested as a chain: normalisation must hoist it apart.
  size_t n = static_cast<size_t>(state.range(0));
  Relation r = RandomRelation({0}, n, static_cast<int64_t>(4 * n), 5);
  Relation s = RandomRelation({1}, n, static_cast<int64_t>(4 * n), 6);
  FTree t;
  int n0 = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int n1 = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(n0);
  t.AttachChild(n0, n1);
  FRep rep = GroundQuery(t, {&r, &s});
  for (auto _ : state) {
    FRep norm = Normalize(rep);
    benchmark::DoNotOptimize(norm.NumValues());
  }
}
BENCHMARK(BM_Normalize)->Arg(100)->Arg(1000);

void BM_Enumerate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Relation r = RandomRelation({0, 1, 2}, n, 50, 7);
  FRep rep = GroundRelation(r, 0);
  for (auto _ : state) {
    TupleEnumerator en(rep);
    size_t count = 0;
    while (en.Next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Enumerate)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EnumerateKernel(benchmark::State& state) {
  // Interpreted visible extraction (Arg 0) vs the compiled kernel (Arg 1)
  // over the same N=100k path rep as BM_Enumerate/100000, both assembling
  // the full flat row stream into a reused buffer — the ratio is the
  // kernel's speedup over the public pull iterator, per morsel.
  const bool use_kernel = state.range(0) != 0;
  const size_t n = 100000;
  Relation r = RandomRelation({0, 1, 2}, n, 50, 7);
  FRep rep = GroundRelation(r, 0);
  EnumKernel kernel = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  const std::vector<AttrId>& schema = kernel.schema();
  std::vector<Value> buf;
  buf.reserve(n * schema.size());
  for (auto _ : state) {
    buf.clear();
    if (use_kernel) {
      benchmark::DoNotOptimize(kernel.Emit(rep, {}, &buf));
    } else {
      TupleEnumerator en(rep, /*visible_only=*/true);
      while (en.Next()) {
        for (AttrId a : schema) buf.push_back(en.ValueOf(a));
      }
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EnumerateKernel)->Arg(0)->Arg(1);

void BM_ParallelEnumerate(benchmark::State& state) {
  // Same stream as BM_Enumerate (N=100k path rep), chunked through the
  // morsel planner onto state.range(0) threads and counted by one
  // full-mode kernel run per chunk (EnumKernel::CountRows). Arg(1) takes
  // the sequential fallback (one count walk, no split), so it measures the
  // wrapper's overhead against BM_EnumerateKernel; Arg(2+) includes the
  // planner's count walk and chunk bookkeeping.
  int threads = static_cast<int>(state.range(0));
  size_t n = 100000;
  Relation r = RandomRelation({0, 1, 2}, n, 50, 7);
  FRep rep = GroundRelation(r, 0);
  const EnumKernel kernel =
      EnumKernel::Compile(rep.tree(), /*visible_only=*/false);
  for (auto _ : state) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    ParallelEnumerator pe(rep, opts);
    std::vector<size_t> counts(pe.num_chunks(), 0);
    pe.ForEachChunk([&](size_t c) {
      counts[c] = kernel.CountRows(rep, pe.plan().morsels[c].bounds);
    });
    size_t total = 0;
    for (size_t c : counts) total += c;
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelEnumerate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MorselPlanChain(benchmark::State& state) {
  // ParallelEnumerator construction — the "morsel-plan" span of
  // MaterializeVisible — on the seed-11 100k Customer <- Orders <- Lineitem
  // chain (`SELECT *`, little sharing: ~167k unions for 100k rows), with
  // the caller's visible-mode kernel. Arg = thread cap: 1 counts the
  // stream for the sequential fallback, 4 counts frame 0 in ranges on the
  // pool and splits it into morsels.
  BenchInstance inst = MakeKeyForeignKeyChain(10001, 25001, 100000, 11);
  Engine engine(inst.db.get());
  const FdbResult res = engine.EvaluateFlat(inst.query);
  const EnumKernel kernel =
      EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
  EnumerateOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ParallelEnumerator pe(res.rep, opts, /*visible_only=*/true, &kernel);
    benchmark::DoNotOptimize(pe.plan().total_rows);
  }
  ParallelEnumerator pe(res.rep, opts, /*visible_only=*/true, &kernel);
  state.counters["morsels"] = static_cast<double>(pe.num_chunks());
  state.counters["rows"] = static_cast<double>(pe.plan().total_rows);
}
BENCHMARK(BM_MorselPlanChain)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MaterializeStar(benchmark::State& state) {
  // MaterializeVisible on the seed-11 many-to-many star (`SELECT *`, 6,000
  // rows per side, 32 join values: ~1.1M rows from 12k singletons), with
  // the caller's visible-mode kernel. The 4-column result buffer is ~36 MB,
  // fresh memory on every call, so the loop times its set-up (the
  // "emit-buffer" span) as well as the kernel's emit. Arg = thread cap.
  BenchInstance inst = MakeManyToManyStar(6000, 32, 11);
  Engine engine(inst.db.get());
  const FdbResult res = engine.EvaluateFlat(inst.query);
  const EnumKernel kernel =
      EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
  EnumerateOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  size_t rows = 0;
  for (auto _ : state) {
    Relation out = MaterializeVisible(res.rep, opts, &kernel);
    rows = out.size();
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_MaterializeStar)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TraceOverhead(benchmark::State& state) {
  // The warm serve path with tracing plumbed through but OFF (Arg 0,
  // trace == nullptr — what every non-EXPLAIN request pays) vs ON (Arg 1 —
  // what EXPLAIN ANALYZE pays). Spans are per-phase, never per-row, so
  // both must track the untraced baseline closely; the README documents
  // the Arg(0)-vs-kernel-materialize delta as the tracing-off overhead
  // (<2% required).
  const bool traced = state.range(0) != 0;
  const size_t n = 100000;
  Relation r = RandomRelation({0, 1, 2}, n, 50, 7);
  FRep rep = GroundRelation(r, 0);
  EnumKernel kernel = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  EnumerateOptions opts;
  for (auto _ : state) {
    QueryTrace trace;
    QueryTrace* tp = traced ? &trace : nullptr;
    Relation out = MaterializeVisible(rep, opts, &kernel, tp);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

void BM_GovernanceOverhead(benchmark::State& state) {
  // The warm kernel enumeration path with no ambient ExecContext (Arg 0 —
  // every probe is one thread-local load finding nullptr) vs governed by a
  // context carrying a far deadline and a large memory budget (Arg 1 —
  // probes take the relaxed-load path, every 256th consults the clock).
  // The README documents the Arg(1)-vs-Arg(0) delta as the cooperative-
  // cancellation overhead (<2% required).
  const bool governed = state.range(0) != 0;
  const size_t n = 100000;
  Relation r = RandomRelation({0, 1, 2}, n, 50, 7);
  FRep rep = GroundRelation(r, 0);
  EnumKernel kernel = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  EnumerateOptions opts;
  ExecContext ctx;
  ctx.SetDeadline(3600.0);
  ctx.budget().set_limit(size_t{1} << 40);
  for (auto _ : state) {
    ExecContext::Scope scope(governed ? &ctx : nullptr);
    Relation out = MaterializeVisible(rep, opts, &kernel, nullptr);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GovernanceOverhead)->Arg(0)->Arg(1);

void BM_MetricsOverhead(benchmark::State& state) {
  // Cost of one counter increment plus one histogram record — the serve
  // path's per-request metrics bill. Both are relaxed atomics; the number
  // here is nanoseconds, which is why the registry needs no sampling.
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("fdb_bench_ops_total");
  Histogram& h = reg.GetHistogram("fdb_bench_op_seconds");
  for (auto _ : state) {
    c.Increment();
    h.Record(1e-5);
  }
  benchmark::DoNotOptimize(c.Value());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsOverhead);

void BM_EdgeCoverColdCache(benchmark::State& state) {
  // Fresh solver per iteration: every path instance solved by simplex.
  std::vector<uint64_t> masks{0b0011, 0b0110, 0b1100, 0b1001, 0b0101};
  for (auto _ : state) {
    EdgeCoverSolver solver;
    benchmark::DoNotOptimize(solver.Solve(masks));
  }
}
BENCHMARK(BM_EdgeCoverColdCache);

void BM_EdgeCoverWarmCache(benchmark::State& state) {
  std::vector<uint64_t> masks{0b0011, 0b0110, 0b1100, 0b1001, 0b0101};
  EdgeCoverSolver solver;
  solver.Solve(masks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(masks));
  }
}
BENCHMARK(BM_EdgeCoverWarmCache);

void BM_FTreeSearch(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  WorkloadSpec spec;
  spec.num_rels = 6;
  spec.num_attrs = 24;
  spec.tuples_per_rel = 1;
  spec.num_equalities = k;
  spec.seed = 1234;
  BenchInstance inst = MakeBenchInstance(spec);
  QueryInfo info = AnalyzeQuery(inst.db->catalog(), inst.query);
  for (auto _ : state) {
    EdgeCoverSolver solver;
    benchmark::DoNotOptimize(FindOptimalFTree(info, solver).cost);
  }
}
BENCHMARK(BM_FTreeSearch)->Arg(2)->Arg(4)->Arg(6);

// The serve shape: exp7's 12-class ternary ladder (r_i(a_i, b_i, c_i) with
// b_i = a_{i+1}, c_i = a_{i+2}, nine relations), searched against one warm
// solver shared across iterations, as the query server shares it across
// requests.
void BM_FTreeSearchLadder(benchmark::State& state) {
  constexpr int kRels = 9;
  Catalog catalog;
  Query q;
  std::vector<std::vector<AttrId>> attrs(kRels);
  for (int i = 0; i < kRels; ++i) {
    for (const char* col : {"a", "b", "c"}) {
      attrs[static_cast<size_t>(i)].push_back(
          catalog.AddAttribute(col + std::to_string(i)));
    }
    q.rels.push_back(
        catalog.AddRelation("r" + std::to_string(i),
                            attrs[static_cast<size_t>(i)]));
  }
  for (size_t i = 0; i < kRels; ++i) {
    if (i + 1 < kRels) q.equalities.emplace_back(attrs[i][1], attrs[i + 1][0]);
    if (i + 2 < kRels) q.equalities.emplace_back(attrs[i][2], attrs[i + 2][0]);
  }
  QueryInfo info = AnalyzeQuery(catalog, q);
  EdgeCoverSolver solver;
  FindOptimalFTree(info, solver);  // warm the shared LP memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindOptimalFTree(info, solver).cost);
  }
}
BENCHMARK(BM_FTreeSearchLadder);

void BM_FPlanSearchVsGreedy(benchmark::State& state) {
  bool greedy = state.range(0) != 0;
  WorkloadSpec spec;
  spec.num_rels = 4;
  spec.num_attrs = 10;
  spec.tuples_per_rel = 1;
  spec.num_equalities = 3;
  spec.seed = 555;
  BenchInstance inst = MakeBenchInstance(spec);
  QueryInfo info = AnalyzeQuery(inst.db->catalog(), inst.query);
  EdgeCoverSolver solver;
  FTree base = FindOptimalFTree(info, solver).tree;
  Rng rng(99);
  auto extra = DrawExtraEqualities(info.classes, 3, rng);
  for (auto _ : state) {
    EdgeCoverSolver s2;
    if (greedy) {
      benchmark::DoNotOptimize(GreedyFPlan(base, extra, s2).plan.cost_max_s);
    } else {
      benchmark::DoNotOptimize(
          FindOptimalFPlan(base, extra, s2).plan.cost_max_s);
    }
  }
}
BENCHMARK(BM_FPlanSearchVsGreedy)
    ->Arg(0)   // full search
    ->Arg(1);  // greedy

}  // namespace
}  // namespace fdb
