// Experiment 8 (ROADMAP "Parallel enumeration"): morsel-driven parallel
// tuple streaming from f-representations vs the single-threaded
// constant-delay enumerator.
//
// Two workloads, matching the regimes the planner must handle:
//   * high-fanout star — S(a,b) |x| T(b,c) on a small b-domain: few top
//     union entries, each dominating, so the planner pins entries and
//     recurses one level down (the flat result has N^2/domain tuples
//     while the representation stays linear in N);
//   * one-to-many chain — Customer <- Orders <- Lineitem: many small top
//     entries, pure greedy range packing.
// For each thread count the full stream is counted by one full-mode
// compiled kernel run (EnumKernel::CountRows, core/kernel.h) per
// ParallelEnumerator chunk (chunk results concatenated in plan order are
// byte-identical to sequential enumeration — asserted in
// tests/parallel_enumerate_test.cc); the table reports wall time (best of
// FDB_EXP8_REPS runs), throughput and the speedup vs 1 thread. A second
// table times the parallel MaterializeVisible sink on the star workload.
// A third traces the star query end-to-end and reports the per-phase span
// times plus how much of the total the phases cover (>= 90% required).
//
// The host's hardware concurrency is recorded alongside: on machines with
// fewer cores than the thread column the speedup is bounded by the
// hardware, not the algorithm (the checked-in snapshot from the 1-core CI
// container shows ~1x throughout; the >= 3x @ 4 threads acceptance bar
// requires >= 4 cores).
//
// Knobs: FDB_EXP8_STAR_N (default 8000), FDB_EXP8_CHAIN_N (default
// 1500000), FDB_EXP8_REPS (default 3), FDB_BENCH_SCALE.
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "bench_util/report.h"
#include "bench_util/workload.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/kernel.h"
#include "core/parallel_enumerate.h"

namespace fdb {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && std::atoi(v) > 0 ? std::atoi(v) : fallback;
}

BenchInstance MakeChain(size_t lineitems, uint64_t seed) {
  BenchInstance inst;
  inst.db = std::make_unique<Database>();
  Rng rng(seed);
  RelId c = inst.db->CreateRelation("Customer", {"ck", "cnation"});
  RelId o = inst.db->CreateRelation("Orders", {"ok", "o_ck"});
  RelId l = inst.db->CreateRelation("Lineitem", {"lk", "l_ok", "qty"});
  const size_t customers = lineitems / 10 + 1, orders = lineitems / 4 + 1;
  for (size_t i = 1; i <= customers; ++i) {
    inst.db->relation(c).AddTuple({static_cast<Value>(i), rng.Uniform(1, 25)});
  }
  for (size_t i = 1; i <= orders; ++i) {
    inst.db->relation(o).AddTuple(
        {static_cast<Value>(i), rng.Uniform(1, static_cast<int64_t>(customers))});
  }
  for (size_t i = 1; i <= lineitems; ++i) {
    inst.db->relation(l).AddTuple(
        {static_cast<Value>(i), rng.Uniform(1, static_cast<int64_t>(orders)),
         rng.Uniform(1, 50)});
  }
  inst.query.rels = {c, o, l};
  inst.query.equalities = {{inst.db->Attr("ck"), inst.db->Attr("o_ck")},
                           {inst.db->Attr("ok"), inst.db->Attr("l_ok")}};
  return inst;
}

struct EnumRun {
  double seconds = 0;
  uint64_t tuples = 0;
  size_t chunks = 0;
};

// Counts the whole stream with one full-mode kernel run per
// ParallelEnumerator chunk at the given thread count; best wall time of
// `reps` runs.
EnumRun RunEnumerate(const FRep& rep, int threads, int reps) {
  const EnumKernel kernel =
      EnumKernel::Compile(rep.tree(), /*visible_only=*/false);
  EnumRun best;
  for (int r = 0; r < reps; ++r) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;  // always exercise the planner
    ParallelEnumerator pe(rep, opts, /*visible_only=*/false);
    std::vector<uint64_t> counts(pe.num_chunks(), 0);
    Timer t;
    pe.ForEachChunk([&](size_t c) {
      counts[c] = kernel.CountRows(rep, pe.plan().morsels[c].bounds);
    });
    double secs = t.Seconds();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    if (best.tuples == 0 || secs < best.seconds) {
      best.seconds = secs;
      best.tuples = total;
      best.chunks = pe.num_chunks();
    }
  }
  return best;
}

void EnumTable(Report& report, const std::string& title, const FRep& rep,
               int reps) {
  report.BeginSection(std::cout, title);
  Table table({"threads", "tuples", "chunks", "wall", "Mtuples/s",
               "speedup vs 1T"});
  double base = 0;
  for (int threads : {1, 2, 4, 8}) {
    EnumRun run = RunEnumerate(rep, threads, reps);
    if (threads == 1) base = run.seconds;
    table.AddRow({FmtInt(static_cast<uint64_t>(threads)), FmtInt(run.tuples),
                  FmtInt(static_cast<uint64_t>(run.chunks)),
                  FmtSecs(run.seconds),
                  FmtDouble(static_cast<double>(run.tuples) / run.seconds /
                                1e6,
                            1),
                  FmtDouble(base / run.seconds, 2)});
  }
  report.Emit(std::cout, table);
}

void Run(Report& report) {
  const int reps = EnvInt("FDB_EXP8_REPS", 3);
  const size_t star_n = static_cast<size_t>(
      static_cast<double>(EnvInt("FDB_EXP8_STAR_N", 8000)) * BenchScale());
  const size_t chain_n = static_cast<size_t>(
      static_cast<double>(EnvInt("FDB_EXP8_CHAIN_N", 1'500'000)) *
      BenchScale());
  const unsigned hw = std::thread::hardware_concurrency();

  report.BeginSection(std::cout, "Host");
  {
    Table table({"hardware threads", "shared pool threads"});
    table.AddRow({FmtInt(hw), FmtInt(static_cast<uint64_t>(
                                  ThreadPool::Shared().size()))});
    report.Emit(std::cout, table);
  }

  {
    BenchInstance star = MakeManyToManyStar(star_n, 32, 4242);
    Engine engine(star.db.get());
    FdbResult res = engine.EvaluateFlat(star.query);
    EnumTable(report,
              "High-fanout star S |x| T (N=" + FmtInt(star_n) +
                  ", domain 32): parallel enumeration scaling",
              res.rep, reps);

    report.BeginSection(
        std::cout, "Parallel MaterializeVisible on the star result");
    // Each call compiles its kernel (core/kernel.h) inside the timed
    // region, as Engine::MaterializeResult does.
    Table table({"threads", "rows", "wall", "speedup vs 1T"});
    double base = 0;
    for (int threads : {1, 4}) {
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = 0;
      double secs = 0;
      size_t rows = 0;
      for (int r = 0; r < reps; ++r) {
        Timer t;
        Relation m = MaterializeVisible(res.rep, opts);
        double s = t.Seconds();
        rows = m.size();
        if (secs == 0 || s < secs) secs = s;
      }
      if (threads == 1) base = secs;
      table.AddRow({FmtInt(static_cast<uint64_t>(threads)), FmtInt(rows),
                    FmtSecs(secs), FmtDouble(base / secs, 2)});
    }
    report.Emit(std::cout, table);

    // Query-lifecycle trace of the same star query: the per-phase wall
    // times EXPLAIN ANALYZE reports, and how much of the end-to-end time
    // the phase spans account for (must stay >= 90%: the spans are the
    // observability story, so untraced gaps have to stay small).
    report.BeginSection(std::cout,
                        "Traced star query: phase breakdown (EXPLAIN "
                        "ANALYZE spans)");
    {
      QueryTrace trace;
      {
        QueryTrace::Scope root(&trace, "query");
        FdbResult traced = engine.ExecuteTraced(star.query, &trace);
      }
      Table spans({"span", "depth", "time", "rows", "bytes"});
      double root_seconds = 0, phase_sum = 0;
      for (const QueryTrace::Span& sp : trace.spans()) {
        if (sp.depth == 0) root_seconds = sp.seconds;
        if (sp.depth == 1) phase_sum += sp.seconds;
        spans.AddRow({std::string(static_cast<size_t>(sp.depth) * 2, ' ') +
                          sp.name,
                      FmtInt(static_cast<uint64_t>(sp.depth)),
                      FmtSecs(sp.seconds),
                      sp.has_rows ? FmtInt(sp.rows) : "-",
                      sp.has_bytes ? FmtInt(sp.bytes) : "-"});
      }
      report.Emit(std::cout, spans);
      Table coverage({"root total", "phase sum", "coverage %"});
      coverage.AddRow({FmtSecs(root_seconds), FmtSecs(phase_sum),
                       FmtDouble(root_seconds > 0
                                     ? 100.0 * phase_sum / root_seconds
                                     : 0.0,
                                 1)});
      report.Emit(std::cout, coverage);
    }
  }

  {
    BenchInstance chain = MakeChain(chain_n, 777);
    Engine engine(chain.db.get());
    FdbResult res = engine.EvaluateFlat(chain.query);
    EnumTable(report,
              "One-to-many chain (lineitems=" + FmtInt(chain_n) +
                  "): parallel enumeration scaling",
              res.rep, reps);
  }

  std::cout << "\nShape check: morsels partition the top-union entries "
               "(recursing past dominating entries), so the stream "
               "parallelises without coordination; speedup should track "
               "the thread count up to the hardware concurrency ("
            << hw
            << " on this host) and the output is byte-identical to "
               "sequential enumeration at every thread count.\n";
}

}  // namespace
}  // namespace fdb

int main(int argc, char** argv) {
  fdb::Report report("exp8_parallel_enumerate", argc, argv);
  fdb::Run(report);
  return report.Finish();
}
