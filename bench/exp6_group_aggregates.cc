// Experiment 6 (PVLDB'13 follow-up, "Aggregation and Ordering in
// Factorised Databases"): GROUP BY evaluated inside the factorisation vs
// the flat enumerate-then-hash baseline.
//
// Three workloads:
//   * the exp5 one-to-many chain (Customer <- Orders <- Lineitem), grouped
//     by the customer nation — restructuring swaps are needed, result
//     sizes stay linear in the input;
//   * a many-to-many star S(a,b) |x| T(b2,c) with a fixed b-domain, grouped
//     by the join attribute: the flat result grows with the fan-out
//     (N^2/domain data elements) while the factorised result and its
//     aggregation stay linear in N — the aggregation speedup grows with
//     the fan-out;
//   * the exp4 factorised-input instances (combinatorial sizes, K = 1..6).
//
// Both sides aggregate the same relation: FDB runs GroupByAggregate on the
// factorised join result; the baseline runs HashGroupBy over the flat join
// result (join cost reported separately for context). The FDB join is
// timed twice, on the default thread count and on one thread: its
// grounding build runs in parallel morsels, while RDB is sequential, so
// "FDB join 1t" is the like-for-like column against "RDB join".
//
// Knobs: FDB_BENCH_SCALE, FDB_BENCH_TIMEOUT (see bench_util/workload.h),
// FDB_EXP6_CAP (flat-result row cap, default 5e6; capped runs report t/o).
#include <cstdlib>
#include <iostream>

#include "bench_util/report.h"
#include "bench_util/workload.h"
#include "common/timer.h"
#include "core/aggregate.h"
#include "rdb/rdb.h"

namespace fdb {
namespace {

struct GroupBenchRow {
  uint64_t groups = 0;
  double fdb_join = 0, fdb_join_1t = 0, fdb_agg = 0, rdb_join = 0,
         flat_agg = 0;
  size_t fdb_singletons = 0, flat_elements = 0;
  bool flat_ok = true;
};

// Runs both sides on one instance of `db`; `group_by`/`specs` drive the
// grouping. Each FDB join runs on a fresh (cold) engine.
GroupBenchRow RunInstance(Database& db, const Query& q, AttrSet group_by,
                          const std::vector<AggSpec>& specs) {
  GroupBenchRow row;
  Engine engine(&db);

  Timer tj;
  FdbResult base = engine.EvaluateFlat(q);
  row.fdb_join = tj.Seconds();
  row.fdb_singletons = base.NumSingletons();

  EngineOptions one_thread;
  one_thread.enumerate.threads = 1;
  Engine sequential(&db, one_thread);
  Timer t1;
  sequential.EvaluateFlat(q);
  row.fdb_join_1t = t1.Seconds();

  Timer ta;
  GroupedRep grouped =
      GroupByAggregate(base.rep, group_by, specs, &engine.solver());
  GroupedTable fact = grouped.Materialize();
  row.fdb_agg = ta.Seconds();
  row.groups = fact.num_rows;

  RdbOptions opts;
  opts.timeout_seconds = BenchTimeout();
  const char* cap = std::getenv("FDB_EXP6_CAP");
  opts.max_result_tuples =
      cap != nullptr && std::atoll(cap) > 0
          ? static_cast<size_t>(std::atoll(cap))
          : 5'000'000;
  opts.deduplicate = false;  // the full-attribute join result is a set
  Timer tr;
  RdbResult flat = engine.ExecuteRdb(q, opts);
  row.rdb_join = tr.Seconds();
  row.flat_elements = flat.NumDataElements();
  row.flat_ok = !flat.timed_out;
  if (row.flat_ok) {
    Timer th;
    GroupedTable ref = HashGroupBy(flat.relation, group_by, specs);
    row.flat_agg = th.Seconds();
    fact.SortByKey();
    if (!(fact == ref)) {
      std::cout << "!! factorised/flat GROUP BY mismatch\n";
    }
  }
  return row;
}

void AddRow(Table& table, const std::string& label, const GroupBenchRow& r) {
  table.AddRow({label, FmtInt(r.groups), FmtSci(static_cast<double>(r.flat_elements)),
                FmtSci(static_cast<double>(r.fdb_singletons)),
                FmtSecs(r.fdb_join), FmtSecs(r.fdb_join_1t), FmtSecs(r.fdb_agg),
                r.flat_ok ? FmtSecs(r.rdb_join) : "t/o",
                r.flat_ok ? FmtSecs(r.flat_agg) : "t/o",
                r.flat_ok ? FmtDouble(r.flat_agg / r.fdb_agg, 2) : "-"});
}

std::vector<std::string> Headers(const std::string& x) {
  return {x,           "groups",   "flat size", "FDB size",
          "FDB join",  "FDB join 1t", "FDB agg", "RDB join",
          "flat agg",  "agg speedup"};
}

BenchInstance MakeStar(size_t n, int64_t b_domain, uint64_t seed) {
  BenchInstance inst;
  inst.db = std::make_unique<Database>();
  Rng rng(seed);
  RelId s = inst.db->CreateRelation("S", {"sa", "sb"});
  RelId t = inst.db->CreateRelation("T", {"tb", "tc"});
  Relation& rs = inst.db->relation(s);
  for (size_t i = 1; i <= n; ++i) {
    rs.AddTuple({static_cast<Value>(i), rng.Uniform(1, b_domain)});
  }
  Relation& rt = inst.db->relation(t);
  for (size_t i = 1; i <= n; ++i) {
    rt.AddTuple({rng.Uniform(1, b_domain), static_cast<Value>(i)});
  }
  inst.query.rels = {s, t};
  inst.query.equalities = {{inst.db->Attr("sb"), inst.db->Attr("tb")}};
  return inst;
}

void Run(Report& report) {
  report.BeginSection(
      std::cout,
      "GROUP BY cnation, COUNT(*), SUM(qty) on the one-to-many chain "
      "(exp5 workload)");
  {
    Table table(Headers("N (lineitems)"));
    for (size_t n : {1000u, 10000u, 100000u}) {
      size_t scaled =
          static_cast<size_t>(static_cast<double>(n) * BenchScale());
      BenchInstance inst = MakeKeyForeignKeyChain(
          scaled / 10 + 1, scaled / 4 + 1, scaled, 42 + n);
      AttrSet by = AttrSet::Of({inst.db->Attr("cnation")});
      std::vector<AggSpec> specs = {{AggFn::kCount, 0},
                                    {AggFn::kSum, inst.db->Attr("qty")}};
      AddRow(table, FmtInt(scaled),
             RunInstance(*inst.db, inst.query, by, specs));
    }
    report.Emit(std::cout, table);
  }

  report.BeginSection(
      std::cout,
      "GROUP BY the join attribute on a many-to-many star (fan-out = "
      "N/32 per side): flat aggregation scans N^2/32 rows, factorised "
      "stays linear");
  {
    Table table(Headers("N (per rel)"));
    for (size_t n : {1000u, 2000u, 4000u, 8000u}) {
      size_t scaled =
          static_cast<size_t>(static_cast<double>(n) * BenchScale());
      BenchInstance inst = MakeStar(scaled, 32, 900 + n);
      AttrSet by = AttrSet::Of({inst.db->Attr("sb")});
      std::vector<AggSpec> specs = {{AggFn::kCount, 0},
                                    {AggFn::kSum, inst.db->Attr("tc")},
                                    {AggFn::kMin, inst.db->Attr("sa")}};
      AddRow(table, FmtInt(scaled),
             RunInstance(*inst.db, inst.query, by, specs));
    }
    report.Emit(std::cout, table);
  }

  report.BeginSection(
      std::cout,
      "GROUP BY on the exp4 instances (R=4, A=10, combinatorial sizes), "
      "grouped by the first attribute");
  {
    Table table(Headers("K"));
    for (int k = 1; k <= 6; ++k) {
      BenchInstance inst = MakeHeterogeneousInstance(
          {2, 2, 3, 3}, {64, 64, 512, 512}, 20, Distribution::kUniform, 1.0,
          k, static_cast<uint64_t>(9000 + k));
      QueryInfo info = AnalyzeQuery(inst.db->catalog(), inst.query);
      if (Engine(inst.db.get()).EvaluateFlat(inst.query).rep.empty()) continue;
      std::vector<AttrId> attrs = info.all_attrs.ToVector();
      AttrSet by = AttrSet::Of({attrs.front()});
      std::vector<AggSpec> specs = {{AggFn::kCount, 0},
                                    {AggFn::kSum, attrs.back()},
                                    {AggFn::kMax, attrs[attrs.size() / 2]}};
      AddRow(table, FmtInt(static_cast<uint64_t>(k)),
             RunInstance(*inst.db, inst.query, by, specs));
    }
    report.Emit(std::cout, table);
  }

  std::cout << "\nPaper shape check (PVLDB'13): factorised GROUP BY runs in "
               "time linear in the representation size; on the star "
               "workload the aggregation speedup over the flat hash "
               "baseline grows with the fan-out, while on one-to-many "
               "chains the gap is a constant factor.\n";
}

}  // namespace
}  // namespace fdb

int main(int argc, char** argv) {
  fdb::Report report("exp6_group_aggregates", argc, argv);
  fdb::Run(report);
  return report.Finish();
}
