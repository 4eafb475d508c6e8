// Section 5 remark (unplotted in the paper): one-to-many relationships.
//
// "For one-to-many (e.g., key-foreign key) relationships, the performance
//  gap is smaller, since the result sizes for one-to-many joins can only
//  depend linearly on the input size [...] Factorised query results are
//  still more succinct than their relational representations, but only by
//  a factor that is approximately the number of relations in the query."
//
// We reproduce this with a TPC-H-like key/foreign-key chain
// Customer(ck) <- Orders(ok, ck') <- Lineitem(lk, ok', qty): every foreign
// key references an existing key, so each join is one-to-many and the
// result has exactly |Lineitem| tuples. The table reports the flat size,
// the factorised size, and their ratio, which should hover around the
// number of relations (the attribute count per tuple), not grow with N.
#include <iostream>

#include "bench_util/report.h"
#include "bench_util/workload.h"
#include "common/timer.h"

namespace fdb {
namespace {

void Run(Report& report) {
  report.BeginSection(
      std::cout,
      "One-to-many (key/foreign-key) joins: Customer |x| Orders |x| "
      "Lineitem");
  Table table({"N (lineitems)", "flat tuples", "flat size", "FDB size",
               "FDB bytes", "ratio", "FDB time", "RDB time"});
  for (size_t n : {1000u, 10000u, 100000u}) {
    size_t scaled = static_cast<size_t>(static_cast<double>(n) * BenchScale());
    BenchInstance inst =
        MakeKeyForeignKeyChain(scaled / 10 + 1, scaled / 4 + 1, scaled, 42 + n);
    Engine engine(inst.db.get());

    Timer tf;
    FdbResult fdb = engine.EvaluateFlat(inst.query);
    double fdb_time = tf.Seconds();

    RdbOptions opts;
    opts.timeout_seconds = BenchTimeout();
    opts.deduplicate = false;
    Timer tr;
    RdbResult rdb = engine.ExecuteRdb(inst.query, opts);
    double rdb_time = tr.Seconds();

    double flat_size = static_cast<double>(rdb.NumDataElements());
    double fact_size = static_cast<double>(fdb.NumSingletons());
    table.AddRow({FmtInt(scaled), FmtInt(rdb.NumTuples()),
                  FmtSci(flat_size), FmtSci(fact_size),
                  FmtInt(fdb.rep.MemoryBytes()),
                  FmtDouble(flat_size / fact_size, 2), FmtSecs(fdb_time),
                  FmtSecs(rdb_time)});
  }
  report.Emit(std::cout, table);
  std::cout << "\nPaper shape check: the flat/factorised size ratio stays a "
               "small constant (about the number of relations in the "
               "query), unlike the many-to-many workloads of Fig. 7 where "
               "the gap grows with N.\n";
}

}  // namespace
}  // namespace fdb

int main(int argc, char** argv) {
  fdb::Report report("exp5_one_to_many", argc, argv);
  fdb::Run(report);
  return report.Finish();
}
