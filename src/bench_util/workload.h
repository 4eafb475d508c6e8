// Workload construction for the experiment harnesses (§5, Experimental
// Design): R relations with A attributes distributed uniformly, N tuples
// per relation with uniform/Zipf values in [1..M], equi-join queries with K
// non-redundant equalities — assembled into an fdb::Database ready for the
// Engine and the baselines.
#ifndef FDB_BENCH_UTIL_WORKLOAD_H_
#define FDB_BENCH_UTIL_WORKLOAD_H_

#include <memory>

#include "api/database.h"
#include "api/engine.h"
#include "storage/generator.h"

namespace fdb {

/// A generated database plus the generated query over it.
struct BenchInstance {
  std::unique_ptr<Database> db;  // stable address for Engine
  Query query;
  WorkloadSpec spec;
};

/// Builds the database and query for `spec`.
BenchInstance MakeBenchInstance(const WorkloadSpec& spec);

/// Per-relation tuple counts may differ (Fig. 7 right column uses two
/// binary relations of 64 tuples and two ternary ones of 512); this variant
/// takes explicit per-relation aritys and sizes.
BenchInstance MakeHeterogeneousInstance(
    const std::vector<int>& arities, const std::vector<size_t>& sizes,
    int64_t domain, Distribution dist, double zipf_alpha, int num_equalities,
    uint64_t seed);

/// The TPC-H-like key/foreign-key chain Customer(ck, cnation) <-
/// Orders(ok, o_ck, opri) <- Lineitem(lk, l_ok, qty); every foreign key
/// references an existing key, so the join has exactly |Lineitem| tuples.
/// The query joins the chain on ck = o_ck, ok = l_ok. The experiments use
/// lineitems/10 + 1 customers and lineitems/4 + 1 orders.
BenchInstance MakeKeyForeignKeyChain(size_t customers, size_t orders,
                                     size_t lineitems, uint64_t seed);

/// The many-to-many star S(sa, sb) |x| T(tb, tc): n tuples per side with
/// sa and tc the row number and sb, tb uniform over [1..b_domain], drawn
/// from one generator, S's value before T's in every row. A small b_domain
/// makes a heavily shared result: about n^2 / b_domain tuples from 2n
/// singletons per join value. The query joins on sb = tb.
BenchInstance MakeManyToManyStar(size_t n, int64_t b_domain, uint64_t seed);

/// Reads scaling knobs from the environment: FDB_BENCH_SCALE (float,
/// default 1) multiplies data sizes; FDB_BENCH_TIMEOUT (seconds, default
/// 10) bounds each baseline run (the paper used 100 s).
double BenchScale();
double BenchTimeout();

}  // namespace fdb

#endif  // FDB_BENCH_UTIL_WORKLOAD_H_
