// fdb::Engine — the FDB query engine plus the two relational baselines.
//
// Two evaluation paths, matching the paper:
//  * flat input (Experiments 1/3): find an optimal f-tree for the query by
//    exhaustive search, then *ground* the factorised result directly from
//    the sorted relations — no flat intermediate results;
//  * factorised input (Experiments 2/4): optimise an f-plan (exhaustive
//    bottleneck search or greedy heuristic) and execute its operator
//    sequence on the input f-representation.
#ifndef FDB_API_ENGINE_H_
#define FDB_API_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/trace.h"
#include "core/aggregate.h"
#include "core/fplan.h"
#include "core/frep.h"
#include "core/ground.h"
#include "core/parallel_enumerate.h"
#include "opt/fplan_search.h"
#include "opt/ftree_search.h"
#include "opt/greedy.h"
#include "rdb/rdb.h"
#include "vdb/vdb.h"

namespace fdb {

/// Engine-wide knobs.
struct EngineOptions {
  bool greedy_optimizer = false;  ///< greedy instead of exhaustive f-plans
  /// f-plan search options: the cost mode, and the statistics that
  /// CostMode::kEstimates needs.
  FPlanSearchOptions search;
  /// Parallel enumeration knobs (core/parallel_enumerate.h): drive the
  /// materialisation paths — MaterializeResult and the grouped-table
  /// flattening of ExecuteAggregate. Defaults enumerate large results on
  /// the shared thread pool and keep small ones on the caller; output is
  /// identical to sequential enumeration for every thread count.
  /// `threads` also caps the morsel-parallel grounding build of the flat
  /// path (GroundQuery, core/ground.h), whose result is byte-identical at
  /// every thread count; 1 keeps both on the calling thread.
  EnumerateOptions enumerate;
};

/// Outcome of an FDB evaluation.
struct FdbResult {
  FRep rep;         ///< factorised query result
  FPlan plan;       ///< f-plan executed (empty for the grounding path)
  double optimize_seconds = 0.0;
  double evaluate_seconds = 0.0;

  /// Filled only when Execute() dispatched an aggregate query: the flat
  /// grouped table; `rep` then holds the factorised distinct groups.
  std::optional<GroupedTable> aggregate;

  /// Filled only for EXPLAIN ANALYZE statements: the rendered span tree of
  /// the execution (common/trace.h). Consumers should print this instead
  /// of the result — serve/protocol.h's RenderResult does.
  std::optional<std::string> explain;

  size_t NumSingletons() const { return rep.NumSingletons(); }
  double FlatTuples() const { return rep.CountTuples(); }
};

/// Outcome of a grouped-aggregate evaluation (Engine::ExecuteAggregate).
struct AggregateResult {
  GroupedRep grouped;  ///< factorised groups + collapsed per-entry payloads
  GroupedTable table;  ///< flat materialisation (one row per group)
  FPlan plan;          ///< SPJ plan followed by the grouping swaps
  double optimize_seconds = 0.0;
  double evaluate_seconds = 0.0;
};

/// The query engine; borrows the database (which must outlive it).
///
/// Concurrency contract (the serve path, serve/query_server.h, depends on
/// this): once the database is fully loaded, read-only evaluation —
/// Parse, Execute, EvaluateFlat, ExecuteAggregate, OptimizeFlat and the
/// baselines — may run concurrently from any number of threads on one
/// shared Engine. The only three pieces of shared mutable state are
/// internally synchronised:
///  * the database dictionary: Engine::Parse interns SQL string literals
///    into it, which is an append-only, lock-protected operation
///    (common/dictionary.h) — existing codes never change, so concurrently
///    running evaluations are unaffected;
///  * the shared EdgeCoverSolver memo (lp/edge_cover.h);
///  * the prepared-relation cache (PreparedRelationCache, core/ground.h):
///    each relation sorted once per f-tree path order and shared,
///    read-only, by every query grounding it along that order (a first
///    miss under constant predicates sorts only the query's kept rows and
///    keeps nothing). A miss prepares outside the lock and publishes only
///    finished entries.
/// Everything else reads `const` catalog/relation state. What is NOT
/// allowed concurrently with queries: schema or data changes
/// (CreateRelation / Insert / LoadCsv) and direct mutation through
/// Database::relation() — a serving database is frozen. Between queries
/// any mutation is fine: cache entries carry the Relation::stamp() they
/// were prepared from, so a changed relation is prepared afresh.
class Engine {
 public:
  explicit Engine(Database* db, EngineOptions opts = {})
      : db_(db), opts_(opts) {}

  /// Flat evaluation: optimal f-tree search + grounding (+ deferred
  /// projection). When `pretree` is given (a result of OptimizeFlat for
  /// the same query, e.g. from the serve-path plan cache), the search is
  /// skipped and the cached tree is executed directly. Grounding takes the
  /// sorted relations from the engine's prepared-relation cache, so a
  /// relation is sorted once per f-tree path order, not once per query. A
  /// non-null `trace` records "f-tree-search" (only when the search
  /// actually runs), "ground" (with "ground-prepare" and "ground-build",
  /// and "ground-splice" under "ground-build" when the build split) and
  /// "project" spans.
  FdbResult EvaluateFlat(const Query& q,
                         const FTreeSearchResult* pretree = nullptr,
                         QueryTrace* trace = nullptr);

  /// Optimal f-tree for a query without evaluating it (Experiment 1).
  FTreeSearchResult OptimizeFlat(const Query& q);

  /// Factorised evaluation: f-plan optimisation + operator execution on an
  /// existing f-representation. `eqs` are the new equality selections;
  /// constant predicates run first, projection last (if `projection` is
  /// non-empty).
  FdbResult EvaluateOnFRep(const FRep& in,
                           const std::vector<std::pair<AttrId, AttrId>>& eqs,
                           const std::vector<ConstPred>& preds = {},
                           AttrSet projection = {});

  /// Plan-only variant of EvaluateOnFRep (Experiment 2).
  FPlanSearchResult OptimizeOnTree(
      const FTree& tree,
      const std::vector<std::pair<AttrId, AttrId>>& eqs);

  /// Joins two independently built factorised results (Example 2:
  /// Q1 |x| Q2 on f-representations). Relation indices of `rhs` are shifted
  /// past `lhs`'s, the forests are combined with the product operator, and
  /// the join equalities run through the f-plan optimiser. The inputs must
  /// have disjoint attribute sets.
  FdbResult JoinFactorised(const FRep& lhs, const FRep& rhs,
                           const std::vector<std::pair<AttrId, AttrId>>& eqs);

  /// Grouped aggregation inside the factorisation: evaluates the SPJ part
  /// of `q` factorised over *all* attributes (aggregates range over the
  /// distinct tuples of the join result), then restructures and collapses
  /// the result (core/aggregate.h). `q.group_by` / `q.aggregates` drive
  /// the grouping; a query without either computes the single global group
  /// of its aggregates. The empty join result yields zero rows — also for
  /// the global group, diverging from SQL's single COUNT = 0 row (FDB has
  /// no NULLs for the SUM/MIN/MAX columns of such a row; the HashGroupBy
  /// baseline makes the same choice).
  /// `pretree` (optional) is a cached optimal f-tree for the query's SPJ
  /// core; the f-tree search ignores projection, grouping and aggregates,
  /// so OptimizeFlat(q) yields a tree valid for both the plain and the
  /// aggregate path of the same query.
  /// A non-null `trace` records the EvaluateFlat spans of the SPJ core
  /// plus "restructure-aggregate" (with GroupByAggregate's "restructure"
  /// and "collapse" children) and "materialize-groups" spans.
  AggregateResult ExecuteAggregate(const Query& q,
                                   const FTreeSearchResult* pretree = nullptr,
                                   QueryTrace* trace = nullptr);
  AggregateResult ExecuteAggregate(const std::string& sql_text);

  /// Parses an SPJ / grouped-aggregate SQL string against the database.
  /// String literals are interned into the dictionary — a synchronised,
  /// append-only operation, so Parse is safe to call concurrently with
  /// other Parse/Execute calls; the catalog and relation data are never
  /// touched. A literal absent from the data gets a fresh code that
  /// matches no stored value (the predicate simply selects nothing).
  Query Parse(const std::string& sql_text);

  /// Parses and evaluates an SQL string. SPJ queries run the flat path;
  /// aggregate queries dispatch to ExecuteAggregate, returning the grouped
  /// table in FdbResult::aggregate with the factorised groups as `rep`.
  /// An `EXPLAIN ANALYZE <query>` statement executes the query under a
  /// QueryTrace (including result materialisation, which plain Execute
  /// leaves to the caller) and returns the rendered span tree in
  /// FdbResult::explain alongside the usual result fields.
  FdbResult Execute(const std::string& sql_text);

  /// Evaluates a parsed query with every phase recorded into `trace`
  /// (null = no tracing): the aggregate path runs ExecuteAggregate, the
  /// SPJ path runs EvaluateFlat *and* materialises the visible relation,
  /// so the trace covers kernel compilation, morsel planning and
  /// enumeration. This is the one execution dispatch of Execute and of
  /// the serve path, traced or not; EXPLAIN ANALYZE wraps it in its own
  /// root/parse/cache-lookup spans (serve/query_server.h).
  FdbResult ExecuteTraced(const Query& q, QueryTrace* trace,
                          const FTreeSearchResult* pretree = nullptr);

  /// Materialises the visible relation of an evaluation result — the flat
  /// output tap of EvaluateFlat/Execute — through MaterializeVisible
  /// (core/parallel_enumerate.h) with EngineOptions::enumerate: a compiled
  /// kernel per call, large representations enumerated in parallel
  /// (deterministic: identical rows and order for every thread count),
  /// small ones on the caller thread. Rows are distinct and sorted under
  /// sort_order(), the visible columns in the result f-tree's pre-order;
  /// no sort unless the tree projects a middle node, which the engine's
  /// own projection never leaves. The order follows the f-tree, so
  /// compare results of different plans as sets. A `kernel` that matches
  /// the result's f-tree is reused instead of compiling one; a non-null
  /// `trace` records the sink's spans.
  Relation MaterializeResult(const FdbResult& res,
                             const EnumKernel* kernel = nullptr,
                             QueryTrace* trace = nullptr) const {
    return MaterializeVisible(res.rep, opts_.enumerate, kernel, trace);
  }

  /// Baselines.
  RdbResult ExecuteRdb(const Query& q, const RdbOptions& opts = {}) const;
  VdbResult ExecuteVdb(const Query& q, const VdbOptions& opts = {}) const;

  /// Shared LP cache (exposed for benchmarks that report cache statistics).
  EdgeCoverSolver& solver() { return solver_; }

  /// Shared prepared-relation cache of the grounding step.
  const PreparedRelationCache& prepared_cache() const { return prepared_; }

  const Database& db() const { return *db_; }

 private:
  Database* db_;
  EngineOptions opts_;
  EdgeCoverSolver solver_;
  PreparedRelationCache prepared_;
};

}  // namespace fdb

#endif  // FDB_API_ENGINE_H_
