// Aggregates computed directly on f-representations, without enumeration.
//
// Factorised representations support aggregation in time linear in |E|
// rather than in the number of represented tuples: counts and sums
// distribute over the union/product structure, and GROUP BY evaluates
// inside the factorisation once the grouping attributes form the upper
// fragment of the f-tree (Bakibayev, Kočiský, Olteanu, Závodný:
// "Aggregation and Ordering in Factorised Databases", PVLDB'13 — the
// follow-up to the FDB paper, which positions factorised results as
// "compilations of query results that allow for efficient subsequent
// processing", §1).
//
// Grouped aggregation is restructure-then-collapse:
//   1. restructure — greedy chi swaps on the f-tree alone lift every node
//      whose class meets the GROUP BY set above all non-group nodes, so
//      the grouping classes become an upper fragment of the f-tree
//      ("aggregations compatible with the f-tree order"); among the
//      applicable swaps the cheapest next tree by s(T) is chosen. The data
//      then moves to that target f-tree in one rewrite (Restructure,
//      core/ops.h), however many swaps were planned.
//   2. collapse — one FRep::SweepBottomUp over the union DAG replaces every
//      subtree hanging below the grouping frontier by its aggregate
//      statistics (tuple count, per-spec sum/min/max), folded into the
//      payload of the union entry that owned the subtree together with the
//      entry's own value. Root trees containing no grouping class collapse
//      into one global row shared by all groups.
// The result is a factorised representation of the *distinct groups* plus
// per-entry payloads (GroupedRep) whose product along a group's
// root-to-leaf entries is the group's row — time linear in the
// representation size, never in the number of represented tuples. Every
// fold, Sum and Avg included (the global group of a collapse without
// grouping attributes), goes through the one union/product algebra of
// core/agg_stats.h.
//
// Exactness: all tuple counts are accumulated in uint64_t with overflow
// checks (AggStats). Aggregates whose value would silently be wrong past
// saturation (SUM/AVG weighting, per-group counts) throw FdbError instead
// of returning a rounded double; Count() reports approximate counts past
// 2^64 via the `exact` flag of FRep::CountTuples.
//
// Semantics: aggregates range over the *distinct tuples* of the represented
// relation (relations are sets), over all attributes of the f-tree,
// visible or not. The nullary relation <> has COUNT 1; attribute
// aggregates over it throw (no attribute labels an f-tree node).
#ifndef FDB_CORE_AGGREGATE_H_
#define FDB_CORE_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "core/agg_stats.h"
#include "core/fplan.h"
#include "core/frep.h"
#include "core/parallel_enumerate.h"
#include "storage/query.h"

namespace fdb {

/// COUNT(*): number of represented tuples. Exact while the count fits a
/// double round trip (delegates to FRep::CountTuples).
double Count(const FRep& rep);

/// SUM(attr) over all represented tuples: the global group of the collapse
/// (no copy, no restructuring). The attribute must label an alive f-tree
/// node. Returns 0 for the empty relation. Throws FdbError when an
/// intermediate tuple count overflows uint64 (the weighted sum would be
/// silently wrong).
double Sum(const FRep& rep, AttrId attr);

/// AVG(attr); throws FdbError on the empty relation (and on count
/// overflow, like Sum).
double Avg(const FRep& rep, AttrId attr);

/// MIN/MAX(attr); throw FdbError on the empty relation. Every reachable
/// union participates in at least one tuple (no-empty-unions invariant), so
/// these read the reachable unions of the attribute's node: one
/// FRep::SweepBottomUp pruned to the f-tree path down to that node.
Value Min(const FRep& rep, AttrId attr);
Value Max(const FRep& rep, AttrId attr);

/// COUNT(DISTINCT attr): number of distinct values of the attribute across
/// all represented tuples.
size_t CountDistinct(const FRep& rep, AttrId attr);

/// A factorised grouped-aggregate result: the distinct groups as an
/// f-representation over the grouping classes only, plus the collapsed
/// statistics of everything that hung below them, as rows of the aggregate
/// algebra (core/agg_stats.h).
///
/// For a union entry with rep-wide entry index i (UnionRef::arena_offset()
/// + entry), the payload row (entry_count[i], entry_stats[i * specs.size(),
/// (i + 1) * specs.size())) is the product of the entry's own value and
/// the subtrees removed below it: entry_count[i] is their number of tuples
/// (1 when nothing was removed). A group is one root-to-leaf assignment of
/// `rep`; its row is the product of the payloads of the entries on that
/// assignment and the global row — see Materialize().
struct GroupedRep {
  FRep rep{FTree{}};   ///< factorised distinct groups (grouping classes only)
  AttrSet group_attrs; ///< the GROUP BY attributes
  std::vector<AggSpec> specs;

  // Per-entry payload rows, indexed by rep-wide entry index.
  std::vector<uint64_t> entry_count;
  std::vector<SpecStats> entry_stats;  ///< [entry * specs.size() + spec]

  // The root trees without grouping classes, collapsed into one row that
  // multiplies every group: global_count is the product of their tuple
  // counts, global_stats[j] spec j's statistics over their product.
  uint64_t global_count = 1;
  std::vector<SpecStats> global_stats;  ///< [spec]

  /// Number of distinct groups (tuples of `rep`).
  uint64_t NumGroups() const;

  /// Flattens to one row per group: group keys (ascending attribute order)
  /// plus one double per spec. Throws FdbError if a per-group count
  /// overflows uint64. The parameterless overload runs sequentially; the
  /// EnumerateOptions overload splits the group forest with the morsel
  /// planner (core/parallel_enumerate.h) and runs the chunks through
  /// ParallelEnumerator::ForEachChunk (governed like the SPJ sink), each
  /// writing its exactly counted rows at its offset of one presized table
  /// — the row order is identical to the sequential walk for every thread
  /// count. The table's bytes are charged once to the ambient
  /// ExecContext's memory budget before they are allocated.
  GroupedTable Materialize() const;
  GroupedTable Materialize(const EnumerateOptions& opts) const;
};

/// Grouped aggregation inside the factorisation (restructure-then-collapse,
/// see the header comment). Every attribute of `group_attrs` and of the
/// non-COUNT specs must label an alive node of the f-tree. Empty
/// `group_attrs` computes the single global group (equal to Count/Sum/...
/// of the whole representation); the empty relation yields zero groups.
///
/// `solver` (optional) ranks candidate restructuring swaps by the s(T) of
/// the resulting tree; without it a scratch solver is used. The swaps
/// planned are appended to `plan_out` when given. `in` is taken by value:
/// a caller done with its rep moves it in, and a rep that needs no swap is
/// collapsed without a copy. `trace` (optional) records one `restructure`
/// span for the one rewrite to the planned tree (rows = swaps planned,
/// bytes = the restructured rep; absent when no swap is needed) and one
/// `collapse` span for everything after it, under the caller's open span.
GroupedRep GroupByAggregate(FRep in, AttrSet group_attrs,
                            std::vector<AggSpec> specs,
                            EdgeCoverSolver* solver = nullptr,
                            FPlan* plan_out = nullptr,
                            QueryTrace* trace = nullptr);

}  // namespace fdb

#endif  // FDB_CORE_AGGREGATE_H_
