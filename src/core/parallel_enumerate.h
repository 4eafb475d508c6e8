// Parallel chunked enumeration: morsel-driven multi-core tuple streaming
// from f-representations.
//
// Constant-delay enumeration (core/enumerate.h) is a lexicographic
// odometer over the pre-order frames of the f-tree, which makes it
// embarrassingly partitionable over the *top* frames: restricting the
// first frame's union to an entry range [b, e) — and, when one entry
// dominates, pinning it and recursing one level down — carves the tuple
// stream into contiguous, disjoint slices. The planner (PlanMorsels)
// builds such slices ("morsels", after Leis et al., Morsel-Driven
// Parallelism, SIGMOD'14 — see PAPERS.md) of bounded output, sized by
// the compiled kernel's own count mode (EnumKernel::CountEntries: the
// exact rows under each entry of one frame, frame 0 counted in entry
// ranges on the pool when its union is large), so every morsel carries
// its exact row count and planning costs one count walk of the stream,
// not a pass over the union DAG. ParallelEnumerator schedules one task
// per morsel on the shared thread pool (common/thread_pool.h) — for
// MaterializeVisible a bounded run of the compiled kernel (core/kernel.h).
//
// Determinism: morsels partition the stream in lexicographic odometer
// order, so concatenating per-chunk results by chunk index reproduces the
// sequential enumeration byte for byte, regardless of thread count or
// scheduling (tests/parallel_enumerate_test.cc asserts this tuple for
// tuple against TupleEnumerator; the TSan CI job runs it under
// ThreadSanitizer).
#ifndef FDB_CORE_PARALLEL_ENUMERATE_H_
#define FDB_CORE_PARALLEL_ENUMERATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/trace.h"
#include "core/enumerate.h"
#include "core/frep.h"
#include "storage/relation.h"

namespace fdb {

class EnumKernel;  // core/kernel.h

/// Knobs of one (possibly parallel) enumeration.
struct EnumerateOptions {
  /// Maximum threads enumerating concurrently (including the caller).
  /// 0 = one per hardware thread (ResolveThreads, common/thread_pool.h);
  /// 1 = sequential on the caller.
  int threads = 0;

  /// Exact output (tuples, counted by the planner) below which
  /// enumeration stays on the calling thread — morsel planning and thread
  /// handoff are not worth it for small results.
  double parallel_cutoff = 32768;

  /// Override of the target tuples per morsel (0 = the stream length
  /// split into a fixed number of morsels per thread). Mainly for tests.
  double target_morsel_tuples = 0;
};

/// One work slice: a restriction chain on the top pre-order frames (the
/// EntryBound contract of core/enumerate.h) plus its exact row count —
/// EnumKernel::CountRows over the same bounds. An empty bounds vector
/// denotes the whole stream.
struct Morsel {
  std::vector<EntryBound> bounds;
  uint64_t rows = 0;
};

/// A partition of the enumeration stream. Morsels are in lexicographic
/// odometer order: concatenating their streams by index reproduces the
/// sequential enumeration exactly, and their rows sum to total_rows.
struct MorselPlan {
  std::vector<Morsel> morsels;
  uint64_t total_rows = 0;  ///< exact stream length (restricted count)
};

/// Splits the enumeration stream of `rep` (frames as per `visible_only`)
/// into morsels of roughly `target_tuples` rows each. Entries of the first
/// frame's union are packed greedily by their exact row counts; an entry
/// whose rows alone exceed the target is pinned and the next frame, counted
/// under the pin, is split recursively. Always returns at least one morsel
/// for a non-empty rep; the empty rep yields an empty plan.
MorselPlan PlanMorsels(const FRep& rep, bool visible_only,
                       double target_tuples);

/// Schedules per-morsel work over a morsel plan, one chunk per morsel, on
/// the shared thread pool.
class ParallelEnumerator {
 public:
  /// Plans the enumeration: counts the stream with a kernel in the
  /// `visible_only` mode — `kernel` when given (compiled from rep.tree()
  /// in that mode; used only during construction), otherwise one compiled
  /// here. Falls back to one whole-stream chunk, which still carries the
  /// stream's row count, when the resolved thread count is 1, the count is
  /// below opts.parallel_cutoff, or the rep has no splittable frames
  /// (nullary). The count walk probes the caller's ExecContext as every
  /// kernel run does, and each pool range at its start, so a query
  /// cancelled during planning stops here with FdbCancelled.
  ParallelEnumerator(const FRep& rep, EnumerateOptions opts = {},
                     bool visible_only = false,
                     const EnumKernel* kernel = nullptr);

  /// Number of chunks ForEachChunk() will deliver (0 for the empty rep).
  size_t num_chunks() const { return plan_.morsels.size(); }

  /// Resolved maximum concurrency (including the caller thread).
  int threads() const { return threads_; }

  const MorselPlan& plan() const { return plan_; }

  /// Calls fn(chunk) for every chunk in [0, num_chunks()), concurrently on
  /// up to threads() threads; fn runs its own walk over
  /// plan().morsels[chunk].bounds. `fn` must be safe to run concurrently
  /// for distinct chunks; chunk index order equals sequential stream
  /// order, so writing chunk results into per-index slots and
  /// concatenating reproduces sequential output exactly. Every task
  /// re-binds the caller's ExecContext and passes the "enumerate_morsel"
  /// fault point. Rethrows the first exception a chunk throws.
  void ForEachChunk(const std::function<void(size_t)>& fn) const;

 private:
  int threads_;
  MorselPlan plan_;
};

/// Materialises the visible part of `rep` as a relation — the one
/// materialiser. Output contract:
///  * schema = the visible attributes in increasing id order;
///  * the rows are distinct (relations are sets) and sorted under
///    sort_order(), which lists the columns in f-tree pre-order — the
///    order the odometer emits them in, so it differs from column order
///    whenever the pre-order does (EnumKernel::order());
///  * no sort runs unless the tree projects a middle node — a kept frame
///    with no visible attribute, whose values can repeat and reorder the
///    rows below it (!EnumKernel::distinct()); only that shape is sorted
///    and deduplicated;
///  * the output is byte-identical for every opts.threads and morsel size.
/// Compare two results over different f-trees as sets (same rows after
/// canonicalising both), not with ==.
///
/// Rows are emitted by one visible-mode kernel run per morsel — extraction
/// fused into emission, every morsel writing its own slice of one buffer
/// presized from the plan's exact counts — on up to opts.threads cores for
/// large representations. `kernel` is reused when it is a visible-mode
/// kernel whose compiled shape matches rep.tree() (EnumKernel::Matches);
/// otherwise (null included) one is compiled from rep.tree(). The same
/// kernel sizes the plan. A non-null `trace` records "kernel-compile"
/// (only when this call compiles), "morsel-plan" (rows = chunk count; it
/// holds the count walk) and "enumerate" (rows = output rows) with the
/// sink's steps below it: "emit" (rows = tuples emitted), which holds
/// "emit-buffer" (bytes = the result buffer's size: its reserve, page
/// advice, per-morsel pre-fault on the pool and value-initialisation), and
/// "sort-dedup" (rows = rows kept; only when the tree projects a
/// middle node). The buffer's bytes are charged to the ambient
/// ExecContext's memory budget before it is allocated. All are opened on the calling thread around the whole
/// fan-out — per-morsel work is aggregated, never one span per morsel
/// (common/trace.h).
Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts = {},
                            const EnumKernel* kernel = nullptr,
                            QueryTrace* trace = nullptr);

}  // namespace fdb

#endif  // FDB_CORE_PARALLEL_ENUMERATE_H_
