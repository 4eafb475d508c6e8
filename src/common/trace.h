// Per-query lifecycle tracing: a tree of timed phase spans.
//
// A QueryTrace records where one query's wall time went — the phases the
// paper's cost analysis distinguishes (f-tree search vs grounding vs
// enumeration, and restructure-vs-collapse for aggregates) as nested RAII
// spans carrying wall-time plus optional output-row and rep-size payloads.
// The span taxonomy (see README "Observability"):
//
//   serve / query          root: the whole request / Engine::Execute call
//     normalize            SQL canonicalisation (serve path only)
//     plan-cache-lookup    PlanCache::Lookup
//     parse                ParseSql
//     f-tree-search        FindOptimalFTree (absent on a plan-cache hit)
//     ground               GroundQuery (bytes = FRep::MemoryBytes)
//       ground-prepare     relations filtered + sorted, or reused from the
//                          engine's cache (rows = input rows; bytes = rows
//                          prepared by this query, absent on a full hit)
//       ground-build       the morsel-parallel leapfrog walk (rows =
//                          morsels; bytes = FRep::MemoryBytes)
//         ground-splice    a split build's segments appended after the
//                          caller's morsels (rows = segments; bytes =
//                          arena bytes copied); absent in one morsel
//     project              deferred projection, when the query projects
//     restructure-aggregate  GroupByAggregate (aggregate queries)
//       restructure        the one rewrite to the grouping f-tree (rows =
//                          swaps planned; bytes = the restructured rep);
//                          absent when no swap is needed
//       collapse           the group forest and its payloads, after the
//                          restructure
//     materialize-groups   GroupedRep::Materialize (rows = groups)
//     kernel-compile       EnumKernel::Compile, at SPJ materialisation
//     morsel-plan          ParallelEnumerator planning: the kernel's
//                          count walk and the split (rows = morsels)
//     enumerate            materialisation of the flat result (rows)
//       emit               the sink's enumeration (rows = tuples emitted)
//         emit-buffer      the result buffer's set-up: reserve, huge-page
//                          advice, parallel pre-fault, value-initialisation
//                          (bytes = buffer size)
//       sort-dedup         only for a projected middle node (rows = kept)
//
// Tracing is opt-in per query: every traced function takes a
// `QueryTrace* trace = nullptr` and a null trace makes Scope a no-op that
// never reads the clock, so the untraced hot path pays one branch per
// phase (BM_TraceOverhead in bench/micro_ops.cc keeps this honest).
//
// Thread safety: a QueryTrace is single-threaded by construction — spans
// open and close on the thread driving the query. Parallel phases
// (morsel-driven grounding and enumeration) are covered by ONE span opened
// on the driving thread around the whole fan-out, never one span per
// morsel; worker threads never touch the trace.
#ifndef FDB_COMMON_TRACE_H_
#define FDB_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.h"

namespace fdb {

/// A tree of timed phase spans for one query. Spans are stored in opening
/// order (pre-order); `parent` indices encode the tree.
class QueryTrace {
 public:
  struct Span {
    std::string name;
    int parent = -1;        ///< index of the enclosing span; -1 for roots
    int depth = 0;          ///< 0 for roots (cached for rendering)
    double seconds = 0.0;   ///< wall time; filled when the span closes
    uint64_t rows = 0;      ///< output rows, when the phase has them
    uint64_t bytes = 0;     ///< rep size (FRep::MemoryBytes), when known
    bool has_rows = false;
    bool has_bytes = false;
  };

  /// RAII phase span. Null-safe: a null trace makes every member a no-op
  /// and the clock is never read, so untraced callers pay one branch.
  /// Scopes must nest (strict LIFO per trace) — guaranteed by lexical
  /// scoping at every call site.
  class Scope {
   public:
    Scope(QueryTrace* trace, std::string_view name) : trace_(trace) {
      if (trace_ != nullptr) {
        index_ = trace_->OpenSpan(name);
        start_ = MonotonicClock::now();
      }
    }
    ~Scope() {
      if (trace_ != nullptr) {
        trace_->CloseSpan(
            index_,
            std::chrono::duration<double>(MonotonicClock::now() - start_)
                .count());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void SetRows(uint64_t rows) {
      if (trace_ != nullptr) trace_->SetRows(index_, rows);
    }
    void SetBytes(uint64_t bytes) {
      if (trace_ != nullptr) trace_->SetBytes(index_, bytes);
    }

   private:
    QueryTrace* trace_;
    int index_ = -1;
    MonotonicClock::time_point start_{};
  };

  /// Opens a span as a child of the innermost open span (or a root).
  /// Returns its index. Prefer Scope; this is the manual layer under it.
  int OpenSpan(std::string_view name);

  /// Closes span `index` with its measured wall time. Must be the
  /// innermost open span (spans close LIFO).
  void CloseSpan(int index, double seconds);

  /// Records an already-measured leaf span under the innermost open span.
  void RecordSpan(std::string_view name, double seconds);

  void SetRows(int index, uint64_t rows);
  void SetBytes(int index, uint64_t bytes);

  const std::vector<Span>& spans() const { return spans_; }

  /// Wall time of the root span(s) — the trace's reported total.
  double TotalSeconds() const;

  /// Renders the span tree as the EXPLAIN ANALYZE body: one line per span,
  /// two-space indentation per depth, `time=` plus optional `rows=` /
  /// `bytes=` fields, a trailing total line. Every line ends with '\n'.
  std::string Render() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace fdb

#endif  // FDB_COMMON_TRACE_H_
