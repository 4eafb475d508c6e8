// QueryServer: a long-lived, concurrent entry point over one frozen
// Database + Engine pair — the serve path of the ROADMAP north star.
//
// Architecture (one process, no I/O here — examples/fdb_server.cc adds the
// socket front end):
//
//   clients ──Submit(sql)──▶ batching front door ──▶ request queue
//                                │ (requests with identical normalised
//                                │  SQL coalesce onto one evaluation)
//                                ▼
//              shared thread pool (common/thread_pool.h), at most
//              num_workers drain tasks running concurrently
//                                │  plan cache lookup (normalised SQL,
//                                │  db version) ── miss: parse + optimise
//                                ▼
//                  ground / execute / enumerate / render
//                                │
//                                ▼ one rendered body, fan-out to waiters
//
// The server owns no threads: Submit spawns a queue-draining task on the
// process-wide pool whenever fewer than num_workers are in flight, and
// each task loops until the queue is empty, so num_workers bounds the
// number of *concurrent evaluations* rather than naming dedicated
// threads. Shutdown waits for in-flight tasks instead of joining.
//
// The shared plan cache (serve/plan_cache.h) makes the steady-state hot
// path cache-lookup -> ground/execute -> enumerate, skipping the
// exponential f-tree search entirely. A cache entry is published only
// after its first successful execution. Only EXPLAIN ANALYZE materialises
// an SPJ result here, compiling its kernel from the result's f-tree like
// every materialisation (core/parallel_enumerate.h).
// Per-request deadlines are enforced at Submit (an already-expired
// deadline is answered TIMEOUT without burning a queue slot), at dequeue
// (expired requests are answered TIMEOUT without evaluating), *during*
// evaluation (the worker binds an ExecContext — common/exec_context.h —
// carrying the group's least-restrictive deadline and the per-query
// memory budget, and the engine's cooperative probes unwind to TIMEOUT /
// RESOURCE in bounded time, reclaiming the worker) and again at delivery.
//
// Observability: every server owns a MetricsRegistry (common/metrics.h)
// holding its request counters, the plan-cache counters and four latency
// histograms (queue wait, cache lookup, execute, render); recording is
// lock-free and MetricsExposition() renders the registry for the STATS
// protocol verb. EXPLAIN ANALYZE statements run their evaluation under a
// QueryTrace (common/trace.h) and answer with the rendered span tree
// (serve -> normalize/plan-cache-lookup/[parse/f-tree-search]/ground/...)
// instead of result rows.
//
// Thread safety: the database must be fully loaded before the server is
// constructed and must not change while it serves (Database::version
// guards cached plans against changes *between* serving sessions, not
// concurrent ones). Everything the workers share — the engine's LP memo
// and prepared-relation cache, the dictionary, the plan cache, the queue —
// is internally synchronised;
// see the Engine concurrency contract in api/engine.h.
#ifndef FDB_SERVE_QUERY_SERVER_H_
#define FDB_SERVE_QUERY_SERVER_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "common/exec_context.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"

namespace fdb {

/// Serve-path knobs.
struct ServeOptions {
  /// Maximum evaluations running concurrently. Work is executed by tasks
  /// on the shared process-wide thread pool (common/thread_pool.h), not by
  /// dedicated server threads, so this bounds concurrency rather than
  /// sizing a pool.
  int num_workers = 4;
  size_t plan_cache_capacity = 64;   ///< LRU bound on cached plans
  double default_deadline_seconds = 0.0;  ///< <= 0: no deadline
  /// Admission control: maximum queued evaluation groups (0 = unbounded).
  /// A request that would open a group beyond the bound is rejected with
  /// BUSY immediately; requests that coalesce onto an already-queued
  /// group are always admitted (they add no queue pressure).
  size_t max_queue = 0;
  /// Resource governance (0 = unlimited for each). Violations answer
  /// RESOURCE (serve/protocol.h) — the query is the problem, not the
  /// load, so clients should not retry unchanged.
  ///
  /// Per-query memory budget: cumulative bytes one evaluation may charge
  /// (common/exec_context.h) before it is stopped cooperatively
  /// mid-execution. Charged: FRep arena growth and the result storage of a
  /// materialisation (the SPJ result buffer under EXPLAIN ANALYZE, the
  /// grouped table of an aggregate), each before it is allocated.
  size_t max_memory_bytes = 0;
  /// Maximum rendered response body size; larger results are dropped and
  /// answered RESOURCE after evaluation.
  size_t max_result_bytes = 0;
  /// Maximum accepted SQL statement length, checked at Submit before any
  /// parsing.
  size_t max_query_bytes = 0;
  EngineOptions engine;              ///< forwarded to the shared Engine
};

/// Counters of one QueryServer (monotonic since construction). A view of
/// the server's MetricsRegistry: each value is one relaxed-atomic read, so
/// values never tear, but the struct is not a simultaneous snapshot and may
/// trail requests still in flight — see the consistency contract in
/// common/metrics.h. A request's own effect is always visible once its
/// response is in hand (counters are bumped before promises are fulfilled),
/// and cross-counter invariants hold exactly at quiescence: every received
/// request was the lead of an executed group, coalesced onto one, shed with
/// BUSY, or expired before its group ran (a fully-expired group skips
/// evaluation and counts only under timeouts) — so
/// received <= executed + coalesced + rejected + timeouts, with equality
/// when no request timed out (timeouts can otherwise double-count a
/// coalesced or executed-group waiter that also expired).
struct ServerStats {
  uint64_t received = 0;   ///< requests submitted
  uint64_t executed = 0;   ///< evaluations actually run
  uint64_t coalesced = 0;  ///< requests answered by another's evaluation
  uint64_t errors = 0;     ///< requests answered ERR
  uint64_t timeouts = 0;   ///< requests answered TIMEOUT
  uint64_t rejected = 0;   ///< requests answered BUSY (queue at max_queue)
  /// Evaluations stopped mid-execution by governance (deadline, explicit
  /// cancellation, or memory budget) — the cooperative-probe path in
  /// common/exec_context.h actually fired. Counts evaluations, not
  /// waiters.
  uint64_t cancelled = 0;
  /// Requests answered RESOURCE (memory budget, result size cap, query
  /// size cap, or allocation failure).
  uint64_t resource_rejected = 0;
  /// Requests whose deadline had already passed at Submit — answered
  /// TIMEOUT without ever occupying a queue slot. A subset of timeouts
  /// (each such request counts under both).
  uint64_t submit_expired = 0;
  PlanCacheStats plan_cache;
};

/// A concurrent read-only SQL query server over one Database.
class QueryServer {
 public:
  /// `db` must outlive the server and stay frozen while it runs. No
  /// threads are spawned here: evaluation runs on the shared thread pool,
  /// scheduled on demand by Submit.
  explicit QueryServer(Database* db, ServeOptions opts = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues one SQL request. `deadline_seconds` <= 0 falls back to the
  /// configured default (and 0 there means no deadline). The future is
  /// always fulfilled — with kError after Shutdown.
  std::future<ServeResponse> Submit(const std::string& sql,
                                    double deadline_seconds = 0.0)
      EXCLUDES(mu_);

  /// Blocking convenience: Submit + wait.
  ServeResponse Query(const std::string& sql, double deadline_seconds = 0.0);

  /// View of the server counters, including the plan cache's. Lock-free:
  /// reads the metrics registry's atomics without touching mu_, so it never
  /// contends with evaluation (see the ServerStats consistency contract).
  ServerStats stats() const;

  /// Prometheus-style text exposition of the server's full metrics
  /// registry: the ServerStats counters, the plan-cache counters/gauge and
  /// the per-request latency histograms (fdb_serve_queue_wait_seconds,
  /// _cache_lookup_, _execute_, _render_). This is the body of the STATS
  /// protocol verb (serve/protocol.h).
  std::string MetricsExposition() const { return metrics_.RenderPrometheus(); }

  const Database& db() const { return *db_; }
  const PlanCache& plan_cache() const { return cache_; }

  /// Stops accepting work, drains the queue (answering kError) and waits
  /// for in-flight pool tasks to finish. Idempotent; also run by the
  /// destructor.
  void Shutdown() EXCLUDES(mu_);

 private:
  using Clock = MonotonicClock;  // common/timer.h

  struct Waiter {
    std::promise<ServeResponse> promise;
    Clock::time_point deadline;
    bool has_deadline = false;
    bool coalesced = false;
  };

  /// One evaluation unit: every queued request with the same normalised
  /// SQL. Groups are closed when a worker dequeues them, so late arrivals
  /// start a fresh group instead of joining an in-flight evaluation.
  struct Group {
    std::string raw_sql;    ///< first arrival's text (parsed on plan miss)
    std::string signature;  ///< normalised SQL, the plan-cache key
    Clock::time_point enqueued{};  ///< for fdb_serve_queue_wait_seconds
    std::vector<Waiter> waiters;
  };

  /// Body of one pool task: drains queued groups until the queue is empty
  /// or the server is stopping, then retires its inflight slot.
  void RunWorker() EXCLUDES(mu_);
  void ExecuteGroup(Group& group) EXCLUDES(mu_);

  Database* db_;
  ServeOptions opts_;
  /// Owns every server metric (declared before engine_/cache_: the cache
  /// binds its counters here at construction). Counters/histograms below
  /// are references into this registry — lock-free to record and to read.
  MetricsRegistry metrics_;
  Engine engine_;
  PlanCache cache_;
  Counter& received_;
  Counter& executed_;
  Counter& coalesced_;
  Counter& errors_;
  Counter& timeouts_;
  Counter& rejected_;
  Counter& cancelled_;          ///< fdb_server_cancelled_total
  Counter& resource_rejected_;  ///< fdb_server_resource_rejected_total
  Counter& submit_expired_;     ///< fdb_server_submit_expired_total
  Histogram& queue_wait_hist_;    ///< Submit enqueue -> worker dequeue
  Histogram& cache_lookup_hist_;  ///< PlanCache::Lookup wall time
  Histogram& execute_hist_;       ///< whole evaluation (lookup..render)
  Histogram& render_hist_;        ///< RenderResult wall time (OK only)

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::unique_ptr<Group>> queue_ GUARDED_BY(mu_);
  /// signature -> queued group (the pointee is owned by queue_ and only
  /// mutated under mu_ while the group is queued).
  std::unordered_map<std::string, Group*> open_ GUARDED_BY(mu_);
  /// Governance contexts of evaluations currently running, so Shutdown can
  /// cancel them cooperatively instead of waiting out arbitrarily long
  /// queries. Each ExecuteGroup registers its stack-local context for the
  /// duration of the evaluation.
  std::vector<ExecContext*> active_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;

  /// Queue-draining pool tasks currently running (or scheduled and not yet
  /// started). Bounded by opts_.num_workers; Shutdown waits on cv_ for it
  /// to reach zero, which also guarantees no task still references `this`.
  size_t inflight_ GUARDED_BY(mu_) = 0;
};

}  // namespace fdb

#endif  // FDB_SERVE_QUERY_SERVER_H_
