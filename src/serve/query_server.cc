#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/fault.h"
#include "common/thread_pool.h"

namespace fdb {

QueryServer::QueryServer(Database* db, ServeOptions opts)
    : db_(db),
      opts_(opts),
      engine_(db, opts.engine),
      cache_(opts.plan_cache_capacity, &metrics_),
      received_(metrics_.GetCounter("fdb_serve_requests_total")),
      executed_(metrics_.GetCounter("fdb_serve_executed_total")),
      coalesced_(metrics_.GetCounter("fdb_serve_coalesced_total")),
      errors_(metrics_.GetCounter("fdb_serve_errors_total")),
      timeouts_(metrics_.GetCounter("fdb_serve_timeouts_total")),
      rejected_(metrics_.GetCounter("fdb_serve_rejected_total")),
      cancelled_(metrics_.GetCounter("fdb_server_cancelled_total")),
      resource_rejected_(
          metrics_.GetCounter("fdb_server_resource_rejected_total")),
      submit_expired_(metrics_.GetCounter("fdb_server_submit_expired_total")),
      queue_wait_hist_(metrics_.GetHistogram("fdb_serve_queue_wait_seconds")),
      cache_lookup_hist_(
          metrics_.GetHistogram("fdb_serve_cache_lookup_seconds")),
      execute_hist_(metrics_.GetHistogram("fdb_serve_execute_seconds")),
      render_hist_(metrics_.GetHistogram("fdb_serve_render_seconds")) {
  FDB_CHECK_MSG(opts_.num_workers > 0, "server needs at least one worker");
}

QueryServer::~QueryServer() { Shutdown(); }

std::future<ServeResponse> QueryServer::Submit(const std::string& sql,
                                               double deadline_seconds) {
  Waiter waiter;
  std::future<ServeResponse> future = waiter.promise.get_future();

  double deadline = deadline_seconds > 0.0 ? deadline_seconds
                                           : opts_.default_deadline_seconds;
  if (deadline > 0.0) {
    waiter.has_deadline = true;
    waiter.deadline = MonotonicDeadline(deadline);
  }

  // Enqueue-time governance, cheapest checks first. An oversized statement
  // is rejected before it is even lexed; an already-expired deadline is
  // answered TIMEOUT without burning a queue slot (counted separately from
  // dequeue-time expiry under submit_expired).
  if (opts_.max_query_bytes > 0 && sql.size() > opts_.max_query_bytes) {
    received_.Increment();
    resource_rejected_.Increment();
    waiter.promise.set_value(ServeResponse{
        ServeStatus::kResource,
        "query too large: " + std::to_string(sql.size()) + " bytes, limit " +
            std::to_string(opts_.max_query_bytes),
        false, false});
    return future;
  }
  if (waiter.has_deadline && waiter.deadline <= Clock::now()) {
    received_.Increment();
    timeouts_.Increment();
    submit_expired_.Increment();
    waiter.promise.set_value(ServeResponse{ServeStatus::kTimeout,
                                           "deadline expired before enqueue",
                                           false, false});
    return future;
  }

  // Normalise outside the lock; an unlexable statement is answered
  // immediately (it could never join a batch or hit the cache).
  std::string signature;
  try {
    signature = NormalizeSql(sql, db_->catalog());
  } catch (const FdbError& e) {
    received_.Increment();
    errors_.Increment();
    waiter.promise.set_value(
        ServeResponse{ServeStatus::kError, e.what(), false, false});
    return future;
  }

  // Rejection responses are delivered *after* mu_ is released: set_value
  // wakes the client thread (and may run a continuation) — doing that
  // under the lock lengthens the critical section for every worker and
  // invites a lock-order inversion if the woken client immediately calls
  // stats() or Submit. Decide under the lock, fulfil outside it.
  const char* reject_reason = nullptr;
  ServeStatus reject_status = ServeStatus::kError;
  bool schedule = false;
  received_.Increment();
  {
    MutexLock lock(mu_);
    if (stopping_) {
      errors_.Increment();
      reject_reason = "server is shutting down";
      reject_status = ServeStatus::kError;
    } else if (auto it = open_.find(signature); it != open_.end()) {
      // Batching front door: identical normalised SQL coalesces onto the
      // already-queued evaluation. Always admitted — it adds no queue
      // pressure, so it bypasses the max_queue bound.
      waiter.coalesced = true;
      coalesced_.Increment();
      it->second->waiters.push_back(std::move(waiter));
      return future;
    } else if (opts_.max_queue > 0 && queue_.size() >= opts_.max_queue) {
      // Admission control: opening another evaluation group would exceed
      // the configured queue bound — shed the request now rather than
      // growing an unbounded backlog.
      rejected_.Increment();
      reject_reason = "server overloaded: request queue is full";
      reject_status = ServeStatus::kBusy;
    } else {
      auto group = std::make_unique<Group>();
      group->raw_sql = sql;
      group->signature = std::move(signature);
      group->enqueued = Clock::now();
      group->waiters.push_back(std::move(waiter));
      open_.emplace(group->signature, group.get());
      queue_.push_back(std::move(group));
      // Schedule a drain task unless num_workers are already in flight —
      // a running task loops until the queue empties, so the new group is
      // guaranteed a worker either way (both the enqueue here and the
      // worker's exit check happen under mu_, so a worker cannot retire
      // between this enqueue and a decision not to schedule).
      if (inflight_ < static_cast<size_t>(opts_.num_workers)) {
        ++inflight_;
        schedule = true;
      }
    }
  }
  if (reject_reason != nullptr) {
    waiter.promise.set_value(
        ServeResponse{reject_status, reject_reason, false, false});
    return future;
  }
  // Spawn outside the lock: the pool has its own mutex and the task may
  // start (and want mu_) immediately.
  if (schedule) ThreadPool::Shared().Submit([this] { RunWorker(); });
  return future;
}

ServeResponse QueryServer::Query(const std::string& sql,
                                 double deadline_seconds) {
  return Submit(sql, deadline_seconds).get();
}

void QueryServer::RunWorker() {
  for (;;) {
    std::unique_ptr<Group> group;
    {
      MutexLock lock(mu_);
      if (stopping_ || queue_.empty()) {
        // Retire this drain task. The notify wakes Shutdown, which waits
        // for inflight_ == 0; after the decrement the task touches no
        // server state, so a woken Shutdown may safely destroy `this`.
        --inflight_;
        if (inflight_ == 0) cv_.NotifyAll();
        return;
      }
      group = std::move(queue_.front());
      queue_.pop_front();
      // Close the group: from here on, identical SQL starts a fresh one
      // rather than joining an evaluation that is about to run.
      open_.erase(group->signature);
    }
    ExecuteGroup(*group);
  }
}

void QueryServer::ExecuteGroup(Group& group) {
  // Deadline check at dequeue: expired requests are answered without
  // evaluating; if nobody is left waiting, the evaluation is skipped.
  const Clock::time_point now = Clock::now();
  queue_wait_hist_.Record(
      std::chrono::duration<double>(now - group.enqueued).count());
  std::vector<Waiter> live, expired;
  live.reserve(group.waiters.size());
  for (Waiter& w : group.waiters) {
    if (w.has_deadline && w.deadline <= now) {
      expired.push_back(std::move(w));
    } else {
      live.push_back(std::move(w));
    }
  }
  if (!expired.empty()) {
    timeouts_.Increment(expired.size());
    for (Waiter& w : expired) {
      w.promise.set_value(ServeResponse{ServeStatus::kTimeout,
                                        "deadline exceeded before evaluation",
                                        false, w.coalesced});
    }
  }
  if (live.empty()) return;

  // Governance context for this evaluation. Coalesced waiters share one
  // execution, so the binding deadline is the *least* restrictive over the
  // live waiters — with any no-deadline waiter the evaluation runs
  // undeadlined (impatient waiters are still answered TIMEOUT at
  // delivery). The memory budget comes from ServeOptions; the context is
  // registered in active_ so Shutdown can cancel a running evaluation
  // cooperatively instead of waiting it out.
  ExecContext ctx;
  bool all_deadlined = true;
  Clock::time_point latest = Clock::time_point::min();
  for (const Waiter& w : live) {
    if (!w.has_deadline) {
      all_deadlined = false;
      break;
    }
    latest = std::max(latest, w.deadline);
  }
  if (all_deadlined) ctx.SetDeadlineAt(latest);
  if (opts_.max_memory_bytes > 0) {
    ctx.budget().set_limit(opts_.max_memory_bytes);
  }
  {
    MutexLock lock(mu_);
    active_.push_back(&ctx);
    if (stopping_) ctx.Cancel();  // lost the race with Shutdown's sweep
  }

  // EXPLAIN ANALYZE runs the identical pipeline under a QueryTrace and
  // answers with the rendered span tree. Normalisation folds keywords to
  // lower case, so the signature prefix identifies explain statements
  // before the query is parsed (the parse happens *inside* the trace).
  const bool explain = group.signature.rfind("explain analyze", 0) == 0;
  std::optional<QueryTrace> trace;
  if (explain) trace.emplace();
  QueryTrace* tp = trace.has_value() ? &*trace : nullptr;

  ServeResponse response;
  Timer exec_timer;
  // The evaluation proper, lifted into a lambda so the try below can run
  // it under TranslateBadAlloc: an allocation failure anywhere inside
  // surfaces as FdbResourceExhausted (-> RESOURCE) instead of a
  // process-killing bad_alloc.
  auto evaluate = [&] {
    FDB_FAULT_POINT("serve_execute_group");
    std::optional<QueryTrace::Scope> root;
    if (tp != nullptr) {
      root.emplace(tp, "serve");
      // Submit already normalised the statement (the group key); re-run it
      // here so the trace carries the phase's cost for this query.
      QueryTrace::Scope span(tp, "normalize");
      NormalizeSql(group.raw_sql, db_->catalog());
    }

    const uint64_t version = db_->version();
    Timer lookup_timer;
    std::shared_ptr<const CachedPlan> plan =
        cache_.Lookup(group.signature, version, tp);
    cache_lookup_hist_.Record(lookup_timer.Seconds());
    std::shared_ptr<CachedPlan> fresh;
    if (plan == nullptr) {
      fresh = std::make_shared<CachedPlan>();
      {
        QueryTrace::Scope span(tp, "parse");
        fresh->query = engine_.Parse(group.raw_sql);
      }
      // The f-tree search ignores projection/grouping, so one tree serves
      // both the SPJ and the aggregate path of this query.
      {
        QueryTrace::Scope span(tp, "f-tree-search");
        fresh->search = engine_.OptimizeFlat(fresh->query);
        span.SetRows(fresh->search.explored);
      }
      plan = fresh;
    } else {
      response.cache_hit = true;
    }

    // The steady-state hot path: ground/execute/enumerate on the cached
    // tree — no optimisation. Traced, the SPJ branch also materialises the
    // result so the trace includes kernel compilation, morsel planning and
    // enumeration.
    FdbResult result = engine_.ExecuteTraced(plan->query, tp, &plan->search);
    if (fresh != nullptr) {
      // Publish only after the first successful execution: failing plans
      // are never cached. Inserting before the waiters are fulfilled keeps
      // the sequential repeat guarantee: a client that has its answer hits
      // the cache.
      cache_.Insert(group.signature, version, std::move(fresh));
    }
    if (tp != nullptr) {
      root.reset();  // close the "serve" span before rendering the tree
      result.explain = trace->Render();
    }
    Timer render_timer;
    FDB_FAULT_POINT("serve_render");
    response.body = RenderResult(*db_, result);
    render_hist_.Record(render_timer.Seconds());
    if (opts_.max_result_bytes > 0 &&
        response.body.size() > opts_.max_result_bytes) {
      const size_t size = response.body.size();
      response.body.clear();  // drop the oversized render before framing
      throw FdbResourceExhausted(
          "result too large: " + std::to_string(size) + " bytes, limit " +
          std::to_string(opts_.max_result_bytes));
    }
    response.status = ServeStatus::kOk;
  };
  try {
    // Bind the governance context for the whole evaluation; operators
    // re-bind it on pool threads via ParallelEnumerator::ForEachChunk.
    ExecContext::Scope scope(&ctx);
    TranslateBadAlloc(evaluate, "query evaluation");
  } catch (const FdbTimeout& e) {
    cancelled_.Increment();
    response.status = ServeStatus::kTimeout;
    response.body = e.what();
  } catch (const FdbResourceExhausted& e) {
    cancelled_.Increment();
    response.status = ServeStatus::kResource;
    response.body = e.what();
  } catch (const FdbCancelled& e) {
    cancelled_.Increment();
    response.status = ServeStatus::kError;
    response.body = e.what();
  } catch (const FdbError& e) {
    response.status = ServeStatus::kError;
    response.body = e.what();
  } catch (const std::exception& e) {
    response.status = ServeStatus::kError;
    response.body = std::string("internal error: ") + e.what();
  }
  {
    MutexLock lock(mu_);
    active_.erase(std::find(active_.begin(), active_.end(), &ctx));
  }
  execute_hist_.Record(exec_timer.Seconds());

  // Decide each waiter's outcome (a deadline that passed during evaluation
  // still times out — that client has given up), update the counters, and
  // only then fulfil the promises: a client that has its response in hand
  // must see it reflected in stats().
  const Clock::time_point done = Clock::now();
  std::vector<ServeResponse> outcomes;
  outcomes.reserve(live.size());
  uint64_t delivered_errors = 0, delivered_timeouts = 0;
  uint64_t delivered_resource = 0;
  // The last waiter takes the response itself: the rendered body is
  // copied only for the coalesced waiters before it.
  const bool cache_hit = response.cache_hit;
  for (size_t i = 0; i < live.size(); ++i) {
    const Waiter& w = live[i];
    ServeResponse r =
        i + 1 == live.size() ? std::move(response) : ServeResponse(response);
    r.coalesced = w.coalesced;
    if (w.has_deadline && w.deadline <= done) {
      r = ServeResponse{ServeStatus::kTimeout,
                        "deadline exceeded during evaluation", cache_hit,
                        w.coalesced};
      ++delivered_timeouts;
    } else if (r.status == ServeStatus::kError) {
      ++delivered_errors;
    } else if (r.status == ServeStatus::kResource) {
      ++delivered_resource;
    }
    outcomes.push_back(std::move(r));
  }
  executed_.Increment();
  errors_.Increment(delivered_errors);
  timeouts_.Increment(delivered_timeouts);
  resource_rejected_.Increment(delivered_resource);
  for (size_t i = 0; i < live.size(); ++i) {
    live[i].promise.set_value(std::move(outcomes[i]));
  }
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  s.received = received_.Value();
  s.executed = executed_.Value();
  s.coalesced = coalesced_.Value();
  s.errors = errors_.Value();
  s.timeouts = timeouts_.Value();
  s.rejected = rejected_.Value();
  s.cancelled = cancelled_.Value();
  s.resource_rejected = resource_rejected_.Value();
  s.submit_expired = submit_expired_.Value();
  s.plan_cache = cache_.stats();
  return s;
}

void QueryServer::Shutdown() {
  std::vector<std::unique_ptr<Group>> drained;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    // Cancel running evaluations cooperatively: each in-flight worker's
    // context flips, its next engine probe unwinds (answered ERR), and the
    // inflight_ wait below completes in bounded time even against
    // arbitrarily long queries.
    for (ExecContext* ctx : active_) ctx->Cancel();
    // Drain unexecuted work so no future is left dangling.
    while (!queue_.empty()) {
      open_.erase(queue_.front()->signature);
      drained.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    for (const auto& group : drained) errors_.Increment(group->waiters.size());
    // Wait for in-flight pool tasks: each retires (decrements inflight_
    // and notifies) on its next queue check, after which it no longer
    // touches server state — so once inflight_ is zero, destroying the
    // server is safe. Safe to run from concurrent callers (each waits for
    // the same condition) and idempotent.
    while (inflight_ > 0) cv_.Wait(mu_);
  }
  for (auto& group : drained) {
    for (Waiter& w : group->waiters) {
      w.promise.set_value(ServeResponse{ServeStatus::kError,
                                        "server is shutting down", false,
                                        w.coalesced});
    }
  }
}

}  // namespace fdb
