// Shared f-plan cache for the serve path.
//
// The expensive part of answering a repeated SPJ / grouped-aggregate query
// is the optimal f-tree search (FindOptimalFTree explores an exponential
// space; BM_EdgeCoverWarmCache showed the same effect one layer down at the
// LP memo). The serve path therefore memoises whole optimisation outcomes:
// parsed query + optimal f-tree, keyed on the *normalised* SQL text
// (serve/protocol.h) and the database version. The steady-state hot path of
// QueryServer is then cache-lookup -> ground/execute -> enumerate, with no
// optimisation at all.
//
// Entries are invalidated by database version bumps (schema or data
// changes; see Database::version) and bounded by an LRU of configurable
// capacity.
#ifndef FDB_SERVE_PLAN_CACHE_H_
#define FDB_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "opt/ftree_search.h"
#include "storage/query.h"

namespace fdb {

/// One memoised optimisation outcome. Immutable once published (shared
/// between all threads executing the same query concurrently). Published
/// plans have executed successfully at least once: the server inserts
/// after the first execution, so failing plans are never cached.
struct CachedPlan {
  Query query;               ///< parsed query, literals interned
  FTreeSearchResult search;  ///< optimal f-tree for the query's SPJ core
};

/// Counter view of one PlanCache (see PlanCache::stats). `hits + misses`
/// equals the number of Lookup calls; `invalidations` counts entries
/// dropped because their database version went stale (a subset of misses);
/// `evictions` counts LRU drops.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  size_t size = 0;      ///< current number of entries
  size_t capacity = 0;  ///< configured bound
};

/// A thread-safe LRU of CachedPlans keyed on (normalised SQL, database
/// version). All operations are O(1) expected and lock one internal mutex;
/// the critical sections only touch the index (the plan itself is shared
/// out by shared_ptr and executed outside the lock).
class PlanCache {
 public:
  /// `metrics` receives the cache's counters (fdb_plan_cache_hits_total,
  /// _misses_total, _evictions_total, _invalidations_total and the
  /// fdb_plan_cache_entries gauge); it must outlive the cache. Null means
  /// the cache owns a private registry (standalone uses and tests).
  explicit PlanCache(size_t capacity, MetricsRegistry* metrics = nullptr);

  /// Returns the cached plan for `signature` if present and built against
  /// `version`; nullptr otherwise. A present entry with a stale version is
  /// erased (counted as invalidation + miss). A non-null `trace` records a
  /// "plan-cache-lookup" span.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& signature,
                                           uint64_t version,
                                           QueryTrace* trace = nullptr)
      EXCLUDES(mu_);

  /// Publishes a plan, evicting the least-recently-used entry if the cache
  /// is full. Re-inserting an existing key replaces the entry (last writer
  /// wins — both racers hold equivalent plans).
  void Insert(const std::string& signature, uint64_t version,
              std::shared_ptr<const CachedPlan> plan) EXCLUDES(mu_);

  /// Counter view assembled from the registry metrics plus the current
  /// size. Values never tear (each is one atomic), but the view is not a
  /// simultaneous snapshot — see the consistency contract in
  /// common/metrics.h.
  PlanCacheStats stats() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string signature;
    uint64_t version;
    std::shared_ptr<const CachedPlan> plan;
  };

  mutable Mutex mu_;
  const size_t capacity_;  // immutable after construction, lock-free reads
  std::unique_ptr<MetricsRegistry> owned_;  // when no registry was passed
  MetricsRegistry* metrics_;                // owned_.get() or the argument
  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  Counter& invalidations_;
  Gauge& entries_;
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mu_);
};

}  // namespace fdb

#endif  // FDB_SERVE_PLAN_CACHE_H_
