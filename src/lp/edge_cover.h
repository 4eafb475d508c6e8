// Fractional edge cover numbers for root-to-leaf paths of f-trees (§2).
//
// For a path p, build the hypergraph whose vertices are the attribute
// classes on p and whose edges are the query relations covering them; the
// fractional edge cover number is the optimum of
//
//   min   sum_i x_i
//   s.t.  sum_{i : class c covered by R_i} x_i >= 1   for every class c on p
//         x_i >= 0.
//
// The cover structure of a path is fully described by one relation-set
// bitmask per class, so solutions are memoised on the canonical (sorted,
// de-duplicated) list of masks. The f-tree search asks once per distinct
// path per search, and its searches, across queries and serve threads,
// share a few hundred distinct cover structures.
#ifndef FDB_LP_EDGE_COVER_H_
#define FDB_LP_EDGE_COVER_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/attrset.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fdb {

/// Solves one fractional edge cover instance.
///
/// `class_covers[i]` is the bitmask of relations covering the i-th attribute
/// class on the path. Throws FdbError if some class has no covering relation
/// (every attribute originates in some relation, so this indicates misuse).
double FractionalEdgeCoverValue(const std::vector<uint64_t>& class_covers);

/// Memoising wrapper around FractionalEdgeCoverValue.
///
/// Thread safety: Solve may be called concurrently (the serve path shares
/// one solver across all worker threads). Cache lookups take a shared lock;
/// only a memo miss upgrades to an exclusive lock around the insert. Two
/// threads racing on the same uncached instance may both run the LP — the
/// result is identical and only one insert wins, so `solve_count` may
/// exceed the number of distinct instances but never miscounts calls:
/// solve_count + hit_count == number of Solve calls, always.
class EdgeCoverSolver {
 public:
  double Solve(std::vector<uint64_t> class_covers) EXCLUDES(mu_);

  size_t cache_size() const EXCLUDES(mu_) {
    ReaderMutexLock lock(mu_);
    return cache_.size();
  }
  uint64_t solve_count() const { return solves_.load(std::memory_order_relaxed); }
  uint64_t hit_count() const { return hits_.load(std::memory_order_relaxed); }

 private:
  mutable SharedMutex mu_;
  std::unordered_map<std::vector<uint64_t>, double, VecHash64> cache_
      GUARDED_BY(mu_);
  std::atomic<uint64_t> solves_{0};
  std::atomic<uint64_t> hits_{0};
};

}  // namespace fdb

#endif  // FDB_LP_EDGE_COVER_H_
