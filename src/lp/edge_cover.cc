#include "lp/edge_cover.h"

#include <algorithm>
#include <bit>

#include "common/types.h"
#include "lp/simplex.h"

namespace fdb {

double FractionalEdgeCoverValue(const std::vector<uint64_t>& class_covers) {
  if (class_covers.empty()) return 0.0;

  uint64_t all_rels = 0;
  for (uint64_t mask : class_covers) {
    FDB_CHECK_MSG(mask != 0, "attribute class with no covering relation");
    all_rels |= mask;
  }

  // Dense relation ids 0..n-1 for the relations that appear.
  std::vector<int> rel_col(64, -1);
  int n = 0;
  for (int r = 0; r < 64; ++r) {
    if ((all_rels >> r) & 1) rel_col[r] = n++;
  }

  const size_t m = class_covers.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < m; ++i) {
    for (int r = 0; r < 64; ++r) {
      if ((class_covers[i] >> r) & 1) a[i][static_cast<size_t>(rel_col[r])] = 1.0;
    }
  }
  std::vector<double> b(m, 1.0);
  std::vector<double> c(static_cast<size_t>(n), 1.0);

  LpResult res = SolveCoveringLp(a, b, c);
  FDB_CHECK_MSG(res.feasible, "edge cover LP infeasible");
  return res.objective;
}

double EdgeCoverSolver::Solve(std::vector<uint64_t> class_covers) {
  // Canonicalise: the LP value depends only on the set of distinct masks.
  std::sort(class_covers.begin(), class_covers.end());
  class_covers.erase(
      std::unique(class_covers.begin(), class_covers.end()),
      class_covers.end());
  // A superset mask is implied by its subset's constraint (any x covering
  // the subset's class covers it too), so drop it to shrink the key.
  std::vector<uint64_t> kept;
  for (uint64_t mi : class_covers) {
    bool dominated = false;
    for (uint64_t mj : class_covers) {
      if (mj != mi && (mi & mj) == mj) {  // mj subset of mi: mj is stronger
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(mi);
  }

  {
    ReaderMutexLock lock(mu_);
    auto it = cache_.find(kept);
    if (it != cache_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Miss: solve outside any lock (the LP is the expensive part), then
  // insert. A racing thread may have inserted meanwhile; emplace keeps the
  // first value (both are the same optimum).
  solves_.fetch_add(1, std::memory_order_relaxed);
  double v = FractionalEdgeCoverValue(kept);
  WriterMutexLock lock(mu_);
  cache_.emplace(std::move(kept), v);
  return v;
}

}  // namespace fdb
