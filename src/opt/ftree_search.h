// Exhaustive search for an optimal f-tree of a query over flat input
// (Experiment 1 / Fig. 5).
//
// Every normalised f-tree of the query arises from a recursive choice of
// roots: pick a root class for each dependency-connected component of the
// classes, remove it, recurse on the components of the remainder (each
// sub-component shares a relation with the chosen root, so the construction
// yields exactly the normalised trees; because the classes of one relation
// form a dependency clique, the path constraint holds automatically).
//
// Three reductions keep the exponential space tractable at the paper's
// scale (R = 8, A = 40, K = 9):
//   * symmetry — classes with identical covering-relation sets are
//     interchangeable, only one is tried as root;
//   * branch-and-bound — the fractional cover of a path prefix only grows
//     when extended, so any prefix already at or above the incumbent bound
//     is cut;
//   * memoisation — a path is the bitset of the distinct cover signatures on
//     it, which is all its edge-cover LP depends on, so each distinct path
//     is priced once per search. Each (component, path) subproblem is
//     solved once: a solved one keeps its optimum and chosen root (exact),
//     a failed one the largest bound it failed under (lower bound), and is
//     searched again only under a looser bound. The tree is replayed from
//     the chosen roots at the end. Roots are tried in bit order and only a
//     strictly cheaper one replaces the incumbent, so the tree is the one
//     the plain search would choose.
#ifndef FDB_OPT_FTREE_SEARCH_H_
#define FDB_OPT_FTREE_SEARCH_H_

#include <cstdint>

#include "core/ftree.h"
#include "lp/edge_cover.h"
#include "storage/query.h"

namespace fdb {

/// Search outcome.
struct FTreeSearchResult {
  FTree tree;            ///< an optimal f-tree of the query
  double cost = 0.0;     ///< s(tree) = s(Q) over normalised f-trees
  uint64_t explored = 0; ///< subproblems priced (memo hits excluded)
};

/// Finds a normalised f-tree of minimal cost s(T) for the query described
/// by `info`. `solver` memoises edge-cover LPs across calls; one search
/// asks it once per distinct path.
FTreeSearchResult FindOptimalFTree(const QueryInfo& info,
                                   EdgeCoverSolver& solver);

}  // namespace fdb

#endif  // FDB_OPT_FTREE_SEARCH_H_
