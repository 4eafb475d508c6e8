// Grounding: computing the f-representation of a join query directly from
// flat relations, over a chosen f-tree (§2; the O(|Q|·|D|^{s(T)}) algorithm
// of [19] realised as a multi-way sorted intersection per f-tree node).
//
// Each relation's attribute classes lie on a single root-to-leaf path of
// the f-tree (the path constraint), so sorting the relation by its classes
// in ancestor-first order makes the tuples matching any partial context a
// contiguous range. Grounding runs in two steps:
//
//  * prepare — per relation, keep the rows that satisfy the relation's
//    intra-class equalities and the query's constant predicates, sorted by
//    its path order and deduplicated (PrepareRelation). Without the
//    predicates the result depends only on the relation and its column
//    groups along the f-tree, so a caller may reuse it across queries: the
//    Engine keeps a PreparedRelationCache, and a reused relation takes the
//    predicates in one order-preserving filtering pass.
//  * build — walk the f-tree: at each node intersect (leapfrog-style) the
//    distinct values of the covering relations' current ranges, narrow the
//    ranges for each value, and recurse into the children; values whose
//    children turn out empty are dropped. A node with one covering
//    relation has nothing to intersect and steps through the runs of its
//    range; a childless node's union is committed in one append. The walk
//    allocates nothing per node or value beyond the result's arenas, and
//    it never materialises flat intermediate results.
//
// The build is morsel-parallel. The first root's values are cut into
// morsels, disjoint increasing ranges of root values found in every
// covering relation by LowerBound, and the morsels run on the shared
// thread pool (common/thread_pool.h): the first thread to start, normally
// the caller, takes morsels from the front and builds them in place;
// helpers take them from the back, each into a private segment. The
// segments are then appended in morsel order with their union ids and
// offsets rebased, and the root union is committed from the morsels' root
// entries. The result therefore has the union numbering and arena layout
// of a build in one piece, and its WriteFRep output is byte-identical for
// every thread count. The morsel count grows with the root's candidate
// rows (the fewest rows among its covering relations), so small inputs
// build in one morsel on the caller; one morsel is the sequential build,
// not a separate path. When the pool is busy the caller builds every
// morsel in place and nothing is copied.
#ifndef FDB_CORE_GROUND_H_
#define FDB_CORE_GROUND_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/trace.h"
#include "core/frep.h"
#include "storage/query.h"
#include "storage/relation.h"

namespace fdb {

/// The columns of one relation along its f-tree path, ancestor-first: one
/// group per node the relation covers, listing in ascending order the
/// relation's columns whose attributes lie in that node's class. The
/// columns of a group must agree on every kept row; the first one stands
/// for the node.
using ColumnGroups = std::vector<std::vector<size_t>>;

/// The prepare step: the rows of `rel` whose columns agree within every
/// group and that satisfy the predicates of `preds` on its attributes,
/// sorted by the groups' first columns (the remaining columns break ties)
/// and deduplicated. Rows are filtered before sorting, so only the kept
/// rows are copied and sorted.
Relation PrepareRelation(const Relation& rel, const ColumnGroups& groups,
                         const std::vector<ConstPred>& preds = {});

/// A relation made ready for the build step, shared read-only.
struct PreparedInput {
  std::shared_ptr<const Relation> rel;  ///< null: nothing supplied
  bool built = false;  ///< the supplier ran PrepareRelation (a cache miss)
};

/// Supplies PrepareRelation(*rels[r], groups) for query-local relation r,
/// for instance from a cache. `filtered` says whether constant predicates
/// apply to the relation. The supplier may return no relation; GroundQuery
/// then prepares the relation itself, filtered first.
using PrepareFn = std::function<PreparedInput(
    size_t r, const ColumnGroups& groups, bool filtered)>;

/// Computes the factorised result of the natural join prescribed by `tree`
/// over the given relations.
///
/// `rels[i]` is the relation with query-local index i (matching the
/// `cover_rels` bits of the tree). `preds` are constant predicates. Without
/// `prepare`, each relation is filtered by them and the kept rows sorted,
/// as PrepareRelation does. `prepare` (optional) supplies shared prepared
/// relations, which the predicates then narrow in one order-preserving
/// pass each, never re-sorting; it is called once per relation, and the
/// ground_prepare_relation fault site fires once per relation whatever it
/// does.
///
/// The build runs in morsels on up to `threads` threads (0 = one per
/// hardware thread; 1 = on the caller); the Engine passes
/// EngineOptions::enumerate.threads. The result is the same, byte for
/// byte, at every thread count. Helpers re-bind the caller's ExecContext,
/// so cancellation, deadlines, MemoryBudget charges (the same total at
/// every thread count) and the ground_build_union fault site behave as on
/// the caller; the first failure of any morsel is rethrown here once every
/// thread has stopped, and unfinished segments are discarded.
///
/// A non-null `trace` records a "ground" span (bytes = FRep::MemoryBytes)
/// with the children "ground-prepare" (rows = input rows after preparing
/// and filtering; bytes = the size of the relations prepared by this call,
/// absent when all were reused) and "ground-build" (rows = morsels; bytes =
/// FRep::MemoryBytes). A build that split has the child "ground-splice"
/// under "ground-build": the helpers' segments appended to the result
/// (rows = segments; bytes = arena bytes copied).
FRep GroundQuery(const FTree& tree, const std::vector<const Relation*>& rels,
                 const std::vector<ConstPred>& preds = {},
                 QueryTrace* trace = nullptr, const PrepareFn& prepare = {},
                 int threads = 0);

/// Factorises a single relation over its path f-tree (trie): the canonical
/// way to turn flat input into an f-representation before applying f-plan
/// operators. `rel_index` is the query-local relation index to record in
/// the f-tree.
FRep GroundRelation(const Relation& rel, int rel_index,
                    QueryTrace* trace = nullptr);

/// Prepared relations shared across queries and threads, keyed on (RelId,
/// column groups). Each entry remembers the Relation::stamp() it was
/// prepared from; a lookup whose relation has moved on prepares afresh,
/// and publishing drops every entry of that relation under an older stamp,
/// so results stay exact however the relation was mutated and stale copies
/// do not linger. Lookups take a shared lock; a miss prepares outside the
/// lock and inserts only the finished relation, so a failed preparation
/// leaves no entry behind.
///
/// Admission: a miss without predicates prepares the whole relation and
/// keeps it. A miss under predicates is a first sighting: it only records
/// the (relation, path order) and returns nothing, so that a one-off
/// selective query sorts just the rows its predicates keep, as grounding
/// without a cache does. The next miss on a recorded pair prepares the
/// whole relation and keeps it. Entries are not evicted otherwise: there is
/// at most one per (relation, path order), each as large as its relation
/// (less the rows failing a class equality), and none of it is charged to
/// a query's MemoryBudget.
class PreparedRelationCache {
 public:
  /// The prepared form of `rel` (the relation stored under `id`), or no
  /// relation on a first sighting under predicates (`filtered`).
  PreparedInput Get(RelId id, const Relation& rel, const ColumnGroups& groups,
                    bool filtered) EXCLUDES(mu_);

  /// Number of prepared relations held.
  size_t size() const EXCLUDES(mu_);

  /// Lookup outcomes since construction.
  struct Stats {
    uint64_t hits = 0;      ///< served a prepared relation
    uint64_t prepared = 0;  ///< prepared and kept a relation
    uint64_t deferred = 0;  ///< first sightings under predicates
  };
  Stats stats() const;

 private:
  struct Entry {
    ColumnGroups groups;
    std::shared_ptr<const Relation> rel;  // null: seen once, not prepared
    uint64_t stamp = 0;
  };
  const Entry* FindLocked(RelId id, const ColumnGroups& groups) const
      REQUIRES_SHARED(mu_);
  void PublishLocked(RelId id, const ColumnGroups& groups, uint64_t stamp,
                     std::shared_ptr<const Relation> rel) REQUIRES(mu_);

  mutable SharedMutex mu_;
  // Per relation, one entry per path order seen.
  std::map<RelId, std::vector<Entry>> entries_ GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0}, prepared_{0}, deferred_{0};
};

}  // namespace fdb

#endif  // FDB_CORE_GROUND_H_
