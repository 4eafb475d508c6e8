// Deep structural validation of the core data structures.
//
// FRep::Validate() (core/frep.h) is the *shallow* checker every operator
// already maintains: it walks reachable unions through UnionRef and checks
// the representation invariants assuming the arena geometry itself is sane.
// The validators here assume nothing: they bounds-check every header window
// against the arenas *before* dereferencing a single value, detect cyclic
// child references (which would send the enumerators into unbounded
// recursion and break FRep::SweepBottomUp's children-first order long
// before any shallow check fires), and extend
// the checks to the derived structures built on top of f-representations —
// grouped aggregates (GroupedRep) and morsel plans (MorselPlan).
//
// All validators throw FdbError with a diagnostic naming the offending
// object (union id, morsel index, spec index) and the violated invariant,
// so a corrupted intermediate is rejected at the operator boundary that
// produced it, not at the distant consumer that tripped over it.
//
// Cost: ValidateDeep is O(|E|) per call — linear in the representation, but
// called at every operator boundary it roughly doubles operator time. It is
// therefore compiled in only when FDB_VALIDATE is defined (the `debug` and
// `asan` CMake presets turn it on); in release builds the FDB_VALIDATE_*
// macros below expand to nothing and the bench numbers are unaffected.
#ifndef FDB_CORE_VALIDATE_H_
#define FDB_CORE_VALIDATE_H_

#include "core/aggregate.h"
#include "core/frep.h"
#include "core/ftree.h"
#include "core/parallel_enumerate.h"

namespace fdb {

/// Deep f-representation check. Everything FRep::Validate() checks, plus:
/// arena-bounds safety of every reachable header window (checked before any
/// dereference), no cyclic child references, no overlap between the value
/// windows of distinct unions, no open builders, constant-node unions of
/// length 1, and empty-representation geometry (no unions, empty arenas).
/// Throws FdbError naming the offending union and invariant.
void ValidateDeep(const FRep& rep);

/// Deep f-tree check. Everything FTree::Validate() checks, plus: visible
/// attributes are a subset of each node's class, dependency relations
/// include the covering relations, child lists contain no duplicates, the
/// parent graph is acyclic, and every alive node is reachable from a root.
void ValidateFTree(const FTree& t);

/// Grouped-aggregate check: the group representation passes ValidateDeep,
/// the global row has one slot per spec, the per-entry payload rows cover
/// the value arena exactly (one row of one slot per spec per committed
/// entry), entry and global counts are positive, and every node of the
/// group forest carries a grouping attribute.
void ValidateGroupedRep(const GroupedRep& g);

/// Morsel-plan check against the representation it was planned for: the
/// bound chains resolve (every bound but the last pins one entry, ranges
/// lie inside their resolved unions), the morsels tile the enumeration
/// stream — lexicographically ordered, disjoint and covering, first morsel
/// starts at the stream start, last ends at the stream end — and every
/// row count (the plan total and each morsel's, the whole-stream morsel
/// included) equals the one FRep::SubtreeTupleCounts gives (exactly below
/// 2^53, within 1e-6 relative above).
/// `visible_only` must match the PlanMorsels call that produced the plan.
void ValidateMorselPlan(const FRep& rep, bool visible_only,
                        const MorselPlan& plan);

}  // namespace fdb

// Operator-boundary hooks: active only under FDB_VALIDATE (Debug/ASan
// presets), so release builds pay nothing — not even an argument
// evaluation.
#ifdef FDB_VALIDATE
#define FDB_VALIDATE_REP(rep) ::fdb::ValidateDeep(rep)
#define FDB_VALIDATE_TREE(t) ::fdb::ValidateFTree(t)
#define FDB_VALIDATE_GROUPED(g) ::fdb::ValidateGroupedRep(g)
#define FDB_VALIDATE_MORSELS(rep, visible_only, plan) \
  ::fdb::ValidateMorselPlan((rep), (visible_only), (plan))
#else
#define FDB_VALIDATE_REP(rep) ((void)0)
#define FDB_VALIDATE_TREE(t) ((void)0)
#define FDB_VALIDATE_GROUPED(g) ((void)0)
#define FDB_VALIDATE_MORSELS(rep, visible_only, plan) ((void)0)
#endif

#endif  // FDB_CORE_VALIDATE_H_
