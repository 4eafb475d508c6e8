// F-plan operators (§3): the algorithms that evaluate SPJ queries directly
// on factorised representations.
//
// Every operator consumes an f-representation and produces a fresh one over
// a transformed f-tree; the represented relation changes exactly as the
// relational semantics of the operator prescribes (restructuring operators
// preserve it). All operators preserve the representation invariants (value
// order, no empty unions, path constraint) and f-tree normalisation, and run
// in time (quasi)linear in input + output size (Prop. 2).
//
// Every operator but the product rewrites the entries of one f-tree node
// and rebuilds the path above it through one walk, PathRewrite
// (core/ops_common.h): unions off the path are copied whole (memoised for
// selection, so shared subtrees stay shared; plainly for the others),
// entries that lose a child are dropped up the path, and the result is
// deep-validated in FDB_VALIDATE builds. Unions of dropped entries are never
// committed, so the only unreachable unions an operator leaves are
// zero-length stubs. The restructuring operators (push-up, normalisation,
// swap, projection) decide their output on the f-tree alone and move the
// data through one rewrite of that walk, Restructure.
//
// Nodes are addressed by any attribute of their class, which is stable
// across restructuring (classes only ever grow, by merge/absorb).
#ifndef FDB_CORE_OPS_H_
#define FDB_CORE_OPS_H_

#include "core/frep.h"
#include "storage/query.h"

namespace fdb {

/// Cartesian product: concatenates the two forests (§3.2). The attribute
/// and relation-index universes of the inputs must be disjoint.
FRep Product(const FRep& e1, const FRep& e2);

/// The one restructuring rewrite: the representation of the same relation
/// over `target`, an edit of in.tree() that keeps its node ids (SwapTree,
/// PushUpTree, NormalizeTree, ProjectTree or a sequence of them). Nodes
/// missing from `target` are projected away. The data moves in one
/// PathRewrite run on the lowest node that carries the change: each output
/// union below it is the sorted merge of the input unions of its node that
/// are consistent with the values chosen above it (see
/// ops_restructure.cc). A target of the input's shape copies the input.
FRep Restructure(const FRep& in, FTree target);

/// psi_B: lifts the node of `b_attr` one level up (§3.1, Fig. 3(a)).
/// Requires CanPushUp on the node: its parent must not depend on the
/// node's subtree. PushUpTree, then Restructure.
FRep PushUp(const FRep& in, AttrId b_attr);

/// eta: the f-tree normalised (Def. 3) by NormalizeTree's push-ups, then
/// one Restructure. Takes its input by value: an already-normal rep passed
/// as an rvalue comes back without a copy of its arenas.
FRep Normalize(FRep in);

/// chi_{A,B}: swaps the node of `b_attr` with its parent, the node of
/// `a_attr` (§3.1, Fig. 3(b) and Fig. 4). SwapTree, then Restructure,
/// which regroups the representation by B before A.
FRep Swap(const FRep& in, AttrId a_attr, AttrId b_attr);

/// mu_{A,B}: merge selection a_attr = b_attr for sibling classes (§3.3,
/// Fig. 3(c)); sort-merge join of the sibling unions.
FRep Merge(const FRep& in, AttrId a_attr, AttrId b_attr);

/// alpha_{A,B}: absorb selection a_attr = b_attr where A's class is a
/// proper ancestor of B's (§3.3, Fig. 3(d)); restricts each B-union to the
/// current A-value, splices B out, and normalises.
FRep Absorb(const FRep& in, AttrId a_attr, AttrId b_attr);

/// sigma_{A theta c}: selection with a constant (§3.3). For equality the
/// node becomes constant and floats up during the final normalisation.
FRep SelectConst(const FRep& in, AttrId attr, CmpOp op, Value c);

/// pi: keeps only the attributes in `keep` (§3.4). The output f-tree is
/// FTree::ProjectTree's: fully projected nodes sink to leaves and are
/// removed there, their dependency sets inherited by the parent
/// (transitive dependence). The data moves in one Restructure.
FRep Project(const FRep& in, AttrSet keep);

}  // namespace fdb

#endif  // FDB_CORE_OPS_H_
