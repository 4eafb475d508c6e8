// Factorisation trees (f-trees, §2 Def. 2).
//
// An f-tree is an unordered rooted forest whose nodes are labelled by
// attribute equivalence classes. It is the schema of a factorised
// representation: it fixes the nesting structure (group by the root class,
// factor out the common values, recurse). FDB represents f-trees as a pool
// of nodes with stable indices; operators mark nodes dead rather than
// reindexing, so f-representations and f-plans can refer to nodes across
// transformations.
//
// Dependency bookkeeping. Each node carries two relation sets:
//   * cover_rels — relations with an attribute in the node's class; these
//     are the hyperedges available to the edge-cover LP that defines s(T).
//   * dep_rels   — relations used for dependency tests (push-up/swap
//     legality and the path constraint). Normally equal to cover_rels, but
//     when projection removes a fully-projected leaf, the leaf's dep_rels
//     are inherited by its parent so that transitively dependent nodes stay
//     on one path (the A—B—C example of §3.4).
// Nodes whose values are fixed by an equality-with-constant selection are
// flagged `constant`; they are independent of every other node (§3.3) and
// are ignored by both dependency tests and the cost function.
#ifndef FDB_CORE_FTREE_H_
#define FDB_CORE_FTREE_H_

#include <string>
#include <vector>

#include "common/attrset.h"
#include "common/types.h"
#include "lp/edge_cover.h"
#include "storage/catalog.h"
#include "storage/query.h"

namespace fdb {

/// One f-tree node: an attribute equivalence class plus bookkeeping.
struct FTreeNode {
  AttrSet attrs;      ///< full class, including projected-away attributes
  AttrSet visible;    ///< attributes still in the output schema (subset)
  RelSet cover_rels;  ///< relations with an attribute in `attrs`
  RelSet dep_rels;    ///< relations for dependency tests (>= cover_rels)
  bool constant = false;  ///< all values equal one constant (sigma_{A=c})
  bool alive = true;
  int parent = -1;            ///< -1 for roots and dead nodes
  std::vector<int> children;  ///< order defines child slots in f-reps
};

/// An f-tree (forest). Node ids are stable for the lifetime of the tree.
class FTree {
 public:
  FTree() = default;

  /// Creates a detached node; attach it with AttachRoot/AttachChild.
  int NewNode(AttrSet attrs, AttrSet visible, RelSet cover_rels,
              RelSet dep_rels);

  void AttachRoot(int n);
  void AttachChild(int parent, int n);

  /// Unlinks `n` from its parent (or the root list); keeps it alive.
  void Detach(int n);

  /// Marks a detached, childless node dead.
  void Kill(int n);

  const std::vector<int>& roots() const { return roots_; }
  size_t pool_size() const { return nodes_.size(); }

  FTreeNode& node(int n) { return nodes_[static_cast<size_t>(n)]; }
  const FTreeNode& node(int n) const { return nodes_[static_cast<size_t>(n)]; }

  /// Ids of alive nodes, ascending.
  std::vector<int> AliveNodes() const;
  int NumAlive() const;

  /// Node whose class contains `attr`, or -1.
  int FindAttr(AttrId attr) const;

  bool IsAncestor(int anc, int desc) const;
  int Depth(int n) const;

  /// Lowest common ancestor of two alive nodes; -1 when they live in
  /// different trees of the forest (or one of them is a root above the
  /// other... then the ancestor itself is returned).
  int Lca(int x, int y) const;

  /// Pre-order ids (roots in root-list order, children in child order).
  std::vector<int> PreOrder() const;

  /// Union of dep_rels over the subtree rooted at `n`, skipping constant
  /// nodes (constants are independent of everything).
  RelSet SubtreeDepRels(int n) const;

  /// True if node `a` is dependent on the subtree rooted at `b`:
  /// a shares a relation with some non-constant node under b (§3.1).
  bool DependentOnSubtree(int a, int b) const;

  /// Push-up legality: `b` has a parent that is not dependent on b's subtree.
  bool CanPushUp(int b) const;

  // ---- Tree-level transformations (the restructuring operators of
  // core/ops.h edit a copy of the input's tree with these, then move the
  // data once with Restructure, so trees stay byte-identical). ----

  /// psi_B: moves `b` one level up, making it a sibling of its parent.
  /// Caller must ensure CanPushUp(b).
  void PushUpTree(int b);

  /// The next push-up of normalisation: the alive node of lowest id that
  /// CanPushUp, or -1 when the tree is normalised. NormalizeTree lifts
  /// this node, for Normalize (core/ops.h) and the simulated f-plan alike.
  int FirstLiftable() const;

  /// Repeated push-ups until no node can be lifted (eta): lifts
  /// FirstLiftable() until there is none. Returns the number of push-ups
  /// performed.
  int NormalizeTree();

  /// True if no push-up is possible (Def. 3).
  bool IsNormalized() const { return FirstLiftable() == -1; }

  /// chi_{A,B}: exchanges child `b` with its parent `a`. b takes a's
  /// position; a becomes b's last child; b's children that depend on a
  /// move to the end of a's child list (Fig. 3(b)).
  void SwapTree(int a, int b);

  /// mu_{A,B}: merges sibling (or both-root) node `b` into `a`; b's children
  /// are appended to a's. Returns the surviving node id (= a).
  int MergeTree(int a, int b);

  /// Splices node `b` out: b's attrs/rels move into its ancestor `a`, b's
  /// children take b's position under b's parent. This is the structural
  /// half of absorb (Fig. 3(d) before normalisation).
  void FuseTree(int a, int b);

  /// Removes a fully-projected leaf; its dep_rels are inherited by the
  /// parent (transitive-dependence preservation, §3.4).
  void RemoveLeaf(int n);

  /// Projection's first step (§3.4): narrows every alive node's visible
  /// attributes to `keep`.
  void RestrictVisible(AttrSet keep);

  /// One step of projection once RestrictVisible has run: the deepest fully
  /// invisible node (lowest id among equals) sinks by a swap with its first
  /// child, or is removed when it is a leaf (`child == -1`). `node == -1`
  /// when no node is fully invisible. ProjectTree takes these steps.
  struct ProjectStep {
    int node = -1;
    int child = -1;
  };
  ProjectStep NextProjectStep() const;

  /// pi_keep on the tree alone (§3.4): RestrictVisible(keep), then every
  /// NextProjectStep (SwapTree with the first child, or RemoveLeaf), then
  /// NormalizeTree. Node ids survive, so each remaining node is the input
  /// node of the same id. Project (core/ops.h) builds its output over this
  /// tree, and SimulateStepOnTree (core/fplan.h) takes it for kProject.
  void ProjectTree(AttrSet keep);

  // ---- Constraints and cost. ----

  /// Shifts every relation index by `offset` (cover and dep sets of alive
  /// nodes). Needed before taking the product of two independently built
  /// representations, whose query-local relation indices both start at 0.
  void ShiftRelIndices(int offset);

  /// Largest relation index mentioned by an alive node, or -1.
  int MaxRelIndex() const;

  /// Path constraint (Prop. 1): for every relation, the non-constant nodes
  /// whose dep_rels contain it lie on a single root-to-leaf path.
  bool SatisfiesPathConstraint() const;

  /// s(T): the maximum fractional edge cover number over root-to-leaf
  /// paths (§2). Constant nodes are skipped.
  double Cost(EdgeCoverSolver& solver) const;

  /// All attributes / visible attributes of alive nodes.
  AttrSet AllAttrs() const;
  AttrSet VisibleAttrs() const;

  /// Canonical encoding of the unordered forest; equal trees (up to sibling
  /// order and node ids) get equal keys. Used to deduplicate optimiser
  /// states.
  std::string CanonicalKey() const;

  /// Indented rendering; attribute names resolved via `cat` when given.
  std::string ToString(const Catalog* cat = nullptr) const;

  /// Structural sanity checks (parent/child symmetry, attribute disjointness,
  /// alive bookkeeping). Throws FdbError on violation.
  void Validate() const;

 private:
  void CanonicalKeyRec(int n, std::string* out) const;
  double PathCostRec(int n, std::vector<uint64_t>* stack,
                     EdgeCoverSolver& solver) const;

  std::vector<FTreeNode> nodes_;
  std::vector<int> roots_;
};

/// Builds the f-tree of a single relation: one chain of singleton classes
/// in `schema` order (all attributes of a relation are mutually dependent,
/// so its f-tree must be a path). `rel` is the query-local relation index.
FTree PathFTree(const std::vector<AttrId>& schema, int rel);

/// Builds an f-tree over the query's attribute classes with the given
/// parent relation (query info supplies classes and covering relations);
/// the shape is determined by `parent_of`: parent_of[i] is the index of the
/// parent class of class i, or -1 for roots. Used by tests and the
/// optimiser.
FTree FTreeFromShape(const QueryInfo& info,
                     const std::vector<AttrSet>& classes,
                     const std::vector<int>& parent_of);

}  // namespace fdb

#endif  // FDB_CORE_FTREE_H_
