#include "core/ftree.h"

#include <algorithm>
#include <sstream>

namespace fdb {

int FTree::NewNode(AttrSet attrs, AttrSet visible, RelSet cover_rels,
                   RelSet dep_rels) {
  FDB_CHECK_MSG(attrs.ContainsAll(visible), "visible must be a subset of attrs");
  FDB_CHECK_MSG(dep_rels.ContainsAll(cover_rels),
                "dep_rels must include cover_rels");
  FTreeNode n;
  n.attrs = attrs;
  n.visible = visible;
  n.cover_rels = cover_rels;
  n.dep_rels = dep_rels;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

void FTree::AttachRoot(int n) {
  FDB_CHECK(node(n).parent == -1);
  roots_.push_back(n);
}

void FTree::AttachChild(int parent, int n) {
  FDB_CHECK(node(n).parent == -1);
  node(parent).children.push_back(n);
  node(n).parent = parent;
}

void FTree::Detach(int n) {
  int p = node(n).parent;
  std::vector<int>& siblings = p == -1 ? roots_ : node(p).children;
  auto it = std::find(siblings.begin(), siblings.end(), n);
  FDB_CHECK_MSG(it != siblings.end(), "node not linked where expected");
  siblings.erase(it);
  node(n).parent = -1;
}

void FTree::Kill(int n) {
  FDB_CHECK(node(n).parent == -1);
  FDB_CHECK(node(n).children.empty());
  FDB_CHECK(std::find(roots_.begin(), roots_.end(), n) == roots_.end());
  node(n).alive = false;
}

std::vector<int> FTree::AliveNodes() const {
  std::vector<int> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) out.push_back(static_cast<int>(i));
  }
  return out;
}

int FTree::NumAlive() const {
  int c = 0;
  for (const FTreeNode& n : nodes_) c += n.alive ? 1 : 0;
  return c;
}

int FTree::FindAttr(AttrId attr) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive && nodes_[i].attrs.Contains(attr)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool FTree::IsAncestor(int anc, int desc) const {
  for (int x = node(desc).parent; x != -1; x = node(x).parent) {
    if (x == anc) return true;
  }
  return false;
}

int FTree::Depth(int n) const {
  int d = 0;
  for (int x = node(n).parent; x != -1; x = node(x).parent) ++d;
  return d;
}

int FTree::Lca(int x, int y) const {
  std::vector<char> seen(nodes_.size(), 0);
  for (int a = x; a != -1; a = node(a).parent) seen[static_cast<size_t>(a)] = 1;
  for (int b = y; b != -1; b = node(b).parent) {
    if (seen[static_cast<size_t>(b)]) return b;
  }
  return -1;
}

std::vector<int> FTree::PreOrder() const {
  std::vector<int> out;
  out.reserve(nodes_.size());
  std::vector<int> stack(roots_.rbegin(), roots_.rend());
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    out.push_back(n);
    const auto& ch = node(n).children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

RelSet FTree::SubtreeDepRels(int n) const {
  RelSet out;
  std::vector<int> stack{n};
  while (!stack.empty()) {
    int x = stack.back();
    stack.pop_back();
    if (!node(x).constant) out = out.Union(node(x).dep_rels);
    for (int c : node(x).children) stack.push_back(c);
  }
  return out;
}

bool FTree::DependentOnSubtree(int a, int b) const {
  if (node(a).constant) return false;
  return node(a).dep_rels.Intersects(SubtreeDepRels(b));
}

bool FTree::CanPushUp(int b) const {
  int a = node(b).parent;
  if (a == -1) return false;
  return !DependentOnSubtree(a, b);
}

void FTree::PushUpTree(int b) {
  int a = node(b).parent;
  FDB_CHECK_MSG(a != -1, "cannot push up a root");
  Detach(b);
  int gp = node(a).parent;
  if (gp == -1) {
    // b becomes a root; keep it adjacent to a for readable output.
    auto it = std::find(roots_.begin(), roots_.end(), a);
    FDB_CHECK(it != roots_.end());
    roots_.insert(it + 1, b);
  } else {
    node(gp).children.push_back(b);
    node(b).parent = gp;
  }
}

int FTree::FirstLiftable() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive && CanPushUp(static_cast<int>(i))) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int FTree::NormalizeTree() {
  int pushes = 0;
  for (int n = FirstLiftable(); n != -1; n = FirstLiftable()) {
    PushUpTree(n);
    ++pushes;
  }
  return pushes;
}

void FTree::SwapTree(int a, int b) {
  FDB_CHECK_MSG(node(b).parent == a, "swap requires b to be a child of a");

  // Partition b's children: those dependent on a move under a (T_AB).
  std::vector<int> tb, tab;
  for (int c : node(b).children) {
    if (DependentOnSubtree(a, c)) {
      tab.push_back(c);
    } else {
      tb.push_back(c);
    }
  }

  // b takes a's position.
  int gp = node(a).parent;
  std::vector<int>& slots = gp == -1 ? roots_ : node(gp).children;
  auto it = std::find(slots.begin(), slots.end(), a);
  FDB_CHECK(it != slots.end());
  *it = b;
  node(b).parent = gp;
  node(a).parent = -1;

  // a keeps T_A (its other children, minus b) and gains T_AB at the end.
  auto& ac = node(a).children;
  ac.erase(std::find(ac.begin(), ac.end(), b));
  for (int c : tab) {
    node(c).parent = a;
    ac.push_back(c);
  }
  // b keeps T_B and gains a as its last child.
  node(b).children = tb;
  node(b).children.push_back(a);
  node(a).parent = b;
}

int FTree::MergeTree(int a, int b) {
  FDB_CHECK_MSG(node(a).parent == node(b).parent,
                "merge requires siblings (or two roots)");
  FDB_CHECK_MSG(a != b, "cannot merge a node with itself");
  FTreeNode& na = node(a);
  FTreeNode& nb = node(b);
  na.attrs = na.attrs.Union(nb.attrs);
  na.visible = na.visible.Union(nb.visible);
  na.cover_rels = na.cover_rels.Union(nb.cover_rels);
  na.dep_rels = na.dep_rels.Union(nb.dep_rels);
  na.constant = na.constant && nb.constant;
  for (int c : nb.children) {
    node(c).parent = a;
    na.children.push_back(c);
  }
  nb.children.clear();
  Detach(b);
  Kill(b);
  return a;
}

void FTree::FuseTree(int a, int b) {
  FDB_CHECK_MSG(a == node(b).parent || IsAncestor(a, b),
                "fuse requires a to be a proper ancestor of b");
  FTreeNode& na = node(a);
  FTreeNode& nb = node(b);
  na.attrs = na.attrs.Union(nb.attrs);
  na.visible = na.visible.Union(nb.visible);
  na.cover_rels = na.cover_rels.Union(nb.cover_rels);
  na.dep_rels = na.dep_rels.Union(nb.dep_rels);

  // b's children take b's position under b's parent.
  int p = node(b).parent;
  std::vector<int>& slots = node(p).children;
  auto it = std::find(slots.begin(), slots.end(), b);
  FDB_CHECK(it != slots.end());
  size_t pos = static_cast<size_t>(it - slots.begin());
  slots.erase(it);
  node(b).parent = -1;
  std::vector<int> moved = nb.children;
  nb.children.clear();
  slots.insert(slots.begin() + static_cast<ptrdiff_t>(pos), moved.begin(),
               moved.end());
  for (int c : moved) node(c).parent = p;
  Kill(b);
}

void FTree::RemoveLeaf(int n) {
  FDB_CHECK_MSG(node(n).children.empty(), "RemoveLeaf requires a leaf");
  int p = node(n).parent;
  if (p != -1) {
    node(p).dep_rels = node(p).dep_rels.Union(node(n).dep_rels);
  }
  Detach(n);
  Kill(n);
}

void FTree::RestrictVisible(AttrSet keep) {
  for (FTreeNode& n : nodes_) {
    if (n.alive) n.visible = n.visible.Intersect(keep);
  }
}

FTree::ProjectStep FTree::NextProjectStep() const {
  ProjectStep step;
  int depth = -1;
  for (int n : AliveNodes()) {
    if (!node(n).visible.Empty()) continue;
    const int d = Depth(n);
    if (d > depth) {
      step.node = n;
      depth = d;
    }
  }
  if (step.node != -1 && !node(step.node).children.empty()) {
    step.child = node(step.node).children.front();
  }
  return step;
}

void FTree::ProjectTree(AttrSet keep) {
  RestrictVisible(keep);
  for (ProjectStep s = NextProjectStep(); s.node != -1; s = NextProjectStep()) {
    if (s.child == -1) {
      RemoveLeaf(s.node);
    } else {
      SwapTree(s.node, s.child);
    }
  }
  NormalizeTree();
}

void FTree::ShiftRelIndices(int offset) {
  FDB_CHECK(offset >= 0);
  for (FTreeNode& n : nodes_) {
    if (!n.alive) continue;
    RelSet cover, dep;
    for (AttrId r : n.cover_rels) {
      FDB_CHECK_MSG(r + static_cast<AttrId>(offset) < kMaxRels,
                    "relation index overflow while shifting");
      cover.Add(r + static_cast<AttrId>(offset));
    }
    for (AttrId r : n.dep_rels) dep.Add(r + static_cast<AttrId>(offset));
    n.cover_rels = cover;
    n.dep_rels = dep;
  }
}

int FTree::MaxRelIndex() const {
  int best = -1;
  for (const FTreeNode& n : nodes_) {
    if (!n.alive) continue;
    for (AttrId r : n.dep_rels) best = std::max(best, static_cast<int>(r));
  }
  return best;
}

bool FTree::SatisfiesPathConstraint() const {
  // For each relation bit, the non-constant alive nodes that mention it must
  // form a chain under the ancestor relation.
  RelSet all;
  for (const FTreeNode& n : nodes_) {
    if (n.alive && !n.constant) all = all.Union(n.dep_rels);
  }
  for (AttrId r : all) {
    std::vector<int> hits;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const FTreeNode& n = nodes_[i];
      if (n.alive && !n.constant && n.dep_rels.Contains(r)) {
        hits.push_back(static_cast<int>(i));
      }
    }
    // Sort by depth; each must be an ancestor of the next.
    std::sort(hits.begin(), hits.end(),
              [&](int x, int y) { return Depth(x) < Depth(y); });
    for (size_t i = 0; i + 1 < hits.size(); ++i) {
      if (!IsAncestor(hits[i], hits[i + 1])) return false;
    }
  }
  return true;
}

double FTree::PathCostRec(int n, std::vector<uint64_t>* stack,
                          EdgeCoverSolver& solver) const {
  const FTreeNode& nd = node(n);
  size_t pushed = 0;
  if (!nd.constant) {
    FDB_CHECK_MSG(!nd.cover_rels.Empty(),
                  "non-constant f-tree node with no covering relation");
    stack->push_back(nd.cover_rels.bits());
    pushed = 1;
  }
  double best;
  if (nd.children.empty()) {
    best = solver.Solve(*stack);  // a root-to-leaf path ends here
  } else {
    best = 0.0;
    for (int c : nd.children) {
      best = std::max(best, PathCostRec(c, stack, solver));
    }
  }
  if (pushed) stack->pop_back();
  return best;
}

double FTree::Cost(EdgeCoverSolver& solver) const {
  double best = 0.0;
  std::vector<uint64_t> stack;
  for (int r : roots_) {
    best = std::max(best, PathCostRec(r, &stack, solver));
  }
  return best;
}

AttrSet FTree::AllAttrs() const {
  AttrSet out;
  for (const FTreeNode& n : nodes_) {
    if (n.alive) out = out.Union(n.attrs);
  }
  return out;
}

AttrSet FTree::VisibleAttrs() const {
  AttrSet out;
  for (const FTreeNode& n : nodes_) {
    if (n.alive) out = out.Union(n.visible);
  }
  return out;
}

void FTree::CanonicalKeyRec(int n, std::string* out) const {
  const FTreeNode& nd = node(n);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%llx;%llx;%llx;%llx;%d",
                static_cast<unsigned long long>(nd.attrs.bits()),
                static_cast<unsigned long long>(nd.visible.bits()),
                static_cast<unsigned long long>(nd.cover_rels.bits()),
                static_cast<unsigned long long>(nd.dep_rels.bits()),
                nd.constant ? 1 : 0);
  out->append(buf);
  std::vector<std::string> keys;
  keys.reserve(nd.children.size());
  for (int c : nd.children) {
    std::string k;
    CanonicalKeyRec(c, &k);
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& k : keys) out->append(k);
  out->push_back(')');
}

std::string FTree::CanonicalKey() const {
  std::vector<std::string> keys;
  keys.reserve(roots_.size());
  for (int r : roots_) {
    std::string k;
    CanonicalKeyRec(r, &k);
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& k : keys) out.append(k);
  return out;
}

std::string FTree::ToString(const Catalog* cat) const {
  std::ostringstream os;
  auto label = [&](int n) {
    const FTreeNode& nd = node(n);
    std::string s;
    if (cat != nullptr) {
      s = cat->ClassName(nd.attrs);
    } else {
      s = nd.attrs.ToString();
    }
    if (nd.constant) s += " [const]";
    if (nd.visible != nd.attrs) {
      s += " [vis " + (cat ? cat->ClassName(nd.visible) : nd.visible.ToString()) + "]";
    }
    return s;
  };
  // Depth-first with indentation.
  struct Frame {
    int n;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    for (int i = 0; i < f.depth; ++i) os << "  ";
    os << label(f.n) << '\n';
    const auto& ch = node(f.n).children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      stack.push_back({*it, f.depth + 1});
    }
  }
  return os.str();
}

void FTree::Validate() const {
  AttrSet seen;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const FTreeNode& n = nodes_[i];
    if (!n.alive) continue;
    FDB_CHECK_MSG(!n.attrs.Empty(), "alive node with empty class");
    FDB_CHECK_MSG(!seen.Intersects(n.attrs),
                  "attribute labels two alive nodes");
    seen = seen.Union(n.attrs);
    for (int c : n.children) {
      FDB_CHECK_MSG(node(c).alive, "dead child");
      FDB_CHECK_MSG(node(c).parent == static_cast<int>(i),
                    "parent/child mismatch");
    }
    if (n.parent == -1) {
      bool is_root =
          std::find(roots_.begin(), roots_.end(), static_cast<int>(i)) !=
          roots_.end();
      FDB_CHECK_MSG(is_root, "alive parentless node missing from roots");
    }
  }
  for (int r : roots_) {
    FDB_CHECK_MSG(node(r).alive && node(r).parent == -1, "bad root entry");
  }
}

FTree PathFTree(const std::vector<AttrId>& schema, int rel) {
  FTree t;
  RelSet rs = RelSet::Of({static_cast<AttrId>(rel)});
  int prev = -1;
  for (AttrId a : schema) {
    AttrSet cls = AttrSet::Of({a});
    int n = t.NewNode(cls, cls, rs, rs);
    if (prev == -1) {
      t.AttachRoot(n);
    } else {
      t.AttachChild(prev, n);
    }
    prev = n;
  }
  return t;
}

FTree FTreeFromShape(const QueryInfo& info,
                     const std::vector<AttrSet>& classes,
                     const std::vector<int>& parent_of) {
  FDB_CHECK(classes.size() == parent_of.size());
  FTree t;
  std::vector<int> ids;
  ids.reserve(classes.size());
  for (const AttrSet& cls : classes) {
    RelSet cover = info.RelsCovering(cls);
    ids.push_back(t.NewNode(cls, cls.Intersect(info.projection), cover, cover));
  }
  for (size_t i = 0; i < classes.size(); ++i) {
    if (parent_of[i] == -1) {
      t.AttachRoot(ids[i]);
    } else {
      t.AttachChild(ids[static_cast<size_t>(parent_of[i])], ids[i]);
    }
  }
  t.Validate();
  return t;
}

}  // namespace fdb
