#include <algorithm>
#include <vector>

#include "core/ops.h"
#include "core/ops_common.h"

namespace fdb {

using ops_internal::ChildSlot;
using ops_internal::CopyPolicy;
using ops_internal::kNoUnion;
using ops_internal::PathRewrite;

namespace {

// Sentinel of StartNode: the target has the input's shape.
constexpr int kSameShape = -2;

// True when PathRewrite::Run(p) can carry the change from `t` to `ot`:
// p survives, and no node outside p's subtree is removed or changes its
// parent or (p aside) its children.
bool Carries(const FTree& t, const FTree& ot, int p) {
  if (p == -1) return true;
  if (!ot.node(p).alive || t.roots() != ot.roots()) return false;
  for (int x = 0; x < static_cast<int>(t.pool_size()); ++x) {
    if (!t.node(x).alive || t.IsAncestor(p, x)) continue;
    if (!ot.node(x).alive || ot.node(x).parent != t.node(x).parent) {
      return false;
    }
    if (x != p && ot.node(x).children != t.node(x).children) return false;
  }
  return true;
}

// Where the rewrite starts looking for p: the first node of t's pre-order
// (from the nodes `slots` down) that `ot` removes or moves (its parent) or
// gives other children (itself); kSameShape when nothing changes there.
int StartNode(const FTree& t, const FTree& ot, const std::vector<int>& slots) {
  for (int n : slots) {
    const FTreeNode& o = ot.node(n);
    if (!o.alive || o.parent != t.node(n).parent) return t.node(n).parent;
    if (o.children != t.node(n).children) return n;
    const int p = StartNode(t, ot, t.node(n).children);
    if (p != kSameShape) return p;
  }
  return kSameShape;
}

// The one restructuring rewrite. The output f-tree `ot` keeps the input's
// node ids; some nodes are gone (projected away), others hang elsewhere.
// The data moves in one PathRewrite::Run on `p`, the lowest node that
// Carries the change, and for every p-entry each output union below p is
// the sorted merge of its *sources*.
//
// Sources come from *contexts*. A context is one way of reaching input
// unions that agrees with the values chosen above the union being built:
// ctx[n].un is the input union of node n it has reached (kNoUnion: not
// yet), and ctx[n].entry the entry it bound n to (kNoEntry: none).
// Binding node x to entry e reaches x's children. Building node c:
//   * a context that bound c offers the one entry [e, e+1): c was an
//     input ancestor of a node built above it (A under B after chi_{A,B}
//     takes only the A-entries whose B-union holds the chosen b);
//   * a context that reached c offers c's whole union;
//   * any other context is expanded over every entry of the nearest union
//     above c that it has reached: the entries of projected-away nodes,
//     and of nodes that c no longer sits below.
// For each merged value v, the contexts whose source holds v are bound at
// v, and c's output children are built from those alone; that is how a
// node moved under a former sibling (A -> {B, C} becomes B -> C) takes its
// sources only from the A-entries whose B-union holds the chosen value.
// When the sources are ascending, disjoint ranges of one union (a lone
// whole union, or the bound entries of chi's A in entry order), the merge
// is a plain run; otherwise the sources, each an ascending run, are merged
// by value (SortRuns; Fig. 4's regroup by B-values).
//
// Two cases copy instead of merging. An output node whose input subtree is
// unchanged is copied from a lone source, which is a whole union: a node a
// context bound was an input ancestor of a node built above it, so its
// subtree changed. If it also depends on no node it no longer sits below,
// its union is the same in every context (T_B of a swap, the lifted union
// of a push-up), so any one source is copied. Projected-away leaves are
// never reached: a valid rep has no empty union, so dropping them drops no
// tuple.
class RestructureRewrite {
 public:
  RestructureRewrite(const FRep& in, FRep* out, int p)
      : in_(in),
        out_(out),
        t_(in.tree()),
        ot_(out->tree()),
        rw_(in, out, CopyPolicy::kTree),
        p_(p),
        width_(t_.pool_size()),
        node_(width_) {
    for (int c : ot_.roots()) Classify(c);
    for (int x = 0; x < static_cast<int>(width_); ++x) {
      if (t_.node(x).alive) Node(x).slot = ChildSlot(t_, x);
    }
  }

  void Run() {
    const std::vector<int>& in_slots =
        p_ == -1 ? t_.roots() : t_.node(p_).children;
    const std::vector<int>& out_slots =
        p_ == -1 ? ot_.roots() : ot_.node(p_).children;
    rw_.Run(p_,
            [&](const uint32_t* kids, size_t k, std::vector<uint32_t>* nk) {
              if (ctx_.size() < width_) ctx_.resize(width_);
              nctx_ = 1;
              std::fill_n(Ctx(0), width_, Slot{});
              for (size_t j = 0; j < k; ++j) Ctx(0)[in_slots[j]].un = kids[j];
              for (int c : out_slots) nk->push_back(Build(c, 0, 1));
              return true;
            });
  }

 private:
  static constexpr uint32_t kNoEntry = 0xFFFFFFFFu;

  struct NodeInfo {
    bool unchanged = false;  ///< output subtree == input subtree
    bool copy_any = false;   ///< unchanged, and the same in every context
    size_t slot = 0;         ///< input slot (ChildSlot)
  };
  NodeInfo& Node(int n) { return node_[static_cast<size_t>(n)]; }

  // Sets `unchanged` and `copy_any` of output node c and its descendants.
  void Classify(int c) {
    const std::vector<int>& kids = ot_.node(c).children;
    bool same = kids == t_.node(c).children;
    for (int d : kids) {
      Classify(d);
      same = same && Node(d).unchanged;
    }
    Node(c).unchanged = same;
    if (!same) return;
    bool independent = true;
    for (int x = t_.node(c).parent; x != -1; x = t_.node(x).parent) {
      if (!ot_.IsAncestor(x, c) && t_.DependentOnSubtree(x, c)) {
        independent = false;
      }
    }
    Node(c).copy_any = independent;
  }

  struct Slot {
    uint32_t un = kNoUnion;
    uint32_t entry = kNoEntry;
  };
  // Entries [begin, end) of input union `un`, offered by context `ctx`
  // once it binds node `x` (-1: none) to entry `xe`. The last step of an
  // expansion is left pending: only a source that matches a value needs
  // its context.
  struct Source {
    size_t ctx;
    uint32_t un;
    uint32_t begin;
    uint32_t end;
    int x;
    uint32_t xe;
  };
  // Entry `pos` of source `src`, whose value is v.
  struct Entry {
    Value v;
    uint32_t src;
    uint32_t pos;
  };

  Slot* Ctx(size_t i) { return ctx_.data() + i * width_; }

  // Appends a copy of context `from`; returns its index.
  size_t PushCtx(size_t from) {
    const size_t i = nctx_++;
    if (ctx_.size() < nctx_ * width_) ctx_.resize(nctx_ * width_);
    std::copy_n(Ctx(from), width_, Ctx(i));
    return i;
  }

  // Binds node x of context i to entry e of its reached union.
  void Bind(size_t i, int x, size_t e) {
    const std::vector<int>& kids = t_.node(x).children;
    Slot* ctx = Ctx(i);
    ctx[x].entry = static_cast<uint32_t>(e);
    if (kids.empty()) return;
    const UnionRef un = in_.u(ctx[x].un);
    for (size_t j = 0; j < kids.size(); ++j) {
      ctx[kids[j]].un = un.Child(e, j, kids.size());
    }
  }

  // chain_ := the input path from the nearest union above c that context i
  // has reached down to c, both ends included.
  void ChainTo(int c, size_t i) {
    chain_.clear();
    chain_.push_back(c);
    for (int x = t_.node(c).parent;; x = t_.node(x).parent) {
      FDB_CHECK(x != -1);
      chain_.push_back(x);
      if (Ctx(i)[x].un != kNoUnion) break;
    }
    std::reverse(chain_.begin(), chain_.end());
  }

  // Appends to sources_ what context i offers for c (see the class
  // comment): its bound entry, its reached union, or c's union in every
  // expansion.
  void Reach(int c, size_t i) {
    const Slot s = Ctx(i)[c];
    if (s.entry != kNoEntry) {
      sources_.push_back({i, s.un, s.entry, s.entry + 1, -1, 0});
    } else if (s.un != kNoUnion) {
      sources_.push_back({i, s.un, 0, Size(s.un), -1, 0});
    } else {
      ChainTo(c, i);
      Expand(i, 0);
    }
  }

  void Expand(size_t i, size_t pos) {
    const int x = chain_[pos];
    const UnionRef un = in_.u(Ctx(i)[x].un);
    const size_t k = t_.node(x).children.size();
    const size_t slot = Node(chain_[pos + 1]).slot;
    for (size_t e = 0; e < un.size(); ++e) {
      if (pos + 2 == chain_.size()) {
        const uint32_t u = un.Child(e, slot, k);
        sources_.push_back(
            {i, u, 0, Size(u), x, static_cast<uint32_t>(e)});
      } else {
        const size_t j = PushCtx(i);
        Bind(j, x, e);
        Expand(j, pos + 1);
      }
    }
  }

  uint32_t Size(uint32_t un) const {
    return static_cast<uint32_t>(in_.u(un).size());
  }

  // c's union in one expansion of context i: the first entry all the way.
  uint32_t AnySource(int c, size_t i) {
    if (Ctx(i)[c].un != kNoUnion) return Ctx(i)[c].un;
    const int x = t_.node(c).parent;
    return in_.u(AnySource(x, i))
        .Child(0, Node(c).slot, t_.node(x).children.size());
  }

  // The output union of node c given contexts [b, e).
  uint32_t Build(int c, size_t b, size_t e) {
    if (Node(c).copy_any) return rw_.Copy(AnySource(c, b));
    const size_t cb = nctx_;
    const size_t sb = sources_.size();
    for (size_t i = b; i < e; ++i) Reach(c, i);
    const size_t se = sources_.size();
    const uint32_t id = se - sb == 1 && Node(c).unchanged
                            ? rw_.Copy(sources_[sb].un)
                            : Merge(c, sb, se);
    sources_.resize(sb);
    nctx_ = cb;
    return id;
  }

  // True when sources [sb, se) are ascending, disjoint ranges of one
  // union: their values are then ascending without a merge.
  bool IsRun(size_t sb, size_t se) const {
    for (size_t s = sb + 1; s < se; ++s) {
      if (sources_[s].un != sources_[sb].un ||
          sources_[s].begin < sources_[s - 1].end) {
        return false;
      }
    }
    return true;
  }

  // Merges sources [sb, se) of node c into one output union, value by
  // value. Ascending, disjoint ranges of one union (IsRun) are read in
  // turn; otherwise their entries are listed and stably sorted by value
  // (SortRuns), so the entries of one value keep source order.
  uint32_t Merge(int c, size_t sb, size_t se) {
    UnionBuilder nb = out_->StartUnion(c);
    const bool leaf = ot_.node(c).children.empty();
    const size_t eb = entries_.size();
    if (IsRun(sb, se)) {
      const UnionRef un = in_.u(sources_[sb].un);
      for (size_t s = sb; s < se; ++s) {
        const uint32_t begin = sources_[s].begin, end = sources_[s].end;
        if (leaf) {
          nb.AddValues(un.values() + begin, end - begin);
          continue;
        }
        for (uint32_t pos = begin; pos < end; ++pos) {
          entries_.push_back({un.value(pos), static_cast<uint32_t>(s), pos});
          Emit(&nb, c, eb, eb + 1);
          entries_.resize(eb);
        }
      }
      return nb.Finish();
    }
    runs_.clear();
    for (size_t s = sb; s < se; ++s) {
      const Source& src = sources_[s];
      const UnionRef un = in_.u(src.un);
      runs_.push_back(entries_.size() - eb);
      for (uint32_t pos = src.begin; pos < src.end; ++pos) {
        entries_.push_back({un.value(pos), static_cast<uint32_t>(s), pos});
      }
    }
    runs_.push_back(entries_.size() - eb);
    SortRuns(eb);
    const size_t ee = entries_.size();
    for (size_t i = eb; i < ee;) {
      size_t j = i + 1;
      while (j < ee && entries_[j].v == entries_[i].v) ++j;
      if (leaf) {
        nb.AddValue(entries_[i].v);
      } else {
        Emit(&nb, c, i, j);
      }
      i = j;
    }
    entries_.resize(eb);
    return nb.Finish();
  }

  // Sorts entries_[eb, end) by value, stably, given that each run
  // [runs_[r], runs_[r + 1]) is ascending (one source): runs are merged
  // pairwise through tmp_ until one is left, T log S for T entries of S
  // sources. std::merge takes from the earlier run on ties.
  void SortRuns(size_t eb) {
    const size_t n = entries_.size() - eb;
    if (tmp_.size() < n) tmp_.resize(n);
    Entry* from = entries_.data() + eb;
    Entry* to = tmp_.data();
    auto by_value = [](const Entry& x, const Entry& y) { return x.v < y.v; };
    while (runs_.size() > 2) {
      size_t kept = 0;
      for (size_t r = 0; r + 1 < runs_.size(); r += 2) {
        const size_t lo = runs_[r], mid = runs_[r + 1];
        const size_t hi = r + 2 < runs_.size() ? runs_[r + 2] : mid;
        std::merge(from + lo, from + mid, from + mid, from + hi, to + lo,
                   by_value);
        runs_[kept++] = lo;
      }
      runs_[kept++] = n;
      runs_.resize(kept);
      std::swap(from, to);
    }
    if (from != entries_.data() + eb) {
      std::copy_n(from, n, entries_.data() + eb);
    }
  }

  // Adds the value of entries_[mb, me) to c's output union, with its
  // output children built from the sources of those entries.
  void Emit(UnionBuilder* nb, int c, size_t mb, size_t me) {
    nb->AddValue(entries_[mb].v);
    const std::vector<int>& kids = ot_.node(c).children;
    const size_t k = t_.node(c).children.size();
    if (me - mb == 1) {
      // One source: if every output child is an unchanged input subtree
      // that the source reaches once c is bound (an input child of c, or a
      // union the context reached already: T_AB of a swap), copy them.
      const Entry m = entries_[mb];
      const Source s = sources_[m.src];
      const Slot* ctx = Ctx(s.ctx);
      bool direct = true;
      for (int d : kids) {
        direct = direct && Node(d).unchanged &&
                 (t_.node(d).parent == c ||
                  ctx[static_cast<size_t>(d)].un != kNoUnion);
      }
      if (direct) {
        const UnionRef un = in_.u(s.un);
        for (int d : kids) {
          nb->AddChild(rw_.Copy(
              t_.node(d).parent == c
                  ? un.Child(m.pos, Node(d).slot, k)
                  : ctx[static_cast<size_t>(d)].un));
        }
        return;
      }
    }
    const size_t cb = nctx_;
    for (size_t i = mb; i < me; ++i) {
      const Entry m = entries_[i];
      const Source& s = sources_[m.src];
      const size_t j = PushCtx(s.ctx);
      if (s.x != -1) Bind(j, s.x, s.xe);
      Bind(j, c, m.pos);
    }
    const size_t ce = nctx_;
    for (int d : kids) nb->AddChild(Build(d, cb, ce));
    nctx_ = cb;
  }

  const FRep& in_;
  FRep* out_;
  const FTree& t_;   ///< input tree
  const FTree& ot_;  ///< output tree
  PathRewrite rw_;
  int p_;
  size_t width_;                ///< slots per context: the node pool size
  std::vector<NodeInfo> node_;  ///< [node id]
  std::vector<Slot> ctx_;     ///< the contexts, width_ slots each
  size_t nctx_ = 0;           ///< contexts in use
  std::vector<Source> sources_;
  std::vector<Entry> entries_;  ///< the entries being merged, per Merge
  std::vector<Entry> tmp_;      ///< SortRuns' buffer
  std::vector<size_t> runs_;    ///< SortRuns' run boundaries
  std::vector<int> chain_;
};

}  // namespace

FRep Restructure(const FRep& in, FTree target) {
  const FTree& t = in.tree();
  FDB_CHECK_MSG(target.pool_size() == t.pool_size(),
                "restructure target must keep the input's node pool");
  for (int n = 0; n < static_cast<int>(t.pool_size()); ++n) {
    FDB_CHECK_MSG(!target.node(n).alive || t.node(n).alive,
                  "restructure target adds a node");
  }
  int p = t.roots() != target.roots() ? -1 : StartNode(t, target, t.roots());
  if (p == kSameShape) {
    FRep out = in;
    out.tree() = std::move(target);
    return out;
  }
  while (!Carries(t, target, p)) p = t.node(p).parent;
  FRep out(std::move(target));
  RestructureRewrite rewrite(in, &out, p);
  rewrite.Run();
  return out;
}

FRep PushUp(const FRep& in, AttrId b_attr) {
  const FTree& t = in.tree();
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(b >= 0, "push-up attribute not in the f-tree");
  FDB_CHECK_MSG(t.node(b).parent != -1, "cannot push up a root node");
  FDB_CHECK_MSG(t.CanPushUp(b),
                "push-up would violate the path constraint: parent depends "
                "on the lifted subtree");
  FTree target = t;
  target.PushUpTree(b);
  return Restructure(in, std::move(target));
}

FRep Normalize(FRep in) {
  FTree target = in.tree();
  if (target.NormalizeTree() == 0) return in;
  return Restructure(in, std::move(target));
}

FRep Swap(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  const int a = t.FindAttr(a_attr);
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "swap attribute not in the f-tree");
  FDB_CHECK_MSG(t.node(b).parent == a,
                "swap requires the second node to be a child of the first");
  FTree target = t;
  target.SwapTree(a, b);
  return Restructure(in, std::move(target));
}

FRep Project(const FRep& in, AttrSet keep) {
  FTree target = in.tree();
  target.ProjectTree(keep);
  return Restructure(in, std::move(target));
}

}  // namespace fdb
