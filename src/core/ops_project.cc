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

// True when PathRewrite::Run(p) can carry the projection from `t` to `ot`:
// p survives, every removed node lies below it, and no node outside p's
// subtree changes its parent or (p aside) its children.
bool Carries(const FTree& t, const FTree& ot, int p) {
  if (p == -1) return true;
  if (!ot.node(p).alive || t.roots() != ot.roots()) return false;
  for (int x : t.AliveNodes()) {
    if (t.IsAncestor(p, x)) continue;
    if (!ot.node(x).alive || ot.node(x).parent != t.node(x).parent) {
      return false;
    }
    if (x != p && ot.node(x).children != t.node(x).children) return false;
  }
  return true;
}

// pi_keep in one rewrite (§3.4). The output f-tree is FTree::ProjectTree's:
// the input's visible nodes under the same ids, some of them moved up or
// under a former sibling. The data moves in one PathRewrite::Run on `p`,
// the lowest node that Carries the change, and for every p-entry each
// output union below p is the sorted merge of its *sources*.
//
// Sources come from *contexts*. A context is one way of reaching input
// unions that agrees with the values chosen above the union being built:
// ctx[n] is the input union of node n it has reached (kNoUnion: not yet).
// Binding node x to entry e of ctx[x] reaches x's children. Building node
// c, a context that has not reached c is expanded over every entry of the
// nearest union above c that it has reached: the entries of projected-away
// nodes, and of nodes that c no longer sits below. For each merged value
// v, the contexts whose source holds v are bound at v, and c's output
// children are built from those alone; that is how a node moved under a
// former sibling (A -> {B, C} becomes B -> C) takes its sources only from
// the A-entries whose B-union holds the chosen value. Swap's priority-queue
// merge (Fig. 4) is the one-level case.
//
// Two cases copy instead of merging. An output node whose input subtree is
// unchanged is copied from a lone source. If it also depends on no node it
// no longer sits below, its union is the same in every context (T_B of
// Swap, the lifted union of PushUp), so any one source is copied.
// Projected-away leaves are never reached: a valid rep has no empty union,
// so dropping them drops no tuple.
class ProjectRewrite {
 public:
  ProjectRewrite(const FRep& in, FRep* out)
      : in_(in),
        out_(out),
        t_(in.tree()),
        ot_(out->tree()),
        rw_(in, out, CopyPolicy::kTree),
        width_(t_.pool_size()),
        unchanged_(width_, 0),
        copy_any_(width_, 0),
        direct_(width_, 0),
        slot_(width_, 0) {
    int p = -2;
    for (int n : t_.PreOrder()) {
      if (!ot_.node(n).alive) {
        p = t_.node(n).parent;
        break;
      }
    }
    FDB_CHECK_MSG(p != -2, "projection removes no node");
    while (!Carries(t_, ot_, p)) p = t_.node(p).parent;
    p_ = p;

    std::vector<int> order = ot_.PreOrder();
    std::vector<char> above(width_, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int c = *it;
      const std::vector<int>& kids = ot_.node(c).children;
      bool same = kids == t_.node(c).children;
      for (int d : kids) same = same && unchanged_[static_cast<size_t>(d)];
      unchanged_[static_cast<size_t>(c)] = same;
      if (!same) continue;
      std::fill(above.begin(), above.end(), 0);
      for (int x = ot_.node(c).parent; x != -1; x = ot_.node(x).parent) {
        above[static_cast<size_t>(x)] = 1;
      }
      bool independent = true;
      for (int x = t_.node(c).parent; x != -1; x = t_.node(x).parent) {
        if (!above[static_cast<size_t>(x)] && t_.DependentOnSubtree(x, c)) {
          independent = false;
        }
      }
      copy_any_[static_cast<size_t>(c)] = independent;
    }
    for (int x : t_.AliveNodes()) {
      slot_[static_cast<size_t>(x)] = ChildSlot(t_, x);
    }
    for (int c : order) {
      bool direct = true;
      for (int d : ot_.node(c).children) {
        direct = direct && t_.node(d).parent == c &&
                 unchanged_[static_cast<size_t>(d)];
      }
      direct_[static_cast<size_t>(c)] = direct;
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
              std::fill_n(Ctx(0), width_, kNoUnion);
              for (size_t j = 0; j < k; ++j) Ctx(0)[in_slots[j]] = kids[j];
              for (int c : out_slots) nk->push_back(Build(c, 0, 1));
              return true;
            });
  }

 private:
  struct Source {
    size_t ctx;
    uint32_t un;
  };
  struct Cursor {
    Value v;
    size_t src;
    size_t pos;
  };
  struct Match {
    size_t src;
    size_t pos;
  };

  uint32_t* Ctx(size_t i) { return ctx_.data() + i * width_; }

  // Appends a copy of context `from`; returns its index.
  size_t PushCtx(size_t from) {
    const size_t i = nctx_++;
    if (ctx_.size() < nctx_ * width_) ctx_.resize(nctx_ * width_);
    std::copy_n(Ctx(from), width_, Ctx(i));
    return i;
  }

  // Binds node x of context i to entry e of `un` (its reached union).
  void Bind(size_t i, int x, UnionRef un, size_t e) {
    const std::vector<int>& kids = t_.node(x).children;
    uint32_t* ctx = Ctx(i);
    for (size_t j = 0; j < kids.size(); ++j) {
      ctx[kids[j]] = un.Child(e, j, kids.size());
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
      if (Ctx(i)[x] != kNoUnion) break;
    }
    std::reverse(chain_.begin(), chain_.end());
  }

  // Appends to sources_ c's union in every expansion of context i.
  void Reach(int c, size_t i) {
    const uint32_t u = Ctx(i)[c];
    if (u != kNoUnion) {
      sources_.push_back({i, u});
      return;
    }
    ChainTo(c, i);
    Expand(i, 0);
  }

  void Expand(size_t i, size_t pos) {
    const int x = chain_[pos];
    const UnionRef un = in_.u(Ctx(i)[x]);
    for (size_t e = 0; e < un.size(); ++e) {
      const size_t j = PushCtx(i);
      Bind(j, x, un, e);
      if (pos + 2 == chain_.size()) {
        sources_.push_back({j, Ctx(j)[chain_.back()]});
      } else {
        Expand(j, pos + 1);
      }
    }
  }

  // c's union in one expansion of context i: the first entry all the way.
  uint32_t AnySource(int c, size_t i) {
    if (Ctx(i)[c] != kNoUnion) return Ctx(i)[c];
    ChainTo(c, i);
    uint32_t u = Ctx(i)[chain_[0]];
    for (size_t s = 1; s < chain_.size(); ++s) {
      const int x = chain_[s - 1];
      u = in_.u(u).Child(0, slot_[static_cast<size_t>(chain_[s])],
                         t_.node(x).children.size());
    }
    return u;
  }

  // The output union of node c given contexts [b, e).
  uint32_t Build(int c, size_t b, size_t e) {
    if (copy_any_[static_cast<size_t>(c)]) return rw_.Copy(AnySource(c, b));
    const size_t cb = nctx_;
    const size_t sb = sources_.size();
    for (size_t i = b; i < e; ++i) Reach(c, i);
    const size_t se = sources_.size();
    const uint32_t id = se - sb == 1 && unchanged_[static_cast<size_t>(c)]
                            ? rw_.Copy(sources_[sb].un)
                            : Merge(c, sb, se);
    sources_.resize(sb);
    nctx_ = cb;
    return id;
  }

  // Merges sources [sb, se) of node c into one output union, value by
  // value (a min-heap of cursors, as in Swap, when there are several).
  uint32_t Merge(int c, size_t sb, size_t se) {
    UnionBuilder nb = out_->StartUnion(c);
    if (se - sb == 1) {
      const UnionRef un = in_.u(sources_[sb].un);
      if (ot_.node(c).children.empty()) {
        nb.CopyValues(un);
        return nb.Finish();
      }
      for (size_t pos = 0; pos < un.size(); ++pos) {
        const size_t mb = matches_.size();
        matches_.push_back({sb, pos});
        Emit(&nb, c, un.value(pos), mb);
      }
      return nb.Finish();
    }
    auto later = [](const Cursor& x, const Cursor& y) {
      return x.v > y.v || (x.v == y.v && x.src > y.src);
    };
    const size_t hb = heap_.size();
    for (size_t s = sb; s < se; ++s) {
      heap_.push_back({in_.u(sources_[s].un).value(0), s, 0});
    }
    size_t hn = se - sb;
    std::make_heap(heap_.begin() + static_cast<ptrdiff_t>(hb), heap_.end(),
                   later);
    while (hn > 0) {
      const Value v = heap_[hb].v;
      const size_t mb = matches_.size();
      const auto first = heap_.begin() + static_cast<ptrdiff_t>(hb);
      while (hn > 0 && heap_[hb].v == v) {
        std::pop_heap(first, first + static_cast<ptrdiff_t>(hn), later);
        Cursor& cur = heap_[hb + hn - 1];
        matches_.push_back({cur.src, cur.pos});
        const UnionRef un = in_.u(sources_[cur.src].un);
        if (++cur.pos < un.size()) {
          cur.v = un.value(cur.pos);
          std::push_heap(first, first + static_cast<ptrdiff_t>(hn), later);
        } else {
          --hn;
        }
      }
      Emit(&nb, c, v, mb);
    }
    heap_.resize(hb);
    return nb.Finish();
  }

  // Adds value v to c's output union, with its output children built
  // from the sources that hold it, matches_[mb, end); pops those.
  void Emit(UnionBuilder* nb, int c, Value v, size_t mb) {
    nb->AddValue(v);
    const std::vector<int>& kids = ot_.node(c).children;
    if (kids.empty()) {
      matches_.resize(mb);
      return;
    }
    const size_t k = t_.node(c).children.size();
    if (matches_.size() - mb == 1 && direct_[static_cast<size_t>(c)]) {
      // One source, and every output child is an unchanged input child.
      const Match m = matches_[mb];
      matches_.resize(mb);
      const UnionRef un = in_.u(sources_[m.src].un);
      for (int d : kids) {
        nb->AddChild(
            rw_.Copy(un.Child(m.pos, slot_[static_cast<size_t>(d)], k)));
      }
      return;
    }
    const size_t cb = nctx_;
    for (size_t i = mb; i < matches_.size(); ++i) {
      const Source s = sources_[matches_[i].src];
      Bind(PushCtx(s.ctx), c, in_.u(s.un), matches_[i].pos);
    }
    matches_.resize(mb);
    const size_t ce = nctx_;
    for (int d : kids) nb->AddChild(Build(d, cb, ce));
    nctx_ = cb;
  }

  const FRep& in_;
  FRep* out_;
  const FTree& t_;   ///< input tree
  const FTree& ot_;  ///< output tree
  PathRewrite rw_;
  int p_ = -1;
  size_t width_;                ///< ids per context: the node pool size
  std::vector<char> unchanged_;  ///< [node] output subtree == input subtree
  std::vector<char> copy_any_;   ///< [node] unchanged, same in every context
  std::vector<char> direct_;  ///< [node] every output child: direct copy
  std::vector<size_t> slot_;  ///< [node] input slot (ChildSlot)
  std::vector<uint32_t> ctx_;  ///< the contexts, width_ ids each
  size_t nctx_ = 0;            ///< contexts in use
  std::vector<Source> sources_;
  std::vector<Cursor> heap_;
  std::vector<Match> matches_;
  std::vector<int> chain_;
};

}  // namespace

FRep Project(const FRep& in, AttrSet keep) {
  FTree tree = in.tree();
  tree.ProjectTree(keep);
  if (tree.NumAlive() == in.tree().NumAlive()) {
    // Nothing is projected away: the rep only needs its new visibility.
    FRep cur = in;
    cur.tree().RestrictVisible(keep);
    return Normalize(std::move(cur));
  }
  FRep out(std::move(tree));  // normal: ProjectTree ends normalised
  ProjectRewrite(in, &out).Run();
  return out;
}

}  // namespace fdb
