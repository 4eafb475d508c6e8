#include "opt/ftree_search.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "opt/cost.h"

namespace fdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bit(int i) { return uint64_t{1} << i; }

// One BestComponent subproblem: a component under a path, the path being
// the set of cover-signature indices on it (all its edge-cover LP depends
// on).
struct SubKey {
  uint64_t comp = 0;
  uint64_t path = 0;
  bool operator==(const SubKey&) const = default;
};

uint64_t HashKey(uint64_t path) { return path * 0x9e3779b97f4a7c15ULL; }
uint64_t HashKey(const SubKey& k) {
  return HashKey(k.comp) ^ (k.path * 0xc2b2ae3d27d4eb4fULL);
}

// Linear-probing hash table local to one search: presized so that the tiny
// searches never grow it, doubled at half load. A zero key marks an empty
// slot; no real key is zero, since every priced path and every memoised
// component is non-empty.
template <typename Key, typename Value>
class FlatTable {
 public:
  FlatTable() : slots_(kInitialSlots) {}

  const Value* Find(const Key& key) const {
    for (size_t i = Home(key);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == Key{}) return nullptr;
    }
  }

  // The value under `key`, default-constructed on first use. The reference
  // stays valid only until the next insert.
  Value& operator[](const Key& key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    while (slots_[i].key != key && slots_[i].key != Key{}) {
      i = (i + 1) & (slots_.size() - 1);
    }
    if (slots_[i].key == Key{}) {
      slots_[i].key = key;
      ++size_;
    }
    return slots_[i].value;
  }

 private:
  static constexpr size_t kInitialSlots = 64;
  struct Slot {
    Key key{};
    Value value{};
  };

  size_t Home(const Key& key) const {
    return static_cast<size_t>(HashKey(key) >> 32) & (slots_.size() - 1);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != Key{}) (*this)[s.key] = s.value;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// What is known about a subproblem. Exact (root >= 0): its optimum and the
// root that reaches it first, in bit order. Otherwise a lower bound: every
// search with `upper` at or below `failed_under` fails.
struct Memo {
  double cost = kInf;
  double failed_under = -kInf;
  int root = -1;
};

// Search state: classes are indexed 0..m-1 and manipulated as bitmasks.
struct Searcher {
  std::vector<int> sig;             // class -> cover-signature index
  std::vector<uint64_t> sig_masks;  // signature index -> relation mask
  std::vector<uint64_t> adj;        // class -> dependent classes mask
  uint64_t multi = 0;               // classes covered by >= 2 relations
  EdgeCoverSolver* solver;
  uint64_t explored = 0;
  FlatTable<uint64_t, double> prices;  // path -> edge-cover number
  FlatTable<SubKey, Memo> memo;

  // The fractional edge cover number of a path, one shared-solver call per
  // distinct path.
  double Price(uint64_t path) {
    if (const double* v = prices.Find(path)) return *v;
    std::vector<uint64_t> masks;
    for (uint64_t rest = path; rest; rest &= rest - 1) {
      masks.push_back(sig_masks[static_cast<size_t>(std::countr_zero(rest))]);
    }
    double v = solver->Solve(std::move(masks));
    prices[path] = v;
    return v;
  }

  // The dependency-connected component of `set` containing `seed`.
  uint64_t ComponentOf(uint64_t seed, uint64_t set) const {
    uint64_t comp = seed, frontier = seed;
    while (frontier) {
      int c = std::countr_zero(frontier);
      frontier &= frontier - 1;
      uint64_t nbrs = adj[static_cast<size_t>(c)] & set & ~comp;
      comp |= nbrs;
      frontier |= nbrs;
    }
    return comp;
  }

  // Cost of the best arrangement of `set` as a forest under `path`, or kInf
  // when nothing beats `upper`.
  double BestForest(uint64_t set, uint64_t path, double upper) {
    double cost = 0.0;
    for (uint64_t rest = set; rest && cost != kInf;) {
      uint64_t comp = ComponentOf(rest & (~rest + 1), set);
      rest &= ~comp;
      cost = std::max(cost, BestComponent(comp, path, upper));
    }
    return cost;
  }

  double BestComponent(uint64_t comp, uint64_t path, double upper) {
    // Dominance reduction: a class covered by a single relation never needs
    // to sit above other classes — putting it higher only adds its cover
    // mask to more root-to-leaf paths, and the leaf path through its
    // relation's chain contains the same class set either way. So:
    //  * a component made only of single-cover classes is one relation's
    //    clique; emit it as a chain and price its single leaf path;
    //  * otherwise only multi-relation classes are tried as roots.
    const uint64_t roots = comp & multi;
    if (roots == 0) {
      ++explored;
      double cost = Price(path | Bit(sig[static_cast<size_t>(
                                     std::countr_zero(comp))]));
      return CostLess(cost, upper) ? cost : kInf;
    }

    const SubKey key{comp, path};
    if (const Memo* m = memo.Find(key)) {
      if (m->root >= 0) return CostLess(m->cost, upper) ? m->cost : kInf;
      if (upper <= m->failed_under) return kInf;
    }

    double best = kInf;
    int best_root = -1;
    uint64_t tried = 0;  // root cover-signature dedup
    for (uint64_t rest = roots; rest; rest &= rest - 1) {
      int r = std::countr_zero(rest);
      uint64_t s = Bit(sig[static_cast<size_t>(r)]);
      if (tried & s) continue;
      tried |= s;
      ++explored;
      double prefix = Price(path | s);
      double bound = std::min(upper, best);
      if (!CostLess(prefix, bound)) continue;  // prefix only grows: prune
      uint64_t remainder = comp & ~Bit(r);
      double cost = prefix;
      if (remainder != 0) {
        cost = std::max(prefix, BestForest(remainder, path | s, bound));
      }
      if (CostLess(cost, best)) {
        best = cost;
        best_root = r;
      }
    }
    Memo& m = memo[key];
    if (best_root >= 0) {
      m.cost = best;
      m.root = best_root;
    } else {
      m.failed_under = std::max(m.failed_under, upper);
    }
    return best;
  }

  // Replays the memo from the top: the root chosen for each component of
  // `set` under `path`, chained under `parent`.
  void Emit(uint64_t set, uint64_t path, int parent,
            std::vector<int>& parent_of) const {
    for (uint64_t rest = set; rest;) {
      uint64_t comp = ComponentOf(rest & (~rest + 1), set);
      rest &= ~comp;
      if ((comp & multi) == 0) {
        int prev = parent;
        for (uint64_t c = comp; c; c &= c - 1) {
          parent_of[static_cast<size_t>(std::countr_zero(c))] = prev;
          prev = std::countr_zero(c);
        }
        continue;
      }
      const Memo* m = memo.Find({comp, path});
      FDB_CHECK_MSG(m != nullptr && m->root >= 0,
                    "f-tree search left a chosen component unsolved");
      parent_of[static_cast<size_t>(m->root)] = parent;
      Emit(comp & ~Bit(m->root),
           path | Bit(sig[static_cast<size_t>(m->root)]), m->root,
           parent_of);
    }
  }
};

}  // namespace

FTreeSearchResult FindOptimalFTree(const QueryInfo& info,
                                   EdgeCoverSolver& solver) {
  const auto& classes = info.classes;
  const size_t m = classes.size();
  FDB_CHECK_MSG(m <= 64, "too many attribute classes");

  Searcher s;
  s.solver = &solver;
  std::vector<uint64_t> covers;
  covers.reserve(m);
  for (const AttrSet& cls : classes) {
    RelSet cover = info.RelsCovering(cls);
    FDB_CHECK_MSG(!cover.Empty(), "class with no covering relation");
    covers.push_back(cover.bits());
  }
  s.sig.reserve(m);
  s.adj.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    auto it = std::find(s.sig_masks.begin(), s.sig_masks.end(), covers[i]);
    s.sig.push_back(static_cast<int>(it - s.sig_masks.begin()));
    if (it == s.sig_masks.end()) s.sig_masks.push_back(covers[i]);
    if (std::popcount(covers[i]) >= 2) s.multi |= Bit(static_cast<int>(i));
    for (size_t j = 0; j < m; ++j) {
      if (i != j && (covers[i] & covers[j]) != 0) {
        s.adj[i] |= Bit(static_cast<int>(j));
      }
    }
  }

  uint64_t all = m == 64 ? ~uint64_t{0} : Bit(static_cast<int>(m)) - 1;
  double cost = s.BestForest(all, 0, kInf);
  FDB_CHECK_MSG(cost != kInf, "f-tree search found no tree");

  std::vector<int> parent_of(m, -1);
  s.Emit(all, 0, -1, parent_of);

  FTreeSearchResult out;
  out.tree = FTreeFromShape(info, classes, parent_of);
  FDB_CHECK_MSG(out.tree.IsNormalized(),
                "constructed f-tree is not normalised");
  out.cost = cost;
  out.explored = s.explored;
  return out;
}

}  // namespace fdb
