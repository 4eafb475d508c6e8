#include "core/validate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/enumerate.h"

namespace fdb {

namespace {

[[noreturn]] void Fail(const std::string& what, const std::string& detail) {
  throw FdbError(what + ": " + detail);
}

std::string UnionStr(uint32_t id) {
  std::ostringstream os;
  os << "union " << id;
  return os.str();
}

// ---- ValidateFTree ------------------------------------------------------

void CheckTree(const FTree& t) {
  t.Validate();  // parent/child symmetry, attribute partition, root list
  const auto fail = [](int n, const std::string& detail) {
    std::ostringstream os;
    os << "node " << n << " " << detail;
    Fail("ValidateFTree", os.str());
  };
  for (int n : t.AliveNodes()) {
    const FTreeNode& nd = t.node(n);
    if (!nd.attrs.ContainsAll(nd.visible)) {
      fail(n, "has visible attributes outside its class " +
                  nd.visible.Minus(nd.attrs).ToString());
    }
    if (!nd.dep_rels.ContainsAll(nd.cover_rels)) {
      fail(n, "has covering relations missing from dep_rels " +
                  nd.cover_rels.Minus(nd.dep_rels).ToString());
    }
    std::vector<int> ch = nd.children;
    std::sort(ch.begin(), ch.end());
    if (std::adjacent_find(ch.begin(), ch.end()) != ch.end()) {
      fail(n, "lists a child twice");
    }
  }
  // Reachability + parent-chain acyclicity: walking up from every alive
  // node must reach a root in at most pool_size() steps. (t.Validate()
  // checks local parent/child symmetry; a parent cycle detached from the
  // root list would still pass it node by node.)
  for (int n : t.AliveNodes()) {
    int cur = n;
    size_t steps = 0;
    while (t.node(cur).parent != -1) {
      cur = t.node(cur).parent;
      if (++steps > t.pool_size()) {
        fail(n, "sits on a parent cycle (never reaches a root)");
      }
    }
  }
}

// ---- ValidateDeep -------------------------------------------------------

// One reachable union's geometry, validated before any value dereference.
void CheckHeader(const FRep& rep, uint32_t id) {
  const UnionHeader& h = rep.HeaderOf(id);
  if (h.node < 0 ||
      static_cast<size_t>(h.node) >= rep.tree().pool_size()) {
    Fail("ValidateDeep", UnionStr(id) + " is bound to out-of-range tree node");
  }
  const size_t vals = rep.ValueArenaSize();
  if (h.len > vals || h.val_off > vals - h.len) {
    std::ostringstream os;
    os << UnionStr(id) << " value window [" << h.val_off << ", "
       << h.val_off + h.len << ") exceeds the value arena (size " << vals
       << ")";
    Fail("ValidateDeep", os.str());
  }
  const size_t kids = rep.ChildArenaSize();
  if (h.num_children > kids || h.child_off > kids - h.num_children) {
    std::ostringstream os;
    os << UnionStr(id) << " child window [" << h.child_off << ", "
       << h.child_off + h.num_children << ") exceeds the child arena (size "
       << kids << ")";
    Fail("ValidateDeep", os.str());
  }
}

void CheckDeep(const FRep& rep) {
  if (rep.OpenBuilders() != 0) {
    Fail("ValidateDeep", "representation has open builders (arenas may move)");
  }
  CheckTree(rep.tree());
  const FTree& t = rep.tree();
  if (rep.empty()) {
    if (!rep.roots().empty() || rep.NumUnions() != 0 ||
        rep.ValueArenaSize() != 0 || rep.ChildArenaSize() != 0) {
      Fail("ValidateDeep",
           "empty representation still holds unions or arena data");
    }
    return;
  }
  if (rep.roots().size() != t.roots().size()) {
    std::ostringstream os;
    os << "representation has " << rep.roots().size()
       << " root unions for " << t.roots().size() << " tree roots";
    Fail("ValidateDeep", os.str());
  }
  const size_t nu = rep.NumUnions();
  for (size_t i = 0; i < rep.roots().size(); ++i) {
    if (rep.roots()[i] >= nu) {
      Fail("ValidateDeep",
           "root " + UnionStr(rep.roots()[i]) + " is out of range");
    }
  }

  // Iterative DFS with an explicit on-path mark: a gray union reached
  // again through a child edge is a cycle, which the enumerators and
  // FRep::SweepBottomUp must never be exposed to. Black unions
  // are fully validated; re-reaching them is legal sharing.
  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> color(nu, kWhite);
  struct Frame {
    uint32_t id;
    size_t next_child;  // index into the child window
  };
  std::vector<Frame> stack;
  for (size_t i = 0; i < rep.roots().size(); ++i) {
    const uint32_t r = rep.roots()[i];
    if (rep.HeaderOf(r).node != t.roots()[i]) {
      std::ostringstream os;
      os << "root " << UnionStr(r) << " is bound to tree node "
         << rep.HeaderOf(r).node << ", expected root node " << t.roots()[i];
      Fail("ValidateDeep", os.str());
    }
    if (color[r] == kBlack) continue;
    stack.push_back({r, 0});
    color[r] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const uint32_t id = f.id;
      if (f.next_child == 0) {
        // First visit: geometry first (safe to do before dereferencing),
        // then the entry-level invariants.
        CheckHeader(rep, id);
        const UnionHeader& h = rep.HeaderOf(id);
        const FTreeNode& nd = t.node(h.node);
        if (!nd.alive) {
          Fail("ValidateDeep", UnionStr(id) + " is bound to a dead tree node");
        }
        if (h.len == 0) {
          Fail("ValidateDeep", UnionStr(id) +
                                   " is empty inside a non-empty "
                                   "representation (emptiness must propagate)");
        }
        if (nd.constant && h.len != 1) {
          std::ostringstream os;
          os << UnionStr(id) << " has " << h.len
             << " entries for constant tree node " << h.node
             << " (selection pins one value)";
          Fail("ValidateDeep", os.str());
        }
        if (h.num_children != h.len * nd.children.size()) {
          std::ostringstream os;
          os << UnionStr(id) << " commits " << h.num_children
             << " child slots for " << h.len << " entries x "
             << nd.children.size() << " tree children";
          Fail("ValidateDeep", os.str());
        }
        const UnionRef u = rep.u(id);
        for (size_t e = 1; e < h.len; ++e) {
          if (!(u.value(e - 1) < u.value(e))) {
            std::ostringstream os;
            os << UnionStr(id) << " values not strictly increasing at entry "
               << e;
            Fail("ValidateDeep", os.str());
          }
        }
      }
      const UnionHeader& h = rep.HeaderOf(id);
      if (f.next_child >= h.num_children) {
        color[id] = kBlack;
        stack.pop_back();
        continue;
      }
      const size_t slot_count = t.node(h.node).children.size();
      const size_t j = f.next_child % slot_count;
      const uint32_t c = rep.u(id).child(f.next_child);
      ++f.next_child;
      if (c >= nu) {
        std::ostringstream os;
        os << UnionStr(id) << " references out-of-range child " << UnionStr(c)
           << " (representation has " << nu << " unions)";
        Fail("ValidateDeep", os.str());
      }
      if (color[c] == kGray) {
        std::ostringstream os;
        os << "cyclic reference: " << UnionStr(c)
           << " reaches itself through " << UnionStr(id);
        Fail("ValidateDeep", os.str());
      }
      const int expect = t.node(h.node).children[j];
      if (rep.HeaderOf(c).node != expect) {
        std::ostringstream os;
        os << UnionStr(id) << " child slot " << j << " holds " << UnionStr(c)
           << " of tree node " << rep.HeaderOf(c).node << ", expected node "
           << expect;
        Fail("ValidateDeep", os.str());
      }
      if (color[c] == kWhite) {
        color[c] = kGray;
        stack.push_back({c, 0});
      }
    }
  }

  // Distinct reachable unions must own disjoint value windows: an aliased
  // window means two unions disagree about who owns those arena entries
  // (and per-entry side arrays keyed by arena_offset would collide).
  std::vector<uint32_t> reachable;
  for (uint32_t id = 0; id < nu; ++id) {
    if (color[id] == kBlack) reachable.push_back(id);
  }
  std::sort(reachable.begin(), reachable.end(), [&](uint32_t a, uint32_t b) {
    return rep.HeaderOf(a).val_off < rep.HeaderOf(b).val_off;
  });
  for (size_t i = 1; i < reachable.size(); ++i) {
    const UnionHeader& prev = rep.HeaderOf(reachable[i - 1]);
    const UnionHeader& cur = rep.HeaderOf(reachable[i]);
    if (prev.val_off + prev.len > cur.val_off) {
      std::ostringstream os;
      os << UnionStr(reachable[i - 1]) << " and " << UnionStr(reachable[i])
         << " overlap in the value arena";
      Fail("ValidateDeep", os.str());
    }
  }
}

// ---- ValidateGroupedRep -------------------------------------------------

void CheckGrouped(const GroupedRep& g) {
  CheckDeep(g.rep);
  const size_t ns = g.specs.size();
  const auto fail = [](const std::string& detail) {
    Fail("ValidateGroupedRep", detail);
  };
  if (g.global_stats.size() != ns) {
    std::ostringstream os;
    os << "global_stats has " << g.global_stats.size() << " slots for " << ns
       << " specs";
    fail(os.str());
  }

  // One payload per committed entry: collapse appends payloads in arena
  // commit order, so the arrays and the value arena must have grown in
  // lockstep.
  const size_t entries = g.rep.ValueArenaSize();
  if (g.entry_count.size() != entries) {
    std::ostringstream os;
    os << "entry_count covers " << g.entry_count.size()
       << " entries but the group arena holds " << entries;
    fail(os.str());
  }
  if (g.entry_stats.size() != entries * ns) {
    std::ostringstream os;
    os << "entry_stats holds " << g.entry_stats.size() << " slots for "
       << entries << " entries of " << ns << " specs";
    fail(os.str());
  }
  for (size_t i = 0; i < entries; ++i) {
    if (g.entry_count[i] == 0) {
      std::ostringstream os;
      os << "entry " << i << " has zero collapsed tuples (no empty unions "
         << "below the frontier)";
      fail(os.str());
    }
  }
  if (g.global_count == 0) {
    fail("global_count is zero (a group forest with zero-count multipliers "
         "must be the empty representation)");
  }
  // Every alive node of the group forest must carry a grouping attribute:
  // the collapse removed everything else.
  for (int n : g.rep.tree().AliveNodes()) {
    if (!g.rep.tree().node(n).attrs.Intersects(g.group_attrs)) {
      std::ostringstream os;
      os << "group forest keeps node " << n
         << " whose class has no GROUP BY attribute";
      fail(os.str());
    }
  }
}

// ---- ValidateMorselPlan -------------------------------------------------

// The independent oracle for the planner's counts (which come from the
// kernel's count walk, core/parallel_enumerate.cc): the per-union tuple
// counts of FRep::SubtreeTupleCounts, replayed down each morsel's chain.
struct MorselCtx {
  const FRep& rep;
  const std::vector<PreOrderFrame>& frames;
  const std::vector<double>& counts;
  const std::vector<char>* keep;
};

bool Kept(const MorselCtx& c, int node) {
  return c.keep == nullptr || (*c.keep)[static_cast<size_t>(node)];
}

// Stream tuples below entry `e` of union `u` (product of the restricted
// counts of its kept children).
double ExtCount(const MorselCtx& c, const UnionRef& u, size_t e) {
  const std::vector<int>& ch = c.rep.tree().node(u.node()).children;
  const size_t k = ch.size();
  double p = 1.0;
  for (size_t j = 0; j < k; ++j) {
    if (!Kept(c, ch[j])) continue;
    p *= c.counts[u.Child(e, j, k)];
  }
  return p;
}

// Resolves the union of frame `f` under the pinned prefix `bounds[0, f)`,
// exactly like the planner and the range-restricted TupleEnumerator do.
// `chain` caches the resolved union per frame.
uint32_t ResolveUnion(const MorselCtx& c, const std::vector<EntryBound>& bounds,
                      const std::vector<uint32_t>& chain, size_t f) {
  const PreOrderFrame& pf = c.frames[f];
  if (pf.parent_pos < 0) return c.rep.roots()[pf.slot];
  const size_t p = static_cast<size_t>(pf.parent_pos);
  const UnionRef pu = c.rep.u(chain[p]);
  const size_t k = c.rep.tree().node(c.frames[p].node).children.size();
  return pu.Child(bounds[p].begin, pf.slot, k);
}

void FailMorsel(size_t m, const std::string& detail) {
  std::ostringstream os;
  os << "morsel " << m << " " << detail;
  Fail("ValidateMorselPlan", os.str());
}

// The planner's exact row count against the DP's double: equal whenever
// the DP is exact (below 2^53), within a relative 1e-6 above that, where
// the DP rounds.
void CheckRows(const std::string& what, uint64_t rows, double dp) {
  const double got = static_cast<double>(rows);
  const bool ok = dp < 9007199254740992.0
                      ? got == dp
                      : !std::isfinite(dp) ||
                            std::abs(dp - got) <=
                                1e-6 * std::max({1.0, dp, got});
  if (!ok) {
    std::ostringstream os;
    os << what << " counts " << rows << " rows where the subtree counts "
       << "give " << dp;
    Fail("ValidateMorselPlan", os.str());
  }
}

void CheckMorsels(const FRep& rep, bool visible_only, const MorselPlan& plan) {
  CheckDeep(rep);
  if (rep.empty()) {
    if (!plan.morsels.empty()) {
      Fail("ValidateMorselPlan",
           "plan over the empty representation has morsels");
    }
    return;
  }
  std::vector<char> keep;
  const std::vector<char>* keep_ptr = nullptr;
  if (visible_only) {
    keep = VisibleKeepMask(rep.tree());
    keep_ptr = &keep;
  }
  const std::vector<PreOrderFrame> frames =
      BuildPreOrderFrames(rep.tree(), keep_ptr);
  if (plan.morsels.empty()) {
    Fail("ValidateMorselPlan",
         "plan over a non-empty representation has no morsels");
  }
  const std::vector<double> counts = rep.SubtreeTupleCounts(keep_ptr);
  MorselCtx ctx{rep, frames, counts, keep_ptr};
  double total = 1.0;  // the stream length: product over kept root trees
  const std::vector<int>& troots = rep.tree().roots();
  for (size_t i = 0; i < troots.size(); ++i) {
    if (Kept(ctx, troots[i])) total *= counts[rep.roots()[i]];
  }
  CheckRows("the plan", plan.total_rows, total);
  // A single morsel with an empty bound chain denotes the whole stream
  // (nullary representations and the sequential fallback).
  if (plan.morsels.size() == 1 && plan.morsels[0].bounds.empty()) {
    CheckRows("the whole-stream morsel", plan.morsels[0].rows, total);
    return;
  }
  if (frames.empty()) {
    Fail("ValidateMorselPlan",
         "nullary stream split into more than the whole-stream morsel");
  }

  // Per-morsel: resolve the chain, check the pin/range shape and that
  // every bound lies inside its union; recompute the row count.
  std::vector<std::vector<uint32_t>> chains(plan.morsels.size());
  for (size_t m = 0; m < plan.morsels.size(); ++m) {
    const Morsel& mo = plan.morsels[m];
    if (mo.bounds.empty()) {
      FailMorsel(m, "has an empty bound chain in a multi-morsel plan");
    }
    if (mo.bounds.size() > frames.size()) {
      std::ostringstream os;
      os << "restricts " << mo.bounds.size() << " frames but the walk has "
         << frames.size();
      FailMorsel(m, os.str());
    }
    std::vector<uint32_t>& chain = chains[m];
    chain.resize(mo.bounds.size());
    for (size_t i = 0; i < mo.bounds.size(); ++i) {
      chain[i] = ResolveUnion(ctx, mo.bounds, chain, i);
      const EntryBound& b = mo.bounds[i];
      const size_t len = rep.u(chain[i]).size();
      if (!(b.begin < b.end)) {
        std::ostringstream os;
        os << "frame " << i << " bound [" << b.begin << ", " << b.end
           << ") is empty";
        FailMorsel(m, os.str());
      }
      if (b.end > len) {
        std::ostringstream os;
        os << "frame " << i << " bound [" << b.begin << ", " << b.end
           << ") exceeds the union length " << len;
        FailMorsel(m, os.str());
      }
      if (i + 1 < mo.bounds.size() && b.begin + 1 != b.end) {
        std::ostringstream os;
        os << "frame " << i << " bound [" << b.begin << ", " << b.end
           << ") does not pin one entry (only the last bound may range)";
        FailMorsel(m, os.str());
      }
    }
    // Row counts: replay the chain over the DP counts — the stream weight
    // of one subtree tuple at the chain head, narrowed by each pinned
    // entry — and compare with the morsel's exact count.
    const uint32_t u0 = rep.roots()[frames[0].slot];
    double mult = counts[u0] > 0 ? total / counts[u0] : total;
    for (size_t i = 0; i + 1 < mo.bounds.size(); ++i) {
      const double w =
          mult * ExtCount(ctx, rep.u(chain[i]), mo.bounds[i].begin);
      const double cn = counts[chain[i + 1]];
      mult = cn > 0 ? w / cn : w;
    }
    const size_t last = mo.bounds.size() - 1;
    double est = 0.0;
    const UnionRef lu = rep.u(chain[last]);
    for (uint32_t e = mo.bounds[last].begin; e < mo.bounds[last].end; ++e) {
      est += mult * ExtCount(ctx, lu, e);
    }
    std::ostringstream what;
    what << "morsel " << m;
    CheckRows(what.str(), mo.rows, est);
  }

  // Tiling: morsels must partition the stream in lexicographic odometer
  // order. First morsel starts at the stream start, last ends at the
  // stream end, and each consecutive pair is adjacent: at the first
  // level where the chains differ, the successor picks up exactly where
  // the predecessor stopped, with everything deeper exhausted (a) or
  // fresh (b).
  const std::vector<EntryBound>& first = plan.morsels.front().bounds;
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i].begin != 0) {
      std::ostringstream os;
      os << "does not start at the stream start (frame " << i
         << " begins at entry " << first[i].begin << ")";
      FailMorsel(0, os.str());
    }
  }
  const size_t last_m = plan.morsels.size() - 1;
  const std::vector<EntryBound>& last = plan.morsels[last_m].bounds;
  for (size_t i = 0; i < last.size(); ++i) {
    const size_t len = rep.u(chains[last_m][i]).size();
    if (last[i].end != len) {
      std::ostringstream os;
      os << "does not end at the stream end (frame " << i << " stops at entry "
         << last[i].end << " of " << len << ")";
      FailMorsel(last_m, os.str());
    }
  }
  for (size_t m = 1; m < plan.morsels.size(); ++m) {
    const std::vector<EntryBound>& a = plan.morsels[m - 1].bounds;
    const std::vector<EntryBound>& b = plan.morsels[m].bounds;
    size_t j = 0;
    while (j < a.size() && j < b.size() && a[j].begin == b[j].begin &&
           a[j].end == b[j].end) {
      ++j;
    }
    if (j == a.size() || j == b.size()) {
      FailMorsel(m, "is nested inside its predecessor (chains must diverge)");
    }
    if (b[j].begin != a[j].end) {
      std::ostringstream os;
      os << "is not adjacent to its predecessor at frame " << j
         << " (predecessor ends at entry " << a[j].end << ", successor "
         << "begins at " << b[j].begin << ")";
      FailMorsel(m, os.str());
    }
    for (size_t i = j + 1; i < a.size(); ++i) {
      const size_t len = rep.u(chains[m - 1][i]).size();
      if (a[i].end != len) {
        std::ostringstream os;
        os << "ascends past frame " << i << " of its predecessor before the "
           << "frame is exhausted (stops at entry " << a[i].end << " of "
           << len << ")";
        FailMorsel(m, os.str());
      }
    }
    for (size_t i = j + 1; i < b.size(); ++i) {
      if (b[i].begin != 0) {
        std::ostringstream os;
        os << "descends into frame " << i << " mid-union (begins at entry "
           << b[i].begin << ")";
        FailMorsel(m, os.str());
      }
    }
  }
}

}  // namespace

void ValidateDeep(const FRep& rep) { CheckDeep(rep); }
void ValidateFTree(const FTree& t) { CheckTree(t); }
void ValidateGroupedRep(const GroupedRep& g) { CheckGrouped(g); }
void ValidateMorselPlan(const FRep& rep, bool visible_only,
                        const MorselPlan& plan) {
  CheckMorsels(rep, visible_only, plan);
}

}  // namespace fdb
