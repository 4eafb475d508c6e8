#include "core/ground.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/exec_context.h"
#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/ops_common.h"
#include "core/validate.h"

namespace fdb {

using ops_internal::kNoUnion;

namespace {

// Where each relation sits on the f-tree: the nodes it covers, ancestor-
// first, and its column groups along them (groups[r][d] for nodes[r][d]).
struct Layout {
  std::vector<std::vector<int>> nodes;
  std::vector<ColumnGroups> groups;
};

Layout ComputeLayout(const FTree& tree,
                     const std::vector<const Relation*>& rels) {
  tree.Validate();
  FDB_CHECK_MSG(tree.SatisfiesPathConstraint(),
                "grounding requires an f-tree satisfying the path constraint");
  const size_t nrels = rels.size();
  Layout l{std::vector<std::vector<int>>(nrels),
           std::vector<ColumnGroups>(nrels)};
  for (int n : tree.AliveNodes()) {
    const FTreeNode& nd = tree.node(n);
    FDB_CHECK_MSG(nd.constant || !nd.cover_rels.Empty(),
                  "f-tree node with no covering relation");
    for (AttrId r : nd.cover_rels) {
      FDB_CHECK_MSG(r < nrels, "f-tree references a missing relation");
      l.nodes[r].push_back(n);
    }
  }
  for (size_t r = 0; r < nrels; ++r) {
    std::sort(l.nodes[r].begin(), l.nodes[r].end(),
              [&](int x, int y) { return tree.Depth(x) < tree.Depth(y); });
    for (int n : l.nodes[r]) {
      std::vector<size_t> cols;
      for (AttrId a : tree.node(n).attrs) {
        if (rels[r]->HasAttr(a)) cols.push_back(rels[r]->ColumnOf(a));
      }
      FDB_CHECK(!cols.empty());
      std::sort(cols.begin(), cols.end());
      l.groups[r].push_back(std::move(cols));
    }
  }
  return l;
}

// The constant predicates on `rel`'s attributes, by column.
using PredColumns = std::vector<std::pair<size_t, const ConstPred*>>;

PredColumns PredsOn(const Relation& rel, const std::vector<ConstPred>& preds) {
  PredColumns mine;
  for (const ConstPred& p : preds) {
    if (rel.HasAttr(p.attr)) mine.emplace_back(rel.ColumnOf(p.attr), &p);
  }
  return mine;
}

bool Satisfies(const Relation& rel, size_t row, const PredColumns& preds) {
  for (const auto& [col, p] : preds) {
    if (!EvalCmp(rel.At(row, col), p->op, p->value)) return false;
  }
  return true;
}

// `rel` narrowed by its constant predicates in one order-preserving pass;
// shared unchanged when none applies.
std::shared_ptr<const Relation> ApplyConstPreds(
    std::shared_ptr<const Relation> rel, const PredColumns& preds) {
  if (preds.empty()) return rel;
  const Relation& in = *rel;
  return std::make_shared<const Relation>(
      in.Filtered([&](size_t row) { return Satisfies(in, row, preds); }));
}

// The f-tree laid out for the build step: everything the walk reads per
// node, computed once per grounding and shared read-only by every morsel.
struct WalkPlan {
  // One covering relation's column at one node.
  struct Cover {
    const Relation* rel;
    size_t col;
    size_t index;  // query-local relation index

    Value At(size_t row) const { return rel->At(row, col); }
  };

  struct Node {
    size_t cover_begin = 0, cover_end = 0;  // into covers
    size_t kid_begin = 0;                   // into a walker's child slots
  };

  WalkPlan(const FTree& t, const std::vector<const Relation*>& r,
           const Layout& layout)
      : tree(t), rels(r), nodes(t.pool_size()) {
    for (int n : t.AliveNodes()) {
      const FTreeNode& nd = t.node(n);
      Node& slot = nodes[static_cast<size_t>(n)];
      slot.cover_begin = covers.size();
      for (AttrId i : nd.cover_rels) {
        const std::vector<int>& path = layout.nodes[i];
        const size_t d = static_cast<size_t>(
            std::find(path.begin(), path.end(), n) - path.begin());
        covers.push_back(Cover{r[i], layout.groups[i][d][0], i});
      }
      slot.cover_end = covers.size();
      slot.kid_begin = num_kids;
      num_kids += nd.children.size();
    }
  }

  const FTree& tree;
  const std::vector<const Relation*>& rels;
  std::vector<Node> nodes;  // by f-tree node id
  std::vector<Cover> covers;
  size_t num_kids = 0;
};

// The first root's values cut into morsels, built on up to `threads`
// threads. With k covering relations, morsel j takes the rows
// [rows[j*k + i], rows[(j+1)*k + i]) of the i-th: one range of root values,
// the same in each relation.
struct RootMorsels {
  size_t count = 1;
  int threads = 1;
  std::vector<size_t> rows;
};

// Candidate rows per morsel the split aims for, and the most morsels per
// thread: a few per thread balance the load, and each one a helper builds
// costs a splice.
constexpr size_t kMorselRows = 1024;
constexpr size_t kMorselsPerThread = 2;

// Cuts the first root for up to `threads` threads (0 = one per hardware
// thread). The morsel count follows the root's candidate rows, the fewest
// rows among its covering relations: one morsel per kMorselRows of them,
// at most kMorselsPerThread per thread. Cut points are values of the first
// covering relation at row quantiles, each found in every covering
// relation by LowerBound; equal cuts merge, so a dominating root value
// stays whole in one morsel.
RootMorsels PlanRootMorsels(const WalkPlan& plan, int root, int threads) {
  const WalkPlan::Node& slot = plan.nodes[static_cast<size_t>(root)];
  const WalkPlan::Cover* cover = plan.covers.data() + slot.cover_begin;
  const size_t k = slot.cover_end - slot.cover_begin;
  size_t candidates = k > 0 ? std::numeric_limits<size_t>::max() : 0;
  for (size_t i = 0; i < k; ++i) {
    candidates = std::min(candidates, cover[i].rel->size());
  }
  RootMorsels m;
  std::vector<Value> cuts;
  if (threads != 1 && candidates / kMorselRows > 1) {
    // Only a build large enough to split asks how many threads it may use.
    m.threads = ResolveThreads(threads);
  }
  if (m.threads > 1) {
    const size_t wanted =
        std::min(candidates / kMorselRows,
                 static_cast<size_t>(m.threads) * kMorselsPerThread);
    const size_t n = cover[0].rel->size();
    Value prev = cover[0].At(0);
    for (size_t j = 1; j < wanted; ++j) {
      const Value v = cover[0].At(j * n / wanted);
      if (v > prev) cuts.push_back(prev = v);
    }
  }
  m.count = cuts.size() + 1;
  m.rows.reserve((m.count + 1) * k);
  m.rows.insert(m.rows.end(), k, 0);
  for (Value v : cuts) {
    for (size_t i = 0; i < k; ++i) {
      m.rows.push_back(
          cover[i].rel->LowerBound(0, cover[i].rel->size(), cover[i].col, v));
    }
  }
  for (size_t i = 0; i < k; ++i) m.rows.push_back(cover[i].rel->size());
  return m;
}

// Marks the start of one union of the build: the ground_build_union fault
// site fires once per union the build starts, whichever thread starts it
// and whether it is staged in a builder or committed as a leaf.
void StartGroundUnion() { FDB_FAULT_POINT("ground_build_union"); }

// Rows of a run the walk compares one by one before it gallops.
constexpr size_t kRunScanRows = 8;

// The end of the run of v that starts at row lo of [lo, hi) in `cover`: the
// first row past it, or hi. Runs are short on a key/fk chain, so the first
// kRunScanRows rows are compared in turn and only a longer run gallops
// (LowerBound for v + 1). The largest Value has no successor; its run
// reaches hi.
size_t RunEnd(const WalkPlan::Cover& cover, size_t lo, size_t hi, Value v) {
  if (v == std::numeric_limits<Value>::max()) return hi;
  const size_t scan_end = std::min(hi, lo + kRunScanRows);
  for (size_t row = lo + 1; row < scan_end; ++row) {
    if (cover.At(row) != v) return row;
  }
  return scan_end == hi ? hi
                        : cover.rel->LowerBound(scan_end, hi, cover.col, v + 1);
}

// The values of a childless union, gathered by the walk and committed with
// its header in one append (FRep::AddUnion).
struct LeafValues {
  std::vector<Value> vals;

  void AddValue(Value v) { vals.push_back(v); }
  void AddChild(uint32_t /*child*/) {}
};

// One thread's leapfrog walk over the prepared relations, writing unions
// into `out`. A node with one covering relation has nothing to intersect:
// the walk steps through its range's runs of equal values, each ended by
// RunEnd. A node with several covering relations runs leapfrog rounds
// (propose the largest head, seek the others to it, agree), and RunEnd
// ends the agreed value's block in each. A childless node's union is
// gathered in the walker's own buffer and committed with its header in one
// step (FRep::AddUnion), with no builder. The other unions stage in a
// UnionBuilder. Every node owns its cursor, saved-range and child slots; a
// node is active at most once at a time (the walk only descends), so its
// slots are reused for every value and the walk allocates nothing beyond
// the result's arenas and the growth of its leaf buffer.
class Walker {
 public:
  Walker(const WalkPlan& plan, ExecContext* ctx, FRep* out)
      : plan_(plan),
        ctx_(ctx),
        out_(out),
        cursor_(plan.covers.size()),
        saved_(plan.covers.size()),
        kids_(plan.num_kids) {
    range_.reserve(plan.rels.size());
    for (const Relation* r : plan.rels) range_.emplace_back(0, r->size());
  }

  void set_out(FRep* out) { out_ = out; }

  // Builds the union for tree node n under the current ranges; kNoUnion if
  // no value survives.
  uint32_t Build(int n) {
    StartGroundUnion();
    if (plan_.tree.node(n).children.empty()) {
      leaf_.vals.clear();
      Walk(n, leaf_);
      if (leaf_.vals.empty()) return kNoUnion;
      return out_->AddUnion(n, leaf_.vals.data(), leaf_.vals.size());
    }
    UnionBuilder nu = out_->StartUnion(n);
    Walk(n, nu);
    if (nu.empty()) {
      nu.Abandon();
      return kNoUnion;
    }
    return nu.Finish();
  }

  // Morsel j of root node `root`: its root entries go to `sink`, the
  // unions below them to out.
  template <typename Sink>
  void BuildMorsel(int root, const RootMorsels& m, size_t j, Sink& sink) {
    const WalkPlan::Node& slot = plan_.nodes[static_cast<size_t>(root)];
    const WalkPlan::Cover* cover = plan_.covers.data() + slot.cover_begin;
    const size_t k = slot.cover_end - slot.cover_begin;
    for (size_t i = 0; i < k; ++i) {
      range_[cover[i].index] = {m.rows[j * k + i], m.rows[(j + 1) * k + i]};
    }
    Walk(root, sink);
    for (size_t i = 0; i < k; ++i) {
      range_[cover[i].index] = {0, cover[i].rel->size()};
    }
  }

 private:
  using Range = std::pair<size_t, size_t>;

  // Intersects node n's covering relations under the current ranges and
  // passes each surviving value, with its child unions, to `sink`.
  template <typename Sink>
  void Walk(int n, Sink& sink) {
    const WalkPlan::Node& slot = plan_.nodes[static_cast<size_t>(n)];
    FDB_CHECK(slot.cover_begin < slot.cover_end);
    const std::vector<int>& children = plan_.tree.node(n).children;
    const WalkPlan::Cover* cover = plan_.covers.data() + slot.cover_begin;
    uint32_t* kids = kids_.data() + slot.kid_begin;
    const size_t m = slot.cover_end - slot.cover_begin;

    if (m == 1) {
      // One covering relation: every run of equal values is a value.
      Range& r = range_[cover->index];
      const Range whole = r;
      for (size_t row = whole.first; row < whole.second;) {
        if (ctx_ != nullptr) ctx_->CheckCancelled();
        const Value v = cover->At(row);
        r = {row, RunEnd(*cover, row, whole.second, v)};
        row = r.second;
        Emit(v, children, kids, sink);
      }
      r = whole;
      return;
    }

    size_t* cur = cursor_.data() + slot.cover_begin;
    Range* saved = saved_.data() + slot.cover_begin;
    for (size_t i = 0; i < m; ++i) cur[i] = range_[cover[i].index].first;
    for (;;) {
      if (ctx_ != nullptr) ctx_->CheckCancelled();
      // Propose the max of the current heads; stop if any range is done.
      bool done = false;
      Value v = std::numeric_limits<Value>::min();
      for (size_t i = 0; i < m; ++i) {
        if (cur[i] >= range_[cover[i].index].second) {
          done = true;
          break;
        }
        v = std::max(v, cover[i].At(cur[i]));
      }
      if (done) break;
      // Advance every head to >= v; if any overshoots, retry with larger v.
      bool agree = true;
      for (size_t i = 0; i < m; ++i) {
        if (cover[i].At(cur[i]) == v) continue;
        const size_t hi = range_[cover[i].index].second;
        cur[i] = cover[i].rel->LowerBound(cur[i], hi, cover[i].col, v);
        if (cur[i] >= hi) {
          done = true;
          break;
        }
        if (cover[i].At(cur[i]) != v) agree = false;
      }
      if (done) break;
      if (!agree) continue;

      // All covering relations contain v: narrow to v's block and recurse,
      // then continue after the block.
      for (size_t i = 0; i < m; ++i) {
        Range& r = range_[cover[i].index];
        saved[i] = r;
        r = {cur[i], RunEnd(cover[i], cur[i], r.second, v)};
      }
      Emit(v, children, kids, sink);
      for (size_t i = 0; i < m; ++i) {
        Range& r = range_[cover[i].index];
        cur[i] = r.second;
        r = saved[i];
      }
    }
  }

  // Builds v's child unions under the narrowed ranges and passes v with
  // them to `sink`, unless one of them comes back empty.
  template <typename Sink>
  void Emit(Value v, const std::vector<int>& children, uint32_t* kids,
            Sink& sink) {
    for (size_t c = 0; c < children.size(); ++c) {
      kids[c] = Build(children[c]);
      if (kids[c] == kNoUnion) return;
    }
    sink.AddValue(v);
    for (size_t c = 0; c < children.size(); ++c) sink.AddChild(kids[c]);
  }

  const WalkPlan& plan_;
  ExecContext* const ctx_;
  FRep* out_;
  std::vector<size_t> cursor_;  // per cover
  std::vector<Range> saved_;    // per cover
  std::vector<uint32_t> kids_;  // child slots, per node
  std::vector<Range> range_;    // current row range per relation
  LeafValues leaf_;             // the childless union being gathered
};

// A morsel built by a pool helper: the unions below its root entries in a
// private segment, its root entries (child ids local to the segment) beside
// them.
struct Segment {
  FRep rep{FTree{}};
  std::vector<Value> vals;
  std::vector<uint32_t> kids;

  void AddValue(Value v) { vals.push_back(v); }
  void AddChild(uint32_t c) { kids.push_back(c); }
};

// Morsel claims: the front thread takes morsels from the front, helpers
// from the back, until the two meet. The front thread's morsels thus form a
// prefix, built in place, and the helpers' a suffix, spliced after it in
// order.
class Claims {
 public:
  explicit Claims(size_t n) : back_(n) {}

  // True for the first thread to ask: it becomes the front thread.
  bool TakeFront() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return !std::exchange(front_taken_, true);
  }

  std::optional<size_t> Front() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (front_ == back_) return std::nullopt;
    return front_++;
  }
  std::optional<size_t> Back() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (front_ == back_) return std::nullopt;
    return --back_;
  }
  // Stops all further claims (a morsel failed).
  void Abort() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    back_ = front_;
  }
  // The first morsel a helper took, once every morsel is claimed.
  size_t split() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return front_;
  }

 private:
  Mutex mu_;
  bool front_taken_ GUARDED_BY(mu_) = false;
  size_t front_ GUARDED_BY(mu_) = 0;
  size_t back_ GUARDED_BY(mu_);
};

// Builds the union of the first root, morsel by morsel, on up to
// m.threads threads; kNoUnion if no value survives. The first thread to
// start — the caller, unless a helper wakes first — builds its morsels in
// place into `out` with the caller's walker; helpers build theirs into
// segments, which are appended after them in morsel order with their root
// entries rebased. That reproduces the arenas and union ids of a build in
// one piece. When the pool is busy the caller builds every morsel in
// place, copying nothing. A split build records the splice as the span
// "ground-splice" (rows = segments, bytes = arena bytes copied).
uint32_t BuildFirstRoot(const WalkPlan& plan, Walker& walker, FRep& out,
                        int root, const RootMorsels& m, ExecContext* ctx,
                        QueryTrace* trace) {
  StartGroundUnion();
  UnionBuilder nu = out.StartUnion(root);
  if (m.count == 1) {
    walker.BuildMorsel(root, m, 0, nu);
  } else {
    std::vector<Segment> segs(m.count);
    Claims claims(m.count);
    // Helpers re-bind the caller's governance context, as
    // ParallelEnumerator::ForEachChunk does, so cancellation, deadlines,
    // budget charges and fault sites behave as on the caller. ParallelFor
    // rethrows the first failure once every thread has stopped.
    auto run = [&](size_t) {
      ExecContext::Scope scope(ctx);
      try {
        if (claims.TakeFront()) {
          while (const std::optional<size_t> j = claims.Front()) {
            walker.BuildMorsel(root, m, *j, nu);
          }
          return;
        }
        std::optional<Walker> own;
        while (const std::optional<size_t> j = claims.Back()) {
          Segment& seg = segs[*j];
          if (own) {
            own->set_out(&seg.rep);
          } else {
            own.emplace(plan, ctx, &seg.rep);
          }
          own->BuildMorsel(root, m, *j, seg);
        }
      } catch (...) {
        claims.Abort();
        throw;
      }
    };
    ThreadPool::Shared().ParallelFor(
        std::min(m.count, static_cast<size_t>(m.threads)), run, m.threads);

    QueryTrace::Scope splice(trace, "ground-splice");
    std::vector<const FRep*> tail;
    uint32_t shift = static_cast<uint32_t>(out.NumUnions());
    uint64_t bytes = 0;
    for (size_t j = claims.split(); j < m.count; ++j) {
      const Segment& seg = segs[j];
      nu.AddValues(seg.vals.data(), seg.vals.size());
      for (uint32_t c : seg.kids) nu.AddChild(c + shift);
      shift += static_cast<uint32_t>(seg.rep.NumUnions());
      bytes += seg.rep.NumUnions() * sizeof(UnionHeader) +
               seg.rep.ValueArenaSize() * sizeof(Value) +
               seg.rep.ChildArenaSize() * sizeof(uint32_t);
      tail.push_back(&seg.rep);
    }
    out.AppendUnions(tail, m.threads);
    splice.SetRows(tail.size());
    splice.SetBytes(bytes);
  }
  if (nu.empty()) {
    nu.Abandon();
    return kNoUnion;
  }
  return nu.Finish();
}

// The build step. The first root is built in morsels (BuildFirstRoot), the
// other roots of a forest after it on the caller, each in one piece.
FRep BuildRep(const FTree& tree, const std::vector<const Relation*>& rels,
              const Layout& layout, ExecContext* ctx, int threads,
              QueryTrace* trace, size_t* morsels) {
  const WalkPlan plan(tree, rels, layout);
  FRep out{FTree(tree)};
  out.MarkNonEmpty();
  Walker walker(plan, ctx, &out);
  const std::vector<int>& roots = tree.roots();
  *morsels = 1;
  for (size_t r = 0; r < roots.size(); ++r) {
    uint32_t rid;
    if (r == 0) {
      const RootMorsels m = PlanRootMorsels(plan, roots[0], threads);
      *morsels = m.count;
      rid = BuildFirstRoot(plan, walker, out, roots[0], m, ctx, trace);
    } else {
      rid = walker.Build(roots[r]);
    }
    if (rid == kNoUnion) {
      out.MarkEmpty();
      return out;
    }
    out.roots().push_back(rid);
  }
  FDB_VALIDATE_REP(out);
  return out;
}

}  // namespace

Relation PrepareRelation(const Relation& rel, const ColumnGroups& groups,
                         const std::vector<ConstPred>& preds) {
  std::vector<size_t> sort_cols;
  bool equalities = false;
  for (const std::vector<size_t>& g : groups) {
    FDB_CHECK(!g.empty());
    sort_cols.push_back(g[0]);
    equalities = equalities || g.size() > 1;
  }
  const PredColumns mine = PredsOn(rel, preds);
  // Intra-relation equalities: several attributes of this relation in one
  // class must agree.
  auto keep = [&](size_t row) {
    for (const std::vector<size_t>& g : groups) {
      for (size_t i = 1; i < g.size(); ++i) {
        if (rel.At(row, g[i]) != rel.At(row, g[0])) return false;
      }
    }
    return Satisfies(rel, row, mine);
  };
  Relation out = equalities || !mine.empty() ? rel.Filtered(keep) : rel;
  out.SortByColumns(sort_cols);
  return out;
}

FRep GroundQuery(const FTree& tree, const std::vector<const Relation*>& rels,
                 const std::vector<ConstPred>& preds, QueryTrace* trace,
                 const PrepareFn& prepare, int threads) {
  QueryTrace::Scope span(trace, "ground");
  const Layout layout = ComputeLayout(tree, rels);

  // Governance: grounding dominates pathological queries, so it probes the
  // ambient ExecContext (common/exec_context.h) at two granularities — per
  // relation prepared (each filter+sort is one uninterruptible block) and
  // per leapfrog iteration inside build (a relaxed atomic load; the clock
  // is strided inside CheckCancelled).
  ExecContext* const ctx = ExecContext::Current();

  // The prepared inputs: shared as supplied, or private filtered copies.
  std::vector<std::shared_ptr<const Relation>> inputs(rels.size());
  std::vector<const Relation*> ptrs(rels.size());
  {
    QueryTrace::Scope step(trace, "ground-prepare");
    uint64_t rows = 0, built_bytes = 0;
    bool built = false;
    for (size_t r = 0; r < rels.size(); ++r) {
      if (ctx != nullptr) ctx->CheckCancelled();
      FDB_FAULT_POINT("ground_prepare_relation");
      const ColumnGroups& groups = layout.groups[r];
      const PredColumns mine = PredsOn(*rels[r], preds);
      PreparedInput in;
      if (prepare) in = prepare(r, groups, !mine.empty());
      if (in.rel != nullptr) {
        inputs[r] = ApplyConstPreds(in.rel, mine);
      } else {
        // Nothing shared to start from: filter before sorting, so only the
        // rows the predicates keep are copied and sorted.
        in = {std::make_shared<const Relation>(
                  PrepareRelation(*rels[r], groups, preds)),
              true};
        inputs[r] = in.rel;
      }
      if (in.built) {
        built = true;
        built_bytes += in.rel->data().size() * sizeof(Value);
      }
      ptrs[r] = inputs[r].get();
      rows += inputs[r]->size();
    }
    step.SetRows(rows);
    if (built) step.SetBytes(built_bytes);
  }

  QueryTrace::Scope step(trace, "ground-build");
  size_t morsels = 1;
  FRep out = BuildRep(tree, ptrs, layout, ctx, threads, trace, &morsels);
  const uint64_t bytes = trace != nullptr ? out.MemoryBytes() : 0;
  step.SetRows(morsels);
  step.SetBytes(bytes);
  span.SetBytes(bytes);
  return out;
}

FRep GroundRelation(const Relation& rel, int rel_index, QueryTrace* trace) {
  FDB_CHECK_MSG(rel.arity() > 0, "cannot factorise a nullary relation");
  FTree tree = PathFTree(rel.schema(), rel_index);
  std::vector<const Relation*> rels(static_cast<size_t>(rel_index) + 1,
                                    nullptr);
  // Only the slot at rel_index is used; earlier slots are placeholders for
  // queries where this relation is not the first.
  Relation empty({});
  for (auto& p : rels) p = &empty;
  rels[static_cast<size_t>(rel_index)] = &rel;
  return GroundQuery(tree, rels, {}, trace);
}

PreparedInput PreparedRelationCache::Get(RelId id, const Relation& rel,
                                         const ColumnGroups& groups,
                                         bool filtered) {
  const uint64_t stamp = rel.stamp();
  bool seen = false;
  {
    ReaderMutexLock lock(mu_);
    if (const Entry* e = FindLocked(id, groups); e != nullptr && e->stamp == stamp) {
      if (e->rel != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return {e->rel, false};
      }
      seen = true;
    }
  }
  if (filtered && !seen) {
    // A first sighting under predicates: remember it, and leave the caller
    // to sort only the rows its predicates keep.
    deferred_.fetch_add(1, std::memory_order_relaxed);
    WriterMutexLock lock(mu_);
    PublishLocked(id, groups, stamp, nullptr);
    return {};
  }
  // Prepare outside the lock, then publish the finished relation (racing
  // threads publish identical ones).
  auto out = std::make_shared<const Relation>(PrepareRelation(rel, groups));
  prepared_.fetch_add(1, std::memory_order_relaxed);
  WriterMutexLock lock(mu_);
  PublishLocked(id, groups, stamp, out);
  return {out, true};
}

const PreparedRelationCache::Entry* PreparedRelationCache::FindLocked(
    RelId id, const ColumnGroups& groups) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  for (const Entry& e : it->second) {
    if (e.groups == groups) return &e;
  }
  return nullptr;
}

void PreparedRelationCache::PublishLocked(
    RelId id, const ColumnGroups& groups, uint64_t stamp,
    std::shared_ptr<const Relation> rel) {
  std::vector<Entry>& list = entries_[id];
  // A relation's stamp only moves on, so entries under any other stamp are
  // stale whatever their path order: drop them all.
  std::erase_if(list, [&](const Entry& e) { return e.stamp != stamp; });
  for (Entry& e : list) {
    if (e.groups == groups) {
      if (rel != nullptr) e.rel = std::move(rel);
      return;
    }
  }
  list.push_back(Entry{groups, std::move(rel), stamp});
}

size_t PreparedRelationCache::size() const {
  ReaderMutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [id, list] : entries_) {
    for (const Entry& e : list) n += e.rel != nullptr ? 1 : 0;
  }
  return n;
}

PreparedRelationCache::Stats PreparedRelationCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          prepared_.load(std::memory_order_relaxed),
          deferred_.load(std::memory_order_relaxed)};
}

}  // namespace fdb
