#include "core/ground.h"

#include <algorithm>
#include <limits>

#include "common/exec_context.h"
#include "common/fault.h"
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

// The build step: a leapfrog walk over the prepared relations. Everything
// the walk reads per node is laid out once up front, and every node owns
// its cursor, saved-range and child slots. A node is active at most once
// at a time (the walk only descends), so its slots are reused for every
// value and the walk allocates nothing beyond the result's arenas.
class Builder {
 public:
  Builder(const FTree& tree, const std::vector<const Relation*>& rels,
          const Layout& layout, ExecContext* ctx)
      : tree_(tree), ctx_(ctx), out_(FTree(tree)), nodes_(tree.pool_size()) {
    for (int n : tree.AliveNodes()) {
      const FTreeNode& nd = tree.node(n);
      Node& slot = nodes_[static_cast<size_t>(n)];
      slot.cover_begin = covers_.size();
      for (AttrId r : nd.cover_rels) {
        const std::vector<int>& path = layout.nodes[r];
        const size_t d = static_cast<size_t>(
            std::find(path.begin(), path.end(), n) - path.begin());
        covers_.push_back(Cover{rels[r], layout.groups[r][d][0], r});
      }
      slot.cover_end = covers_.size();
      slot.kid_begin = kids_.size();
      kids_.resize(kids_.size() + nd.children.size());
    }
    cursor_.resize(covers_.size());
    saved_.resize(covers_.size());
    range_.reserve(rels.size());
    for (const Relation* r : rels) range_.emplace_back(0, r->size());
  }

  FRep Run() {
    out_.MarkNonEmpty();
    for (int root : tree_.roots()) {
      const uint32_t rid = Build(root);
      if (rid == kNoUnion) {
        out_.MarkEmpty();
        return std::move(out_);
      }
      out_.roots().push_back(rid);
    }
    FDB_VALIDATE_REP(out_);
    return std::move(out_);
  }

 private:
  using Range = std::pair<size_t, size_t>;

  // One covering relation's column at one node.
  struct Cover {
    const Relation* rel;
    size_t col;
    size_t index;  // query-local relation index

    Value At(size_t row) const { return rel->At(row, col); }
  };

  struct Node {
    size_t cover_begin = 0, cover_end = 0;  // into covers_, cursor_, saved_
    size_t kid_begin = 0;                   // into kids_
  };

  // Builds the union for tree node n under the current ranges; kNoUnion if
  // no value survives.
  uint32_t Build(int n) {
    const Node& slot = nodes_[static_cast<size_t>(n)];
    FDB_CHECK(slot.cover_begin < slot.cover_end);
    FDB_FAULT_POINT("ground_build_union");
    const std::vector<int>& children = tree_.node(n).children;
    const Cover* cover = covers_.data() + slot.cover_begin;
    size_t* cur = cursor_.data() + slot.cover_begin;
    Range* saved = saved_.data() + slot.cover_begin;
    uint32_t* kids = kids_.data() + slot.kid_begin;
    const size_t m = slot.cover_end - slot.cover_begin;
    UnionBuilder nu = out_.StartUnion(n);

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

      // All covering relations contain v: narrow to v's block and recurse.
      // The largest Value has no successor; its block runs to the end.
      const bool last = v == std::numeric_limits<Value>::max();
      for (size_t i = 0; i < m; ++i) {
        Range& r = range_[cover[i].index];
        saved[i] = r;
        r = {cur[i], last ? r.second
                          : cover[i].rel->LowerBound(cur[i], r.second,
                                                     cover[i].col, v + 1)};
      }
      bool dead = false;
      for (size_t c = 0; c < children.size(); ++c) {
        kids[c] = Build(children[c]);
        if (kids[c] == kNoUnion) {
          dead = true;
          break;
        }
      }
      // Restore: continue after v's block.
      for (size_t i = 0; i < m; ++i) {
        Range& r = range_[cover[i].index];
        cur[i] = r.second;
        r = saved[i];
      }
      if (!dead) {
        nu.AddValue(v);
        for (size_t c = 0; c < children.size(); ++c) nu.AddChild(kids[c]);
      }
    }
    if (nu.empty()) {
      nu.Abandon();
      return kNoUnion;
    }
    return nu.Finish();
  }

  const FTree& tree_;
  ExecContext* const ctx_;
  FRep out_;
  std::vector<Node> nodes_;  // by f-tree node id
  std::vector<Cover> covers_;
  std::vector<size_t> cursor_;
  std::vector<Range> saved_;
  std::vector<uint32_t> kids_;
  std::vector<Range> range_;  // current row range per relation
};

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
                 const PrepareFn& prepare) {
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
  FRep out = Builder(tree, ptrs, layout, ctx).Run();
  const uint64_t bytes = trace != nullptr ? out.MemoryBytes() : 0;
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
