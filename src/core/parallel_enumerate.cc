#include "core/parallel_enumerate.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/exec_context.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/kernel.h"
#include "core/validate.h"

namespace fdb {

namespace {

// Deep chains of dominating single entries stop splitting here; a morsel
// can always fall back to "one pinned entry, whole range below".
constexpr size_t kMaxChainDepth = 16;

// Morsels per thread the planner aims for; more morsels = better load
// balance, more per-chunk overhead.
constexpr double kMorselsPerThread = 8;

struct PlanCtx {
  const FRep& rep;
  const FTree& tree;
  const std::vector<PreOrderFrame>& frames;
  const std::vector<double>& counts;   // per-union restricted subtree counts
  const std::vector<char>* keep;       // node mask; null = all kept
  double target;                       // tuples per morsel aimed for
  std::vector<Morsel>* out;
  std::vector<EntryBound> prefix;      // pinned chain above the split frame
  std::vector<uint32_t> chain_unions;  // union id per chain frame
};

bool Kept(const PlanCtx& c, int node) {
  return c.keep == nullptr || (*c.keep)[static_cast<size_t>(node)];
}

// Stream tuples below entry `e` of union `u`: the product of the restricted
// counts of its kept children (1 for a leaf entry).
double ExtCount(const PlanCtx& c, const UnionRef& u, size_t e) {
  const std::vector<int>& ch = c.tree.node(u.node()).children;
  const size_t k = ch.size();
  double p = 1.0;
  for (size_t j = 0; j < k; ++j) {
    if (!Kept(c, ch[j])) continue;
    p *= c.counts[u.Child(e, j, k)];
  }
  return p;
}

// Union of frame `f` under the pinned prefix (every earlier chain frame is
// pinned to a single entry, so the resolution is unambiguous).
uint32_t ResolveUnion(const PlanCtx& c, size_t f) {
  const PreOrderFrame& pf = c.frames[f];
  if (pf.parent_pos < 0) return c.rep.roots()[pf.slot];
  const size_t p = static_cast<size_t>(pf.parent_pos);
  UnionRef pu = c.rep.u(c.chain_unions[p]);
  const size_t k = c.tree.node(c.frames[p].node).children.size();
  return pu.Child(c.prefix[p].begin, pf.slot, k);
}

// Splits the entries of `union_id` (the union of frame `frame` under the
// pinned prefix) into ranges of ~target estimated output. `mult` is the
// stream weight of one subtree tuple of this union — the product of every
// count outside the subtree under the pinned prefix — so entry `e` covers
// mult * ExtCount(e) stream tuples. Entries are packed greedily in order;
// an entry that alone exceeds the target is pinned and the next pre-order
// frame is split recursively, keeping the emitted morsels in lexicographic
// odometer order throughout.
void SplitFrame(PlanCtx& c, size_t frame, uint32_t union_id, double mult) {
  UnionRef u = c.rep.u(union_id);
  c.chain_unions.push_back(union_id);
  uint32_t begin = 0;
  double acc = 0.0;
  auto flush = [&](uint32_t end) {
    if (end > begin) {
      Morsel m;
      m.bounds = c.prefix;
      m.bounds.emplace_back(begin, end);
      m.est_tuples = acc;
      c.out->push_back(std::move(m));
    }
    begin = end;
    acc = 0.0;
  };
  const uint32_t len = static_cast<uint32_t>(u.size());
  for (uint32_t e = 0; e < len; ++e) {
    const double w = mult * ExtCount(c, u, e);
    // !(w <= target) rather than w > target: a non-finite estimate (counts
    // past double range) must also split rather than pack everything.
    const bool oversized = !(w <= c.target);
    if (oversized && frame + 1 < c.frames.size() &&
        c.prefix.size() + 1 < kMaxChainDepth) {
      flush(e);
      c.prefix.emplace_back(e, e + 1);
      const uint32_t nu = ResolveUnion(c, frame + 1);
      const double cn = c.counts[nu];
      SplitFrame(c, frame + 1, nu, cn > 0 ? w / cn : w);
      c.prefix.pop_back();
      begin = e + 1;
    } else {
      if (acc > 0.0 && !(acc + w <= c.target)) flush(e);
      acc += w;
    }
  }
  flush(len);
  c.chain_unions.pop_back();
}

// The sizing pass shared by planning and the cutoff decision: the frame
// mask of the stream (as per visible_only), its per-union restricted
// subtree counts, and its length — the product over kept root trees of
// their restricted counts.
struct SizedStream {
  bool visible_only;
  std::vector<char> keep;  // VisibleKeepMask when visible_only
  std::vector<double> counts;
  double total = 1.0;

  const std::vector<char>* mask() const {
    return visible_only ? &keep : nullptr;
  }
};

SizedStream SizeStream(const FRep& rep, bool visible_only) {
  SizedStream s{visible_only, {}, {}};
  if (visible_only) s.keep = VisibleKeepMask(rep.tree());
  s.counts = rep.SubtreeTupleCounts(s.mask());
  const std::vector<int>& roots = rep.tree().roots();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (!visible_only || s.keep[static_cast<size_t>(roots[i])]) {
      s.total *= s.counts[rep.roots()[i]];
    }
  }
  return s;
}

// Splits a sized stream into morsels of ~target_tuples each.
MorselPlan PlanSizedMorsels(const FRep& rep, const SizedStream& s,
                            double target_tuples) {
  const std::vector<char>* keep = s.mask();
  const std::vector<double>& counts = s.counts;
  MorselPlan plan;
  plan.est_total = s.total;
  std::vector<PreOrderFrame> frames = BuildPreOrderFrames(rep.tree(), keep);
  if (frames.empty()) {
    // Nullary stream (one empty tuple): nothing to split over.
    plan.morsels.push_back(Morsel{{}, plan.est_total});
    return plan;
  }
  if (!(target_tuples >= 1.0)) target_tuples = 1.0;
  PlanCtx ctx{rep,           rep.tree(),    frames, counts, keep,
              target_tuples, &plan.morsels, {},     {}};
  const uint32_t u0 = rep.roots()[frames[0].slot];
  const double c0 = counts[u0];
  SplitFrame(ctx, 0, u0, c0 > 0 ? plan.est_total / c0 : plan.est_total);
  return plan;
}

}  // namespace

MorselPlan PlanMorsels(const FRep& rep, bool visible_only,
                       double target_tuples) {
  if (rep.empty()) return {};
  MorselPlan plan =
      PlanSizedMorsels(rep, SizeStream(rep, visible_only), target_tuples);
  FDB_VALIDATE_MORSELS(rep, visible_only, plan);
  return plan;
}

ParallelEnumerator::ParallelEnumerator(const FRep& rep, EnumerateOptions opts,
                                       bool visible_only) {
  // Resolve against the hardware, not ThreadPool::Shared(): the shared
  // pool must not be spun up for enumerations that stay sequential.
  threads_ = ResolveThreads(opts.threads);
  if (rep.empty()) return;  // zero chunks, ForEachChunk is a no-op
  if (threads_ > 1) {
    // One linear pass sizes the stream; below the cutoff the planning and
    // thread handoff are not worth it and the result stays on the caller.
    const SizedStream s = SizeStream(rep, visible_only);
    if (s.total >= opts.parallel_cutoff) {
      const double target =
          opts.target_morsel_tuples > 0
              ? opts.target_morsel_tuples
              : std::max(1.0, s.total / (static_cast<double>(threads_) *
                                         kMorselsPerThread));
      plan_ = PlanSizedMorsels(rep, s, target);
    } else {
      plan_.est_total = s.total;
    }
  }
  if (plan_.morsels.empty()) {
    // Sequential fallback: one whole-stream chunk on the caller thread.
    plan_.morsels.push_back(Morsel{{}, plan_.est_total});
    threads_ = 1;
  }
  FDB_VALIDATE_MORSELS(rep, visible_only, plan_);
}

void ParallelEnumerator::ForEachChunk(
    const std::function<void(size_t)>& fn) const {
  const size_t n = plan_.morsels.size();
  if (n == 0) return;
  // Morsel tasks may run on pool threads, where the caller's governance
  // context is not ambient: capture it here and re-bind it inside every
  // chunk, so each worker observes the same cancellation flag and charges
  // the same budget. ParallelFor propagates the first exception back to
  // this caller; sibling morsels see the flagged context and stop at their
  // next probe, bounding reclaim time.
  ExecContext* const ctx = ExecContext::Current();
  auto governed = [&fn, ctx](size_t i) {
    ExecContext::Scope scope(ctx);
    if (ctx != nullptr) ctx->CheckCancelled();
    FDB_FAULT_POINT("enumerate_morsel");
    fn(i);
  };
  if (threads_ <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) governed(i);
    return;
  }
  ThreadPool::Shared().ParallelFor(n, governed, threads_);
}

// ---------------------------------------------------------------------------
// The materialiser. One contract (SealVisible): the rows are distinct and
// sorted under sort_order(), the visible columns in f-tree pre-order.

namespace {

// Values strictly increase within a union and morsels partition the
// stream in odometer order, so the emitted rows are already sorted under
// the pre-order columns and, with one visible value per frame, distinct:
// they are only recorded as such. A kept frame without a visible attribute
// (a projected middle node) breaks both — its values can lead to equal
// rows below it — so that shape alone is sorted and deduplicated, under
// the same order. The kernel's order()/distinct() are the single
// definition of both.
void SealVisible(Relation& out, const EnumKernel& kernel, QueryTrace* trace) {
  if (kernel.distinct()) {
    out.MarkSorted(kernel.order());
    return;
  }
  QueryTrace::Scope span(trace, "sort-dedup");
  out.SortByColumns(kernel.order());
  span.SetRows(out.size());
}

// One kernel run per morsel. The morsels' exact row counts (count mode
// skips the innermost walk, a fraction of a percent of the emit) and their
// prefix sum give every morsel its own slice of one presized buffer, so
// each one writes straight into the result in stream order — no per-chunk
// buffers, no concatenation copy.
Relation EmitWithKernel(const FRep& rep, const EnumKernel& kernel,
                        const ParallelEnumerator& pe, QueryTrace* trace) {
  const size_t arity = kernel.schema().size();
  Relation out(kernel.schema());
  {
    QueryTrace::Scope emit(trace, "emit");
    if (arity == 0) {
      // Fully-invisible (or nullary) stream: at most the one empty tuple.
      if (kernel.CountRows(rep, {}) > 0) out.AddTuple({});
    } else {
      const size_t n = pe.num_chunks();
      std::vector<size_t> first(n + 1, 0);  // first row of each morsel
      pe.ForEachChunk([&](size_t c) {
        first[c + 1] = kernel.CountRows(rep, pe.plan().morsels[c].bounds);
      });
      std::partial_sum(first.begin(), first.end(), first.begin());
      std::vector<Value> rows(first[n] * arity);
      pe.ForEachChunk([&](size_t c) {
        const size_t len = first[c + 1] - first[c];
        const std::span<Value> slice(rows.data() + first[c] * arity,
                                     len * arity);
        const uint64_t emitted =
            kernel.Emit(rep, pe.plan().morsels[c].bounds, slice);
        FDB_CHECK_MSG(emitted == len,
                      "kernel emitted a different row count than it counted");
      });
      out.AdoptRows(std::move(rows));
    }
    emit.SetRows(out.size());
  }
  SealVisible(out, kernel, trace);
  return out;
}

}  // namespace

Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts,
                            const EnumKernel* kernel, QueryTrace* trace) {
  // A caller's kernel compiled for another shape, or in full mode, cannot
  // walk this rep; compiling is a microsecond-scale lowering of the frame
  // list, so every other case compiles here.
  std::optional<EnumKernel> compiled;
  if (kernel == nullptr || !kernel->visible_only() ||
      !kernel->Matches(rep.tree())) {
    compiled.emplace(
        EnumKernel::Compile(rep.tree(), /*visible_only=*/true, trace));
    kernel = &*compiled;
  }
  std::optional<ParallelEnumerator> pe;
  {
    QueryTrace::Scope plan_span(trace, "morsel-plan");
    pe.emplace(rep, opts, /*visible_only=*/true);
    plan_span.SetRows(pe->num_chunks());
  }
  QueryTrace::Scope enum_span(trace, "enumerate");
  Relation out = EmitWithKernel(rep, *kernel, *pe, trace);
  enum_span.SetRows(out.size());
  return out;
}

}  // namespace fdb
