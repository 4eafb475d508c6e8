#include "core/parallel_enumerate.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
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

// Length of the (possibly visible-restricted) enumeration stream: the
// product over kept root trees of their restricted subtree counts.
double RestrictedTotal(const FRep& rep, const std::vector<char>* keep,
                       const std::vector<double>& counts) {
  double total = 1.0;
  const std::vector<int>& roots = rep.tree().roots();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (keep == nullptr || (*keep)[static_cast<size_t>(roots[i])]) {
      total *= counts[rep.roots()[i]];
    }
  }
  return total;
}

// Splits an already-sized stream: `counts`/`keep`/`total` are the pieces
// the caller has computed (one DP pass shared between the cutoff decision
// and the planning).
MorselPlan PlanSizedMorsels(const FRep& rep, const std::vector<char>* keep,
                            const std::vector<double>& counts, double total,
                            double target_tuples) {
  MorselPlan plan;
  plan.est_total = total;
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
  std::vector<char> keep;
  const std::vector<char>* keep_ptr = nullptr;
  if (visible_only) {
    keep = VisibleKeepMask(rep.tree());
    keep_ptr = &keep;
  }
  std::vector<double> counts = rep.SubtreeTupleCounts(keep_ptr);
  MorselPlan plan = PlanSizedMorsels(rep, keep_ptr, counts,
                                     RestrictedTotal(rep, keep_ptr, counts),
                                     target_tuples);
  FDB_VALIDATE_MORSELS(rep, visible_only, plan);
  return plan;
}

ParallelEnumerator::ParallelEnumerator(const FRep& rep, EnumerateOptions opts,
                                       bool visible_only)
    : rep_(&rep), visible_only_(visible_only) {
  // Resolve against the hardware, not ThreadPool::Shared(): the shared
  // pool must not be spun up for enumerations that stay sequential.
  threads_ = opts.threads > 0
                 ? opts.threads
                 : static_cast<int>(
                       std::max(1u, std::thread::hardware_concurrency()));
  if (rep.empty()) return;  // zero chunks, Enumerate is a no-op
  if (threads_ > 1) {
    // One linear pass sizes the stream; below the cutoff the planning and
    // thread handoff are not worth it and the result stays on the caller.
    std::vector<char> keep;
    const std::vector<char>* keep_ptr = nullptr;
    if (visible_only) {
      keep = VisibleKeepMask(rep.tree());
      keep_ptr = &keep;
    }
    std::vector<double> counts = rep.SubtreeTupleCounts(keep_ptr);
    const double est = RestrictedTotal(rep, keep_ptr, counts);
    if (est >= opts.parallel_cutoff) {
      const double target =
          opts.target_morsel_tuples > 0
              ? opts.target_morsel_tuples
              : std::max(1.0, est / (static_cast<double>(threads_) *
                                     std::max(1, opts.morsels_per_thread)));
      plan_ = PlanSizedMorsels(rep, keep_ptr, counts, est, target);
    } else {
      plan_.est_total = est;
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

void ParallelEnumerator::Enumerate(
    const std::function<void(size_t, TupleEnumerator&)>& consume) const {
  ForEachChunk([&](size_t i) {
    TupleEnumerator en(*rep_, visible_only_, plan_.morsels[i].bounds);
    consume(i, en);
  });
}

// ---------------------------------------------------------------------------
// Materialisation sinks. Every path — sequential interpreted, parallel
// interpreted, compiled kernel — meets one contract (SealVisible): the
// rows are distinct and sorted under sort_order(), the visible columns in
// f-tree pre-order.

namespace {

// Values strictly increase within a union and morsels partition the
// stream in odometer order, so the emitted rows are already sorted under
// the pre-order columns and, with one visible value per frame, distinct:
// they are only recorded as such. A kept frame without a visible attribute
// (a projected middle node) breaks both — its values can lead to equal
// rows below it — so that shape alone is sorted and deduplicated, under
// the same order. `layout` is the visible-mode kernel of the rep's f-tree,
// the single definition of the order (EnumKernel::order/distinct).
void SealVisible(Relation& out, const EnumKernel& layout, QueryTrace* trace) {
  if (layout.distinct()) {
    out.MarkSorted(layout.order());
    return;
  }
  QueryTrace::Scope span(trace, "sort-dedup");
  out.SortByColumns(layout.order());
  span.SetRows(out.size());
}

// Sequential interpreted sink. `est_rows` is the stream length when known
// (<= 0: unknown, no reservation).
Relation EmitSequential(const FRep& rep, double est_rows, QueryTrace* trace) {
  const EnumKernel layout = EnumKernel::Compile(rep.tree(), true);
  const std::vector<AttrId>& schema = layout.schema();
  Relation out(schema);
  {
    QueryTrace::Scope emit(trace, "emit");
    // Skip the reservation when the count is approximate-huge (such
    // results do not fit memory anyway).
    if (!schema.empty() && est_rows > 0.0 && est_rows < 1e9) {
      out.Reserve(static_cast<size_t>(est_rows));
    }
    TupleEnumerator en(rep, /*visible_only=*/true);
    std::vector<Value> tuple(schema.size());
    uint64_t tuples = 0;
    while (en.Next()) {
      for (size_t c = 0; c < schema.size(); ++c) {
        tuple[c] = en.ValueOf(schema[c]);
      }
      out.AddTuple(tuple);
      ++tuples;
    }
    emit.SetRows(tuples);
  }
  SealVisible(out, layout, trace);
  return out;
}

// Interpreted emission over a planned enumeration (the fallback when no
// matching kernel is at hand).
Relation EmitInterpreted(const FRep& rep, const ParallelEnumerator& pe,
                         QueryTrace* trace) {
  if (pe.num_chunks() <= 1) {
    // Sequential fallback, sized by the constructor's estimate when it
    // computed one (a result below the cutoff), else by one DP pass.
    double est = pe.plan().est_total;
    if (est <= 0 && !rep.empty()) {
      const std::vector<char> keep = VisibleKeepMask(rep.tree());
      est = RestrictedTotal(rep, &keep, rep.SubtreeTupleCounts(&keep));
    }
    return EmitSequential(rep, est, trace);
  }

  const EnumKernel layout = EnumKernel::Compile(rep.tree(), true);
  const std::vector<AttrId>& schema = layout.schema();
  const size_t arity = schema.size();  // > 0: there are frames to split
  Relation out(schema);
  // Per-chunk value buffers, concatenated in chunk order below — the
  // concatenation is byte-identical to the sequential stream.
  std::vector<std::vector<Value>> chunks(pe.num_chunks());
  size_t total_values = 0;
  {
    QueryTrace::Scope emit(trace, "emit");
    pe.Enumerate([&](size_t c, TupleEnumerator& en) {
      ExecContext* const ctx = ExecContext::Current();
      uint32_t tick = 0;
      std::vector<Value>& buf = chunks[c];
      const double est =
          pe.plan().morsels[c].est_tuples * static_cast<double>(arity);
      if (est > 0.0 && est < 2e9) buf.reserve(static_cast<size_t>(est));
      while (en.Next()) {
        if (ctx != nullptr && (++tick & 8191u) == 0) ctx->CheckCancelled();
        for (AttrId a : schema) buf.push_back(en.ValueOf(a));
      }
    });
    for (const std::vector<Value>& b : chunks) total_values += b.size();
    emit.SetRows(total_values / arity);
  }
  {
    QueryTrace::Scope concat(trace, "concat");
    out.Reserve(total_values / arity);
    for (const std::vector<Value>& b : chunks) out.AppendRows(b);
  }
  SealVisible(out, layout, trace);
  return out;
}

// Kernel-accelerated emission over a planned enumeration. The morsels'
// exact row counts (count mode skips the innermost walk, a fraction of a
// percent of the emit) and their prefix sum give every morsel its own
// slice of one presized buffer, so each one writes straight into the
// result in stream order — no per-chunk buffers, no concatenation copy.
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

Relation MaterializeVisible(const FRep& rep) {
  EnumerateOptions sequential;
  sequential.threads = 1;
  return MaterializeVisible(rep, sequential);
}

Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts) {
  ParallelEnumerator pe(rep, opts, /*visible_only=*/true);
  return EmitInterpreted(rep, pe, nullptr);
}

Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts,
                            const EnumKernel* kernel, QueryTrace* trace) {
  // Fallback rules: no kernel, a full-tuple (not visible-mode) kernel, or a
  // shape mismatch (the rep's f-tree differs from the one compiled against)
  // all route to the interpreted path — the kernel is an accelerator, never
  // a requirement.
  const bool use_kernel = kernel != nullptr && kernel->visible_only() &&
                          kernel->Matches(rep.tree());
  std::optional<ParallelEnumerator> pe;
  {
    QueryTrace::Scope plan_span(trace, "morsel-plan");
    pe.emplace(rep, opts, /*visible_only=*/true);
    plan_span.SetRows(pe->num_chunks());
  }
  QueryTrace::Scope enum_span(trace, "enumerate");
  Relation out = use_kernel ? EmitWithKernel(rep, *kernel, *pe, trace)
                            : EmitInterpreted(rep, *pe, trace);
  enum_span.SetRows(out.size());
  return out;
}

}  // namespace fdb
