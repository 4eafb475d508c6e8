#include "core/parallel_enumerate.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/exec_context.h"
#include "common/fault.h"
#include "common/pages.h"
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

// Frame 0 is counted in equal-entry ranges on the pool when its union
// holds more than one range of kCountRangeEntries entries, at most
// kCountRangesPerThread ranges per thread — the rule GroundQuery cuts its
// first root by (core/ground.cc).
constexpr size_t kCountRangeEntries = 1024;
constexpr size_t kCountRangesPerThread = 2;

struct PlanCtx {
  const FRep& rep;
  const EnumKernel& kernel;
  double target;                   // tuples per morsel aimed for
  std::vector<Morsel>* out;
  std::vector<EntryBound> prefix;  // pinned chain above the split frame
};

// Splits the entries of the split frame (frame prefix.size(), under the
// pinned prefix) into ranges of ~target rows; `rows[e]` is the exact
// stream length under entry e. Entries are packed greedily in order; an
// entry that alone exceeds the target is pinned and the next pre-order
// frame, counted under the pin, is split recursively, keeping the emitted
// morsels in lexicographic odometer order throughout.
void SplitFrame(PlanCtx& c, const std::vector<uint64_t>& rows) {
  const size_t frame = c.prefix.size();
  uint32_t begin = 0;
  uint64_t acc = 0;
  auto flush = [&](uint32_t end) {
    if (end > begin) {
      Morsel m;
      m.bounds = c.prefix;
      m.bounds.emplace_back(begin, end);
      m.rows = acc;
      c.out->push_back(std::move(m));
    }
    begin = end;
    acc = 0;
  };
  const uint32_t len = static_cast<uint32_t>(rows.size());
  for (uint32_t e = 0; e < len; ++e) {
    const uint64_t w = rows[e];
    if (static_cast<double>(w) > c.target &&
        frame + 1 < c.kernel.num_frames() &&
        c.prefix.size() + 1 < kMaxChainDepth) {
      flush(e);
      c.prefix.emplace_back(e, e + 1);
      c.prefix.emplace_back(0, EnumKernel::kAllEntries);
      const std::vector<uint64_t> below =
          c.kernel.CountEntries(c.rep, c.prefix);
      c.prefix.pop_back();
      SplitFrame(c, below);
      c.prefix.pop_back();
      begin = e + 1;
    } else {
      if (acc > 0 && static_cast<double>(acc + w) > c.target) flush(e);
      acc += w;
    }
  }
  flush(len);
}

// The rows under every entry of frame 0. A large union is counted in
// equal-entry ranges on up to `threads` threads; each range re-binds the
// caller's ExecContext, as ForEachChunk does.
std::vector<uint64_t> CountTopFrame(const FRep& rep, const EnumKernel& k,
                                    int threads) {
  const size_t len = k.TopFrameSize(rep);
  const size_t ranges =
      threads > 1 ? std::min(len / kCountRangeEntries,
                             static_cast<size_t>(threads) *
                                 kCountRangesPerThread)
                  : 1;
  const EntryBound whole{0, EnumKernel::kAllEntries};
  if (ranges <= 1) return k.CountEntries(rep, {&whole, 1});
  std::vector<uint64_t> rows(len);
  ExecContext* const ctx = ExecContext::Current();
  ThreadPool::Shared().ParallelFor(
      ranges,
      [&](size_t r) {
        ExecContext::Scope scope(ctx);
        if (ctx != nullptr) ctx->CheckCancelled();
        const EntryBound b{static_cast<uint32_t>(r * len / ranges),
                           static_cast<uint32_t>((r + 1) * len / ranges)};
        const std::vector<uint64_t> part = k.CountEntries(rep, {&b, 1});
        std::copy(part.begin(), part.end(), rows.begin() + b.begin);
      },
      threads);
  return rows;
}

// Splits a stream whose frame-0 entries hold `top` rows into morsels of
// ~target_tuples each.
MorselPlan PlanCounted(const FRep& rep, const EnumKernel& k,
                       const std::vector<uint64_t>& top,
                       double target_tuples) {
  MorselPlan plan;
  plan.total_rows = std::accumulate(top.begin(), top.end(), uint64_t{0});
  if (!(target_tuples >= 1.0)) target_tuples = 1.0;
  PlanCtx ctx{rep, k, target_tuples, &plan.morsels, {}};
  SplitFrame(ctx, top);
  return plan;
}

}  // namespace

MorselPlan PlanMorsels(const FRep& rep, bool visible_only,
                       double target_tuples) {
  if (rep.empty()) return {};
  const EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
  MorselPlan plan;
  if (k.num_frames() == 0) {
    // Nullary stream (one empty tuple): nothing to split over.
    plan.total_rows = k.CountRows(rep, {});
    plan.morsels.push_back(Morsel{{}, plan.total_rows});
  } else {
    plan = PlanCounted(rep, k, CountTopFrame(rep, k, 1), target_tuples);
  }
  FDB_VALIDATE_MORSELS(rep, visible_only, plan);
  return plan;
}

ParallelEnumerator::ParallelEnumerator(const FRep& rep, EnumerateOptions opts,
                                       bool visible_only,
                                       const EnumKernel* kernel) {
  // Resolve against the hardware, not ThreadPool::Shared(): the shared
  // pool must not be spun up for enumerations that stay sequential.
  threads_ = ResolveThreads(opts.threads);
  if (rep.empty()) return;  // zero chunks, ForEachChunk is a no-op
  std::optional<EnumKernel> compiled;
  if (kernel == nullptr) {
    compiled.emplace(EnumKernel::Compile(rep.tree(), visible_only));
    kernel = &*compiled;
  }
  FDB_CHECK_MSG(kernel->visible_only() == visible_only,
                "the planning kernel walks the other visibility mode");
  if (threads_ > 1 && kernel->num_frames() > 0) {
    // One count walk sizes the stream; below the cutoff the planning and
    // thread handoff are not worth it and the result stays on the caller.
    const std::vector<uint64_t> top = CountTopFrame(rep, *kernel, threads_);
    const uint64_t total =
        std::accumulate(top.begin(), top.end(), uint64_t{0});
    if (static_cast<double>(total) >= opts.parallel_cutoff) {
      const double target =
          opts.target_morsel_tuples > 0
              ? opts.target_morsel_tuples
              : std::max(1.0, static_cast<double>(total) /
                                  (static_cast<double>(threads_) *
                                   kMorselsPerThread));
      plan_ = PlanCounted(rep, *kernel, top, target);
    } else {
      plan_.total_rows = total;
    }
  } else {
    plan_.total_rows = kernel->CountRows(rep, {});
  }
  if (plan_.morsels.empty()) {
    // Sequential fallback: one whole-stream chunk on the caller thread.
    plan_.morsels.push_back(Morsel{{}, plan_.total_rows});
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

// The result buffer of `first.back()` rows, value-initialised on memory that
// is already resident. A fresh buffer of tens of megabytes arrives as
// untouched pages; zero-filling it on the caller would take one page fault
// per 4 KiB, serially, before any worker starts. So: charge the query's
// budget, reserve (maps, touches nothing), advise huge pages over the
// interior, fault each morsel's slice in on the pool — the governed
// ForEachChunk fan-out of the emit itself — and only then resize. Where the
// advice is unavailable or rejected, resize faults the pages in as before.
std::vector<Value> ResidentRows(const ParallelEnumerator& pe,
                                const std::vector<size_t>& first,
                                size_t arity, QueryTrace* trace) {
  const size_t values = first.back() * arity;
  const size_t bytes = values * sizeof(Value);
  QueryTrace::Scope span(trace, "emit-buffer");
  span.SetBytes(bytes);
  ChargeAmbientMemory(bytes);
  std::vector<Value> rows;
  rows.reserve(values);
  AdviseHugePages(rows.data(), bytes);
  pe.ForEachChunk([&](size_t c) {
    PrefaultForWrite(rows.data() + first[c] * arity,
                     (first[c + 1] - first[c]) * arity * sizeof(Value));
  });
  rows.resize(values);
  return rows;
}

// One kernel run per morsel. The plan's exact row counts and their prefix
// sum give every morsel its own slice of one presized buffer, so each one
// writes straight into the result in stream order — no count pass, no
// per-chunk buffers, no concatenation copy.
Relation EmitWithKernel(const FRep& rep, const EnumKernel& kernel,
                        const ParallelEnumerator& pe, QueryTrace* trace) {
  const size_t arity = kernel.schema().size();
  Relation out(kernel.schema());
  {
    QueryTrace::Scope emit(trace, "emit");
    if (arity == 0) {
      // Fully-invisible (or nullary) stream: at most the one empty tuple.
      if (pe.plan().total_rows > 0) out.AddTuple({});
    } else {
      const size_t n = pe.num_chunks();
      std::vector<size_t> first(n + 1, 0);  // first row of each morsel
      for (size_t c = 0; c < n; ++c) {
        first[c + 1] = first[c] + pe.plan().morsels[c].rows;
      }
      std::vector<Value> rows = ResidentRows(pe, first, arity, trace);
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
    pe.emplace(rep, opts, /*visible_only=*/true, kernel);
    plan_span.SetRows(pe->num_chunks());
  }
  QueryTrace::Scope enum_span(trace, "enumerate");
  Relation out = EmitWithKernel(rep, *kernel, *pe, trace);
  enum_span.SetRows(out.size());
  return out;
}

}  // namespace fdb
