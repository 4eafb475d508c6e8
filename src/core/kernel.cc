#include "core/kernel.h"

#include <algorithm>
#include <array>

#include "common/exec_context.h"
#include "common/fault.h"

namespace fdb {

namespace {

// Frames are one-per-alive-node and classes partition at most kMaxAttrs
// attributes, so the frame stack has a small static bound — the run-time
// state lives in a fixed stack array, no allocation per run.
constexpr size_t kMaxFrames = kMaxAttrs;

// Everything the lowered program depends on, flattened to integers: the
// frame list (order, parenthood, slots), each frame's child stride and its
// class/visibility bits (which fix the output columns). Two trees with
// equal signatures lower to byte-identical step programs.
std::vector<uint64_t> ShapeSignature(const FTree& t, bool visible_only,
                                     const std::vector<PreOrderFrame>& frames) {
  std::vector<uint64_t> sig;
  sig.reserve(2 + frames.size() * 6);
  sig.push_back(visible_only ? 1 : 0);
  sig.push_back(frames.size());
  for (const PreOrderFrame& f : frames) {
    const FTreeNode& nd = t.node(f.node);
    sig.push_back(static_cast<uint64_t>(static_cast<int64_t>(f.node)));
    sig.push_back(static_cast<uint64_t>(static_cast<int64_t>(f.parent_pos)));
    sig.push_back(f.slot);
    sig.push_back(nd.children.size());
    sig.push_back(nd.attrs.bits());
    sig.push_back(nd.visible.bits());
  }
  return sig;
}

std::vector<PreOrderFrame> FramesFor(const FTree& tree, bool visible_only) {
  std::vector<char> keep;
  const std::vector<char>* keep_ptr = nullptr;
  if (visible_only) {
    keep = VisibleKeepMask(tree);
    keep_ptr = &keep;
  }
  return BuildPreOrderFrames(tree, keep_ptr);
}

}  // namespace

EnumKernel EnumKernel::Compile(const FTree& tree, bool visible_only,
                               QueryTrace* trace) {
  QueryTrace::Scope span(trace, "kernel-compile");
  EnumKernel k;
  k.visible_only_ = visible_only;
  std::vector<PreOrderFrame> frames = FramesFor(tree, visible_only);
  FDB_CHECK_MSG(frames.size() <= kMaxFrames,
                "f-tree has more frames than attributes");
  const AttrSet schema_set =
      visible_only ? tree.VisibleAttrs() : tree.AllAttrs();
  k.schema_ = schema_set.ToVector();
  std::array<uint32_t, kMaxAttrs> col{};
  for (size_t c = 0; c < k.schema_.size(); ++c) {
    col[k.schema_[c]] = static_cast<uint32_t>(c);
  }
  k.steps_.reserve(frames.size());
  for (const PreOrderFrame& f : frames) {
    Step s;
    s.node = f.node;
    s.parent = f.parent_pos;
    s.slot = static_cast<uint32_t>(f.slot);
    s.nslots =
        f.parent_pos < 0
            ? 0
            : static_cast<uint32_t>(
                  tree.node(frames[static_cast<size_t>(f.parent_pos)].node)
                      .children.size());
    s.out_begin = static_cast<uint32_t>(k.out_cols_.size());
    for (AttrId a : tree.node(f.node).attrs) {
      if (schema_set.Contains(a)) k.out_cols_.push_back(col[a]);
    }
    s.out_end = static_cast<uint32_t>(k.out_cols_.size());
    if (s.out_begin == s.out_end) k.distinct_ = false;  // projected middle
    k.steps_.push_back(s);
  }
  k.order_.assign(k.out_cols_.begin(), k.out_cols_.end());
  k.signature_ = ShapeSignature(tree, visible_only, frames);
  return k;
}

bool EnumKernel::Matches(const FTree& tree) const {
  std::vector<PreOrderFrame> frames = FramesFor(tree, visible_only_);
  if (2 + frames.size() * 6 != signature_.size()) return false;
  return ShapeSignature(tree, visible_only_, frames) == signature_;
}

template <bool kEmit, typename Grow>
uint64_t EnumKernel::Run(const FRep& rep, std::span<const EntryBound> bounds,
                         [[maybe_unused]] Grow&& grow,
                         std::vector<uint64_t>* per_entry) const {
  // The EntryBound contract (core/enumerate.h): a pinned chain plus one
  // trailing ranged frame.
  for (size_t i = 0; i < bounds.size(); ++i) {
    FDB_CHECK_MSG(bounds[i].begin < bounds[i].end,
                  "empty entry bound on an enumeration frame");
    FDB_CHECK_MSG(i + 1 == bounds.size() ||
                      bounds[i].begin + 1 == bounds[i].end,
                  "all entry bounds but the last must pin a single entry");
  }
  FDB_CHECK_MSG(bounds.size() <= steps_.size(),
                "more entry bounds than enumeration frames");
  FDB_FAULT_POINT("kernel_run");
  if (rep.empty()) return 0;
  const size_t n = steps_.size();
  if (n == 0) return 1;  // nullary stream: one empty row, nothing appended

  // Run-time frame state: raw arena windows, resolved once per reset. The
  // pointers stay valid for the whole run — enumeration never grows the
  // arenas (the representation is frozen).
  struct RunFrame {
    const Value* vals;
    const uint32_t* kids;
    uint32_t entry;
    uint32_t limit;  ///< min(union size, bound end); entry < limit
  };
  std::array<RunFrame, kMaxFrames> run{};
  std::array<Value, kMaxAttrs> row{};  // dense, indexed by output column

  auto reset = [&](size_t i) -> bool {
    const Step& s = steps_[i];
    const uint32_t uid =
        s.parent < 0
            ? rep.roots()[s.slot]
            : run[static_cast<size_t>(s.parent)]
                  .kids[run[static_cast<size_t>(s.parent)].entry * s.nslots +
                        s.slot];
    const UnionRef u = rep.u(uid);
    RunFrame& f = run[i];
    f.vals = u.values();
    f.kids = u.children();
    uint32_t begin = 0;
    uint32_t limit = static_cast<uint32_t>(u.size());
    if (i < bounds.size()) {
      begin = bounds[i].begin;
      limit = std::min(limit, bounds[i].end);
    }
    if (begin >= limit) return false;
    f.entry = begin;
    f.limit = limit;
    const Value v = f.vals[begin];
    for (uint32_t c = s.out_begin; c < s.out_end; ++c) row[out_cols_[c]] = v;
    return true;
  };

  // First pass doubles as bound validation: bounded frames form a pinned
  // chain whose unions never change, so a bound that survives here cannot
  // miss on a later reset (and unions of a non-empty representation are
  // never empty).
  for (size_t i = 0; i < n; ++i) {
    if (!reset(i)) return 0;  // a bound missed its union: empty stream
  }

  // CountEntries: the frames above the split frame are pinned, so the walk
  // ends when the split frame runs out and every innermost run belongs to
  // its current entry. An innermost split frame is the one run, one row
  // per entry.
  uint64_t* tally = nullptr;
  size_t split = 0;
  uint32_t base = 0;
  if (per_entry != nullptr) {
    split = bounds.size() - 1;
    base = run[split].entry;
    per_entry->assign(run[split].limit - base, split + 1 == n ? 1 : 0);
    if (split + 1 == n) return per_entry->size();
    tally = per_entry->data();
  }

  // Governance probe, hoisted and strided: one thread-local load per Run,
  // then a relaxed atomic load every 64th emitted run — cheap enough to
  // stay within noise on the warm path (BM_GovernanceOverhead) while
  // bounding time-to-cancel even for a single whole-stream morsel.
  ExecContext* const ctx = ExecContext::Current();
  uint32_t probe_tick = 0;

  uint64_t rows = 0;
  const size_t ncols = schema_.size();
  // Columns NOT owned by the innermost frame: constant across a run, so
  // the emit loop fills them with a strided splat and never rewrites them
  // in the per-entry pass.
  std::array<uint32_t, kMaxAttrs> steady{};
  size_t nsteady = 0;
  if constexpr (kEmit) {
    const Step& last = steps_[n - 1];
    std::array<bool, kMaxAttrs> inner{};
    for (uint32_t c = last.out_begin; c < last.out_end; ++c) {
      inner[out_cols_[c]] = true;
    }
    for (size_t c = 0; c < ncols; ++c) {
      if (!inner[c]) steady[nsteady++] = static_cast<uint32_t>(c);
    }
  }
  for (;;) {
    if (ctx != nullptr && (++probe_tick & 63u) == 0) ctx->CheckCancelled();
    RunFrame& lf = run[n - 1];
    if constexpr (kEmit) {
      // Innermost frame: emit the whole run at once. One grow per run
      // (not per row) keeps the destination's capacity check and end
      // update out of the hot loop.
      const Step& last = steps_[n - 1];
      const uint32_t* lcols = out_cols_.data() + last.out_begin;
      const uint32_t lcount = last.out_end - last.out_begin;
      const size_t run_len = lf.limit - lf.entry;
      Value* dst = grow(run_len * ncols);
      const Value* vals = lf.vals + lf.entry;
      // Column-strided emission: every column is either constant for the
      // whole run (outer frames) or a straight copy of the innermost
      // value window — both are simple strided fills with no per-row
      // row-buffer round trip.
      for (size_t s = 0; s < nsteady; ++s) {
        const uint32_t c = steady[s];
        const Value fixed = row[c];
        Value* p = dst + c;
        for (size_t i = 0; i < run_len; ++i, p += ncols) *p = fixed;
      }
      for (uint32_t c = 0; c < lcount; ++c) {
        Value* p = dst + lcols[c];
        for (size_t i = 0; i < run_len; ++i, p += ncols) *p = vals[i];
      }
    }
    rows += lf.limit - lf.entry;
    if constexpr (!kEmit) {
      if (tally != nullptr) {
        tally[run[split].entry - base] += lf.limit - lf.entry;
      }
    }
    // Odometer over the outer frames: advance the deepest one with a next
    // entry, reset everything below it.
    size_t i = n - 1;
    for (;;) {
      if (i == 0) return rows;
      RunFrame& f = run[i - 1];
      if (f.entry + 1 < f.limit) {
        ++f.entry;
        const Step& s = steps_[i - 1];
        const Value v = f.vals[f.entry];
        for (uint32_t c = s.out_begin; c < s.out_end; ++c) {
          row[out_cols_[c]] = v;
        }
        for (size_t j = i; j < n; ++j) reset(j);
        break;
      }
      --i;
    }
  }
}

uint64_t EnumKernel::Emit(const FRep& rep, std::span<const EntryBound> bounds,
                          std::vector<Value>* out) const {
  return Run<true>(rep, bounds, [out](size_t n) {
    const size_t pos = out->size();
    out->resize(pos + n);
    return out->data() + pos;
  });
}

uint64_t EnumKernel::Emit(const FRep& rep, std::span<const EntryBound> bounds,
                          std::span<Value> out) const {
  Value* next = out.data();
  size_t left = out.size();
  return Run<true>(rep, bounds, [&next, &left](size_t n) {
    FDB_CHECK_MSG(n <= left, "kernel emit window is smaller than the stream");
    Value* dst = next;
    next += n;
    left -= n;
    return dst;
  });
}

uint64_t EnumKernel::CountRows(const FRep& rep,
                               std::span<const EntryBound> bounds) const {
  return Run<false>(rep, bounds,
                    [](size_t) { return static_cast<Value*>(nullptr); });
}

std::vector<uint64_t> EnumKernel::CountEntries(
    const FRep& rep, std::span<const EntryBound> bounds) const {
  FDB_CHECK_MSG(!bounds.empty(), "CountEntries needs a split frame to count");
  std::vector<uint64_t> out;
  Run<false>(
      rep, bounds, [](size_t) { return static_cast<Value*>(nullptr); }, &out);
  return out;
}

uint32_t EnumKernel::TopFrameSize(const FRep& rep) const {
  if (rep.empty() || steps_.empty()) return 0;
  return static_cast<uint32_t>(rep.u(rep.roots()[steps_[0].slot]).size());
}

}  // namespace fdb
