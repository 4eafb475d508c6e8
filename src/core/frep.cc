#include "core/frep.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace fdb {

void FRep::MarkEmpty() {
  FDB_CHECK_MSG(scratch_top_ == 0, "MarkEmpty with open builders");
  empty_ = true;
  // Swap-with-empty gives up capacity: an intermediate that became empty
  // mid-f-plan must not keep its peak arena allocation alive. Its blocks
  // of 1 MiB or more are parked in the bounded arena pool
  // (common/arena_pool.h), the rest return to the heap.
  std::vector<uint32_t>().swap(roots_);
  Arena<Value>().swap(values_);
  Arena<uint32_t>().swap(children_);
  Arena<UnionHeader>().swap(headers_);
  std::vector<std::unique_ptr<Scratch>>().swap(scratch_);
}

void FRep::AppendUnions(const std::vector<const FRep*>& segs,
                        int threads) {
  // Where each segment's windows start.
  struct Slot {
    uint32_t shift;
    size_t val_at, child_at;
  };
  std::vector<Slot> slots;
  slots.reserve(segs.size());
  size_t nh = headers_.size(), nv = values_.size(), nc = children_.size();
  for (const FRep* seg : segs) {
    FDB_CHECK_MSG(seg->scratch_top_ == 0,
                  "cannot append an FRep with open builders");
    slots.push_back({static_cast<uint32_t>(nh), nv, nc});
    nh += seg->headers_.size();
    nv += seg->values_.size();
    nc += seg->children_.size();
  }
  // Room for the entries open builders have staged, which commit next.
  size_t staged_v = 0, staged_c = 0;
  for (size_t i = 0; i < scratch_top_; ++i) {
    staged_v += scratch_[i]->vals.size();
    staged_c += scratch_[i]->kids.size();
  }
  asan::UnpoisonTail(values_);
  asan::UnpoisonTail(children_);
  asan::UnpoisonTail(headers_);
  values_.reserve(nv + staged_v);
  children_.reserve(nc + staged_c);
  values_.resize(nv);
  children_.resize(nc);
  headers_.resize(nh);
  asan::PoisonTail(values_);
  asan::PoisonTail(children_);
  asan::PoisonTail(headers_);
  // The windows are disjoint, so the segments fill them independently.
  auto fill = [&](size_t i) {
    const FRep& seg = *segs[i];
    const Slot at = slots[i];
    UnionHeader* h = headers_.data() + at.shift;
    for (UnionHeader x : seg.headers_) {
      if (x.len != 0 || x.num_children != 0) {
        x.val_off += at.val_at;
        x.child_off += at.child_at;
      }
      *h++ = x;
    }
    std::copy(seg.values_.begin(), seg.values_.end(),
              values_.data() + at.val_at);
    std::transform(seg.children_.begin(), seg.children_.end(),
                   children_.data() + at.child_at,
                   [shift = at.shift](uint32_t c) { return c + shift; });
  };
  if (threads > 1 && segs.size() > 1) {
    ThreadPool::Shared().ParallelFor(segs.size(), fill, threads);
  } else {
    for (size_t i = 0; i < segs.size(); ++i) fill(i);
  }
}

std::vector<uint32_t> FRep::ReachableTopDown(
    const std::vector<char>* keep) const {
  std::vector<uint32_t> order;
  if (empty_) return order;
  const auto kept = [keep](int n) {
    return keep == nullptr || (*keep)[static_cast<size_t>(n)];
  };
  std::vector<char> reached(headers_.size(), 0);
  const auto reach = [&](uint32_t id) {
    if (reached[id]) return;
    reached[id] = 1;
    order.push_back(id);
  };
  order.reserve(headers_.size());
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (kept(tree_.roots()[i])) reach(roots_[i]);
  }
  // Breadth-first: a child union is bound to a child node, one level
  // deeper, so `order` lists the unions level by level.
  ExecContext* const ctx = ExecContext::Current();
  for (size_t i = 0; i < order.size(); ++i) {
    if (ctx != nullptr && (i & 255u) == 255u) ctx->CheckCancelled();
    const UnionHeader h = headers_[order[i]];
    const std::vector<int>& ch = tree_.node(h.node).children;
    const uint32_t* kids = children_.data() + h.child_off;
    for (size_t e = 0; e < h.len; ++e, kids += ch.size()) {
      for (size_t j = 0; j < ch.size(); ++j) {
        if (kept(ch[j])) reach(kids[j]);
      }
    }
  }
  return order;
}

size_t FRep::NumSingletons() const {
  size_t total = 0;
  SweepBottomUp([&](int node, uint32_t id) {
    total += header(id).len *
             static_cast<size_t>(tree_.node(node).visible.Size());
  });
  return total;
}

size_t FRep::NumValues() const {
  size_t total = 0;
  SweepBottomUp([&](int /*node*/, uint32_t id) { total += header(id).len; });
  return total;
}

size_t FRep::MemoryBytes() const {
  size_t total = values_.capacity() * sizeof(Value) +
                 children_.capacity() * sizeof(uint32_t) +
                 headers_.capacity() * sizeof(UnionHeader) +
                 roots_.capacity() * sizeof(uint32_t) +
                 scratch_.capacity() * sizeof(scratch_[0]);
  for (const auto& s : scratch_) {
    total += sizeof(Scratch) + s->vals.capacity() * sizeof(Value) +
             s->kids.capacity() * sizeof(uint32_t);
  }
  return total;
}

// The CountTuples DP in uint64_t.
bool FRep::TryCountTuples(uint64_t* out) const {
  if (empty_) {
    *out = 0;
    return true;
  }
  std::vector<uint64_t> memo(NumUnions(), 0);
  bool overflow = false;
  SweepBottomUp([&](int node, uint32_t id) {
    if (overflow) return;
    const UnionRef un = u(id);
    const size_t k = tree_.node(node).children.size();
    uint64_t total = 0;
    for (size_t e = 0; e < un.size() && !overflow; ++e) {
      uint64_t prod = 1;
      for (size_t j = 0; j < k && !overflow; ++j) {
        overflow = U64MulOverflow(prod, memo[un.Child(e, j, k)], &prod);
      }
      overflow = overflow || U64AddOverflow(total, prod, &total);
    }
    memo[id] = total;
  });
  if (overflow) return false;
  uint64_t result = 1;
  for (uint32_t r : roots_) {
    if (U64MulOverflow(result, memo[r], &result)) return false;
  }
  *out = result;
  return true;
}

double FRep::CountTuples(bool* exact) const {
  if (exact != nullptr) *exact = true;
  if (empty_) return 0.0;
  if (roots_.empty()) return 1.0;  // the nullary tuple <>
  uint64_t exact_count = 0;
  if (TryCountTuples(&exact_count)) {
    double d = static_cast<double>(exact_count);
    if (exact != nullptr) {
      // Equal to the true count iff the uint64 -> double round trip is
      // lossless (always below 2^53, and for round values above).
      *exact = d < 18446744073709551616.0 &&
               static_cast<uint64_t>(d) == exact_count;
    }
    return d;
  }
  // Saturated uint64: the (approximate) double counts, folded over roots.
  if (exact != nullptr) *exact = false;
  const std::vector<double> counts = SubtreeTupleCounts();
  double approx = 1.0;
  for (uint32_t r : roots_) approx *= counts[r];
  return approx;
}

std::vector<double> FRep::SubtreeTupleCounts(
    const std::vector<char>* keep) const {
  std::vector<double> memo(NumUnions(), 0.0);
  // Skipped child slots multiply by 1; the sweep never reaches them.
  SweepBottomUp(
      [&](int node, uint32_t id) {
        const UnionRef un = u(id);
        const std::vector<int>& ch = tree_.node(node).children;
        const size_t k = ch.size();
        double total = 0.0;
        for (size_t e = 0; e < un.size(); ++e) {
          double prod = 1.0;
          for (size_t j = 0; j < k; ++j) {
            if (keep != nullptr && !(*keep)[static_cast<size_t>(ch[j])]) {
              continue;
            }
            prod *= memo[un.Child(e, j, k)];
          }
          total += prod;
        }
        memo[id] = total;
      },
      keep);
  return memo;
}

uint64_t FRep::CountTuplesExact() const {
  if (empty_) return 0;
  if (roots_.empty()) return 1;  // the nullary tuple <>
  uint64_t count = 0;
  FDB_CHECK_MSG(TryCountTuples(&count),
                "tuple count overflows uint64 — the representation encodes "
                "more than 2^64 tuples");
  return count;
}

void FRep::Validate() const {
  tree_.Validate();
  FDB_CHECK_MSG(scratch_top_ == 0, "Validate with open builders");
  if (empty_) {
    FDB_CHECK_MSG(roots_.empty() && headers_.empty(),
                  "empty representation must have no unions");
    return;
  }
  FDB_CHECK_MSG(roots_.size() == tree_.roots().size(),
                "root unions must align with tree roots");
  // Walk every reachable union once.
  std::vector<char> seen(headers_.size(), 0);
  std::vector<uint32_t> stack;
  for (size_t i = 0; i < roots_.size(); ++i) {
    FDB_CHECK(roots_[i] < headers_.size());
    FDB_CHECK_MSG(headers_[roots_[i]].node == tree_.roots()[i],
                  "root union bound to wrong tree node");
    stack.push_back(roots_[i]);
  }
  while (!stack.empty()) {
    uint32_t id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;  // sharing is allowed (push-up hoists copies)
    seen[id] = 1;
    UnionRef un = u(id);
    const FTreeNode& nd = tree_.node(un.node());
    FDB_CHECK_MSG(nd.alive, "union bound to dead tree node");
    FDB_CHECK_MSG(!un.empty(), "empty union inside non-empty rep");
    FDB_CHECK_MSG(un.num_children() == un.size() * nd.children.size(),
                  "child slot count mismatch");
    for (size_t e = 1; e < un.size(); ++e) {
      FDB_CHECK_MSG(un.value(e - 1) < un.value(e),
                    "union values not strictly increasing");
    }
    const size_t k = nd.children.size();
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < k; ++j) {
        uint32_t c = un.Child(e, j, k);
        FDB_CHECK(c < headers_.size());
        FDB_CHECK_MSG(headers_[c].node == nd.children[j],
                      "child union bound to wrong tree node");
        stack.push_back(c);
      }
    }
  }
}

}  // namespace fdb
