#include "core/enumerate.h"

#include <algorithm>
#include <utility>

namespace fdb {

std::vector<PreOrderFrame> BuildPreOrderFrames(const FTree& t,
                                               const std::vector<char>* keep) {
  std::vector<PreOrderFrame> frames;
  std::vector<int> order = t.PreOrder();
  std::vector<int> frame_of(t.pool_size(), -1);
  frames.reserve(order.size());
  for (int n : order) {
    if (keep != nullptr && !(*keep)[static_cast<size_t>(n)]) continue;
    PreOrderFrame f;
    f.node = n;
    int p = t.node(n).parent;
    if (p == -1) {
      f.parent_pos = -1;
      const auto& roots = t.roots();
      f.slot = static_cast<size_t>(
          std::find(roots.begin(), roots.end(), n) - roots.begin());
    } else {
      f.parent_pos = frame_of[static_cast<size_t>(p)];
      const auto& ch = t.node(p).children;
      f.slot = static_cast<size_t>(
          std::find(ch.begin(), ch.end(), n) - ch.begin());
    }
    frame_of[static_cast<size_t>(n)] = static_cast<int>(frames.size());
    frames.push_back(f);
  }
  return frames;
}

std::vector<char> VisibleKeepMask(const FTree& t) {
  // A subtree is kept iff it contains a visible attribute: its assignments
  // never change the visible tuple otherwise, so enumerating it would only
  // repeat it (see the contract in enumerate.h).
  std::vector<char> keep(t.pool_size(), 1);
  std::vector<int> order = t.PreOrder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const FTreeNode& nd = t.node(*it);
    bool vis = !nd.visible.Empty();
    for (int c : nd.children) vis = vis || keep[static_cast<size_t>(c)];
    keep[static_cast<size_t>(*it)] = vis ? 1 : 0;
  }
  return keep;
}

TupleEnumerator::TupleEnumerator(const FRep& rep, bool visible_only)
    : TupleEnumerator(rep, visible_only, {}) {}

TupleEnumerator::TupleEnumerator(const FRep& rep, bool visible_only,
                                 std::vector<EntryBound> bounds)
    : rep_(&rep), current_(kMaxAttrs, 0), bounds_(std::move(bounds)) {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    FDB_CHECK_MSG(bounds_[i].begin < bounds_[i].end,
                  "empty entry bound on an enumeration frame");
    FDB_CHECK_MSG(i + 1 == bounds_.size() ||
                      bounds_[i].begin + 1 == bounds_[i].end,
                  "all entry bounds but the last must pin a single entry");
  }
  if (rep.empty()) {
    done_ = true;
    return;
  }
  const FTree& t = rep.tree();
  std::vector<char> keep;
  if (visible_only) keep = VisibleKeepMask(t);
  for (const PreOrderFrame& pf :
       BuildPreOrderFrames(t, visible_only ? &keep : nullptr)) {
    Frame f;
    static_cast<PreOrderFrame&>(f) = pf;
    frames_.push_back(f);
  }
  FDB_CHECK_MSG(bounds_.size() <= frames_.size(),
                "more entry bounds than enumeration frames");
  if (frames_.empty()) {
    // The nullary relation <>, or a non-empty rep whose attributes are all
    // invisible: exactly one (empty) visible tuple.
    nullary_pending_ = true;
  }
}

bool TupleEnumerator::ResetFrame(size_t i) {
  Frame& f = frames_[i];
  if (f.parent_pos < 0) {
    f.union_id = rep_->roots()[f.slot];
  } else {
    const Frame& pf = frames_[static_cast<size_t>(f.parent_pos)];
    UnionRef pu = rep_->u(pf.union_id);
    const size_t k = rep_->tree().node(pf.node).children.size();
    f.union_id = pu.Child(pf.entry, f.slot, k);
  }
  size_t begin = 0;
  size_t limit = rep_->u(f.union_id).size();
  if (i < bounds_.size()) {
    begin = bounds_[i].begin;
    limit = std::min<size_t>(limit, bounds_[i].end);
  }
  f.entry = begin;
  f.limit = limit;
  if (begin >= limit) return false;
  WriteValues(i);
  return true;
}

void TupleEnumerator::WriteValues(size_t i) {
  const Frame& f = frames_[i];
  Value v = rep_->u(f.union_id).value(f.entry);
  for (AttrId a : rep_->tree().node(f.node).attrs) current_[a] = v;
}

bool TupleEnumerator::Next() {
  if (done_) return false;
  if (nullary_pending_) {
    nullary_pending_ = false;
    done_ = true;
    return true;  // yields the nullary tuple once
  }
  if (frames_.empty()) {
    done_ = true;
    return false;
  }
  if (!started_) {
    started_ = true;
    // The first pass doubles as bound validation: bounded frames form a
    // pinned chain whose unions never change afterwards, so a bound that
    // survives here can never miss on a mid-odometer reset.
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (!ResetFrame(i)) {
        done_ = true;  // bound misses the union: empty stream
        return false;
      }
    }
    return true;
  }
  // Odometer: advance the deepest frame with a next entry; reset the rest.
  size_t i = frames_.size();
  while (i > 0) {
    // The advance limit was folded into the frame at reset (min of union
    // size and bound end), so the unrestricted hot path pays no per-frame
    // header read or bound clamp here.
    Frame& f = frames_[i - 1];
    if (f.entry + 1 < f.limit) {
      ++f.entry;
      WriteValues(i - 1);
      for (size_t j = i; j < frames_.size(); ++j) ResetFrame(j);
      return true;
    }
    --i;
  }
  done_ = true;
  return false;
}

}  // namespace fdb
