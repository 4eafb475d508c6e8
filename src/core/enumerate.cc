#include "core/enumerate.h"

#include <algorithm>

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
    : rep_(&rep), current_(kMaxAttrs, 0) {
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
  if (frames_.empty()) {
    // The nullary relation <>, or a non-empty rep whose attributes are all
    // invisible: exactly one (empty) visible tuple.
    nullary_pending_ = true;
  }
}

void TupleEnumerator::ResetFrame(size_t i) {
  Frame& f = frames_[i];
  if (f.parent_pos < 0) {
    f.union_id = rep_->roots()[f.slot];
  } else {
    const Frame& pf = frames_[static_cast<size_t>(f.parent_pos)];
    UnionRef pu = rep_->u(pf.union_id);
    const size_t k = rep_->tree().node(pf.node).children.size();
    f.union_id = pu.Child(pf.entry, f.slot, k);
  }
  f.entry = 0;
  f.limit = rep_->u(f.union_id).size();
  WriteValues(i);
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
    // Unions of a non-empty representation are never empty, so the first
    // entry of every frame is the first tuple.
    started_ = true;
    for (size_t i = 0; i < frames_.size(); ++i) ResetFrame(i);
    return true;
  }
  // Odometer: advance the deepest frame with a next entry; reset the rest.
  size_t i = frames_.size();
  while (i > 0) {
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
