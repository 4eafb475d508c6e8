#include "core/print.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <vector>

#include "common/exec_context.h"

namespace fdb {

namespace {

// A bracket or separator of at most 8 bytes, written as one 8-byte store
// (the cursor then advances by its length).
struct Token {
  char bytes[8] = {};
  size_t len = 0;

  explicit Token(std::string_view s) : len(s.size()) {
    std::memcpy(bytes, s.data(), s.size());
  }
  char* Put(char* p) const {
    std::memcpy(p, bytes, sizeof bytes);
    return p + len;
  }
};

// Room for one run of fixed-size stores: a separator and a closing bracket
// (8 bytes each), a short prefix (8), and an int64's 20 characters.
constexpr size_t kFixedRoom = 64;

// The first buffer of a writer; it doubles from here.
constexpr size_t kMinCapacity = 256;

// The room an expression reserves per stored value: its brackets, a
// separator and a few digits.
constexpr size_t kBytesPerValue = 12;

}  // namespace

void RenderWriter::Grow(size_t n) {
  buf_.resize(std::max({len_ + n, 2 * buf_.size(), kMinCapacity}));
}

void RenderWriter::Append(std::string_view s) {
  char* p = Room(s.size());
  std::memcpy(p, s.data(), s.size());
  Commit(p + s.size());
}

void RenderWriter::Append(char c) {
  char* p = Room(1);
  *p = c;
  Commit(p + 1);
}

void RenderWriter::AppendInt(int64_t v) {
  char* p = Room(kFixedRoom);
  Commit(std::to_chars(p, p + kFixedRoom, v).ptr);
}

void RenderWriter::AppendUint(uint64_t v) {
  char* p = Room(kFixedRoom);
  Commit(std::to_chars(p, p + kFixedRoom, v).ptr);
}

void RenderWriter::AppendDouble(double d) {
  char* p = Room(kFixedRoom);
  Commit(std::to_chars(p, p + kFixedRoom, d).ptr);
}

std::string RenderWriter::Take() && {
  buf_.resize(len_);
  return std::move(buf_);
}

// One expression pass: the pre-order of the unions is the output, so a
// union shared in the DAG prints (and counts its tuples) at every
// occurrence, and adds its singletons at the first. The cursor travels
// through the recursion as a local `char*`: a store through a char
// pointer may alias any object, so a cursor kept in a member would be
// written back and reloaded around every store.
class ExpressionPrinter {
 public:
  ExpressionPrinter(RenderWriter* w, const FRep& rep, const PrintOptions& opts)
      : w_(*w),
        rep_(rep),
        opts_(opts),
        times_(opts.unicode ? " × " : " x "),
        cup_(opts.unicode ? " ∪ " : " u "),
        close_(opts.unicode ? "⟩" : ">"),
        ctx_(ExecContext::Current()),
        limit_(opts.max_chars > 0 ? w->len_ + opts.max_chars
                                  : std::numeric_limits<size_t>::max()) {}

  ExpressionCounts Run() {
    ExpressionCounts counts;
    if (rep_.empty()) {
      w_.Append(opts_.unicode ? "∅" : "{}");
      return counts;
    }
    if (rep_.roots().empty()) {
      w_.Append(opts_.unicode ? "⟨⟩" : "<>");
      counts.tuples = 1;  // the nullary tuple
      return counts;
    }
    Resolve();
    seen_.assign(rep_.NumUnions(), 0);
    const std::vector<uint32_t>& roots = rep_.roots();
    // One allocation in the common case: a buffer that doubles its way up
    // copies and zero-fills about twice the body.
    size_t room = rep_.ValueArenaSize() * kBytesPerValue + kMinCapacity;
    if (opts_.max_chars > 0) {
      room = std::min(room, opts_.max_chars + kMinCapacity);
    }
    char* p = w_.Room(room);
    end_ = w_.buf_.data() + w_.buf_.size();
    uint64_t tuples = 1;
    bool truncated = false;
    for (size_t i = 0; i < roots.size() && !truncated; ++i) {
      if (i) p = times_.Put(Room(p, kFixedRoom));
      uint64_t n = 0;
      p = PrintUnion(p, roots[i], /*parenthesise=*/roots.size() > 1, &n);
      overflow_ = overflow_ || U64MulOverflow(tuples, n, &tuples);
      truncated = Truncated(p);
    }
    w_.Commit(p);
    if (truncated) {
      w_.len_ = limit_;
      w_.Append("...");
      counts.singletons = rep_.NumSingletons();
      counts.tuples_fit = rep_.TryCountTuples(&counts.tuples);
      return counts;
    }
    counts.singletons = singletons_;
    counts.tuples_fit = !overflow_;
    counts.tuples = overflow_ ? 0 : tuples;
    return counts;
  }

 private:
  // Resolved once per f-tree node: its attributes' run in attrs_, the
  // room one entry's fixed-size stores need, the number of visible
  // attributes and the child count.
  struct NodeFormat {
    uint32_t attr_begin = 0;
    uint32_t attr_end = 0;
    size_t room = 0;
    size_t visible = 0;
    size_t num_children = 0;
  };
  // One attribute of a node: its opening bracket plus "name:" at
  // [prefix_off, prefix_off + prefix_len) of prefixes_, and whether its
  // values decode through the dictionary.
  struct AttrFormat {
    uint32_t prefix_off = 0;
    uint32_t prefix_len = 0;
    bool decode = false;
  };

  void Resolve() {
    const FTree& tree = rep_.tree();
    const std::string_view open = opts_.unicode ? "⟨" : "<";
    const Catalog* catalog = opts_.catalog;
    nodes_.resize(tree.pool_size());
    // The alive classes partition the attributes, so both fill once.
    attrs_.reserve(kMaxAttrs);
    prefixes_.reserve(kMaxAttrs * open.size() + 8);
    for (size_t n = 0; n < tree.pool_size(); ++n) {
      const FTreeNode& nd = tree.node(static_cast<int>(n));
      if (!nd.alive) continue;
      NodeFormat& nf = nodes_[n];
      nf.attr_begin = static_cast<uint32_t>(attrs_.size());
      nf.room = kFixedRoom;  // the leading '(' or separator, and slack
      nf.visible = static_cast<size_t>(nd.visible.Size());
      nf.num_children = nd.children.size();
      for (AttrId a : nd.attrs) {
        AttrFormat af;
        af.prefix_off = static_cast<uint32_t>(prefixes_.size());
        prefixes_ += open;
        if (catalog != nullptr) {
          const AttrInfo& info = catalog->attr(a);
          if (opts_.attr_names) {
            prefixes_ += info.name;
            prefixes_ += ':';
          }
          af.decode = info.is_string && opts_.dict != nullptr;
        }
        af.prefix_len = static_cast<uint32_t>(prefixes_.size() - af.prefix_off);
        nf.room += kFixedRoom + af.prefix_len;
        attrs_.push_back(af);
      }
      nf.attr_end = static_cast<uint32_t>(attrs_.size());
    }
    // Slack for the 8-byte store of the last short prefix.
    prefixes_.append(8, '\0');
  }

  // At least `n` writable bytes at the cursor `p`; returns the cursor,
  // which moves when the buffer grows.
  char* Room(char* p, size_t n) {
    if (static_cast<size_t>(end_ - p) >= n) return p;
    w_.Commit(p);
    p = w_.Room(n);
    end_ = w_.buf_.data() + w_.buf_.size();
    return p;
  }

  bool Truncated(const char* p) const {
    return static_cast<size_t>(p - w_.buf_.data()) > limit_;
  }

  // The singletons of one entry, attribute after attribute. The caller
  // made nf.room bytes of room; a decoded string makes its own.
  char* PutSingletons(char* p, const NodeFormat& nf, Value v) {
    for (uint32_t a = nf.attr_begin; a < nf.attr_end; ++a) {
      const AttrFormat& af = attrs_[a];
      if (a != nf.attr_begin) p = times_.Put(p);
      const char* prefix = prefixes_.data() + af.prefix_off;
      std::memcpy(p, prefix, af.prefix_len <= 8 ? 8 : af.prefix_len);
      p += af.prefix_len;
      if (af.decode && opts_.dict->Contains(v)) {
        const std::string& text = opts_.dict->Decode(v);
        p = Room(p, text.size() + nf.room);
        std::memcpy(p, text.data(), text.size());
        p += text.size();
      } else {
        p = std::to_chars(p, p + kFixedRoom, v).ptr;
      }
      p = close_.Put(p);
    }
    return p;
  }

  // Prints union `id` at the cursor `p`, sets *count to its tuple count
  // (meaningless once overflow_ is set) and returns the cursor.
  char* PrintUnion(char* p, uint32_t id, bool parenthesise, uint64_t* count) {
    const UnionRef un = rep_.u(id);
    const NodeFormat& nf = nodes_[static_cast<size_t>(un.node())];
    const size_t len = un.size();
    const size_t k = nf.num_children;
    if (!seen_[id]) {
      seen_[id] = 1;
      singletons_ += len * nf.visible;
      if (ctx_ != nullptr && (++first_visits_ & 255u) == 0) {
        ctx_->CheckCancelled();
      }
    }
    const Value* values = un.values();
    const uint32_t* kids = un.children();
    const bool paren = parenthesise && len > 1;
    uint64_t total = 0;
    for (size_t e = 0; e < len; ++e) {
      p = Room(p, nf.room);
      if (e) {
        p = cup_.Put(p);
      } else if (paren) {
        *p++ = '(';
      }
      p = PutSingletons(p, nf, values[e]);
      uint64_t prod = 1;
      for (size_t j = 0; j < k; ++j) {
        p = times_.Put(Room(p, kFixedRoom));
        uint64_t n = 0;
        p = PrintUnion(p, kids[e * k + j], /*parenthesise=*/true, &n);
        overflow_ = overflow_ || U64MulOverflow(prod, n, &prod);
      }
      overflow_ = overflow_ || U64AddOverflow(total, prod, &total);
      if (Truncated(p)) break;
    }
    if (paren) {
      p = Room(p, 1);
      *p++ = ')';
    }
    *count = total;
    return p;
  }

  RenderWriter& w_;
  const FRep& rep_;
  const PrintOptions& opts_;
  const Token times_;
  const Token cup_;
  const Token close_;
  ExecContext* const ctx_;  ///< probed for cancellation every 256 unions
  const size_t limit_;      ///< truncate once the writer passes this size
  char* end_ = nullptr;     ///< end of the writer's room
  std::vector<NodeFormat> nodes_;
  std::vector<AttrFormat> attrs_;
  std::string prefixes_;
  std::vector<char> seen_;  ///< per union: its singletons are counted
  size_t first_visits_ = 0;
  size_t singletons_ = 0;
  bool overflow_ = false;
};

ExpressionCounts RenderWriter::AppendExpression(const FRep& rep,
                                                const PrintOptions& opts) {
  return ExpressionPrinter(this, rep, opts).Run();
}

std::string ToExpressionString(const FRep& rep, const PrintOptions& opts) {
  RenderWriter w;
  w.AppendExpression(rep, opts);
  return std::move(w).Take();
}

}  // namespace fdb
