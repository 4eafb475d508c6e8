// Rendering f-representations in the paper's notation,
// e.g.  <Istanbul> x (<Adnan> u <Yasemin>)  (Example 1).
//
// One writer renders every result body: RenderWriter appends text, exact
// numbers and factorised expressions to one std::string. It writes the
// fixed tokens (brackets, " x ", " u ", the digits of std::to_chars) as
// fixed-size stores into a buffer it grows by doubling, resolves per f-tree
// node (not per value) which attributes carry a name prefix and which
// decode through the dictionary, and truncates by a byte count. The
// expression pass also folds the relation's counts (ExpressionCounts), so a
// caller that prints them needs no further pass over the union DAG.
#ifndef FDB_CORE_PRINT_H_
#define FDB_CORE_PRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/dictionary.h"
#include "core/frep.h"
#include "storage/catalog.h"

namespace fdb {

/// Rendering options.
struct PrintOptions {
  bool unicode = true;        ///< ⟨v⟩ ∪ × vs. <v> u x
  bool attr_names = false;    ///< ⟨item:Milk⟩ instead of ⟨Milk⟩
  const Catalog* catalog = nullptr;      ///< for attribute names / types
  const Dictionary* dict = nullptr;      ///< for decoding string values
  size_t max_chars = 0;       ///< truncate output (0 = unlimited)
};

/// The counts of a rendered representation, folded into the print pass: a
/// union's singletons count on its first visit (a DAG may share a union),
/// and every union returns its checked tuple count. When the output was
/// truncated the pass saw only part of the DAG, and the writer takes the
/// counts from FRep::NumSingletons / FRep::TryCountTuples instead.
struct ExpressionCounts {
  size_t singletons = 0;  ///< FRep::NumSingletons()
  uint64_t tuples = 0;    ///< exact tuple count; valid iff tuples_fit
  bool tuples_fit = true; ///< false past 2^64: use FRep::CountTuples()
};

/// Appends text, numbers and f-representations to one buffer.
class RenderWriter {
 public:
  void Append(std::string_view s);
  void Append(char c);
  /// Exact decimal (std::to_chars).
  void AppendInt(int64_t v);
  void AppendUint(uint64_t v);
  /// The shortest decimal that reads back as `d` (std::to_chars).
  void AppendDouble(double d);

  /// Renders `rep` as a factorised algebraic expression. With
  /// `opts.max_chars` > 0 the expression is cut after that many bytes and
  /// "..." is appended; the empty and nullary relations render whole.
  ExpressionCounts AppendExpression(const FRep& rep, const PrintOptions& opts);

  /// The rendered bytes; the writer is spent.
  std::string Take() &&;

 private:
  friend class ExpressionPrinter;
  /// At least `n` writable bytes at the cursor; returns the cursor.
  char* Room(size_t n) {
    if (buf_.size() - len_ < n) Grow(n);
    return buf_.data() + len_;
  }
  void Commit(const char* cursor) {
    len_ = static_cast<size_t>(cursor - buf_.data());
  }
  void Grow(size_t n);

  std::string buf_;  ///< [0, len_) written; the rest is room
  size_t len_ = 0;
};

/// Renders the f-representation as a factorised algebraic expression.
std::string ToExpressionString(const FRep& rep, const PrintOptions& opts = {});

}  // namespace fdb

#endif  // FDB_CORE_PRINT_H_
