// RenderWriter (core/print.h) renders every result body. This suite keeps
// the stream printer it replaced as the reference and checks, on random
// and hand-built representations, that the writer's expression equals the
// reference byte for byte under every option, and that the counts folded
// into its pass equal FRep::NumSingletons() and FRep::CountTuplesExact().
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_util/workload.h"
#include "common/dictionary.h"
#include "common/rng.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/print.h"
#include "lp/edge_cover.h"
#include "opt/ftree_search.h"
#include "storage/generator.h"

namespace fdb {
namespace {

// The reference: the ostringstream printer RenderWriter replaced, one
// `os << v` and one catalog lookup per value and one tellp() per entry.
class ReferencePrinter {
 public:
  ReferencePrinter(const FRep& rep, const PrintOptions& opts)
      : rep_(rep), opts_(opts) {}

  std::string Run() {
    if (rep_.empty()) return opts_.unicode ? "∅" : "{}";
    if (rep_.roots().empty()) return opts_.unicode ? "⟨⟩" : "<>";
    for (size_t i = 0; i < rep_.roots().size(); ++i) {
      if (i) os_ << Times();
      PrintUnion(rep_.roots()[i], /*parenthesise=*/rep_.roots().size() > 1);
      if (Truncated()) break;
    }
    std::string s = os_.str();
    if (opts_.max_chars > 0 && s.size() > opts_.max_chars) {
      s.resize(opts_.max_chars);
      s += "...";
    }
    return s;
  }

 private:
  const char* Times() const { return opts_.unicode ? " × " : " x "; }
  const char* Cup() const { return opts_.unicode ? " ∪ " : " u "; }

  bool Truncated() {
    return opts_.max_chars > 0 &&
           os_.tellp() > static_cast<std::streamoff>(opts_.max_chars);
  }

  void PrintSingletons(const FTreeNode& nd, Value v) {
    bool first = true;
    for (AttrId a : nd.attrs) {
      if (!first) os_ << Times();
      first = false;
      os_ << (opts_.unicode ? "⟨" : "<");
      bool is_string = false;
      if (opts_.catalog != nullptr) {
        if (opts_.attr_names) os_ << opts_.catalog->attr(a).name << ':';
        is_string = opts_.catalog->attr(a).is_string;
      }
      if (is_string && opts_.dict != nullptr && opts_.dict->Contains(v)) {
        os_ << opts_.dict->Decode(v);
      } else {
        os_ << v;
      }
      os_ << (opts_.unicode ? "⟩" : ">");
    }
  }

  void PrintUnion(uint32_t id, bool parenthesise) {
    UnionRef un = rep_.u(id);
    const FTreeNode& nd = rep_.tree().node(un.node());
    const size_t k = nd.children.size();
    bool paren = parenthesise && un.size() > 1;
    if (paren) os_ << '(';
    for (size_t e = 0; e < un.size(); ++e) {
      if (e) os_ << Cup();
      PrintSingletons(nd, un.value(e));
      for (size_t j = 0; j < k; ++j) {
        os_ << Times();
        PrintUnion(un.Child(e, j, k), /*parenthesise=*/true);
      }
      if (Truncated()) break;
    }
    if (paren) os_ << ')';
  }

  const FRep& rep_;
  const PrintOptions& opts_;
  std::ostringstream os_;
};

std::string Reference(const FRep& rep, const PrintOptions& opts) {
  return ReferencePrinter(rep, opts).Run();
}

// The writer's expression after `lead` (so a non-empty buffer is covered)
// must equal the reference, and its counts the DAG passes'.
void ExpectMatches(const FRep& rep, const PrintOptions& opts,
                   const std::string& what) {
  SCOPED_TRACE(what + (opts.unicode ? " unicode" : " ascii") +
               (opts.attr_names ? " names" : "") +
               " max_chars=" + std::to_string(opts.max_chars));
  const std::string lead = "lead\n";
  RenderWriter w;
  w.Append(lead);
  const ExpressionCounts counts = w.AppendExpression(rep, opts);
  const std::string out = std::move(w).Take();
  const std::string ref = Reference(rep, opts);
  ASSERT_EQ(out.substr(0, lead.size()), lead);
  EXPECT_EQ(out.substr(lead.size()), ref);
  EXPECT_EQ(ToExpressionString(rep, opts), ref);
  EXPECT_EQ(counts.singletons, rep.NumSingletons());
  uint64_t tuples = 0;
  const bool fit = rep.TryCountTuples(&tuples);
  EXPECT_EQ(counts.tuples_fit, fit);
  if (fit) {
    EXPECT_EQ(counts.tuples, tuples);
    EXPECT_EQ(counts.tuples, rep.empty() ? 0 : rep.CountTuplesExact());
  }
}

// Every option combination, with cut points before, inside and past the
// whole expression.
void ExpectMatchesAllOptions(const FRep& rep, const Catalog* catalog,
                             const Dictionary* dict, const std::string& what) {
  PrintOptions full;
  full.unicode = false;
  const size_t len = Reference(rep, full).size();
  for (bool unicode : {false, true}) {
    for (bool names : {false, true}) {
      PrintOptions opts;
      opts.unicode = unicode;
      opts.attr_names = names;
      opts.catalog = catalog;
      opts.dict = dict;
      for (size_t cut : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, len / 3,
                         len - 1, len, len + 1, 4 * len}) {
        opts.max_chars = cut;
        ExpectMatches(rep, opts, what);
      }
    }
  }
}

// A copy of `catalog` with the attributes whose id is in `strings` marked
// as dictionary codes.
Catalog WithStringAttrs(const Catalog& catalog, AttrSet strings) {
  Catalog out;
  for (AttrId a = 0; a < catalog.num_attrs(); ++a) {
    out.AddAttribute(catalog.attr(a).name, strings.Contains(a));
  }
  return out;
}

// Random equi-join queries over their optimal f-trees, then selected on a
// constant and projected on a random keep set. Values are drawn from
// [1..M] with M up to 8; the dictionary holds codes 0..4 only, so string
// attributes mix decoded values with codes it does not contain.
TEST(RenderOracle, RandomWorkloads) {
  Dictionary dict;
  for (const char* s : {"zero", "one", "two", "three", "four"}) {
    dict.Intern(s);
  }
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919);
    WorkloadSpec spec;
    spec.num_rels = static_cast<int>(rng.Uniform(2, 4));
    spec.num_attrs = static_cast<int>(rng.Uniform(spec.num_rels + 1, 8));
    spec.tuples_per_rel = static_cast<size_t>(rng.Uniform(5, 30));
    spec.domain = rng.Uniform(3, 8);
    spec.num_equalities = static_cast<int>(rng.Uniform(1, spec.num_rels));
    spec.seed = seed;
    GeneratedWorkload w = GenerateWorkload(spec);
    std::vector<const Relation*> rels;
    for (const Relation& r : w.relations) rels.push_back(&r);
    const QueryInfo info = AnalyzeQuery(w.catalog, w.query);
    EdgeCoverSolver solver;
    const FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);

    AttrSet strings;
    AttrSet keep;
    for (AttrId a = 0; a < w.catalog.num_attrs(); ++a) {
      if (rng.Uniform(0, 2) == 0) strings.Add(a);
      if (rng.Uniform(0, 1) == 0) keep.Add(a);
    }
    const Catalog catalog = WithStringAttrs(w.catalog, strings);
    const std::string tag = "seed " + std::to_string(seed);
    ExpectMatchesAllOptions(rep, &catalog, &dict, tag + " ground");
    ExpectMatches(rep, PrintOptions{}, tag + " no catalog");

    const AttrId sel = static_cast<AttrId>(
        rng.Uniform(0, static_cast<int64_t>(w.catalog.num_attrs()) - 1));
    const CmpOp op = static_cast<CmpOp>(rng.Uniform(0, 5));
    const FRep selected =
        SelectConst(rep, sel, op, rng.Uniform(1, spec.domain));
    ExpectMatchesAllOptions(selected, &catalog, &dict, tag + " selected");
    ExpectMatchesAllOptions(Project(selected, keep), &catalog, &dict,
                            tag + " selected+projected");
    ExpectMatchesAllOptions(Project(rep, keep), &catalog, &dict,
                            tag + " projected");
  }
}

TEST(RenderOracle, EmptyAndNullary) {
  FTree t;
  const int a = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}),
                          RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(a);
  const FRep empty{t};
  ASSERT_TRUE(empty.empty());
  ExpectMatchesAllOptions(empty, nullptr, nullptr, "empty");
  FRep nullary{FTree{}};
  nullary.MarkNonEmpty();
  ExpectMatchesAllOptions(nullary, nullptr, nullptr, "nullary");
  RenderWriter w;
  const ExpressionCounts e = w.AppendExpression(empty, PrintOptions{});
  EXPECT_EQ(e.singletons, 0u);
  EXPECT_EQ(e.tuples, 0u);
  const ExpressionCounts n = w.AppendExpression(nullary, PrintOptions{});
  EXPECT_EQ(n.singletons, 0u);
  EXPECT_EQ(n.tuples, 1u);
  EXPECT_EQ(std::move(w).Take(), "∅⟨⟩");
}

// Strings, names and codes the dictionary does not hold, on one relation
// whose second attribute is a string column.
TEST(RenderOracle, DictionaryCodesAndNames) {
  Catalog catalog;
  const AttrId id = catalog.AddAttribute("id");
  const AttrId item = catalog.AddAttribute("a_rather_long_item_name", true);
  Dictionary dict;
  const Value milk = dict.Intern("Milk");
  const Value cheese = dict.Intern("Cheese with a name past eight bytes");
  Relation r({id, item});
  r.AddTuple({1, milk});
  r.AddTuple({1, cheese});
  r.AddTuple({2, 999});  // not in the dictionary: renders as a number
  r.AddTuple({3, -7});
  r.AddTuple({-4, milk});
  const FRep rep = GroundRelation(r, 0);
  ExpectMatchesAllOptions(rep, &catalog, &dict, "dictionary");
  PrintOptions opts;
  opts.unicode = false;
  opts.attr_names = true;
  opts.catalog = &catalog;
  opts.dict = &dict;
  EXPECT_EQ(ToExpressionString(rep, opts),
            "<id:-4> x <a_rather_long_item_name:Milk> u "
            "<id:1> x (<a_rather_long_item_name:Milk> u "
            "<a_rather_long_item_name:Cheese with a name past eight bytes>) u "
            "<id:2> x <a_rather_long_item_name:999> u "
            "<id:3> x <a_rather_long_item_name:-7>");
}

// A -> B -> C where one C-union sits under three B-entries: it prints at
// every occurrence and counts its singletons once. A second root D holds
// an invisible attribute, and an unreferenced union must not count.
TEST(RenderOracle, SharedUnion) {
  FTree t;
  const int a = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}),
                          RelSet::Of({0}), RelSet::Of({0}));
  const int b = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}),
                          RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  const int c = t.NewNode(AttrSet::Of({2, 3}), AttrSet::Of({2}),
                          RelSet::Of({1}), RelSet::Of({1}));
  const int d = t.NewNode(AttrSet::Of({4}), AttrSet{}, RelSet::Of({2}),
                          RelSet::Of({2}));
  t.AttachRoot(a);
  t.AttachChild(a, b);
  t.AttachChild(b, c);
  t.AttachRoot(d);
  FRep rep{t};
  auto leaf = [&](int node, std::vector<Value> vals) {
    UnionBuilder u = rep.StartUnion(node);
    u.AddValues(vals.data(), vals.size());
    return u.Finish();
  };
  const uint32_t shared = leaf(c, {5, 6});
  UnionBuilder b1 = rep.StartUnion(b);
  b1.AddValue(10);
  b1.AddChild(shared);
  const uint32_t ub1 = b1.Finish();
  UnionBuilder b2 = rep.StartUnion(b);
  b2.AddValue(20);
  b2.AddChild(shared);
  b2.AddValue(30);
  b2.AddChild(shared);
  const uint32_t ub2 = b2.Finish();
  leaf(c, {99});  // committed, never referenced
  UnionBuilder ua = rep.StartUnion(a);
  ua.AddValue(1);
  ua.AddChild(ub1);
  ua.AddValue(2);
  ua.AddChild(ub2);
  rep.roots().push_back(ua.Finish());
  rep.roots().push_back(leaf(d, {7, 8}));
  rep.MarkNonEmpty();
  rep.Validate();

  ExpectMatchesAllOptions(rep, nullptr, nullptr, "shared");
  PrintOptions opts;
  opts.unicode = false;
  RenderWriter w;
  const ExpressionCounts counts = w.AppendExpression(rep, opts);
  EXPECT_EQ(std::move(w).Take(),
            "(<1> x <10> x (<5> x <5> u <6> x <6>) u "
            "<2> x (<20> x (<5> x <5> u <6> x <6>) u "
            "<30> x (<5> x <5> u <6> x <6>))) x (<7> u <8>)");
  // A 2, B 3, the shared C-union's 2 entries once; D is invisible.
  EXPECT_EQ(counts.singletons, 7u);
  EXPECT_EQ(counts.tuples, 12u);  // (2 + 4) x 2
}

// A rep whose tuple count passes 2^64 in one of three places: the
// product of seven 1000-value children under A's one entry, the product
// of seven 1000-value roots, or the sum over A's 19 entries, each over the
// same six 1000-value children (10^18 tuples per entry).
enum class Overflow { kProduct, kRoots, kSum };

FRep PastSixtyFourBits(Overflow where) {
  const size_t num_leaves = where == Overflow::kSum ? 6 : 7;
  FTree t;
  int top = -1;
  if (where != Overflow::kRoots) {
    top = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
    t.AttachRoot(top);
  }
  std::vector<int> leaves;
  for (AttrId a = 1; a <= num_leaves; ++a) {
    const int n = t.NewNode(AttrSet::Of({a}), AttrSet::Of({a}),
                            RelSet::Of({a}), RelSet::Of({a}));
    if (top < 0) {
      t.AttachRoot(n);
    } else {
      t.AttachChild(top, n);
    }
    leaves.push_back(n);
  }
  FRep rep{t};
  std::vector<Value> vals(1000);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<Value>(i);
  std::vector<uint32_t> kids;
  for (int n : leaves) {
    UnionBuilder u = rep.StartUnion(n);
    u.AddValues(vals.data(), vals.size());
    kids.push_back(u.Finish());
  }
  if (top < 0) {
    rep.roots() = kids;
  } else {
    UnionBuilder u = rep.StartUnion(top);
    const Value entries = where == Overflow::kSum ? 19 : 1;
    for (Value v = 1; v <= entries; ++v) {
      u.AddValue(v);
      for (uint32_t k : kids) u.AddChild(k);
    }
    rep.roots().push_back(u.Finish());
  }
  rep.MarkNonEmpty();
  rep.Validate();
  return rep;
}

// The tuple count does not fit, and the writer says so instead of
// wrapping; a truncated pass falls back to the DAG passes with the same
// verdict.
TEST(RenderOracle, TupleCountPast64Bits) {
  for (Overflow where : {Overflow::kProduct, Overflow::kRoots,
                         Overflow::kSum}) {
    SCOPED_TRACE(static_cast<int>(where));
    const FRep rep = PastSixtyFourBits(where);
    uint64_t tuples = 0;
    ASSERT_FALSE(rep.TryCountTuples(&tuples));

    PrintOptions opts;
    opts.unicode = false;
    ExpectMatches(rep, opts, "past 2^64");
    RenderWriter w;
    const ExpressionCounts counts = w.AppendExpression(rep, opts);
    EXPECT_FALSE(counts.tuples_fit);
    const size_t singletons[] = {7001, 7000, 6019};
    EXPECT_EQ(counts.singletons, singletons[static_cast<int>(where)]);
    opts.max_chars = 100;
    ExpectMatches(rep, opts, "past 2^64, truncated");
  }
}

TEST(RenderWriter, ExactNumbers) {
  RenderWriter w;
  w.AppendInt(-9223372036854775807 - 1);
  w.Append(' ');
  w.AppendUint(18446744073709551615u);
  w.Append(' ');
  w.AppendUint(1210000);
  w.Append(' ');
  w.AppendDouble(1.0 / 3.0);
  w.Append(' ');
  w.AppendDouble(550.5);
  w.Append(' ');
  w.AppendDouble(1e300);
  EXPECT_EQ(std::move(w).Take(),
            "-9223372036854775808 18446744073709551615 1210000 "
            "0.3333333333333333 550.5 1e+300");
}

}  // namespace
}  // namespace fdb
