#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/query.h"
#include "storage/relation.h"

namespace fdb {
namespace {

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(Relation, BasicAccess) {
  Relation r = MakeRel({0, 1}, {{1, 2}, {3, 4}});
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(1, 0), 3);
  EXPECT_EQ(r.ColumnOf(1), 1u);
  EXPECT_TRUE(r.HasAttr(0));
  EXPECT_FALSE(r.HasAttr(5));
  EXPECT_THROW(r.ColumnOf(5), FdbError);
}

TEST(Relation, RejectsDuplicateSchema) {
  EXPECT_THROW(Relation({1, 1}), FdbError);
}

TEST(Relation, RejectsWrongArityTuple) {
  Relation r({0, 1});
  EXPECT_THROW(r.AddTuple({1}), FdbError);
}

TEST(Relation, SortLexAndDedup) {
  Relation r = MakeRel({0, 1}, {{2, 1}, {1, 2}, {2, 1}, {1, 1}});
  r.SortLex();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(0, 1), 1);
  EXPECT_EQ(r.At(2, 0), 2);
}

TEST(Relation, SortBySelectedColumnWithTieBreak) {
  Relation r = MakeRel({0, 1}, {{2, 9}, {1, 5}, {2, 3}});
  r.SortByColumns({1});
  EXPECT_EQ(r.At(0, 1), 3);
  EXPECT_EQ(r.At(1, 1), 5);
  EXPECT_EQ(r.At(2, 1), 9);
  EXPECT_EQ(r.sort_order()[0], 1u);
}

TEST(Relation, SortOrderContract) {
  Relation r = MakeRel({0, 1}, {{2, 9}, {1, 5}, {2, 3}, {1, 5}});
  EXPECT_TRUE(r.sort_order().empty());  // appended rows: order unknown
  r.SortByColumns({1});
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{1, 0}));  // total order
  EXPECT_EQ(r.size(), 3u);

  // Filter keeps both the order and distinctness.
  r.Filter([&](size_t row) { return r.At(row, 1) != 5; });
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{1, 0}));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(0, 1), 3);
  EXPECT_EQ(r.At(1, 1), 9);

  // Every append clears it.
  Relation a = r;
  a.AddTuple({0, 0});
  EXPECT_TRUE(a.sort_order().empty());
  Relation b = r;
  b.AppendRows(std::vector<Value>{0, 0});
  EXPECT_TRUE(b.sort_order().empty());
  Relation c = r;
  c.AdoptRows(std::vector<Value>{0, 0});
  EXPECT_TRUE(c.sort_order().empty());
  c.SortByColumns({1, 0});  // an append since the last sort: sorts again
  EXPECT_EQ(c.At(0, 1), 0);
}

TEST(Relation, SortByRecordedOrderIsANoOp) {
  // MarkSorted records an order without sorting; a SortByColumns that asks
  // for the same total order must leave the rows untouched. Rows sorted
  // under (col 1, col 0) are deliberately not sorted under (0, 1).
  Relation r = MakeRel({0, 1}, {{3, 1}, {1, 2}, {2, 2}});
  r.MarkSorted({1, 0});
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{1, 0}));
  const Relation before = r;
  r.SortByColumns({1});  // completes to {1, 0}: already sorted that way
  EXPECT_TRUE(r == before);
  r.SortByColumns({1, 0});
  EXPECT_TRUE(r == before);
  // A different order really sorts.
  r.SortLex();
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(2, 0), 3);
}

TEST(Relation, MarkSortedRejectsNonPermutations) {
  Relation r = MakeRel({0, 1}, {{1, 1}});
  EXPECT_THROW(r.MarkSorted({0}), FdbError);
  EXPECT_THROW(r.MarkSorted({0, 0}), FdbError);
  EXPECT_THROW(r.MarkSorted({0, 2}), FdbError);
#ifdef FDB_VALIDATE
  // Validating builds also check the rows against the claimed order.
  Relation unsorted = MakeRel({0, 1}, {{2, 1}, {1, 2}});
  EXPECT_THROW(unsorted.MarkSorted({0, 1}), FdbError);
  Relation dup = MakeRel({0}, {{1}, {1}});
  EXPECT_THROW(dup.MarkSorted({0}), FdbError);
#endif
}

TEST(Relation, LowerBoundAndEqualRange) {
  // Note SortLex removes the duplicate {3}: rows become 1, 3, 5, 9.
  Relation r = MakeRel({0}, {{1}, {3}, {3}, {5}, {9}});
  r.SortLex();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.LowerBound(0, r.size(), 0, 3), 1u);
  EXPECT_EQ(r.LowerBound(0, r.size(), 0, 4), 2u);
  auto [b, e] = r.EqualRange(0, r.size(), 0, 3);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(e, 2u);
  auto [b2, e2] = r.EqualRange(0, r.size(), 0, 7);
  EXPECT_EQ(b2, e2);
}

TEST(Relation, LowerBoundMatchesStdOnEveryWindow) {
  // Column 1 sorted with runs of equal values; the search gallops from lo,
  // so check every window start, end and key against std::lower_bound.
  Relation r({0, 1});
  std::vector<Value> col;
  for (Value i = 0; i < 70; ++i) {
    col.push_back(i / 3 * 2);
    r.AddTuple({i, col.back()});
  }
  for (size_t lo = 0; lo <= col.size(); lo += 5) {
    for (size_t hi = lo; hi <= col.size(); hi += 7) {
      for (Value v = -1; v <= 48; ++v) {
        const size_t expect = static_cast<size_t>(
            std::lower_bound(col.begin() + static_cast<ptrdiff_t>(lo),
                             col.begin() + static_cast<ptrdiff_t>(hi), v) -
            col.begin());
        EXPECT_EQ(r.LowerBound(lo, hi, 1, v), expect)
            << lo << " " << hi << " " << v;
      }
    }
  }
}

TEST(Relation, LowerBoundMatchesStdOnLongWindows) {
  // Windows far longer than the gallop, so the search interpolates: evenly
  // spread keys, a skewed column, one that grows geometrically, and one
  // that spans the whole Value range. Every key that occurs, its
  // neighbours and the extremes are sought in random windows.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  Rng rng(7);
  std::vector<std::vector<Value>> columns(4);
  for (int i = 0; i < 3000; ++i) columns[0].push_back(rng.Uniform(1, 5000));
  columns[1].assign(2000, 0);
  for (Value v = 1; v < kMax / 16; v *= 16) columns[1].push_back(v);
  columns[1].insert(columns[1].end(), 100, kMax);
  for (int i = 0; i < 62 * 8; ++i) {
    columns[2].push_back(Value{1} << (i / 8));
  }
  columns[3].assign(50, kMin);
  for (int i = 0; i < 2000; ++i) {
    columns[3].push_back(static_cast<Value>(rng.Next()));
  }
  columns[3].insert(columns[3].end(), 50, kMax);
  for (std::vector<Value>& col : columns) {
    std::sort(col.begin(), col.end());
    Relation r({0, 1});
    for (size_t i = 0; i < col.size(); ++i) {
      r.AddTuple({static_cast<Value>(i), col[i]});
    }
    std::vector<Value> keys = {kMin, kMax, 0};
    for (size_t i = 0; i < col.size(); i += 7) {
      keys.push_back(col[i]);
      if (col[i] > kMin) keys.push_back(col[i] - 1);
      if (col[i] < kMax) keys.push_back(col[i] + 1);
    }
    for (int w = 0; w < 20; ++w) {
      size_t lo = w == 0 ? 0 : static_cast<size_t>(rng.Uniform(
                                   0, static_cast<int64_t>(col.size())));
      size_t hi = w == 0 ? col.size()
                         : static_cast<size_t>(rng.Uniform(
                               0, static_cast<int64_t>(col.size())));
      if (lo > hi) std::swap(lo, hi);
      for (Value v : keys) {
        const size_t expect = static_cast<size_t>(
            std::lower_bound(col.begin() + static_cast<ptrdiff_t>(lo),
                             col.begin() + static_cast<ptrdiff_t>(hi), v) -
            col.begin());
        ASSERT_EQ(r.LowerBound(lo, hi, 1, v), expect)
            << lo << " " << hi << " " << v;
      }
    }
  }
}

TEST(Relation, EqualRangeWithDuplicateKeyColumn) {
  Relation r = MakeRel({0, 1}, {{3, 1}, {3, 2}, {3, 3}, {5, 1}});
  r.SortLex();
  auto [b, e] = r.EqualRange(0, r.size(), 0, 3);
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(e, 3u);
}

TEST(Relation, DistinctCount) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  EXPECT_EQ(r.DistinctCount(0), 2u);
  EXPECT_EQ(r.DistinctCount(1), 2u);
}

TEST(Relation, Filter) {
  Relation r = MakeRel({0}, {{1}, {2}, {3}, {4}});
  r.Filter([&](size_t row) { return r.At(row, 0) % 2 == 0; });
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(0, 0), 2);
  EXPECT_EQ(r.At(1, 0), 4);
}

TEST(Relation, StampChangesOnEveryRowSetMutation) {
  Relation r = MakeRel({0, 1}, {{2, 1}, {1, 1}});
  uint64_t last = r.stamp();
  auto changed = [&] {
    const bool moved = r.stamp() != last;
    last = r.stamp();
    return moved;
  };
  r.AddTuple({3, 3});
  EXPECT_TRUE(changed());
  const std::vector<Value> rows = {4, 4, 5, 5};
  r.AppendRows(rows);
  EXPECT_TRUE(changed());
  r.AdoptRows({6, 6});
  EXPECT_TRUE(changed());
  r.Filter([&](size_t row) { return r.At(row, 0) != 5; });
  EXPECT_TRUE(changed());
  r.SortLex();
  EXPECT_TRUE(changed());
  r.SortLex();  // already sorted: the rows do not move
  EXPECT_FALSE(changed());
  r.SortByColumns({1});
  EXPECT_TRUE(changed());

  // Copies carry the stamp with the content; assignment targets and
  // moved-from relations get a stamp they never had.
  Relation copy = r;
  EXPECT_EQ(copy.stamp(), r.stamp());
  Relation other = MakeRel({0, 1}, {{9, 9}});
  r = other;
  EXPECT_TRUE(changed());
  EXPECT_EQ(r, other);
  r = MakeRel({0, 1}, {});
  EXPECT_TRUE(changed());
  Relation taken = std::move(copy);
  EXPECT_NE(copy.stamp(), taken.stamp());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(copy.empty());               // NOLINT(bugprone-use-after-move)

  // Reading never changes the stamp.
  (void)r.Filtered([](size_t) { return true; });
  r.LowerBound(0, r.size(), 0, 1);
  EXPECT_FALSE(changed());
}

TEST(Relation, FilteredCopyKeepsOrder) {
  Relation r = MakeRel({0, 1}, {{3, 1}, {1, 2}, {2, 3}, {1, 1}});
  r.SortByColumns({1});
  Relation f = r.Filtered([&](size_t row) { return r.At(row, 0) != 2; });
  EXPECT_EQ(f, MakeRel({0, 1}, {{1, 1}, {3, 1}, {1, 2}}));
  EXPECT_EQ(f.sort_order(), r.sort_order());
  EXPECT_EQ(r.size(), 4u);  // the source is untouched
}

TEST(Catalog, RegistersAndLooksUp) {
  Catalog c;
  AttrId a = c.AddAttribute("x");
  AttrId b = c.AddAttribute("y", /*is_string=*/true);
  RelId r = c.AddRelation("R", {a, b});
  EXPECT_EQ(c.FindAttribute("x"), static_cast<int>(a));
  EXPECT_EQ(c.FindAttribute("z"), -1);
  EXPECT_EQ(c.FindRelation("R"), static_cast<int>(r));
  EXPECT_TRUE(c.attr(b).is_string);
  EXPECT_EQ(c.RelAttrSet(r), AttrSet::Of({a, b}));
}

TEST(Catalog, RejectsDuplicatesAndOverflow) {
  Catalog c;
  c.AddAttribute("x");
  EXPECT_THROW(c.AddAttribute("x"), FdbError);
  EXPECT_THROW(c.AddRelation("R", {42}), FdbError);
  Catalog full;
  for (int i = 0; i < 64; ++i) full.AddAttribute("a" + std::to_string(i));
  EXPECT_THROW(full.AddAttribute("overflow"), FdbError);
}

TEST(Catalog, ClassName) {
  Catalog c;
  AttrId a = c.AddAttribute("item");
  AttrId b = c.AddAttribute("pitem");
  EXPECT_EQ(c.ClassName(AttrSet::Of({a, b})), "item=pitem");
}

TEST(Query, EqualityClasses) {
  AttrSet universe = AttrSet::FirstN(5);
  auto classes = EqualityClasses(universe, {{0, 1}, {1, 2}});
  // {0,1,2}, {3}, {4}.
  EXPECT_EQ(classes.size(), 3u);
  bool found = false;
  for (const auto& cls : classes) found |= cls == AttrSet::Of({0, 1, 2});
  EXPECT_TRUE(found);
}

TEST(Query, AnalyzeResolvesRelationsAndClasses) {
  Catalog c;
  AttrId a0 = c.AddAttribute("a0"), a1 = c.AddAttribute("a1");
  AttrId b0 = c.AddAttribute("b0"), b1 = c.AddAttribute("b1");
  RelId r0 = c.AddRelation("R", {a0, a1});
  RelId r1 = c.AddRelation("S", {b0, b1});
  Query q;
  q.rels = {r0, r1};
  q.equalities = {{a1, b0}};
  QueryInfo info = AnalyzeQuery(c, q);
  EXPECT_EQ(info.num_rels, 2);
  EXPECT_EQ(info.attr_rel[a0], 0);
  EXPECT_EQ(info.attr_rel[b1], 1);
  EXPECT_EQ(info.ClassOf(a1), AttrSet::Of({a1, b0}));
  EXPECT_EQ(info.RelsCovering(AttrSet::Of({a1, b0})), RelSet::Of({0, 1}));
  EXPECT_EQ(info.projection, info.all_attrs);
}

TEST(Query, AnalyzeRejectsMalformed) {
  Catalog c;
  AttrId a0 = c.AddAttribute("a0");
  AttrId x = c.AddAttribute("x");
  RelId r0 = c.AddRelation("R", {a0});
  c.AddRelation("S", {a0});  // shares a0 with R

  Query empty;
  EXPECT_THROW(AnalyzeQuery(c, empty), FdbError);

  Query shared;
  shared.rels = {r0, 1};
  EXPECT_THROW(AnalyzeQuery(c, shared), FdbError);  // a0 in two rels

  Query bad_eq;
  bad_eq.rels = {r0};
  bad_eq.equalities = {{a0, x}};  // x not in the query
  EXPECT_THROW(AnalyzeQuery(c, bad_eq), FdbError);

  Query bad_proj;
  bad_proj.rels = {r0};
  bad_proj.projection = AttrSet::Of({x});
  EXPECT_THROW(AnalyzeQuery(c, bad_proj), FdbError);
}

TEST(Cmp, EvalAllOps) {
  EXPECT_TRUE(EvalCmp(1, CmpOp::kEq, 1));
  EXPECT_TRUE(EvalCmp(1, CmpOp::kNe, 2));
  EXPECT_TRUE(EvalCmp(1, CmpOp::kLt, 2));
  EXPECT_TRUE(EvalCmp(2, CmpOp::kLe, 2));
  EXPECT_TRUE(EvalCmp(3, CmpOp::kGt, 2));
  EXPECT_TRUE(EvalCmp(2, CmpOp::kGe, 2));
  EXPECT_FALSE(EvalCmp(2, CmpOp::kLt, 2));
}

TEST(Csv, RoundTrip) {
  Catalog cat;
  Dictionary dict;
  std::istringstream in("oid,item:str\n1,Milk\n2,Cheese\n");
  Relation rel = ReadCsv(in, "Orders", ',', &cat, &dict);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(cat.FindRelation("Orders"), 0);
  EXPECT_TRUE(cat.attr(rel.schema()[1]).is_string);
  EXPECT_EQ(dict.Decode(rel.At(0, 1)), "Milk");

  std::ostringstream out;
  WriteCsv(out, rel, cat, dict, ',');
  EXPECT_EQ(out.str(), "oid,item:str\n1,Milk\n2,Cheese\n");
}

TEST(Csv, MalformedInputs) {
  Catalog cat;
  Dictionary dict;
  std::istringstream empty("");
  EXPECT_THROW(ReadCsv(empty, "R", ',', &cat, &dict), FdbError);

  std::istringstream bad_arity("a,b\n1\n");
  EXPECT_THROW(ReadCsv(bad_arity, "R2", ',', &cat, &dict), FdbError);

  Catalog cat2;
  std::istringstream bad_int("a\nxyz\n");
  EXPECT_THROW(ReadCsv(bad_int, "R3", ',', &cat2, &dict), FdbError);
}

TEST(Csv, SkipsBlankLines) {
  Catalog cat;
  Dictionary dict;
  std::istringstream in("a\n1\n\n2\n");
  Relation rel = ReadCsv(in, "R", ',', &cat, &dict);
  EXPECT_EQ(rel.size(), 2u);
}

}  // namespace
}  // namespace fdb
