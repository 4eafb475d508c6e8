// Shared fixtures: the grocery retailer database of Fig. 1 and small
// helpers used across the test suite.
#ifndef FDB_TESTS_TEST_UTIL_H_
#define FDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "common/trace.h"
#include "core/ftree.h"
#include "core/parallel_enumerate.h"

namespace fdb {
namespace testing_util {

// The example database of Figure 1. Attribute names are global, so the
// shared column names of the paper (item, location, supplier) are prefixed
// per relation; queries equate them explicitly, exactly like the paper's
// equivalence classes {item, item'} etc.
//
//   Orders(oid, o_item)         Store(s_location, s_item)
//   Disp(dispatcher, d_location)
//   Produce(supplier, p_item)   Serve(sv_supplier, sv_location)
inline std::unique_ptr<Database> MakeGroceryDb() {
  auto db = std::make_unique<Database>();
  RelId orders = db->CreateRelation("Orders", {"oid", "o_item:str"});
  RelId store = db->CreateRelation("Store", {"s_location:str", "s_item:str"});
  RelId disp = db->CreateRelation("Disp", {"dispatcher:str", "d_location:str"});
  RelId produce = db->CreateRelation("Produce", {"supplier:str", "p_item:str"});
  RelId serve =
      db->CreateRelation("Serve", {"sv_supplier:str", "sv_location:str"});

  auto ins = [&db](RelId r, std::vector<Cell> row) { db->Insert(r, row); };
  ins(orders, {int64_t{1}, "Milk"});
  ins(orders, {int64_t{1}, "Cheese"});
  ins(orders, {int64_t{2}, "Melon"});
  ins(orders, {int64_t{3}, "Cheese"});
  ins(orders, {int64_t{3}, "Melon"});

  ins(store, {"Istanbul", "Milk"});
  ins(store, {"Istanbul", "Cheese"});
  ins(store, {"Istanbul", "Melon"});
  ins(store, {"Izmir", "Milk"});
  ins(store, {"Antalya", "Milk"});
  ins(store, {"Antalya", "Cheese"});

  ins(disp, {"Adnan", "Istanbul"});
  ins(disp, {"Adnan", "Izmir"});
  ins(disp, {"Yasemin", "Istanbul"});
  ins(disp, {"Volkan", "Antalya"});

  ins(produce, {"Guney", "Milk"});
  ins(produce, {"Guney", "Cheese"});
  ins(produce, {"Dikici", "Milk"});
  ins(produce, {"Byzantium", "Melon"});

  ins(serve, {"Guney", "Antalya"});
  ins(serve, {"Dikici", "Istanbul"});
  ins(serve, {"Dikici", "Izmir"});
  ins(serve, {"Dikici", "Antalya"});
  ins(serve, {"Byzantium", "Istanbul"});
  return db;
}

// Q1 = Orders |x|_item Store |x|_location Disp (Example 1).
inline Query GroceryQ1(const Database& db) {
  Query q;
  q.rels = {static_cast<RelId>(db.catalog().FindRelation("Orders")),
            static_cast<RelId>(db.catalog().FindRelation("Store")),
            static_cast<RelId>(db.catalog().FindRelation("Disp"))};
  q.equalities = {{db.Attr("o_item"), db.Attr("s_item")},
                  {db.Attr("s_location"), db.Attr("d_location")}};
  return q;
}

// Q2 = Produce |x|_supplier Serve (Example 1).
inline Query GroceryQ2(const Database& db) {
  Query q;
  q.rels = {static_cast<RelId>(db.catalog().FindRelation("Produce")),
            static_cast<RelId>(db.catalog().FindRelation("Serve"))};
  q.equalities = {{db.Attr("supplier"), db.Attr("sv_supplier")}};
  return q;
}

// A deferred-projection f-tree over relation 0: the node of `invisible`
// stays in the tree but contributes nothing to the output schema. With
// `inv_root` it is a projected middle node (an invisible parent of a
// visible node).
inline FTree DeferredProjectionTree(AttrId visible, AttrId invisible,
                                    bool inv_root) {
  FTree t;
  int v = t.NewNode(AttrSet::Of({visible}), AttrSet::Of({visible}),
                    RelSet::Of({0}), RelSet::Of({0}));
  int i = t.NewNode(AttrSet::Of({invisible}), {}, RelSet::Of({0}),
                    RelSet::Of({0}));
  if (inv_root) {
    t.AttachRoot(i);
    t.AttachChild(i, v);
  } else {
    t.AttachRoot(v);
    t.AttachChild(v, i);
  }
  return t;
}

// `r` with its columns permuted into `schema` (same attribute set), rows
// sorted lexicographically and deduplicated: the canonical form of the
// set of tuples it holds.
inline Relation Canonical(const Relation& r,
                          const std::vector<AttrId>& schema) {
  std::vector<size_t> cols;
  for (AttrId a : schema) cols.push_back(r.ColumnOf(a));
  Relation out(schema);
  std::vector<Value> tuple(cols.size());
  for (size_t row = 0; row < r.size(); ++row) {
    for (size_t c = 0; c < cols.size(); ++c) tuple[c] = r.At(row, cols[c]);
    out.AddTuple(tuple);
  }
  out.SortLex();
  return out;
}

// True iff two relations hold the same set of tuples over the same
// attributes, whatever their column order, row order or duplicates. Both
// sides are canonicalised: materialisations come out sorted in the
// f-tree's pre-order (core/parallel_enumerate.h), so results of different f-trees,
// plans or baselines must never be compared with ==.
inline bool SameRelation(const Relation& a, const Relation& b) {
  if (a.attr_set() != b.attr_set()) return false;
  return Canonical(a, a.schema()) == Canonical(b, a.schema());
}

inline bool SameRelation(const FRep& rep, const Relation& flat) {
  return SameRelation(MaterializeVisible(rep), flat);
}

// The join of bench_util's MakeKeyForeignKeyChain, as SQL.
inline constexpr const char* kChainJoin =
    " FROM Customer, Orders, Lineitem WHERE ck = o_ck AND ok = l_ok";

// The rows of the "ground-build" span of `trace`: the build's morsel count.
inline uint64_t GroundMorsels(const QueryTrace& trace) {
  for (const QueryTrace::Span& s : trace.spans()) {
    if (s.name == "ground-build") return s.rows;
  }
  return 0;
}

// True iff `trace` recorded a span called `name`.
inline bool HasSpan(const QueryTrace& trace, const std::string& name) {
  for (const QueryTrace::Span& s : trace.spans()) {
    if (s.name == name) return true;
  }
  return false;
}

}  // namespace testing_util
}  // namespace fdb

#endif  // FDB_TESTS_TEST_UTIL_H_
