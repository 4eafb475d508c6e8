// fdb::Database — the user-facing container: catalog + dictionary +
// relation storage. This is the entry point of the public API; see
// examples/quickstart.cc for typical use.
#ifndef FDB_API_DATABASE_H_
#define FDB_API_DATABASE_H_

#include <string>
#include <variant>
#include <vector>

#include "common/dictionary.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/relation.h"

namespace fdb {

/// A cell value supplied by the user: integer or string.
using Cell = std::variant<int64_t, std::string>;

/// An in-memory factorised-capable database.
class Database {
 public:
  /// Declares a relation. Column specs are attribute names, with an
  /// optional ":str" suffix for dictionary-encoded string columns, e.g.
  ///   db.CreateRelation("Orders", {"oid", "item:str"});
  /// Attribute names are global: reusing a name in a second relation is an
  /// error (the paper's query model; alias attributes for self-joins).
  RelId CreateRelation(const std::string& name,
                       const std::vector<std::string>& column_specs);

  /// Appends one row; cells must match the declared column types by
  /// convertibility (strings are interned, integers stored directly).
  void Insert(RelId rel, const std::vector<Cell>& row);

  /// Loads a relation from a CSV file (header defines the columns).
  RelId LoadCsv(const std::string& path, const std::string& rel_name,
                char sep = ',');

  const Catalog& catalog() const { return catalog_; }
  const Dictionary& dict() const { return dict_; }
  Dictionary& dict() { return dict_; }

  const Relation& relation(RelId id) const { return relations_.at(id); }
  Relation& relation(RelId id) { return relations_.at(id); }
  size_t num_relations() const { return relations_.size(); }

  /// Relation pointers in the order of `rels` (query-local order).
  std::vector<const Relation*> RelationPtrs(
      const std::vector<RelId>& rels) const;

  /// Resolves an attribute name; throws on unknown names.
  AttrId Attr(const std::string& name) const;

  /// Monotonically increasing version, bumped by every schema or data
  /// change made through the Database API (CreateRelation, Insert,
  /// LoadCsv). The serve-path plan cache keys cached f-plans on this
  /// version, so stale plans are invalidated when the database changes
  /// between serving sessions. Mutating a relation directly via the
  /// non-const relation() accessor bypasses the counter — long-lived
  /// servers must treat the database as frozen (see serve/query_server.h).
  /// The engine's prepared-relation cache does not rely on this version:
  /// it checks Relation::stamp(), which every row-set mutation changes.
  uint64_t version() const { return version_; }

 private:
  Catalog catalog_;
  Dictionary dict_;
  std::vector<Relation> relations_;
  uint64_t version_ = 0;
};

}  // namespace fdb

#endif  // FDB_API_DATABASE_H_
