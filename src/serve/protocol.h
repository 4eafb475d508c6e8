// Serve-path protocol: SQL normalisation, canonical result rendering and
// the newline-delimited wire format spoken by examples/fdb_server.cc.
//
// Requests are one SQL statement per line. Responses are framed as
//
//   OK <n>\n<body>      body is exactly n lines (result + stats line)
//   ERR <message>\n     parse/evaluation error (message is one line)
//   TIMEOUT <message>\n deadline exceeded before the result was ready
//   BUSY <message>\n    rejected: the request queue is at its bound
//                       (ServeOptions::max_queue) — retry later
//   RESOURCE <message>\n rejected or stopped on a resource bound: query
//                       memory budget (ServeOptions::max_memory_bytes),
//                       result/query size caps, or allocation failure —
//                       the query is the problem, not the load; do not
//                       retry unchanged
//
// The body rendering is deterministic: identical queries on an identical
// database produce byte-identical bodies regardless of thread interleaving
// or plan-cache state (serve_test.cc cross-checks every concurrent
// response against a single-threaded Engine::Execute reference).
#ifndef FDB_SERVE_PROTOCOL_H_
#define FDB_SERVE_PROTOCOL_H_

#include <string>

#include "api/database.h"
#include "api/engine.h"

namespace fdb {

/// Normalises an SQL statement into the plan-cache signature: tokens are
/// re-joined with single spaces (whitespace-insensitive), keywords and
/// aggregate-function names fold to lower case, `<>` folds to `!=` and
/// integer literals are re-rendered canonically. Identifier case is
/// preserved when the identifier exactly names a catalog attribute or
/// relation (names are case-sensitive); otherwise keyword-shaped
/// identifiers fold, so `SELECT`/`select`/`Select` coincide. String
/// literal bodies are kept verbatim ('Milk' and 'milk' differ). Throws
/// FdbError on unlexable input.
std::string NormalizeSql(const std::string& sql, const Catalog& catalog);

/// Renders an Execute() outcome as the canonical response body. SPJ
/// queries yield the factorised expression (ASCII operators,
/// dictionary-decoded values) plus a `-- N singletons, M tuples`
/// stats line; grouped-aggregate queries yield a header line, one line per
/// group (keys sorted — GroupedTable::SortByKey order) and a `-- N groups`
/// line. Timings are deliberately excluded: the body depends only on the
/// query and the data. Every line ends with '\n'. Exception: an EXPLAIN
/// ANALYZE result (FdbResult::explain) renders its span tree verbatim —
/// those bodies carry wall times and are *not* deterministic.
///
/// Numbers are exact. Keys, the singleton count, the tuple count and
/// COUNT/SUM/MIN/MAX cells print as decimal integers (std::to_chars); AVG
/// prints as the shortest decimal that reads back as its double. Two
/// cases have no exact integer: a tuple count past 2^64 prints as the
/// shortest decimal of FRep::CountTuples(), and an aggregate cell past the
/// int64 range as the shortest decimal of its double. SUM accumulates in
/// double, so a sum past 2^53 may already have rounded before it prints.
///
/// One RenderWriter (core/print.h) writes the body, and its expression
/// pass folds the two counts of the stats line.
std::string RenderResult(const Database& db, const FdbResult& res);

/// True iff `line` is the STATS protocol verb: the case-insensitive word
/// "stats" alone on the line (surrounding whitespace ignored). It cannot
/// collide with SQL — statements start with SELECT or EXPLAIN. The server
/// answers with its metrics registry's Prometheus-style exposition
/// (QueryServer::MetricsExposition), framed like any OK body.
bool IsStatsRequest(const std::string& line);

/// Outcome status of one served request.
enum class ServeStatus { kOk, kError, kTimeout, kBusy, kResource };

/// One served response plus serve-path metadata (not part of the rendered
/// body, so coalesced/cached answers stay byte-identical to cold ones).
struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  std::string body;        ///< rendered result (kOk) or one-line message
  bool cache_hit = false;  ///< plan served from the shared plan cache
  bool coalesced = false;  ///< answered by another request's evaluation
};

/// Frames a response for the wire (see the header comment).
std::string FrameResponse(const ServeResponse& r);

}  // namespace fdb

#endif  // FDB_SERVE_PROTOCOL_H_
