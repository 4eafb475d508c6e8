#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/str.h"
#include "core/print.h"
#include "sql/lexer.h"

namespace fdb {

namespace {

// Keywords and aggregate-function names of the SQL dialect (sql/parser.cc
// matches them case-insensitively).
bool IsKeywordShaped(const std::string& lower) {
  static const char* const kKeywords[] = {
      "select", "from", "where", "and", "group",   "by",       "count",
      "sum",    "avg",  "min",   "max", "explain", "analyze"};
  return std::find(std::begin(kKeywords), std::end(kKeywords), lower) !=
         std::end(kKeywords);
}

// An aggregate cell: COUNT, SUM, MIN and MAX are integral and render as
// exact integers; AVG (and an integral value beyond int64) renders as the
// shortest decimal that reads back as the double.
void AppendAggregate(RenderWriter* w, AggFn fn, double d) {
  constexpr double kInt64Bound = 9223372036854775808.0;  // 2^63
  if (fn != AggFn::kAvg && std::trunc(d) == d && d >= -kInt64Bound &&
      d < kInt64Bound) {
    w->AppendInt(static_cast<int64_t>(d));
  } else {
    w->AppendDouble(d);
  }
}

}  // namespace

std::string NormalizeSql(const std::string& sql, const Catalog& catalog) {
  std::vector<sql::Token> tokens = sql::Lex(sql);
  std::string out;
  for (const sql::Token& t : tokens) {
    if (t.kind == sql::TokenKind::kEnd) break;
    if (!out.empty()) out += ' ';
    switch (t.kind) {
      case sql::TokenKind::kIdent: {
        std::string lower = ToLower(t.text);
        // Identifier case is significant only for catalog names; keyword-
        // shaped identifiers that do not exactly name an attribute or
        // relation fold to lower case so `SELECT` and `select` coincide.
        if (IsKeywordShaped(lower) && catalog.FindAttribute(t.text) < 0 &&
            catalog.FindRelation(t.text) < 0) {
          out += lower;
        } else {
          out += t.text;
        }
        break;
      }
      case sql::TokenKind::kInt:
        out += std::to_string(t.value);
        break;
      case sql::TokenKind::kString:
        out += '\'';
        out += t.text;  // the lexer admits no quote inside a literal
        out += '\'';
        break;
      case sql::TokenKind::kNe:
        out += "!=";  // <> and != lex to the same token
        break;
      default:
        out += t.text;
        break;
    }
  }
  return out;
}

std::string RenderResult(const Database& db, const FdbResult& res) {
  if (res.explain.has_value()) return *res.explain;
  const Catalog& catalog = db.catalog();
  RenderWriter w;
  if (res.aggregate.has_value()) {
    const GroupedTable& tbl = *res.aggregate;
    for (size_t c = 0; c < tbl.group_schema.size(); ++c) {
      if (c) w.Append("  ");
      w.Append(catalog.attr(tbl.group_schema[c]).name);
    }
    for (size_t c = 0; c < tbl.specs.size(); ++c) {
      if (c || !tbl.group_schema.empty()) w.Append("  ");
      const AggSpec& s = tbl.specs[c];
      w.Append(AggFnName(s.fn));
      w.Append('(');
      w.Append(s.fn == AggFn::kCount ? std::string_view("*")
                                     : catalog.attr(s.attr).name);
      w.Append(')');
    }
    w.Append('\n');
    for (size_t r = 0; r < tbl.num_rows; ++r) {
      for (size_t c = 0; c < tbl.group_schema.size(); ++c) {
        if (c) w.Append("  ");
        const Value v = tbl.KeyAt(r, c);
        if (catalog.attr(tbl.group_schema[c]).is_string &&
            db.dict().Contains(v)) {
          w.Append(db.dict().Decode(v));
        } else {
          w.AppendInt(v);
        }
      }
      for (size_t c = 0; c < tbl.specs.size(); ++c) {
        if (c || !tbl.group_schema.empty()) w.Append("  ");
        AppendAggregate(&w, tbl.specs[c].fn, tbl.AggAt(r, c));
      }
      w.Append('\n');
    }
    w.Append("-- ");
    w.AppendUint(tbl.num_rows);
    w.Append(" groups\n");
  } else {
    PrintOptions popts;
    popts.unicode = false;  // ASCII wire format
    popts.catalog = &catalog;
    popts.dict = &db.dict();
    const ExpressionCounts counts = w.AppendExpression(res.rep, popts);
    w.Append("\n-- ");
    w.AppendUint(counts.singletons);
    w.Append(" singletons, ");
    if (counts.tuples_fit) {
      w.AppendUint(counts.tuples);
    } else {
      w.AppendDouble(res.rep.CountTuples());
    }
    w.Append(" tuples\n");
  }
  return std::move(w).Take();
}

bool IsStatsRequest(const std::string& line) {
  return ToLower(Trim(line)) == "stats";
}

std::string FrameResponse(const ServeResponse& r) {
  auto one_line = [](std::string s) {
    std::replace(s.begin(), s.end(), '\n', ' ');
    return s;
  };
  switch (r.status) {
    case ServeStatus::kOk: {
      size_t lines =
          static_cast<size_t>(std::count(r.body.begin(), r.body.end(), '\n'));
      return "OK " + std::to_string(lines) + "\n" + r.body;
    }
    case ServeStatus::kError:
      return "ERR " + one_line(r.body) + "\n";
    case ServeStatus::kTimeout:
      return "TIMEOUT " + one_line(r.body) + "\n";
    case ServeStatus::kBusy:
      return "BUSY " + one_line(r.body) + "\n";
    case ServeStatus::kResource:
      return "RESOURCE " + one_line(r.body) + "\n";
  }
  return "ERR unreachable\n";
}

}  // namespace fdb
