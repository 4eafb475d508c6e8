// Serialisation of f-representations.
//
// §1 motivates *compiled databases*: static data sets (the paper cites the
// human genome database) aggressively factorised once and then queried many
// times. That workflow needs factorised representations to be stored and
// reloaded without re-grounding; this module provides a line-based text
// format with full fidelity (f-tree shape, dependency bookkeeping, union
// pool) and a strict, validating reader.
//
// Format (one record per line, '#' starts a comment):
//   fdb-frep 1
//   node <id> attrs=<hex> visible=<hex> cover=<hex> dep=<hex> const=<0|1>
//        parent=<id|-1>                 (written in pre-order; the reader
//                                        appends each node to its parent's
//                                        children in record order)
//   troot <node id>                     (tree roots, in order)
//   empty | nonempty
//   union <id> node=<node id> values=<v,...> children=<u,...>
//   uroot <union id>                    (root unions, in order)
//   end
#ifndef FDB_CORE_SERIALIZE_H_
#define FDB_CORE_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "core/frep.h"

namespace fdb {

/// Writes `rep` to `out`; the result round-trips through ReadFRep.
void WriteFRep(std::ostream& out, const FRep& rep);

/// Parses an f-representation; throws FdbError on malformed input. The
/// result is Validate()d before being returned, so corrupted files cannot
/// produce an inconsistent representation.
FRep ReadFRep(std::istream& in);

/// File-path convenience wrappers.
void WriteFRepFile(const std::string& path, const FRep& rep);
FRep ReadFRepFile(const std::string& path);

}  // namespace fdb

#endif  // FDB_CORE_SERIALIZE_H_
