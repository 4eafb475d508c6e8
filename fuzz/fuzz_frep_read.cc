// Fuzz harness: the f-representation deserialiser (core/serialize.h).
//
// This is the highest-stakes boundary: serialized reps come from disk
// today and from the wire once the binary streaming protocol lands, and
// the header promises corrupted files cannot abort the process. Contract
// under attack:
//   * ReadFRep either throws FdbError or returns a representation that
//     passes the *deep* validator (arena bounds, acyclicity, window
//     overlap) — run here unconditionally, not just in FDB_VALIDATE
//     builds;
//   * an accepted representation round-trips through WriteFRep/ReadFRep to
//     a byte-identical fixpoint;
//   * every pass of FRep::SweepBottomUp terminates (SubtreeTupleCounts with
//     and without the visible mask, NumValues, NumSingletons), and on small
//     reps (at most 1e4 tuples) CountTuples equals the TupleEnumerator
//     count.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/enumerate.h"
#include "core/frep.h"
#include "core/serialize.h"
#include "core/validate.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  try {
    std::istringstream in(text);
    fdb::FRep rep = fdb::ReadFRep(in);
    fdb::ValidateDeep(rep);
    const std::vector<char> keep = fdb::VisibleKeepMask(rep.tree());
    (void)rep.SubtreeTupleCounts();
    (void)rep.SubtreeTupleCounts(&keep);
    (void)rep.NumValues();
    (void)rep.NumSingletons();
    const double count = rep.CountTuples();
    if (count <= 1e4) {
      double enumerated = 0;
      for (fdb::TupleEnumerator en(rep); en.Next();) ++enumerated;
      if (enumerated != count) {
        std::fprintf(stderr,
                     "fuzz_frep_read: CountTuples %.0f but %.0f tuples "
                     "enumerated\n",
                     count, enumerated);
        std::abort();
      }
    }

    std::ostringstream first;
    fdb::WriteFRep(first, rep);
    std::istringstream again(first.str());
    fdb::FRep rep2 = fdb::ReadFRep(again);
    std::ostringstream second;
    fdb::WriteFRep(second, rep2);
    if (first.str() != second.str()) {
      std::fprintf(stderr,
                   "fuzz_frep_read: write/read round-trip is not a "
                   "fixpoint\n");
      std::abort();
    }
  } catch (const fdb::FdbError&) {
    // The one sanctioned outcome for corrupted input.
  }
  return 0;
}
