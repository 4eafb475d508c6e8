// Fault injection: named FDB_FAULT_POINT(name) sites at the engine's
// allocation / morsel / serve boundaries, armed by tests to inject
// allocation failure, latency or cancellation on demand — so the
// governance paths (common/exec_context.h) are *proven* to degrade
// gracefully, not assumed to.
//
// The sites compile to nothing unless the build sets FDB_FAULTS (CMake
// option FDB_FAULTS=ON, carried by the asan/tsan presets), so release
// binaries pay zero cost and bench/run_all.sh refuses instrumented
// builds. The registry below is always compiled (it is tiny) so
// tests/fault_injection_test.cc builds in every configuration and skips
// itself when fault::kEnabled is false.
//
// Site names must be snake_case and globally unique — enforced by
// tools/fdb_lint.py (fault-point). Current sites:
//
//   frep_arena_commit   FRep::CommitUnion, before arena growth
//   ground_build_union  per grounded union in GroundQuery's build
//   ground_prepare_relation  per relation and query in GroundQuery's
//                       prepare step, on prepared-cache hits and misses
//   kernel_run          entry of EnumKernel::Run
//   enumerate_morsel    per morsel task in ParallelEnumerator; an SPJ
//                       materialisation fires it once per morsel in the
//                       result buffer's pre-fault pass and again in the
//                       emit pass
//   serve_execute_group entry of QueryServer::ExecuteGroup's evaluation
//   serve_render        before RenderResult in QueryServer
#ifndef FDB_COMMON_FAULT_H_
#define FDB_COMMON_FAULT_H_

#include <cstdint>
#include <string>

namespace fdb {
namespace fault {

#ifdef FDB_FAULTS
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// What an armed site injects when it triggers.
enum class Kind : uint8_t {
  kBadAlloc,  ///< throw std::bad_alloc (exercises TranslateBadAlloc)
  kLatency,   ///< sleep latency_seconds (exercises deadlines under load)
  kCancel,    ///< cancel the ambient ExecContext and probe it immediately
};

struct Spec {
  Kind kind = Kind::kBadAlloc;
  /// Hits to let through before triggering (0 = trigger on first hit).
  uint64_t skip = 0;
  /// Triggers to fire before the site disarms itself (-1 = every hit).
  int64_t times = -1;
  double latency_seconds = 0.0;  ///< for kLatency
};

/// Arms `name`; replaces any previous spec. Safe to call in any build
/// (without FDB_FAULTS no site ever hits, so it has no effect).
void Arm(const std::string& name, Spec spec);
void Disarm(const std::string& name);
void DisarmAll();

/// Total hits observed at `name` since process start (armed or not) —
/// lets tests assert a site was actually reached. Always 0 without
/// FDB_FAULTS.
uint64_t HitCount(const std::string& name);

/// Called by FDB_FAULT_POINT in FDB_FAULTS builds. Counts the hit and
/// injects the armed fault, if any.
void Hit(const char* name);

}  // namespace fault
}  // namespace fdb

#ifdef FDB_FAULTS
#define FDB_FAULT_POINT(name) ::fdb::fault::Hit(name)
#else
#define FDB_FAULT_POINT(name) ((void)0)
#endif

#endif  // FDB_COMMON_FAULT_H_
