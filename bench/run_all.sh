#!/bin/sh
# Runs every bench binary and collects machine-readable BENCH_*.json
# artifacts for the perf trajectory.
#
#   Usage: bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#
# BUILD_DIR defaults to ./build (the tier-1 build directory), OUT_DIR to
# ./bench_results. The experiment drivers honour their FDB_* env knobs
# (e.g. FDB_EXP1_REPS, FDB_BENCH_FULL) for quicker or fuller runs;
# micro_ops honours the usual Google Benchmark flags via BENCHMARK_* env or
# by running it directly.
set -eu

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench_results}
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi
# Refuse instrumented builds: BENCH_*.json from a sanitizer, FDB_VALIDATE
# or FDB_FAULTS build would silently poison the perf trajectory (ASan ~2x,
# TSan ~10x, deep validation adds O(|E|) passes per operator, fault sites
# add registry lookups to hot paths). The cache check covers every way
# those flags can be set (preset, -D, cached).
CACHE="$BUILD_DIR/CMakeCache.txt"
if [ -f "$CACHE" ]; then
  BAD=$(grep -E '^FDB_(SANITIZE|TSAN|UBSAN|VALIDATE|FAULTS):[^=]*=(ON|TRUE|1)$' \
        "$CACHE" | cut -d: -f1 | tr '\n' ' ' || true)
  if [ -n "$BAD" ]; then
    echo "error: $BUILD_DIR is an instrumented build ($BAD)" >&2
    echo "bench artifacts must come from an uninstrumented Release build:" >&2
    echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
    exit 1
  fi
fi
# Provenance: every BENCH_*.json stamps the commit it was built from
# (git_sha, via the env var below). A dirty tree would stamp a SHA whose
# code does not match what actually ran, so refuse it outright; set
# FDB_BENCH_ALLOW_DIRTY=1 to override for local experiments — the artifact
# then carries "<sha>-dirty" so it can never masquerade as a clean run.
if git -C . rev-parse --git-dir >/dev/null 2>&1; then
  SHA=$(git -C . rev-parse HEAD)
  if [ -n "$(git -C . status --porcelain)" ]; then
    if [ "${FDB_BENCH_ALLOW_DIRTY:-0}" = "1" ]; then
      SHA="${SHA}-dirty"
      echo "warning: dirty working tree — stamping git_sha=$SHA" >&2
    else
      echo "error: working tree is dirty; bench artifacts must map to a" >&2
      echo "commit. Commit or stash first, or set FDB_BENCH_ALLOW_DIRTY=1" >&2
      echo "to stamp '<sha>-dirty' instead." >&2
      exit 1
    fi
  fi
  FDB_BENCH_GIT_SHA="$SHA"
  export FDB_BENCH_GIT_SHA
else
  echo "warning: not a git checkout — artifacts will stamp git_sha=unknown" >&2
fi
mkdir -p "$OUT_DIR"

# Parallel-speedup benches (exp8, the serve hammer) need real cores; on a
# 1-core host their multi-thread rows measure scheduling overhead, not
# speedup. Run them anyway (the artifacts stamp hardware_concurrency so
# downstream tooling can discount them), but say so loudly.
NPROC=$( (nproc || getconf _NPROCESSORS_ONLN) 2>/dev/null || echo 1)
if [ "$NPROC" -le 1 ]; then
  echo "" >&2
  echo "*********************************************************" >&2
  echo "** WARNING: this host reports only 1 CPU.              **" >&2
  echo "** Multi-thread bench rows (exp7 hammer, exp8 speedup) **" >&2
  echo "** will NOT show parallel speedup on this machine;     **" >&2
  echo "** treat their thread-scaling columns as invalid.      **" >&2
  echo "*********************************************************" >&2
  echo "" >&2
fi

for b in abl_cost_models exp1_optimisation_flat exp2_optimisers \
         exp3_eval_flat exp4_eval_factorised exp5_one_to_many \
         exp6_group_aggregates exp7_serve exp8_parallel_enumerate; do
  if [ -x "$BENCH_DIR/$b" ]; then
    echo ">> $b"
    "$BENCH_DIR/$b" --json "$OUT_DIR/BENCH_${b}.json"
  else
    echo ">> $b: not built, skipping" >&2
  fi
done

# micro_ops links Google Benchmark's benchmark_main, which brings its own
# JSON reporter instead of the --json flag of the experiment drivers. That
# reporter stamps no provenance, so pass the stamps report.cc writes
# (commit, compiler, build type) as context keys; commas would split them.
if [ -x "$BENCH_DIR/micro_ops" ]; then
  echo ">> micro_ops"
  CXX_PATH=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$CACHE" 2>/dev/null || true)
  COMPILER=$("${CXX_PATH:-c++}" --version 2>/dev/null | head -n 1 | tr -d ',' || true)
  BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE" 2>/dev/null || true)
  "$BENCH_DIR/micro_ops" \
    --benchmark_context="git_sha=${FDB_BENCH_GIT_SHA:-unknown},compiler=${COMPILER:-unknown},build_type=${BUILD_TYPE:-unknown}" \
    --benchmark_out="$OUT_DIR/BENCH_micro.json" \
    --benchmark_out_format=json
else
  echo ">> micro_ops: not built (Google Benchmark missing), skipping" >&2
fi

echo "bench artifacts written to $OUT_DIR/"
