#!/usr/bin/env python3
"""The repo benchmark: builds fdbbench and runs its workloads.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--smoke] [--runs K]
                             [--out FILE [--append]]

Without --workload every workload in BENCHMARK.json runs, each in its own
process. Each metric prints as `<workload> <metric> <value> <unit>`; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace the metrics are the
per-layer ones of the traced pass (span files land in build-bench/traces/),
otherwise the end-to-end ones. --smoke runs every workload at 1/20 scale
for two seconds and checks the percentile arithmetic. --runs K repeats
the whole set with seeds N, N+1, ... and --out writes every run, the
medians and quartiles, and the provenance to a JSON file that
benchmark/compare.py reads; with --append the runs are added to that file,
so two trees can be measured alternately, one seed at a time.

The build is an uninstrumented Release tree in build-bench/ at the repo
root, configured from benchmark/CMakeLists.txt. The exit code is non-zero
when the build fails, an answer is wrong, or a workload fails to finish.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / "build-bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Options that instrument libfdb; a tree with any of them on is refused.
INSTRUMENTED = ["FDB_SANITIZE", "FDB_TSAN", "FDB_UBSAN", "FDB_VALIDATE", "FDB_FAULTS"]
WORKLOAD_TIMEOUT_S = 160


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def cache_values(cache):
    values = {}
    for line in cache.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, rest = line.partition(":")
            values[key] = rest.partition("=")[2]
    return values


def build():
    """Configures (once) and builds fdbbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: no libfdb sources next to benchmark/ (expected "
                 "CMakeLists.txt and src/ at %s)" % ROOT)
    def step(cmd):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            sys.exit("run.py: build step failed: " + " ".join(cmd))

    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and cache_values(cache).get("CMAKE_HOME_DIRECTORY") != str(BENCH):
        shutil.rmtree(BUILD)  # configured from another checkout
    if not cache.exists():
        step(["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
             + ["-D%s=OFF" % opt for opt in INSTRUMENTED])
    values = cache_values(cache)
    bad = [opt for opt in INSTRUMENTED if values.get(opt, "OFF").upper() in ("ON", "1", "TRUE")]
    if values.get("CMAKE_BUILD_TYPE") != "Release":
        bad.append("CMAKE_BUILD_TYPE=" + values.get("CMAKE_BUILD_TYPE", ""))
    if bad:
        sys.exit("run.py: refusing an instrumented or non-Release tree in %s (%s)"
                 % (BUILD, ", ".join(bad)))
    step(["cmake", "--build", str(BUILD), "--target", "fdbbench",
          "-j", str(min(4, os.cpu_count() or 1))])
    return BUILD / "fdbbench"


def git_sha():
    """HEAD's SHA, with -dirty when the measured sources differ from it."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no", "--", "src", "CMakeLists.txt",
                                "cmake", "benchmark"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def run_workload(binary, name, args, seed):
    cmd = [str(binary), "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", "--trace-out", str(traces / ("trace_%s.json" % name))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" % (name, WORKLOAD_TIMEOUT_S))
    if proc.returncode != 0:
        sys.exit("run.py: %s exited with code %d" % (name, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_check(name, result):
    """p50 <= tail <= max, and each reported percentile has >= 10 samples beyond it."""
    d = {k: v["value"] for k, v in result["detail"].items()}
    problems = []
    if not d["p50_ms"] <= d["tail_ms"] <= d["max_ms"]:
        problems.append("p50 %.4g <= tail %.4g <= max %.4g does not hold"
                        % (d["p50_ms"], d["tail_ms"], d["max_ms"]))
    for key in ("beyond_p50", "beyond_tail"):
        if d[key] < 10:
            problems.append("%s has %d samples beyond it" % (key, d[key]))
    for p in problems:
        log("run.py: smoke %s: %s" % (name, p))
    return not problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(runs, workloads):
    """Median, quartiles and spread of every metric the runs recorded."""
    summary = {}
    for w in workloads:
        summary[w] = {}
        for m in runs[0]["workloads"][w]["metrics"]:
            values = [r["workloads"][w]["metrics"][m]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            lo, hi = min(values), max(values)
            summary[w][m] = {
                "unit": runs[0]["workloads"][w]["metrics"][m]["unit"],
                "median": med, "q1": q1, "q3": q3,
                "min": lo, "max": hi,
                "max_over_min": hi / lo if lo > 0 else None,
                "iqr_over_median": (q3 - q1) / med if med else None,
            }
    return summary


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 2 if args.smoke else SPEC["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    metric_names = [m["name"] for m in SPEC[group]]
    workloads = [args.workload] if args.workload else names

    binary = build()
    runs, ok = [], True
    for k in range(args.runs):
        seed = args.seed + k
        run = {"seed": seed, "workloads": {}}
        for w in workloads:
            result = run_workload(binary, w, args, seed)
            missing = [m for m in metric_names if m not in result["metrics"]]
            if missing:
                sys.exit("run.py: %s reported no %s" % (w, ", ".join(missing)))
            for m in metric_names:
                metric = result["metrics"][m]
                print("%s %s %s %s" % (w, m, repr(metric["value"]), metric["unit"]), flush=True)
            if args.trace:
                beyond = result["detail"]["beyond_tail"]["value"]
                if beyond < 10:
                    log("run.py: warning: %s tail percentile has only %d samples beyond it"
                        % (w, beyond))
                coverage = result["metrics"]["trace.coverage_pct"]["value"]
                # At smoke scale a query takes microseconds and fixed costs swamp it.
                if not args.smoke and not 90 <= coverage <= 110:
                    log("run.py: warning: %s trace.coverage_pct is %.1f, outside 90-110: "
                        "the spans no longer account for the traced path" % (w, coverage))
            if args.smoke:
                ok = smoke_check(w, result) and ok
            run["workloads"][w] = {key: result[key] for key in ("attempted", "failed", "metrics")}
            provenance = result["provenance"]
        runs.append(run)

    attempted = sum(r["workloads"][w]["attempted"] for r in runs for w in workloads)
    failed = sum(r["workloads"][w]["failed"] for r in runs for w in workloads)
    summary = summarize(runs, workloads)
    if len(workloads) == 1 and len(runs) == 1:
        metrics = {m: runs[0]["workloads"][workloads[0]]["metrics"][m] for m in metric_names}
    else:
        metrics = {"%s.%s" % (w, m): {"value": summary[w][m]["median"], "unit": summary[w][m]["unit"]}
                   for w in workloads for m in metric_names}

    if args.out:
        out = Path(args.out)
        del provenance["seed"]
        provenance.update(git_sha=git_sha(), workloads=workloads, trace=bool(args.trace),
                          smoke=args.smoke)
        kept = runs
        if args.append and out.exists():
            old = json.loads(out.read_text())
            differ = [k for k in provenance if old["provenance"].get(k) != provenance[k]]
            if differ:
                sys.exit("run.py: %s holds runs with another %s" % (out, ", ".join(differ)))
            kept = old["runs"] + runs
        provenance["seeds"] = [r["seed"] for r in kept]
        out.write_text(json.dumps({"provenance": provenance, "runs": kept,
                                   "summary": summarize(kept, workloads)},
                                  indent=1) + "\n")
        log("run.py: wrote %s" % out)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct or not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
