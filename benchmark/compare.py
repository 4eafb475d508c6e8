#!/usr/bin/env python3
"""Compares two result files of benchmark/run.py --out.

    python3 benchmark/compare.py BASE.json NEW.json

For every workload and end-to-end metric of BENCHMARK.json it prints the
median and quartiles of both sides, the fraction of seed-paired runs NEW
wins (ties count for neither side) and a verdict:

  regressed     NEW's median is worse than BASE's by more than the bound
                (setup_s: and by more than 0.1 s), or the error rate rose;
  improved      NEW's median is better by more than the bound and NEW wins
                at least 9 of every 10 pairs;
  unresolved    the spread between either side's quartiles exceeds the
                bound, and the runs of the two sides overlap;
  within bound  otherwise, and always for a setup_s change of at most
                0.1 s, which is noise.

Result files whose provenance differs in nproc, compiler, build type,
workloads, seeds, run length, scale or mode are refused (exit 2), and so
is a file in which some run lacks one of its workloads. Any regressed
verdict makes the exit code 1.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
MATCHING = ["nproc", "compiler", "build_type", "workloads", "seeds", "seconds", "setups",
            "scale", "trace", "smoke"]
ABS_FLOOR = {"setup_s": 0.1}  # seconds below which a setup change is noise


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    diff = [k for k in MATCHING if base["provenance"].get(k) != new["provenance"].get(k)]
    if diff:
        for k in diff:
            print("provenance %s differs: %r vs %r"
                  % (k, base["provenance"].get(k), new["provenance"].get(k)))
        print("refusing to compare unlike runs")
        sys.exit(2)
    workloads = base["provenance"]["workloads"]
    for path, side in zip(sys.argv[1:], (base, new)):
        if any(sorted(r["workloads"]) != sorted(workloads) for r in side["runs"]):
            print("%s: a run lacks one of the workloads %s" % (path, ", ".join(workloads)))
            sys.exit(2)
    print("base %s   new %s   (%d seed-paired runs)"
          % (base["provenance"]["git_sha"], new["provenance"]["git_sha"], len(base["runs"])))
    row = "%-18s %-16s %12s %25s %12s %25s %7s %6s  %s"
    print(row % ("workload", "metric", "base median", "base q1..q3", "new median",
                 "new q1..q3", "delta", "wins", "verdict"))
    regressed = False
    for w in workloads:
        for m in SPEC["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            b = [r["workloads"][w]["metrics"][name]["value"] for r in base["runs"]]
            n = [r["workloads"][w]["metrics"][name]["value"] for r in new["runs"]]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            gain = (nmed - bmed) / bmed * (1 if higher else -1)  # > 0: NEW better
            wins = sum((y > x) if higher else (y < x) for x, y in zip(b, n)) / len(b)
            noise = abs(nmed - bmed) <= ABS_FLOOR.get(name, 0.0)
            worse = not noise and gain < -bound
            separated = (min(n) > max(b) or max(n) < min(b))
            if noise:
                verdict = "within bound"
            elif max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) > bound and not separated:
                verdict = "unresolved"
            elif worse:
                verdict = "regressed"
            elif gain > bound and wins >= 0.9:
                verdict = "improved"
            else:
                verdict = "within bound"
            regressed |= verdict == "regressed"
            print(row % (w, name, "%.5g" % bmed, "%.5g..%.5g" % (bq1, bq3), "%.5g" % nmed,
                         "%.5g..%.5g" % (nq1, nq3), "%+.1f%%" % (100 * gain),
                         "%.2f" % wins, verdict))

        def error_rate(side):
            runs = [r["workloads"][w] for r in side["runs"]]
            return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))

        be, ne = error_rate(base), error_rate(new)
        verdict = "regressed" if ne > be else "within bound"
        regressed |= ne > be
        print(row % (w, "error_rate", "%.3g" % be, "", "%.3g" % ne, "", "", "", verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
