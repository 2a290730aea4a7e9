#!/usr/bin/env python3
"""Compares two sets of e2ebench results (e.g. parent commit vs change).

    python3 e2ebench/compare.py BASE NEW

BASE and NEW are directories of result files as run.py writes them
(.bench_build/results/*.json); only untraced runs (--trace 0) are compared.
For every workload and every end_to_end metric of BENCHMARK.json, the median
of NEW may be worse than the median of BASE by at most the metric's bound;
the share of failed requests may not rise at all. Results whose machine or
build stamps differ (nproc, CPU model, compiler, build type) are not
compared: the stamps are reported instead, and so are invalid runs (the
load generator fell behind; their files carry no metrics). Exit status: 0 no
regression, 1 regression, 2 the two sets cannot be compared.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Stamp fields that must agree for a comparison to mean anything. The commit
# (git_describe) and the seed are what a comparison varies.
MACHINE_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load_results(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        if result.get("trace") == 0:
            results.append(result)
    return results


def machine(results):
    return {tuple((k, str(r["stamp"].get(k))) for k in MACHINE_KEYS) for r in results}


def compare(base, new, spec):
    """Returns (regressions, notes, stamp_problems), each a list of lines."""
    stamp_problems = []
    for side, results in (("base", base), ("new", new)):
        for r in results:
            if r.get("invalid"):
                stamp_problems.append("%s has an invalid run (%s seed %s): %s" %
                                      (side, r["workload"], r["seed"], "; ".join(r["invalid"])))
    if stamp_problems:
        return [], [], stamp_problems
    base_machine, new_machine = machine(base), machine(new)
    for side, stamps in (("base", base_machine), ("new", new_machine)):
        if len(stamps) > 1:
            stamp_problems.append("%s mixes machine/build stamps: %s" % (side, sorted(stamps)))
    if not stamp_problems and base_machine != new_machine:
        stamp_problems.append("stamps differ: base %s, new %s" %
                              (sorted(base_machine), sorted(new_machine)))
    if stamp_problems:
        return [], [], stamp_problems

    regressions, notes = [], []
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            regressions.append("%s: results on one side only" % workload)
            continue
        if sorted(r["seed"] for r in b) != sorted(r["seed"] for r in n):
            notes.append("%s: the two sides ran different seeds" % workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_med = statistics.median(r["metrics"][name]["value"] for r in b)
            n_med = statistics.median(r["metrics"][name]["value"] for r in n)
            if b_med == 0:
                notes.append("%s %s: base median is 0, not compared" % (workload, name))
                continue
            change = (n_med - b_med) / b_med
            worse = change if metric["better"] == "lower" else -change
            line = "%s %s: %.6g -> %.6g %s (%+.1f%%, bound %.0f%%)" % (
                workload, name, b_med, n_med, metric["unit"], 100 * change,
                100 * metric["bound"])
            (regressions if worse > metric["bound"] else notes).append(line)
        # Failures are compared as totals: one failing run is enough.
        b_err = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        n_err = sum(r["failed"] for r in n) / max(1, sum(r["attempted"] for r in n))
        line = "%s error_rate: %.6g -> %.6g" % (workload, b_err, n_err)
        (regressions if n_err > b_err else notes).append(line)
    return regressions, notes, []


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_results(argv[1]), load_results(argv[2])
    if not base or not new:
        print("no untraced results in %s" % (argv[1] if not base else argv[2]))
        return 2
    regressions, notes, stamp_problems = compare(base, new, spec)
    for line in stamp_problems:
        print("NOT COMPARED: " + line)
    for line in notes:
        print("ok: " + line)
    for line in regressions:
        print("REGRESSION: " + line)
    if stamp_problems:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
