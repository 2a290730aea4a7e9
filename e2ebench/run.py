#!/usr/bin/env python3
"""End-to-end benchmark of qagview_server: build, inputs, one run, result.

Run from the root of a qagview checkout:

    python3 e2ebench/run.py --workload explore --seed 1 --seconds 10 --trace 0

It builds qagview_server and the load generator (Release, under
.bench_build/ or $CARGO_TARGET_DIR), writes the seed's inputs once, runs the
workload, prints every metric with its unit and sample count, writes the full
result (with the machine and build stamp) to .bench_build/results/, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with --trace 1
its per_layer ones. See e2ebench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "new_query", "exact_query", "ingest")
RUN_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target", "qagview_server",
                    "e2ebench_driver"], check=True, stdout=sys.stderr)
    return (os.path.join(cmake_dir, "e2ebench_driver"),
            os.path.join(cmake_dir, "qagview_server"))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_describe(root):
    try:
        out = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(HERE)
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("e2ebench: no qagview sources next to e2ebench/ (src/CMakeLists.txt missing)")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    driver, server = build(root, build_dir)
    inputs = os.path.join(build_dir, "inputs", "seed-%d" % args.seed)
    os.makedirs(os.path.dirname(inputs), exist_ok=True)
    subprocess.run([driver, "gen", "--seed", str(args.seed), "--inputs", inputs], check=True)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    command = [driver, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inputs", inputs, "--server", server]
    if args.trace:
        command += ["--trace-file", stem + ".spans.json"]
    # e2ebench_driver and the server it spawns share a new process group, so a
    # run that overstays its time leaves nothing behind.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("e2ebench: the run took longer than %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("e2ebench: e2ebench_driver failed (exit %d)" % proc.returncode)
        return 1
    raw = json.loads(stdout.strip().splitlines()[-1])
    if raw["invalid"]:
        # The latencies of a run whose load generator fell behind (or that
        # was too short to read its memory peak) mean nothing: none are
        # printed or stored, and compare.py refuses the result file.
        raw["metrics"] = {}

    attempted, failed = raw["attempted"], raw["failed"]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "stamp": dict(raw["stamp"], cpu_model=cpu_model(), git_describe=git_describe(root),
                      seed=args.seed),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": raw["problems"], "invalid": raw["invalid"],
        "unsupported_percentiles": raw["unsupported_percentiles"],
        "metrics": raw["metrics"],
    }
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print("e2ebench %s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("stamp: " + json.dumps(result["stamp"], sort_keys=True))
    for name, m in sorted(raw["metrics"].items()):
        flag = "  (fewer than 10 samples beyond)" if name in raw["unsupported_percentiles"] else ""
        print("  %-34s %14.6g %-9s n=%d%s" % (name, m["value"], m["unit"], m["samples"], flag))
    print("  %-34s %14.6g %-9s n=%d" % ("error_rate", result["error_rate"], "fraction",
                                         attempted))
    for problem in raw["problems"]:
        print("  problem: " + problem)
    print("result file: " + os.path.relpath(stem + ".json", root))
    if raw["invalid"]:
        for why in raw["invalid"]:
            log("e2ebench: invalid run: " + why)
        return 3

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in raw["metrics"]]
    if missing:
        log("e2ebench: metrics missing from the run: " + ", ".join(missing))
        return 1
    metrics = {n: {"value": raw["metrics"][n]["value"], "unit": raw["metrics"][n]["unit"]}
               for n in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
