#!/usr/bin/env python3
"""IDES benchmark entry point.

    python3 idesbench/run.py --workload design-paper --seed 1 --seconds 45 --trace 0
    python3 idesbench/run.py --list

Builds the library, ides_serve and the idesbench program from the sources of
this checkout (CMake, Release) into $CARGO_TARGET_DIR (default .bench_build),
runs one workload and echoes its output. The last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--list prints every metric with its unit and direction (BENCHMARK.json),
its workloads and, for a per-layer metric, the end-to-end metric it should
move (metrics.json).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_design():
    """BENCHMARK.json (names, units, directions, workloads) and metrics.json
    (what its fixed schema cannot hold, keyed by metric name); the two must
    name the same metrics."""
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "metrics.json")) as f:
            notes = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the benchmark's design: {}".format(e))
    for kind in ("end_to_end", "per_layer"):
        names = {m["name"] for m in bench[kind]}
        if names != set(notes[kind]):
            fail("BENCHMARK.json and metrics.json disagree on {} metrics: "
                 "{}".format(kind, ", ".join(sorted(names ^ set(notes[kind])))))
    return bench, notes


def list_metrics(bench, notes):
    print("end-to-end (--trace 0):")
    for m in bench["end_to_end"]:
        note = notes["end_to_end"][m["name"]]
        print("  {:<16} {:<6} {:<6} {}  — {}".format(
            m["name"], m["unit"], m["better"], ",".join(note["workloads"]),
            note["meaning"]))
    print("per-layer (--trace 1), layer -> end-to-end metric @ workload:")
    for m in bench["per_layer"]:
        note = notes["per_layer"][m["name"]]
        print("  {:<30} {:<6} {:<6} {:<24} -> {}".format(
            m["name"], m["unit"], m["better"], note["layer"], note["moves"]))
    print("workloads:")
    for w in bench["workloads"]:
        print("  {:<15} {}".format(w["name"], w["why"]))
    for name, w in notes["dropped_workloads"].items():
        print("  {:<15} {}".format(name, w["why"]))
        print("  {:<15} {}".format("", w["why_not"]))
    print("re-check seed (never used while tuning): {}".format(
        notes["recheck_seed"]))


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("build failed: {} (see {})".format(" ".join(cmd),
                                                         log_path))
    return cmake_dir


def main():
    bench, notes = load_design()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()
    if args.list:
        list_metrics(bench, notes)
        return
    if args.workload is None:
        ap.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmake_dir = build(os.path.abspath(build_dir))
    work_dir = os.path.join(os.path.abspath(build_dir), "work")
    cmd = [os.path.join(cmake_dir, "idesbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(cmake_dir, "ides_serve"),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("idesbench timed out")
    out = proc.stdout.decode()
    sys.stdout.write(out)
    if proc.returncode != 0:
        fail("idesbench exited with {}".format(proc.returncode))

    # Every metric BENCHMARK.json declares must be in the result, in its unit.
    result = json.loads(out.strip().splitlines()[-1])
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric missing from the result: " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric {} reported in {}, declared in {}".format(
                m["name"], got["unit"], m["unit"]))


if __name__ == "__main__":
    main()
