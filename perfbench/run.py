#!/usr/bin/env python3
"""Builds and runs the xbench benchmark of the XSLT -> SQL/XML engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library and the xbench program are built
from the checkout's sources into $CARGO_TARGET_DIR (default .bench_build),
then xbench runs with every XDB_* variable removed from its environment. Its
standard output is passed through, and the last line is the JSON result:
BENCHMARK.json owns the metric names and units, and a per-layer metric the
workload does not exercise reads 0. The exit code is non-zero when the build
fails, an output is wrong, or xbench measured a metric BENCHMARK.json does
not name or missed an end-to-end one.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xsltmark-warm", "ingest-query")


def run_timeout_s(seconds):
    """xbench's time limit: its timed phases (cut at 1.25x their calibrated
    length) plus a margin for set-up, references and the durability check."""
    return 1.5 * seconds + 30


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds xbench; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "xbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(cmake_dir, "build.log")
    with open(log_path, "w") as build_log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "xbench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=build_log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(cmake_dir, "xbench")


def catalog(trace):
    """(name, unit) of every metric BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = catalog(args.trace)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to the benchmark (expected src/)")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 2

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("XDB_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("xbench timed out")
        return 1

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("xbench printed no result (exit code %d)" % proc.returncode)
        return 1
    measured = result["metrics"]
    extra = sorted(set(measured) - {name for name, _ in names})
    missing = [name for name, _ in names if name not in measured]
    if extra or (missing and not args.trace):
        log("metrics differ from BENCHMARK.json: extra %s, missing %s" % (
            extra, missing))
        return 1
    if missing:
        log("not exercised by %s, reported as 0: %s" % (
            args.workload, " ".join(missing)))
    result["metrics"] = {name: {"value": measured.get(name, 0), "unit": unit}
                         for name, unit in names}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
