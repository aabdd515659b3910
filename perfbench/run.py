#!/usr/bin/env python3
"""Repository benchmark for the adaptive-paging gang-scheduling simulator.

Builds the simulator library and the perfbench binary from source (into
.bench_build/ at the repository root), runs one workload from a seed, checks
the simulated outcomes and prints the metrics.

    python3 perfbench/run.py --workload serial_paging --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload open_stream --seed 7 --trace 1
    python3 perfbench/run.py --selftest      # arithmetic unit tests

Workloads, metrics, units and directions are listed in BENCHMARK.json.
--trace 0 reports the end-to-end metrics (tracing off); --trace 1 makes the
separate traced run and reports the per-layer metrics.

Standard output: report lines starting with '#' (seed, host and build
metadata, model metrics, per-run host times, failed configs), then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. The perfbench binary writes its results to a file, and its stdout and
stderr (including every library log line) are passed to this script's
stderr, so logs never share a stream with the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target` (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so runs of the same
    code can be matched even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fmt(value):
    return repr(float(value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        return subprocess.run([tests]).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    out_path = os.path.join(BUILD_DIR, "result-%d.json" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("perfbench exited with %d" % proc.returncode)
        with open(out_path) as f:
            result = json.load(f)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)

    b = result["build"]
    print("# perfbench workload=%s seed=%d trace=%d passes=%d"
          % (result["workload"], result["seed"], result["trace"],
             result["passes"]))
    print("# host nproc=%d cpu=%s" % (os.cpu_count() or 0, json.dumps(cpu_model())))
    print("# build compiler=%s type=%s flags=%s"
          % (json.dumps(b["compiler"]), b["build_type"], json.dumps(b["flags"])))
    print("# source commit=%s sha256=%s" % (git_commit(), source_digest()))
    for m in result["model"]:
        print("# model %s %s %s" % (m["name"], fmt(m["value"]), m["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    print("# model runs_failed_frac %s share" % fmt(failed / max(1, attempted)))
    for r in result["runs"]:
        print("# run %s host_s=%s makespan_s=%s digest=%s %s"
              % (r["name"], fmt(r["host_s"]), fmt(r["makespan_s"]),
                 r["digest"], r["verdict"]))
    for failure in result["failures"]:
        print("# FAILED %s" % failure)

    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in result["metrics"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
