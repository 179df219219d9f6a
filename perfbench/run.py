#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/src, binary obfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spec-cores --seed 1 --trace 0
    python3 perfbench/run.py --selftest

The simulator library is compiled from the checkout's own sources with
the repository's default build type. Build output goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
traced runs write their spans next to it, under spans/. The last line of
standard output is the JSON result; every other line is human-readable.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"  # the repository's default (CMakeLists.txt)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build():
    """Configure (once) and build obfbench; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "system" / "system.hh"
    ).is_file():
        log(f"simulator sources not found under {ROOT}")
        return None
    build_dir = build_base() / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "obfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir / "obfbench"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="determinism self-test instead of a measured run")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        spans = build_base() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 4
    want = expected_metrics(args.trace)
    if list(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metrics {list(result['metrics'])} do not match "
            f"BENCHMARK.json {want}")
        return 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
