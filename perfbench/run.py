#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload batch-lcs16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds the perfbench binary and the
zaatar-serve daemon from this checkout's sources (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload, checks that the result line names exactly the metrics BENCHMARK.json
lists for the mode (end-to-end with --trace 0, per-layer with --trace 1), and
prints that line last. Exits non-zero, without a result line, if the sources
are missing or the run cannot complete, and non-zero after the result line if
any verdict or output was wrong.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the contract allows 180 s per run


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quietly(cmd):
    """Runs a build step with its output on stderr; stdout stays the result."""
    rc = subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        fail(f"build step failed ({rc}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quietly(["cmake", "--build", build_dir, "--target", "perfbench",
                 "zaatar-serve", "-j", str(os.cpu_count() or 1)])


def run_workload(cmd):
    """Runs the binary in its own process group; returns (rc, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # The daemon dies with its parent; make sure nothing of the group
        # outlives this script.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def check_result(line, metrics_spec):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number")
    want = {m["name"]: m["unit"] for m in metrics_spec}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not math.isfinite(m.get("value")):
            fail(f"metric {name}: {m}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {HERE}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    socket = None
    if args.workload.startswith("serve-"):
        # AF_UNIX paths are short (108 bytes); use one relative to ROOT.
        socket = os.path.relpath(
            os.path.join(build_dir, f"serve-{os.getpid()}.sock"), ROOT)
        if len(socket) > 100:
            socket = f".bench_serve-{os.getpid()}.sock"
        cmd += ["--daemon", os.path.join(build_dir, "zaatar", "apps",
                                         "zaatar-serve"),
                "--socket", socket]

    try:
        rc, out = run_workload(cmd)
    finally:
        if socket is not None and os.path.exists(os.path.join(ROOT, socket)):
            os.unlink(os.path.join(ROOT, socket))
    lines = out.strip().splitlines()
    if rc not in (0, 1) or not lines:
        fail(f"{args.workload} did not complete (exit {rc})")
    result = check_result(
        lines[-1], spec["per_layer" if args.trace else "end_to_end"])
    print("\n".join(lines))
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
