#!/usr/bin/env python3
"""End-to-end benchmark of the uavdc plan service.

Usage (from the repository root):

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 16 --trace 0

Builds the `uavdc` CLI and `perfbench_tool` from source into `.bench_build/`
(first run only), then runs one measurement of the workload: two TCP shards
and a router are spawned, primed, warmed up, and driven in alternating
open-loop and closed-loop phases, and every response is checked against an
in-process reference. The last stdout line is the JSON result; `--trace 1`
reports the per-layer metrics instead of the end-to-end ones. `--workload
all` runs every workload in turn, each printing its own result line. Workload
parameters live in `perfbench/workloads.json`. Everything the run writes
stays under `.bench_build/`. Exit codes: 0 ok, 1 correctness gate failed,
2 build or set-up error, 3 hard timeout or signal, 4 machine too unsteady
to measure (too little of the run free of hypervisor steal; no result).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 165

_child = None


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_child():
    """Stop the tool and every server it started (one process group)."""
    global _child
    if _child is None or _child.poll() is not None:
        return
    for sig, wait_s in ((signal.SIGTERM, 10), (signal.SIGKILL, 5)):
        try:
            os.killpg(_child.pid, sig)
        except ProcessLookupError:
            break
        try:
            _child.wait(timeout=wait_s)
            break
        except subprocess.TimeoutExpired:
            continue


def on_signal(signum, _frame):
    stop_child()
    fail(3, "stopped by signal %d" % signum)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "uavdc")):
        fail(2, "no uavdc sources at %s; run from a repository checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "uavdc_cli",
                  "perfbench_tool", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail(2, "build failed (%s):\n%s" % (" ".join(cmd[:2]), tail))
    uavdc = os.path.join(CMAKE_DIR, "tools", "uavdc")
    tool = os.path.join(CMAKE_DIR, "bin", "perfbench_tool")
    for path in (uavdc, tool):
        if not os.access(path, os.X_OK):
            fail(2, "build produced no %s" % path)
    return uavdc, tool


def run_workload(name, w, args, uavdc, tool):
    """One run of workload `name`; returns the tool's exit code."""
    out_dir = os.path.join(BUILD, "out", "%s-seed%d-trace%d" % (
        name, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [tool, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--uavdc", uavdc, "--out", out_dir, "--tamper", str(args.tamper)]
    for key in ("open_rps", "open_share", "slo_ms", "window", "setups",
                "replay"):
        cmd += ["--" + key.replace("_", "-"), str(w[key])]

    global _child
    _child = subprocess.Popen(cmd, cwd=out_dir, start_new_session=True)
    try:
        return _child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_child()
        fail(3, "%s run exceeded %d s and was killed" % (name, RUN_TIMEOUT_S))
    finally:
        stop_child()


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads) + ["all"],
                    help="one workload, or `all` to run each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", type=int, choices=(0, 1), default=0,
                    help="corrupt one response to show the gate fails")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    uavdc, tool = build()
    names = list(workloads) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        code = max(code, run_workload(name, workloads[name], args, uavdc, tool))
    sys.exit(code)


if __name__ == "__main__":
    main()
