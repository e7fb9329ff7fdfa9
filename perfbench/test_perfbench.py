#!/usr/bin/env python3
"""Self-test of the benchmark: short smoke runs of every workload, traced
runs, the correctness gate failing on a tampered response, a run stopped by
SIGTERM, a checkout without sources failing fast, and no server process left
behind by any of them.

Usage (from the repository root): python3 perfbench/test_perfbench.py
Everything it writes stays under .bench_build/.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=ROOT, timeout=400):
    """One run; a run that found the machine too unsteady to measure (exit
    4, no result) is repeated up to twice."""
    t0 = time.time()
    for _ in range(3):
        p = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                           timeout=timeout, capture_output=True, text=True)
        if p.returncode != 4:
            break
        print("note: machine unsteady, repeating: " + " ".join(args),
              flush=True)
    return p, time.time() - t0


def result_of(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def detail_of(p):
    for line in p.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return {}


def leftover_servers():
    """Live processes running a benchmark-built uavdc binary."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if ".bench_build/cmake/tools/uavdc" in cmd:
            found.append(pid + " " + cmd)
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    with open(os.path.join(HERE, "workloads.json")) as f:
        names = list(json.load(f)["workloads"])  # hand-run ones too
    volume = {}
    for name in names:
        p, secs = run(["--workload", name, "--seed", "3", "--seconds", "2",
                       "--trace", "0"])
        r = result_of(p)
        if r and "volume_mb" in r["metrics"]:
            volume[name] = r["metrics"]["volume_mb"]["value"]
        expect(p.returncode == 0 and r and r["correct"] and r["failed"] == 0,
               "%s smoke run is correct (exit %d, %.0f s)" % (name, p.returncode, secs))
        expect(r is not None and
               {k: v["unit"] for k, v in r["metrics"].items()} == e2e,
               "%s prints every end-to-end metric with its unit" % name)
        expect(not leftover_servers(), "%s leaves no server behind" % name)

    # volume_mb covers a fixed set of requests, so a run of another length
    # (and request count) reads exactly the same.
    p, _ = run(["--workload", "cold_paper", "--seed", "3", "--seconds", "4",
                "--trace", "0"])
    r = result_of(p)
    expect(r is not None and "cold_paper" in volume and
           r["metrics"]["volume_mb"]["value"] == volume["cold_paper"],
           "cold_paper volume_mb does not depend on the run's length")

    traced = {}
    for name in ("warm_hits", "cold_paper"):
        p, _ = run(["--workload", name, "--seed", "3", "--seconds", "2",
                    "--trace", "1"])
        r = result_of(p)
        expect(p.returncode == 0 and r and
               {k: v["unit"] for k, v in r["metrics"].items()} == layers,
               "%s traced run prints every per-layer metric with its unit" % name)
        traced[name] = (r["metrics"] if r else {}, detail_of(p))
        expect(r is not None and r["correct"] and "trace:" not in p.stderr,
               "%s replay answers every request with the servers' bytes" % name)
    m, det = traced["warm_hits"]
    expect(det.get("trace.measured_plan_calls") == 0 and
           det.get("trace.replayed", 0) > det.get("trace.setup_requests", 0),
           "warm_hits measured requests never reach a planner in the replay")
    m, det = traced["cold_paper"]
    if m:
        plan_ms = sum(m["core.plan_ms." + a]["value"]
                      for a in ("alg1", "alg2", "alg3", "benchmark")) / 4
        core_ms = m["core.context_build_ms"]["value"] + plan_ms
        expect(core_ms > 0.5 * m["service.exec_ms"]["value"],
               "cold_paper: context build and planning (%.2f ms) are most of "
               "exec_ms (%.2f ms)" % (core_ms, m["service.exec_ms"]["value"]))
    expect(not leftover_servers(), "traced runs leave no server behind")

    p, _ = run(["--workload", "warm_hits", "--seed", "3", "--seconds", "2",
                "--trace", "0", "--tamper", "1"])
    r = result_of(p)
    expect(p.returncode != 0 and r is not None and not r["correct"] and
           r["failed"] >= 1 and "FAIL id" in p.stderr,
           "a tampered response fails the gate with a named reason")
    expect(not leftover_servers(), "the failed run leaves no server behind")

    t0 = time.time()
    proc = subprocess.Popen([sys.executable, RUN, "--workload", "cold_paper",
                             "--seed", "3", "--seconds", "30", "--trace", "0"],
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    time.sleep(8)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    expect(proc.returncode != 0 and not out.strip().endswith("}}") and
           time.time() - t0 < 60,
           "SIGTERM stops a run without a result (exit %s)" % proc.returncode)
    expect(not leftover_servers(), "the stopped run leaves no server behind")

    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "warm_hits", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "without sources the run fails fast and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
