#!/usr/bin/env python3
"""Judge a performance change: BASE_REF against the working tree, on one
machine, in one run.

Usage (from the repository root):

    python3 scripts/perf_gate.py BASE_REF

BASE_REF is checked out as a git worktree under `.perf_gate/base`; the
working tree is the head. Two sets of measurements, base and head
alternating which goes first:

- micro benches: `micro_planners`, `micro_kernels` and `micro_reduction`,
  built in Release into `.perf_gate/build-{base,head}` and run
  `--baseline_out=... --quick` MICRO_ROUNDS times per side. A case fails
  when its head median is more than MICRO_BOUND times its base median, or
  when it is missing from the head. A bench that aborts (engine or kernel
  mismatch, reduction quality drop) fails.
- end to end: PAIRS pairs of `perfbench/run.py --workload W --seed i` for
  every workload of BENCHMARK.json, both sides of a pair on the same seed.
  Each tree builds perfbench into its own `.bench_build/`. The bounds are
  BENCHMARK.json's `end_to_end` list, applied to the ratio of medians.

`verdict()` holds the whole policy; see its docstring. It prints one table
per micro bench and per workload and writes every raw run to
`.perf_gate/report.json`.

Exit codes mirror perfbench: 0 ok, 1 regression or correctness failure in
the head, 2 base or set-up broken (no verdict), 4 machine too unsteady to
measure (no verdict).
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, ".perf_gate")
BASE_TREE = os.path.join(GATE, "base")

PAIRS = 10
MICRO_ROUNDS = 5
# Head median over base median, per micro case. Single quick runs spread
# up to 3x on one machine; a five-against-five A/A split stays within 1.25x.
MICRO_BOUND = 2.0
MICRO_BENCHES = ("micro_planners", "micro_kernels", "micro_reduction")
# The timed field of each micro case: the first of these it carries.
MICRO_FIELDS = ("incremental_med_s", "batched_med_s", "plan_med_s")
# Reruns of a pair that perfbench found too unsteady to measure (exit 4).
UNSTEADY_RETRIES = 2
# A gain needs the head to win at least this share of the pairs.
GAIN_WINS = 0.9


class GateError(Exception):
    """Set-up failed before a verdict could be reached (exit 2)."""


def log(msg):
    print("perf_gate: " + msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- verdict --

def _iqr(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def _beats(a, b, better):
    return a < b if better == "lower" else a > b


def _micro_value(case):
    for field in MICRO_FIELDS:
        if field in case:
            return case[field]
    return None


def _micro_verdict(base, head, out):
    """Micro benches: runs are {"code": int, "cases": {name: seconds}}."""
    for bench in sorted(base):
        if any(r["code"] != 0 for r in base[bench]):
            out["base_broken"].append("%s: base run exited %s" % (
                bench, [r["code"] for r in base[bench]]))
            continue
        head_runs = head.get(bench, [])
        aborted = [r["code"] for r in head_runs if r["code"] != 0]
        if aborted or not head_runs:
            out["failures"].append("%s: head run aborted (exit %s)" % (
                bench, aborted or "none"))
        rows = []
        for name in sorted({n for r in base[bench] for n in r["cases"]}):
            b = statistics.median([r["cases"][name] for r in base[bench]
                                   if name in r["cases"]])
            hs = [r["cases"][name] for r in head_runs
                  if r["code"] == 0 and name in r["cases"]]
            row = {"case": name, "base": b, "head": None, "ratio": None}
            if not hs:
                row["verdict"] = "missing"
                out["failures"].append("%s %s: missing from head" % (
                    bench, name))
            else:
                row["head"] = statistics.median(hs)
                row["ratio"] = row["head"] / b if b > 0 else float("inf")
                row["verdict"] = "ok"
                if row["ratio"] > MICRO_BOUND:
                    row["verdict"] = "regression"
                    out["failures"].append(
                        "%s %s: head median %.3gs is %.2fx base %.3gs "
                        "(bound %.1fx)" % (bench, name, row["head"],
                                           row["ratio"], b, MICRO_BOUND))
            rows.append(row)
        out["micro"][bench] = rows


def _run_ok(run):
    res = run.get("result")
    return run["code"] == 0 and res is not None and res.get("correct") is True


def _failed_share(runs):
    attempted = sum(r["result"].get("attempted", 0) for r in runs
                    if r.get("result"))
    failed = sum(r["result"].get("failed", 0) for r in runs
                 if r.get("result"))
    return failed / attempted if attempted else 0.0


def _workload_verdict(workload, base_runs, head_runs, bounds, out):
    """perfbench pairs: runs are {"seed": i, "code": int, "result": dict}."""
    broken = [r["seed"] for r in base_runs if not _run_ok(r)]
    if broken:
        out["base_broken"].append(
            "%s: base run failed or incorrect at seed(s) %s" % (
                workload, broken))
        return
    bad = [r["seed"] for r in head_runs if not _run_ok(r)]
    if bad:
        out["failures"].append(
            "%s: head run failed or incorrect at seed(s) %s" % (
                workload, bad))
    pairs = [(b, h) for b, h in zip(base_runs, head_runs) if _run_ok(h)]
    if not pairs:
        out["failures"].append("%s: no head run to compare" % workload)
        return
    base_share = _failed_share(base_runs)
    head_share = _failed_share(head_runs)
    if head_share > base_share:
        out["failures"].append(
            "%s: head failed share %.4g above base %.4g" % (
                workload, head_share, base_share))
    rows = []
    for spec in bounds:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        try:
            bs = [b["result"]["metrics"][name]["value"] for b, _ in pairs]
        except KeyError:
            continue  # a metric the base does not report yet
        try:
            hs = [h["result"]["metrics"][name]["value"] for _, h in pairs]
        except KeyError:
            out["failures"].append("%s %s: missing from head" % (
                workload, name))
            continue
        b_med, h_med = statistics.median(bs), statistics.median(hs)
        b_iqr = _iqr(bs)
        scale = abs(b_med)
        # How much better the head median is (negative: worse), absolute
        # and relative to the base median.
        gain = b_med - h_med if better == "lower" else h_med - b_med
        worse = -gain / scale if scale else (
            0.0 if gain == 0 else math.copysign(math.inf, -gain))
        wins = sum(_beats(h, b, better) for b, h in zip(bs, hs))
        all_beat = all(_beats(h, b, better) for h in hs for b in bs)
        if worse > bound:
            label = "regression"
            out["failures"].append(
                "%s %s: head median %.6g is %.1f%% worse than base %.6g "
                "(bound %.0f%%)" % (workload, name, h_med, 100 * worse,
                                    b_med, 100 * bound))
        elif wins >= GAIN_WINS * len(pairs) and gain > b_iqr:
            label = "gain"
        elif b_iqr > bound * scale and not all_beat:
            label = "unresolved"
        else:
            label = "ok"
        rows.append({"metric": name, "base": b_med, "head": h_med,
                     "delta": (h_med - b_med) / scale if scale else 0.0,
                     "base_iqr": b_iqr, "wins": wins, "pairs": len(pairs),
                     "verdict": label})
    out["perfbench"][workload] = rows


def verdict(base_runs, head_runs, bounds):
    """Judge head against base.

    `base_runs` and `head_runs` each hold {"micro": {bench: [run]},
    "perfbench": {workload: [run]}}. A micro run is {"code", "cases":
    {case: seconds}}; a perfbench run is {"seed", "code", "result"}, the
    result being perfbench's last stdout JSON line (None if it printed
    none). The perfbench lists are paired by index. `bounds` is
    BENCHMARK.json's `end_to_end` list.

    Returns {"code", "failures", "base_broken", "micro", "perfbench"}:
    - code 2 when any base run failed, aborted or was incorrect (no verdict);
    - code 4 when any perfbench run on either side was too unsteady to
      measure (exit 4; no verdict);
    - code 1 when the head fails: a micro case above MICRO_BOUND times its
      base median or missing, a head run that aborts, exits 1 or reports
      `correct: false`, a head failed share above the base's, or an
      end-to-end median worse than the base median by more than its bound;
    - code 0 otherwise.
    Each end-to-end metric reads `regression`, `gain` (head wins at least
    GAIN_WINS of the pairs and the medians differ by more than the base
    IQR; reported, never required), `unresolved` (the base IQR is wider
    than bound x base median and the head does not beat every base run;
    does not fail) or `ok`.
    """
    out = {"code": 0, "failures": [], "base_broken": [], "micro": {},
           "perfbench": {}}
    unsteady = [
        "%s %s seed %s" % (side, w, r["seed"])
        for side, runs in (("base", base_runs), ("head", head_runs))
        for w, rs in runs.get("perfbench", {}).items()
        for r in rs if r["code"] == 4]
    _micro_verdict(base_runs.get("micro", {}), head_runs.get("micro", {}),
                   out)
    for w, rs in sorted(base_runs.get("perfbench", {}).items()):
        if unsteady:
            break
        _workload_verdict(w, rs, head_runs.get("perfbench", {}).get(w, []),
                          bounds, out)
    if out["base_broken"]:
        out["code"] = 2
    elif unsteady:
        out["code"] = 4
        out["failures"] = ["machine too unsteady: " + ", ".join(unsteady)]
    elif out["failures"]:
        out["code"] = 1
    return out


def _fmt(x):
    return "-" if x is None else "%.4g" % x


def print_verdict(v):
    for bench, rows in sorted(v["micro"].items()):
        print("\n%s (median of %d quick runs per side, bound %.1fx)" % (
            bench, MICRO_ROUNDS, MICRO_BOUND))
        print("%-24s %12s %12s %7s  %s" % ("case", "base s", "head s",
                                           "ratio", "verdict"))
        for r in rows:
            print("%-24s %12s %12s %7s  %s" % (
                r["case"], _fmt(r["base"]), _fmt(r["head"]),
                "-" if r["ratio"] is None else "%.2f" % r["ratio"],
                r["verdict"]))
    for w, rows in sorted(v["perfbench"].items()):
        print("\n%s (medians over %d pairs)" % (
            w, rows[0]["pairs"] if rows else 0))
        print("%-16s %12s %12s %8s %11s %5s  %s" % (
            "metric", "base", "head", "delta", "base IQR", "wins",
            "verdict"))
        for r in rows:
            print("%-16s %12.6g %12.6g %+7.1f%% %11.4g %2d/%-2d  %s" % (
                r["metric"], r["base"], r["head"], 100 * r["delta"],
                r["base_iqr"], r["wins"], r["pairs"], r["verdict"]))
    print()
    for msg in v["base_broken"]:
        print("BASE BROKEN: " + msg)
    for msg in v["failures"]:
        print("FAIL: " + msg)
    print({0: "OK: no perf regression",
           1: "FAIL: the head regressed",
           2: "NO VERDICT: the base is broken",
           4: "NO VERDICT: the machine is too unsteady"}[v["code"]])


# ---------------------------------------------------------------- runner --

def sh(cmd, cwd=ROOT, log_path=None):
    """Run `cmd`; returns (exit code, stdout text)."""
    if log_path is None:
        p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
        return p.returncode, p.stdout
    with open(log_path, "a") as f:
        p = subprocess.run(cmd, cwd=cwd, stdout=f, stderr=subprocess.STDOUT)
    return p.returncode, ""


def checkout_base(ref):
    code, sha = sh(["git", "rev-parse", "--verify", ref + "^{commit}"])
    if code != 0:
        raise GateError("cannot resolve %s" % ref)
    sha = sha.strip()
    os.makedirs(GATE, exist_ok=True)
    code, top = sh(["git", "-C", BASE_TREE, "rev-parse", "--show-toplevel"]) \
        if os.path.isfile(os.path.join(BASE_TREE, ".git")) else (1, "")
    if code == 0 and os.path.realpath(top.strip()) == \
            os.path.realpath(BASE_TREE):
        # Reuse the worktree, and with it the base's perfbench build.
        cmd = ["git", "-C", BASE_TREE, "checkout", "--detach", "--force", sha]
    else:
        shutil.rmtree(BASE_TREE, ignore_errors=True)
        sh(["git", "worktree", "prune"])
        cmd = ["git", "worktree", "add", "--detach", "--force", BASE_TREE, sha]
    if sh(cmd, log_path=os.path.join(GATE, "git.log"))[0] != 0:
        raise GateError("cannot check %s out under %s (see %s)" % (
            ref, BASE_TREE, os.path.join(GATE, "git.log")))
    return sha


def build_micro(side, tree):
    build = os.path.join(GATE, "build-" + side)
    log_path = os.path.join(GATE, "build-%s.log" % side)
    log("building %s micro benches in %s" % (side, build))
    steps = [["cmake", "-S", tree, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
              "--target"] + list(MICRO_BENCHES)]
    for cmd in steps:
        if sh(cmd, log_path=log_path)[0] != 0:
            raise GateError("%s build failed (see %s)" % (side, log_path))
    return os.path.join(build, "bench")


def run_micro(side, bin_dir, bench, rnd):
    path = os.path.join(GATE, "micro", "%s-%s-%d.json" % (side, bench, rnd))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    code, _ = sh([os.path.join(bin_dir, bench), "--baseline_out=" + path,
                  "--quick"], log_path=os.path.join(GATE, "micro.log"))
    cases = {}
    if code == 0:
        with open(path) as f:
            for case in json.load(f)["cases"]:
                value = _micro_value(case)
                if value is not None:
                    cases[case["name"]] = value
    return {"code": code, "cases": cases}


def run_perfbench(tree, workload, seed):
    code, out = sh([sys.executable, os.path.join("perfbench", "run.py"),
                    "--workload", workload, "--seed", str(seed)], cwd=tree)
    result = None
    for line in reversed(out.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                pass
            break
    return {"seed": seed, "code": code, "result": result}


def order(i):
    return ("base", "head") if i % 2 == 0 else ("head", "base")


def measure(trees):
    runs = {side: {"micro": {}, "perfbench": {}, "discarded": []}
            for side in trees}
    bins = {side: build_micro(side, tree) for side, tree in trees.items()}
    for bench in MICRO_BENCHES:
        for rnd in range(MICRO_ROUNDS):
            for side in order(rnd):
                runs[side]["micro"].setdefault(bench, []).append(
                    run_micro(side, bins[side], bench, rnd))
        log("%s: %d rounds done" % (bench, MICRO_ROUNDS))
    if any(r["code"] != 0 for rs in runs["base"]["micro"].values()
           for r in rs):
        return runs

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for w in workloads:
        for seed in range(1, PAIRS + 1):
            for _ in range(UNSTEADY_RETRIES + 1):
                pair = {side: run_perfbench(trees[side], w, seed)
                        for side in order(seed - 1)}
                if all(r["code"] != 4 for r in pair.values()):
                    break
                log("%s seed %d: too unsteady, rerunning the pair" % (
                    w, seed))
                for side, r in pair.items():
                    runs[side]["discarded"].append(dict(r, workload=w))
            for side, r in pair.items():
                runs[side]["perfbench"].setdefault(w, []).append(r)
            log("%s seed %d: base exit %d, head exit %d" % (
                w, seed, pair["base"]["code"], pair["head"]["code"]))
            if any(r["code"] == 4 for r in pair.values()):
                return runs
            if not _run_ok(pair["base"]):
                return runs
    return runs


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = json.load(f)["end_to_end"]
    report = {"base_ref": argv[1], "pairs": PAIRS,
              "micro_rounds": MICRO_ROUNDS, "micro_bound": MICRO_BOUND}
    try:
        report["base_sha"] = checkout_base(argv[1])
        runs = measure({"base": BASE_TREE, "head": ROOT})
    except GateError as ex:
        log(str(ex))
        return 2
    report["runs"] = runs
    v = verdict(runs["base"], runs["head"], bounds)
    report["verdict"] = v
    with open(os.path.join(GATE, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    print_verdict(v)
    return v["code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
