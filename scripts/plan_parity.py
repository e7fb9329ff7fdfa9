#!/usr/bin/env python3
"""Check that the working tree serves the same plans as a base commit.

Usage: plan_parity.py BASE

Checks BASE out as perf_gate.py does (a worktree under .perf_gate/base),
builds `uavdc_cli` there and in the working tree, and pipes one input
through `uavdc serve --workers=2 --cache=0` on each side: the serve golden
requests (tests/golden/serve_requests.jsonl) followed by a seeded
`serve-gen` mix over all six planners, its ids prefixed `mix-` to keep
them apart from the golden's and its tiny deadlines taken out so that no
response depends on timing. The two response streams are then
compared with `diff_responses.py --strict-ids`: every id, status, error
and result (plan, stats, fingerprints) must match, timings aside.

Exit codes: 0 identical, 1 any difference, 2 set-up failed.
"""

import os
import re
import subprocess
import sys

from perf_gate import GATE, GateError, ROOT, checkout_base, sh

PLANNERS = "alg1,alg2,alg3,benchmark,kmeans,sweep"
GEN_FLAGS = ["--requests=240", "--instances=8", "--seed=29",
             "--algos=" + PLANNERS]
DEADLINE = re.compile(r'"deadline_ms":[^,}]*,')
ID = re.compile(r'"id":"')


def build(side, tree):
    """Build `uavdc_cli` from `tree`; returns the binary's path."""
    out = os.path.join(GATE, "parity-build-" + side)
    log_path = os.path.join(GATE, "parity-build-%s.log" % side)
    steps = [["cmake", "-S", tree, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
              "--target", "uavdc_cli"]]
    for cmd in steps:
        if sh(cmd, log_path=log_path)[0] != 0:
            raise GateError("%s build failed (see %s)" % (side, log_path))
    return os.path.join(out, "tools", "uavdc")


def serve(uavdc, requests, out_path):
    with open(requests, "rb") as fin, open(out_path, "wb") as fout:
        code = subprocess.run([uavdc, "serve", "--workers=2", "--cache=0"],
                              stdin=fin, stdout=fout).returncode
    if code != 0:
        raise GateError("%s serve exited %d" % (uavdc, code))


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    try:
        sha = checkout_base(argv[0])
        base = build("base", os.path.join(GATE, "base"))
        head = build("head", ROOT)
        code, mix = sh([base, "serve-gen"] + GEN_FLAGS)
        if code != 0:
            raise GateError("serve-gen exited %d" % code)
        requests = os.path.join(GATE, "parity-requests.jsonl")
        with open(os.path.join(ROOT, "tests", "golden",
                               "serve_requests.jsonl")) as f:
            golden = f.read()
        with open(requests, "w") as f:
            f.write(golden + ID.sub('"id":"mix-', DEADLINE.sub("", mix)))
        outs = {}
        for side, uavdc in (("base", base), ("head", head)):
            outs[side] = os.path.join(GATE, "parity-%s.jsonl" % side)
            serve(uavdc, requests, outs[side])
    except GateError as ex:
        print("plan_parity: %s" % ex, file=sys.stderr)
        return 2
    print("plan_parity: base %s, %d request lines" % (
        sha[:12], golden.count("\n") + mix.count("\n")))
    diff = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "diff_responses.py")
    code = subprocess.run([sys.executable, diff, "--strict-ids",
                           outs["base"], outs["head"]]).returncode
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
