#!/usr/bin/env python3
"""Byte-level golden of `uavdc serve` responses.

Pipes serve_requests.jsonl through `uavdc serve --workers=1`: inline and
by-ref requests to all six planners (the four paper planners plus the
`kmeans` and `sweep` baselines), alg1 with each of the `grasp`, `greedy`
and `ils` solvers, alg2 with candidate reduction (dominance alone, and
dominance with coarsening and a refine band) and alg3 with k-means
consolidation, each followed by a drain barrier. It drops the barrier
replies, blanks the wall-clock fields `queue_ms`, `exec_ms` and
`runtime_s` textually, and compares what is left byte for byte with
serve_responses.jsonl. Nothing is parsed and dumped again, so number
formatting drift shows.

Usage: check_serve_golden.py UAVDC_BINARY [GOLDEN_DIR] [--write]
Exit codes: 0 identical (or written), 1 any difference.
"""

import os
import re
import subprocess
import sys

TIMING = re.compile(rb'"(queue_ms|exec_ms|runtime_s)":[^,}]*')
BARRIER = re.compile(rb'^\{"id":"barrier-\d+","op":"drain",')


def responses(uavdc, requests):
    with open(requests, "rb") as fh:
        out = subprocess.run([uavdc, "serve", "--workers=1"], stdin=fh,
                             capture_output=True, check=True).stdout
    lines = [l for l in out.split(b"\n") if l and not BARRIER.match(l)]
    return [TIMING.sub(rb'"\1":_', l) for l in lines]


def main():
    args = [a for a in sys.argv[1:] if a != "--write"]
    if not args:
        sys.exit(__doc__)
    uavdc = args[0]
    here = args[1] if len(args) > 1 else os.path.dirname(
        os.path.abspath(__file__))
    golden = os.path.join(here, "serve_responses.jsonl")
    got = responses(uavdc, os.path.join(here, "serve_requests.jsonl"))
    if "--write" in sys.argv:
        with open(golden, "wb") as fh:
            fh.write(b"\n".join(got) + b"\n")
        print(f"wrote {golden}: {len(got)} responses")
        return 0
    with open(golden, "rb") as fh:
        want = fh.read().rstrip(b"\n").split(b"\n")
    if got == want:
        print(f"serve golden: {len(got)} responses byte-identical")
        return 0
    if len(got) != len(want):
        print(f"serve golden: {len(got)} responses, golden has {len(want)}")
    for n, (g, w) in enumerate(zip(got, want), 1):
        if g != w:
            at = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
                      min(len(g), len(w)))
            print(f"serve golden: response {n} differs at byte {at}:\n"
                  f"  got    ...{g[max(0, at - 40):at + 40].decode(errors='replace')}\n"
                  f"  golden ...{w[max(0, at - 40):at + 40].decode(errors='replace')}")
            break
    return 1


if __name__ == "__main__":
    sys.exit(main())
