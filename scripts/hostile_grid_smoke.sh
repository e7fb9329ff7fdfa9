#!/usr/bin/env bash
# Hostile-grid serve smoke: requests whose delta-grid is vast (a huge field
# or a tiny delta_m) go through `uavdc serve --workers=1` under a 2 GB
# address-space limit. Every request must get exactly one response with
# its expected status — `ok` when the candidate work is admissible,
# `bad_request` naming the figure when it is not, never `internal_error` —
# and serve must exit 0.
#
# Usage: scripts/hostile_grid_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD=${1:-build}
UAVDC=$BUILD/tools/uavdc
[ -x "$UAVDC" ] || { echo "hostile_grid_smoke: $UAVDC not built" >&2; exit 1; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$UAVDC" generate --preset=paper --devices=300 --seed=5 \
    --out="$TMP/paper.json" > /dev/null

# id -> expected status, one request per line.
python3 - "$TMP/paper.json" > "$TMP/requests.jsonl" <<'EOF'
import json, random, sys

paper = json.load(open(sys.argv[1]))
uav = paper["uav"]

def instance(side, devices):
    return {"name": "hostile", "depot": {"x": 0, "y": 0},
            "region": {"w": side, "h": side}, "uav": uav,
            "devices": [{"x": x, "y": y, "data_mb": 300.0}
                        for x, y in devices]}

rng = random.Random(7)
many = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(500)]
requests = [
    # A one-device field of 1e5 x 1e5 m: 1e8 cells, one disk of them.
    ("wide", "alg2", instance(1.0e5, [(5.0e4, 5.0e4)]), None),
    ("wide_alg1", "alg1", instance(1.0e5, [(5.0e4, 5.0e4)]), None),
    # A one-device paper field at delta 0.05 m: 4e8 cells, ~3e6 pairs.
    ("fine", "alg2", instance(1000.0, [(500.0, 500.0)]), 0.05),
    # 500 devices at delta 0.05 m: over the candidate work bound.
    ("fine_500", "alg2", instance(1000.0, many), 0.05),
    # A 1e7 x 1e7 m field: more cells than int cell ids address.
    ("vast", "alg3", instance(1.0e7, [(5.0e6, 5.0e6)]), None),
    # The sweep baseline's route over a 1e6 x 1e6 m field: 2.2e8 waypoints,
    # over its bound; over a 1e5 m field, 2.2e6 waypoints, planned.
    ("sweep_vast", "sweep", instance(1.0e6, [(5.0e5, 5.0e5)]), None),
    ("sweep_wide", "sweep", instance(1.0e5, [(5.0e4, 5.0e4)]), None),
    # The service still plans a paper-scale instance afterwards.
    ("paper", "alg2", paper, None),
]
for rid, planner, inst, delta in requests:
    req = {"id": rid, "planner": planner, "instance": inst}
    if delta is not None:
        req["options"] = {"delta_m": delta}
    print(json.dumps(req))
EOF

set +e
(
    ulimit -v 2000000
    timeout 60 "$UAVDC" serve --workers=1 < "$TMP/requests.jsonl" \
        > "$TMP/responses.jsonl" 2> "$TMP/serve.err"
)
STATUS=$?
set -e
if [ "$STATUS" -ne 0 ]; then
    echo "hostile_grid_smoke: serve exited $STATUS" >&2
    cat "$TMP/serve.err" >&2
    exit 1
fi

python3 - "$TMP/requests.jsonl" "$TMP/responses.jsonl" <<'EOF'
import json, sys

want = {"wide": "ok", "wide_alg1": "ok", "fine": "ok",
        "fine_500": "bad_request", "vast": "bad_request",
        "sweep_vast": "bad_request", "sweep_wide": "ok", "paper": "ok"}
requests = [json.loads(line) for line in open(sys.argv[1])]
lines = open(sys.argv[2]).read().splitlines()
assert len(lines) == len(requests), (len(lines), len(requests))
got = {}
for line in lines:
    resp = json.loads(line)
    assert resp["id"] not in got, f"duplicate response for {resp['id']}"
    got[resp["id"]] = resp
for rid, status in want.items():
    resp = got[rid]
    assert resp["status"] != "internal_error", (rid, resp.get("error"))
    assert resp["status"] == status, (rid, resp["status"], resp.get("error"))
    if status == "bad_request":
        assert any(ch.isdigit() for ch in resp.get("error", "")), \
            (rid, "error names no figure", resp.get("error"))
    print(f"{rid}: {resp['status']} {resp.get('error', '')}"[:160])
print(f"hostile_grid_smoke: {len(lines)} responses, all as expected")
EOF
