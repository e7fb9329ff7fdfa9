#!/usr/bin/env bash
# End-to-end TCP transport smoke: a router with 2 managed shards serves a
# loadgen workload; the captured responses must be byte-identical (modulo
# queue_ms/exec_ms) to the same workload piped through the JSONL path, and
# a SIGTERM must drain the whole tree cleanly (exit 0).
#
# Usage: scripts/transport_smoke.sh [BUILD_DIR] [REQUESTS]
set -euo pipefail

BUILD=${1:-build}
REQUESTS=${2:-2000}
UAVDC=$BUILD/tools/uavdc
[ -x "$UAVDC" ] || { echo "transport_smoke: $UAVDC not built" >&2; exit 1; }

TMP=$(mktemp -d)
ROUTER_PID=""
# SIGKILLs each given pid that is still a uavdc process (a pid may have
# been reused since it was read).
kill_uavdc() {
    for pid in "$@"; do
        [ "$(ps -o comm= -p "$pid" 2>/dev/null)" = uavdc ] &&
            kill -9 "$pid" 2>/dev/null || true
    done
}
# On any exit: SIGTERM the router first (it drains and stops its shards),
# then SIGKILL whatever is left of the tree after five seconds, so a failed
# step leaves no orphaned shard behind.
cleanup() {
    if [ -n "$ROUTER_PID" ]; then
        local kids
        kids=$(pgrep -P "$ROUTER_PID" || true)
        kill -TERM "$ROUTER_PID" 2>/dev/null || true
        for _ in $(seq 1 50); do
            kill -0 "$ROUTER_PID" 2>/dev/null || break
            sleep 0.1
        done
        kids="$kids $(pgrep -P "$ROUTER_PID" || true)"
        kill_uavdc "$ROUTER_PID" $kids
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== router + 2 managed shards =="
mkdir -p "$TMP/repos"
"$UAVDC" route --shards=2 --port=0 --announce --repo-dir="$TMP/repos" \
    > "$TMP/route.out" 2> "$TMP/route.err" &
ROUTER_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT=$(awk '/^LISTENING /{print $2; exit}' "$TMP/route.out" || true)
    [ -n "$PORT" ] && break
    kill -0 "$ROUTER_PID" 2>/dev/null || {
        echo "transport_smoke: router died during startup" >&2
        cat "$TMP/route.err" >&2
        exit 1
    }
    sleep 0.1
done
[ -n "$PORT" ] || { echo "transport_smoke: no LISTENING line" >&2; exit 1; }
echo "router listening on port $PORT"

echo "== loadgen ($REQUESTS requests) =="
"$UAVDC" loadgen --connect=127.0.0.1:"$PORT" --requests="$REQUESTS" \
    --connections=8 --pipeline=32 \
    --capture-out="$TMP/tcp_responses.jsonl" \
    --emit-jsonl="$TMP/reference_workload.jsonl" \
    > "$TMP/loadgen.json"
python3 - "$TMP/loadgen.json" "$REQUESTS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
want = int(sys.argv[2])
assert doc["received"] == want, (doc["received"], want)
assert doc["errors"] == 0, doc["errors"]
assert not doc["timed_out"]
print(f"loadgen: {doc['received']} responses, {doc['rps']:.0f} req/s, "
      f"p99 {doc['latency_ms']['p99_ms']:.2f} ms")
EOF

echo "== same workload through the JSONL path =="
# The raw stdin path has no connection backpressure, so give the admission
# queue room for the whole stream.
"$UAVDC" serve --queue=$((REQUESTS + 64)) < "$TMP/reference_workload.jsonl" \
    > "$TMP/jsonl_responses.jsonl" 2> /dev/null

echo "== payload diff (TCP vs JSONL) =="
python3 "$(dirname "$0")/diff_responses.py" \
    "$TMP/tcp_responses.jsonl" "$TMP/jsonl_responses.jsonl"

echo "== graceful SIGTERM drain =="
kill -TERM "$ROUTER_PID"
RC=0
wait "$ROUTER_PID" || RC=$?
ROUTER_PID=""
grep "route: drained" "$TMP/route.err" >&2 || true
if [ "$RC" -ne 0 ]; then
    echo "transport_smoke: router exited $RC on SIGTERM" >&2
    cat "$TMP/route.err" >&2
    exit 1
fi

echo "transport_smoke: OK"
