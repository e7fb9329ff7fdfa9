#!/usr/bin/env bash
# Crash drill: kill -9 a shard mid-load and prove no acknowledged work is
# lost. A router with 2 managed shards serves a pipelined loadgen run; one
# shard is SIGKILLed while requests are in flight. The router must resend
# that shard's pending requests after respawning it, the client must still
# receive every response with zero errors, and the router's final summary
# must show the retries and the respawn. The responses must also be the
# bytes the JSONL path gives for the same workload (cache_hit aside: the
# respawned shard answers from its reloaded repository), so a response
# replayed from the repository that changed by a byte fails the drill.
#
# Usage: scripts/shard_kill_drill.sh [BUILD_DIR] [REQUESTS]
set -euo pipefail

BUILD=${1:-build}
REQUESTS=${2:-20000}
UAVDC=$BUILD/tools/uavdc
[ -x "$UAVDC" ] || { echo "shard_kill_drill: $UAVDC not built" >&2; exit 1; }

TMP=$(mktemp -d)
ROUTER_PID=""
LOADGEN_PID=""
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
    [ -n "$LOADGEN_PID" ] && kill_uavdc "$LOADGEN_PID"
    rm -rf "$TMP"
}
trap cleanup EXIT

# The per-shard repository is what makes SIGKILL lossless: the respawned
# shard reloads its registered instances and cached plans from the
# append-only log before taking resent traffic.
mkdir -p "$TMP/repos"
"$UAVDC" route --shards=2 --port=0 --announce --repo-dir="$TMP/repos" \
    > "$TMP/route.out" 2> "$TMP/route.err" &
ROUTER_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT=$(awk '/^LISTENING /{print $2; exit}' "$TMP/route.out" || true)
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "shard_kill_drill: no LISTENING line" >&2; exit 1; }

# Shards are direct children of the router process.
SHARDS=$(pgrep -P "$ROUTER_PID" || true)
[ -n "$SHARDS" ] || { echo "shard_kill_drill: no shard children" >&2; exit 1; }
VICTIM=$(echo "$SHARDS" | head -1)
echo "router $ROUTER_PID on port $PORT, shards: $(echo $SHARDS | tr '\n' ' ')"

"$UAVDC" loadgen --connect=127.0.0.1:"$PORT" --requests="$REQUESTS" \
    --connections=8 --pipeline=32 \
    --capture-out="$TMP/tcp_responses.jsonl" \
    --emit-jsonl="$TMP/reference_workload.jsonl" > "$TMP/loadgen.json" &
LOADGEN_PID=$!

# Let the pipeline fill, then SIGKILL one shard mid-flight.
sleep 0.1
kill -9 "$VICTIM"
echo "killed shard $VICTIM mid-load"

RC=0
wait "$LOADGEN_PID" || RC=$?
LOADGEN_PID=""
if [ "$RC" -ne 0 ]; then
    echo "shard_kill_drill: loadgen exited $RC" >&2
    cat "$TMP/loadgen.json" >&2
    exit 1
fi
python3 - "$TMP/loadgen.json" "$REQUESTS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
want = int(sys.argv[2])
assert doc["received"] == want, f"lost responses: {doc['received']}/{want}"
assert doc["errors"] == 0, f"{doc['errors']} error responses"
print(f"loadgen survived the kill: {doc['received']}/{want} responses, "
      f"0 errors, {doc['rps']:.0f} req/s")
EOF

# The same workload through the JSONL path; the raw stdin path has no
# connection backpressure, so give the admission queue the whole stream.
"$UAVDC" serve --queue=$((REQUESTS + 64)) < "$TMP/reference_workload.jsonl" \
    > "$TMP/jsonl_responses.jsonl" 2> /dev/null
python3 "$(dirname "$0")/diff_responses.py" --ignore-cache-hit \
    "$TMP/tcp_responses.jsonl" "$TMP/jsonl_responses.jsonl"

kill -TERM "$ROUTER_PID"
RC=0
wait "$ROUTER_PID" || RC=$?
ROUTER_PID=""
SUMMARY=$(grep "route: drained" "$TMP/route.err" || true)
echo "$SUMMARY"
if [ "$RC" -ne 0 ]; then
    echo "shard_kill_drill: router exited $RC after drain" >&2
    exit 1
fi
case "$SUMMARY" in
    *" 0 shard respawns"*)
        echo "shard_kill_drill: router never respawned the shard" >&2
        exit 1 ;;
    *"shard respawns"*) ;;
    *)
        echo "shard_kill_drill: no drain summary from router" >&2
        exit 1 ;;
esac

echo "shard_kill_drill: OK"
