#!/usr/bin/env bash
# Regenerate the full-mode benchmark baselines that EXPERIMENTS.md cites
# (bench/BENCH_{planners,kernels,reduction}.json) in one command.
#
#   scripts/rebaseline.sh [build-dir]
#
# Runs the three tracked --baseline_out binaries (micro_planners,
# micro_kernels, micro_reduction) at full scale. Run this on a quiet machine
# after an intentional perf change, eyeball the diff, and commit the JSON
# alongside the change. These files are a record, not a gate: a perf change
# is judged by `scripts/perf_gate.py <parent>`, base against head on one
# machine.
#
# The build dir must be an existing Release configuration (the default
# `cmake -S . -B build -DCMAKE_BUILD_TYPE=Release && cmake --build build`).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

build_dir="${1:-build}"
if [ ! -d "$build_dir/bench" ]; then
    echo "rebaseline.sh: $build_dir/bench not found — build the Release" \
         "tree first (cmake --build $build_dir)" >&2
    exit 1
fi

for name in planners kernels reduction; do
    tool="$build_dir/bench/micro_$name"
    if [ ! -x "$tool" ]; then
        echo "rebaseline.sh: $tool not built" >&2
        exit 1
    fi
    echo "== micro_$name (full) =="
    "$tool" --baseline_out="bench/BENCH_${name}.json"
done

echo "rebaselined: bench/BENCH_{planners,kernels,reduction}.json"
