#!/usr/bin/env bash
# The repo benchmark's one entry point: build `mxm` and the two bench
# binaries, then measure.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--out FILE]
#
# Without --workload all four workloads run. Every metric is printed as
# `workload metric value unit n=<samples>`; the last stdout line of each
# run is one JSON object (correct / attempted / failed / metrics), which
# is what BENCHMARK.json's command contract asks for. --trace 1 (or
# --traced) is the per-layer run: span-recorded replays of all four
# workloads, the layer table, and the decomposition with both residuals;
# chrome-trace files land in benchmark/target/work/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# A relative CARGO_TARGET_DIR means "relative to where the caller
# stood"; pin it so both workspaces build into the same place.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"
fi

# Builds are quiet unless they fail; stdout belongs to the results.
build() {
    local log
    if ! log=$(cargo build --release --offline "$@" 2>&1); then
        printf '%s\n' "$log" >&2
        exit 1
    fi
}
build --manifest-path "$root/Cargo.toml" -p mspgemm-cli
build --manifest-path "$root/benchmark/Cargo.toml"

exec "${CARGO_TARGET_DIR:-$root/benchmark/target}/release/mxm-bench" run \
    --mxm "${CARGO_TARGET_DIR:-$root/target}/release/mxm" \
    --layers "${CARGO_TARGET_DIR:-$root/benchmark/target}/release/mxm-bench-layers" \
    --karate data/karate.mtx \
    --work benchmark/target/work \
    --spec BENCHMARK.json \
    "$@"
