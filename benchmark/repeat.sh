#!/usr/bin/env bash
# Runs two full untraced sets back to back with the same seed and compares
# them: every end-to-end metric on every workload must agree within its
# bound in BENCHMARK.json, with 0 failed on both sides.
#
#   benchmark/repeat.sh [--seed N] [--seconds S] [--smoke]
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/rb-benchmark"

for set in 1 2; do
    mkdir -p "$CARGO_TARGET_DIR/repeat/set$set"
    for workload in $("$bin" --list); do
        "$bin" --workload "$workload" --trace 0 "$@" \
            | tail -n 1 >"$CARGO_TARGET_DIR/repeat/set$set/$workload.json"
    done
done
exec "$bin" --compare "$here/../BENCHMARK.json" \
    "$CARGO_TARGET_DIR/repeat/set1" "$CARGO_TARGET_DIR/repeat/set2"
