#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object (BENCHMARK.json)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, untraced then traced: every metric by name and unit
#
# Run from the repo root. Exits non-zero if the build or any output check
# fails. See benchmark/README.md.
set -euo pipefail

# Relative to the working directory (the repo root), like the driver's own
# CARGO_TARGET_DIR; benchmark/.cargo/config.toml names the same default for
# cargo commands typed inside benchmark/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
here="$(dirname "${BASH_SOURCE[0]}")"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/rb-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --trace-dir "$CARGO_TARGET_DIR" "$@"
    fi
done

for workload in $("$bin" --list); do
    for trace in 0 1; do
        "$bin" --trace-dir "$CARGO_TARGET_DIR" --workload "$workload" --trace "$trace" "$@"
    done
done
