#!/usr/bin/env bash
# Appends the repo benchmark's end-to-end results to BENCH_history.jsonl,
# so a number has a trajectory across PRs instead of one overwritten
# snapshot (ROADMAP open item 1(e)).
#
#   scripts/bench_history.sh                          # every workload, seed 1
#   scripts/bench_history.sh --seed 7 ipsec_abilene   # named workloads only
#   scripts/bench_history.sh --repo ../parent --seed 7 ipsec_abilene
#       measure another checkout (the parent of a claimed gain), still
#       appending to this repo's history
#   scripts/bench_history.sh --label f7660b5+wip --seed 7 ipsec_abilene
#       name an uncommitted tree yourself
#
# One `benchmark/run.sh --workload W --seed N --trace 0` process per
# workload; one line per run:
#
#   {"commit": …, "workload": …, "seed": …, "correct": …, "attempted": …,
#    "failed": …, "metrics": {…}}
#
# `commit` is the measured checkout's short HEAD, with `+dirty` when its
# tree differs from it. A run whose output checks fail appends nothing and
# the script stops. CARGO_TARGET_DIR is passed through to run.sh. To
# compare two commits, alternate which one runs first (benchmark/README.md,
# "What this box can resolve").
set -euo pipefail
history="$(cd "$(dirname "$0")/.." && pwd)/BENCH_history.jsonl"
repo="$(dirname "$history")"
seed=1
label=""
workloads=()

while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --repo) repo="$(cd "$2" && pwd)"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        -*) echo "unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done

cd "$repo"
if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD)"
    [ -z "$(git status --porcelain)" ] || label="$label+dirty"
fi
if [ ${#workloads[@]} -eq 0 ]; then
    # BENCHMARK.json's workload entries are the ones that say why.
    mapfile -t workloads < <(grep -B1 '"why":' BENCHMARK.json |
        sed -n 's/.*"name": "\(.*\)",/\1/p')
fi

for workload in "${workloads[@]}"; do
    result="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)"
    case "$result" in
        '{"correct": true,'*) ;;
        *) echo "$workload seed $seed: no passing result line" >&2; exit 1 ;;
    esac
    printf '{"commit": "%s", "workload": "%s", "seed": %s, %s\n' \
        "$label" "$workload" "$seed" "${result#\{}" >>"$history"
    echo "$label $workload seed $seed: $(echo "$result" | grep -o '"fwd_mpps": {"value": [0-9.]*' | grep -o '[0-9.]*$') Mpps" >&2
done
