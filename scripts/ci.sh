#!/usr/bin/env bash
# Local CI: everything a PR must pass, in the order fastest-to-fail-last.
#
#   ./scripts/ci.sh          # full gate
#   ./scripts/ci.sh quick    # skip the release build (iterating on tests)
#
# The workspace is fully offline: all external dependencies are vendored
# under vendor/, so no step touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

quick="${1:-}"

# A source file's non-test lines: those above its first `#[cfg(test)]`.
non_test() { awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$cores" -lt 4 ]; then
    echo "WARNING: only $cores core(s) detected (< 4). Multi-threaded" >&2
    echo "         regime comparisons (parallel vs pipeline pps) are"    >&2
    echo "         skipped by the tests; bench numbers for the MT"       >&2
    echo "         runtime will not reflect real per-core scaling."      >&2
fi

# What the crypto tests and the benchmark smoke below exercise depends on
# the CPU: rb-crypto takes AES-NI, the SHA extensions and AVX-512 when it
# finds them.
backend="$(cargo test -q -p rb-crypto --test backends detected_backend -- --nocapture 2>/dev/null |
    grep '^crypto backend:' || echo "crypto backend: unknown (probe test did not run)")"
echo "$backend" >&2
case "$backend" in
    *"avx512 "*) ;;
    *) echo "the crypto backend line does not say whether the AVX-512 lanes ran" >&2; exit 1 ;;
esac

echo "==> detect gate (is_x86_feature_detected! only inside x86.rs's detect())"
# Code lines only; inside x86.rs, only between `fn detect` and its closing brace.
if grep -rn 'is_x86_feature_detected' crates/ examples/ tests/ --include='*.rs' |
    grep -v '^crates/crypto/src/x86\.rs:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "is_x86_feature_detected! outside crates/crypto/src/x86.rs" >&2
    exit 1
fi
awk '
    /^[[:space:]]*\/\// { next }
    /^pub\(crate\) fn detect\(/ { inside = 1 }
    /is_x86_feature_detected/ && !inside {
        printf "%s:%d: is_x86_feature_detected! outside detect()\n", FILENAME, FNR; bad = 1
    }
    inside && /^}/ { inside = 0 }
    END { exit bad }
' crates/crypto/src/x86.rs

echo "==> unsafe gate (rb-crypto: unsafe and core::arch only in x86.rs; every crate: each unsafe under a SAFETY line)"
# Code lines only: comments may talk about `unsafe`; `unsafe_code` in the
# crate's lint attributes is a different word.
unsafe_word='(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)'
if grep -nE "$unsafe_word|(core|std)::arch" crates/crypto/src/*.rs |
    grep -v '^crates/crypto/src/x86\.rs:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "unsafe or core::arch outside crates/crypto/src/x86.rs" >&2
    exit 1
fi
# Every source file that says `unsafe` (x86.rs, pool.rs, spsc.rs, rcu.rs,
# prefetch.rs, cycles.rs today; a new one is gated the day it appears).
grep -rlE "$unsafe_word" crates/*/src --include='*.rs' | xargs awk '
    FNR == 1 { comment = 0; safety = 0 }
    /^[[:space:]]*\/\// { if ($0 ~ /\/\/ SAFETY:/) safety = 1; comment = 1; next }
    /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ && !(comment && safety) {
        printf "%s:%d: unsafe without a // SAFETY: comment directly above\n", FILENAME, FNR
        bad = 1
    }
    { comment = 0; safety = 0 }
    END { exit bad }
'

echo "==> name gate (one Knobs, one run_graph, one worker, one shipper, one container between elements, one paper binary, one benchmark, one DIR-24-8 sweep: the collapsed names stay gone)"
if grep -rnE 'GraphRunOpts|RuntimeKnobs|StageFn|run_graph_(parallel|spsc|pipeline|pull|regime)|run_(parallel|shared_queue|spsc_rings)\b|(Push|Spsc|Pipeline|PullCredit)Scheduler|preloaded_worker|streaming_worker|pull_worker|ship_egress|forward_stage_frames|_with_events\b|group_ports' \
    crates/ examples/ tests/; then
    echo "a knob struct, MT entry point, scheduler type, worker body, shipper, X_with_events fork or regroup pass that PRs 21-24 collapsed is back" >&2
    exit 1
fi
# `Output` is per-port batches; the pair list survives only as the
# reference in element.rs's tests.
if grep -n 'Vec<(usize, Packet)>' <(non_test crates/click/src/element.rs); then
    echo "crates/click/src/element.rs holds a (port, packet) pair list again" >&2
    exit 1
fi
# Since PR 26 the smoke checks are `cargo test` tests and one `paper`
# binary prints every table and figure.
if find crates -path '*/src/bin/*' \( -name '*_smoke.rs' -o -name 'fig*.rs' -o -name 'table*.rs' \) | grep .; then
    echo "a *_smoke or per-figure binary is back: smoke checks are tests, figures are \`paper <name>\`" >&2
    exit 1
fi

# There is one benchmark: the deleted second one's measured tables are
# `paper table1` and `paper regimes`, its asserts are tests, and its binary,
# script and JSON stay gone (the brackets keep this file from matching).
gone='[b]ench_dataplane|[B]ENCH_dataplane|scripts/[b]ench\.sh'
if grep -rnE "$gone" crates/ examples/ tests/ scripts/ README.md DESIGN.md ||
    find . scripts crates/bench/src/bin -maxdepth 1 \( -name '[B]ENCH_dataplane.json' \
        -o -name '[b]ench.sh' -o -name '[b]ench_dataplane.rs' \) | grep .; then
    echo "the second benchmark is back: measured tables are \`paper <name>\`, the benchmark is benchmark/" >&2
    exit 1
fi

# Since PR 30 one address-ordered sweep builds every DIR-24-8; the sort
# by length it replaced stays gone.
if grep -rn 'by_ascending_length' crates/ examples/ tests/; then
    echo "RouteTable::by_ascending_length is back: DIR-24-8 builds sweep the table in address order" >&2
    exit 1
fi

echo "==> JSON gate (exporters emit through rb_telemetry::json::Writer, not format strings)"
# Non-test code only: a test may spell out the text it expects.
if ! find crates/click/src crates/core/src crates/telemetry/src -name '*.rs' \
    ! -path crates/telemetry/src/json.rs -print0 |
    xargs -0 awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && /\\":/ { printf "%s:%d: %s\n", FILENAME, FNR, $0; bad = 1 }
        END { exit bad }'; then
    echo "an escaped \": in a string literal: hand-rolled JSON outside crates/telemetry/src/json.rs" >&2
    exit 1
fi
echo "rb-click non-test lines: $(find crates/click/src -name '*.rs' | while read -r f; do non_test "$f"; done | wc -l)" \
    "(runtime/driver.rs $(non_test crates/click/src/runtime/driver.rs | wc -l)," \
    "runtime/stride.rs $(non_test crates/click/src/runtime/stride.rs | wc -l))"
echo "rb-lookup non-test lines: $(find crates/lookup/src -name '*.rs' | while read -r f; do non_test "$f"; done | wc -l)"
echo "rb-bench non-test lines: $(find crates/bench/src -name '*.rs' | while read -r f; do non_test "$f"; done | wc -l)"
echo "rb-click + rb-core lines: $(find crates/click crates/core -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "rb-telemetry lines: $(find crates/telemetry -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "Ordering:: sites in crates/: $(grep -r 'Ordering::' crates/ --include='*.rs' | wc -l)"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

if [ "$quick" != "quick" ]; then
    echo "==> cargo build --release"
    cargo build --release

    # The repo benchmark is a package of its own (benchmark/Cargo.toml, own
    # lock file); both steps build into target/benchmark, as run.sh does.
    echo "==> benchmark harness tests (stats, seeds, JSON, verify-pass teeth)"
    CARGO_TARGET_DIR=target/benchmark \
        cargo test --offline -q --manifest-path benchmark/Cargo.toml

    echo "==> benchmark smoke (every workload, untraced + traced, ~1 % scale)"
    bash benchmark/run.sh --smoke
fi

echo "CI green."
