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
# the CPU: rb-crypto takes AES-NI, VAES, the SHA extensions and AVX-512
# when it finds them, and the line must say which lanes ran.
backend="$(cargo test -q -p rb-crypto --test backends detected_backend -- --nocapture 2>/dev/null |
    grep '^crypto backend:' || echo "crypto backend: unknown (probe test did not run)")"
echo "$backend" >&2
case "$backend" in
    *"avx512 "*) ;;
    *) echo "the crypto backend line does not say whether the AVX-512 lanes ran" >&2; exit 1 ;;
esac
case "$backend" in
    *"vaes "*) ;;
    *) echo "the crypto backend line does not say whether the VAES lanes ran" >&2; exit 1 ;;
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
# prefetch.rs and cycles.rs today; a new one is gated the day it
# appears).
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

echo "==> pool gate (the packet arena's free list is one locked stack: no atomic, ordering or compare-and-swap in pool.rs)"
if grep -nE 'Ordering::|Atomic|compare_exchange' crates/packet/src/pool.rs; then
    echo "crates/packet/src/pool.rs: an atomic is back; the free list and its counters live under one Mutex" >&2
    exit 1
fi

echo "==> name gate (one Knobs, one run_graph, one worker, one shipper, one container between elements, one paper binary, one benchmark, one DIR-24-8 sweep, two regimes, one dataplane oracle, one ring per core, every knob and exporter with a reader, one FIB table, one locked free list, one RIB, one FIB kind: the collapsed names stay gone)"
if grep -rnE 'GraphRunOpts|RuntimeKnobs|StageFn|run_graph_(parallel|spsc|pipeline|pull|regime)|run_(parallel|shared_queue|spsc_rings)\b|(Push|Spsc|Pipeline|PullCredit)Scheduler|preloaded_worker|streaming_worker|pull_worker|ship_egress|forward_stage_frames|_with_events\b|group_ports' \
    crates/ examples/ tests/; then
    echo "a knob struct, MT entry point, scheduler type, worker body, shipper, X_with_events fork or regroup pass that PRs 21-24 collapsed is back" >&2
    exit 1
fi
# Two regimes, every ring credit-gated: the ungated ones and the
# whole-shard preload they needed stay gone.
if grep -rnE 'Regime::(Push|Spsc)\b|preloaded_star_wiring' crates/ examples/ tests/ ||
    grep -nE '\bpreload:' crates/click/src/runtime/regime.rs; then
    echo "Regime::Push / Regime::Spsc or the preloaded lane is back: every ring is credit-gated" >&2
    exit 1
fi
# One dataplane oracle (tests/oracle/mod.rs): every differential suite
# over the runtime holds its runs to the one reference there, so the
# per-suite copies of `traffic`, the conservation and sorted-multiset
# helpers it replaced, and test names that outlived the push regime stay
# gone.
oracle_gone='(sorted|reference)_streams|fn assert_conserved|fn [a-z0-9_]*push_drops'
if grep -rnE "$oracle_gone" tests/ crates/*/tests/ crates/click/src/runtime/mt.rs ||
    grep -nE 'fn traffic\b' tests/*_differential.rs tests/dataplane_oracle.rs; then
    echo "a per-suite traffic copy, multiset or conservation helper, or push-era test name the dataplane oracle replaced is back" >&2
    exit 1
fi
# One ring per core: the harvester derives the event journal from the
# interval series, so the event ring, its writer and reader, the paired
# harvest and the workers' poll of the FIB writer's counters stay gone.
journal_gone='EventRecorder|EventRing|EventHarvester|Harvest::|journal_episodes|event_ring|rcu_stats'
if grep -rnE "$journal_gone" crates/ examples/ tests/; then
    echo "a second per-core ring, its writer or reader, or a dataplane read of the FIB's counters is back: the journal is a view of the interval series" >&2
    exit 1
fi
# Every knob and exporter has a reader: a ring's credit window is
# `ring_depth * batch_size`, a synthetic RIB comes in through
# `routes_from_table`, and the text report and the JSON exporters no
# reader outside the tests used stay gone. Only config.rs's tests name a
# removed key, to see it rejected.
knob_gone='credit_window|effective_credit_window|synthetic_routes|fib_routes|DEFAULT_RIB_SEED|trace_report'
if grep -rnE "$knob_gone" crates/ examples/ tests/ --exclude=config.rs ||
    non_test crates/click/src/config.rs | grep -nE "$knob_gone"; then
    echo "a derived knob (credit window, synthetic RIB) or trace_report is back: every knob and exporter needs a reader" >&2
    exit 1
fi
# Two FIB tables: each publish recycles the snapshot it replaces, so the
# primed spare's patch path and its dirty log stay gone, as do the test
# names of the deleted Spsc regime and the report helper nothing called.
fib_gone='snapshot_for_publish|prune_dirty_log|LOG_CAP|dirty_log|patch_snapshot|graph_spsc_|traced_spsc_|report::gbps'
if grep -rnE "$fib_gone" crates/ tests/ examples/ ||
    grep -nE 'fn gbps\b' crates/core/src/report.rs; then
    echo "the RCU FIB's spare and dirty log, an Spsc-era test name or report::gbps is back: the FIB keeps two tables" >&2
    exit 1
fi
# One locked free list: the packet arena's Treiber stack, its chain
# splice and the tag-as-recycle-counter bookkeeping stay gone.
pool_gone='observe_pushes|push_free_chain|take_free|cache_returns|recycles_approx|pushes_committed'
if grep -rnE "$pool_gone" crates/ tests/ examples/; then
    echo "the packet arena's lock-free free list or its push-tag counter is back: the free list is one locked stack" >&2
    exit 1
fi
# One RIB: the dynamic FIB's tables hold entries and nothing else; an
# update re-sweeps its range from the RIB, so the per-slot owner bytes and
# the withdraw's fallback search over them stay gone.
rib_gone='owner24|owner_long|owner_of|NO_OWNER|background_for'
if grep -rnE "$rib_gone" crates/ tests/ examples/; then
    echo "the dynamic FIB's owner bytes are back: the RIB says which route covers each slot" >&2
    exit 1
fi
# One FIB table: snapshots share every page a publish did not touch, so
# the dirty set a publish replayed into a recycled table, the grace wait
# and the clone it fell back to, and the census of whole tables stay gone.
table_gone='DirtyDelta|take_dirty|grace_budget|wait_for_readers|DIRTY_OVERFLOW|tbl24_buffers|keeps_two_tables'
if grep -rnE "$table_gone" crates/ tests/ examples/; then
    echo "the RCU FIB's dirty set, grace wait or a second table is back: snapshots share pages, and the FIB holds one table" >&2
    exit 1
fi
# One FIB: every IP router reads an RCU FIB, whose readers join a
# registry with no cap, so the knob that chose a static table, that
# table's arm and the builder's enum over the two, and the fixed reader
# slots with their allocator and overflow panic stay gone. Only
# config.rs's tests name the removed key, to see it rejected.
fib_one='fib_rcu|Fib::Static|BuiltFib|DEFAULT_MAX_READERS|with_max_readers|alloc_slot|free_slots|too many concurrent FIB readers'
if grep -rnE "$fib_one" crates/ tests/ examples/ --exclude=config.rs ||
    non_test crates/click/src/config.rs | grep -nE "$fib_one"; then
    echo "the static FIB, its knob or the RCU FIB's reader cap is back: every IP router reads one RCU FIB, with any number of readers" >&2
    exit 1
fi
for f in crates/click/src/runtime/driver.rs crates/click/src/runtime/mt.rs \
    crates/telemetry/src/snapshot.rs crates/telemetry/src/ledger.rs; do
    if non_test "$f" | grep -nE 'fn to_json\b'; then
        echo "$f: a JSON exporter with no reader outside the tests is back (the four left: SloReport, Event, TimeSeries, the Chrome trace)" >&2
        exit 1
    fi
done
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

echo "==> sweep gate (run_until_idle returns the driver's own counts; only stats() sums the elements)"
# A call to `run_until_idle` pays for no walk over the
# elements' pool and descriptor-ring counters. Code lines only, as the
# detect gate; from `pub fn run_until_idle` to its closing brace.
awk '
    /^[[:space:]]*\/\// { next }
    /^    pub fn run_until_idle\(/ { inside = 1; seen = 1 }
    inside && /(^|[^[:alnum:]_])(stats\(|pool_rows|nic_stats)/ {
        printf "%s:%d: run_until_idle sums the elements: %s\n", FILENAME, FNR, $0; bad = 1
    }
    inside && /^    }/ { inside = 0 }
    END {
        if (!seen) { printf "%s: no pub fn run_until_idle to check\n", FILENAME; bad = 1 }
        exit bad
    }
' crates/click/src/runtime/driver.rs

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
echo "rb-core non-test lines: $(find crates/core/src -name '*.rs' | while read -r f; do non_test "$f"; done | wc -l)"
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
