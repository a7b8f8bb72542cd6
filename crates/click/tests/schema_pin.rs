//! Schema pin for the eight JSON exporters.
//!
//! Each `EXPECTED_*` string is what the exporter printed for the fixed
//! input below *before* the exporters moved onto the one
//! `rb_telemetry::json` writer. The pin compares documents as data: the
//! same keys in the same order at every level, strings and booleans
//! equal, numbers equal to the precision the old writer printed (both
//! sides are parsed from text, so that is plain equality up to float
//! rounding). Whitespace and line breaks are free to change.

use rb_click::runtime::driver::RunStats;
use rb_click::runtime::mt::MtReport;
use rb_telemetry::json::{self, Value};
use rb_telemetry::{
    DropCause, Event, EventKind, EventLog, IntervalStats, Ledger, Log2Histogram, MetricsSnapshot,
    SloReport, SloSpec, StageDelta, StageStats, TelemetryLevel, TimeSeries, TraceEvent, TraceKind,
    TraceLog, TraceSpan,
};
use std::time::Duration;

/// Asserts `got` and `want` are the same document: keys (in order) at
/// every level, values equal, numbers within float rounding.
fn assert_same(path: &str, got: &Value, want: &Value) {
    match (got, want) {
        (Value::Obj(g), Value::Obj(w)) => {
            let keys = |m: &[(String, Value)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(g), keys(w), "{path}: key set");
            for ((k, gv), (_, wv)) in g.iter().zip(w) {
                assert_same(&format!("{path}.{k}"), gv, wv);
            }
        }
        (Value::Arr(g), Value::Arr(w)) => {
            assert_eq!(g.len(), w.len(), "{path}: array length");
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                assert_same(&format!("{path}[{i}]"), gv, wv);
            }
        }
        (Value::Num(g), Value::Num(w)) => {
            assert!(
                (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                "{path}: {g} != {w}"
            );
        }
        _ => assert_eq!(got, want, "{path}"),
    }
}

fn pin(name: &str, got: &str, want: &str) {
    let parsed = json::parse(got).unwrap_or_else(|e| panic!("{name}: {e}\n{got}"));
    let expected = json::parse(want).unwrap_or_else(|e| panic!("{name} (expected): {e}"));
    assert_same(name, &parsed, &expected);
}

/// `tick_unit` names the host's counter (the expected text was printed
/// on a TSC host); everything else in a snapshot is input.
fn on_this_host(expected: &str) -> String {
    if rb_telemetry::cycles::is_cycle_counter() {
        expected.to_string()
    } else {
        expected.replace("\"tsc\"", "\"ns\"")
    }
}

fn hist(values: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn ledger() -> Ledger {
    let mut led = Ledger {
        sourced: 1000,
        forwarded: 900,
        in_flight: 40,
        ..Ledger::default()
    };
    led.add(DropCause::QueueOverflow, 35);
    led.add(DropCause::NoRoute, 20);
    led
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        level: TelemetryLevel::Cycles,
        workers: 2,
        total_cycles: 123_456,
        empty_polls: 7,
        empty_cycles: 456,
        batch_sizes: hist(&[1, 8, 32, 32, 32]),
        route_lookups: 640,
        route_misses: 3,
        stages: vec![
            StageStats {
                name: "rx\"0".to_string(),
                class: "FromDevice".to_string(),
                calls: 20,
                packets: 640,
                cycles: 12_345,
                lat: hist(&[500, 600, 700]),
            },
            StageStats {
                name: "idle".to_string(),
                class: "Queue".to_string(),
                calls: 0,
                packets: 0,
                cycles: 0,
                lat: Log2Histogram::new(),
            },
        ],
    }
}

fn series() -> TimeSeries {
    let mut a = IntervalStats::empty_with_stages(0, 0, 1_000, 2);
    a.end_tick = 2_001_000;
    a.quanta = 12;
    a.empty_polls = 2;
    a.sourced = 300;
    a.forwarded = 280;
    a.tx_bytes = 17_920;
    a.drops[2] = 15;
    a.drops[4] = 5;
    a.credit_stalls = 3;
    a.nic_desc_stalls = 1;
    a.latency = hist(&[900, 1_100, 40_000]);
    a.stages = vec![
        StageDelta {
            packets: 300,
            cycles: 9_000,
        },
        StageDelta {
            packets: 280,
            cycles: 1_000,
        },
    ];
    // An interval that saw nothing: zero-length, empty sketch.
    let b = IntervalStats::empty(1, 0, 2_001_000);
    TimeSeries {
        interval_ticks: 2_000_000,
        live_harvested: 1,
        stage_names: vec![
            ("rx0".to_string(), "FromDevice".to_string()),
            ("t\\x".to_string(), "ToDevice".to_string()),
        ],
        intervals: vec![a, b],
    }
}

fn events() -> EventLog {
    EventLog {
        events: vec![
            Event {
                seq: 0,
                core: 1,
                tick: 1_500,
                kind: EventKind::CreditStallStart,
                arg: 4,
            },
            Event {
                seq: 1,
                core: 0,
                tick: 9_000,
                kind: EventKind::DispatcherFuse,
                arg: u64::MAX,
            },
        ],
        overflow: 6,
    }
}

fn trace() -> TraceLog {
    let span = |label: &str, kind, stage, node, core, ts, dur| TraceSpan {
        label: label.to_string(),
        event: TraceEvent {
            trace_id: (1 << 40) | 7,
            kind,
            stage,
            node,
            core,
            ts,
            dur,
        },
    };
    TraceLog {
        spans: vec![
            span("rx\t0", TraceKind::Element, 0, 0, 0, 2_000, 333),
            span("ring_send", TraceKind::RingSend, 0, 0, 0, 2_400, 0),
            span("ring_recv", TraceKind::RingRecv, 0, 0, 1, 2_900, 0),
            span("cluster_hop", TraceKind::ClusterHop, 0, 3, 1, 3_000, 12_345),
        ],
        overflow: 2,
    }
}

const EXPECTED_RUN_STATS: &str = r#"{"quanta": 1, "pushes": 2, "batch_calls": 3, "leaked": 4, "dropped_default": 5, "pool_allocs": 6, "pool_recycles": 7, "pool_bulk_recycles": 11, "pool_exhausted": 8, "pool_fallbacks": 9, "pool_peak_in_use": 10, "nic_doorbells": 12, "nic_reclaim_batches": 13, "nic_desc_stalls": 14, "nic_dma_bytes": 18446744073709551615, "fused": true}"#;
const EXPECTED_LEDGER: &str = r#"{"sourced": 1000, "forwarded": 900, "in_flight": 40, "drops": {"queue_overflow": 35, "no_route": 20}, "dropped_total": 55, "residual": 5, "balanced": false}"#;
const EXPECTED_SNAPSHOT: &str = r#"{
  "level": "cycles",
  "tick_unit": "tsc",
  "workers": 2,
  "total_cycles": 123456,
  "busy_cycles": 123000,
  "empty_polls": 7,
  "batch_sizes": {"count": 5, "p50": 63, "p90": 63, "p99": 63},
  "route_lookups": 640, "route_misses": 3,
  "stages": [
    {"name": "rx\"0", "class": "FromDevice", "calls": 20, "packets": 640, "cycles": 12345, "cycles_per_packet": 19.289, "cycles_p50": 1023, "cycles_p90": 1023, "cycles_p99": 1023},
    {"name": "idle", "class": "Queue", "calls": 0, "packets": 0, "cycles": 0, "cycles_per_packet": 0.000, "cycles_p50": 0, "cycles_p90": 0, "cycles_p99": 0}
  ]
}"#;
const EXPECTED_SERIES: &str = r#"{
  "interval_ticks": 2000000,
  "ticks_per_sec": 2000000000,
  "live_harvested": 1,
  "stage_names": [{"name": "rx0", "class": "FromDevice"}, {"name": "t\\x", "class": "ToDevice"}],
  "intervals": [
    {"seq": 0, "start_tick": 1000, "end_tick": 2001000, "quanta": 12, "empty_polls": 2, "sourced": 300, "forwarded": 280, "tx_bytes": 17920, "pps": 280000.0, "loss_rate": 0.066667, "drops": {"queue_overflow": 15, "no_rx_descriptor": 5}, "credit_stalls": 3, "nic_desc_stalls": 1, "stages": [{"packets": 300, "cycles": 9000}, {"packets": 280, "cycles": 1000}], "lat_p50_us": 1.024, "lat_p99_us": 32.767, "lat_p999_us": 32.767},
    {"seq": 1, "start_tick": 2001000, "end_tick": 2001000, "quanta": 0, "empty_polls": 0, "sourced": 0, "forwarded": 0, "tx_bytes": 0, "pps": 0.0, "loss_rate": 0.000000, "drops": {}, "credit_stalls": 0, "nic_desc_stalls": 0, "stages": [], "lat_p50_us": 0.000, "lat_p99_us": 0.000, "lat_p999_us": 0.000}
  ]
}"#;
const EXPECTED_SLO: &str = r#"{"state": "burning", "graded_intervals": 1, "objectives": [{"objective": "latency_p99", "target": 5.000000, "worst": 32.767500, "fast_burn": 100.000, "slow_burn": 100.000, "state": "burning"}, {"objective": "loss_rate", "target": 0.010000, "worst": 0.066667, "fast_burn": 100.000, "slow_burn": 100.000, "state": "burning"}, {"objective": "throughput_floor", "target": 1000000.000000, "worst": 280000.000000, "fast_burn": 100.000, "slow_burn": 100.000, "state": "burning"}]}"#;
const EXPECTED_EVENT: &str = r#"{"tick": 1500, "core": 1, "kind": "credit_stall_start", "arg": 4}"#;
const EXPECTED_EVENT_LINES: &str = r#"{"events": 2, "overflow": 6}
{"tick": 1500, "core": 1, "kind": "credit_stall_start", "arg": 4}
{"tick": 9000, "core": 0, "kind": "dispatcher_fuse", "arg": 18446744073709551615}
"#;
const EXPECTED_CHROME: &str = r#"{"traceEvents": [{"name": "rx\t0", "cat": "element", "ts": 0.000, "pid": 0, "tid": 0, "ph": "X", "dur": 166.500, "args": {"trace_id": 1099511627783}}, {"name": "ring_send", "cat": "ring_send", "ts": 200.000, "pid": 0, "tid": 0, "ph": "s", "id": 1099511627783}, {"name": "ring_recv", "cat": "ring_recv", "ts": 450.000, "pid": 0, "tid": 1, "ph": "f", "bp": "e", "id": 1099511627783}, {"name": "cluster_hop", "cat": "cluster_hop", "ts": 500.000, "pid": 3, "tid": 1, "ph": "X", "dur": 6172.500, "args": {"trace_id": 1099511627783}}], "trace_overflow": 2}"#;
const EXPECTED_CHROME_WITH_JOURNAL: &str = r#"{"traceEvents": [{"name": "credit_stall_start", "cat": "journal", "ph": "i", "s": "g", "ts": 0.000, "pid": 0, "tid": 1, "args": {"arg": 4}}, {"name": "dispatcher_fuse", "cat": "journal", "ph": "i", "s": "g", "ts": 3750.000, "pid": 0, "tid": 0, "args": {"arg": 18446744073709551615}}, {"name": "rx\t0", "cat": "element", "ts": 250.000, "pid": 0, "tid": 0, "ph": "X", "dur": 166.500, "args": {"trace_id": 1099511627783}}, {"name": "ring_send", "cat": "ring_send", "ts": 450.000, "pid": 0, "tid": 0, "ph": "s", "id": 1099511627783}, {"name": "ring_recv", "cat": "ring_recv", "ts": 700.000, "pid": 0, "tid": 1, "ph": "f", "bp": "e", "id": 1099511627783}, {"name": "cluster_hop", "cat": "cluster_hop", "ts": 750.000, "pid": 3, "tid": 1, "ph": "X", "dur": 6172.500, "args": {"trace_id": 1099511627783}}], "trace_overflow": 2}"#;
const EXPECTED_MT_REPORT: &str = r#"{"processed": 900, "elapsed_secs": 0.002, "pps": 600000.000, "per_worker": [500, 400], "imbalance": 1.111, "pushes": 3600, "batch_calls": 120, "achieved_batch": 30.000, "pool_allocs": 1000, "pool_recycles": 990, "pool_bulk_recycles": 800, "pool_exhausted": 1, "pool_fallbacks": 2, "nic_doorbells": 60, "nic_reclaim_batches": 61, "nic_desc_stalls": 4, "nic_dma_bytes": 57600, "credit_stalls": 17, "credit_peak_outstanding": 64, "telemetry": {
  "level": "cycles",
  "tick_unit": "tsc",
  "workers": 2,
  "total_cycles": 123456,
  "busy_cycles": 123000,
  "empty_polls": 7,
  "batch_sizes": {"count": 5, "p50": 63, "p90": 63, "p99": 63},
  "route_lookups": 640, "route_misses": 3,
  "stages": [
    {"name": "rx\"0", "class": "FromDevice", "calls": 20, "packets": 640, "cycles": 12345, "cycles_per_packet": 19.289, "cycles_p50": 1023, "cycles_p90": 1023, "cycles_p99": 1023},
    {"name": "idle", "class": "Queue", "calls": 0, "packets": 0, "cycles": 0, "cycles_per_packet": 0.000, "cycles_p50": 0, "cycles_p90": 0, "cycles_p99": 0}
  ]
}, "ledger": {"sourced": 1000, "forwarded": 900, "in_flight": 40, "drops": {"queue_overflow": 35, "no_route": 20}, "dropped_total": 55, "residual": 5, "balanced": false}, "timeseries": null, "events": 2}"#;

#[test]
fn run_stats_schema_is_pinned() {
    let stats = RunStats {
        quanta: 1,
        pushes: 2,
        batch_calls: 3,
        leaked: 4,
        dropped_default: 5,
        pool_allocs: 6,
        pool_recycles: 7,
        pool_exhausted: 8,
        pool_fallbacks: 9,
        pool_peak_in_use: 10,
        pool_bulk_recycles: 11,
        nic_doorbells: 12,
        nic_reclaim_batches: 13,
        nic_desc_stalls: 14,
        nic_dma_bytes: u64::MAX,
        fused: true,
    };
    pin("RunStats", &stats.to_json(), EXPECTED_RUN_STATS);
}

#[test]
fn ledger_schema_is_pinned() {
    pin("Ledger", &ledger().to_json(), EXPECTED_LEDGER);
}

#[test]
fn metrics_snapshot_schema_is_pinned() {
    let want = on_this_host(EXPECTED_SNAPSHOT);
    pin("MetricsSnapshot", &snapshot().to_json(), &want);
}

#[test]
fn timeseries_schema_is_pinned() {
    pin("TimeSeries", &series().to_json(2e9), EXPECTED_SERIES);
}

#[test]
fn slo_report_schema_is_pinned() {
    let spec = SloSpec::parse("p99us:5/loss:0.01/floor:1000000").unwrap();
    let report = SloReport::evaluate(&spec, &series().intervals, 2e9);
    pin("SloReport", &report.to_json(), EXPECTED_SLO);
}

#[test]
fn event_log_schema_is_pinned() {
    let log = events();
    pin("Event", &log.events[0].to_json(), EXPECTED_EVENT);
    let lines = log.to_json_lines();
    let want: Vec<&str> = EXPECTED_EVENT_LINES.lines().collect();
    let got: Vec<&str> = lines.lines().collect();
    assert_eq!(got.len(), want.len(), "one header line plus one per event");
    assert!(lines.ends_with('\n'), "every line is terminated");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        pin(&format!("EventLog line {i}"), g, w);
    }
}

#[test]
fn chrome_trace_schema_is_pinned() {
    pin(
        "Chrome trace",
        &trace().to_chrome_json(2.0, None),
        EXPECTED_CHROME,
    );
    pin(
        "Chrome trace with journal",
        &trace().to_chrome_json(2.0, Some(&events())),
        EXPECTED_CHROME_WITH_JOURNAL,
    );
}

#[test]
fn mt_report_schema_is_pinned() {
    // `timeseries` stays `None`: a present series is printed at the
    // host's calibrated tick rate, and `TimeSeries` is pinned above.
    let report = MtReport {
        processed: 900,
        elapsed: Duration::from_micros(1_500),
        per_worker: vec![500, 400],
        pushes: 3_600,
        batch_calls: 120,
        pool_allocs: 1_000,
        pool_recycles: 990,
        pool_exhausted: 1,
        pool_fallbacks: 2,
        pool_bulk_recycles: 800,
        nic_doorbells: 60,
        nic_reclaim_batches: 61,
        nic_desc_stalls: 4,
        nic_dma_bytes: 57_600,
        credit_stalls: 17,
        credit_peak_outstanding: 64,
        telemetry: snapshot(),
        ledger: ledger(),
        timeseries: None,
        events: events(),
    };
    let want = on_this_host(EXPECTED_MT_REPORT);
    pin("MtReport", &report.to_json(), &want);
}
