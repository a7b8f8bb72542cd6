//! Schema pin for the four JSON exporters, one per reader outside the
//! process: `SloReport` (`/healthz`), `Event` lines (`/events.json`),
//! `TimeSeries` (`/timeseries.json`) and the Chrome trace file.
//!
//! Each `EXPECTED_*` string is what the exporter printed for the fixed
//! input below *before* the exporters moved onto the one
//! `rb_telemetry::json` writer. The pin compares documents as data: the
//! same keys in the same order at every level, strings and booleans
//! equal, numbers equal to the precision the old writer printed (both
//! sides are parsed from text, so that is plain equality up to float
//! rounding). Whitespace and line breaks are free to change.

use rb_telemetry::json::{self, Value};
use rb_telemetry::{
    Event, EventKind, EventLog, IntervalStats, Log2Histogram, SloReport, SloSpec, StageDelta,
    TimeSeries, TraceEvent, TraceKind, TraceLog, TraceSpan,
};

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

fn hist(values: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
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
