//! Prometheus text-exposition export of an interval series.
//!
//! Renders the run totals, the latest interval's gauges, the merged
//! latency sketch as a cumulative histogram, and (when graded) the SLO
//! verdict in the Prometheus 0.0.4 text format: every family gets one
//! `# HELP` and one `# TYPE` line, names are unique and well-formed,
//! histogram buckets are cumulative with a trailing `+Inf`. [`lint`]
//! re-checks those invariants so exporters and CI share one definition
//! of "well-formed".

use crate::events::{EventKind, EventLog};
use crate::json::esc;
use crate::ledger::DropCause;
use crate::slo::SloReport;
use crate::timeseries::TimeSeries;

/// One metric family. `head` is the family as its `# HELP` line spells
/// it — name, a space, the help text; the `# TYPE` line and one sample
/// per row follow. A row is `(selector, value)`; the selector is what
/// follows the family name on the sample line — nothing, a [`labels`]
/// set, or a histogram suffix with its labels.
fn family<V: std::fmt::Display>(
    out: &mut String,
    kind: &str,
    head: &str,
    rows: impl IntoIterator<Item = (String, V)>,
) {
    let name = head.split(' ').next().unwrap_or(head);
    out.push_str(&format!("# HELP {head}\n# TYPE {name} {kind}\n"));
    for (selector, value) in rows {
        out.push_str(&format!("{name}{selector} {value}\n"));
    }
}

/// `{k="v",…}` with the values escaped.
fn labels(pairs: &[(&str, &str)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", esc(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The one row of an unlabelled family.
fn scalar<V>(value: V) -> [(String, V); 1] {
    [(String::new(), value)]
}

/// Renders `series` (and optionally its SLO grading and the structured
/// event journal's per-kind and overflow counters) as Prometheus text
/// exposition — what the live `/metrics` endpoint serves.
/// `ticks_per_sec` converts sketch ticks to seconds.
pub fn render(
    series: &TimeSeries,
    slo: Option<&SloReport>,
    ticks_per_sec: f64,
    events: Option<&EventLog>,
) -> String {
    let mut text = String::with_capacity(4096);
    let out = &mut text;
    let led = series.ledger();
    let (credit, nic): (u64, u64) = series.intervals.iter().fold((0, 0), |(c, n), b| {
        (c + b.credit_stalls, n + b.nic_desc_stalls)
    });
    // Run-total counters.
    for (head, value) in [
        (
            "rb_sourced_packets_total Packets that entered the dataplane.",
            led.sourced,
        ),
        (
            "rb_forwarded_packets_total Packets transmitted out of the router.",
            led.forwarded,
        ),
        (
            "rb_tx_bytes_total Bytes transmitted out of the router.",
            series.tx_bytes(),
        ),
        ("rb_quanta_total Driver quanta executed.", series.quanta()),
        (
            "rb_empty_polls_total Driver quanta that moved no packets.",
            series.empty_polls(),
        ),
        (
            "rb_credit_stalls_total Pull-regime admission stalls.",
            credit,
        ),
        (
            "rb_nic_desc_stalls_total NIC descriptor-ring full events.",
            nic,
        ),
        (
            "rb_intervals_total Telemetry intervals closed.",
            series.intervals.len() as u64,
        ),
        (
            "rb_intervals_live_harvested_total Intervals read while workers were still running.",
            series.live_harvested,
        ),
    ] {
        family(out, "counter", head, scalar(value));
    }
    family(
        out,
        "counter",
        "rb_dropped_packets_total Packets dropped, by cause.",
        DropCause::ALL.map(|cause| (labels(&[("cause", cause.as_str())]), led.dropped(cause))),
    );

    // Per-stage families: the streaming twin of the bottleneck table.
    let stage = |(name, class): &(String, String)| labels(&[("element", name), ("class", class)]);
    if !series.stage_names.is_empty() {
        let totals = series.stage_totals();
        let rows = || series.stage_names.iter().zip(totals.iter());
        family(
            out,
            "counter",
            "rb_stage_packets_total Packets dispatched through each element.",
            rows().map(|(label, d)| (stage(label), d.packets)),
        );
        family(
            out,
            "counter",
            "rb_stage_cycles_total Cycles spent inside each element's dispatch calls.",
            rows().map(|(label, d)| (stage(label), d.cycles)),
        );
        let last = series.intervals.last().map_or(&[][..], |b| &b.stages[..]);
        let interval_cycles: u64 = last.iter().map(|d| d.cycles).sum();
        if interval_cycles > 0 {
            family(
                out,
                "gauge",
                "rb_stage_cycle_share Each element's share of dataplane cycles over the latest interval.",
                series.stage_names.iter().zip(last).map(|(label, d)| {
                    let share = d.cycles as f64 / interval_cycles as f64;
                    (stage(label), format!("{share:.6}"))
                }),
            );
        }
    }

    // Latest-interval gauges.
    if let Some(last) = series.intervals.last() {
        let pps = format!("{:.3}", last.pps(ticks_per_sec));
        let head = "rb_interval_pps Forwarding rate over the latest interval, packets/second.";
        family(out, "gauge", head, scalar(pps));
        let loss = format!("{:.6}", last.loss_rate());
        let head = "rb_interval_loss_ratio Drop fraction over the latest interval.";
        family(out, "gauge", head, scalar(loss));
        if let Some(p99) = last.latency.quantile(0.99) {
            let p99 = format!("{:.9}", p99 as f64 / ticks_per_sec);
            let head =
                "rb_interval_p99_latency_seconds Quantum-sketch p99 over the latest interval.";
            family(out, "gauge", head, scalar(p99));
        }
    }

    // The whole-run latency sketch as a cumulative histogram.
    let merged = series.merged_latency();
    if !merged.is_empty() {
        let bucket =
            |le: &str, n: u64| (format!("_bucket{}", labels(&[("le", le)])), n.to_string());
        let mut cumulative = 0u64;
        let mut sum_ticks = 0.0f64;
        let mut rows = Vec::new();
        for (lo, hi, count) in merged.buckets() {
            cumulative += count;
            sum_ticks += lo as f64 * count as f64;
            rows.push(bucket(
                &format!("{:.9}", hi as f64 / ticks_per_sec),
                cumulative,
            ));
        }
        rows.push(bucket("+Inf", cumulative));
        rows.push((
            "_sum".to_string(),
            format!("{:.9}", sum_ticks / ticks_per_sec),
        ));
        rows.push(("_count".to_string(), merged.count().to_string()));
        let head = "rb_quantum_latency_seconds Per-quantum processing time, log2-bucketed.";
        family(out, "histogram", head, rows);
    }

    // SLO verdict.
    if let Some(report) = slo {
        let head = "rb_slo_state Overall SLO verdict: 0 ok, 1 warning, 2 burning.";
        family(out, "gauge", head, scalar(report.state.severity()));
        family(
            out,
            "gauge",
            "rb_slo_burn_rate Error-budget burn rate per objective and window.",
            report.objectives.iter().flat_map(|o| {
                [("fast", o.fast_burn), ("slow", o.slow_burn)].map(|(window, burn)| {
                    let selector = labels(&[("objective", o.objective), ("window", window)]);
                    (selector, format!("{burn:.3}"))
                })
            }),
        );
    }

    // Structured event journal counters.
    if let Some(log) = events {
        let kinds = EventKind::ALL.iter().zip(log.counts());
        family(
            out,
            "counter",
            "rb_events_total Journaled discrete events, by kind.",
            kinds.map(|(kind, n)| (labels(&[("kind", kind.as_str())]), n)),
        );
        let head =
            "rb_events_overflow_total Events lost to ring overwrite before any reader saw them.";
        family(out, "counter", head, scalar(log.overflow));
    }
    text
}

/// Base family name of a sample line: the metric name with any
/// histogram suffix stripped.
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            return stripped;
        }
    }
    sample_name
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Checks `text` for the exposition-format invariants the exporter
/// promises — the one definition of "well-formed" the tests, the live
/// endpoint's tests and CI share. Every family has a well-formed name,
/// one `HELP` and then one `TYPE` of a known kind, both before its
/// first sample, and at least one sample; a family's samples form one
/// contiguous block with numeric values; counter samples end in
/// `_total`; a histogram has an `le="+Inf"` bucket, a `_sum` and a
/// `_count`. Text with no family fails. Returns the first violation.
pub fn lint(text: &str) -> Result<(), String> {
    use std::collections::{BTreeMap, HashSet};
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut helps: HashSet<&str> = HashSet::new();
    // Every sample name seen and every family a sample resolved to, the
    // family of the previous sample line, and the histograms that have
    // shown their `le="+Inf"` bucket.
    let mut sampled: HashSet<&str> = HashSet::new();
    let mut last = "";
    let mut inf: HashSet<&str> = HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            if !well_formed_name(name) {
                return Err(format!("line {lineno}: malformed family name `{name}`"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: invalid type `{kind}` for `{name}`"));
            }
            if !helps.contains(name) {
                return Err(format!("line {lineno}: TYPE before HELP for `{name}`"));
            }
            if sampled.contains(name) {
                return Err(format!("line {lineno}: TYPE after `{name}` samples"));
            }
            if types.insert(name, kind).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !helps.insert(name) {
                return Err(format!("line {lineno}: duplicate HELP for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // Plain comment.
        }
        // Sample line: name[{labels}] value.
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: sample without value: `{line}`"))?;
        let name = &line[..name_end];
        if !well_formed_name(name) {
            return Err(format!("line {lineno}: malformed metric name `{name}`"));
        }
        // A histogram's `_bucket`/`_sum`/`_count` samples belong to the
        // base family; everything else must match exactly.
        let fam = if types.contains_key(name) {
            name
        } else {
            family_of(name)
        };
        let Some(&kind) = types.get(fam) else {
            return Err(format!("line {lineno}: sample `{name}` has no TYPE"));
        };
        let value = line.rsplit(' ').next().unwrap_or("");
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("line {lineno}: non-numeric value `{value}`"));
        }
        if kind == "counter" && !name.ends_with("_total") {
            return Err(format!("line {lineno}: counter `{name}` lacks `_total`"));
        }
        if fam != last && sampled.contains(fam) {
            return Err(format!("line {lineno}: family `{fam}` split in two"));
        }
        if kind == "histogram" && name.ends_with("_bucket") && line.contains("le=\"+Inf\"") {
            inf.insert(fam);
        }
        sampled.extend([fam, name]);
        last = fam;
    }
    if types.is_empty() {
        return Err("no metric families".to_string());
    }
    for (&fam, &kind) in &types {
        if !sampled.contains(fam) {
            return Err(format!("family `{fam}` declared but has no samples"));
        }
        if kind == "histogram" {
            if !inf.contains(fam) {
                return Err(format!("histogram `{fam}` has no le=\"+Inf\" bucket"));
            }
            for part in ["_sum", "_count"] {
                if !sampled.contains(format!("{fam}{part}").as_str()) {
                    return Err(format!("histogram `{fam}` has no {part}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloSpec;
    use crate::timeseries::IntervalStats;
    use crate::Log2Histogram;

    fn series() -> TimeSeries {
        let mut intervals = Vec::new();
        for seq in 0..3u64 {
            let mut lat = Log2Histogram::new();
            for _ in 0..5 {
                lat.record(1000 * (seq + 1));
            }
            let mut drops = [0u64; DropCause::COUNT];
            drops[4] = seq; // Some NoRxDescriptor drops.
            intervals.push(IntervalStats {
                seq,
                core: 0,
                start_tick: seq * 1_000_000,
                end_tick: (seq + 1) * 1_000_000,
                quanta: 5,
                empty_polls: 1,
                sourced: 100 + seq,
                forwarded: 100,
                tx_bytes: 6400,
                drops,
                credit_stalls: seq,
                nic_desc_stalls: 0,
                fuses: 0,
                latency: lat,
                stages: vec![
                    crate::StageDelta {
                        packets: 100,
                        cycles: 900,
                    },
                    crate::StageDelta {
                        packets: 100,
                        cycles: 100,
                    },
                ],
            });
        }
        TimeSeries {
            interval_ticks: 1_000_000,
            live_harvested: 2,
            stage_names: vec![
                ("rx".to_string(), "FromDevice".to_string()),
                ("tx".to_string(), "ToDevice".to_string()),
            ],
            intervals,
        }
    }

    #[test]
    fn exposition_lints_clean_and_carries_totals() {
        let s = series();
        let spec = SloSpec::parse("loss:0.5/floor:1").unwrap();
        let report = SloReport::evaluate(&spec, &s.intervals, 1e9);
        let text = render(&s, Some(&report), 1e9, None);
        lint(&text).expect("exporter output must lint clean");
        assert!(text.contains("rb_sourced_packets_total 303"), "{text}");
        assert!(text.contains("rb_forwarded_packets_total 300"));
        assert!(
            text.contains("rb_dropped_packets_total{cause=\"no_rx_descriptor\"} 3"),
            "{text}"
        );
        assert!(text.contains("rb_slo_state 0"));
        assert!(text.contains("rb_quantum_latency_seconds_bucket{le=\"+Inf\"} 15"));
        assert!(text.contains("rb_intervals_live_harvested_total 2"));
        assert!(
            text.contains("rb_stage_packets_total{element=\"rx\",class=\"FromDevice\"} 300"),
            "{text}"
        );
        assert!(
            text.contains("rb_stage_cycles_total{element=\"tx\",class=\"ToDevice\"} 300"),
            "{text}"
        );
        assert!(
            text.contains("rb_stage_cycle_share{element=\"rx\",class=\"FromDevice\"} 0.900000"),
            "{text}"
        );
    }

    #[test]
    fn event_counters_export_and_lint() {
        use crate::events::{Event, EventKind, EventLog};
        let mut log = EventLog::default();
        log.events.push(Event {
            seq: 0,
            core: 0,
            tick: 10,
            kind: EventKind::CreditStallStart,
            arg: 1,
        });
        log.events.push(Event {
            seq: 1,
            core: 0,
            tick: 20,
            kind: EventKind::CreditStallEnd,
            arg: 4,
        });
        log.overflow = 3;
        let text = render(&series(), None, 1e9, Some(&log));
        lint(&text).expect("event-counter exposition lints");
        assert!(
            text.contains("rb_events_total{kind=\"credit_stall_start\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rb_events_total{kind=\"slo_transition\"} 0"),
            "zero kinds still exported: {text}"
        );
        assert!(text.contains("rb_events_overflow_total 3"), "{text}");
    }

    #[test]
    fn exposition_without_slo_still_lints() {
        let text = render(&series(), None, 1e9, None);
        lint(&text).expect("no-SLO output lints");
        assert!(!text.contains("rb_slo_state"));
    }

    #[test]
    fn empty_series_renders_minimal_but_valid_output() {
        let text = render(&TimeSeries::default(), None, 1e9, None);
        lint(&text).expect("empty series output lints");
        assert!(text.contains("rb_sourced_packets_total 0"));
        assert!(!text.contains("rb_interval_pps"), "no latest interval");
        assert!(!text.contains("rb_quantum_latency_seconds"), "no sketch");
    }

    #[test]
    fn lint_rejects_malformed_exposition() {
        assert!(lint("rb_x 1\n").is_err(), "sample without TYPE");
        assert!(
            lint("# TYPE rb_x counter\nrb_x 1\n").is_err(),
            "sample without HELP"
        );
        assert!(
            lint("# HELP rb_x x.\n# TYPE rb_x counter\n# TYPE rb_x counter\nrb_x 1\n").is_err(),
            "duplicate TYPE"
        );
        assert!(
            lint("# HELP rb_x x.\n# TYPE rb_x widget\nrb_x 1\n").is_err(),
            "invalid type"
        );
        assert!(
            lint("# HELP 9bad x.\n# TYPE 9bad counter\n9bad 1\n").is_err(),
            "malformed name"
        );
        assert!(
            lint("# HELP rb_x x.\n# TYPE rb_x counter\nrb_x pancake\n").is_err(),
            "non-numeric value"
        );
        let ok = "# HELP rb_x_total x.\n# TYPE rb_x_total counter\n\
                  rb_x_total{cause=\"a\"} 1\nrb_x_total{cause=\"b\"} 2\n";
        lint(ok).expect("labelled samples of one family are fine");
    }

    const HISTOGRAM: &str = "# HELP rb_h h.\n# TYPE rb_h histogram\n\
                             rb_h_bucket{le=\"1\"} 1\nrb_h_bucket{le=\"+Inf\"} 2\nrb_h_sum 3\nrb_h_count 2\n";

    #[test]
    fn histogram_suffixes_resolve_to_base_family() {
        lint(HISTOGRAM).expect("histogram sample suffixes lint");
    }

    /// Asserts `lint` rejects `text` with an error that says `want`.
    fn rejects(text: &str, want: &str) {
        let err = lint(text).expect_err(want);
        assert!(err.contains(want), "{err}");
    }

    // The rules below were the shell lint's alone until it folded in
    // here: each input is one the lint passed before.

    #[test]
    fn counter_samples_end_in_total() {
        rejects(
            "# HELP rb_x x.\n# TYPE rb_x counter\nrb_x 1\n",
            "lacks `_total`",
        );
    }

    #[test]
    fn histograms_close_with_inf_sum_and_count() {
        rejects(
            &HISTOGRAM.replace("rb_h_bucket{le=\"+Inf\"} 2\n", ""),
            "le=\"+Inf\"",
        );
        rejects(&HISTOGRAM.replace("rb_h_sum 3\n", ""), "no _sum");
        rejects(&HISTOGRAM.replace("rb_h_count 2\n", ""), "no _count");
    }

    #[test]
    fn a_family_is_one_contiguous_block() {
        let text = "# HELP rb_a a.\n# TYPE rb_a gauge\n# HELP rb_b b.\n# TYPE rb_b gauge\n\
                    rb_a 1\nrb_b 1\nrb_a 2\n";
        rejects(text, "line 7: family `rb_a` split");
    }

    #[test]
    fn type_comes_after_help() {
        rejects(
            "# TYPE rb_x gauge\n# HELP rb_x x.\nrb_x 1\n",
            "line 1: TYPE before HELP",
        );
    }

    #[test]
    fn no_type_comes_after_its_familys_samples() {
        // `rb_h_sum` first resolves to gauge `rb_h`, then is declared.
        let text = "# HELP rb_h h.\n# TYPE rb_h gauge\nrb_h_sum 1\n\
                    # HELP rb_h_sum s.\n# TYPE rb_h_sum gauge\nrb_h_sum 2\n";
        rejects(text, "line 5: TYPE after `rb_h_sum` samples");
    }

    #[test]
    fn empty_text_and_sampleless_families_fail() {
        rejects("", "no metric families");
        rejects("# HELP rb_x x.\n# TYPE rb_x gauge\n", "has no samples");
    }
}
