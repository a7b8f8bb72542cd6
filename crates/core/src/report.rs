//! Plain-text table formatting for the benchmark harness.
//!
//! `rb-bench`'s `paper` binary prints the paper's tables and figure
//! series as aligned text; this helper keeps them consistent. It also
//! hosts [`trace_report`], the `rb-top`-style observability summary built
//! from a drained [`TraceLog`] and a conservation [`Ledger`].

use rb_telemetry::{DropCause, Ledger, MetricsSnapshot, TraceKind, TraceLog};
use std::collections::{BTreeMap, BTreeSet};

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut TextTable {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = width - cell.chars().count();
                // Right-align numeric-looking cells, left-align text.
                let numeric = cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+');
                if numeric && i > 0 {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl core::fmt::Display for TextTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders an `rb-top`-style text summary of one traced run: per-element
/// dispatch counts and mean batch latency, per-hop-kind crossing counts
/// with the set of tracks (cores, or nodes for cluster hops) involved,
/// per-node span totals, and the packet-conservation ledger.
///
/// `ticks_per_us` converts recorder ticks to microseconds — the same
/// convention as [`TraceLog::to_chrome_json`]: `cycles::ticks_per_sec()
/// / 1e6` for runtime traces, `1000.0` for the cluster simulator's
/// nanosecond clock.
pub fn trace_report(log: &TraceLog, ledger: &Ledger, ticks_per_us: f64) -> String {
    let scale = if ticks_per_us > 0.0 {
        1.0 / ticks_per_us
    } else {
        1.0
    };
    let traced = log.traced_packets();

    // (spans, total dur) per element label; (crossings, tracks) per hop
    // kind; span totals per cluster node.
    let mut elements: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut hops: BTreeMap<&'static str, (u64, BTreeSet<u32>)> = BTreeMap::new();
    let mut nodes: BTreeMap<u32, u64> = BTreeMap::new();
    for span in &log.spans {
        let e = &span.event;
        match e.kind {
            TraceKind::Element => {
                let slot = elements.entry(span.label.as_str()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += e.dur;
            }
            kind => {
                let slot = hops.entry(kind.name()).or_default();
                slot.0 += 1;
                slot.1.insert(if kind == TraceKind::ClusterHop {
                    e.node
                } else {
                    e.core
                });
            }
        }
        *nodes.entry(e.node).or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str(&format!(
        "rb-top: {} spans across {} traced packet(s)\n",
        log.spans.len(),
        traced
    ));
    if log.overflow > 0 {
        out.push_str(&format!(
            "WARNING: {} span(s) lost to per-core trace capacity\n",
            log.overflow
        ));
    }

    if !elements.is_empty() {
        let mut t = TextTable::new(["element", "spans", "spans/pkt", "mean_us"]);
        for (label, (spans, dur)) in &elements {
            t.row([
                label.to_string(),
                spans.to_string(),
                format!("{:.2}", *spans as f64 / traced.max(1) as f64),
                format!("{:.3}", *dur as f64 * scale / *spans as f64),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }

    if !hops.is_empty() {
        let mut t = TextTable::new(["hop", "crossings", "tracks"]);
        for (kind, (crossings, tracks)) in &hops {
            let ids: Vec<String> = tracks.iter().map(u32::to_string).collect();
            t.row([kind.to_string(), crossings.to_string(), ids.join(",")]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }

    if nodes.len() > 1 {
        let mut t = TextTable::new(["node", "spans"]);
        for (node, spans) in &nodes {
            t.row([node.to_string(), spans.to_string()]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }

    // Per-packet latency percentiles over the traced sample: first event
    // to last event of each trace id, nearest-rank percentiles.
    let lats = log.packet_latencies();
    if !lats.is_empty() {
        let (p50, p99, p999) = log.latency_percentiles();
        let mut t = TextTable::new(["latency", "us"]);
        t.row(["p50".to_string(), format!("{:.3}", p50 as f64 * scale)]);
        t.row(["p99".to_string(), format!("{:.3}", p99 as f64 * scale)]);
        t.row(["p99.9".to_string(), format!("{:.3}", p999 as f64 * scale)]);
        out.push('\n');
        out.push_str(&t.render());
    }

    let mut t = TextTable::new(["ledger", "packets"]);
    t.row(["sourced".to_string(), ledger.sourced.to_string()]);
    t.row(["forwarded".to_string(), ledger.forwarded.to_string()]);
    t.row(["in_flight".to_string(), ledger.in_flight.to_string()]);
    for cause in DropCause::ALL {
        let n = ledger.dropped(cause);
        if n > 0 {
            t.row([format!("dropped/{}", cause.as_str()), n.to_string()]);
        }
    }
    t.row(["residual".to_string(), ledger.residual().to_string()]);
    out.push('\n');
    out.push_str(&t.render());
    out.push_str(if ledger.balances() {
        "conservation: BALANCED\n"
    } else {
        "conservation: VIOLATED\n"
    });
    out
}

/// [`trace_report`] plus a FIB section from a telemetry snapshot: route
/// lookups, misses and the hit rate — the counters
/// `MetricsSnapshot::route_lookups` / `route_misses` that every
/// `LookupIPRoute` element (across all worker cores) contributes to.
/// Omitted entirely when the run performed no lookups.
pub fn trace_report_with_metrics(
    log: &TraceLog,
    ledger: &Ledger,
    metrics: &MetricsSnapshot,
    ticks_per_us: f64,
) -> String {
    let mut out = trace_report(log, ledger, ticks_per_us);
    if metrics.route_lookups > 0 {
        let mut t = TextTable::new(["fib", "count"]);
        t.row(["lookups".to_string(), metrics.route_lookups.to_string()]);
        t.row(["misses".to_string(), metrics.route_misses.to_string()]);
        let hits = metrics.route_lookups - metrics.route_misses;
        t.row([
            "hit_pct".to_string(),
            format!("{:.2}", 100.0 * hits as f64 / metrics.route_lookups as f64),
        ]);
        out.push('\n');
        out.push_str(&t.render());
    }
    out
}

/// Formats bits/second as a human-readable Gbps value.
pub fn gbps(bps: f64) -> String {
    format!("{:.2} Gbps", bps / 1e9)
}

/// Formats packets/second as Mpps.
pub fn mpps(pps: f64) -> String {
    format!("{:.2} Mpps", pps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "rate"]);
        t.row(["forwarding", "9.70 Gbps"]);
        t.row(["ipsec", "1.40 Gbps"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("9.70"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let _ = t.render(); // Must not panic.
    }

    #[test]
    fn numeric_cells_right_align() {
        let mut t = TextTable::new(["k", "value"]);
        t.row(["a", "1"]);
        t.row(["b", "1000"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        // Both numbers end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn unit_formatters() {
        assert_eq!(gbps(9.7e9), "9.70 Gbps");
        assert_eq!(mpps(18.96e6), "18.96 Mpps");
    }

    #[test]
    fn trace_report_summarizes_elements_hops_and_ledger() {
        use rb_telemetry::Tracer;
        let mut tracer = Tracer::new(1, 0);
        let a = tracer.maybe_assign();
        let b = tracer.maybe_assign();
        tracer.record_element(0, &[a, b], 100, 10);
        tracer.record_element(1, &[a, b], 120, 6);
        tracer.record_hop(TraceKind::RingSend, &[a], 130);
        tracer.set_core(1);
        tracer.record_hop(TraceKind::RingRecv, &[a], 150);
        let log = tracer.drain(|s| ["src", "tx"][s as usize].to_string());

        let mut ledger = Ledger {
            sourced: 10,
            forwarded: 9,
            ..Ledger::default()
        };
        ledger.add(DropCause::QueueOverflow, 1);

        let out = trace_report(&log, &ledger, 1.0);
        assert!(out.contains("2 traced packet(s)"), "{out}");
        assert!(out.contains("src"), "{out}");
        assert!(out.contains("ring_send"), "{out}");
        assert!(out.contains("ring_recv"), "{out}");
        assert!(out.contains("dropped/queue_overflow"), "{out}");
        assert!(out.contains("conservation: BALANCED"), "{out}");
        // Latency percentiles over the traced sample (ticks scale 1.0
        // here, so packet `a` spans 100..150 -> 50 us at p99).
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("p99"), "{out}");
        let p99_line = out.lines().find(|l| l.starts_with("p99 ")).unwrap();
        assert!(p99_line.contains("50.000"), "{p99_line}");
        // ring_recv was recorded on core 1, ring_send on core 0.
        let recv_line = out.lines().find(|l| l.starts_with("ring_recv")).unwrap();
        assert!(recv_line.ends_with('1'), "{recv_line}");
    }

    #[test]
    fn trace_report_with_metrics_appends_fib_section() {
        let ledger = Ledger {
            sourced: 4,
            forwarded: 4,
            ..Ledger::default()
        };
        let mut snap = MetricsSnapshot::empty();
        snap.route_lookups = 4;
        snap.route_misses = 1;
        let out = trace_report_with_metrics(&TraceLog::default(), &ledger, &snap, 1.0);
        assert!(out.contains("lookups"), "{out}");
        assert!(out.contains("75.00"), "{out}");
        // No lookups -> no FIB section.
        let quiet = trace_report_with_metrics(
            &TraceLog::default(),
            &ledger,
            &MetricsSnapshot::empty(),
            1.0,
        );
        assert!(!quiet.contains("hit_pct"), "{quiet}");
    }

    #[test]
    fn trace_report_flags_violated_conservation() {
        let ledger = Ledger {
            sourced: 5,
            forwarded: 3,
            ..Ledger::default()
        };
        let out = trace_report(&TraceLog::default(), &ledger, 1.0);
        assert!(out.contains("conservation: VIOLATED"), "{out}");
        assert!(out.contains("residual"), "{out}");
    }
}
