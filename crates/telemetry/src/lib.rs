//! Per-core dataplane telemetry: cycle accounting, histograms, snapshots.
//!
//! The paper's central evaluative move (§4.2, Fig. 9, Table 2) is
//! *deconstructing* router throughput into per-component loads — CPU
//! cycles per packet per processing stage — to show where a configuration
//! saturates. This crate supplies the measurement layer the runtime
//! threads through its dispatch loops:
//!
//! * [`cycles`] — a timestamp counter (`rdtsc` on x86_64, monotonic
//!   nanoseconds elsewhere) cheap enough to bracket every batch dispatch;
//! * [`Log2Histogram`] — fixed-footprint log₂-bucketed histograms for
//!   latencies and batch sizes, with p50/p90/p99 extraction;
//! * [`CoreMetrics`] — one *shard* of plain (non-atomic) `u64` counters
//!   per worker core. Workers never share a shard, so the hot path is
//!   increment-a-local-integer; shards are merged into a
//!   [`MetricsSnapshot`] only at drain points (end of run, worker join);
//! * [`MetricsSnapshot`] — the mergeable, exportable result: per-element
//!   calls/packets/cycles plus run-level totals, with
//!   [`MetricsSnapshot::to_json`] for machine consumers;
//! * [`json`] — the one dependency-free JSON writer every exporter in
//!   the tree emits through, and the depth-bounded parser that reads
//!   their output back;
//! * [`Tracer`]/[`TraceLog`] — sampled per-packet path tracing: per-core
//!   span shards recorded at element dispatches and ring/cluster hops,
//!   exported as Chrome trace-event JSON;
//! * [`Ledger`]/[`DropCause`] — the packet-conservation ledger
//!   (`sourced = forwarded + dropped(per-cause) + in_flight`) that turns
//!   silent packet loss into a checkable identity;
//! * [`IntervalRecorder`]/[`IntervalRing`]/[`Harvester`] — the *live*
//!   layer: one wait-free interval ring per core, which a reader thread
//!   harvests into a [`TimeSeries`] and an [`EventLog`] while workers keep
//!   forwarding. The seqlock protocol under the ring is written once, in
//!   `seqring.rs`;
//! * [`SloSpec`]/[`SloReport`] — multi-window burn-rate grading
//!   (ok / warning / burning) of an interval series against latency,
//!   loss, and throughput objectives, with [`prometheus`] text
//!   exposition and [`render_top`] for an `rb_top`-style live view;
//! * [`Event`]/[`EventLog`] — the structured event journal: timestamped
//!   discrete events — stall episodes, pool exhaustion and the dispatcher
//!   fuse, which the [`Harvester`] derives as edges over each core's
//!   buckets; SLO transitions, which the monitor journals; cluster link
//!   congestion, which the cluster replay journals;
//! * [`MetricsServer`] — a dependency-free embedded HTTP/1.1 endpoint
//!   (`/metrics`, `/healthz`, `/timeseries.json`, `/events.json`)
//!   served from a dedicated harvester thread that never pauses
//!   workers.
//!
//! The off switch is [`TelemetryLevel::Off`]: the runtime guards every
//! record with one branch on the level, so disabled telemetry costs one
//! predictable-not-taken compare per dispatch site.

#![deny(clippy::cast_possible_truncation)]

pub mod cycles;
pub mod events;
mod hist;
pub mod http;
pub mod json;
mod ledger;
pub mod prometheus;
mod seqring;
mod slo;
mod snapshot;
mod timeseries;
mod trace;

pub use events::{decode_slo_transition, encode_slo_transition, Event, EventKind, EventLog};
pub use hist::Log2Histogram;
pub use http::{MetricsServer, MonitorSource};
pub use ledger::{DropCause, Ledger};
pub use seqring::{Record, SeqRing};
pub use slo::{render_top, ObjectiveReport, SloReport, SloSpec, SloState};
pub use snapshot::{CoreMetrics, MetricsSnapshot, StageStats};
pub use timeseries::{
    CumulativeTotals, Harvester, IntervalRecorder, IntervalRing, IntervalStats, StageDelta,
    TimeSeries, DEFAULT_RING_CAP,
};
pub use trace::{TraceEvent, TraceKind, TraceLog, TraceSpan, Tracer, DEFAULT_TRACE_CAP};

/// How much the runtime measures.
///
/// `Copy + Eq` so it can ride inside the runtime's knob struct
/// (`rb_click::Knobs`) without breaking its derives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TelemetryLevel {
    /// No measurement; every dispatch site pays one branch.
    #[default]
    Off,
    /// Counters and batch-size histograms (no timestamp reads).
    Counts,
    /// Counters plus per-element cycle spans around every dispatch.
    Cycles,
}

impl TelemetryLevel {
    /// Parses the configuration-DSL spelling: `off`, `on` (counts) or
    /// `cycles`.
    pub fn parse(word: &str) -> Option<TelemetryLevel> {
        match word {
            "off" => Some(TelemetryLevel::Off),
            "on" | "counts" => Some(TelemetryLevel::Counts),
            "cycles" => Some(TelemetryLevel::Cycles),
            _ => None,
        }
    }

    /// `true` unless telemetry is off.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, TelemetryLevel::Off)
    }

    /// `true` when cycle spans are measured.
    #[inline]
    pub fn cycles(self) -> bool {
        matches!(self, TelemetryLevel::Cycles)
    }

    /// The DSL spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counts => "on",
            TelemetryLevel::Cycles => "cycles",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_dsl_words() {
        assert_eq!(TelemetryLevel::parse("off"), Some(TelemetryLevel::Off));
        assert_eq!(TelemetryLevel::parse("on"), Some(TelemetryLevel::Counts));
        assert_eq!(
            TelemetryLevel::parse("counts"),
            Some(TelemetryLevel::Counts)
        );
        assert_eq!(
            TelemetryLevel::parse("cycles"),
            Some(TelemetryLevel::Cycles)
        );
        assert_eq!(TelemetryLevel::parse("loud"), None);
    }

    #[test]
    fn level_predicates() {
        assert!(!TelemetryLevel::Off.enabled());
        assert!(TelemetryLevel::Counts.enabled());
        assert!(!TelemetryLevel::Counts.cycles());
        assert!(TelemetryLevel::Cycles.cycles());
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
    }

    #[test]
    fn level_round_trips_through_as_str() {
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Counts,
            TelemetryLevel::Cycles,
        ] {
            assert_eq!(TelemetryLevel::parse(level.as_str()), Some(level));
        }
    }
}
