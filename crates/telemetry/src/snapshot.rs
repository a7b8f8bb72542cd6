//! Per-core metric shards and their mergeable snapshots.
//!
//! [`CoreMetrics`] is the shard one worker core writes: plain `u64`
//! fields and [`Log2Histogram`]s, no atomics, no sharing — each worker
//! `Router` owns exactly one, so recording is an unsynchronized integer
//! add. At a drain point (end of run, worker join) the runtime turns the
//! shard into a [`MetricsSnapshot`], attaches element names, and merges
//! snapshots across workers with [`MetricsSnapshot::merge`] — the only
//! place shards meet, long off the hot path.

use crate::{Log2Histogram, TelemetryLevel};

/// One stage's accumulator inside a [`CoreMetrics`] shard.
#[derive(Debug, Clone, Default)]
struct StageAcc {
    calls: u64,
    packets: u64,
    cycles: u64,
    /// Per-dispatch cycle spans (only fed at [`TelemetryLevel::Cycles`]).
    lat: Log2Histogram,
}

/// One worker core's metric shard.
///
/// Stage indices are the owning graph's element ids; the shard itself is
/// name-agnostic so it stays a flat array the dispatch loop can index.
#[derive(Debug, Clone)]
pub struct CoreMetrics {
    level: TelemetryLevel,
    batch_sizes: Log2Histogram,
    total_cycles: u64,
    empty_polls: u64,
    empty_cycles: u64,
    stages: Vec<StageAcc>,
}

impl CoreMetrics {
    /// Creates a shard for a graph of `n_stages` elements.
    pub fn new(level: TelemetryLevel, n_stages: usize) -> CoreMetrics {
        CoreMetrics {
            level,
            batch_sizes: Log2Histogram::new(),
            total_cycles: 0,
            empty_polls: 0,
            empty_cycles: 0,
            stages: vec![StageAcc::default(); n_stages],
        }
    }

    /// Makes room for a graph that grew to `n_stages` elements; the rows
    /// recorded so far are kept.
    pub fn grow(&mut self, n_stages: usize) {
        if n_stages > self.stages.len() {
            self.stages.resize(n_stages, StageAcc::default());
        }
    }

    /// The configured measurement level.
    #[inline]
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// `true` when anything is recorded — the one branch the off path pays.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// `true` when cycle spans are measured.
    #[inline]
    pub fn cycles_on(&self) -> bool {
        self.level.cycles()
    }

    /// Records one batch dispatch into `stage`: `packets` moved, `span`
    /// cycles spent (0 at [`TelemetryLevel::Counts`]).
    #[inline]
    pub fn record_dispatch(&mut self, stage: usize, packets: u64, span: u64) {
        let acc = &mut self.stages[stage];
        acc.calls += 1;
        acc.packets += packets;
        self.batch_sizes.record(packets);
        if self.level.cycles() {
            acc.cycles += span;
            acc.lat.record(span);
        }
    }

    /// Records one scheduler quantum: its cycle span and whether it did
    /// useful work (idle polls are tracked separately so the paper's
    /// empty-poll correction can be applied to end-to-end cycles). The
    /// driver parks an idle task instead of polling it every round, so
    /// the empty quanta it reports are probes — a source polled as a run
    /// starts and once more before it is declared idle — not a standing
    /// share of every round taken by the tasks that have nothing to do.
    #[inline]
    pub fn record_quantum(&mut self, span: u64, did_work: bool) {
        self.total_cycles += span;
        if !did_work {
            self.empty_polls += 1;
            self.empty_cycles += span;
        }
    }

    /// Per-stage cumulative `(packets, cycles)` totals in stage-index
    /// order — the cheap boundary sample an interval recorder telescopes
    /// into per-stage [`crate::timeseries::StageDelta`] rows. Monotone
    /// non-decreasing over a run, so consecutive samples difference
    /// exactly.
    pub fn stage_totals(&self) -> Vec<crate::timeseries::StageDelta> {
        self.stages
            .iter()
            .map(|acc| crate::timeseries::StageDelta {
                packets: acc.packets,
                cycles: acc.cycles,
            })
            .collect()
    }

    /// Freezes the shard into a snapshot, attaching `(name, class)` labels
    /// by stage index.
    pub fn snapshot(&self, label: impl Fn(usize) -> (String, String)) -> MetricsSnapshot {
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, acc)| {
                let (name, class) = label(i);
                StageStats {
                    name,
                    class,
                    calls: acc.calls,
                    packets: acc.packets,
                    cycles: acc.cycles,
                    lat: acc.lat.clone(),
                }
            })
            .collect();
        MetricsSnapshot {
            level: self.level,
            workers: 1,
            total_cycles: self.total_cycles,
            empty_polls: self.empty_polls,
            empty_cycles: self.empty_cycles,
            batch_sizes: self.batch_sizes.clone(),
            route_lookups: 0,
            route_misses: 0,
            stages,
        }
    }
}

/// One element's merged statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Configuration name of the element (e.g. `rt0`).
    pub name: String,
    /// Element class (e.g. `LookupIPRoute`).
    pub class: String,
    /// Batch dispatches into the element.
    pub calls: u64,
    /// Packets moved through the element.
    pub packets: u64,
    /// Cycles spent inside the element's dispatch calls.
    pub cycles: u64,
    /// Histogram of per-dispatch cycle spans.
    pub lat: Log2Histogram,
}

impl StageStats {
    /// Cycles per packet through this stage (0 when no packets moved).
    pub fn cycles_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.cycles as f64 / self.packets as f64
        }
    }
}

/// Merged, labeled metrics — the export format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Measurement level the shards ran at.
    pub level: TelemetryLevel,
    /// Worker shards merged into this snapshot.
    pub workers: u32,
    /// Cycles across all scheduler quanta, summed over workers.
    pub total_cycles: u64,
    /// Quanta that did no useful work (the paper's "empty polls"). Idle
    /// tasks are parked and devices with no frames are not polled, so on
    /// a busy router these are the few pollers that cannot tell they are
    /// idle — they do not grow with the port count.
    pub empty_polls: u64,
    /// Cycles spent in empty quanta.
    pub empty_cycles: u64,
    /// Distribution of packets-per-dispatch (achieved batch sizes).
    pub batch_sizes: Log2Histogram,
    /// Route lookups performed by routing elements, summed over workers
    /// (filled by the driver from `LookupIPRoute` counters).
    pub route_lookups: u64,
    /// Route lookups that found no covering prefix.
    pub route_misses: u64,
    /// Per-element rows, in first-seen (graph) order.
    pub stages: Vec<StageStats>,
}

impl MetricsSnapshot {
    /// An empty snapshot at [`TelemetryLevel::Off`] (merge identity).
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            level: TelemetryLevel::Off,
            workers: 0,
            total_cycles: 0,
            empty_polls: 0,
            empty_cycles: 0,
            batch_sizes: Log2Histogram::new(),
            route_lookups: 0,
            route_misses: 0,
            stages: Vec::new(),
        }
    }

    /// `true` when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.workers == 0 && self.stages.is_empty() && self.total_cycles == 0
    }

    /// Merges another snapshot in. Stages are keyed by `(name, class)`
    /// and accumulated in first-seen order, which makes the operation
    /// associative and commutative up to row order — the property that
    /// lets workers be merged in any grouping.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.level == TelemetryLevel::Off {
            self.level = other.level;
        }
        self.workers += other.workers;
        self.total_cycles += other.total_cycles;
        self.empty_polls += other.empty_polls;
        self.empty_cycles += other.empty_cycles;
        self.batch_sizes.merge(&other.batch_sizes);
        self.route_lookups += other.route_lookups;
        self.route_misses += other.route_misses;
        for row in &other.stages {
            match self
                .stages
                .iter_mut()
                .find(|mine| mine.name == row.name && mine.class == row.class)
            {
                Some(mine) => {
                    mine.calls += row.calls;
                    mine.packets += row.packets;
                    mine.cycles += row.cycles;
                    mine.lat.merge(&row.lat);
                }
                None => self.stages.push(row.clone()),
            }
        }
    }

    /// Cycles spent in quanta that moved packets (total minus empty-poll
    /// cycles — the paper's empty-poll correction).
    pub fn busy_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.empty_cycles)
    }

    /// Packets through the pipeline: the busiest stage's packet count (on
    /// a linear graph, the count every forwarded packet contributes to).
    pub fn pipeline_packets(&self) -> u64 {
        self.stages.iter().map(|s| s.packets).max().unwrap_or(0)
    }

    /// Sum over stages of cycles-per-packet — what one packet pays across
    /// the whole pipeline, comparable to [`MetricsSnapshot::busy_cycles`]
    /// divided by the packet count.
    pub fn stage_cpp_sum(&self) -> f64 {
        self.stages.iter().map(StageStats::cycles_per_packet).sum()
    }

    /// End-to-end cycles per packet over `packets` (0 when unmeasured).
    pub fn end_to_end_cpp(&self, packets: u64) -> f64 {
        if packets == 0 {
            0.0
        } else {
            self.busy_cycles() as f64 / packets as f64
        }
    }

    /// The stage with the highest cycles-per-packet — the saturating
    /// stage in the paper's Fig. 9 sense. `None` when nothing moved.
    pub fn bottleneck(&self) -> Option<&StageStats> {
        self.stages.iter().filter(|s| s.packets > 0).max_by(|a, b| {
            a.cycles_per_packet()
                .partial_cmp(&b.cycles_per_packet())
                .expect("cpp is never NaN")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled(i: usize) -> (String, String) {
        (format!("e{i}"), format!("C{i}"))
    }

    #[test]
    fn shard_records_and_snapshots() {
        let mut m = CoreMetrics::new(TelemetryLevel::Cycles, 2);
        m.record_dispatch(0, 32, 640);
        m.record_dispatch(0, 32, 640);
        m.record_dispatch(1, 64, 64);
        m.record_quantum(1500, true);
        m.record_quantum(100, false);
        let snap = m.snapshot(labeled);
        assert_eq!(snap.workers, 1);
        assert_eq!(snap.total_cycles, 1600);
        assert_eq!(snap.busy_cycles(), 1500);
        assert_eq!(snap.empty_polls, 1);
        assert_eq!(snap.stages.len(), 2);
        assert_eq!(snap.stages[0].calls, 2);
        assert_eq!(snap.stages[0].packets, 64);
        assert_eq!(snap.stages[0].cycles, 1280);
        assert_eq!(snap.stages[0].cycles_per_packet(), 20.0);
        assert_eq!(snap.pipeline_packets(), 64);
        assert_eq!(snap.bottleneck().unwrap().name, "e0");
        assert_eq!(snap.batch_sizes.count(), 3);
    }

    #[test]
    fn counts_level_skips_cycle_state() {
        let mut m = CoreMetrics::new(TelemetryLevel::Counts, 1);
        m.record_dispatch(0, 8, 0);
        let snap = m.snapshot(labeled);
        assert_eq!(snap.stages[0].packets, 8);
        assert_eq!(snap.stages[0].cycles, 0);
        assert!(snap.stages[0].lat.is_empty());
        assert_eq!(snap.batch_sizes.count(), 1);
    }

    #[test]
    fn merge_accumulates_matching_stages() {
        let mut m1 = CoreMetrics::new(TelemetryLevel::Cycles, 1);
        m1.record_dispatch(0, 10, 100);
        let mut m2 = CoreMetrics::new(TelemetryLevel::Cycles, 1);
        m2.record_dispatch(0, 30, 900);
        let mut merged = m1.snapshot(labeled);
        merged.merge(&m2.snapshot(labeled));
        assert_eq!(merged.workers, 2);
        assert_eq!(merged.stages.len(), 1);
        assert_eq!(merged.stages[0].packets, 40);
        assert_eq!(merged.stages[0].cycles, 1000);
        assert_eq!(merged.stages[0].cycles_per_packet(), 25.0);
    }

    #[test]
    fn merge_sums_route_counters() {
        let mut m1 = CoreMetrics::new(TelemetryLevel::Counts, 1);
        m1.record_dispatch(0, 10, 0);
        let mut a = m1.snapshot(labeled);
        a.route_lookups = 10;
        a.route_misses = 2;
        let mut b = m1.snapshot(labeled);
        b.route_lookups = 5;
        b.route_misses = 1;
        a.merge(&b);
        assert_eq!(a.route_lookups, 15);
        assert_eq!(a.route_misses, 3);
    }

    #[test]
    fn merge_identity_is_empty() {
        let mut m = CoreMetrics::new(TelemetryLevel::Cycles, 1);
        m.record_dispatch(0, 4, 40);
        let snap = m.snapshot(labeled);
        let mut merged = MetricsSnapshot::empty();
        merged.merge(&snap);
        assert_eq!(merged, snap);
        let mut merged2 = snap.clone();
        merged2.merge(&MetricsSnapshot::empty());
        assert_eq!(merged2, snap);
    }

    #[test]
    fn stage_cpp_sum_tracks_end_to_end() {
        let mut m = CoreMetrics::new(TelemetryLevel::Cycles, 3);
        // Linear pipeline: every packet crosses all three stages.
        for stage in 0..3 {
            m.record_dispatch(stage, 100, 1000 * (stage as u64 + 1));
        }
        m.record_quantum(6000, true);
        let snap = m.snapshot(labeled);
        let sum = snap.stage_cpp_sum();
        let e2e = snap.end_to_end_cpp(100);
        assert_eq!(sum, 60.0);
        assert_eq!(e2e, 60.0);
    }
}
