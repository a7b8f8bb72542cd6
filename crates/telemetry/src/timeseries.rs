//! Live per-interval time series: wait-free interval rings.
//!
//! Everything else in this crate is drained *after* a run; this module
//! is the in-flight view. Each worker core rolls its counters into a
//! current interval bucket and, at each interval boundary, publishes the
//! closed bucket into a fixed-window ring a reader thread harvests while
//! the worker keeps forwarding:
//!
//! * the **writer** (one per ring — the driver's quantum loop) pays
//!   plain non-atomic accumulation per quantum and one seqlock-style
//!   publication per interval *boundary*, never waiting on readers;
//! * the **reader** ([`Harvester`]) copies closed buckets out of the
//!   ring with a version check per slot and retries the (rare) slot a
//!   writer is mid-publish on — workers are never paused;
//! * bucket counters are **deltas of cumulative totals** taken at
//!   boundaries, so the series telescopes: summed intervals equal the
//!   end-of-run [`Ledger`]/`MetricsSnapshot` totals exactly, no packet
//!   counted twice or lost across a bucket edge.
//!
//! Record layout: every field of a bucket — including the 65 log₂
//! latency buckets and two words per tracked stage — is flattened into
//! one `u64` word of a [`SeqRing`] record; the seqlock protocol that
//! makes a torn copy a retry lives there, once.
//!
//! The ring is the core's only one: the [`Harvester`] derives the event
//! journal's dataplane edges from each core's buckets as it reads them
//! ([`crate::events`]).

use crate::events::{Edges, EventLog};
use crate::hist::Log2Histogram;
use crate::json;
use crate::ledger::{write_drops, DropCause, Ledger};
use crate::seqring::{Record, SeqRing};
use std::sync::Arc;

/// Default ring capacity in buckets: how far a harvester may lag before
/// the writer overwrites unread history.
pub const DEFAULT_RING_CAP: usize = 512;

/// One stage's activity delta inside an interval bucket: the streaming
/// twin of a `BottleneckReport` row, telescoped exactly like the other
/// interval counters (Σ over intervals == the final `MetricsSnapshot`
/// stage totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageDelta {
    /// Packets dispatched through the stage this interval.
    pub packets: u64,
    /// Cycles spent inside the stage this interval (0 when the
    /// telemetry level does not measure cycles).
    pub cycles: u64,
}

/// One closed interval of one core's activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalStats {
    /// Interval index since the recorder started (0-based).
    pub seq: u64,
    /// Worker core the bucket came from (merged buckets keep the first).
    pub core: usize,
    /// Tick ([`crate::cycles::now`]) when the interval opened.
    pub start_tick: u64,
    /// Tick when the interval closed.
    pub end_tick: u64,
    /// Driver quanta executed in the interval.
    pub quanta: u64,
    /// Quanta that moved no packets: probes of parked tasks (a source
    /// polled at the start and the end of a run), not a per-round count
    /// of idle tasks — the driver does not poll those.
    pub empty_polls: u64,
    /// Packets that entered the dataplane this interval.
    pub sourced: u64,
    /// Packets transmitted out this interval.
    pub forwarded: u64,
    /// Bytes transmitted out this interval.
    pub tx_bytes: u64,
    /// Drops by cause this interval, in [`DropCause::ALL`] order.
    pub drops: [u64; DropCause::COUNT],
    /// Pull-regime admission stalls this interval.
    pub credit_stalls: u64,
    /// NIC descriptor-ring full events this interval.
    pub nic_desc_stalls: u64,
    /// Driver runs cut off by their quantum fuse this interval (not in
    /// the JSON export; the journal's `dispatcher_fuse` edges read it).
    pub fuses: u64,
    /// Log₂ sketch of per-quantum processing spans (ticks). Mergeable
    /// bucket-wise, so cross-core and cross-interval aggregation is
    /// exact on the sketch.
    pub latency: Log2Histogram,
    /// Per-stage activity deltas in graph-element order (empty when the
    /// recorder was built without stage labels).
    pub stages: Vec<StageDelta>,
}

impl IntervalStats {
    /// A zeroed bucket for `seq` starting at `start_tick`. External
    /// samplers (e.g. the cluster replay, which buckets on simulated
    /// nanoseconds rather than CPU ticks) build their series from this.
    pub fn empty(seq: u64, core: usize, start_tick: u64) -> IntervalStats {
        Self::empty_with_stages(seq, core, start_tick, 0)
    }

    /// As [`IntervalStats::empty`] with room for `n_stages` per-stage
    /// delta rows.
    pub fn empty_with_stages(
        seq: u64,
        core: usize,
        start_tick: u64,
        n_stages: usize,
    ) -> IntervalStats {
        IntervalStats {
            seq,
            core,
            start_tick,
            end_tick: start_tick,
            quanta: 0,
            empty_polls: 0,
            sourced: 0,
            forwarded: 0,
            tx_bytes: 0,
            drops: [0; DropCause::COUNT],
            credit_stalls: 0,
            nic_desc_stalls: 0,
            fuses: 0,
            latency: Log2Histogram::new(),
            stages: vec![StageDelta::default(); n_stages],
        }
    }

    /// Total drops across all causes.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// `true` when the bucket recorded no activity at all.
    pub fn is_empty(&self) -> bool {
        self.quanta == 0
            && self.sourced == 0
            && self.forwarded == 0
            && self.dropped_total() == 0
            && self.credit_stalls == 0
            && self.nic_desc_stalls == 0
    }

    /// Wall duration of the interval in seconds at `ticks_per_sec`.
    pub fn duration_secs(&self, ticks_per_sec: f64) -> f64 {
        self.end_tick.saturating_sub(self.start_tick) as f64 / ticks_per_sec
    }

    /// Forwarding rate over the interval, packets/second.
    pub fn pps(&self, ticks_per_sec: f64) -> f64 {
        let secs = self.duration_secs(ticks_per_sec);
        if secs > 0.0 {
            self.forwarded as f64 / secs
        } else {
            0.0
        }
    }

    /// Drops as a fraction of packets offered this interval.
    pub fn loss_rate(&self) -> f64 {
        let offered = self.sourced.max(self.forwarded + self.dropped_total());
        if offered == 0 {
            0.0
        } else {
            self.dropped_total() as f64 / offered as f64
        }
    }

    /// Folds another core's same-seq bucket into this one: counters add,
    /// sketches merge, the time window widens to cover both.
    pub fn merge(&mut self, other: &IntervalStats) {
        self.start_tick = self.start_tick.min(other.start_tick);
        self.end_tick = self.end_tick.max(other.end_tick);
        self.quanta += other.quanta;
        self.empty_polls += other.empty_polls;
        self.sourced += other.sourced;
        self.forwarded += other.forwarded;
        self.tx_bytes += other.tx_bytes;
        for (a, b) in self.drops.iter_mut().zip(other.drops.iter()) {
            *a += b;
        }
        self.credit_stalls += other.credit_stalls;
        self.nic_desc_stalls += other.nic_desc_stalls;
        self.fuses += other.fuses;
        self.latency.merge(&other.latency);
        if self.stages.len() < other.stages.len() {
            self.stages
                .resize(other.stages.len(), StageDelta::default());
        }
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.packets += b.packets;
            a.cycles += b.cycles;
        }
    }
}

/// Word offsets of a flattened bucket inside a [`SeqRing`] record, after
/// the sequence number the ring itself keeps.
const W_START: usize = 0;
const W_END: usize = 1;
const W_QUANTA: usize = 2;
const W_EMPTY: usize = 3;
const W_SOURCED: usize = 4;
const W_FORWARDED: usize = 5;
const W_TX_BYTES: usize = 6;
const W_CREDIT: usize = 7;
const W_NIC: usize = 8;
const W_FUSES: usize = 9;
const W_DROPS: usize = 10;
const W_HIST: usize = W_DROPS + DropCause::COUNT;
/// First per-stage word; each tracked stage takes two words
/// (packets, cycles) after the histogram block.
const W_STAGES: usize = W_HIST + Log2Histogram::NUM_BUCKETS;

/// A single-writer, multi-reader ring of closed interval buckets, shaped
/// by the `(name, class)` labels of the stages it tracks, in graph order:
/// every published bucket carries one [`StageDelta`] row per label.
///
/// The writer is the owning core's driver loop, once per interval
/// boundary; readers harvest closed buckets by sequence number. A reader
/// that lags more than the ring capacity loses the overwritten history
/// (by design — the dataplane never waits for observers).
pub type IntervalRing = SeqRing<IntervalStats>;

impl Record for IntervalStats {
    type Shape = Vec<(String, String)>;

    fn width(labels: &Self::Shape) -> usize {
        W_STAGES + 2 * labels.len()
    }

    fn seq(&self) -> u64 {
        self.seq
    }

    fn encode(&self, labels: &Self::Shape) -> impl Iterator<Item = u64> {
        let mut head = [0u64; W_DROPS];
        head[W_START] = self.start_tick;
        head[W_END] = self.end_tick;
        head[W_QUANTA] = self.quanta;
        head[W_EMPTY] = self.empty_polls;
        head[W_SOURCED] = self.sourced;
        head[W_FORWARDED] = self.forwarded;
        head[W_TX_BYTES] = self.tx_bytes;
        head[W_CREDIT] = self.credit_stalls;
        head[W_NIC] = self.nic_desc_stalls;
        head[W_FUSES] = self.fuses;
        let stages = (0..labels.len()).flat_map(|i| {
            let d = self.stages.get(i).copied().unwrap_or_default();
            [d.packets, d.cycles]
        });
        head.into_iter()
            .chain(self.drops)
            .chain(*self.latency.raw_counts())
            .chain(stages)
    }

    fn decode(seq: u64, core: usize, w: &[u64]) -> Option<IntervalStats> {
        Some(IntervalStats {
            seq,
            core,
            start_tick: w[W_START],
            end_tick: w[W_END],
            quanta: w[W_QUANTA],
            empty_polls: w[W_EMPTY],
            sourced: w[W_SOURCED],
            forwarded: w[W_FORWARDED],
            tx_bytes: w[W_TX_BYTES],
            credit_stalls: w[W_CREDIT],
            nic_desc_stalls: w[W_NIC],
            fuses: w[W_FUSES],
            drops: w[W_DROPS..W_HIST].try_into().ok()?,
            latency: Log2Histogram::from_raw(w[W_HIST..W_STAGES].try_into().ok()?),
            stages: w[W_STAGES..]
                .chunks_exact(2)
                .map(|row| StageDelta {
                    packets: row[0],
                    cycles: row[1],
                })
                .collect(),
        })
    }
}

/// Cumulative run totals sampled at an interval boundary; the recorder
/// turns consecutive samples into per-interval deltas. Totals must be
/// monotone non-decreasing between calls on the same recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CumulativeTotals {
    /// Packets sourced so far.
    pub sourced: u64,
    /// Packets forwarded so far.
    pub forwarded: u64,
    /// Bytes transmitted so far.
    pub tx_bytes: u64,
    /// Drops by cause so far, in [`DropCause::ALL`] order.
    pub drops: [u64; DropCause::COUNT],
    /// Credit-gate stalls so far.
    pub credit_stalls: u64,
    /// NIC descriptor stalls so far.
    pub nic_desc_stalls: u64,
    /// Fuse-outs so far.
    pub fuses: u64,
    /// Per-stage cumulative `(packets, cycles)` in graph order (empty
    /// when the recorder tracks no stages).
    pub stages: Vec<StageDelta>,
}

impl CumulativeTotals {
    /// Builds totals from a run ledger plus the stall counters the
    /// ledger does not carry.
    pub fn from_ledger(led: &Ledger, credit_stalls: u64, nic_desc_stalls: u64) -> CumulativeTotals {
        CumulativeTotals {
            sourced: led.sourced,
            forwarded: led.forwarded,
            tx_bytes: 0,
            drops: led.dropped,
            credit_stalls,
            nic_desc_stalls,
            fuses: 0,
            stages: Vec::new(),
        }
    }
}

/// The writer-side interval clock one driver embeds: accumulates
/// per-quantum state into the open bucket and publishes it into the
/// shared ring at each boundary.
///
/// Hot-path contract: with the recorder absent the driver pays one
/// predictable branch per quantum; with it present, [`IntervalRecorder::quantum`]
/// is plain field arithmetic and the clock comparison — publication and
/// the (element-walking) totals snapshot happen only at boundaries.
#[derive(Debug)]
pub struct IntervalRecorder {
    ring: Arc<IntervalRing>,
    interval_ticks: u64,
    deadline: u64,
    open: IntervalStats,
    base: CumulativeTotals,
}

impl IntervalRecorder {
    /// Creates a recorder publishing into a fresh ring of
    /// [`DEFAULT_RING_CAP`] buckets, with the first interval opening at
    /// `now`.
    pub fn new(core: usize, interval_ticks: u64, now: u64) -> IntervalRecorder {
        Self::with_capacity(core, interval_ticks, now, DEFAULT_RING_CAP)
    }

    /// As [`IntervalRecorder::new`] with an explicit ring capacity.
    pub fn with_capacity(
        core: usize,
        interval_ticks: u64,
        now: u64,
        cap: usize,
    ) -> IntervalRecorder {
        Self::with_stage_labels(core, interval_ticks, now, cap, Vec::new())
    }

    /// As [`IntervalRecorder::with_capacity`], additionally tracking one
    /// [`StageDelta`] row per `(name, class)` label in every bucket.
    pub fn with_stage_labels(
        core: usize,
        interval_ticks: u64,
        now: u64,
        cap: usize,
        labels: Vec<(String, String)>,
    ) -> IntervalRecorder {
        let interval_ticks = interval_ticks.max(1);
        let n_stages = labels.len();
        IntervalRecorder {
            ring: Arc::new(IntervalRing::shaped(core, cap, labels)),
            interval_ticks,
            deadline: now + interval_ticks,
            open: IntervalStats::empty_with_stages(0, core, now, n_stages),
            base: CumulativeTotals::default(),
        }
    }

    /// The shared ring a harvester reads from.
    pub fn ring(&self) -> Arc<IntervalRing> {
        Arc::clone(&self.ring)
    }

    /// Interval width in ticks.
    pub fn interval_ticks(&self) -> u64 {
        self.interval_ticks
    }

    /// Rolls one driver quantum into the open bucket: `span` is the
    /// quantum's processing time in ticks, `did_work` whether it moved
    /// any packets.
    #[inline]
    pub fn quantum(&mut self, span: u64, did_work: bool) {
        self.open.quanta += 1;
        if !did_work {
            self.open.empty_polls += 1;
        }
        self.open.latency.record(span);
    }

    /// `true` when `now` has passed the open interval's deadline and the
    /// caller should snapshot totals and [`IntervalRecorder::roll`].
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.deadline
    }

    /// Closes the open bucket at `now` against cumulative `totals`,
    /// publishes it, and opens the next interval.
    pub fn roll(&mut self, now: u64, totals: &CumulativeTotals) {
        self.close(now, totals);
        // Re-anchor rather than back-fill: a long silent gap produces
        // one wide bucket, never a burst of empty ones.
        self.deadline = now + self.interval_ticks;
    }

    /// Closes and publishes the open bucket even if the interval has not
    /// elapsed, provided it holds any activity — called at end of run so
    /// the series telescopes exactly to the final totals.
    pub fn flush(&mut self, now: u64, totals: &CumulativeTotals) {
        if self.open.quanta > 0 || *totals != self.base {
            self.close(now, totals);
            self.deadline = now + self.interval_ticks;
        }
    }

    fn close(&mut self, now: u64, totals: &CumulativeTotals) {
        let b = &mut self.open;
        b.end_tick = now;
        b.sourced = totals.sourced.saturating_sub(self.base.sourced);
        b.forwarded = totals.forwarded.saturating_sub(self.base.forwarded);
        b.tx_bytes = totals.tx_bytes.saturating_sub(self.base.tx_bytes);
        for (i, d) in b.drops.iter_mut().enumerate() {
            *d = totals.drops[i].saturating_sub(self.base.drops[i]);
        }
        b.credit_stalls = totals.credit_stalls.saturating_sub(self.base.credit_stalls);
        b.nic_desc_stalls = totals
            .nic_desc_stalls
            .saturating_sub(self.base.nic_desc_stalls);
        b.fuses = totals.fuses.saturating_sub(self.base.fuses);
        let n_stages = self.ring.shape().len();
        for (i, row) in b.stages.iter_mut().enumerate() {
            let cur = totals.stages.get(i).copied().unwrap_or_default();
            let prev = self.base.stages.get(i).copied().unwrap_or_default();
            row.packets = cur.packets.saturating_sub(prev.packets);
            row.cycles = cur.cycles.saturating_sub(prev.cycles);
        }
        self.ring.publish(b);
        self.base = totals.clone();
        let next = b.seq + 1;
        self.open = IntervalStats::empty_with_stages(next, self.ring.core(), now, n_stages);
    }
}

/// Reader-side accumulator: polls one or more cores' rings, derives each
/// core's journal edges from its buckets in order, and merges same-seq
/// buckets into a cross-core series. Whoever observes a run — the
/// single-threaded router reading itself, the MT harness's dispatcher
/// thread, the monitor behind `/metrics` — holds one. Poll it faster than
/// `capacity × interval` and nothing is ever lost to overwrite.
#[derive(Debug, Default)]
pub struct Harvester {
    rings: Vec<Arc<IntervalRing>>,
    /// Per ring: the next seq to read, and the edge state of its core.
    cursors: Vec<(u64, Edges)>,
    merged: std::collections::BTreeMap<u64, IntervalStats>,
    live_harvested: u64,
    /// Derived edges in harvest order; `overflow` counts lapped buckets.
    journal: EventLog,
}

impl Harvester {
    /// A harvester over `rings` (one per worker core).
    pub fn new(rings: Vec<Arc<IntervalRing>>) -> Harvester {
        let cursors = rings.iter().map(|_| (0, Edges::default())).collect();
        Harvester {
            rings,
            cursors,
            ..Harvester::default()
        }
    }

    /// Drains every ring's new buckets into the merged series and their
    /// edges into the journal. `live` marks buckets read while the writers
    /// were still running (the in-flight-harvest count reported in
    /// [`TimeSeries`]). Returns how many buckets were newly read.
    pub fn poll(&mut self, live: bool) -> usize {
        let mut read = 0;
        for (ring, (cursor, edges)) in self.rings.iter().zip(self.cursors.iter_mut()) {
            let (next, lost, buckets) = ring.harvest(*cursor);
            *cursor = next;
            self.journal.overflow += lost;
            read += buckets.len();
            for b in buckets {
                edges.step(&b, &mut self.journal.events);
                self.merged
                    .entry(b.seq)
                    .and_modify(|m| m.merge(&b))
                    .or_insert(b);
            }
        }
        if live {
            self.live_harvested += read as u64;
        }
        read
    }

    /// Everything merged so far as an owned series (the live view a
    /// monitor serves while the writers keep going). Stage labels are the
    /// first ring's: all rings of one run share a graph.
    pub fn timeseries(&self, interval_ticks: u64) -> TimeSeries {
        TimeSeries {
            interval_ticks,
            live_harvested: self.live_harvested,
            stage_names: self
                .rings
                .first()
                .map(|r| r.shape().clone())
                .unwrap_or_default(),
            intervals: self.merged.values().cloned().collect(),
        }
    }

    /// Everything derived so far as a time-sorted journal (the live view).
    pub fn events(&self) -> EventLog {
        let mut log = self.journal.clone();
        log.sort();
        log
    }

    /// One last poll — the writers have stopped and flushed — then the
    /// series (at the run's nominal `interval_ticks`) and the journal.
    pub fn finish(mut self, interval_ticks: u64) -> (TimeSeries, EventLog) {
        self.poll(false);
        (self.timeseries(interval_ticks), self.events())
    }
}

/// An owned, merged interval series — the exportable result of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    /// Nominal interval width in ticks (0 when the clock was off).
    pub interval_ticks: u64,
    /// Buckets harvested while workers were still running — the live
    /// half of the series, as opposed to the end-of-run flush.
    pub live_harvested: u64,
    /// `(name, class)` labels for the per-interval [`StageDelta`] rows
    /// (empty when no stages were tracked).
    pub stage_names: Vec<(String, String)>,
    /// Merged buckets in sequence order.
    pub intervals: Vec<IntervalStats>,
}

impl TimeSeries {
    /// `true` when the series holds no buckets.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Buckets with any recorded activity.
    pub fn non_empty_intervals(&self) -> usize {
        self.intervals.iter().filter(|b| !b.is_empty()).count()
    }

    /// Sums the series into a ledger (`in_flight` 0 — a closed series
    /// has no packets suspended between buckets). On a drained run this
    /// must equal the final run ledger exactly.
    pub fn ledger(&self) -> Ledger {
        let mut led = Ledger::default();
        for b in &self.intervals {
            led.sourced += b.sourced;
            led.forwarded += b.forwarded;
            for (acc, d) in led.dropped.iter_mut().zip(b.drops.iter()) {
                *acc += d;
            }
        }
        led
    }

    /// Total quanta across the series.
    pub fn quanta(&self) -> u64 {
        self.intervals.iter().map(|b| b.quanta).sum()
    }

    /// Total empty polls across the series.
    pub fn empty_polls(&self) -> u64 {
        self.intervals.iter().map(|b| b.empty_polls).sum()
    }

    /// Total bytes transmitted across the series.
    pub fn tx_bytes(&self) -> u64 {
        self.intervals.iter().map(|b| b.tx_bytes).sum()
    }

    /// The whole run's latency sketch: every bucket's histogram merged.
    pub fn merged_latency(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for b in &self.intervals {
            h.merge(&b.latency);
        }
        h
    }

    /// Per-stage totals summed over the whole series, in
    /// [`TimeSeries::stage_names`] order. On a drained run these equal
    /// the final `MetricsSnapshot` stage packet/cycle totals exactly
    /// (the telescoping property, proptest-gated).
    pub fn stage_totals(&self) -> Vec<StageDelta> {
        let mut totals = vec![StageDelta::default(); self.stage_names.len()];
        for b in &self.intervals {
            if totals.len() < b.stages.len() {
                totals.resize(b.stages.len(), StageDelta::default());
            }
            for (acc, d) in totals.iter_mut().zip(b.stages.iter()) {
                acc.packets += d.packets;
                acc.cycles += d.cycles;
            }
        }
        totals
    }

    /// Appends another series (e.g. a later phase of the same run); seqs
    /// are renumbered to continue this series.
    pub fn extend(&mut self, other: &TimeSeries) {
        let base = self.intervals.last().map_or(0, |b| b.seq + 1);
        self.live_harvested += other.live_harvested;
        if self.stage_names.is_empty() {
            self.stage_names = other.stage_names.clone();
        }
        if self.interval_ticks == 0 {
            self.interval_ticks = other.interval_ticks;
        }
        for (i, b) in other.intervals.iter().enumerate() {
            let mut b = b.clone();
            b.seq = base + i as u64;
            self.intervals.push(b);
        }
    }

    /// JSON export (through [`json::Writer`]): run totals plus one
    /// object per interval with rates converted at `ticks_per_sec`.
    pub fn to_json(&self, ticks_per_sec: f64) -> String {
        let ticks_per_us = ticks_per_sec / 1e6;
        json::object(|w| {
            w.key("interval_ticks").int(self.interval_ticks);
            w.key("ticks_per_sec").float(ticks_per_sec, 0);
            w.key("live_harvested").int(self.live_harvested);
            w.key("stage_names").arr(|w| {
                for (name, class) in &self.stage_names {
                    w.obj(|w| {
                        w.key("name").str(name).key("class").str(class);
                    });
                }
            });
            w.key("intervals").arr(|w| {
                for b in &self.intervals {
                    w.obj(|w| {
                        for (key, v) in [
                            ("seq", b.seq),
                            ("start_tick", b.start_tick),
                            ("end_tick", b.end_tick),
                            ("quanta", b.quanta),
                            ("empty_polls", b.empty_polls),
                            ("sourced", b.sourced),
                            ("forwarded", b.forwarded),
                            ("tx_bytes", b.tx_bytes),
                        ] {
                            w.key(key).int(v);
                        }
                        w.key("pps").float(b.pps(ticks_per_sec), 1);
                        w.key("loss_rate").float(b.loss_rate(), 6);
                        w.key("drops").obj(|w| write_drops(w, &b.drops));
                        w.key("credit_stalls").int(b.credit_stalls);
                        w.key("nic_desc_stalls").int(b.nic_desc_stalls);
                        w.key("stages").arr(|w| {
                            for d in &b.stages {
                                w.obj(|w| {
                                    w.key("packets").int(d.packets);
                                    w.key("cycles").int(d.cycles);
                                });
                            }
                        });
                        for (key, q) in [
                            ("lat_p50_us", 0.50),
                            ("lat_p99_us", 0.99),
                            ("lat_p999_us", 0.999),
                        ] {
                            let ticks = b.latency.quantile(q).unwrap_or(0);
                            w.key(key).float(ticks as f64 / ticks_per_us, 3);
                        }
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn bucket(seq: u64, sourced: u64, forwarded: u64) -> IntervalStats {
        let mut b = IntervalStats::empty(seq, 0, seq * 100);
        b.end_tick = (seq + 1) * 100;
        b.quanta = 4;
        b.sourced = sourced;
        b.forwarded = forwarded;
        b.latency.record(10 + seq);
        b
    }

    #[test]
    fn ring_round_trips_buckets() {
        let ring = IntervalRing::new(3, 8);
        for seq in 0..5 {
            ring.publish(&bucket(seq, 10, 9));
        }
        assert_eq!(ring.published(), 5);
        let (next, _, got) = ring.harvest(0);
        assert_eq!(next, 5);
        assert_eq!(got.len(), 5);
        for (seq, b) in got.iter().enumerate() {
            assert_eq!(b.seq, seq as u64);
            assert_eq!(b.sourced, 10);
            assert_eq!(b.latency.count(), 1);
        }
    }

    #[test]
    fn wraparound_keeps_only_the_last_capacity_buckets() {
        let ring = IntervalRing::new(0, 4);
        for seq in 0..10 {
            ring.publish(&bucket(seq, seq + 1, seq));
        }
        // Seqs 0..6 were overwritten; 6..10 survive.
        assert_eq!(ring.read(0), None, "lapped slot must not decode");
        assert_eq!(ring.read(5), None);
        let (next, _, got) = ring.harvest(0);
        assert_eq!(next, 10);
        let seqs: Vec<u64> = got.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn harvest_resumes_from_cursor() {
        let ring = IntervalRing::new(0, 8);
        ring.publish(&bucket(0, 1, 1));
        let (next, _, got) = ring.harvest(0);
        assert_eq!((next, got.len()), (1, 1));
        // Nothing new: empty harvest, cursor unchanged.
        let (next2, _, got2) = ring.harvest(next);
        assert_eq!((next2, got2.len()), (1, 0));
        ring.publish(&bucket(1, 2, 2));
        let (_, _, got3) = ring.harvest(next2);
        assert_eq!(got3.len(), 1);
        assert_eq!(got3[0].seq, 1);
    }

    #[test]
    fn recorder_turns_cumulative_totals_into_exact_deltas() {
        let mut rec = IntervalRecorder::with_capacity(0, 100, 0, 16);
        let ring = rec.ring();
        rec.quantum(5, true);
        rec.quantum(7, true);
        assert!(!rec.due(99));
        assert!(rec.due(100));
        let t1 = CumulativeTotals {
            sourced: 50,
            forwarded: 40,
            tx_bytes: 2560,
            ..CumulativeTotals::default()
        };
        rec.roll(100, &t1);
        rec.quantum(3, false);
        let mut t2 = t1;
        t2.sourced = 80;
        t2.forwarded = 75;
        t2.tx_bytes = 4800;
        t2.drops[0] = 5;
        rec.roll(205, &t2);
        let (_, _, got) = ring.harvest(0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].sourced, 50);
        assert_eq!(got[0].forwarded, 40);
        assert_eq!(got[0].quanta, 2);
        assert_eq!(got[0].empty_polls, 0);
        assert_eq!(got[1].sourced, 30, "second bucket is the delta");
        assert_eq!(got[1].forwarded, 35);
        assert_eq!(got[1].tx_bytes, 2240);
        assert_eq!(got[1].drops[0], 5);
        assert_eq!(got[1].empty_polls, 1);
        // Telescoping: summed buckets equal the final totals exactly.
        let sum_sourced: u64 = got.iter().map(|b| b.sourced).sum();
        let sum_fwd: u64 = got.iter().map(|b| b.forwarded).sum();
        assert_eq!((sum_sourced, sum_fwd), (t2.sourced, t2.forwarded));
    }

    #[test]
    fn flush_publishes_partial_buckets_but_not_empty_ones() {
        let mut rec = IntervalRecorder::with_capacity(0, 1_000_000, 0, 8);
        let ring = rec.ring();
        // Nothing happened: flush publishes nothing.
        rec.flush(10, &CumulativeTotals::default());
        assert_eq!(ring.published(), 0);
        rec.quantum(4, true);
        let t = CumulativeTotals {
            sourced: 3,
            forwarded: 3,
            ..CumulativeTotals::default()
        };
        rec.flush(20, &t);
        assert_eq!(ring.published(), 1);
        let b = ring.read(0).unwrap();
        assert_eq!(b.sourced, 3);
        assert_eq!(b.quanta, 1);
        // Double flush with unchanged totals publishes nothing more.
        rec.flush(30, &t);
        assert_eq!(ring.published(), 1);
    }

    #[test]
    fn harvester_merges_same_seq_across_cores() {
        let r0 = Arc::new(IntervalRing::new(0, 8));
        let r1 = Arc::new(IntervalRing::new(1, 8));
        let mut b0 = bucket(0, 10, 8);
        b0.core = 0;
        let mut b1 = bucket(0, 6, 6);
        b1.core = 1;
        r0.publish(&b0);
        r1.publish(&b1);
        let mut h = Harvester::new(vec![Arc::clone(&r0), Arc::clone(&r1)]);
        assert_eq!(h.poll(true), 2);
        let (series, _) = h.finish(100);
        assert_eq!(series.intervals.len(), 1);
        let m = &series.intervals[0];
        assert_eq!(m.sourced, 16);
        assert_eq!(m.forwarded, 14);
        assert_eq!(m.latency.count(), 2);
        assert_eq!(series.live_harvested, 2);
    }

    #[test]
    fn timeseries_ledger_and_json_round_trip() {
        let ring = IntervalRing::new(0, 8);
        let mut b = bucket(0, 100, 90);
        b.drops[4] = 10; // NoRxDescriptor column.
        ring.publish(&b);
        ring.publish(&bucket(1, 50, 50));
        let mut h = Harvester::new(vec![Arc::new(ring)]);
        h.poll(false);
        let (series, _) = h.finish(100);
        let led = series.ledger();
        assert_eq!(led.sourced, 150);
        assert_eq!(led.forwarded, 140);
        assert_eq!(led.dropped(DropCause::NoRxDescriptor), 10);
        assert!(led.balances());
        let v = json::parse(&series.to_json(1e9)).expect("timeseries JSON parses");
        let intervals = v
            .get("intervals")
            .and_then(json::Value::as_array)
            .expect("intervals array");
        assert_eq!(intervals.len(), 2);
        assert_eq!(
            intervals[0]
                .get("drops")
                .and_then(|d| d.get("no_rx_descriptor"))
                .and_then(json::Value::as_f64),
            Some(10.0)
        );
    }

    #[test]
    fn extend_renumbers_the_appended_phase() {
        let mut a = TimeSeries {
            interval_ticks: 10,
            live_harvested: 1,
            stage_names: Vec::new(),
            intervals: vec![bucket(0, 5, 5), bucket(1, 5, 5)],
        };
        let b = TimeSeries {
            interval_ticks: 10,
            live_harvested: 2,
            stage_names: Vec::new(),
            intervals: vec![bucket(0, 7, 7)],
        };
        a.extend(&b);
        let seqs: Vec<u64> = a.intervals.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(a.live_harvested, 3);
        assert_eq!(a.ledger().sourced, 17);
    }

    #[test]
    fn stage_rows_round_trip_through_the_ring() {
        let labels = vec![
            ("rx".to_string(), "FromDevice".to_string()),
            ("rt".to_string(), "LookupIPRoute".to_string()),
        ];
        let mut rec = IntervalRecorder::with_stage_labels(0, 100, 0, 8, labels.clone());
        let ring = rec.ring();
        assert_eq!(ring.shape(), &labels);
        rec.quantum(5, true);
        let t1 = CumulativeTotals {
            sourced: 10,
            forwarded: 10,
            stages: vec![
                StageDelta {
                    packets: 10,
                    cycles: 100,
                },
                StageDelta {
                    packets: 10,
                    cycles: 900,
                },
            ],
            ..CumulativeTotals::default()
        };
        rec.roll(100, &t1);
        let mut t2 = t1.clone();
        t2.sourced = 25;
        t2.forwarded = 25;
        t2.stages[0].packets = 25;
        t2.stages[0].cycles = 260;
        t2.stages[1].packets = 25;
        t2.stages[1].cycles = 2000;
        rec.quantum(3, true);
        rec.roll(200, &t2);
        let (_, _, got) = ring.harvest(0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].stages[0].packets, 10);
        assert_eq!(got[0].stages[1].cycles, 900);
        assert_eq!(got[1].stages[0].packets, 15, "second bucket is the delta");
        assert_eq!(got[1].stages[0].cycles, 160);
        assert_eq!(got[1].stages[1].cycles, 1100);
        // Telescoping: summed stage rows equal the final totals.
        let mut h = Harvester::new(vec![ring]);
        h.poll(false);
        let (series, _) = h.finish(100);
        assert_eq!(series.stage_names, labels);
        let totals = series.stage_totals();
        assert_eq!(totals[0].packets, 25);
        assert_eq!(totals[1].cycles, 2000);
    }

    proptest::proptest! {
        /// The tentpole exactness property, extended to stages: feed the
        /// recorder an arbitrary monotone sequence of cumulative totals
        /// (random per-stage increments, random roll/flush boundaries)
        /// and the summed per-stage interval series must equal the final
        /// cumulative totals exactly — no packet or cycle counted twice
        /// or lost across a bucket edge.
        #[test]
        fn stage_series_telescopes_exactly(
            steps in proptest::collection::vec(
                (0u64..100, 0u64..1000, 0u64..100, 0u64..1000, proptest::prelude::any::<bool>()),
                1..40,
            )
        ) {
            let labels = vec![
                ("a".to_string(), "A".to_string()),
                ("b".to_string(), "B".to_string()),
            ];
            let mut rec = IntervalRecorder::with_stage_labels(0, 10, 0, 256, labels);
            let ring = rec.ring();
            let mut cum = CumulativeTotals {
                stages: vec![StageDelta::default(); 2],
                ..CumulativeTotals::default()
            };
            let mut now = 0u64;
            for (p0, c0, p1, c1, roll) in steps.iter().copied() {
                cum.stages[0].packets += p0;
                cum.stages[0].cycles += c0;
                cum.stages[1].packets += p1;
                cum.stages[1].cycles += c1;
                cum.sourced += p0;
                cum.forwarded += p0;
                rec.quantum(1, true);
                now += if roll { 10 } else { 3 };
                if rec.due(now) {
                    rec.roll(now, &cum);
                }
            }
            rec.flush(now + 10, &cum);
            let mut h = Harvester::new(vec![ring]);
            h.poll(false);
            let (series, _) = h.finish(10);
            let totals = series.stage_totals();
            proptest::prop_assert_eq!(totals[0], cum.stages[0]);
            proptest::prop_assert_eq!(totals[1], cum.stages[1]);
            proptest::prop_assert_eq!(series.ledger().sourced, cum.sourced);
        }
    }
}
