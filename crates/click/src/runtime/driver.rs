//! The single-threaded batched graph driver.
//!
//! [`Router`] owns a validated [`Graph`] and executes it: active elements
//! (sources, device drains) are arbitrated by the stride scheduler; push
//! cascades are routed along edges as [`PacketBatch`]es through an
//! explicit FIFO work queue (elements never call each other, so there is
//! no aliasing of `&mut` element state); pull chains are resolved
//! recursively from the drain back to the nearest queue, a burst at a
//! time.
//!
//! Batching is the paper's `kp` parameter applied to graph dispatch: one
//! `push_batch` call, one work-queue round-trip and one statistics update
//! move up to [`Router::batch_size`] packets, instead of paying those
//! costs per packet. An element emits into one batch per output port
//! ([`Output`]), and those batches are what the work queue carries, so
//! relative packet order *within an edge* is identical for every batch
//! size — which is what makes scalar and batched execution produce
//! byte-identical output streams on merge-free graphs (see
//! `tests/dataplane_oracle.rs`).

use crate::config::Knobs;
use crate::element::{Output, PacketBatch, PortKind};
use crate::elements::device::{FromDevice, ToDevice};
use crate::elements::queue::QueueStats;
use crate::elements::sink::{Counter, CounterStats};
use crate::elements::source::{InfiniteSource, SpecSource};
use crate::graph::{Edge, ElementId, Graph};
use crate::runtime::stride::StrideScheduler;
use rb_packet::{Packet, PacketPool};
use rb_telemetry::{
    cycles, CoreMetrics, CumulativeTotals, DropCause, Harvester, IntervalRecorder, IntervalRing,
    Ledger, MetricsSnapshot, TelemetryLevel, TimeSeries, TraceKind, TraceLog, Tracer,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// What the driver itself counts, kept as it goes: what
/// [`Router::run_until_idle`] returns. Every field is exact at no cost;
/// the pool and descriptor-ring totals, which live in the elements, are
/// summed only by [`Router::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Packets moved through element push handlers.
    pub pushes: u64,
    /// Batch dispatches (`push_batch` invocations).
    pub batch_calls: u64,
    /// Packets that reached an unconnected output.
    pub leaked: u64,
    /// Packets consumed by the *default* `Element::push_batch`.
    pub dropped_default: u64,
    /// Whether the most recent [`Router::run_until_idle`] call exited on
    /// its fuse (see [`RunStats::fused`]).
    pub fused: bool,
}

/// Statistics of one run: the driver's own counts plus the pool and
/// descriptor-ring totals [`Router::stats`] sums over the elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Packets moved through element push handlers.
    pub pushes: u64,
    /// Batch dispatches (`push_batch` invocations); `pushes /
    /// batch_calls` is the achieved mean batch size.
    pub batch_calls: u64,
    /// Packets that reached an unconnected output (should be zero on a
    /// validated graph).
    pub leaked: u64,
    /// Packets consumed by the *default* `Element::push_batch` — an element
    /// wired into a push path it does not implement. Nonzero means the
    /// graph is misconfigured.
    pub dropped_default: u64,
    /// Arena slot allocations across every pool-owning element.
    pub pool_allocs: u64,
    /// Arena slots recycled back to their free lists.
    pub pool_recycles: u64,
    /// Packets dropped because an arena had no free slot (the paper's
    /// "no free descriptor" NIC drop).
    pub pool_exhausted: u64,
    /// Buffers deflected to heap storage (frame outgrew its slot, or an
    /// infallible constructor hit an exhausted pool).
    pub pool_fallbacks: u64,
    /// High-water mark of live arena slots, summed across pools.
    pub pool_peak_in_use: u64,
    /// Arena slots returned through a `FreeBatch` (a subset of
    /// `pool_recycles` that took one lock per batch, not per slot).
    pub pool_bulk_recycles: u64,
    /// NIC doorbells rung across every descriptor ring (one per `kn`
    /// reclaimed descriptors — Table 1's NIC-driven batching axis).
    pub nic_doorbells: u64,
    /// Descriptor writeback batches (ring reclaim operations).
    pub nic_reclaim_batches: u64,
    /// Posts that found every descriptor in use (ring-full stalls).
    pub nic_desc_stalls: u64,
    /// Frame bytes DMA'd across every descriptor ring (RX posts by the
    /// device model plus TX posts by the driver).
    pub nic_dma_bytes: u64,
    /// Whether the most recent [`Router::run_until_idle`] call exited on
    /// the `max_quanta` fuse with runnable work still scheduled, rather
    /// than on a clean idle drain. A blown fuse is *not* a verified
    /// drain — under the pull regime it is the livelock signal.
    pub fused: bool,
}

impl RunStats {
    /// These statistics with their pool fields read from `pool`.
    pub(crate) fn with_pool(self, pool: &rb_packet::PoolStats) -> RunStats {
        RunStats {
            pool_allocs: pool.allocs,
            pool_recycles: pool.recycles,
            pool_bulk_recycles: pool.bulk_recycles,
            pool_exhausted: pool.exhausted,
            pool_fallbacks: pool.heap_fallbacks,
            pool_peak_in_use: pool.peak_in_use as u64,
            ..self
        }
    }
}

/// Cap on pooled batch buffers; beyond this, excess buffers are freed.
const BATCH_POOL_LIMIT: usize = 64;

/// What the driver resolved about one drain (see [`plan_tasks`]).
struct Drain {
    /// Its pull chain, drain side first: `chain[0]` enters the drain's
    /// input 0, every later edge enters the through-element the edge
    /// before it leaves (an agnostic element in a pull path, e.g. a
    /// `Counter`), and the last edge leaves the terminal pull source (a
    /// `Queue`).
    chain: Vec<Edge>,
    /// Packets it pulls a quantum: its device's burst, else `kp`.
    burst: usize,
    /// Its source answers [`crate::Element::pull_backlog`].
    hinted: bool,
    /// The backlog it sits on while deferred; zero when it is not.
    held: usize,
}

/// Resolves the task table: for every element, `Some(Drain)` when it is a
/// drain — its first input is a pull port, so as a task it runs by pulling
/// its chain rather than by `run_task` — and `None` otherwise, or if the
/// chain reaches no source: there is never anything to pull.
///
/// The driver reads this table instead of asking
/// [`crate::Element::ports`] (two `Vec` allocations an answer) on every
/// quantum and pull hop.
fn plan_tasks(graph: &Graph, kp: usize) -> Vec<Option<Drain>> {
    let inputs: Vec<Vec<PortKind>> = (0..graph.len())
        .map(|id| graph.element(id).ports().inputs)
        .collect();
    let plan = |drain: ElementId| {
        let dev = graph.element(drain).downcast_ref::<ToDevice>();
        let mut plan = Drain {
            chain: Vec::new(),
            burst: dev.map_or(kp, ToDevice::burst),
            hinted: false,
            held: 0,
        };
        let mut to = drain;
        // At most one hop per element; the bound only ends a walk around
        // a malformed cyclic pull path.
        for _ in 0..graph.len() {
            let &edge = graph.edges_into(to, 0).first()?;
            plan.chain.push(edge);
            // All-push inputs (or none): the element hands out packets of
            // its own instead of pulling them through from upstream.
            if inputs[edge.from].iter().all(|k| *k == PortKind::Push) {
                let hint = graph.element(edge.from).pull_backlog(edge.from_port);
                plan.hinted = hint.is_some();
                return Some(plan);
            }
            to = edge.from;
        }
        None
    };
    inputs
        .iter()
        .enumerate()
        .map(|(id, kinds)| (kinds.first() == Some(&PortKind::Pull)).then(|| plan(id))?)
        .collect()
}

/// Turns `knobs` into element state: a fresh arena for each poolable
/// element that has none (at `pool_slots` > 0), the device burst —
/// `poll_burst`, else `kp` — for each device its arguments did not pin,
/// and `kn` on each device ring.
fn configure_elements(graph: &mut Graph, knobs: &Knobs) {
    let device_burst = knobs.poll_burst.unwrap_or(knobs.batch_size);
    let pool = || PacketPool::new(knobs.pool_slots, knobs.slot_size);
    for id in 0..graph.len() {
        let el = graph.element_mut(id);
        let attach = knobs.pool_slots > 0 && el.pool().is_none();
        if let Some(dev) = el.downcast_mut::<FromDevice>() {
            dev.resolve_burst(device_burst);
            dev.set_nic_batch(knobs.nic_batch);
            if attach {
                dev.set_pool(pool());
            }
        } else if let Some(dev) = el.downcast_mut::<ToDevice>() {
            dev.resolve_burst(device_burst);
            dev.set_nic_batch(knobs.nic_batch);
        } else if let Some(src) = el.downcast_mut::<InfiniteSource>().filter(|_| attach) {
            src.set_pool(pool());
        } else if let Some(src) = el.downcast_mut::<SpecSource>().filter(|_| attach) {
            src.set_pool(pool());
        }
    }
}

/// An executable router: a graph plus its task scheduler.
pub struct Router {
    graph: Graph,
    scheduler: StrideScheduler,
    /// Task table by element id (see [`plan_tasks`]).
    tasks: Vec<Option<Drain>>,
    /// The wake map: by element id, the hinted drain whose chain ends
    /// there — a push into that element makes the drain runnable.
    wakes: Vec<Option<ElementId>>,
    /// The tasks no push can wake: sources and unhinted drains.
    pollers: Vec<ElementId>,
    /// Drains deferred since the last release (one that ran since is
    /// still listed, its `held` zero), the packets they hold between
    /// them, and the bound on that: half the smallest attached arena.
    deferred: Vec<ElementId>,
    held: usize,
    held_cap: usize,
    /// Useful poller quanta so far, and the count at which the deferred
    /// are released whatever they hold (`u64::MAX`: none is deferred).
    poller_quanta: u64,
    release_at: u64,
    stats: DriverStats,
    /// Dispatch batch size `kp`: max packets per work-queue entry.
    batch_size: usize,
    /// FIFO of `(element, input port, batch)` awaiting dispatch.
    work: VecDeque<(ElementId, usize, PacketBatch)>,
    /// Recycled batch buffers (capacity retained across quanta).
    pool: Vec<PacketBatch>,
    /// The emission collector every dispatch of a quantum writes to
    /// (empty between quanta).
    out: Output,
    /// This core's telemetry shard (level [`TelemetryLevel::Off`] unless
    /// configured; every record is guarded by one branch on the level).
    metrics: CoreMetrics,
    /// This core's path-trace shard (off unless configured; disabled
    /// sites pay one branch).
    tracer: Tracer,
    /// Scratch list of traced packet IDs seen in the batch being
    /// dispatched (reused to keep the trace path allocation-free).
    trace_ids: Vec<u64>,
    /// Live interval clock (off unless configured): rolls per-quantum
    /// deltas into this core's wait-free interval ring. Boxed so the
    /// quantum hook can detach it with a pointer move, and so a disabled
    /// clock costs one branch on the `Option`, not a 700-byte field.
    interval: Option<Box<IntervalRecorder>>,
    /// Cumulative credit-gate stalls reported by an external harness
    /// (the credit gate lives in the MT pump loop, not in the graph);
    /// folded into interval totals so stall deltas land in the buckets.
    extern_credit_stalls: u64,
    /// [`Router::run_until_idle`] calls that blew the fuse, for the
    /// interval buckets (the journal's `dispatcher_fuse` edges).
    fuses: u64,
}

/// Collects the nonzero trace IDs of `pkts` into `ids` (cleared first).
fn traced_ids(pkts: &[Packet], ids: &mut Vec<u64>) {
    ids.clear();
    ids.extend(pkts.iter().map(|p| p.meta.trace_id).filter(|&id| id != 0));
}

/// Records one side of a ring hop on `tracer` for every traced packet in
/// `pkts`, timestamped now (no-op with tracing off). The MT runtime calls
/// this on both sides of an SPSC hop — on a worker's router and on the
/// dispatcher thread's own shard — so exported traces carry cross-core
/// edges.
pub(crate) fn trace_hop(tracer: &mut Tracer, kind: TraceKind, pkts: &[Packet]) {
    if tracer.enabled() {
        let mut ids = Vec::new();
        traced_ids(pkts, &mut ids);
        if !ids.is_empty() {
            tracer.record_hop(kind, &ids, cycles::now());
        }
    }
}

impl Router {
    /// Default dispatch batch size (the paper's favoured poll burst).
    pub const DEFAULT_BATCH_SIZE: usize = 32;

    /// [`Router::configured`] under the default [`Knobs`]: `kp` 32, `kn`
    /// 1, heap buffers, telemetry, interval clock and tracing off.
    ///
    /// # Errors
    ///
    /// See [`Router::configured`].
    pub fn new(graph: Graph) -> Result<Router, crate::GraphError> {
        Router::configured(graph, &Knobs::default(), 0)
    }

    /// Wraps a validated graph with every knob a `Router` reads applied,
    /// recording as `core` (0 single-threaded; the worker index in a
    /// multi-threaded run) — the one place knobs become router and
    /// element state, and the one time: a router is not reconfigured.
    ///
    /// Every poolable element without an arena gets a fresh
    /// `PacketPool(pool_slots, slot_size)` (none at `pool_slots` 0; a
    /// hand-attached arena is kept); every `FromDevice` and `ToDevice`
    /// its own arguments did not pin moves the device burst,
    /// `poll_burst`, else `kp`; every device ring writes back by `kn`.
    /// Then come `kp` itself, the telemetry level, the interval clock and
    /// path tracing, and last the task table, planned once.
    ///
    /// # Errors
    ///
    /// Returns the graph's validation error when ports are left
    /// unconnected.
    pub fn configured(
        mut graph: Graph,
        knobs: &Knobs,
        core: u32,
    ) -> Result<Router, crate::GraphError> {
        graph.check_fully_connected()?;
        assert!(knobs.batch_size > 0, "batch size must be positive");
        assert!(knobs.nic_batch > 0, "nic batch must be positive");
        configure_elements(&mut graph, knobs);
        let n = graph.len();
        let mut router = Router {
            graph,
            scheduler: StrideScheduler::new(),
            tasks: Vec::new(),
            wakes: vec![None; n],
            pollers: Vec::new(),
            deferred: Vec::new(),
            held: 0,
            held_cap: usize::MAX,
            poller_quanta: 0,
            release_at: u64::MAX,
            stats: DriverStats::default(),
            batch_size: knobs.batch_size,
            work: VecDeque::new(),
            pool: Vec::new(),
            out: Output::new(),
            metrics: CoreMetrics::new(knobs.telemetry, n),
            tracer: Tracer::new(knobs.trace_sample, core),
            trace_ids: Vec::new(),
            interval: None,
            extern_credit_stalls: 0,
            fuses: 0,
        };
        // Off is the state it is in; on pays the tick-rate calibration.
        if knobs.interval_ms > 0 {
            // Non-negative, and `as` saturates: a width past 2^64 ticks is
            // a clock that never rolls.
            #[allow(clippy::cast_possible_truncation)]
            let ticks = (knobs.interval_ms as f64 * cycles::ticks_per_sec() / 1e3) as u64;
            router.set_interval_ticks(ticks, core as usize);
        }
        router.plan();
        Ok(router)
    }

    /// Resolves the task table and schedules every active element.
    fn plan(&mut self) {
        self.tasks = plan_tasks(&self.graph, self.batch_size);
        for (id, task) in self.tasks.iter().enumerate() {
            if !self.graph.element(id).is_active() {
                continue;
            }
            self.scheduler.add(id);
            match task.as_ref().filter(|drain| drain.hinted) {
                Some(drain) => self.wakes[drain.chain[drain.chain.len() - 1].from] = Some(id),
                None => self.pollers.push(id),
            }
        }
        // A deferred packet pins an arena slot: cap what deferral may pin.
        let smallest = self.pool_rows().iter().map(|p| p.slots).min();
        self.held_cap = smallest.map_or(usize::MAX, |slots| slots / 2);
    }

    /// The configured trace sampling interval (0 = off).
    pub fn trace_sample(&self) -> u64 {
        self.tracer.sample()
    }

    /// [`trace_hop`] on this router's trace shard.
    pub fn trace_hop(&mut self, kind: TraceKind, pkts: &[Packet]) {
        trace_hop(&mut self.tracer, kind, pkts);
    }

    /// Drains the trace shard into a labeled [`TraceLog`] (empty when
    /// tracing is off). Sampling state is kept, so a router can keep
    /// running and be drained again.
    pub fn take_trace_log(&mut self) -> TraceLog {
        let graph = &self.graph;
        self.tracer
            .drain(|stage| graph.name_of(stage as ElementId).to_string())
    }

    /// The packet-conservation ledger of everything this router has run:
    /// element contributions (sources, devices, queues, sinks, filters)
    /// plus the driver's own wiring drops. On a finished run
    /// [`Ledger::balances`] must hold — a nonzero residual means packets
    /// vanished (or were double-counted) somewhere untracked.
    pub fn ledger(&self) -> Ledger {
        let mut led = Ledger::default();
        for id in 0..self.graph.len() {
            if let Some(part) = self.graph.element(id).ledger() {
                led.merge(&part);
            }
        }
        led.add(DropCause::Wiring, self.stats.dropped_default);
        led.add(DropCause::Leaked, self.stats.leaked);
        led
    }

    /// The configured telemetry level.
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.metrics.level()
    }

    /// Freezes the telemetry shard into a labeled snapshot. With
    /// telemetry off nothing was measured, so the merge-identity empty
    /// snapshot comes back instead of a table of zero rows.
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        if !self.metrics.enabled() {
            return MetricsSnapshot::empty();
        }
        let mut snap = self.metrics.snapshot(|id| {
            (
                self.graph.name_of(id).to_string(),
                self.graph.element(id).class_name().to_string(),
            )
        });
        // Route-lookup accounting lives in the routing elements' own
        // counters; fold every instance into the snapshot so merged MT
        // reports carry cluster-wide (lookups, misses).
        for id in 0..self.graph.len() {
            if let Some(rt) = self
                .graph
                .element(id)
                .downcast_ref::<crate::elements::route::LookupIPRoute>()
            {
                let (lookups, misses) = rt.counts();
                snap.route_lookups += lookups;
                snap.route_misses += misses;
            }
        }
        snap
    }

    /// Starts the live interval clock with buckets `ticks` wide on
    /// `core`'s ring (`ticks == 0` leaves it off).
    fn set_interval_ticks(&mut self, ticks: u64, core: usize) {
        self.interval = (ticks > 0).then(|| {
            // Stage rows carry per-element deltas only when the metrics
            // shard records them; labels are (instance name, class) in
            // graph order, matching `CoreMetrics::stage_totals`.
            let labels = if self.metrics.enabled() {
                (0..self.graph.len())
                    .map(|id| {
                        (
                            self.graph.name_of(id).to_string(),
                            self.graph.element(id).class_name().to_string(),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Box::new(IntervalRecorder::with_stage_labels(
                core,
                ticks,
                cycles::now(),
                rb_telemetry::DEFAULT_RING_CAP,
                labels,
            ))
        });
    }

    /// Nominal interval width in ticks (0 when the clock is off).
    pub fn interval_ticks(&self) -> u64 {
        self.interval.as_ref().map_or(0, |rec| rec.interval_ticks())
    }

    /// This router's interval ring — its one ring — for a harvester
    /// thread to poll while the router keeps running; the harvester
    /// derives the event journal from it. `None` when the clock is off.
    pub fn interval_ring(&self) -> Option<Arc<IntervalRing>> {
        self.interval.as_ref().map(|rec| rec.ring())
    }

    /// Closes the open partial bucket (if it saw any activity) so the
    /// series accounts for every packet. Deliberately *not* called by
    /// [`Router::run_until_idle`] — MT workers run to idle once per ring
    /// cycle, and flushing there would publish per-cycle buckets instead
    /// of per-interval ones. [`Router::timeseries`] and the MT
    /// worker-summary path flush at their drain points.
    pub fn interval_flush(&mut self) {
        if self.interval.is_some() {
            let totals = self.interval_totals();
            if let Some(rec) = self.interval.as_mut() {
                rec.flush(cycles::now(), &totals);
            }
        }
    }

    /// Harvests everything published so far into a [`TimeSeries`]
    /// (flushing the open bucket first), read the way the MT harness reads
    /// its workers' rings. `None` when the clock is off.
    pub fn timeseries(&mut self) -> Option<TimeSeries> {
        self.interval_flush();
        let rec = self.interval.as_ref()?;
        let (series, _) = Harvester::new(vec![rec.ring()]).finish(rec.interval_ticks());
        Some(series)
    }

    /// Cumulative run totals sampled at an interval boundary: the ledger
    /// plus wire bytes, device stalls and fuse-outs. Boundary-to-boundary
    /// deltas of these monotone totals telescope, which is what makes the
    /// summed interval series equal the final ledger exactly.
    fn interval_totals(&self) -> CumulativeTotals {
        let led = self.ledger();
        let mut tx_bytes = 0;
        let mut nic_desc_stalls = 0;
        for id in 0..self.graph.len() {
            let el = self.graph.element(id);
            if let Some(ns) = el.nic_stats() {
                nic_desc_stalls += ns.stalls;
            }
            if let Some(dev) = el.downcast_ref::<ToDevice>() {
                tx_bytes += dev.sent_bytes();
            }
        }
        let mut totals =
            CumulativeTotals::from_ledger(&led, self.extern_credit_stalls, nic_desc_stalls);
        totals.tx_bytes = tx_bytes;
        totals.fuses = self.fuses;
        totals.stages = self.metrics.stage_totals();
        totals
    }

    /// Updates the cumulative credit-stall total an external pump loop
    /// has observed for this core (monotone; interval buckets carry the
    /// per-boundary deltas).
    pub fn note_credit_stalls(&mut self, total: u64) {
        self.extern_credit_stalls = total;
    }

    /// Per-quantum interval hook: accounts the span, and on a deadline
    /// crossing snapshots totals and rolls the bucket into the ring. The
    /// recorder is detached during the roll so the totals walk can borrow
    /// the graph; the detach is a `Box` pointer move, not a copy.
    #[inline]
    fn interval_quantum(&mut self, span: u64, did_work: bool, now: u64) {
        let Some(mut rec) = self.interval.take() else {
            return;
        };
        rec.quantum(span, did_work);
        if rec.due(now) {
            let totals = self.interval_totals();
            rec.roll(now, &totals);
        }
        self.interval = Some(rec);
    }

    /// Whether a dispatch span is measured: by the cycle account, the
    /// path trace, or both.
    #[inline]
    fn spans_clocked(&self) -> bool {
        self.metrics.cycles_on() || self.tracer.enabled()
    }

    /// Opens a dispatch span: the one clock read the cycle account and the
    /// path trace both start from, or 0 when neither measures it.
    #[inline]
    fn span_open(&self) -> u64 {
        if self.spans_clocked() {
            cycles::now()
        } else {
            0
        }
    }

    /// Closes the span opened at `t0` around a dispatch of `packets`
    /// packets into `stage`: one clock read, booked to the stage's metrics
    /// row and, for the traced IDs collected before the dispatch, to the
    /// trace. One branch when telemetry and tracing are both off.
    #[inline]
    fn span_close(&mut self, stage: ElementId, packets: u64, t0: u64) {
        if !self.metrics.enabled() && !self.tracer.enabled() {
            return;
        }
        let span = if self.spans_clocked() {
            cycles::now().wrapping_sub(t0)
        } else {
            0
        };
        if self.metrics.enabled() {
            self.metrics.record_dispatch(stage, packets, span);
        }
        if self.tracer.enabled() && !self.trace_ids.is_empty() {
            // On the dispatch path, so checked in debug builds only: an
            // element id indexes a graph of far fewer than 2^32 elements.
            debug_assert!(u32::try_from(stage).is_ok());
            #[allow(clippy::cast_possible_truncation)]
            let stage = stage as u32;
            self.tracer.record_element(stage, &self.trace_ids, t0, span);
        }
    }

    /// Stamps trace IDs onto fresh source emissions (every `sample`-th
    /// untraced packet) and collects the batch's traced IDs into the
    /// scratch list for the span record that follows.
    #[inline]
    fn stamp_source(&mut self, out: &mut Output) {
        if !self.tracer.enabled() {
            return;
        }
        self.trace_ids.clear();
        for pkt in out.packets_mut() {
            if pkt.meta.trace_id == 0 {
                pkt.meta.trace_id = self.tracer.maybe_assign();
            }
            if pkt.meta.trace_id != 0 {
                self.trace_ids.push(pkt.meta.trace_id);
            }
        }
    }

    /// The dispatch batch size `kp`; 1 is per-packet dispatch, the scalar
    /// baseline.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Runs until every active element has reported idle since the last
    /// useful quantum — parked drains by their empty queues, the pollers
    /// by being armed once more, where each is polled only if it
    /// [may have work](crate::Element::has_work) — or the router's
    /// cumulative quantum count, [`DriverStats::quanta`] over every call so
    /// far, reaches `max_quanta`: the fuse is a ceiling on that counter,
    /// not a budget for this call, so `run_until_idle(0)` runs nothing and
    /// a caller that wants `n` more quanta passes `stats().quanta + n`.
    ///
    /// Returns what the driver counted itself, cumulative over every call;
    /// the pool and descriptor-ring totals are summed over the elements by
    /// [`Router::stats`] alone, which a call here never pays for.
    /// `DriverStats::fused` distinguishes a blown fuse (ceiling reached
    /// with runnable work left) from a clean drain — a fuse-out is not a
    /// verified drain and can mask livelock if read as one. `fused`
    /// reflects only this call.
    pub fn run_until_idle(&mut self, max_quanta: u64) -> DriverStats {
        self.stats.fused = false;
        let mut settled = false;
        loop {
            if self.scheduler.is_empty() {
                self.scheduler.settle();
                // Idle, if the pollers all said so since the last useful
                // quantum, or if none of them may have work.
                if !self.release_deferred() {
                    if settled {
                        break;
                    }
                    settled = true;
                    self.arm_pollers();
                    if self.scheduler.is_empty() {
                        break;
                    }
                }
            }
            if self.stats.quanta >= max_quanta {
                self.stats.fused = true;
                self.fuses += 1;
                break;
            }
            settled &= !self.run_quantum();
        }
        self.stats
    }

    /// Wakes the pollers that may have work. The rest stay parked until
    /// an arm finds that they do, each charged the empty poll it is spared
    /// (see [`StrideScheduler::charge`]), so the tasks that do run are
    /// picked in the order they would be if it had run.
    fn arm_pollers(&mut self) {
        for &id in &self.pollers {
            if self.graph.element(id).has_work() {
                self.scheduler.wake(id);
            } else {
                self.scheduler.charge(id);
            }
        }
    }

    /// Makes every deferred drain runnable; `false` when there was none.
    fn release_deferred(&mut self) -> bool {
        let mut woken = false;
        for id in self.deferred.drain(..) {
            let drain = self.tasks[id].as_mut().expect("only drains are deferred");
            woken |= std::mem::take(&mut drain.held) > 0 && self.scheduler.wake(id);
        }
        self.held = 0;
        self.release_at = u64::MAX;
        woken
    }

    /// Decides what the parked, hinted drain `id` does about its backlog,
    /// after a push into its source or a quantum of its own. Holding less
    /// than its own burst it is *deferred* — left parked while the sources
    /// fill the burst, so the device is rung for a whole batch — if its
    /// queue would take another burst on top; else it runs. The deferred
    /// are released together: when nothing else is runnable, `burst`
    /// useful poller quanta after the first deferral, or at `held_cap`.
    fn wake_drain(&mut self, id: ElementId) {
        if !self.scheduler.is_parked(id) {
            return;
        }
        let drain = self.tasks[id].as_mut().expect("the wake map names drains");
        let burst = drain.burst;
        let src = drain.chain[drain.chain.len() - 1];
        let hint = self.graph.element(src.from).pull_backlog(src.from_port);
        let (backlog, room) = hint.expect("hinted at plan time");
        let was = std::mem::take(&mut drain.held);
        self.held -= was;
        if backlog >= burst || backlog > 0 && room < burst {
            self.scheduler.wake(id);
        } else if backlog > 0 {
            drain.held = backlog;
            self.held += backlog;
            if was == 0 {
                self.deferred.push(id);
                self.release_at = self.release_at.min(self.poller_quanta + burst as u64);
            }
            if self.held >= self.held_cap {
                self.release_deferred();
            }
        }
    }

    /// Runs exactly one scheduling quantum; returns `true` if the task did
    /// useful work. With nothing runnable it releases the deferred drains
    /// or else arms the pollers, so stepping quanta by hand polls the ones
    /// that may have work round-robin and finds work injected from
    /// outside; with none of them, the call runs no task.
    pub fn run_quantum(&mut self) -> bool {
        // Interval clock span: read even when cycle telemetry is off —
        // the disabled clock pays exactly one predictable branch here.
        let iv0 = if self.interval.is_some() {
            cycles::now()
        } else {
            0
        };
        if self.scheduler.is_empty() {
            self.scheduler.settle();
            if !self.release_deferred() {
                self.arm_pollers();
            }
        }
        let Some(id) = self.scheduler.next() else {
            if self.interval.is_some() {
                let now = cycles::now();
                self.interval_quantum(now.wrapping_sub(iv0), false, now);
            }
            return false;
        };
        self.stats.quanta += 1;
        let q0 = self.span_open();
        let did_work = self.run_task(id);
        // The pick is parked. A hinted drain's backlog decides whether it
        // runs again; a poller does if it found something to do, and is
        // charged the empty poll that would follow if it has no more.
        if self.tasks[id].as_ref().is_some_and(|drain| drain.hinted) {
            self.wake_drain(id);
        } else if did_work {
            if self.graph.element(id).has_work() {
                self.scheduler.wake(id);
            } else {
                self.scheduler.charge(id);
            }
            self.poller_quanta += 1;
            if self.poller_quanta >= self.release_at {
                self.release_deferred();
            }
        }
        if self.metrics.enabled() {
            let span = if self.metrics.cycles_on() {
                cycles::now().wrapping_sub(q0)
            } else {
                0
            };
            self.metrics.record_quantum(span, did_work);
        }
        if self.interval.is_some() {
            let now = cycles::now();
            self.interval_quantum(now.wrapping_sub(iv0), did_work, now);
        }
        did_work
    }

    /// One quantum of task `id`, whatever the scheduler thinks of it.
    fn run_task(&mut self, id: ElementId) -> bool {
        let mut out = std::mem::take(&mut self.out);
        let did_work = if let Some(drain) = &self.tasks[id] {
            let burst = drain.burst;
            self.run_drain(id, burst, &mut out)
        } else {
            let t0 = self.span_open();
            let did_work = self.graph.element_mut(id).run_task(&mut out);
            let emitted = out.len() as u64;
            if emitted > 0 {
                // Source boundary: assign trace IDs to sampled emissions,
                // and open each traced packet's path with a span on the
                // source. Source work goes to the source's own row; idle
                // polls are covered by the quantum's empty-poll counter.
                self.stamp_source(&mut out);
                self.span_close(id, emitted, t0);
            }
            did_work
        };
        self.route(id, &mut out);
        self.out = out;
        did_work
    }

    /// Pulls one burst of packets into drain element `id` as a batch.
    fn run_drain(&mut self, id: ElementId, burst: usize, out: &mut Output) -> bool {
        let mut batch = self.take_batch();
        if self.resolve_pull_batch(id, 0, burst, &mut batch, out) == 0 {
            self.recycle(batch);
            return false;
        }
        self.dispatch(id, 0, batch, out);
        true
    }

    /// The dispatch bracket — the driver's one `push_batch` call: hands
    /// `batch` to input `port` of element `id` with its emissions going to
    /// `out`, inside the cycle span and the trace span that attribute the
    /// call to the element, then books the packets and the call, folds in
    /// what the element's default `push_batch` dropped, and recycles the
    /// buffer.
    #[inline]
    fn dispatch(&mut self, id: ElementId, port: usize, mut batch: PacketBatch, out: &mut Output) {
        let n = batch.len() as u64;
        if self.tracer.enabled() {
            traced_ids(batch.as_slice(), &mut self.trace_ids);
        }
        let t0 = self.span_open();
        self.graph.element_mut(id).push_batch(port, &mut batch, out);
        self.span_close(id, n, t0);
        self.stats.pushes += n;
        self.stats.batch_calls += 1;
        self.stats.dropped_default += out.take_default_dropped();
        self.recycle(batch);
    }

    /// Resolves `drain`'s pull chain from hop `hop` upstream, moving up
    /// to `max` packets across that hop's edge into `into` and returning
    /// the count.
    ///
    /// The chain's last hop leaves a queue-like element (pull output, no
    /// pull input), which terminates the recursion with a bulk
    /// [`crate::element::Element::pull_batch`]; the hops before it leave
    /// agnostic through-elements (e.g. `Counter` in a pull path), driven
    /// by pulling a batch from their upstream and applying their push
    /// transform to the whole batch, with `out` — empty between hops — as
    /// the collector.
    fn resolve_pull_batch(
        &mut self,
        drain: ElementId,
        hop: usize,
        max: usize,
        into: &mut PacketBatch,
        out: &mut Output,
    ) -> usize {
        let plan = self.tasks[drain].as_ref().expect("drains have a plan");
        let (edge, terminal) = (plan.chain[hop], hop + 1 == plan.chain.len());
        if terminal {
            // Terminal pull source (Queue or similar): bulk drain.
            let t0 = self.span_open();
            let n = self
                .graph
                .element_mut(edge.from)
                .pull_batch(edge.from_port, max, into);
            if n > 0 {
                if self.tracer.enabled() {
                    // Only the packets this pull moved (the batch may
                    // already hold earlier pulls).
                    let moved = &into.as_slice()[into.len() - n..];
                    traced_ids(moved, &mut self.trace_ids);
                }
                self.span_close(edge.from, n as u64, t0);
            }
            return n;
        }
        // Through-element: pull a batch upstream, push it through.
        let mut upstream = self.take_batch();
        let n = self.resolve_pull_batch(drain, hop + 1, max, &mut upstream, out);
        if n == 0 {
            self.recycle(upstream);
            return 0;
        }
        self.dispatch(edge.from, 0, upstream, out);
        let held = into.len();
        out.take_port(edge.from_port, into);
        // Any side-channel emissions (e.g. an error output) are routed as
        // ordinary pushes.
        self.route(edge.from, out);
        into.len() - held
    }

    /// Routes all packets in `out` (emitted by element `from`) along the
    /// graph edges, cascading batches through push elements until the
    /// work queue drains. Queueing empties `out`, so it collects every
    /// dispatch of the cascade in turn and comes back empty.
    fn route(&mut self, from: ElementId, out: &mut Output) {
        debug_assert!(self.work.is_empty(), "route() re-entered with queued work");
        self.stats.dropped_default += out.take_default_dropped();
        self.enqueue_emissions(from, out);
        while let Some((id, port, batch)) = self.work.pop_front() {
            self.dispatch(id, port, batch, out);
            if let Some(drain) = self.wakes[id] {
                self.wake_drain(drain);
            }
            self.enqueue_emissions(id, out);
        }
    }

    /// Appends `out`'s per-port batches to the work queue as they stand
    /// (first-touched port order, FIFO within a port), a recycled buffer
    /// swapped in for each; one longer than `batch_size` goes in chunks.
    fn enqueue_emissions(&mut self, from: ElementId, out: &mut Output) {
        out.take_batches(|port, batch| {
            let Some(edge) = self.graph.edge_from(from, port) else {
                self.stats.leaked += batch.len() as u64;
                batch.clear();
                return;
            };
            if batch.len() <= self.batch_size {
                let whole = std::mem::replace(batch, self.take_batch());
                self.work.push_back((edge.to, edge.to_port, whole));
                return;
            }
            // Chunk off the front so FIFO order survives splitting.
            let mut packets = batch.drain().peekable();
            while packets.peek().is_some() {
                let mut chunk = self.take_batch();
                chunk.extend(packets.by_ref().take(self.batch_size));
                self.work.push_back((edge.to, edge.to_port, chunk));
            }
        });
    }

    /// Fetches a pooled batch buffer (or a fresh one).
    fn take_batch(&mut self) -> PacketBatch {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a batch buffer to the pool, dropping any leftover packets.
    fn recycle(&mut self, mut batch: PacketBatch) {
        if self.pool.len() < BATCH_POOL_LIMIT {
            batch.clear();
            self.pool.push(batch);
        }
    }

    /// Per-arena pool snapshots from every pool-owning element. Elements
    /// sharing an arena (a hand-attached one) produce rows with the same
    /// `arena` id; [`rb_packet::PoolStats::aggregate`] dedupes them.
    pub fn pool_rows(&self) -> Vec<rb_packet::PoolStats> {
        (0..self.graph.len())
            .filter_map(|id| self.graph.element(id).pool())
            .map(rb_packet::PacketPool::stats)
            .collect()
    }

    /// Statistics so far, with pool counters aggregated on demand from
    /// every pool-owning element. Snapshots of the same arena (elements
    /// sharing a pool) are deduplicated before summing, so shared arenas
    /// are counted once.
    pub fn stats(&self) -> RunStats {
        let DriverStats {
            quanta,
            pushes,
            batch_calls,
            leaked,
            dropped_default,
            fused,
        } = self.stats;
        let mut stats = RunStats {
            quanta,
            pushes,
            batch_calls,
            leaked,
            dropped_default,
            fused,
            ..RunStats::default()
        }
        .with_pool(&rb_packet::PoolStats::aggregate(&self.pool_rows()));
        // Descriptor rings are per-element (per-queue), never shared, so
        // their counters sum without deduplication.
        for id in 0..self.graph.len() {
            if let Some(ns) = self.graph.element(id).nic_stats() {
                stats.nic_doorbells += ns.doorbells;
                stats.nic_reclaim_batches += ns.reclaim_batches;
                stats.nic_desc_stalls += ns.stalls;
                stats.nic_dma_bytes += ns.dma_bytes;
            }
        }
        stats
    }

    /// Borrow the underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to one element's state (e.g. to inject frames into
    /// a `FromDevice`); the wiring is fixed once the router is built.
    pub fn element_mut(&mut self, id: ElementId) -> &mut dyn crate::Element {
        self.graph.element_mut(id)
    }

    /// Downcasts a named element to a concrete type.
    pub fn element_as<T: crate::Element>(&self, name: &str) -> Option<&T> {
        let id = self.graph.id_of(name)?;
        self.graph.element(id).downcast_ref::<T>()
    }

    /// Mutable variant of [`Router::element_as`].
    pub fn element_as_mut<T: crate::Element>(&mut self, name: &str) -> Option<&mut T> {
        let id = self.graph.id_of(name)?;
        self.graph.element_mut(id).downcast_mut::<T>()
    }

    /// Reads a named [`Counter`]'s totals.
    pub fn counter(&self, name: &str) -> Option<CounterStats> {
        self.element_as::<Counter>(name).map(Counter::stats)
    }

    /// Reads a named [`crate::elements::Queue`]'s statistics.
    pub fn queue_stats(&self, name: &str) -> Option<QueueStats> {
        self.element_as::<crate::elements::Queue>(name)
            .map(crate::elements::Queue::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::device::{FromDevice, ToDevice};
    use crate::elements::queue::Queue;
    use crate::elements::route::LookupIPRoute;
    use crate::elements::sink::{Counter, Discard};
    use crate::elements::source::InfiniteSource;
    use rb_packet::builder::PacketSpec;

    #[test]
    fn source_counter_sink_pipeline() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(100))))
            .unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, c, 0).unwrap();
        g.connect(c, 0, d, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        let stats = router.run_until_idle(10_000);
        assert_eq!(router.counter("cnt").unwrap().packets, 100);
        assert_eq!(stats.leaked, 0);
        assert!(stats.pushes >= 200);
        assert_eq!(stats.dropped_default, 0);
        assert!(
            stats.batch_calls < stats.pushes,
            "batching must amortize dispatch: {} calls for {} pushes",
            stats.batch_calls,
            stats.pushes
        );
    }

    #[test]
    fn fuse_out_is_distinguishable_from_clean_drain() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(100))))
            .unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, c, 0).unwrap();
        g.connect(c, 0, d, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        // Two quanta cannot drain 100 packets: the fuse blows with work
        // still scheduled.
        let stats = router.run_until_idle(2);
        assert!(stats.fused, "fuse-out must be flagged");
        assert!(router.counter("cnt").unwrap().packets < 100);
        // Finishing the run is a clean drain: the flag resets per call.
        let stats = router.run_until_idle(u64::MAX);
        assert!(!stats.fused, "clean drain must clear the flag");
        assert_eq!(router.counter("cnt").unwrap().packets, 100);
        // So does `stats()`.
        assert!(!router.stats().fused);
    }

    #[test]
    fn interval_clock_is_off_by_default_and_sums_to_the_ledger() {
        let build = || {
            let mut g = Graph::new();
            let s = g
                .add("src", Box::new(InfiniteSource::new(64, Some(500))))
                .unwrap();
            let q = g.add("q", Box::new(Queue::new(64))).unwrap();
            let t = g
                .add("tx", Box::new(ToDevice::new(Some(16), false)))
                .unwrap();
            g.connect(s, 0, q, 0).unwrap();
            g.connect(q, 0, t, 0).unwrap();
            Router::new(g).unwrap()
        };
        let mut off = build();
        off.run_until_idle(u64::MAX);
        assert_eq!(off.interval_ticks(), 0);
        assert!(off.interval_ring().is_none());
        assert!(off.timeseries().is_none());

        let mut on = build();
        // A deliberately tiny interval so a short run spans many buckets.
        on.set_interval_ticks(200, 0);
        assert_eq!(on.interval_ticks(), 200);
        on.run_until_idle(u64::MAX);
        let series = on.timeseries().expect("clock is on");
        assert!(!series.is_empty());
        // Conservation: summed interval deltas equal the final ledger.
        let led = on.ledger();
        let summed = series.ledger();
        assert_eq!(summed.sourced, led.sourced, "sourced must telescope");
        assert_eq!(summed.forwarded, led.forwarded);
        assert_eq!(summed.dropped_total(), led.dropped_total());
        assert_eq!(series.quanta(), on.stats().quanta);
        let tx = on.element_as::<ToDevice>("tx").unwrap();
        assert_eq!(series.tx_bytes(), tx.sent_bytes());
        // Harvesting twice replays the same published buckets.
        let again = on.timeseries().unwrap();
        assert_eq!(again.ledger().sourced, led.sourced);
    }

    #[test]
    fn run_stats_carry_dma_bytes() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(40))))
            .unwrap();
        let q = g.add("q", Box::new(Queue::new(64))).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(16), false)))
            .unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(u64::MAX);
        let stats = router.stats();
        // Every 64-byte frame crossed the TX descriptor ring once.
        assert_eq!(stats.nic_dma_bytes, 40 * 64);
    }

    #[test]
    fn push_queue_pull_todevice_path() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(50))))
            .unwrap();
        let q = g.add("q", Box::new(Queue::new(1000))).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(16), false)))
            .unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(10_000);
        let tx = router.element_as::<ToDevice>("tx").unwrap();
        assert_eq!(tx.sent_packets(), 50);
        let qs = router.queue_stats("q").unwrap();
        assert_eq!(qs.enqueued, 50);
        assert_eq!(qs.dequeued, 50);
    }

    #[test]
    fn counter_in_pull_path_is_driven_by_drain() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(30))))
            .unwrap();
        let q = g.add("q", Box::new(Queue::new(100))).unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(8), false)))
            .unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, c, 0).unwrap();
        g.connect(c, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(10_000);
        assert_eq!(router.counter("cnt").unwrap().packets, 30);
        assert_eq!(
            router.element_as::<ToDevice>("tx").unwrap().sent_packets(),
            30
        );
    }

    #[test]
    fn from_device_injection_flows_through() {
        let mut g = Graph::new();
        let f = g.add("rx", Box::new(FromDevice::new(2, Some(32)))).unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(f, 0, c, 0).unwrap();
        g.connect(c, 0, d, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        {
            let id = router.graph().id_of("rx").unwrap();
            let dev = router.element_mut(id).downcast_mut::<FromDevice>().unwrap();
            for _ in 0..5 {
                dev.inject(PacketSpec::udp().build());
            }
        }
        router.run_until_idle(1000);
        assert_eq!(router.counter("cnt").unwrap().packets, 5);
    }

    #[test]
    fn unvalidated_graph_is_rejected() {
        let mut g = Graph::new();
        g.add("src", Box::new(InfiniteSource::new(64, None)))
            .unwrap();
        assert!(Router::new(g).is_err());
    }

    #[test]
    fn queue_overflow_drops_are_visible() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(500))))
            .unwrap();
        let q = g.add("q", Box::new(Queue::new(10))).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(1), false)))
            .unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(100_000);
        let qs = router.queue_stats("q").unwrap();
        assert_eq!(qs.enqueued + qs.dropped, 500);
        assert!(qs.dropped > 0, "tiny queue with slow drain must drop");
    }

    #[test]
    fn batch_size_one_is_scalar_dispatch() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(100))))
            .unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, c, 0).unwrap();
        g.connect(c, 0, d, 0).unwrap();
        let knobs = Knobs {
            batch_size: 1,
            ..Knobs::default()
        };
        let mut router = Router::configured(g, &knobs, 0).unwrap();
        let stats = router.run_until_idle(10_000);
        assert_eq!(router.counter("cnt").unwrap().packets, 100);
        // Every dispatch carries exactly one packet.
        assert_eq!(stats.batch_calls, stats.pushes);
    }

    #[test]
    fn mean_batch_size_tracks_kp() {
        for kp in [4usize, 8, 32] {
            let mut g = Graph::new();
            let s = g
                .add("src", Box::new(InfiniteSource::new(64, Some(320))))
                .unwrap();
            let c = g.add("cnt", Box::new(Counter::new())).unwrap();
            let d = g.add("sink", Box::new(Discard::new())).unwrap();
            g.connect(s, 0, c, 0).unwrap();
            g.connect(c, 0, d, 0).unwrap();
            let knobs = Knobs {
                batch_size: kp,
                ..Knobs::default()
            };
            let mut router = Router::configured(g, &knobs, 0).unwrap();
            let stats = router.run_until_idle(10_000);
            assert_eq!(router.counter("cnt").unwrap().packets, 320);
            // Source bursts are 32; dispatch chunks are min(32, kp).
            let expected_chunk = kp.min(32) as u64;
            assert_eq!(stats.pushes / stats.batch_calls, expected_chunk);
        }
    }

    #[test]
    fn telemetry_cycles_attributes_every_stage() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(200))))
            .unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, c, 0).unwrap();
        g.connect(c, 0, d, 0).unwrap();
        let knobs = Knobs {
            telemetry: TelemetryLevel::Cycles,
            ..Knobs::default()
        };
        let mut router = Router::configured(g, &knobs, 0).unwrap();
        router.run_until_idle(10_000);
        let snap = router.telemetry_snapshot();
        assert_eq!(snap.stages.len(), 3);
        for stage in &snap.stages {
            assert_eq!(stage.packets, 200, "stage {} packets", stage.name);
            assert!(stage.calls > 0);
            assert!(stage.cycles > 0, "stage {} has no cycles", stage.name);
        }
        assert_eq!(snap.pipeline_packets(), 200);
        assert!(snap.total_cycles > 0);
        // Element spans nest inside quantum spans, so the per-stage sum
        // cannot exceed the end-to-end total.
        let stage_cycles: u64 = snap.stages.iter().map(|s| s.cycles).sum();
        assert!(
            stage_cycles <= snap.total_cycles,
            "stage sum {stage_cycles} > total {}",
            snap.total_cycles
        );
        assert!(snap.bottleneck().is_some());
        assert!(snap.batch_sizes.count() > 0);
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(50))))
            .unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, d, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(10_000);
        let snap = router.telemetry_snapshot();
        assert_eq!(snap.total_cycles, 0);
        assert!(snap.stages.iter().all(|s| s.calls == 0 && s.cycles == 0));
        assert!(snap.bottleneck().is_none());
    }

    #[test]
    fn discard_bulk_recycles_pooled_batches() {
        let mut src = InfiniteSource::new(64, Some(96));
        src.set_pool(rb_packet::PacketPool::new(128, 2048));
        let mut g = Graph::new();
        let s = g.add("src", Box::new(src)).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, d, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(10_000);
        let stats = router.stats();
        assert_eq!(stats.pool_allocs, 96);
        assert_eq!(stats.pool_recycles, 96);
        assert!(
            stats.pool_bulk_recycles > 0,
            "Discard must free batches through a FreeBatch"
        );
    }

    #[test]
    fn miswired_push_into_inert_element_is_accounted() {
        // An element with a push input that never overrides push(): the
        // default handler must report the packets, not vanish them.
        struct Inert;
        impl crate::element::Element for Inert {
            fn class_name(&self) -> &'static str {
                "Inert"
            }
            fn ports(&self) -> crate::element::Ports {
                crate::element::Ports::push(1, 0)
            }
        }
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(40))))
            .unwrap();
        let i = g.add("inert", Box::new(Inert)).unwrap();
        g.connect(s, 0, i, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        let stats = router.run_until_idle(10_000);
        assert_eq!(stats.dropped_default, 40);
        assert_eq!(stats.leaked, 0);
        // Default-push drops surface in the ledger as wiring drops — the
        // run still balances because nothing vanished untracked.
        let led = router.ledger();
        assert_eq!(led.sourced, 40);
        assert_eq!(led.dropped(rb_telemetry::DropCause::Wiring), 40);
        assert!(led.balances(), "residual {}", led.residual());
    }

    #[test]
    fn ledger_balances_on_forwarding_pipeline() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(300))))
            .unwrap();
        let q = g.add("q", Box::new(Queue::new(1000))).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(16), false)))
            .unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(100_000);
        let led = router.ledger();
        assert_eq!(led.sourced, 300);
        assert_eq!(led.forwarded, 300);
        assert_eq!(led.in_flight, 0);
        assert!(led.balances(), "residual {}", led.residual());
    }

    #[test]
    fn ledger_attributes_queue_and_pool_drops() {
        let mut src = InfiniteSource::new(64, Some(200));
        src.set_pool(rb_packet::PacketPool::new(64, 2048));
        let mut g = Graph::new();
        let s = g.add("src", Box::new(src)).unwrap();
        let q = g.add("q", Box::new(Queue::new(4))).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(1), false)))
            .unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(1_000_000);
        let led = router.ledger();
        assert_eq!(led.sourced, 200);
        assert!(led.dropped(rb_telemetry::DropCause::QueueOverflow) > 0);
        assert_eq!(
            led.forwarded
                + led.dropped(rb_telemetry::DropCause::QueueOverflow)
                + led.dropped(rb_telemetry::DropCause::PoolExhausted),
            200
        );
        assert!(led.balances(), "residual {}", led.residual());
    }

    #[test]
    fn trace_off_stamps_nothing() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(50))))
            .unwrap();
        let q = g.add("q", Box::new(Queue::new(100))).unwrap();
        let t = g.add("tx", Box::new(ToDevice::new(Some(8), true))).unwrap();
        g.connect(s, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let mut router = Router::new(g).unwrap();
        router.run_until_idle(10_000);
        let tx = router.element_as::<ToDevice>("tx").unwrap();
        assert!(tx.tx_log().iter().all(|p| p.meta.trace_id == 0));
        assert!(router.take_trace_log().spans.is_empty());
    }

    #[test]
    fn sampled_trace_records_full_paths() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(64))))
            .unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let q = g.add("q", Box::new(Queue::new(1000))).unwrap();
        let t = g
            .add("tx", Box::new(ToDevice::new(Some(16), true)))
            .unwrap();
        g.connect(s, 0, c, 0).unwrap();
        g.connect(c, 0, q, 0).unwrap();
        g.connect(q, 0, t, 0).unwrap();
        let knobs = Knobs {
            trace_sample: 8,
            ..Knobs::default()
        };
        let mut router = Router::configured(g, &knobs, 0).unwrap();
        router.run_until_idle(10_000);
        let traced = {
            let tx = router.element_as::<ToDevice>("tx").unwrap();
            tx.tx_log().iter().filter(|p| p.meta.trace_id != 0).count()
        };
        assert_eq!(traced, 8, "1/8 of 64 packets sampled");
        let log = router.take_trace_log();
        assert_eq!(log.traced_packets(), 8);
        for span in &log.spans {
            assert_ne!(span.event.trace_id, 0);
        }
        // Each traced packet crosses src -> cnt -> q -> tx, with the
        // queue recording both its enqueue and its dequeue (the gap
        // between them is queue residency time).
        let id = log.spans[0].event.trace_id;
        let path = log.path_of(id);
        let labels: Vec<&str> = path.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["src", "cnt", "q", "q", "tx"]);
    }

    /// A 32-port router, hand-wired: `rx<p> -> cnt<p> -> hs<p>`, every
    /// `HashSwitch` output `o` into `q<o>`, and `q<p> -> tx<p>` — through
    /// a `Counter` in the pull path on odd ports. 64 scheduled tasks.
    fn wide_graph(ports: usize, kp: usize) -> Graph {
        use crate::elements::switch::HashSwitch;
        let mut g = Graph::new();
        let mut queues = Vec::new();
        for p in 0..ports {
            let q = g.add(format!("q{p}"), Box::new(Queue::new(1000))).unwrap();
            let tx = g
                .add(format!("tx{p}"), Box::new(ToDevice::new(None, true)))
                .unwrap();
            if p % 2 == 1 {
                let pc = g.add(format!("pc{p}"), Box::new(Counter::new())).unwrap();
                g.connect(q, 0, pc, 0).unwrap();
                g.connect(pc, 0, tx, 0).unwrap();
            } else {
                g.connect(q, 0, tx, 0).unwrap();
            }
            queues.push(q);
        }
        for p in 0..ports {
            let rx = g
                .add(
                    format!("rx{p}"),
                    Box::new(FromDevice::new(u16::try_from(p).unwrap(), Some(kp))),
                )
                .unwrap();
            let cnt = g.add(format!("cnt{p}"), Box::new(Counter::new())).unwrap();
            let hs = g
                .add(format!("hs{p}"), Box::new(HashSwitch::new(ports)))
                .unwrap();
            g.connect(rx, 0, cnt, 0).unwrap();
            g.connect(cnt, 0, hs, 0).unwrap();
            for (o, &q) in queues.iter().enumerate() {
                g.connect(hs, o, q, 0).unwrap();
            }
        }
        g
    }

    /// FNV-1a over a `u64` stream.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn schedule_is_identical_to_the_linear_scan_driver() {
        // `(kp, quanta, pushes, batch_calls, egress order)`. `pushes`,
        // `batch_calls` and the egress order are as the driver produced
        // them when it picked by `min_by_key` over every task, asked
        // `ports()` on every quantum and polled empty queues: a
        // scheduling decision that moved shows there. `quanta` was 1184
        // and 288 then too, made of other quanta: per round 32 idle
        // polls of the devices, a useful quantum per poll and per burst
        // drained, and 64 more polls to see everything idle. The run list
        // spent those 64 on the sources alone — once when their rings ran
        // dry and once more before the run was declared idle — and was at
        // 1184 and 288 until a device with nothing pending stopped taking
        // a quantum. What is left beyond the useful quanta are the 32
        // drains polled once, empty, because tasks start out runnable.
        // More than that is a regression: polling the dry sources reads
        // 1184 and 288, and a probe that polls drains too read 1248 and
        // 352 on top of that.
        let expected = [
            (1usize, 1056u64, 2304u64, 2304u64, 0x5478_95f6_912b_04a5u64),
            (32, 160, 2304, 736, 0x1234_0c03_1cb0_80e5),
        ];
        for (kp, quanta, pushes, batch_calls, egress_order) in expected {
            let knobs = Knobs {
                batch_size: kp,
                ..Knobs::default()
            };
            let mut router = Router::configured(wide_graph(32, kp), &knobs, 0).unwrap();
            // 512 frames, fixed: frame `i` enters port `7i mod 32` from
            // its own flow and carries `i` as its ingress sequence. Two
            // rounds, so the second starts from an idle schedule.
            for round in 0..2u64 {
                for i in round * 256..(round + 1) * 256 {
                    let mut pkt = PacketSpec::udp()
                        .src(&format!("172.16.{}.{}:{}", i >> 8, i & 255, 1024 + i))
                        .unwrap()
                        .build();
                    pkt.meta.ingress_seq = i;
                    router
                        .element_as_mut::<FromDevice>(&format!("rx{}", (7 * i) % 32))
                        .unwrap()
                        .inject(pkt);
                }
                router.run_until_idle(u64::MAX);
            }
            let stats = router.stats();
            assert_eq!(
                (stats.quanta, stats.pushes, stats.batch_calls),
                (quanta, pushes, batch_calls),
                "kp {kp}: (quanta, pushes, batch_calls)"
            );
            // Per-port egress order: `(port, ingress sequence)` of every
            // transmitted frame, port by port, in transmit order.
            let order: Vec<u64> = (0..32u64)
                .flat_map(|p| {
                    let tx = router.element_as::<ToDevice>(&format!("tx{p}")).unwrap();
                    tx.tx_log()
                        .iter()
                        .map(move |f| (p << 32) | f.meta.ingress_seq)
                })
                .collect();
            assert_eq!(order.len(), 512, "kp {kp}");
            assert_eq!(fnv1a(order), egress_order, "kp {kp}: egress order");
        }
    }

    /// The scheduling loop before the run list, kept as the reference:
    /// every active element in id order, round after round, until a whole
    /// round is idle. Like the scheduler it stood on, it resumes where the
    /// last call stopped.
    #[derive(Default)]
    struct RoundRobin {
        at: usize,
    }

    impl RoundRobin {
        fn run_until_idle(&mut self, router: &mut Router) {
            let graph = router.graph();
            let active: Vec<ElementId> = (0..graph.len())
                .filter(|&id| graph.element(id).is_active())
                .collect();
            let mut idle = 0;
            while idle < active.len() {
                let id = active[self.at % active.len()];
                self.at += 1;
                idle = if router.run_task(id) { 0 } else { idle + 1 };
            }
        }
    }

    /// `rx -> hs`, every `HashSwitch` output `o` into `q<o> -> tx<o>`,
    /// dispatched `kp` packets at a time.
    fn fan_out(
        ports: usize,
        capacity: usize,
        rx_burst: usize,
        tx_burst: usize,
        arena: usize,
        kp: usize,
    ) -> Router {
        use crate::elements::switch::HashSwitch;
        let mut g = Graph::new();
        let mut dev = FromDevice::new(0, Some(rx_burst));
        if arena > 0 {
            dev.set_pool(rb_packet::PacketPool::new(arena, 2048));
        }
        let rx = g.add("rx", Box::new(dev)).unwrap();
        let hs = g.add("hs", Box::new(HashSwitch::new(ports))).unwrap();
        g.connect(rx, 0, hs, 0).unwrap();
        for p in 0..ports {
            let q = g
                .add(format!("q{p}"), Box::new(Queue::new(capacity)))
                .unwrap();
            let tx = g
                .add(
                    format!("tx{p}"),
                    Box::new(ToDevice::new(Some(tx_burst), true)),
                )
                .unwrap();
            g.connect(hs, p, q, 0).unwrap();
            g.connect(q, 0, tx, 0).unwrap();
        }
        let knobs = Knobs {
            batch_size: kp,
            ..Knobs::default()
        };
        Router::configured(g, &knobs, 0).unwrap()
    }

    /// Frame `i` of a run: its own flow, `i` as ingress sequence and in
    /// its payload length, so a frame is told from any other by its bytes.
    fn flow_frame(i: u64) -> rb_packet::Packet {
        let mut pkt = PacketSpec::udp()
            .src(&format!("172.16.{}.{}:{}", i >> 8, i & 255, 1024 + i))
            .unwrap()
            .frame_len(64 + (i % 64) as usize)
            .build();
        pkt.meta.ingress_seq = i;
        pkt
    }

    /// What a finished run let out: per port, every transmitted frame's
    /// sequence number and bytes, in order.
    fn egress(router: &Router, ports: usize) -> Vec<Vec<(u64, Vec<u8>)>> {
        (0..ports)
            .map(|p| {
                let tx = router.element_as::<ToDevice>(&format!("tx{p}")).unwrap();
                let sent = tx.tx_log().iter();
                sent.map(|f| (f.meta.ingress_seq, f.data().to_vec()))
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One source fanned out over 1–32 ports, whatever the queue
        /// capacity, the bursts and the arena: the run list lets out the
        /// same bytes in the same order on every port as polling every
        /// task in turn, accounts for every frame, and drops no more to
        /// any cause.
        #[test]
        fn run_list_lets_out_what_round_robin_does(
            ports in proptest::prop_oneof![1usize..=3, 1usize..=32],
            capacity in proptest::prop_oneof![1usize..=64, proptest::strategy::Just(1000usize)],
            rx_burst in 1usize..=64,
            tx_burst in 1usize..=64,
            arena in proptest::prop_oneof![
                proptest::strategy::Just(0usize),
                2usize..=64,
                proptest::strategy::Just(4096usize)
            ],
            rounds in proptest::collection::vec(1u64..=300, 1..4),
            kp_idx in 0usize..3,
        ) {
            // Deferral sits on up to `tx_burst - 1` packets, in a queue
            // with room for `tx_burst` more; what a poll may add on top
            // of that must fit (or the queue be too small to defer in).
            proptest::prop_assume!(capacity < tx_burst || capacity + 1 >= rx_burst + tx_burst);
            let kp = [1usize, 8, 32][kp_idx];
            let build = || fan_out(ports, capacity, rx_burst, tx_burst, arena, kp);
            let (mut listed, mut polled) = (build(), build());
            let mut reference = RoundRobin::default();
            let mut next = 0;
            for frames in rounds {
                for i in next..next + frames {
                    for router in [&mut listed, &mut polled] {
                        router.element_as_mut::<FromDevice>("rx").unwrap().inject(flow_frame(i));
                    }
                }
                next += frames;
                // A budget, so that a livelock fails the case instead of
                // hanging it: a frame costs a handful of quanta at most.
                let budget = listed.stats().quanta + 100_000;
                proptest::prop_assert!(!listed.run_until_idle(budget).fused);
                reference.run_until_idle(&mut polled);
            }
            let (led, reference_led) = (listed.ledger(), polled.ledger());
            proptest::prop_assert!(led.balances(), "{:?}", led);
            proptest::prop_assert_eq!(led.in_flight, 0);
            proptest::prop_assert_eq!(led.sourced, reference_led.sourced);
            for cause in DropCause::ALL {
                proptest::prop_assert!(
                    led.dropped(cause) <= reference_led.dropped(cause),
                    "{:?}: {} against {}", cause, led.dropped(cause), reference_led.dropped(cause)
                );
            }
            proptest::prop_assert_eq!(egress(&listed, ports), egress(&polled, ports));
        }
    }

    #[test]
    fn a_trickle_to_a_quiet_port_waits_one_burst_of_source_quanta() {
        // Four sources that hand over one frame a poll, never idle while
        // the test looks; nearly everything goes to port 0, whose drain
        // fills its burst of 8 every other round. One frame in 97 goes to
        // port 1, whose drain would wait for seven more that never come.
        const BURST: u64 = 8;
        let mut g = Graph::new();
        let rt = g
            .add(
                "rt",
                Box::new(LookupIPRoute::from_spec("10.0.0.0/8 1, 0.0.0.0/0 0").unwrap()),
            )
            .unwrap();
        let miss = g.add("miss", Box::new(Discard::new())).unwrap();
        g.connect(rt, 2, miss, 0).unwrap();
        for p in 0..2 {
            let q = g.add(format!("q{p}"), Box::new(Queue::new(1000))).unwrap();
            let tx = g
                .add(
                    format!("tx{p}"),
                    Box::new(ToDevice::new(Some(usize::try_from(BURST).unwrap()), true)),
                )
                .unwrap();
            g.connect(rt, p, q, 0).unwrap();
            g.connect(q, 0, tx, 0).unwrap();
        }
        for s in 0..4u64 {
            let mut dev = FromDevice::new(u16::try_from(s).unwrap(), Some(1));
            for i in 0..2000 {
                let seq = 4 * i + s;
                let dst = if seq % 97 == 5 {
                    "10.1.1.1:9"
                } else {
                    "192.0.2.1:9"
                };
                let mut pkt = PacketSpec::udp().dst(dst).unwrap().build();
                pkt.meta.ingress_seq = seq;
                dev.inject(pkt);
            }
            let rx = g.add(format!("rx{s}"), Box::new(dev)).unwrap();
            g.connect(rx, 0, rt, 0).unwrap();
        }
        let mut router = Router::new(g).unwrap();
        // Frames the sources have handed over so far.
        let polled = |r: &Router| -> u64 {
            (0..4)
                .map(|s| {
                    r.element_as::<FromDevice>(&format!("rx{s}"))
                        .unwrap()
                        .received()
                })
                .sum()
        };
        let mut waits = Vec::new();
        let mut queued_at = None;
        for _ in 0..6000 {
            router.run_quantum();
            let now = polled(&router);
            let (queued, sent) = (
                router.queue_stats("q1").unwrap().enqueued,
                router.element_as::<ToDevice>("tx1").unwrap().sent_packets(),
            );
            if queued > sent {
                queued_at.get_or_insert(now);
            } else if let Some(at) = queued_at.take() {
                waits.push(now - at);
            }
        }
        assert!(waits.len() > 10, "the quiet port saw traffic: {waits:?}");
        // Every source quantum here is one frame: the wait in frames
        // polled is the wait in useful source quanta.
        let longest = *waits.iter().max().unwrap();
        assert!(longest <= BURST, "waits {waits:?}");
        assert!(longest > 1, "the drain did wait for company: {waits:?}");
        // The busy port meanwhile ships whole bursts.
        let tx0 = router.telemetry_snapshot();
        let _ = tx0;
        let sent0 = router.element_as::<ToDevice>("tx0").unwrap().sent_packets();
        let rings = router
            .element_as::<ToDevice>("tx0")
            .unwrap()
            .tx_ring_stats();
        assert!(sent0 > 1000 && rings.posted == sent0);
    }

    #[test]
    fn a_push_into_a_parked_drains_queue_runs_it_before_the_run_ends() {
        let mut router = fan_out(1, 1000, 32, 32, 0, Router::DEFAULT_BATCH_SIZE);
        router.run_until_idle(u64::MAX);
        let tx = router.graph().id_of("tx0").unwrap();
        assert!(
            router.scheduler.is_parked(tx),
            "an empty queue parks its drain"
        );
        // Three frames: less than the drain's burst, so it is deferred
        // first and released when the source has nothing more.
        for i in 0..3 {
            router
                .element_as_mut::<FromDevice>("rx")
                .unwrap()
                .inject(flow_frame(i));
        }
        let before = router.stats().quanta;
        let stats = router.run_until_idle(u64::MAX);
        assert!(!stats.fused);
        assert_eq!(
            router.element_as::<ToDevice>("tx0").unwrap().sent_packets(),
            3
        );
        assert!(router.scheduler.is_parked(tx) && router.deferred.is_empty());
        // The source once, the drain once: nobody polled the drain to find
        // it empty, nor the source once its wire and ring were (both were
        // polled that way until idle devices stopped taking quanta: 4).
        assert_eq!(stats.quanta - before, 2);
    }

    #[test]
    fn quanta_stepped_by_hand_find_an_injected_frame() {
        let mut router = Router::new(wide_graph(32, 32)).unwrap();
        router.run_until_idle(u64::MAX);
        assert!(
            router.scheduler.is_empty(),
            "an idle router has no runnable task"
        );
        router
            .element_as_mut::<FromDevice>("rx17")
            .unwrap()
            .inject(flow_frame(0));
        let sent = |r: &Router| -> u64 {
            (0..32)
                .map(|p| {
                    r.element_as::<ToDevice>(&format!("tx{p}"))
                        .unwrap()
                        .sent_packets()
                })
                .sum()
        };
        let calls = (1..=2 * 64).find(|_| {
            router.run_quantum();
            sent(&router) == 1
        });
        assert!(
            calls.is_some(),
            "64 tasks, 128 quanta, and the frame is still inside"
        );
    }
}
