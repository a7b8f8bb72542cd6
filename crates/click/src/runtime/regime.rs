//! Pluggable scheduling regimes: one harness, four policies.
//!
//! §4.2 of the paper compares ways of spreading packet processing over
//! cores, and PR history grew three hand-rolled run loops for them. This
//! module splits that policy out of the runtime: a [`Scheduler`] is the
//! *policy* — worker topology (which graph replica runs on which core),
//! ring wiring (how packets enter and leave each worker), and the
//! per-quantum step a worker executes — while [`run_scheduled`] is the
//! *mechanism*, written once: spawn the workers, pump the dispatcher-side
//! feeds, merge egress, join, and fold telemetry/ledger/trace/pool
//! counters into one [`GraphRunOutcome`]. `driver.rs`'s single-core
//! stride loop is the degenerate instance (one lane, no rings).
//!
//! Four regimes instantiate the trait:
//!
//! * [`PushScheduler`] — §4.2 "one core per packet": preload each
//!   worker's whole RSS shard, run to idle, merge egress.
//! * [`SpscScheduler`] — streaming push: a dispatcher feeds bounded SPSC
//!   ingress rings incrementally, so ring back-pressure is part of the
//!   run.
//! * [`PipelineScheduler`] — cores chained; stage `i`'s transmitted
//!   frames are the inter-stage link into stage `i+1`'s `FromDevice`.
//! * [`PullCreditScheduler`] — sink-driven pull with credit
//!   back-pressure: the dispatcher may only push what the credit window
//!   allows, the worker admits only what its ingress arena can hold, and
//!   overload therefore *stalls* the source instead of dropping packets.
//!
//! # The credit protocol
//!
//! Each pull lane pairs its ingress ring with a [`CreditGate`] of
//! `credit_window` packets ([`GraphRunOpts::credit_window`]; `0` sizes
//! the window to the ring capacity). The dispatcher acquires credits for
//! a whole batch before pushing it; on an empty gate it counts one
//! *stall* and retries after yielding — the overload signal that replaces
//! pool-exhaustion drops. The worker releases a packet's credit only
//! after the graph has run it to completion (transmitted, or dropped by
//! an element *for a reason the ledger records*), so
//! `window - available` always bounds packets in flight toward one core.
//! On the worker side, admission is arena-aware: at most
//! `slots - in_use` packets are injected per cycle and the remainder
//! waits in a local buffer, so `FromDevice` never drops a frame to
//! `NoRxDescriptor`.
//! The merger detaches received pooled egress frames onto the heap, so
//! retained frames cannot pin arena slots forever. Stalls are *events*,
//! not packet dispositions: a stalled packet is neither dropped nor
//! in-flight, and the conservation [`rb_telemetry::Ledger`] balances
//! under pull exactly as it does under push.

use crate::element::PacketBatch;
use crate::elements::device::{FromDevice, ToDevice};
use crate::graph::{ElementId, Graph, GraphError};
use crate::runtime::driver::Router;
use crate::runtime::mt::{shard_by_flow, GraphRunOpts, GraphRunOutcome, MtReport};
use crate::runtime::spsc::{self, Consumer, Producer};
use rb_packet::{Packet, PoolStats};
use rb_telemetry::{
    cycles, EventHarvester, EventLog, Harvester, Ledger, MetricsServer, MetricsSnapshot,
    MonitorSource, TraceKind, TraceLog, Tracer,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which multi-threaded scheduling regime a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Regime {
    /// Parallel push (§4.2 "one core per packet"): whole RSS shards are
    /// preloaded into per-core replicas which run to idle.
    #[default]
    Push,
    /// Streaming push over bounded SPSC ingress rings.
    Spsc,
    /// Stage-chained pipeline; every packet crosses a core per stage.
    Pipeline,
    /// Sink-driven pull with credit back-pressure: overload stalls the
    /// source instead of dropping to pool exhaustion.
    PullCredit,
}

impl Regime {
    /// Parses a configuration word (`push`/`parallel`, `spsc`,
    /// `pipeline`, `pull`/`pullcredit`).
    pub fn parse(word: &str) -> Option<Regime> {
        match word {
            "push" | "parallel" => Some(Regime::Push),
            "spsc" => Some(Regime::Spsc),
            "pipeline" => Some(Regime::Pipeline),
            "pull" | "pullcredit" | "pull_credit" => Some(Regime::PullCredit),
            _ => None,
        }
    }

    /// The canonical configuration word.
    pub fn as_str(&self) -> &'static str {
        match self {
            Regime::Push => "push",
            Regime::Spsc => "spsc",
            Regime::Pipeline => "pipeline",
            Regime::PullCredit => "pull",
        }
    }

    /// The scheduler implementing this regime.
    pub(crate) fn scheduler(&self) -> &'static dyn Scheduler {
        match self {
            Regime::Push => &PushScheduler,
            Regime::Spsc => &SpscScheduler,
            Regime::Pipeline => &PipelineScheduler,
            Regime::PullCredit => &PullCreditScheduler,
        }
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The credit counter carried by a pull lane's ingress ring: the
/// dispatcher acquires before pushing, the worker releases after the
/// graph has finished the packets. Single producer, single consumer —
/// the atomics are uncontended in the fast path.
#[derive(Debug)]
pub struct CreditGate {
    window: u64,
    available: AtomicU64,
    stalls: AtomicU64,
    peak_outstanding: AtomicU64,
}

impl CreditGate {
    /// A gate with `window` packet credits available.
    pub fn new(window: u64) -> CreditGate {
        CreditGate {
            window,
            available: AtomicU64::new(window),
            stalls: AtomicU64::new(0),
            peak_outstanding: AtomicU64::new(0),
        }
    }

    /// Takes `n` credits; `false` (and no change) when fewer are left.
    pub fn try_acquire(&self, n: u64) -> bool {
        let mut cur = self.available.load(Ordering::Acquire);
        loop {
            if cur < n {
                return false;
            }
            match self.available.compare_exchange_weak(
                cur,
                cur - n,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.peak_outstanding
                        .fetch_max(self.window - (cur - n), Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns `n` credits (packets the worker finished, or an undone
    /// acquisition after a full ring).
    pub fn release(&self, n: u64) {
        self.available.fetch_add(n, Ordering::Release);
    }

    /// Counts one dispatcher stall (insufficient credits).
    pub fn note_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Dispatcher stalls so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// High-water mark of outstanding (acquired, unreleased) credits —
    /// the bounded-queueing evidence: never exceeds [`CreditGate::window`].
    pub fn peak_outstanding(&self) -> u64 {
        self.peak_outstanding.load(Ordering::Relaxed)
    }

    /// The configured window, in packets.
    pub fn window(&self) -> u64 {
        self.window
    }
}

/// One worker's replica of the graph, ready to run.
pub struct Replica {
    pub(crate) router: Router,
    pub(crate) ingress: ElementId,
    pub(crate) egress_ids: Vec<ElementId>,
}

/// Replicates `graph` for worker `core`: fresh mutable state, shared
/// read-only structures, the first `FromDevice` as ingress.
pub(crate) fn make_replica(
    graph: &Graph,
    opts: &GraphRunOpts,
    core: u32,
) -> Result<Replica, GraphError> {
    let g = graph.replicate()?;
    let ingress = *g
        .elements_of_type::<FromDevice>()
        .first()
        .ok_or(GraphError::MissingIngress)?;
    let egress_ids = g.elements_of_type::<ToDevice>();
    let mut router = Router::new(g)?
        .with_batch_size(opts.batch_size)
        .with_telemetry(opts.telemetry);
    if opts.nic_batch > 0 {
        router.set_nic_batch(opts.nic_batch);
    }
    if opts.interval_ms > 0 {
        router.set_interval_ms(opts.interval_ms, core as usize);
    }
    router.set_trace(opts.trace_sample, core);
    Ok(Replica {
        router,
        ingress,
        egress_ids,
    })
}

/// The wiring handed to one worker thread: how packets arrive (a preload
/// or an ingress ring, possibly credit-gated) and where finished frames
/// go (the egress merger and/or the next pipeline stage).
pub struct Lane {
    /// Whole-shard preload (push regime; empty otherwise).
    pub(crate) preload: Vec<Packet>,
    /// Streaming ingress ring (`None` for the preloaded push regime).
    pub(crate) rx: Option<Consumer<PacketBatch>>,
    /// Ring to the egress merger (`None` for intermediate pipeline
    /// stages, whose frames feed the next stage instead).
    pub(crate) egress: Option<Producer<(usize, PacketBatch)>>,
    /// Next pipeline stage's ingress (intermediate stages only).
    pub(crate) next: Option<Producer<PacketBatch>>,
    /// Credit gate shared with the dispatcher (pull regime only).
    pub(crate) credits: Option<Arc<CreditGate>>,
    /// Whether ring receives count as trace hops: the pipeline's stage 0
    /// reads the feeder's untraced input, every other ring is a real
    /// cross-core hop.
    pub(crate) trace_ring_recv: bool,
}

impl Lane {
    fn streaming(rx: Consumer<PacketBatch>) -> Lane {
        Lane {
            preload: Vec::new(),
            rx: Some(rx),
            egress: None,
            next: None,
            credits: None,
            trace_ring_recv: true,
        }
    }
}

/// One dispatcher-side input: pending batches bound for a worker's
/// ingress ring, pushed as ring space (and credits, when gated) allow.
pub(crate) struct Feed {
    tx: Producer<PacketBatch>,
    pending: Vec<PacketBatch>,
    credits: Option<Arc<CreditGate>>,
}

impl Feed {
    /// Pushes as much pending input as the ring (and the credit gate)
    /// accepts; returns `true` once everything has been sent.
    fn pump(&mut self) -> bool {
        if self.pending.is_empty() {
            return true;
        }
        match &self.credits {
            None => {
                self.tx.push_burst(&mut self.pending);
            }
            Some(gate) => {
                // Admit whole batches from the front, up to the credits
                // available right now; an empty gate is a counted stall.
                let mut granted = 0usize;
                for batch in &self.pending {
                    if gate.try_acquire(batch.len() as u64) {
                        granted += 1;
                    } else {
                        gate.note_stall();
                        break;
                    }
                }
                if granted > 0 {
                    let mut burst: Vec<PacketBatch> = self.pending.drain(..granted).collect();
                    self.tx.push_burst(&mut burst);
                    if !burst.is_empty() {
                        // Ring full: refund the unsent batches' credits
                        // and keep them at the front, order preserved.
                        gate.release(burst.iter().map(|b| b.len() as u64).sum());
                        burst.append(&mut self.pending);
                        self.pending = burst;
                    }
                }
            }
        }
        self.pending.is_empty()
    }
}

/// Everything a [`Scheduler::wire`] call produces: per-worker lanes, the
/// dispatcher-side feeds, and the egress consumers the merger drains.
pub struct Wiring {
    pub(crate) lanes: Vec<Lane>,
    pub(crate) feeds: Vec<Feed>,
    pub(crate) consumers: Vec<Consumer<(usize, PacketBatch)>>,
    pub(crate) gates: Vec<Arc<CreditGate>>,
    /// Rebuffer received pooled egress frames onto the heap so retained
    /// frames cannot pin arena slots (pull regime).
    pub(crate) detach_egress: bool,
}

/// A scheduling policy: worker topology, ring wiring, and the
/// per-quantum step each worker runs. [`run_scheduled`] supplies the
/// spawn/pump/merge/join mechanism shared by every regime.
///
/// The wiring types ([`Lane`], [`Wiring`], [`Replica`]) keep their
/// fields crate-private, so the trait is effectively sealed to this
/// crate; external code selects a policy via [`Regime`].
pub trait Scheduler: Sync {
    /// Regime name for labels and panics.
    fn name(&self) -> &'static str;

    /// Builds one replica per worker lane. Star regimes replicate
    /// `graphs[0]` `workers` times; the pipeline replicates one stage
    /// graph per lane.
    fn topology(
        &self,
        graphs: &[&Graph],
        workers: usize,
        opts: &GraphRunOpts,
    ) -> Result<Vec<Replica>, GraphError>;

    /// Splits `packets` into per-lane input and creates the rings (and
    /// gates) connecting dispatcher, workers, and merger. `tracer` is
    /// the dispatcher thread's trace shard, for regimes that stamp
    /// sampled packets before the ingress ring.
    fn wire(
        &self,
        n: usize,
        packets: Vec<Packet>,
        opts: &GraphRunOpts,
        tracer: &mut Tracer,
    ) -> Wiring;

    /// One worker's whole life: consume the lane's input, step the
    /// replica, emit frames, and summarize at hang-up.
    fn worker(&self, replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary;

    /// Aggregate processed count from the joined workers (star regimes
    /// sum; the pipeline counts its last stage).
    fn processed(&self, results: &[WorkerSummary]) -> u64 {
        results.iter().map(|w| w.processed).sum()
    }
}

/// Everything one worker reports back at join: its packet count, driver
/// statistics, telemetry shard (frozen to a labeled snapshot on the
/// worker thread — the drain point), and per-arena pool rows so the
/// aggregator can dedupe arenas shared across replicas.
pub struct WorkerSummary {
    pub(crate) processed: u64,
    pub(crate) stats: crate::runtime::driver::RunStats,
    pub(crate) telemetry: MetricsSnapshot,
    pub(crate) pool_rows: Vec<PoolStats>,
    pub(crate) ledger: Ledger,
    pub(crate) trace: TraceLog,
}

/// Worker-side summary. "Processed" is what left through the egress
/// devices; graphs whose sinks are not `ToDevice` (e.g. `Discard`) are
/// accounted by ingress instead.
fn worker_summary(
    router: &mut Router,
    ingress: ElementId,
    egress_ids: &[ElementId],
) -> WorkerSummary {
    // Publish the open partial interval bucket before the main thread's
    // harvester takes its final (post-join) poll.
    router.interval_flush();
    let sent: u64 = egress_ids
        .iter()
        .map(|&id| {
            router
                .graph()
                .element(id)
                .as_any()
                .downcast_ref::<ToDevice>()
                .map_or(0, ToDevice::sent_packets)
        })
        .sum();
    let processed = if egress_ids.is_empty() {
        router
            .graph()
            .element(ingress)
            .as_any()
            .downcast_ref::<FromDevice>()
            .map_or(0, FromDevice::received)
    } else {
        sent
    };
    WorkerSummary {
        processed,
        stats: router.stats(),
        telemetry: router.telemetry_snapshot(),
        pool_rows: router.pool_rows(),
        ledger: router.ledger(),
        trace: router.take_trace_log(),
    }
}

// ---------------------------------------------------------------------------
// Shared worker-side plumbing.
// ---------------------------------------------------------------------------

pub(crate) fn inject(
    router: &mut Router,
    ingress: ElementId,
    pkts: impl IntoIterator<Item = Packet>,
) {
    let dev = router
        .element_mut(ingress)
        .as_any_mut()
        .downcast_mut::<FromDevice>()
        .expect("ingress id is a FromDevice");
    for pkt in pkts {
        dev.inject(pkt);
    }
}

/// Free ingress-arena slots right now — how many packets the lane can
/// admit without risking a `NoRxDescriptor` drop. Heap-backed ingress has
/// no such bound.
fn ingress_room(router: &Router, ingress: ElementId) -> usize {
    let dev = router
        .graph()
        .element(ingress)
        .as_any()
        .downcast_ref::<FromDevice>()
        .expect("ingress id is a FromDevice");
    match dev.pool() {
        Some(pool) => pool.slots().saturating_sub(pool.in_use()),
        None => usize::MAX,
    }
}

/// Blocking push into an SPSC ring: spins (yielding) on back-pressure.
fn push_blocking<T>(tx: &mut Producer<T>, mut item: T) {
    loop {
        match tx.push(item) {
            Ok(()) => return,
            Err(back) => {
                item = back;
                std::thread::yield_now();
            }
        }
    }
}

/// Nonzero trace IDs carried by `pkts` (stamped packets only).
fn traced_ids(pkts: &[Packet]) -> Vec<u64> {
    pkts.iter()
        .map(|p| p.meta.trace_id)
        .filter(|&id| id != 0)
        .collect()
}

/// Records one side of a ring hop for every traced packet in `pkts` on a
/// worker router's tracer (no-op with tracing off).
fn record_router_hop(router: &mut Router, kind: TraceKind, pkts: &[Packet]) {
    if router.trace_sample() != 0 {
        let ids = traced_ids(pkts);
        router.trace_hop(kind, &ids);
    }
}

/// Records one side of a ring hop on a standalone tracer (the
/// dispatcher/merger thread's shard).
fn record_tracer_hop(tracer: &mut Tracer, kind: TraceKind, pkts: &[Packet]) {
    if tracer.enabled() {
        let ids = traced_ids(pkts);
        if !ids.is_empty() {
            tracer.record_hop(kind, &ids, cycles::now());
        }
    }
}

/// Splits a packet list into `PacketBatch`es of at most `batch_size`.
pub(crate) fn chunk_batches(pkts: Vec<Packet>, batch_size: usize) -> Vec<PacketBatch> {
    let mut out = Vec::with_capacity(pkts.len().div_ceil(batch_size.max(1)));
    let mut it = pkts.into_iter();
    loop {
        let chunk: Vec<Packet> = it.by_ref().take(batch_size).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(PacketBatch::from_vec(chunk));
    }
    out
}

/// Ships retained transmit frames of every egress device into the egress
/// ring as `(egress index, batch)` pairs.
fn ship_egress(
    tx: &mut Producer<(usize, PacketBatch)>,
    router: &mut Router,
    egress_ids: &[ElementId],
    batch_size: usize,
) {
    for (idx, &id) in egress_ids.iter().enumerate() {
        let dev = router
            .element_mut(id)
            .as_any_mut()
            .downcast_mut::<ToDevice>()
            .expect("egress id is a ToDevice");
        if !dev.keeps_frames() {
            continue;
        }
        let frames = dev.take_tx_log();
        if frames.is_empty() {
            continue;
        }
        record_router_hop(router, TraceKind::RingSend, &frames);
        for batch in chunk_batches(frames, batch_size) {
            push_blocking(tx, (idx, batch));
        }
    }
}

/// Forwards an intermediate pipeline stage's transmitted frames (all
/// egress devices, in device order) into the next stage's ingress ring.
fn forward_stage_frames(
    tx: &mut Producer<PacketBatch>,
    router: &mut Router,
    egress_ids: &[ElementId],
    batch_size: usize,
) {
    for &id in egress_ids {
        let dev = router
            .element_mut(id)
            .as_any_mut()
            .downcast_mut::<ToDevice>()
            .expect("egress id is a ToDevice");
        let frames = dev.take_tx_log();
        if frames.is_empty() {
            continue;
        }
        record_router_hop(router, TraceKind::RingSend, &frames);
        for batch in chunk_batches(frames, batch_size) {
            push_blocking(tx, batch);
        }
    }
}

// ---------------------------------------------------------------------------
// The shared harness: merger + dispatcher loop + join/assemble.
// ---------------------------------------------------------------------------

/// The main thread's egress side: drains every worker's egress ring into
/// per-device output lists until all rings hang up.
struct Merger {
    consumers: Vec<Consumer<(usize, PacketBatch)>>,
    done: Vec<bool>,
    egress: Vec<Vec<Packet>>,
    burst: usize,
    detach: bool,
}

impl Merger {
    fn new(
        consumers: Vec<Consumer<(usize, PacketBatch)>>,
        n_egress: usize,
        burst: usize,
        detach: bool,
    ) -> Merger {
        let done = vec![false; consumers.len()];
        Merger {
            consumers,
            done,
            egress: (0..n_egress).map(|_| Vec::new()).collect(),
            burst,
            detach,
        }
    }

    /// Drains every not-yet-finished consumer once; returns `true` if
    /// anything moved.
    fn drain_once(&mut self, tracer: &mut Tracer) -> bool {
        let mut moved = false;
        let mut buf: Vec<(usize, PacketBatch)> = Vec::new();
        for (i, rx) in self.consumers.iter_mut().enumerate() {
            if self.done[i] {
                continue;
            }
            buf.clear();
            if rx.pop_burst(self.burst, &mut buf) > 0 {
                moved = true;
                for (idx, batch) in buf.drain(..) {
                    record_tracer_hop(tracer, TraceKind::RingRecv, batch.as_slice());
                    if self.detach {
                        self.egress[idx].extend(batch.into_iter().map(detach_frame));
                    } else {
                        self.egress[idx].extend(batch);
                    }
                }
            } else if rx.is_finished() {
                self.done[i] = true;
            }
        }
        moved
    }

    fn finished(&self) -> bool {
        self.done.iter().all(|d| *d)
    }
}

/// Copies a pooled frame onto the heap so its arena slot recycles the
/// moment the merger receives it (the pull regime's retained egress must
/// not pin ingress-arena slots, or admission could starve forever).
fn detach_frame(pkt: Packet) -> Packet {
    if !pkt.is_pooled() {
        return pkt;
    }
    let mut heap = Packet::from_slice(pkt.data());
    heap.meta = pkt.meta.clone();
    heap
}

/// Runs `packets` through `sched`'s topology over `graphs` — the one
/// spawn/pump/merge/join loop every regime shares.
///
/// # Errors
///
/// [`GraphError::NotReplicable`] when an element lacks `replicate()`;
/// [`GraphError::MissingIngress`] when a stage graph has no `FromDevice`.
pub(crate) fn run_scheduled(
    sched: &dyn Scheduler,
    graphs: &[&Graph],
    workers: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
    monitor: Option<&MetricsServer>,
) -> Result<GraphRunOutcome, GraphError> {
    assert!(workers > 0, "need at least one worker");
    assert!(!graphs.is_empty(), "need at least one graph");
    let replicas = sched.topology(graphs, workers, opts)?;
    let n = replicas.len();
    // Live telemetry: collect every worker's interval ring before the
    // replicas move to their threads; the main thread polls them while
    // pumping feeds, so the series is harvested without pausing workers.
    let interval_ticks = replicas.first().map_or(0, |r| r.router.interval_ticks());
    let interval_rings: Vec<_> = replicas
        .iter()
        .filter_map(|r| r.router.interval_ring())
        .collect();
    let event_rings: Vec<_> = replicas
        .iter()
        .filter_map(|r| r.router.event_ring())
        .collect();
    let mut harvester = (interval_ticks > 0).then(|| Harvester::new(interval_rings.clone()));
    let mut event_harvester =
        (!event_rings.is_empty()).then(|| EventHarvester::new(event_rings.clone()));
    // Hand the same rings to the embedded scrape endpoint (if one is
    // attached): its thread reads the seqlock rings concurrently with
    // our local harvest — readers keep private cursors, so neither
    // pauses the workers nor perturbs the other.
    if let Some(server) = monitor {
        server.attach(MonitorSource {
            interval_rings,
            event_rings,
            interval_ticks,
            ticks_per_sec: cycles::ticks_per_sec(),
            slo: opts.slo,
        });
    }
    let n_egress = graphs
        .last()
        .expect("non-empty")
        .elements_of_type::<ToDevice>()
        .len();
    // The dispatcher/merger thread's trace shard records as core `n`.
    let mut main_tracer = Tracer::new(opts.trace_sample, n as u32);
    let Wiring {
        lanes,
        mut feeds,
        consumers,
        gates,
        detach_egress,
    } = sched.wire(n, packets, opts, &mut main_tracer);
    debug_assert_eq!(lanes.len(), n, "{}: one lane per replica", sched.name());
    let burst = opts.burst_batches();
    let start = Instant::now();
    let (results, egress) = std::thread::scope(|scope| {
        let handles: Vec<_> = replicas
            .into_iter()
            .zip(lanes)
            .map(|(replica, lane)| scope.spawn(move || sched.worker(replica, lane, opts)))
            .collect();
        // Main thread is dispatcher AND egress merger: pushing without
        // draining could deadlock once the egress rings fill up.
        let mut merger = Merger::new(consumers, n_egress, burst, detach_egress);
        loop {
            let mut all_sent = true;
            for feed in &mut feeds {
                if !feed.pump() {
                    all_sent = false;
                }
            }
            let moved = merger.drain_once(&mut main_tracer);
            if let Some(h) = harvester.as_mut() {
                h.poll(true);
            }
            if let Some(h) = event_harvester.as_mut() {
                h.poll();
            }
            if all_sent {
                break;
            }
            if !moved {
                std::thread::yield_now();
            }
        }
        drop(feeds); // Hang up every ingress ring: workers flush and exit.
        while !merger.finished() {
            if let Some(h) = harvester.as_mut() {
                h.poll(true);
            }
            if let Some(h) = event_harvester.as_mut() {
                h.poll();
            }
            if !merger.drain_once(&mut main_tracer) {
                std::thread::yield_now();
            }
        }
        let results: Vec<WorkerSummary> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (results, merger.egress)
    });
    let processed = sched.processed(&results);
    let elapsed = start.elapsed();
    let mut outcome = assemble_outcome(
        results,
        egress,
        processed,
        elapsed,
        main_tracer.drain(|_| String::new()),
    );
    for gate in gates {
        outcome.report.credit_stalls += gate.stalls();
        outcome.report.credit_peak_outstanding = outcome
            .report
            .credit_peak_outstanding
            .max(gate.peak_outstanding());
    }
    // Final harvest after join: workers flushed their partial buckets in
    // `worker_summary`, so the finished series accounts for every packet.
    outcome.report.timeseries = harvester.map(|h| h.finish(interval_ticks));
    outcome.report.events = event_harvester
        .map(EventHarvester::finish)
        .unwrap_or_default();
    Ok(outcome)
}

fn assemble_outcome(
    results: Vec<WorkerSummary>,
    egress: Vec<Vec<Packet>>,
    processed: u64,
    elapsed: Duration,
    main_trace: TraceLog,
) -> GraphRunOutcome {
    let per_worker: Vec<u64> = results.iter().map(|w| w.processed).collect();
    let worker_stats: Vec<crate::runtime::driver::RunStats> =
        results.iter().map(|w| w.stats).collect();
    let pushes = worker_stats.iter().map(|s| s.pushes).sum();
    let batch_calls = worker_stats.iter().map(|s| s.batch_calls).sum();
    // Pool counters: flatten every worker's per-arena rows and aggregate
    // with arena dedupe. Summing the per-worker `RunStats` pool fields
    // instead would double-count an arena visible to several replicas
    // (e.g. a shared pool attached before replication).
    let pool = PoolStats::aggregate(results.iter().flat_map(|w| w.pool_rows.iter()));
    let mut telemetry = MetricsSnapshot::empty();
    let mut ledger = Ledger::default();
    let mut trace = main_trace;
    for worker in results {
        telemetry.merge(&worker.telemetry);
        ledger.merge(&worker.ledger);
        trace.merge(worker.trace);
    }
    GraphRunOutcome {
        report: MtReport {
            processed,
            elapsed,
            per_worker,
            pushes,
            batch_calls,
            pool_allocs: pool.allocs,
            pool_recycles: pool.recycles,
            pool_exhausted: pool.exhausted,
            pool_fallbacks: pool.heap_fallbacks,
            pool_bulk_recycles: pool.bulk_recycles,
            // Descriptor rings are strictly per-replica (multi-queue RSS:
            // one queue pair per core), so plain sums cannot double-count.
            nic_doorbells: worker_stats.iter().map(|s| s.nic_doorbells).sum(),
            nic_reclaim_batches: worker_stats.iter().map(|s| s.nic_reclaim_batches).sum(),
            nic_desc_stalls: worker_stats.iter().map(|s| s.nic_desc_stalls).sum(),
            nic_dma_bytes: worker_stats.iter().map(|s| s.nic_dma_bytes).sum(),
            credit_stalls: 0,
            credit_peak_outstanding: 0,
            telemetry,
            ledger,
            timeseries: None,
            events: EventLog::default(),
        },
        egress,
        worker_stats,
        trace,
    }
}

// ---------------------------------------------------------------------------
// Shared wiring and worker bodies the concrete regimes compose.
// ---------------------------------------------------------------------------

/// Star topology: `workers` replicas of the one template graph.
fn star_topology(
    graphs: &[&Graph],
    workers: usize,
    opts: &GraphRunOpts,
) -> Result<Vec<Replica>, GraphError> {
    let graph = graphs[0];
    (0..workers)
        .map(|core| make_replica(graph, opts, core as u32))
        .collect()
}

/// Star wiring with streaming ingress: RSS-shard the packets, stamp
/// sampled ones on the dispatcher (so the ring hop is part of the
/// recorded path), and connect each worker with an ingress ring, an
/// egress ring, and — when `credit_window` is nonzero — a credit gate.
fn streamed_star_wiring(
    n: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
    tracer: &mut Tracer,
    credit_window: u64,
) -> Wiring {
    let pending: Vec<Vec<PacketBatch>> = shard_by_flow(packets, n)
        .into_iter()
        .map(|mut shard| {
            if tracer.enabled() {
                for pkt in &mut shard {
                    let id = tracer.maybe_assign();
                    if id != 0 {
                        pkt.meta.trace_id = id;
                    }
                }
                record_tracer_hop(tracer, TraceKind::RingSend, &shard);
            }
            chunk_batches(shard, opts.batch_size)
        })
        .collect();
    let mut lanes = Vec::with_capacity(n);
    let mut feeds = Vec::with_capacity(n);
    let mut consumers = Vec::with_capacity(n);
    let mut gates = Vec::new();
    for pending in pending {
        let (itx, irx) = spsc::ring::<PacketBatch>(opts.ring_depth);
        let (etx, erx) = spsc::ring::<(usize, PacketBatch)>(opts.ring_depth);
        let gate = (credit_window > 0).then(|| Arc::new(CreditGate::new(credit_window)));
        let mut lane = Lane::streaming(irx);
        lane.egress = Some(etx);
        lane.credits = gate.clone();
        lanes.push(lane);
        feeds.push(Feed {
            tx: itx,
            pending,
            credits: gate.clone(),
        });
        gates.extend(gate);
        consumers.push(erx);
    }
    Wiring {
        lanes,
        feeds,
        consumers,
        gates,
        detach_egress: credit_window > 0,
    }
}

/// Preloaded worker body (push regime): inject the whole shard, run to
/// idle once, ship egress, summarize.
fn preloaded_worker(replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
    let Replica {
        mut router,
        ingress,
        egress_ids,
    } = replica;
    let mut etx = lane.egress.expect("push lane ships to the merger");
    inject(&mut router, ingress, lane.preload);
    router.run_until_idle(opts.max_quanta);
    ship_egress(&mut etx, &mut router, &egress_ids, opts.batch_size);
    worker_summary(&mut router, ingress, &egress_ids)
    // `etx` drops here, closing the egress ring.
}

/// Streaming worker body (spsc and pipeline regimes): pop ingress bursts,
/// inject, run to idle, emit frames to the merger and/or the next stage.
fn streaming_worker(replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
    let Replica {
        mut router,
        ingress,
        egress_ids,
    } = replica;
    let Lane {
        rx,
        mut egress,
        mut next,
        trace_ring_recv,
        ..
    } = lane;
    let mut rx = rx.expect("streaming lane has an ingress ring");
    let burst = opts.burst_batches();
    let mut buf: Vec<PacketBatch> = Vec::with_capacity(burst);
    let mut cycle = |router: &mut Router| {
        router.run_until_idle(opts.max_quanta);
        if let Some(tx) = egress.as_mut() {
            ship_egress(tx, router, &egress_ids, opts.batch_size);
        }
        if let Some(tx) = next.as_mut() {
            forward_stage_frames(tx, router, &egress_ids, opts.batch_size);
        }
    };
    loop {
        buf.clear();
        if rx.pop_burst(burst, &mut buf) > 0 {
            for batch in buf.drain(..) {
                if trace_ring_recv {
                    record_router_hop(&mut router, TraceKind::RingRecv, batch.as_slice());
                }
                inject(&mut router, ingress, batch);
            }
            cycle(&mut router);
        } else if rx.is_finished() {
            break;
        } else {
            std::thread::yield_now();
        }
    }
    cycle(&mut router);
    worker_summary(&mut router, ingress, &egress_ids)
    // `egress`/`next` drop here, hanging up on the merger / next stage.
}

/// Pull worker body: arena-aware admission plus credit release. Packets
/// the dispatcher sent (credits already debited) wait in a local buffer
/// — bounded by the credit window — until the ingress arena has room;
/// each cycle admits at most the free-slot count, runs the graph to
/// idle (the sink's drain IS the step), ships egress, and only then
/// releases the admitted packets' credits.
fn pull_worker(replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
    let Replica {
        mut router,
        ingress,
        egress_ids,
    } = replica;
    let mut rx = lane.rx.expect("pull lane has an ingress ring");
    let mut etx = lane.egress.expect("pull lane ships to the merger");
    let gate = lane.credits.expect("pull lane is credit-gated");
    let burst = opts.burst_batches();
    let mut buf: Vec<PacketBatch> = Vec::with_capacity(burst);
    let mut waiting: std::collections::VecDeque<Packet> = std::collections::VecDeque::new();
    loop {
        buf.clear();
        let popped = rx.pop_burst(burst, &mut buf) > 0;
        for batch in buf.drain(..) {
            record_router_hop(&mut router, TraceKind::RingRecv, batch.as_slice());
            waiting.extend(batch);
        }
        // Arena-aware admission: inject only what free slots can hold so
        // `FromDevice` never drops to `NoRxDescriptor`; the rest waits
        // here (the dispatcher's credit window bounds this buffer).
        let admit = ingress_room(&router, ingress).min(waiting.len());
        if admit > 0 {
            inject(&mut router, ingress, waiting.drain(..admit));
            // The gate's stall count is dispatcher-side state; mirror the
            // running total so interval buckets carry the stall deltas.
            router.note_credit_stalls(gate.stalls());
            router.run_until_idle(opts.max_quanta);
            ship_egress(&mut etx, &mut router, &egress_ids, opts.batch_size);
            gate.release(admit as u64);
        } else if !popped {
            if waiting.is_empty() && rx.is_finished() {
                break;
            }
            // No input and no room (egress frames still pin slots until
            // the merger detaches them): yield, don't spin.
            std::thread::yield_now();
        }
    }
    worker_summary(&mut router, ingress, &egress_ids)
}

// ---------------------------------------------------------------------------
// The four regimes.
// ---------------------------------------------------------------------------

/// §4.2 parallel push: preloaded shards, one run to idle per worker.
pub struct PushScheduler;

impl Scheduler for PushScheduler {
    fn name(&self) -> &'static str {
        "push"
    }

    fn topology(
        &self,
        graphs: &[&Graph],
        workers: usize,
        opts: &GraphRunOpts,
    ) -> Result<Vec<Replica>, GraphError> {
        star_topology(graphs, workers, opts)
    }

    fn wire(
        &self,
        n: usize,
        packets: Vec<Packet>,
        opts: &GraphRunOpts,
        _tracer: &mut Tracer,
    ) -> Wiring {
        let shards = shard_by_flow(packets, n);
        let mut lanes = Vec::with_capacity(n);
        let mut consumers = Vec::with_capacity(n);
        for preload in shards {
            let (etx, erx) = spsc::ring::<(usize, PacketBatch)>(opts.ring_depth);
            lanes.push(Lane {
                preload,
                rx: None,
                egress: Some(etx),
                next: None,
                credits: None,
                trace_ring_recv: false,
            });
            consumers.push(erx);
        }
        Wiring {
            lanes,
            feeds: Vec::new(),
            consumers,
            gates: Vec::new(),
            detach_egress: false,
        }
    }

    fn worker(&self, replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
        preloaded_worker(replica, lane, opts)
    }
}

/// Streaming push over bounded SPSC ingress rings.
pub struct SpscScheduler;

impl Scheduler for SpscScheduler {
    fn name(&self) -> &'static str {
        "spsc"
    }

    fn topology(
        &self,
        graphs: &[&Graph],
        workers: usize,
        opts: &GraphRunOpts,
    ) -> Result<Vec<Replica>, GraphError> {
        star_topology(graphs, workers, opts)
    }

    fn wire(
        &self,
        n: usize,
        packets: Vec<Packet>,
        opts: &GraphRunOpts,
        tracer: &mut Tracer,
    ) -> Wiring {
        streamed_star_wiring(n, packets, opts, tracer, 0)
    }

    fn worker(&self, replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
        streaming_worker(replica, lane, opts)
    }
}

/// Stage-chained pipeline: one replica per stage graph, frames forwarded
/// stage-to-stage over rings.
pub struct PipelineScheduler;

impl Scheduler for PipelineScheduler {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn topology(
        &self,
        graphs: &[&Graph],
        workers: usize,
        opts: &GraphRunOpts,
    ) -> Result<Vec<Replica>, GraphError> {
        assert_eq!(
            graphs.len(),
            workers,
            "pipeline: one stage graph per worker"
        );
        let n = graphs.len();
        let mut replicas = Vec::with_capacity(n);
        for (i, stage) in graphs.iter().enumerate() {
            let mut replica = make_replica(stage, opts, i as u32)?;
            if i + 1 < n {
                // Intermediate stages feed the next stage from their tx
                // log, so frame retention is forced on.
                for &id in &replica.egress_ids {
                    replica
                        .router
                        .element_mut(id)
                        .as_any_mut()
                        .downcast_mut::<ToDevice>()
                        .expect("egress id is a ToDevice")
                        .set_keep_frames(true);
                }
            }
            replicas.push(replica);
        }
        Ok(replicas)
    }

    fn wire(
        &self,
        n: usize,
        packets: Vec<Packet>,
        opts: &GraphRunOpts,
        _tracer: &mut Tracer,
    ) -> Wiring {
        // Ring i feeds stage i; the last stage ships to the egress ring.
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = spsc::ring::<PacketBatch>(opts.ring_depth);
            txs.push(Some(tx));
            rxs.push(rx);
        }
        let (etx, erx) = spsc::ring::<(usize, PacketBatch)>(opts.ring_depth);
        let mut etx = Some(etx);
        let mut lanes = Vec::with_capacity(n);
        for (i, rx) in rxs.into_iter().enumerate() {
            let mut lane = Lane::streaming(rx);
            // Stage 0 reads the feeder's (untraced) input; later rings
            // are real core hops.
            lane.trace_ring_recv = i > 0;
            if i + 1 < n {
                lane.next = txs[i + 1].take();
            } else {
                lane.egress = etx.take();
            }
            lanes.push(lane);
        }
        let feed = Feed {
            tx: txs[0].take().expect("stage 0 input ring"),
            pending: chunk_batches(packets, opts.batch_size),
            credits: None,
        };
        Wiring {
            lanes,
            feeds: vec![feed],
            consumers: vec![erx],
            gates: Vec::new(),
            detach_egress: false,
        }
    }

    fn worker(&self, replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
        streaming_worker(replica, lane, opts)
    }

    fn processed(&self, results: &[WorkerSummary]) -> u64 {
        results.last().map_or(0, |w| w.processed)
    }
}

/// Sink-driven pull with credit back-pressure.
pub struct PullCreditScheduler;

impl Scheduler for PullCreditScheduler {
    fn name(&self) -> &'static str {
        "pull"
    }

    fn topology(
        &self,
        graphs: &[&Graph],
        workers: usize,
        opts: &GraphRunOpts,
    ) -> Result<Vec<Replica>, GraphError> {
        star_topology(graphs, workers, opts)
    }

    fn wire(
        &self,
        n: usize,
        packets: Vec<Packet>,
        opts: &GraphRunOpts,
        tracer: &mut Tracer,
    ) -> Wiring {
        streamed_star_wiring(n, packets, opts, tracer, opts.effective_credit_window())
    }

    fn worker(&self, replica: Replica, lane: Lane, opts: &GraphRunOpts) -> WorkerSummary {
        pull_worker(replica, lane, opts)
    }
}
