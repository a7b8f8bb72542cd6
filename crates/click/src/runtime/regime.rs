//! Scheduling regimes: one harness, two policies.
//!
//! §4.2 of the paper compares ways of spreading packet processing over
//! cores, and PR history grew three hand-rolled run loops for them. Here
//! the *mechanism* is written once — [`run_scheduled`]: spawn the
//! workers, pump the `Dispatcher`, merge egress, join, and fold
//! telemetry/ledger/trace/pool counters into one [`GraphRunOutcome`] —
//! and the *policy* is a [`Regime`], matched on where the two regimes
//! differ: worker topology (which graph replica runs on which core),
//! ring wiring (where each worker's ingress ring is filled from and where
//! its frames go), and whose packets count as processed. What a worker
//! thread executes is not among them: every core runs the one `worker`
//! body over the `Lane` its regime wired. `driver.rs`'s single-core
//! stride loop is the degenerate instance (one lane, no rings).
//!
//! * [`Regime::PullCredit`] — §4.2's parallel layout ("one core per
//!   packet"): a dispatcher splits the input RSS-style over per-core
//!   replicas, and overload *stalls* the source instead of dropping.
//! * [`Regime::Pipeline`] — cores chained; stage `i`'s transmitted
//!   frames are the inter-stage link into stage `i+1`'s `FromDevice`.
//!
//! # The credit protocol
//!
//! Every ring that carries packets toward a worker pairs with a
//! [`CreditGate`] of `ring_depth * batch_size` packets, what the ring
//! holds in whole batches. Whoever fills the ring — the dispatcher, or
//! the previous pipeline stage — acquires credits for
//! a whole batch before pushing it; every attempt that finds the gate
//! short counts one *stall* and is retried after yielding, so the count
//! keeps growing for as long as a stall lasts — the overload signal that
//! replaces ingress drops. The worker releases a packet's credit only
//! after the graph has run it to completion (transmitted, or dropped by
//! an element *for a reason the ledger records*), so `window - available`
//! always bounds packets in flight toward one core. On the worker side,
//! admission is arena-aware: at most `slots - in_use` packets are
//! injected per cycle, straight from the popped batches, and only the
//! overflow waits in a local buffer, so `FromDevice` never drops a frame
//! to `NoRxDescriptor`. The merger detaches received pooled egress frames
//! onto the heap, so retained frames cannot pin arena slots forever.
//! Stalls are not packet dispositions: a stalled packet is neither
//! dropped nor in-flight, and the conservation [`rb_telemetry::Ledger`]
//! balances under every regime.

use crate::config::Knobs;
use crate::element::PacketBatch;
use crate::elements::device::{FromDevice, ToDevice};
use crate::graph::{ElementId, Graph, GraphError};
use crate::runtime::driver::{trace_hop, Router};
use crate::runtime::mt::{lane_of, GraphRunOutcome, MtReport};
use crate::runtime::spsc::{self, Consumer, Producer};
use rb_packet::{Packet, PacketPool, PoolStats};
use rb_telemetry::{
    EventLog, Harvester, Ledger, MetricsServer, MetricsSnapshot, TraceKind, TraceLog, Tracer,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which multi-threaded scheduling regime a run uses. Both gate every
/// ring that carries packets toward a worker (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Regime {
    /// Stage-chained pipeline; every packet crosses a core per stage.
    Pipeline,
    /// Parallel replicas (§4.2 "one core per packet") fed by sink-driven
    /// pull with credit back-pressure: overload stalls the source
    /// instead of dropping.
    #[default]
    PullCredit,
}

impl Regime {
    /// Parses a configuration word (`pipeline`, `pull`/`pullcredit`).
    pub fn parse(word: &str) -> Option<Regime> {
        match word {
            "pipeline" => Some(Regime::Pipeline),
            "pull" | "pullcredit" | "pull_credit" => Some(Regime::PullCredit),
            _ => None,
        }
    }

    /// The canonical configuration word.
    pub fn as_str(&self) -> &'static str {
        match self {
            Regime::Pipeline => "pipeline",
            Regime::PullCredit => "pull",
        }
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The credit counter carried by a worker's ingress ring: whoever fills
/// the ring acquires before pushing, the worker releases after the graph
/// has finished the packets. Single producer, single consumer —
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
struct Replica {
    router: Router,
    ingress: ElementId,
    egress_ids: Vec<ElementId>,
}

/// Replicates `graph` for worker `core`: fresh mutable state, shared
/// read-only structures, the first `FromDevice` as ingress.
fn make_replica(graph: &Graph, knobs: &Knobs, core: u32) -> Result<Replica, GraphError> {
    let g = graph.replicate()?;
    let ingress = *g
        .elements_of_type::<FromDevice>()
        .first()
        .ok_or(GraphError::MissingIngress)?;
    let egress_ids = g.elements_of_type::<ToDevice>();
    Ok(Replica {
        router: Router::configured(g, knobs, core)?,
        ingress,
        egress_ids,
    })
}

/// Where a worker's transmitted frames go.
enum Sink {
    /// The egress merger, as `(egress index, batch)` pairs.
    Merger(Producer<(usize, PacketBatch)>),
    /// The next pipeline stage's ingress ring and the gate it is filled
    /// under (intermediate stages).
    Next(Producer<PacketBatch>, Arc<CreditGate>),
}

/// The wiring handed to one worker thread: the credit-gated ingress ring
/// packets arrive on and where finished frames go.
struct Lane {
    rx: Consumer<PacketBatch>,
    sink: Sink,
    /// The gate `rx` is filled under, shared with whoever fills it: they
    /// acquire, this worker releases once the graph has run the packets.
    credits: Arc<CreditGate>,
    /// Whether ring receives count as trace hops: the pipeline's stage 0
    /// reads the feeder's untraced input, every other ring is a real
    /// cross-core hop.
    trace_ring_recv: bool,
    /// Way home for injected batches: see [`inject_batch`].
    spent: Producer<PacketBatch>,
}

/// One lane of the [`Dispatcher`]: the batch being filled, the finished
/// batches waiting for credits and ring space, and the worker's ingress
/// ring.
struct DispatchLane {
    tx: Producer<PacketBatch>,
    credits: Arc<CreditGate>,
    open: PacketBatch,
    staged: VecDeque<PacketBatch>,
}

impl DispatchLane {
    /// Pushes staged batches, oldest first, while the gate grants their
    /// credits and the ring has room; `true` if any went out. A short gate
    /// is a counted stall; a full ring refunds the batch's credits.
    fn flush(&mut self) -> bool {
        let mut sent = false;
        while let Some(batch) = self.staged.pop_front() {
            let credits = batch.len() as u64;
            if !self.credits.try_acquire(credits) {
                self.credits.note_stall();
                self.staged.push_front(batch);
                break;
            }
            if let Err(batch) = self.tx.push(batch) {
                self.credits.release(credits);
                self.staged.push_front(batch);
                break;
            }
            sent = true;
        }
        sent
    }
}

/// What one [`Dispatcher::pump`] call achieved: the input is exhausted and
/// every batch in a ring; packets were classified or batches pushed; or
/// nothing moved, because a lane is full and its worker has to catch up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pump {
    Done,
    Progress,
    Blocked,
}

/// The dispatcher thread's ingress side — the RSS stage of a multi-queue
/// NIC, run beside the workers rather than as a prelude before them. Each
/// [`Dispatcher::pump`] classifies a bounded round of the input into the
/// lanes' open batches ([`lane_of`]), stages a batch when it reaches
/// `batch_size` (partial batches only at end of input) and pushes staged
/// batches as credits and ring space allow. While any lane holds
/// `staging` finished batches nothing more is classified, so at most
/// `staging + 1` batches per lane are buffered however slow a worker is:
/// overload stalls the source iterator, per-lane order is the input's.
pub(crate) struct Dispatcher {
    source: std::vec::IntoIter<Packet>,
    lanes: Vec<DispatchLane>,
    batch_size: usize,
    /// Finished batches a lane may hold: one ring interaction's worth.
    staging: usize,
    /// Stamp sampled packets and record the ingress hop (replicas; the
    /// pipeline's stage 0 samples its own input).
    stamp: bool,
}

impl Dispatcher {
    fn new(
        packets: Vec<Packet>,
        ingress: Vec<(Producer<PacketBatch>, Arc<CreditGate>)>,
        knobs: &Knobs,
        stamp: bool,
    ) -> Dispatcher {
        let batch_size = knobs.batch_size;
        let lanes = ingress
            .into_iter()
            .map(|(tx, credits)| DispatchLane {
                tx,
                credits,
                open: PacketBatch::with_capacity(batch_size),
                staged: VecDeque::new(),
            })
            .collect();
        Dispatcher {
            source: packets.into_iter(),
            lanes,
            batch_size,
            staging: knobs.burst_batches().min(knobs.ring_depth),
            stamp,
        }
    }

    /// One round: flush, then classify up to `staging` batches per lane —
    /// bounded, so the caller's egress merge and telemetry harvest keep
    /// their cadence however long the input is.
    pub(crate) fn pump(&mut self, tracer: &mut Tracer) -> Pump {
        let mut progress = false;
        for lane in &mut self.lanes {
            progress |= lane.flush();
        }
        let n = self.lanes.len();
        if self.lanes.iter().all(|l| l.staged.len() < self.staging) {
            for _ in 0..self.staging * self.batch_size * n {
                let Some(pkt) = self.source.next() else {
                    // End of input: partial batches go out as they are.
                    for i in 0..n {
                        if !self.lanes[i].open.is_empty() {
                            self.seal(i, tracer);
                        }
                    }
                    if self.lanes.iter().all(|l| l.staged.is_empty()) {
                        return Pump::Done;
                    }
                    break;
                };
                progress = true;
                let i = lane_of(&pkt, n);
                self.lanes[i].open.push(pkt);
                if self.lanes[i].open.len() == self.batch_size && !self.seal(i, tracer) {
                    break;
                }
            }
        }
        if progress {
            Pump::Progress
        } else {
            Pump::Blocked
        }
    }

    /// Finishes lane `i`'s open batch: stamps sampled packets (so the ring
    /// hop is part of the recorded path), stages the batch and tries to
    /// push it. `false` when the lane is left at the staging bound.
    fn seal(&mut self, i: usize, tracer: &mut Tracer) -> bool {
        let lane = &mut self.lanes[i];
        let fresh = PacketBatch::with_capacity(self.batch_size);
        let mut batch = std::mem::replace(&mut lane.open, fresh);
        if self.stamp && tracer.enabled() {
            for pkt in batch.as_mut_slice() {
                let id = tracer.maybe_assign();
                if id != 0 {
                    pkt.meta.trace_id = id;
                }
            }
            trace_hop(tracer, TraceKind::RingSend, batch.as_slice());
        }
        lane.staged.push_back(batch);
        lane.flush();
        lane.staged.len() < self.staging
    }
}

/// Everything wiring a regime produces: per-worker lanes, the
/// dispatcher feeding them, and the egress consumers the merger drains.
struct Wiring {
    lanes: Vec<Lane>,
    dispatcher: Dispatcher,
    consumers: Vec<Consumer<(usize, PacketBatch)>>,
    /// Receiving ends of the lanes' [`Lane::spent`] rings.
    spent: Vec<Consumer<PacketBatch>>,
}

/// Everything one worker reports back at join: its packet count, driver
/// statistics, telemetry shard (frozen to a labeled snapshot on the
/// worker thread — the drain point), and handles on its arenas, read
/// only after every worker has joined: the merger frees a kept egress
/// frame's slot on the caller's thread, after its worker may have exited.
pub(crate) struct WorkerSummary {
    pub(crate) processed: u64,
    pub(crate) stats: crate::runtime::driver::RunStats,
    pub(crate) telemetry: MetricsSnapshot,
    pub(crate) pools: Vec<PacketPool>,
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
        pools: (0..router.graph().len())
            .filter_map(|id| router.graph().element(id).pool().cloned())
            .collect(),
        ledger: router.ledger(),
        trace: router.take_trace_log(),
    }
}

// ---------------------------------------------------------------------------
// Shared worker-side plumbing.
// ---------------------------------------------------------------------------

/// Injects `batch` and hands what is left of it — the spent originals
/// behind a pooled ingress, which copied them into its arena; otherwise
/// the emptied buffer — back over `spent`, so the dispatcher's thread
/// frees them (for a replica or stage 0, what it allocated itself).
/// Freeing it here would put one cross-thread `free` per packet on the
/// worker, which is the critical path, contending with the dispatcher's
/// own allocations.
fn inject_batch(
    router: &mut Router,
    ingress: ElementId,
    mut batch: PacketBatch,
    spent: &mut Producer<PacketBatch>,
) {
    router
        .element_mut(ingress)
        .as_any_mut()
        .downcast_mut::<FromDevice>()
        .expect("ingress id is a FromDevice")
        .inject_batch(&mut batch);
    // A full ring only means the batch is freed here after all.
    let _ = spent.push(batch);
}

/// Free ingress-arena slots right now — how many packets the lane can
/// admit without risking a `NoRxDescriptor` drop. Heap-backed ingress has
/// no such bound.
fn ingress_room(router: &Router, ingress: ElementId) -> usize {
    match router.graph().element(ingress).pool() {
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

/// Ships the retained transmit frames of every egress device, in device
/// order, into the lane's sink. An intermediate pipeline stage retains
/// every device's frames (`pipeline_topology` forces it on): its transmit
/// log is the inter-stage link, and it takes the next stage's credits for
/// a batch before pushing it, as the dispatcher does for stage 0 — a
/// short gate is a counted stall, retried after a yield.
fn ship(sink: &mut Sink, router: &mut Router, egress_ids: &[ElementId], batch_size: usize) {
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
        router.trace_hop(TraceKind::RingSend, &frames);
        for batch in chunk_batches(frames, batch_size) {
            match sink {
                Sink::Merger(tx) => push_blocking(tx, (idx, batch)),
                Sink::Next(tx, gate) => {
                    while !gate.try_acquire(batch.len() as u64) {
                        gate.note_stall();
                        std::thread::yield_now();
                    }
                    push_blocking(tx, batch);
                }
            }
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
    spent: Vec<Consumer<PacketBatch>>,
    done: Vec<bool>,
    egress: Vec<Vec<Packet>>,
    burst: usize,
    /// The pass's pop buffer, kept with its capacity across passes.
    popped: Vec<(usize, PacketBatch)>,
}

impl Merger {
    fn new(
        consumers: Vec<Consumer<(usize, PacketBatch)>>,
        spent: Vec<Consumer<PacketBatch>>,
        n_egress: usize,
        burst: usize,
    ) -> Merger {
        let done = vec![false; consumers.len()];
        Merger {
            consumers,
            spent,
            done,
            egress: (0..n_egress).map(|_| Vec::new()).collect(),
            burst,
            popped: Vec::with_capacity(burst),
        }
    }

    /// Drains every not-yet-finished consumer once; returns `true` if
    /// anything moved.
    fn drain_once(&mut self, tracer: &mut Tracer) -> bool {
        let mut moved = false;
        for (i, rx) in self.consumers.iter_mut().enumerate() {
            if self.done[i] {
                continue;
            }
            if rx.pop_burst(self.burst, &mut self.popped) > 0 {
                moved = true;
                for (idx, batch) in self.popped.drain(..) {
                    trace_hop(tracer, TraceKind::RingRecv, batch.as_slice());
                    self.egress[idx].extend(batch.into_iter().map(detach_frame));
                }
            } else if rx.is_finished() {
                self.done[i] = true;
            }
        }
        // Spent ingress batches come home to be freed on this thread; that
        // is no reason for the caller not to yield.
        for rx in &mut self.spent {
            while rx.pop().is_some() {}
        }
        moved
    }

    fn finished(&self) -> bool {
        self.done.iter().all(|d| *d)
    }
}

/// Copies a pooled frame onto the heap so its arena slot recycles the
/// moment the merger receives it (retained egress must not pin
/// ingress-arena slots, or admission could starve forever).
fn detach_frame(pkt: Packet) -> Packet {
    if !pkt.is_pooled() {
        return pkt;
    }
    let mut heap = Packet::from_slice(pkt.data());
    heap.meta = pkt.meta.clone();
    heap
}

/// Idle turns the dispatcher/merger thread yields for before it naps.
const IDLE_YIELDS: u32 = 2048;
const IDLE_NAP: Duration = Duration::from_micros(50);

/// Runs `packets` through `knobs.regime`'s topology over `graphs` — the
/// one spawn/pump/merge/join loop both regimes share. The pipeline takes
/// one stage graph per worker; pull replicates `graphs[0]`
/// `knobs.workers` times.
///
/// # Errors
///
/// [`GraphError::NotReplicable`] when an element lacks `replicate()`;
/// [`GraphError::MissingIngress`] when a stage graph has no `FromDevice`.
pub(crate) fn run_scheduled(
    graphs: &[&Graph],
    packets: Vec<Packet>,
    knobs: &Knobs,
    monitor: Option<&MetricsServer>,
) -> Result<GraphRunOutcome, GraphError> {
    let regime = knobs.regime;
    assert!(!graphs.is_empty(), "need at least one graph");
    // The caller's clock: replication and wiring are part of a call.
    let start = Instant::now();
    let replicas = match regime {
        Regime::Pipeline => pipeline_topology(graphs, knobs)?,
        Regime::PullCredit => {
            assert_eq!(graphs.len(), 1, "{regime}: one template graph");
            assert!(knobs.workers > 0, "need at least one worker");
            star_topology(graphs[0], knobs)?
        }
    };
    let n = replicas.len();
    // Live telemetry: collect every worker's interval ring before the
    // replicas move to their threads; the main thread polls them while
    // pumping feeds, so the series is harvested without pausing workers.
    let interval_ticks = replicas.first().map_or(0, |r| r.router.interval_ticks());
    let interval_rings: Vec<_> = replicas
        .iter()
        .filter_map(|r| r.router.interval_ring())
        .collect();
    let mut harvest = Harvester::new(interval_rings.clone());
    // Hand the same rings to the embedded scrape endpoint (if one is
    // attached): its thread reads the seqlock rings concurrently with
    // our local harvest — readers keep private cursors, so neither
    // pauses the workers nor perturbs the other.
    if let Some(server) = monitor {
        server.attach(knobs.monitor_source(interval_rings, interval_ticks));
    }
    let n_egress = graphs
        .last()
        .expect("non-empty")
        .elements_of_type::<ToDevice>()
        .len();
    // The dispatcher/merger thread's trace shard records as core `n`.
    let mut main_tracer = Tracer::new(knobs.trace_sample, core_id(n));
    let Wiring {
        lanes,
        dispatcher,
        consumers,
        spent,
    } = match regime {
        Regime::Pipeline => pipeline_wiring(n, packets, knobs),
        Regime::PullCredit => star_wiring(n, packets, knobs),
    };
    let mut dispatcher = Some(dispatcher);
    debug_assert_eq!(lanes.len(), n, "{regime}: one lane per replica");
    // Every gated ring is some lane's ingress: the report's totals.
    let gates: Vec<Arc<CreditGate>> = lanes.iter().map(|l| l.credits.clone()).collect();
    let burst = knobs.burst_batches();
    let (results, egress) = std::thread::scope(|scope| {
        let handles: Vec<_> = replicas
            .into_iter()
            .zip(lanes)
            .map(|(replica, lane)| scope.spawn(move || worker(replica, lane, knobs)))
            .collect();
        // Main thread is dispatcher AND egress merger: pushing without
        // draining could deadlock once the egress rings fill up.
        let mut merger = Merger::new(consumers, spent, n_egress, burst);
        let mut idle = 0u32;
        loop {
            let pumped = dispatcher
                .as_mut()
                .map_or(Pump::Done, |d| d.pump(&mut main_tracer));
            if pumped == Pump::Done {
                dispatcher = None; // Hang up the ingress rings: workers flush and exit.
            }
            let moved = merger.drain_once(&mut main_tracer);
            harvest.poll(true);
            if pumped == Pump::Done && merger.finished() {
                break;
            }
            // Nothing to do: yield while the wait is short, then nap. A
            // thread that only ever yields looks busy to the OS scheduler,
            // which then leaves two workers stacked on the other core.
            idle = if pumped == Pump::Progress || moved {
                0
            } else {
                idle + 1
            };
            match idle {
                0 => {}
                1..=IDLE_YIELDS => std::thread::yield_now(),
                _ => std::thread::sleep(IDLE_NAP),
            }
        }
        let results: Vec<WorkerSummary> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (results, merger.egress)
    });
    // Replicas sum their workers; the pipeline counts its last stage.
    let processed = match regime {
        Regime::Pipeline => results.last().map_or(0, |w| w.processed),
        Regime::PullCredit => results.iter().map(|w| w.processed).sum(),
    };
    let mut outcome = assemble_outcome(
        results,
        egress,
        processed,
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
    let (series, events) = harvest.finish(interval_ticks);
    outcome.report.timeseries = (interval_ticks > 0).then_some(series);
    outcome.report.events = events;
    outcome.report.elapsed = start.elapsed();
    Ok(outcome)
}

pub(crate) fn assemble_outcome(
    results: Vec<WorkerSummary>,
    egress: Vec<Vec<Packet>>,
    processed: u64,
    main_trace: TraceLog,
) -> GraphRunOutcome {
    let per_worker: Vec<u64> = results.iter().map(|w| w.processed).collect();
    // Pool counters: every worker's arenas, read now that the merger has
    // freed every slot it will. The `RunStats` a worker returned were
    // taken when it exited, before the merger freed its kept egress
    // frames, so each row's pool fields are refilled from its arenas.
    // The report's totals aggregate every row with arena dedupe: summing
    // the rows instead would double-count an arena visible to several
    // replicas (e.g. a shared pool attached before replication).
    let rows: Vec<Vec<PoolStats>> = results
        .iter()
        .map(|w| w.pools.iter().map(PacketPool::stats).collect())
        .collect();
    let worker_stats: Vec<crate::runtime::driver::RunStats> = results
        .iter()
        .zip(&rows)
        .map(|(w, rows)| w.stats.with_pool(&PoolStats::aggregate(rows)))
        .collect();
    let pushes = worker_stats.iter().map(|s| s.pushes).sum();
    let batch_calls = worker_stats.iter().map(|s| s.batch_calls).sum();
    let pool = PoolStats::aggregate(rows.iter().flatten());
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
            elapsed: Duration::ZERO, // `run_scheduled` stamps it last.
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
// Topology, wiring and the one worker body.
// ---------------------------------------------------------------------------

/// A worker's or stage's index as its telemetry core number.
fn core_id(index: usize) -> u32 {
    u32::try_from(index).expect("a run spawns a thread per core: fewer than 2^32")
}

/// Star topology: `knobs.workers` replicas of the one template graph.
fn star_topology(graph: &Graph, knobs: &Knobs) -> Result<Vec<Replica>, GraphError> {
    (0..knobs.workers)
        .map(|core| make_replica(graph, knobs, core_id(core)))
        .collect()
}

/// A worker's ingress ring and the gate it is filled under: a window of
/// the packets `ring_depth` whole batches hold.
fn gated_ring(
    knobs: &Knobs,
) -> (
    Producer<PacketBatch>,
    Consumer<PacketBatch>,
    Arc<CreditGate>,
) {
    let (tx, rx) = spsc::ring::<PacketBatch>(knobs.ring_depth);
    let gate = Arc::new(CreditGate::new(
        (knobs.ring_depth * knobs.batch_size) as u64,
    ));
    (tx, rx, gate)
}

/// Star wiring: connect each worker with a gated ingress ring, an egress
/// ring and a spent ring, and give the input to a [`Dispatcher`] over the
/// ingress rings.
fn star_wiring(n: usize, packets: Vec<Packet>, knobs: &Knobs) -> Wiring {
    let mut lanes = Vec::with_capacity(n);
    let mut ingress = Vec::with_capacity(n);
    let mut consumers = Vec::with_capacity(n);
    let mut spent = Vec::with_capacity(n);
    for _ in 0..n {
        let (itx, irx, gate) = gated_ring(knobs);
        let (etx, erx) = spsc::ring::<(usize, PacketBatch)>(knobs.ring_depth);
        let (stx, srx) = spsc::ring::<PacketBatch>(knobs.ring_depth);
        lanes.push(Lane {
            rx: irx,
            sink: Sink::Merger(etx),
            credits: gate.clone(),
            trace_ring_recv: true,
            spent: stx,
        });
        spent.push(srx);
        ingress.push((itx, gate));
        consumers.push(erx);
    }
    Wiring {
        lanes,
        dispatcher: Dispatcher::new(packets, ingress, knobs, true),
        consumers,
        spent,
    }
}

/// The worker body both regimes run: admit, run the graph to idle (the
/// sink's drain IS the step), ship what it transmitted, repeat until the
/// ingress ring hangs up.
///
/// Admission is arena-aware: each cycle injects popped batches straight
/// into the ingress while its arena has free slots — never more, so
/// `FromDevice` cannot drop to `NoRxDescriptor` — and parks the overflow
/// (credits already debited, so the credit window bounds it) in a local
/// buffer that the next cycle admits first; the admitted packets' credits
/// are released only after the graph has finished them.
fn worker(replica: Replica, lane: Lane, knobs: &Knobs) -> WorkerSummary {
    let Replica {
        mut router,
        ingress,
        egress_ids,
    } = replica;
    let Lane {
        mut rx,
        mut sink,
        credits: gate,
        trace_ring_recv,
        mut spent,
    } = lane;
    let burst = knobs.burst_batches();
    let mut buf: Vec<PacketBatch> = Vec::with_capacity(burst);
    let mut waiting = PacketBatch::default();
    loop {
        buf.clear();
        let popped = rx.pop_burst(burst, &mut buf) > 0;
        let room = ingress_room(&router, ingress);
        let mut admit = room.min(waiting.len());
        if admit > 0 {
            let rest = waiting.split_off(admit);
            let head = std::mem::replace(&mut waiting, rest);
            inject_batch(&mut router, ingress, head, &mut spent);
        }
        for mut batch in buf.drain(..) {
            if trace_ring_recv {
                router.trace_hop(TraceKind::RingRecv, batch.as_slice());
            }
            // Nothing overtakes the parked: while any are, no room is left.
            let fits = (room - admit).min(batch.len());
            waiting.append(&mut batch.split_off(fits));
            admit += fits;
            inject_batch(&mut router, ingress, batch, &mut spent);
        }
        if admit > 0 {
            // The gate's stall count is the filler's state; mirror the
            // running total so interval buckets carry the deltas.
            router.note_credit_stalls(gate.stalls());
            router.run_until_idle(u64::MAX);
            ship(&mut sink, &mut router, &egress_ids, knobs.batch_size);
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
    // The sink drops here, hanging up on the merger / next stage.
}

/// Pipeline topology: one replica per stage graph, in chain order.
fn pipeline_topology(graphs: &[&Graph], knobs: &Knobs) -> Result<Vec<Replica>, GraphError> {
    let n = graphs.len();
    let mut replicas = Vec::with_capacity(n);
    for (i, stage) in graphs.iter().enumerate() {
        let mut replica = make_replica(stage, knobs, core_id(i))?;
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

/// Pipeline wiring: gated ring `i` feeds stage `i`. The dispatcher fills
/// ring 0, stage `i` fills ring `i + 1`, and the last stage ships to the
/// egress ring.
fn pipeline_wiring(n: usize, packets: Vec<Packet>, knobs: &Knobs) -> Wiring {
    let mut feeds = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx, gate) = gated_ring(knobs);
        feeds.push((tx, gate.clone()));
        rxs.push((rx, gate));
    }
    let mut feeds = feeds.into_iter();
    let stage0 = feeds.next().expect("at least one stage");
    let (etx, erx) = spsc::ring::<(usize, PacketBatch)>(knobs.ring_depth);
    let sinks = feeds
        .map(|(tx, gate)| Sink::Next(tx, gate))
        .chain([Sink::Merger(etx)]);
    let mut spent = Vec::with_capacity(n);
    let mut lanes = Vec::with_capacity(n);
    for (i, ((rx, credits), sink)) in rxs.into_iter().zip(sinks).enumerate() {
        let (stx, srx) = spsc::ring::<PacketBatch>(knobs.ring_depth);
        spent.push(srx);
        lanes.push(Lane {
            rx,
            sink,
            credits,
            // Stage 0 reads the feeder's (untraced) input; later rings
            // are real core hops.
            trace_ring_recv: i > 0,
            spent: stx,
        });
    }
    Wiring {
        lanes,
        dispatcher: Dispatcher::new(packets, vec![stage0], knobs, false),
        consumers: vec![erx],
        spent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::mt::shard_by_flow;
    use rb_packet::builder::PacketSpec;

    /// A credit window, in batches, that no test input fills: only the
    /// ring binds.
    const WIDE: usize = 1 << 20;

    /// `n` distinct one-packet UDP flows, so a sequence identifies its
    /// packets and the Toeplitz hash spreads them over the lanes.
    fn flows(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketSpec::udp()
                    .src(&format!("10.{}.{}.7:{}", i >> 8, i & 0xff, 1024 + i))
                    .unwrap()
                    .build()
            })
            .collect()
    }

    fn frames<'a>(pkts: impl IntoIterator<Item = &'a Packet>) -> Vec<Vec<u8>> {
        pkts.into_iter().map(|p| p.data().to_vec()).collect()
    }

    /// A dispatcher over `lanes` rings of `ring_depth` batches, each gated
    /// by a `window`-batch credit window, with the consuming ends and
    /// gates a test plays the workers with.
    struct Rig {
        dispatcher: Dispatcher,
        rxs: Vec<Consumer<PacketBatch>>,
        gates: Vec<Arc<CreditGate>>,
        tracer: Tracer,
        got: Vec<Vec<PacketBatch>>,
    }

    impl Rig {
        fn new(
            packets: Vec<Packet>,
            lanes: usize,
            batch_size: usize,
            ring_depth: usize,
            window: usize,
        ) -> Rig {
            let knobs = Knobs {
                batch_size,
                ring_depth,
                ..Knobs::default()
            };
            let mut ingress = Vec::new();
            let mut rxs = Vec::new();
            let mut gates = Vec::new();
            for _ in 0..lanes {
                let (tx, rx) = spsc::ring::<PacketBatch>(ring_depth);
                let gate = Arc::new(CreditGate::new((window * batch_size) as u64));
                ingress.push((tx, gate.clone()));
                rxs.push(rx);
                gates.push(gate);
            }
            Rig {
                dispatcher: Dispatcher::new(packets, ingress, &knobs, true),
                rxs,
                gates,
                tracer: Tracer::off(),
                got: (0..lanes).map(|_| Vec::new()).collect(),
            }
        }

        fn pump(&mut self) -> Pump {
            self.dispatcher.pump(&mut self.tracer)
        }

        /// Plays lane `i`'s worker for one batch: pop it, finish it,
        /// release its credits.
        fn consume(&mut self, i: usize) -> bool {
            let Some(batch) = self.rxs[i].pop() else {
                return false;
            };
            self.gates[i].release(batch.len() as u64);
            self.got[i].push(batch);
            true
        }

        /// Packets the dispatcher itself is holding (open and staged).
        fn held(&self, i: usize) -> usize {
            let lane = &self.dispatcher.lanes[i];
            lane.open.len() + lane.staged.iter().map(PacketBatch::len).sum::<usize>()
        }

        /// Pumps and consumes (one batch a lane a turn, so rings and
        /// windows do fill up) until the input is through.
        fn run_to_end(&mut self) {
            let lanes = self.rxs.len();
            for _ in 0..1_000_000 {
                let state = self.pump();
                let mut moved = false;
                for i in 0..lanes {
                    moved |= self.consume(i);
                }
                if state == Pump::Done && !moved {
                    return;
                }
            }
            panic!("dispatcher never finished");
        }

        /// What lane `i` received must be `shard_by_flow`'s shard for it,
        /// in order, in full batches but for the last.
        fn assert_lane_is_shard(&self, i: usize, shard: &[Packet], batch_size: usize) {
            let got = &self.got[i];
            assert_eq!(
                frames(got.iter().flat_map(PacketBatch::as_slice)),
                frames(shard),
                "lane {i} sequence"
            );
            for batch in &got[..got.len().saturating_sub(1)] {
                assert_eq!(batch.len(), batch_size, "lane {i}: partial batch mid-run");
            }
            assert!(got.iter().all(|b| !b.is_empty()), "lane {i}: empty batch");
        }
    }

    #[test]
    fn lanes_receive_their_shards_in_order_through_tiny_rings() {
        let input = flows(500);
        for lanes in [1usize, 2, 3, 4, 7] {
            let shards = shard_by_flow(input.clone(), lanes);
            for batch_size in [1usize, 8, 32] {
                for ring_depth in [1usize, 2] {
                    // A one-batch window binds before the ring does; a
                    // four-batch one lets the ring fill, so acquired
                    // credits get refunded; a wide one leaves the ring
                    // the only bound.
                    for window in [1usize, 4, WIDE] {
                        let mut rig =
                            Rig::new(input.clone(), lanes, batch_size, ring_depth, window);
                        rig.run_to_end();
                        for (i, shard) in shards.iter().enumerate() {
                            rig.assert_lane_is_shard(i, shard, batch_size);
                            assert_eq!(rig.held(i), 0);
                            let gate = &rig.gates[i];
                            let window = gate.window();
                            assert_eq!(
                                gate.available.load(Ordering::Acquire),
                                window,
                                "lanes {lanes} kp {batch_size} ring {ring_depth}: \
                                 every credit acquired was released or refunded"
                            );
                            assert!(gate.peak_outstanding() <= window);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_full_ring_refunds_the_credits_it_could_not_use() {
        // One lane, one-slot ring, a window of four batches: the second
        // batch acquires its credits, finds the ring full and must give
        // them back, or the window would leak away.
        let mut rig = Rig::new(flows(64), 1, 8, 1, 4);
        while rig.pump() == Pump::Progress {}
        let gate = rig.gates[0].clone();
        assert_eq!(gate.available.load(Ordering::Acquire), 32 - 8);
        assert_eq!(gate.peak_outstanding(), 16, "second batch was acquired");
        assert_eq!(rig.dispatcher.lanes[0].staged.len(), 1);
    }

    #[test]
    fn dispatcher_classifies_no_further_than_its_staging_bound() {
        let total = 1000;
        let (lanes, batch_size) = (2usize, 8usize);
        let mut rig = Rig::new(flows(total), lanes, batch_size, 1, WIDE);
        assert_eq!(rig.dispatcher.staging, 1);
        // Nobody consumes: the first pumps fill the one-slot rings and
        // the staging slots, and then the input is left where it is.
        while rig.pump() == Pump::Progress {}
        assert_eq!(rig.pump(), Pump::Blocked);
        let unread = rig.dispatcher.source.len();
        let mut held = 0;
        for i in 0..lanes {
            let lane = &rig.dispatcher.lanes[i];
            assert!(lane.staged.len() <= rig.dispatcher.staging);
            assert!(lane.open.len() < batch_size);
            held += rig.held(i);
        }
        // At most one batch staged and one open a lane, one in its ring.
        assert!(held <= lanes * (2 * batch_size - 1), "held {held}");
        let in_rings: usize = rig.dispatcher.lanes.iter().map(|l| l.tx.len()).sum();
        assert!(in_rings <= lanes);
        assert_eq!(unread + held + in_rings * batch_size, total);
        for _ in 0..10 {
            assert_eq!(rig.pump(), Pump::Blocked);
        }
        assert_eq!(rig.dispatcher.source.len(), unread, "blocked pumps read on");
        // The same input finishes once somebody consumes.
        rig.run_to_end();
        let shards = shard_by_flow(flows(total), lanes);
        for (i, shard) in shards.iter().enumerate() {
            rig.assert_lane_is_shard(i, shard, batch_size);
        }
    }

    #[test]
    fn a_stuck_lane_stalls_the_source_and_loses_nothing() {
        let total = 600;
        let (lanes, batch_size) = (3usize, 4usize);
        let shards = shard_by_flow(flows(total), lanes);
        let mut rig = Rig::new(flows(total), lanes, batch_size, 2, 2);
        // Lane 0's worker is stuck; the others keep consuming.
        for _ in 0..10_000 {
            rig.pump();
            rig.consume(1);
            rig.consume(2);
        }
        assert!(rig.got[0].is_empty());
        assert_eq!(
            rig.pump(),
            Pump::Blocked,
            "lane 0 at its bound stops everyone"
        );
        let unread = rig.dispatcher.source.len();
        assert!(unread > 0, "stall, not buffer: the source keeps the rest");
        // What the live lanes got so far is a prefix of their shards.
        for i in [1usize, 2] {
            let got = frames(rig.got[i].iter().flat_map(PacketBatch::as_slice));
            assert!(!got.is_empty());
            assert_eq!(got, frames(&shards[i][..got.len()]), "lane {i} prefix");
        }
        // Lane 0 wakes up: everything arrives, in order, on every lane.
        rig.run_to_end();
        for (i, shard) in shards.iter().enumerate() {
            rig.assert_lane_is_shard(i, shard, batch_size);
        }
    }

    #[test]
    fn one_lane_takes_everything_unparsed() {
        // Frames too short for an IPv4 header still go to lane 0 of one
        // (no parse), and of many (the parse fails).
        let junk: Vec<Packet> = (0..40u8).map(|i| Packet::from_slice(&[i; 9])).collect();
        for lanes in [1usize, 3] {
            let mut rig = Rig::new(junk.clone(), lanes, 16, 4, WIDE);
            rig.run_to_end();
            rig.assert_lane_is_shard(0, &junk, 16);
            assert!(rig.got[1..].iter().all(Vec::is_empty));
        }
    }

    /// Twelve frames as one ring batch, the producer hung up behind it.
    fn one_batch_ring(pkts: Vec<Packet>) -> Consumer<PacketBatch> {
        let (mut tx, rx) = spsc::ring::<PacketBatch>(2);
        assert!(tx.push(PacketBatch::from_vec(pkts)).is_ok(), "room");
        rx
    }

    /// Runs the one [`worker`] over `pkts`, read off a ring under `gate`,
    /// on a forwarder whose ingress arena has four slots. The worker ships
    /// to the egress merger or, given the next stage's gate, as an
    /// intermediate pipeline stage; this thread plays the receiver
    /// (receiving a frame is what frees its slot; a next stage also
    /// releases its credits). Returns the worker's ledger and the frames
    /// that came out.
    fn run_lane(
        pkts: Vec<Packet>,
        gate: Arc<CreditGate>,
        next: Option<Arc<CreditGate>>,
    ) -> (Ledger, usize) {
        use rb_packet::PacketPool;
        let mut g = Graph::new();
        let mut dev = FromDevice::new(0, 32);
        dev.set_pool(PacketPool::new(4, 2048));
        let rx = g.add("rx", Box::new(dev)).unwrap();
        let q = g
            .add("q", Box::new(crate::elements::Queue::new(64)))
            .unwrap();
        let tx = g.add("tx", Box::new(ToDevice::new(32, true))).unwrap();
        g.connect(rx, 0, q, 0).unwrap();
        g.connect(q, 0, tx, 0).unwrap();
        let knobs = Knobs::default();
        let replica = make_replica(&g, &knobs, 0).unwrap();
        let (spent, _home) = spsc::ring::<PacketBatch>(4);
        let lane = |sink| Lane {
            rx: one_batch_ring(pkts),
            sink,
            credits: gate,
            trace_ring_recv: true,
            spent,
        };
        let mut frames = 0;
        std::thread::scope(|scope| {
            let handle = match next {
                Some(next) => {
                    let (ntx, mut nrx) = spsc::ring::<PacketBatch>(8);
                    let lane = lane(Sink::Next(ntx, next.clone()));
                    let handle = scope.spawn(move || worker(replica, lane, &knobs));
                    loop {
                        match nrx.pop() {
                            Some(batch) => {
                                frames += batch.len();
                                next.release(batch.len() as u64);
                            }
                            None if nrx.is_finished() => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    handle
                }
                None => {
                    let (etx, mut erx) = spsc::ring::<(usize, PacketBatch)>(8);
                    let lane = lane(Sink::Merger(etx));
                    let handle = scope.spawn(move || worker(replica, lane, &knobs));
                    loop {
                        match erx.pop() {
                            Some((idx, batch)) => {
                                assert_eq!(idx, 0);
                                frames += batch.len();
                            }
                            None if erx.is_finished() => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    handle
                }
            };
            (handle.join().expect("worker").ledger, frames)
        })
    }

    #[test]
    fn one_worker_body_parks_under_a_gate_what_it_sheds_without_one() {
        // Pull: a gate, its twelve credits debited as the dispatcher
        // would: the eight that do not fit wait their turn, none is shed,
        // and every credit comes back.
        let gate = Arc::new(CreditGate::new(12));
        assert!(gate.try_acquire(12));
        let (led, frames) = run_lane(flows(12), gate.clone(), None);
        assert_eq!((led.sourced, led.forwarded, frames), (12, 12, 12));
        assert_eq!(led.dropped_total(), 0, "{led:?}");
        assert_eq!(gate.available.load(Ordering::Acquire), 12);
        // A pipeline stage over the same arena: it parks the same way and
        // takes the next stage's credits, a four-frame window, before each
        // push; every credit on both gates comes back.
        let gate = Arc::new(CreditGate::new(12));
        assert!(gate.try_acquire(12));
        let next = Arc::new(CreditGate::new(4));
        let (led, frames) = run_lane(flows(12), gate.clone(), Some(next.clone()));
        assert_eq!((led.sourced, led.forwarded, frames), (12, 12, 12));
        assert_eq!(led.dropped_total(), 0, "{led:?}");
        assert_eq!(gate.available.load(Ordering::Acquire), 12);
        assert_eq!(next.available.load(Ordering::Acquire), 4);
        assert!(next.peak_outstanding() <= 4);
    }

    #[test]
    fn pooled_ingress_hands_its_spent_batches_back() {
        use rb_packet::PacketPool;
        let mut g = Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, 32))).unwrap();
        let sink = crate::elements::sink::Discard::new();
        let d = g.add("sink", Box::new(sink)).unwrap();
        g.connect(rx, 0, d, 0).unwrap();
        for pooled in [true, false] {
            let mut graph = g.replicate().unwrap();
            if pooled {
                graph
                    .element_mut(rx)
                    .as_any_mut()
                    .downcast_mut::<FromDevice>()
                    .unwrap()
                    .set_pool(PacketPool::new(64, 2048));
            }
            let mut router = Router::new(graph).unwrap();
            let (mut spent, mut home) = spsc::ring::<PacketBatch>(4);
            let sent = flows(8);
            let batch = PacketBatch::from_vec(sent.clone());
            inject_batch(&mut router, rx, batch, &mut spent);
            let back = home.pop().expect("the batch comes home");
            if pooled {
                // The originals, untouched: the arena holds copies.
                assert_eq!(frames(back.as_slice()), frames(&sent));
                assert!(back.as_slice().iter().all(|p| !p.is_pooled()));
            } else {
                assert!(back.is_empty(), "a heap ingress takes the packets");
            }
            let dev = router.element_as::<FromDevice>("rx").unwrap();
            assert_eq!(dev.injected(), 8);
            assert_eq!(dev.pending(), 8);
        }
    }
}
