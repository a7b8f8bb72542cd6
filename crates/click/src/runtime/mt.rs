//! Multi-threaded execution: real-thread analogues of §4.2's experiments.
//!
//! The paper compares ways of spreading packet processing over cores:
//!
//! * **parallel** — each packet handled start-to-finish by one core, each
//!   core owning its own queues ("one core per packet", "one core per
//!   queue");
//! * **pipeline** — cores chained, each packet touched by every core;
//! * **shared queue** — multiple cores contending on one queue with a
//!   lock.
//!
//! Two generations of helpers live here. The `StageFn` runners
//! ([`run_parallel`], [`run_pipeline`], [`run_shared_queue`],
//! [`run_spsc_rings`]) apply an opaque per-packet closure under each
//! regime — the pure-overhead microbenchmark; they share one
//! spawn/join scaffold ([`scoped_worker_counts`]). The *graph* runners
//! ([`run_graph_parallel`], [`run_graph_pipeline`], [`run_graph_spsc`],
//! [`run_graph_pull`], and [`run_graph_regime`] for callers that thread
//! the [`Regime`] knob through) execute real element graphs, one replica
//! per worker core ([`Graph::replicate`]: fresh mutable state,
//! `Arc`-shared read-only structures), and are thin instantiations of
//! [`crate::runtime::regime`]: a [`Regime`] picks the policy, its
//! `run_scheduled` harness is the spawn/pump/merge/join mechanism.
//! Ingress is split RSS-style by `lane_of` — up front by
//! [`shard_by_flow`] where a regime preloads, packet by packet in the
//! harness's dispatcher where it streams — and whole
//! [`PacketBatch`](crate::element::PacketBatch)es cross the lock-free
//! [`crate::runtime::spsc`] rings, so the `kp` batching survives the
//! thread hop.

use crate::graph::{Graph, GraphError};
use crate::runtime::driver::{Router, RunStats};
use crate::runtime::regime::{
    run_scheduled, PipelineScheduler, PullCreditScheduler, PushScheduler, Regime, SpscScheduler,
};
use crate::runtime::spsc;
use crossbeam::channel;
use parking_lot::Mutex;
use rb_packet::Packet;
use rb_telemetry::{
    cycles, EventLog, Ledger, MetricsServer, MetricsSnapshot, SloSpec, TelemetryLevel, TimeSeries,
    TraceLog,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a multi-threaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct MtReport {
    /// Packets that reached the end of the processing chain.
    pub processed: u64,
    /// Wall-clock time of the run, as its caller's clock sees it: from
    /// entry — graph replication, ring wiring and (push regime) sharding
    /// included — to the assembled outcome.
    pub elapsed: Duration,
    /// Packets handled by each worker (pipeline: each stage), so shard
    /// imbalance is visible, not just the aggregate rate.
    pub per_worker: Vec<u64>,
    /// Packets moved through element push handlers, summed over all
    /// worker routers (graph runners only; zero for `StageFn` runners).
    pub pushes: u64,
    /// Batch dispatches summed over all worker routers; `pushes /
    /// batch_calls` is the achieved mean batch size.
    pub batch_calls: u64,
    /// Arena slot allocations summed over all worker pools (graph
    /// runners only; zero when no worker uses a packet pool).
    pub pool_allocs: u64,
    /// Arena slots recycled, summed over all worker pools.
    pub pool_recycles: u64,
    /// Packets dropped to pool exhaustion, summed over all workers.
    pub pool_exhausted: u64,
    /// Buffers deflected to heap storage, summed over all workers.
    pub pool_fallbacks: u64,
    /// Arena slots returned through bulk free-chain splices (subset of
    /// `pool_recycles`).
    pub pool_bulk_recycles: u64,
    /// NIC doorbells rung, summed over every worker's descriptor rings
    /// (one per `kn` reclaimed descriptors).
    pub nic_doorbells: u64,
    /// Descriptor writeback batches, summed over all workers.
    pub nic_reclaim_batches: u64,
    /// Ring-full descriptor stalls, summed over all workers.
    pub nic_desc_stalls: u64,
    /// Frame bytes DMA'd across every worker's descriptor rings.
    pub nic_dma_bytes: u64,
    /// Dispatcher push attempts that found a lane's credit window short
    /// (pull regime only; zero elsewhere) — attempts, not episodes: it
    /// grows for as long as a stall lasts, which keeps the journal's
    /// `credit_stall` episode open, and a dispatcher a window ahead of
    /// its worker collects some without any overload (DESIGN.md §10).
    /// Stalled packets are neither dropped nor in flight, so the ledger
    /// balances identically under pull.
    pub credit_stalls: u64,
    /// High-water mark of outstanding (acquired, unreleased) credits
    /// across all pull lanes — the bounded-queueing evidence: never
    /// exceeds the credit window.
    pub credit_peak_outstanding: u64,
    /// Merged per-element telemetry from every worker shard (empty when
    /// telemetry was off).
    pub telemetry: MetricsSnapshot,
    /// Merged packet-conservation ledger over every worker router:
    /// element contributions plus driver wiring drops, summed across
    /// replicas (graph runners only; zero for `StageFn` runners).
    pub ledger: Ledger,
    /// Merged live interval series across every worker core, harvested
    /// while workers ran (`None` when [`GraphRunOpts::interval_ms`] was
    /// zero). Summed interval counters equal `ledger` exactly.
    pub timeseries: Option<TimeSeries>,
    /// Merged structured event journal across every worker core — stall
    /// episode edges, FIB publishes, dispatcher fuses — harvested while
    /// workers ran (empty when the interval clock was off; the journal
    /// rides the clock).
    pub events: EventLog,
}

impl MtReport {
    /// Packets per second achieved over [`MtReport::elapsed`], i.e. what
    /// a caller timing the run itself would compute.
    pub fn pps(&self) -> f64 {
        self.processed as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Achieved mean dispatch batch size across all workers (0 when no
    /// batched dispatch ran — e.g. the `StageFn` runners).
    pub fn achieved_batch(&self) -> f64 {
        if self.batch_calls == 0 {
            0.0
        } else {
            self.pushes as f64 / self.batch_calls as f64
        }
    }

    /// Shard imbalance: busiest worker's share divided by the ideal even
    /// share (1.0 = perfectly balanced). Returns 1.0 for empty runs.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_worker.iter().sum();
        if total == 0 || self.per_worker.is_empty() {
            return 1.0;
        }
        let max = *self.per_worker.iter().max().expect("non-empty") as f64;
        max * self.per_worker.len() as f64 / total as f64
    }

    fn from_counts(per_worker: Vec<u64>, processed: u64, elapsed: Duration) -> MtReport {
        MtReport {
            processed,
            elapsed,
            per_worker,
            pushes: 0,
            batch_calls: 0,
            pool_allocs: 0,
            pool_recycles: 0,
            pool_exhausted: 0,
            pool_fallbacks: 0,
            pool_bulk_recycles: 0,
            nic_doorbells: 0,
            nic_reclaim_batches: 0,
            nic_desc_stalls: 0,
            nic_dma_bytes: 0,
            credit_stalls: 0,
            credit_peak_outstanding: 0,
            telemetry: MetricsSnapshot::empty(),
            ledger: Ledger::default(),
            timeseries: None,
            events: EventLog::default(),
        }
    }

    /// Serializes the report — throughput, batching, pool and credit
    /// counters and (when measured) the merged per-element telemetry —
    /// as one JSON object. `elapsed_secs` and `pps` are the caller's-clock
    /// figures of [`MtReport::elapsed`].
    pub fn to_json(&self) -> String {
        use rb_telemetry::json::num;
        let per_worker = self
            .per_worker
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"processed\": {}, \"elapsed_secs\": {}, \"pps\": {}, \
             \"per_worker\": [{per_worker}], \"imbalance\": {}, \
             \"pushes\": {}, \"batch_calls\": {}, \"achieved_batch\": {}, \
             \"pool_allocs\": {}, \"pool_recycles\": {}, \"pool_bulk_recycles\": {}, \
             \"pool_exhausted\": {}, \"pool_fallbacks\": {}, \
             \"nic_doorbells\": {}, \"nic_reclaim_batches\": {}, \"nic_desc_stalls\": {}, \
             \"nic_dma_bytes\": {}, \
             \"credit_stalls\": {}, \"credit_peak_outstanding\": {}, \
             \"telemetry\": {}, \"ledger\": {}, \"timeseries\": {}, \
             \"events\": {}}}",
            self.processed,
            num(self.elapsed.as_secs_f64()),
            num(self.pps()),
            num(self.imbalance()),
            self.pushes,
            self.batch_calls,
            num(self.achieved_batch()),
            self.pool_allocs,
            self.pool_recycles,
            self.pool_bulk_recycles,
            self.pool_exhausted,
            self.pool_fallbacks,
            self.nic_doorbells,
            self.nic_reclaim_batches,
            self.nic_desc_stalls,
            self.nic_dma_bytes,
            self.credit_stalls,
            self.credit_peak_outstanding,
            self.telemetry.to_json(),
            self.ledger.to_json(),
            self.timeseries.as_ref().map_or_else(
                || "null".to_string(),
                |ts| ts.to_json(cycles::ticks_per_sec())
            ),
            self.events.len(),
        )
    }
}

/// A per-packet processing function; `None` drops the packet.
pub type StageFn = Box<dyn FnMut(Packet) -> Option<Packet> + Send>;

/// One spawned worker's whole job, boxed so heterogeneous regimes share
/// one scaffold.
type WorkerBody<'env> = Box<dyn FnOnce() -> u64 + Send + 'env>;

/// The one spawn/join scaffold behind every `StageFn` runner: spawns
/// each body on its own scoped thread, runs `dispatch` on the calling
/// thread (the feeder role; pass `|| {}` for preloaded regimes), and
/// joins into per-worker packet counts in spawn order.
fn scoped_worker_counts<'env>(bodies: Vec<WorkerBody<'env>>, dispatch: impl FnOnce()) -> Vec<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = bodies.into_iter().map(|body| scope.spawn(body)).collect();
        dispatch();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Runs `workers` threads, each applying its own stage instance to its own
/// pre-sharded packet list — the "parallel" regime (scenario (b)/(d) of
/// Fig. 6).
///
/// `make_stage` is called once per worker, mirroring how each core gets
/// its own element state while sharing read-only structures via `Arc`.
pub fn run_parallel(
    workers: usize,
    shards: Vec<Vec<Packet>>,
    make_stage: impl Fn() -> StageFn,
) -> MtReport {
    assert!(workers > 0, "need at least one worker");
    assert_eq!(shards.len(), workers, "one shard per worker");
    let start = Instant::now();
    let bodies: Vec<WorkerBody> = shards
        .into_iter()
        .map(|shard| {
            let mut stage = make_stage();
            Box::new(move || {
                let mut done = 0u64;
                for pkt in shard {
                    if stage(pkt).is_some() {
                        done += 1;
                    }
                }
                done
            }) as WorkerBody
        })
        .collect();
    let per_worker = scoped_worker_counts(bodies, || {});
    let processed = per_worker.iter().sum();
    MtReport::from_counts(per_worker, processed, start.elapsed())
}

/// Runs a chain of stages on separate threads connected by bounded SPSC
/// channels — the "pipeline" regime (scenario (a) of Fig. 6). Every packet
/// crosses a core boundary between consecutive stages.
pub fn run_pipeline(stages: Vec<StageFn>, packets: Vec<Packet>, queue_depth: usize) -> MtReport {
    assert!(!stages.is_empty(), "need at least one stage");
    assert!(queue_depth > 0, "queues need capacity");
    let n = stages.len();
    let start = Instant::now();
    // Channel i connects stage i-1 to stage i; channel 0 is the input,
    // channel n feeds the counter.
    let mut senders = Vec::with_capacity(n + 1);
    let mut receivers = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let (tx, rx) = channel::bounded::<Packet>(queue_depth);
        senders.push(tx);
        receivers.push(rx);
    }
    let final_rx = receivers.pop().expect("n+1 receivers");
    let input_tx = senders.remove(0);
    let mut bodies: Vec<WorkerBody> = stages
        .into_iter()
        .zip(receivers.into_iter().zip(senders))
        .map(|(mut stage, (rx, tx))| {
            Box::new(move || {
                let mut handled = 0u64;
                for pkt in rx {
                    handled += 1;
                    if let Some(out) = stage(pkt) {
                        if tx.send(out).is_err() {
                            break;
                        }
                    }
                }
                handled
            }) as WorkerBody
        })
        .collect();
    // The counter rides as the last body; its count is `processed`.
    bodies.push(Box::new(move || {
        let mut done = 0u64;
        for _ in final_rx {
            done += 1;
        }
        done
    }));
    let mut counts = scoped_worker_counts(bodies, move || {
        for pkt in packets {
            if input_tx.send(pkt).is_err() {
                break;
            }
        }
        // `input_tx` drops here: stage 0 drains and hangs up down the
        // chain.
    });
    let processed = counts.pop().expect("counter body");
    MtReport::from_counts(counts, processed, start.elapsed())
}

/// Runs `workers` threads all draining one mutex-protected shared queue —
/// the regime the "one core per queue" rule exists to avoid (scenario (e)
/// of Fig. 6 without multi-queue NICs).
pub fn run_shared_queue(
    workers: usize,
    packets: Vec<Packet>,
    make_stage: impl Fn() -> StageFn,
) -> MtReport {
    assert!(workers > 0, "need at least one worker");
    let queue = Arc::new(Mutex::new(std::collections::VecDeque::from(packets)));
    let start = Instant::now();
    let bodies: Vec<WorkerBody> = (0..workers)
        .map(|_| {
            let mut stage = make_stage();
            let queue = Arc::clone(&queue);
            Box::new(move || {
                let mut done = 0u64;
                loop {
                    // The lock is the point: every packet pays for it.
                    let pkt = queue.lock().pop_front();
                    match pkt {
                        Some(pkt) => {
                            if stage(pkt).is_some() {
                                done += 1;
                            }
                        }
                        None => break,
                    }
                }
                done
            }) as WorkerBody
        })
        .collect();
    let per_worker = scoped_worker_counts(bodies, || {});
    let processed = per_worker.iter().sum();
    MtReport::from_counts(per_worker, processed, start.elapsed())
}

/// Runs `workers` threads fed from lock-free SPSC rings — the "one core
/// per queue" regime the paper's rule prescribes: a dispatcher shards
/// packets by flow hash to one bounded [`crate::runtime::spsc`] ring per
/// worker, and each worker drains its own ring in bursts of `burst`
/// packets. No locks anywhere on the packet path; the two atomics per
/// ring are amortized over each burst.
pub fn run_spsc_rings(
    workers: usize,
    packets: Vec<Packet>,
    make_stage: impl Fn() -> StageFn,
    ring_depth: usize,
    burst: usize,
) -> MtReport {
    assert!(workers > 0, "need at least one worker");
    assert!(burst > 0, "burst must be positive");
    let shards = shard_by_flow(packets, workers);
    let start = Instant::now();
    let mut producers = Vec::with_capacity(workers);
    let mut bodies: Vec<WorkerBody> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, mut rx) = spsc::ring::<Packet>(ring_depth);
        producers.push(tx);
        let mut stage = make_stage();
        bodies.push(Box::new(move || {
            let mut done = 0u64;
            let mut buf: Vec<Packet> = Vec::with_capacity(burst);
            loop {
                buf.clear();
                if rx.pop_burst(burst, &mut buf) > 0 {
                    for pkt in buf.drain(..) {
                        if stage(pkt).is_some() {
                            done += 1;
                        }
                    }
                } else if rx.is_finished() {
                    break;
                } else {
                    // Yield rather than spin: with fewer cores than
                    // threads a pure spin starves the producer.
                    std::thread::yield_now();
                }
            }
            done
        }));
    }
    // Dispatcher: feed each worker's ring its pre-sharded flows in
    // bursts, spinning on back-pressure (a full ring).
    let per_worker = scoped_worker_counts(bodies, move || {
        let mut bursts = shards;
        loop {
            let mut all_empty = true;
            for (tx, shard) in producers.iter_mut().zip(bursts.iter_mut()) {
                if !shard.is_empty() {
                    all_empty = false;
                    tx.push_burst(shard);
                }
            }
            if all_empty {
                break;
            }
            std::thread::yield_now();
        }
        // `producers` drop here: hang up, workers drain and exit.
    });
    let processed = per_worker.iter().sum();
    MtReport::from_counts(per_worker, processed, start.elapsed())
}

/// The lane (of `n`) a packet belongs to: the table-driven Toeplitz hash
/// of its 5-tuple modulo `n`, as an RSS NIC's indirection table picks a
/// receive queue, so a flow always lands on one worker. Frames without an
/// IPv4 header go to lane 0; with one lane nothing is parsed or hashed.
#[inline]
pub(crate) fn lane_of(pkt: &Packet, n: usize) -> usize {
    if n == 1 {
        return 0;
    }
    match rb_packet::flow::FiveTuple::of_ethernet_frame(pkt.data()) {
        Ok(flow) => rb_packet::rss::ToeplitzHasher::default().queue_for(&flow, n),
        Err(_) => 0,
    }
}

/// Shards `packets` across `n` lists by flow hash, so each worker sees
/// whole flows — what an RSS-capable multi-queue NIC does in hardware.
/// The up-front form of the split (push preload, `StageFn` runners); the
/// streaming dispatcher applies `lane_of` beside the running workers.
pub fn shard_by_flow(packets: Vec<Packet>, n: usize) -> Vec<Vec<Packet>> {
    assert!(n > 0, "need at least one shard");
    if n == 1 {
        return vec![packets];
    }
    let mut shards: Vec<Vec<Packet>> = (0..n).map(|_| Vec::new()).collect();
    for pkt in packets {
        shards[lane_of(&pkt, n)].push(pkt);
    }
    shards
}

// ---------------------------------------------------------------------------
// Graph execution: per-core replicas of real element graphs.
// ---------------------------------------------------------------------------

/// Knobs of the multi-threaded graph runners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphRunOpts {
    /// Dispatch batch size `kp` of every worker [`Router`], and the size
    /// of the [`PacketBatch`](crate::element::PacketBatch)es carried
    /// across core boundaries.
    pub batch_size: usize,
    /// Packets moved per ring interaction (rounded up to whole batches).
    pub poll_burst: usize,
    /// Capacity of each inter-core SPSC ring, in batches.
    pub ring_depth: usize,
    /// Per-worker scheduling-quanta budget (safety valve; the default is
    /// effectively unbounded).
    pub max_quanta: u64,
    /// Telemetry level of every worker [`Router`] (each worker gets its
    /// own shard; shards merge into `MtReport::telemetry` at join).
    pub telemetry: TelemetryLevel,
    /// Path-trace sampling interval: every `trace_sample`-th sourced
    /// packet is stamped and followed across element dispatches and ring
    /// hops (0 = off). Each worker's tracer records as its worker index;
    /// the dispatcher/merger thread records as core `workers`.
    pub trace_sample: u64,
    /// Credit window of the pull regime, in packets per lane (0 =
    /// auto-size to `ring_depth * batch_size`). The dispatcher may have
    /// at most this many packets outstanding toward one worker; an
    /// exhausted window stalls the source ([`MtReport::credit_stalls`])
    /// instead of dropping. Ignored by the push/spsc/pipeline regimes.
    pub credit_window: usize,
    /// NIC batching factor `kn` applied to every replica's device
    /// elements (descriptor writeback + doorbell once per `kn`
    /// descriptors). 0 = leave replicas with the geometry they
    /// replicated from the prototype graph.
    pub nic_batch: usize,
    /// Live interval-clock bucket width in milliseconds (0 = off). When
    /// set, every worker rolls per-quantum deltas into its own wait-free
    /// interval ring and the dispatcher thread harvests the rings live
    /// into [`MtReport::timeseries`].
    pub interval_ms: u64,
    /// Service-level objective graded over the live interval series by
    /// an attached [`MetricsServer`] (`/healthz` burn state) — `None`
    /// leaves the endpoint always-ok. Ignored without a monitor.
    pub slo: Option<SloSpec>,
}

impl Default for GraphRunOpts {
    fn default() -> GraphRunOpts {
        GraphRunOpts {
            batch_size: Router::DEFAULT_BATCH_SIZE,
            poll_burst: 32,
            ring_depth: 1024,
            max_quanta: u64::MAX,
            telemetry: TelemetryLevel::Off,
            trace_sample: 0,
            credit_window: 0,
            nic_batch: 0,
            interval_ms: 0,
            slo: None,
        }
    }
}

impl GraphRunOpts {
    /// Whole batches per ring interaction.
    pub(crate) fn burst_batches(&self) -> usize {
        (self.poll_burst / self.batch_size).max(1)
    }

    /// The pull regime's effective per-lane credit window in packets:
    /// the configured value, or `ring_depth * batch_size` when unset —
    /// never below one whole batch, because the dispatcher grants whole
    /// batches and a smaller window could never be acquired (livelock).
    pub(crate) fn effective_credit_window(&self) -> u64 {
        let auto = self.ring_depth.saturating_mul(self.batch_size);
        let w = if self.credit_window > 0 {
            self.credit_window
        } else {
            auto
        };
        w.max(self.batch_size).max(1) as u64
    }
}

/// Outcome of a multi-threaded graph run.
#[derive(Debug)]
pub struct GraphRunOutcome {
    /// Aggregate and per-worker throughput accounting.
    pub report: MtReport,
    /// Transmitted frames per egress (`ToDevice`) element, indexed by the
    /// device's position in the graph's `ToDevice` insertion order (the
    /// builder's `tx0, tx1, …`). Populated only for devices built with
    /// frame retention; merged in worker order, so the per-egress
    /// multiset — not the interleaving — is deterministic for `workers >
    /// 1`, and the exact byte stream is deterministic for `workers == 1`.
    pub egress: Vec<Vec<Packet>>,
    /// Each worker router's driver statistics (pipeline: one per stage).
    pub worker_stats: Vec<RunStats>,
    /// Merged path-trace spans from every worker plus the dispatcher
    /// thread (empty when `trace_sample == 0`).
    pub trace: TraceLog,
}

/// Runs `workers` per-core replicas of `graph` in the **parallel** regime
/// (§4.2's "one core per packet"): ingress is RSS-sharded by flow, each
/// worker injects its whole shard into its replica's first `FromDevice`
/// and runs the batched [`Router`] to idle; retained egress frames are
/// merged back over SPSC rings carrying `PacketBatch`es.
///
/// With `workers == 1` the execution is byte-identical to injecting the
/// same packets into a single-threaded `Router` built from the same
/// graph (sharding to one shard preserves order and the replica starts
/// from identical state).
///
/// # Errors
///
/// [`GraphError::NotReplicable`] when an element lacks `replicate()`;
/// [`GraphError::MissingIngress`] when the graph has no `FromDevice`.
pub fn run_graph_parallel(
    graph: &Graph,
    workers: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
) -> Result<GraphRunOutcome, GraphError> {
    run_scheduled(&PushScheduler, &[graph], workers, packets, opts, None)
}

/// Runs `workers` per-core replicas of `graph` with **streaming SPSC
/// ingress** — the same sharded layout as [`run_graph_parallel`], but the
/// dispatcher feeds each worker's bounded ingress ring incrementally (in
/// `PacketBatch`es) instead of pre-loading whole shards, so back-pressure
/// and ring-size effects are part of the measurement.
///
/// # Errors
///
/// See [`run_graph_parallel`].
pub fn run_graph_spsc(
    graph: &Graph,
    workers: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
) -> Result<GraphRunOutcome, GraphError> {
    run_scheduled(&SpscScheduler, &[graph], workers, packets, opts, None)
}

/// Runs a chain of stage graphs on separate threads — the **pipeline**
/// regime on real graphs. Stage `i`'s transmitted frames are forwarded
/// as `PacketBatch`es over an SPSC ring into stage `i+1`'s `FromDevice`,
/// so every packet crosses a core boundary per stage (the layout Fig. 6
/// shows losing to parallel replicas). Intermediate stages have frame
/// retention forced on (their transmit log *is* the inter-stage link);
/// the last stage's retained frames (if any) are merged as egress.
///
/// `report.processed` counts the last stage's transmitted packets;
/// `report.per_worker[i]` is stage `i`'s count.
///
/// # Errors
///
/// See [`run_graph_parallel`]; every stage graph must replicate.
pub fn run_graph_pipeline(
    stages: &[Graph],
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
) -> Result<GraphRunOutcome, GraphError> {
    assert!(!stages.is_empty(), "need at least one stage");
    let refs: Vec<&Graph> = stages.iter().collect();
    run_scheduled(&PipelineScheduler, &refs, refs.len(), packets, opts, None)
}

/// Runs `workers` per-core replicas of `graph` in the **pull** regime:
/// the same sharded streaming layout as [`run_graph_spsc`], but
/// sink-driven with credit back-pressure. The dispatcher may have at
/// most [`GraphRunOpts::credit_window`] packets outstanding per lane;
/// each worker admits only what its ingress arena can hold, runs the
/// graph to completion, and releases credits when done. Under overload
/// the source **stalls** (counted in [`MtReport::credit_stalls`])
/// instead of dropping to pool exhaustion — bounded queueing traded for
/// latency, with zero-loss forwarding and an identically balanced
/// conservation ledger.
///
/// # Errors
///
/// See [`run_graph_parallel`].
pub fn run_graph_pull(
    graph: &Graph,
    workers: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
) -> Result<GraphRunOutcome, GraphError> {
    run_scheduled(&PullCreditScheduler, &[graph], workers, packets, opts, None)
}

/// Dispatches a graph run on the configured [`Regime`]: the single entry
/// point for callers that thread the `regime` knob through
/// (`RouterBuilder::regime(...)` / `RuntimeConfig(regime ...)`). Under
/// [`Regime::Pipeline`] the one template graph becomes a chain of
/// `workers` identical stages.
///
/// # Errors
///
/// See [`run_graph_parallel`].
pub fn run_graph_regime(
    regime: Regime,
    graph: &Graph,
    workers: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
) -> Result<GraphRunOutcome, GraphError> {
    run_graph_regime_monitored(regime, graph, workers, packets, opts, None)
}

/// [`run_graph_regime`] with an optional embedded scrape endpoint: when
/// `monitor` is given, the run's live interval and event rings are
/// attached to the server before the workers spawn, so `GET /metrics`,
/// `/healthz`, `/timeseries.json` and `/events.json` observe the run
/// while it executes — the server thread reads the same seqlock rings
/// the dispatcher harvests and never pauses a worker.
///
/// # Errors
///
/// See [`run_graph_parallel`].
pub fn run_graph_regime_monitored(
    regime: Regime,
    graph: &Graph,
    workers: usize,
    packets: Vec<Packet>,
    opts: &GraphRunOpts,
    monitor: Option<&MetricsServer>,
) -> Result<GraphRunOutcome, GraphError> {
    match regime {
        Regime::Pipeline => {
            let refs: Vec<&Graph> = (0..workers).map(|_| graph).collect();
            run_scheduled(&PipelineScheduler, &refs, workers, packets, opts, monitor)
        }
        _ => run_scheduled(
            regime.scheduler(),
            &[graph],
            workers,
            packets,
            opts,
            monitor,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::device::{FromDevice, ToDevice};
    use crate::elements::queue::Queue;
    use crate::elements::sink::Counter;
    use rb_packet::builder::PacketSpec;
    use rb_packet::PacketPool;
    use rb_telemetry::TraceKind;

    fn packets(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketSpec::udp()
                    .src(&format!(
                        "10.0.{}.{}:{}",
                        (i >> 8) & 0xff,
                        i & 0xff,
                        1024 + (i % 1000)
                    ))
                    .unwrap()
                    .build()
            })
            .collect()
    }

    fn identity_stage() -> StageFn {
        Box::new(Some)
    }

    /// rx -> cnt -> q -> tx, the minimal device-to-device forwarding path.
    fn forwarder_graph(keep_frames: bool) -> Graph {
        let mut g = Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, 32))).unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let q = g.add("q", Box::new(Queue::new(100_000))).unwrap();
        let tx = g
            .add("tx", Box::new(ToDevice::new(32, keep_frames)))
            .unwrap();
        g.connect(rx, 0, c, 0).unwrap();
        g.connect(c, 0, q, 0).unwrap();
        g.connect(q, 0, tx, 0).unwrap();
        g
    }

    /// [`forwarder_graph`] with a `slots`-slot arena on the ingress, so
    /// overload shows up as pool exhaustion (push) or stalls (pull).
    fn pooled_forwarder_graph(keep_frames: bool, slots: usize) -> Graph {
        let mut g = forwarder_graph(keep_frames);
        let rx = g.id_of("rx").unwrap();
        g.element_mut(rx)
            .as_any_mut()
            .downcast_mut::<FromDevice>()
            .unwrap()
            .set_pool(PacketPool::new(slots, 2048));
        g
    }

    #[test]
    fn parallel_processes_everything() {
        let shards = shard_by_flow(packets(1000), 4);
        let report = run_parallel(4, shards, identity_stage);
        assert_eq!(report.processed, 1000);
        assert_eq!(report.per_worker.iter().sum::<u64>(), 1000);
        assert_eq!(report.per_worker.len(), 4);
        assert!(report.pps() > 0.0);
    }

    #[test]
    fn pipeline_processes_everything_in_order() {
        let stages: Vec<StageFn> = (0..3).map(|_| identity_stage()).collect();
        let report = run_pipeline(stages, packets(500), 64);
        assert_eq!(report.processed, 500);
        assert_eq!(report.per_worker, vec![500, 500, 500]);
    }

    #[test]
    fn pipeline_stage_can_drop() {
        let mut toggle = false;
        let dropper: StageFn = Box::new(move |p| {
            toggle = !toggle;
            toggle.then_some(p)
        });
        let report = run_pipeline(vec![dropper], packets(100), 16);
        assert_eq!(report.processed, 50);
        assert_eq!(report.per_worker, vec![100], "stage saw every packet");
    }

    #[test]
    fn shared_queue_processes_everything() {
        let report = run_shared_queue(4, packets(1000), identity_stage);
        assert_eq!(report.processed, 1000);
        assert_eq!(report.per_worker.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn spsc_rings_process_everything() {
        let report = run_spsc_rings(4, packets(1000), identity_stage, 128, 32);
        assert_eq!(report.processed, 1000);
        assert!(report.pps() > 0.0);
    }

    #[test]
    fn spsc_rings_with_real_work_match_shared_queue_counts() {
        let make_stage = || -> StageFn {
            Box::new(|mut pkt: Packet| {
                rb_packet::ipv4::fast::dec_ttl(&mut pkt.data_mut()[14..]).ok()?;
                Some(pkt)
            })
        };
        let spsc = run_spsc_rings(2, packets(500), make_stage, 64, 16);
        let locked = run_shared_queue(2, packets(500), make_stage);
        assert_eq!(spsc.processed, 500);
        assert_eq!(spsc.processed, locked.processed);
    }

    #[test]
    fn shard_by_flow_keeps_flows_whole() {
        let pkts = packets(200);
        // Duplicate so every flow has 2 packets.
        let mut doubled = pkts.clone();
        doubled.extend(pkts);
        let shards = shard_by_flow(doubled, 4);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 400);
        // Each flow's two copies must land in the same shard.
        for shard in &shards {
            for pkt in shard {
                let flow = rb_packet::flow::FiveTuple::of_ethernet_frame(pkt.data()).unwrap();
                let count: usize = shards
                    .iter()
                    .map(|s| {
                        s.iter()
                            .filter(|p| {
                                rb_packet::flow::FiveTuple::of_ethernet_frame(p.data()).unwrap()
                                    == flow
                            })
                            .count()
                    })
                    .sum();
                let here = shard
                    .iter()
                    .filter(|p| {
                        rb_packet::flow::FiveTuple::of_ethernet_frame(p.data()).unwrap() == flow
                    })
                    .count();
                assert_eq!(count, here, "flow split across shards");
            }
        }
    }

    #[test]
    fn real_work_parallel_vs_pipeline_consistency() {
        // Same TTL-decrement workload under both regimes must process the
        // same packet count.
        let make_stage = || -> StageFn {
            Box::new(|mut pkt: Packet| {
                rb_packet::ipv4::fast::dec_ttl(&mut pkt.data_mut()[14..]).ok()?;
                Some(pkt)
            })
        };
        let par = run_parallel(2, shard_by_flow(packets(400), 2), make_stage);
        let pipe = run_pipeline(vec![identity_stage(), make_stage()], packets(400), 32);
        assert_eq!(par.processed, 400);
        assert_eq!(pipe.processed, 400);
    }

    // -- graph runners ----------------------------------------------------

    #[test]
    fn graph_parallel_forwards_every_packet() {
        let g = forwarder_graph(true);
        let pkts = packets(2000);
        let out = run_graph_parallel(&g, 2, pkts.clone(), &GraphRunOpts::default()).unwrap();
        assert_eq!(out.report.processed, 2000);
        assert_eq!(out.report.per_worker.iter().sum::<u64>(), 2000);
        assert_eq!(out.egress.len(), 1);
        assert_eq!(out.egress[0].len(), 2000);
        assert!(out.report.achieved_batch() > 1.0, "batching must survive");
        // Same multiset of frames in and out.
        let mut sent: Vec<Vec<u8>> = pkts.iter().map(|p| p.data().to_vec()).collect();
        let mut got: Vec<Vec<u8>> = out.egress[0].iter().map(|p| p.data().to_vec()).collect();
        sent.sort();
        got.sort();
        assert_eq!(sent, got);
    }

    #[test]
    fn graph_parallel_merges_worker_telemetry() {
        let g = forwarder_graph(false);
        let opts = GraphRunOpts {
            telemetry: TelemetryLevel::Cycles,
            ..GraphRunOpts::default()
        };
        let out = run_graph_parallel(&g, 2, packets(1000), &opts).unwrap();
        let snap = &out.report.telemetry;
        assert_eq!(snap.workers, 2, "both shards merged");
        // Replicated elements share names, so rows merge by (name, class)
        // into one row per graph element.
        assert_eq!(snap.stages.len(), 4);
        for stage in &snap.stages {
            // The queue is dispatched twice per packet (enqueue push +
            // dequeue pull); every other stage exactly once.
            let expect = if stage.name == "q" { 2000 } else { 1000 };
            assert_eq!(stage.packets, expect, "stage {}", stage.name);
            assert!(stage.cycles > 0, "stage {}", stage.name);
        }
        assert!(snap.total_cycles > 0);
        assert!(snap.bottleneck().is_some());
        // Whole report serializes to valid JSON.
        rb_telemetry::json::parse(&out.report.to_json()).expect("report JSON parses");
    }

    #[test]
    fn graph_parallel_telemetry_does_not_change_output() {
        let pkts = packets(800);
        let base = run_graph_parallel(
            &forwarder_graph(true),
            2,
            pkts.clone(),
            &GraphRunOpts::default(),
        )
        .unwrap();
        let opts = GraphRunOpts {
            telemetry: TelemetryLevel::Cycles,
            ..GraphRunOpts::default()
        };
        let measured = run_graph_parallel(&forwarder_graph(true), 2, pkts, &opts).unwrap();
        assert_eq!(base.report.processed, measured.report.processed);
        let frames = |out: &GraphRunOutcome| {
            let mut v: Vec<Vec<u8>> = out.egress[0].iter().map(|p| p.data().to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(frames(&base), frames(&measured));
    }

    #[test]
    fn graph_parallel_single_worker_is_byte_identical_to_router() {
        let pkts = packets(700);
        let out = run_graph_parallel(
            &forwarder_graph(true),
            1,
            pkts.clone(),
            &GraphRunOpts::default(),
        )
        .unwrap();
        let mut reference = Router::new(forwarder_graph(true)).unwrap();
        {
            let id = reference.graph().id_of("rx").unwrap();
            let dev = reference
                .graph_mut()
                .element_mut(id)
                .as_any_mut()
                .downcast_mut::<FromDevice>()
                .unwrap();
            for pkt in pkts {
                dev.inject(pkt);
            }
        }
        reference.run_until_idle(u64::MAX);
        let expect: Vec<&[u8]> = reference
            .element_as::<ToDevice>("tx")
            .unwrap()
            .tx_log()
            .iter()
            .map(Packet::data)
            .collect();
        let got: Vec<&[u8]> = out.egress[0].iter().map(Packet::data).collect();
        assert_eq!(expect, got, "workers=1 must match the ST router exactly");
    }

    #[test]
    fn graph_spsc_matches_parallel_multiset() {
        let g = forwarder_graph(true);
        let pkts = packets(1500);
        let opts = GraphRunOpts {
            ring_depth: 16, // Small ring: exercise back-pressure.
            ..GraphRunOpts::default()
        };
        let out = run_graph_spsc(&g, 3, pkts.clone(), &opts).unwrap();
        assert_eq!(out.report.processed, 1500);
        let mut sent: Vec<Vec<u8>> = pkts.iter().map(|p| p.data().to_vec()).collect();
        let mut got: Vec<Vec<u8>> = out.egress[0].iter().map(|p| p.data().to_vec()).collect();
        sent.sort();
        got.sort();
        assert_eq!(sent, got);
    }

    #[test]
    fn graph_pull_matches_spsc_multiset() {
        let g = forwarder_graph(true);
        let pkts = packets(1500);
        let opts = GraphRunOpts {
            ring_depth: 16, // Small ring AND small window: back-pressure.
            credit_window: 64,
            ..GraphRunOpts::default()
        };
        let out = run_graph_pull(&g, 3, pkts.clone(), &opts).unwrap();
        assert_eq!(out.report.processed, 1500);
        assert!(out.report.ledger.balances(), "{:?}", out.report.ledger);
        assert!(
            out.report.credit_peak_outstanding <= 64,
            "window bounds in-flight credits: {}",
            out.report.credit_peak_outstanding
        );
        let mut sent: Vec<Vec<u8>> = pkts.iter().map(|p| p.data().to_vec()).collect();
        let mut got: Vec<Vec<u8>> = out.egress[0].iter().map(|p| p.data().to_vec()).collect();
        sent.sort();
        got.sort();
        assert_eq!(sent, got);
    }

    #[test]
    fn graph_pull_overload_stalls_where_push_drops() {
        // 2× offered load: 64-packet bursts into 32-slot ingress arenas.
        // The push regimes preload/inject past the arena and drop to pool
        // exhaustion; pull admits only what fits and stalls the source.
        let pkts = packets(600);
        let opts = GraphRunOpts {
            poll_burst: 64,
            ring_depth: 8,
            credit_window: 64,
            ..GraphRunOpts::default()
        };
        let push =
            run_graph_parallel(&pooled_forwarder_graph(true, 32), 2, pkts.clone(), &opts).unwrap();
        let pull =
            run_graph_pull(&pooled_forwarder_graph(true, 32), 2, pkts.clone(), &opts).unwrap();
        assert!(
            push.report.pool_exhausted > 0,
            "push under overload must drop: {:?}",
            push.report
        );
        assert_eq!(
            pull.report.pool_exhausted, 0,
            "pull must never exhaust the pool"
        );
        assert!(
            pull.report.credit_stalls > 0,
            "pull under overload must stall the source"
        );
        assert_eq!(pull.egress[0].len(), pkts.len(), "pull is zero-loss");
        assert!(pull.report.ledger.balances(), "{:?}", pull.report.ledger);
        assert!(push.report.ledger.balances(), "{:?}", push.report.ledger);
    }

    #[test]
    fn graph_pipeline_chains_stages() {
        let stages: Vec<Graph> = (0..3).map(|_| forwarder_graph(false)).collect();
        // Last stage keeps frames so egress is observable.
        let mut stages = stages;
        stages[2] = forwarder_graph(true);
        let out = run_graph_pipeline(&stages, packets(800), &GraphRunOpts::default()).unwrap();
        assert_eq!(out.report.processed, 800);
        assert_eq!(out.report.per_worker, vec![800, 800, 800]);
        assert_eq!(out.egress[0].len(), 800);
        assert_eq!(out.worker_stats.len(), 3);
    }

    #[test]
    fn interval_series_conserves_ledger_under_every_regime() {
        for regime in [
            Regime::Push,
            Regime::Spsc,
            Regime::Pipeline,
            Regime::PullCredit,
        ] {
            let opts = GraphRunOpts {
                interval_ms: 1,
                ..GraphRunOpts::default()
            };
            let out = match regime {
                Regime::Pipeline => {
                    let stages: Vec<Graph> = (0..2).map(|_| forwarder_graph(false)).collect();
                    run_graph_pipeline(&stages, packets(600), &opts).unwrap()
                }
                _ => {
                    let g = forwarder_graph(false);
                    run_graph_regime(regime, &g, 2, packets(600), &opts).unwrap()
                }
            };
            let series = out
                .report
                .timeseries
                .as_ref()
                .unwrap_or_else(|| panic!("{regime}: interval clock was on"));
            assert!(!series.is_empty(), "{regime}: no interval published");
            let summed = series.ledger();
            let led = &out.report.ledger;
            assert_eq!(summed.sourced, led.sourced, "{regime}: sourced telescopes");
            assert_eq!(summed.forwarded, led.forwarded, "{regime}: forwarded");
            assert_eq!(
                summed.dropped_total(),
                led.dropped_total(),
                "{regime}: drops"
            );
            // The JSON carries the series; with the clock off it is null.
            assert!(out.report.to_json().contains("\"timeseries\": {"));
            let off = run_graph_parallel(
                &forwarder_graph(false),
                2,
                packets(10),
                &GraphRunOpts::default(),
            )
            .unwrap();
            assert!(off.report.timeseries.is_none());
            assert!(off.report.to_json().contains("\"timeseries\": null"));
        }
    }

    #[test]
    fn graph_regime_dispatch_covers_all_regimes() {
        for regime in [
            Regime::Push,
            Regime::Spsc,
            Regime::Pipeline,
            Regime::PullCredit,
        ] {
            let out = run_graph_regime(
                regime,
                &forwarder_graph(true),
                2,
                packets(400),
                &GraphRunOpts::default(),
            )
            .unwrap();
            assert_eq!(out.report.processed, 400, "regime {regime}");
            assert_eq!(out.egress[0].len(), 400, "regime {regime}");
            assert!(out.report.ledger.balances(), "regime {regime}");
        }
    }

    /// `MtReport.elapsed` is the caller's clock: it starts at entry, so
    /// replication, wiring and (push) sharding are inside it, and stops
    /// with the outcome assembled. It started after wiring once, and a
    /// quarter of a streaming run went unreported.
    #[test]
    fn report_elapsed_is_what_the_caller_measures() {
        for regime in [Regime::Push, Regime::Spsc, Regime::PullCredit] {
            let g = pooled_forwarder_graph(false, 1024);
            let opts = GraphRunOpts::default();
            // The box is shared: take the closest of a few attempts, but
            // hold every attempt to the one-sided bound.
            let mut closest = 0.0f64;
            for _ in 0..8 {
                let pkts = packets(4096);
                let t = Instant::now();
                let out = run_graph_regime(regime, &g, 2, pkts, &opts).unwrap();
                let outer = t.elapsed();
                assert_eq!(out.report.ledger.sourced, 4096);
                assert!(
                    out.report.elapsed <= outer,
                    "{regime}: {:?} > {outer:?}",
                    out.report.elapsed
                );
                closest = closest.max(out.report.elapsed.as_secs_f64() / outer.as_secs_f64());
            }
            assert!(
                closest >= 0.9,
                "{regime}: elapsed covers {closest:.2} of the call"
            );
        }
    }

    #[test]
    fn regime_words_round_trip() {
        for regime in [
            Regime::Push,
            Regime::Spsc,
            Regime::Pipeline,
            Regime::PullCredit,
        ] {
            assert_eq!(Regime::parse(regime.as_str()), Some(regime));
        }
        assert_eq!(Regime::parse("parallel"), Some(Regime::Push));
        assert_eq!(Regime::parse("pullcredit"), Some(Regime::PullCredit));
        assert_eq!(Regime::parse("sideways"), None);
        assert_eq!(Regime::default(), Regime::Push);
    }

    #[test]
    fn graph_without_ingress_is_rejected() {
        let mut g = Graph::new();
        let s = g
            .add(
                "src",
                Box::new(crate::elements::source::InfiniteSource::new(64, Some(10))),
            )
            .unwrap();
        let d = g
            .add("sink", Box::new(crate::elements::sink::Discard::new()))
            .unwrap();
        g.connect(s, 0, d, 0).unwrap();
        assert!(matches!(
            run_graph_parallel(&g, 2, Vec::new(), &GraphRunOpts::default()),
            Err(GraphError::MissingIngress)
        ));
    }

    #[test]
    fn non_replicable_element_is_reported_by_name() {
        struct Opaque;
        impl crate::element::Element for Opaque {
            fn class_name(&self) -> &'static str {
                "Opaque"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn ports(&self) -> crate::element::Ports {
                crate::element::Ports::push(1, 0)
            }
            fn push(&mut self, _port: usize, _pkt: Packet, _out: &mut crate::element::Output) {}
        }
        let mut g = Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, 32))).unwrap();
        let o = g.add("mystery", Box::new(Opaque)).unwrap();
        g.connect(rx, 0, o, 0).unwrap();
        match run_graph_parallel(&g, 2, Vec::new(), &GraphRunOpts::default()) {
            Err(GraphError::NotReplicable { element, class }) => {
                assert_eq!(element, "mystery");
                assert_eq!(class, "Opaque");
            }
            other => panic!("expected NotReplicable, got {other:?}"),
        }
    }

    #[test]
    fn replicated_graph_shares_fib_but_not_counters() {
        use crate::elements::route::LookupIPRoute;
        let mut g = Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, 32))).unwrap();
        let rt = g
            .add(
                "rt",
                Box::new(LookupIPRoute::from_spec("0.0.0.0/0 0").unwrap()),
            )
            .unwrap();
        let d = g
            .add("sink", Box::new(crate::elements::sink::Discard::new()))
            .unwrap();
        let m = g
            .add("miss", Box::new(crate::elements::sink::Discard::new()))
            .unwrap();
        g.connect(rx, 0, rt, 0).unwrap();
        g.connect(rt, 0, d, 0).unwrap();
        g.connect(rt, 1, m, 0).unwrap();
        let out = run_graph_parallel(&g, 2, packets(300), &GraphRunOpts::default()).unwrap();
        // No ToDevice in this graph: processed falls back to ingress.
        assert_eq!(out.report.processed, 300);
        assert!(out.egress.is_empty());
    }

    #[test]
    fn graph_runners_conserve_packets_across_worker_counts() {
        for workers in [1usize, 2, 4] {
            let out = run_graph_parallel(
                &forwarder_graph(true),
                workers,
                packets(900),
                &GraphRunOpts::default(),
            )
            .unwrap();
            let led = out.report.ledger;
            assert!(led.balances(), "workers={workers}: {led:?}");
            assert_eq!(led.sourced, 900);
            assert_eq!(led.forwarded, 900);
            assert_eq!(led.in_flight, 0);
        }
    }

    #[test]
    fn traced_spsc_run_exports_cross_core_edges() {
        use rb_telemetry::json;
        let opts = GraphRunOpts {
            trace_sample: 8,
            ring_depth: 16,
            ..GraphRunOpts::default()
        };
        let out = run_graph_spsc(&forwarder_graph(true), 2, packets(640), &opts).unwrap();
        assert_eq!(out.report.processed, 640);
        assert!(out.report.ledger.balances(), "{:?}", out.report.ledger);
        assert!(out.trace.traced_packets() > 0, "sampling must trace some");
        let kinds: Vec<TraceKind> = out.trace.spans.iter().map(|s| s.event.kind).collect();
        assert!(
            kinds.contains(&TraceKind::RingSend),
            "ingress/egress hop start"
        );
        assert!(
            kinds.contains(&TraceKind::RingRecv),
            "ingress/egress hop finish"
        );
        assert!(kinds.contains(&TraceKind::Element), "element-level spans");
        // A dispatcher-stamped packet's path starts with the ingress ring
        // hop, then element spans on the worker core.
        let dispatcher_core = 2u32; // workers == 2
        let crossing = out
            .trace
            .spans
            .iter()
            .find(|s| s.event.kind == TraceKind::RingSend && s.event.core == dispatcher_core)
            .expect("dispatcher recorded an ingress ring_send");
        let path = out.trace.path_of(crossing.event.trace_id);
        assert!(path.len() >= 3, "hop + element spans: {path:?}");
        assert!(
            path.iter().any(|s| s.event.kind == TraceKind::Element),
            "traced packet saw element dispatches"
        );
        // The export is valid Chrome trace-event JSON.
        let v = json::parse(&out.trace.to_chrome_json(1.0)).expect("chrome JSON parses");
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
    }

    #[test]
    fn traced_pull_run_exports_cross_core_edges() {
        let opts = GraphRunOpts {
            trace_sample: 8,
            ring_depth: 16,
            credit_window: 128,
            ..GraphRunOpts::default()
        };
        let out = run_graph_pull(&forwarder_graph(true), 2, packets(640), &opts).unwrap();
        assert_eq!(out.report.processed, 640);
        assert!(out.report.ledger.balances(), "{:?}", out.report.ledger);
        assert!(out.trace.traced_packets() > 0, "sampling must trace some");
        // Same trace shape as spsc: dispatcher stamps before the ingress
        // ring, so the cross-core hop is part of the recorded path.
        let dispatcher_core = 2u32; // workers == 2
        let crossing = out
            .trace
            .spans
            .iter()
            .find(|s| s.event.kind == TraceKind::RingSend && s.event.core == dispatcher_core)
            .expect("dispatcher recorded an ingress ring_send");
        let path = out.trace.path_of(crossing.event.trace_id);
        assert!(path.len() >= 3, "hop + element spans: {path:?}");
        assert!(
            path.iter().any(|s| s.event.kind == TraceKind::Element),
            "traced packet saw element dispatches"
        );
    }

    #[test]
    fn traced_pipeline_ledger_balances_per_stage() {
        let mut stages: Vec<Graph> = (0..3).map(|_| forwarder_graph(false)).collect();
        stages[2] = forwarder_graph(true);
        let opts = GraphRunOpts {
            trace_sample: 16,
            ..GraphRunOpts::default()
        };
        let out = run_graph_pipeline(&stages, packets(400), &opts).unwrap();
        assert_eq!(out.report.processed, 400);
        let led = out.report.ledger;
        // Each stage is conservation-closed: its FromDevice sources what
        // the previous stage's ToDevice forwarded.
        assert!(led.balances(), "{led:?}");
        assert_eq!(led.sourced, 1200);
        assert_eq!(led.forwarded, 1200);
        assert!(out.trace.traced_packets() > 0);
    }

    #[test]
    fn trace_off_mt_run_records_nothing() {
        let out = run_graph_spsc(
            &forwarder_graph(true),
            2,
            packets(300),
            &GraphRunOpts::default(),
        )
        .unwrap();
        assert!(out.trace.spans.is_empty());
        assert_eq!(out.trace.overflow, 0);
        assert!(out.egress[0].iter().all(|p| p.meta.trace_id == 0));
    }

    #[test]
    fn imbalance_metric_reports_skew() {
        let balanced = MtReport::from_counts(vec![50, 50], 100, Duration::from_secs(1));
        let skewed = MtReport::from_counts(vec![90, 10], 100, Duration::from_secs(1));
        assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
        assert!((skewed.imbalance() - 1.8).abs() < 1e-9);
    }
}
