//! Multi-threaded execution: real-thread analogues of §4.2's experiments.
//!
//! The paper compares ways of spreading packet processing over cores:
//!
//! * **parallel** — each packet handled start-to-finish by one core, each
//!   core owning its own queues ("one core per packet", "one core per
//!   queue");
//! * **pipeline** — cores chained, each packet touched by every core;
//! * **shared queue** — multiple cores contending on one queue with a
//!   lock (modelled in `rb_hw::scenarios`, Fig. 6; there is no real-thread
//!   locked-queue runner).
//!
//! [`run_graph`] is the one entry point: it executes real element graphs,
//! one replica per worker core ([`Graph::replicate`]: fresh mutable
//! state, `Arc`-shared read-only structures), under the
//! [`Regime`](crate::Regime) and worker count the [`Knobs`] name — the
//! layout is *selected*, the graph is not re-coded. [`crate::runtime::regime`] holds the
//! spawn/pump/merge/join mechanism and what differs between the two
//! regimes. Ingress is split RSS-style by `lane_of`, packet by packet in
//! the harness's dispatcher beside the running workers, and whole
//! [`PacketBatch`](crate::element::PacketBatch)es cross the lock-free,
//! credit-gated [`crate::runtime::spsc`] rings, so the `kp` batching
//! survives the thread hop.

use crate::config::Knobs;
use crate::graph::{Graph, GraphError};
use crate::runtime::driver::RunStats;
use crate::runtime::regime::run_scheduled;
use rb_packet::Packet;
use rb_telemetry::{EventLog, Ledger, MetricsServer, MetricsSnapshot, TimeSeries, TraceLog};
use std::time::Duration;

/// Outcome of a multi-threaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct MtReport {
    /// Packets that reached the end of the processing chain.
    pub processed: u64,
    /// Wall-clock time of the run, as its caller's clock sees it: from
    /// entry — graph replication and ring wiring included — to the
    /// assembled outcome.
    pub elapsed: Duration,
    /// Packets handled by each worker (pipeline: each stage), so shard
    /// imbalance is visible, not just the aggregate rate.
    pub per_worker: Vec<u64>,
    /// Packets moved through element push handlers, summed over all
    /// worker routers.
    pub pushes: u64,
    /// Batch dispatches summed over all worker routers; `pushes /
    /// batch_calls` is the achieved mean batch size.
    pub batch_calls: u64,
    /// Arena slot allocations summed over all worker pools (zero when
    /// no worker uses a packet pool).
    pub pool_allocs: u64,
    /// Arena slots recycled, summed over all worker pools.
    pub pool_recycles: u64,
    /// Packets dropped to pool exhaustion, summed over all workers.
    pub pool_exhausted: u64,
    /// Buffers deflected to heap storage, summed over all workers.
    pub pool_fallbacks: u64,
    /// Arena slots returned through a `FreeBatch` (subset of
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
    /// Push attempts that found a ring's credit window short, summed over
    /// every gated ring (the dispatcher's, and under the pipeline each
    /// stage's into the next) — attempts, not episodes: it grows for as
    /// long as a stall lasts, which keeps the journal's `credit_stall`
    /// episode open, and a filler a window ahead of its worker collects
    /// some without any overload (DESIGN.md §10). Stalled packets are
    /// neither dropped nor in flight, so the ledger balances identically.
    pub credit_stalls: u64,
    /// High-water mark of outstanding (acquired, unreleased) credits
    /// across all gated rings — the bounded-queueing evidence: never
    /// exceeds the credit window.
    pub credit_peak_outstanding: u64,
    /// Merged per-element telemetry from every worker shard (empty when
    /// telemetry was off).
    pub telemetry: MetricsSnapshot,
    /// Merged packet-conservation ledger over every worker router:
    /// element contributions plus driver wiring drops, summed across
    /// replicas.
    pub ledger: Ledger,
    /// Merged live interval series across every worker core, harvested
    /// while workers ran (`None` when [`Knobs::interval_ms`] was zero).
    /// Summed interval counters equal `ledger` exactly.
    pub timeseries: Option<TimeSeries>,
    /// Merged structured event journal across every worker core — stall
    /// episode edges, pool-exhaustion onsets, dispatcher fuses — derived
    /// from the interval series as it was harvested (empty when the
    /// interval clock was off).
    pub events: EventLog,
}

impl MtReport {
    /// Packets per second achieved over [`MtReport::elapsed`], i.e. what
    /// a caller timing the run itself would compute.
    pub fn pps(&self) -> f64 {
        self.processed as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Achieved mean dispatch batch size across all workers (0 when no
    /// batched dispatch ran).
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
/// The up-front form of the split the dispatcher applies (`lane_of`)
/// beside the running workers, and so the reference split its tests hold
/// each lane's input to.
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

/// Runs `packets` through per-core replicas of a real element graph, on
/// the [`Regime`](crate::Regime) and worker count `knobs` name — the one
/// way to start a multi-threaded run.
///
/// Under `PullCredit` `graph` is replicated `knobs.workers` times behind
/// an RSS split; under `Pipeline` it becomes a chain of `knobs.workers`
/// identical stages. Each replica is a [`crate::Router::configured`]
/// under `knobs`, so it gets its own arenas and descriptor rings.
///
/// * [`Regime::PullCredit`](crate::Regime::PullCredit) (the default;
///   §4.2's "one core per packet"): a dispatcher splits ingress by flow
///   and feeds each replica's ingress ring incrementally, in
///   `PacketBatch`es. With one worker the execution is byte-identical to
///   injecting the same packets into a single-threaded `Router` over the
///   same graph.
/// * [`Regime::Pipeline`](crate::Regime::Pipeline): stage `i`'s
///   transmitted frames are forwarded over an SPSC ring into stage
///   `i+1`'s `FromDevice`, so every packet crosses a core boundary per
///   stage (the layout Fig. 6 shows losing to parallel replicas).
///   Intermediate stages have frame retention forced on (their transmit
///   log *is* the inter-stage link). `report.processed` counts the last
///   stage's transmitted packets; `report.per_worker[i]` is stage `i`'s
///   count.
///
/// Both are sink-driven with credit back-pressure: whoever fills a
/// worker's ingress ring may have at most `ring_depth * batch_size`
/// packets outstanding on it; each worker admits only what its ingress
/// arena can hold, runs the graph to completion, and releases credits
/// when done. Under overload the source **stalls**
/// ([`MtReport::credit_stalls`]) instead of dropping at the ingress —
/// bounded queueing traded for latency.
///
/// Retained egress frames are merged back over SPSC rings. When
/// `monitor` is given, the run's live interval rings are attached to
/// the server before the workers spawn, so `GET /metrics`,
/// `/healthz`, `/timeseries.json` and `/events.json` observe the run
/// while it executes — the server thread reads the same seqlock rings
/// the dispatcher harvests and never pauses a worker.
///
/// # Errors
///
/// [`GraphError::NotReplicable`] when an element lacks `replicate()`;
/// [`GraphError::MissingIngress`] when the graph has no `FromDevice`.
pub fn run_graph(
    graph: &Graph,
    packets: Vec<Packet>,
    knobs: &Knobs,
    monitor: Option<&MetricsServer>,
) -> Result<GraphRunOutcome, GraphError> {
    run_scheduled(graph, packets, knobs, monitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::device::{FromDevice, ToDevice};
    use crate::elements::queue::Queue;
    use crate::elements::sink::Counter;
    use crate::runtime::driver::Router;
    use crate::runtime::regime::Regime;
    use rb_packet::builder::PacketSpec;
    use rb_packet::PacketPool;
    use rb_telemetry::{TelemetryLevel, TraceKind};
    use std::time::Instant;

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

    /// `workers` replicas (or chained stages) under `regime`, every
    /// other knob at its default.
    fn on(regime: Regime, workers: usize) -> Knobs {
        Knobs {
            regime,
            workers,
            ..Knobs::default()
        }
    }

    /// rx -> cnt -> q -> tx, the minimal device-to-device forwarding path.
    fn forwarder_graph(keep_frames: bool) -> Graph {
        let mut g = Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, Some(32)))).unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let q = g.add("q", Box::new(Queue::new(100_000))).unwrap();
        let tx = g
            .add("tx", Box::new(ToDevice::new(Some(32), keep_frames)))
            .unwrap();
        g.connect(rx, 0, c, 0).unwrap();
        g.connect(c, 0, q, 0).unwrap();
        g.connect(q, 0, tx, 0).unwrap();
        g
    }

    /// [`forwarder_graph`] with a `slots`-slot arena on the ingress, so
    /// overload shows up as stalls.
    fn pooled_forwarder_graph(keep_frames: bool, slots: usize) -> Graph {
        let mut g = forwarder_graph(keep_frames);
        let rx = g.id_of("rx").unwrap();
        g.element_mut(rx)
            .downcast_mut::<FromDevice>()
            .unwrap()
            .set_pool(PacketPool::new(slots, 2048));
        g
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

    // -- graph runners ----------------------------------------------------

    #[test]
    fn graph_parallel_forwards_every_packet() {
        let g = forwarder_graph(true);
        let pkts = packets(2000);
        let out = run_graph(&g, pkts.clone(), &on(Regime::PullCredit, 2), None).unwrap();
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
        let knobs = Knobs {
            telemetry: TelemetryLevel::Cycles,
            ..on(Regime::PullCredit, 2)
        };
        let out = run_graph(&g, packets(1000), &knobs, None).unwrap();
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
    }

    #[test]
    fn graph_parallel_telemetry_does_not_change_output() {
        let pkts = packets(800);
        let g = forwarder_graph(true);
        let base = run_graph(&g, pkts.clone(), &on(Regime::PullCredit, 2), None).unwrap();
        let knobs = Knobs {
            telemetry: TelemetryLevel::Cycles,
            ..on(Regime::PullCredit, 2)
        };
        let measured = run_graph(&g, pkts, &knobs, None).unwrap();
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
        let g = forwarder_graph(true);
        let out = run_graph(&g, pkts.clone(), &on(Regime::PullCredit, 1), None).unwrap();
        let mut reference = Router::new(forwarder_graph(true)).unwrap();
        {
            let id = reference.graph().id_of("rx").unwrap();
            let dev = reference
                .element_mut(id)
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

    /// 1,500 packets through three pull replicas behind rings of
    /// `ring_depth` batches, so a credit window of `ring_depth * 32`
    /// packets: back-pressure, and nothing lost.
    fn small_rings_forward_every_packet(ring_depth: usize) {
        let g = forwarder_graph(true);
        let pkts = packets(1500);
        let knobs = Knobs {
            ring_depth,
            ..on(Regime::PullCredit, 3)
        };
        let out = run_graph(&g, pkts.clone(), &knobs, None).unwrap();
        assert_eq!(out.report.processed, 1500);
        assert!(out.report.ledger.balances(), "{:?}", out.report.ledger);
        let window = (ring_depth * knobs.batch_size) as u64;
        assert!(
            out.report.credit_peak_outstanding <= window,
            "window bounds in-flight credits: {}",
            out.report.credit_peak_outstanding
        );
        let mut sent: Vec<Vec<u8>> = pkts.iter().map(|p| p.data().to_vec()).collect();
        let mut got: Vec<Vec<u8>> = out.egress[0].iter().map(|p| p.data().to_vec()).collect();
        sent.sort();
        got.sort();
        assert_eq!(sent, got, "ring_depth {ring_depth}");
    }

    /// 16-batch rings: a 512-packet window.
    #[test]
    fn sixteen_batch_rings_forward_every_packet() {
        small_rings_forward_every_packet(16);
    }

    /// 2-batch rings: a 64-packet window that pushes back often.
    #[test]
    fn two_batch_rings_forward_every_packet() {
        small_rings_forward_every_packet(2);
    }

    #[test]
    fn graph_overload_stalls_the_filler_and_loses_nothing() {
        // 2× offered load: 64-packet bursts into 32-slot ingress arenas.
        // Every ring is gated, so each worker admits only what fits and
        // the filler of its ring stalls: the dispatcher, or under the
        // pipeline the stage before.
        let pkts = packets(600);
        // Two-batch rings at kp 32: a 64-packet window.
        let under = |regime| Knobs {
            poll_burst: Some(64),
            ring_depth: 2,
            ..on(regime, 2)
        };
        let g = pooled_forwarder_graph(true, 32);
        for regime in [Regime::PullCredit, Regime::Pipeline] {
            let pull = run_graph(&g, pkts.clone(), &under(regime), None).unwrap();
            assert_eq!(
                pull.report.pool_exhausted, 0,
                "{regime} must never exhaust the pool"
            );
            assert!(
                pull.report.credit_stalls > 0,
                "{regime} under overload must stall the source"
            );
            assert_eq!(pull.egress[0].len(), pkts.len(), "{regime} is zero-loss");
            assert!(pull.report.ledger.balances(), "{:?}", pull.report.ledger);
        }
    }

    #[test]
    fn graph_pipeline_chains_stages() {
        // The last stage keeps frames so egress is observable.
        let g = forwarder_graph(true);
        let out = run_graph(&g, packets(800), &on(Regime::Pipeline, 3), None).unwrap();
        assert_eq!(out.report.processed, 800);
        assert_eq!(out.report.per_worker, vec![800, 800, 800]);
        assert_eq!(out.egress[0].len(), 800);
        assert_eq!(out.worker_stats.len(), 3);
    }

    #[test]
    fn interval_series_conserves_ledger_under_every_regime() {
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            let knobs = Knobs {
                interval_ms: 1,
                ..on(regime, 2)
            };
            let g = forwarder_graph(false);
            let out = run_graph(&g, packets(600), &knobs, None).unwrap();
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
            // With the clock off there is no series.
            let off = run_graph(&g, packets(10), &on(Regime::PullCredit, 2), None).unwrap();
            assert!(off.report.timeseries.is_none());
        }
    }

    #[test]
    fn graph_regime_dispatch_covers_all_regimes() {
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            let g = forwarder_graph(true);
            let out = run_graph(&g, packets(400), &on(regime, 2), None).unwrap();
            assert_eq!(out.report.processed, 400, "regime {regime}");
            assert_eq!(out.egress[0].len(), 400, "regime {regime}");
            assert!(out.report.ledger.balances(), "regime {regime}");
        }
    }

    /// `MtReport.elapsed` is the caller's clock: it starts at entry, so
    /// replication and wiring are inside it, and stops with the outcome
    /// assembled. It started after wiring once, and a quarter of a
    /// streaming run went unreported.
    #[test]
    fn report_elapsed_is_what_the_caller_measures() {
        let regime = Regime::PullCredit;
        let g = pooled_forwarder_graph(false, 1024);
        let knobs = on(regime, 2);
        // The box is shared: take the closest of a few attempts, but
        // hold every attempt to the one-sided bound.
        let mut closest = 0.0f64;
        for _ in 0..8 {
            let pkts = packets(4096);
            let t = Instant::now();
            let out = run_graph(&g, pkts, &knobs, None).unwrap();
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

    #[test]
    fn regime_words_round_trip() {
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            assert_eq!(Regime::parse(regime.as_str()), Some(regime));
        }
        assert_eq!(Regime::parse("pullcredit"), Some(Regime::PullCredit));
        assert_eq!(Regime::parse("sideways"), None);
        for gone in ["push", "parallel", "spsc"] {
            assert_eq!(Regime::parse(gone), None, "`{gone}` was removed");
        }
        assert_eq!(Regime::default(), Regime::PullCredit);
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
            run_graph(&g, Vec::new(), &on(Regime::PullCredit, 2), None),
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
            fn ports(&self) -> crate::element::Ports {
                crate::element::Ports::push(1, 0)
            }
        }
        let mut g = Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, Some(32)))).unwrap();
        let o = g.add("mystery", Box::new(Opaque)).unwrap();
        g.connect(rx, 0, o, 0).unwrap();
        match run_graph(&g, Vec::new(), &on(Regime::PullCredit, 2), None) {
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
        let rx = g.add("rx", Box::new(FromDevice::new(0, Some(32)))).unwrap();
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
        let out = run_graph(&g, packets(300), &on(Regime::PullCredit, 2), None).unwrap();
        // No ToDevice in this graph: processed falls back to ingress.
        assert_eq!(out.report.processed, 300);
        assert!(out.egress.is_empty());
    }

    #[test]
    fn graph_runners_conserve_packets_across_worker_counts() {
        for workers in [1usize, 2, 4] {
            let g = forwarder_graph(true);
            let out = run_graph(&g, packets(900), &on(Regime::PullCredit, workers), None).unwrap();
            let led = out.report.ledger;
            assert!(led.balances(), "workers={workers}: {led:?}");
            assert_eq!(led.sourced, 900);
            assert_eq!(led.forwarded, 900);
            assert_eq!(led.in_flight, 0);
        }
    }

    /// A traced two-worker pull run behind SPSC rings of `ring_depth`
    /// batches records the cross-core ring hops and exports them as
    /// Chrome trace JSON.
    fn traced_run_exports_cross_core_edges(ring_depth: usize) {
        use rb_telemetry::json;
        let knobs = Knobs {
            trace_sample: 8,
            ring_depth,
            ..on(Regime::PullCredit, 2)
        };
        let out = run_graph(&forwarder_graph(true), packets(640), &knobs, None).unwrap();
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
        // The dispatcher stamps before the ingress ring, so a
        // dispatcher-stamped packet's path starts with the cross-core
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
        let v = json::parse(&out.trace.to_chrome_json(1.0, None)).expect("chrome JSON parses");
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
    }

    #[test]
    fn traced_pull_run_behind_sixteen_batch_rings_exports_cross_core_edges() {
        traced_run_exports_cross_core_edges(16);
    }

    #[test]
    fn traced_pull_run_exports_cross_core_edges() {
        traced_run_exports_cross_core_edges(4);
    }

    #[test]
    fn traced_pipeline_ledger_balances_per_stage() {
        let g = forwarder_graph(true);
        let knobs = Knobs {
            trace_sample: 16,
            ..on(Regime::Pipeline, 3)
        };
        let out = run_graph(&g, packets(400), &knobs, None).unwrap();
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
        let g = forwarder_graph(true);
        let out = run_graph(&g, packets(300), &on(Regime::PullCredit, 2), None).unwrap();
        assert!(out.trace.spans.is_empty());
        assert_eq!(out.trace.overflow, 0);
        assert!(out.egress[0].iter().all(|p| p.meta.trace_id == 0));
    }

    #[test]
    fn imbalance_metric_reports_skew() {
        let report = |per_worker| MtReport {
            per_worker,
            ..crate::runtime::regime::assemble_outcome(
                Vec::new(),
                Vec::new(),
                0,
                TraceLog::default(),
            )
            .report
        };
        let balanced = report(vec![50, 50]);
        let skewed = report(vec![90, 10]);
        assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
        assert!((skewed.imbalance() - 1.8).abs() < 1e-9);
    }
}
