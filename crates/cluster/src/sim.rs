//! Packet-level reordering simulation (§6.2's reordering experiment).
//!
//! "To measure the amount of reordering introduced by RB4, we replay the
//! Abilene trace, forcing the entire trace to flow between a single
//! input and output port — this generated more traffic than could fit in
//! any single path between the two nodes, causing load-balancing to kick
//! in." We reproduce that setup: flows enter at node 0 bound for node 1;
//! each packet picks a path (flowlet-pinned or per-packet VLB); the
//! packet's cluster transit time is the sum of per-hop latencies, where
//! each hop's latency follows that link's time-varying congestion; the
//! egress order is compared against the ingress order per flow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rb_telemetry::{
    Event, EventKind, EventLog, IntervalStats, Ledger, TimeSeries, TraceEvent, TraceKind, TraceLog,
    Tracer,
};
use rb_vlb::flowlet::FlowletBalancer;
use rb_vlb::reorder::ReorderCounter;
use rb_vlb::routing::{DirectVlb, PathChoice, VlbConfig};
use rb_workload::{SynthTrace, TraceConfig};

/// Reordering-avoidance policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Flowlet-pinned paths with δ = 100 ms (the RB4 algorithm).
    Flowlet,
    /// Plain Direct VLB: every packet balanced independently.
    PerPacket,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ReorderExperiment {
    /// Cluster size.
    pub nodes: usize,
    /// Trace to replay (single input → single output).
    pub trace: TraceConfig,
    /// Mean per-server transit latency, ns.
    pub hop_latency_ns: f64,
    /// Standard deviation of per-link congestion states, ns.
    pub hop_jitter_ns: f64,
    /// How often each link's congestion state changes, ns.
    pub congestion_period_ns: u64,
    /// RNG seed for the latency process.
    pub seed: u64,
    /// Live-telemetry interval width on the simulator's nanosecond
    /// clock (0 = no interval series). The replay buckets arrivals and
    /// deliveries by `arrival_ns / interval_ns` into the same
    /// [`IntervalStats`] the data-plane drivers publish, so cluster
    /// runs export through the same Prometheus/JSON/SLO machinery —
    /// just with `ticks_per_sec = 1e9`.
    pub interval_ns: u64,
}

impl Default for ReorderExperiment {
    fn default() -> Self {
        ReorderExperiment {
            nodes: 4,
            trace: TraceConfig {
                packets: 120_000,
                offered_bps: 10e9,
                ..TraceConfig::default()
            },
            hop_latency_ns: 24_000.0,
            hop_jitter_ns: 8_000.0,
            congestion_period_ns: 250_000,
            seed: 0xc105e,
            interval_ns: 0,
        }
    }
}

/// Experiment outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderResult {
    /// Packets replayed.
    pub packets: u64,
    /// Reordered same-flow sequences.
    pub reordered_sequences: u64,
    /// The paper's metric: reordered sequences / packets.
    pub reorder_fraction: f64,
    /// Fraction of packets that crossed an intermediate node.
    pub balanced_fraction: f64,
}

/// Per-hop observability of one traced replay: sampled cluster-hop
/// spans, per-link load counters and the packet-conservation ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterRunTrace {
    /// Cluster-hop spans of sampled packets. Timestamps and durations
    /// are **nanoseconds** (the simulator's clock), so export with
    /// `to_chrome_json(1000.0, None)`; `node` is the hop's destination server.
    pub trace: TraceLog,
    /// Packets each inter-node link carried, indexed by the link's
    /// destination node (index 1 is the direct ingress→egress link).
    pub link_packets: Vec<u64>,
    /// Peak packets any single congestion epoch put on each link — the
    /// occupancy signal behind the reordering: a flapping path choice
    /// shows up as load shifting between links across epochs.
    pub link_peak_epoch_packets: Vec<u64>,
    /// Conservation ledger: every replayed packet is sourced, and the
    /// lossless simulator must deliver every one at the egress.
    pub ledger: Ledger,
    /// Per-interval series on the simulated clock (empty unless
    /// [`ReorderExperiment::interval_ns`] > 0): arrivals count as
    /// `sourced` in their arrival bucket; deliveries as `forwarded` +
    /// `tx_bytes` + a transit-latency sketch sample in the bucket of
    /// their egress time. Summed over the series both sides equal the
    /// ledger. Tick unit is the nanosecond.
    pub timeseries: TimeSeries,
    /// Structured event journal on the simulated clock (nanosecond
    /// ticks): a [`EventKind::LinkCongestionStart`]/`End` pair brackets
    /// each stretch of congestion epochs where a link's latency offset
    /// sits in the top quarter of its jitter range (`core` = the link's
    /// destination node, `arg` = the offset in ns). The same journal
    /// kinds the live drivers record, so `/events.json` tooling reads
    /// cluster replays unchanged.
    pub events: EventLog,
}

impl ReorderExperiment {
    /// Runs the experiment under `policy`.
    pub fn run(&self, policy: Policy) -> ReorderResult {
        self.run_traced(policy, 0).0
    }

    /// Runs the experiment while sampling every `trace_sample`-th packet
    /// into per-hop [`TraceKind::ClusterHop`] spans (0 = trace nothing)
    /// and keeping per-link counters plus a conservation ledger for every
    /// packet. The returned [`ReorderResult`] is identical to
    /// [`ReorderExperiment::run`] — tracing consumes no randomness.
    pub fn run_traced(
        &self,
        policy: Policy,
        trace_sample: u64,
    ) -> (ReorderResult, ClusterRunTrace) {
        let trace = SynthTrace::generate(&self.trace);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Per-(node, congestion-epoch) latency offsets: packets taking
        // the same path in the same epoch see the same congestion, which
        // is what makes path *changes* — not the mere passage of time —
        // the source of reordering.
        let mut congestion = std::collections::HashMap::<(usize, u64), f64>::new();
        let mut lat_rng = StdRng::seed_from_u64(self.seed ^ 0xdead_beef);
        let mut hop_delay = |node: usize, at_ns: u64| -> f64 {
            let epoch = at_ns / self.congestion_period_ns;
            let jitter = self.hop_jitter_ns;
            *congestion.entry((node, epoch)).or_insert_with(|| {
                // Uniform congestion spread, deterministic per
                // (node, epoch) so same-path packets see the same delay.
                if jitter == 0.0 {
                    0.0
                } else {
                    lat_rng.gen_range(-jitter..jitter)
                }
            }) + self.hop_latency_ns
        };

        // Balancers at the single ingress node (node 0), destination 1.
        // Force load-balancing the way the paper did: offered traffic
        // exceeds any single path, so the direct allowance is a small
        // share. The flowlet link budget is the mesh link capacity.
        let config = VlbConfig {
            nodes: self.nodes,
            line_rate_bps: 10e9,
            window_ns: 1_000_000,
            direct_enabled: true,
        };
        let mut flowlet = FlowletBalancer::new(config.clone(), 0);
        let mut per_packet = DirectVlb::new(config, 0);

        let mut counter = ReorderCounter::new();
        let mut egress: Vec<(u64, rb_packet::FiveTuple, u32)> =
            Vec::with_capacity(trace.packets.len());
        let mut balanced = 0u64;

        // Observability state. The tracer/counters read decisions the
        // replay already made — they never touch `rng`/`lat_rng`, so a
        // traced run stays bit-identical to an untraced one.
        let mut tracer = Tracer::new(trace_sample, 0);
        // Interval buckets on the simulated clock, keyed by epoch.
        let mut buckets = std::collections::BTreeMap::<u64, IntervalStats>::new();
        fn bucket_at(
            buckets: &mut std::collections::BTreeMap<u64, IntervalStats>,
            interval_ns: u64,
            at_ns: u64,
        ) -> &mut IntervalStats {
            let epoch = at_ns / interval_ns;
            buckets.entry(epoch).or_insert_with(|| {
                let mut b = IntervalStats::empty(epoch, 0, epoch * interval_ns);
                b.end_tick = (epoch + 1) * interval_ns;
                b
            })
        }
        let mut link_packets = vec![0u64; self.nodes];
        let mut epoch_load = std::collections::HashMap::<(usize, u64), u64>::new();
        let mut record_link = |node: usize, at_ns: u64, link_packets: &mut Vec<u64>| {
            link_packets[node] += 1;
            *epoch_load
                .entry((node, at_ns / self.congestion_period_ns))
                .or_insert(0) += 1;
        };

        for pkt in &trace.packets {
            let choice = match policy {
                Policy::Flowlet => flowlet.choose(&pkt.flow, 1, pkt.size, pkt.arrival_ns, &mut rng),
                Policy::PerPacket => per_packet.choose(1, pkt.size, pkt.arrival_ns, &mut rng),
            };
            // One (node, delay) pair per hop, in the same `hop_delay`
            // call order as before so the congestion process is
            // unchanged. The final egress-port hop happens at node 1.
            let mut hops: [(u32, f64); 3] = [(0, 0.0); 3];
            let n_hops = match choice {
                PathChoice::Direct => {
                    hops[0] = (1, hop_delay(1, pkt.arrival_ns));
                    hops[1] = (1, hop_delay(usize::MAX, pkt.arrival_ns));
                    record_link(1, pkt.arrival_ns, &mut link_packets);
                    2
                }
                PathChoice::ViaIntermediate(mid) => {
                    balanced += 1;
                    hops[0] = (mid as u32, hop_delay(mid, pkt.arrival_ns));
                    hops[1] = (1, hop_delay(1, pkt.arrival_ns));
                    hops[2] = (1, hop_delay(usize::MAX, pkt.arrival_ns));
                    record_link(mid, pkt.arrival_ns, &mut link_packets);
                    record_link(1, pkt.arrival_ns, &mut link_packets);
                    3
                }
            };
            let transit: f64 = hops[..n_hops].iter().map(|(_, d)| d).sum();
            let trace_id = tracer.maybe_assign();
            if trace_id != 0 {
                // Ingress marker at node 0, then one span per hop.
                let mut at = pkt.arrival_ns;
                tracer.record(TraceEvent {
                    trace_id,
                    kind: TraceKind::ClusterHop,
                    stage: 0,
                    node: 0,
                    core: 0,
                    ts: at,
                    dur: 0,
                });
                for &(node, delay) in &hops[..n_hops] {
                    let dur = delay.max(0.0) as u64;
                    tracer.record(TraceEvent {
                        trace_id,
                        kind: TraceKind::ClusterHop,
                        stage: 0,
                        node,
                        core: 0,
                        ts: at,
                        dur,
                    });
                    at += dur;
                }
            }
            let egress_ns = pkt.arrival_ns + transit.max(0.0) as u64;
            if self.interval_ns > 0 {
                let arrive = bucket_at(&mut buckets, self.interval_ns, pkt.arrival_ns);
                arrive.sourced += 1;
                let deliver = bucket_at(&mut buckets, self.interval_ns, egress_ns);
                deliver.forwarded += 1;
                deliver.tx_bytes += pkt.size as u64;
                deliver.latency.record(egress_ns - pkt.arrival_ns);
            }
            egress.push((egress_ns, pkt.flow, pkt.flow_seq));
        }

        // Deliver in egress-time order (stable for ties = FIFO).
        egress.sort_by_key(|(t, _, _)| *t);
        for (_, flow, seq) in &egress {
            counter.observe(flow, *seq);
        }

        let mut link_peak_epoch_packets = vec![0u64; self.nodes];
        for ((node, _), load) in &epoch_load {
            let peak = &mut link_peak_epoch_packets[*node];
            *peak = (*peak).max(*load);
        }
        let ledger = Ledger {
            sourced: trace.packets.len() as u64,
            forwarded: counter.packets(),
            ..Ledger::default()
        };
        let result = ReorderResult {
            packets: counter.packets(),
            reordered_sequences: counter.reordered_sequences(),
            reorder_fraction: counter.reorder_fraction(),
            balanced_fraction: balanced as f64 / trace.packets.len() as f64,
        };
        // Journal link-congestion episodes off the congestion process the
        // replay already sampled (no extra randomness): per link, an
        // episode opens at the first epoch whose latency offset exceeds
        // half the jitter amplitude and closes at the next sampled epoch
        // at or below it.
        let mut events = EventLog::default();
        if self.hop_jitter_ns > 0.0 {
            let threshold = 0.5 * self.hop_jitter_ns;
            let mut by_node = std::collections::BTreeMap::<usize, Vec<(u64, f64)>>::new();
            for ((node, epoch), offset) in &congestion {
                if *node < self.nodes {
                    by_node.entry(*node).or_default().push((*epoch, *offset));
                }
            }
            for (node, mut epochs) in by_node {
                epochs.sort_by_key(|(epoch, _)| *epoch);
                let mut open = false;
                for (epoch, offset) in epochs {
                    let tick = epoch * self.congestion_period_ns;
                    if offset > threshold && !open {
                        events.events.push(Event {
                            seq: events.events.len() as u64,
                            core: node,
                            tick,
                            kind: EventKind::LinkCongestionStart,
                            arg: offset as u64,
                        });
                        open = true;
                    } else if offset <= threshold && open {
                        events.events.push(Event {
                            seq: events.events.len() as u64,
                            core: node,
                            tick,
                            kind: EventKind::LinkCongestionEnd,
                            arg: 0,
                        });
                        open = false;
                    }
                }
            }
            events.sort();
        }
        let run_trace = ClusterRunTrace {
            trace: tracer.drain(|_| String::new()),
            link_packets,
            link_peak_epoch_packets,
            ledger,
            timeseries: TimeSeries {
                interval_ticks: self.interval_ns,
                live_harvested: 0,
                stage_names: Vec::new(),
                intervals: buckets.into_values().collect(),
            },
            events,
        };
        (result, run_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReorderExperiment {
        ReorderExperiment {
            trace: TraceConfig {
                packets: 40_000,
                offered_bps: 10e9,
                ..TraceConfig::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn flowlets_mostly_avoid_reordering() {
        // §6.2: 0.15 % with the extension vs 5.5 % without.
        let exp = small();
        let with = exp.run(Policy::Flowlet);
        let without = exp.run(Policy::PerPacket);
        assert!(
            with.reorder_fraction < 0.01,
            "flowlet reordering {:.4}",
            with.reorder_fraction
        );
        assert!(
            without.reorder_fraction > 0.012,
            "per-packet reordering {:.4}",
            without.reorder_fraction
        );
        assert!(
            without.reorder_fraction > 8.0 * with.reorder_fraction,
            "expected an order-of-magnitude gap: {:.4} vs {:.4}",
            with.reorder_fraction,
            without.reorder_fraction
        );
    }

    #[test]
    fn load_balancing_actually_kicks_in() {
        // The experiment is only meaningful if the single path cannot
        // carry the trace (the paper's setup).
        let r = small().run(Policy::Flowlet);
        assert!(
            r.balanced_fraction > 0.5,
            "balanced fraction {:.2}",
            r.balanced_fraction
        );
    }

    #[test]
    fn results_are_deterministic() {
        let exp = small();
        assert_eq!(exp.run(Policy::Flowlet), exp.run(Policy::Flowlet));
        assert_eq!(exp.run(Policy::PerPacket), exp.run(Policy::PerPacket));
    }

    #[test]
    fn traced_run_matches_untraced_and_conserves_packets() {
        let exp = small();
        let (res, tr) = exp.run_traced(Policy::Flowlet, 64);
        // Tracing never perturbs the experiment.
        assert_eq!(res, exp.run(Policy::Flowlet));
        // Every replayed packet is accounted for.
        assert!(tr.ledger.balances(), "{:?}", tr.ledger);
        assert_eq!(tr.ledger.sourced, res.packets);
        assert_eq!(tr.ledger.forwarded, res.packets);
        assert!(tr.trace.traced_packets() > 0, "1/64 sampling traced some");
        // Sampled paths run ingress (node 0) → … → egress (node 1).
        let first_id = tr.trace.spans[0].event.trace_id;
        let path = tr.trace.path_of(first_id);
        assert!(path.len() >= 3, "ingress marker + ≥2 hops: {path:?}");
        assert_eq!(path[0].event.node, 0, "starts at the ingress node");
        assert_eq!(path.last().unwrap().event.node, 1, "ends at the egress");
        for span in &path {
            assert_eq!(span.event.kind, TraceKind::ClusterHop);
        }
        // Link accounting: the egress link carries every packet; each
        // balanced packet crossed exactly one intermediate link.
        assert_eq!(tr.link_packets[1], res.packets);
        let via: u64 = tr.link_packets.iter().sum::<u64>() - tr.link_packets[1];
        let balanced = (res.balanced_fraction * res.packets as f64).round() as u64;
        assert_eq!(via, balanced);
        for (link, peak) in tr.link_peak_epoch_packets.iter().enumerate() {
            assert!(*peak <= tr.link_packets[link], "epoch peak ≤ total");
        }
        // Nanosecond clock → microseconds at 1000 ticks/µs.
        let v = rb_telemetry::json::parse(&tr.trace.to_chrome_json(1000.0, None))
            .expect("cluster chrome JSON parses");
        assert!(v.get("traceEvents").is_some());
    }

    #[test]
    fn interval_series_buckets_the_replay_on_the_sim_clock() {
        let mut exp = small();
        exp.interval_ns = 1_000_000; // 1 ms of simulated time.
        let (res, tr) = exp.run_traced(Policy::Flowlet, 0);
        // The clock must not perturb the experiment.
        let mut plain = small();
        plain.interval_ns = 0;
        assert_eq!(res, plain.run(Policy::Flowlet));
        assert!(plain.run_traced(Policy::Flowlet, 0).1.timeseries.is_empty());
        // Conservation: both sides of every bucket sum to the ledger.
        let led = tr.timeseries.ledger();
        assert_eq!(led.sourced, tr.ledger.sourced);
        assert_eq!(led.forwarded, tr.ledger.forwarded);
        assert!(
            tr.timeseries.non_empty_intervals() >= 10,
            "a 40k-packet trace spans many ms"
        );
        // Buckets are fixed-width, ordered, and carry latency samples
        // whose p50 is around the configured hop latency scale.
        for w in tr.timeseries.intervals.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        let p50 = tr
            .timeseries
            .merged_latency()
            .quantile(0.50)
            .expect("deliveries recorded");
        assert!(
            (10_000..=200_000).contains(&p50),
            "median transit {p50} ns should be a few hop latencies"
        );
        // SLO machinery runs off the sim series with ns ticks.
        let spec = rb_telemetry::SloSpec::parse("loss:0.5").unwrap();
        let report = rb_telemetry::SloReport::evaluate(&spec, &tr.timeseries.intervals, 1e9);
        assert_eq!(report.state, rb_telemetry::SloState::Ok, "lossless replay");
    }

    #[test]
    fn untraced_run_keeps_counters_but_no_spans() {
        let (res, tr) = small().run_traced(Policy::PerPacket, 0);
        assert!(tr.trace.spans.is_empty());
        assert!(tr.ledger.balances());
        assert_eq!(tr.link_packets[1], res.packets);
    }

    #[test]
    fn zero_jitter_means_zero_reordering() {
        let mut exp = small();
        exp.hop_jitter_ns = 0.0;
        // With identical per-hop latency everywhere, direct (2-hop) and
        // balanced (3-hop) paths still differ — so some reordering can
        // remain under per-packet VLB, but flowlets see none.
        let with = exp.run(Policy::Flowlet);
        assert!(
            with.reorder_fraction < 0.005,
            "{:.4}",
            with.reorder_fraction
        );
    }
}
