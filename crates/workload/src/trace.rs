//! Synthetic packet traces.
//!
//! A [`SynthTrace`] is a time-ordered list of lightweight packet records
//! (arrival time, size, flow, per-flow sequence number). Experiments that
//! need real frames materialise them on demand via
//! [`TracePacket::materialize`]; simulator experiments that only need
//! loads consume the records directly, which keeps multi-million-packet
//! runs cheap.

use crate::flows::{FlowGenConfig, FlowGenerator};
use crate::sizes::SizeDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rb_packet::builder::PacketSpec;
use rb_packet::flow::FiveTuple;
use rb_packet::Packet;

/// One record in a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePacket {
    /// Arrival time in nanoseconds from trace start.
    pub arrival_ns: u64,
    /// Ethernet frame size in bytes.
    pub size: usize,
    /// Transport flow the packet belongs to.
    pub flow: FiveTuple,
    /// 0-based sequence number of this packet within its flow.
    pub flow_seq: u32,
}

impl TracePacket {
    /// Builds the real Ethernet frame for this record (TCP for proto 6,
    /// UDP otherwise), carrying the flow's addresses and the sequence
    /// number (TCP `seq` field).
    pub fn materialize(&self) -> Packet {
        let src = format!(
            "{}:{}",
            std::net::Ipv4Addr::from(self.flow.src_ip),
            self.flow.src_port
        );
        let dst = format!(
            "{}:{}",
            std::net::Ipv4Addr::from(self.flow.dst_ip),
            self.flow.dst_port
        );
        let spec = if self.flow.proto == 6 {
            PacketSpec::tcp(self.flow_seq)
        } else {
            PacketSpec::udp()
        };
        let mut pkt = spec
            .src(&src)
            .expect("generated address is valid")
            .dst(&dst)
            .expect("generated address is valid")
            .frame_len(self.size)
            .build();
        pkt.meta.rx_ns = self.arrival_ns;
        pkt
    }
}

/// Packet arrival processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson (exponential inter-arrival) at the offered rate.
    Poisson,
    /// Constant spacing at the offered rate.
    Constant,
    /// On/off bursts: during a burst, `burst_packets` arrive at
    /// `peak_factor` times the offered rate, followed by an idle gap
    /// sized so the long-run mean equals the offered rate. The
    /// burst-tolerance stressor for queues and meters.
    OnOff {
        /// Packets per burst.
        burst_packets: usize,
        /// Peak-to-mean rate ratio during a burst (must exceed 1).
        peak_factor: f64,
    },
}

/// Configuration for trace synthesis.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Total packets to generate.
    pub packets: usize,
    /// Offered load in bits per second (drives inter-arrival times).
    pub offered_bps: f64,
    /// Frame-size distribution.
    pub sizes: SizeDist,
    /// Flow population parameters.
    pub flows: FlowGenConfig,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// RNG seed (independent of the flow seed).
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            packets: 100_000,
            offered_bps: 10e9,
            sizes: SizeDist::abilene(),
            flows: FlowGenConfig::default(),
            arrivals: Arrivals::Poisson,
            seed: 0x7ace,
        }
    }
}

/// A generated trace.
#[derive(Debug, Clone)]
pub struct SynthTrace {
    /// Records in non-decreasing arrival order.
    pub packets: Vec<TracePacket>,
}

impl SynthTrace {
    /// Generates a trace per `config`.
    ///
    /// Flows are weighted by their Pareto packet budget: an elephant flow
    /// contributes proportionally many packets, interleaved with the rest,
    /// mirroring how flows share a real link.
    pub fn generate(config: &TraceConfig) -> SynthTrace {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = FlowGenerator::new(config.flows.clone()).generate();
        let mean_gap_ns = (config.sizes.mean() * 8.0) / config.offered_bps * 1e9;

        // Remaining packet budget and next sequence number per flow.
        let mut budget: Vec<usize> = population.iter().map(|f| f.packets).collect();
        let mut next_seq: Vec<u32> = vec![0; population.len()];
        // Weighted index: pick flows proportionally to remaining budget,
        // approximated by a simple alias over the initial budgets with
        // rejection on exhausted flows (cheap and good enough).
        let total_budget: usize = budget.iter().sum();

        let mut out = Vec::with_capacity(config.packets);
        let mut now_ns = 0f64;
        for pkt_index in 0..config.packets {
            let gap = match config.arrivals {
                // Inverse-transform exponential sample.
                Arrivals::Poisson => -mean_gap_ns * (1.0 - rng.gen::<f64>()).ln(),
                Arrivals::Constant => mean_gap_ns,
                Arrivals::OnOff {
                    burst_packets,
                    peak_factor,
                } => {
                    assert!(peak_factor > 1.0, "peak factor must exceed 1");
                    let burst_packets = burst_packets.max(1);
                    if pkt_index % burst_packets == 0 && pkt_index > 0 {
                        // Idle gap: the time the burst "saved" relative to
                        // the mean spacing, so the long-run rate holds.
                        let burst_gap = mean_gap_ns / peak_factor;
                        mean_gap_ns * burst_packets as f64 - burst_gap * (burst_packets - 1) as f64
                    } else {
                        mean_gap_ns / peak_factor
                    }
                }
            };
            now_ns += gap;

            // Pick a flow weighted by original budget; retry on exhausted.
            let flow_idx = loop {
                let mut x = rng.gen_range(0..total_budget);
                let mut idx = 0;
                for (i, f) in population.iter().enumerate() {
                    if x < f.packets {
                        idx = i;
                        break;
                    }
                    x -= f.packets;
                }
                if budget[idx] > 0 {
                    break idx;
                }
                // All budgets exhausted? Reset them (trace longer than
                // population): flows simply restart.
                if budget.iter().all(|&b| b == 0) {
                    for (b, f) in budget.iter_mut().zip(&population) {
                        *b = f.packets;
                    }
                }
            };
            budget[flow_idx] -= 1;
            let seq = next_seq[flow_idx];
            next_seq[flow_idx] += 1;

            // A sum of non-negative gaps from 0, below 2^64 ns for 584
            // years (and `as` saturates past it).
            debug_assert!((0.0..1.8e19).contains(&now_ns));
            #[allow(clippy::cast_possible_truncation)]
            let arrival_ns = now_ns as u64;
            out.push(TracePacket {
                arrival_ns,
                size: config.sizes.sample(&mut rng),
                flow: population[flow_idx].tuple,
                flow_seq: seq,
            });
        }
        SynthTrace { packets: out }
    }

    /// Total bytes in the trace.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.size as u64).sum()
    }

    /// Duration between first and last arrival, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(f), Some(l)) => l.arrival_ns - f.arrival_ns,
            _ => 0,
        }
    }

    /// Achieved offered load in bits per second.
    pub fn offered_bps(&self) -> f64 {
        let d = self.duration_ns();
        if d == 0 {
            return 0.0;
        }
        (self.total_bytes() as f64 * 8.0) / (d as f64 / 1e9)
    }

    /// Number of distinct flows that appear in the trace.
    pub fn flow_count(&self) -> usize {
        self.packets
            .iter()
            .map(|p| p.flow)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            packets: 20_000,
            flows: FlowGenConfig {
                flows: 200,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn trace_is_time_ordered() {
        let t = SynthTrace::generate(&small_config());
        assert!(t
            .packets
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
    }

    #[test]
    fn offered_load_matches_request() {
        let t = SynthTrace::generate(&small_config());
        let achieved = t.offered_bps();
        assert!(
            (achieved - 10e9).abs() / 10e9 < 0.05,
            "offered {achieved:.3e} vs requested 1e10"
        );
    }

    #[test]
    fn per_flow_sequence_numbers_are_contiguous() {
        let t = SynthTrace::generate(&small_config());
        let mut seen: std::collections::HashMap<FiveTuple, u32> = Default::default();
        for p in &t.packets {
            let next = seen.entry(p.flow).or_insert(0);
            assert_eq!(p.flow_seq, *next, "flow {:?} out of sequence", p.flow);
            *next += 1;
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthTrace::generate(&small_config());
        let b = SynthTrace::generate(&small_config());
        assert_eq!(a.packets, b.packets);
    }

    #[test]
    fn constant_spacing_when_not_poisson() {
        let cfg = TraceConfig {
            arrivals: Arrivals::Constant,
            packets: 100,
            sizes: SizeDist::Fixed(64),
            ..small_config()
        };
        let t = SynthTrace::generate(&cfg);
        let gaps: Vec<u64> = t
            .packets
            .windows(2)
            .map(|w| w[1].arrival_ns - w[0].arrival_ns)
            .collect();
        let first = gaps[0];
        assert!(gaps.iter().all(|&g| g.abs_diff(first) <= 1));
    }

    #[test]
    fn materialize_produces_valid_frames() {
        let t = SynthTrace::generate(&TraceConfig {
            packets: 50,
            ..small_config()
        });
        for rec in &t.packets {
            let pkt = rec.materialize();
            assert_eq!(pkt.len(), rec.size.max(54));
            let tuple = FiveTuple::of_ethernet_frame(pkt.data()).unwrap();
            assert_eq!(tuple, rec.flow);
        }
    }

    #[test]
    fn on_off_bursts_keep_the_mean_rate() {
        let cfg = TraceConfig {
            arrivals: Arrivals::OnOff {
                burst_packets: 32,
                peak_factor: 8.0,
            },
            packets: 20_000,
            sizes: SizeDist::Fixed(64),
            ..small_config()
        };
        let t = SynthTrace::generate(&cfg);
        let achieved = t.offered_bps();
        assert!(
            (achieved - 10e9).abs() / 10e9 < 0.05,
            "bursty mean {achieved:.3e}"
        );
        // Gaps are bimodal: short intra-burst, long inter-burst.
        let gaps: Vec<u64> = t
            .packets
            .windows(2)
            .map(|w| w[1].arrival_ns - w[0].arrival_ns)
            .collect();
        let short = gaps.iter().filter(|&&g| g < 20).count();
        let long = gaps.iter().filter(|&&g| g > 200).count();
        assert!(short > gaps.len() / 2, "intra-burst gaps dominate");
        assert!(long > 100, "idle gaps exist: {long}");
    }

    #[test]
    fn uses_many_flows() {
        let t = SynthTrace::generate(&small_config());
        assert!(t.flow_count() > 100);
    }
}
