//! Flow populations with heavy-tailed sizes.
//!
//! The reordering experiment (§6.2) needs traffic with realistic flow
//! structure: many short flows, a few elephants carrying most bytes.
//! [`FlowGenerator`] produces a population of five-tuples with
//! Pareto-distributed packet counts, which the trace generator then
//! interleaves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rb_packet::flow::FiveTuple;

/// Configuration of a flow population.
#[derive(Debug, Clone)]
pub struct FlowGenConfig {
    /// Number of distinct flows.
    pub flows: usize,
    /// Pareto shape parameter (1 < α ≤ 2 gives heavy tails; backbone
    /// measurements typically fit α ≈ 1.2–1.5).
    pub pareto_shape: f64,
    /// Minimum packets per flow (Pareto scale parameter).
    pub min_packets: usize,
    /// Fraction of flows that are TCP (the remainder UDP).
    pub tcp_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlowGenConfig {
    fn default() -> Self {
        FlowGenConfig {
            flows: 1000,
            pareto_shape: 1.3,
            min_packets: 2,
            tcp_fraction: 0.9,
            seed: 0xf10e5,
        }
    }
}

/// One generated flow: its key and how many packets it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// The transport five-tuple.
    pub tuple: FiveTuple,
    /// Total packets in the flow.
    pub packets: usize,
}

/// Generates flow populations.
#[derive(Debug)]
pub struct FlowGenerator {
    config: FlowGenConfig,
}

impl FlowGenerator {
    /// The most flows a population may hold: each flow's source address
    /// is `10.0.0.0/8` plus its index, which has 24 bits.
    pub const MAX_FLOWS: usize = 1 << 24;

    /// Creates a generator from a config.
    ///
    /// # Panics
    ///
    /// Panics on a shape of 1 or less, no packets per flow, or more than
    /// [`FlowGenerator::MAX_FLOWS`] flows.
    pub fn new(config: FlowGenConfig) -> FlowGenerator {
        assert!(
            config.pareto_shape > 1.0,
            "shape must exceed 1 for a finite mean"
        );
        assert!(config.min_packets >= 1, "flows need at least one packet");
        assert!(
            config.flows <= Self::MAX_FLOWS,
            "at most {} flows have distinct source addresses, not {}",
            Self::MAX_FLOWS,
            config.flows
        );
        FlowGenerator { config }
    }

    /// Generates the flow population.
    pub fn generate(&self) -> Vec<Flow> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        (0..self.config.flows)
            .map(|i| {
                let tcp = rng.gen_bool(self.config.tcp_fraction);
                // Distinct, stable addresses per flow index; ephemeral
                // source ports, well-known-ish destination ports.
                let tuple = FiveTuple {
                    src_ip: 0x0a00_0000 | u32::try_from(i).expect("new() caps flows at 2^24"),
                    dst_ip: 0xc0a8_0000 | rng.gen_range(0..0xffffu32),
                    src_port: rng.gen_range(1024..=65535),
                    dst_port: *[80u16, 443, 53, 8080, 25]
                        .get(rng.gen_range(0..5usize))
                        .expect("index in range"),
                    proto: if tcp { 6 } else { 17 },
                };
                Flow {
                    tuple,
                    packets: self.sample_pareto(&mut rng),
                }
            })
            .collect()
    }

    /// Samples a Pareto-distributed packet count via inverse transform.
    fn sample_pareto(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let x = self.config.min_packets as f64 / u.powf(1.0 / self.config.pareto_shape);
        // At least `min_packets`, since u < 1; `as` saturates a huge draw,
        // and the cap keeps one flow from dominating an experiment.
        debug_assert!(x >= 1.0);
        #[allow(clippy::cast_possible_truncation)]
        let packets = x as usize;
        packets.clamp(self.config.min_packets, 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Up to 2^24 flows construct; one more would alias flow 0's source
    /// address, and is refused. Nothing is generated.
    #[test]
    fn flows_past_the_source_address_space_are_refused() {
        let builds = |flows| {
            std::panic::catch_unwind(|| {
                FlowGenerator::new(FlowGenConfig {
                    flows,
                    ..FlowGenConfig::default()
                })
            })
            .is_ok()
        };
        let n = FlowGenerator::MAX_FLOWS;
        assert!(builds(n - 1));
        assert!(builds(n));
        assert!(!builds(n + 1));
    }

    #[test]
    fn generates_requested_flow_count() {
        let flows = FlowGenerator::new(FlowGenConfig::default()).generate();
        assert_eq!(flows.len(), 1000);
    }

    #[test]
    fn flows_are_distinct_and_deterministic() {
        let cfg = FlowGenConfig::default();
        let a = FlowGenerator::new(cfg.clone()).generate();
        let b = FlowGenerator::new(cfg).generate();
        assert_eq!(a, b);
        let tuples: std::collections::HashSet<_> = a.iter().map(|f| f.tuple).collect();
        assert!(tuples.len() > 990, "flows should be essentially unique");
    }

    #[test]
    fn packet_counts_are_heavy_tailed() {
        let flows = FlowGenerator::new(FlowGenConfig {
            flows: 10_000,
            ..Default::default()
        })
        .generate();
        let mut counts: Vec<usize> = flows.iter().map(|f| f.packets).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top1pct: usize = counts[..100].iter().sum();
        // Heavy tail: top 1% of flows should carry a disproportionate
        // share of packets (far more than 1%).
        assert!(
            top1pct as f64 / total as f64 > 0.15,
            "top 1% carries {:.1}%",
            100.0 * top1pct as f64 / total as f64
        );
        assert!(counts.iter().all(|&c| c >= 2));
    }

    #[test]
    fn tcp_fraction_is_respected() {
        let flows = FlowGenerator::new(FlowGenConfig {
            flows: 5000,
            tcp_fraction: 0.5,
            ..Default::default()
        })
        .generate();
        let tcp = flows.iter().filter(|f| f.tuple.proto == 6).count();
        let frac = tcp as f64 / flows.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "TCP fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn shape_validation() {
        FlowGenerator::new(FlowGenConfig {
            pareto_shape: 0.9,
            ..Default::default()
        });
    }
}
