//! Shared infrastructure for the table/figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation, printing the paper's reported number next to the
//! model's output. The paper's numbers live in [`paper`] so integration
//! tests can assert the reproduction quality in one place.

pub mod paper {
    //! The numbers the paper reports, transcribed from the text.

    /// Table 1: (kp, kn, Gbps) for 64 B minimal forwarding.
    pub const TABLE1: [(u32, u32, f64); 3] = [(1, 1, 1.46), (32, 1, 4.97), (32, 16, 9.77)];

    /// Table 2 rows: (component, nominal Gbps, empirical Gbps);
    /// CPU row is in Gcycles/s.
    pub const TABLE2: [(&str, f64, f64); 5] = [
        ("CPUs (Gcycles/s)", 22.4, 22.4),
        ("Memory", 410.0, 262.0),
        ("Inter-socket link", 200.0, 144.34),
        ("I/O-socket links", 400.0, 117.0),
        ("PCIe buses (v1.1)", 64.0, 50.8),
    ];

    /// Table 3: (application, instructions/packet, cycles/instruction).
    pub const TABLE3: [(&str, f64, f64); 3] = [
        ("Minimal forwarding", 1_033.0, 1.19),
        ("IP routing", 1_512.0, 1.23),
        ("IPsec", 14_221.0, 0.55),
    ];

    /// Fig. 6 per-FP rates in Gbps: parallel, pipeline (shared L3),
    /// pipeline (across sockets), overlapping without MQ, with MQ.
    pub const FIG6_PARALLEL: f64 = 1.7;
    pub const FIG6_PIPELINE_SHARED: f64 = 1.2;
    pub const FIG6_PIPELINE_CROSS: f64 = 0.6;
    pub const FIG6_OVERLAP_NO_MQ: f64 = 0.7;
    pub const FIG6_OVERLAP_MQ: f64 = 1.7;

    /// Fig. 7 anchors: final rate and the improvement factors.
    pub const FIG7_FULL_MPPS: f64 = 18.96;
    pub const FIG7_VS_NEHALEM_BASE: f64 = 6.7;
    pub const FIG7_VS_XEON: f64 = 11.0;

    /// Fig. 8 headline rates (Gbps): (application, 64B, Abilene).
    pub const FIG8: [(&str, f64, f64); 3] = [
        ("Minimal forwarding", 9.7, 24.6),
        ("IP routing", 6.35, 24.6),
        ("IPsec", 1.4, 4.45),
    ];

    /// §5.3 next-generation projections (Gbps at 64 B).
    pub const SCALING: [(&str, f64); 3] = [
        ("Minimal forwarding", 38.8),
        ("IP routing", 19.9),
        ("IPsec", 5.8),
    ];

    /// §6.2 RB4 results.
    pub const RB4_64B_GBPS: f64 = 12.0;
    pub const RB4_ABILENE_GBPS: f64 = 35.0;
    pub const RB4_EXPECTED_64B_RANGE: (f64, f64) = (12.7, 19.4);
    pub const RB4_REORDER_WITH: f64 = 0.0015;
    pub const RB4_REORDER_WITHOUT: f64 = 0.055;
    pub const RB4_PER_SERVER_LATENCY_US: f64 = 24.0;
    pub const RB4_CLUSTER_LATENCY_US: (f64, f64) = (47.6, 66.4);

    /// §3.3 mesh feasibility limits per server configuration.
    pub const FIG3_MESH_LIMITS: [usize; 2] = [32, 128];
}

pub mod measured {
    //! Measured counterpart to the analytic tables: run the REAL element
    //! graphs on the multi-threaded runtime under the three Fig. 6
    //! regimes (per-core parallel replicas, chained pipeline stages,
    //! streaming SPSC ingress) and report what the host actually did.

    use routebricks::click::runtime::mt::run_graph;
    use routebricks::click::{Graph, Knobs, Regime};
    use routebricks::packet::builder::PacketSpec;
    use routebricks::packet::Packet;

    /// One regime's outcome on a real graph.
    pub struct RegimeRow {
        pub regime: &'static str,
        pub pps: f64,
        pub achieved_batch: f64,
        pub imbalance: f64,
    }

    /// Worker count for the measured runs: one per core, capped at the
    /// paper's 4 forwarding cores.
    pub fn workers() -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, 4)
    }

    /// Prints the single-core caveat (and returns the core count) so the
    /// bins stop producing misleading regime orderings on small hosts.
    pub fn warn_if_undersized() -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            eprintln!(
                "WARNING: only {cores} core(s) available (< 4); measured \
                 regime numbers reflect per-packet overheads, not per-core \
                 scaling, and their ordering is not meaningful."
            );
        }
        cores
    }

    /// 64 B UDP traffic with varied 5-tuples so RSS sharding spreads
    /// flows across the replicas.
    pub fn traffic(count: usize) -> Vec<Packet> {
        (0..count)
            .map(|i| {
                PacketSpec::udp()
                    .endpoints(
                        std::net::SocketAddrV4::new(
                            std::net::Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                            1024 + (i % 50_000) as u16,
                        ),
                        std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(192, 168, 0, 1), 80),
                    )
                    .frame_len(64)
                    .build()
            })
            .collect()
    }

    /// Runs one graph under all three regimes and reports pps, achieved
    /// kp batch size across the thread hop, and shard imbalance.
    pub fn run_regimes(
        make_graph: &dyn Fn() -> Graph,
        workers: usize,
        packets: &[Packet],
    ) -> Vec<RegimeRow> {
        let on = |regime| Knobs {
            regime,
            workers,
            ..Knobs::default()
        };
        let row = |regime, outcome: routebricks::click::GraphRunOutcome| RegimeRow {
            regime,
            pps: outcome.report.pps(),
            achieved_batch: outcome.report.achieved_batch(),
            imbalance: outcome.report.imbalance(),
        };
        let graph = make_graph();
        let parallel = run_graph(&[&graph], packets.to_vec(), &on(Regime::Push), None)
            .expect("graph must replicate");
        let spsc = run_graph(&[&graph], packets.to_vec(), &on(Regime::Spsc), None)
            .expect("graph must replicate");
        let pipeline = run_graph(&[&graph], packets.to_vec(), &on(Regime::Pipeline), None)
            .expect("stages must replicate");
        vec![
            row("parallel replicas", parallel),
            row("spsc streaming", spsc),
            row("pipeline stages", pipeline),
        ]
    }
}

/// Formats a measured-vs-paper pair with the relative deviation.
pub fn compare(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:.2} (paper: n/a)");
    }
    let dev = (measured / paper - 1.0) * 100.0;
    format!("{measured:.2} (paper {paper:.2}, {dev:+.1}%)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_formats_deviation() {
        let s = compare(9.33, 9.7);
        assert!(s.contains("9.33"));
        assert!(s.contains("-3.8%"));
        assert!(compare(1.0, 0.0).contains("n/a"));
    }
}
