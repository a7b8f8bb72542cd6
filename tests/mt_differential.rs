//! Differential tests: the multi-threaded graph runners against the
//! single-threaded batched router.
//!
//! For every builder preset, `workers = 1` multi-threaded execution must
//! produce **byte-identical per-port transmit streams** to the
//! single-threaded `Router` (sharding to one shard preserves order and a
//! replica starts from identical state), and `workers ∈ {2, 4}` must
//! produce an **identical multiset** of transmitted frames (flow sharding
//! changes interleaving, never content).

use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use routebricks::builder::RouterBuilder;
use routebricks::click::runtime::mt::run_graph;
use routebricks::click::{Knobs, Regime};
use routebricks::telemetry::Ledger;

/// Every MT run must conserve packets exactly: sourced = forwarded +
/// dropped + in-flight, with nothing left in flight after the drain.
fn assert_conserved(name: &str, ledger: &Ledger, sourced: u64) {
    assert!(ledger.balances(), "{name}: ledger {}", ledger.to_json());
    assert_eq!(ledger.sourced, sourced, "{name}: every packet sourced");
    assert_eq!(ledger.in_flight, 0, "{name}: nothing in flight after drain");
}

/// Varied-flow traffic: many distinct 5-tuples so RSS sharding spreads
/// work, with destinations split across the IP router's route set.
fn traffic(count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let dst_top = if i % 3 == 0 { 10u8 } else { 172 };
            PacketSpec::udp()
                .endpoints(
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(192, 168, (i >> 8) as u8, i as u8),
                        1024 + (i % 1000) as u16,
                    ),
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(dst_top, (i % 7) as u8, 1, 2),
                        80,
                    ),
                )
                .ttl(64)
                .build()
        })
        .collect()
}

fn presets() -> Vec<(&'static str, RouterBuilder)> {
    vec![
        ("minimal_forwarder", RouterBuilder::minimal_forwarder()),
        (
            "ip_router",
            RouterBuilder::ip_router()
                .route("10.0.0.0/9", 0)
                .route("0.0.0.0/0", 1),
        ),
    ]
}

/// Reference run: inject everything into port 0 of the single-threaded
/// router and collect per-port transmit streams.
fn reference_streams(builder: RouterBuilder, packets: &[Packet]) -> Vec<Vec<Vec<u8>>> {
    let mut r = builder.keep_tx_frames(true).build().unwrap();
    for pkt in packets {
        assert!(r.inject(0, pkt.clone()));
    }
    r.run_until_idle(u64::MAX);
    (0..r.ports())
        .map(|p| r.tx_frames(p).iter().map(|f| f.data().to_vec()).collect())
        .collect()
}

#[test]
fn workers_1_is_byte_identical_to_single_threaded_router() {
    let packets = traffic(2000);
    for (name, builder) in presets() {
        let reference = reference_streams(builder.clone(), &packets);
        let mt = builder.keep_tx_frames(true).workers(1).build_mt().unwrap();
        let outcome = mt.run(packets.clone()).unwrap();
        assert_eq!(
            outcome.egress.len(),
            mt.ports(),
            "{name}: one egress per port"
        );
        for (port, expect) in reference.iter().enumerate() {
            let got: Vec<Vec<u8>> = outcome.egress[port]
                .iter()
                .map(|f| f.data().to_vec())
                .collect();
            assert_eq!(
                &got, expect,
                "{name}: port {port} stream must be byte-identical with workers=1"
            );
        }
        assert_eq!(
            outcome.report.processed,
            reference.iter().map(|s| s.len() as u64).sum::<u64>(),
            "{name}: processed count must match the reference"
        );
        assert_conserved(name, &outcome.report.ledger, packets.len() as u64);
    }
}

#[test]
fn multi_worker_runs_transmit_the_same_frame_multiset() {
    let packets = traffic(2000);
    for (name, builder) in presets() {
        let reference = reference_streams(builder.clone(), &packets);
        for workers in [2usize, 4] {
            let mt = builder
                .clone()
                .keep_tx_frames(true)
                .workers(workers)
                .build_mt()
                .unwrap();
            let outcome = mt.run(packets.clone()).unwrap();
            assert_eq!(
                outcome.report.per_worker.len(),
                workers,
                "{name}: per-worker counts must cover all {workers} workers"
            );
            for (port, expect) in reference.iter().enumerate() {
                let mut expect: Vec<Vec<u8>> = expect.clone();
                let mut got: Vec<Vec<u8>> = outcome.egress[port]
                    .iter()
                    .map(|f| f.data().to_vec())
                    .collect();
                expect.sort();
                got.sort();
                assert_eq!(
                    got, expect,
                    "{name}: port {port} multiset must match with workers={workers}"
                );
            }
            assert_conserved(name, &outcome.report.ledger, packets.len() as u64);
        }
    }
}

#[test]
fn spsc_streaming_matches_parallel_multiset() {
    let packets = traffic(1500);
    for (name, builder) in presets() {
        let reference = reference_streams(builder.clone(), &packets);
        let mt = builder
            .keep_tx_frames(true)
            .workers(3)
            .regime(Regime::PullCredit)
            .build_mt()
            .unwrap();
        let outcome = mt.run(packets.clone()).unwrap();
        for (port, expect) in reference.iter().enumerate() {
            let mut expect: Vec<Vec<u8>> = expect.clone();
            let mut got: Vec<Vec<u8>> = outcome.egress[port]
                .iter()
                .map(|f| f.data().to_vec())
                .collect();
            expect.sort();
            got.sort();
            assert_eq!(
                got, expect,
                "{name}: port {port} multiset must match under streaming SPSC ingress"
            );
        }
        assert_conserved(name, &outcome.report.ledger, packets.len() as u64);
    }
}

#[test]
fn tiny_ring_backpressure_conserves_packets() {
    // A 2-batch ingress ring forces the dispatcher to block on ring-full
    // backpressure for almost the whole run; every stall-and-retry path
    // must still hand each packet to exactly one worker.
    let packets = traffic(1200);
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .regime(Regime::PullCredit)
        .build_mt()
        .unwrap();
    let knobs = Knobs {
        ring_depth: 2,
        ..*mt.knobs()
    };
    let outcome = run_graph(&[mt.graph()], packets, &knobs, None).unwrap();
    assert_eq!(outcome.report.processed, 1200);
    assert_conserved("tiny_ring", &outcome.report.ledger, 1200);
}
