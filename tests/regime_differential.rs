//! Differential tests: the two scheduling regimes against each other.
//!
//! A scheduling regime decides *when and where* packets run, never *what*
//! happens to them. For the minimal-forwarder preset (whose per-packet
//! transform is idempotent, so a pipeline of identical stages computes
//! the same function as a star of replicas), both regimes — pull and
//! pipeline — must transmit the **identical multiset** of frames per
//! port, and each regime's conservation ledger must balance exactly:
//! sourced = forwarded + dropped + in-flight, with nothing left in
//! flight after the drain.
//!
//! The overload case holds both to the same discipline: with a tiny
//! packet arena and an oversized poll burst, every ring's credit window
//! holds the excess and its filler *stalls* — the dispatcher under pull,
//! the dispatcher and each upstream stage under the pipeline — so
//! nothing is shed as `NoRxDescriptor`. Stalled is not dropped.

use proptest::prelude::*;
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use routebricks::builder::RouterBuilder;
use routebricks::telemetry::{DropCause, Ledger};
use routebricks::Regime;

/// Varied-flow traffic: distinct 5-tuples so flow sharding spreads work
/// across workers.
fn traffic(count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            PacketSpec::udp()
                .endpoints(
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(192, 168, (i >> 8) as u8, i as u8),
                        1024 + (i % 1000) as u16,
                    ),
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(10, (i % 7) as u8, 1, 2),
                        80,
                    ),
                )
                .ttl(64)
                .build()
        })
        .collect()
}

fn assert_conserved(name: &str, ledger: &Ledger, sourced: u64) {
    assert!(ledger.balances(), "{name}: ledger {}", ledger.to_json());
    assert_eq!(ledger.sourced, sourced, "{name}: every packet sourced");
    assert_eq!(ledger.in_flight, 0, "{name}: nothing in flight after drain");
}

/// Per-port multiset of transmitted frame bytes, sorted for comparison.
fn sorted_streams(egress: &[Vec<Packet>]) -> Vec<Vec<Vec<u8>>> {
    egress
        .iter()
        .map(|port| {
            let mut frames: Vec<Vec<u8>> = port.iter().map(|f| f.data().to_vec()).collect();
            frames.sort();
            frames
        })
        .collect()
}

fn run_regime(
    regime: Regime,
    workers: usize,
    kp: usize,
    packets: &[Packet],
) -> routebricks::click::GraphRunOutcome {
    RouterBuilder::minimal_forwarder()
        .workers(workers)
        .batch_size(kp)
        .keep_tx_frames(true)
        .regime(regime)
        .build_mt()
        .unwrap()
        .run(packets.to_vec())
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both regimes transmit the identical per-port frame multiset — a
    /// second pull run's, so pull is held to itself too — and conserve
    /// packets exactly, across worker counts and batch sizes. The
    /// pipeline regime sources each packet once per stage (every stage's
    /// ingress re-admits it), so its `sourced` scales with the worker
    /// count; pull's replicas source each exactly once.
    #[test]
    fn regimes_agree_on_output_multiset(
        count in 100usize..600,
        workers_idx in 0usize..3,
        scalar in any::<bool>(),
    ) {
        let workers = [1usize, 2, 4][workers_idx];
        let kp = if scalar { 1 } else { 32 };
        let packets = traffic(count);
        let reference = sorted_streams(&run_regime(Regime::PullCredit, workers, kp, &packets).egress);
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            let out = run_regime(regime, workers, kp, &packets);
            let sourced = if regime == Regime::Pipeline {
                (count * workers) as u64
            } else {
                count as u64
            };
            assert_conserved(regime.as_str(), &out.report.ledger, sourced);
            prop_assert_eq!(
                sorted_streams(&out.egress),
                reference.clone(),
                "{} must transmit the same frame multiset as pull", regime
            );
            prop_assert_eq!(
                out.report.ledger.dropped_total(), 0,
                "{}: ample buffers, nothing drops", regime
            );
        }
    }
}

/// Tiny-arena overload: each replica's 8-slot pool is hit with 64-packet
/// bursts. Pull holds the excess behind the credit window and stalls the
/// dispatcher; the pipeline holds it the same way at every hop. Both
/// deliver every frame, and both ledgers balance with nothing in the
/// `NoRxDescriptor` column.
#[test]
fn overload_pull_stalls_where_push_drops() {
    let count = 600usize;
    let packets = traffic(count);
    let overloaded = |regime: Regime| {
        RouterBuilder::minimal_forwarder()
            .workers(2)
            .batch_size(32)
            .poll_burst(64)
            .pool_slots(8)
            .keep_tx_frames(true)
            .regime(regime)
            .credit_window(32)
            .build_mt()
            .unwrap()
            .run(packets.clone())
            .unwrap()
    };

    let pull = overloaded(Regime::PullCredit);
    assert_conserved("pull", &pull.report.ledger, count as u64);
    assert_eq!(
        pull.report.ledger.dropped(DropCause::NoRxDescriptor),
        0,
        "pull must not drop at the RX descriptor boundary: {}",
        pull.report.ledger.to_json()
    );
    assert!(
        pull.report.credit_stalls > 0,
        "pull under 2x overload must stall the dispatcher"
    );
    assert!(
        pull.report.credit_peak_outstanding <= 32,
        "outstanding credit must stay within the window, got {}",
        pull.report.credit_peak_outstanding
    );
    let delivered: u64 = pull.egress.iter().map(|v| v.len() as u64).sum();
    assert_eq!(delivered, count as u64, "pull delivers everything");
    for stats in &pull.worker_stats {
        assert!(!stats.fused, "no worker may exit on the quanta fuse");
    }

    // The pipeline's two stages each source every packet once.
    let pipeline = overloaded(Regime::Pipeline);
    assert_conserved("pipeline", &pipeline.report.ledger, 2 * count as u64);
    assert_eq!(
        pipeline.report.ledger.dropped(DropCause::NoRxDescriptor),
        0,
        "the pipeline must not drop at any stage's RX descriptor boundary: {}",
        pipeline.report.ledger.to_json()
    );
    assert!(
        pipeline.report.credit_stalls > 0,
        "the pipeline under 2x overload must stall its fillers"
    );
    assert!(
        pipeline.report.credit_peak_outstanding <= 32,
        "outstanding credit must stay within the window on every hop, got {}",
        pipeline.report.credit_peak_outstanding
    );
    let delivered: u64 = pipeline.egress.iter().map(|v| v.len() as u64).sum();
    assert_eq!(delivered, count as u64, "the pipeline delivers everything");
    for stats in &pipeline.worker_stats {
        assert!(!stats.fused, "no stage may exit on the quanta fuse");
    }
}
