//! Differential tests: the four scheduling regimes against each other.
//!
//! A scheduling regime decides *when and where* packets run, never *what*
//! happens to them. For the minimal-forwarder preset (whose per-packet
//! transform is idempotent, so a pipeline of identical stages computes
//! the same function as a star of replicas), every regime — push, spsc,
//! pipeline and pull — must transmit the **identical multiset** of
//! frames per port, and every regime's conservation ledger must balance
//! exactly: sourced = forwarded + dropped + in-flight, with nothing left
//! in flight after the drain.
//!
//! The overload case is where the regimes legitimately diverge: with a
//! tiny packet arena and an oversized poll burst, push admits blindly
//! and sheds the excess as `NoRxDescriptor` drops, while pull holds the
//! excess behind a credit window and *stalls* — same ledger discipline,
//! different drop column. Stalled is not dropped.

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

    /// All four regimes transmit the identical per-port frame multiset
    /// and conserve packets exactly, across worker counts and batch
    /// sizes. The pipeline regime sources each packet once per stage
    /// (every stage's ingress re-admits it), so its `sourced` scales
    /// with the worker count; the star regimes source each exactly once.
    #[test]
    fn regimes_agree_on_output_multiset(
        count in 100usize..600,
        workers_idx in 0usize..3,
        scalar in any::<bool>(),
    ) {
        let workers = [1usize, 2, 4][workers_idx];
        let kp = if scalar { 1 } else { 32 };
        let packets = traffic(count);
        let reference = {
            let out = run_regime(Regime::Push, workers, kp, &packets);
            assert_conserved("push", &out.report.ledger, count as u64);
            sorted_streams(&out.egress)
        };
        for regime in [Regime::Spsc, Regime::Pipeline, Regime::PullCredit] {
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
                "{} must transmit the same frame multiset as push", regime
            );
            prop_assert_eq!(
                out.report.ledger.dropped_total(), 0,
                "{}: ample buffers, nothing drops", regime
            );
        }
    }
}

/// Tiny-arena overload: each replica's 8-slot pool is hit with 64-packet
/// bursts. Push sheds the excess as `NoRxDescriptor` drops; pull holds it
/// behind the credit window and stalls instead, delivering every frame.
/// Both ledgers balance — the difference shows up in *which* column —
/// and the frames pull holds back wait: on ≥ 4 cores its p99 is not
/// below push's.
#[test]
fn overload_pull_stalls_where_push_drops() {
    let count = 600usize;
    let packets = traffic(count);
    let overloaded = |regime: Regime, trace: u64| {
        RouterBuilder::minimal_forwarder()
            .workers(2)
            .batch_size(32)
            .poll_burst(64)
            .pool_slots(8)
            .keep_tx_frames(true)
            .regime(regime)
            .credit_window(32)
            .trace_sample(trace)
            .build_mt()
            .unwrap()
            .run(packets.clone())
            .unwrap()
    };

    let push = overloaded(Regime::Push, 0);
    assert_conserved("push", &push.report.ledger, count as u64);
    assert!(
        push.report.ledger.dropped(DropCause::NoRxDescriptor) > 0,
        "push under 2x overload must shed load: {}",
        push.report.ledger.to_json()
    );
    assert_eq!(push.report.credit_stalls, 0, "push never stalls");

    let pull = overloaded(Regime::PullCredit, 0);
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

    // Tail latency, from separate runs that trace every packet (push
    // delivers too few for a sample to hold one). With fewer cores than
    // threads the scheduler's noise swamps the regimes' difference.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipped: pull p99 >= push p99 needs 4 cores, this host has {cores}");
        return;
    }
    let p99 = |regime| overloaded(regime, 1).trace.latency_percentiles().1;
    let (push_p99, pull_p99) = (p99(Regime::Push), p99(Regime::PullCredit));
    assert!(push_p99 > 0, "push's survivors carry latencies");
    assert!(
        pull_p99 >= push_p99,
        "pull p99 {pull_p99} ticks undercuts push p99 {push_p99} ticks under 2x overload"
    );
}
