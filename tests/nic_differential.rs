//! Differential check of the NIC batching factor `kn`: descriptor-ring
//! batching is a *cost* knob, never a *semantics* knob.
//!
//! The paper's Table 1 varies `kn` to amortise descriptor writeback and
//! doorbell cost; throughput changes, the forwarded traffic does not.
//! So for both scheduling regimes (pull and pipeline) and every
//! worker count, a run at `kn ∈ {4, 16}` must transmit the **identical
//! per-port frame multiset** as the `kn = 1` baseline, with the
//! conservation ledger balancing exactly on both sides. The only
//! permitted differences are in the NIC counters themselves: higher `kn`
//! must ring *fewer* doorbells for the same number of posted frames —
//! on each ring, as the element-level test below pins.

use proptest::prelude::*;
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use routebricks::builder::RouterBuilder;
use routebricks::click::elements::{FromDevice, ToDevice};
use routebricks::click::{Element, Output};
use routebricks::telemetry::Ledger;
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

fn run_with_kn(
    regime: Regime,
    workers: usize,
    kn: usize,
    packets: &[Packet],
) -> routebricks::click::GraphRunOutcome {
    RouterBuilder::minimal_forwarder()
        .workers(workers)
        .batch_size(32)
        .nic_batch(kn)
        .keep_tx_frames(true)
        .regime(regime)
        .build_mt()
        .unwrap()
        .run(packets.to_vec())
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Across both regimes and all worker counts, `kn ∈ {4, 16}` runs
    /// transmit the identical per-port frame multiset as the `kn = 1`
    /// baseline and conserve packets exactly — while ringing fewer
    /// doorbells for the same posted-frame volume.
    #[test]
    fn kn_never_changes_the_forwarded_multiset(
        count in 100usize..500,
        workers_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 4][workers_idx];
        let packets = traffic(count);
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            // Pipeline stages each re-source every packet at their own
            // ingress, so `sourced` scales with the stage count.
            let sourced = if regime == Regime::Pipeline {
                (count * workers) as u64
            } else {
                count as u64
            };
            let base = run_with_kn(regime, workers, 1, &packets);
            assert_conserved(regime.as_str(), &base.report.ledger, sourced);
            let reference = sorted_streams(&base.egress);
            for kn in [4usize, 16] {
                let out = run_with_kn(regime, workers, kn, &packets);
                assert_conserved(regime.as_str(), &out.report.ledger, sourced);
                prop_assert_eq!(
                    sorted_streams(&out.egress),
                    reference.clone(),
                    "{} kn={} must transmit the same frame multiset as kn=1",
                    regime, kn
                );
                prop_assert_eq!(
                    out.report.ledger.dropped_total(), 0,
                    "{} kn={}: ample buffers, nothing drops", regime, kn
                );
                prop_assert!(
                    out.report.nic_doorbells < base.report.nic_doorbells,
                    "{} kn={}: batched writeback must ring fewer doorbells \
                     ({} vs {} at kn=1)",
                    regime, kn, out.report.nic_doorbells, base.report.nic_doorbells
                );
            }
        }
    }
}

/// The ring invariants below the scheduler, on `FromDevice` / `ToDevice`
/// driven directly: across `kn` and ~64 wraparounds of a 64-deep ring,
/// every posted descriptor is reclaimed or still in the ring, every frame
/// arrives and none drops — the overflow waits on the wire as descriptor
/// stalls — and `kn = 16` rings at least 8x fewer doorbells than `kn = 1`
/// on each ring separately.
#[test]
fn rings_conserve_descriptors_and_amortise_per_ring() {
    const FRAMES: usize = 4_096;
    let frame = |i: usize| Packet::from_slice(&(i as u32).to_be_bytes());
    let mut doorbells = Vec::new();
    for kn in [1usize, 4, 16] {
        let mut rx = FromDevice::new(0, 32);
        rx.set_ring_depth(64);
        rx.set_nic_batch(kn);
        for i in 0..FRAMES {
            rx.inject(frame(i));
        }
        let mut out = Output::new();
        let mut polled = 0;
        while rx.run_task(&mut out) {
            polled += out.len();
            out.drain().for_each(drop);
        }
        let stats = rx.rx_ring_stats();
        assert_eq!(
            stats.posted,
            stats.reclaimed + rx.pending() as u64,
            "RX kn={kn}: posted != reclaimed + in-ring"
        );
        assert_eq!(polled, FRAMES, "RX kn={kn}: every frame polled");
        assert_eq!(
            rx.rx_dropped(),
            0,
            "RX kn={kn}: overload waits, never drops"
        );
        if kn == 1 {
            assert!(
                stats.stalls > 0,
                "a {FRAMES}-frame burst against a 64-deep ring must stall"
            );
        }

        let mut tx = ToDevice::new(32, false);
        tx.set_ring_depth(64);
        tx.set_nic_batch(kn);
        for i in 0..FRAMES {
            tx.push(0, frame(i), &mut out);
        }
        let tx_stats = tx.tx_ring_stats();
        assert_eq!(
            tx_stats.posted, tx_stats.reclaimed,
            "TX kn={kn}: posted != reclaimed with the ring drained"
        );
        assert_eq!(
            tx.sent_packets() as usize,
            FRAMES,
            "TX kn={kn}: every frame sent"
        );
        doorbells.push((stats.doorbells, tx_stats.doorbells));
    }
    let ((rx1, tx1), (rx16, tx16)) = (doorbells[0], doorbells[2]);
    assert!(
        rx16 * 8 <= rx1,
        "RX doorbells must amortise: kn=1 {rx1} vs kn=16 {rx16}"
    );
    assert!(
        tx16 * 8 <= tx1,
        "TX doorbells must amortise: kn=1 {tx1} vs kn=16 {tx16}"
    );
}

/// The doorbell count shrinks roughly in proportion to `kn` on a
/// single-worker run: every frame crosses one RX and one TX ring,
/// so kn=1 rings ~2 doorbells per packet while kn=16 rings ~2/16.
#[test]
fn doorbells_amortise_by_kn() {
    let count = 512usize;
    let packets = traffic(count);
    let d1 = run_with_kn(Regime::PullCredit, 1, 1, &packets)
        .report
        .nic_doorbells;
    let d16 = run_with_kn(Regime::PullCredit, 1, 16, &packets)
        .report
        .nic_doorbells;
    assert!(
        d1 >= 2 * count as u64,
        "kn=1 pays a doorbell per descriptor on both rings (got {d1})"
    );
    assert!(
        d16 * 8 <= d1,
        "kn=16 must cut doorbells by at least 8x (kn=1: {d1}, kn=16: {d16})"
    );
}
