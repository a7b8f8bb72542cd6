//! The NIC batching factor `kn` is a cost knob, never a semantics knob.
//! The paper's Table 1 varies `kn` to amortise descriptor writeback and
//! doorbells: throughput changes, the forwarded traffic does not. So at
//! every `kn`, under both regimes at every worker count, a run is held
//! to the one-packet-at-a-time reference (`oracle/mod.rs`) with an
//! exact ledger, and the only thing allowed to differ is the doorbell
//! count, which must fall as `kn` grows — by 8x from `kn = 1` to 16 on
//! one worker and on each ring — while every descriptor posted is
//! reclaimed.

mod oracle;

use oracle::*;
use proptest::prelude::*;
use rb_packet::Packet;
use routebricks::click::elements::{FromDevice, ToDevice};
use routebricks::click::{run_graph, Element, Knobs, OnePacket, Output};
use routebricks::Regime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The forwarder under both regimes at 1, 2 or 4 workers; the
    /// matrix in `dataplane_oracle.rs` draws `kn` for every corpus graph,
    /// single-threaded too.
    #[test]
    fn kn_never_changes_the_forwarded_multiset(
        count in 100usize..500,
        workers_idx in 0usize..3,
    ) {
        let workers = [1, 2, 4][workers_idx];
        let shape = corpus().swap_remove(0);
        let frames = traffic(count, 50, 64, false);
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            let doorbells = |kn| -> Result<u64, TestCaseError> {
                let knobs = Knobs {
                    nic_batch: kn,
                    regime,
                    workers,
                    ..Knobs::default()
                };
                let out = multi_threaded(&shape, &knobs, &frames, 50)?.unwrap();
                prop_assert_eq!(
                    out.report.ledger.dropped_total(), 0,
                    "{} kn={}: ample buffers, nothing drops", regime, kn
                );
                Ok(out.report.nic_doorbells)
            };
            let base = doorbells(1)?;
            for kn in [4, 16] {
                let rung = doorbells(kn)?;
                prop_assert!(
                    rung < base,
                    "{} kn={}: batched writeback must ring fewer doorbells ({} vs {} at kn=1)",
                    regime, kn, rung, base
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
        let mut rx = FromDevice::new(0, Some(32));
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

        let mut tx = ToDevice::new(Some(32), false);
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

/// Batched writeback rings fewer doorbells for the same frames in both
/// regimes at 1 and 2 workers; on one pull worker, where every frame
/// crosses one RX and one TX ring, `kn = 1` rings a doorbell per
/// descriptor and `kn = 16` at least 8x fewer.
#[test]
fn doorbells_amortise_by_kn() {
    let count = 512u64;
    let frames = traffic(count as usize, 32, 64, false);
    for regime in [Regime::PullCredit, Regime::Pipeline] {
        for workers in [1, 2] {
            let doorbells = |kn| {
                let knobs = Knobs {
                    nic_batch: kn,
                    regime,
                    workers,
                    ..Knobs::default()
                };
                let (graph, knobs) = corpus().swap_remove(0).graph(&knobs);
                run_graph(&graph, frames.clone(), &knobs, None)
                    .unwrap()
                    .report
                    .nic_doorbells
            };
            let (d1, d4, d16) = (doorbells(1), doorbells(4), doorbells(16));
            assert!(
                d16 < d4 && d4 < d1,
                "{regime} w{workers}: {d1} > {d4} > {d16}"
            );
            if (regime, workers) == (Regime::PullCredit, 1) {
                assert!(
                    d1 >= 2 * count,
                    "kn=1 pays a doorbell per descriptor on both rings (got {d1})"
                );
                assert!(
                    d16 * 8 <= d1,
                    "kn=16 must cut doorbells by at least 8x (kn=1: {d1}, kn=16: {d16})"
                );
            }
        }
    }
}
