//! A scheduling regime decides when and where packets run, never what
//! happens to them. Under pull, replicas each run the whole graph on a
//! share of the flows; under the pipeline, each stage runs it once more.
//! So a pull run must transmit each (port, flow) stream of the
//! one-packet-at-a-time reference (`oracle/mod.rs`) in order, and a
//! pipeline of `n` stages that of the reference applied `n` times, each
//! with an exact ledger. Under overload every gated ring stalls its
//! filler and nothing drops.

mod oracle;

use oracle::*;
use proptest::prelude::*;
use routebricks::builder::RouterBuilder;
use routebricks::click::Knobs;
use routebricks::telemetry::DropCause;
use routebricks::Regime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both regimes across worker counts, batch sizes and presets. The
    /// pipeline sources each packet once per stage (every stage's
    /// ingress re-admits it); pull's replicas source each exactly once.
    #[test]
    fn regimes_agree_on_output_multiset(
        count in 100usize..600,
        workers_idx in 0usize..3,
        scalar in any::<bool>(),
        app_idx in 0usize..3,
    ) {
        let workers = [1, 2, 4][workers_idx];
        let shape = presets().swap_remove(app_idx);
        let frames = traffic(count, 60, 64, false);
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            let knobs = Knobs {
                batch_size: if scalar { 1 } else { 32 },
                regime,
                workers,
                ..Knobs::default()
            };
            let out = multi_threaded(&shape, &knobs, &frames, 60)?.unwrap();
            let stages = if regime == Regime::Pipeline { workers } else { 1 };
            prop_assert_eq!(out.report.ledger.sourced, (stages * count) as u64);
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
/// deliver every frame in flow order, and both ledgers balance with
/// nothing in the `NoRxDescriptor` column.
#[test]
fn overload_stalls_every_gated_ring_and_drops_nothing() {
    let count = 600usize;
    let frames = traffic(count, 64, 64, false);
    let forwarder = corpus().swap_remove(0);
    for (regime, stages) in [(Regime::PullCredit, 1), (Regime::Pipeline, 2)] {
        let mt = RouterBuilder::minimal_forwarder()
            .workers(2)
            .batch_size(32)
            .poll_burst(64)
            .pool_slots(8)
            .keep_tx_frames(true)
            .regime(regime)
            .credit_window(32)
            .build_mt()
            .unwrap();
        let out = mt.run(frames.clone()).unwrap();
        let report = &out.report;
        let (want, booked) = reference(&forwarder, &frames, stages);
        // The pipeline's two stages each source every packet once.
        assert_eq!(ledger_shortfall(&report.ledger, &booked), Ok(0), "{regime}");
        assert_eq!(report.ledger.sourced, (stages * count) as u64);
        assert_eq!(
            diverges(&out.egress, &want, |seq| seq % 64, 0),
            None,
            "{regime}"
        );
        assert_eq!(
            report.ledger.dropped(DropCause::NoRxDescriptor),
            0,
            "{regime} must not drop at an RX descriptor boundary: {}",
            report.ledger.to_json()
        );
        assert!(
            report.credit_stalls > 0,
            "{regime} under 2x overload must stall its fillers"
        );
        assert!(
            report.credit_peak_outstanding <= 32,
            "{regime}: outstanding credit must stay within the window, got {}",
            report.credit_peak_outstanding
        );
        let delivered: u64 = out.egress.iter().map(|v| v.len() as u64).sum();
        assert_eq!(delivered, count as u64, "{regime} delivers everything");
        assert!(
            out.worker_stats.iter().all(|s| !s.fused),
            "{regime}: no quanta fuse"
        );
    }
}
