//! The packet arena is an allocation strategy, never a semantics knob:
//! for every builder preset and batch size `kp`, a router whose devices
//! allocate from a [`rb_packet::PacketPool`] transmits what the
//! one-packet-at-a-time reference does, port by port and in order, as
//! the same router on heap buffers must. Held to the dataplane oracle
//! (`oracle/mod.rs`), then the arena's own counters: heap fallback,
//! exhaustion and recovery, and every slot returned.

mod oracle;

use oracle::*;
use proptest::prelude::*;
use rb_packet::Packet;
use routebricks::builder::RouterBuilder;
use routebricks::click::Knobs;
use routebricks::telemetry::DropCause;
use routebricks::Regime;

/// An arena large enough that keeping every transmitted frame never
/// exhausts it.
const AMPLE_SLOTS: usize = 4096;

#[test]
fn arena_matches_heap_for_every_app_and_kp() {
    let frames = traffic(300, 40, 64, true);
    for shape in presets() {
        for kp in [1, 8, 32] {
            for pool_slots in [0, AMPLE_SLOTS] {
                let knobs = Knobs {
                    batch_size: kp,
                    pool_slots,
                    ..Knobs::default()
                };
                single_threaded(&shape, &knobs, &frames, true).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traffic shape × preset × kp, pooled, against the reference.
    #[test]
    fn prop_arena_streams_match_heap(
        count in 1usize..120,
        size in 60usize..400,
        kp_idx in 0usize..3,
        app_idx in 0usize..3,
    ) {
        let knobs = Knobs {
            batch_size: [1, 8, 32][kp_idx],
            pool_slots: AMPLE_SLOTS,
            ..Knobs::default()
        };
        let shape = presets().swap_remove(app_idx);
        single_threaded(&shape, &knobs, &traffic(count, count, size, false), false)?;
    }
}

/// Pooled replicas under both regimes: one worker matches the reference
/// per port, two per flow — except IPsec at two pull workers, which
/// `multi_threaded` asserts to diverge (ROADMAP, "Shard-safety") — and
/// the report surfaces the arena's allocations.
#[test]
fn mt_arena_matches_heap_reference() {
    let frames = traffic(600, 60, 64, false);
    for shape in presets() {
        for regime in [Regime::PullCredit, Regime::Pipeline] {
            for workers in [1, 2] {
                let knobs = Knobs {
                    pool_slots: AMPLE_SLOTS,
                    regime,
                    workers,
                    ..Knobs::default()
                };
                let out = multi_threaded(&shape, &knobs, &frames, 60)
                    .unwrap()
                    .unwrap();
                assert!(
                    out.report.pool_allocs > 0,
                    "{}: the report must surface arena allocations",
                    shape.name()
                );
            }
        }
    }
}

/// Frames larger than a slot's payload room (192 − headroom − tailroom
/// = 64 bytes) deflect to heap buffers, counted, and still match.
#[test]
fn oversize_frames_fall_back_to_heap_and_still_match() {
    let mut frames = traffic(60, 60, 64, false);
    frames.splice(30.., traffic(60, 60, 250, false).split_off(30));
    let forwarder = corpus().swap_remove(0);
    let knobs = Knobs {
        pool_slots: 256,
        slot_size: 192,
        ..Knobs::default()
    };
    single_threaded(&forwarder, &knobs, &frames, false).unwrap();
    let run = run_st(
        forwarder.graph(&knobs).0,
        &knobs,
        &frames.iter().map(|p| (0, p.clone())).collect::<Vec<_>>(),
    );
    assert_eq!(
        run.totals.pool_fallbacks, 30,
        "one fallback per oversize frame"
    );
    assert_eq!(run.totals.pool_allocs, 30, "small frames stay pooled");
    assert_eq!(run.totals.pool_exhausted, 0);
}

/// StripEther pulls 14 bytes of headroom and EtherEncap pushes them back
/// — the decap/encap pattern arena headroom exists for. A pooled run
/// stays pooled: no promotion to the heap, one slot per frame.
#[test]
fn headroom_push_pull_path_matches_heap() {
    let shape = chain(&[4], 4096);
    let frames = traffic(200, 20, 80, false);
    for kp in [1, 32] {
        let knobs = Knobs {
            batch_size: kp,
            pool_slots: 512,
            ..Knobs::default()
        };
        single_threaded(&shape, &knobs, &frames, false).unwrap();
        let input: Vec<(usize, Packet)> = frames.iter().map(|p| (0, p.clone())).collect();
        let run = run_st(shape.graph(&knobs).0, &knobs, &input);
        // `run_st`'s copy of a pooled frame is pooled while slots are free
        // (400 of 512 here), and a heap frame's copy is heap.
        assert!(
            run.egress.iter().flatten().all(Packet::is_pooled),
            "kp={kp}: promoted to heap"
        );
        assert_eq!(run.totals.pool_fallbacks, 0, "kp={kp}");
        assert_eq!(run.totals.pool_allocs, frames.len() as u64, "kp={kp}");
    }
}

#[test]
fn tiny_pool_counts_exhaustion_and_recovers() {
    // A source outrunning recycling drops deterministically: every spec
    // emission either takes a slot (and is eventually transmitted — the
    // forwarder never drops valid traffic) or is counted pool_exhausted.
    let mut r = RouterBuilder::minimal_forwarder()
        .source_packets(64, 400)
        .pool_slots(8)
        .batch_size(16)
        .build()
        .unwrap();
    r.run_until_idle(u64::MAX);
    let stats = r.click().stats();
    let sent = r.transmitted(1);
    assert!(stats.pool_exhausted > 0, "8 slots cannot cover a 32-burst");
    // The ledger sees the same story: every emission either forwarded or
    // dropped to pool exhaustion, mid-batch drops included.
    let ledger = r.ledger();
    assert!(ledger.balances(), "{ledger:?}");
    assert_eq!(ledger.sourced, 400);
    assert_eq!(ledger.forwarded, sent);
    assert_eq!(
        ledger.dropped(DropCause::PoolExhausted),
        stats.pool_exhausted
    );
    assert!(
        sent > 8,
        "recycling must let the source continue past the pool size (sent {sent})"
    );
    assert_eq!(sent + stats.pool_exhausted, 400, "every emission accounted");
    assert_eq!(stats.pool_allocs, sent);
    assert_eq!(
        stats.pool_recycles, stats.pool_allocs,
        "all slots return to the free list once ToDevice drains"
    );
}

#[test]
fn mt_report_accounts_every_slot_of_an_overloaded_pool() {
    // Each worker's 16-slot ingress arena is offered far more than it
    // holds. Admission is arena-aware, so the overflow waits behind the
    // credit window instead of being dropped at ingress: every packet is
    // processed and every slot allocated comes back.
    let mt = RouterBuilder::minimal_forwarder()
        .pool_slots(16)
        .workers(2)
        .build_mt()
        .unwrap();
    let report = mt.run(traffic(400, 400, 64, false)).unwrap().report;
    assert_eq!(report.pool_exhausted, 0);
    assert_eq!(
        report.processed + report.pool_exhausted,
        400,
        "processed + dropped must cover every injected packet"
    );
    assert_eq!(report.pool_allocs, report.processed);
    assert_eq!(report.pool_recycles, report.pool_allocs);
    assert!(report.ledger.balances(), "{:?}", report.ledger);
    assert_eq!(report.ledger.sourced, 400);
    // Ingress-side exhaustion would be booked as the NIC-boundary drop
    // cause (no free RX descriptor), not the source-side `PoolExhausted`.
    assert_eq!(
        report.ledger.dropped(DropCause::NoRxDescriptor),
        report.pool_exhausted
    );
}

#[test]
fn mt_report_counts_the_slots_the_merger_frees() {
    // Kept egress frames are detached from their worker's arena by the
    // merger, on the caller's thread, after that worker may have exited:
    // the report reads the arenas once every worker has joined, so every
    // slot allocated is seen coming back.
    let mt = RouterBuilder::minimal_forwarder()
        .pool_slots(16)
        .workers(2)
        .keep_tx_frames(true)
        .build_mt()
        .unwrap();
    let out = mt.run(traffic(400, 400, 64, false)).unwrap();
    let report = out.report;
    assert_eq!(report.processed, 400);
    assert_eq!(report.pool_allocs, 400);
    assert_eq!(report.pool_recycles, report.pool_allocs);
    // So is each worker's row, read from its own arenas after the join.
    let rows: u64 = out.worker_stats.iter().map(|s| s.pool_recycles).sum();
    assert_eq!(rows, 400);
}
