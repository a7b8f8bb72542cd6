//! The multi-threaded runtime against the one-packet-at-a-time reference
//! (`oracle/mod.rs`), for every builder preset: one worker transmits
//! each port's reference stream in order, as the single-threaded router
//! does; more workers transmit each (port, flow) stream in order — flow
//! sharding changes interleaving across flows, never content or order
//! within one. IPsec at two or more pull workers is the known exception
//! `multi_threaded` asserts (ROADMAP, "Shard-safety"). Every ledger is
//! exact.

mod oracle;

use oracle::*;
use routebricks::click::Knobs;
use routebricks::Regime;

/// `count` frames over `flows` flows, against the reference at `knobs`,
/// for every preset.
fn every_preset(count: usize, flows: usize, knobs: Knobs) {
    let frames = traffic(count, flows, 64, true);
    for shape in presets() {
        multi_threaded(&shape, &knobs, &frames, flows as u64).unwrap();
    }
}

#[test]
fn workers_1_is_byte_identical_to_single_threaded_router() {
    let frames = traffic(2000, 200, 64, true);
    for shape in presets() {
        single_threaded(&shape, &Knobs::default(), &frames, false).unwrap();
        for regime in [Regime::PullCredit, Regime::Pipeline] {
            let knobs = Knobs {
                regime,
                workers: 1,
                ..Knobs::default()
            };
            multi_threaded(&shape, &knobs, &frames, 200).unwrap();
        }
    }
}

#[test]
fn multi_worker_runs_transmit_the_same_frame_multiset() {
    for workers in [2, 4] {
        let knobs = Knobs {
            workers,
            ..Knobs::default()
        };
        every_preset(2000, 200, knobs);
    }
}

/// Pull regime at three and four workers behind 16-batch SPSC rings.
#[test]
fn spsc_streaming_matches_parallel_multiset() {
    for workers in [3, 4] {
        let knobs = Knobs {
            regime: Regime::PullCredit,
            workers,
            ring_depth: 16,
            ..Knobs::default()
        };
        every_preset(1500, 150, knobs);
    }
}

/// A two-batch ring keeps every filler blocked on back-pressure for
/// almost the whole run; each packet still reaches exactly one worker,
/// in flow order, under both regimes.
#[test]
fn tiny_ring_backpressure_conserves_packets() {
    for regime in [Regime::PullCredit, Regime::Pipeline] {
        let knobs = Knobs {
            regime,
            workers: 2,
            ring_depth: 2,
            ..Knobs::default()
        };
        every_preset(1200, 120, knobs);
    }
}
