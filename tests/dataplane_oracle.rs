//! The dataplane oracle: one reference for every way a graph runs.
//!
//! The reference (`oracle/mod.rs`) pushes one packet at a time, in
//! graph order, as one-packet batches through the elements' one push
//! and pull path — no wider batches, pools, rings or scheduler. Every
//! runtime configuration is held to it: batched or
//! scalar dispatch (`kp`), any NIC batch (`kn`), arena or heap buffers,
//! slot room, tracing, telemetry, one thread, `n` replicas or an
//! `n`-stage pipeline. The contract (DESIGN.md §6):
//!
//! * **single-threaded** — each (egress port, ingress port) sequence of
//!   frames equals the reference's; with one ingress, each egress port's;
//! * **multi-threaded** — each (egress port, flow) sequence equals the
//!   reference's, a flow being the 5-tuple the frame entered with; with
//!   one replica, each egress port's;
//! * **pipeline** — stage `i + 1` is the reference applied to stage
//!   `i`'s output;
//! * **every run** — the ledger balances with nothing in flight, and
//!   every drop cause counts what the reference's does.
//!
//! A frame is its bytes plus the index its input carried in
//! `meta.ingress_seq`, so two frames with equal bytes still have an
//! order. Where a knob may legitimately drop (a tiny arena, a short
//! queue), the drops come out of the reference before comparing: a
//! refused injection exactly, the rest as a subsequence whose shortfall
//! is what the ledger books for that cause.
//!
//! This file holds the random matrix and the pinned IPsec divergence.
//! The named layouts, and the checks of a knob's own counters, sit with
//! the knob they vary, on the same reference: `arena_differential.rs`,
//! `mt_differential.rs`, `nic_differential.rs` and
//! `regime_differential.rs`. `crates/click/tests/batch_differential.rs`
//! holds click's stdlib graphs to their own `kp = 1` run.

mod oracle;

use oracle::*;
use proptest::prelude::*;
use routebricks::click::{run_graph, Knobs};
use routebricks::telemetry::TelemetryLevel;
use routebricks::Regime;
use std::collections::BTreeMap;

/// One runtime configuration: the knobs, and whether a single-threaded
/// router runs them rather than `run_graph`.
fn cell() -> impl Strategy<Value = (Knobs, bool)> {
    let batching = (0usize..4, any::<bool>(), 0usize..3, 0usize..3);
    let buffers = (0usize..3, 0usize..2);
    let observed = (0usize..3, 0usize..2);
    let threads = (0usize..3, any::<bool>());
    (batching, buffers, observed, threads).prop_map(
        |((kp, wide, kn, ring), (pool, room), (level, trace), (workers, pipeline))| {
            let knobs = Knobs {
                batch_size: [1, 8, 32, 256][kp],
                // Devices, and ring interactions, at `kp` or 64 at a time.
                poll_burst: wide.then_some(64),
                nic_batch: [1, 4, 16][kn],
                ring_depth: [2, 16, 1024][ring],
                // Heap, an ample arena, an arena smaller than a burst.
                pool_slots: [0, 4096, 24][pool],
                // 64 bytes of payload room (most frames fall back to the
                // heap) or 1,920.
                slot_size: [192, 2048][room],
                telemetry: [
                    TelemetryLevel::Off,
                    TelemetryLevel::Counts,
                    TelemetryLevel::Cycles,
                ][level],
                trace_sample: [0, 8][trace],
                workers: workers.max(1),
                regime: if pipeline {
                    Regime::Pipeline
                } else {
                    Regime::PullCredit
                },
                ..Knobs::default()
            };
            (knobs, workers == 0)
        },
    )
}

/// One cell of the matrix: config × traffic × knobs.
type Case = (
    (usize, Vec<usize>, bool),
    (usize, usize, usize, bool, bool),
    (Knobs, bool),
);

fn case() -> impl Strategy<Value = Case> {
    let links = prop::collection::vec(0usize..LINKS.len(), 0..5);
    let config = (0usize..8, links, any::<bool>());
    let traffic = (
        1usize..160,
        1usize..24,
        60usize..300,
        any::<bool>(),
        any::<bool>(),
    );
    (config, traffic, cell())
}

fn check(
    ((pick, links, short), (count, flows, size, spice, split), (knobs, st)): Case,
) -> Result<(), TestCaseError> {
    let shape = match pick {
        i if i < 5 => corpus().swap_remove(i),
        // A short queue drops a burst's tail, legitimately. Not inside a
        // pipeline: a stage's drops are input the next stage never sees,
        // and the reference's stages cannot know which.
        _ if short && (st || knobs.regime == Regime::PullCredit) => chain(&links, 8),
        _ => chain(&links, 4096),
    };
    let frames = traffic(count, flows, size, spice);
    match st {
        true => single_threaded(&shape, &knobs, &frames, split),
        false => multi_threaded(&shape, &knobs, &frames, flows as u64).map(drop),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Config × traffic × {kp, poll burst, kn, ring depth, arena or heap,
    /// slot room, regime, workers, trace_sample, telemetry level}, against
    /// the reference —
    /// in two halves, one per core.
    #[test]
    fn every_configuration_matches_the_reference(case in case()) {
        check(case)?;
    }

    #[test]
    fn every_configuration_matches_the_reference_too(case in case()) {
        check(case)?;
    }
}

/// IpsecEncap is not shard-safe (ROADMAP, "Shard-safety"): every
/// replica counts ESP sequence numbers from 1 under one key, so at two
/// workers sealed frames differ from the reference's, starting at the
/// sequence number. One worker matches. When the shard-safety item
/// lands, this flips: two workers match too.
#[test]
fn ipsec_replicas_diverge_from_the_reference_at_the_sequence_number() {
    let frames = traffic(200, 16, 128, false);
    let ipsec = corpus().swap_remove(2);
    let (want, _) = reference(&ipsec, &frames, 1);
    let want: BTreeMap<u64, &[u8]> = want
        .iter()
        .flatten()
        .map(|f| (f.meta.ingress_seq, f.data()))
        .collect();
    for workers in [1, 2] {
        let (graph, knobs) = ipsec.graph(&Knobs {
            workers,
            ..Knobs::default()
        });
        let out = run_graph(&graph, frames.clone(), &knobs, None).unwrap();
        let mut first_differences = std::collections::BTreeSet::new();
        for f in out.egress.iter().flatten() {
            let (got, want) = (f.data(), want[&f.meta.ingress_seq]);
            assert_eq!(got.len(), want.len());
            if let Some(at) = got.iter().zip(want).position(|(g, w)| g != w) {
                first_differences.insert(at);
            }
        }
        let esp_sequence = 14 + 20 + 4..14 + 20 + 8;
        match workers {
            1 => assert!(first_differences.is_empty()),
            _ => {
                assert!(
                    !first_differences.is_empty(),
                    "the replicas agree with the reference"
                );
                assert!(
                    first_differences.iter().all(|at| esp_sequence.contains(at)),
                    "{first_differences:?}"
                );
            }
        }
    }
}
