//! Differential test: forwarding under live RCU route churn.
//!
//! A control plane applying and publishing route updates *while* the
//! data plane forwards must never lose, duplicate or corrupt a packet:
//! each lookup sees some complete published snapshot, and the synthetic
//! RIB's default route (which the churn generator never withdraws)
//! guarantees every destination resolves in every snapshot. So the
//! multiset of transmitted frames — ports aside, which legitimately
//! change as routes move — must be identical between a run with updates
//! interleaved mid-forwarding and a quiesced run that applies all
//! updates first. The conservation ledger must balance exactly in both.
//!
//! A torn lookup (a reader observing a half-built table) would surface
//! here as a spurious `NoRoute` drop or a crash; either breaks the
//! multiset or the ledger.

use proptest::prelude::*;
use rb_lookup::{Prefix, RouteUpdate};
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use rb_workload::{churn_stream, rib_full_table, ChurnConfig};
use routebricks::builder::RouterBuilder;

/// Ports on the test router. Every next hop the RIB generator or the
/// churn generator emits is below this, so no announced route can point
/// at a nonexistent output port (which would turn a forward into a drop
/// in one run but not the other).
const PORTS: usize = 32;

/// An address inside `prefix`, with host bits taken from `entropy`.
fn addr_in(prefix: &Prefix, entropy: u32) -> u32 {
    let host_bits = 32 - u32::from(prefix.len());
    let host_mask = ((1u64 << host_bits) - 1) as u32;
    prefix.addr() | (entropy & host_mask)
}

fn pkt_to(dst: u32) -> Packet {
    let [a, b, c, d] = dst.to_be_bytes();
    PacketSpec::udp()
        .dst(&format!("{a}.{b}.{c}.{d}:80"))
        .unwrap()
        .build()
}

fn builder(n_prefixes: usize, seed: u64) -> RouterBuilder {
    RouterBuilder::ip_router()
        .ports(PORTS)
        .rcu_fib(true)
        .synthetic_routes(n_prefixes, seed)
        .keep_tx_frames(true)
}

/// All transmitted frames across all ports, as a sorted multiset.
fn tx_multiset(r: &routebricks::builder::BuiltRouter) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = (0..r.ports())
        .flat_map(|p| r.tx_frames(p).iter().map(|f| f.data().to_vec()))
        .collect();
    frames.sort();
    frames
}

fn assert_exact_balance(name: &str, r: &routebricks::builder::BuiltRouter, sourced: u64) {
    let led = r.ledger();
    assert!(led.balances(), "{name}: ledger {}", led.to_json());
    assert_eq!(led.sourced, sourced, "{name}: every packet sourced");
    assert_eq!(led.in_flight, 0, "{name}: drained");
    assert_eq!(
        led.dropped_total(),
        0,
        "{name}: default route resolves everything; a drop means a torn \
         or stale-beyond-publish lookup: {}",
        led.to_json()
    );
    assert_eq!(led.forwarded, sourced, "{name}: all packets forwarded");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn churn_during_forwarding_matches_quiesced_updates(
        n_prefixes in 48usize..192,
        rib_seed in any::<u64>(),
        churn_seed in any::<u64>(),
        n_updates in 40usize..160,
        raw_dsts in proptest::collection::vec(any::<u32>(), 120..300),
        chunk in 8usize..40,
    ) {
        let base = rib_full_table(n_prefixes, rib_seed);
        let updates = churn_stream(&base, &ChurnConfig {
            updates: n_updates,
            seed: churn_seed,
            ..ChurnConfig::default()
        });

        // Aim a third of the traffic at churned prefixes so updates are
        // actually on the forwarding path, not just in the table.
        let dsts: Vec<u32> = raw_dsts
            .iter()
            .enumerate()
            .map(|(i, &raw)| {
                if i % 3 == 0 {
                    let p = match &updates[i % updates.len()] {
                        RouteUpdate::Announce(p, _) | RouteUpdate::Withdraw(p) => p,
                    };
                    addr_in(p, raw)
                } else {
                    raw
                }
            })
            .collect();

        // Live run: forward a chunk, publish a slice of updates, repeat.
        let mut live = builder(n_prefixes, rib_seed).build().unwrap();
        let ctl = live.route_control().unwrap();
        let update_slices = updates.len().div_ceil(dsts.len().div_ceil(chunk).max(1)).max(1);
        let mut pending = updates.as_slice();
        for chunk_dsts in dsts.chunks(chunk) {
            for &d in chunk_dsts {
                prop_assert!(live.inject(0, pkt_to(d)));
            }
            live.run_until_idle(u64::MAX);
            let take = update_slices.min(pending.len());
            let (now, later) = pending.split_at(take);
            if !now.is_empty() {
                ctl.apply_and_publish(now).unwrap();
            }
            pending = later;
        }
        if !pending.is_empty() {
            ctl.apply_and_publish(pending).unwrap();
        }
        assert_exact_balance("live", &live, dsts.len() as u64);

        // Quiesced run: all updates first, then the same traffic.
        let mut quiet = builder(n_prefixes, rib_seed).build().unwrap();
        quiet.route_control().unwrap().apply_and_publish(&updates).unwrap();
        for &d in &dsts {
            prop_assert!(quiet.inject(0, pkt_to(d)));
        }
        quiet.run_until_idle(u64::MAX);
        assert_exact_balance("quiesced", &quiet, dsts.len() as u64);

        prop_assert_eq!(
            tx_multiset(&live),
            tx_multiset(&quiet),
            "transmitted frame multiset must not depend on update timing"
        );

        // Grace periods completed: with the run idle, every retired
        // snapshot is reclaimable.
        ctl.try_reclaim();
        prop_assert_eq!(ctl.stats().pending_retired, 0);
    }
}

/// The multi-threaded router (3 workers, 32 ports, 2,000-prefix RCU FIB)
/// forwards 60,000 frames to uniform-random destinations while a control
/// thread announces, withdraws and publishes routes as fast as it can in
/// 10-update slices. Conservation is exact, no lookup misses (the default
/// route makes any miss a torn read), and once the run is idle every
/// retired snapshot reclaims and steady-state publishes patch a recycled
/// snapshot instead of cloning the table.
#[test]
fn mt_forwarding_under_concurrent_churn_never_tears() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    const PREFIXES: usize = 2_000;
    const PACKETS: u64 = 60_000;
    const RIB_SEED: u64 = 0xc4c4;
    let mt = builder(PREFIXES, RIB_SEED)
        .keep_tx_frames(false)
        .workers(3)
        .batch_size(32)
        .telemetry(routebricks::telemetry::TelemetryLevel::Counts)
        .build_mt()
        .expect("builder config is valid");
    let ctl = mt.route_control().expect("RCU router exposes control");
    let base = rib_full_table(PREFIXES, RIB_SEED);
    let mut rng = StdRng::seed_from_u64(0x7ea5);
    let packets: Vec<Packet> = (0..PACKETS).map(|_| pkt_to(rng.gen())).collect();
    let done = AtomicBool::new(false);
    let (outcome, publishes) = std::thread::scope(|s| {
        let churner = s.spawn(|| {
            let mut publishes = 0u64;
            let mut round = 0u64;
            // Keep churning until the data plane finishes, in small
            // apply+publish slices so readers see many generations.
            while !done.load(Ordering::Acquire) || round < 20 {
                let updates = churn_stream(
                    &base,
                    &ChurnConfig {
                        updates: 50,
                        next_hops: PORTS as u16,
                        seed: 0xbeef ^ round,
                        ..ChurnConfig::default()
                    },
                );
                for slice in updates.chunks(10) {
                    ctl.apply_and_publish(slice).expect("hops encodable");
                    publishes += 1;
                }
                round += 1;
            }
            publishes
        });
        let outcome = mt.run(packets).expect("graph runs");
        done.store(true, Ordering::Release);
        (outcome, churner.join().expect("churner thread"))
    });

    let ledger = &outcome.report.ledger;
    assert!(
        ledger.balances(),
        "ledger must balance under churn: {}",
        ledger.to_json()
    );
    assert_eq!(ledger.sourced, PACKETS, "every packet sourced");
    assert_eq!(ledger.in_flight, 0, "nothing in flight after drain");
    assert_eq!(
        ledger.dropped_total(),
        0,
        "the default route resolves every destination; any drop is a torn \
         or inconsistent lookup: {}",
        ledger.to_json()
    );
    assert_eq!(ledger.forwarded, PACKETS, "all packets reach an egress");
    let snap = &outcome.report.telemetry;
    assert_eq!(
        snap.route_lookups, PACKETS,
        "every packet goes through the FIB"
    );
    assert_eq!(snap.route_misses, 0, "zero torn lookups");

    // Once the data plane is idle every reader is quiescent, so all
    // retired snapshots must reclaim.
    ctl.try_reclaim();
    let stats = ctl.stats();
    assert_eq!(
        stats.pending_retired, 0,
        "grace periods complete after quiesce: {stats:?}"
    );
    assert!(
        stats.publishes >= publishes,
        "every publish counted: {stats:?}"
    );
    assert!(
        stats.delta_publishes > 0,
        "steady-state publishes should recycle a reclaimed snapshot \
         (delta patch) instead of cloning the table: {stats:?}"
    );
}
