//! Differential tests: arena-backed (pooled) routers against plain
//! heap-backed routers.
//!
//! The packet arena is a pure allocation strategy — it must never change
//! what comes out of the wire. For every application preset and every
//! batch size `kp`, a router whose sources/ingress devices allocate from
//! a [`rb_packet::PacketPool`] must transmit **byte-identical per-port
//! streams** to the same router running on heap buffers. That includes
//! the headroom push/pull paths (StripEther/EtherEncap), slot-overflow
//! heap fallback, and the multi-threaded runtime (workers = 1
//! byte-identical, workers = 2 multiset-identical).

use proptest::prelude::*;
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use routebricks::builder::RouterBuilder;

/// Pool large enough that keep_tx_frames (which keeps every transmitted
/// frame alive) never exhausts it in these tests.
const AMPLE_SLOTS: usize = 4096;

/// Varied-flow traffic: distinct 5-tuples so RSS sharding spreads work,
/// with destinations split across the IP router's route set.
fn traffic(count: usize, size: usize) -> Vec<Packet> {
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
                .frame_len(size)
                .build()
        })
        .collect()
}

fn apps() -> Vec<(&'static str, RouterBuilder)> {
    vec![
        ("forwarder", RouterBuilder::minimal_forwarder()),
        (
            "ip_router",
            RouterBuilder::ip_router()
                .route("10.0.0.0/9", 0)
                .route("0.0.0.0/0", 1),
        ),
        ("ipsec", RouterBuilder::ipsec_gateway().sa_seed(9)),
    ]
}

/// Injects `packets` into port 0 and collects per-port transmit streams.
fn streams(builder: RouterBuilder, packets: &[Packet], kp: usize) -> Vec<Vec<Vec<u8>>> {
    let mut r = builder.batch_size(kp).keep_tx_frames(true).build().unwrap();
    for pkt in packets {
        assert!(r.inject(0, pkt.clone()));
    }
    r.run_until_idle(u64::MAX);
    (0..r.ports())
        .map(|p| r.tx_frames(p).iter().map(|f| f.data().to_vec()).collect())
        .collect()
}

#[test]
fn arena_matches_heap_for_every_app_and_kp() {
    let packets = traffic(300, 64);
    for (name, builder) in apps() {
        for kp in [1usize, 8, 32] {
            let heap = streams(builder.clone(), &packets, kp);
            let arena = streams(builder.clone().pool_slots(AMPLE_SLOTS), &packets, kp);
            assert_eq!(
                arena, heap,
                "{name}: kp={kp} arena streams must be byte-identical to heap"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traffic shape × app × kp: the arena never changes output.
    #[test]
    fn prop_arena_streams_match_heap(
        count in 1usize..120,
        size in 60usize..400,
        kp_idx in 0usize..3,
        app_idx in 0usize..3,
    ) {
        let kp = [1usize, 8, 32][kp_idx];
        let (name, builder) = apps().swap_remove(app_idx);
        let packets = traffic(count, size);
        let heap = streams(builder.clone(), &packets, kp);
        let arena = streams(builder.pool_slots(AMPLE_SLOTS), &packets, kp);
        prop_assert_eq!(arena, heap, "{}: kp={} count={} size={}", name, kp, count, size);
    }
}

#[test]
fn oversize_frames_fall_back_to_heap_and_still_match() {
    // Slot payload room is slot_size − (headroom + tailroom) = 64 bytes
    // here, so 250-byte frames overflow every slot and must deflect to
    // heap buffers — counted, and byte-identical to the heap router.
    let mut packets = traffic(30, 64);
    packets.extend(traffic(30, 250));
    let heap = streams(RouterBuilder::minimal_forwarder(), &packets, 32);
    let mut r = RouterBuilder::minimal_forwarder()
        .pool_slots(256)
        .slot_size(192)
        .batch_size(32)
        .keep_tx_frames(true)
        .build()
        .unwrap();
    for pkt in &packets {
        assert!(r.inject(0, pkt.clone()));
    }
    r.run_until_idle(u64::MAX);
    let stats = r.click().stats();
    let arena: Vec<Vec<Vec<u8>>> = (0..r.ports())
        .map(|p| r.tx_frames(p).iter().map(|f| f.data().to_vec()).collect())
        .collect();
    assert_eq!(arena, heap, "fallback frames must be byte-identical");
    assert_eq!(stats.pool_fallbacks, 30, "one fallback per oversize frame");
    assert_eq!(stats.pool_allocs, 30, "small frames stay pooled");
    assert_eq!(stats.pool_exhausted, 0);
}

#[test]
fn headroom_push_pull_path_matches_heap() {
    // StripEther pulls 14 bytes of headroom, EtherEncap pushes them back —
    // the classic decap/encap pattern the arena headroom exists for. The
    // pooled run must stay pooled (no promotions) and match byte-for-byte.
    let config = |pool: &str, kp: usize| {
        format!(
            "RuntimeConfig(batch_size {kp}{pool});
              src :: FromDevice(0);
              strip :: StripEther;
              encap :: EtherEncap(00:00:00:00:00:01, 00:00:00:00:00:02);
              q :: Queue;
              tx :: ToDevice(keep);
              src -> strip -> encap -> q -> tx;"
        )
    };
    let packets = traffic(200, 80);
    for kp in [1usize, 32] {
        let run = |pool: &str| {
            let mut router = rb_click::config::build_router(&config(pool, kp)).unwrap();
            let dev = router
                .element_as_mut::<rb_click::elements::FromDevice>("src")
                .unwrap();
            for pkt in &packets {
                dev.inject(pkt.clone());
            }
            router.run_until_idle(u64::MAX);
            let stats = router.stats();
            let frames: Vec<(Vec<u8>, bool)> = router
                .element_as::<rb_click::elements::ToDevice>("tx")
                .unwrap()
                .tx_log()
                .iter()
                .map(|f| (f.data().to_vec(), f.is_pooled()))
                .collect();
            (frames, stats)
        };
        let (heap_frames, _) = run("");
        let (arena_frames, stats) = run(", pool_slots 512");
        assert_eq!(arena_frames.len(), packets.len());
        assert_eq!(
            arena_frames.iter().map(|(b, _)| b).collect::<Vec<_>>(),
            heap_frames.iter().map(|(b, _)| b).collect::<Vec<_>>(),
            "kp={kp}: strip/encap output must be byte-identical"
        );
        assert!(
            arena_frames.iter().all(|(_, pooled)| *pooled),
            "kp={kp}: push within recovered headroom must not promote to heap"
        );
        assert_eq!(stats.pool_fallbacks, 0, "kp={kp}");
        assert_eq!(stats.pool_allocs, packets.len() as u64, "kp={kp}");
    }
}

#[test]
fn mt_arena_matches_heap_reference() {
    let packets = traffic(600, 64);
    for (name, builder) in apps() {
        let reference = streams(builder.clone(), &packets, 32);

        // workers = 1: one shard, one replica — byte-identical streams.
        let mt = builder
            .clone()
            .pool_slots(AMPLE_SLOTS)
            .keep_tx_frames(true)
            .workers(1)
            .build_mt()
            .unwrap();
        let outcome = mt.run(packets.clone()).unwrap();
        for (port, expect) in reference.iter().enumerate() {
            let got: Vec<Vec<u8>> = outcome.egress[port]
                .iter()
                .map(|f| f.data().to_vec())
                .collect();
            assert_eq!(
                &got, expect,
                "{name}: workers=1 pooled port {port} must be byte-identical"
            );
        }
        assert!(
            outcome.report.pool_allocs > 0,
            "{name}: MtReport must surface arena allocations"
        );

        // workers = 2: flow sharding reorders but never rewrites. IPsec is
        // excluded — each replica runs its own ESP sequence-number stream,
        // so ciphertexts legitimately differ from the 1-core reference.
        if name == "ipsec" {
            continue;
        }
        let mt = builder
            .clone()
            .pool_slots(AMPLE_SLOTS)
            .keep_tx_frames(true)
            .workers(2)
            .build_mt()
            .unwrap();
        let outcome = mt.run(packets.clone()).unwrap();
        for (port, expect) in reference.iter().enumerate() {
            let mut expect = expect.clone();
            let mut got: Vec<Vec<u8>> = outcome.egress[port]
                .iter()
                .map(|f| f.data().to_vec())
                .collect();
            expect.sort();
            got.sort();
            assert_eq!(
                got, expect,
                "{name}: workers=2 pooled port {port} multiset must match"
            );
        }
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
    assert!(ledger.balances(), "{}", ledger.to_json());
    assert_eq!(ledger.sourced, 400);
    assert_eq!(ledger.forwarded, sent);
    assert_eq!(
        ledger.dropped(routebricks::telemetry::DropCause::PoolExhausted),
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
    let packets = traffic(400, 64);
    let mt = RouterBuilder::minimal_forwarder()
        .pool_slots(16)
        .workers(2)
        .build_mt()
        .unwrap();
    let report = mt.run(packets).unwrap().report;
    assert_eq!(report.pool_exhausted, 0);
    assert_eq!(
        report.processed + report.pool_exhausted,
        400,
        "processed + dropped must cover every injected packet"
    );
    assert_eq!(report.pool_allocs, report.processed);
    assert_eq!(report.pool_recycles, report.pool_allocs);
    assert!(report.ledger.balances(), "{}", report.ledger.to_json());
    assert_eq!(report.ledger.sourced, 400);
    // Ingress-side exhaustion would be booked as the NIC-boundary drop
    // cause (no free RX descriptor), not the source-side `PoolExhausted`.
    assert_eq!(
        report
            .ledger
            .dropped(routebricks::telemetry::DropCause::NoRxDescriptor),
        report.pool_exhausted
    );
}
