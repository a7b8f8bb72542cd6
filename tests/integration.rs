//! Cross-crate integration tests: each test exercises at least two
//! subsystem crates through the public API.

use routebricks::builder::RouterBuilder;
use routebricks::click::build_router;
use routebricks::hw::analytic::ServerModel;
use routebricks::hw::cost::Application;
use routebricks::lookup::gen::{generate_table, TableGenConfig};
use routebricks::lookup::{Dir24_8, LpmLookup};
use routebricks::packet::builder::PacketSpec;
use routebricks::workload::{SizeDist, SynthTrace, TraceConfig};

/// Workload trace → real Click graph: every generated frame parses,
/// classifies and forwards.
#[test]
fn trace_replay_through_click_graph() {
    let trace = SynthTrace::generate(&TraceConfig {
        packets: 2_000,
        ..TraceConfig::default()
    });
    let mut router = RouterBuilder::minimal_forwarder().build().unwrap();
    for rec in &trace.packets {
        assert!(router.inject(0, rec.materialize()));
    }
    router.run_until_idle(u64::MAX);
    assert_eq!(router.transmitted(1), 2_000);
}

/// Generated routing table → DIR-24-8 → LookupIPRoute element: the
/// element's decisions must match raw FIB lookups.
#[test]
fn route_element_matches_raw_fib() {
    let table = generate_table(&TableGenConfig {
        routes: 5_000,
        next_hops: 4,
        ..TableGenConfig::default()
    });
    let fib = Dir24_8::compile(&table).unwrap();

    let spec: String = table
        .iter()
        .map(|(p, h)| format!("{p} {h}"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut rt = routebricks::click::elements::route::LookupIPRoute::from_spec(&spec).unwrap();

    let probes = routebricks::lookup::gen::addresses_within(&table, 500, 3);
    for addr in probes {
        let dst = std::net::Ipv4Addr::from(addr);
        let pkt = PacketSpec::udp().dst(&format!("{dst}:80")).unwrap().build();
        let mut out = routebricks::click::element::Output::new();
        use routebricks::click::element::OnePacket;
        rt.push(0, pkt, &mut out);
        let (port, _) = out.drain().next().unwrap();
        assert_eq!(port, usize::from(fib.lookup(addr).unwrap()), "addr {dst}");
    }
}

/// Config DSL → router → counters: the textual configuration language
/// drives the same machinery as the programmatic API.
#[test]
fn dsl_and_builder_agree() {
    let mut via_dsl = build_router(
        "src :: InfiniteSource(64, 300);
         cnt :: Counter;
         q :: Queue(1000);
         tx :: ToDevice(32);
         src -> cnt -> q -> tx;",
    )
    .unwrap();
    via_dsl.run_until_idle(u64::MAX);
    assert_eq!(via_dsl.counter("cnt").unwrap().packets, 300);

    let mut via_api = RouterBuilder::minimal_forwarder()
        .source_packets(64, 300)
        .build()
        .unwrap();
    via_api.run_until_idle(u64::MAX);
    assert_eq!(via_api.transmitted(1), 300);
}

/// Analytic model + workload crate: the Abilene mixture's mean drives
/// the NIC-limited regime exactly as §5.2 describes.
#[test]
fn model_and_workload_agree_on_regimes() {
    let model = ServerModel::prototype();
    let worst = model.rate(Application::IpRouting, 64.0);
    let realistic = model.rate(Application::IpRouting, SizeDist::abilene().mean());
    assert!(worst.gbps() < 7.0, "worst-case routing is CPU-bound");
    assert!(realistic.gbps() > 24.0, "realistic routing is NIC-bound");
}

/// IPsec element + crypto crate: what the gateway emits, a raw ESP
/// decryptor opens.
#[test]
fn gateway_output_opens_with_raw_esp() {
    use routebricks::crypto::{EspDecryptor, SecurityAssociation};
    let mut gw = RouterBuilder::ipsec_gateway()
        .sa_seed(99)
        .keep_tx_frames(true)
        .source_packets(200, 5)
        .build()
        .unwrap();
    gw.run_until_idle(u64::MAX);
    let mut dec = EspDecryptor::new(&SecurityAssociation::from_seed(99));
    for frame in gw.tx_frames(1) {
        // Skip outer Ethernet (14) + outer IPv4 (20).
        let inner = dec
            .open(&frame.data()[34..])
            .expect("gateway output is authentic");
        assert!(routebricks::packet::Ipv4Header::parse(&inner).is_ok());
    }
}

/// RSS hash → HashSwitch → flow integrity: the multi-queue dispatch
/// NICs perform keeps whole flows on one queue.
#[test]
fn rss_dispatch_preserves_flows() {
    use routebricks::click::element::{OnePacket, Output};
    use routebricks::click::elements::HashSwitch;
    use routebricks::packet::FiveTuple;
    let trace = SynthTrace::generate(&TraceConfig {
        packets: 3_000,
        ..TraceConfig::default()
    });
    let mut sw = HashSwitch::new(8);
    let mut assignment = std::collections::HashMap::<FiveTuple, usize>::new();
    let mut out = Output::new();
    for rec in &trace.packets {
        sw.push(0, rec.materialize(), &mut out);
    }
    for (port, pkt) in out.drain() {
        let flow = FiveTuple::of_ethernet_frame(pkt.data()).unwrap();
        let prev = assignment.insert(flow, port);
        if let Some(prev) = prev {
            assert_eq!(prev, port, "flow {flow:?} split across queues");
        }
    }
    let used: std::collections::HashSet<usize> = assignment.values().copied().collect();
    assert!(used.len() >= 6, "flows should spread over most queues");
}

/// The §6.1 cluster dataplane on real elements: ingress routing tags the
/// cluster destination into the MAC (`VlbEncap`); relay nodes switch by
/// MAC alone (`VlbSwitch`) without re-reading IP headers; every packet
/// exits the correct node with its TTL decremented exactly once.
#[test]
fn vlb_cluster_on_real_dataplane() {
    use routebricks::click::element::{OnePacket, Output};
    use routebricks::click::elements::cluster::{VlbEncap, VlbSwitch};
    use routebricks::click::elements::ip::DecIPTTL;
    use routebricks::click::elements::route::LookupIPRoute;
    use routebricks::packet::Packet;

    const NODES: usize = 4;

    // One external port per node; the routing table maps one /8 per port.
    let spec = "10.0.0.0/8 0, 20.0.0.0/8 1, 30.0.0.0/8 2, 40.0.0.0/8 3";

    // Ingress pipeline pieces at node 0.
    let mut ttl = DecIPTTL::ethernet();
    let mut rt = LookupIPRoute::from_spec(spec).unwrap();
    let mut encap = VlbEncap::new(vec![0, 1, 2, 3]);
    // Relay/egress switches at every node.
    let mut switches: Vec<VlbSwitch> = (0..NODES).map(|_| VlbSwitch::new(NODES)).collect();

    let mut delivered = vec![0u64; NODES];
    for i in 0..400u32 {
        let dst_net = 10 * (1 + (i % 4));
        let pkt = PacketSpec::udp()
            .dst(&format!("{dst_net}.1.2.3:80"))
            .unwrap()
            .ttl(64)
            .build();

        // Ingress: TTL, route, tag.
        let mut out = Output::new();
        ttl.push(0, pkt, &mut out);
        let (port, pkt) = out.drain().next().unwrap();
        assert_eq!(port, 0, "TTL is fresh");
        let mut out = Output::new();
        rt.push(0, pkt, &mut out);
        let (_, pkt) = out.drain().next().unwrap();
        let mut out = Output::new();
        encap.push(0, pkt, &mut out);
        let (port, pkt) = out.drain().next().unwrap();
        assert_eq!(port, 0, "every packet has a route");

        // Phase 1: send via a deterministic intermediate node (VLB), which
        // relays by MAC only.
        let relay = (i as usize) % NODES;
        let mut out = Output::new();
        switches[relay].push(0, pkt, &mut out);
        let (to_node, pkt) = out.drain().next().unwrap();
        assert!(to_node < NODES, "relay never takes the slow path");

        // Phase 2: the output node's switch delivers to its own line.
        let mut out = Output::new();
        switches[to_node].push(0, pkt, &mut out);
        let (final_node, pkt) = out.drain().next().unwrap();
        assert_eq!(final_node, to_node, "egress agrees with the MAC tag");

        // Verify: correct node, TTL decremented exactly once, checksum ok.
        let expected_node = (i % 4) as usize;
        assert_eq!(final_node, expected_node);
        let ip = routebricks::packet::Ipv4Header::parse(&pkt.data()[14..]).unwrap();
        assert_eq!(ip.ttl, 63, "one TTL decrement at ingress, none at relays");
        delivered[final_node] += 1;

        // And the packet as delivered is a valid Ethernet/IP frame.
        let _ = Packet::from_slice(pkt.data());
    }
    assert_eq!(delivered, vec![100, 100, 100, 100]);
    let (switched, slow) = switches
        .iter()
        .fold((0, 0), |(s, p), sw| (s + sw.counts().0, p + sw.counts().1));
    assert_eq!(slow, 0);
    assert_eq!(switched, 800, "each packet crosses exactly two switches");
}

/// Burst tolerance: the same mean load, smooth vs bursty, through a
/// token-bucket meter — bursts overflow a shallow bucket but fit a deep
/// one (the queue-provisioning story behind the paper's loss-free-rate
/// methodology).
#[test]
fn bursty_traffic_stresses_shallow_buckets() {
    use routebricks::click::element::{OnePacket, Output};
    use routebricks::click::elements::Meter;
    use routebricks::workload::{Arrivals, SynthTrace, TraceConfig};

    let run = |arrivals, burst_bytes: f64| -> f64 {
        let trace = SynthTrace::generate(&TraceConfig {
            packets: 30_000,
            offered_bps: 8e9,
            arrivals,
            // Fixed frames isolate the arrival process from size jitter.
            sizes: routebricks::workload::SizeDist::Fixed(760),
            ..TraceConfig::default()
        });
        // Meter at exactly the offered rate.
        let mut meter = Meter::new(8e9, burst_bytes);
        let mut out = Output::new();
        for rec in &trace.packets {
            let mut pkt = rec.materialize();
            pkt.meta.rx_ns = rec.arrival_ns;
            meter.push(0, pkt, &mut out);
        }
        let (ok, excess) = meter.counts();
        excess as f64 / (ok + excess) as f64
    };

    let bursty = Arrivals::OnOff {
        burst_packets: 64,
        peak_factor: 10.0,
    };
    // A shallow bucket (4 KB) absorbs smooth traffic but not bursts.
    let smooth_excess = run(Arrivals::Constant, 4_000.0);
    let bursty_excess = run(bursty, 4_000.0);
    assert!(smooth_excess < 0.02, "smooth excess {smooth_excess:.3}");
    assert!(
        bursty_excess > 0.2,
        "bursty excess {bursty_excess:.3} should overwhelm a shallow bucket"
    );
    // A burst-deep bucket absorbs the same bursts.
    let deep_excess = run(bursty, 64.0 * 1600.0);
    assert!(deep_excess < 0.05, "deep-bucket excess {deep_excess:.3}");
}
