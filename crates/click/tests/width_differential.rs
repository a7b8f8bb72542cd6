//! Every element class is blind to batch width: `n` frames pushed as `n`
//! one-packet batches and as one `n`-packet batch leave the same frames on
//! each output port, the same ledger and the same element counters.
//!
//! An element has one push path (`push_batch`) and one pull path
//! (`pull_batch`); a per-packet caller reaches them through
//! [`OnePacket`] with batches of one. This holds the two widths to each
//! other for every class the standard registry builds, and for the two
//! pairs whose second element only sees meaningful input behind the first
//! (`IpsecEncap -> IpsecDecap`, `VlbEncap -> VlbSwitch`). Widths run from
//! 1 to 40, across the ESP kernel's 16 lanes and past them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rb_click::element::{Element, OnePacket, Output, PacketBatch, PortKind};
use rb_click::elements::{
    CheckIPHeader, Classifier, Counter, DecIPTTL, Discard, IcmpTtlExpired, IpsecDecap, IpsecEncap,
    LookupIPRoute, Meter, Queue, RandomSample, ToDevice, VlbEncap, VlbSwitch,
};
use rb_click::registry::Registry;
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use std::collections::BTreeMap;

/// Every class the standard registry builds, with arguments that give
/// each of its outputs traffic.
const CLASSES: &[(&str, &str)] = &[
    ("Discard", ""),
    ("Counter", ""),
    ("Queue", "8"),
    ("InfiniteSource", "64, 4"),
    ("FromDevice", "0, 8"),
    ("ToDevice", "keep"),
    ("Classifier", "23/11, 12/0800, -"),
    ("CheckIPHeader", ""),
    ("DecIPTTL", ""),
    (
        "LookupIPRoute",
        "10.0.0.0/8 0, 10.1.0.0/16 1, 192.168.0.0/16 2",
    ),
    ("Tee", "3"),
    ("RoundRobinSwitch", "3"),
    ("HashSwitch", "4"),
    ("Paint", "2"),
    ("PaintSwitch", "3"),
    ("StripEther", ""),
    ("IcmpTtlExpired", "192.0.2.254"),
    ("Meter", "8000000, 1500"),
    ("RandomSample", "0.5, 7"),
    ("SetTimestamp", "1000000"),
    ("EtherEncap", "02:00:00:00:00:01, 02:00:00:00:00:02"),
    ("IpsecEncap", "9, 192.0.2.1, 192.0.2.2"),
    ("IpsecDecap", "9, 02:00:00:00:00:01, 02:00:00:00:00:02"),
];

/// `n` frames drawn from `seed`: UDP and TCP over a handful of prefixes,
/// TTL 1 to 3 or 64, 60 to 600 bytes, and now and then a broken checksum,
/// a runt or random bytes; annotations a classifier or VLB element reads
/// (paint, output port, arrival time) vary too.
fn frames(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nets = ["10.2.0.0", "10.1.7.0", "192.168.3.0", "8.8.8.0"];
    (0..n)
        .map(|i| {
            let spec = if rng.gen_bool(0.5) {
                PacketSpec::udp()
            } else {
                PacketSpec::tcp(rng.gen())
            };
            let net = nets[rng.gen_range(0..nets.len())];
            let dst = format!("{}.{}:{}", &net[..net.len() - 2], rng.gen_range(1..255), 80);
            let src = format!(
                "172.16.{}.{}:{}",
                rng.gen_range(0..4),
                rng.gen_range(1..255),
                1000 + i
            );
            let ttl = [1, 2, 3, 64][rng.gen_range(0..4usize)];
            let spec = spec.dst(&dst).unwrap().src(&src).unwrap().ttl(ttl);
            let len = rng.gen_range(spec.min_frame_len().max(60)..=600);
            let mut pkt = spec.frame_len(len).build();
            match rng.gen_range(0..10) {
                0 => pkt.data_mut()[24] ^= 0x5a, // IPv4 header checksum.
                1 => pkt = Packet::from_slice(&pkt.data()[..rng.gen_range(0..34usize)]),
                2 => pkt.data_mut().iter_mut().for_each(|b| *b = rng.gen()),
                _ => {}
            }
            pkt.meta.paint = rng.gen_range(0..5);
            pkt.meta.output_port = rng.gen_bool(0.8).then(|| rng.gen_range(0..6));
            pkt.meta.rx_ns = 400_000 * i as u64;
            pkt
        })
        .collect()
}

/// What one element left behind: per output port, each frame's bytes and
/// annotations in order; its default-push drops, ledger and counters.
#[derive(Debug, PartialEq)]
struct Outcome {
    ports: BTreeMap<usize, Vec<(Vec<u8>, String)>>,
    default_dropped: u64,
    ledger: Option<rb_telemetry::Ledger>,
    counters: String,
}

/// The class-specific counters of `el`, for the classes that keep any.
fn counters(el: &dyn Element) -> String {
    let text = |x: &dyn std::fmt::Debug| format!("{x:?}");
    if let Some(e) = el.downcast_ref::<Discard>() {
        text(&e.dropped())
    } else if let Some(e) = el.downcast_ref::<Counter>() {
        text(&e.stats())
    } else if let Some(e) = el.downcast_ref::<Queue>() {
        text(&(e.stats(), e.len()))
    } else if let Some(e) = el.downcast_ref::<ToDevice>() {
        let log: Vec<&[u8]> = e.tx_log().iter().map(Packet::data).collect();
        text(&(e.sent_packets(), e.sent_bytes(), log))
    } else if let Some(e) = el.downcast_ref::<Classifier>() {
        text(&(e.matched(), e.unmatched()))
    } else if let Some(e) = el.downcast_ref::<CheckIPHeader>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<DecIPTTL>() {
        text(&e.expired())
    } else if let Some(e) = el.downcast_ref::<LookupIPRoute>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<IcmpTtlExpired>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<Meter>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<RandomSample>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<IpsecEncap>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<IpsecDecap>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<VlbEncap>() {
        text(&e.counts())
    } else if let Some(e) = el.downcast_ref::<VlbSwitch>() {
        text(&e.counts())
    } else {
        String::new()
    }
}

/// Pushes `pkts` into `el` one frame per batch (`wide == false`) or all
/// in one batch, then empties each pull output the same way: one frame
/// per pull, or `n` at a time. Returns the frames by output port.
fn run(el: &mut dyn Element, pkts: Vec<Packet>, wide: bool) -> (BTreeMap<usize, Vec<Packet>>, u64) {
    let n = pkts.len();
    let mut out = Output::new();
    if wide {
        el.push_batch(0, &mut PacketBatch::from_vec(pkts), &mut out);
    } else {
        for pkt in pkts {
            el.push(0, pkt, &mut out);
        }
    }
    let mut ports: BTreeMap<usize, Vec<Packet>> = BTreeMap::new();
    for (port, pkt) in out.drain() {
        ports.entry(port).or_default().push(pkt);
    }
    let outputs = el.ports().outputs;
    for port in (0..outputs.len()).filter(|&p| outputs[p] == PortKind::Pull) {
        let pulled = ports.entry(port).or_default();
        if wide {
            let mut batch = PacketBatch::new();
            while el.pull_batch(port, n, &mut batch) > 0 {}
            pulled.extend(batch);
        } else {
            pulled.extend(std::iter::from_fn(|| el.pull(port)));
        }
    }
    (ports, out.take_default_dropped())
}

/// Runs a chain of elements at one width, each fed what the one before
/// it emitted on port 0, and returns what each left behind.
fn chain(stages: &mut [Box<dyn Element>], pkts: Vec<Packet>, wide: bool) -> Vec<Outcome> {
    let frame = |p: &Packet| (p.data().to_vec(), format!("{:?}", p.meta));
    let mut feed = pkts;
    let mut outcomes = Vec::new();
    for el in stages.iter_mut() {
        let (ports, default_dropped) = run(el.as_mut(), feed, wide);
        feed = ports.get(&0).cloned().unwrap_or_default();
        outcomes.push(Outcome {
            ports: (ports.iter())
                .map(|(&port, pkts)| (port, pkts.iter().map(frame).collect()))
                .collect(),
            default_dropped,
            ledger: el.ledger(),
            counters: counters(el.as_ref()),
        });
    }
    outcomes
}

fn assert_width_blind(name: &str, build: impl Fn() -> Vec<Box<dyn Element>>) {
    for n in 1..=40 {
        let seed = 0x5eed_0000 + n as u64;
        let narrow = chain(&mut build(), frames(seed, n), false);
        let wide = chain(&mut build(), frames(seed, n), true);
        for (stage, (one, all)) in narrow.iter().zip(&wide).enumerate() {
            assert_eq!(
                one, all,
                "{name}, stage {stage}: {n} one-frame batches differ from one {n}-frame batch"
            );
        }
    }
}

#[test]
fn every_registry_class_is_blind_to_batch_width() {
    let registry = Registry::standard();
    for &(class, args) in CLASSES {
        assert!(registry.contains(class), "{class} is not in the registry");
        assert_width_blind(class, || {
            vec![registry.construct(class, args).expect("arguments parse")]
        });
    }
}

#[test]
fn ipsec_tunnel_is_blind_to_batch_width() {
    let registry = Registry::standard();
    assert_width_blind("IpsecEncap -> IpsecDecap", || {
        vec![
            registry
                .construct("IpsecEncap", "9, 192.0.2.1, 192.0.2.2")
                .unwrap(),
            registry
                .construct("IpsecDecap", "9, 02:00:00:00:00:01, 02:00:00:00:00:02")
                .unwrap(),
        ]
    });
}

#[test]
fn vlb_encap_then_switch_is_blind_to_batch_width() {
    assert_width_blind("VlbEncap -> VlbSwitch", || {
        vec![
            Box::new(VlbEncap::new(vec![0, 1, 1, 2, 3])),
            Box::new(VlbSwitch::new(3)),
        ]
    });
}
