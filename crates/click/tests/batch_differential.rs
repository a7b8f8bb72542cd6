//! Differential test: batched execution is observably identical to
//! scalar execution.
//!
//! For randomized graphs built from stdlib elements and randomized
//! traffic, running the same configuration with dispatch batch sizes
//! `kp ∈ {1, 8, 32, 256}` must produce byte-identical transmit streams
//! and identical `QueueStats`/`CounterStats` — `kp = 1` *is* the scalar
//! dataplane, so this proves the batched driver changes performance, not
//! semantics. (Device bursts are held fixed: `kp` only controls graph
//! dispatch chunking.)

use proptest::prelude::*;
use rb_click::elements::device::ToDevice;
use rb_click::elements::ip::{CheckIPHeader, DecIPTTL};
use rb_click::elements::queue::{Queue, QueueStats};
use rb_click::elements::route::LookupIPRoute;
use rb_click::elements::sink::{Counter, CounterStats, Discard};
use rb_click::elements::source::VecSource;
use rb_click::elements::Classifier;
use rb_click::graph::Graph;
use rb_click::{Knobs, Router};
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;

/// Recipe for one synthetic packet.
#[derive(Debug, Clone)]
struct PacketRecipe {
    frame_len: usize,
    ttl: u8,
    dst_octet: u8,
    sport: u16,
    corrupt: bool,
}

fn build_packet(r: &PacketRecipe) -> Packet {
    let mut pkt = PacketSpec::udp()
        .endpoints(
            std::net::SocketAddrV4::new(
                std::net::Ipv4Addr::new(172, 16, 0, 9),
                1024 + (r.sport % 40_000),
            ),
            std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(r.dst_octet, 1, 2, 3), 80),
        )
        .ttl(r.ttl)
        .frame_len(r.frame_len)
        .build();
    if r.corrupt {
        // Break the IP checksum so CheckIPHeader diverts the packet.
        let b = pkt.data_mut().get_mut(24).expect("frame has an IP header");
        *b ^= 0xff;
    }
    pkt
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    tx_streams: Vec<Vec<Vec<u8>>>,
    queues: Vec<QueueStats>,
    counter: CounterStats,
    pushes: u64,
    leaked: u64,
    dropped_default: u64,
}

/// Builds one of four stdlib graph shapes (all merge-free: each queue has
/// exactly one producer, so per-edge FIFO order pins the output stream),
/// dispatched `kp` packets at a time.
fn build_graph(shape: u8, recipes: &[PacketRecipe], queue_capacity: usize, kp: usize) -> Router {
    let packets: Vec<Packet> = recipes.iter().map(build_packet).collect();
    let mut g = Graph::new();
    let src = g.add("src", Box::new(VecSource::new(packets))).unwrap();
    let cnt = g.add("cnt", Box::new(Counter::new())).unwrap();
    match shape % 4 {
        0 => {
            // src -> cnt -> q0 -> tx0
            let q = g.add("q0", Box::new(Queue::new(queue_capacity))).unwrap();
            let tx = g
                .add("tx0", Box::new(ToDevice::new(Some(16), true)))
                .unwrap();
            g.connect(src, 0, cnt, 0).unwrap();
            g.connect(cnt, 0, q, 0).unwrap();
            g.connect(q, 0, tx, 0).unwrap();
        }
        1 => {
            // src -> chk -> cnt -> q0 -> tx0; bad frames discarded.
            let chk = g.add("chk", Box::new(CheckIPHeader::ethernet())).unwrap();
            let bad = g.add("bad", Box::new(Discard::new())).unwrap();
            let q = g.add("q0", Box::new(Queue::new(queue_capacity))).unwrap();
            let tx = g
                .add("tx0", Box::new(ToDevice::new(Some(16), true)))
                .unwrap();
            g.connect(src, 0, chk, 0).unwrap();
            g.connect(chk, 1, bad, 0).unwrap();
            g.connect(chk, 0, cnt, 0).unwrap();
            g.connect(cnt, 0, q, 0).unwrap();
            g.connect(q, 0, tx, 0).unwrap();
        }
        2 => {
            // Full IP-router chain with a two-way route split.
            let chk = g.add("chk", Box::new(CheckIPHeader::ethernet())).unwrap();
            let bad = g.add("bad", Box::new(Discard::new())).unwrap();
            let ttl = g.add("ttl", Box::new(DecIPTTL::ethernet())).unwrap();
            let exp = g.add("exp", Box::new(Discard::new())).unwrap();
            let rt = g
                .add(
                    "rt",
                    Box::new(LookupIPRoute::from_spec("10.0.0.0/8 0, 0.0.0.0/0 1").unwrap()),
                )
                .unwrap();
            let miss = g.add("miss", Box::new(Discard::new())).unwrap();
            g.connect(src, 0, chk, 0).unwrap();
            g.connect(chk, 1, bad, 0).unwrap();
            g.connect(chk, 0, cnt, 0).unwrap();
            g.connect(cnt, 0, ttl, 0).unwrap();
            g.connect(ttl, 1, exp, 0).unwrap();
            g.connect(ttl, 0, rt, 0).unwrap();
            for p in 0..2usize {
                let q = g
                    .add(format!("q{p}"), Box::new(Queue::new(queue_capacity)))
                    .unwrap();
                let tx = g
                    .add(format!("tx{p}"), Box::new(ToDevice::new(Some(16), true)))
                    .unwrap();
                g.connect(rt, p, q, 0).unwrap();
                g.connect(q, 0, tx, 0).unwrap();
            }
            g.connect(rt, 2, miss, 0).unwrap();
        }
        _ => {
            // src -> classifier: IPv4 frames one way, the rest the other.
            let cls = g
                .add(
                    "cls",
                    Box::new(Classifier::from_spec("12/0800 24/45, -").unwrap()),
                )
                .unwrap();
            let q0 = g.add("q0", Box::new(Queue::new(queue_capacity))).unwrap();
            let tx0 = g
                .add("tx0", Box::new(ToDevice::new(Some(16), true)))
                .unwrap();
            let q1 = g.add("q1", Box::new(Queue::new(queue_capacity))).unwrap();
            let tx1 = g
                .add("tx1", Box::new(ToDevice::new(Some(16), true)))
                .unwrap();
            g.connect(src, 0, cnt, 0).unwrap();
            g.connect(cnt, 0, cls, 0).unwrap();
            g.connect(cls, 0, q0, 0).unwrap();
            g.connect(cls, 1, q1, 0).unwrap();
            g.connect(q0, 0, tx0, 0).unwrap();
            g.connect(q1, 0, tx1, 0).unwrap();
        }
    }
    let knobs = Knobs {
        batch_size: kp,
        ..Knobs::default()
    };
    Router::configured(g, &knobs, 0).unwrap()
}

fn run_snapshot(shape: u8, recipes: &[PacketRecipe], queue_capacity: usize, kp: usize) -> Snapshot {
    let mut router = build_graph(shape, recipes, queue_capacity, kp);
    let stats = router.run_until_idle(u64::MAX);
    let mut tx_streams = Vec::new();
    let mut queues = Vec::new();
    for p in 0..2 {
        if let Some(tx) = router.element_as::<ToDevice>(&format!("tx{p}")) {
            tx_streams.push(tx.tx_log().iter().map(|f| f.data().to_vec()).collect());
        }
        if let Some(qs) = router.queue_stats(&format!("q{p}")) {
            queues.push(qs);
        }
    }
    Snapshot {
        tx_streams,
        queues,
        counter: router.counter("cnt").expect("every shape has cnt"),
        pushes: stats.pushes,
        leaked: stats.leaked,
        dropped_default: stats.dropped_default,
    }
}

fn recipe_strategy() -> impl Strategy<Value = PacketRecipe> {
    (
        60usize..600,
        0u8..65,
        (1u8..224, 0u16..40_000),
        any::<bool>(),
    )
        .prop_map(
            |(frame_len, ttl, (dst_octet, sport), corrupt)| PacketRecipe {
                frame_len,
                ttl,
                dst_octet,
                sport,
                corrupt,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batched_execution_is_identical_to_scalar(
        shape in 0u8..4,
        recipes in proptest::collection::vec(recipe_strategy(), 1..200),
        queue_capacity in 4usize..400,
    ) {
        let scalar = run_snapshot(shape, &recipes, queue_capacity, 1);
        for kp in [8usize, 32, 256] {
            let batched = run_snapshot(shape, &recipes, queue_capacity, kp);
            prop_assert_eq!(
                &scalar, &batched,
                "kp={} diverged from scalar on shape {}", kp, shape
            );
        }
    }
}
