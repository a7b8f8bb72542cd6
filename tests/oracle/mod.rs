//! The dataplane oracle's reference, corpus and checks, shared by the
//! test files that hold runs to it (DESIGN.md §6).
//!
//! [`Reference`] pushes one packet at a time, in graph order, through
//! the elements' scalar `push`/`pull` — no batches, pools, rings or
//! scheduler. [`single_threaded`] holds a router to it per (egress,
//! ingress) sequence and to its own `kp = 1` twin; [`multi_threaded`]
//! holds a `run_graph` run to it per (egress, flow) sequence, a pipeline
//! stage being the reference applied once more. Both demand an exact
//! ledger. Each test file uses part of it.
#![allow(dead_code)]

use proptest::prelude::*;
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use routebricks::builder::RouterBuilder;
use routebricks::click::elements::{Counter, FromDevice, Queue, ToDevice};
use routebricks::click::runtime::driver::RunStats;
use routebricks::click::runtime::mt::shard_by_flow;
use routebricks::click::{
    build_graph, run_graph, Graph, GraphError, GraphRunOutcome, Knobs, Output, Router,
};
use routebricks::lookup::{Prefix, RouteTable};
use routebricks::telemetry::{DropCause, Ledger, TelemetryLevel};
use routebricks::Regime;
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Mutex;

/// Drops a knob may legitimately add to the reference's: the frame is
/// gone, the ledger says why.
pub const LEGIT: [DropCause; 2] = [DropCause::QueueOverflow, DropCause::PoolExhausted];

/// `count` frames over `flows` 5-tuples: frame `i` is flow `i % flows`,
/// carries `i` in its last four bytes and in `meta.ingress_seq`, and
/// arrives at `100 i` ns. With `spice`, some have TTL 1 or a broken
/// header checksum.
pub fn traffic(count: usize, flows: usize, size: usize, spice: bool) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let f = i % flows;
            let src = SocketAddrV4::new(Ipv4Addr::new(192, 168, (f >> 8) as u8, f as u8), 1024);
            let dst_top = [10, 172, 192, 8][f % 4];
            let dst = SocketAddrV4::new(Ipv4Addr::new(dst_top, (f % 7) as u8, 1, 2), 80);
            let ttl = if spice && i % 7 == 3 { 1 } else { 64 };
            let mut pkt = PacketSpec::udp()
                .endpoints(src, dst)
                .ttl(ttl)
                .frame_len(size)
                .build();
            let len = pkt.len();
            pkt.data_mut()[len - 4..].copy_from_slice(&(i as u32).to_be_bytes());
            if spice && i % 11 == 5 {
                pkt.data_mut()[24] ^= 0xff;
            }
            pkt.meta.ingress_seq = i as u64;
            pkt.meta.rx_ns = 100 * i as u64;
            pkt
        })
        .collect()
}

/// The reference interpreter, over a fresh copy of a graph. A frame
/// entering at a `FromDevice` leaves its output 0 stamped with the port,
/// as the device stamps it (ingress `i` is port `i` in every corpus
/// graph); each emission is followed depth-first to a
/// queue or sink; then every `ToDevice` pulls its queue dry. Sources
/// other than devices then run one task at a time, each emission
/// followed the same way.
pub struct Reference {
    graph: Graph,
    egress: Vec<Vec<Packet>>,
    ledger: Ledger,
}

impl Reference {
    /// Runs `input` as (ingress index, frame) pairs, then every other
    /// source dry; returns each `ToDevice`'s frames, in graph order, and
    /// the ledger the run books.
    pub fn run(graph: Graph, input: Vec<(usize, Packet)>) -> (Vec<Vec<Packet>>, Ledger) {
        let devices = graph.elements_of_type::<FromDevice>();
        let egress = graph.elements_of_type::<ToDevice>();
        let sources: Vec<usize> = (0..graph.len())
            .filter(|&id| graph.element(id).is_active() && !devices.contains(&id))
            .filter(|&id| !egress.contains(&id))
            .collect();
        let mut r = Reference {
            graph,
            egress: vec![Vec::new(); egress.len()],
            ledger: Ledger::default(),
        };
        r.ledger.sourced = input.len() as u64;
        for (port, mut pkt) in input {
            pkt.meta.input_port = port as u16;
            r.follow(devices[port], 0, pkt);
            r.pull_all(&egress);
        }
        let mut busy = true;
        while busy {
            busy = false;
            for &id in &sources {
                let mut out = Output::new();
                busy |= r.graph.element_mut(id).run_task(&mut out);
                for (port, pkt) in out.drain() {
                    r.follow(id, port, pkt);
                    r.pull_all(&egress);
                }
            }
        }
        for id in 0..r.graph.len() {
            if let Some(part) = r.graph.element(id).ledger() {
                r.ledger.merge(&part);
            }
        }
        r.ledger.forwarded = r.egress.iter().map(|e| e.len() as u64).sum();
        (r.egress, r.ledger)
    }

    pub fn follow(&mut self, from: usize, port: usize, pkt: Packet) {
        let Some(edge) = self.graph.edge_from(from, port) else {
            self.ledger.add(DropCause::Leaked, 1);
            return;
        };
        let mut out = Output::new();
        self.graph
            .element_mut(edge.to)
            .push(edge.to_port, pkt, &mut out);
        self.ledger
            .add(DropCause::Wiring, out.take_default_dropped());
        for (port, pkt) in out.drain() {
            self.follow(edge.to, port, pkt);
        }
    }

    pub fn pull_all(&mut self, egress: &[usize]) {
        for (i, &tx) in egress.iter().enumerate() {
            let edge = self.graph.edges_into(tx, 0)[0];
            while let Some(pkt) = self.graph.element_mut(edge.from).pull(edge.from_port) {
                self.egress[i].push(pkt);
            }
        }
    }
}

/// One graph of the corpus.
#[derive(Clone)]
pub enum Shape {
    /// A builder preset, keeping transmitted frames.
    Built(&'static str, Box<RouterBuilder>),
    /// Configuration text, given the cell's knobs as a `RuntimeConfig`
    /// line. `seals` says egress frames carry an `IpsecEncap` sequence
    /// number no later link takes off.
    Text(String, bool),
}

impl Shape {
    pub fn name(&self) -> &str {
        match self {
            Shape::Built(name, ..) => name,
            Shape::Text(text, _) => text,
        }
    }

    /// The graph under `knobs`, and the knobs as the runtime reads them.
    pub fn graph(&self, knobs: &Knobs) -> (Graph, Knobs) {
        match self {
            Shape::Built(_, builder) => {
                let b = builder.clone().apply_knobs(knobs).keep_tx_frames(true);
                (b.build_graph().unwrap(), *knobs)
            }
            Shape::Text(text, _) => {
                let (graph, parsed) = build_graph(&format!("{}\n{text}", runtime_config(knobs)))
                    .unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(&parsed, knobs, "RuntimeConfig round trip");
                (graph, parsed)
            }
        }
    }

    /// A fresh heap-backed copy under the default knobs — the reference's.
    /// A builder preset's is replicated from one built per process, so
    /// its FIB is compiled once.
    pub fn fresh(&self) -> Graph {
        static BUILT: Mutex<BTreeMap<&'static str, Graph>> = Mutex::new(BTreeMap::new());
        let Shape::Built(name, ..) = self else {
            return self.graph(&Knobs::default()).0;
        };
        let mut built = BUILT.lock().unwrap();
        let template = built
            .entry(name)
            .or_insert_with(|| self.graph(&Knobs::default()).0);
        template.replicate().unwrap()
    }

    pub fn seals(&self) -> bool {
        match self {
            Shape::Built(name, ..) => *name == "ipsec",
            Shape::Text(_, seals) => *seals,
        }
    }

    pub fn has_device(&self) -> bool {
        matches!(self, Shape::Built(..)) || self.name().contains("FromDevice")
    }
}

/// `knobs` as configuration text.
pub fn runtime_config(k: &Knobs) -> String {
    let telemetry = match k.telemetry {
        TelemetryLevel::Off => "off",
        TelemetryLevel::Counts => "on",
        TelemetryLevel::Cycles => "cycles",
    };
    let poll = k
        .poll_burst
        .map_or(String::new(), |b| format!(", poll_burst {b}"));
    let pool = match k.pool_slots {
        0 => String::new(),
        n => format!(", pool_slots {n}"),
    };
    format!(
        "RuntimeConfig(batch_size {}{poll}{pool}, nic_batch {}, slot_size {}, telemetry {telemetry}, \
         trace_sample {}, workers {}, regime {}, ring_depth {});",
        k.batch_size, k.nic_batch, k.slot_size, k.trace_sample, k.workers, k.regime, k.ring_depth
    )
}

/// The chain links, over `crates/click/tests/fuzz.rs`'s element list:
/// each its elements — (configuration, outputs past 0, each into a
/// `Discard`) — and whether it seals.
pub type Link = (&'static [(&'static str, usize)], bool);
pub const LINKS: [Link; 9] = [
    (&[("CheckIPHeader", 1)], false),
    (&[("DecIPTTL", 1)], false),
    (&[("Classifier(12/0800 24/45, -)", 1)], false),
    (
        &[(
            "LookupIPRoute(10.0.0.0/8 0, 172.16.0.0/12 1, 0.0.0.0/0 0)",
            2,
        )],
        false,
    ),
    (
        &[
            ("StripEther", 0),
            ("EtherEncap(00:00:00:00:00:01, 00:00:00:00:00:02)", 0),
        ],
        false,
    ),
    (&[("IpsecEncap(5, 192.0.2.1, 192.0.2.2)", 1)], true),
    (
        &[
            ("IpsecEncap(7, 192.0.2.1, 192.0.2.2)", 1),
            ("IpsecDecap(7, 02:00:00:00:00:01, 02:00:00:00:00:02)", 1),
        ],
        false,
    ),
    (&[("Meter(8e9, 4000)", 1)], false),
    (&[("RandomSample(0.75, 9)", 1)], false),
];

/// `FromDevice(0)`, the links, and a split — UDP or not — into two
/// queues of `capacity` frames.
pub fn chain(links: &[usize], capacity: usize) -> Shape {
    let mut text = String::from("rx :: FromDevice(0);\n");
    let mut path = String::from("rx");
    for (i, &l) in links.iter().enumerate() {
        for (j, (conf, extra)) in LINKS[l].0.iter().enumerate() {
            text += &format!("l{i}_{j} :: {conf};\n");
            path += &format!(" -> l{i}_{j}");
            for port in 1..=*extra {
                text += &format!("l{i}_{j} [{port}] -> Discard;\n");
            }
        }
    }
    text += &format!(
        "split :: Classifier(23/11, -); q0 :: Queue({capacity}); q1 :: Queue({capacity});\n"
    );
    text += &format!("{path} -> split -> q0 -> ToDevice(32, keep);\n");
    text += "split [1] -> q1 -> ToDevice(32, keep);";
    Shape::Text(text, links.iter().any(|&l| LINKS[l].1))
}

pub fn built(name: &'static str, builder: RouterBuilder) -> Shape {
    Shape::Built(name, Box::new(builder))
}

/// The examples' graphs and the benchmark's builder graphs, test-sized.
pub fn corpus() -> Vec<Shape> {
    let mut rib = RouteTable::new();
    rib.insert("0.0.0.0/0".parse::<Prefix>().unwrap(), 1);
    for (prefix, hop) in routebricks::workload::rib_full_table(400, 7).iter() {
        rib.insert(Prefix::new(prefix.addr(), prefix.len()), hop % 8);
    }
    vec![
        // fwd64_tuned, fwd64_untuned, mt_pull64_w1.
        built("forwarder", RouterBuilder::minimal_forwarder()),
        // route64_fib1m_churn, 8 ports and a 400-route RIB.
        built(
            "route_rcu",
            RouterBuilder::ip_router().ports(8).routes_from_table(rib),
        ),
        // ipsec_abilene; examples/ipsec_gateway.rs.
        built("ipsec", RouterBuilder::ipsec_gateway().sa_seed(9)),
        // examples/ip_router.rs.
        built(
            "ip_router",
            RouterBuilder::ip_router()
                .ports(4)
                .route("10.0.0.0/9", 0)
                .route("10.128.0.0/9", 1)
                .route("172.16.0.0/12", 2)
                .route("0.0.0.0/0", 3),
        ),
        // examples/quickstart.rs, 300 frames, keeping them.
        Shape::Text(
            "src :: InfiniteSource(64, 300); cls :: Classifier(12/0800, -); cnt :: Counter;
             q :: Queue(1000); tx :: ToDevice(32, keep); drop :: Discard;
             src -> cls; cls [0] -> cnt -> q -> tx; cls [1] -> drop;"
                .into(),
            false,
        ),
    ]
}

/// The corpus's builder presets that every layout runs: the forwarder,
/// the IPsec gateway and the four-port IP router.
pub fn presets() -> Vec<Shape> {
    corpus()
        .into_iter()
        .filter(|s| ["forwarder", "ipsec", "ip_router"].contains(&s.name()))
        .collect()
}

/// What a run leaves behind to compare.
pub struct Run {
    pub egress: Vec<Vec<Packet>>,
    pub ledger: Ledger,
    /// `ingress_seq` of every frame the ingress refused (no arena slot).
    pub refused: Vec<u64>,
    /// Every queue's and counter's statistics, in graph order.
    pub stats: Vec<String>,
    pub totals: RunStats,
}

/// Injects `input` into a single-threaded router and runs it dry.
pub fn run_st(graph: Graph, knobs: &Knobs, input: &[(usize, Packet)]) -> Run {
    let mut router = Router::configured(graph, knobs, 0).unwrap();
    let devices = router.graph().elements_of_type::<FromDevice>();
    let mut refused = Vec::new();
    for (port, pkt) in input {
        let dev = router.element_mut(devices[*port]).as_any_mut();
        if !dev
            .downcast_mut::<FromDevice>()
            .unwrap()
            .inject(pkt.clone())
        {
            refused.push(pkt.meta.ingress_seq);
        }
    }
    assert!(!router.run_until_idle(u64::MAX).fused);
    // Before the egress is copied out: a pooled frame's copy takes a slot.
    let totals = router.stats();
    let g = router.graph();
    let stats = (0..g.len())
        .filter_map(|id| {
            let el = g.element(id).as_any();
            let queue = el
                .downcast_ref::<Queue>()
                .map(|q| format!("{:?}", q.stats()));
            queue.or_else(|| {
                el.downcast_ref::<Counter>()
                    .map(|c| format!("{:?}", c.stats()))
            })
        })
        .collect();
    Run {
        egress: g
            .elements_of_type::<ToDevice>()
            .iter()
            .map(|&id| {
                let tx = g.element(id).as_any().downcast_ref::<ToDevice>();
                tx.unwrap().tx_log().to_vec()
            })
            .collect(),
        ledger: router.ledger(),
        refused,
        stats,
        totals,
    }
}

/// Checks `got` against the reference ledger `want`; returns how many
/// frames the legitimate drops took, or what is wrong.
pub fn ledger_shortfall(got: &Ledger, want: &Ledger) -> Result<u64, String> {
    if !got.balances() || got.in_flight != 0 || got.sourced != want.sourced {
        return Err(format!("ledger {got:?} against sourced {}", want.sourced));
    }
    let mut short = 0;
    for cause in DropCause::ALL {
        let (g, w) = (got.dropped(cause), want.dropped(cause));
        match LEGIT.contains(&cause) && g >= w {
            true => short += g - w,
            false if g != w => return Err(format!("{cause:?}: {g}, reference {w}; {got:?}")),
            false => {}
        }
    }
    match got.forwarded + short == want.forwarded {
        true => Ok(short),
        false => Err(format!(
            "forwarded {} + {short} dropped, reference {}",
            got.forwarded, want.forwarded
        )),
    }
}

pub type Seqs<'a> = BTreeMap<(usize, u64), Vec<(u64, &'a [u8])>>;

/// The (index, bytes) frames of `egress`, by (egress, `key(index)`).
pub fn sequences<'a>(egress: &'a [Vec<Packet>], key: &dyn Fn(u64) -> u64) -> Seqs<'a> {
    let mut seqs = Seqs::new();
    for (port, frames) in egress.iter().enumerate() {
        for f in frames {
            let seq = f.meta.ingress_seq;
            seqs.entry((port, key(seq)))
                .or_default()
                .push((seq, f.data()));
        }
    }
    seqs
}

/// Compares each (egress, `key(ingress_seq)`) sequence of frames: `got`'s
/// must be the reference's with exactly `short` frames left out. Returns
/// the first divergence.
pub fn diverges(
    got: &[Vec<Packet>],
    want: &[Vec<Packet>],
    key: impl Fn(u64) -> u64,
    short: u64,
) -> Option<String> {
    let (got, want) = (sequences(got, &key), sequences(want, &key));
    if let Some(k) = got.keys().find(|k| !want.contains_key(k)) {
        return Some(format!(
            "(egress, key) {k:?} carries frames the reference never sent"
        ));
    }
    let mut missing = 0;
    for (k, w) in &want {
        let g = got.get(k).map_or(&[][..], Vec::as_slice);
        let mut rest = w.iter();
        if let Some(at) = g.iter().position(|f| !rest.any(|r| r == f)) {
            let near: Vec<u64> = g.iter().skip(at).take(4).map(|f| f.0).collect();
            let expect: Vec<u64> = w.iter().skip(at).take(4).map(|f| f.0).collect();
            return Some(format!(
                "(egress, key) {k:?} frame {at}: got {near:?}, reference {expect:?}"
            ));
        }
        missing += (w.len() - g.len()) as u64;
    }
    (missing != short).then(|| format!("{missing} frames missing, the ledger books {short}"))
}

/// The reference's egress and ledger for `frames` entering port 0 of
/// `stages` chained copies of `shape`.
pub fn reference(shape: &Shape, frames: &[Packet], stages: usize) -> (Vec<Vec<Packet>>, Ledger) {
    let mut input: Vec<(usize, Packet)> = frames.iter().map(|p| (0, p.clone())).collect();
    let (mut egress, mut ledger) = (Vec::new(), Ledger::default());
    for _ in 0..stages {
        let (out, booked) = Reference::run(shape.fresh(), input);
        ledger.merge(&booked);
        input = out.iter().flatten().map(|p| (0, p.clone())).collect();
        egress = out;
    }
    (egress, ledger)
}

pub fn fail(why: String) -> TestCaseError {
    TestCaseError::Fail(why)
}

/// A single-threaded run of `frames` against the reference, alternating
/// ingress ports when `split` and the graph has two; then the same
/// device bursts dispatched one packet at a time, which must change
/// nothing — frames, refusals, ledger, pushes, queue and counter
/// statistics.
pub fn single_threaded(
    shape: &Shape,
    knobs: &Knobs,
    frames: &[Packet],
    split: bool,
) -> Result<(), TestCaseError> {
    let (graph, knobs) = shape.graph(knobs);
    // A graph without devices (examples/quickstart.rs) sources its own.
    let ports = graph.elements_of_type::<FromDevice>().len();
    let two = split && ports > 1;
    let port_of = |seq: u64| if two { seq % 2 } else { 0 };
    let input: Vec<(usize, Packet)> = frames
        .iter()
        .take(if ports > 0 { frames.len() } else { 0 })
        .map(|p| (port_of(p.meta.ingress_seq) as usize, p.clone()))
        .collect();
    // A replica keeps a configuration text's devices as they are.
    let replica = graph
        .replicate()
        .ok()
        .filter(|_| matches!(shape, Shape::Text(..)));
    let run = run_st(graph, &knobs, &input);
    let kept = input
        .iter()
        .filter(|(_, p)| !run.refused.contains(&p.meta.ingress_seq));
    let (want, mut booked) = Reference::run(shape.fresh(), kept.cloned().collect());
    let refused = run.refused.len() as u64;
    booked.sourced += refused;
    booked.add(DropCause::NoRxDescriptor, refused);
    let short = ledger_shortfall(&run.ledger, &booked).map_err(fail)?;
    if let Some(why) = diverges(&run.egress, &want, port_of, short) {
        return Err(fail(format!("{}: {why}", shape.name())));
    }
    let device_burst = knobs.poll_burst.unwrap_or(knobs.batch_size);
    let twin = Knobs {
        batch_size: 1,
        poll_burst: Some(device_burst),
        ..knobs
    };
    let scalar = run_st(
        replica.unwrap_or_else(|| shape.graph(&twin).0),
        &twin,
        &input,
    );
    prop_assert_eq!(diverges(&scalar.egress, &run.egress, |_| 0, 0), None);
    // Statistics too, unless the arena bounds what drains may defer (half
    // its slots): then when they are released, and so a queue's high-water
    // mark, follows the dispatch granularity.
    if knobs.pool_slots == 0 || knobs.pool_slots as u64 / 2 >= run.ledger.sourced {
        prop_assert_eq!(&scalar.stats, &run.stats, "queue and counter statistics");
    }
    prop_assert_eq!(scalar.refused, run.refused);
    prop_assert_eq!(scalar.ledger, run.ledger);
    let pushes = |t: &RunStats| (t.pushes, t.leaked, t.dropped_default);
    prop_assert_eq!(pushes(&scalar.totals), pushes(&run.totals));
    Ok(())
}

/// A `run_graph` run of `frames` against the reference; the outcome,
/// unless the graph rightly refuses to replicate.
pub fn multi_threaded(
    shape: &Shape,
    knobs: &Knobs,
    frames: &[Packet],
    flows: u64,
) -> Result<Option<GraphRunOutcome>, TestCaseError> {
    let (graph, knobs) = shape.graph(knobs);
    let refuses = !shape.has_device()
        || ["Meter(", "RandomSample("]
            .iter()
            .any(|c| shape.name().contains(c));
    let out = match run_graph(&[&graph], frames.to_vec(), &knobs, None) {
        Err(GraphError::MissingIngress) if !shape.has_device() => return Ok(None),
        Err(GraphError::NotReplicable { class, .. })
            if refuses && ["Meter", "RandomSample"].contains(&class.as_str()) =>
        {
            return Ok(None)
        }
        Err(e) => return Err(fail(format!("{}: {e}", shape.name()))),
        Ok(_) if refuses => return Err(fail(format!("{} ran replicated", shape.name()))),
        Ok(out) => out,
    };
    let stages = match knobs.regime {
        Regime::Pipeline => knobs.workers,
        Regime::PullCredit => 1,
    };
    let (want, booked) = reference(shape, frames, stages);
    let report = &out.report;
    let short = ledger_shortfall(&report.ledger, &booked).map_err(fail)?;
    prop_assert_eq!(out.egress.len(), want.len());
    prop_assert_eq!(
        report.processed,
        out.egress.iter().map(|e| e.len() as u64).sum::<u64>()
    );
    prop_assert_eq!(report.per_worker.len(), knobs.workers);
    prop_assert!(out.worker_stats.iter().all(|s| !s.fused));
    prop_assert_eq!(report.pool_exhausted, 0, "admission is arena-aware");
    if knobs.pool_slots > 0 {
        // Each frame lands in a slot or on the heap; a frame an element
        // grows past its slot's room falls back once more.
        prop_assert!(report.pool_allocs + report.pool_fallbacks >= report.ledger.sourced);
    }
    let key = |seq: u64| if knobs.workers == 1 { 0 } else { seq % flows };
    let divergence = diverges(&out.egress, &want, key, short);
    // IpsecEncap is not shard-safe (ROADMAP, "Shard-safety"): each
    // replica counts ESP sequence numbers from 1 under one key, so once
    // two replicas seal, their frames differ from the reference's.
    let sent: Vec<u64> = want.iter().flatten().map(|p| p.meta.ingress_seq).collect();
    let sealing = shard_by_flow(frames.to_vec(), knobs.workers)
        .iter()
        .filter(|shard| shard.iter().any(|p| sent.contains(&p.meta.ingress_seq)))
        .count();
    let known = knobs.regime == Regime::PullCredit && shape.seals() && sealing > 1;
    prop_assert_eq!(
        divergence.is_some(),
        known,
        "{}: {:?}",
        shape.name(),
        divergence
    );
    Ok(Some(out))
}
