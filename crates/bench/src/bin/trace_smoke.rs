//! CI smoke test for the observability path: runs a sampled-trace MT
//! graph (2 workers, streaming SPSC ingress) and a traced cluster-sim
//! replay, exports both as Chrome trace-event JSON, re-parses the JSON
//! with the workspace's own parser, and asserts span nesting, at least
//! one cross-core ring-hop edge, and an exactly-balanced conservation
//! ledger. Exits nonzero on any violation so `scripts/ci.sh` can gate
//! on it.

use routebricks::builder::RouterBuilder;
use routebricks::cluster::sim::{Policy, ReorderExperiment};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::telemetry::{cycles, json, TraceKind, TraceLog};
use routebricks::Regime;

/// Varied-flow traffic so RSS sharding spreads packets across workers.
fn traffic(count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            PacketSpec::udp()
                .endpoints(
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(192, 168, (i >> 8) as u8, i as u8),
                        1024 + (i % 1000) as u16,
                    ),
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(10, (i % 7) as u8, 1, 2),
                        80,
                    ),
                )
                .ttl(64)
                .build()
        })
        .collect()
}

/// Parses Chrome trace JSON and asserts the structural invariants: a
/// non-empty `traceEvents` array and, when ring hops are present, at
/// least one send/recv flow pair sharing an `id` across distinct `tid`s.
fn check_chrome_json(label: &str, text: &str, expect_cross_core: bool) {
    let v = json::parse(text).unwrap_or_else(|e| panic!("{label}: chrome JSON must parse: {e:?}"));
    let events = v
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .unwrap_or_else(|| panic!("{label}: traceEvents array present"));
    assert!(!events.is_empty(), "{label}: trace exported no events");
    if !expect_cross_core {
        return;
    }
    let field = |e: &json::Value, k: &str| e.get(k).and_then(json::Value::as_f64);
    let mut cross_core_edges = 0usize;
    for send in events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("s"))
    {
        let id = field(send, "id");
        let matched = events.iter().any(|recv| {
            recv.get("ph").and_then(json::Value::as_str) == Some("f")
                && field(recv, "id") == id
                && field(recv, "tid") != field(send, "tid")
        });
        if matched {
            cross_core_edges += 1;
        }
    }
    assert!(
        cross_core_edges > 0,
        "{label}: no ring-hop edge crosses cores"
    );
    eprintln!(
        "{label}: {} event(s), {cross_core_edges} cross-core edge(s)",
        events.len()
    );
}

/// Asserts every traced packet's path is time-ordered and that element
/// spans nest between the hop endpoints they ride through.
fn check_span_nesting(label: &str, log: &TraceLog) {
    let mut ids: Vec<u64> = log.spans.iter().map(|s| s.event.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert!(!ids.is_empty(), "{label}: no packets were traced");
    for id in ids {
        let path = log.path_of(id);
        assert!(
            path.windows(2).all(|w| w[0].event.ts <= w[1].event.ts),
            "{label}: path of trace {id:#x} is not time-ordered"
        );
        // A ring send must not come after the matching receive.
        let send = path
            .iter()
            .position(|s| s.event.kind == TraceKind::RingSend);
        let recv = path
            .iter()
            .position(|s| s.event.kind == TraceKind::RingRecv);
        if let (Some(send), Some(recv)) = (send, recv) {
            assert!(
                send < recv,
                "{label}: trace {id:#x} received from a ring before sending"
            );
        }
    }
}

fn mt_smoke() {
    const PACKETS: usize = 3_000;
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .batch_size(32)
        .trace_sample(8)
        .regime(Regime::Spsc)
        .build_mt()
        .expect("builder config is valid");
    let outcome = mt.run(traffic(PACKETS)).expect("graph runs");

    let ledger = outcome.report.ledger;
    assert!(
        ledger.balances(),
        "mt: ledger must balance: {}",
        ledger.to_json()
    );
    assert_eq!(ledger.sourced, PACKETS as u64, "mt: every packet sourced");
    assert_eq!(
        ledger.in_flight, 0,
        "mt: nothing left in flight after drain"
    );

    check_span_nesting("mt", &outcome.trace);
    assert!(
        outcome
            .trace
            .spans
            .iter()
            .any(|s| s.event.kind == TraceKind::Element),
        "mt: element-level spans present"
    );
    let chrome = outcome
        .trace
        .to_chrome_json(cycles::ticks_per_sec() / 1e6, None);
    check_chrome_json("mt", &chrome, true);
    eprint!(
        "{}",
        routebricks::trace_report(&outcome.trace, &ledger, cycles::ticks_per_sec() / 1e6)
    );
}

fn cluster_smoke() {
    let mut exp = ReorderExperiment::default();
    exp.trace.packets = 20_000;
    let (res, run) = exp.run_traced(Policy::Flowlet, 64);
    assert_eq!(
        res,
        exp.run(Policy::Flowlet),
        "cluster: tracing must not perturb the replay"
    );
    assert!(
        run.ledger.balances(),
        "cluster: ledger must balance: {}",
        run.ledger.to_json()
    );
    assert_eq!(
        run.ledger.sourced, res.packets,
        "cluster: every replayed packet sourced"
    );
    check_span_nesting("cluster", &run.trace);
    // The simulator records complete cluster-hop spans, not ring edges.
    check_chrome_json("cluster", &run.trace.to_chrome_json(1000.0, None), false);
    eprint!(
        "{}",
        routebricks::trace_report(&run.trace, &run.ledger, 1000.0)
    );
}

fn main() {
    mt_smoke();
    cluster_smoke();
    eprintln!("trace smoke OK: spans nest, edges cross cores, ledgers balance");
}
