//! Integration tests for the telemetry subsystem: observation must not
//! perturb forwarding, cycle attribution must account for the pipeline
//! it measures, and the live plane — interval series, scrape endpoint,
//! sampled traces — must account for a real multi-threaded run.

use routebricks::bottleneck::BottleneckReport;
use routebricks::builder::{MtRouter, RouterBuilder};
use routebricks::click::build_router;
use routebricks::hw::{Application, CostModel, ServerModel};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::telemetry::http::http_get;
use routebricks::telemetry::{
    cycles, decode_slo_transition, json, prometheus, render_top, DropCause, EventKind, SloSpec,
    SloState, TelemetryLevel, TraceKind,
};
use routebricks::Regime;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `count` 64 B UDP frames with distinct 5-tuples, so RSS flow sharding
/// spreads them across workers.
fn traffic(count: u64) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let src = Ipv4Addr::new(172, 16, (i >> 8) as u8, i as u8);
            let src = SocketAddrV4::new(src, 1024 + (i % 40_000) as u16);
            let dst = SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 80);
            PacketSpec::udp().endpoints(src, dst).build()
        })
        .collect()
}

/// Runs a forwarder and returns the frames transmitted on port 1.
fn forwarded_frames(level: TelemetryLevel) -> Vec<Vec<u8>> {
    let mut r = RouterBuilder::minimal_forwarder()
        .telemetry(level)
        .keep_tx_frames(true)
        .source_packets(128, 300)
        .build()
        .unwrap();
    r.run_until_idle(1_000_000);
    r.tx_frames(1).iter().map(|f| f.data().to_vec()).collect()
}

#[test]
fn telemetry_is_an_observer_not_a_participant() {
    // Byte-identical output with telemetry off, counting, and cycles.
    let off = forwarded_frames(TelemetryLevel::Off);
    assert_eq!(off.len(), 300);
    assert_eq!(off, forwarded_frames(TelemetryLevel::Counts));
    assert_eq!(off, forwarded_frames(TelemetryLevel::Cycles));
}

#[test]
fn off_level_keeps_the_snapshot_empty() {
    let mut r = RouterBuilder::minimal_forwarder()
        .source_packets(64, 100)
        .build()
        .unwrap();
    r.run_until_idle(1_000_000);
    let snap = r.telemetry_snapshot();
    assert!(snap.is_empty(), "default build must not record metrics");
}

/// Stage-attributed cycles must be covered by the scheduler's busy
/// cycles: every dispatch span nests inside a quantum span, so the sum
/// over stages can approach but not exceed the busy total.
fn check_attribution(builder: RouterBuilder, packets: u64) {
    let mut r = builder
        .telemetry(TelemetryLevel::Cycles)
        .source_packets(64, packets)
        .build()
        .unwrap();
    r.run_until_idle(10_000_000);
    let snap = r.telemetry_snapshot();
    let stage_sum: u64 = snap.stages.iter().map(|s| s.cycles).sum();
    let busy = snap.busy_cycles();
    assert!(stage_sum > 0, "cycles attributed");
    assert!(
        stage_sum <= busy,
        "stage cycles {stage_sum} exceed busy cycles {busy}"
    );
    // The dispatch loop between spans is thin: attribution should cover
    // the bulk of busy time, not a sliver. Kept deliberately loose for
    // noisy shared hosts; the real acceptance ratio is printed by the
    // bottleneck report.
    assert!(
        stage_sum as f64 >= 0.25 * busy as f64,
        "attribution covers {stage_sum} of {busy} busy cycles (<25%)"
    );
    assert!(snap.bottleneck().is_some());
}

#[test]
fn short_pipeline_cycles_are_accounted() {
    check_attribution(RouterBuilder::minimal_forwarder(), 2_000);
}

#[test]
fn long_pipeline_cycles_are_accounted() {
    // IP routing adds TTL + LPM stages: a deeper pipeline must still
    // attribute its cycles within the same envelope.
    check_attribution(
        RouterBuilder::ip_router()
            .route("10.0.0.0/8", 0)
            .route("0.0.0.0/0", 1),
        2_000,
    );
}

#[test]
fn ipsec_bottleneck_lands_on_the_cipher() {
    // Deterministic bottleneck identity: AES-128 ESP encapsulation costs
    // far more per packet than any forwarding element, so the measured
    // max-cycles-per-packet stage must be the IpsecEncap element.
    let mut r = RouterBuilder::ipsec_gateway()
        .telemetry(TelemetryLevel::Cycles)
        .source_packets(256, 1_000)
        .build()
        .unwrap();
    r.run_until_idle(10_000_000);
    let snap = r.telemetry_snapshot();
    let report = BottleneckReport::from_snapshot(
        &snap,
        &ServerModel::prototype(),
        &CostModel::tuned(Application::Ipsec),
        256,
    );
    let hot = report.bottleneck_stage().expect("pipeline did work");
    assert_eq!(hot.class, "IpsecEncap", "bottleneck is {}", hot.name);
    // And the report's bottleneck agrees with the snapshot's.
    assert_eq!(snap.bottleneck().unwrap().name, hot.name);
}

#[test]
fn config_text_cycle_rows_survive_the_json_round_trip() {
    // `RuntimeConfig(telemetry cycles)` from configuration text; every
    // element that handled packets must carry a nonzero cycle row.
    let config = "
        RuntimeConfig(telemetry cycles, batch_size 32);
        src :: InfiniteSource(64, 5000);
        chk :: CheckIPHeader(14);
        cnt :: Counter;
        q   :: Queue(8192);
        tx  :: ToDevice(32);
        bad :: Discard;

        src -> chk;
        chk [0] -> cnt -> q -> tx;
        chk [1] -> bad;
    ";
    let mut router = build_router(config).expect("config parses");
    router.run_until_idle(u64::MAX);
    let snap = router.telemetry_snapshot();
    assert_eq!(snap.level, TelemetryLevel::Cycles, "{snap:?}");
    assert!(
        !snap.stages.is_empty(),
        "instrumented run produced stage rows"
    );
    let mut active = 0usize;
    for stage in &snap.stages {
        if stage.packets > 0 {
            assert!(
                stage.cycles > 0,
                "element `{}` handled packets but recorded no cycles",
                stage.name
            );
            active += 1;
        }
    }
    // src, chk, cnt, q, tx all carry traffic; only `bad` may be idle.
    assert!(active >= 5, "expected >= 5 active elements, saw {active}");
    assert!(snap.busy_cycles() > 0, "busy cycles accounted");
}

#[test]
fn live_harvest_conserves_the_ledger_at_2x_overload() {
    // The pull regime at a guaranteed 2x overload — 32-slot arenas,
    // 64-frame bursts — with a 1 ms interval clock: the dispatcher
    // harvests worker rings while they run, and the merged series must
    // sum exactly to the final ledger.
    const OFFERED: u64 = 60_000;
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .batch_size(32)
        .poll_burst(64)
        .pool_slots(32)
        .queue_capacity(OFFERED as usize + 64)
        .keep_tx_frames(true)
        .regime(Regime::PullCredit)
        .ring_depth(2)
        .interval_ms(1)
        .slo(SloSpec::parse("loss:0.01/floor:1000").expect("spec parses"))
        .build_mt()
        .expect("builder config is valid");
    let out = mt.run(traffic(OFFERED)).expect("overload run succeeds");
    let total = &out.report.ledger;
    assert!(total.balances(), "overload ledger balances");
    let series = out
        .report
        .timeseries
        .as_ref()
        .expect("interval clock was on");
    let led = series.ledger();
    assert_eq!(led.sourced, total.sourced, "sourced conserves");
    assert_eq!(led.forwarded, total.forwarded, "forwarded conserves");
    for cause in DropCause::ALL {
        let drops = (led.dropped(cause), total.dropped(cause));
        assert_eq!(drops.0, drops.1, "drops[{}] conserve", cause.as_str());
    }
    assert!(
        series.non_empty_intervals() >= 10,
        "a 2x-overload run must span >= 10 non-empty intervals, got {} \
         (total {}, live {})",
        series.non_empty_intervals(),
        series.intervals.len(),
        series.live_harvested
    );
    assert!(
        series.live_harvested >= 10,
        "intervals must be harvested while workers run, got {} live",
        series.live_harvested
    );
    // The live series exports an exposition that lints clean, and its
    // latency sketch recorded the quanta.
    let tps = cycles::ticks_per_sec();
    let report = mt.slo_report(&out).expect("objectives were set");
    eprintln!(
        "intervals={} live={} graded={} verdict={}",
        series.intervals.len(),
        series.live_harvested,
        report.graded_intervals,
        report.state.as_str()
    );
    eprint!(
        "{}",
        render_top(&series.intervals, Some(&report), tps, 5, &[], None)
    );
    let prom = prometheus::render(series, Some(&report), tps, None);
    prometheus::lint(&prom).expect("exposition must lint clean");
    let p99 = series.merged_latency().quantile(0.99).unwrap_or(0);
    assert!(p99 > 0, "sketch recorded quanta");
    // The journal the harvester derived from the same buckets: on each
    // core the credit-stall episodes open before they close and never
    // nest, the overload opened at least one, and no bucket was lapped.
    let journal = &out.report.events;
    assert_eq!(journal.overflow, 0, "no interval bucket lapped unread");
    let starts = journal.of_kind(EventKind::CreditStallStart).len();
    assert!(starts >= 1, "a 2x overload stalls the credit gate");
    for core in 0..2 {
        let edges: Vec<EventKind> = journal
            .events
            .iter()
            .filter(|e| e.core == core)
            .map(|e| e.kind)
            .filter(|k| matches!(k, EventKind::CreditStallStart | EventKind::CreditStallEnd))
            .collect();
        for (i, kind) in edges.iter().enumerate() {
            let want = [EventKind::CreditStallStart, EventKind::CreditStallEnd][i % 2];
            assert_eq!(*kind, want, "core {core} credit-stall edges: {edges:?}");
        }
    }
}

/// Runs phases of traffic (every `corrupt_every`-th frame's IP header
/// corrupted; 0 leaves all valid) until `/healthz` reads `want`, checking
/// on every run that the per-stage interval series sums to the final
/// merged snapshot, stage by stage.
fn run_until_health(mt: &MtRouter, addr: SocketAddr, corrupt_every: u64, want: u16) {
    for _ in 0..20 {
        let mut packets = traffic(60_000);
        if corrupt_every > 0 {
            for p in packets.iter_mut().step_by(corrupt_every as usize) {
                p.data_mut()[20] ^= 0xff;
            }
        }
        let out = mt.run(packets).expect("phase run succeeds");
        assert!(out.report.ledger.balances(), "phase ledger balances");
        let series = out.report.timeseries.as_ref().expect("interval clock on");
        let totals = series.stage_totals();
        let snap = &out.report.telemetry;
        assert_eq!(totals.len(), snap.stages.len(), "stage row counts match");
        for (i, (d, s)) in totals.iter().zip(snap.stages.iter()).enumerate() {
            assert_eq!(series.stage_names[i].0, s.name, "stage order matches");
            assert_eq!(d.packets, s.packets, "stage {} packets conserve", s.name);
            assert_eq!(d.cycles, s.cycles, "stage {} cycles conserve", s.name);
        }
        // The monitor grades on its own ~1 ms tick: give it a moment.
        for _ in 0..100 {
            let (status, _) = http_get(addr, "/healthz").expect("healthz scrape");
            if status == want {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    panic!("/healthz never reached {want} (corrupt_every={corrupt_every})");
}

#[test]
fn scrape_endpoint_walks_ok_burning_ok_on_a_live_router() {
    // One router serving /metrics on an ephemeral port runs healthy,
    // 50 %-corrupt and healthy phases against the same endpoint while a
    // scraper thread polls it over TCP.
    let spec = SloSpec::parse("loss:0.02/fast:4/slow:10").expect("spec parses");
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .queue_capacity(60_064)
        .telemetry(TelemetryLevel::Cycles)
        .interval_ms(1)
        .slo(spec)
        .serve_metrics("127.0.0.1:0".parse().expect("addr parses"))
        .build_mt()
        .expect("builder config is valid");
    let addr = mt.metrics_addr().expect("serve_metrics bound a port");

    // Every live exposition lints clean.
    let stop = AtomicBool::new(false);
    let (n, last) = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let (mut n, mut last) = (0, String::new());
            while !stop.load(Ordering::Relaxed) {
                if let Ok((status, body)) = http_get(addr, "/metrics") {
                    assert_eq!(status, 200, "/metrics always serves");
                    prometheus::lint(&body).expect("live exposition lints clean");
                    (n, last) = (n + 1, body);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (n, last)
        });
        run_until_health(&mt, addr, 0, 200);
        run_until_health(&mt, addr, 2, 503);
        run_until_health(&mt, addr, 0, 200);
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scraper thread")
    });
    assert!(n >= 10, "scraper landed only {n} live scrapes");
    assert!(
        last.contains("rb_stage_packets_total{element="),
        "live exposition carries per-stage families:\n{last}"
    );
    assert!(last.contains("rb_slo_state"), "SLO verdict exported");

    // The journal carries the slo_transition arc: timestamps monotone,
    // decoded severities entering Burning and returning to Ok.
    let (status, body) = http_get(addr, "/events.json").expect("events scrape");
    assert_eq!(status, 200);
    let mut ticks = Vec::new();
    let mut arcs = Vec::new();
    for line in body.lines().skip(1) {
        let v = json::parse(line).expect("event line parses");
        if v.get("kind").and_then(json::Value::as_str) != Some("slo_transition") {
            continue;
        }
        let number = |key| v.get(key).and_then(json::Value::as_f64).expect(key) as u64;
        ticks.push(number("tick"));
        let (from, to) = decode_slo_transition(number("arg")).expect("a transition's arg decodes");
        arcs.push((from.severity() as u8, to.severity() as u8));
    }
    assert!(
        ticks.windows(2).all(|w| w[0] <= w[1]),
        "slo_transition timestamps are monotone: {ticks:?}"
    );
    let burning = SloState::Burning.severity() as u8;
    let ok = SloState::Ok.severity() as u8;
    let entered = arcs.iter().position(|&(_, to)| to == burning);
    let i = entered.unwrap_or_else(|| panic!("journal never entered burning: {arcs:?}"));
    assert!(
        arcs[i..].iter().any(|&(_, to)| to == ok),
        "journal never recovered to ok after burning: {arcs:?}"
    );
    eprintln!("{n} live scrapes; slo_transition arc (from, to severity): {arcs:?}");
}

#[test]
fn traced_pull_run_pairs_ring_hops_across_cores() {
    // Sampled tracing through the builder, 2 workers, credit-gated SPSC
    // ingress: no traced packet leaves a ring before entering it, and the
    // Chrome export draws at least one ring hop as a flow start and
    // finish sharing an id on two different thread tracks.
    const PACKETS: u64 = 3_000;
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .batch_size(32)
        .trace_sample(8)
        .regime(Regime::PullCredit)
        .build_mt()
        .expect("builder config is valid");
    let outcome = mt.run(traffic(PACKETS)).expect("graph runs");
    let ledger = outcome.report.ledger;
    assert!(ledger.balances(), "ledger must balance: {ledger:?}");
    assert_eq!(ledger.sourced, PACKETS, "every packet sourced");
    assert_eq!(ledger.in_flight, 0, "nothing left in flight after drain");

    let log = &outcome.trace;
    let mut ids: Vec<u64> = log.spans.iter().map(|s| s.event.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert!(!ids.is_empty(), "no packets were traced");
    for id in ids {
        let path = log.path_of(id);
        let at = |kind| path.iter().position(|s| s.event.kind == kind);
        if let (Some(send), Some(recv)) = (at(TraceKind::RingSend), at(TraceKind::RingRecv)) {
            assert!(
                send < recv,
                "trace {id:#x} received from a ring before sending"
            );
        }
    }

    let ticks_per_us = cycles::ticks_per_sec() / 1e6;
    let chrome =
        json::parse(&log.to_chrome_json(ticks_per_us, None)).expect("chrome JSON must parse");
    let events = chrome
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array present");
    let phase = |e: &json::Value, ph| e.get("ph").and_then(json::Value::as_str) == Some(ph);
    let field = |e: &json::Value, k| e.get(k).and_then(json::Value::as_f64);
    let cross_core_edge = events.iter().filter(|send| phase(send, "s")).any(|send| {
        events.iter().any(|recv| {
            phase(recv, "f")
                && field(recv, "id") == field(send, "id")
                && field(recv, "tid") != field(send, "tid")
        })
    });
    assert!(cross_core_edge, "no ring-hop edge crosses cores");
}

#[test]
fn mt_runtime_merges_telemetry_across_workers() {
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .telemetry(TelemetryLevel::Cycles)
        .build_mt()
        .unwrap();
    let outcome = mt.run(traffic(400)).unwrap();
    let snap = &outcome.report.telemetry;
    assert_eq!(snap.workers, 2);
    // Peak stage crossings: the egress queue sees each of the 400
    // packets twice (enqueue + dequeue), summed across both workers.
    assert_eq!(snap.pipeline_packets(), 800);
    assert!(snap.busy_cycles() > 0);
    assert!(outcome.report.ledger.balances());
}
