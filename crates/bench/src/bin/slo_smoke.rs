//! CI gate for the live-telemetry layer: interval conservation, the
//! Prometheus/JSON exporters, and the SLO burn-rate engine.
//!
//! Four checks, each fatal on violation:
//!
//! 1. **Conservation while live.** The minimal forwarder runs the pull
//!    regime at a guaranteed 2× overload with a 1 ms interval clock; the
//!    dispatcher harvests worker rings *while they run*. The merged
//!    series must sum exactly to the final conservation ledger, span
//!    ≥ 10 non-empty intervals, and have been read live (not just at the
//!    end-of-run flush).
//! 2. **Exporters re-parse.** The Prometheus text exposition lints clean
//!    (unique well-formed families, HELP+TYPE, cumulative histogram) and
//!    is written to `target/slo_smoke.prom` for `scripts/promlint.sh`;
//!    the JSON time series round-trips through the JSON parser.
//! 3. **Burn-rate flips.** A synthetic healthy → overloaded → recovered
//!    series must read ok → burning → ok off [`SloReport::timeline`] —
//!    the alert fires while the budget burns and clears on recovery
//!    without waiting for the slow window to age out.
//! 4. **DES cross-check.** The measured interval latency sketch is
//!    compared against the `rb-hw` discrete-event latency model — the
//!    closing sanity check that live percentiles and the calibrated
//!    model talk about the same router.

use routebricks::builder::RouterBuilder;
use routebricks::hw::sim::{SimConfig, Simulator};
use routebricks::hw::{Application, CostModel};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::telemetry::{
    cycles, json, prometheus, render_top, DropCause, IntervalStats, Log2Histogram, SloReport,
    SloSpec, SloState,
};
use routebricks::Regime;

const OFFERED: u64 = 60_000;
const POOL_SLOTS: usize = 32;
const BURST: usize = 64; // 2x the arena per admission attempt.

fn traffic() -> Vec<Packet> {
    (0..OFFERED)
        .map(|i| {
            PacketSpec::udp()
                .endpoints(
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(172, 16, (i >> 8) as u8, i as u8),
                        1024 + (i % 40_000) as u16,
                    ),
                    std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(10, 0, 0, 1), 80),
                )
                .build()
        })
        .collect()
}

/// A one-second synthetic interval at `tps = 1e9`.
fn synthetic(seq: u64, forwarded: u64, dropped: u64) -> IntervalStats {
    let mut b = IntervalStats::empty(seq, 0, seq * 1_000_000_000);
    b.end_tick = (seq + 1) * 1_000_000_000;
    b.quanta = 10;
    b.sourced = forwarded + dropped;
    b.forwarded = forwarded;
    b.tx_bytes = forwarded * 64;
    b.drops[0] = dropped;
    let mut lat = Log2Histogram::new();
    for _ in 0..10 {
        lat.record(2_000);
    }
    b.latency = lat;
    b
}

fn main() {
    let tps = cycles::ticks_per_sec();

    // 1. Conservation under live harvest at 2x overload.
    let spec = SloSpec::parse("loss:0.01/floor:1000").expect("spec parses");
    let mt = RouterBuilder::minimal_forwarder()
        .workers(2)
        .batch_size(32)
        .poll_burst(BURST)
        .pool_slots(POOL_SLOTS)
        .queue_capacity(OFFERED as usize + 64)
        .keep_tx_frames(true)
        .regime(Regime::PullCredit)
        .credit_window(2 * POOL_SLOTS)
        .interval_ms(1)
        .slo(spec)
        .build_mt()
        .expect("builder config is valid");
    let out = mt.run(traffic()).expect("overload run succeeds");
    assert!(out.report.ledger.balances(), "overload ledger balances");
    let series = out
        .report
        .timeseries
        .as_ref()
        .expect("interval clock was on");
    let led = series.ledger();
    assert_eq!(led.sourced, out.report.ledger.sourced, "sourced conserves");
    assert_eq!(
        led.forwarded, out.report.ledger.forwarded,
        "forwarded conserves"
    );
    for cause in DropCause::ALL {
        assert_eq!(
            led.dropped(cause),
            out.report.ledger.dropped(cause),
            "drops[{}] conserve",
            cause.as_str()
        );
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
    let report = mt.slo_report(&out).expect("objectives were set");
    eprintln!(
        "slo_smoke  overload  intervals={} live={} graded={} verdict={}",
        series.intervals.len(),
        series.live_harvested,
        report.graded_intervals,
        report.state.as_str()
    );
    eprint!(
        "{}",
        render_top(&series.intervals, Some(&report), tps, 5, &[], None)
    );

    // 2. Exporters: Prometheus lints + re-parses, JSON round-trips.
    let prom = prometheus::render(series, Some(&report), tps, None);
    prometheus::lint(&prom).expect("exposition must lint clean");
    assert!(prom.contains("rb_sourced_packets_total"));
    assert!(prom.contains("rb_quantum_latency_seconds_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("rb_slo_state"));
    std::fs::create_dir_all("target").expect("target/ is writable");
    std::fs::write("target/slo_smoke.prom", &prom).expect("write .prom");
    let ts_json = series.to_json(tps);
    let v = json::parse(&ts_json).expect("time-series JSON parses");
    assert!(v.get("intervals").is_some(), "JSON carries the intervals");
    let report_json = json::parse(&report.to_json()).expect("SLO JSON parses");
    assert!(report_json.get("state").is_some());
    eprintln!(
        "slo_smoke  export    {} prom lines -> target/slo_smoke.prom, json ok",
        prom.lines().count()
    );

    // 3. Burn-rate verdict flips ok -> burning -> ok.
    let spec = SloSpec::parse("loss:0.01/fast:3/slow:8").expect("spec parses");
    let mut synth: Vec<IntervalStats> = Vec::new();
    for seq in 0..25 {
        synth.push(synthetic(seq, 1000, 0)); // Healthy.
    }
    for seq in 25..35 {
        synth.push(synthetic(seq, 500, 500)); // 50% loss: overload.
    }
    for seq in 35..50 {
        synth.push(synthetic(seq, 1000, 0)); // Recovered.
    }
    let timeline = SloReport::timeline(&spec, &synth, 1e9);
    assert_eq!(timeline[24], SloState::Ok, "healthy prefix reads ok");
    assert_eq!(
        timeline[34],
        SloState::Burning,
        "sustained 50% loss must burn: {:?}",
        &timeline[25..35]
    );
    assert_eq!(
        *timeline.last().unwrap(),
        SloState::Ok,
        "recovery clears the alert: {:?}",
        &timeline[35..]
    );
    let flips: Vec<&SloState> = {
        let mut dedup = Vec::new();
        for s in &timeline {
            if dedup.last() != Some(&s) {
                dedup.push(s);
            }
        }
        dedup
    };
    eprintln!("slo_smoke  burnrate  timeline arc: {flips:?}");

    // 4. Closing DES comparison: measured interval percentiles next to
    // the calibrated latency model. Units differ by design — the sketch
    // holds per-quantum processing spans on this host, the DES predicts
    // per-packet latency on the prototype — so this is a sanity
    // cross-check of magnitudes, not an equality.
    let merged = series.merged_latency();
    let measured_p50_ns = merged.quantile(0.50).unwrap_or(0) as f64 / tps * 1e9;
    let measured_p99_ns = merged.quantile(0.99).unwrap_or(0) as f64 / tps * 1e9;
    let cost = CostModel::tuned(Application::MinimalForwarding);
    let des = Simulator::new(SimConfig::prototype(cost, 1e6)).run();
    assert!(measured_p99_ns > 0.0, "sketch recorded quanta");
    assert!(des.p99_latency_ns > 0, "DES produced latencies");
    eprintln!(
        "slo_smoke  des       measured quantum p50={measured_p50_ns:.0}ns p99={measured_p99_ns:.0}ns \
         vs model packet p99={}ns (mean {:.0}ns) at 1 Mpps",
        des.p99_latency_ns, des.mean_latency_ns
    );
    eprintln!("slo_smoke  OK: series conserves, exporters re-parse, burn rate flips and clears");
}
