//! The tables measured on this host. Unlike the model tables they differ
//! from run to run, so `tests/golden.rs` pins none of them; the shape they
//! must keep is asserted here and in `tests/table1_order.rs`.

use crate::Table;
use routebricks::builder::{BuiltRouter, RouterBuilder};
use routebricks::click::runtime::mt::run_graph;
use routebricks::click::{Knobs, Regime};
use routebricks::hw::cost::{Application, BatchingConfig, CostModel};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::telemetry::cycles::ticks_per_sec;
use routebricks::telemetry::DropCause;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Instant;

/// `count` 64 B UDP frames to one destination, each its own flow so RSS
/// sharding spreads them: the traffic of every measured table.
pub fn udp64_frames(count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let src = Ipv4Addr::new(192, 168, (i >> 8) as u8, i as u8);
            let src = SocketAddrV4::new(src, 1024 + (i % 40_000) as u16);
            let dst = SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 80);
            PacketSpec::udp().endpoints(src, dst).frame_len(64).build()
        })
        .collect()
}

/// The minimal forwarder at poll batch `kp` and NIC batch `kn`, its egress
/// queue deep enough for `frames` frames at once; `trace` samples every
/// `trace`-th packet (0: off).
pub fn table1_router(kp: usize, kn: usize, frames: usize, trace: u64) -> BuiltRouter {
    RouterBuilder::minimal_forwarder()
        .batch_size(kp)
        .nic_batch(kn)
        .queue_capacity(frames + 64)
        .trace_sample(trace)
        .build()
        .expect("builder config is valid")
}

/// Injects `frames` through `FromDevice` port 0, runs `router` until idle
/// and returns packets/sec of the run. Panics unless every frame lands,
/// every frame is transmitted and the ledger balances.
pub fn forward_pps(router: &mut BuiltRouter, frames: &[Packet]) -> f64 {
    let sent = |r: &BuiltRouter| (0..r.ports()).map(|p| r.transmitted(p)).sum::<u64>();
    let before = sent(router);
    for frame in frames {
        assert!(
            router.inject(0, frame.clone()),
            "FromDevice takes every frame"
        );
    }
    let start = Instant::now();
    router.run_until_idle(u64::MAX);
    let elapsed = start.elapsed().as_secs_f64();
    let forwarded = sent(router) - before;
    assert_eq!(forwarded, frames.len() as u64, "every frame forwarded");
    assert!(router.ledger().balances(), "the ledger balances");
    frames.len() as f64 / elapsed
}

/// **Table 1, measured**: 64 B minimal forwarding on this host over
/// (kp, kn) ∈ {1, 8, 32} × {1, 4, 16}, injected through `FromDevice` so
/// every frame crosses both descriptor rings. Each cell's best-of-5 host
/// ticks per packet stands beside the `CostModel`'s prototype cycles per
/// packet and their ratio; p99 comes from a separate 1/16-traced pass, so
/// tracing never touches the timed runs.
pub fn table1_measured() -> Vec<Table> {
    const FRAMES: usize = 40_000;
    const REPS: usize = 5;
    let frames = udp64_frames(FRAMES);
    let ticks_per_us = ticks_per_sec() / 1e6;
    let mut rows = Vec::new();
    for kp in [1, 8, 32] {
        for kn in [1, 4, 16] {
            let mut router = table1_router(kp, kn, FRAMES, 0);
            let pps = (0..REPS)
                .map(|_| forward_pps(&mut router, &frames))
                .fold(0.0, f64::max);
            let doorbells = router.click().stats().nic_doorbells as f64 / (REPS * FRAMES) as f64;
            let mut traced = table1_router(kp, kn, FRAMES, 16);
            forward_pps(&mut traced, &frames);
            let (_, p99, _) = traced.take_trace_log().latency_percentiles();
            let ticks = ticks_per_sec() / pps;
            let batching = BatchingConfig {
                kp: kp as u32,
                kn: kn as u32,
            };
            let app = Application::MinimalForwarding;
            let model = CostModel { app, batching }.cpu_cycles(64);
            rows.push([
                format!("kp={kp} kn={kn}"),
                format!("{:.3}", pps / 1e6),
                format!("{ticks:.0}"),
                format!("{model:.0}"),
                format!("{:.2}", ticks / model),
                format!("{doorbells:.3}"),
                format!("{:.1}", p99 as f64 / ticks_per_us),
            ]);
        }
    }
    let title = format!(
        "Table 1, measured — 64 B minimal forwarding on this host ({FRAMES} frames, best of {REPS})"
    );
    let header = "configuration | Mpps | ticks/pkt | model cycles/pkt | measured ÷ model \
                  | doorbells/pkt | p99 µs";
    vec![Table::new(title, header).rows(rows).note(
        "Ticks are this host's clock, model cycles the prototype's; their ratio\n\
         is the residual the model leaves. kn = 1 pays a doorbell per\n\
         descriptor on both rings whatever kp is; the ordering\n\
         (32,16) > (32,1) > (1,1) is asserted by tests/table1_order.rs.",
    )]
}

/// The measured counterpart of Figs. 6 and 9: the REAL element graphs of
/// the three applications, replicated per worker core on the MT runtime
/// under the pull (parallel replicas) and pipeline regimes, on this
/// host; then both regimes under 2× overload.
pub fn regimes() -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One worker per core, capped at the paper's 4 forwarding cores.
    let workers = cores.clamp(1, 4);
    let packets = udp64_frames(40_000);
    let router = || {
        RouterBuilder::ip_router()
            .route("10.0.0.0/9", 0)
            .route("0.0.0.0/0", 1)
    };
    let graphs = [
        ("fwd", RouterBuilder::minimal_forwarder()),
        ("rtr", router()),
        ("ipsec", RouterBuilder::ipsec_gateway()),
    ];
    let regimes = [
        ("parallel replicas", Regime::PullCredit),
        ("pipeline stages", Regime::Pipeline),
    ];
    let mut rows = Vec::new();
    for (app, builder) in graphs {
        let graph = builder.build_graph().expect("preset graph builds");
        for (name, regime) in regimes {
            let knobs = Knobs {
                regime,
                workers,
                ..Knobs::default()
            };
            let run = run_graph(&[&graph], packets.clone(), &knobs, None);
            let report = run.expect("graph must replicate").report;
            rows.push([
                app.to_string(),
                name.to_string(),
                format!("{:.2}", report.pps() / 1e6),
                format!("{:.1}", report.achieved_batch()),
                format!("{:.2}", report.imbalance()),
            ]);
        }
    }
    let mut note = "An achieved kp > 1 under every regime shows poll batching survives\n\
                    the core-to-core hop (PacketBatches, not packets, cross the SPSC\n\
                    rings); imbalance near 1.0 shows RSS flow sharding spreads the load."
        .to_string();
    if cores < 4 {
        note += &format!(
            "\nWARNING: only {cores} core(s) (< 4): these rows reflect per-packet\n\
             overheads, not per-core scaling, and their ordering is not meaningful."
        );
    }
    let title = format!(
        "Measured — real graphs on the MT runtime ({workers} worker(s), {cores} core(s), 64 B)"
    );
    let header = "app | regime | Mpps | achieved kp | imbalance";
    vec![
        Table::new(title, header).rows(rows).note(note),
        overload(&packets),
    ]
}

/// Both regimes under 2× overload: two workers, each replica's arena 32
/// slots, offered 64-frame bursts. Every ring holds two 32-packet
/// batches, so its 64-credit window holds the excess and its filler
/// stalls instead of shedding it as `NoRxDescriptor`. p99 comes from a
/// separate 1/16-traced run.
fn overload(packets: &[Packet]) -> Table {
    const SLOTS: usize = 32;
    let regimes = [Regime::PullCredit, Regime::Pipeline];
    let ticks_per_us = ticks_per_sec() / 1e6;
    let rows = regimes.map(|regime| {
        let run = |trace: u64| {
            RouterBuilder::minimal_forwarder()
                .workers(2)
                .batch_size(32)
                .poll_burst(2 * SLOTS)
                .pool_slots(SLOTS)
                .queue_capacity(packets.len() + 64)
                .keep_tx_frames(true)
                .regime(regime)
                .ring_depth(2)
                .trace_sample(trace)
                .build_mt()
                .expect("builder config is valid")
                .run(packets.to_vec())
                .expect("regime run")
        };
        let out = run(0);
        let ledger = &out.report.ledger;
        assert!(ledger.balances(), "{regime}: the ledger balances");
        let delivered: usize = out.egress.iter().map(Vec::len).sum();
        let (_, p99, _) = run(16).trace.latency_percentiles();
        [
            regime.to_string(),
            format!("{:.3}", delivered as f64 / packets.len() as f64),
            ledger.dropped(DropCause::NoRxDescriptor).to_string(),
            out.report.credit_stalls.to_string(),
            out.report.credit_peak_outstanding.to_string(),
            format!("{:.1}", p99 as f64 / ticks_per_us),
        ]
    });
    let title = format!(
        "Measured — regimes under 2× overload (2 workers, {SLOTS}-slot arenas, {} frames)",
        packets.len()
    );
    let header = "regime | delivered ÷ offered | NoRxDescriptor | credit stalls \
                  | peak outstanding | p99 µs";
    Table::new(title, header).rows(rows).note(
        "Credit backpressure delivers everything and queues it at the\n\
         dispatcher (and, in the pipeline, at the stage before); nothing is\n\
         shed. Stalled is an event, not a packet disposition: every ledger\n\
         balances.",
    )
}
