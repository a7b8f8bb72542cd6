//! Real-thread benchmark: the Fig. 6 core layouts on today's hardware,
//! on the REAL minimal-forwarding element graph (FromDevice ->
//! CheckIPHeader -> Counter -> Queue -> ToDevice) — one row per
//! [`Regime`], the graph fixed and only the layout selected: parallel
//! replicas (one core per packet) and a stage chain (every packet
//! crosses cores). `PacketBatch`es cross the cores over credit-gated
//! SPSC rings in both.
//!
//! Absolute numbers differ from the paper's 2009 Nehalem, but the
//! *ordering* (parallel ≥ pipeline) is the claim under test; the
//! `graph_replicas_scale_like_fig6` integration test asserts it where
//! each worker can have a core. The lock-shared queue of Fig. 6 has no
//! real-thread row: it is modelled in `rb_hw::scenarios` (`paper fig6`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use routebricks::builder::RouterBuilder;
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::Regime;

const PACKETS: usize = 20_000;
const WORKERS: usize = 4;

/// Warn once when the host cannot give each worker its own core: the
/// regime comparison then measures overheads, not scaling.
fn warn_if_undersized() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < WORKERS {
        eprintln!(
            "WARNING: only {cores} core(s) available (< {WORKERS}); \
             threading-regime numbers measure per-packet overheads, not \
             per-core scaling."
        );
    }
}

fn packets() -> Vec<Packet> {
    (0..PACKETS)
        .map(|i| {
            PacketSpec::udp()
                .endpoints(
                    std::net::SocketAddrV4::new(
                        std::net::Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                        1024 + (i % 50_000) as u16,
                    ),
                    std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(192, 168, 0, 1), 80),
                )
                .frame_len(64)
                .build()
        })
        .collect()
}

fn bench_graph_regimes(c: &mut Criterion) {
    warn_if_undersized();
    let mut group = c.benchmark_group("graph_regimes");
    group.sample_size(10);
    group.throughput(Throughput::Elements(PACKETS as u64));

    for (name, regime) in [
        ("pull_credit_replicas", Regime::PullCredit),
        ("pipeline_stage_chain", Regime::Pipeline),
    ] {
        let mt = RouterBuilder::minimal_forwarder()
            .workers(WORKERS)
            .regime(regime)
            .build_mt()
            .expect("graph builds");
        group.bench_function(name, |b| {
            b.iter(|| {
                mt.run(packets())
                    .expect("graph replicates")
                    .report
                    .processed
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_graph_regimes);
criterion_main!(benches);
