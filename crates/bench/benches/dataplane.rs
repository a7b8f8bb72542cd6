//! Real-code benchmark: whole-dataplane throughput of the three
//! applications through the Click-style element graph — our analogue of
//! Fig. 8's per-application comparison on real (not modelled) code.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use routebricks::builder::{BuiltRouter, RouterBuilder};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;

const PACKETS: u64 = 10_000;

fn run(builder: RouterBuilder, size: usize) -> u64 {
    let mut router = builder
        .source_packets(size, PACKETS)
        .build()
        .expect("builder config is valid");
    router.run_until_idle(u64::MAX);
    (0..router.ports())
        .map(|p| router.transmitted(p))
        .sum::<u64>()
}

/// Builds the router outside the timed region (`iter_batched` setup), so
/// the measurement excludes FIB construction and arena-slab zeroing.
fn build(builder: RouterBuilder, size: usize) -> BuiltRouter {
    builder
        .source_packets(size, PACKETS)
        .build()
        .expect("builder config is valid")
}

fn drain(mut router: BuiltRouter) -> u64 {
    router.run_until_idle(u64::MAX);
    (0..router.ports())
        .map(|p| router.transmitted(p))
        .sum::<u64>()
}

/// Table 1 analogue: sweep the batch size `kp` over the forwarding and
/// routing graphs. `kp` is the single batching knob: it sets the graph
/// dispatch chunk, and the devices inherit it as their poll burst, as in
/// the paper where one knob governs both; `kp = 1` is the unbatched
/// baseline the paper reports as 1.46 Gbps vs 9.77 batched. The `_arena`
/// rows run the identical graph with sources allocating from the packet
/// arena instead of the heap (zero-copy handles through the graph).
fn bench_batch_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sweep");
    group.sample_size(20);
    group.throughput(Throughput::Elements(PACKETS));
    let forwarder = |kp: usize| RouterBuilder::minimal_forwarder().batch_size(kp);
    let ip_router = |kp: usize| {
        RouterBuilder::ip_router()
            .route("10.0.0.0/8", 0)
            .route("172.16.0.0/12", 1)
            .route("0.0.0.0/0", 1)
            .batch_size(kp)
    };
    // Slot geometry matched to the 64 B workload (frame + head/tailroom in
    // 256 B) keeps the arena's hot set cache-resident, as in bench_dataplane.
    let arena = |b: RouterBuilder| b.pool_slots(4096).slot_size(256);
    for kp in [1usize, 8, 32, 256] {
        group.bench_function(BenchmarkId::new("minimal_forwarding", kp), |b| {
            b.iter_batched(|| build(forwarder(kp), 64), drain, BatchSize::SmallInput)
        });
        group.bench_function(BenchmarkId::new("minimal_forwarding_arena", kp), |b| {
            b.iter_batched(
                || build(arena(forwarder(kp)), 64),
                drain,
                BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("ip_routing", kp), |b| {
            b.iter_batched(|| build(ip_router(kp), 64), drain, BatchSize::SmallInput)
        });
        group.bench_function(BenchmarkId::new("ip_routing_arena", kp), |b| {
            b.iter_batched(
                || build(arena(ip_router(kp)), 64),
                drain,
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_dataplane(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_apps");
    group.sample_size(20);
    for size in [64usize, 760] {
        group.throughput(Throughput::Elements(PACKETS));
        group.bench_function(BenchmarkId::new("minimal_forwarding", size), |b| {
            b.iter(|| run(RouterBuilder::minimal_forwarder(), size))
        });
        group.bench_function(BenchmarkId::new("ip_routing", size), |b| {
            b.iter(|| {
                run(
                    RouterBuilder::ip_router()
                        .route("10.0.0.0/8", 0)
                        .route("172.16.0.0/12", 1)
                        .route("0.0.0.0/0", 1),
                    size,
                )
            })
        });
        group.bench_function(BenchmarkId::new("ipsec", size), |b| {
            b.iter(|| run(RouterBuilder::ipsec_gateway(), size))
        });
    }
    group.finish();
}

/// What a port costs: the IP router at 1 and at 32 ports, one busy ingress
/// (512-frame rounds into port 0, `kp` 32, scattered destinations — the
/// repo benchmark's `route64` round with a one-route-a-port FIB). Time per
/// round ÷ 512 is ns per packet; the two rows differ by what 31 idle
/// sources, 31 more drains and a 32-way split of every batch cost.
fn bench_wide_router(c: &mut Criterion) {
    const ROUND: u32 = 512;
    let mut group = c.benchmark_group("wide_router");
    group.sample_size(20);
    group.throughput(Throughput::Elements(u64::from(ROUND)));
    for ports in [1u32, 32] {
        let mut builder = RouterBuilder::ip_router()
            .ports(ports as usize)
            .batch_size(32)
            .nic_batch(16)
            .pool_slots(1024)
            .slot_size(256);
        for p in 0..ports {
            builder = builder.route(&format!("{}.0.0.0/8", 10 + p), p as u16);
        }
        let mut router = builder.build().expect("builder config is valid");
        let frames: Vec<Packet> = (0..ROUND)
            .map(|i| {
                let port = (i.wrapping_mul(0x9e37_79b9) >> 16) % ports;
                let dst = format!("{}.0.{}.1:80", 10 + port, i % 200);
                let spec = PacketSpec::udp().dst(&dst).expect("valid address");
                spec.frame_len(64).build()
            })
            .collect();
        group.bench_function(format!("{ports}_ports"), |b| {
            b.iter_batched(
                || frames.clone(),
                |round| {
                    for pkt in round {
                        router.inject(0, pkt);
                    }
                    router.run_until_idle(u64::MAX).quanta
                },
                BatchSize::SmallInput,
            )
        });
        let sent: u64 = (0..router.ports()).map(|p| router.transmitted(p)).sum();
        assert_eq!(sent % u64::from(ROUND), 0, "every round forwards whole");
        assert!(sent > 0);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dataplane,
    bench_batch_sweep,
    bench_wide_router
);
criterion_main!(benches);
