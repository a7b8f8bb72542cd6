//! Micro-benchmarks of the per-packet fast-path operations: header
//! parsing, checksum (full and incremental), flow extraction, Toeplitz
//! RSS hashing, and the RSS split of a packet list into per-worker shards.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use routebricks::click::runtime::mt::shard_by_flow;
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::checksum::{checksum, update16};
use routebricks::packet::flow::FiveTuple;
use routebricks::packet::ipv4::{fast, Ipv4Header};
use routebricks::packet::rss::ToeplitzHasher;
use std::hint::black_box;

fn bench_packet_ops(c: &mut Criterion) {
    let pkt = PacketSpec::udp().frame_len(64).build();
    let ip = &pkt.data()[14..];

    c.bench_function("ipv4_parse_checked", |b| {
        b.iter(|| Ipv4Header::parse(black_box(ip)).expect("valid header"))
    });

    c.bench_function("ipv4_dec_ttl_incremental", |b| {
        let mut frame = pkt.clone();
        b.iter(|| {
            // Reset TTL so the loop never expires it.
            frame.data_mut()[14 + 8] = 64;
            let ck = checksum(&zeroed(&frame.data()[14..34]));
            frame.data_mut()[14 + 10..14 + 12].copy_from_slice(&ck.to_be_bytes());
            fast::dec_ttl(&mut frame.data_mut()[14..]).expect("valid header")
        })
    });

    let mut group = c.benchmark_group("checksum_full");
    for size in [20usize, 64, 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            let data = vec![0xabu8; size];
            b.iter(|| checksum(black_box(&data)))
        });
    }
    group.finish();

    c.bench_function("checksum_incremental_update16", |b| {
        b.iter(|| update16(black_box(0x1234), black_box(0x4000), black_box(0x3f00)))
    });

    c.bench_function("five_tuple_extract", |b| {
        b.iter(|| FiveTuple::of_ethernet_frame(black_box(pkt.data())).expect("valid frame"))
    });

    let hasher = ToeplitzHasher::default();
    let flow = FiveTuple::of_ethernet_frame(pkt.data()).expect("valid frame");
    c.bench_function("toeplitz_rss_hash", |b| {
        b.iter(|| hasher.hash_flow(black_box(&flow)))
    });

    // What the MT dispatcher pays to play the NIC's RSS stage, per packet
    // (`Throughput::Elements`): one shard is the identity, four parse and
    // hash every frame. Building the input and freeing the shards happen
    // in the untimed set-up.
    let frames: Vec<_> = (0..8192usize)
        .map(|i| {
            PacketSpec::udp()
                .src(&format!("172.16.{}.{}:{}", i >> 8, i & 0xff, 1024 + i))
                .expect("valid endpoint")
                .frame_len(64)
                .build()
        })
        .collect();
    let mut group = c.benchmark_group("shard_by_flow");
    group.throughput(Throughput::Elements(frames.len() as u64));
    for shards in [1usize, 4] {
        let sharded = std::cell::RefCell::new(Vec::new());
        group.bench_function(BenchmarkId::from_parameter(shards), |b| {
            b.iter_batched(
                || {
                    sharded.borrow_mut().clear();
                    frames.clone()
                },
                |input| *sharded.borrow_mut() = shard_by_flow(input, shards),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn zeroed(header: &[u8]) -> Vec<u8> {
    let mut v = header.to_vec();
    v[10] = 0;
    v[11] = 0;
    v
}

criterion_group!(benches, bench_packet_ops);
criterion_main!(benches);
