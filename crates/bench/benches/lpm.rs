//! Real-code benchmark: LPM lookup implementations on the paper's
//! 256K-entry routing table (DIR-24-8 vs binary trie vs linear scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use routebricks::lookup::gen::{addresses_within, generate_table, TableGenConfig};
use routebricks::lookup::{BinaryTrie, Dir24_8, LinearTable, LpmLookup};
use std::hint::black_box;

fn bench_lpm(c: &mut Criterion) {
    let table = generate_table(&TableGenConfig::default());
    let dir = Dir24_8::compile(&table).expect("table compiles");
    let trie = BinaryTrie::compile(&table);
    let linear = LinearTable::compile(&table);
    let probes = addresses_within(&table, 4096, 0xbeef);

    let mut group = c.benchmark_group("lpm_256k");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function(BenchmarkId::new("dir24_8", "256k"), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &addr in &probes {
                acc = acc.wrapping_add(u32::from(dir.lookup(black_box(addr)).unwrap_or(0)));
            }
            acc
        })
    });
    group.bench_function(BenchmarkId::new("binary_trie", "256k"), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &addr in &probes {
                acc = acc.wrapping_add(u32::from(trie.lookup(black_box(addr)).unwrap_or(0)));
            }
            acc
        })
    });
    // The linear scan is O(n); bench on a small probe subset so the run
    // finishes, and report per-element throughput for comparability.
    let few = &probes[..32];
    group.throughput(Throughput::Elements(few.len() as u64));
    group.bench_function(BenchmarkId::new("linear_scan", "256k"), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &addr in few {
                acc = acc.wrapping_add(u32::from(linear.lookup(black_box(addr)).unwrap_or(0)));
            }
            acc
        })
    });
    group.finish();

    // Table-size sweep for DIR-24-8, one lookup at a time and in
    // prefetched batches of 32: lookup cost should stay flat.
    let mut sweep = c.benchmark_group("dir24_8_table_size");
    for routes in [1_000usize, 16_000, 256 * 1024, 1_000_000] {
        let table = generate_table(&TableGenConfig {
            routes,
            ..TableGenConfig::default()
        });
        let fib = Dir24_8::compile(&table).expect("table compiles");
        let probes = addresses_within(&table, 1024, 7);
        sweep.throughput(Throughput::Elements(probes.len() as u64));
        sweep.bench_function(BenchmarkId::from_parameter(routes), |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for &addr in &probes {
                    acc = acc.wrapping_add(u32::from(fib.lookup(black_box(addr)).unwrap_or(0)));
                }
                acc
            })
        });
        let mut hops = [None; 32];
        sweep.bench_function(BenchmarkId::new("lookup_batch", routes), |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for batch in probes.chunks(hops.len()) {
                    fib.lookup_batch(black_box(batch), &mut hops);
                    let hits = hops[..batch.len()].iter().flatten();
                    acc = hits.fold(acc, |acc, &hop| acc.wrapping_add(u32::from(hop)));
                }
                acc
            })
        });
    }
    sweep.finish();
}

criterion_group!(benches, bench_lpm, bench_updates);
criterion_main!(benches);

/// Route churn: incremental DIR-24-8 updates vs full recompiles — the
/// control-plane side of the paper's extensibility story.
fn bench_updates(c: &mut Criterion) {
    use routebricks::lookup::{DynamicDir24_8, Prefix, RcuFib, RouteTable};
    let table = generate_table(&TableGenConfig {
        routes: 64 * 1024,
        ..TableGenConfig::default()
    });
    let flaps: Vec<(Prefix, u16)> = table.iter().map(|(p, h)| (*p, *h)).take(256).collect();

    c.bench_function("dir24_8_incremental_flap", |b| {
        let mut fib = DynamicDir24_8::from_table(table.clone()).expect("table compiles");
        let mut i = 0usize;
        b.iter(|| {
            let (prefix, hop) = flaps[i % flaps.len()];
            i += 1;
            fib.remove(&prefix);
            fib.insert(prefix, hop).expect("hop fits");
        })
    });

    c.bench_function("dir24_8_full_recompile_64k", |b| {
        let rib: RouteTable = table.iter().map(|(p, h)| (*p, *h)).collect();
        b.iter(|| Dir24_8::compile(black_box(&rib)).expect("table compiles"))
    });

    // The three FIB builds a 1M-route router pays at set-up, on the
    // benchmark's `route64_fib1m_churn` table shape.
    let full = routebricks::workload::rib_full_table(1_000_000, 1);
    let mut builds = c.benchmark_group("fib_build");
    builds.sample_size(10);
    builds.bench_function(BenchmarkId::new("compile", "1m"), |b| {
        b.iter(|| Dir24_8::compile(black_box(&full)).expect("table compiles"))
    });
    builds.bench_function(BenchmarkId::new("dynamic", "1m"), |b| {
        b.iter(|| DynamicDir24_8::from_table(black_box(full.clone())).expect("table compiles"))
    });
    builds.bench_function(BenchmarkId::new("rcu", "1m"), |b| {
        b.iter(|| RcuFib::new(black_box(&full)).expect("table compiles"))
    });
    builds.finish();
}
