//! Real-code benchmark: the IPsec data path — AES-128 block, CBC mode,
//! SHA-1/HMAC, full ESP seal/open at the paper's packet sizes, and the
//! `IpsecEncap` element on pooled frames.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use routebricks::click::element::{OnePacket, Output};
use routebricks::click::elements::IpsecEncap;
use routebricks::crypto::aes::Aes128;
use routebricks::crypto::esp::{sealed_len, ESP_PREFIX_LEN};
use routebricks::crypto::hmac::{HmacSha1, ICV_LEN};
use routebricks::crypto::modes::cbc_encrypt;
use routebricks::crypto::sha1::Sha1;
use routebricks::crypto::{EspDecryptor, EspEncryptor, SecurityAssociation};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::{Packet, PacketPool};
use std::hint::black_box;
use std::net::Ipv4Addr;

/// The two backends as bench rows: `hw` is whatever `new()` finds on this
/// CPU (the table code again where it finds nothing — the rows then read
/// the same), `tables` the portable code regardless.
const BACKENDS: [&str; 2] = ["tables", "hw"];

fn bench_primitives(c: &mut Criterion) {
    let key = b"benchmarkkey0000";
    let ciphers = [Aes128::portable(key), Aes128::new(key)];
    println!("crypto backend: {:?}", routebricks::crypto::hardware());

    let mut group = c.benchmark_group("aes128_block");
    for (backend, aes) in BACKENDS.iter().zip(&ciphers) {
        group.bench_function(BenchmarkId::from_parameter(backend), |b| {
            let mut block = [0x42u8; 16];
            b.iter(|| {
                aes.encrypt_block(black_box(&mut block));
                block[0]
            })
        });
    }
    group.finish();

    // One CBC chain over the ESP bodies of 64 B, Abilene-mean and MTU
    // frames: the per-packet cost `esp_seal_batch` interleaves away.
    let mut group = c.benchmark_group("aes128_cbc");
    for size in [64usize, 752, 1488] {
        group.throughput(Throughput::Bytes(size as u64));
        for (backend, aes) in BACKENDS.iter().zip(&ciphers) {
            group.bench_function(BenchmarkId::new(backend, size), |b| {
                let mut data = vec![0xa5u8; size];
                b.iter(|| {
                    cbc_encrypt(aes, &[7u8; 16], black_box(&mut data)).expect("block aligned");
                    data[0]
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("sha1");
    for size in [64usize, 1500] {
        group.throughput(Throughput::Bytes(size as u64));
        for (backend, fresh) in BACKENDS.iter().zip([Sha1::portable(), Sha1::new()]) {
            group.bench_function(BenchmarkId::new(backend, size), |b| {
                let data = vec![0x5au8; size];
                b.iter(|| {
                    let mut h = fresh.clone();
                    h.update(black_box(&data));
                    h.finalize()
                })
            });
        }
    }

    // The sixteen-lane kernel, reached through the only door it has:
    // `mac96_batch` over sixteen equal messages, each 2 blocks of HMAC
    // framing beside its 24 of data. Throughput counts the data alone.
    group.throughput(Throughput::Bytes(16 * 1500));
    group.bench_function(BenchmarkId::new("lanes16", 1500), |b| {
        let h = HmacSha1::new(b"auth-key");
        let data = vec![0x5au8; 1500];
        let msgs = [&data[..]; 16];
        let mut icvs = [[0u8; ICV_LEN]; 16];
        b.iter(|| {
            h.mac96_batch(black_box(&msgs), &mut icvs);
            icvs[0][0]
        })
    });
    group.finish();

    c.bench_function("hmac_sha1_96_64b", |b| {
        let h = HmacSha1::new(b"auth-key");
        let data = [0u8; 64];
        b.iter(|| h.mac96(black_box(&data)))
    });

    // The authenticated part of 32 Abilene-mix ESP packets (the lengths
    // `esp_seal_batch` seals), MACed in batches of 1, 16 and 32: `hw` is
    // one `mac96` per message (the batch size changes nothing), `lanes` is
    // `mac96_batch`, which hashes sixteen at a time where the CPU has
    // AVX-512 (and is the `hw` loop where it does not).
    let authed: Vec<Vec<u8>> = abilene_mix()
        .iter()
        .enumerate()
        .map(|(i, &len)| vec![i as u8; sealed_len(len) - ICV_LEN])
        .collect();
    let msgs: Vec<&[u8]> = authed.iter().map(Vec::as_slice).collect();
    let h = HmacSha1::new(b"auth-key");
    let mut group = c.benchmark_group("hmac96_batch");
    group.throughput(Throughput::Bytes(
        authed.iter().map(|m| m.len() as u64).sum(),
    ));
    for batch in [1usize, 16, 32] {
        group.bench_function(BenchmarkId::new("hw", batch), |b| {
            let mut icvs = [[0u8; ICV_LEN]; 32];
            b.iter(|| {
                for (msg, icv) in black_box(&msgs).iter().zip(&mut icvs) {
                    *icv = h.mac96(msg);
                }
                icvs[0][0]
            })
        });
        group.bench_function(BenchmarkId::new("lanes", batch), |b| {
            let mut icvs = [[0u8; ICV_LEN]; 32];
            b.iter(|| {
                for (msgs, icvs) in black_box(&msgs).chunks(batch).zip(icvs.chunks_mut(batch)) {
                    h.mac96_batch(msgs, icvs);
                }
                icvs[0][0]
            })
        });
    }
    group.finish();
}

/// Inner datagram lengths of 32 Abilene-mix packets: 45 % 64 B, 10 %
/// 576 B and 45 % 1500 B frames.
fn abilene_mix() -> Vec<usize> {
    (0..32)
        .map(|i| match (i * 7) % 32 {
            0..=13 => 50,
            14..=17 => 562,
            _ => 1486,
        })
        .collect()
}

fn bench_esp(c: &mut Criterion) {
    let sa = SecurityAssociation::from_seed(0xbe9c);
    let mut group = c.benchmark_group("esp_seal");
    for size in [50usize, 746, 1486] {
        // Inner IP datagram sizes for 64 B / Abilene-mean / MTU frames.
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            let mut enc = EspEncryptor::new(&sa);
            let payload = vec![0x17u8; size];
            b.iter(|| enc.seal(black_box(&payload)))
        });
    }
    group.finish();

    // The same work without the `Vec`: the payload already sits in a
    // buffer with room around it, as it does in a packet.
    let mut group = c.benchmark_group("esp_seal_into");
    for size in [50usize, 746, 1486] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            let mut enc = EspEncryptor::new(&sa);
            let mut buf = vec![0x17u8; sealed_len(size)];
            b.iter(|| {
                // Re-sealing the ciphertext costs what sealing plaintext does.
                enc.seal_into(black_box(&mut buf), size)
                    .expect("sequence numbers left");
                buf[ESP_PREFIX_LEN]
            })
        });
    }
    group.finish();

    // 32 Abilene-mix packets sealed in batches of 1, 16 and 32. `aesni4`
    // runs a batch's CBC chains in four `xmm` lanes (VAES withheld),
    // `vaes16` in sixteen `zmm` lanes where the CPU has VAES (and is
    // `aesni4` again where it does not); both hash the HMACs in AVX-512
    // lanes where the CPU has them. On `tables` the batch form is the
    // plain loop and the three rows read the same.
    let lengths = abilene_mix();
    let mut group = c.benchmark_group("esp_seal_batch");
    group.throughput(Throughput::Bytes(lengths.iter().sum::<usize>() as u64));
    for batch in [1usize, 16, 32] {
        let encryptors = [
            ("tables", EspEncryptor::portable(&sa)),
            ("aesni4", EspEncryptor::without_vaes(&sa)),
            ("vaes16", EspEncryptor::new(&sa)),
        ];
        for (backend, mut enc) in encryptors {
            group.bench_function(BenchmarkId::new(backend, batch), |b| {
                let mut bufs: Vec<(Vec<u8>, usize)> = lengths
                    .iter()
                    .map(|&len| (vec![0x17u8; sealed_len(len)], len))
                    .collect();
                b.iter(|| {
                    for bufs in bufs.chunks_mut(batch) {
                        let jobs = bufs.iter_mut().map(|(buf, len)| (&mut buf[..], *len));
                        assert_eq!(enc.seal_batch_into(black_box(jobs)), batch);
                    }
                    bufs[0].0[ESP_PREFIX_LEN]
                })
            });
        }
    }
    group.finish();

    c.bench_function("esp_seal_open_roundtrip_746", |b| {
        let payload = vec![0x17u8; 746];
        b.iter(|| {
            // Fresh state per iteration so the replay window accepts.
            let mut enc = EspEncryptor::new(&sa);
            let mut dec = EspDecryptor::new(&sa);
            let sealed = enc.seal(black_box(&payload));
            dec.open(&sealed).expect("authentic packet")
        })
    });
}

/// `IpsecEncap::push` on arena-backed frames: encapsulation in the slot
/// the frame arrived in. Building the pooled frame is the untimed set-up.
fn bench_element(c: &mut Criterion) {
    let pool = PacketPool::with_defaults();
    let mut group = c.benchmark_group("ipsec_encap");
    for size in [64usize, 760, 1500] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            let mut encap = IpsecEncap::new(
                &SecurityAssociation::from_seed(0xbe9c),
                Ipv4Addr::new(192, 0, 2, 1),
                Ipv4Addr::new(192, 0, 2, 2),
            );
            let frame = PacketSpec::udp().frame_len(size).build();
            let mut out = Output::new();
            b.iter_batched(
                || Packet::try_from_slice_in(&pool, frame.data()).expect("pool has slots"),
                |pkt| {
                    encap.push(0, black_box(pkt), &mut out);
                    out.drain().count()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_esp, bench_element);
criterion_main!(benches);
