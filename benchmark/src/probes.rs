//! Layer probes: each calls one layer's public functions on the same frames
//! or destinations the workload uses, as a span with an operation count.
//! All results are nanoseconds per operation.

use crate::trace::Recorder;
use crate::verify::IPSEC_SA_SEED;
use crate::workloads::{BURST, POOL_SLOTS, QUEUE_CAPACITY, ROUTE_PORTS};
use routebricks::click::element::PacketBatch;
use routebricks::click::elements::{CheckIPHeader, DecIPTTL, IpsecEncap, LookupIPRoute, Queue};
use routebricks::click::runtime::spsc;
use routebricks::click::{Element, Output};
use routebricks::crypto::{Aes128, EspEncryptor, SecurityAssociation, Sha1};
use routebricks::lookup::{Dir24_8, FibReader, LpmLookup, NextHop};
use routebricks::packet::ethernet::HEADER_LEN as ETH;
use routebricks::packet::nic::DEFAULT_RING_DEPTH;
use routebricks::packet::{ipv4, DescRing, FreeBatch, Packet, PacketPool};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Operations per probe, split into [`REPS`] repetitions.
pub const PROBE_OPS: usize = 400_000;
/// Repetitions per probe; the fastest is reported, for the same reason the
/// fastest segment is (README, "Why the fastest segment").
const REPS: usize = 5;

/// Runs `rep` [`REPS`] times, each as one span, and returns the lowest
/// nanoseconds per operation. `rep` returns `(timed ns, operations)`.
fn fastest(rec: &mut Recorder, name: &'static str, mut rep: impl FnMut() -> (u64, usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let id = rec.reserve_id();
        let start = rec.now_ns();
        let (ns, ops) = rep();
        rec.push(name, id, 0, start, rec.now_ns(), ops as u64);
        best = best.min(ns as f64 / ops.max(1) as f64);
    }
    best
}

/// Times one whole repetition.
fn timed(ops: usize, f: impl FnOnce()) -> (u64, usize) {
    let t0 = Instant::now();
    f();
    (t0.elapsed().as_nanos() as u64, ops)
}

/// [`BURST`]-frame slices of `frames`, cycling, for one repetition of `ops`.
fn bursts(frames: &[Packet], ops: usize) -> impl Iterator<Item = &[Packet]> {
    frames.chunks_exact(BURST).cycle().take(ops / REPS / BURST)
}

/// Operations one repetition of a burst-wise probe really performs.
fn burst_ops(ops: usize) -> usize {
    ops / REPS / BURST * BURST
}

/// `Packet::try_from_slice_in` then drop, one slot at a time.
pub fn pool_alloc_recycle(
    rec: &mut Recorder,
    frames: &[Packet],
    slot_size: usize,
    ops: usize,
) -> f64 {
    let pool = PacketPool::new(POOL_SLOTS, slot_size);
    let mut held = Vec::with_capacity(BURST);
    fastest(rec, "probe.pool_alloc_recycle", || {
        timed(burst_ops(ops), || {
            for burst in bursts(frames, ops) {
                for frame in burst {
                    held.push(
                        Packet::try_from_slice_in(&pool, frame.data()).expect("pool has room"),
                    );
                }
                held.drain(..).for_each(|p| drop(black_box(p)));
            }
        })
    })
}

/// The same allocation, recycled through `recycle_into` and one
/// `FreeBatch::flush` per burst.
pub fn pool_bulk_recycle(
    rec: &mut Recorder,
    frames: &[Packet],
    slot_size: usize,
    ops: usize,
) -> f64 {
    let pool = PacketPool::new(POOL_SLOTS, slot_size);
    let mut held = Vec::with_capacity(BURST);
    fastest(rec, "probe.pool_bulk_recycle", || {
        timed(burst_ops(ops), || {
            for burst in bursts(frames, ops) {
                for frame in burst {
                    held.push(
                        Packet::try_from_slice_in(&pool, frame.data()).expect("pool has room"),
                    );
                }
                let mut free = FreeBatch::new();
                held.drain(..)
                    .for_each(|p| black_box(p).recycle_into(&mut free));
                free.flush();
            }
        })
    })
}

/// `Packet::from_slice` then drop: what the arena replaces.
pub fn heap_alloc_free(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    let mut held = Vec::with_capacity(BURST);
    fastest(rec, "probe.heap_alloc_free", || {
        timed(burst_ops(ops), || {
            for burst in bursts(frames, ops) {
                for frame in burst {
                    held.push(Packet::from_slice(frame.data()));
                }
                held.drain(..).for_each(|p| drop(black_box(p)));
            }
        })
    })
}

/// `DescRing::post` + `consume` per descriptor with writeback every `kn`.
fn desc_ring(
    rec: &mut Recorder,
    name: &'static str,
    frames: &[Packet],
    kn: usize,
    ops: usize,
) -> f64 {
    let mut ring = DescRing::new(DEFAULT_RING_DEPTH, kn);
    let mut held: Vec<Packet> = frames.iter().take(BURST).cloned().collect();
    let mut out = Vec::with_capacity(BURST);
    let best = fastest(rec, name, || {
        timed(burst_ops(ops), || {
            for _ in 0..burst_ops(ops) / BURST {
                for pkt in held.drain(..) {
                    ring.post(pkt).expect("ring has room");
                }
                ring.consume(BURST, &mut out);
                std::mem::swap(&mut held, &mut out);
            }
        })
    });
    black_box(ring.stats());
    best
}

/// `(per-descriptor ns at kn = depth, extra ns per doorbell)`: the second
/// is the per-descriptor cost at `kn = 1` minus the first, i.e. what one
/// modeled doorbell spins for.
pub fn nic(rec: &mut Recorder, frames: &[Packet], ops: usize) -> (f64, f64) {
    let desc = desc_ring(rec, "probe.nic_desc", frames, DEFAULT_RING_DEPTH, ops);
    let unbatched = desc_ring(rec, "probe.nic_kn1", frames, 1, ops);
    (desc, (unbatched - desc).max(0.0))
}

/// The destinations of the workload's frames, in frame order.
pub fn destinations(frames: &[Packet]) -> Vec<u32> {
    frames
        .iter()
        .map(|f| ipv4::fast::dst(&f.data()[ETH..]).expect("frames carry IPv4"))
        .collect()
}

pub fn lookup_scalar(rec: &mut Recorder, fib: &Dir24_8, dsts: &[u32], ops: usize) -> f64 {
    let mut stream = dsts.iter().cycle();
    fastest(rec, "probe.lookup_scalar", || {
        timed(ops / REPS, || {
            for &dst in stream.by_ref().take(ops / REPS) {
                black_box(fib.lookup(black_box(dst)));
            }
        })
    })
}

pub fn lookup_batch32(rec: &mut Recorder, fib: &Dir24_8, dsts: &[u32], ops: usize) -> f64 {
    let mut hops: [Option<NextHop>; BURST] = [None; BURST];
    let mut stream = dsts.chunks_exact(BURST).cycle();
    fastest(rec, "probe.lookup_batch32", || {
        timed(burst_ops(ops), || {
            for chunk in stream.by_ref().take(burst_ops(ops) / BURST) {
                fib.lookup_batch(black_box(chunk), &mut hops);
                black_box(&hops);
            }
        })
    })
}

/// `FibReader::pin` + guard drop.
pub fn rcu_pin(rec: &mut Recorder, reader: &FibReader, ops: usize) -> f64 {
    fastest(rec, "probe.rcu_pin", || {
        timed(ops / REPS, || {
            for _ in 0..ops / REPS {
                drop(black_box(reader.pin()));
            }
        })
    })
}

/// `EspEncryptor::seal` over the frames' inner datagrams, ns per byte.
pub fn esp_seal_per_byte(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    let mut esp = EspEncryptor::new(&SecurityAssociation::from_seed(IPSEC_SA_SEED));
    let mut stream = frames.iter().cycle();
    fastest(rec, "probe.esp_seal", || {
        let mut bytes = 0;
        let (ns, _) = timed(0, || {
            for frame in stream.by_ref().take(ops / REPS) {
                let inner = &frame.data()[ETH..];
                bytes += inner.len();
                black_box(esp.seal(black_box(inner)));
            }
        });
        (ns, bytes)
    })
}

pub fn aes_block(rec: &mut Recorder, ops: usize) -> f64 {
    let aes = Aes128::new(&[0x2b; 16]);
    let mut block = [0x5au8; 16];
    let best = fastest(rec, "probe.aes_block", || {
        timed(ops / REPS, || {
            for _ in 0..ops / REPS {
                aes.encrypt_block(black_box(&mut block));
            }
        })
    });
    black_box(block);
    best
}

/// SHA-1 over 1,500-byte buffers, ns per byte.
pub fn sha1_per_byte(rec: &mut Recorder, ops: usize) -> f64 {
    let buf = [0xa5u8; 1_500];
    fastest(rec, "probe.sha1", || {
        timed(ops / REPS * buf.len(), || {
            for _ in 0..ops / REPS {
                black_box(Sha1::digest(black_box(&buf)));
            }
        })
    })
}

/// Drives `element.push_batch` with [`BURST`]-frame batches. Only the
/// dispatch is timed: batches are cloned before and emitted packets are
/// dropped after the clock.
fn push_element(
    rec: &mut Recorder,
    name: &'static str,
    element: &mut dyn Element,
    frames: &[Packet],
    ops: usize,
) -> f64 {
    let mut out = Output::new();
    fastest(rec, name, || {
        let mut ns = 0;
        for burst in bursts(frames, ops) {
            let mut batch = PacketBatch::from_vec(burst.to_vec());
            let t0 = Instant::now();
            element.push_batch(0, &mut batch, &mut out);
            ns += t0.elapsed().as_nanos() as u64;
            out.drain().for_each(drop);
        }
        (ns, burst_ops(ops))
    })
}

pub fn check_ip(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    push_element(
        rec,
        "probe.check_ip",
        &mut CheckIPHeader::ethernet(),
        frames,
        ops,
    )
}

pub fn dec_ttl(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    push_element(rec, "probe.dec_ttl", &mut DecIPTTL::ethernet(), frames, ops)
}

/// `LookupIPRoute` over an RCU reader, as the workload's router has it.
pub fn lookup_route(rec: &mut Recorder, reader: FibReader, frames: &[Packet], ops: usize) -> f64 {
    let mut element = LookupIPRoute::new_rcu(reader, ROUTE_PORTS);
    push_element(rec, "probe.lookup_route", &mut element, frames, ops)
}

pub fn ipsec_encap(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    let mut element = IpsecEncap::new(
        &SecurityAssociation::from_seed(IPSEC_SA_SEED),
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(192, 0, 2, 2),
    );
    push_element(rec, "probe.ipsec_encap", &mut element, frames, ops)
}

/// `Queue::push_batch` then `pull_batch`, both timed, per packet.
pub fn queue(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    let mut q = Queue::new(QUEUE_CAPACITY);
    let mut out = Output::new();
    let mut pulled = PacketBatch::with_capacity(BURST);
    fastest(rec, "probe.queue", || {
        let (mut ns, mut pkts) = (0, 0);
        for burst in bursts(frames, ops) {
            let mut batch = PacketBatch::from_vec(burst.to_vec());
            let t0 = Instant::now();
            q.push_batch(0, &mut batch, &mut out);
            q.pull_batch(0, BURST, &mut pulled);
            ns += t0.elapsed().as_nanos() as u64;
            pkts += pulled.len();
            pulled.clear();
        }
        (ns, pkts)
    })
}

fn batches(frames: &[Packet], n: usize) -> Vec<PacketBatch> {
    frames
        .chunks_exact(BURST)
        .cycle()
        .take(n)
        .map(|b| PacketBatch::from_vec(b.to_vec()))
        .collect()
}

/// One `PacketBatch` through the SPSC ring and back out on one thread:
/// `push_burst` then `pop_burst`, ns per batch.
pub fn spsc_hop(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    const PER_TURN: usize = 16;
    let (mut tx, mut rx) = spsc::ring::<PacketBatch>(1_024);
    let mut held = batches(frames, PER_TURN);
    let mut popped = Vec::with_capacity(PER_TURN);
    let turns = ops / REPS / BURST / PER_TURN;
    fastest(rec, "probe.spsc_hop", || {
        timed(turns * PER_TURN, || {
            for _ in 0..turns {
                tx.push_burst(&mut held);
                rx.pop_burst(PER_TURN, &mut popped);
                std::mem::swap(&mut held, &mut popped);
            }
        })
    })
}

/// The same hop with producer and consumer on two threads, ns per batch
/// of the whole transfer.
pub fn spsc_hop_xthread(rec: &mut Recorder, frames: &[Packet], ops: usize) -> f64 {
    let total = ops / REPS / BURST;
    fastest(rec, "probe.spsc_hop_xthread", || {
        let (mut tx, mut rx) = spsc::ring::<PacketBatch>(1_024);
        let mut pending = batches(frames, total);
        // Received batches are kept, so no packet is freed on the clock.
        let mut got = Vec::with_capacity(total);
        timed(total, || {
            std::thread::scope(|s| {
                s.spawn(move || {
                    while !pending.is_empty() {
                        if tx.push_burst(&mut pending) == 0 {
                            std::hint::spin_loop();
                        }
                    }
                });
                while got.len() < total {
                    if rx.pop_burst(64, &mut got) == 0 {
                        std::hint::spin_loop();
                    }
                }
            });
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TID_PROBES;
    use crate::workloads::{make_frames, make_rib, spec_by_name, Scale};
    use routebricks::lookup::RcuFib;

    #[test]
    fn every_probe_measures_something_and_leaves_a_span() {
        let spec = spec_by_name("route64_fib1m_churn").unwrap();
        let frames = make_frames(spec, 4);
        let rib = make_rib(
            &Scale {
                seconds: 1.0,
                smoke: true,
            },
            4,
        );
        let fib = Dir24_8::compile(&rib).unwrap();
        let rcu = RcuFib::new(&rib).unwrap();
        let dsts = destinations(&frames);
        let mut rec = Recorder::new(Instant::now(), TID_PROBES);
        let ops = REPS * 1_024;
        let values = [
            pool_alloc_recycle(&mut rec, &frames, 256, ops),
            pool_bulk_recycle(&mut rec, &frames, 256, ops),
            heap_alloc_free(&mut rec, &frames, ops),
            nic(&mut rec, &frames, ops).0,
            lookup_scalar(&mut rec, &fib, &dsts, ops),
            lookup_batch32(&mut rec, &fib, &dsts, ops),
            rcu_pin(&mut rec, &rcu.reader(), ops),
            esp_seal_per_byte(&mut rec, &frames, ops / 8),
            aes_block(&mut rec, ops),
            sha1_per_byte(&mut rec, ops / 64),
            check_ip(&mut rec, &frames, ops),
            dec_ttl(&mut rec, &frames, ops),
            lookup_route(&mut rec, rcu.reader(), &frames, ops),
            ipsec_encap(&mut rec, &frames, ops / 8),
            queue(&mut rec, &frames, ops),
            spsc_hop(&mut rec, &frames, ops),
            spsc_hop_xthread(&mut rec, &frames, ops),
        ];
        for (i, v) in values.iter().enumerate() {
            assert!(v.is_finite() && *v > 0.0, "probe {i} measured {v}");
        }
        // One span per repetition; nic() is two probes.
        assert_eq!(rec.spans.len(), REPS * (values.len() + 1));
        assert!(rec
            .spans
            .iter()
            .all(|s| s.count > 0 && s.name.starts_with("probe.")));
    }
}
