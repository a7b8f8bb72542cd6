//! Simulated NIC descriptor rings — the `kn` axis of Table 1.
//!
//! RouteBricks' single-server result needs *two* batching factors:
//! poll-driven batching `kp` (packets per Click poll) and NIC-driven
//! batching `kn` (descriptors per PCIe transaction). The cost model
//! solves `cycles = C_BASE + C_POLL/kp + C_PCIE/kn`; this module is the
//! mechanism that makes a running dataplane actually *pay* the
//! `C_PCIE/kn` term, so measured throughput responds to `kn` the way
//! the paper's Table 1 does.
//!
//! A [`DescRing`] is a fixed-depth ring of descriptors over packet
//! buffers with three cursors that chase each other round the ring:
//!
//! ```text
//!   reclaim <= head <= tail        tail - reclaim <= depth
//!   [reclaim, head)  spent descriptors awaiting writeback
//!   [head,    tail)  full descriptors holding frames
//!   everything else  free descriptors
//! ```
//!
//! Producing ([`DescRing::post`]) advances `tail`; consuming
//! ([`DescRing::consume`]) advances `head`; descriptor *writeback* —
//! the status-word update plus doorbell that a real NIC charges one
//! PCIe transaction for — advances `reclaim` in `kn`-sized chunks, so
//! its cost is paid once per `kn` descriptors. The writeback cost is
//! burned as real CPU work ([`DOORBELL_SPINS`] /
//! [`WRITEBACK_SPINS_PER_DESC`]), which is what lets the Table-1 grid
//! benchmark observe `kn` in wall-clock numbers rather than only in
//! counters.
//!
//! Conservation holds by construction and is checked by
//! `tests/dataplane_oracle.rs::rings_conserve_descriptors_and_amortise_per_ring`:
//! `posted == reclaimed + in_ring` at every point in time.
//!
//! [`NicPort`] models one multi-queue port: each worker core asks it
//! for a private RX/TX [`NicQueue`] pair (RSS, §4.2's "one core per
//! queue" rule), so per-core replicas share no descriptor state.

use crate::Packet;
use std::collections::VecDeque;

/// Default descriptor-ring depth (descriptors per RX or TX ring).
pub const DEFAULT_RING_DEPTH: usize = 512;

/// Spin iterations charged per doorbell (one per writeback chunk).
///
/// A doorbell is a posted PCIe write plus the NIC's descriptor fetch;
/// charging it once per `kn` descriptors is exactly the amortisation
/// NIC-driven batching buys. The constant is calibrated so that at
/// `kn = 1` the device boundary dominates the per-packet budget the
/// way the paper's 2,307-cycle (kp=32, kn=1) row does.
pub const DOORBELL_SPINS: u32 = 96;

/// Spin iterations charged per descriptor status-word writeback.
///
/// Unlike the doorbell this part scales with the descriptor count, so
/// it is *not* amortised by `kn` — matching the `PCIE_DESC` (per
/// descriptor) vs `PCIE_TXN` (per transaction) split in `rb-hw`.
pub const WRITEBACK_SPINS_PER_DESC: u32 = 4;

/// Descriptor-ring counters, mergeable across rings and replicas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Descriptors posted (frames handed to the ring).
    pub posted: u64,
    /// Descriptors reclaimed by writeback (free again).
    pub reclaimed: u64,
    /// Doorbells rung — one per writeback chunk, so `posted /
    /// doorbells` approaches `kn` under steady load.
    pub doorbells: u64,
    /// Writeback chunks (equals `doorbells`; kept separate so a future
    /// split of post-side vs completion-side doorbells stays additive).
    pub reclaim_batches: u64,
    /// Posts that found no free descriptor and had to force an early
    /// writeback (or fail outright): the descriptor stalls of Table 1's
    /// kn=1 rows.
    pub stalls: u64,
    /// Frame bytes DMA'd across the device boundary (payload bytes of
    /// every successfully posted descriptor). Feeds the per-device
    /// bandwidth row of the bottleneck report.
    pub dma_bytes: u64,
}

impl NicStats {
    /// Accumulates `other` into `self` (summing across rings is safe:
    /// every ring is owned by exactly one element replica).
    pub fn merge(&mut self, other: &NicStats) {
        self.posted += other.posted;
        self.reclaimed += other.reclaimed;
        self.doorbells += other.doorbells;
        self.reclaim_batches += other.reclaim_batches;
        self.stalls += other.stalls;
        self.dma_bytes += other.dma_bytes;
    }
}

const DESC_FREE: u8 = 0;
const DESC_FULL: u8 = 1;
const DESC_SPENT: u8 = 2;

/// A fixed-depth descriptor ring with `kn`-batched writeback.
#[derive(Debug)]
pub struct DescRing {
    /// One status word per descriptor: what the device writes back on
    /// reclaim, like the DD ("descriptor done") bit a driver polls on
    /// real hardware. A descriptor is nothing else — the ring's footprint
    /// is `depth` bytes however large a frame handle is.
    status: Vec<u8>,
    /// The frames of the full descriptors `[head, tail)`, oldest first:
    /// it holds what is posted and unconsumed, not `depth` slots.
    frames: VecDeque<Packet>,
    /// Physical slots of the `head`, `tail` and `reclaim` indices. They
    /// wrap by comparison, so no depth needs to be a power of two and no
    /// descriptor costs a division.
    head: usize,
    tail: usize,
    reclaim: usize,
    /// Spent descriptors awaiting writeback: `head - reclaim`.
    spent: usize,
    kn: usize,
    stats: NicStats,
}

impl DescRing {
    /// Creates a ring of `depth` descriptors reclaiming in `kn`-sized
    /// chunks. `kn` is clamped to `[1, depth]`.
    ///
    /// # Panics
    ///
    /// Panics when `depth` is zero.
    pub fn new(depth: usize, kn: usize) -> DescRing {
        assert!(depth > 0, "descriptor ring depth must be positive");
        DescRing {
            status: vec![DESC_FREE; depth],
            frames: VecDeque::new(),
            head: 0,
            tail: 0,
            reclaim: 0,
            spent: 0,
            kn: kn.clamp(1, depth),
            stats: NicStats::default(),
        }
    }

    /// Ring depth in descriptors.
    pub fn depth(&self) -> usize {
        self.status.len()
    }

    /// The NIC batching factor `kn` this ring reclaims with.
    pub fn kn(&self) -> usize {
        self.kn
    }

    /// Frames posted but not yet consumed.
    pub fn pending(&self) -> usize {
        self.frames.len()
    }

    /// Descriptors not yet reclaimed (full + spent): the conservation
    /// identity is `stats.posted == stats.reclaimed + in_ring()`.
    pub fn in_ring(&self) -> usize {
        self.frames.len() + self.spent
    }

    /// Counters so far.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Writes `status` into the descriptor at `cursor` and returns the
    /// slot after it.
    fn mark(&mut self, cursor: usize, status: u8) -> usize {
        self.status[cursor] = status;
        if cursor + 1 == self.status.len() {
            0
        } else {
            cursor + 1
        }
    }

    /// Posts a frame into the next free descriptor.
    ///
    /// When every free descriptor is exhausted but spent ones await
    /// writeback, the post *stalls*: it charges a forced early
    /// writeback (breaking the `kn` amortisation — that is the cost of
    /// an undersized ring) and then succeeds. When the ring is full of
    /// unconsumed frames the frame comes back as `Err` — the caller
    /// owns the drop-or-retry decision.
    pub fn post(&mut self, pkt: Packet) -> Result<(), Packet> {
        if self.in_ring() == self.depth() {
            self.stats.stalls += 1;
            if self.spent == 0 {
                // Every descriptor holds an unconsumed frame.
                return Err(pkt);
            }
            // Free descriptors exist but have not been written back yet:
            // stall on an early, under-sized writeback chunk.
            self.flush_reclaim();
        }
        self.stats.dma_bytes += pkt.data().len() as u64;
        self.tail = self.mark(self.tail, DESC_FULL);
        self.frames.push_back(pkt);
        self.stats.posted += 1;
        Ok(())
    }

    /// Pops up to `max` frames from the ring into `out`, then writes
    /// back spent descriptors in `kn`-sized chunks (any sub-`kn`
    /// remainder stays spent until a later call completes the chunk —
    /// the lazy reclaim NIC-driven batching is about).
    ///
    /// Returns the number of frames popped.
    pub fn consume(&mut self, max: usize, out: &mut Vec<Packet>) -> usize {
        let take = max.min(self.pending());
        out.extend(self.frames.drain(..take));
        for _ in 0..take {
            self.head = self.mark(self.head, DESC_SPENT);
        }
        self.spent += take;
        while self.spent >= self.kn {
            self.writeback_chunk(self.kn);
        }
        take
    }

    /// Writes back every spent descriptor immediately, `kn` be damned —
    /// used by shutdown paths and forced stalls. No-op when nothing is
    /// spent.
    pub fn flush_reclaim(&mut self) {
        if self.spent > 0 {
            self.writeback_chunk(self.spent);
        }
    }

    /// One descriptor writeback + doorbell: the unit of cost `kn`
    /// amortises. Burns real CPU so wall-clock measurements see it.
    fn writeback_chunk(&mut self, n: usize) {
        debug_assert!(n >= 1 && self.spent >= n);
        for _ in 0..n {
            debug_assert_eq!(self.status[self.reclaim], DESC_SPENT);
            self.reclaim = self.mark(self.reclaim, DESC_FREE);
            for _ in 0..WRITEBACK_SPINS_PER_DESC {
                std::hint::spin_loop();
            }
        }
        for _ in 0..DOORBELL_SPINS {
            std::hint::spin_loop();
        }
        self.spent -= n;
        self.stats.doorbells += 1;
        self.stats.reclaim_batches += 1;
        self.stats.reclaimed += n as u64;
    }
}

/// A multi-queue NIC port: a factory for per-worker RX/TX queue pairs.
///
/// The paper's rule for lock-free parallelism is one queue pair per
/// core (multi-queue NICs + RSS). Each [`NicPort::queue_pair`] call
/// mints a fresh, independent [`NicQueue`], so every MT replica owns
/// its descriptor state outright and the hot path never takes a lock.
#[derive(Debug, Clone, Copy)]
pub struct NicPort {
    port_no: u16,
    depth: usize,
    kn: usize,
}

impl NicPort {
    /// A port with the default ring depth and `kn`.
    pub fn new(port_no: u16, depth: usize, kn: usize) -> NicPort {
        assert!(depth > 0, "descriptor ring depth must be positive");
        NicPort {
            port_no,
            depth,
            kn: kn.clamp(1, depth),
        }
    }

    /// The port number frames from this port are stamped with.
    pub fn port_no(&self) -> u16 {
        self.port_no
    }

    /// Ring depth of queues minted by [`NicPort::queue_pair`].
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// NIC batching factor of queues minted by [`NicPort::queue_pair`].
    pub fn kn(&self) -> usize {
        self.kn
    }

    /// Mints a fresh RX/TX queue pair for one worker core.
    pub fn queue_pair(&self) -> NicQueue {
        NicQueue {
            rx: DescRing::new(self.depth, self.kn),
            tx: DescRing::new(self.depth, self.kn),
        }
    }
}

/// One worker core's private RX/TX descriptor-ring pair.
#[derive(Debug)]
pub struct NicQueue {
    /// Receive ring: the device posts, the core consumes.
    pub rx: DescRing,
    /// Transmit ring: the core posts, the device consumes.
    pub tx: DescRing,
}

impl NicQueue {
    /// Combined RX+TX counters for this queue pair.
    pub fn stats(&self) -> NicStats {
        let mut s = self.rx.stats();
        s.merge(&self.tx.stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(i: u8) -> Packet {
        Packet::from_slice(&[i])
    }

    fn conservation_holds(ring: &DescRing) {
        let s = ring.stats();
        assert_eq!(
            s.posted,
            s.reclaimed + ring.in_ring() as u64,
            "posted = reclaimed + in-ring must hold at all times"
        );
    }

    #[test]
    fn post_consume_preserves_fifo_order() {
        let mut ring = DescRing::new(8, 4);
        for i in 0..6u8 {
            ring.post(frame(i)).unwrap();
        }
        assert_eq!(ring.pending(), 6);
        let mut out = Vec::new();
        assert_eq!(ring.consume(4, &mut out), 4);
        assert_eq!(ring.consume(usize::MAX, &mut out), 2);
        let data: Vec<u8> = out.iter().map(|p| p.data()[0]).collect();
        assert_eq!(data, vec![0, 1, 2, 3, 4, 5]);
        conservation_holds(&ring);
    }

    #[test]
    fn reclaim_happens_in_kn_chunks_with_lazy_remainder() {
        let mut ring = DescRing::new(16, 4);
        let mut out = Vec::new();
        for i in 0..10u8 {
            ring.post(frame(i)).unwrap();
        }
        ring.consume(10, &mut out);
        let s = ring.stats();
        // 10 spent = two chunks of 4 written back, 2 left spent (lazy).
        assert_eq!(s.reclaimed, 8);
        assert_eq!(s.doorbells, 2);
        assert_eq!(s.reclaim_batches, 2);
        assert_eq!(ring.in_ring(), 2);
        conservation_holds(&ring);
        // Two more consumed frames complete the third chunk.
        ring.post(frame(10)).unwrap();
        ring.post(frame(11)).unwrap();
        ring.consume(2, &mut out);
        assert_eq!(ring.stats().reclaimed, 12);
        assert_eq!(ring.stats().doorbells, 3);
        conservation_holds(&ring);
    }

    #[test]
    fn kn_one_rings_a_doorbell_per_descriptor() {
        let mut ring = DescRing::new(8, 1);
        let mut out = Vec::new();
        for i in 0..5u8 {
            ring.post(frame(i)).unwrap();
        }
        ring.consume(usize::MAX, &mut out);
        assert_eq!(ring.stats().doorbells, 5);
        assert_eq!(ring.stats().reclaimed, 5);
        conservation_holds(&ring);
    }

    #[test]
    fn wraparound_many_times_over() {
        // Satellite test: indices are monotonic u64s over a small ring;
        // wrap the physical slots many times and check order + counters.
        let mut ring = DescRing::new(4, 2);
        let mut out = Vec::new();
        let mut expect = 0u8;
        for round in 0..25u8 {
            for i in 0..3 {
                ring.post(frame(round.wrapping_mul(3).wrapping_add(i)))
                    .unwrap();
            }
            ring.consume(usize::MAX, &mut out);
            for pkt in out.drain(..) {
                assert_eq!(pkt.data()[0], expect, "FIFO across wraps");
                expect = expect.wrapping_add(1);
            }
            conservation_holds(&ring);
        }
        assert_eq!(ring.stats().posted, 75);
        assert!(ring.stats().reclaimed >= 74); // ≤ kn-1 lazily spent.
    }

    #[test]
    fn full_ring_of_frames_rejects_the_post() {
        // Satellite test: tail catches head with every descriptor full —
        // nothing is reclaimable, so the frame comes back to the caller.
        let mut ring = DescRing::new(4, 2);
        for i in 0..4u8 {
            ring.post(frame(i)).unwrap();
        }
        let rejected = ring.post(frame(9)).unwrap_err();
        assert_eq!(rejected.data()[0], 9);
        assert_eq!(ring.stats().stalls, 1);
        conservation_holds(&ring);
        // Consuming one frame leaves a spent descriptor; the next post
        // stalls on a forced early writeback but succeeds.
        let mut out = Vec::new();
        ring.consume(1, &mut out);
        assert_eq!(ring.in_ring(), 4, "spent-but-unreclaimed still in ring");
        ring.post(frame(10)).unwrap();
        let s = ring.stats();
        assert_eq!(s.stalls, 2);
        assert_eq!(s.reclaimed, 1, "forced writeback of the spent remainder");
        assert_eq!(ring.pending(), 4);
        conservation_holds(&ring);
    }

    #[test]
    fn reclaim_after_wrap_keeps_status_words_consistent() {
        // Satellite test: force reclaim to cross the physical wrap point.
        let mut ring = DescRing::new(4, 4);
        let mut out = Vec::new();
        // Fill, consume 2 (spent remainder sits at slots 0..2).
        for i in 0..4u8 {
            ring.post(frame(i)).unwrap();
        }
        ring.consume(2, &mut out);
        assert_eq!(ring.stats().reclaimed, 0, "sub-kn remainder stays spent");
        // Ring full again (2 pending + 2 spent): post stalls, forced
        // writeback frees the two spent slots, post lands past the wrap.
        ring.post(frame(4)).unwrap();
        ring.post(frame(5)).unwrap();
        assert_eq!(ring.stats().stalls, 1);
        ring.consume(usize::MAX, &mut out);
        let data: Vec<u8> = out.iter().map(|p| p.data()[0]).collect();
        assert_eq!(data, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(ring.stats().reclaimed, 6);
        conservation_holds(&ring);
    }

    #[test]
    fn flush_reclaim_drains_the_lazy_remainder() {
        let mut ring = DescRing::new(8, 4);
        let mut out = Vec::new();
        for i in 0..3u8 {
            ring.post(frame(i)).unwrap();
        }
        ring.consume(usize::MAX, &mut out);
        assert_eq!(ring.stats().reclaimed, 0);
        ring.flush_reclaim();
        let s = ring.stats();
        assert_eq!(s.reclaimed, 3);
        assert_eq!(s.doorbells, 1);
        assert_eq!(ring.in_ring(), 0);
        conservation_holds(&ring);
        ring.flush_reclaim(); // No-op when nothing is spent.
        assert_eq!(ring.stats().doorbells, 1);
    }

    #[test]
    fn kn_is_clamped_to_ring_depth() {
        let ring = DescRing::new(4, 64);
        assert_eq!(ring.kn(), 4);
        let ring = DescRing::new(4, 0);
        assert_eq!(ring.kn(), 1);
    }

    #[test]
    fn port_mints_independent_queue_pairs() {
        let port = NicPort::new(3, 32, 8);
        assert_eq!(port.port_no(), 3);
        let mut a = port.queue_pair();
        let b = port.queue_pair();
        assert_eq!(a.rx.depth(), 32);
        assert_eq!(a.tx.kn(), 8);
        a.rx.post(frame(1)).unwrap();
        assert_eq!(a.rx.pending(), 1);
        assert_eq!(b.rx.pending(), 0, "queue pairs share no state");
        let mut out = Vec::new();
        a.rx.consume(1, &mut out);
        a.rx.flush_reclaim();
        let s = a.stats();
        assert_eq!(s.posted, 1);
        assert_eq!(s.reclaimed, 1);
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = NicStats {
            posted: 1,
            reclaimed: 2,
            doorbells: 3,
            reclaim_batches: 4,
            stalls: 5,
            dma_bytes: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.posted, 2);
        assert_eq!(a.stalls, 10);
        assert_eq!(a.dma_bytes, 12);
    }

    #[test]
    fn dma_bytes_count_posted_frame_payloads() {
        let mut ring = DescRing::new(4, 2);
        ring.post(Packet::from_slice(&[0; 60])).unwrap();
        ring.post(Packet::from_slice(&[0; 100])).unwrap();
        assert_eq!(ring.stats().dma_bytes, 160);
        // A rejected post moves no bytes.
        ring.post(Packet::from_slice(&[0; 64])).unwrap();
        ring.post(Packet::from_slice(&[0; 64])).unwrap();
        assert!(ring.post(Packet::from_slice(&[0; 64])).is_err());
        assert_eq!(ring.stats().dma_bytes, 288);
    }
}
