//! Simulated network devices.
//!
//! `FromDevice`/`ToDevice` stand in for the paper's polling 10 GbE
//! driver, and both sit on [`rb_packet::nic::DescRing`] descriptor rings
//! so the dataplane exercises *both* batching axes of Table 1:
//!
//! * `kp` (poll-driven): `FromDevice` polls up to `burst` frames per
//!   scheduling quantum, `ToDevice` pulls `burst` frames per quantum.
//! * `kn` (NIC-driven): descriptor writeback + doorbell cost is charged
//!   once per `kn` descriptors ([`FromDevice::set_nic_batch`] /
//!   [`ToDevice::set_nic_batch`], default 1 — the worst case, exactly
//!   like an untuned driver).
//!
//! `FromDevice` models the receive path in two stages: injected frames
//! land on the *wire* (an unbounded backlog — the traffic already sent
//! by the link peer), and each poll re-posts wire frames into the RX
//! descriptor ring before consuming up to `kp` of them. When a
//! [`PacketPool`] is attached, injection re-buffers frames into arena
//! slots — the software analogue of DMA landing frames in pre-posted
//! receive buffers. An exhausted pool drops the frame at the "NIC",
//! exactly as a real ring with no free buffers would; the drop is the
//! ledger's `NoRxDescriptor` entry (the arena's own exhaustion counter
//! stays a pool-level stat, so the event is never double-booked).
//!
//! `ToDevice` posts every frame to its TX descriptor ring and then
//! drains the ring — transmit completions reclaim descriptors lazily in
//! `kn`-sized chunks, so its counters and transmit log are always
//! current while the doorbell cost still amortises.

use crate::element::{Element, Output, PacketBatch, PortKind, Ports};
use rb_packet::nic::{DescRing, DEFAULT_RING_DEPTH};
use rb_packet::pool::PacketPool;
use rb_packet::{NicStats, Packet};
use rb_telemetry::{DropCause, Ledger};
use std::collections::VecDeque;

/// An active source draining a receive descriptor ring that test
/// harnesses or device models fill via [`FromDevice::inject`].
pub struct FromDevice {
    /// Frames on the wire: injected but not yet posted to the RX ring.
    wire: VecDeque<Packet>,
    /// The RX descriptor ring (one queue of a multi-queue NIC; each MT
    /// replica owns its own, so queue state is never shared).
    rx: DescRing,
    /// The burst the element's own arguments pinned, if any.
    pin: Option<usize>,
    /// Frames a poll takes: `pin`, else the device burst
    /// [`crate::Router::configured`] resolves.
    burst: usize,
    port_no: u16,
    received: u64,
    injected: u64,
    pool: Option<PacketPool>,
    rx_dropped: u64,
}

impl FromDevice {
    /// Creates a device source for router port `port_no`, its poll burst
    /// (Click's `kp`) pinned to `pin` — `FromDevice(port, N)` — or, with
    /// `None`, the device burst of the router it runs in: `poll_burst`,
    /// else `kp` (32 until a router resolves it). The RX ring starts at
    /// the default depth with `kn = 1` — NIC-driven batching off, Table
    /// 1's untuned baseline.
    pub fn new(port_no: u16, pin: Option<usize>) -> FromDevice {
        assert!(pin != Some(0), "poll burst must be positive");
        FromDevice {
            wire: VecDeque::new(),
            rx: DescRing::new(DEFAULT_RING_DEPTH, 1),
            pin,
            burst: pin.unwrap_or(crate::Router::DEFAULT_BATCH_SIZE),
            port_no,
            received: 0,
            injected: 0,
            pool: None,
            rx_dropped: 0,
        }
    }

    /// Frames a poll takes.
    pub fn burst(&self) -> usize {
        self.burst
    }

    /// Takes `device_burst` unless the element's arguments pinned one.
    pub(crate) fn resolve_burst(&mut self, device_burst: usize) {
        self.burst = self.pin.unwrap_or(device_burst);
    }

    /// Attaches a packet arena: subsequent [`inject`](FromDevice::inject)s
    /// land in pool slots (DMA into receive buffers) and are dropped,
    /// not queued, when the pool is exhausted.
    pub fn set_pool(&mut self, pool: PacketPool) {
        self.pool = Some(pool);
    }

    /// Sets the NIC batching factor `kn`: descriptor writeback and
    /// doorbell cost is charged once per `kn` reclaimed descriptors.
    /// Rebuilds the ring (configuration-time knob); any frames already
    /// posted are carried over in order.
    pub fn set_nic_batch(&mut self, kn: usize) {
        self.rebuild_ring(self.rx.depth(), kn);
    }

    /// The RX ring's NIC batching factor.
    pub fn nic_batch(&self) -> usize {
        self.rx.kn()
    }

    /// Resizes the RX descriptor ring (configuration-time knob).
    pub fn set_ring_depth(&mut self, depth: usize) {
        self.rebuild_ring(depth, self.rx.kn());
    }

    /// RX descriptor-ring depth.
    pub fn ring_depth(&self) -> usize {
        self.rx.depth()
    }

    fn rebuild_ring(&mut self, depth: usize, kn: usize) {
        let mut fresh = DescRing::new(depth, kn);
        let mut held = Vec::new();
        self.rx.consume(usize::MAX, &mut held);
        self.rx.flush_reclaim();
        // Ring frames precede wire frames; counters restart with the ring.
        for pkt in held.into_iter().rev() {
            self.wire.push_front(pkt);
        }
        std::mem::swap(&mut self.rx, &mut fresh);
    }

    /// Delivers a frame onto the wire (what the link peer's transmit
    /// would do) and reports whether it landed. Pooled devices re-buffer
    /// into an arena slot here; no free slot means the NIC had no posted
    /// receive buffer, and the frame drops as
    /// [`DropCause::NoRxDescriptor`] — `false`, counted in
    /// [`FromDevice::rx_dropped`].
    pub fn inject(&mut self, pkt: Packet) -> bool {
        if self.pool.is_some() {
            return self.land(&pkt);
        }
        self.injected += 1;
        self.wire.push_back(pkt);
        true
    }

    /// Delivers every frame of `batch`, in order, as [`inject`] would. A
    /// pooled device only copies a frame into its arena, so the spent
    /// originals are left in `batch` and the caller chooses where they
    /// are freed — an MT worker sends them back to the dispatcher's
    /// thread, which allocated them, rather than free another thread's
    /// memory on its own critical path. Without an arena the packets
    /// themselves move onto the wire and `batch` is left empty.
    ///
    /// [`inject`]: FromDevice::inject
    pub fn inject_batch(&mut self, batch: &mut PacketBatch) {
        if self.pool.is_some() {
            for frame in batch.as_slice() {
                self.land(frame);
            }
        } else {
            self.injected += batch.len() as u64;
            self.wire.extend(batch.drain());
        }
    }

    /// The DMA of a pooled device: copies `frame` into a free arena slot,
    /// or reports `false` when there is none.
    fn land(&mut self, frame: &Packet) -> bool {
        self.injected += 1;
        let pool = self.pool.as_ref().expect("pooled device");
        let Some(mut pooled) = Packet::try_from_slice_in(pool, frame.data()) else {
            // No free receive buffer: the NIC drops the frame on the
            // floor. The arena's exhaustion counter already ticked in
            // the pool stats; the ledger books it once, here.
            self.rx_dropped += 1;
            return false;
        };
        pooled.meta = frame.meta.clone();
        self.wire.push_back(pooled);
        true
    }

    /// Frames waiting to be polled (on the wire plus in the RX ring).
    pub fn pending(&self) -> usize {
        self.wire.len() + self.rx.pending()
    }

    /// Total frames polled in so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Frames dropped at inject time because no receive buffer was free.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }

    /// Total frames delivered via [`FromDevice::inject`], drops included.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The RX descriptor ring's counters.
    pub fn rx_ring_stats(&self) -> NicStats {
        self.rx.stats()
    }
}

impl Element for FromDevice {
    fn class_name(&self) -> &'static str {
        "FromDevice"
    }

    fn ports(&self) -> Ports {
        Ports::push(0, 1)
    }

    fn run_task(&mut self, out: &mut Output) -> bool {
        // Re-post wire frames into free RX descriptors. A full ring
        // leaves the remainder on the wire (and `post` counts the stall):
        // the link peer keeps the frames until descriptors free up.
        while !self.wire.is_empty() {
            let pkt = self.wire.pop_front().expect("checked non-empty");
            if let Err(pkt) = self.rx.post(pkt) {
                self.wire.push_front(pkt);
                break;
            }
        }
        // Poll up to `kp` frames straight into the port-0 batch; spent
        // descriptors write back in `kn`-sized chunks inside `consume`.
        let polled = out.fill(0, |batch| {
            let polled = self.rx.consume(self.burst, batch.as_mut_vec());
            let at = batch.len() - polled;
            for pkt in &mut batch.as_mut_slice()[at..] {
                pkt.meta.input_port = self.port_no;
            }
            polled
        });
        self.received += polled as u64;
        polled > 0
    }

    fn is_active(&self) -> bool {
        true
    }

    /// A poll finds work exactly when a frame is on the wire or in the RX
    /// ring: with neither, it posts nothing, consumes nothing and writes
    /// nothing back.
    fn has_work(&self) -> bool {
        self.pending() > 0
    }

    fn pool(&self) -> Option<&PacketPool> {
        self.pool.as_ref()
    }

    fn nic_stats(&self) -> Option<NicStats> {
        Some(self.rx.stats())
    }

    fn ledger(&self) -> Option<Ledger> {
        let mut led = Ledger {
            sourced: self.injected,
            in_flight: self.pending() as u64,
            ..Ledger::default()
        };
        led.add(DropCause::NoRxDescriptor, self.rx_dropped);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // Same port, poll burst and ring geometry, empty receive state:
        // the MT runtime shards ingress across replicas, so buffered
        // frames must not be duplicated into every core. Each replica
        // gets a FRESH pool and a FRESH descriptor ring — the multi-queue
        // RSS layout, one uncontended queue pair per core.
        let mut fresh = FromDevice::new(self.port_no, self.pin);
        fresh.burst = self.burst;
        fresh.rebuild_ring(self.rx.depth(), self.rx.kn());
        if let Some(pool) = &self.pool {
            fresh.set_pool(PacketPool::new(pool.slots(), pool.slot_size()));
        }
        Some(Box::new(fresh))
    }
}

/// An active drain that pulls frames from upstream, posts them to a TX
/// descriptor ring, and logs them as transmitted once the ring drains.
///
/// The pull burst is Click's transmit-side `kp`, resolved as
/// [`FromDevice`]'s poll burst is: pinned by the element's arguments
/// (`ToDevice(N)`), else the router's device burst — `poll_burst`, else
/// `kp`. Transmit completions reclaim descriptors every `kn`
/// ([`ToDevice::set_nic_batch`]).
pub struct ToDevice {
    pin: Option<usize>,
    burst: usize,
    tx: DescRing,
    tx_log: Vec<Packet>,
    keep_frames: bool,
    sent_packets: u64,
    sent_bytes: u64,
    scratch: Vec<Packet>,
}

impl ToDevice {
    /// Creates a device sink pulling `pin` frames per quantum —
    /// `ToDevice(N)` — or, with `None`, the device burst of the router it
    /// runs in (as [`FromDevice::new`]).
    ///
    /// `keep_frames` retains transmitted frames for inspection (tests);
    /// high-rate benchmarks pass `false` and read only the counters.
    pub fn new(pin: Option<usize>, keep_frames: bool) -> ToDevice {
        assert!(pin != Some(0), "transmit burst must be positive");
        ToDevice {
            pin,
            burst: pin.unwrap_or(crate::Router::DEFAULT_BATCH_SIZE),
            tx: DescRing::new(DEFAULT_RING_DEPTH, 1),
            tx_log: Vec::new(),
            keep_frames,
            sent_packets: 0,
            sent_bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// Frames the driver pulls into it per quantum.
    pub fn burst(&self) -> usize {
        self.burst
    }

    /// Takes `device_burst` unless the element's arguments pinned one.
    pub(crate) fn resolve_burst(&mut self, device_burst: usize) {
        self.burst = self.pin.unwrap_or(device_burst);
    }

    /// Sets the NIC batching factor `kn` for transmit completions
    /// (configuration-time knob; rebuilds the — by then empty — ring).
    pub fn set_nic_batch(&mut self, kn: usize) {
        self.drain_tx();
        self.tx = DescRing::new(self.tx.depth(), kn);
    }

    /// The TX ring's NIC batching factor.
    pub fn nic_batch(&self) -> usize {
        self.tx.kn()
    }

    /// Resizes the TX descriptor ring (configuration-time knob).
    pub fn set_ring_depth(&mut self, depth: usize) {
        self.drain_tx();
        self.tx = DescRing::new(depth, self.tx.kn());
    }

    /// TX descriptor-ring depth.
    pub fn ring_depth(&self) -> usize {
        self.tx.depth()
    }

    /// Frames transmitted (when `keep_frames` is set).
    pub fn tx_log(&self) -> &[Packet] {
        &self.tx_log
    }

    /// Removes and returns the transmit log (frame retention continues).
    /// The MT runtime uses this to ship egress off a worker core and to
    /// forward frames between pipeline stages.
    pub fn take_tx_log(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.tx_log)
    }

    /// Turns frame retention on or off after construction; the MT
    /// pipeline runner forces it on for intermediate stages, whose
    /// transmit log feeds the next stage.
    pub fn set_keep_frames(&mut self, keep: bool) {
        self.keep_frames = keep;
    }

    /// Whether transmitted frames are retained.
    pub fn keeps_frames(&self) -> bool {
        self.keep_frames
    }

    /// Total packets transmitted.
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    /// Total bytes transmitted.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// The TX descriptor ring's counters.
    pub fn tx_ring_stats(&self) -> NicStats {
        self.tx.stats()
    }

    /// Posts one frame, forcing a drain when every descriptor is in use
    /// (a ring shallower than the push batch — `post` books the stall).
    fn post_tx(&mut self, pkt: Packet) {
        if let Err(pkt) = self.tx.post(pkt) {
            self.drain_tx();
            assert!(self.tx.post(pkt).is_ok(), "drained TX ring accepts a post");
        }
    }

    /// Transmit completion: the device drains the ring, counters and the
    /// transmit log advance, and spent descriptors write back lazily in
    /// `kn`-sized chunks.
    fn drain_tx(&mut self) {
        self.tx.consume(usize::MAX, &mut self.scratch);
        if self.scratch.is_empty() {
            return;
        }
        self.sent_packets += self.scratch.len() as u64;
        self.sent_bytes += self.scratch.iter().map(|p| p.len() as u64).sum::<u64>();
        if self.keep_frames {
            self.tx_log.append(&mut self.scratch);
        } else if self.scratch.len() == 1 {
            // One frame (`kn = 1`) takes the free list's lock once either
            // way: a plain drop skips the batch.
            self.scratch.clear();
        } else {
            // The whole completion batch's arena slots go back under one
            // free-list lock (`free` flushes on drop).
            let mut free = rb_packet::FreeBatch::new();
            for pkt in self.scratch.drain(..) {
                pkt.recycle_into(&mut free);
            }
        }
    }
}

impl Element for ToDevice {
    fn class_name(&self) -> &'static str {
        "ToDevice"
    }

    fn ports(&self) -> Ports {
        Ports {
            inputs: vec![PortKind::Pull],
            outputs: vec![],
        }
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, _out: &mut Output) {
        for pkt in pkts.drain() {
            self.post_tx(pkt);
        }
        self.drain_tx();
    }

    fn is_active(&self) -> bool {
        true
    }

    fn run_task(&mut self, _out: &mut Output) -> bool {
        // Pull scheduling is driven by the Router, which knows the graph;
        // it calls `push_batch` with each pulled `burst()`.
        false
    }

    fn nic_stats(&self) -> Option<NicStats> {
        Some(self.tx.stats())
    }

    fn ledger(&self) -> Option<Ledger> {
        Some(Ledger {
            forwarded: self.sent_packets,
            in_flight: self.tx.pending() as u64,
            ..Ledger::default()
        })
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        let mut fresh = ToDevice::new(self.pin, self.keep_frames);
        fresh.burst = self.burst;
        fresh.tx = DescRing::new(self.tx.depth(), self.tx.kn());
        Some(Box::new(fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;

    #[test]
    fn from_device_polls_in_bursts_and_stamps_port() {
        let mut dev = FromDevice::new(3, Some(4));
        for i in 0..6u8 {
            dev.inject(Packet::from_slice(&[i]));
        }
        let mut out = Output::new();
        assert!(dev.run_task(&mut out));
        assert_eq!(out.len(), 4);
        for (_, pkt) in out.drain() {
            assert_eq!(pkt.meta.input_port, 3);
        }
        assert!(dev.run_task(&mut out));
        assert_eq!(out.len(), 2);
        assert!(!dev.run_task(&mut out));
        assert_eq!(dev.received(), 6);
    }

    #[test]
    fn pooled_from_device_rebuffers_and_drops_on_exhaustion() {
        let mut dev = FromDevice::new(1, Some(4));
        dev.set_pool(PacketPool::new(2, 512));
        for i in 0..5u8 {
            let mut p = Packet::from_slice(&[i; 10]);
            p.meta.paint = i;
            dev.inject(p);
        }
        // Two receive buffers: frames 0 and 1 land, 2..4 drop at the NIC.
        assert_eq!(dev.pending(), 2);
        assert_eq!(dev.rx_dropped(), 3);
        let stats = dev.pool().unwrap().stats();
        assert_eq!(stats.exhausted, 3);
        assert_eq!(stats.allocs, 2);
        // The ledger books the drop once, as the NIC-boundary cause.
        let led = dev.ledger().unwrap();
        assert_eq!(led.dropped(DropCause::NoRxDescriptor), 3);
        assert_eq!(led.dropped(DropCause::PoolExhausted), 0);
        assert!(led.balances(), "{led:?}");
        let mut out = Output::new();
        assert!(dev.run_task(&mut out));
        let pkts: Vec<Packet> = out.drain().map(|(_, p)| p).collect();
        assert!(pkts.iter().all(|p| p.is_pooled()));
        assert_eq!(pkts[0].data(), &[0u8; 10]);
        assert_eq!(pkts[0].meta.paint, 0);
        assert_eq!(pkts[1].meta.paint, 1);
        // Draining the packets recycles buffers: inject works again.
        drop(pkts);
        dev.inject(Packet::from_slice(&[9]));
        assert_eq!(dev.pending(), 1);
    }

    #[test]
    fn pooled_replica_gets_fresh_arena() {
        let mut dev = FromDevice::new(0, Some(8));
        dev.set_pool(PacketPool::new(4, 512));
        dev.inject(Packet::from_slice(&[1]));
        let replica = dev.replicate().unwrap();
        let replica = replica.downcast_ref::<FromDevice>().unwrap();
        let pool = replica.pool().unwrap();
        assert_eq!(pool.slots(), 4);
        assert_eq!(pool.in_use(), 0);
        assert!(!pool.same_arena(dev.pool().unwrap()));
    }

    #[test]
    fn replica_preserves_ring_geometry() {
        let mut dev = FromDevice::new(0, Some(8));
        dev.set_nic_batch(16);
        dev.set_ring_depth(64);
        let replica = dev.replicate().unwrap();
        let replica = replica.downcast_ref::<FromDevice>().unwrap();
        assert_eq!(replica.nic_batch(), 16);
        assert_eq!(replica.ring_depth(), 64);
        let mut tx = ToDevice::new(Some(4), false);
        tx.set_nic_batch(8);
        let r = tx.replicate().unwrap();
        let r = r.downcast_ref::<ToDevice>().unwrap();
        assert_eq!(r.nic_batch(), 8);
    }

    #[test]
    fn from_device_reclaims_descriptors_in_kn_chunks() {
        let mut dev = FromDevice::new(0, Some(4));
        dev.set_nic_batch(4);
        for i in 0..6u8 {
            dev.inject(Packet::from_slice(&[i]));
        }
        let mut out = Output::new();
        assert!(dev.run_task(&mut out)); // Polls 4 = one kn chunk.
        let s = dev.nic_stats().unwrap();
        assert_eq!(s.posted, 6);
        assert_eq!(s.reclaimed, 4);
        assert_eq!(s.doorbells, 1);
        assert!(dev.run_task(&mut out)); // Polls 2: sub-kn, stays spent.
        let s = dev.nic_stats().unwrap();
        assert_eq!(s.reclaimed, 4);
        assert_eq!(s.posted, s.reclaimed + 2, "conservation: 2 spent in ring");
    }

    #[test]
    fn from_device_overload_stalls_at_ring_capacity_without_drops() {
        let mut dev = FromDevice::new(0, Some(2));
        dev.set_ring_depth(4);
        for i in 0..10u8 {
            dev.inject(Packet::from_slice(&[i]));
        }
        let mut polled = 0;
        let mut out = Output::new();
        while dev.run_task(&mut out) {
            polled += out.len();
            out.drain().for_each(drop);
        }
        // The wire holds the overflow: every frame arrives, in order, and
        // the ring records descriptor stalls while it was full.
        assert_eq!(polled, 10);
        assert_eq!(dev.received(), 10);
        assert_eq!(dev.rx_dropped(), 0);
        assert!(dev.nic_stats().unwrap().stalls > 0);
    }

    #[test]
    fn to_device_logs_and_counts() {
        let mut dev = ToDevice::new(Some(8), true);
        let mut out = Output::new();
        dev.push(0, Packet::from_slice(&[0; 100]), &mut out);
        dev.push(0, Packet::from_slice(&[0; 60]), &mut out);
        assert_eq!(dev.sent_packets(), 2);
        assert_eq!(dev.sent_bytes(), 160);
        assert_eq!(dev.tx_log().len(), 2);
        // Each frame crossed the TX ring.
        let s = dev.nic_stats().unwrap();
        assert_eq!(s.posted, 2);
        assert_eq!(s.reclaimed, 2, "kn=1 reclaims every descriptor");
        assert_eq!(s.doorbells, 2);
    }

    #[test]
    fn to_device_batches_transmit_completions_by_kn() {
        let mut dev = ToDevice::new(Some(8), false);
        dev.set_nic_batch(8);
        let mut out = Output::new();
        let mut batch =
            PacketBatch::from_vec((0..16).map(|_| Packet::from_slice(&[0; 64])).collect());
        dev.push_batch(0, &mut batch, &mut out);
        assert_eq!(dev.sent_packets(), 16);
        let s = dev.nic_stats().unwrap();
        assert_eq!(s.posted, 16);
        assert_eq!(s.reclaimed, 16);
        assert_eq!(s.doorbells, 2, "16 descriptors / kn=8");
    }

    #[test]
    fn to_device_survives_ring_shallower_than_batch() {
        let mut dev = ToDevice::new(Some(8), true);
        dev.set_ring_depth(4);
        let mut out = Output::new();
        let mut batch =
            PacketBatch::from_vec((0..10u8).map(|i| Packet::from_slice(&[i])).collect());
        dev.push_batch(0, &mut batch, &mut out);
        assert_eq!(dev.sent_packets(), 10);
        let order: Vec<u8> = dev.tx_log().iter().map(|p| p.data()[0]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>(), "FIFO across drains");
        assert!(dev.nic_stats().unwrap().stalls > 0);
    }

    #[test]
    fn to_device_can_skip_frame_retention() {
        let mut dev = ToDevice::new(Some(8), false);
        let mut out = Output::new();
        dev.push(0, Packet::from_slice(&[0; 100]), &mut out);
        assert_eq!(dev.sent_packets(), 1);
        assert!(dev.tx_log().is_empty());
    }

    #[test]
    fn pull_burst_follows_graph_kp_unless_overridden() {
        let mut inherit = ToDevice::new(None, false);
        inherit.resolve_burst(64);
        assert_eq!(inherit.burst(), 64);
        let mut pinned = ToDevice::new(Some(16), false);
        pinned.resolve_burst(64);
        assert_eq!(pinned.burst(), 16);
        // Replication preserves the override-vs-inherit distinction.
        let mut r = pinned.replicate().unwrap();
        let r = r.downcast_mut::<ToDevice>().unwrap();
        r.resolve_burst(8);
        assert_eq!(r.burst(), 16);
    }

    #[test]
    fn poll_burst_follows_the_router_unless_pinned() {
        // How many of 100 waiting frames one poll takes.
        let polled = |dev: &mut FromDevice| {
            for i in 0..100u8 {
                dev.inject(Packet::from_slice(&[i]));
            }
            let mut out = Output::new();
            dev.run_task(&mut out);
            out.len()
        };
        // A replica keeps following; a pinned one stays pinned.
        for (dev, want) in [
            (FromDevice::new(0, None), 64),
            (FromDevice::new(0, Some(8)), 8),
        ] {
            let mut replica = dev.replicate().unwrap();
            let replica = replica.downcast_mut::<FromDevice>().unwrap();
            replica.resolve_burst(64);
            assert_eq!(polled(replica), want);
        }
    }
}
