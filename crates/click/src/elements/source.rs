//! Packet sources.
//!
//! Sources are the dataplane's allocation hot path: every packet they
//! emit costs a buffer. [`SpecSource`] and a pool-equipped
//! [`InfiniteSource`] allocate straight from a [`PacketPool`] arena and
//! write frame bytes exactly once, so steady-state forwarding performs no
//! heap allocation at all; when the pool is exhausted (downstream holds
//! every slot) the emission is *dropped* and counted, never blocking and
//! never panicking — the same contract as a NIC with no free descriptors.

use crate::element::{Element, Output, Ports};
use rb_packet::builder::PacketSpec;
use rb_packet::pool::PacketPool;
use rb_packet::Packet;
use rb_telemetry::{DropCause, Ledger};

/// Emits synthetic UDP packets of a fixed size, optionally up to a limit.
///
/// Packets rotate over a small set of flows (distinct source ports) so
/// downstream hash dispatch has something to work with. Configuration:
/// `InfiniteSource(SIZE [, LIMIT [, FLOWS]])`.
pub struct InfiniteSource {
    template_flows: Vec<Packet>,
    emitted: u64,
    limit: Option<u64>,
    burst: u64,
    next_flow: usize,
    pool: Option<PacketPool>,
    pool_dropped: u64,
}

impl InfiniteSource {
    /// Creates a source of `size`-byte frames; `limit = None` runs forever.
    pub fn new(size: usize, limit: Option<u64>) -> InfiniteSource {
        Self::with_flows(size, limit, 16)
    }

    /// Creates a source cycling over `flows` distinct UDP flows.
    pub fn with_flows(size: usize, limit: Option<u64>, flows: usize) -> InfiniteSource {
        assert!(flows > 0, "need at least one flow");
        let template_flows = (0..flows)
            .map(|i| {
                let [.., hi, lo] = i.to_be_bytes();
                let port = u16::try_from(10_000 + i % 50_000).expect("below 60,000");
                PacketSpec::udp()
                    .endpoints(
                        std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(10, 0, hi, lo), port),
                        std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(192, 168, 0, 1), 80),
                    )
                    .frame_len(size)
                    .build()
            })
            .collect();
        InfiniteSource {
            template_flows,
            emitted: 0,
            limit,
            burst: 32,
            next_flow: 0,
            pool: None,
            pool_dropped: 0,
        }
    }

    /// Attaches a packet arena: emissions allocate slots instead of heap
    /// buffers, and an exhausted pool drops the emission (counted).
    pub fn set_pool(&mut self, pool: PacketPool) {
        self.pool = Some(pool);
    }

    /// Total packets emitted so far (drops included — an exhausted-pool
    /// emission still consumes budget, which is what makes the drop count
    /// deterministic).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emissions dropped because the pool had no free slot.
    pub fn pool_dropped(&self) -> u64 {
        self.pool_dropped
    }
}

impl Element for InfiniteSource {
    fn class_name(&self) -> &'static str {
        "InfiniteSource"
    }

    fn ports(&self) -> Ports {
        Ports::push(0, 1)
    }

    fn run_task(&mut self, out: &mut Output) -> bool {
        let budget = match self.limit {
            Some(limit) => (limit - self.emitted).min(self.burst),
            None => self.burst,
        };
        for _ in 0..budget {
            let template = &self.template_flows[self.next_flow];
            self.next_flow = (self.next_flow + 1) % self.template_flows.len();
            // Pooled path: one copy of the template bytes into the slot
            // (what DMA would do); heap path: the historical clone.
            let built = match &self.pool {
                None => Some(template.clone()),
                Some(pool) => Packet::try_from_slice_in(pool, template.data()),
            };
            match built {
                Some(pkt) => out.push(0, pkt),
                None => self.pool_dropped += 1,
            }
            self.emitted += 1;
        }
        budget > 0
    }

    fn is_active(&self) -> bool {
        true
    }

    fn pool(&self) -> Option<&PacketPool> {
        self.pool.as_ref()
    }

    fn ledger(&self) -> Option<Ledger> {
        let mut led = Ledger {
            sourced: self.emitted,
            ..Ledger::default()
        };
        led.add(DropCause::PoolExhausted, self.pool_dropped);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // A generator replicates whole: every core runs its own source at
        // the configured rate/limit. Note the aggregate emission scales
        // with the replica count, exactly like per-core `InfiniteSource`s
        // in Click. Each replica gets a FRESH pool of the same geometry.
        Some(Box::new(InfiniteSource {
            template_flows: self.template_flows.clone(),
            emitted: 0,
            limit: self.limit,
            burst: self.burst,
            next_flow: 0,
            pool: self
                .pool
                .as_ref()
                .map(|p| PacketPool::new(p.slots(), p.slot_size())),
            pool_dropped: 0,
        }))
    }
}

/// Replays a pre-built packet list once (a tiny trace player).
pub struct VecSource {
    packets: std::collections::VecDeque<Packet>,
    burst: usize,
    emitted: u64,
}

impl VecSource {
    /// Creates a source that emits `packets` in order, then goes idle.
    pub fn new(packets: Vec<Packet>) -> VecSource {
        VecSource {
            packets: packets.into(),
            burst: 32,
            emitted: 0,
        }
    }

    /// Packets still waiting to be emitted.
    pub fn remaining(&self) -> usize {
        self.packets.len()
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl Element for VecSource {
    fn class_name(&self) -> &'static str {
        "VecSource"
    }

    fn ports(&self) -> Ports {
        Ports::push(0, 1)
    }

    fn run_task(&mut self, out: &mut Output) -> bool {
        let mut did_work = false;
        for _ in 0..self.burst {
            match self.packets.pop_front() {
                Some(pkt) => {
                    out.push(0, pkt);
                    self.emitted += 1;
                    did_work = true;
                }
                None => break,
            }
        }
        did_work
    }

    fn is_active(&self) -> bool {
        true
    }

    fn ledger(&self) -> Option<Ledger> {
        Some(Ledger {
            sourced: self.emitted,
            ..Ledger::default()
        })
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // The trace is ingress, not a generator: replicas start EMPTY and
        // the MT runtime injects each core's flow shard, so the trace is
        // replayed once in aggregate rather than once per core.
        Some(Box::new(VecSource::new(Vec::new())))
    }
}

/// Plays a finite sequence of [`PacketSpec`]s once, building each frame on
/// demand — straight into a pool slot when an arena is attached.
///
/// This is the zero-copy twin of [`VecSource`]: instead of pre-building
/// (and holding) every packet, it holds the cheap specs and writes each
/// frame's bytes exactly once at emission time. With a pool attached the
/// emission path performs no heap allocation; an exhausted pool drops the
/// emission (counted in [`SpecSource::pool_dropped`] and the pool stats)
/// and recovers as soon as downstream recycles slots.
pub struct SpecSource {
    specs: Vec<PacketSpec>,
    next: usize,
    burst: usize,
    pool: Option<PacketPool>,
    pool_dropped: u64,
}

impl SpecSource {
    /// Creates a source that emits one packet per spec, in order, then
    /// goes idle.
    pub fn new(specs: Vec<PacketSpec>) -> SpecSource {
        SpecSource {
            specs,
            next: 0,
            burst: 32,
            pool: None,
            pool_dropped: 0,
        }
    }

    /// Attaches a packet arena; see the type docs for drop semantics.
    pub fn set_pool(&mut self, pool: PacketPool) {
        self.pool = Some(pool);
    }

    /// Specs still waiting to be emitted.
    pub fn remaining(&self) -> usize {
        self.specs.len() - self.next
    }

    /// Emissions dropped because the pool had no free slot.
    pub fn pool_dropped(&self) -> u64 {
        self.pool_dropped
    }
}

impl Element for SpecSource {
    fn class_name(&self) -> &'static str {
        "SpecSource"
    }

    fn ports(&self) -> Ports {
        Ports::push(0, 1)
    }

    fn run_task(&mut self, out: &mut Output) -> bool {
        let mut did_work = false;
        for _ in 0..self.burst {
            if self.next >= self.specs.len() {
                break;
            }
            let spec = &self.specs[self.next];
            self.next += 1;
            did_work = true;
            let built = match &self.pool {
                None => Some(spec.build()),
                Some(pool) => spec.try_build_in(pool),
            };
            match built {
                Some(pkt) => out.push(0, pkt),
                None => self.pool_dropped += 1,
            }
        }
        did_work
    }

    fn is_active(&self) -> bool {
        true
    }

    fn pool(&self) -> Option<&PacketPool> {
        self.pool.as_ref()
    }

    fn ledger(&self) -> Option<Ledger> {
        let mut led = Ledger {
            sourced: self.next as u64,
            ..Ledger::default()
        };
        led.add(DropCause::PoolExhausted, self.pool_dropped);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // Like VecSource: the spec list is a finite trace, so replicas
        // start empty (the MT runtime injects per-core shards). The fresh
        // pool keeps the replica ready for pooled FromDevice-style use.
        let mut fresh = SpecSource::new(Vec::new());
        if let Some(pool) = &self.pool {
            fresh.set_pool(PacketPool::new(pool.slots(), pool.slot_size()));
        }
        Some(Box::new(fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limited_source_stops_at_limit() {
        let mut src = InfiniteSource::new(64, Some(10));
        let mut out = Output::new();
        assert!(src.run_task(&mut out));
        assert_eq!(out.len(), 10);
        assert!(!src.run_task(&mut out));
        assert_eq!(src.emitted(), 10);
    }

    #[test]
    fn unlimited_source_emits_bursts() {
        let mut src = InfiniteSource::new(64, None);
        let mut out = Output::new();
        assert!(src.run_task(&mut out));
        assert!(src.run_task(&mut out));
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn packets_have_requested_size_and_cycle_flows() {
        let mut src = InfiniteSource::with_flows(128, Some(4), 2);
        let mut out = Output::new();
        src.run_task(&mut out);
        let pkts: Vec<Packet> = out.drain().map(|(_, p)| p).collect();
        assert!(pkts.iter().all(|p| p.len() == 128));
        let t0 = rb_packet::FiveTuple::of_ethernet_frame(pkts[0].data()).unwrap();
        let t1 = rb_packet::FiveTuple::of_ethernet_frame(pkts[1].data()).unwrap();
        let t2 = rb_packet::FiveTuple::of_ethernet_frame(pkts[2].data()).unwrap();
        assert_ne!(t0, t1);
        assert_eq!(t0, t2);
    }

    #[test]
    fn pooled_infinite_source_emits_identical_frames() {
        let mut heap_src = InfiniteSource::with_flows(96, Some(8), 3);
        let mut pool_src = InfiniteSource::with_flows(96, Some(8), 3);
        pool_src.set_pool(PacketPool::new(16, 512));
        let (mut a, mut b) = (Output::new(), Output::new());
        heap_src.run_task(&mut a);
        pool_src.run_task(&mut b);
        let heap: Vec<Vec<u8>> = a.drain().map(|(_, p)| p.data().to_vec()).collect();
        let pooled: Vec<Vec<u8>> = b.drain().map(|(_, p)| p.data().to_vec()).collect();
        assert_eq!(heap, pooled);
        assert_eq!(pool_src.pool_dropped(), 0);
    }

    #[test]
    fn exhausted_pool_drops_deterministically_and_recovers() {
        let mut src = InfiniteSource::new(64, Some(10));
        src.set_pool(PacketPool::new(4, 512));
        let mut out = Output::new();
        assert!(src.run_task(&mut out));
        // Budget 10, 4 slots: exactly 4 packets out, 6 counted as drops.
        assert_eq!(out.len(), 4);
        assert_eq!(src.pool_dropped(), 6);
        assert_eq!(src.emitted(), 10);
        let stats = src.pool().unwrap().stats();
        assert_eq!(stats.exhausted, 6);
        assert_eq!(stats.allocs, 4);
        assert_eq!(stats.peak_in_use, 4);
    }

    #[test]
    fn vec_source_replays_in_order_then_idles() {
        let pkts = vec![Packet::from_slice(&[1]), Packet::from_slice(&[2])];
        let mut src = VecSource::new(pkts);
        let mut out = Output::new();
        assert!(src.run_task(&mut out));
        let sizes: Vec<usize> = out.drain().map(|(_, p)| p.len()).collect();
        assert_eq!(sizes, vec![1, 1]);
        assert_eq!(src.remaining(), 0);
        assert!(!src.run_task(&mut out));
    }

    #[test]
    fn spec_source_matches_vec_source_bytes() {
        let specs: Vec<PacketSpec> = (0..5u8)
            .map(|i| PacketSpec::udp().frame_len(64 + usize::from(i) * 8).fill(i))
            .collect();
        let packets: Vec<Packet> = specs.iter().map(PacketSpec::build).collect();
        let mut vec_src = VecSource::new(packets);
        let mut spec_src = SpecSource::new(specs.clone());
        let mut pooled_src = SpecSource::new(specs);
        pooled_src.set_pool(PacketPool::new(8, 512));
        let (mut a, mut b, mut c) = (Output::new(), Output::new(), Output::new());
        vec_src.run_task(&mut a);
        spec_src.run_task(&mut b);
        pooled_src.run_task(&mut c);
        let va: Vec<Vec<u8>> = a.drain().map(|(_, p)| p.data().to_vec()).collect();
        let vb: Vec<Vec<u8>> = b.drain().map(|(_, p)| p.data().to_vec()).collect();
        let vc: Vec<Vec<u8>> = c.drain().map(|(_, p)| p.data().to_vec()).collect();
        assert_eq!(va, vb);
        assert_eq!(va, vc);
        assert_eq!(spec_src.remaining(), 0);
        assert!(!spec_src.run_task(&mut Output::new()));
    }
}
