//! The [`Element`] trait: Click's unit of packet processing.
//!
//! Elements have numbered input and output ports. A *push* port is driven
//! by the upstream element (packets arrive via [`Element::push`]); a
//! *pull* port is driven by the downstream element (packets are requested
//! via [`Element::pull`]). The driver validates at graph-build time that
//! push outputs feed push inputs and pull inputs drain pull outputs,
//! exactly as Click does.

use rb_packet::Packet;

/// Direction-of-drive of a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// Upstream drives the packet through this port.
    Push,
    /// Downstream requests packets through this port.
    Pull,
    /// The port adapts to whatever it is connected to (e.g. `Counter`
    /// works in both push and pull paths).
    Agnostic,
}

impl PortKind {
    /// Returns `true` when an output of kind `self` may legally connect to
    /// an input of kind `other`.
    pub fn compatible_with(self, other: PortKind) -> bool {
        use PortKind::*;
        !matches!((self, other), (Push, Pull) | (Pull, Push))
    }
}

/// Port signature of an element.
#[derive(Debug, Clone)]
pub struct Ports {
    /// Kinds of each input port.
    pub inputs: Vec<PortKind>,
    /// Kinds of each output port.
    pub outputs: Vec<PortKind>,
}

impl Ports {
    /// `n` push inputs and `m` push outputs.
    pub fn push(n: usize, m: usize) -> Ports {
        Ports {
            inputs: vec![PortKind::Push; n],
            outputs: vec![PortKind::Push; m],
        }
    }

    /// `n` agnostic inputs and `m` agnostic outputs.
    pub fn agnostic(n: usize, m: usize) -> Ports {
        Ports {
            inputs: vec![PortKind::Agnostic; n],
            outputs: vec![PortKind::Agnostic; m],
        }
    }
}

/// A batch of packets traveling together between elements.
///
/// The unit of work in the batched dataplane: the driver routes whole
/// batches along edges and elements process them with one dispatch, one
/// borrow of their state and one statistics update per batch instead of
/// per packet (the paper's `kp` poll-batching, applied to the graph).
/// Order is FIFO — packets leave in the order they were pushed.
#[derive(Debug, Default)]
pub struct PacketBatch {
    pkts: Vec<Packet>,
}

impl PacketBatch {
    /// Creates an empty batch.
    pub fn new() -> PacketBatch {
        PacketBatch::default()
    }

    /// Creates an empty batch with room for `cap` packets.
    pub fn with_capacity(cap: usize) -> PacketBatch {
        PacketBatch {
            pkts: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing packet list (keeps its order).
    pub fn from_vec(pkts: Vec<Packet>) -> PacketBatch {
        PacketBatch { pkts }
    }

    /// Appends one packet at the back.
    pub fn push(&mut self, pkt: Packet) {
        self.pkts.push(pkt);
    }

    /// Packets currently in the batch.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Returns `true` when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Read-only view of the batched packets.
    pub fn as_slice(&self) -> &[Packet] {
        &self.pkts
    }

    /// Mutable view of the batched packets (in-place header rewrites).
    pub fn as_mut_slice(&mut self) -> &mut [Packet] {
        &mut self.pkts
    }

    /// Removes and yields all packets in FIFO order.
    pub fn drain(&mut self) -> impl Iterator<Item = Packet> + '_ {
        self.pkts.drain(..)
    }

    /// Splits the batch at `at`: `self` keeps the first `at` packets and
    /// the rest are returned, both in order.
    pub fn split_off(&mut self, at: usize) -> PacketBatch {
        PacketBatch::from_vec(self.pkts.split_off(at))
    }

    /// Moves all packets of `other` to the back of `self`.
    pub fn append(&mut self, other: &mut PacketBatch) {
        self.pkts.append(&mut other.pkts);
    }

    /// Empties the batch, dropping its packets but keeping capacity (for
    /// buffer pooling).
    pub fn clear(&mut self) {
        self.pkts.clear();
    }

    /// Empties the batch, chaining every pooled buffer into one
    /// [`rb_packet::FreeBatch`] so the whole batch's arena slots return
    /// with a single free-list CAS instead of one CAS per packet. Heap
    /// buffers are dropped as usual; capacity is kept (for buffer
    /// pooling) like [`PacketBatch::clear`].
    pub fn recycle(&mut self) {
        let mut free = rb_packet::FreeBatch::new();
        for pkt in self.pkts.drain(..) {
            pkt.recycle_into(&mut free);
        }
        // `free` flushes on drop: one CAS per contiguous same-arena run.
    }
}

impl Extend<Packet> for PacketBatch {
    fn extend<I: IntoIterator<Item = Packet>>(&mut self, iter: I) {
        self.pkts.extend(iter);
    }
}

impl IntoIterator for PacketBatch {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.pkts.into_iter()
    }
}

/// Collector for packets an element emits during one call.
///
/// Elements never call each other directly (that would need aliasing
/// `&mut` access across the graph); they emit `(output port, packet)`
/// pairs and the driver routes them along the configured edges.
///
/// It also accounts packets consumed by the *default* [`Element::push`]:
/// a packet reaching an element that does not handle pushes is a wiring
/// bug, and [`Output::take_default_dropped`] lets the driver surface it
/// instead of losing packets silently.
#[derive(Debug, Default)]
pub struct Output {
    emitted: Vec<(usize, Packet)>,
    default_dropped: u64,
}

impl Output {
    /// Creates an empty collector.
    pub fn new() -> Output {
        Output::default()
    }

    /// Emits `pkt` on output port `port`.
    pub fn push(&mut self, port: usize, pkt: Packet) {
        self.emitted.push((port, pkt));
    }

    /// Emits every packet of `batch` on output port `port`, in order.
    pub fn push_batch(&mut self, port: usize, batch: &mut PacketBatch) {
        self.emitted.reserve(batch.len());
        self.emitted.extend(batch.drain().map(|pkt| (port, pkt)));
    }

    /// Records `pkt` as eaten by the default [`Element::push`]; the
    /// driver reads the count via [`Output::take_default_dropped`].
    pub fn default_drop(&mut self, pkt: Packet) {
        drop(pkt);
        self.default_dropped += 1;
    }

    /// Returns and resets the default-push drop count.
    pub fn take_default_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.default_dropped)
    }

    /// Drains the collected packets.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, Packet)> + '_ {
        self.emitted.drain(..)
    }

    /// Mutable view of the collected packets (port assignment fixed).
    /// The driver uses this to stamp trace IDs onto fresh source
    /// emissions before routing them.
    pub fn packets_mut(&mut self) -> impl Iterator<Item = &mut Packet> + '_ {
        self.emitted.iter_mut().map(|(_, pkt)| pkt)
    }

    /// Number of packets currently collected.
    pub fn len(&self) -> usize {
        self.emitted.len()
    }

    /// Returns `true` when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.emitted.is_empty()
    }
}

/// A packet-processing element.
///
/// Implementations override the methods matching their port kinds:
/// push elements implement [`Element::push`]; pull-capable elements
/// (queues) implement [`Element::pull`]; schedulable elements (sources,
/// pull-to-push drains) implement [`Element::run_task`].
pub trait Element: Send {
    /// The element's class name as it appears in configurations.
    fn class_name(&self) -> &'static str;

    /// Downcasting hook so drivers can read element-specific state (e.g.
    /// counter totals) after a run. Implementations return `self`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable counterpart of [`Element::as_any`] (e.g. to inject frames
    /// into a `FromDevice`). Implementations return `self`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Port signature; the graph validates connections against it.
    fn ports(&self) -> Ports;

    /// Handles a packet arriving on push input `port`.
    ///
    /// The default records the packet as a default-push drop on `out`
    /// (see [`Output::default_drop`]): an un-overridden `push` means the
    /// element was wired into a push path it does not handle, and the
    /// driver reports such packets in its run statistics instead of
    /// losing them silently. Sinks override `push` to consume packets
    /// intentionally.
    fn push(&mut self, port: usize, pkt: Packet, out: &mut Output) {
        let _ = port;
        out.default_drop(pkt);
    }

    /// Handles a whole batch arriving on push input `port`.
    ///
    /// The default loops over [`Element::push`], so every element is
    /// batch-capable out of the box; hot elements override it to pay
    /// dispatch, borrow and statistics costs once per batch.
    fn push_batch(&mut self, port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.drain() {
            self.push(port, pkt, out);
        }
    }

    /// Supplies a packet from pull output `port`, if one is available.
    fn pull(&mut self, port: usize) -> Option<Packet> {
        let _ = port;
        None
    }

    /// Pulls up to `max` packets from pull output `port` into `into`,
    /// returning how many were moved.
    ///
    /// The default loops over [`Element::pull`]; queue-like elements
    /// override it with a bulk drain.
    fn pull_batch(&mut self, port: usize, max: usize, into: &mut PacketBatch) -> usize {
        let mut moved = 0;
        while moved < max {
            match self.pull(port) {
                Some(pkt) => {
                    into.push(pkt);
                    moved += 1;
                }
                None => break,
            }
        }
        moved
    }

    /// Cheap hint from the element a pull chain ends in: `(backlog,
    /// room)` — how many packets a pull on output `port` could yield
    /// right now, and how many more a push could add before the element
    /// starts dropping.
    ///
    /// The driver schedules a drain from it: a drain whose source reports
    /// no backlog is parked until a push into the source wakes it, and a
    /// woken drain waits for a full burst while there is room for one
    /// (see [`crate::runtime::driver`]). An element that answers must be
    /// exact and must feed one drain. `None`, the default, promises
    /// nothing: such a drain is polled like a source. Queues answer from
    /// their occupancy and capacity.
    fn pull_backlog(&self, port: usize) -> Option<(usize, usize)> {
        let _ = port;
        None
    }

    /// Runs one scheduling quantum for an active element.
    ///
    /// Returns `true` if useful work was done (the stride scheduler uses
    /// this to detect idleness). Sources emit packets into `out`.
    fn run_task(&mut self, out: &mut Output) -> bool {
        let _ = out;
        false
    }

    /// Returns `true` for elements the driver must schedule (sources and
    /// pull-driving drains).
    fn is_active(&self) -> bool {
        false
    }

    /// Scheduling weight (stride tickets); higher = more frequent.
    fn tickets(&self) -> u32 {
        1
    }

    /// Reports the stats of a packet arena this element owns, if any.
    ///
    /// Ingress elements that allocate from a [`rb_packet::PacketPool`]
    /// (`FromDevice`, the sources) override this; the driver sums the
    /// per-element snapshots into `RunStats`, and the MT runtime rolls
    /// worker totals up into `MtReport`. One element owns one pool, so
    /// summing never double-counts an arena.
    fn pool_stats(&self) -> Option<rb_packet::PoolStats> {
        None
    }

    /// Reports the counters of NIC descriptor rings this element owns,
    /// if any (`FromDevice`'s RX ring, `ToDevice`'s TX ring).
    ///
    /// Like [`Element::pool_stats`], the driver sums the per-element
    /// snapshots into `RunStats` and the MT runtime rolls worker totals
    /// up into `MtReport`; a ring is owned by exactly one element
    /// replica, so summing never double-counts.
    fn nic_stats(&self) -> Option<rb_packet::NicStats> {
        None
    }

    /// Reports this element's contribution to the run's
    /// packet-conservation ledger, if it sources, sinks, or holds
    /// packets (see [`rb_telemetry::Ledger`]).
    ///
    /// Sources report attempted emissions as `sourced` (a pool-exhausted
    /// emission counts as sourced *and* dropped, so the identity holds);
    /// egress devices report `forwarded`; queues report drop-tail losses
    /// and current occupancy as `in_flight`; sinks and filters report
    /// per-cause drops. Pure transformers (the default) return `None` —
    /// every packet in is a packet out.
    fn ledger(&self) -> Option<rb_telemetry::Ledger> {
        None
    }

    /// Creates a fresh per-core copy of this element for graph
    /// replication (§4.2's "one graph replica per core").
    ///
    /// The contract mirrors how Click threads share state:
    ///
    /// * **per-core mutable state** (counters, queues, RNGs, crypto
    ///   sequence numbers) starts fresh in the replica;
    /// * **read-only structures** (FIB tables, classifier patterns) are
    ///   shared via `Arc` or cloned — never rebuilt per packet;
    /// * **ingress buffers are NOT copied**: a replicated `FromDevice` or
    ///   `VecSource` starts empty, because the MT runtime shards the
    ///   traffic across replicas (copying buffered packets would
    ///   duplicate traffic `workers`-fold).
    ///
    /// The default returns `None`, meaning the element cannot run
    /// replicated; [`crate::graph::Graph::replicate`] turns that into a
    /// clear error naming the element.
    fn replicate(&self) -> Option<Box<dyn Element>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_kind_compatibility_matrix() {
        use PortKind::*;
        assert!(Push.compatible_with(Push));
        assert!(Pull.compatible_with(Pull));
        assert!(!Push.compatible_with(Pull));
        assert!(!Pull.compatible_with(Push));
        assert!(Agnostic.compatible_with(Push));
        assert!(Agnostic.compatible_with(Pull));
        assert!(Push.compatible_with(Agnostic));
        assert!(Pull.compatible_with(Agnostic));
        assert!(Agnostic.compatible_with(Agnostic));
    }

    #[test]
    fn output_collects_in_order() {
        let mut out = Output::new();
        out.push(0, Packet::from_slice(&[1]));
        out.push(1, Packet::from_slice(&[2]));
        assert_eq!(out.len(), 2);
        let drained: Vec<usize> = out.drain().map(|(p, _)| p).collect();
        assert_eq!(drained, vec![0, 1]);
        assert!(out.is_empty());
    }

    #[test]
    fn packet_batch_is_fifo() {
        let mut batch = PacketBatch::with_capacity(4);
        for i in 0..4u8 {
            batch.push(Packet::from_slice(&[i]));
        }
        assert_eq!(batch.len(), 4);
        let order: Vec<u8> = batch.drain().map(|p| p.data()[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(batch.is_empty());
    }

    #[test]
    fn output_push_batch_preserves_order() {
        let mut batch =
            PacketBatch::from_vec(vec![Packet::from_slice(&[7]), Packet::from_slice(&[8])]);
        let mut out = Output::new();
        out.push_batch(2, &mut batch);
        assert!(batch.is_empty());
        let drained: Vec<(usize, u8)> = out.drain().map(|(p, pkt)| (p, pkt.data()[0])).collect();
        assert_eq!(drained, vec![(2, 7), (2, 8)]);
    }

    #[test]
    fn default_push_accounts_drops() {
        struct Inert;
        impl Element for Inert {
            fn class_name(&self) -> &'static str {
                "Inert"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn ports(&self) -> Ports {
                Ports::push(1, 0)
            }
        }
        let mut e = Inert;
        let mut out = Output::new();
        e.push(0, Packet::from_slice(&[1]), &mut out);
        let mut batch =
            PacketBatch::from_vec(vec![Packet::from_slice(&[2]), Packet::from_slice(&[3])]);
        e.push_batch(0, &mut batch, &mut out);
        assert!(out.is_empty(), "default push must not emit");
        assert_eq!(out.take_default_dropped(), 3);
        assert_eq!(out.take_default_dropped(), 0, "take resets the count");
    }

    #[test]
    fn default_pull_batch_loops_over_pull() {
        struct Three(u8);
        impl Element for Three {
            fn class_name(&self) -> &'static str {
                "Three"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn ports(&self) -> Ports {
                Ports {
                    inputs: vec![],
                    outputs: vec![PortKind::Pull],
                }
            }
            fn pull(&mut self, _port: usize) -> Option<Packet> {
                if self.0 < 3 {
                    self.0 += 1;
                    Some(Packet::from_slice(&[self.0]))
                } else {
                    None
                }
            }
        }
        let mut e = Three(0);
        let mut batch = PacketBatch::new();
        assert_eq!(e.pull_batch(0, 8, &mut batch), 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(e.pull_batch(0, 8, &mut batch), 0);
    }

    #[test]
    fn ports_constructors() {
        let p = Ports::push(2, 3);
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.outputs.len(), 3);
        assert!(p.inputs.iter().all(|k| *k == PortKind::Push));
        let a = Ports::agnostic(1, 1);
        assert_eq!(a.inputs[0], PortKind::Agnostic);
    }
}
