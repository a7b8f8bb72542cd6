//! The [`Element`] trait: Click's unit of packet processing.
//!
//! Elements have numbered input and output ports. A *push* port is driven
//! by the upstream element (batches arrive via [`Element::push_batch`]); a
//! *pull* port is driven by the downstream element (packets are requested
//! via [`Element::pull_batch`]). The driver validates at graph-build time
//! that push outputs feed push inputs and pull inputs drain pull outputs,
//! exactly as Click does.

use rb_packet::Packet;
use std::any::Any;

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

    /// The packet list itself, for a producer that appends to a `Vec`
    /// (a descriptor ring's `consume`).
    pub(crate) fn as_mut_vec(&mut self) -> &mut Vec<Packet> {
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

    /// Moves all packets of `other` to the back of `self`, leaving
    /// `other` empty. An empty `self` trades buffers with `other` instead
    /// of moving the packets: a pointer swap, whatever the batch holds.
    pub fn append(&mut self, other: &mut PacketBatch) {
        if self.pkts.is_empty() {
            std::mem::swap(&mut self.pkts, &mut other.pkts);
        } else {
            self.pkts.append(&mut other.pkts);
        }
    }

    /// Empties the batch, dropping its packets but keeping capacity (for
    /// buffer pooling).
    pub fn clear(&mut self) {
        self.pkts.clear();
    }

    /// Empties the batch, queueing every pooled buffer in one
    /// [`rb_packet::FreeBatch`] so the whole batch's arena slots return
    /// under one free-list lock instead of one lock per packet. Heap
    /// buffers are dropped as usual; capacity is kept (for buffer
    /// pooling) like [`PacketBatch::clear`].
    pub fn recycle(&mut self) {
        let mut free = rb_packet::FreeBatch::new();
        for pkt in self.pkts.drain(..) {
            pkt.recycle_into(&mut free);
        }
        // `free` flushes on drop: one lock per same-arena run of ≤ 64.
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
/// `&mut` access across the graph); they emit into one [`PacketBatch`] per
/// output port and the driver queues those batches along the configured
/// edges as they are — ports in the order they were first touched, FIFO
/// within a port.
///
/// It also accounts packets consumed by the *default* [`Element::push_batch`]:
/// a packet reaching an element that does not handle pushes is a wiring
/// bug, and [`Output::take_default_dropped`] lets the driver surface it
/// instead of losing packets silently.
#[derive(Debug, Default)]
pub struct Output {
    /// One batch per output port, indexed by port.
    batches: Vec<PacketBatch>,
    /// The ports whose batch holds packets, first touched first.
    touched: Vec<usize>,
    default_dropped: u64,
}

impl Output {
    /// Creates an empty collector.
    pub fn new() -> Output {
        Output::default()
    }

    /// Runs `fill` on output port `port`'s batch, which may only add to
    /// it, and notes the port as touched if that put the first packet in.
    pub(crate) fn fill<R>(&mut self, port: usize, fill: impl FnOnce(&mut PacketBatch) -> R) -> R {
        if port >= self.batches.len() {
            self.batches.resize_with(port + 1, PacketBatch::new);
        }
        let batch = &mut self.batches[port];
        let was_empty = batch.is_empty();
        let ret = fill(batch);
        if was_empty && !batch.is_empty() {
            self.touched.push(port);
        }
        ret
    }

    /// Emits `pkt` on output port `port`.
    pub fn push(&mut self, port: usize, pkt: Packet) {
        self.fill(port, |slot| slot.push(pkt));
    }

    /// Emits every packet of `batch` on output port `port`, in order,
    /// leaving `batch` empty. The first emission on a port trades buffers
    /// with `batch` (see [`PacketBatch::append`]): a pass-through element
    /// forwards its whole input for one pointer swap.
    pub fn push_batch(&mut self, port: usize, batch: &mut PacketBatch) {
        self.fill(port, |slot| slot.append(batch));
    }

    /// Records `pkt` as eaten by the default [`Element::push_batch`]; the
    /// driver reads the count via [`Output::take_default_dropped`].
    pub fn default_drop(&mut self, pkt: Packet) {
        drop(pkt);
        self.default_dropped += 1;
    }

    /// Returns and resets the default-push drop count.
    pub fn take_default_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.default_dropped)
    }

    /// Moves what was emitted on `port` to the back of `into`.
    pub(crate) fn take_port(&mut self, port: usize, into: &mut PacketBatch) {
        if let Some(at) = self.touched.iter().position(|&p| p == port) {
            self.touched.remove(at);
            into.append(&mut self.batches[port]);
        }
    }

    /// Hands every touched port's batch to `take`, first touched first,
    /// which must leave it empty (by swapping a buffer in, or draining).
    pub(crate) fn take_batches(&mut self, mut take: impl FnMut(usize, &mut PacketBatch)) {
        for port in self.touched.drain(..) {
            take(port, &mut self.batches[port]);
            debug_assert!(self.batches[port].is_empty(), "port {port} not taken");
        }
    }

    /// Drains the collected packets as `(port, packet)`: ports in the
    /// order they were first touched, FIFO within a port. What the
    /// iterator has not yielded when it is dropped is dropped with it.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, Packet)> + '_ {
        // Yielding pops from the back, of the port list and of each batch.
        self.touched.reverse();
        for &port in &self.touched {
            self.batches[port].pkts.reverse();
        }
        Drain(self)
    }

    /// Mutable view of the collected packets, by port (port assignment
    /// fixed). The driver uses this to stamp trace IDs onto fresh source
    /// emissions before routing them.
    pub fn packets_mut(&mut self) -> impl Iterator<Item = &mut Packet> + '_ {
        self.batches.iter_mut().flat_map(|b| b.pkts.iter_mut())
    }

    /// Number of packets currently collected.
    pub fn len(&self) -> usize {
        self.touched.iter().map(|&p| self.batches[p].len()).sum()
    }

    /// Returns `true` when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// The iterator behind [`Output::drain`], over an `Output` whose port
/// list and batches were reversed for it.
struct Drain<'a>(&'a mut Output);

impl Iterator for Drain<'_> {
    type Item = (usize, Packet);

    fn next(&mut self) -> Option<(usize, Packet)> {
        let &port = self.0.touched.last()?;
        let batch = &mut self.0.batches[port];
        let pkt = batch.pkts.pop().expect("touched ports hold packets");
        if batch.is_empty() {
            self.0.touched.pop();
        }
        Some((port, pkt))
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        self.0.take_batches(|_, batch| batch.clear());
    }
}

/// A packet-processing element.
///
/// Implementations override the methods matching their port kinds:
/// push elements implement [`Element::push_batch`]; pull-capable elements
/// (queues) implement [`Element::pull_batch`]; schedulable elements
/// (sources, pull-to-push drains) implement [`Element::run_task`]. A
/// caller holding one packet goes through [`OnePacket`], which reaches
/// the same two hooks.
pub trait Element: Any + Send {
    /// The element's class name as it appears in configurations.
    fn class_name(&self) -> &'static str;

    /// Port signature; the graph validates connections against it.
    fn ports(&self) -> Ports;

    /// Handles a whole batch arriving on push input `port`, leaving
    /// `pkts` empty.
    ///
    /// The default records every packet as a default-push drop on `out`
    /// (see [`Output::default_drop`]): an un-overridden `push_batch` means
    /// the element was wired into a push path it does not handle, and the
    /// driver reports such packets in its run statistics instead of
    /// losing them silently. Sinks override it to consume packets
    /// intentionally.
    fn push_batch(&mut self, port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let _ = port;
        for pkt in pkts.drain() {
            out.default_drop(pkt);
        }
    }

    /// Pulls up to `max` packets from pull output `port` into `into`,
    /// returning how many were moved. The default has none to give.
    fn pull_batch(&mut self, port: usize, max: usize, into: &mut PacketBatch) -> usize {
        let _ = (port, max, into);
        0
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

    /// Whether a quantum of this active element could find work now.
    ///
    /// The driver polls a task no push can wake (a source, or a drain
    /// whose source gives no [`Element::pull_backlog`]) only while it
    /// answers `true`: it asks when it arms its pollers and after each
    /// useful quantum, and a poller that answers `false` stays parked,
    /// costing no quantum, until an arm finds it has work. An element that
    /// answers must never say `false` while a `run_task` would do work, or
    /// that work waits for a caller to ask again. `true`, the default,
    /// promises nothing: such a task is polled at every arm. `FromDevice`
    /// answers from its wire and RX ring.
    fn has_work(&self) -> bool {
        true
    }

    /// Returns `true` for elements the driver must schedule (sources and
    /// pull-driving drains).
    fn is_active(&self) -> bool {
        false
    }

    /// The packet arena this element allocates from, if any.
    ///
    /// Ingress elements that allocate from a [`rb_packet::PacketPool`]
    /// (`FromDevice`, the sources) override this; the driver sums the
    /// arenas' counters into `RunStats`, and the MT runtime reads every
    /// worker's arenas into `MtReport` once the workers have joined.
    fn pool(&self) -> Option<&rb_packet::PacketPool> {
        None
    }

    /// Reports the counters of NIC descriptor rings this element owns,
    /// if any (`FromDevice`'s RX ring, `ToDevice`'s TX ring).
    ///
    /// Like [`Element::pool`], the driver sums the per-element
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

impl dyn Element {
    /// The element as a `T`, if it is one: how drivers read
    /// element-specific state (e.g. counter totals) after a run.
    pub fn downcast_ref<T: Element>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// Mutable counterpart of [`downcast_ref`](#method.downcast_ref)
    /// (e.g. to inject frames into a `FromDevice`).
    pub fn downcast_mut<T: Element>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut()
    }
}

/// One-packet calls for callers that hold one packet at a time (the
/// dataplane oracle's reference interpreter, unit tests): each is a
/// batch of one through the element's one push or pull hook.
///
/// Every element has it through the blanket impl, and coherence forbids
/// an element its own, so no element grows a second per-packet path.
pub trait OnePacket {
    /// Sends `pkt` to push input `port` as a batch of one.
    fn push(&mut self, port: usize, pkt: Packet, out: &mut Output);

    /// Pulls at most one packet from pull output `port`.
    fn pull(&mut self, port: usize) -> Option<Packet>;
}

impl<E: Element + ?Sized> OnePacket for E {
    fn push(&mut self, port: usize, pkt: Packet, out: &mut Output) {
        self.push_batch(port, &mut PacketBatch::from_vec(vec![pkt]), out);
    }

    fn pull(&mut self, port: usize) -> Option<Packet> {
        let mut one = PacketBatch::with_capacity(1);
        self.pull_batch(port, 1, &mut one);
        one.pkts.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn output_drains_port_by_port_first_touched_first() {
        let mut out = Output::new();
        for (port, id) in [(2, 0), (0, 1), (2, 2), (1, 3), (0, 4)] {
            out.push(port, Packet::from_slice(&[id]));
        }
        let drained: Vec<(usize, u8)> = out.drain().map(|(p, pkt)| (p, pkt.data()[0])).collect();
        assert_eq!(drained, vec![(2, 0), (2, 2), (0, 1), (0, 4), (1, 3)]);
    }

    #[test]
    fn a_dropped_drain_takes_the_rest_with_it() {
        let mut out = Output::new();
        for port in [1, 0, 1, 2] {
            out.push(port, Packet::from_slice(&[0]));
        }
        assert_eq!(out.drain().next().map(|(p, _)| p), Some(1));
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        out.push(2, Packet::from_slice(&[9]));
        let rest: Vec<(usize, u8)> = out.drain().map(|(p, pkt)| (p, pkt.data()[0])).collect();
        assert_eq!(rest, vec![(2, 9)]);
    }

    #[test]
    fn push_batch_into_an_empty_port_trades_buffers() {
        let mut batch = PacketBatch::with_capacity(32);
        batch.push(Packet::from_slice(&[1]));
        let buffer = batch.as_slice().as_ptr();
        let mut out = Output::new();
        out.push_batch(0, &mut batch);
        assert!(batch.is_empty());
        let mut taken = Vec::new();
        out.take_batches(|port, b| taken.push((port, std::mem::take(b))));
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].1.as_slice().as_ptr(), buffer, "moved, not copied");
        // An empty batch touches nothing.
        out.push_batch(3, &mut batch);
        assert!(out.is_empty());
    }

    /// The `Output` this one replaced, and the driver pass that went with
    /// it: emissions kept as a `(port, packet)` list in call order, then
    /// regrouped into per-port batches, ports in first-seen order. Kept as
    /// the reference the per-port container must agree with.
    fn regroup(pairs: Vec<(usize, Packet)>) -> Vec<(usize, Vec<Packet>)> {
        let mut groups: Vec<(usize, Vec<Packet>)> = Vec::new();
        for (port, pkt) in pairs {
            match groups.iter_mut().find(|(p, _)| *p == port) {
                Some((_, group)) => group.push(pkt),
                None => groups.push((port, vec![pkt])),
            }
        }
        groups
    }

    fn ids(groups: &[(usize, Vec<Packet>)]) -> Vec<(usize, Vec<u32>)> {
        let id = |pkt: &Packet| u32::from_le_bytes(pkt.data().try_into().unwrap());
        groups
            .iter()
            .map(|(port, pkts)| (*port, pkts.iter().map(id).collect()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `push`, `push_batch` (empty batches
        /// included) and default drops over 1–33 ports, two rounds on one
        /// `Output` so a round starts from what the last one left: the
        /// driver's view (`take_batches`) and `drain` both give the port
        /// order and per-port FIFO of the regrouped pair list, every
        /// packet exactly once, and the default-drop count is the pair
        /// list's.
        #[test]
        fn per_port_batches_match_the_regrouped_pair_list(
            ports in 1usize..=33,
            rounds in prop::collection::vec(
                prop::collection::vec((0u8..8, 0usize..33, 0usize..40), 0..60),
                2..3,
            ),
            by_drain in any::<bool>(),
        ) {
            let mut out = Output::new();
            let mut next_id = 0u32;
            let mut fresh = || {
                next_id += 1;
                Packet::from_slice(&next_id.to_le_bytes())
            };
            for round in rounds {
                let mut pairs = Vec::new();
                let mut dropped = 0;
                for (op, port, n) in round {
                    let port = port % ports;
                    match op {
                        0..=3 => {
                            let pkt = fresh();
                            pairs.push((port, pkt.clone()));
                            out.push(port, pkt);
                        }
                        4..=6 => {
                            let mut batch = PacketBatch::from_vec((0..n).map(|_| fresh()).collect());
                            pairs.extend(batch.as_slice().iter().map(|p| (port, p.clone())));
                            out.push_batch(port, &mut batch);
                            prop_assert!(batch.is_empty());
                        }
                        _ => {
                            dropped += 1;
                            out.default_drop(fresh());
                        }
                    }
                }
                prop_assert_eq!(out.len(), pairs.len());
                prop_assert_eq!(out.is_empty(), pairs.is_empty());
                prop_assert_eq!(out.packets_mut().count(), pairs.len());
                let mut got: Vec<(usize, Vec<Packet>)> = Vec::new();
                if by_drain {
                    for (port, pkt) in out.drain() {
                        match got.last_mut().filter(|(p, _)| *p == port) {
                            Some((_, group)) => group.push(pkt),
                            None => got.push((port, vec![pkt])),
                        }
                    }
                } else {
                    out.take_batches(|port, batch| got.push((port, batch.drain().collect())));
                }
                let want = regroup(pairs);
                prop_assert_eq!(ids(&got), ids(&want));
                prop_assert_eq!(out.take_default_dropped(), dropped);
                prop_assert_eq!(out.take_default_dropped(), 0);
                prop_assert!(out.is_empty());
                prop_assert_eq!(out.len(), 0);
            }
        }
    }

    #[test]
    fn take_port_moves_one_port_and_leaves_the_rest() {
        let mut out = Output::new();
        for (port, id) in [(1, 0), (0, 1), (1, 2), (2, 3)] {
            out.push(port, Packet::from_slice(&[id]));
        }
        let mut into = PacketBatch::new();
        out.take_port(5, &mut into);
        assert!(into.is_empty(), "nothing was emitted on port 5");
        out.take_port(1, &mut into);
        let got: Vec<u8> = into.drain().map(|p| p.data()[0]).collect();
        assert_eq!(got, vec![0, 2]);
        let rest: Vec<(usize, u8)> = out.drain().map(|(p, pkt)| (p, pkt.data()[0])).collect();
        assert_eq!(rest, vec![(0, 1), (2, 3)]);
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
    fn default_pull_batch_yields_nothing() {
        struct Dry;
        impl Element for Dry {
            fn class_name(&self) -> &'static str {
                "Dry"
            }
            fn ports(&self) -> Ports {
                Ports {
                    inputs: vec![],
                    outputs: vec![PortKind::Pull],
                }
            }
        }
        let mut e = Dry;
        let mut batch = PacketBatch::new();
        assert_eq!(e.pull_batch(0, 8, &mut batch), 0);
        assert!(batch.is_empty());
        assert!(e.pull(0).is_none());
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
