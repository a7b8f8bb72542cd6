//! The [`Packet`] type: a buffer plus dataplane annotations.
//!
//! Click attaches "annotations" to packets as they move through the element
//! graph; RouteBricks adds cluster-level ones (VLB phase, destination node).
//! Annotations live beside the buffer, never inside the wire bytes, except
//! for the destination-MAC encoding which is applied explicitly by the
//! cluster dataplane.

use crate::buf::PacketBuf;

/// Which VLB routing phase a packet is currently in (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VlbPhase {
    /// Not yet routed (just received on an external port).
    #[default]
    Ingress,
    /// Phase 1: input node → randomly chosen intermediate node.
    LoadBalance,
    /// Phase 2: intermediate node → output node.
    ToOutput,
    /// Direct routing (Direct VLB shortcut, input node → output node).
    Direct,
    /// At the output node, ready for the external line.
    Egress,
}

/// Per-packet metadata carried alongside the buffer.
#[derive(Debug, Clone, Default)]
pub struct PacketMeta {
    /// External or internal port the packet arrived on.
    pub input_port: u16,
    /// NIC receive queue the packet was delivered to.
    pub input_queue: u16,
    /// Arrival timestamp in simulated/real nanoseconds.
    pub rx_ns: u64,
    /// Click-style paint annotation (free-form small tag).
    pub paint: u8,
    /// Cached RSS hash, if the NIC computed one.
    pub rss_hash: Option<u32>,
    /// Current VLB phase.
    pub vlb_phase: VlbPhase,
    /// Cluster node the packet must exit from, once routed.
    pub output_node: Option<u16>,
    /// External router port the packet must exit on, once routed.
    pub output_port: Option<u16>,
    /// Monotone sequence number assigned at ingress (for reordering
    /// measurement; not on the wire).
    pub ingress_seq: u64,
    /// Path-trace sample ID; 0 = untraced. Stamped at the source for
    /// every `1/N`-th packet when tracing is on, then matched against
    /// span records at each dispatch and hop (see `rb_telemetry::trace`).
    pub trace_id: u64,
}

/// A packet: wire bytes plus dataplane annotations.
#[derive(Debug, Clone)]
pub struct Packet {
    buf: PacketBuf,
    /// Annotations; public because elements mutate them freely.
    pub meta: PacketMeta,
}

impl Packet {
    /// Wraps a buffer with default (zeroed) annotations.
    pub fn new(buf: PacketBuf) -> Packet {
        Packet {
            buf,
            meta: PacketMeta::default(),
        }
    }

    /// Creates a packet from raw frame bytes.
    pub fn from_slice(frame: &[u8]) -> Packet {
        Packet::new(PacketBuf::from_slice(frame))
    }

    /// Creates a pool-backed packet from raw frame bytes, or `None` when
    /// the pool is exhausted (the exhaustion is recorded in the pool's
    /// stats so the caller can count the drop).
    pub fn try_from_slice_in(pool: &crate::pool::PacketPool, frame: &[u8]) -> Option<Packet> {
        PacketBuf::try_from_slice_in(pool, frame).map(Packet::new)
    }

    /// Returns `true` when the packet's buffer borrows an arena slot.
    #[inline]
    pub fn is_pooled(&self) -> bool {
        self.buf.is_pooled()
    }

    /// Returns the wire bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        self.buf.data()
    }

    /// Returns the wire bytes mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.buf.data_mut()
    }

    /// Returns the frame length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` for an empty buffer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Returns a reference to the underlying buffer.
    #[inline]
    pub fn buf(&self) -> &PacketBuf {
        &self.buf
    }

    /// Returns the underlying buffer mutably (for push/pull operations).
    #[inline]
    pub fn buf_mut(&mut self) -> &mut PacketBuf {
        &mut self.buf
    }

    /// Consumes the packet and returns the buffer.
    pub fn into_buf(self) -> PacketBuf {
        self.buf
    }

    /// Consumes the packet, queueing its pooled buffer (if any) on
    /// `batch` for a bulk return to the free list. See
    /// [`PacketBuf::recycle_into`].
    pub fn recycle_into(self, batch: &mut crate::pool::FreeBatch) {
        self.buf.recycle_into(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packet_has_default_meta() {
        let p = Packet::from_slice(&[1, 2, 3]);
        assert_eq!(p.meta.input_port, 0);
        assert_eq!(p.meta.vlb_phase, VlbPhase::Ingress);
        assert!(p.meta.output_node.is_none());
    }

    #[test]
    fn data_accessors_see_buffer() {
        let mut p = Packet::from_slice(&[1, 2, 3]);
        p.data_mut()[0] = 9;
        assert_eq!(p.data(), &[9, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn meta_is_mutable_and_cloned() {
        let mut p = Packet::from_slice(&[0]);
        p.meta.paint = 7;
        p.meta.output_node = Some(3);
        let q = p.clone();
        assert_eq!(q.meta.paint, 7);
        assert_eq!(q.meta.output_node, Some(3));
    }

    #[test]
    fn buf_mut_supports_encapsulation() {
        let mut p = Packet::from_slice(b"inner");
        p.buf_mut().push(3).unwrap().copy_from_slice(b"out");
        assert_eq!(p.data(), b"outinner");
    }
}
