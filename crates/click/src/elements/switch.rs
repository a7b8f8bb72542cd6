//! Fan-out, dispatch and framing glue elements.

use crate::element::{Element, Output, PacketBatch, Ports};
use rb_packet::ethernet::{EtherType, EthernetHeader, HEADER_LEN as ETH_HLEN};
use rb_packet::flow::FiveTuple;
use rb_packet::rss::ToeplitzHasher;
use rb_packet::{MacAddr, Packet};

/// Duplicates every packet to all `n` outputs.
pub struct Tee {
    n: usize,
}

impl Tee {
    /// Creates a tee with `n` outputs.
    pub fn new(n: usize) -> Tee {
        assert!(n > 0, "tee needs at least one output");
        Tee { n }
    }
}

impl Element for Tee {
    fn class_name(&self) -> &'static str {
        "Tee"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.n)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.drain() {
            for port in 1..self.n {
                out.push(port, pkt.clone());
            }
            out.push(0, pkt);
        }
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(Tee::new(self.n)))
    }
}

/// Sends successive packets to outputs 0, 1, …, n-1, 0, … in turn.
pub struct RoundRobinSwitch {
    n: usize,
    next: usize,
}

impl RoundRobinSwitch {
    /// Creates a round-robin dispatcher over `n` outputs.
    pub fn new(n: usize) -> RoundRobinSwitch {
        assert!(n > 0, "switch needs at least one output");
        RoundRobinSwitch { n, next: 0 }
    }
}

impl Element for RoundRobinSwitch {
    fn class_name(&self) -> &'static str {
        "RoundRobinSwitch"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.n)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.drain() {
            out.push(self.next, pkt);
            self.next = (self.next + 1) % self.n;
        }
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(RoundRobinSwitch::new(self.n)))
    }
}

/// Dispatches packets to outputs by the RSS Toeplitz hash of their flow.
///
/// This is the software model of a multi-queue NIC's receive-side
/// scaling: same flow → same output, so per-output consumers never share
/// flows — the mechanism behind the paper's "one core per queue" rule.
pub struct HashSwitch {
    n: usize,
    hasher: ToeplitzHasher,
}

impl HashSwitch {
    /// Creates a hash dispatcher over `n` outputs.
    pub fn new(n: usize) -> HashSwitch {
        assert!(n > 0, "switch needs at least one output");
        HashSwitch {
            n,
            hasher: ToeplitzHasher::default(),
        }
    }
}

impl Element for HashSwitch {
    fn class_name(&self) -> &'static str {
        "HashSwitch"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.n)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for mut pkt in pkts.drain() {
            let port = match FiveTuple::of_ethernet_frame(pkt.data()) {
                Ok(flow) => {
                    let hash = self.hasher.hash_flow(&flow);
                    pkt.meta.rss_hash = Some(hash);
                    (hash as usize) % self.n
                }
                // Non-IP traffic all lands on output 0, as real RSS does.
                Err(_) => 0,
            };
            out.push(port, pkt);
        }
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // ToeplitzHasher::default() is a fixed key, so replicas dispatch
        // identically — the property RSS sharding relies on.
        Some(Box::new(HashSwitch::new(self.n)))
    }
}

/// Sets the paint annotation.
pub struct Paint {
    color: u8,
}

impl Paint {
    /// Creates a painter with the given color.
    pub fn new(color: u8) -> Paint {
        Paint { color }
    }
}

impl Element for Paint {
    fn class_name(&self) -> &'static str {
        "Paint"
    }

    fn ports(&self) -> Ports {
        Ports::agnostic(1, 1)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.as_mut_slice() {
            pkt.meta.paint = self.color;
        }
        out.push_batch(0, pkts);
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(Paint::new(self.color)))
    }
}

/// Dispatches by the paint annotation (paint ≥ n goes to the last port).
pub struct PaintSwitch {
    n: usize,
}

impl PaintSwitch {
    /// Creates a paint dispatcher over `n` outputs.
    pub fn new(n: usize) -> PaintSwitch {
        assert!(n > 0, "switch needs at least one output");
        PaintSwitch { n }
    }
}

impl Element for PaintSwitch {
    fn class_name(&self) -> &'static str {
        "PaintSwitch"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.n)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.drain() {
            out.push(usize::from(pkt.meta.paint).min(self.n - 1), pkt);
        }
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(PaintSwitch::new(self.n)))
    }
}

/// Strips the Ethernet header, leaving the bare IP datagram.
pub struct StripEther {
    stripped: u64,
}

impl StripEther {
    /// Creates the stripper.
    pub fn new() -> StripEther {
        StripEther { stripped: 0 }
    }
}

impl Default for StripEther {
    fn default() -> Self {
        StripEther::new()
    }
}

impl Element for StripEther {
    fn class_name(&self) -> &'static str {
        "StripEther"
    }

    fn ports(&self) -> Ports {
        Ports::agnostic(1, 1)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for mut pkt in pkts.drain() {
            if pkt.buf_mut().pull(ETH_HLEN).is_ok() {
                self.stripped += 1;
                out.push(0, pkt);
            }
            // Runt frames are dropped.
        }
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(StripEther::new()))
    }
}

/// Prepends a fresh Ethernet header.
pub struct EtherEncap {
    src: MacAddr,
    dst: MacAddr,
    ethertype: EtherType,
}

impl EtherEncap {
    /// Creates the encapsulator with fixed addresses.
    pub fn new(src: MacAddr, dst: MacAddr, ethertype: EtherType) -> EtherEncap {
        EtherEncap {
            src,
            dst,
            ethertype,
        }
    }
}

impl Element for EtherEncap {
    fn class_name(&self) -> &'static str {
        "EtherEncap"
    }

    fn ports(&self) -> Ports {
        Ports::agnostic(1, 1)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let hdr = EthernetHeader {
            dst: self.dst,
            src: self.src,
            ethertype: self.ethertype,
        };
        for mut pkt in pkts.drain() {
            match pkt.buf_mut().push(ETH_HLEN) {
                Ok(space) => {
                    hdr.emit(space).expect("pushed space is header-sized");
                    out.push(0, pkt);
                }
                Err(_) => {
                    // No headroom left: rebuild (slow path, rare).
                    let mut frame = vec![0u8; ETH_HLEN + pkt.len()];
                    hdr.emit(&mut frame).expect("frame sized for header");
                    frame[ETH_HLEN..].copy_from_slice(pkt.data());
                    let mut rebuilt = Packet::from_slice(&frame);
                    rebuilt.meta = pkt.meta.clone();
                    out.push(0, rebuilt);
                }
            }
        }
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(EtherEncap::new(
            self.src,
            self.dst,
            self.ethertype,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;
    use rb_packet::builder::PacketSpec;

    #[test]
    fn tee_duplicates_to_all_outputs() {
        let mut tee = Tee::new(3);
        let mut out = Output::new();
        tee.push(0, Packet::from_slice(&[7]), &mut out);
        let mut ports: Vec<usize> = out.drain().map(|(p, _)| p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![0, 1, 2]);
    }

    #[test]
    fn round_robin_cycles() {
        let mut sw = RoundRobinSwitch::new(3);
        let mut out = Output::new();
        for i in 0..6 {
            sw.push(0, Packet::from_slice(&[i]), &mut out);
        }
        // Per port, in arrival order: packet `i` went out port `i % 3`.
        let got: Vec<(usize, u8)> = out.drain().map(|(p, pkt)| (p, pkt.data()[0])).collect();
        assert_eq!(got, vec![(0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (2, 5)]);
    }

    #[test]
    fn hash_switch_keeps_flows_together() {
        let mut sw = HashSwitch::new(4);
        let a = PacketSpec::udp().src("1.1.1.1:5").unwrap().build();
        let b = PacketSpec::udp().src("2.2.2.2:9").unwrap().build();
        let mut out = Output::new();
        sw.push(0, a.clone(), &mut out);
        sw.push(0, b, &mut out);
        sw.push(0, a.clone(), &mut out);
        let of_a: Vec<usize> = out
            .drain()
            .filter(|(_, pkt)| pkt.data() == a.data())
            .map(|(p, _)| p)
            .collect();
        assert_eq!(of_a.len(), 2);
        assert_eq!(of_a[0], of_a[1], "same flow must hash to same port");
    }

    #[test]
    fn hash_switch_spreads_distinct_flows() {
        let mut sw = HashSwitch::new(8);
        let mut out = Output::new();
        for i in 0..64u16 {
            let pkt = PacketSpec::udp()
                .src(&format!("10.0.0.{}:{}", (i % 250) + 1, 1000 + i))
                .unwrap()
                .build();
            sw.push(0, pkt, &mut out);
        }
        let used: std::collections::HashSet<usize> = out.drain().map(|(p, _)| p).collect();
        assert!(used.len() >= 5, "64 flows should land on most of 8 queues");
    }

    #[test]
    fn paint_and_paint_switch() {
        let mut paint = Paint::new(2);
        let mut sw = PaintSwitch::new(4);
        let mut out = Output::new();
        paint.push(0, Packet::from_slice(&[0]), &mut out);
        let (_, pkt) = out.drain().next().unwrap();
        assert_eq!(pkt.meta.paint, 2);
        let mut out = Output::new();
        sw.push(0, pkt, &mut out);
        assert_eq!(out.drain().next().unwrap().0, 2);
    }

    #[test]
    fn paint_switch_clamps_overflow() {
        let mut sw = PaintSwitch::new(2);
        let mut pkt = Packet::from_slice(&[0]);
        pkt.meta.paint = 9;
        let mut out = Output::new();
        sw.push(0, pkt, &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
    }

    #[test]
    fn strip_then_encap_round_trips() {
        let original = PacketSpec::udp().frame_len(100).build();
        let mut strip = StripEther::new();
        let mut out = Output::new();
        strip.push(0, original.clone(), &mut out);
        let (_, bare) = out.drain().next().unwrap();
        assert_eq!(bare.len(), 100 - ETH_HLEN);

        let mut encap = EtherEncap::new(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv4);
        let mut out = Output::new();
        encap.push(0, bare, &mut out);
        let (_, framed) = out.drain().next().unwrap();
        assert_eq!(framed.len(), 100);
        assert_eq!(&framed.data()[ETH_HLEN..], &original.data()[ETH_HLEN..]);
        let eth = EthernetHeader::parse(framed.data()).unwrap();
        assert_eq!(eth.src, MacAddr([1; 6]));
    }

    #[test]
    fn strip_drops_runts() {
        let mut strip = StripEther::new();
        let mut out = Output::new();
        strip.push(0, Packet::from_slice(&[0u8; 5]), &mut out);
        assert!(out.is_empty());
    }
}
