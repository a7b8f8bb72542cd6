//! The two RouteBricks-specific elements (§6.1).
//!
//! "Beyond our 10G NIC driver, the RB4 implementation required us to
//! write only two new Click elements": one that encodes the packet's
//! cluster destination into its MAC address at the input node, and one
//! that switches packets at subsequent nodes *without a CPU ever
//! re-reading the IP header* — the receive queue (here: the MAC tag)
//! already identifies the output node.

use crate::element::{Element, Output, PacketBatch, Ports};
use rb_packet::ethernet::EthernetHeader;
use rb_packet::packet::VlbPhase;
use rb_packet::{MacAddr, Packet};

/// Input-node element: after route lookup, encodes the packet's cluster
/// destination (node, external port) into the destination MAC.
///
/// Expects `meta.output_port` to be set (by `LookupIPRoute`); maps the
/// router-level output port to a cluster node via the port→node table.
/// Output 0 carries tagged packets; packets without routing metadata go
/// to output 1.
pub struct VlbEncap {
    /// `node_of_port[p]` = cluster node hosting external port `p`.
    node_of_port: Vec<u16>,
    tagged: u64,
    untagged: u64,
}

impl VlbEncap {
    /// The most external ports a mapping may name: the cluster MAC
    /// carries the port in one byte.
    const MAX_PORTS: usize = 256;

    /// Creates the encapsulator with the port→node mapping.
    ///
    /// # Panics
    ///
    /// Panics on an empty mapping, or one of more than 256 ports.
    pub fn new(node_of_port: Vec<u16>) -> VlbEncap {
        assert!(!node_of_port.is_empty(), "need at least one port mapping");
        assert!(
            node_of_port.len() <= Self::MAX_PORTS,
            "at most {} ports, not {}",
            Self::MAX_PORTS,
            node_of_port.len()
        );
        VlbEncap {
            node_of_port,
            tagged: 0,
            untagged: 0,
        }
    }

    /// `(tagged, untagged)` counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.tagged, self.untagged)
    }
}

impl Element for VlbEncap {
    fn class_name(&self) -> &'static str {
        "VlbEncap"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, out: &mut Output) {
        let Some(port) = pkt.meta.output_port else {
            self.untagged += 1;
            out.push(1, pkt);
            return;
        };
        let Some(&node) = self.node_of_port.get(usize::from(port)) else {
            self.untagged += 1;
            out.push(1, pkt);
            return;
        };
        let port_byte = u8::try_from(port).expect("new() caps the mapping at 256 ports");
        let mac = MacAddr::for_cluster_node(node, port_byte);
        if EthernetHeader::set_dst(pkt.data_mut(), mac).is_err() {
            self.untagged += 1;
            out.push(1, pkt);
            return;
        }
        pkt.meta.output_node = Some(node);
        pkt.meta.vlb_phase = VlbPhase::ToOutput;
        self.tagged += 1;
        out.push(0, pkt);
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(VlbEncap::new(self.node_of_port.clone())))
    }
}

/// Relay/output-node element: dispatches packets to per-destination
/// outputs by the cluster MAC tag alone.
///
/// This is the header-untouched fast path: the element reads six bytes
/// of Ethernet destination and never parses IP. Output `n` corresponds
/// to cluster node `n`; non-cluster MACs go to the last output
/// (host/slow path).
pub struct VlbSwitch {
    nodes: usize,
    switched: u64,
    slow_path: u64,
}

impl VlbSwitch {
    /// Creates a switch with one output per cluster node plus a final
    /// slow-path output.
    ///
    /// # Panics
    ///
    /// Panics on a zero-node cluster.
    pub fn new(nodes: usize) -> VlbSwitch {
        assert!(nodes > 0, "cluster needs at least one node");
        VlbSwitch {
            nodes,
            switched: 0,
            slow_path: 0,
        }
    }

    /// `(switched, slow-path)` counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.switched, self.slow_path)
    }
}

impl Element for VlbSwitch {
    fn class_name(&self) -> &'static str {
        "VlbSwitch"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.nodes + 1)
    }

    fn push(&mut self, _port: usize, pkt: Packet, out: &mut Output) {
        // Only the first six bytes are examined — by construction.
        match MacAddr::from_bytes(pkt.data()).map(|m| m.cluster_node()) {
            Ok(Ok((node, _))) if usize::from(node) < self.nodes => {
                self.switched += 1;
                out.push(usize::from(node), pkt);
            }
            _ => {
                self.slow_path += 1;
                out.push(self.nodes, pkt);
            }
        }
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let nodes = self.nodes;
        let (mut switched, mut slow) = (0u64, 0u64);
        for pkt in pkts.drain() {
            match MacAddr::from_bytes(pkt.data()).map(|m| m.cluster_node()) {
                Ok(Ok((node, _))) if usize::from(node) < nodes => {
                    switched += 1;
                    out.push(usize::from(node), pkt);
                }
                _ => {
                    slow += 1;
                    out.push(nodes, pkt);
                }
            }
        }
        self.switched += switched;
        self.slow_path += slow;
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(VlbSwitch::new(self.nodes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_packet::builder::PacketSpec;

    #[test]
    fn encap_tags_by_output_port() {
        let mut encap = VlbEncap::new(vec![0, 0, 1, 1]); // 2 ports per node.
        let mut pkt = PacketSpec::udp().build();
        pkt.meta.output_port = Some(2);
        let mut out = Output::new();
        encap.push(0, pkt, &mut out);
        let (port, tagged) = out.drain().next().unwrap();
        assert_eq!(port, 0);
        let eth = EthernetHeader::parse(tagged.data()).unwrap();
        assert_eq!(eth.dst.cluster_node().unwrap(), (1, 2));
        assert_eq!(tagged.meta.output_node, Some(1));
        assert_eq!(tagged.meta.vlb_phase, VlbPhase::ToOutput);
    }

    #[test]
    fn a_256_port_map_tags_port_255_with_its_own_byte() {
        // One node per 64 ports; port 255 is the last the MAC byte holds.
        let map: Vec<u16> = (0..256u16).map(|p| p / 64).collect();
        let mut encap = VlbEncap::new(map);
        let mut pkt = PacketSpec::udp().build();
        pkt.meta.output_port = Some(255);
        let mut out = Output::new();
        encap.push(0, pkt, &mut out);
        let (port, tagged) = out.drain().next().unwrap();
        assert_eq!(port, 0);
        let eth = EthernetHeader::parse(tagged.data()).unwrap();
        assert_eq!(eth.dst.cluster_node().unwrap(), (3, 255));
        assert_eq!(tagged.meta.output_node, Some(3));
    }

    #[test]
    #[should_panic(expected = "at most 256 ports, not 257")]
    fn a_257_port_map_is_refused() {
        let _ = VlbEncap::new(vec![0; 257]);
    }

    #[test]
    fn unrouted_packets_take_error_output() {
        let mut encap = VlbEncap::new(vec![0]);
        let mut out = Output::new();
        encap.push(0, PacketSpec::udp().build(), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
        assert_eq!(encap.counts(), (0, 1));
    }

    #[test]
    fn out_of_range_port_takes_error_output() {
        let mut encap = VlbEncap::new(vec![0, 1]);
        let mut pkt = PacketSpec::udp().build();
        pkt.meta.output_port = Some(9);
        let mut out = Output::new();
        encap.push(0, pkt, &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
    }

    #[test]
    fn switch_dispatches_by_mac_without_ip() {
        let mut encap = VlbEncap::new(vec![0, 1, 2, 3]);
        let mut sw = VlbSwitch::new(4);
        for node in 0..4u16 {
            let mut pkt = PacketSpec::udp().build();
            pkt.meta.output_port = Some(node);
            let mut out = Output::new();
            encap.push(0, pkt, &mut out);
            let (_, mut tagged) = out.drain().next().unwrap();
            // Corrupt the entire IP header: the switch must not care.
            for b in &mut tagged.data_mut()[14..34] {
                *b = 0xff;
            }
            let mut out = Output::new();
            sw.push(0, tagged, &mut out);
            assert_eq!(out.drain().next().unwrap().0, usize::from(node));
        }
        assert_eq!(sw.counts(), (4, 0));
    }

    #[test]
    fn non_cluster_macs_take_slow_path() {
        let mut sw = VlbSwitch::new(4);
        let mut out = Output::new();
        sw.push(0, PacketSpec::udp().build(), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 4);
        assert_eq!(sw.counts(), (0, 1));
    }

    #[test]
    fn unknown_cluster_node_takes_slow_path() {
        let mut sw = VlbSwitch::new(2);
        let mut pkt = PacketSpec::udp().build();
        EthernetHeader::set_dst(pkt.data_mut(), MacAddr::for_cluster_node(7, 0)).unwrap();
        let mut out = Output::new();
        sw.push(0, pkt, &mut out);
        assert_eq!(out.drain().next().unwrap().0, 2);
    }
}
