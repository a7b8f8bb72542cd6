//! ICMP error generation: what a production router does with the
//! packets `DecIPTTL` expires.

use crate::element::{Element, Output, PacketBatch, Ports};
use rb_packet::ethernet::{EtherType, EthernetHeader, HEADER_LEN as ETH_HLEN};
use rb_packet::icmp::time_exceeded;
use rb_packet::{MacAddr, Packet};
use rb_telemetry::{DropCause, Ledger};
use std::net::Ipv4Addr;

/// Turns expired IPv4-in-Ethernet frames into ICMP time-exceeded
/// replies addressed back to the original sender.
///
/// Output 0 carries the replies (framed with swapped MACs, ready for the
/// reverse path); input frames that cannot yield a reply (malformed, or
/// themselves ICMP errors) are dropped and counted.
pub struct IcmpTtlExpired {
    router_addr: Ipv4Addr,
    replied: u64,
    suppressed: u64,
}

impl IcmpTtlExpired {
    /// Creates the responder; `router_addr` becomes the reply source.
    pub fn new(router_addr: Ipv4Addr) -> IcmpTtlExpired {
        IcmpTtlExpired {
            router_addr,
            replied: 0,
            suppressed: 0,
        }
    }

    /// `(replies sent, errors suppressed)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.replied, self.suppressed)
    }
}

impl Element for IcmpTtlExpired {
    fn class_name(&self) -> &'static str {
        "IcmpTtlExpired"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 1)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.drain() {
            let Ok(eth) = EthernetHeader::parse(pkt.data()) else {
                self.suppressed += 1;
                continue;
            };
            let Some(reply_datagram) = time_exceeded(&pkt.data()[ETH_HLEN..], self.router_addr)
            else {
                self.suppressed += 1;
                continue;
            };
            let mut frame = vec![0u8; ETH_HLEN + reply_datagram.len()];
            EthernetHeader {
                // Back the way it came: swap MAC addresses.
                dst: eth.src,
                src: eth.dst,
                ethertype: EtherType::Ipv4,
            }
            .emit(&mut frame)
            .expect("frame sized for header");
            frame[ETH_HLEN..].copy_from_slice(&reply_datagram);
            let mut reply = Packet::from_slice(&frame);
            reply.meta = pkt.meta.clone();
            self.replied += 1;
            out.push(0, reply);
        }
    }

    fn ledger(&self) -> Option<Ledger> {
        // Every arriving frame is consumed; each reply is a fresh packet
        // the responder sources back into the graph.
        let mut led = Ledger {
            sourced: self.replied,
            ..Ledger::default()
        };
        led.add(DropCause::Consumed, self.replied + self.suppressed);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(IcmpTtlExpired::new(self.router_addr)))
    }
}

/// A placeholder for tests that need a known router MAC.
pub const ROUTER_MAC: MacAddr = MacAddr([0x02, 0x52, 0x42, 0xff, 0xff, 0x01]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;
    use rb_packet::builder::PacketSpec;
    use rb_packet::icmp::{IcmpMessage, IcmpType};
    use rb_packet::Ipv4Header;

    #[test]
    fn expired_packet_yields_time_exceeded_to_sender() {
        let mut responder = IcmpTtlExpired::new(Ipv4Addr::new(192, 0, 2, 254));
        let original = PacketSpec::udp()
            .src("10.9.9.9:1234")
            .unwrap()
            .ttl(1)
            .build();
        let orig_eth = EthernetHeader::parse(original.data()).unwrap();
        let mut out = Output::new();
        responder.push(0, original, &mut out);
        let (port, reply) = out.drain().next().unwrap();
        assert_eq!(port, 0);
        let eth = EthernetHeader::parse(reply.data()).unwrap();
        assert_eq!(eth.dst, orig_eth.src, "reply goes back the way it came");
        let ip = Ipv4Header::parse(&reply.data()[14..]).unwrap();
        assert_eq!(ip.dst, Ipv4Addr::new(10, 9, 9, 9));
        let msg = IcmpMessage::parse(&reply.data()[34..]).unwrap();
        assert_eq!(msg.icmp_type, IcmpType::TimeExceeded);
        assert_eq!(responder.counts(), (1, 0));
    }

    #[test]
    fn malformed_frames_are_suppressed() {
        let mut responder = IcmpTtlExpired::new(Ipv4Addr::new(1, 1, 1, 1));
        let mut out = Output::new();
        responder.push(0, Packet::from_slice(&[0u8; 10]), &mut out);
        assert!(out.is_empty());
        assert_eq!(responder.counts(), (0, 1));
    }
}
