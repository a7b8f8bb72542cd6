//! IP header validation and TTL handling.

use crate::element::{Element, Output, PacketBatch, Ports};
use rb_packet::ethernet::HEADER_LEN as ETH_HLEN;
use rb_packet::ipv4::{fast, Ipv4Header};

/// Validates the IPv4 header (version, IHL, length, checksum).
///
/// Output 0: valid packets; output 1: invalid packets (connect to
/// `Discard` or a logger). The header is expected at `offset` bytes into
/// the frame (14 for Ethernet).
pub struct CheckIPHeader {
    offset: usize,
    ok: u64,
    bad: u64,
}

impl CheckIPHeader {
    /// Creates a checker expecting the IP header at byte `offset`.
    pub fn new(offset: usize) -> CheckIPHeader {
        CheckIPHeader {
            offset,
            ok: 0,
            bad: 0,
        }
    }

    /// Creates a checker for IP-in-Ethernet frames.
    pub fn ethernet() -> CheckIPHeader {
        Self::new(ETH_HLEN)
    }

    /// (valid, invalid) counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.ok, self.bad)
    }
}

impl Element for CheckIPHeader {
    fn class_name(&self) -> &'static str {
        "CheckIPHeader"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let offset = self.offset;
        let (mut ok, mut bad) = (0u64, 0u64);
        for pkt in pkts.drain() {
            let valid = pkt.len() > offset && Ipv4Header::parse(&pkt.data()[offset..]).is_ok();
            if valid {
                ok += 1;
                out.push(0, pkt);
            } else {
                bad += 1;
                out.push(1, pkt);
            }
        }
        self.ok += ok;
        self.bad += bad;
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(CheckIPHeader::new(self.offset)))
    }
}

/// Decrements the IPv4 TTL with an incremental checksum update.
///
/// Output 0: live packets; output 1: expired packets (TTL was 0 or 1 —
/// a real router would emit ICMP time-exceeded; RouteBricks counts them).
pub struct DecIPTTL {
    offset: usize,
    expired: u64,
}

impl DecIPTTL {
    /// Creates a TTL decrementer for IP headers at byte `offset`.
    pub fn new(offset: usize) -> DecIPTTL {
        DecIPTTL { offset, expired: 0 }
    }

    /// Creates a decrementer for IP-in-Ethernet frames.
    pub fn ethernet() -> DecIPTTL {
        Self::new(ETH_HLEN)
    }

    /// Packets that expired so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

impl Element for DecIPTTL {
    fn class_name(&self) -> &'static str {
        "DecIPTTL"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let offset = self.offset;
        let mut expired = 0u64;
        for mut pkt in pkts.drain() {
            let live = pkt.len() > offset
                && matches!(fast::ttl(&pkt.data()[offset..]), Ok(ttl) if ttl > 1);
            if live {
                fast::dec_ttl(&mut pkt.data_mut()[offset..]).expect("checked length and TTL above");
                out.push(0, pkt);
            } else {
                expired += 1;
                out.push(1, pkt);
            }
        }
        self.expired += expired;
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(DecIPTTL::new(self.offset)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;
    use rb_packet::builder::PacketSpec;
    use rb_packet::Packet;

    #[test]
    fn valid_packet_passes_check() {
        let mut chk = CheckIPHeader::ethernet();
        let mut out = Output::new();
        chk.push(0, PacketSpec::udp().build(), &mut out);
        let (port, _) = out.drain().next().unwrap();
        assert_eq!(port, 0);
        assert_eq!(chk.counts(), (1, 0));
    }

    #[test]
    fn corrupted_checksum_goes_to_bad_port() {
        let mut chk = CheckIPHeader::ethernet();
        let mut pkt = PacketSpec::udp().build();
        pkt.data_mut()[ETH_HLEN + 8] ^= 0xff; // Mangle TTL without fixing checksum.
        let mut out = Output::new();
        chk.push(0, pkt, &mut out);
        let (port, _) = out.drain().next().unwrap();
        assert_eq!(port, 1);
        assert_eq!(chk.counts(), (0, 1));
    }

    #[test]
    fn runt_frame_is_bad() {
        let mut chk = CheckIPHeader::ethernet();
        let mut out = Output::new();
        chk.push(0, Packet::from_slice(&[0u8; 20]), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
    }

    #[test]
    fn ttl_decrements_and_checksum_stays_valid() {
        let mut dec = DecIPTTL::ethernet();
        let mut out = Output::new();
        dec.push(0, PacketSpec::udp().ttl(64).build(), &mut out);
        let (port, pkt) = out.drain().next().unwrap();
        assert_eq!(port, 0);
        let hdr = Ipv4Header::parse(&pkt.data()[ETH_HLEN..]).unwrap();
        assert_eq!(hdr.ttl, 63);
    }

    #[test]
    fn ttl_one_expires() {
        let mut dec = DecIPTTL::ethernet();
        let mut out = Output::new();
        dec.push(0, PacketSpec::udp().ttl(1).build(), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
        assert_eq!(dec.expired(), 1);
    }

    #[test]
    fn repeated_decrement_until_expiry() {
        let mut dec = DecIPTTL::ethernet();
        let mut pkt = PacketSpec::udp().ttl(3).build();
        for expected_port in [0usize, 0, 1] {
            let mut out = Output::new();
            dec.push(0, pkt, &mut out);
            let (port, p) = out.drain().next().unwrap();
            assert_eq!(port, expected_port);
            pkt = p;
        }
    }
}
