//! Convenience construction of well-formed test/workload packets.
//!
//! Workload generators need millions of syntactically valid Ethernet+IPv4
//! frames; [`PacketSpec`] builds them with correct lengths and checksums.

use crate::ethernet::{self, EtherType, EthernetHeader};
use crate::ipv4::{IpProto, Ipv4Header, MIN_HEADER_LEN as IP_HDR};
use crate::mac::MacAddr;
use crate::packet::Packet;
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;
use crate::{PacketError, Result};
use std::net::{Ipv4Addr, SocketAddrV4};

/// Transport selected for a generated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Udp,
    Tcp { seq: u32 },
}

/// A declarative spec for one synthetic packet.
///
/// # Examples
///
/// ```
/// use rb_packet::builder::PacketSpec;
///
/// let pkt = PacketSpec::tcp(42)
///     .src("192.168.0.1:4000").unwrap()
///     .dst("10.0.0.1:80").unwrap()
///     .frame_len(128)
///     .build();
/// assert_eq!(pkt.len(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct PacketSpec {
    src: SocketAddrV4,
    dst: SocketAddrV4,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    transport: Transport,
    frame_len: usize,
    ttl: u8,
    fill: u8,
}

impl PacketSpec {
    /// Starts a UDP packet spec with placeholder addresses.
    pub fn udp() -> PacketSpec {
        PacketSpec {
            src: SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 1000),
            dst: SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 2000),
            src_mac: MacAddr([0x02, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr([0x02, 0, 0, 0, 0, 2]),
            transport: Transport::Udp,
            frame_len: 64,
            ttl: 64,
            fill: 0,
        }
    }

    /// Starts a TCP packet spec with the given sequence number.
    pub fn tcp(seq: u32) -> PacketSpec {
        PacketSpec {
            transport: Transport::Tcp { seq },
            ..PacketSpec::udp()
        }
    }

    /// Sets the source socket address (parses `"a.b.c.d:port"`).
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BadField`] on malformed input.
    pub fn src(mut self, addr: &str) -> Result<PacketSpec> {
        self.src = addr
            .parse()
            .map_err(|_| PacketError::BadField("source socket address"))?;
        Ok(self)
    }

    /// Sets the destination socket address (parses `"a.b.c.d:port"`).
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BadField`] on malformed input.
    pub fn dst(mut self, addr: &str) -> Result<PacketSpec> {
        self.dst = addr
            .parse()
            .map_err(|_| PacketError::BadField("destination socket address"))?;
        Ok(self)
    }

    /// Sets source/destination socket addresses from parsed values.
    pub fn endpoints(mut self, src: SocketAddrV4, dst: SocketAddrV4) -> PacketSpec {
        self.src = src;
        self.dst = dst;
        self
    }

    /// Sets the total Ethernet frame length in bytes (clamped to the
    /// minimum that fits the headers).
    pub fn frame_len(mut self, len: usize) -> PacketSpec {
        self.frame_len = len;
        self
    }

    /// Sets the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> PacketSpec {
        self.ttl = ttl;
        self
    }

    /// Sets the payload fill byte (useful to make packets distinguishable).
    pub fn fill(mut self, byte: u8) -> PacketSpec {
        self.fill = byte;
        self
    }

    /// Returns the minimum frame length this spec requires.
    pub fn min_frame_len(&self) -> usize {
        let l4 = match self.transport {
            Transport::Udp => crate::udp::HEADER_LEN,
            Transport::Tcp { .. } => crate::tcp::MIN_HEADER_LEN,
        };
        ethernet::HEADER_LEN + IP_HDR + l4
    }

    /// Builds the packet: valid Ethernet + IPv4 + transport headers with
    /// correct length fields and checksums, payload filled with the fill
    /// byte. The frame is written once, directly into the packet buffer —
    /// no intermediate `Vec` and no second copy.
    pub fn build(&self) -> Packet {
        let frame_len = self.frame_len.max(self.min_frame_len());
        let mut buf = crate::buf::PacketBuf::zeroed(frame_len);
        self.fill_frame(buf.data_mut());
        Packet::new(buf)
    }

    /// Builds the packet straight into a slot from `pool`, or `None` when
    /// the pool is exhausted (recorded in the pool's stats). Frame bytes
    /// are written exactly once, into the slot itself; oversize frames
    /// fall back to heap storage.
    pub fn try_build_in(&self, pool: &crate::pool::PacketPool) -> Option<Packet> {
        let frame_len = self.frame_len.max(self.min_frame_len());
        let mut buf = crate::buf::PacketBuf::try_uninit_in(pool, frame_len)?;
        self.fill_frame(buf.data_mut());
        Some(Packet::new(buf))
    }

    /// Writes the spec's frame bytes into `frame`, which must already be
    /// `max(frame_len, min_frame_len)` long. Every byte of `frame` is
    /// overwritten (payload bytes get the fill byte), so recycled pool
    /// slots never leak a previous packet's contents.
    fn fill_frame(&self, frame: &mut [u8]) {
        let frame_len = frame.len();
        frame.fill(self.fill);

        EthernetHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
        }
        .emit(frame)
        .expect("frame sized to fit headers");

        let ip_payload_len = frame_len - ethernet::HEADER_LEN - IP_HDR;
        let proto = match self.transport {
            Transport::Udp => IpProto::Udp,
            Transport::Tcp { .. } => IpProto::Tcp,
        };
        let mut ip = Ipv4Header::new(*self.src.ip(), *self.dst.ip(), proto, ip_payload_len);
        ip.ttl = self.ttl;
        ip.emit(&mut frame[ethernet::HEADER_LEN..])
            .expect("frame sized to fit headers");

        let l4_start = ethernet::HEADER_LEN + IP_HDR;
        match self.transport {
            Transport::Udp => {
                UdpHeader {
                    src_port: self.src.port(),
                    dst_port: self.dst.port(),
                    length: (frame_len - l4_start) as u16,
                    checksum: 0,
                }
                .emit(&mut frame[l4_start..])
                .expect("frame sized to fit headers");
                UdpHeader::fill_checksum(
                    &mut frame[l4_start..],
                    self.src.ip().octets(),
                    self.dst.ip().octets(),
                )
                .expect("frame sized to fit headers");
            }
            Transport::Tcp { seq } => {
                let hdr = TcpHeader::new(self.src.port(), self.dst.port(), seq);
                hdr.emit(&mut frame[l4_start..])
                    .expect("frame sized to fit headers");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;

    #[test]
    fn udp_packet_parses_end_to_end() {
        let pkt = PacketSpec::udp()
            .src("1.2.3.4:9")
            .unwrap()
            .dst("4.3.2.1:10")
            .unwrap()
            .frame_len(200)
            .build();
        assert_eq!(pkt.len(), 200);
        let eth = EthernetHeader::parse(pkt.data()).unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        let ip = Ipv4Header::parse(&pkt.data()[14..]).unwrap();
        assert_eq!(ip.total_len as usize, 200 - 14);
        assert_eq!(ip.proto, IpProto::Udp);
        let udp = UdpHeader::parse(&pkt.data()[34..]).unwrap();
        assert_eq!(udp.length as usize, 200 - 34);
    }

    #[test]
    fn tcp_packet_carries_sequence_number() {
        let pkt = PacketSpec::tcp(777)
            .src("1.1.1.1:5000")
            .unwrap()
            .dst("2.2.2.2:80")
            .unwrap()
            .build();
        let tcp = TcpHeader::parse(&pkt.data()[34..]).unwrap();
        assert_eq!(tcp.seq, 777);
        let t = FiveTuple::of_ethernet_frame(pkt.data()).unwrap();
        assert_eq!(t.proto, 6);
    }

    #[test]
    fn frame_len_is_clamped_to_header_minimum() {
        let pkt = PacketSpec::tcp(0).frame_len(10).build();
        assert_eq!(pkt.len(), PacketSpec::tcp(0).min_frame_len());
    }

    #[test]
    fn bad_address_is_rejected() {
        assert!(PacketSpec::udp().src("not-an-address").is_err());
        assert!(PacketSpec::udp().dst("1.2.3.4").is_err());
    }

    #[test]
    fn pooled_build_is_byte_identical_to_heap_build() {
        let pool = crate::pool::PacketPool::new(4, 2048);
        let spec = PacketSpec::udp()
            .src("1.2.3.4:9")
            .unwrap()
            .dst("4.3.2.1:10")
            .unwrap()
            .frame_len(200)
            .fill(0x5a);
        let heap = spec.build();
        let pooled = spec.try_build_in(&pool).unwrap();
        assert!(pooled.is_pooled());
        assert_eq!(pooled.data(), heap.data());
        // Recycle the slot, dirty it with a different spec, then rebuild
        // the original: stale slot bytes must not leak into the frame.
        drop(pooled);
        let dirty = PacketSpec::udp()
            .frame_len(300)
            .fill(0xff)
            .try_build_in(&pool);
        drop(dirty);
        let rebuilt = spec.try_build_in(&pool).unwrap();
        assert_eq!(rebuilt.data(), heap.data());
    }

    #[test]
    fn ttl_is_honoured() {
        let pkt = PacketSpec::udp().ttl(3).build();
        let ip = Ipv4Header::parse(&pkt.data()[14..]).unwrap();
        assert_eq!(ip.ttl, 3);
    }
}
