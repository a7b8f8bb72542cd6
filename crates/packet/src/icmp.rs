//! ICMP (RFC 792): the control messages a real IP router must emit.
//!
//! The paper's IP-routing application decrements TTLs; when one expires,
//! a production router sends an ICMP *time exceeded* back to the source
//! (this is what makes `traceroute` work). [`time_exceeded`] builds that
//! message exactly as RFC 792 prescribes: type 11, code 0, followed by
//! the original IP header plus the first 8 payload bytes.

use crate::checksum::checksum;
use crate::ipv4::{IpProto, Ipv4Header, MIN_HEADER_LEN as IP_HLEN};
use crate::{PacketError, Result};
use std::net::Ipv4Addr;

/// ICMP header length (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

/// ICMP message types used here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11).
    TimeExceeded,
    /// Destination unreachable (3).
    DestUnreachable,
    /// Other type value.
    Other(u8),
}

impl IcmpType {
    /// Wire value.
    pub fn as_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
            IcmpType::DestUnreachable => 3,
            IcmpType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u8(v: u8) -> IcmpType {
        match v {
            0 => IcmpType::EchoReply,
            8 => IcmpType::EchoRequest,
            11 => IcmpType::TimeExceeded,
            3 => IcmpType::DestUnreachable,
            other => IcmpType::Other(other),
        }
    }
}

/// A parsed ICMP message (header plus body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Message type.
    pub icmp_type: IcmpType,
    /// Code within the type.
    pub code: u8,
    /// Rest-of-header field (identifier/sequence for echo, unused for
    /// time-exceeded).
    pub rest: u32,
    /// Message body (original datagram excerpt for error messages).
    pub body: Vec<u8>,
}

impl IcmpMessage {
    /// Parses an ICMP message, verifying its checksum.
    ///
    /// # Errors
    ///
    /// [`PacketError::Truncated`] or [`PacketError::BadChecksum`].
    pub fn parse(data: &[u8]) -> Result<IcmpMessage> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let stored = u16::from_be_bytes([data[2], data[3]]);
        let mut zeroed = data.to_vec();
        zeroed[2] = 0;
        zeroed[3] = 0;
        let computed = checksum(&zeroed);
        if computed != stored {
            return Err(PacketError::BadChecksum { stored, computed });
        }
        Ok(IcmpMessage {
            icmp_type: IcmpType::from_u8(data[0]),
            code: data[1],
            rest: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            body: data[HEADER_LEN..].to_vec(),
        })
    }

    /// Serialises the message with a correct checksum.
    pub fn emit(&self) -> Vec<u8> {
        let mut out = vec![0u8; HEADER_LEN + self.body.len()];
        out[0] = self.icmp_type.as_u8();
        out[1] = self.code;
        out[4..8].copy_from_slice(&self.rest.to_be_bytes());
        out[HEADER_LEN..].copy_from_slice(&self.body);
        let ck = checksum(&out);
        out[2..4].copy_from_slice(&ck.to_be_bytes());
        out
    }
}

/// Builds the complete IPv4 datagram for an ICMP *time exceeded* (TTL
/// expired in transit) in response to `original` (a raw IPv4 datagram),
/// sourced from `router_addr`.
///
/// Returns `None` when the original is itself unparseable or an ICMP
/// error (RFC 1122 forbids errors about errors).
pub fn time_exceeded(original: &[u8], router_addr: Ipv4Addr) -> Option<Vec<u8>> {
    let orig_hdr = Ipv4Header::parse_unchecked(original).ok()?;
    if orig_hdr.proto == IpProto::Icmp {
        // Only suppress errors-about-errors; echo messages are fine, but
        // parsing the inner type costs more than the conservative skip.
        let icmp_type = original.get(orig_hdr.header_len()).copied()?;
        if !matches!(
            IcmpType::from_u8(icmp_type),
            IcmpType::EchoReply | IcmpType::EchoRequest
        ) {
            return None;
        }
    }
    // Quote the original IP header + first 8 payload bytes.
    let quote_len = (orig_hdr.header_len() + 8).min(original.len());
    let message = IcmpMessage {
        icmp_type: IcmpType::TimeExceeded,
        code: 0,
        rest: 0,
        body: original[..quote_len].to_vec(),
    }
    .emit();

    let mut datagram = vec![0u8; IP_HLEN + message.len()];
    Ipv4Header::new(router_addr, orig_hdr.src, IpProto::Icmp, message.len())
        .expect("a quote of at most 68 bytes fits any IPv4 packet")
        .emit(&mut datagram)
        .expect("buffer sized for header");
    datagram[IP_HLEN..].copy_from_slice(&message);
    Some(datagram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketSpec;

    fn original_datagram() -> Vec<u8> {
        let pkt = PacketSpec::udp()
            .src("10.1.1.1:5555")
            .unwrap()
            .dst("10.2.2.2:53")
            .unwrap()
            .frame_len(100)
            .build();
        pkt.data()[14..].to_vec()
    }

    #[test]
    fn message_emit_parse_round_trip() {
        let msg = IcmpMessage {
            icmp_type: IcmpType::EchoRequest,
            code: 0,
            rest: 0x0001_0002,
            body: b"ping payload".to_vec(),
        };
        let wire = msg.emit();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), msg);
    }

    #[test]
    fn corrupted_message_fails_checksum() {
        let mut wire = IcmpMessage {
            icmp_type: IcmpType::EchoReply,
            code: 0,
            rest: 0,
            body: vec![1, 2, 3],
        }
        .emit();
        wire[9] ^= 0xff;
        assert!(matches!(
            IcmpMessage::parse(&wire),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn time_exceeded_targets_original_source() {
        let original = original_datagram();
        let router = Ipv4Addr::new(192, 0, 2, 254);
        let reply = time_exceeded(&original, router).unwrap();
        let hdr = Ipv4Header::parse(&reply).unwrap();
        assert_eq!(hdr.src, router);
        assert_eq!(hdr.dst, Ipv4Addr::new(10, 1, 1, 1));
        assert_eq!(hdr.proto, IpProto::Icmp);
        let msg = IcmpMessage::parse(&reply[IP_HLEN..]).unwrap();
        assert_eq!(msg.icmp_type, IcmpType::TimeExceeded);
        assert_eq!(msg.code, 0);
        // Body quotes the original header + 8 bytes = 28 bytes.
        assert_eq!(msg.body.len(), 28);
        assert_eq!(&msg.body[..20], &original[..20]);
    }

    #[test]
    fn no_error_about_icmp_errors() {
        let original = original_datagram();
        let router = Ipv4Addr::new(192, 0, 2, 254);
        // First make the original an ICMP time-exceeded itself.
        let error = time_exceeded(&original, router).unwrap();
        assert!(time_exceeded(&error, router).is_none());
        // But an echo request still gets a reply.
        let mut echo = original.clone();
        echo[9] = 1; // Protocol = ICMP.
        let echo_msg = IcmpMessage {
            icmp_type: IcmpType::EchoRequest,
            code: 0,
            rest: 0,
            body: vec![],
        }
        .emit();
        let hlen = Ipv4Header::parse_unchecked(&echo).unwrap().header_len();
        echo.truncate(hlen);
        echo.extend_from_slice(&echo_msg);
        assert!(time_exceeded(&echo, router).is_some());
    }

    #[test]
    fn short_original_is_quoted_whole() {
        let mut original = original_datagram();
        original.truncate(22); // Header + 2 payload bytes only.
        let reply = time_exceeded(&original, Ipv4Addr::new(1, 1, 1, 1)).unwrap();
        let msg = IcmpMessage::parse(&reply[IP_HLEN..]).unwrap();
        assert_eq!(msg.body.len(), 22);
    }

    #[test]
    fn type_round_trip() {
        for v in [0u8, 3, 8, 11, 42] {
            assert_eq!(IcmpType::from_u8(v).as_u8(), v);
        }
    }
}
