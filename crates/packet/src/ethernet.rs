//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::{PacketError, Result};

/// Length in bytes of an Ethernet II header (no 802.1Q tag).
pub const HEADER_LEN: usize = 14;

/// Minimum Ethernet frame length (without the 4-byte FCS).
pub const MIN_FRAME_LEN: usize = 60;

/// Well-known EtherType values used by the RouteBricks dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// RouteBricks intra-cluster VLB tag (`0x88b5`, IEEE local experimental).
    VlbTag,
    /// Any other value.
    Other(u16),
}

impl EtherType {
    /// Returns the wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::VlbTag => 0x88b5,
            EtherType::Other(v) => v,
        }
    }

    /// Interprets a wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x88b5 => EtherType::VlbTag,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Parses the header at the start of `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when `frame` is shorter than
    /// [`HEADER_LEN`].
    pub fn parse(frame: &[u8]) -> Result<EthernetHeader> {
        if frame.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                available: frame.len(),
            });
        }
        Ok(EthernetHeader {
            dst: MacAddr::from_bytes(&frame[0..6])?,
            src: MacAddr::from_bytes(&frame[6..12])?,
            ethertype: EtherType::from_u16(u16::from_be_bytes([frame[12], frame[13]])),
        })
    }

    /// Writes the header into the first [`HEADER_LEN`] bytes of `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when `out` is too short.
    pub fn emit(&self, out: &mut [u8]) -> Result<()> {
        if out.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                available: out.len(),
            });
        }
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.as_u16().to_be_bytes());
        Ok(())
    }

    /// Returns the payload that follows the header in `frame`.
    pub fn payload(frame: &[u8]) -> Result<&[u8]> {
        if frame.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                available: frame.len(),
            });
        }
        Ok(&frame[HEADER_LEN..])
    }

    /// Overwrites only the destination MAC in `frame`, leaving the rest of
    /// the header untouched.
    ///
    /// This is the single-field rewrite RouteBricks intermediate nodes
    /// perform when relaying VLB traffic (§6.1).
    pub fn set_dst(frame: &mut [u8], dst: MacAddr) -> Result<()> {
        if frame.len() < 6 {
            return Err(PacketError::Truncated {
                needed: 6,
                available: frame.len(),
            });
        }
        frame[0..6].copy_from_slice(&dst.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr([0, 1, 2, 3, 4, 5]),
            src: MacAddr([6, 7, 8, 9, 10, 11]),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let hdr = sample_header();
        let mut frame = [0u8; HEADER_LEN];
        hdr.emit(&mut frame).unwrap();
        assert_eq!(EthernetHeader::parse(&frame).unwrap(), hdr);
    }

    #[test]
    fn parse_truncated_fails() {
        assert!(EthernetHeader::parse(&[0u8; 13]).is_err());
    }

    #[test]
    fn ethertype_round_trip() {
        for v in [0x0800u16, 0x0806, 0x88b5, 0x1234] {
            assert_eq!(EtherType::from_u16(v).as_u16(), v);
        }
    }

    #[test]
    fn payload_skips_header() {
        let mut frame = vec![0u8; HEADER_LEN];
        frame.extend_from_slice(b"data");
        assert_eq!(EthernetHeader::payload(&frame).unwrap(), b"data");
    }

    #[test]
    fn set_dst_rewrites_only_destination() {
        let hdr = sample_header();
        let mut frame = [0u8; HEADER_LEN];
        hdr.emit(&mut frame).unwrap();
        EthernetHeader::set_dst(&mut frame, MacAddr::BROADCAST).unwrap();
        let parsed = EthernetHeader::parse(&frame).unwrap();
        assert_eq!(parsed.dst, MacAddr::BROADCAST);
        assert_eq!(parsed.src, hdr.src);
        assert_eq!(parsed.ethertype, hdr.ethertype);
    }
}
