//! UDP header parsing and construction.

use crate::checksum::l4_checksum;
use crate::{PacketError, Result};

/// UDP header length in bytes.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header plus payload in bytes.
    pub length: u16,
    /// Checksum (zero means "not computed" in IPv4).
    pub checksum: u16,
}

impl UdpHeader {
    /// Parses the header at the start of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when `data` is shorter than
    /// [`HEADER_LEN`] and [`PacketError::BadField`] when the length field is
    /// impossible.
    pub fn parse(data: &[u8]) -> Result<UdpHeader> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let length = u16::from_be_bytes([data[4], data[5]]);
        if usize::from(length) < HEADER_LEN {
            return Err(PacketError::BadField("UDP length"));
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            length,
            checksum: u16::from_be_bytes([data[6], data[7]]),
        })
    }

    /// Writes the header into `out` (checksum field written as stored).
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
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&self.length.to_be_bytes());
        out[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        Ok(())
    }

    /// Computes and stores the UDP checksum over `segment` (header +
    /// payload, in place) given the IPv4 pseudo-header addresses.
    ///
    /// Per RFC 768, a computed checksum of zero is transmitted as `0xffff`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when `segment` is shorter than a
    /// UDP header, and [`PacketError::BadField`] when it is longer than
    /// 65,535 bytes.
    pub fn fill_checksum(segment: &mut [u8], src: [u8; 4], dst: [u8; 4]) -> Result<()> {
        if segment.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                available: segment.len(),
            });
        }
        segment[6] = 0;
        segment[7] = 0;
        let mut ck = l4_checksum(src, dst, 17, segment)?;
        if ck == 0 {
            ck = 0xffff;
        }
        segment[6..8].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let hdr = UdpHeader {
            src_port: 53,
            dst_port: 33000,
            length: 26,
            checksum: 0xabcd,
        };
        let mut buf = [0u8; HEADER_LEN];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(UdpHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn parse_rejects_bad_length() {
        let buf = [0u8, 1, 0, 2, 0, 4, 0, 0]; // length 4 < 8
        assert!(UdpHeader::parse(&buf).is_err());
    }

    #[test]
    fn fill_checksum_then_verify() {
        let src = [1, 2, 3, 4];
        let dst = [5, 6, 7, 8];
        let mut seg = vec![0u8; HEADER_LEN];
        UdpHeader {
            src_port: 9,
            dst_port: 10,
            length: 12,
            checksum: 0,
        }
        .emit(&mut seg)
        .unwrap();
        seg.extend_from_slice(b"test");
        UdpHeader::fill_checksum(&mut seg, src, dst).unwrap();
        // Recomputing over the segment with stored checksum zeroed must
        // reproduce the stored value.
        let stored = u16::from_be_bytes([seg[6], seg[7]]);
        seg[6] = 0;
        seg[7] = 0;
        assert_eq!(l4_checksum(src, dst, 17, &seg), Ok(stored));
    }

    #[test]
    fn truncated_parse_fails() {
        assert!(UdpHeader::parse(&[0u8; 7]).is_err());
    }
}
