//! IPv4 header parsing, construction and fast-path mutation.
//!
//! The IP-routing application in the paper performs, per packet: header
//! validation (version, length, checksum), TTL decrement with incremental
//! checksum update, and a longest-prefix-match lookup on the destination.
//! [`Ipv4Header`] supports both a parsed-struct view (control path) and
//! in-place field accessors (fast path).

use crate::checksum::{checksum, fold, sum_words, update16};
use crate::{PacketError, Result};
use std::net::Ipv4Addr;

/// Minimum IPv4 header length in bytes (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// Most payload bytes an IPv4 packet with a minimal header carries: its
/// total length is 16 bits.
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize - MIN_HEADER_LEN;

/// Most option bytes a header carries: its length is 4 bits of 32-bit
/// words, 60 bytes.
pub const MAX_OPTIONS_LEN: usize = 60 - MIN_HEADER_LEN;

/// IP protocol numbers the RouteBricks applications care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// IPsec ESP (50).
    Esp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// Returns the wire value.
    pub fn as_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Esp => 50,
            IpProto::Other(v) => v,
        }
    }

    /// Interprets a wire value.
    pub fn from_u8(v: u8) -> IpProto {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            50 => IpProto::Esp,
            other => IpProto::Other(other),
        }
    }
}

/// A parsed IPv4 header (options preserved as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Total datagram length (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits) and fragment offset (13 bits), as one field.
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw option bytes (empty for the common 20-byte header).
    pub options: Vec<u8>,
}

impl Ipv4Header {
    /// Creates a minimal header with sensible defaults (TTL 64, no options).
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BadField`] when the packet would be longer
    /// than the 16-bit total length can say: `payload_len` above
    /// [`MAX_PAYLOAD_LEN`].
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        payload_len: usize,
    ) -> Result<Ipv4Header> {
        let total_len = MIN_HEADER_LEN
            .checked_add(payload_len)
            .and_then(|len| u16::try_from(len).ok())
            .ok_or(PacketError::BadField("IPv4 total length"))?;
        Ok(Ipv4Header {
            dscp_ecn: 0,
            total_len,
            ident: 0,
            flags_frag: 0x4000, // Don't-fragment, offset 0.
            ttl: 64,
            proto,
            src,
            dst,
            options: Vec::new(),
        })
    }

    /// Returns the header length in bytes including options.
    pub fn header_len(&self) -> usize {
        MIN_HEADER_LEN + self.options.len()
    }

    /// Parses the header at the start of `data`, verifying the checksum.
    ///
    /// # Errors
    ///
    /// * [`PacketError::Truncated`] — `data` shorter than the header.
    /// * [`PacketError::BadField`] — wrong version or bad IHL.
    /// * [`PacketError::BadChecksum`] — header checksum mismatch.
    pub fn parse(data: &[u8]) -> Result<Ipv4Header> {
        let hdr = Self::parse_unchecked(data)?;
        let ihl = hdr.header_len();
        // The sum with the checksum field skipped is the sum with it zeroed.
        let computed = !fold(sum_words(&data[12..ihl], sum_words(&data[..10], 0)));
        let stored = u16::from_be_bytes([data[10], data[11]]);
        if computed != stored {
            return Err(PacketError::BadChecksum { stored, computed });
        }
        Ok(hdr)
    }

    /// Parses the header without verifying the checksum.
    ///
    /// # Errors
    ///
    /// See [`Ipv4Header::parse`], minus the checksum error.
    pub fn parse_unchecked(data: &[u8]) -> Result<Ipv4Header> {
        if data.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(PacketError::BadField("IPv4 version"));
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if !(MIN_HEADER_LEN..=60).contains(&ihl) {
            return Err(PacketError::BadField("IPv4 IHL"));
        }
        if data.len() < ihl {
            return Err(PacketError::Truncated {
                needed: ihl,
                available: data.len(),
            });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        if usize::from(total_len) < ihl {
            return Err(PacketError::BadField("IPv4 total length"));
        }
        Ok(Ipv4Header {
            dscp_ecn: data[1],
            total_len,
            ident: u16::from_be_bytes([data[4], data[5]]),
            flags_frag: u16::from_be_bytes([data[6], data[7]]),
            ttl: data[8],
            proto: IpProto::from_u8(data[9]),
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            options: data[MIN_HEADER_LEN..ihl].to_vec(),
        })
    }

    /// Writes the header (with a correct checksum) into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when `out` is shorter than
    /// [`Ipv4Header::header_len`], and [`PacketError::BadField`] when the
    /// options are longer than [`MAX_OPTIONS_LEN`].
    pub fn emit(&self, out: &mut [u8]) -> Result<()> {
        let ihl = self.header_len();
        let words = u8::try_from(ihl / 4)
            .ok()
            .filter(|&words| words <= 15)
            .ok_or(PacketError::BadField("IPv4 options length"))?;
        if out.len() < ihl {
            return Err(PacketError::Truncated {
                needed: ihl,
                available: out.len(),
            });
        }
        debug_assert!(ihl.is_multiple_of(4), "options must pad to 32 bits");
        out[0] = 0x40 | words;
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.ident.to_be_bytes());
        out[6..8].copy_from_slice(&self.flags_frag.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.proto.as_u8();
        out[10..12].copy_from_slice(&[0, 0]);
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        out[MIN_HEADER_LEN..ihl].copy_from_slice(&self.options);
        let ck = checksum(&out[..ihl]);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }
}

/// In-place accessors over a raw IPv4 header, for the forwarding fast path.
///
/// All methods index fixed offsets and assume the caller has already
/// validated the header once (e.g. via a `CheckIPHeader` element).
pub mod fast {
    use super::*;

    /// Reads the destination address without parsing the whole header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] if `data` is shorter than 20 bytes.
    #[inline]
    pub fn dst(data: &[u8]) -> Result<u32> {
        if data.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        Ok(u32::from_be_bytes([data[16], data[17], data[18], data[19]]))
    }

    /// Reads the TTL field.
    #[inline]
    pub fn ttl(data: &[u8]) -> Result<u8> {
        if data.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        Ok(data[8])
    }

    /// Decrements the TTL and incrementally patches the header checksum
    /// (RFC 1624), the per-packet mutation of the paper's IP-routing app.
    ///
    /// Returns the new TTL value.
    ///
    /// # Errors
    ///
    /// * [`PacketError::Truncated`] — header too short.
    /// * [`PacketError::BadField`] — TTL already zero (packet must be
    ///   dropped or an ICMP time-exceeded generated instead).
    #[inline]
    pub fn dec_ttl(data: &mut [u8]) -> Result<u8> {
        if data.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        if data[8] == 0 {
            return Err(PacketError::BadField("TTL expired"));
        }
        let old_word = u16::from_be_bytes([data[8], data[9]]);
        data[8] -= 1;
        let new_word = u16::from_be_bytes([data[8], data[9]]);
        let old_sum = u16::from_be_bytes([data[10], data[11]]);
        let new_sum = update16(old_sum, old_word, new_word);
        data[10..12].copy_from_slice(&new_sum.to_be_bytes());
        Ok(data[8])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(192, 168, 1, 1),
            Ipv4Addr::new(10, 2, 3, 4),
            IpProto::Udp,
            100,
        )
        .unwrap()
    }

    #[test]
    fn emit_parse_round_trip() {
        let hdr = sample();
        let mut buf = vec![0u8; hdr.header_len()];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(Ipv4Header::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn emit_produces_valid_checksum() {
        let hdr = sample();
        let mut buf = vec![0u8; 20];
        hdr.emit(&mut buf).unwrap();
        // A valid header checksums to zero when summed with the stored value.
        assert_eq!(checksum(&buf), 0);
    }

    #[test]
    fn parse_rejects_corrupted_checksum() {
        let hdr = sample();
        let mut buf = vec![0u8; 20];
        hdr.emit(&mut buf).unwrap();
        buf[15] ^= 0xff;
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn parse_rejects_wrong_version() {
        let mut buf = vec![0u8; 20];
        sample().emit(&mut buf).unwrap();
        buf[0] = 0x60 | (buf[0] & 0x0f);
        assert!(matches!(
            Ipv4Header::parse_unchecked(&buf),
            Err(PacketError::BadField("IPv4 version"))
        ));
    }

    #[test]
    fn parse_rejects_short_ihl() {
        let mut buf = vec![0u8; 20];
        sample().emit(&mut buf).unwrap();
        buf[0] = 0x44; // IHL = 4 words = 16 bytes < minimum.
        assert!(Ipv4Header::parse_unchecked(&buf).is_err());
    }

    #[test]
    fn options_round_trip() {
        let mut hdr = sample();
        hdr.options = vec![0x94, 0x04, 0x00, 0x00]; // Router-alert option.
        hdr.total_len += 4;
        let mut buf = vec![0u8; hdr.header_len()];
        hdr.emit(&mut buf).unwrap();
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.options, hdr.options);
        assert_eq!(parsed.header_len(), 24);
    }

    #[test]
    fn dec_ttl_keeps_checksum_valid() {
        let hdr = sample();
        let mut buf = vec![0u8; 20];
        hdr.emit(&mut buf).unwrap();
        for expected in (0..64u8).rev() {
            assert_eq!(fast::dec_ttl(&mut buf).unwrap(), expected);
            // Full parse re-verifies the incrementally updated checksum.
            let parsed = Ipv4Header::parse(&buf).unwrap();
            assert_eq!(parsed.ttl, expected);
        }
        assert!(fast::dec_ttl(&mut buf).is_err());
    }

    #[test]
    fn fast_dst_matches_parsed() {
        let hdr = sample();
        let mut buf = vec![0u8; 20];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(fast::dst(&buf).unwrap(), u32::from(hdr.dst));
    }

    #[test]
    fn proto_round_trip() {
        for v in [1u8, 6, 17, 50, 99] {
            assert_eq!(IpProto::from_u8(v).as_u8(), v);
        }
    }

    #[test]
    fn total_length_holds_at_its_16_bit_limit() {
        let header = |payload| {
            Ipv4Header::new(
                Ipv4Addr::LOCALHOST,
                Ipv4Addr::LOCALHOST,
                IpProto::Udp,
                payload,
            )
        };
        assert_eq!(header(MAX_PAYLOAD_LEN - 1).unwrap().total_len, u16::MAX - 1);
        assert_eq!(header(MAX_PAYLOAD_LEN).unwrap().total_len, u16::MAX);
        for past in [MAX_PAYLOAD_LEN + 1, usize::MAX] {
            assert_eq!(
                header(past),
                Err(PacketError::BadField("IPv4 total length"))
            );
        }
    }

    #[test]
    fn options_hold_at_the_4_bit_header_length() {
        for (len, fits) in [
            (MAX_OPTIONS_LEN - 4, true),
            (MAX_OPTIONS_LEN, true),
            (MAX_OPTIONS_LEN + 4, false),
        ] {
            let mut hdr = sample();
            hdr.options = vec![0x01; len]; // NOP options.
            let mut buf = vec![0u8; hdr.header_len()];
            if fits {
                hdr.emit(&mut buf).unwrap();
                assert_eq!(Ipv4Header::parse(&buf).unwrap(), hdr, "{len} option bytes");
            } else {
                let refused = hdr.emit(&mut buf);
                assert_eq!(refused, Err(PacketError::BadField("IPv4 options length")));
            }
        }
    }
}
