//! TCP header parsing and construction.
//!
//! The RouteBricks reordering evaluation (§6.2) replays TCP flows through
//! the cluster and counts out-of-order sequences per flow; this module
//! provides enough of TCP (ports, sequence numbers, flags) to generate and
//! check those flows. Full connection-state machinery is out of scope.

use crate::{PacketError, Result};

/// Minimum TCP header length in bytes (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: u8 = 0x01;
    /// SYN flag.
    pub const SYN: u8 = 0x02;
    /// RST flag.
    pub const RST: u8 = 0x04;
    /// PSH flag.
    pub const PSH: u8 = 0x08;
    /// ACK flag.
    pub const ACK: u8 = 0x10;

    /// Returns `true` when `bit` is set.
    pub fn has(self, bit: u8) -> bool {
        self.0 & bit != 0
    }
}

/// A parsed TCP header (options preserved as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as stored.
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Raw option bytes.
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// Creates a data-segment header with defaults (ACK set, 64 KiB window).
    pub fn new(src_port: u16, dst_port: u16, seq: u32) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags(TcpFlags::ACK),
            window: 0xffff,
            checksum: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Returns the header length in bytes including options.
    pub fn header_len(&self) -> usize {
        MIN_HEADER_LEN + self.options.len()
    }

    /// Parses the header at the start of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] or [`PacketError::BadField`] for
    /// short buffers or an impossible data-offset field.
    pub fn parse(data: &[u8]) -> Result<TcpHeader> {
        if data.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if !(MIN_HEADER_LEN..=60).contains(&data_off) {
            return Err(PacketError::BadField("TCP data offset"));
        }
        if data.len() < data_off {
            return Err(PacketError::Truncated {
                needed: data_off,
                available: data.len(),
            });
        }
        Ok(TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            checksum: u16::from_be_bytes([data[16], data[17]]),
            urgent: u16::from_be_bytes([data[18], data[19]]),
            options: data[MIN_HEADER_LEN..data_off].to_vec(),
        })
    }

    /// Writes the header into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when `out` is too short, and
    /// [`PacketError::BadField`] when the options are longer than the
    /// 4-bit data offset can say (40 bytes).
    pub fn emit(&self, out: &mut [u8]) -> Result<()> {
        let len = self.header_len();
        let words = u8::try_from(len / 4)
            .ok()
            .filter(|&words| words <= 15)
            .ok_or(PacketError::BadField("TCP options length"))?;
        if out.len() < len {
            return Err(PacketError::Truncated {
                needed: len,
                available: out.len(),
            });
        }
        debug_assert!(len.is_multiple_of(4), "options must pad to 32 bits");
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = words << 4;
        out[13] = self.flags.0;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        out[18..20].copy_from_slice(&self.urgent.to_be_bytes());
        out[MIN_HEADER_LEN..len].copy_from_slice(&self.options);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let mut hdr = TcpHeader::new(80, 50000, 0xdeadbeef);
        hdr.ack = 42;
        hdr.flags = TcpFlags(TcpFlags::SYN | TcpFlags::ACK);
        let mut buf = vec![0u8; hdr.header_len()];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(TcpHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn options_round_trip() {
        let mut hdr = TcpHeader::new(1, 2, 3);
        hdr.options = vec![2, 4, 5, 0xb4]; // MSS option.
        let mut buf = vec![0u8; hdr.header_len()];
        hdr.emit(&mut buf).unwrap();
        let parsed = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.options, hdr.options);
    }

    #[test]
    fn flags_predicates() {
        let f = TcpFlags(TcpFlags::SYN | TcpFlags::ACK);
        assert!(f.has(TcpFlags::SYN));
        assert!(f.has(TcpFlags::ACK));
        assert!(!f.has(TcpFlags::FIN));
    }

    #[test]
    fn parse_rejects_bad_offset() {
        let mut buf = vec![0u8; MIN_HEADER_LEN];
        TcpHeader::new(1, 2, 3).emit(&mut buf).unwrap();
        buf[12] = 0x40; // Offset 4 words = 16 bytes < minimum.
        assert!(TcpHeader::parse(&buf).is_err());
    }

    #[test]
    fn parse_truncated_fails() {
        assert!(TcpHeader::parse(&[0u8; 19]).is_err());
    }

    #[test]
    fn options_hold_at_the_4_bit_data_offset() {
        for (len, fits) in [(36, true), (40, true), (44, false)] {
            let mut hdr = TcpHeader::new(1, 2, 3);
            hdr.options = vec![0x01; len]; // NOP options.
            let mut buf = vec![0u8; hdr.header_len()];
            if fits {
                hdr.emit(&mut buf).unwrap();
                assert_eq!(TcpHeader::parse(&buf).unwrap(), hdr, "{len} option bytes");
            } else {
                let refused = hdr.emit(&mut buf);
                assert_eq!(refused, Err(PacketError::BadField("TCP options length")));
            }
        }
    }
}
