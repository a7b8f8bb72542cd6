//! Internet checksums (RFC 1071) and incremental updates (RFC 1624).
//!
//! The RouteBricks IP-routing application recomputes the IPv4 header
//! checksum after decrementing the TTL on every packet; doing this
//! incrementally (RFC 1624 equation 3) instead of from scratch saves a full
//! header scan per packet, which matters at the paper's 18.96 Mpps rates.

use crate::{PacketError, Result};

/// Computes the ones-complement Internet checksum of `data`.
///
/// Returns the checksum in host byte order, ready to be stored with
/// `to_be_bytes`. A trailing odd byte is padded with zero per RFC 1071.
///
/// # Examples
///
/// ```
/// // RFC 1071 worked example.
/// let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(rb_packet::checksum::checksum(&data), !0xddf2);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0))
}

/// Accumulates the 16-bit ones-complement sum of `data` onto `acc`.
///
/// Useful for checksumming vectored data (e.g. a pseudo-header followed by
/// a payload): feed each region in turn, then [`fold`] and complement.
pub fn sum_words(data: &[u8], mut acc: u32) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Folds a 32-bit accumulator into a 16-bit ones-complement sum.
pub fn fold(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    u16::try_from(acc).expect("the loop leaves acc at most 0xffff")
}

/// Incrementally updates checksum `old_sum` after a 16-bit field changed
/// from `old` to `new` (RFC 1624, equation 3).
///
/// # Examples
///
/// ```
/// use rb_packet::checksum::{checksum, update16};
///
/// let mut data = [0x45u8, 0x00, 0x00, 0x54, 0xaa, 0xbb, 0x40, 0x00];
/// let before = checksum(&data);
/// let old = u16::from_be_bytes([data[4], data[5]]);
/// data[4] = 0x11;
/// data[5] = 0x22;
/// let after = update16(before, old, 0x1122);
/// assert_eq!(after, checksum(&data));
/// ```
pub fn update16(old_sum: u16, old: u16, new: u16) -> u16 {
    // HC' = ~(~HC + ~m + m') per RFC 1624 eqn. 3, computed in 32 bits.
    let acc = u32::from(!old_sum) + u32::from(!old) + u32::from(new);
    !fold(acc)
}

/// Computes the IPv4 pseudo-header sum used by TCP and UDP checksums.
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], proto: u8, l4_len: u16) -> u32 {
    let mut acc = 0u32;
    acc = sum_words(&src, acc);
    acc = sum_words(&dst, acc);
    acc += u32::from(proto);
    acc += u32::from(l4_len);
    acc
}

/// Computes a TCP/UDP checksum over `segment` with the IPv4 pseudo-header.
///
/// `segment` must contain the full layer-4 header and payload with the
/// checksum field zeroed (or the original value excluded by the caller).
///
/// # Errors
///
/// Returns [`PacketError::BadField`] when `segment` is longer than the
/// pseudo-header's 16-bit length field can say (65,535 bytes).
pub fn l4_checksum(src: [u8; 4], dst: [u8; 4], proto: u8, segment: &[u8]) -> Result<u16> {
    let len = u16::try_from(segment.len())
        .map_err(|_| PacketError::BadField("layer-4 segment length"))?;
    Ok(!fold(sum_words(
        segment,
        pseudo_header_sum(src, dst, proto, len),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_zeros_is_all_ones() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn checksum_detects_single_bit_flip() {
        let mut data = [0x12u8, 0x34, 0x56, 0x78];
        let before = checksum(&data);
        data[2] ^= 0x01;
        assert_ne!(before, checksum(&data));
    }

    #[test]
    fn checksum_verification_property() {
        // Storing the checksum in the packet makes the total sum fold to
        // 0xffff: this is how receivers verify.
        let mut data = vec![0xdeu8, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x00, 0x00];
        let ck = checksum(&data);
        data[6..8].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(fold(sum_words(&data, 0)), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn update16_matches_full_recompute() {
        let mut data = [0x45u8, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00, 0x40, 0x01];
        let before = checksum(&data);
        // Simulate a TTL decrement: byte 8 is TTL in a real IPv4 header.
        let old = u16::from_be_bytes([data[8], data[9]]);
        data[8] -= 1;
        let new = u16::from_be_bytes([data[8], data[9]]);
        assert_eq!(update16(before, old, new), checksum(&data));
    }

    #[test]
    fn update16_chain_of_edits() {
        let mut data = [0u8; 16];
        for (i, b) in (0u8..).zip(data.iter_mut()) {
            *b = i * 17;
        }
        let mut sum = checksum(&data);
        for word in 0..8 {
            let old = u16::from_be_bytes([data[2 * word], data[2 * word + 1]]);
            let new = old.wrapping_add(0x0101);
            data[2 * word..2 * word + 2].copy_from_slice(&new.to_be_bytes());
            sum = update16(sum, old, new);
        }
        assert_eq!(sum, checksum(&data));
    }

    #[test]
    fn l4_checksum_verifies_known_udp_datagram() {
        // Hand-built UDP datagram: src 10.0.0.1:1000 -> dst 10.0.0.2:2000,
        // payload "hi". Verify the stored-checksum-folds-to-ffff property.
        let src = [10, 0, 0, 1];
        let dst = [10, 0, 0, 2];
        let mut seg = vec![
            0x03, 0xe8, // src port 1000
            0x07, 0xd0, // dst port 2000
            0x00, 0x0a, // length 10
            0x00, 0x00, // checksum placeholder
            b'h', b'i',
        ];
        let ck = l4_checksum(src, dst, 17, &seg).unwrap();
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        let acc = pseudo_header_sum(src, dst, 17, u16::try_from(seg.len()).unwrap());
        assert_eq!(fold(sum_words(&seg, acc)), 0xffff);
    }

    #[test]
    fn l4_checksum_holds_at_the_pseudo_header_length() {
        let segment = vec![0x5a; 65_536];
        for len in [65_534, 65_535] {
            let sum = l4_checksum([10, 0, 0, 1], [10, 0, 0, 2], 17, &segment[..len]).unwrap();
            let acc = pseudo_header_sum(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                17,
                u16::try_from(len).unwrap(),
            );
            assert_eq!(sum, !fold(sum_words(&segment[..len], acc)));
        }
        assert_eq!(
            l4_checksum([10, 0, 0, 1], [10, 0, 0, 2], 17, &segment),
            Err(PacketError::BadField("layer-4 segment length"))
        );
    }
}
