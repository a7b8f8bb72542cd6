//! Toeplitz receive-side-scaling (RSS) hash.
//!
//! Multi-queue NICs use the Toeplitz hash over the flow tuple to choose
//! which receive queue a packet lands in. RouteBricks' "one core per queue"
//! rule (§4.2) relies on this hardware dispatch: every core owns one RX
//! queue per port, and RSS ensures each flow consistently lands on one
//! core. This module implements the hash exactly as specified by the
//! Microsoft RSS documentation so that queue assignment in the simulator
//! matches real 82598-class NICs.
//!
//! The hash is linear over GF(2): it XORs, for each set bit of the input,
//! the 32-bit window of the key starting at that bit position. So the
//! contribution of input byte `i` depends only on `i` and the byte's
//! value, and a hasher is 36 tables of 256 words (36 KiB, one per input
//! byte position): a hash is one lookup and one XOR per input byte — 12
//! for the IPv4 4-tuple — instead of 96 data-dependent branches. The NIC
//! does this in hardware at no CPU cost; the MT runtime's dispatcher does
//! it per packet, so it has to be cheap. The default key's tables are a
//! `static` built at compile time; [`ToeplitzHasher::with_key`] builds
//! its own.

use crate::flow::FiveTuple;

/// The de-facto standard 40-byte RSS secret key (Microsoft's example key,
/// shipped as the default by most NIC drivers).
pub const DEFAULT_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Longest RSS input: IPv6 addresses plus ports.
const MAX_INPUT: usize = 36;

/// `tables[i][v]` is what input byte `i` with value `v` contributes to
/// the hash.
type Tables = [[u32; 256]; MAX_INPUT];

/// Builds a key's tables. Entry `v` of a table is the XOR of the key
/// windows at the set bits of `v`, so it is the entry of `v` without its
/// lowest set bit, XOR that bit's window.
const fn build_tables(key: &[u8; 40]) -> Tables {
    let mut t = [[0u32; 256]; MAX_INPUT];
    let mut i = 0;
    while i < MAX_INPUT {
        // Key bits [8i, 8i + 40): the eight windows of this byte position.
        let span = u64::from_be_bytes([
            0,
            0,
            0,
            key[i],
            key[i + 1],
            key[i + 2],
            key[i + 3],
            key[i + 4],
        ]);
        let mut v: usize = 1;
        while v < 256 {
            // Bit `b` of the input byte, counted from the most
            // significant, selects the window starting `b` bits in.
            let b = 7 - v.trailing_zeros();
            // The window's low 32 bits, kept on purpose.
            t[i][v] = t[i][v & (v - 1)] ^ ((span >> (8 - b)) & 0xffff_ffff) as u32;
            v += 1;
        }
        i += 1;
    }
    t
}

/// The tables of [`DEFAULT_RSS_KEY`].
static DEFAULT_TABLES: Tables = build_tables(&DEFAULT_RSS_KEY);

/// A Toeplitz hasher parameterised by a 40-byte secret key; the default
/// one hashes with [`DEFAULT_RSS_KEY`] and is free to construct.
#[derive(Clone, Default)]
pub struct ToeplitzHasher {
    /// `None`: the default key, read from [`DEFAULT_TABLES`].
    custom: Option<Box<Tables>>,
}

impl core::fmt::Debug for ToeplitzHasher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ToeplitzHasher")
            .field("default_key", &self.custom.is_none())
            .finish()
    }
}

impl ToeplitzHasher {
    /// Creates a hasher with a custom key.
    pub fn with_key(key: [u8; 40]) -> ToeplitzHasher {
        ToeplitzHasher {
            custom: Some(Box::new(build_tables(&key))),
        }
    }

    /// Hashes an arbitrary byte string (at most 36 bytes, per the RSS spec).
    ///
    /// # Panics
    ///
    /// Panics if `input` exceeds 36 bytes; RSS inputs never do (IPv6 with
    /// ports is the 36-byte maximum) and a longer input indicates a
    /// programming error.
    #[inline]
    pub fn hash_bytes(&self, input: &[u8]) -> u32 {
        assert!(
            input.len() <= MAX_INPUT,
            "RSS input exceeds the 36-byte maximum"
        );
        let tables = self.custom.as_deref().unwrap_or(&DEFAULT_TABLES);
        tables
            .iter()
            .zip(input)
            .fold(0, |hash, (table, &byte)| hash ^ table[usize::from(byte)])
    }

    /// Hashes an IPv4 2-tuple (addresses only), host byte order inputs.
    pub fn hash_ipv4(&self, src_ip: u32, dst_ip: u32) -> u32 {
        let mut input = [0u8; 8];
        input[0..4].copy_from_slice(&src_ip.to_be_bytes());
        input[4..8].copy_from_slice(&dst_ip.to_be_bytes());
        self.hash_bytes(&input)
    }

    /// Hashes an IPv4 4-tuple (addresses + TCP/UDP ports).
    pub fn hash_ipv4_ports(&self, src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&src_ip.to_be_bytes());
        input[4..8].copy_from_slice(&dst_ip.to_be_bytes());
        input[8..10].copy_from_slice(&src_port.to_be_bytes());
        input[10..12].copy_from_slice(&dst_port.to_be_bytes());
        self.hash_bytes(&input)
    }

    /// Hashes a [`FiveTuple`] the way an RSS-enabled NIC would: with ports
    /// for TCP/UDP, addresses only otherwise.
    pub fn hash_flow(&self, flow: &FiveTuple) -> u32 {
        match flow.proto {
            6 | 17 => self.hash_ipv4_ports(flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port),
            _ => self.hash_ipv4(flow.src_ip, flow.dst_ip),
        }
    }

    /// Maps a flow to one of `n_queues` receive queues using the low bits
    /// of the hash, as the 82598 indirection table does by default.
    pub fn queue_for(&self, flow: &FiveTuple, n_queues: usize) -> usize {
        assert!(n_queues > 0, "queue count must be positive");
        (self.hash_flow(flow) as usize) % n_queues
    }
}

/// The bit-serial hash of the Microsoft RSS specification (what
/// [`ToeplitzHasher::hash_bytes`] was before the table form), kept as the
/// reference the equivalence proptest holds the tables to.
#[cfg(test)]
fn reference_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    let mut result = 0u32;
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    for (i, &byte) in input.iter().enumerate() {
        let mut next = key[i + 4];
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                result ^= window;
            }
            window = (window << 1) | u32::from(next >> 7);
            next <<= 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tables agree with the bit-serial hash for every key, at
        /// every input length the spec allows.
        #[test]
        fn table_form_matches_the_bit_serial_form(
            key in proptest::collection::vec(any::<u8>(), 40..41),
            input in proptest::collection::vec(any::<u8>(), MAX_INPUT..MAX_INPUT + 1),
        ) {
            let key: [u8; 40] = key.try_into().unwrap();
            let custom = ToeplitzHasher::with_key(key);
            let default = ToeplitzHasher::default();
            for len in 0..=MAX_INPUT {
                let input = &input[..len];
                prop_assert_eq!(custom.hash_bytes(input), reference_hash(&key, input));
                prop_assert_eq!(
                    default.hash_bytes(input),
                    reference_hash(&DEFAULT_RSS_KEY, input)
                );
            }
        }
    }

    /// A custom key must hash through its own tables, not the default
    /// key's `static`.
    #[test]
    fn custom_key_does_not_read_the_default_tables() {
        let mut key = DEFAULT_RSS_KEY;
        key[0] ^= 0x80; // Flips the top bit of the first window.
        let custom = ToeplitzHasher::with_key(key);
        let default = ToeplitzHasher::default();
        let input = [0x80u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(custom.hash_bytes(&input), reference_hash(&key, &input));
        assert_eq!(
            custom.hash_bytes(&input) ^ default.hash_bytes(&input),
            0x8000_0000
        );
        // The default key passed explicitly builds the same tables.
        let explicit = ToeplitzHasher::with_key(DEFAULT_RSS_KEY);
        assert_eq!(explicit.custom.as_deref(), Some(&DEFAULT_TABLES));
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    /// The official verification vectors from the Microsoft RSS spec
    /// (IPv4 with TCP ports, and IPv4 address-only).
    #[test]
    fn microsoft_rss_test_vectors() {
        let h = ToeplitzHasher::default();
        let cases: [(u32, u16, u32, u16, u32, u32); 5] = [
            // (src ip, src port, dst ip, dst port, hash w/ ports, hash ip-only)
            (
                ip(66, 9, 149, 187),
                2794,
                ip(161, 142, 100, 80),
                1766,
                0x51cc_c178,
                0x323e_8fc2,
            ),
            (
                ip(199, 92, 111, 2),
                14230,
                ip(65, 69, 140, 83),
                4739,
                0xc626_b0ea,
                0xd718_262a,
            ),
            (
                ip(24, 19, 198, 95),
                12898,
                ip(12, 22, 207, 184),
                38024,
                0x5c2b_394a,
                0xd2d0_a5de,
            ),
            (
                ip(38, 27, 205, 30),
                48228,
                ip(209, 142, 163, 6),
                2217,
                0xafc7_327f,
                0x8298_9176,
            ),
            (
                ip(153, 39, 163, 191),
                44251,
                ip(202, 188, 127, 2),
                1303,
                0x10e8_28a2,
                0x5d18_09c5,
            ),
        ];
        for (src, sp, dst, dp, with_ports, ip_only) in cases {
            assert_eq!(h.hash_ipv4_ports(src, dst, sp, dp), with_ports);
            assert_eq!(h.hash_ipv4(src, dst), ip_only);
        }
    }

    #[test]
    fn hash_flow_uses_ports_only_for_tcp_udp() {
        let h = ToeplitzHasher::default();
        let mut flow = FiveTuple {
            src_ip: ip(66, 9, 149, 187),
            dst_ip: ip(161, 142, 100, 80),
            src_port: 2794,
            dst_port: 1766,
            proto: 6,
        };
        assert_eq!(h.hash_flow(&flow), 0x51cc_c178);
        flow.proto = 50; // ESP: ports ignored.
        assert_eq!(h.hash_flow(&flow), 0x323e_8fc2);
    }

    #[test]
    fn queue_assignment_is_stable_and_in_range() {
        let h = ToeplitzHasher::default();
        let flow = FiveTuple {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: 17,
        };
        let q = h.queue_for(&flow, 8);
        assert!(q < 8);
        assert_eq!(q, h.queue_for(&flow, 8));
    }

    #[test]
    fn zero_input_hashes_to_zero() {
        let h = ToeplitzHasher::default();
        assert_eq!(h.hash_bytes(&[0u8; 12]), 0);
    }

    #[test]
    #[should_panic(expected = "36-byte maximum")]
    fn oversized_input_panics() {
        ToeplitzHasher::default().hash_bytes(&[0u8; 37]);
    }
}
