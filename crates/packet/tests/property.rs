//! Property-based tests for wire formats and buffer operations.

use proptest::prelude::*;
use rb_packet::buf::PacketBuf;
use rb_packet::checksum::{checksum, sum_words, update16};
use rb_packet::ethernet::{EtherType, EthernetHeader};
use rb_packet::flow::FiveTuple;
use rb_packet::ipv4::{IpProto, Ipv4Header};
use rb_packet::mac::MacAddr;
use rb_packet::rss::ToeplitzHasher;
use rb_packet::tcp::{TcpFlags, TcpHeader};
use rb_packet::udp::UdpHeader;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any IPv4 header we can emit parses back identically, and its
    /// emitted checksum verifies.
    #[test]
    fn ipv4_emit_parse_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in any::<u8>(),
        proto in any::<u8>(),
        dscp in any::<u8>(),
        ident in any::<u16>(),
        payload_len in 0usize..1400,
        n_option_words in 0usize..10,
    ) {
        let mut hdr = Ipv4Header::new(src.into(), dst.into(), IpProto::from_u8(proto), payload_len).unwrap();
        hdr.ttl = ttl;
        hdr.dscp_ecn = dscp;
        hdr.ident = ident;
        hdr.options = vec![0x01; n_option_words * 4]; // NOP options.
        hdr.total_len = (hdr.header_len() + payload_len) as u16;
        let mut buf = vec![0u8; hdr.header_len()];
        hdr.emit(&mut buf).unwrap();
        let parsed = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, hdr);
    }

    /// Single-bit corruption of an emitted IPv4 header is always caught
    /// by the checksum (any bit outside the checksum field itself).
    #[test]
    fn ipv4_checksum_catches_any_bit_flip(
        src in any::<u32>(),
        dst in any::<u32>(),
        bit in 0usize..(20 * 8),
    ) {
        let hdr = Ipv4Header::new(src.into(), dst.into(), IpProto::Udp, 64).unwrap();
        let mut buf = vec![0u8; 20];
        hdr.emit(&mut buf).unwrap();
        let byte = bit / 8;
        prop_assume!(!(10..12).contains(&byte)); // Not the checksum field.
        buf[byte] ^= 1 << (bit % 8);
        // Either the parse fails structurally or the checksum trips.
        prop_assert!(Ipv4Header::parse(&buf).is_err());
    }

    /// TCP and UDP headers round-trip.
    #[test]
    fn l4_headers_roundtrip(
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        window in any::<u16>(), flags in any::<u8>(),
        len in 8u16..2000,
    ) {
        let mut tcp = TcpHeader::new(sp, dp, seq);
        tcp.ack = ack;
        tcp.window = window;
        tcp.flags = TcpFlags(flags);
        let mut buf = vec![0u8; tcp.header_len()];
        tcp.emit(&mut buf).unwrap();
        prop_assert_eq!(TcpHeader::parse(&buf).unwrap(), tcp);

        let udp = UdpHeader { src_port: sp, dst_port: dp, length: len, checksum: 0 };
        let mut buf = [0u8; 8];
        udp.emit(&mut buf).unwrap();
        prop_assert_eq!(UdpHeader::parse(&buf).unwrap(), udp);
    }

    /// RFC 1624 incremental update equals full recomputation for any
    /// word change at any position.
    #[test]
    fn incremental_checksum_equals_full(
        mut data in prop::collection::vec(any::<u8>(), 2..256),
        word_idx in any::<prop::sample::Index>(),
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let idx = (word_idx.index(data.len() / 2)) * 2;
        let before = checksum(&data);
        let old = u16::from_be_bytes([data[idx], data[idx + 1]]);
        data[idx..idx + 2].copy_from_slice(&new_word.to_be_bytes());
        prop_assert_eq!(update16(before, old, new_word), checksum(&data));
    }

    /// The ones-complement sum is order-independent across splits.
    #[test]
    fn checksum_is_split_invariant(
        data in prop::collection::vec(any::<u8>(), 0..512),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut cut = cut.index(data.len() + 1);
        if cut % 2 == 1 {
            cut -= 1; // Word-aligned split.
        }
        let whole = sum_words(&data, 0);
        let split = sum_words(&data[cut..], sum_words(&data[..cut], 0));
        // Fold both before comparing (accumulators may differ in carries).
        prop_assert_eq!(
            rb_packet::checksum::fold(whole),
            rb_packet::checksum::fold(split)
        );
    }

    /// MAC addresses round-trip through their display form.
    #[test]
    fn mac_display_roundtrip(bytes in any::<[u8; 6]>()) {
        let mac = MacAddr(bytes);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        prop_assert_eq!(parsed, mac);
    }

    /// Ethernet headers round-trip for any addresses and ethertype.
    #[test]
    fn ethernet_roundtrip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), et in any::<u16>()) {
        let hdr = EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(et),
        };
        let mut buf = [0u8; 14];
        hdr.emit(&mut buf).unwrap();
        prop_assert_eq!(EthernetHeader::parse(&buf).unwrap(), hdr);
    }

    /// PacketBuf push/pull and put/trim are inverses and the live bytes
    /// always match a reference model.
    #[test]
    fn packetbuf_ops_match_reference(
        initial in prop::collection::vec(any::<u8>(), 0..64),
        ops in prop::collection::vec((0u8..4, 1usize..16), 0..24),
    ) {
        let mut buf = PacketBuf::with_room(&initial, 256, 256);
        let mut model = initial.clone();
        let mut counter = 0u8;
        for (op, n) in ops {
            match op {
                0 => {
                    if let Ok(space) = buf.push(n) {
                        for b in space.iter_mut() {
                            counter = counter.wrapping_add(1);
                            *b = counter;
                        }
                        let added: Vec<u8> = buf.data()[..n].to_vec();
                        model.splice(0..0, added);
                    }
                }
                1 => {
                    if buf.pull(n).is_ok() {
                        model.drain(..n);
                    }
                }
                2 => {
                    if let Ok(space) = buf.put(n) {
                        for b in space.iter_mut() {
                            counter = counter.wrapping_add(1);
                            *b = counter;
                        }
                        let start = buf.len() - n;
                        let added: Vec<u8> = buf.data()[start..].to_vec();
                        model.extend(added);
                    }
                }
                _ => {
                    if buf.trim(n).is_ok() {
                        model.truncate(model.len() - n);
                    }
                }
            }
            prop_assert_eq!(buf.data(), &model[..]);
        }
    }

    /// Toeplitz hashing is symmetric under the "source/destination swap
    /// with key symmetry" property? No — but it IS deterministic and
    /// queue assignment is stable and in range for any tuple.
    #[test]
    fn rss_queue_assignment_stable(
        src_ip in any::<u32>(), dst_ip in any::<u32>(),
        sp in any::<u16>(), dp in any::<u16>(), proto in any::<u8>(),
        queues in 1usize..64,
    ) {
        let flow = FiveTuple { src_ip, dst_ip, src_port: sp, dst_port: dp, proto };
        let h = ToeplitzHasher::default();
        let q = h.queue_for(&flow, queues);
        prop_assert!(q < queues);
        prop_assert_eq!(q, h.queue_for(&flow, queues));
        // Canonicalisation is involutive and direction-insensitive.
        prop_assert_eq!(flow.canonical(), flow.reversed().canonical());
    }
}
