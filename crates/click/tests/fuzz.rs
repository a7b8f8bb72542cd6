//! Robustness fuzzing: parsers and elements must never panic on
//! arbitrary input — a router's parser runs on attacker-controlled
//! bytes.

use proptest::prelude::*;
use rb_click::config::parse;
use rb_click::element::{Element, OnePacket, Output, PacketBatch};
use rb_click::elements::ip::{CheckIPHeader, DecIPTTL};
use rb_click::elements::route::LookupIPRoute;
use rb_click::elements::{Classifier, IpsecDecap, IpsecEncap};
use rb_click::registry::Registry;
use rb_crypto::SecurityAssociation;
use rb_packet::{MacAddr, Packet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The configuration parser returns Ok or Err but never panics, on
    /// arbitrary text.
    #[test]
    fn config_parser_never_panics(text in "[ -~\\n]{0,200}") {
        let _ = parse(&text);
    }

    /// Classifier spec parsing never panics, and a built classifier
    /// never panics on arbitrary packet bytes.
    #[test]
    fn classifier_is_total(
        spec in "[0-9a-f/%, -]{0,60}",
        frame in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        if let Ok(c) = Classifier::from_spec(&spec) {
            let _ = c.classify(&frame);
        }
    }

    /// IP-path elements accept arbitrary garbage frames without panics,
    /// routing them to their error outputs.
    #[test]
    fn ip_elements_handle_garbage(frame in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut chk = CheckIPHeader::ethernet();
        let mut ttl = DecIPTTL::ethernet();
        let mut rt = LookupIPRoute::from_spec("0.0.0.0/0 0").unwrap();
        let mut out = Output::new();
        chk.push(0, Packet::from_slice(&frame), &mut out);
        ttl.push(0, Packet::from_slice(&frame), &mut out);
        rt.push(0, Packet::from_slice(&frame), &mut out);
        // Every packet comes out somewhere; none vanish or duplicate.
        prop_assert_eq!(out.len(), 3);
    }

    /// The IPsec elements face the wire on both sides: arbitrary bytes
    /// behind a plausible Ethernet + IPv4/ESP header, one at a time and as
    /// a batch, never panic and every frame comes out of some port.
    #[test]
    fn ipsec_elements_handle_garbage(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..9),
        plausible in any::<bool>(),
    ) {
        let sa = SecurityAssociation::from_seed(7);
        let addr = std::net::Ipv4Addr::new(192, 0, 2, 1);
        let frames: Vec<Packet> = frames
            .into_iter()
            .map(|mut bytes| {
                if plausible && bytes.len() >= 34 {
                    // IPv4 ethertype, version 4 with some IHL, protocol ESP.
                    bytes[12..14].copy_from_slice(&[0x08, 0x00]);
                    bytes[14] = 0x40 | (bytes[14] & 0x0f);
                    bytes[23] = 50;
                }
                Packet::from_slice(&bytes)
            })
            .collect();
        let mut out = Output::new();
        let mut enc = IpsecEncap::new(&sa, addr, addr);
        let mut dec = IpsecDecap::new(&sa, MacAddr([2; 6]), MacAddr([3; 6]));
        for pkt in &frames {
            enc.push(0, pkt.clone(), &mut out);
            dec.push(0, pkt.clone(), &mut out);
        }
        enc.push_batch(0, &mut PacketBatch::from_vec(frames.clone()), &mut out);
        dec.push_batch(0, &mut PacketBatch::from_vec(frames.clone()), &mut out);
        prop_assert_eq!(out.len(), 4 * frames.len());
        // What the encapsulator let through, the decapsulator takes back.
        let sealed: Vec<Packet> = out.drain().filter(|(port, _)| *port == 0).map(|(_, p)| p).collect();
        let (n_sealed, _) = enc.counts();
        prop_assert_eq!(sealed.len() as u64, n_sealed);
        for pkt in sealed {
            dec.push(0, pkt, &mut out);
        }
        prop_assert!(out.drain().all(|(port, _)| port == 0));
    }

    /// The element registry rejects malformed arguments with errors,
    /// never panics.
    #[test]
    fn registry_constructors_are_total(
        class_pick in 0usize..8,
        args in "[ -~]{0,40}",
    ) {
        let classes = [
            "Queue",
            "InfiniteSource",
            "Classifier",
            "LookupIPRoute",
            "Meter",
            "RandomSample",
            "EtherEncap",
            "IpsecEncap",
        ];
        let registry = Registry::standard();
        let _ = registry.construct(classes[class_pick], &args);
    }
}
