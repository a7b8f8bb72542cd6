//! IPsec ESP tunnel elements (the paper's third application).
//!
//! `IpsecEncap` takes an Ethernet frame carrying IPv4, encrypts the whole
//! inner datagram into an ESP payload, and re-wraps it in a fresh outer
//! IPv4 header (proto 50) and Ethernet header — classic tunnel-mode VPN
//! egress. `IpsecDecap` reverses it.
//!
//! Both work inside the buffer the frame arrived in. The inner datagram
//! never moves: encapsulation grows the buffer into its headroom and
//! tailroom and writes the tunnel headers, padding and ICV around it,
//! decapsulation shrinks the buffer back onto it, so a pooled frame
//! stays pooled and neither direction allocates.
//!
//! ```text
//! arriving:  | eth 14 |                            inner datagram |
//! tunnel:    | eth 14 | outer IPv4 20 | SPI, seq 8 | IV 16 | inner datagram | pad, trailer, ICV |
//!            |<------------- push(44) ------------>|                        |<----- put ------->|
//! ```

use crate::element::{Element, Output, Ports};
use rb_crypto::esp::{trailer_len, ESP_PREFIX_LEN};
use rb_crypto::{EspDecryptor, EspEncryptor, SecurityAssociation};
use rb_packet::ethernet::{EtherType, EthernetHeader, HEADER_LEN as ETH_HLEN};
use rb_packet::ipv4::{IpProto, Ipv4Header, MIN_HEADER_LEN as IP_HLEN};
use rb_packet::{MacAddr, Packet, PacketBuf};
use std::net::Ipv4Addr;

/// Bytes `IpsecEncap` pushes in front of a frame: outer IPv4 header, SPI
/// and sequence number, IV.
const ENCAP_PUSH: usize = IP_HLEN + ESP_PREFIX_LEN;

/// Extends `buf` by `front` bytes at the head and `back` at the tail.
///
/// A pooled buffer without the room promotes itself to the heap inside
/// `push`/`put`; a heap buffer, which would refuse, is first replaced by a
/// copy that has it.
fn grow(buf: &mut PacketBuf, front: usize, back: usize) {
    if !buf.is_pooled() && (buf.headroom() < front || buf.tailroom() < back) {
        *buf = PacketBuf::with_room(buf.data(), front, back);
    }
    buf.push(front).expect("room checked or promoted");
    buf.put(back).expect("room checked or promoted");
}

/// Encrypts IPv4-in-Ethernet frames into ESP tunnel packets.
///
/// Output 0 carries the tunnel frames; malformed input, and every frame
/// once the SA's sequence numbers are used up, goes to output 1.
pub struct IpsecEncap {
    /// Retained so per-core replicas can derive a fresh encryptor.
    sa: SecurityAssociation,
    esp: EspEncryptor,
    tunnel_src: Ipv4Addr,
    tunnel_dst: Ipv4Addr,
    sealed: u64,
    failed: u64,
}

impl IpsecEncap {
    /// Creates the tunnel-egress element for `sa`, with the given outer
    /// addresses.
    pub fn new(sa: &SecurityAssociation, tunnel_src: Ipv4Addr, tunnel_dst: Ipv4Addr) -> IpsecEncap {
        IpsecEncap {
            sa: sa.clone(),
            esp: EspEncryptor::new(sa),
            tunnel_src,
            tunnel_dst,
            sealed: 0,
            failed: 0,
        }
    }

    /// (sealed, failed) counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.sealed, self.failed)
    }
}

impl Element for IpsecEncap {
    fn class_name(&self) -> &'static str {
        "IpsecEncap"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, out: &mut Output) {
        if pkt.len() < ETH_HLEN + IP_HLEN {
            self.failed += 1;
            out.push(1, pkt);
            return;
        }
        let eth = match EthernetHeader::parse(pkt.data()) {
            Ok(e) if e.ethertype == EtherType::Ipv4 => e,
            _ => {
                self.failed += 1;
                out.push(1, pkt);
                return;
            }
        };
        let inner_len = pkt.len() - ETH_HLEN;
        let back = trailer_len(inner_len);
        grow(pkt.buf_mut(), ENCAP_PUSH, back);
        let frame = pkt.data_mut();
        let (headers, esp) = frame.split_at_mut(ETH_HLEN + IP_HLEN);
        if self.esp.seal_into(esp, inner_len).is_err() {
            // Out of sequence numbers: hand the frame back as it came.
            let buf = pkt.buf_mut();
            buf.pull(ENCAP_PUSH).expect("just pushed");
            buf.trim(back).expect("just put");
            self.failed += 1;
            out.push(1, pkt);
            return;
        }
        // The arriving Ethernet header now lies under the IV; `eth` is its
        // parsed copy.
        eth.emit(headers).expect("frame sized for headers");
        Ipv4Header::new(self.tunnel_src, self.tunnel_dst, IpProto::Esp, esp.len())
            .emit(&mut headers[ETH_HLEN..])
            .expect("frame sized for headers");
        self.sealed += 1;
        out.push(0, pkt);
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // The SA (keys) is shared configuration; each core gets its own
        // encryptor and thus its own ESP sequence-number stream, exactly
        // like per-core SAs in a multi-queue IPsec gateway.
        Some(Box::new(IpsecEncap::new(
            &self.sa,
            self.tunnel_src,
            self.tunnel_dst,
        )))
    }
}

/// Decrypts ESP tunnel frames back into the inner IPv4-in-Ethernet frame.
///
/// Output 0 carries recovered frames; packets that fail authentication,
/// replay or parsing go to output 1.
pub struct IpsecDecap {
    /// Retained so per-core replicas can derive a fresh decryptor.
    sa: SecurityAssociation,
    esp: EspDecryptor,
    inner_src_mac: MacAddr,
    inner_dst_mac: MacAddr,
    opened: u64,
    failed: u64,
}

impl IpsecDecap {
    /// Creates the tunnel-ingress element for `sa`; recovered inner
    /// datagrams are re-framed with the given MACs.
    pub fn new(sa: &SecurityAssociation, src_mac: MacAddr, dst_mac: MacAddr) -> IpsecDecap {
        IpsecDecap {
            sa: sa.clone(),
            esp: EspDecryptor::new(sa),
            inner_src_mac: src_mac,
            inner_dst_mac: dst_mac,
            opened: 0,
            failed: 0,
        }
    }

    /// (opened, failed) counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.opened, self.failed)
    }
}

impl Element for IpsecDecap {
    fn class_name(&self) -> &'static str {
        "IpsecDecap"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, out: &mut Output) {
        let fail = |this: &mut Self, pkt: Packet, out: &mut Output| {
            this.failed += 1;
            out.push(1, pkt);
        };
        if pkt.len() < ETH_HLEN + IP_HLEN {
            return fail(self, pkt, out);
        }
        let outer = match Ipv4Header::parse(&pkt.data()[ETH_HLEN..]) {
            Ok(h) if h.proto == IpProto::Esp => h,
            _ => return fail(self, pkt, out),
        };
        let esp_start = ETH_HLEN + outer.header_len();
        let inner = match self.esp.open_in_place(&mut pkt.data_mut()[esp_start..]) {
            Ok(range) => esp_start + range.start..esp_start + range.end,
            Err(_) => return fail(self, pkt, out),
        };
        // Shrink the buffer onto the datagram plus room for the Ethernet
        // header, which lands on the tail of the spent IV.
        let len = pkt.len();
        let buf = pkt.buf_mut();
        buf.trim(len - inner.end).expect("range lies in the frame");
        buf.pull(inner.start - ETH_HLEN)
            .expect("range lies in the frame");
        EthernetHeader {
            dst: self.inner_dst_mac,
            src: self.inner_src_mac,
            ethertype: EtherType::Ipv4,
        }
        .emit(buf.data_mut())
        .expect("frame sized for headers");
        self.opened += 1;
        out.push(0, pkt);
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // Fresh replay window per core: each replica sees a disjoint flow
        // shard, so windows never need to be merged.
        Some(Box::new(IpsecDecap::new(
            &self.sa,
            self.inner_src_mac,
            self.inner_dst_mac,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_packet::builder::PacketSpec;
    use rb_packet::PacketPool;

    fn sa() -> SecurityAssociation {
        SecurityAssociation::from_seed(0x195ec)
    }

    fn tunnel_pair() -> (IpsecEncap, IpsecDecap) {
        let enc = IpsecEncap::new(&sa(), Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        let dec = IpsecDecap::new(&sa(), MacAddr([2; 6]), MacAddr([3; 6]));
        (enc, dec)
    }

    #[test]
    fn encap_decap_round_trip() {
        let (mut enc, mut dec) = tunnel_pair();
        let original = PacketSpec::udp()
            .src("10.0.0.1:1000")
            .unwrap()
            .dst("10.0.0.2:2000")
            .unwrap()
            .frame_len(200)
            .build();
        let mut out = Output::new();
        enc.push(0, original.clone(), &mut out);
        let (port, tunnel) = out.drain().next().unwrap();
        assert_eq!(port, 0);

        // The tunnel frame carries ESP in a valid outer header.
        let outer = Ipv4Header::parse(&tunnel.data()[ETH_HLEN..]).unwrap();
        assert_eq!(outer.proto, IpProto::Esp);
        assert_eq!(outer.src, Ipv4Addr::new(1, 1, 1, 1));

        let mut out = Output::new();
        dec.push(0, tunnel, &mut out);
        let (port, recovered) = out.drain().next().unwrap();
        assert_eq!(port, 0);
        // The inner IP datagram is byte-identical.
        assert_eq!(&recovered.data()[ETH_HLEN..], &original.data()[ETH_HLEN..]);
        assert_eq!(enc.counts(), (1, 0));
        assert_eq!(dec.counts(), (1, 0));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Frames at the padding extremes, a mid size and the MTU.
    fn pinned_frames() -> Vec<Packet> {
        [64usize, 65, 200, 1500]
            .iter()
            .map(|&len| PacketSpec::udp().frame_len(len).build())
            .collect()
    }

    /// Pushes `frames` through a fresh `IpsecEncap` and checks the tunnel
    /// frames against literals taken from the copy-out element this one
    /// replaced (same SA, same addresses, same input).
    fn assert_pinned_tunnel_frames(frames: Vec<Packet>) -> Vec<Packet> {
        let (mut enc, _) = tunnel_pair();
        let mut out = Output::new();
        for pkt in frames {
            enc.push(0, pkt, &mut out);
        }
        let tunnel: Vec<Packet> = out
            .drain()
            .map(|(port, pkt)| {
                assert_eq!(port, 0);
                pkt
            })
            .collect();
        assert_eq!(
            hex(tunnel[0].data()),
            "020000000002020000000001080045000078000040004032344f010101010202\
             0202800195ec0000000145d48326f7fc9e3bfac2817a14afe15131c065206e4e\
             22c9526a55fd577bf676718fcd284ebd9c0f950d6928d64b1881009a2c5a51cd\
             6da7a5f418c5816ec87c3ba19664d3d0b5c37b4f3ec6b7a8721b144a5d316a90\
             6fe72e2cf247"
        );
        let mut all = rb_crypto::Sha1::new();
        for pkt in &tunnel {
            all.update(pkt.data());
        }
        assert_eq!(
            hex(&all.finalize()),
            "162c69b80ad3f34fac5ba1a9807cc8b0e4f88e46"
        );
        tunnel
    }

    #[test]
    fn heap_frames_are_encapsulated_in_place() {
        let tunnel = assert_pinned_tunnel_frames(pinned_frames());
        // 64 bytes of room either side came with the frame; 44 and at most
        // 29 of them are now packet.
        assert!(tunnel.iter().all(|p| p.buf().headroom() == 64 - ENCAP_PUSH));
    }

    #[test]
    fn pooled_frames_stay_pooled_through_both_directions() {
        let pool = PacketPool::new(8, 2048);
        let pooled = pinned_frames()
            .iter()
            .map(|p| Packet::try_from_slice_in(&pool, p.data()).unwrap())
            .collect();
        let tunnel = assert_pinned_tunnel_frames(pooled);
        assert!(tunnel.iter().all(Packet::is_pooled));

        let (_, mut dec) = tunnel_pair();
        let mut out = Output::new();
        for pkt in tunnel {
            dec.push(0, pkt, &mut out);
        }
        for ((port, got), sent) in out.drain().zip(pinned_frames()) {
            assert_eq!(port, 0);
            assert!(got.is_pooled());
            assert_eq!(got.data()[ETH_HLEN..], sent.data()[ETH_HLEN..]);
        }
        let stats = pool.stats();
        assert_eq!((stats.allocs, stats.heap_fallbacks), (4, 0));
    }

    #[test]
    fn frames_without_room_are_moved_not_failed() {
        // Pooled, but an earlier encapsulation used 40 of the 64 bytes of
        // headroom: `push` promotes the buffer to the heap.
        let pool = PacketPool::new(8, 2048);
        let crowded = pinned_frames()
            .iter()
            .map(|p| {
                let mut pkt = Packet::try_from_slice_in(&pool, &p.data()[40..]).unwrap();
                let head = pkt.buf_mut().push(40).unwrap();
                head.copy_from_slice(&p.data()[..40]);
                pkt
            })
            .collect();
        let tunnel = assert_pinned_tunnel_frames(crowded);
        assert!(!tunnel.iter().any(Packet::is_pooled));
        assert_eq!(pool.stats().heap_fallbacks, 4);

        // Heap buffers built with no room at all.
        let bare = pinned_frames()
            .iter()
            .map(|p| Packet::new(PacketBuf::with_room(p.data(), 0, 0)))
            .collect();
        assert_pinned_tunnel_frames(bare);
    }

    #[test]
    fn annotations_survive_the_tunnel() {
        let (mut enc, mut dec) = tunnel_pair();
        let mut pkt = PacketSpec::udp().build();
        pkt.meta.paint = 7;
        pkt.meta.ingress_seq = 99;
        let mut out = Output::new();
        enc.push(0, pkt, &mut out);
        let (_, tunnel) = out.drain().next().unwrap();
        assert_eq!((tunnel.meta.paint, tunnel.meta.ingress_seq), (7, 99));
        dec.push(0, tunnel, &mut out);
        let (_, inner) = out.drain().next().unwrap();
        assert_eq!((inner.meta.paint, inner.meta.ingress_seq), (7, 99));
    }

    #[test]
    fn tunnel_hides_inner_addresses() {
        let (mut enc, _) = tunnel_pair();
        let original = PacketSpec::udp()
            .src("10.0.0.1:1000")
            .unwrap()
            .dst("10.0.0.2:2000")
            .unwrap()
            .build();
        let inner_dst = original.data()[ETH_HLEN + 16..ETH_HLEN + 20].to_vec();
        let mut out = Output::new();
        enc.push(0, original, &mut out);
        let (_, tunnel) = out.drain().next().unwrap();
        // The inner destination must not appear in the ESP body.
        let body = &tunnel.data()[ETH_HLEN + IP_HLEN + 8..];
        assert!(!body.windows(4).any(|w| w == &inner_dst[..]));
    }

    #[test]
    fn tampered_tunnel_packet_fails_decap() {
        let (mut enc, mut dec) = tunnel_pair();
        let mut out = Output::new();
        enc.push(0, PacketSpec::udp().build(), &mut out);
        let (_, mut tunnel) = out.drain().next().unwrap();
        let n = tunnel.len();
        tunnel.data_mut()[n - 1] ^= 1;
        let mut out = Output::new();
        dec.push(0, tunnel, &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
        assert_eq!(dec.counts(), (0, 1));
    }

    #[test]
    fn non_ip_frame_fails_encap() {
        let (mut enc, _) = tunnel_pair();
        let mut frame = vec![0u8; 60];
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP.
        let mut out = Output::new();
        enc.push(0, Packet::from_slice(&frame), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
    }

    #[test]
    fn replayed_tunnel_packet_fails_decap() {
        let (mut enc, mut dec) = tunnel_pair();
        let mut out = Output::new();
        enc.push(0, PacketSpec::udp().build(), &mut out);
        let (_, tunnel) = out.drain().next().unwrap();
        let mut out = Output::new();
        dec.push(0, tunnel.clone(), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 0);
        let mut out = Output::new();
        dec.push(0, tunnel, &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
    }
}
