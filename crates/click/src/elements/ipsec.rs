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

use crate::element::{Element, Output, PacketBatch, Ports};
use rb_crypto::esp::{sealed_len, trailer_len, ESP_PREFIX_LEN};
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

/// The frame's Ethernet header, if `IpsecEncap` takes the frame: IPv4 by
/// its ethertype and long enough to hold an IPv4 header.
fn tunnel_candidate(pkt: &Packet) -> Option<EthernetHeader> {
    if pkt.len() < ETH_HLEN + IP_HLEN {
        return None;
    }
    EthernetHeader::parse(pkt.data())
        .ok()
        .filter(|eth| eth.ethertype == EtherType::Ipv4)
}

/// Whether the tunnel packet of candidate `pkt` fits IPv4's 16-bit total
/// length.
fn fits_a_tunnel(pkt: &Packet) -> bool {
    IP_HLEN + sealed_len(pkt.len() - ETH_HLEN) <= usize::from(u16::MAX)
}

/// Grows `pkt` to its tunnel size and writes the two cleartext headers.
/// Returns what is left to do as `seal_into` takes it: the ESP part of the
/// frame and the length of the inner datagram inside it.
///
/// The arriving Ethernet header lies where the IV will go; `eth` is its
/// parsed copy. Nothing from the old header on is written here, so until
/// the seal the frame can still be had back with `pull` and `trim`.
fn open_tunnel(
    pkt: &mut Packet,
    eth: EthernetHeader,
    tunnel_src: Ipv4Addr,
    tunnel_dst: Ipv4Addr,
) -> (&mut [u8], usize) {
    let inner_len = pkt.len() - ETH_HLEN;
    grow(pkt.buf_mut(), ENCAP_PUSH, trailer_len(inner_len));
    let (headers, esp) = pkt.data_mut().split_at_mut(ETH_HLEN + IP_HLEN);
    eth.emit(headers).expect("frame sized for headers");
    Ipv4Header::new(tunnel_src, tunnel_dst, IpProto::Esp, esp.len())
        .expect("a tunnel candidate fits IPv4's total length")
        .emit(&mut headers[ETH_HLEN..])
        .expect("frame sized for headers");
    (esp, inner_len)
}

/// Encrypts IPv4-in-Ethernet frames into ESP tunnel packets.
///
/// Output 0 carries the tunnel frames; malformed input, and every frame
/// once the SA's sequence numbers are used up, goes to output 1 as it
/// came.
///
/// A batch is sealed as a batch ([`EspEncryptor::seal_batch_into`]): the
/// per-packet work — room, headers, IV block, padding — is done as each
/// frame's turn comes, and where the cipher runs on AES-NI the CBC chains
/// of up to 32 frames then run side by side in lanes, sixteen where the
/// CPU has VAES. The frames and their order on the outputs are those of
/// one-frame batches pushed in turn.
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

    /// Seals one frame on its own: the path of a batch that holds a frame
    /// too long to tunnel.
    fn seal_one(&mut self, mut pkt: Packet, out: &mut Output) {
        let Some(eth) = tunnel_candidate(&pkt).filter(|_| fits_a_tunnel(&pkt)) else {
            self.failed += 1;
            out.push(1, pkt);
            return;
        };
        let (esp, inner_len) = open_tunnel(&mut pkt, eth, self.tunnel_src, self.tunnel_dst);
        if self.esp.seal_into(esp, inner_len).is_err() {
            // Out of sequence numbers: hand the frame back as it came.
            let buf = pkt.buf_mut();
            buf.pull(ENCAP_PUSH).expect("just pushed");
            buf.trim(trailer_len(inner_len)).expect("just put");
            self.failed += 1;
            out.push(1, pkt);
            return;
        }
        self.sealed += 1;
        out.push(0, pkt);
    }

    /// [`IpsecEncap::new`] on the portable cipher and hash, for running
    /// the wire-format pins on both.
    #[cfg(test)]
    fn portable(
        sa: &SecurityAssociation,
        tunnel_src: Ipv4Addr,
        tunnel_dst: Ipv4Addr,
    ) -> IpsecEncap {
        IpsecEncap {
            esp: EspEncryptor::portable(sa),
            ..IpsecEncap::new(sa, tunnel_src, tunnel_dst)
        }
    }
}

impl Element for IpsecEncap {
    fn class_name(&self) -> &'static str {
        "IpsecEncap"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        // The routing below tells the sealed frames by their shape, which a
        // frame too long to tunnel shares: such a batch goes frame by frame.
        let too_long = |pkt: &Packet| tunnel_candidate(pkt).is_some() && !fits_a_tunnel(pkt);
        if pkts.as_slice().iter().any(too_long) {
            for pkt in pkts.drain() {
                self.seal_one(pkt, out);
            }
            return;
        }
        let (src, dst) = (self.tunnel_src, self.tunnel_dst);
        // Frames are opened into tunnels as the encryptor asks for them, so
        // one it has no sequence number for is never touched.
        let sealed = self
            .esp
            .seal_batch_into(pkts.as_mut_slice().iter_mut().filter_map(|pkt| {
                let eth = tunnel_candidate(pkt)?;
                Some(open_tunnel(pkt, eth, src, dst))
            }));
        // The sealed ones are the first `sealed` candidates, and still
        // read as candidates: IPv4 by their ethertype, and longer.
        let total = pkts.len();
        let mut unrouted = sealed;
        for pkt in pkts.drain() {
            if unrouted > 0 && tunnel_candidate(&pkt).is_some() {
                unrouted -= 1;
                out.push(0, pkt);
            } else {
                out.push(1, pkt);
            }
        }
        self.sealed += sealed as u64;
        self.failed += (total - sealed) as u64;
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // Each copy gets its own encryptor under the same SA: one SPI and
        // one key, each copy counting from sequence number 1. These are
        // not per-core SAs — two copies emit the same sequence numbers and
        // IVs under one key, and a peer's replay window drops the second
        // copy's packets. ROADMAP, "Shard-safety derived, not declared",
        // is where that gets fixed.
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

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let fail = |this: &mut Self, pkt: Packet, out: &mut Output| {
            this.failed += 1;
            out.push(1, pkt);
        };
        for mut pkt in pkts.drain() {
            if pkt.len() < ETH_HLEN + IP_HLEN {
                fail(self, pkt, out);
                continue;
            }
            let outer = match Ipv4Header::parse(&pkt.data()[ETH_HLEN..]) {
                Ok(h) if h.proto == IpProto::Esp => h,
                _ => {
                    fail(self, pkt, out);
                    continue;
                }
            };
            let esp_start = ETH_HLEN + outer.header_len();
            let inner = match self.esp.open_in_place(&mut pkt.data_mut()[esp_start..]) {
                Ok(range) => esp_start + range.start..esp_start + range.end,
                Err(_) => {
                    fail(self, pkt, out);
                    continue;
                }
            };
            // Shrink the buffer onto the datagram plus room for the
            // Ethernet header, which lands on the tail of the spent IV.
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
    use crate::element::OnePacket;
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

    /// One way of getting frames sealed: on the CPU's crypto instructions
    /// or the portable code, a frame at a time or as one batch.
    #[derive(Debug, Clone, Copy)]
    struct Sealer {
        portable: bool,
        batched: bool,
    }

    impl Sealer {
        /// All four, or — with a note — the portable two on a CPU where the
        /// others would be the same code.
        fn all() -> Vec<Sealer> {
            let hw = rb_crypto::hardware();
            if !(hw.aes && hw.sha) {
                eprintln!("skipped: no aes/sha (aes: {}, sha: {})", hw.aes, hw.sha);
            }
            let mut all = Vec::new();
            for portable in [false, true] {
                for batched in [false, true] {
                    if portable || hw.aes || hw.sha {
                        all.push(Sealer { portable, batched });
                    }
                }
            }
            all
        }

        fn encap(self) -> IpsecEncap {
            let (src, dst) = (Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
            if self.portable {
                IpsecEncap::portable(&sa(), src, dst)
            } else {
                IpsecEncap::new(&sa(), src, dst)
            }
        }

        /// What `enc` emits for `frames`, port by port, in order.
        fn seal(self, enc: &mut IpsecEncap, frames: Vec<Packet>) -> Vec<(usize, Packet)> {
            let mut out = Output::new();
            if self.batched {
                enc.push_batch(0, &mut PacketBatch::from_vec(frames), &mut out);
            } else {
                for pkt in frames {
                    enc.push(0, pkt, &mut out);
                }
            }
            out.drain().collect()
        }
    }

    /// Seals `frames` with a fresh `IpsecEncap` and checks the tunnel
    /// frames against literals taken from the copy-out element this one
    /// replaced (same SA, same addresses, same input).
    fn assert_pinned_tunnel_frames(sealer: Sealer, frames: Vec<Packet>) -> Vec<Packet> {
        let tunnel: Vec<Packet> = sealer
            .seal(&mut sealer.encap(), frames)
            .into_iter()
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
             6fe72e2cf247",
            "{sealer:?}"
        );
        let mut all = rb_crypto::Sha1::new();
        for pkt in &tunnel {
            all.update(pkt.data());
        }
        assert_eq!(
            hex(&all.finalize()),
            "162c69b80ad3f34fac5ba1a9807cc8b0e4f88e46",
            "{sealer:?}"
        );
        tunnel
    }

    #[test]
    fn heap_frames_are_encapsulated_in_place() {
        for sealer in Sealer::all() {
            let tunnel = assert_pinned_tunnel_frames(sealer, pinned_frames());
            // 64 bytes of room either side came with the frame; 44 and at
            // most 29 of them are now packet.
            assert!(tunnel.iter().all(|p| p.buf().headroom() == 64 - ENCAP_PUSH));
        }
    }

    #[test]
    fn pooled_frames_stay_pooled_through_both_directions() {
        for sealer in Sealer::all() {
            let pool = PacketPool::new(8, 2048);
            let pooled = pinned_frames()
                .iter()
                .map(|p| Packet::try_from_slice_in(&pool, p.data()).unwrap())
                .collect();
            let tunnel = assert_pinned_tunnel_frames(sealer, pooled);
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
    }

    #[test]
    fn frames_without_room_are_moved_not_failed() {
        for sealer in Sealer::all() {
            // Pooled, but an earlier encapsulation used 40 of the 64 bytes
            // of headroom: `push` promotes the buffer to the heap.
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
            let tunnel = assert_pinned_tunnel_frames(sealer, crowded);
            assert!(!tunnel.iter().any(Packet::is_pooled));
            assert_eq!(pool.stats().heap_fallbacks, 4);

            // Heap buffers built with no room at all.
            let bare = pinned_frames()
                .iter()
                .map(|p| Packet::new(PacketBuf::with_room(p.data(), 0, 0)))
                .collect();
            assert_pinned_tunnel_frames(sealer, bare);
        }
    }

    /// Abilene's three sizes and the padding extremes, with frames
    /// `IpsecEncap` refuses mixed in.
    fn mixed_frames(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| match i % 7 {
                3 => Packet::from_slice(&[0u8; 20]),
                5 => {
                    let mut arp = PacketSpec::udp().frame_len(64).build();
                    arp.data_mut()[13] = 0x06;
                    arp
                }
                k => PacketSpec::udp()
                    .frame_len([64, 1500, 65, 576, 79, 80, 1499][k])
                    .build(),
            })
            .collect()
    }

    /// `push_batch` is `push` on each frame in turn: same frames, same
    /// ports, same order, same counts, for 1..=40 frames.
    #[test]
    fn a_batch_is_sealed_like_its_frames_one_by_one() {
        for portable in [false, true] {
            let (single, batch) = (
                Sealer {
                    portable,
                    batched: false,
                },
                Sealer {
                    portable,
                    batched: true,
                },
            );
            let (mut single_enc, mut batch_enc) = (single.encap(), batch.encap());
            for n in 1..=40 {
                let expected = single.seal(&mut single_enc, mixed_frames(n));
                let got = batch.seal(&mut batch_enc, mixed_frames(n));
                assert_eq!(got.len(), n);
                for (i, (got, expected)) in got.iter().zip(&expected).enumerate() {
                    assert_eq!(got.0, expected.0, "port of frame {i} of {n}");
                    assert_eq!(got.1.data(), expected.1.data(), "frame {i} of {n}");
                }
                assert_eq!(batch_enc.counts(), single_enc.counts());
            }
        }
    }

    /// An SA that runs dry inside a batch: the numbered frames leave as
    /// tunnel frames, the rest leave output 1 exactly as they came, pooled
    /// ones still pooled.
    #[test]
    fn a_batch_that_outlives_the_sa_fails_the_rest_untouched() {
        for sealer in Sealer::all() {
            let pool = PacketPool::new(16, 2048);
            let frames: Vec<Packet> = mixed_frames(14)
                .iter()
                .map(|p| Packet::try_from_slice_in(&pool, p.data()).unwrap())
                .collect();
            // 14 frames, 10 of them sealable; sequence numbers for 6.
            let mut enc = sealer.encap();
            enc.esp = enc.esp.resuming_at(u32::MAX - 5);
            let out = sealer.seal(&mut enc, frames);
            assert_eq!(out.len(), 14);
            // What each port carries, in the order it came: the first six
            // candidates sealed on port 0, everything else on port 1.
            let sent = mixed_frames(14);
            let mut sealed = 0;
            let (sealable, rest): (Vec<_>, Vec<_>) = sent.iter().partition(|frame| {
                let seals = tunnel_candidate(frame).is_some() && sealed < 6;
                sealed += usize::from(seals);
                seals
            });
            let (mut sealable, mut rest) = (sealable.into_iter(), rest.into_iter());
            for (port, got) in &out {
                if *port == 0 {
                    let sent = sealable.next().expect("six frames sealed");
                    assert!(got.len() > sent.len(), "{sealer:?}");
                } else {
                    assert_eq!(*port, 1, "{sealer:?}");
                    let sent = rest.next().expect("eight frames failed");
                    assert_eq!(got.data(), sent.data(), "{sealer:?}: left as it came");
                    assert_eq!(got.buf().headroom(), 64, "{sealer:?}: never grown");
                }
                assert!(got.is_pooled());
            }
            assert!(sealable.next().is_none() && rest.next().is_none());
            assert_eq!(enc.counts(), (6, 8));
            assert_eq!(pool.stats().heap_fallbacks, 0);
        }
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

    #[test]
    fn a_frame_too_long_to_tunnel_fails_by_itself() {
        let max = usize::from(u16::MAX);
        // The longest inner datagram whose tunnel packet fits IPv4.
        let longest = (0..=max)
            .rev()
            .find(|&inner| IP_HLEN + sealed_len(inner) <= max)
            .unwrap();
        for sealer in Sealer::all() {
            for (inner, fits) in [(longest - 1, true), (longest, true), (longest + 1, false)] {
                let frames = vec![
                    PacketSpec::udp().build(),
                    PacketSpec::udp().frame_len(ETH_HLEN + inner).build(),
                    PacketSpec::udp().build(),
                ];
                let mut enc = sealer.encap();
                let ports: Vec<usize> = sealer
                    .seal(&mut enc, frames)
                    .iter()
                    .map(|(port, _)| *port)
                    .collect();
                let expected = if fits { vec![0, 0, 0] } else { vec![0, 0, 1] };
                assert_eq!(ports, expected, "{sealer:?}, inner datagram of {inner} B");
                let sealed = if fits { 3 } else { 2 };
                assert_eq!(enc.counts(), (sealed, 3 - sealed), "{sealer:?}");
            }
        }
    }
}
