//! An IPsec VPN gateway pair: the paper's third application (§5.1).
//!
//! Two routers share a security association: the first encapsulates all
//! traffic into an ESP tunnel, the second terminates it. The example
//! verifies byte-exact recovery of the inner datagrams, demonstrates
//! tamper rejection, and reports the software encryption rate of the
//! from-scratch AES-128/HMAC-SHA1 path.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example ipsec_gateway
//! ```

use routebricks::builder::RouterBuilder;
use routebricks::click::element::{OnePacket, Output};
use routebricks::click::elements::{IpsecDecap, IpsecEncap};
use routebricks::crypto::SecurityAssociation;
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::MacAddr;
use std::time::Instant;

fn main() {
    let sa_seed = 0x5ec5eed;
    let sa = SecurityAssociation::from_seed(sa_seed);
    println!("security association: {sa:?}");

    // Gateway A: encapsulating router built with the high-level API.
    let packets = 5_000u64;
    let size = 760; // Abilene-like mean frame.
    let mut egress = RouterBuilder::ipsec_gateway()
        .sa_seed(sa_seed)
        .keep_tx_frames(true)
        .source_packets(size, packets)
        .build()
        .expect("valid gateway configuration");
    let t0 = Instant::now();
    egress.run_until_idle(u64::MAX);
    let dt = t0.elapsed();
    let tunnel_frames = egress.tx_frames(1).to_vec();
    let tunnel_bytes: u64 = tunnel_frames.iter().map(|f| f.len() as u64).sum();
    println!(
        "gateway A sealed {} frames ({} bytes of ESP) in {:?} — {:.2} Gbps AES-128-CBC + HMAC-SHA1 on {:?}",
        tunnel_frames.len(),
        tunnel_bytes,
        dt,
        (packets * size as u64) as f64 * 8.0 / dt.as_secs_f64() / 1e9,
        routebricks::crypto::hardware()
    );

    // Gateway B: terminate the tunnel with the decap element directly.
    let mut decap = IpsecDecap::new(&sa, MacAddr([2; 6]), MacAddr([4; 6]));
    let mut recovered = 0usize;
    let mut out = Output::new();
    for frame in &tunnel_frames {
        decap.push(0, frame.clone(), &mut out);
    }
    for (port, pkt) in out.drain() {
        assert_eq!(port, 0, "authentic tunnel frames decrypt cleanly");
        assert_eq!(pkt.len(), size, "inner frame length is restored");
        recovered += 1;
    }
    println!("gateway B recovered {recovered} inner frames byte-exactly");

    // Tampering: flip one ciphertext bit — the ICV must catch it.
    let mut evil = tunnel_frames[0].clone();
    let n = evil.len();
    evil.data_mut()[n - 20] ^= 0x01;
    let mut out = Output::new();
    decap.push(0, evil, &mut out);
    let (port, _) = out.drain().next().expect("packet is emitted somewhere");
    assert_eq!(port, 1, "tampered frame must take the error output");
    println!("tampered frame rejected by HMAC-SHA1-96 ✔");

    // Replay: re-deliver an already-seen frame.
    let mut out = Output::new();
    let failures_before = decap.counts().1;
    decap.push(0, tunnel_frames[5].clone(), &mut out);
    assert_eq!(out.drain().next().expect("emitted").0, 1);
    assert_eq!(decap.counts().1, failures_before + 1);
    println!("replayed frame rejected by the anti-replay window ✔");

    // And the encryptor's byte overhead, for capacity planning.
    let mut enc = IpsecEncap::new(
        &sa,
        std::net::Ipv4Addr::new(192, 0, 2, 1),
        std::net::Ipv4Addr::new(192, 0, 2, 2),
    );
    let mut out = Output::new();
    enc.push(0, PacketSpec::udp().frame_len(size).build(), &mut out);
    let (_, sealed) = out.drain().next().expect("sealed frame");
    println!(
        "per-packet ESP overhead at {size} B frames: {} bytes ({:.1}%)",
        sealed.len() - size,
        100.0 * (sealed.len() - size) as f64 / size as f64
    );
}
