//! `EspDecryptor::open_in_place` is the crate's untrusted edge: its input
//! is whatever arrived on the wire, and it mutates that input in place.
//! Whatever the bytes, on either backend, it must not panic; a packet that
//! fails the ICV or the replay check must be left exactly as it came; and
//! the one documented case where a rejected packet *is* modified — it
//! authenticates but its trailer is malformed — is pinned here, with the
//! replay window provably not advanced by it.

use proptest::prelude::*;
use rb_crypto::aes::Aes128;
use rb_crypto::esp::{sealed_len, ESP_PREFIX_LEN};
use rb_crypto::hmac::ICV_LEN;
use rb_crypto::modes::cbc_encrypt;
use rb_crypto::{CryptoError, EspDecryptor, EspEncryptor, HmacSha1, SecurityAssociation};

/// A decryptor per backend; on a CPU without the instructions the two are
/// the same code, which `tests/backends.rs` reports.
fn decryptors(sa: &SecurityAssociation) -> [EspDecryptor; 2] {
    [EspDecryptor::new(sa), EspDecryptor::portable(sa)]
}

/// Opens `packet` and checks the contract: no panic (by getting here), and
/// byte-identical unless it opened or failed on its trailer.
fn open_checked(dec: &mut EspDecryptor, packet: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut buf = packet.to_vec();
    match dec.open_in_place(&mut buf) {
        Ok(range) => Ok(buf[range].to_vec()),
        Err(CryptoError::BadPadding) => Err(CryptoError::BadPadding),
        Err(e) => {
            assert_eq!(buf, packet, "{e} must leave the packet untouched");
            Err(e)
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An ESP packet for `sa` that authenticates, with sequence number `seq`,
/// whose decrypted body is `body` verbatim (so the trailer is the
/// caller's to get wrong).
fn forge(sa: &SecurityAssociation, seq: u32, body: &[u8]) -> Vec<u8> {
    let mut packet = Vec::new();
    packet.extend_from_slice(&sa.spi.to_be_bytes());
    packet.extend_from_slice(&seq.to_be_bytes());
    let iv = [0x1f; 16];
    packet.extend_from_slice(&iv);
    packet.extend_from_slice(body);
    cbc_encrypt(
        &Aes128::portable(&sa.enc_key),
        &iv,
        &mut packet[ESP_PREFIX_LEN..],
    )
    .unwrap();
    let icv = HmacSha1::portable(&sa.auth_key).mac96(&packet);
    packet.extend_from_slice(&icv);
    packet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: rejected, untouched, and the two backends agree on
    /// why.
    #[test]
    fn arbitrary_bytes_are_rejected_untouched(
        seed in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..2_049),
    ) {
        let sa = SecurityAssociation::from_seed(seed);
        let [mut hw, mut portable] = decryptors(&sa);
        let outcome = open_checked(&mut hw, &bytes);
        prop_assert_eq!(outcome.clone(), open_checked(&mut portable, &bytes));
        let expected = if bytes.len() < sealed_len(0) {
            CryptoError::Truncated(bytes.len())
        } else {
            CryptoError::BadIcv
        };
        prop_assert_eq!(outcome, Err(expected));
    }

}

proptest! {
    // Each case is ~2,000 opens per backend.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A valid packet cut short anywhere, or with any one bit flipped, is
    /// rejected untouched and costs the window nothing: the intact packet
    /// still opens afterwards, and only once.
    #[test]
    fn truncations_and_bit_flips_are_rejected_untouched(
        seed in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let sa = SecurityAssociation::from_seed(seed);
        let sealed = EspEncryptor::new(&sa).seal(&payload);
        for mut dec in decryptors(&sa) {
            for cut in 0..sealed.len() {
                prop_assert!(open_checked(&mut dec, &sealed[..cut]).is_err(), "cut at {}", cut);
            }
            for bit in 0..sealed.len() * 8 {
                let mut flipped = sealed.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(
                    open_checked(&mut dec, &flipped),
                    Err(CryptoError::BadIcv),
                    "bit {}", bit
                );
            }
            prop_assert_eq!(open_checked(&mut dec, &sealed), Ok(payload.clone()));
            prop_assert_eq!(open_checked(&mut dec, &sealed), Err(CryptoError::Replayed(1)));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bodies that authenticate but end in an arbitrary trailer: whatever
    /// the pad length and next-header bytes claim, no panic, and the two
    /// backends agree on the verdict and on the bytes left behind.
    #[test]
    fn authentic_packets_with_arbitrary_trailers_never_panic(
        seed in any::<u64>(),
        blocks in prop::collection::vec(any::<[u8; 16]>(), 1..8),
        next_header in prop_oneof![Just(4u8), any::<u8>()],
    ) {
        let sa = SecurityAssociation::from_seed(seed);
        let mut body = blocks.concat();
        *body.last_mut().unwrap() = next_header;
        let packet = forge(&sa, 1, &body);
        let (mut a, mut b) = (packet.clone(), packet.clone());
        let [mut hw, mut portable] = decryptors(&sa);
        prop_assert_eq!(hw.open_in_place(&mut a), portable.open_in_place(&mut b));
        prop_assert_eq!(a, b);
    }
}

/// The documented exception to "a rejected packet is untouched": one that
/// authenticates (so it came from a key holder) but whose trailer is
/// malformed has been decrypted where it lies by the time that is known.
/// It is dropped, its sequence number is *not* recorded — a well-formed
/// packet with the same number is still accepted — and nothing panics.
#[test]
fn authentic_packet_with_malformed_trailer_is_left_decrypted() {
    let sa = SecurityAssociation::from_seed(0x7a11);
    // 30 payload bytes, pad length 0, next header 41 (IPv6) where tunnel
    // mode here only carries 4.
    let mut body: Vec<u8> = (0..30).collect();
    body.extend_from_slice(&[0, 41]);
    let packet = forge(&sa, 7, &body);
    assert_eq!(
        hex(&packet),
        "80007a11000000071f1f1f1f1f1f1f1f1f1f1f1f1f1f1f1fb2f084bc8ca09b78\
         9130a4fe302a4eb0770c04370f03dc342d442af19e1649c4797c2ca97f01ca48\
         45ca986b"
    );
    for mut dec in decryptors(&sa) {
        let mut buf = packet.clone();
        assert_eq!(dec.open_in_place(&mut buf), Err(CryptoError::BadPadding));
        assert_eq!(
            hex(&buf),
            "80007a11000000071f1f1f1f1f1f1f1f1f1f1f1f1f1f1f1f0001020304050607\
             08090a0b0c0d0e0f101112131415161718191a1b1c1d0029797c2ca97f01ca48\
             45ca986b"
        );
        assert_eq!(buf[..ESP_PREFIX_LEN], packet[..ESP_PREFIX_LEN]);
        assert_eq!(buf[buf.len() - ICV_LEN..], packet[packet.len() - ICV_LEN..]);

        // The other two ways a trailer can be wrong behave the same: a pad
        // length that reaches past the body, and padding that does not
        // count 1, 2, 3.
        let mut too_long: Vec<u8> = vec![0xaa; 14];
        too_long.extend_from_slice(&[15, 4]);
        let mut not_monotone: Vec<u8> = vec![0xaa; 11];
        not_monotone.extend_from_slice(&[1, 2, 4, 3, 4]);
        for body in [too_long, not_monotone] {
            let forged = forge(&sa, 7, &body);
            let mut buf = forged.clone();
            assert_eq!(dec.open_in_place(&mut buf), Err(CryptoError::BadPadding));
            assert_eq!(buf[ESP_PREFIX_LEN..buf.len() - ICV_LEN], body[..]);
        }

        // Sequence number 7 was never marked seen.
        let mut good: Vec<u8> = (0..30).collect();
        good.extend_from_slice(&[0, 4]);
        let good = forge(&sa, 7, &good);
        assert_eq!(dec.open(&good).unwrap(), (0..30).collect::<Vec<u8>>());
        assert_eq!(dec.open(&good), Err(CryptoError::Replayed(7)));
        assert_eq!(dec.open(&packet), Err(CryptoError::Replayed(7)));
    }
}
