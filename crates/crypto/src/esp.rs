//! IPsec ESP (RFC 4303) tunnel-mode encapsulation.
//!
//! Wire format produced here (the outer IP header is the caller's job —
//! in RouteBricks it is added by the `IPsecEncap` Click element):
//!
//! ```text
//! SPI (4) | sequence (4) | IV (16) | ciphertext | ICV (12)
//! ```
//!
//! where `ciphertext = AES-128-CBC(payload | padding | pad-len | next-hdr)`
//! and `ICV = HMAC-SHA1-96(SPI | seq | IV | ciphertext)`. Decapsulation
//! enforces the RFC 4303 64-packet anti-replay window.
//!
//! [`EspEncryptor::seal_into`] and [`EspDecryptor::open_in_place`] work
//! inside a buffer the caller lays out, so a packet that arrives with
//! [`ESP_PREFIX_LEN`] bytes of headroom and [`trailer_len`] bytes of
//! tailroom is encapsulated without its payload moving; `seal` and `open`
//! are the same code behind a `Vec`.

use core::ops::Range;

use crate::aes::{Aes128, BLOCK_SIZE};
use crate::hmac::{HmacSha1, ICV_LEN};
use crate::modes::{cbc_decrypt, cbc_encrypt};
use crate::{CryptoError, Result};

/// Bytes of ESP header before the IV: SPI + sequence number.
pub const ESP_HEADER_LEN: usize = 8;

/// Bytes in front of the payload: SPI + sequence number + IV.
pub const ESP_PREFIX_LEN: usize = ESP_HEADER_LEN + BLOCK_SIZE;

/// Total fixed overhead added by ESP: header + IV + ICV (padding varies).
pub const ESP_FIXED_OVERHEAD: usize = ESP_PREFIX_LEN + ICV_LEN;

/// The "next header" value for IPv4-in-ESP tunnel mode.
pub const NEXT_HEADER_IPV4: u8 = 4;

/// Bytes behind a `payload_len`-byte payload: RFC 4303 padding (0..=15
/// bytes bringing payload + 2 to a block multiple), pad length, next
/// header, ICV.
pub const fn trailer_len(payload_len: usize) -> usize {
    let pad_len = (BLOCK_SIZE - (payload_len + 2) % BLOCK_SIZE) % BLOCK_SIZE;
    pad_len + 2 + ICV_LEN
}

/// Length of the ESP packet carrying a `payload_len`-byte payload.
pub const fn sealed_len(payload_len: usize) -> usize {
    ESP_PREFIX_LEN + payload_len + trailer_len(payload_len)
}

/// Keys and identifiers shared by both ends of an ESP tunnel.
#[derive(Clone)]
pub struct SecurityAssociation {
    /// Security parameter index carried in every packet.
    pub spi: u32,
    /// AES-128 encryption key.
    pub enc_key: [u8; 16],
    /// HMAC-SHA1 authentication key.
    pub auth_key: [u8; 20],
}

impl SecurityAssociation {
    /// Derives a deterministic test/workload SA from a small seed.
    pub fn from_seed(seed: u64) -> SecurityAssociation {
        let mut enc_key = [0u8; 16];
        let mut auth_key = [0u8; 20];
        for (i, b) in enc_key.iter_mut().enumerate() {
            *b = (seed.rotate_left(i as u32) as u8) ^ (i as u8);
        }
        for (i, b) in auth_key.iter_mut().enumerate() {
            *b = (seed.rotate_right(i as u32) as u8) ^ 0xa5;
        }
        SecurityAssociation {
            spi: (seed as u32) | 0x8000_0000,
            enc_key,
            auth_key,
        }
    }
}

impl core::fmt::Debug for SecurityAssociation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(
            f,
            "SecurityAssociation {{ spi: {:#010x}, keys: [redacted] }}",
            self.spi
        )
    }
}

/// Outbound ESP state: cipher, authenticator and the sequence counter.
pub struct EspEncryptor {
    spi: u32,
    aes: Aes128,
    hmac: HmacSha1,
    /// Sequence number of the next packet; 0 (never a valid ESP sequence
    /// number) once all 2³² − 1 have been used.
    next_seq: u32,
}

impl EspEncryptor {
    /// Creates outbound state for an SA (sequence numbers start at 1, per
    /// RFC 4303).
    pub fn new(sa: &SecurityAssociation) -> EspEncryptor {
        EspEncryptor {
            spi: sa.spi,
            aes: Aes128::new(&sa.enc_key),
            hmac: HmacSha1::new(&sa.auth_key),
            next_seq: 1,
        }
    }

    /// Returns the sequence number the next packet will carry, or 0 when
    /// the SA has none left.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Encapsulates `payload` (an inner IPv4 datagram) and returns the ESP
    /// packet. See [`seal_into`](Self::seal_into) for the in-place form.
    ///
    /// # Panics
    ///
    /// Panics when the SA's sequence numbers are exhausted; a sender that
    /// can get there uses [`seal_into`](Self::seal_into) and handles
    /// [`CryptoError::SeqExhausted`].
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; sealed_len(payload.len())];
        out[ESP_PREFIX_LEN..ESP_PREFIX_LEN + payload.len()].copy_from_slice(payload);
        self.seal_into(&mut out, payload.len())
            .expect("SA has sequence numbers left");
        out
    }

    /// Turns `buf` into an ESP packet around the payload it already holds.
    ///
    /// `buf` is [`sealed_len(payload_len)`](sealed_len) bytes with the
    /// payload at `ESP_PREFIX_LEN..ESP_PREFIX_LEN + payload_len`; the
    /// header and IV are written in front of it, padding, trailer and ICV
    /// behind it, and everything after the IV is encrypted where it lies.
    ///
    /// The IV is derived by encrypting the sequence number under the
    /// payload key — unpredictable to attackers without the key, and
    /// deterministic so tests and the simulator reproduce byte-exact
    /// output.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::BadLength`] — `buf` is not `sealed_len(payload_len)`
    ///   bytes long.
    /// * [`CryptoError::SeqExhausted`] — the SA has sent 2³² − 1 packets;
    ///   RFC 4303 §3.3.3 forbids cycling the counter, so the SA must be
    ///   replaced. `buf` is untouched.
    pub fn seal_into(&mut self, buf: &mut [u8], payload_len: usize) -> Result<()> {
        if buf.len() != sealed_len(payload_len) {
            return Err(CryptoError::BadLength(buf.len()));
        }
        let seq = self.next_seq;
        if seq == 0 {
            return Err(CryptoError::SeqExhausted);
        }
        self.next_seq = seq.checked_add(1).unwrap_or(0);

        let (authed, icv) = buf.split_at_mut(buf.len() - ICV_LEN);
        let (prefix, body) = authed.split_at_mut(ESP_PREFIX_LEN);
        prefix[..4].copy_from_slice(&self.spi.to_be_bytes());
        prefix[4..ESP_HEADER_LEN].copy_from_slice(&seq.to_be_bytes());

        let mut iv = [0u8; BLOCK_SIZE];
        iv[..4].copy_from_slice(&seq.to_be_bytes());
        iv[4..8].copy_from_slice(&self.spi.to_be_bytes());
        self.aes.encrypt_block(&mut iv);
        prefix[ESP_HEADER_LEN..].copy_from_slice(&iv);

        // RFC 4303 padding bytes are 1, 2, 3, ...
        let pad_len = body.len() - payload_len - 2;
        for (i, b) in body[payload_len..payload_len + pad_len]
            .iter_mut()
            .enumerate()
        {
            *b = (i + 1) as u8;
        }
        body[payload_len + pad_len] = pad_len as u8;
        body[payload_len + pad_len + 1] = NEXT_HEADER_IPV4;
        cbc_encrypt(&self.aes, &iv, body).expect("padded body is block-aligned");

        icv.copy_from_slice(&self.hmac.mac96(authed));
        Ok(())
    }
}

/// Size of the anti-replay window in sequence numbers.
const REPLAY_WINDOW: u32 = 64;

/// Inbound ESP state: cipher, authenticator and the anti-replay window.
pub struct EspDecryptor {
    aes: Aes128,
    hmac: HmacSha1,
    /// Highest sequence number accepted so far (0 = none).
    highest_seq: u32,
    /// Bitmap of the window below `highest_seq`; bit 0 = `highest_seq`.
    window: u64,
}

impl EspDecryptor {
    /// Creates inbound state for an SA.
    pub fn new(sa: &SecurityAssociation) -> EspDecryptor {
        EspDecryptor {
            aes: Aes128::new(&sa.enc_key),
            hmac: HmacSha1::new(&sa.auth_key),
            highest_seq: 0,
            window: 0,
        }
    }

    /// Verifies, replay-checks and decrypts an ESP packet, returning the
    /// inner payload. See [`open_in_place`](Self::open_in_place) for the
    /// errors and the form that does not copy.
    pub fn open(&mut self, packet: &[u8]) -> Result<Vec<u8>> {
        let mut plain = packet.to_vec();
        let payload = self.open_in_place(&mut plain)?;
        plain.truncate(payload.end);
        plain.drain(..payload.start);
        Ok(plain)
    }

    /// Verifies, replay-checks and decrypts an ESP packet where it lies,
    /// returning where in `packet` the inner payload now sits.
    ///
    /// A packet that fails authentication or the replay check is left
    /// untouched; one that authenticates but carries a malformed trailer
    /// is left decrypted.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::Truncated`] — shorter than the fixed overhead.
    /// * [`CryptoError::BadIcv`] — authenticator mismatch (checked before
    ///   decryption, per RFC 4303 §3.4.4).
    /// * [`CryptoError::Replayed`] — sequence number outside/duplicate in
    ///   the anti-replay window.
    /// * [`CryptoError::BadLength`] / [`CryptoError::BadPadding`] —
    ///   malformed ciphertext.
    pub fn open_in_place(&mut self, packet: &mut [u8]) -> Result<Range<usize>> {
        if packet.len() < ESP_FIXED_OVERHEAD + BLOCK_SIZE {
            return Err(CryptoError::Truncated(packet.len()));
        }
        let (authed, icv) = packet.split_at_mut(packet.len() - ICV_LEN);
        if !self.hmac.verify96(authed, icv) {
            return Err(CryptoError::BadIcv);
        }
        let (prefix, plain) = authed.split_at_mut(ESP_PREFIX_LEN);
        let seq = u32::from_be_bytes([prefix[4], prefix[5], prefix[6], prefix[7]]);
        self.check_replay(seq)?;

        let iv: [u8; BLOCK_SIZE] = prefix[ESP_HEADER_LEN..]
            .try_into()
            .expect("slice is 16 bytes");
        cbc_decrypt(&self.aes, &iv, plain)?;

        let next_header = plain[plain.len() - 1];
        if next_header != NEXT_HEADER_IPV4 {
            return Err(CryptoError::BadPadding);
        }
        let pad_len = usize::from(plain[plain.len() - 2]);
        if pad_len + 2 > plain.len() {
            return Err(CryptoError::BadPadding);
        }
        let payload_len = plain.len() - 2 - pad_len;
        // RFC 4303 monotone padding: 1, 2, 3, ...
        for (i, &b) in plain[payload_len..payload_len + pad_len].iter().enumerate() {
            if b != (i + 1) as u8 {
                return Err(CryptoError::BadPadding);
            }
        }
        self.mark_seen(seq);
        Ok(ESP_PREFIX_LEN..ESP_PREFIX_LEN + payload_len)
    }

    /// Rejects sequence numbers that are duplicates or too old.
    fn check_replay(&self, seq: u32) -> Result<()> {
        if seq == 0 {
            return Err(CryptoError::Replayed(0));
        }
        if seq > self.highest_seq {
            return Ok(());
        }
        let offset = self.highest_seq - seq;
        if offset >= REPLAY_WINDOW {
            return Err(CryptoError::Replayed(seq));
        }
        if self.window & (1u64 << offset) != 0 {
            return Err(CryptoError::Replayed(seq));
        }
        Ok(())
    }

    /// Records an accepted sequence number (call only after ICV passes).
    fn mark_seen(&mut self, seq: u32) {
        if seq > self.highest_seq {
            let shift = seq - self.highest_seq;
            self.window = if shift >= REPLAY_WINDOW {
                0
            } else {
                self.window << shift
            };
            self.window |= 1;
            self.highest_seq = seq;
        } else {
            self.window |= 1u64 << (self.highest_seq - seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (EspEncryptor, EspDecryptor) {
        let sa = SecurityAssociation::from_seed(0xfeed);
        (EspEncryptor::new(&sa), EspDecryptor::new(&sa))
    }

    #[test]
    fn seal_open_round_trip_various_sizes() {
        let (mut enc, mut dec) = pair();
        for len in [0usize, 1, 13, 14, 15, 16, 63, 64, 100, 1400] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = enc.seal(&payload);
            assert!(sealed.len() >= payload.len() + ESP_FIXED_OVERHEAD);
            assert_eq!(dec.open(&sealed).unwrap(), payload, "len {len}");
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (mut enc, _) = pair();
        let payload = vec![0x42u8; 64];
        let sealed = enc.seal(&payload);
        let body = &sealed[ESP_HEADER_LEN + BLOCK_SIZE..sealed.len() - ICV_LEN];
        assert!(!body.windows(16).any(|w| w == &payload[..16]));
    }

    #[test]
    fn sequence_numbers_increment_from_one() {
        let (mut enc, _) = pair();
        let a = enc.seal(b"x");
        let b = enc.seal(b"x");
        assert_eq!(u32::from_be_bytes([a[4], a[5], a[6], a[7]]), 1);
        assert_eq!(u32::from_be_bytes([b[4], b[5], b[6], b[7]]), 2);
        // Same payload, different seq → different ciphertext (IV varies).
        assert_ne!(a[8..], b[8..]);
    }

    #[test]
    fn tampering_is_detected() {
        let (mut enc, mut dec) = pair();
        let mut sealed = enc.seal(b"authentic data");
        sealed[20] ^= 0x01;
        assert_eq!(dec.open(&sealed), Err(CryptoError::BadIcv));
    }

    #[test]
    fn truncated_packet_is_rejected() {
        let (_, mut dec) = pair();
        assert!(matches!(
            dec.open(&[0u8; 20]),
            Err(CryptoError::Truncated(20))
        ));
    }

    #[test]
    fn replay_is_rejected() {
        let (mut enc, mut dec) = pair();
        let sealed = enc.seal(b"once only");
        assert!(dec.open(&sealed).is_ok());
        assert_eq!(dec.open(&sealed), Err(CryptoError::Replayed(1)));
    }

    #[test]
    fn out_of_order_within_window_is_accepted() {
        let (mut enc, mut dec) = pair();
        let first = enc.seal(b"1");
        let second = enc.seal(b"2");
        let third = enc.seal(b"3");
        assert!(dec.open(&third).is_ok());
        assert!(dec.open(&first).is_ok());
        assert!(dec.open(&second).is_ok());
        // But replays of any of them still fail.
        assert!(dec.open(&first).is_err());
    }

    #[test]
    fn far_out_of_window_is_rejected() {
        let sa = SecurityAssociation::from_seed(0xbeef);
        let mut enc = EspEncryptor::new(&sa);
        let mut dec = EspDecryptor::new(&sa);
        let old = enc.seal(b"ancient");
        // Advance far beyond the window.
        let mut latest = Vec::new();
        for _ in 0..(REPLAY_WINDOW + 5) {
            latest = enc.seal(b"new");
        }
        assert!(dec.open(&latest).is_ok());
        assert!(matches!(dec.open(&old), Err(CryptoError::Replayed(1))));
    }

    #[test]
    fn wrong_sa_cannot_open() {
        let (mut enc, _) = pair();
        let other = SecurityAssociation::from_seed(0x0bad);
        let mut dec = EspDecryptor::new(&other);
        assert_eq!(dec.open(&enc.seal(b"secret")), Err(CryptoError::BadIcv));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Inner lengths covering every padding length, the Abilene mean and
    /// the MTU.
    fn pinned_lengths() -> impl Iterator<Item = usize> {
        (20..=84).chain([746, 1486])
    }

    fn pinned_payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// The literals are the output of the byte-oriented, copy-out `seal`
    /// this crate had before the word-oriented kernel: the wire format is
    /// not allowed to move with the implementation.
    #[test]
    fn seal_wire_format_is_pinned() {
        let mut enc = EspEncryptor::new(&SecurityAssociation::from_seed(0x5eed));
        let mut all = crate::Sha1::new();
        for len in pinned_lengths() {
            let sealed = enc.seal(&pinned_payload(len));
            assert_eq!(sealed.len(), sealed_len(len));
            if len == 20 {
                assert_eq!(
                    hex(&sealed),
                    "80005eed00000001034868aff2c0bb41368f8c9cb4b6d1cd8d5f4f5726e087b7\
                     973058877eebeb7f80c2dd347413ace58c1d8209b7a361698d4f54205c304755\
                     e30dc43b"
                );
            }
            all.update(&sealed);
        }
        assert_eq!(
            hex(&all.finalize()),
            "ed8f91a3aa317b8bf14a0dea678f68d95a1c9e24"
        );
    }

    #[test]
    fn in_place_forms_match_seal_and_open() {
        let sa = SecurityAssociation::from_seed(0x5eed);
        let (mut enc, mut enc_in_place) = (EspEncryptor::new(&sa), EspEncryptor::new(&sa));
        let (mut dec, mut dec_in_place) = (EspDecryptor::new(&sa), EspDecryptor::new(&sa));
        for len in pinned_lengths() {
            let payload = pinned_payload(len);
            let sealed = enc.seal(&payload);

            // Stale bytes around the payload must not leak into the packet.
            let mut buf = vec![0xeeu8; sealed_len(len)];
            buf[ESP_PREFIX_LEN..ESP_PREFIX_LEN + len].copy_from_slice(&payload);
            enc_in_place.seal_into(&mut buf, len).unwrap();
            assert_eq!(buf, sealed, "len {len}");

            let range = dec_in_place.open_in_place(&mut buf).unwrap();
            assert_eq!(range, ESP_PREFIX_LEN..ESP_PREFIX_LEN + len);
            assert_eq!(buf[range], dec.open(&sealed).unwrap()[..], "len {len}");
        }
    }

    #[test]
    fn seal_into_rejects_a_mis_sized_buffer() {
        let (mut enc, _) = pair();
        let mut buf = vec![0u8; sealed_len(20) + 1];
        assert_eq!(
            enc.seal_into(&mut buf, 20),
            Err(CryptoError::BadLength(sealed_len(20) + 1))
        );
        assert_eq!(enc.next_seq(), 1, "a rejected call uses no sequence number");
    }

    /// RFC 4303 §3.3.3: the counter never cycles. The last two numbers go
    /// out and are accepted; after them the SA is finished.
    #[test]
    fn sequence_numbers_run_out_instead_of_wrapping() {
        let (mut enc, mut dec) = pair();
        enc.next_seq = u32::MAX - 1;
        for seq in [u32::MAX - 1, u32::MAX] {
            let sealed = enc.seal(b"late");
            assert_eq!(sealed[4..8], seq.to_be_bytes());
            assert_eq!(dec.open(&sealed).unwrap(), b"late");
        }
        let mut buf = vec![0xeeu8; sealed_len(4)];
        for _ in 0..2 {
            assert_eq!(enc.seal_into(&mut buf, 4), Err(CryptoError::SeqExhausted));
            assert!(buf.iter().all(|&b| b == 0xee), "buffer untouched");
        }
    }

    #[test]
    fn overhead_matches_constant() {
        let (mut enc, _) = pair();
        // A payload of 14 bytes + 2 trailer = 16, zero padding needed.
        let sealed = enc.seal(&[0u8; 14]);
        assert_eq!(sealed.len(), 14 + 2 + ESP_FIXED_OVERHEAD);
    }
}
