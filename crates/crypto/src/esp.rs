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
//!
//! [`EspEncryptor::seal_batch_into`] seals a batch of such buffers to the
//! same bytes, in three passes over at most 32 packets. It frames them,
//! each with its plaintext IV block. On AES-NI it then CBC-encrypts them
//! side by side: within a packet CBC is serial, and one `aesenc` chain
//! waits out the instruction's latency on every block, so the packets'
//! chains, IV block first, are placed on lanes before the first block
//! (longest first, each to the least-loaded lane) and run sixteen to four
//! `zmm` registers where the CPU has VAES, four `xmm` registers where it
//! does not. Last it authenticates them together, with
//! [`HmacSha1::mac96_batch`], which on a CPU with AVX-512 hashes sixteen
//! at once: one `sha1rnds4` chain is not waiting on latency (more chains
//! in flight measured no faster), but sixteen 32-bit lanes of a `zmm`
//! register read about three times the bytes a second it does.
//!
//! Opening is the untrusted side. Nothing is decrypted, and the replay
//! window is not consulted, before the ICV verifies; a packet rejected for
//! its ICV, its sequence number or its length is left byte-identical. The
//! one rejected packet that is modified is one that authenticates but
//! whose trailer is malformed: it has been decrypted in place by the time
//! that shows, and its sequence number is not recorded
//! (`tests/untrusted.rs` pins the bytes).

use core::ops::Range;

use crate::aes::{Aes128, BLOCK_SIZE};
#[cfg(target_arch = "x86_64")]
use crate::hmac::MAC_BATCH;
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
    /// Set when [`EspEncryptor::seal_batch_into`] runs its CBC chains in
    /// sixteen VAES lanes rather than four AES-NI ones.
    #[cfg(target_arch = "x86_64")]
    vaes: Option<crate::x86::HasVaes>,
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
            #[cfg(target_arch = "x86_64")]
            vaes: crate::x86::detect().vaes,
        }
    }

    /// [`EspEncryptor::new`] with the VAES lanes withheld, whatever the
    /// CPU: where it has AES-NI, a batch's CBC chains run four `xmm` lanes
    /// wide. It is what the differential tests and the `aesni4` bench
    /// rows hold the sixteen lanes to; a router has no reason to call it.
    pub fn without_vaes(sa: &SecurityAssociation) -> EspEncryptor {
        EspEncryptor {
            #[cfg(target_arch = "x86_64")]
            vaes: None,
            ..EspEncryptor::new(sa)
        }
    }

    /// [`EspEncryptor::new`] on the portable cipher and hash whatever the
    /// CPU: the reference side of the differential tests.
    pub fn portable(sa: &SecurityAssociation) -> EspEncryptor {
        EspEncryptor {
            aes: Aes128::portable(&sa.enc_key),
            hmac: HmacSha1::portable(&sa.auth_key),
            ..EspEncryptor::new(sa)
        }
    }

    /// Continues an SA whose sequence numbers below `next_seq` are already
    /// used — state handed over from another sender of the same SA, or a
    /// test of what happens at the end of the number space. 0 means none
    /// are left.
    pub fn resuming_at(self, next_seq: u32) -> EspEncryptor {
        EspEncryptor { next_seq, ..self }
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
    /// The IV is the sequence number and SPI block encrypted under the
    /// payload key — unpredictable to attackers without the key, and
    /// deterministic so tests and the simulator reproduce byte-exact
    /// output. That block is framed in the IV's place and the CBC chain
    /// starts from zero on it: its first output is the IV, and the chain
    /// goes on from there over the rest, as CBC under that IV does.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::BadLength`] — `buf` is not `sealed_len(payload_len)`
    ///   bytes long.
    /// * [`CryptoError::SeqExhausted`] — the SA has sent 2³² − 1 packets;
    ///   RFC 4303 §3.3.3 forbids cycling the counter, so the SA must be
    ///   replaced. `buf` is untouched.
    pub fn seal_into(&mut self, buf: &mut [u8], payload_len: usize) -> Result<()> {
        let seq = claim_seq(&mut self.next_seq, buf.len(), payload_len)?;
        frame(self.spi, seq, buf, payload_len);
        cbc_encrypt(&self.aes, &[0; BLOCK_SIZE], ciphered(buf))
            .expect("padded body is block-aligned");
        authenticate(&self.hmac, buf);
        Ok(())
    }

    /// [`seal_into`](Self::seal_into) over `(buf, payload_len)` pairs, in
    /// order, stopping in front of the first one it would refuse: returns
    /// how many were sealed, and every buffer after those is untouched.
    /// When the SA is out of sequence numbers the next pair is not even
    /// taken from `bufs`, so an iterator that prepares buffers as it goes
    /// prepares none it cannot have sealed.
    ///
    /// The bytes written are exactly those of that many `seal_into` calls.
    /// What differs, when the cipher runs on AES-NI, is the order of the
    /// work: up to 32 packets are framed, then encrypted, then
    /// authenticated, each pass over all of them. A CBC chain is serial
    /// within a packet but the packets of a batch are independent, so the
    /// encryption pass places every packet's chain, IV block first, on a
    /// lane before the first block — longest first, each to the lane with
    /// the fewest blocks so far — and runs the lanes side by side: sixteen,
    /// four to a `zmm` register, where the CPU has VAES, and four `xmm`
    /// lanes where it has AES-NI alone (one `aesenc` chain leaves the unit
    /// idle three cycles in four). The authentication pass is one
    /// [`HmacSha1::mac96_batch`] call, sixteen messages at a time in
    /// AVX-512 lanes where the CPU has them: SHA-1 is not latency-bound on
    /// the SHA extensions, so the win there is width, not interleaving.
    /// Both are what `kp` buys IPsec. On the table cipher, which is bound
    /// by load ports and not by latency, interleaving measured slower
    /// (EXPERIMENTS.md, "Real-code benchmarks") and the batch is the
    /// plain loop.
    pub fn seal_batch_into<'a>(
        &mut self,
        bufs: impl IntoIterator<Item = (&'a mut [u8], usize)>,
    ) -> usize {
        let mut bufs = bufs.into_iter();
        let mut sealed = 0;
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = self.aes.hw() {
            loop {
                let mut batch: [&mut [u8]; MAC_BATCH] = Default::default();
                let mut framed = 0;
                // Looked at before `bufs` is: see above.
                while framed < MAC_BATCH && self.next_seq != 0 {
                    let Some((buf, payload_len)) = bufs.next() else {
                        break;
                    };
                    let Ok(seq) = claim_seq(&mut self.next_seq, buf.len(), payload_len) else {
                        break;
                    };
                    frame(self.spi, seq, buf, payload_len);
                    batch[framed] = buf;
                    framed += 1;
                }
                let batch = &mut batch[..framed];
                let mut bodies: [&mut [u8]; MAC_BATCH] = Default::default();
                for (body, buf) in bodies.iter_mut().zip(batch.iter_mut()) {
                    *body = ciphered(buf);
                }
                hw.cbc_encrypt_batch(self.vaes, &mut bodies[..framed]);
                authenticate_batch(&self.hmac, batch);
                sealed += framed;
                if framed < MAC_BATCH {
                    return sealed;
                }
            }
        }
        while self.next_seq != 0 {
            let Some((buf, payload_len)) = bufs.next() else {
                break;
            };
            if self.seal_into(buf, payload_len).is_err() {
                break;
            }
            sealed += 1;
        }
        sealed
    }
}

/// Checks `buf_len` against `payload_len` and takes the next sequence
/// number; an error leaves the counter as it was.
fn claim_seq(next_seq: &mut u32, buf_len: usize, payload_len: usize) -> Result<u32> {
    if buf_len != sealed_len(payload_len) {
        return Err(CryptoError::BadLength(buf_len));
    }
    let seq = *next_seq;
    if seq == 0 {
        return Err(CryptoError::SeqExhausted);
    }
    *next_seq = seq.checked_add(1).unwrap_or(0);
    Ok(seq)
}

/// Writes the cleartext of an ESP packet around the payload `buf` holds:
/// SPI and sequence number in front, then the plaintext IV block
/// `seq ‖ SPI ‖ 0`, and padding, pad length and next header behind.
/// [`ciphered`] is then encrypted from a zero chain, which turns that block
/// into the IV, and the ICV is left for [`authenticate`].
fn frame(spi: u32, seq: u32, buf: &mut [u8], payload_len: usize) {
    let end = buf.len() - ICV_LEN;
    let (prefix, body) = buf[..end].split_at_mut(ESP_PREFIX_LEN);
    prefix[..4].copy_from_slice(&spi.to_be_bytes());
    prefix[4..ESP_HEADER_LEN].copy_from_slice(&seq.to_be_bytes());
    prefix[ESP_HEADER_LEN..ESP_HEADER_LEN + 4].copy_from_slice(&seq.to_be_bytes());
    prefix[ESP_HEADER_LEN + 4..ESP_HEADER_LEN + 8].copy_from_slice(&spi.to_be_bytes());
    prefix[ESP_HEADER_LEN + 8..].fill(0);

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
}

/// What of a framed packet the cipher runs over: the IV block and the
/// padded payload, between the header and the ICV.
fn ciphered(buf: &mut [u8]) -> &mut [u8] {
    let end = buf.len() - ICV_LEN;
    &mut buf[ESP_HEADER_LEN..end]
}

/// Writes the ICV over everything in front of it.
fn authenticate(hmac: &HmacSha1, buf: &mut [u8]) {
    let (authed, icv) = buf.split_at_mut(buf.len() - ICV_LEN);
    icv.copy_from_slice(&hmac.mac96(authed));
}

/// [`authenticate`] for up to [`MAC_BATCH`] buffers, in one
/// [`HmacSha1::mac96_batch`] call.
#[cfg(target_arch = "x86_64")]
fn authenticate_batch(hmac: &HmacSha1, bufs: &mut [&mut [u8]]) {
    let mut msgs: [&[u8]; MAC_BATCH] = [&[]; MAC_BATCH];
    for (msg, buf) in msgs.iter_mut().zip(bufs.iter()) {
        *msg = &buf[..buf.len() - ICV_LEN];
    }
    let mut icvs = [[0u8; ICV_LEN]; MAC_BATCH];
    let icvs = &mut icvs[..bufs.len()];
    hmac.mac96_batch(&msgs[..bufs.len()], icvs);
    for (buf, icv) in bufs.iter_mut().zip(icvs) {
        let at = buf.len() - ICV_LEN;
        buf[at..].copy_from_slice(icv);
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

    /// [`EspDecryptor::new`] on the portable cipher and hash whatever the
    /// CPU: the reference side of the differential tests.
    pub fn portable(sa: &SecurityAssociation) -> EspDecryptor {
        EspDecryptor {
            aes: Aes128::portable(&sa.enc_key),
            hmac: HmacSha1::portable(&sa.auth_key),
            ..EspDecryptor::new(sa)
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
    use crate::each_backend;

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
        each_backend(|backend| {
            let (mut enc, _) = backend.esp(&SecurityAssociation::from_seed(0x5eed));
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
        });
    }

    #[test]
    fn in_place_forms_match_seal_and_open() {
        each_backend(|backend| {
            let sa = SecurityAssociation::from_seed(0x5eed);
            let ((mut enc, mut dec), (mut enc_in_place, mut dec_in_place)) =
                (backend.esp(&sa), backend.esp(&sa));
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
        });
    }

    /// Buffers laid out for `seal_into`, stale bytes around the payloads.
    fn laid_out(lengths: &[usize]) -> Vec<(Vec<u8>, usize)> {
        lengths
            .iter()
            .map(|&len| {
                let mut buf = vec![0xeeu8; sealed_len(len)];
                buf[ESP_PREFIX_LEN..ESP_PREFIX_LEN + len].copy_from_slice(&pinned_payload(len));
                (buf, len)
            })
            .collect()
    }

    fn seal_batch(enc: &mut EspEncryptor, bufs: &mut [(Vec<u8>, usize)]) -> usize {
        enc.seal_batch_into(bufs.iter_mut().map(|(buf, len)| (&mut buf[..], *len)))
    }

    /// Inner lengths at the padding extremes, the 64 B / Abilene-mean /
    /// MTU frames, and the empty payload.
    const MIXED: [usize; 7] = [0, 1, 15, 16, 50, 746, 1486];

    /// A batch is N `seal_into` calls, byte for byte and sequence number
    /// for sequence number, whatever the batch's size and mix of lengths
    /// and whichever backend seals it: the single seals it is held to are
    /// the portable ones.
    #[test]
    fn batch_seal_is_n_single_seals() {
        each_backend(|backend| {
            let sa = SecurityAssociation::from_seed(0xba7c4);
            let ((mut batch_enc, _), mut single_enc) =
                (backend.esp(&sa), EspEncryptor::portable(&sa));
            for n in 1..=40usize {
                // Rotate the mix so every lane sees every length.
                let lengths: Vec<usize> = (0..n).map(|i| MIXED[(i * 3 + n) % 7]).collect();
                let (mut batch, mut single) = (laid_out(&lengths), laid_out(&lengths));
                assert_eq!(seal_batch(&mut batch_enc, &mut batch), n);
                for (buf, len) in &mut single {
                    single_enc.seal_into(buf, *len).unwrap();
                }
                assert_eq!(batch, single, "{backend:?}, {n} packets");
                assert_eq!(batch_enc.next_seq(), single_enc.next_seq());
            }
        });
    }

    /// A batch that runs out of sequence numbers midway seals the numbered
    /// prefix, says where it stopped and leaves the rest alone — including
    /// not taking them from the iterator.
    #[test]
    fn batch_seal_stops_where_the_sequence_numbers_do() {
        each_backend(|backend| {
            let sa = SecurityAssociation::from_seed(0xba7c4);
            let ((mut enc, mut dec), (mut single_enc, _)) = (backend.esp(&sa), backend.esp(&sa));
            enc.next_seq = u32::MAX - 5;
            single_enc.next_seq = u32::MAX - 5;
            let lengths = MIXED.repeat(2);
            let (mut batch, untouched) = (laid_out(&lengths), laid_out(&lengths));

            let mut taken = 0;
            let sealed = enc.seal_batch_into(batch.iter_mut().map(|(buf, len)| {
                taken += 1;
                (&mut buf[..], *len)
            }));
            assert_eq!((sealed, taken), (6, 6), "{backend:?}");
            assert_eq!(enc.next_seq(), 0);
            for (i, (buf, len)) in batch.iter().enumerate() {
                if i < 6 {
                    let mut expected = untouched[i].0.clone();
                    single_enc.seal_into(&mut expected, *len).unwrap();
                    assert_eq!(buf, &expected, "packet {i}");
                    assert_eq!(dec.open(buf).unwrap(), pinned_payload(*len));
                } else {
                    assert_eq!(buf, &untouched[i].0, "packet {i} must be untouched");
                }
            }
            // Spent: a further batch seals nothing and takes nothing.
            assert_eq!(seal_batch(&mut enc, &mut batch[6..]), 0);
            assert_eq!(batch[6..], untouched[6..]);
        });
    }

    /// A mis-sized buffer stops a batch like it fails a `seal_into`: the
    /// ones in front are sealed, it and the ones behind are not.
    #[test]
    fn batch_seal_stops_at_a_mis_sized_buffer() {
        each_backend(|backend| {
            let (mut enc, _) = backend.esp(&SecurityAssociation::from_seed(0xba7c4));
            let mut batch = laid_out(&MIXED);
            batch[3].0.push(0xee);
            let before = batch.clone();
            assert_eq!(seal_batch(&mut enc, &mut batch), 3, "{backend:?}");
            assert_eq!(enc.next_seq(), 4);
            assert_eq!(batch[3..], before[3..]);
            assert!(batch[..3].iter().zip(&before).all(|(a, b)| a != b));
        });
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
