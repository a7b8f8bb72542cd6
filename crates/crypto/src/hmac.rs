//! HMAC-SHA1 (RFC 2104), including the truncated HMAC-SHA1-96 form ESP
//! uses as its integrity check value.
//!
//! [`HmacSha1::mac96`] authenticates one message; [`HmacSha1::mac96_batch`]
//! a batch of them, and where the CPU has AVX-512 it hashes sixteen at a
//! time, one per 32-bit lane (`crate::x86::sha1_lanes16`): a batch of
//! packets is independent messages, and sixteen lanes read about three
//! times the bytes a second that one `sha1rnds4` chain does.

use crate::sha1::{Sha1, BLOCK_LEN, DIGEST_LEN};

/// Length in bytes of the truncated ESP authenticator (RFC 2404).
pub const ICV_LEN: usize = 12;

/// How many messages [`HmacSha1::mac96_batch`] schedules at once; a longer
/// batch is taken this many at a time.
pub(crate) const MAC_BATCH: usize = 32;

/// A keyed HMAC-SHA1 instance.
///
/// The key only enters through the first block of each hash (`key ^ ipad`
/// and `key ^ opad`), so both are compressed once here and every MAC
/// resumes from those midstates: `⌈(len + 9) / 64⌉ + 1` compressions per
/// message instead of `+ 3`.
#[derive(Clone)]
pub struct HmacSha1 {
    /// SHA-1 having absorbed `key ^ ipad`.
    inner: Sha1,
    /// SHA-1 having absorbed `key ^ opad`.
    outer: Sha1,
    /// Set when [`HmacSha1::mac96_batch`] hashes sixteen messages at once.
    #[cfg(target_arch = "x86_64")]
    lanes: Option<crate::x86::HasAvx512>,
}

impl HmacSha1 {
    /// Creates an instance from a key of any length (long keys are hashed
    /// first, per RFC 2104), on the CPU's SHA-1 instructions and AVX-512
    /// lanes where it has them.
    pub fn new(key: &[u8]) -> HmacSha1 {
        HmacSha1 {
            #[cfg(target_arch = "x86_64")]
            lanes: crate::x86::detect().avx512,
            ..HmacSha1::keyed(Sha1::new(), key)
        }
    }

    /// [`HmacSha1::new`] over [`Sha1::portable`] and without lanes: the
    /// reference side of the differential tests.
    pub fn portable(key: &[u8]) -> HmacSha1 {
        HmacSha1::keyed(Sha1::portable(), key)
    }

    /// Keys an instance whose hashes all start as clones of `fresh`.
    fn keyed(fresh: Sha1, key: &[u8]) -> HmacSha1 {
        let mut normalized = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            normalized[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            normalized[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = fresh.clone();
            h.update(&normalized.map(|b| b ^ pad));
            h
        };
        HmacSha1 {
            inner: keyed(0x36),
            outer: keyed(0x5c),
            #[cfg(target_arch = "x86_64")]
            lanes: None,
        }
    }

    /// Computes the full 20-byte MAC of `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        inner.update(data);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Computes the 96-bit truncated MAC used as the ESP ICV.
    pub fn mac96(&self, data: &[u8]) -> [u8; ICV_LEN] {
        let full = self.mac(data);
        let mut out = [0u8; ICV_LEN];
        out.copy_from_slice(&full[..ICV_LEN]);
        out
    }

    /// Writes `mac96(msgs[i])` into `icvs[i]` for every message.
    ///
    /// On a CPU with AVX-512 the messages are hashed sixteen at a time,
    /// longest first so that the lanes run out of work together; the last
    /// few, once too few are left to fill the lanes, finish one at a
    /// time. Elsewhere this is the loop over [`HmacSha1::mac96`].
    /// The bytes are the same either way.
    ///
    /// # Panics
    ///
    /// Panics when `msgs` and `icvs` differ in length.
    pub fn mac96_batch(&self, msgs: &[&[u8]], icvs: &mut [[u8; ICV_LEN]]) {
        assert_eq!(msgs.len(), icvs.len(), "one ICV per message");
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = self.lanes.filter(|_| msgs.len() >= lanes::MIN_BUSY) {
            for (msgs, icvs) in msgs.chunks(MAC_BATCH).zip(icvs.chunks_mut(MAC_BATCH)) {
                lanes::mac96(self, detected, msgs, icvs);
            }
            return;
        }
        for (msg, icv) in msgs.iter().zip(icvs) {
            *icv = self.mac96(msg);
        }
    }

    /// [`HmacSha1::new`] with the AVX-512 lanes withheld, whatever the
    /// CPU: the per-message fallback of [`HmacSha1::mac96_batch`].
    #[cfg(test)]
    pub(crate) fn without_lanes(key: &[u8]) -> HmacSha1 {
        HmacSha1::keyed(Sha1::new(), key)
    }

    /// Verifies a 96-bit ICV in constant time.
    pub fn verify96(&self, data: &[u8], icv: &[u8]) -> bool {
        if icv.len() != ICV_LEN {
            return false;
        }
        let expected = self.mac96(data);
        // Constant-time comparison: accumulate differences, decide once.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(icv) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// [`HmacSha1::mac96_batch`] on AVX-512: sixteen messages in flight.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{HmacSha1, ICV_LEN, MAC_BATCH};
    use crate::sha1::{BLOCK_LEN, DIGEST_LEN};
    use crate::x86::{sha1_lanes16, HasAvx512, Sha1States16};
    use core::cmp::Reverse;

    const LANES: usize = 16;

    /// Fewer busy lanes than this, with no message left to start, and the
    /// lanes stop: what they hold finishes on the one-message compression
    /// function. A batch this short never starts them. One sixteen-lane
    /// step costs what 4.0–4.9 `sha1rnds4` blocks do on the reference
    /// host (EXPERIMENTS.md, PR 25), so a step with fewer lanes busy would
    /// be slower than hashing them one after another.
    pub(super) const MIN_BUSY: usize = 5;

    /// Bits an HMAC hash has absorbed when it ends after `len` bytes: the
    /// key block in front of them.
    fn length_bits(len: usize) -> [u8; 8] {
        (((BLOCK_LEN + len) as u64) * 8).to_be_bytes()
    }

    /// Where one lane is in its message.
    struct Lane<'m> {
        /// Index in the batch of the message this lane hashes; `None`
        /// while it idles.
        job: Option<usize>,
        /// The message's whole blocks not yet hashed, in place.
        body: &'m [[u8; BLOCK_LEN]],
        /// The inner hash's padded tail (one or two blocks), then the
        /// outer hash's one block. An idle lane hashes `pad[0]` for
        /// nothing.
        pad: [[u8; BLOCK_LEN]; 2],
        /// The next block of `pad` to hash, and where they end.
        pad_at: usize,
        pad_end: usize,
        /// Whether the lane is on the outer hash.
        outer: bool,
    }

    impl<'m> Lane<'m> {
        fn idle() -> Lane<'m> {
            Lane {
                job: None,
                body: &[],
                pad: [[0; BLOCK_LEN]; 2],
                pad_at: 0,
                pad_end: 0,
                outer: false,
            }
        }

        /// Takes message `job`, the inner hash from the top: its whole
        /// blocks where they lie, its last bytes, the `0x80`, the zeros and
        /// the bit length in `pad`.
        fn start(&mut self, job: usize, msg: &'m [u8]) {
            let (body, tail) = msg.as_chunks::<BLOCK_LEN>();
            self.pad = [[0; BLOCK_LEN]; 2];
            self.pad[0][..tail.len()].copy_from_slice(tail);
            self.pad[0][tail.len()] = 0x80;
            self.pad_end = if tail.len() < BLOCK_LEN - 8 { 1 } else { 2 };
            self.pad[self.pad_end - 1][BLOCK_LEN - 8..].copy_from_slice(&length_bits(msg.len()));
            (self.job, self.body, self.pad_at, self.outer) = (Some(job), body, 0, false);
        }

        /// The block this lane hashes next.
        fn block(&self) -> &[u8; BLOCK_LEN] {
            self.body.first().unwrap_or(&self.pad[self.pad_at])
        }

        /// Moves past the block just hashed; true when it ended a hash.
        fn advance(&mut self) -> bool {
            if let [_, rest @ ..] = self.body {
                self.body = rest;
                return false;
            }
            if self.job.is_none() {
                return false;
            }
            self.pad_at += 1;
            self.pad_at == self.pad_end
        }

        /// At the end of a hash that left `state`: the inner digest becomes
        /// the outer hash's one block and `state` the outer midstate
        /// (true), or the outer digest's first bytes are the ICV and the
        /// lane idles (false).
        fn end_hash(
            &mut self,
            state: &mut [u32; 5],
            outer: &[u32; 5],
            icvs: &mut [[u8; ICV_LEN]],
        ) -> bool {
            let mut digest = [0u8; DIGEST_LEN];
            for (bytes, word) in digest.chunks_exact_mut(4).zip(*state) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
            let job = self.job.expect("only a busy lane ends a hash");
            if self.outer {
                icvs[job].copy_from_slice(&digest[..ICV_LEN]);
                (self.job, self.pad_at, self.outer) = (None, 0, false);
                return false;
            }
            let block = &mut self.pad[0];
            block.fill(0);
            block[..DIGEST_LEN].copy_from_slice(&digest);
            block[DIGEST_LEN] = 0x80;
            block[BLOCK_LEN - 8..].copy_from_slice(&length_bits(DIGEST_LEN));
            (self.pad_at, self.pad_end, self.outer) = (0, 1, true);
            *state = *outer;
            true
        }
    }

    /// `mac96_batch` over at most [`MAC_BATCH`] messages.
    pub(super) fn mac96(
        hmac: &HmacSha1,
        detected: HasAvx512,
        msgs: &[&[u8]],
        icvs: &mut [[u8; ICV_LEN]],
    ) {
        // Longest first (LPT): a lane that frees up takes the longest
        // message left, so the lanes run dry at about the same step.
        let mut order = [0u8; MAC_BATCH];
        let order = &mut order[..msgs.len()];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i as u8;
        }
        order.sort_unstable_by_key(|&i| Reverse(msgs[usize::from(i)].len()));
        let mut queue = order.iter().map(|&i| usize::from(i));

        let (inner, outer) = (hmac.inner.state(), hmac.outer.state());
        let mut lanes: [Lane; LANES] = core::array::from_fn(|_| Lane::idle());
        let mut states = Sha1States16::new();
        let mut busy = 0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if let Some(job) = queue.next() {
                lane.start(job, msgs[job]);
                states.set_lane(l, &inner);
                busy += 1;
            }
        }
        // With a message left to start every lane is busy, so this runs
        // until the queue is empty and the lanes have thinned out.
        while busy >= MIN_BUSY {
            let blocks = lanes.each_ref().map(Lane::block);
            sha1_lanes16(detected, &mut states, &blocks);
            for (l, lane) in lanes.iter_mut().enumerate() {
                if !lane.advance() {
                    continue;
                }
                let mut state = states.lane(l);
                if lane.end_hash(&mut state, &outer, icvs) {
                    states.set_lane(l, &state);
                } else if let Some(job) = queue.next() {
                    lane.start(job, msgs[job]);
                    states.set_lane(l, &inner);
                } else {
                    busy -= 1;
                }
            }
        }
        // What is left in flight, one message at a time, every block of a
        // hash in one call.
        let sha = &hmac.inner;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.job.is_none() {
                continue;
            }
            let mut state = states.lane(l);
            loop {
                sha.compress_into(&mut state, lane.body.as_flattened());
                sha.compress_into(
                    &mut state,
                    lane.pad[lane.pad_at..lane.pad_end].as_flattened(),
                );
                lane.body = &[];
                if !lane.end_hash(&mut state, &outer, icvs) {
                    break;
                }
            }
        }
    }
}

impl core::fmt::Debug for HmacSha1 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("HmacSha1 { key: [redacted] }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 2202 HMAC-SHA1 test cases 1–7.
    #[test]
    fn rfc2202_vectors() {
        let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                hex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
                vec![0xcd; 50],
                "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
            ),
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
                    .to_vec(),
                "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
            ),
        ];
        crate::each_backend(|backend| {
            for (key, data, expected) in &cases {
                let mac = backend.hmac(key).mac(data);
                assert_eq!(mac.to_vec(), hex(expected));
            }
        });
    }

    #[test]
    fn mac96_is_prefix_of_full_mac() {
        let h = HmacSha1::new(b"key");
        let full = h.mac(b"message");
        assert_eq!(h.mac96(b"message"), full[..12]);
    }

    /// Lengths where the inner hash's padding changes shape (55/56, 63/64,
    /// 119/120), around them, and long ones, mixed so that lanes refill
    /// (past 16 messages) and the batch is taken in two (past 32).
    fn boundary_batch(n: usize) -> Vec<Vec<u8>> {
        const LENS: [usize; 13] = [0, 1, 55, 56, 63, 64, 65, 119, 120, 200, 746, 1_486, 1_600];
        (0..n)
            .map(|i| {
                let len = LENS[(i * 5 + n) % LENS.len()];
                (0..len).map(|b| (b * 13 + i) as u8).collect()
            })
            .collect()
    }

    fn batch_icvs(h: &HmacSha1, msgs: &[Vec<u8>]) -> Vec<[u8; ICV_LEN]> {
        let msgs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut icvs = vec![[0u8; ICV_LEN]; msgs.len()];
        h.mac96_batch(&msgs, &mut icvs);
        icvs
    }

    /// The batch form is the single one per message on every backend:
    /// the router's (AVX-512 lanes where the CPU has them), the same one
    /// with the lanes withheld, and the portable one.
    #[test]
    fn mac96_batch_is_n_mac96() {
        if !crate::hardware().avx512 {
            eprintln!("skipped: no avx512 (the lanes are not exercised)");
        }
        let key = b"batch key";
        let reference = HmacSha1::portable(key);
        for h in [
            HmacSha1::new(key),
            HmacSha1::without_lanes(key),
            HmacSha1::portable(key),
        ] {
            for n in 0..=40 {
                let msgs = boundary_batch(n);
                let expected: Vec<_> = msgs.iter().map(|m| reference.mac96(m)).collect();
                assert_eq!(batch_icvs(&h, &msgs), expected, "{n} messages");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one ICV per message")]
    fn mac96_batch_wants_a_slot_per_message() {
        HmacSha1::new(b"key").mac96_batch(&[b"one", b"two"], &mut [[0; ICV_LEN]]);
    }

    #[test]
    fn verify96_accepts_good_rejects_bad() {
        let h = HmacSha1::new(b"key");
        let mut icv = h.mac96(b"payload").to_vec();
        assert!(h.verify96(b"payload", &icv));
        icv[0] ^= 1;
        assert!(!h.verify96(b"payload", &icv));
        assert!(!h.verify96(b"payload", &icv[..11]));
        assert!(!h.verify96(b"other payload", &h.mac96(b"payload")));
    }
}
