//! SHA-1 (RFC 3174), the hash inside ESP's HMAC-SHA1-96 authenticator.
//!
//! Two compression functions sit behind [`Sha1`]: the unrolled portable
//! one below, and on an x86-64 CPU with the SHA extensions `crate::x86`'s
//! `sha1rnds4` one. [`Sha1::new`] asks the CPU once and the hasher (and
//! every clone of it, which is how [`crate::hmac`] resumes its midstates)
//! remembers the answer; `update` and `finalize` look at it once per call
//! and hand over all the whole blocks they have. [`Sha1::portable`] is
//! the reference the hardware is held equal to.

/// SHA-1 digest length in bytes.
pub const DIGEST_LEN: usize = 20;

/// SHA-1 block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// An incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    length_bits: u64,
    /// Set when the CPU's SHA-1 instructions do the compressing.
    #[cfg(target_arch = "x86_64")]
    hw: Option<crate::x86::HasSha>,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher, on the CPU's SHA-1 instructions if it has
    /// them.
    pub fn new() -> Sha1 {
        Sha1 {
            #[cfg(target_arch = "x86_64")]
            hw: crate::x86::detect().sha,
            ..Sha1::portable()
        }
    }

    /// [`Sha1::new`] without asking the CPU: the portable compression
    /// function whatever the machine, for the differential tests and the
    /// `tables` bench rows.
    pub fn portable() -> Sha1 {
        Sha1 {
            state: [
                0x6745_2301,
                0xefcd_ab89,
                0x98ba_dcfe,
                0x1032_5476,
                0xc3d2_e1f0,
            ],
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            length_bits: 0,
            #[cfg(target_arch = "x86_64")]
            hw: None,
        }
    }

    /// The chaining value: the state after the whole blocks absorbed so
    /// far, which for an HMAC midstate is all of them.
    pub(crate) fn state(&self) -> [u32; 5] {
        self.state
    }

    /// Compresses the whole blocks of `blocks` into `state` with this
    /// hasher's compression function.
    pub(crate) fn compress_into(&self, state: &mut [u32; 5], blocks: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = self.hw {
            return crate::x86::sha1_compress(detected, state, blocks);
        }
        for block in blocks.chunks_exact(BLOCK_LEN) {
            compress(state, block.try_into().expect("exact chunk"));
        }
    }

    /// Compresses the whole blocks of `blocks` into the state.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        let mut state = self.state;
        self.compress_into(&mut state, blocks);
        self.state = state;
    }

    /// Compresses the (full) buffer into the state.
    fn compress_buffer(&mut self) {
        let buffer = self.buffer;
        self.compress_blocks(&buffer);
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            self.compress_buffer();
            self.buffered = 0;
        }
        // Whole blocks are hashed where they lie.
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        self.compress_blocks(whole);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // 0x80, zeros, then the bit length in the last 8 bytes of a block:
        // one block when the length still fits behind the data, else two.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered + 1 > BLOCK_LEN - 8 {
            self.compress_buffer();
            self.buffer.fill(0);
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&self.length_bits.to_be_bytes());
        self.compress_buffer();
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }
}

/// Round constants of the four 20-round groups.
const K: [u32; 4] = [0x5a82_7999, 0x6ed9_eba1, 0x8f1b_bcdc, 0xca62_c1d6];

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (!b & d)
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (b & d) | (c & d)
}

/// The SHA-1 compression function over one 64-byte block.
///
/// The message schedule is a 16-word ring (`w[t] = rol(w[t-3] ^ w[t-8] ^
/// w[t-14] ^ w[t-16], 1)` never reaches further back), and the 80 rounds
/// are written out in groups of five with the roles of `a..e` rotating
/// through the arguments instead of the values moving between variables.
fn compress(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // Schedule word `t`: as loaded for t < 16 ...
    macro_rules! load {
        ($t:expr) => {
            w[$t]
        };
    }
    // ... and mixed from the ring, replacing word `t - 16`, after that.
    macro_rules! mix {
        ($t:expr) => {{
            let t: usize = $t;
            w[t & 15] =
                (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15]).rotate_left(1);
            w[t & 15]
        }};
    }
    // One round: `e` becomes the next round's `a`, `b` its `c`.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $w:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add($w);
            $b = $b.rotate_left(30);
        };
    }
    // Five rounds from `t`, after which `a..e` are back in their places.
    macro_rules! five {
        ($f:ident, $k:expr, $word:ident, $t:expr) => {
            round!(a, b, c, d, e, $f, $k, $word!($t));
            round!(e, a, b, c, d, $f, $k, $word!($t + 1));
            round!(d, e, a, b, c, $f, $k, $word!($t + 2));
            round!(c, d, e, a, b, $f, $k, $word!($t + 3));
            round!(b, c, d, e, a, $f, $k, $word!($t + 4));
        };
    }

    five!(ch, K[0], load, 0);
    five!(ch, K[0], load, 5);
    five!(ch, K[0], load, 10);
    round!(a, b, c, d, e, ch, K[0], load!(15));
    round!(e, a, b, c, d, ch, K[0], mix!(16));
    round!(d, e, a, b, c, ch, K[0], mix!(17));
    round!(c, d, e, a, b, ch, K[0], mix!(18));
    round!(b, c, d, e, a, ch, K[0], mix!(19));
    five!(parity, K[1], mix, 20);
    five!(parity, K[1], mix, 25);
    five!(parity, K[1], mix, 30);
    five!(parity, K[1], mix, 35);
    five!(maj, K[2], mix, 40);
    five!(maj, K[2], mix, 45);
    five!(maj, K[2], mix, 50);
    five!(maj, K[2], mix, 55);
    five!(parity, K[3], mix, 60);
    five!(parity, K[3], mix, 65);
    five!(parity, K[3], mix, 70);
    five!(parity, K[3], mix, 75);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{each_backend, Backend};

    fn hexdigest_on(backend: Backend, data: &[u8]) -> String {
        let mut h = backend.sha1();
        h.update(data);
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 3174 / FIPS 180 standard test vectors.
    #[test]
    fn standard_vectors() {
        each_backend(|backend| {
            let hexdigest = |data: &[u8]| hexdigest_on(backend, data);
            assert_eq!(hexdigest(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
            assert_eq!(
                hexdigest(b"abc"),
                "a9993e364706816aba3e25717850c26c9cd0d89d"
            );
            assert_eq!(
                hexdigest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
            );
            assert_eq!(
                hexdigest(&[b'a'; 1_000_000]),
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
            );
        });
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let one_shot = Sha1::digest(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 7, 63, 64, 65, 128] {
            let mut h = Sha1::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk}");
        }
    }

    /// Lengths where the padding changes shape: 55 is the last that pads
    /// within its block, 56 and 63 spill the length into a second block,
    /// 64 leaves an empty buffer, 119 and 120 repeat that a block later.
    /// The digests are coreutils `sha1sum` over `len` bytes of `Z`.
    #[test]
    fn padding_boundary_lengths() {
        let cases = [
            (55usize, "55b80d96c523566d3c8a3b8de03a5549fd04915c"),
            (56, "bfe3466cd0dcd5e29b11e7885010fa7c61b737a6"),
            (63, "7db05d8e931f0a6731328e4923fbda65ced2f5db"),
            (64, "eece723b8a411e8c53e7bf49514234da5d394236"),
            (119, "791fa3ef300032b7b8efab39b22dead4327cba55"),
            (120, "856ffb270b6b9340b620653753dfc5bafaff0a1f"),
        ];
        each_backend(|backend| {
            for (len, expected) in cases {
                let data = vec![b'Z'; len];
                assert_eq!(
                    hexdigest_on(backend, &data),
                    expected,
                    "one-shot, len {len}"
                );
                // Split so that the buffer is part-filled, exactly filled
                // and empty when the second piece arrives.
                for split in [1, 55, 56, 63, 64, len - 1] {
                    let (head, tail) = data.split_at(split.min(len));
                    let mut h = backend.sha1();
                    h.update(head);
                    h.update(tail);
                    assert_eq!(
                        h.finalize(),
                        Sha1::digest(&data),
                        "len {len} split at {split}"
                    );
                }
            }
        });
    }
}
