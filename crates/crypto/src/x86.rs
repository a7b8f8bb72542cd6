//! The CPU's own AES and SHA-1 rounds: x86-64 AES-NI and SHA extensions.
//!
//! Every `unsafe` block and every `core::arch` name of this crate lives in
//! this file (`scripts/ci.sh` fails the build otherwise). What it exports
//! is safe: [`detect`] is the only place a [`HasAes`] or [`HasSha`] token
//! is minted, each after `is_x86_feature_detected!` has seen the features
//! the code behind it is compiled for, and every entry point either takes
//! a token or is a method of [`AesNi`], which cannot be built without one.
//! All memory is reached through slices and array references; the only
//! raw-pointer operations are the two unaligned 16-byte moves in [`load`]
//! and [`store`].
//!
//! Nothing here is indexed by secret bytes: `aesenc`/`aesdec` and
//! `sha1rnds4` are fixed-latency register instructions.
//!
//! The portable table cipher and the unrolled SHA-1 are what these are
//! held equal to (`tests/backends.rs`), and what every other CPU runs.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128,
    _mm_aesenclast_si128, _mm_aesimc_si128, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
    _mm_sha1rnds4_epu32, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};
use core::ops::Range;

/// Proof that this CPU executes `aesenc`/`aesdec`. Only [`detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HasAes(());

/// Proof that this CPU executes the SHA-1 instructions and the SSSE3 and
/// SSE4.1 ones around them. Only [`detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HasSha(());

/// Asks the CPU, once per call (the answer is cached by `std`), which of
/// the two backends it can run. The cipher and the hash are independent:
/// AES-NI (2010) is a decade older than the SHA extensions.
pub(crate) fn detect() -> (Option<HasAes>, Option<HasSha>) {
    let aes = std::arch::is_x86_feature_detected!("aes");
    let sha = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    (aes.then_some(HasAes(())), sha.then_some(HasSha(())))
}

/// How many independent CBC chains [`AesNi::cbc_encrypt_lanes`] keeps in
/// flight. One chain is bound by `aesenc`'s latency (a block cannot start
/// before the previous one is out); four fill that latency with other
/// packets' rounds on a core that starts one `aesenc` a cycle, and their
/// states and chain values take half the sixteen `xmm` registers, which
/// leaves the other half to round keys.
pub(crate) const CBC_LANES: usize = 4;

/// Blocks [`AesNi::cbc_decrypt`] runs side by side (CBC decryption has no
/// chain to wait for).
const DECRYPT_WIDTH: usize = 8;

#[inline(always)]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is a reference to 16 readable bytes and `loadu` has
    // no alignment requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline(always)]
fn store(value: __m128i, block: &mut [u8; 16]) {
    // SAFETY: `block` is an exclusive reference to 16 writable bytes and
    // `storeu` has no alignment requirement; SSE2 is baseline.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), value) }
}

/// The 16 bytes of `data` at `at`.
#[inline(always)]
fn block_at(data: &mut [u8], at: usize) -> &mut [u8; 16] {
    (&mut data[at..at + 16])
        .try_into()
        .expect("slice is 16 bytes")
}

/// AES-128 round keys in the form `aesenc` and `aesdec` take them.
#[derive(Clone)]
pub(crate) struct AesNi {
    /// What makes calling the `aes` code below sound.
    _detected: HasAes,
    enc: [__m128i; 11],
    /// The equivalent inverse cipher's schedule: `enc` reversed, with
    /// `aesimc` (InvMixColumns) applied to rounds 1..=9.
    dec: [__m128i; 11],
}

/// One CBC chain for [`AesNi::cbc_encrypt_lanes`]: encrypt `buf[body]`
/// under `iv`, then hand `buf` back.
pub(crate) struct CbcJob<'a> {
    pub(crate) buf: &'a mut [u8],
    /// Block-aligned in length, inside `buf`.
    pub(crate) body: Range<usize>,
    pub(crate) iv: [u8; 16],
}

/// One of the [`CBC_LANES`] chains in flight.
struct Lane<'a> {
    /// The job's buffer; `None` while the lane idles.
    buf: Option<&'a mut [u8]>,
    /// Offset of the next block to encrypt.
    pos: usize,
    end: usize,
    chain: __m128i,
}

impl<'a> Lane<'a> {
    fn idle() -> Lane<'a> {
        Lane {
            buf: None,
            pos: 0,
            end: 0,
            chain: load(&[0; 16]),
        }
    }

    fn start(job: CbcJob<'a>) -> Lane<'a> {
        assert!(
            job.body.len().is_multiple_of(16) && job.body.end <= job.buf.len(),
            "CBC body must be whole blocks inside its buffer"
        );
        Lane {
            buf: Some(job.buf),
            pos: job.body.start,
            end: job.body.end,
            chain: load(&job.iv),
        }
    }
}

impl AesNi {
    /// Takes the FIPS-197 key schedule (round keys as they lie in memory)
    /// and derives the decryption schedule from it.
    pub(crate) fn new(detected: HasAes, schedule: &[[u8; 16]; 11]) -> AesNi {
        let enc: [__m128i; 11] = core::array::from_fn(|r| load(&schedule[r]));
        // SAFETY: `detected` proves the CPU has `aes`.
        let dec = unsafe { inverse_schedule(&enc) };
        AesNi {
            _detected: detected,
            enc,
            dec,
        }
    }

    /// Encrypts one block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `self._detected` proves the CPU has `aes`.
        unsafe { encrypt_in_place(&self.enc, block) }
    }

    /// Decrypts one block in place.
    pub(crate) fn decrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `self._detected` proves the CPU has `aes`.
        unsafe { decrypt_in_place(&self.dec, block) }
    }

    /// CBC-encrypts the whole blocks of `data` in place: one chain.
    pub(crate) fn cbc_encrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        // SAFETY: `self._detected` proves the CPU has `aes`.
        unsafe { cbc_encrypt(&self.enc, iv, data) }
    }

    /// CBC-decrypts the whole blocks of `data` in place.
    pub(crate) fn cbc_decrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        // SAFETY: `self._detected` proves the CPU has `aes`.
        unsafe { cbc_decrypt(&self.dec, iv, data) }
    }

    /// Runs the chains `next` supplies [`CBC_LANES`] at a time: a lane
    /// whose chain ends passes its buffer to `done` and takes the next
    /// job, so chains of unequal length keep every lane busy until the
    /// jobs run out. `next` is not called again once it has returned
    /// `None`. Each chain's output is what [`AesNi::cbc_encrypt`] gives.
    pub(crate) fn cbc_encrypt_lanes<'a>(
        &self,
        mut next: impl FnMut() -> Option<CbcJob<'a>>,
        mut done: impl FnMut(&'a mut [u8]),
    ) {
        // SAFETY: `self._detected` proves the CPU has `aes`.
        unsafe { cbc_encrypt_lanes(&self.enc, &mut next, &mut done) }
    }
}

#[target_feature(enable = "aes")]
fn inverse_schedule(enc: &[__m128i; 11]) -> [__m128i; 11] {
    let mut dec = [enc[0]; 11];
    for (r, key) in dec.iter_mut().enumerate() {
        *key = match r {
            0 | 10 => enc[10 - r],
            _ => _mm_aesimc_si128(enc[10 - r]),
        };
    }
    dec
}

#[target_feature(enable = "aes")]
#[inline]
fn encrypt(rk: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(block, rk[0]);
    for key in &rk[1..10] {
        s = _mm_aesenc_si128(s, *key);
    }
    _mm_aesenclast_si128(s, rk[10])
}

#[target_feature(enable = "aes")]
#[inline]
fn decrypt(rk: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(block, rk[0]);
    for key in &rk[1..10] {
        s = _mm_aesdec_si128(s, *key);
    }
    _mm_aesdeclast_si128(s, rk[10])
}

// The block goes in and out by reference: a vector argument would cross the
// call from code compiled without `aes` through memory anyway.
#[target_feature(enable = "aes")]
fn encrypt_in_place(rk: &[__m128i; 11], block: &mut [u8; 16]) {
    store(encrypt(rk, load(block)), block);
}

#[target_feature(enable = "aes")]
fn decrypt_in_place(rk: &[__m128i; 11], block: &mut [u8; 16]) {
    store(decrypt(rk, load(block)), block);
}

#[target_feature(enable = "aes")]
fn cbc_encrypt(rk: &[__m128i; 11], iv: &[u8; 16], data: &mut [u8]) {
    cbc_chain(rk, load(iv), data);
}

/// Continues one CBC chain from `chain` over the whole blocks of `data`;
/// returns where the chain then stands.
#[target_feature(enable = "aes")]
#[inline]
fn cbc_chain(rk: &[__m128i; 11], mut chain: __m128i, data: &mut [u8]) -> __m128i {
    for block in data.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = block.try_into().expect("chunk is 16 bytes");
        chain = encrypt(rk, _mm_xor_si128(load(block), chain));
        store(chain, block);
    }
    chain
}

#[target_feature(enable = "aes")]
fn cbc_decrypt(rk: &[__m128i; 11], iv: &[u8; 16], data: &mut [u8]) {
    let mut chain = load(iv);
    let mut wide = data.chunks_exact_mut(16 * DECRYPT_WIDTH);
    for group in &mut wide {
        // Each plaintext is its block deciphered, XOR the ciphertext
        // before it: independent, so the rounds of all eight overlap.
        let cipher: [__m128i; DECRYPT_WIDTH] =
            core::array::from_fn(|i| load(block_at(group, 16 * i)));
        let mut s = cipher.map(|c| _mm_xor_si128(c, rk[0]));
        for key in &rk[1..10] {
            for s in &mut s {
                *s = _mm_aesdec_si128(*s, *key);
            }
        }
        for (i, s) in s.into_iter().enumerate() {
            let plain = _mm_xor_si128(_mm_aesdeclast_si128(s, rk[10]), chain);
            store(plain, block_at(group, 16 * i));
            chain = cipher[i];
        }
    }
    for block in wide.into_remainder().chunks_exact_mut(16) {
        let block: &mut [u8; 16] = block.try_into().expect("chunk is 16 bytes");
        let cipher = load(block);
        store(_mm_xor_si128(decrypt(rk, cipher), chain), block);
        chain = cipher;
    }
}

#[target_feature(enable = "aes")]
fn cbc_encrypt_lanes<'a>(
    rk: &[__m128i; 11],
    next: &mut dyn FnMut() -> Option<CbcJob<'a>>,
    done: &mut dyn FnMut(&'a mut [u8]),
) {
    let mut lanes: [Lane<'a>; CBC_LANES] = core::array::from_fn(|_| Lane::idle());
    let mut drained = false;
    loop {
        // A lane whose chain has ended hands its buffer back and takes the
        // next job that has anything to encrypt.
        for lane in &mut lanes {
            while lane.pos == lane.end {
                if let Some(buf) = lane.buf.take() {
                    done(buf);
                }
                if drained {
                    break;
                }
                match next() {
                    Some(job) => *lane = Lane::start(job),
                    None => drained = true,
                }
            }
        }
        let mut busy = lanes.iter_mut().filter(|lane| lane.buf.is_some());
        let Some(lane) = busy.next() else { return };
        if busy.next().is_none() {
            // Nothing to interleave with (a batch of one, or the last long
            // packet of a batch): the plain chain, without the lane set-up.
            let buf = lane.buf.as_deref_mut().expect("filtered on it");
            lane.chain = cbc_chain(rk, lane.chain, &mut buf[lane.pos..lane.end]);
            lane.pos = lane.end;
            continue;
        }
        // All lanes walk in step for as long as the shortest chain lasts.
        let blocks = lanes
            .iter()
            .filter(|lane| lane.buf.is_some())
            .map(|lane| (lane.end - lane.pos) / 16)
            .min()
            .expect("two lanes are busy");
        advance(rk, &mut lanes, blocks);
    }
}

/// Encrypts the next `blocks` blocks of every lane that has a job, all
/// lanes in step. An idle lane goes through the motions on a scratch
/// block: the rounds are bound by latency, so its slots were free, and the
/// loop stays one shape.
#[target_feature(enable = "aes")]
fn advance(rk: &[__m128i; 11], lanes: &mut [Lane<'_>; CBC_LANES], blocks: usize) {
    let mut scratch = [[0u8; 16]; CBC_LANES];
    // Positions and chain values live in registers for the run.
    let mut chain = [rk[0]; CBC_LANES];
    let mut pos = [0usize; CBC_LANES];
    let mut step = [0usize; CBC_LANES];
    for l in 0..CBC_LANES {
        if lanes[l].buf.is_some() {
            (chain[l], pos[l], step[l]) = (lanes[l].chain, lanes[l].pos, 16);
        }
    }
    let mut spare = scratch.iter_mut();
    let data: [&mut [u8]; CBC_LANES] = lanes.each_mut().map(|lane| match lane.buf.as_deref_mut() {
        Some(buf) => buf,
        None => spare.next().expect("a scratch block a lane").as_mut_slice(),
    });

    for _ in 0..blocks {
        let mut s = [rk[0]; CBC_LANES];
        for l in 0..CBC_LANES {
            let plain = load(block_at(data[l], pos[l]));
            s[l] = _mm_xor_si128(_mm_xor_si128(plain, chain[l]), rk[0]);
        }
        for key in &rk[1..10] {
            for s in &mut s {
                *s = _mm_aesenc_si128(*s, *key);
            }
        }
        for l in 0..CBC_LANES {
            chain[l] = _mm_aesenclast_si128(s[l], rk[10]);
            store(chain[l], block_at(data[l], pos[l]));
            pos[l] += step[l];
        }
    }

    for l in 0..CBC_LANES {
        if step[l] != 0 {
            (lanes[l].chain, lanes[l].pos) = (chain[l], pos[l]);
        }
    }
}

/// The SHA-1 compression function over the whole 64-byte blocks of
/// `blocks`, four rounds to a `sha1rnds4`.
pub(crate) fn sha1_compress(_detected: HasSha, state: &mut [u32; 5], blocks: &[u8]) {
    // SAFETY: `_detected` proves the CPU has `sha`, `ssse3` and `sse4.1`.
    unsafe { sha1_compress_blocks(state, blocks) }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha1_compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    // `sha1rnds4` wants a in the top lane and the message words in
    // big-endian order from the top lane down: reverse all 16 bytes.
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|word| word as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e0 = _mm_set_epi32(e, 0, 0, 0);

    // Four rounds on message quad `$m` (schedule words t..t+4), and the
    // schedule steps that quad feeds: `$m1` (words t+4..) gets its last
    // term, `$m2` its XOR term, `$m3` its first. `$ea` carries e into the
    // rounds; `$eb` picks up a, which `sha1nexte` rotates into the e of
    // the four rounds after. After round 67 the steps compute words past
    // 79; they are dead and compile to nothing.
    macro_rules! rounds {
        ($f:literal, $ea:ident, $eb:ident, $m:ident, $m1:ident, $m2:ident, $m3:ident) => {
            $ea = _mm_sha1nexte_epu32($ea, $m);
            $eb = abcd;
            $m1 = _mm_sha1msg2_epu32($m1, $m);
            abcd = _mm_sha1rnds4_epu32::<$f>(abcd, $ea);
            $m3 = _mm_sha1msg1_epu32($m3, $m);
            $m2 = _mm_xor_si128($m2, $m);
        };
    }

    for block in blocks.chunks_exact(64) {
        let (quads, _) = block.as_chunks::<16>();
        let (abcd_in, e_in) = (abcd, e0);
        let mut e1;

        // Rounds 0..16 take the message as loaded and start the schedule.
        let mut m0 = _mm_shuffle_epi8(load(&quads[0]), reverse);
        e0 = _mm_add_epi32(e0, m0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);

        let mut m1 = _mm_shuffle_epi8(load(&quads[1]), reverse);
        e1 = _mm_sha1nexte_epu32(e1, m1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        m0 = _mm_sha1msg1_epu32(m0, m1);

        let mut m2 = _mm_shuffle_epi8(load(&quads[2]), reverse);
        e0 = _mm_sha1nexte_epu32(e0, m2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        m1 = _mm_sha1msg1_epu32(m1, m2);
        m0 = _mm_xor_si128(m0, m2);

        let mut m3 = _mm_shuffle_epi8(load(&quads[3]), reverse);
        e1 = _mm_sha1nexte_epu32(e1, m3);
        e0 = abcd;
        m0 = _mm_sha1msg2_epu32(m0, m3);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        m2 = _mm_sha1msg1_epu32(m2, m3);
        m1 = _mm_xor_si128(m1, m3);

        rounds!(0, e0, e1, m0, m1, m2, m3); // 16..20
        rounds!(1, e1, e0, m1, m2, m3, m0);
        rounds!(1, e0, e1, m2, m3, m0, m1);
        rounds!(1, e1, e0, m3, m0, m1, m2);
        rounds!(1, e0, e1, m0, m1, m2, m3);
        rounds!(1, e1, e0, m1, m2, m3, m0); // 36..40
        rounds!(2, e0, e1, m2, m3, m0, m1);
        rounds!(2, e1, e0, m3, m0, m1, m2);
        rounds!(2, e0, e1, m0, m1, m2, m3);
        rounds!(2, e1, e0, m1, m2, m3, m0);
        rounds!(2, e0, e1, m2, m3, m0, m1); // 56..60
        rounds!(3, e1, e0, m3, m0, m1, m2);
        rounds!(3, e0, e1, m0, m1, m2, m3);
        rounds!(3, e1, e0, m1, m2, m3, m0);
        rounds!(3, e0, e1, m2, m3, m0, m1);
        rounds!(3, e1, e0, m3, m0, m1, m2); // 76..80

        e0 = _mm_sha1nexte_epu32(e0, e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abcd) as u32,
        _mm_extract_epi32::<2>(abcd) as u32,
        _mm_extract_epi32::<1>(abcd) as u32,
        _mm_extract_epi32::<0>(abcd) as u32,
        _mm_extract_epi32::<3>(e0) as u32,
    ];
}
