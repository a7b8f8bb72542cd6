//! The CPU's own AES and SHA-1 rounds: x86-64 AES-NI, the SHA extensions
//! and AVX-512.
//!
//! Every `unsafe` block and every `core::arch` name of this crate lives in
//! this file (`scripts/ci.sh` fails the build otherwise). What it exports
//! is safe: [`detect`] is the only place a [`HasAes`], [`HasSha`] or
//! [`HasAvx512`] token is minted, each after `is_x86_feature_detected!` has
//! seen the features the code behind it is compiled for, and every entry
//! point either takes a token or is a method of [`AesNi`], which cannot be
//! built without one. All memory is reached through slices and array
//! references; the only raw-pointer operations are the unaligned 16-byte
//! moves in [`load`] and [`store`] and the 64-byte ones in [`load512`] and
//! [`store512`].
//!
//! Nothing here is indexed by secret bytes: `aesenc`/`aesdec`,
//! `sha1rnds4` and the AVX-512 integer operations are fixed-latency
//! register instructions.
//!
//! Two SHA-1 kernels live here and they answer different questions.
//! [`sha1_compress`] hashes one message fast; on this crate's reference
//! host `sha1rnds4` is bound by throughput, not latency, so interleaving
//! several messages' chains buys nothing (EXPERIMENTS.md, PR 25).
//! [`sha1_lanes16`] hashes sixteen messages at once, one per 32-bit lane
//! of a `zmm` register, and reads about three times the bytes a second
//! once sixteen messages are in flight; [`crate::hmac`] decides which
//! to use.
//!
//! The portable table cipher and the unrolled SHA-1 are what these are
//! held equal to (`tests/backends.rs`), and what every other CPU runs.

use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_rol_epi32, _mm512_set1_epi32,
    _mm512_set_epi64, _mm512_shuffle_epi8, _mm512_shuffle_i32x4, _mm512_storeu_si512,
    _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32,
    _mm512_unpacklo_epi64, _mm512_xor_si512, _mm_add_epi32, _mm_aesdec_si128, _mm_aesdeclast_si128,
    _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aesimc_si128, _mm_extract_epi32, _mm_loadu_si128,
    _mm_set_epi32, _mm_set_epi64x, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
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

/// Proof that this CPU executes AVX-512F and AVX-512BW (`vpshufb` on
/// `zmm` registers). Only [`detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HasAvx512(());

/// What [`detect`] found: one token per backend the CPU can run.
pub(crate) struct Detected {
    pub(crate) aes: Option<HasAes>,
    pub(crate) sha: Option<HasSha>,
    pub(crate) avx512: Option<HasAvx512>,
}

/// Asks the CPU, once per call (the answer is cached by `std`), which of
/// the backends it can run. They are independent: AES-NI (2010) is a
/// decade older than the SHA extensions, and AVX-512 server parts shipped
/// for years without them.
pub(crate) fn detect() -> Detected {
    let aes = std::arch::is_x86_feature_detected!("aes");
    let sha = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    let avx512 = std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw");
    Detected {
        aes: aes.then_some(HasAes(())),
        sha: sha.then_some(HasSha(())),
        avx512: avx512.then_some(HasAvx512(())),
    }
}

/// How many independent CBC chains [`AesNi::cbc_encrypt_lanes`] keeps in
/// flight. One chain is bound by `aesenc`'s latency (a block cannot start
/// before the previous one is out); four fill that latency with other
/// packets' rounds on a core that starts one `aesenc` a cycle, and their
/// states and chain values take half the sixteen `xmm` registers, which
/// leaves the other half to round keys.
///
/// Measured once more in PR 25, with HMAC out of the lanes' way, on
/// 32 Abilene-mix packets sealed as one batch (`esp_seal_batch/hw/32`,
/// three alternating runs of each): 4 lanes 19.6 / 19.8 / 23.2 µs,
/// 6 lanes 17.2 / 20.3 / 19.9, 8 lanes 20.9 / 20.8 / 19.0; the
/// fastest-of-60 probe of the same batch, four alternating runs, read
/// 14.6–14.7, 14.1–16.7 and 13.9–14.1 µs. Eight is at most 1.05× four,
/// inside the noise of the bench row, so four stays.
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

#[target_feature(enable = "avx512f")]
#[inline]
fn load512(bytes: &[u8; 64]) -> __m512i {
    // SAFETY: `bytes` is a reference to 64 readable bytes, `loadu` has no
    // alignment requirement, and this fn only runs where avx512f does.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store512(value: __m512i, bytes: &mut [u8; 64]) {
    // SAFETY: `bytes` is an exclusive reference to 64 writable bytes,
    // `storeu` has no alignment requirement, and avx512f is enabled.
    unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), value) }
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

/// Sixteen SHA-1 states side by side, as [`sha1_lanes16`] keeps them: row
/// `i` holds word `i` (a..e) of every lane, lane `l`'s at bytes
/// `4l..4l + 4` in the CPU's byte order.
#[derive(Clone)]
pub(crate) struct Sha1States16([[u8; 64]; 5]);

impl Sha1States16 {
    pub(crate) fn new() -> Sha1States16 {
        Sha1States16([[0; 64]; 5])
    }

    /// Lane `l`'s state.
    pub(crate) fn lane(&self, l: usize) -> [u32; 5] {
        self.0
            .map(|row| u32::from_ne_bytes(row[4 * l..4 * l + 4].try_into().expect("4 bytes")))
    }

    /// Sets lane `l`'s state.
    pub(crate) fn set_lane(&mut self, l: usize, state: &[u32; 5]) {
        for (row, word) in self.0.iter_mut().zip(state) {
            row[4 * l..4 * l + 4].copy_from_slice(&word.to_ne_bytes());
        }
    }
}

/// The SHA-1 compression function over one 64-byte block for each of
/// sixteen independent states: lane `l` of `states` absorbs `blocks[l]`.
pub(crate) fn sha1_lanes16(
    _detected: HasAvx512,
    states: &mut Sha1States16,
    blocks: &[&[u8; 64]; 16],
) {
    // SAFETY: `_detected` proves the CPU has `avx512f` and `avx512bw`.
    unsafe { sha1_x16(&mut states.0, blocks) }
}

/// Turns sixteen rows (lane `l`'s block in row `l`) into sixteen columns
/// (word `t` of every block in column `t`): pairs of dwords, then quads,
/// then two rounds of 128-bit lane shuffles.
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose16(r: [__m512i; 16]) -> [__m512i; 16] {
    // t[2k], t[2k + 1]: words 4q, 4q + 1 and 4q + 2, 4q + 3 of rows 2k
    // and 2k + 1, interleaved, in 128-bit lane q.
    let mut t = r;
    for k in 0..8 {
        t[2 * k] = _mm512_unpacklo_epi32(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm512_unpackhi_epi32(r[2 * k], r[2 * k + 1]);
    }
    // u[4m + j]: word 4q + j of rows 4m..4m + 4 in 128-bit lane q.
    let mut u = t;
    for m in 0..4 {
        let (lo, hi) = (4 * m, 4 * m + 1);
        u[4 * m] = _mm512_unpacklo_epi64(t[lo], t[lo + 2]);
        u[4 * m + 1] = _mm512_unpackhi_epi64(t[lo], t[lo + 2]);
        u[4 * m + 2] = _mm512_unpacklo_epi64(t[hi], t[hi + 2]);
        u[4 * m + 3] = _mm512_unpackhi_epi64(t[hi], t[hi + 2]);
    }
    // Word 4q + j of every row is 128-bit lane q of u[j], u[4 + j],
    // u[8 + j], u[12 + j]: a 4 × 4 transpose of 128-bit lanes.
    let mut w = u;
    for j in 0..4 {
        let v0 = _mm512_shuffle_i32x4::<0x88>(u[j], u[4 + j]);
        let v1 = _mm512_shuffle_i32x4::<0xdd>(u[j], u[4 + j]);
        let v2 = _mm512_shuffle_i32x4::<0x88>(u[8 + j], u[12 + j]);
        let v3 = _mm512_shuffle_i32x4::<0xdd>(u[8 + j], u[12 + j]);
        w[j] = _mm512_shuffle_i32x4::<0x88>(v0, v2);
        w[4 + j] = _mm512_shuffle_i32x4::<0x88>(v1, v3);
        w[8 + j] = _mm512_shuffle_i32x4::<0xdd>(v0, v2);
        w[12 + j] = _mm512_shuffle_i32x4::<0xdd>(v1, v3);
    }
    w
}

/// The portable `sha1::compress`, sixteen lanes wide: the same 16-word
/// schedule ring and the same rounds with the roles of `a..e` rotating,
/// `vprold` for the rotations and one `vpternlogd` for each round
/// function (0xCA choose, 0x96 parity, 0xE8 majority).
#[target_feature(enable = "avx512f,avx512bw")]
fn sha1_x16(states: &mut [[u8; 64]; 5], blocks: &[&[u8; 64]; 16]) {
    // Message words are big-endian: reverse the bytes of every dword.
    let bswap = _mm512_set_epi64(
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
    );
    let mut rows = [bswap; 16];
    for (row, block) in rows.iter_mut().zip(blocks) {
        *row = _mm512_shuffle_epi8(load512(block), bswap);
    }
    let mut w = transpose16(rows);
    let [mut a, mut b, mut c, mut d, mut e] = [0, 1, 2, 3, 4].map(|i| load512(&states[i]));
    let k = [0x5a82_7999u32, 0x6ed9_eba1, 0x8f1b_bcdc, 0xca62_c1d6]
        .map(|k| _mm512_set1_epi32(k as i32));

    macro_rules! load {
        ($t:expr) => {
            w[$t]
        };
    }
    macro_rules! mix {
        ($t:expr) => {{
            let t: usize = $t;
            let x = _mm512_ternarylogic_epi32::<0x96>(
                w[(t + 13) & 15],
                w[(t + 8) & 15],
                w[(t + 2) & 15],
            );
            w[t & 15] = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[t & 15]));
            w[t & 15]
        }};
    }
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:literal, $k:expr, $w:expr) => {
            let kw = _mm512_add_epi32($k, $w);
            let f = _mm512_ternarylogic_epi32::<$f>($b, $c, $d);
            $e = _mm512_add_epi32(
                _mm512_add_epi32($e, kw),
                _mm512_add_epi32(f, _mm512_rol_epi32::<5>($a)),
            );
            $b = _mm512_rol_epi32::<30>($b);
        };
    }
    macro_rules! five {
        ($f:literal, $k:expr, $word:ident, $t:expr) => {
            round!(a, b, c, d, e, $f, $k, $word!($t));
            round!(e, a, b, c, d, $f, $k, $word!($t + 1));
            round!(d, e, a, b, c, $f, $k, $word!($t + 2));
            round!(c, d, e, a, b, $f, $k, $word!($t + 3));
            round!(b, c, d, e, a, $f, $k, $word!($t + 4));
        };
    }

    five!(0xCA, k[0], load, 0);
    five!(0xCA, k[0], load, 5);
    five!(0xCA, k[0], load, 10);
    round!(a, b, c, d, e, 0xCA, k[0], load!(15));
    round!(e, a, b, c, d, 0xCA, k[0], mix!(16));
    round!(d, e, a, b, c, 0xCA, k[0], mix!(17));
    round!(c, d, e, a, b, 0xCA, k[0], mix!(18));
    round!(b, c, d, e, a, 0xCA, k[0], mix!(19));
    five!(0x96, k[1], mix, 20);
    five!(0x96, k[1], mix, 25);
    five!(0x96, k[1], mix, 30);
    five!(0x96, k[1], mix, 35);
    five!(0xE8, k[2], mix, 40);
    five!(0xE8, k[2], mix, 45);
    five!(0xE8, k[2], mix, 50);
    five!(0xE8, k[2], mix, 55);
    five!(0x96, k[3], mix, 60);
    five!(0x96, k[3], mix, 65);
    five!(0x96, k[3], mix, 70);
    five!(0x96, k[3], mix, 75);

    for (row, v) in states.iter_mut().zip([a, b, c, d, e]) {
        store512(_mm512_add_epi32(load512(row), v), row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;

    /// Sixteen different states and blocks through the lanes, each against
    /// the portable compression function on its own.
    #[test]
    fn sha1_lanes16_is_sixteen_compressions() {
        let Some(detected) = detect().avx512 else {
            eprintln!("skipped: no avx512");
            return;
        };
        let byte = |l: usize, i: usize| (l * 97 + i * 31 + (i >> 3)) as u8;
        let blocks: [[u8; 64]; 16] = core::array::from_fn(|l| core::array::from_fn(|i| byte(l, i)));
        let mut expected: [[u32; 5]; 16] = core::array::from_fn(|l| {
            core::array::from_fn(|w| 0x0123_4567u32.rotate_left((l * 5 + w) as u32) ^ l as u32)
        });
        let mut states = Sha1States16::new();
        for (l, state) in expected.iter().enumerate() {
            states.set_lane(l, state);
        }
        for _ in 0..3 {
            sha1_lanes16(detected, &mut states, &blocks.each_ref());
            for (state, block) in expected.iter_mut().zip(&blocks) {
                Sha1::portable().compress_into(state, block);
            }
        }
        for (l, state) in expected.iter().enumerate() {
            assert_eq!(states.lane(l), *state, "lane {l}");
        }
    }
}
