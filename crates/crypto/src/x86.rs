//! The CPU's own AES and SHA-1 rounds: x86-64 AES-NI, VAES, the SHA
//! extensions and AVX-512.
//!
//! Every `unsafe` block and every `core::arch` name of this crate lives in
//! this file (`scripts/ci.sh` fails the build otherwise). What it exports
//! is safe: [`detect`] is the only place a [`HasAes`], [`HasVaes`],
//! [`HasSha`] or [`HasAvx512`] token is minted, each after
//! `is_x86_feature_detected!` has seen the features the code behind it is
//! compiled for, and every entry point either takes a token or is a method
//! of [`AesNi`], which cannot be built without one. Memory is reached
//! through slices and array references, with one exception: the CBC lane
//! kernels ([`cbc_lanes4`], [`cbc_lanes16`]) load and store through the
//! start pointers of the slices [`AesNi::cbc_encrypt_batch`] holds, at
//! offsets a [`LaneSchedule`] keeps inside them. The other raw-pointer
//! operations are the unaligned 16-byte moves in [`load`] and [`store`]
//! and the 64-byte ones in [`load512`] and [`store512`].
//!
//! Nothing here is indexed by secret bytes: `aesenc`/`aesdec`,
//! `vaesenc`, `sha1rnds4` and the AVX-512 integer operations are
//! fixed-latency register instructions. A lane schedule depends on packet
//! lengths, which are on the wire anyway.
//!
//! CBC encryption is serial within a packet, so a batch's packets are what
//! fill the unit: [`AesNi::cbc_encrypt_batch`] places their chains on
//! lanes before the first block ([`LaneSchedule`]) and runs them side by
//! side, sixteen to four `zmm` registers where the CPU has VAES and four
//! `xmm` registers where it has AES-NI alone (EXPERIMENTS.md, "AES-CBC
//! sixteen packets wide").
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
    __m128i, __m512i, _mm512_add_epi32, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
    _mm512_broadcast_i32x4, _mm512_castsi128_si512, _mm512_extracti32x4_epi32, _mm512_inserti32x4,
    _mm512_loadu_si512, _mm512_maskz_mov_epi64, _mm512_rol_epi32, _mm512_set1_epi32,
    _mm512_set_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
    _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512, _mm_add_epi32,
    _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_setzero_si128, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
    _mm_sha1rnds4_epu32, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

use core::ops::Range;

use crate::hmac::MAC_BATCH;

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

/// Proof that this CPU executes AVX-512F and VAES (`vaesenc` on `zmm`
/// registers: four AES rounds to an instruction). Only [`detect`] makes
/// one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HasVaes(());

/// What [`detect`] found: one token per backend the CPU can run.
pub(crate) struct Detected {
    pub(crate) aes: Option<HasAes>,
    pub(crate) sha: Option<HasSha>,
    pub(crate) avx512: Option<HasAvx512>,
    pub(crate) vaes: Option<HasVaes>,
}

/// Asks the CPU, once per call (the answer is cached by `std`), which of
/// the backends it can run. They are independent: AES-NI (2010) is a
/// decade older than the SHA extensions, AVX-512 server parts shipped
/// for years without them, and VAES came years after AVX-512.
pub(crate) fn detect() -> Detected {
    let aes = std::arch::is_x86_feature_detected!("aes");
    let sha = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    let avx512f = std::arch::is_x86_feature_detected!("avx512f");
    let avx512 = avx512f && std::arch::is_x86_feature_detected!("avx512bw");
    let vaes = avx512f && std::arch::is_x86_feature_detected!("vaes");
    Detected {
        aes: aes.then_some(HasAes(())),
        sha: sha.then_some(HasSha(())),
        avx512: avx512.then_some(HasAvx512(())),
        vaes: vaes.then_some(HasVaes(())),
    }
}

/// Most CBC chains one [`LaneSchedule`] places: one sealed batch, which
/// [`crate::hmac::HmacSha1::mac96_batch`] then authenticates in one call.
pub(crate) const MAX_CHAINS: usize = MAC_BATCH;

/// Blocks of scratch an idle lane encrypts in place of a packet's: a run
/// of a [`LaneSchedule`] that has an idle lane is at most this long, so
/// one such buffer serves every idle lane of every run.
const SCRATCH_BLOCKS: usize = 32;

/// A lane of a [`Walk`] with no chain left.
const IDLE: u8 = u8::MAX;

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

    /// CBC-encrypts each of `jobs` in place, each a chain of its own from
    /// a zero IV: a job's first block comes out as that block encrypted
    /// (which is how ESP makes its IV) and the rest as CBC under it. The
    /// bytes are those of [`AesNi::cbc_encrypt`] with a zero IV, job by
    /// job; what differs is that the chains run side by side, in the lanes
    /// of one [`LaneSchedule`]. With `vaes` and more than four jobs that is
    /// sixteen lanes, four blocks to each of four `zmm` registers;
    /// otherwise four `xmm` lanes, which is a lane a job for four or fewer.
    ///
    /// # Panics
    ///
    /// Panics when there are more than [`MAX_CHAINS`] jobs or one is not
    /// whole blocks.
    pub(crate) fn cbc_encrypt_batch(&self, vaes: Option<HasVaes>, jobs: &mut [&mut [u8]]) {
        assert!(jobs.len() <= MAX_CHAINS, "at most {MAX_CHAINS} chains");
        if let [job] = jobs {
            // Nothing to run beside it: the plain chain, without the lanes.
            assert!(job.len().is_multiple_of(16), "a CBC job is whole blocks");
            return self.cbc_encrypt(&[0; 16], job);
        }
        let mut blocks = [0; MAX_CHAINS];
        let mut bases = [core::ptr::null_mut(); MAX_CHAINS];
        for ((blocks, base), job) in blocks.iter_mut().zip(&mut bases).zip(jobs.iter_mut()) {
            assert!(job.len().is_multiple_of(16), "a CBC job is whole blocks");
            (*blocks, *base) = (job.len() / 16, job.as_mut_ptr());
        }
        let blocks = &blocks[..jobs.len()];
        let mut scratch = [0u8; 16 * SCRATCH_BLOCKS];
        let scratch = scratch.as_mut_ptr();
        match vaes.filter(|_| jobs.len() > 4) {
            // SAFETY: `_wide` proves the CPU has `avx512f` and `vaes`.
            // `bases[j]` is the start of `jobs[j]`, `16 * blocks[j]` bytes
            // borrowed exclusively for this call, and `scratch` is
            // `16 * SCRATCH_BLOCKS` bytes: the bounds `Walk::rebase` needs.
            Some(_wide) => unsafe {
                cbc_lanes16(&self.enc, &LaneSchedule::new(blocks), &bases, scratch)
            },
            // SAFETY: `self._detected` proves the CPU has `aes`; the
            // pointers are as above.
            None => unsafe { cbc_lanes4(&self.enc, &LaneSchedule::new(blocks), &bases, scratch) },
        }
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
    let mut chain = load(iv);
    for block in data.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = block.try_into().expect("chunk is 16 bytes");
        chain = encrypt(rk, _mm_xor_si128(load(block), chain));
        store(chain, block);
    }
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

/// Which lane runs which CBC chain, and from which step, fixed before the
/// first block: the longest chain first, each to the lane with the fewest
/// blocks so far (Graham's LPT rule). A lane runs its chains back to back
/// and then idles on scratch until the last lane is done; with more chains
/// than lanes the idle tail is short, because the short chains, placed
/// last, fill the gaps the long ones leave.
///
/// The kernels walk it run by run ([`Walk`]): in a run no lane changes
/// chain, so a step moves one block offset that every lane shares, and the
/// schedule is looked at only where a run ends.
pub(crate) struct LaneSchedule<const L: usize> {
    /// The chains in the order they were placed, which is also the order
    /// of their first steps: the least load of any lane never shrinks.
    order: [u8; MAX_CHAINS],
    chains: usize,
    /// Each chain's lane and first step.
    lane: [u8; MAX_CHAINS],
    start: [usize; MAX_CHAINS],
    /// The step each lane's last chain ends at, the first lane's, and the
    /// last lane's.
    done: [usize; L],
    first_done: usize,
    makespan: usize,
}

impl<const L: usize> LaneSchedule<L> {
    /// Places chains of `blocks[j]` blocks on `L` lanes.
    pub(crate) fn new(blocks: &[usize]) -> LaneSchedule<L> {
        assert!(blocks.len() <= MAX_CHAINS && L <= 16);
        // Longest first: (length, chain) pairs, sorted, taken from the top.
        let mut keys = [0u64; MAX_CHAINS];
        for (key, (j, &b)) in keys.iter_mut().zip(blocks.iter().enumerate()) {
            *key = (b as u64) << 8 | j as u64;
        }
        let keys = &mut keys[..blocks.len()];
        keys.sort_unstable();
        let mut schedule = LaneSchedule {
            order: [0; MAX_CHAINS],
            chains: blocks.len(),
            lane: [0; MAX_CHAINS],
            start: [0; MAX_CHAINS],
            done: [0; L],
            first_done: 0,
            makespan: 0,
        };
        // Lanes by load, least first, once every lane has a chain: the
        // first `L` chains have a lane each, and the last of them is the
        // shortest.
        let mut by_load: [usize; L] = core::array::from_fn(|i| L - 1 - i);
        for (placed, &key) in keys.iter().rev().enumerate() {
            let j = usize::from(key as u8);
            let l = if placed < L { placed } else { by_load[0] };
            schedule.order[placed] = j as u8;
            schedule.lane[j] = l as u8;
            schedule.start[j] = schedule.done[l];
            schedule.done[l] += blocks[j];
            if placed >= L {
                // Back into place behind the lanes that are now less loaded.
                let mut at = 0;
                while at + 1 < L && schedule.done[by_load[at + 1]] < schedule.done[l] {
                    by_load[at] = by_load[at + 1];
                    at += 1;
                }
                by_load[at] = l;
            }
        }
        schedule.first_done = schedule.done.into_iter().min().unwrap_or(0);
        schedule.makespan = schedule.done.into_iter().max().unwrap_or(0);
        schedule
    }

    /// A walk from before the first run.
    pub(crate) fn walk(&self) -> Walk<'_, L> {
        Walk {
            schedule: self,
            job: [IDLE; L],
            origin: [0; L],
            moved: 0,
            fresh: 0,
            placed: 0,
            t: 0,
        }
    }
}

/// Where every lane of a [`LaneSchedule`] stands, one run at a time.
pub(crate) struct Walk<'s, const L: usize> {
    schedule: &'s LaneSchedule<L>,
    /// Lane `l`'s chain, or [`IDLE`], and the step that chain (or that
    /// stretch of idling) began at: at step `t` the lane is on block
    /// `t - origin[l]` of it.
    job: [u8; L],
    origin: [usize; L],
    /// Lanes (bit `l`) whose `job` or `origin` the current run set, and
    /// those of them whose chain begins with it: their chaining value
    /// starts at zero.
    moved: u16,
    fresh: u16,
    /// Chains begun so far, and the first step of the next run.
    placed: usize,
    t: usize,
}

impl<const L: usize> Walk<'_, L> {
    /// Moves on to the next run and returns its steps, or `None` past the
    /// last. A lane on a chain stays inside it for the whole run, and a
    /// run with an idle lane is at most [`SCRATCH_BLOCKS`] long.
    pub(crate) fn next_run(&mut self) -> Option<Range<usize>> {
        let s = self.schedule;
        let t = self.t;
        if t == s.makespan {
            return None;
        }
        // Chains begin where the lane's previous one ends, so the ends of
        // all but each lane's last are the beginnings counted here.
        self.fresh = 0;
        while self.placed < s.chains && s.start[usize::from(s.order[self.placed])] == t {
            let j = s.order[self.placed];
            let l = usize::from(s.lane[usize::from(j)]);
            (self.job[l], self.origin[l]) = (j, t);
            self.fresh |= 1 << l;
            self.placed += 1;
        }
        let mut end = match s.order[..s.chains].get(self.placed) {
            Some(&j) => s.start[usize::from(j)],
            None => s.makespan,
        };
        let mut idle = 0u16;
        if t < s.first_done {
            end = end.min(s.first_done);
        } else {
            for l in 0..L {
                if s.done[l] <= t {
                    (self.job[l], self.origin[l]) = (IDLE, t);
                    idle |= 1 << l;
                } else {
                    end = end.min(s.done[l]);
                }
            }
        }
        if idle != 0 {
            end = end.min(t + SCRATCH_BLOCKS);
        }
        self.fresh &= !idle;
        self.moved = self.fresh | idle;
        self.t = end;
        Some(t..end)
    }

    /// Re-points the lanes the current run moved: afterwards, for every
    /// step `t` of the run, lane `l`'s block lies `16 × t` bytes past
    /// `base[l]` — in its chain, `jobs[j]`, or in `scratch`. Given each
    /// `jobs[j]` good for its chain's `16 × blocks` bytes and `scratch` for
    /// `16 × SCRATCH_BLOCKS`, every such block is in bounds.
    #[inline(always)]
    fn rebase(&self, base: &mut [*mut u8; L], jobs: &[*mut u8; MAX_CHAINS], scratch: *mut u8) {
        let mut moved = self.moved;
        while moved != 0 {
            let l = moved.trailing_zeros() as usize;
            moved &= moved - 1;
            let start = match self.job[l] {
                IDLE => scratch,
                j => jobs[usize::from(j)],
            };
            base[l] = start.wrapping_sub(16 * self.origin[l]);
        }
    }
}

/// A [`LaneSchedule`] on four `xmm` lanes. `jobs` and `scratch` are as
/// [`Walk::rebase`] needs them.
#[target_feature(enable = "aes")]
fn cbc_lanes4(
    rk: &[__m128i; 11],
    schedule: &LaneSchedule<4>,
    jobs: &[*mut u8; MAX_CHAINS],
    scratch: *mut u8,
) {
    let zero = _mm_setzero_si128();
    let mut chain = [zero; 4];
    let mut base = [scratch; 4];
    let mut walk = schedule.walk();
    while let Some(steps) = walk.next_run() {
        walk.rebase(&mut base, jobs, scratch);
        for (l, chain) in chain.iter_mut().enumerate() {
            if walk.fresh >> l & 1 != 0 {
                *chain = zero;
            }
        }
        for t in steps {
            let off = 16 * t;
            let mut s = chain;
            for (l, s) in s.iter_mut().enumerate() {
                // SAFETY: lane `l`'s block of step `t` (`Walk::rebase`).
                let plain = unsafe { _mm_loadu_si128(base[l].wrapping_add(off).cast()) };
                *s = _mm_xor_si128(_mm_xor_si128(plain, *s), rk[0]);
            }
            for key in &rk[1..10] {
                for s in &mut s {
                    *s = _mm_aesenc_si128(*s, *key);
                }
            }
            for (l, s) in s.into_iter().enumerate() {
                chain[l] = _mm_aesenclast_si128(s, rk[10]);
                // SAFETY: as for the load.
                unsafe { _mm_storeu_si128(base[l].wrapping_add(off).cast(), chain[l]) }
            }
        }
    }
}

/// A [`LaneSchedule`] on sixteen lanes: lane `l` is 128-bit lane `l % 4`
/// of `zmm` register `l / 4`, and one `vaesenc` does a round of four
/// blocks. `jobs` and `scratch` are as [`Walk::rebase`] needs them.
#[target_feature(enable = "avx512f,vaes")]
fn cbc_lanes16(
    rk: &[__m128i; 11],
    schedule: &LaneSchedule<16>,
    jobs: &[*mut u8; MAX_CHAINS],
    scratch: *mut u8,
) {
    let k = rk.map(|key| _mm512_broadcast_i32x4(key));
    let mut chain = [_mm512_setzero_si512(); 4];
    let mut base = [scratch; 16];
    let mut walk = schedule.walk();
    while let Some(steps) = walk.next_run() {
        walk.rebase(&mut base, jobs, scratch);
        for (z, chain) in chain.iter_mut().enumerate() {
            *chain = _mm512_maskz_mov_epi64(spread(!walk.fresh >> (4 * z)), *chain);
        }
        for t in steps {
            let off = 16 * t;
            let mut s = chain;
            for (z, s) in s.iter_mut().enumerate() {
                let [a, b, c, d] = [0, 1, 2, 3].map(|q| {
                    // SAFETY: lane `4z + q`'s block of step `t` (`Walk::rebase`).
                    unsafe { _mm_loadu_si128(base[4 * z + q].wrapping_add(off).cast()) }
                });
                let plain = _mm512_inserti32x4::<3>(
                    _mm512_inserti32x4::<2>(
                        _mm512_inserti32x4::<1>(_mm512_castsi128_si512(a), b),
                        c,
                    ),
                    d,
                );
                *s = _mm512_ternarylogic_epi32::<0x96>(plain, *s, k[0]);
            }
            for key in &k[1..10] {
                for s in &mut s {
                    *s = _mm512_aesenc_epi128(*s, *key);
                }
            }
            for (z, s) in s.into_iter().enumerate() {
                chain[z] = _mm512_aesenclast_epi128(s, k[10]);
                let blocks = [
                    _mm512_extracti32x4_epi32::<0>(chain[z]),
                    _mm512_extracti32x4_epi32::<1>(chain[z]),
                    _mm512_extracti32x4_epi32::<2>(chain[z]),
                    _mm512_extracti32x4_epi32::<3>(chain[z]),
                ];
                for (q, block) in blocks.into_iter().enumerate() {
                    // SAFETY: as for the loads.
                    unsafe { _mm_storeu_si128(base[4 * z + q].wrapping_add(off).cast(), block) }
                }
            }
        }
    }
}

/// Bit `q` (of the low four) of `lanes` to bits `2q` and `2q + 1`: the
/// mask that keeps both 64-bit halves of each 128-bit lane `q` of a `zmm`
/// register whose bit is set and clears the others.
fn spread(lanes: u16) -> u8 {
    (0..4).fold(0, |mask, q| {
        mask | ((((lanes >> q) as u8) & 1) * 3) << (2 * q)
    })
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
    use crate::esp::{sealed_len, ESP_HEADER_LEN};
    use crate::hmac::ICV_LEN;
    use crate::sha1::Sha1;

    /// Chain lengths in blocks: `n` chains of 0–`max` blocks, varied by
    /// `seed`.
    fn lengths(n: usize, max: usize, seed: usize) -> Vec<usize> {
        (0..n)
            .map(|j| (j * 37 + seed * 11 + (j * j) % 7) % (max + 1))
            .collect()
    }

    /// What a walk of `schedule` touches: for each chain, how many times
    /// each of its blocks is visited. Checks the run invariants the
    /// kernels' bounds rest on as it goes.
    fn visits<const L: usize>(schedule: &LaneSchedule<L>, blocks: &[usize]) -> Vec<Vec<u32>> {
        let mut seen: Vec<Vec<u32>> = blocks.iter().map(|&b| vec![0; b]).collect();
        let mut walk = schedule.walk();
        let mut steps = 0;
        while let Some(run) = walk.next_run() {
            assert!(!run.is_empty(), "a run takes a step");
            steps += run.len();
            let mut held = [false; MAX_CHAINS];
            for l in 0..L {
                let fresh = walk.fresh >> l & 1 != 0;
                if walk.job[l] == IDLE {
                    assert!(!fresh, "an idle lane starts no chain");
                    // Idle lanes write only scratch, which lasts this long.
                    assert_eq!(walk.origin[l], run.start);
                    assert!(run.len() <= SCRATCH_BLOCKS, "idle run of {}", run.len());
                    continue;
                }
                let j = usize::from(walk.job[l]);
                assert!(!held[j], "two lanes hold chain {j}");
                held[j] = true;
                assert_eq!(
                    fresh,
                    walk.origin[l] == run.start,
                    "lane {l}: fresh iff block 0"
                );
                for t in run.clone() {
                    seen[j][t - walk.origin[l]] += 1;
                }
            }
        }
        assert_eq!(steps, schedule.makespan);
        seen
    }

    /// Every block of every chain is encrypted exactly once, no two lanes
    /// hold one chain, and idle lanes are on scratch — on four lanes and
    /// on sixteen, for batches of none to 32 chains, some of no blocks and
    /// some longer than the scratch.
    #[test]
    fn lane_schedule_covers_every_block_once() {
        for n in 0..=MAX_CHAINS {
            for (max, seed) in [(3, 0), (40, 1), (100, 2), (200, 3)] {
                let blocks = lengths(n, max, seed);
                let four = visits(&LaneSchedule::<4>::new(&blocks), &blocks);
                let sixteen = visits(&LaneSchedule::<16>::new(&blocks), &blocks);
                for seen in [four, sixteen] {
                    for (j, seen) in seen.iter().enumerate() {
                        assert!(
                            seen.iter().all(|&v| v == 1),
                            "chain {j} of {blocks:?}: {seen:?}"
                        );
                    }
                }
            }
        }
    }

    /// On the bench's 32 Abilene-mix packets (IV block and padded payload
    /// each) the longest-first schedule is within 10 % of the bound no
    /// schedule can beat, ⌈total ÷ lanes⌉, on either width.
    #[test]
    fn abilene_makespan_is_near_total_over_lanes() {
        let blocks: Vec<usize> = (0..32)
            .map(|i| match (i * 7) % 32 {
                0..=13 => 50,
                14..=17 => 562,
                _ => 1486,
            })
            .map(|len| (sealed_len(len) - ESP_HEADER_LEN - ICV_LEN) / 16)
            .collect();
        let total: usize = blocks.iter().sum();
        let sixteen = LaneSchedule::<16>::new(&blocks).makespan;
        let four = LaneSchedule::<4>::new(&blocks).makespan;
        eprintln!("{total} blocks: makespan {sixteen} on 16 lanes, {four} on 4");
        assert!(
            10 * sixteen <= 11 * total.div_ceil(16),
            "{sixteen} steps on 16 lanes"
        );
        assert!(
            10 * four <= 11 * total.div_ceil(4),
            "{four} steps on 4 lanes"
        );
    }

    /// The lane kernels against one `cbc_encrypt` per job from a zero IV,
    /// on both widths, with guard bytes around every job: a lane writes
    /// its own job's blocks and nothing else.
    #[test]
    fn cbc_encrypt_batch_is_one_chain_per_job() {
        let found = detect();
        let Some(aes) = found.aes else {
            eprintln!("skipped: no aes");
            return;
        };
        let key: [[u8; 16]; 11] =
            core::array::from_fn(|r| core::array::from_fn(|i| (r * 16 + i) as u8));
        let hw = AesNi::new(aes, &key);
        if found.vaes.is_none() {
            eprintln!("skipped: no vaes (the sixteen lanes are not exercised)");
        }
        const GUARD: usize = 16;
        for vaes in [None, found.vaes] {
            for n in [0, 1, 3, 4, 5, 15, 16, 17, 31, 32] {
                let blocks = lengths(n, 40, n);
                let total: usize = blocks.iter().map(|b| 16 * b + GUARD).sum();
                let arena: Vec<u8> = (0..GUARD + total).map(|i| (i * 13 + n) as u8).collect();
                let mut expected = arena.clone();
                let mut at = GUARD;
                for &b in &blocks {
                    hw.cbc_encrypt(&[0; 16], &mut expected[at..at + 16 * b]);
                    at += 16 * b + GUARD;
                }
                let mut got = arena.clone();
                let mut jobs: Vec<&mut [u8]> = Vec::new();
                let mut rest = &mut got[GUARD..];
                for &b in &blocks {
                    let (job, tail) = rest.split_at_mut(16 * b);
                    jobs.push(job);
                    rest = &mut tail[GUARD..];
                }
                hw.cbc_encrypt_batch(vaes, &mut jobs);
                assert!(
                    got == expected,
                    "vaes {:?}, {n} jobs of {blocks:?}",
                    vaes.is_some()
                );
            }
        }
    }

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
