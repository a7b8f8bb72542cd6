//! AES-128 block cipher (FIPS-197), in the 32-bit table form.
//!
//! The state is four big-endian column words and a round is four table
//! lookups and XORs per column: each `TE`/`TD` entry holds one S-box
//! output already multiplied through its MixColumns column, so SubBytes,
//! ShiftRows and MixColumns collapse into indexing. This is the portable
//! software AES the paper's era actually shipped (Rijmen/Bosselaers/
//! Barreto's `rijndael-alg-fst`, used by Click and the Linux kernel of
//! 2009 on pre-AES-NI Nehalem), and its per-byte cost is what makes the
//! IPsec workload CPU-bound. The byte-at-a-time form of FIPS-197 §5 — the
//! textbook one — survives only as the test module's reference.
//!
//! The tables (8 KiB plus the two S-boxes) are computed from [`SBOX`] at
//! compile time. Their lookups are indexed by secret state bytes, so this
//! cipher is **not** cache-timing hardened (see the crate-level note).
//!
//! On an x86-64 CPU with AES-NI the tables are not what runs:
//! [`Aes128::new`] asks the CPU once, keeps the same key schedule in the
//! form `aesenc`/`aesdec` take beside the table one, and every operation
//! on that key — here and in [`crate::modes`] — goes to `crate::x86`. The
//! table form is then the 2009-faithful fallback for every other CPU and
//! the reference the hardware is held equal to ([`Aes128::portable`]
//! forces it); `Aes128`'s `Debug` output names the one in use.

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Multiplies by x (i.e. 2) in GF(2⁸) modulo the AES polynomial.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// General GF(2⁸) multiply (small constant factors only).
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut out = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            out ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    out
}

const fn build_inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// The inverse S-box.
static INV_SBOX: [u8; 256] = build_inv_sbox();

/// Builds the four round tables for one direction: entry `x` of table 0
/// is the column `coef · sub[x]` (most significant byte first), and table
/// `n` is table 0 rotated right by `n` bytes — the rotation ShiftRows and
/// the circulant MixColumns matrix give the byte taken from row `n`.
const fn build_tables(sub: &[u8; 256], coef: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sub[x];
        let col = u32::from_be_bytes([
            gmul(s, coef[0]),
            gmul(s, coef[1]),
            gmul(s, coef[2]),
            gmul(s, coef[3]),
        ]);
        let mut n = 0;
        while n < 4 {
            t[n][x] = col.rotate_right(8 * n as u32);
            n += 1;
        }
        x += 1;
    }
    t
}

/// Encryption tables: SubBytes then the MixColumns column (2, 1, 1, 3).
static TE: [[u32; 256]; 4] = build_tables(&SBOX, [2, 1, 1, 3]);

/// Decryption tables: InvSubBytes then the InvMixColumns column
/// (14, 9, 13, 11).
static TD: [[u32; 256]; 4] = build_tables(&INV_SBOX, [14, 9, 13, 11]);

/// Byte `n` (0 = most significant) of a column word, as a table index.
#[inline(always)]
fn byte(w: u32, n: u32) -> usize {
    usize::from((w >> (24 - 8 * n)) as u8)
}

/// Loads a block as four big-endian column words.
#[inline(always)]
pub(crate) fn load_words(block: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

/// Stores four big-endian column words as a block.
#[inline(always)]
pub(crate) fn store_words(words: [u32; 4], block: &mut [u8; 16]) {
    for (chunk, w) in block.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
}

/// An expanded AES-128 key: 11 round keys of four column words each, for
/// both directions.
#[derive(Clone)]
pub struct Aes128 {
    enc_keys: [[u32; 4]; 11],
    /// The equivalent inverse cipher's schedule (FIPS-197 §5.3.5):
    /// `enc_keys` reversed, InvMixColumns applied to rounds 1..=9, so
    /// decryption rounds have the same lookup-and-XOR shape.
    dec_keys: [[u32; 4]; 11],
    /// The same schedule as AES-NI round keys, when the CPU has the
    /// instructions and the key was not built by [`Aes128::portable`].
    #[cfg(target_arch = "x86_64")]
    hw: Option<crate::x86::AesNi>,
}

impl Aes128 {
    /// Expands a 128-bit key into the round-key schedule, for the CPU's
    /// AES instructions if it has them and for the tables if not.
    pub fn new(key: &[u8; 16]) -> Aes128 {
        let aes = Aes128::portable(key);
        #[cfg(target_arch = "x86_64")]
        let aes = Aes128 {
            hw: crate::x86::detect().aes.map(|detected| {
                let mut schedule = [[0u8; 16]; 11];
                for (bytes, words) in schedule.iter_mut().zip(aes.enc_keys) {
                    store_words(words, bytes);
                }
                crate::x86::AesNi::new(detected, &schedule)
            }),
            ..aes
        };
        aes
    }

    /// [`Aes128::new`] without asking the CPU: the table cipher whatever
    /// the machine. It is what the differential tests hold the hardware
    /// rounds equal to and what the `tables` bench rows time; a router has
    /// no reason to call it.
    pub fn portable(key: &[u8; 16]) -> Aes128 {
        let mut w = [0u32; 44];
        w[..4].copy_from_slice(&load_words(key));
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                let [a, b, c, d] = temp.rotate_left(8).to_be_bytes();
                temp = u32::from_be_bytes([
                    SBOX[usize::from(a)] ^ rcon,
                    SBOX[usize::from(b)],
                    SBOX[usize::from(c)],
                    SBOX[usize::from(d)],
                ]);
                rcon = xtime(rcon);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc_keys: [[u32; 4]; 11] =
            core::array::from_fn(|r| [w[4 * r], w[4 * r + 1], w[4 * r + 2], w[4 * r + 3]]);
        let mut dec_keys: [[u32; 4]; 11] = core::array::from_fn(|r| enc_keys[10 - r]);
        for rk in &mut dec_keys[1..10] {
            for k in rk {
                // TD[n][SBOX[b]] is InvMixColumns of byte b in row n.
                *k = TD[0][usize::from(SBOX[byte(*k, 0)])]
                    ^ TD[1][usize::from(SBOX[byte(*k, 1)])]
                    ^ TD[2][usize::from(SBOX[byte(*k, 2)])]
                    ^ TD[3][usize::from(SBOX[byte(*k, 3)])];
            }
        }
        Aes128 {
            enc_keys,
            dec_keys,
            #[cfg(target_arch = "x86_64")]
            hw: None,
        }
    }

    /// The AES-NI form of this key, when that is what it runs on.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn hw(&self) -> Option<&crate::x86::AesNi> {
        self.hw.as_ref()
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = self.hw() {
            return hw.encrypt_block(block);
        }
        store_words(self.encrypt_words(load_words(block)), block);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = self.hw() {
            return hw.decrypt_block(block);
        }
        store_words(self.decrypt_words(load_words(block)), block);
    }

    /// Encrypts a block held as column words, so chained modes keep the
    /// running value in registers between blocks.
    #[inline(always)]
    pub(crate) fn encrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let rk = &self.enc_keys;
        let mut s: [u32; 4] = core::array::from_fn(|c| block[c] ^ rk[0][c]);
        for k in &rk[1..10] {
            // Column c takes row n from column c + n: ShiftRows.
            s = core::array::from_fn(|c| {
                TE[0][byte(s[c], 0)]
                    ^ TE[1][byte(s[(c + 1) % 4], 1)]
                    ^ TE[2][byte(s[(c + 2) % 4], 2)]
                    ^ TE[3][byte(s[(c + 3) % 4], 3)]
                    ^ k[c]
            });
        }
        // The last round has no MixColumns: plain S-box bytes.
        core::array::from_fn(|c| {
            u32::from_be_bytes([
                SBOX[byte(s[c], 0)],
                SBOX[byte(s[(c + 1) % 4], 1)],
                SBOX[byte(s[(c + 2) % 4], 2)],
                SBOX[byte(s[(c + 3) % 4], 3)],
            ]) ^ rk[10][c]
        })
    }

    /// Decrypts a block held as column words.
    #[inline(always)]
    pub(crate) fn decrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let rk = &self.dec_keys;
        let mut s: [u32; 4] = core::array::from_fn(|c| block[c] ^ rk[0][c]);
        for k in &rk[1..10] {
            // Column c takes row n from column c - n: InvShiftRows.
            s = core::array::from_fn(|c| {
                TD[0][byte(s[c], 0)]
                    ^ TD[1][byte(s[(c + 3) % 4], 1)]
                    ^ TD[2][byte(s[(c + 2) % 4], 2)]
                    ^ TD[3][byte(s[(c + 1) % 4], 3)]
                    ^ k[c]
            });
        }
        core::array::from_fn(|c| {
            u32::from_be_bytes([
                INV_SBOX[byte(s[c], 0)],
                INV_SBOX[byte(s[(c + 3) % 4], 1)],
                INV_SBOX[byte(s[(c + 2) % 4], 2)],
                INV_SBOX[byte(s[(c + 1) % 4], 3)],
            ]) ^ rk[10][c]
        })
    }
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material; do say which rounds run.
        #[cfg(target_arch = "x86_64")]
        if self.hw.is_some() {
            return f.write_str("Aes128 { round_keys: [redacted], rounds: aes-ni }");
        }
        f.write_str("Aes128 { round_keys: [redacted], rounds: tables }")
    }
}

/// The byte-at-a-time cipher of FIPS-197 §5 (what [`Aes128`] was before
/// the table form), kept as the reference the equivalence proptest holds
/// the tables to.
#[cfg(test)]
mod reference {
    use super::{gmul, xtime, INV_SBOX, SBOX};

    pub struct Aes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl Aes128 {
        pub fn new(key: &[u8; 16]) -> Aes128 {
            let mut w = [[0u8; 4]; 44];
            for i in 0..4 {
                w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
            }
            let mut rcon = 1u8;
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = SBOX[usize::from(*b)];
                    }
                    temp[0] ^= rcon;
                    rcon = xtime(rcon);
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            Aes128 { round_keys }
        }

        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            add_round_key(block, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(block);
                shift_rows(block);
                mix_columns(block);
                add_round_key(block, &self.round_keys[round]);
            }
            sub_bytes(block);
            shift_rows(block);
            add_round_key(block, &self.round_keys[10]);
        }

        pub fn decrypt_block(&self, block: &mut [u8; 16]) {
            add_round_key(block, &self.round_keys[10]);
            inv_shift_rows(block);
            inv_sub_bytes(block);
            for round in (1..10).rev() {
                add_round_key(block, &self.round_keys[round]);
                inv_mix_columns(block);
                inv_shift_rows(block);
                inv_sub_bytes(block);
            }
            add_round_key(block, &self.round_keys[0]);
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[usize::from(*b)];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[usize::from(*b)];
        }
    }

    /// The state is column-major: byte `state[4c + r]` is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
            state[4 * c + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::each_backend;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table rounds and the equivalent-inverse key schedule — and
        /// the CPU's rounds and `aesimc` schedule, where it has them —
        /// agree with the byte-at-a-time cipher on every key and block.
        #[test]
        fn table_form_matches_the_byte_form(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let slow = reference::Aes128::new(&key);
            for fast in [Aes128::portable(&key), Aes128::new(&key)] {
                let (mut a, mut b) = (block, block);
                fast.encrypt_block(&mut a);
                slow.encrypt_block(&mut b);
                prop_assert_eq!(a, b);
                let (mut a, mut b) = (block, block);
                fast.decrypt_block(&mut a);
                slow.decrypt_block(&mut b);
                prop_assert_eq!(a, b);
            }
        }
    }

    /// FIPS-197 Appendix B: the worked AES-128 example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        each_backend(|backend| {
            let aes = backend.aes(&key);
            let mut block = block;
            aes.encrypt_block(&mut block);
            assert_eq!(block, expected);
            aes.decrypt_block(&mut block);
            assert_eq!(
                block,
                [
                    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0,
                    0x37, 0x07, 0x34
                ]
            );
        });
    }

    /// FIPS-197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        each_backend(|backend| {
            let mut block: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
            let aes = backend.aes(&key);
            aes.encrypt_block(&mut block);
            assert_eq!(
                block,
                [
                    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                    0xb4, 0xc5, 0x5a
                ]
            );
        });
    }

    #[test]
    fn decrypt_inverts_encrypt_for_many_blocks() {
        let aes = Aes128::new(b"0123456789abcdef");
        for i in 0u32..64 {
            let mut block = [0u8; 16];
            block[..4].copy_from_slice(&i.to_be_bytes());
            block[12] = i as u8;
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must change the block");
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(b"aaaaaaaaaaaaaaaa");
        let b = Aes128::new(b"aaaaaaaaaaaaaaab");
        let mut x = [7u8; 16];
        let mut y = [7u8; 16];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn debug_does_not_leak_key() {
        // The only thing `Debug` gives away is which rounds the key runs on.
        let aes = Aes128::portable(b"supersecretkey!!");
        assert_eq!(
            format!("{aes:?}"),
            "Aes128 { round_keys: [redacted], rounds: tables }"
        );
        let rounds = if crate::hardware().aes {
            "aes-ni"
        } else {
            "tables"
        };
        let aes = Aes128::new(b"supersecretkey!!");
        assert_eq!(
            format!("{aes:?}"),
            format!("Aes128 {{ round_keys: [redacted], rounds: {rounds} }}")
        );
    }
}
