//! Cryptographic primitives for the RouteBricks IPsec application.
//!
//! The paper's third workload encrypts "every packet … using AES-128
//! encryption, as is typical in VPNs" (§5.1). This crate implements the
//! full software path a VPN gateway runs per packet, from scratch:
//!
//! * [`aes`] — the AES-128 block cipher (FIPS-197).
//! * [`modes`] — CBC (the classic ESP mode) and CTR.
//! * [`sha1`] / [`hmac`] — SHA-1 and HMAC-SHA1-96, the authentication
//!   transform standard ESP deployments paired with AES-CBC in 2009.
//! * [`esp`] — RFC 4303 ESP tunnel-mode encapsulation/decapsulation with
//!   an anti-replay window.
//!
//! Correctness is verified against FIPS-197, NIST SP 800-38A, RFC 3174 and
//! RFC 2202 test vectors.
//!
//! # Backends
//!
//! The cipher and the hash each have two implementations behind the same
//! types. [`Aes128::new`] and [`Sha1::new`] ask the CPU once, at
//! construction, whether it has AES-NI and the SHA extensions (independent
//! answers; [`hardware`] reports them) and from then on run the
//! instructions in `x86.rs`; on every other CPU, and on any other
//! architecture, they run the portable code in [`aes`] and [`sha1`] — the
//! table cipher and unrolled hash a 2009 router ran. [`HmacSha1::new`]
//! also asks for AVX-512: with it, [`HmacSha1::mac96_batch`] hashes
//! sixteen messages at once, one per 32-bit lane, which is how a sealed
//! batch is authenticated — one `sha1rnds4` chain is bound by the
//! instruction's throughput, not its latency, so interleaving chains
//! buys nothing and width does. [`EspEncryptor::new`] asks for VAES: with
//! it, [`EspEncryptor::seal_batch_into`] runs sixteen packets' CBC chains
//! at once, four to a `zmm` register, and without it four, one to an
//! `xmm` register — one `aesenc` chain is bound by the instruction's
//! latency. There is no feature, environment
//! variable or setting to choose with. The `portable()` constructors skip
//! the question so that tests can hold the paths bit-equal and benches
//! can time them on one machine.
//!
//! `x86.rs` is the only file of the crate allowed `unsafe` (the crate is
//! `deny(unsafe_code)` with that one exception, and `scripts/ci.sh` checks
//! both that and a `// SAFETY:` line on every block).
//!
//! # Security note
//!
//! This is a research reproduction: correct against the standard vectors,
//! but with no side-channel hardening review. The hardware rounds index
//! nothing by secret bytes. The portable AES rounds do — they index 1 KiB
//! tables with secret state bytes, as the portable ciphers of 2009 did —
//! so that path is unchanged and still not cache-timing hardened, and it
//! is what runs wherever the CPU lacks AES-NI; `{:?}` of an [`Aes128`]
//! says which path a key is on (`rounds: aes-ni` or `rounds: tables`) and
//! nothing else about it. The only code written to be constant-time is the
//! ICV comparison in [`HmacSha1::verify96`]. Do not use it to protect real
//! traffic.

#![deny(unsafe_code)]

pub mod aes;
pub mod esp;
pub mod hmac;
pub mod modes;
pub mod sha1;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use aes::Aes128;
pub use esp::{EspDecryptor, EspEncryptor, SecurityAssociation};
pub use hmac::HmacSha1;
pub use sha1::Sha1;

/// Which of the CPU's crypto instructions [`Aes128::new`], [`Sha1::new`]
/// and [`HmacSha1::new`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hardware {
    /// AES-NI: `aesenc`/`aesdec` do the cipher's rounds.
    pub aes: bool,
    /// SHA extensions (with SSSE3 and SSE4.1): `sha1rnds4` does the hash's.
    pub sha: bool,
    /// AVX-512F and AVX-512BW: [`HmacSha1::mac96_batch`] hashes sixteen
    /// messages at once, one per 32-bit lane.
    pub avx512: bool,
    /// AVX-512F and VAES: [`EspEncryptor::seal_batch_into`] runs sixteen
    /// packets' CBC chains at once, four to a `zmm` register.
    pub vaes: bool,
}

/// What this CPU gives the crate; all `false` off x86-64.
pub fn hardware() -> Hardware {
    #[cfg(target_arch = "x86_64")]
    {
        let found = x86::detect();
        Hardware {
            aes: found.aes.is_some(),
            sha: found.sha.is_some(),
            avx512: found.avx512.is_some(),
            vaes: found.vaes.is_some(),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    Hardware {
        aes: false,
        sha: false,
        avx512: false,
        vaes: false,
    }
}

/// For the vector and wire-format tests: runs `case` once with the
/// constructors a router uses (`Backend::Native`) and once with the
/// portable ones. On a CPU where the two are the same code the first run
/// is replaced by a note, so a log never reads as if hardware was tested.
#[cfg(test)]
pub(crate) fn each_backend(case: impl Fn(Backend)) {
    let Hardware { aes, sha, .. } = hardware();
    if aes || sha {
        case(Backend::Native);
    }
    if !(aes && sha) {
        eprintln!("skipped: no aes/sha (aes: {aes}, sha: {sha})");
    }
    case(Backend::Portable);
}

/// See [`each_backend`].
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Backend {
    Native,
    Portable,
}

#[cfg(test)]
impl Backend {
    pub(crate) fn aes(self, key: &[u8; 16]) -> Aes128 {
        match self {
            Backend::Native => Aes128::new(key),
            Backend::Portable => Aes128::portable(key),
        }
    }

    pub(crate) fn sha1(self) -> Sha1 {
        match self {
            Backend::Native => Sha1::new(),
            Backend::Portable => Sha1::portable(),
        }
    }

    pub(crate) fn hmac(self, key: &[u8]) -> HmacSha1 {
        match self {
            Backend::Native => HmacSha1::new(key),
            Backend::Portable => HmacSha1::portable(key),
        }
    }

    pub(crate) fn esp(self, sa: &SecurityAssociation) -> (EspEncryptor, EspDecryptor) {
        match self {
            Backend::Native => (EspEncryptor::new(sa), EspDecryptor::new(sa)),
            Backend::Portable => (EspEncryptor::portable(sa), EspDecryptor::portable(sa)),
        }
    }
}

/// Errors surfaced by decryption / decapsulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// Ciphertext length is not a whole number of blocks.
    BadLength(usize),
    /// ESP packet too short to contain the mandatory fields.
    Truncated(usize),
    /// The integrity check value did not verify.
    BadIcv,
    /// Padding bytes did not match the RFC 4303 monotone pattern.
    BadPadding,
    /// Anti-replay window rejected the sequence number.
    Replayed(u32),
    /// The outbound SA has used every sequence number (RFC 4303 §3.3.3:
    /// the counter must not cycle; the SA has to be replaced).
    SeqExhausted,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            CryptoError::BadLength(n) => write!(f, "ciphertext length {n} not block-aligned"),
            CryptoError::Truncated(n) => write!(f, "ESP packet too short: {n} bytes"),
            CryptoError::BadIcv => write!(f, "integrity check failed"),
            CryptoError::BadPadding => write!(f, "invalid ESP padding"),
            CryptoError::Replayed(seq) => write!(f, "replayed sequence number {seq}"),
            CryptoError::SeqExhausted => write!(f, "ESP sequence numbers exhausted"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, CryptoError>;
