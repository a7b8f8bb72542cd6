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
//! # Security note
//!
//! This is a research reproduction: correct against the standard vectors,
//! but with no side-channel hardening review. In particular the AES rounds
//! index 1 KiB tables with secret state bytes, as the portable ciphers of
//! 2009 did, so they are not cache-timing hardened; the only constant-time
//! code is the ICV comparison in [`HmacSha1::verify96`]. Do not use it to
//! protect real traffic.

#![forbid(unsafe_code)]

pub mod aes;
pub mod esp;
pub mod hmac;
pub mod modes;
pub mod sha1;

pub use aes::Aes128;
pub use esp::{EspDecryptor, EspEncryptor, SecurityAssociation};
pub use hmac::HmacSha1;
pub use sha1::Sha1;

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
