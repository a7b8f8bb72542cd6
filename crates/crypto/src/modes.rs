//! Block-cipher modes of operation: CBC and CTR.
//!
//! Each call looks once at which rounds its key runs on. On the table
//! cipher a chain is walked a block at a time with the running value in
//! registers. On AES-NI `cbc_encrypt` is one `aesenc` chain, bound by the
//! instruction's latency (a block cannot start before the one in front of
//! it is out), and `cbc_decrypt`, which has no such dependency, runs eight
//! blocks side by side. [`crate::esp`]'s batch seal gets around the
//! encrypting chain's latency by interleaving the chains of several packets.

use crate::aes::{load_words, store_words, Aes128, BLOCK_SIZE};
use crate::{CryptoError, Result};

/// Encrypts `data` in place with AES-128-CBC.
///
/// # Errors
///
/// Returns [`CryptoError::BadLength`] unless `data.len()` is a multiple of
/// the block size (callers pad first; ESP padding lives in [`crate::esp`]).
pub fn cbc_encrypt(aes: &Aes128, iv: &[u8; 16], data: &mut [u8]) -> Result<()> {
    if !data.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CryptoError::BadLength(data.len()));
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = aes.hw() {
        hw.cbc_encrypt(iv, data);
        return Ok(());
    }
    // The chain value stays in registers as column words across blocks.
    let mut chain = load_words(iv);
    for block in data.chunks_exact_mut(BLOCK_SIZE) {
        let block: &mut [u8; 16] = block.try_into().expect("chunk is 16 bytes");
        let plain = load_words(block);
        chain = aes.encrypt_words(core::array::from_fn(|c| plain[c] ^ chain[c]));
        store_words(chain, block);
    }
    Ok(())
}

/// Decrypts `data` in place with AES-128-CBC.
///
/// # Errors
///
/// Returns [`CryptoError::BadLength`] for non-block-aligned input.
pub fn cbc_decrypt(aes: &Aes128, iv: &[u8; 16], data: &mut [u8]) -> Result<()> {
    if !data.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CryptoError::BadLength(data.len()));
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = aes.hw() {
        hw.cbc_decrypt(iv, data);
        return Ok(());
    }
    let mut chain = load_words(iv);
    for block in data.chunks_exact_mut(BLOCK_SIZE) {
        let block: &mut [u8; 16] = block.try_into().expect("chunk is 16 bytes");
        let cipher = load_words(block);
        let plain = aes.decrypt_words(cipher);
        store_words(core::array::from_fn(|c| plain[c] ^ chain[c]), block);
        chain = cipher;
    }
    Ok(())
}

/// Encrypts or decrypts `data` in place with AES-128-CTR (symmetric).
///
/// The 16-byte counter block is `nonce (12 bytes) || big-endian u32
/// counter` starting at `initial_counter`; any data length is allowed.
pub fn ctr_apply(aes: &Aes128, nonce: &[u8; 12], initial_counter: u32, data: &mut [u8]) {
    let mut counter = initial_counter;
    for block in data.chunks_mut(BLOCK_SIZE) {
        let mut keystream = [0u8; BLOCK_SIZE];
        keystream[..12].copy_from_slice(nonce);
        keystream[12..].copy_from_slice(&counter.to_be_bytes());
        aes.encrypt_block(&mut keystream);
        for (b, k) in block.iter_mut().zip(&keystream) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::each_backend;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// NIST SP 800-38A F.2.1: AES-128-CBC encryption vectors.
    #[test]
    fn sp800_38a_cbc_vectors() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let plain = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let expected = hex(concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ));
        each_backend(|backend| {
            let aes = backend.aes(&key);
            let mut data = plain.clone();
            cbc_encrypt(&aes, &iv, &mut data).unwrap();
            assert_eq!(data, expected);
            cbc_decrypt(&aes, &iv, &mut data).unwrap();
            assert_eq!(data[..16], hex("6bc1bee22e409f96e93d7e117393172a")[..]);
        });
    }

    /// NIST SP 800-38A F.5.1: AES-128-CTR vector (counter block split as
    /// nonce+counter to match our API).
    #[test]
    fn sp800_38a_ctr_vector() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let nonce: [u8; 12] = hex("f0f1f2f3f4f5f6f7f8f9fafb").try_into().unwrap();
        each_backend(|backend| {
            let mut data = hex("6bc1bee22e409f96e93d7e117393172a");
            let aes = backend.aes(&key);
            ctr_apply(&aes, &nonce, 0xfcfd_feff, &mut data);
            assert_eq!(data, hex("874d6191b620e3261bef6864990db6ce"));
        });
    }

    #[test]
    fn cbc_round_trip_multi_block() {
        let aes = Aes128::new(b"roundtripkey0000");
        let iv = [9u8; 16];
        let original: Vec<u8> = (0..64u8).collect();
        let mut data = original.clone();
        cbc_encrypt(&aes, &iv, &mut data).unwrap();
        assert_ne!(data, original);
        cbc_decrypt(&aes, &iv, &mut data).unwrap();
        assert_eq!(data, original);
    }

    #[test]
    fn cbc_rejects_ragged_length() {
        let aes = Aes128::new(&[0; 16]);
        let mut data = vec![0u8; 17];
        assert!(matches!(
            cbc_encrypt(&aes, &[0; 16], &mut data),
            Err(CryptoError::BadLength(17))
        ));
        assert!(cbc_decrypt(&aes, &[0; 16], &mut data).is_err());
    }

    #[test]
    fn ctr_is_its_own_inverse_any_length() {
        let aes = Aes128::new(b"ctrmodetestkey!!");
        let nonce = [3u8; 12];
        for len in [0usize, 1, 15, 16, 17, 100] {
            let original: Vec<u8> = (0..len as u8).collect();
            let mut data = original.clone();
            ctr_apply(&aes, &nonce, 1, &mut data);
            ctr_apply(&aes, &nonce, 1, &mut data);
            assert_eq!(data, original, "len {len}");
        }
    }

    #[test]
    fn cbc_identical_plaintext_blocks_differ_in_ciphertext() {
        let aes = Aes128::new(&[1; 16]);
        let mut data = vec![0xabu8; 32];
        cbc_encrypt(&aes, &[0; 16], &mut data).unwrap();
        assert_ne!(data[..16], data[16..]);
    }
}
