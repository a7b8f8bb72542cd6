//! Differential tests: the CPU's AES and SHA-1 rounds against the portable
//! table cipher and unrolled hash, which are themselves held to the
//! byte-oriented references and the standard vectors in the unit tests.
//!
//! `new()` constructors take whatever the CPU offers and `portable()` ones
//! never ask, so on a machine with the instructions every case below
//! compares two implementations. On one without, both sides are the same
//! code: such a run says `skipped: no aes/sha` (or `skipped: no avx512`
//! for the sixteen-lane HMAC) and checks nothing.

use proptest::prelude::*;
use rb_crypto::aes::Aes128;
use rb_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_apply};
use rb_crypto::sha1::Sha1;
use rb_crypto::{hardware, HmacSha1};

/// Whether the cipher cases compare anything; says so when they do not.
fn aes_hardware() -> bool {
    if !hardware().aes {
        eprintln!("skipped: no aes/sha (aes: false)");
    }
    hardware().aes
}

/// Whether the hash cases compare anything; says so when they do not.
fn sha_hardware() -> bool {
    if !hardware().sha {
        eprintln!("skipped: no aes/sha (sha: false)");
    }
    hardware().sha
}

/// Whether the batch HMAC cases compare the lanes with anything.
fn avx512_hardware() -> bool {
    if !hardware().avx512 {
        eprintln!("skipped: no avx512");
    }
    hardware().avx512
}

/// What `scripts/ci.sh` prints next to its core count, so a log says what
/// the crypto tests and the benchmark smoke exercised.
#[test]
fn detected_backend_is_reported() {
    let yes_no = |b| if b { "yes" } else { "no" };
    let hw = hardware();
    println!(
        "crypto backend: aes {}, sha {}, avx512 {}; {:?}",
        yes_no(hw.aes),
        yes_no(hw.sha),
        yes_no(hw.avx512),
        Aes128::new(&[0; 16])
    );
    let rounds = if hw.aes { "aes-ni" } else { "tables" };
    assert!(format!("{:?}", Aes128::new(&[0; 16])).ends_with(&format!("rounds: {rounds} }}")));
    assert!(format!("{:?}", Aes128::portable(&[0; 16])).ends_with("rounds: tables }"));
}

/// Every block-aligned length an ESP body can have, and the empty one.
fn block_aligned_lengths() -> impl Iterator<Item = usize> {
    (0..=1_504).step_by(16)
}

/// CBC both ways and CTR on both backends over `data`, which must come out
/// the same and round-trip.
fn assert_modes_agree(key: &[u8; 16], iv: &[u8; 16], data: &[u8]) {
    let (hw, tables) = (Aes128::new(key), Aes128::portable(key));
    let (mut a, mut b) = (data.to_vec(), data.to_vec());
    cbc_encrypt(&hw, iv, &mut a).unwrap();
    cbc_encrypt(&tables, iv, &mut b).unwrap();
    assert_eq!(a, b, "cbc_encrypt, {} bytes", data.len());
    // Decrypt what the *other* backend produced, and plain data too (CBC
    // decryption of arbitrary bytes is as defined as of ciphertext).
    cbc_decrypt(&hw, iv, &mut b).unwrap();
    cbc_decrypt(&tables, iv, &mut a).unwrap();
    assert_eq!(a, data, "tables decrypt hardware's ciphertext");
    assert_eq!(b, data, "hardware decrypts tables' ciphertext");
    cbc_decrypt(&hw, iv, &mut a).unwrap();
    cbc_decrypt(&tables, iv, &mut b).unwrap();
    assert_eq!(a, b, "cbc_decrypt, {} bytes", data.len());

    let nonce: &[u8; 12] = iv[..12].try_into().unwrap();
    let counter = u32::from_be_bytes(iv[12..].try_into().unwrap());
    let (mut a, mut b) = (data.to_vec(), data.to_vec());
    ctr_apply(&hw, nonce, counter, &mut a);
    ctr_apply(&tables, nonce, counter, &mut b);
    assert_eq!(a, b, "ctr_apply, {} bytes", data.len());
}

/// Every length once, on a fixed key: the eight-wide decrypt's remainder
/// handling sees 0..=7 trailing blocks behind 0..=11 full groups.
#[test]
fn modes_agree_at_every_block_aligned_length() {
    if !aes_hardware() {
        return;
    }
    let key = *b"every length key";
    for len in block_aligned_lengths() {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
        let iv: [u8; 16] = core::array::from_fn(|i| (len + i * 5) as u8);
        assert_modes_agree(&key, &iv, &data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_cipher_agrees(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        if !aes_hardware() {
            return Ok(());
        }
        let (hw, tables) = (Aes128::new(&key), Aes128::portable(&key));
        let (mut a, mut b) = (block, block);
        hw.encrypt_block(&mut a);
        tables.encrypt_block(&mut b);
        prop_assert_eq!(a, b);
        let (mut a, mut b) = (block, block);
        hw.decrypt_block(&mut a);
        tables.decrypt_block(&mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn modes_agree(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        len in any::<prop::sample::Index>(),
        data in prop::collection::vec(any::<u8>(), 1_504..1_505),
    ) {
        if !aes_hardware() {
            return Ok(());
        }
        let len = 16 * len.index(block_aligned_lengths().count());
        assert_modes_agree(&key, &iv, &data[..len]);
    }

    /// Lengths 0..=300 cover no block, the one- and two-block paddings and
    /// four whole blocks handed over in one call; the split point moves the
    /// boundary between buffered and in-place blocks.
    #[test]
    fn sha1_agrees(
        data in prop::collection::vec(any::<u8>(), 300..301),
        split in any::<prop::sample::Index>(),
    ) {
        if !sha_hardware() {
            return Ok(());
        }
        for len in 0..=300 {
            let (head, tail) = data[..len].split_at(split.index(len + 1));
            let (mut hw, mut portable) = (Sha1::new(), Sha1::portable());
            hw.update(head);
            hw.update(tail);
            portable.update(&data[..len]);
            prop_assert_eq!(hw.finalize(), portable.finalize(), "{} bytes", len);
        }
    }

    #[test]
    fn hmac_sha1_96_agrees(
        key in prop::collection::vec(any::<u8>(), 0..100),
        msg in prop::collection::vec(any::<u8>(), 0..1_600),
    ) {
        if !sha_hardware() {
            return Ok(());
        }
        let (hw, portable) = (HmacSha1::new(&key), HmacSha1::portable(&key));
        let icv = hw.mac96(&msg);
        prop_assert_eq!(icv, portable.mac96(&msg));
        prop_assert!(portable.verify96(&msg, &icv));
    }

    /// A batch of 1–40 messages (lanes refill past 16, the batch is taken
    /// in two past 32) of lengths 0–1,600, a third of them at the lengths
    /// where the inner hash's padding changes shape: the ICVs are those
    /// of one portable `mac96` per message.
    #[test]
    fn hmac_sha1_96_batch_agrees(
        key in prop::collection::vec(any::<u8>(), 0..100),
        lens in prop::collection::vec((0..1_601usize, 0..3u8), 1..41),
        seed in any::<u8>(),
    ) {
        if !avx512_hardware() {
            return Ok(());
        }
        const BOUNDARIES: [usize; 6] = [55, 56, 63, 64, 119, 120];
        let msgs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &(len, pick))| {
                let len = if pick == 0 { BOUNDARIES[len % 6] } else { len };
                (0..len).map(|b| (b * 7 + i) as u8 ^ seed).collect()
            })
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut icvs = vec![[0u8; 12]; msgs.len()];
        HmacSha1::new(&key).mac96_batch(&refs, &mut icvs);
        let portable = HmacSha1::portable(&key);
        for (i, msg) in msgs.iter().enumerate() {
            prop_assert_eq!(icvs[i], portable.mac96(msg), "message {} of {} bytes", i, msg.len());
        }
    }
}
