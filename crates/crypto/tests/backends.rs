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
use rb_crypto::esp::{sealed_len, ESP_PREFIX_LEN};
use rb_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_apply};
use rb_crypto::sha1::Sha1;
use rb_crypto::{hardware, EspDecryptor, EspEncryptor, HmacSha1, SecurityAssociation};

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

/// Whether the sixteen-lane CBC cases compare the lanes with anything.
fn vaes_hardware() -> bool {
    if !hardware().vaes {
        eprintln!("skipped: no vaes (the sixteen CBC lanes are not exercised)");
    }
    hardware().vaes
}

/// The three ways this CPU seals a batch: the table cipher's plain loop,
/// four AES-NI lanes (VAES withheld) and, where the CPU has VAES, sixteen
/// lanes. Without the instructions the last two are the first again.
fn batch_sealers(sa: &SecurityAssociation) -> [(&'static str, EspEncryptor); 3] {
    [
        ("tables", EspEncryptor::portable(sa)),
        ("aesni4", EspEncryptor::without_vaes(sa)),
        ("vaes16", EspEncryptor::new(sa)),
    ]
}

/// Buffers laid out for `seal_into`: the payload where it goes, stale
/// bytes around it.
fn laid_out(lens: &[usize], seed: u8) -> Vec<(Vec<u8>, usize)> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            let mut buf = vec![0xee ^ seed; sealed_len(len)];
            for (b, byte) in buf[ESP_PREFIX_LEN..ESP_PREFIX_LEN + len]
                .iter_mut()
                .enumerate()
            {
                *byte = (b * 7 + i) as u8 ^ seed;
            }
            (buf, len)
        })
        .collect()
}

/// Seals `lens` as one batch on `enc` from sequence number `start`, and as
/// one `seal_into` per packet on the table cipher from the same number
/// until it refuses: the batch seals as many, to the same bytes, leaves
/// every buffer after them as it was and ends on the same number.
fn assert_batch_is_single_seals(
    name: &str,
    enc: EspEncryptor,
    sa: &SecurityAssociation,
    start: u32,
    lens: &[usize],
    seed: u8,
) {
    let (mut enc, mut single) = (
        enc.resuming_at(start),
        EspEncryptor::portable(sa).resuming_at(start),
    );
    let fresh = laid_out(lens, seed);
    let mut expected = fresh.clone();
    let mut sealed = 0;
    for (buf, len) in &mut expected {
        if single.seal_into(buf, *len).is_err() {
            break;
        }
        sealed += 1;
    }
    let mut batch = fresh.clone();
    let got = enc.seal_batch_into(batch.iter_mut().map(|(buf, len)| (&mut buf[..], *len)));
    assert_eq!(got, sealed, "{name}: {} packets from {start}", lens.len());
    for (i, ((got, _), (want, _))) in batch.iter().zip(&expected).enumerate() {
        assert!(
            got == want,
            "{name}: packet {i} of {} from {start}",
            lens.len()
        );
    }
    assert!(
        batch[sealed..] == fresh[sealed..],
        "{name}: the rest untouched"
    );
    assert_eq!(enc.next_seq(), single.next_seq(), "{name}");

    // Apart from the framing both sides share: each IV is its sequence
    // number and the SPI, `seq ‖ spi ‖ 0`, under the payload key, and each
    // packet opens to its payload.
    let (aes, mut dec) = (Aes128::portable(&sa.enc_key), EspDecryptor::portable(sa));
    for (i, ((buf, len), (plain, _))) in batch[..sealed].iter().zip(&fresh).enumerate() {
        let mut iv = [0u8; 16];
        iv[..4].copy_from_slice(&buf[4..8]);
        iv[4..8].copy_from_slice(&sa.spi.to_be_bytes());
        aes.encrypt_block(&mut iv);
        assert_eq!(buf[8..ESP_PREFIX_LEN], iv, "{name}: IV of packet {i}");
        let payload = &plain[ESP_PREFIX_LEN..ESP_PREFIX_LEN + len];
        assert_eq!(dec.open(buf).as_deref(), Ok(payload), "{name}: packet {i}");
    }
}

/// Inner lengths at the padding extremes, the 64 B / Abilene-mean / MTU
/// frames, and the empty payload.
const MIXED: [usize; 7] = [0, 1, 15, 16, 50, 746, 1486];

/// Batches one short of, at and one past the four- and sixteen-lane
/// widths and the 32-packet batch, on every backend.
#[test]
fn batch_seal_agrees_at_every_width_edge() {
    if !aes_hardware() || !vaes_hardware() {
        eprintln!("(the tables row still runs)");
    }
    let sa = SecurityAssociation::from_seed(0x5ea1);
    for n in [1usize, 3, 4, 5, 15, 16, 17, 32, 33] {
        let lens: Vec<usize> = (0..n).map(|i| MIXED[(i * 3 + n) % 7]).collect();
        for (name, enc) in batch_sealers(&sa) {
            assert_batch_is_single_seals(name, enc, &sa, 1, &lens, n as u8);
        }
    }
}

/// The SA runs out of sequence numbers in the middle of a batch — in the
/// first 32 and in the second, and on the very first packet — on every
/// backend.
#[test]
fn batch_seal_stops_mid_batch_where_the_numbers_do() {
    let sa = SecurityAssociation::from_seed(0x5ea1);
    let lens: Vec<usize> = (0..40).map(|i| MIXED[(i * 5) % 7]).collect();
    for left in [0u32, 1, 10, 16, 17, 33] {
        let start = if left == 0 { 0 } else { u32::MAX - left + 1 };
        for (name, enc) in batch_sealers(&sa) {
            assert_batch_is_single_seals(name, enc, &sa, start, &lens, left as u8);
        }
    }
}

/// What `scripts/ci.sh` prints next to its core count, so a log says what
/// the crypto tests and the benchmark smoke exercised.
#[test]
fn detected_backend_is_reported() {
    let yes_no = |b| if b { "yes" } else { "no" };
    let hw = hardware();
    println!(
        "crypto backend: aes {}, sha {}, avx512 {}, vaes {}; {:?}",
        yes_no(hw.aes),
        yes_no(hw.sha),
        yes_no(hw.avx512),
        yes_no(hw.vaes),
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

proptest! {
    // Each case seals up to 40 packets three ways and opens them.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch of 1–40 packets (past the four and sixteen lanes, and past
    /// 32 into a second batch) of inner lengths 0–1,600, a third of them
    /// at the lengths where the padding changes shape, from a sequence
    /// number that sometimes runs out midway: on each backend the batch
    /// seal is one `seal_into` per packet on the table cipher.
    #[test]
    fn esp_batch_seal_agrees(
        lens in prop::collection::vec((0..1_601usize, 0..3u8), 1..41),
        seed in any::<u8>(),
        start in prop_oneof![1..1_000u32, u32::MAX - 40..=u32::MAX],
    ) {
        const EDGES: [usize; 6] = [0, 13, 14, 15, 16, 30];
        let lens: Vec<usize> = lens
            .iter()
            .map(|&(len, pick)| if pick == 0 { EDGES[len % 6] } else { len })
            .collect();
        let sa = SecurityAssociation::from_seed(u64::from(seed));
        for (name, enc) in batch_sealers(&sa) {
            assert_batch_is_single_seals(name, enc, &sa, start, &lens, seed);
        }
    }
}
