//! HMAC-SHA1 (RFC 2104), including the truncated HMAC-SHA1-96 form ESP
//! uses as its integrity check value.

use crate::sha1::{Sha1, BLOCK_LEN, DIGEST_LEN};

/// Length in bytes of the truncated ESP authenticator (RFC 2404).
pub const ICV_LEN: usize = 12;

/// A keyed HMAC-SHA1 instance.
///
/// The key only enters through the first block of each hash (`key ^ ipad`
/// and `key ^ opad`), so both are compressed once here and every MAC
/// resumes from those midstates: `⌈(len + 9) / 64⌉ + 1` compressions per
/// message instead of `+ 3`.
#[derive(Clone)]
pub struct HmacSha1 {
    /// SHA-1 having absorbed `key ^ ipad`.
    inner: Sha1,
    /// SHA-1 having absorbed `key ^ opad`.
    outer: Sha1,
}

impl HmacSha1 {
    /// Creates an instance from a key of any length (long keys are hashed
    /// first, per RFC 2104).
    pub fn new(key: &[u8]) -> HmacSha1 {
        HmacSha1::keyed(Sha1::new(), key)
    }

    /// [`HmacSha1::new`] over [`Sha1::portable`]: the reference side of the
    /// differential tests.
    pub fn portable(key: &[u8]) -> HmacSha1 {
        HmacSha1::keyed(Sha1::portable(), key)
    }

    /// Keys an instance whose hashes all start as clones of `fresh`.
    fn keyed(fresh: Sha1, key: &[u8]) -> HmacSha1 {
        let mut normalized = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            normalized[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            normalized[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = fresh.clone();
            h.update(&normalized.map(|b| b ^ pad));
            h
        };
        HmacSha1 {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Computes the full 20-byte MAC of `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        inner.update(data);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Computes the 96-bit truncated MAC used as the ESP ICV.
    pub fn mac96(&self, data: &[u8]) -> [u8; ICV_LEN] {
        let full = self.mac(data);
        let mut out = [0u8; ICV_LEN];
        out.copy_from_slice(&full[..ICV_LEN]);
        out
    }

    /// Verifies a 96-bit ICV in constant time.
    pub fn verify96(&self, data: &[u8], icv: &[u8]) -> bool {
        if icv.len() != ICV_LEN {
            return false;
        }
        let expected = self.mac96(data);
        // Constant-time comparison: accumulate differences, decide once.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(icv) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl core::fmt::Debug for HmacSha1 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("HmacSha1 { key: [redacted] }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 2202 HMAC-SHA1 test cases 1–7.
    #[test]
    fn rfc2202_vectors() {
        let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                hex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
                vec![0xcd; 50],
                "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
            ),
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
                    .to_vec(),
                "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
            ),
        ];
        crate::each_backend(|backend| {
            for (key, data, expected) in &cases {
                let mac = backend.hmac(key).mac(data);
                assert_eq!(mac.to_vec(), hex(expected));
            }
        });
    }

    #[test]
    fn mac96_is_prefix_of_full_mac() {
        let h = HmacSha1::new(b"key");
        let full = h.mac(b"message");
        assert_eq!(h.mac96(b"message"), full[..12]);
    }

    #[test]
    fn verify96_accepts_good_rejects_bad() {
        let h = HmacSha1::new(b"key");
        let mut icv = h.mac96(b"payload").to_vec();
        assert!(h.verify96(b"payload", &icv));
        icv[0] ^= 1;
        assert!(!h.verify96(b"payload", &icv));
        assert!(!h.verify96(b"payload", &icv[..11]));
        assert!(!h.verify96(b"other payload", &h.mac96(b"payload")));
    }
}
