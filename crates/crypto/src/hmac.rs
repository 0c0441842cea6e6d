//! HMAC-SHA-256 (RFC 2104), the keyed-PRF base for challenge expansion.

use crate::assert_not_formattable;
use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// An HMAC key with the inner/outer pad blocks pre-absorbed. Challenge
/// expansion calls HMAC hundreds of times per audit round under the same
/// key (Feistel rounds of the index PRP, one PRF call per coefficient);
/// reusing the midstates halves the SHA-256 compressions of every call —
/// two per short-message MAC instead of four.
/// Neither `Debug` nor `Display`: the pad midstates are key-equivalent
/// material, and [`crate::assert_not_formattable`] fails the build if
/// either is implemented.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

assert_not_formattable!(HmacKey);

/// Best-effort zeroize-on-drop: both pad midstates are wiped, so a
/// dropped challenge-expansion key does not linger on the heap/stack.
impl Drop for HmacKey {
    fn drop(&mut self) {
        self.inner.wipe();
        self.outer.wipe();
    }
}

impl HmacKey {
    /// Derives the pad midstates for `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let mut h = Sha256::new();
            h.update(key);
            key_block[..32].copy_from_slice(&h.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        Self { inner, outer }
    }

    /// `HMAC-SHA256(key, message)` from the cached midstates.
    ///
    /// Constant-time contract: branch-free — no control flow depends on
    /// the key midstates (enforced by the `ct-branch` lint).
    // lint:ct
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut h = self.inner.clone();
        h.update(message);
        let inner_digest = h.finalize();
        let mut o = self.outer.clone();
        o.update(&inner_digest);
        o.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)` (one-shot).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }
}
