//! Property-based tests for the crypto primitives.

use dsaudit_crypto::chacha20::ChaCha20;
use dsaudit_crypto::hmac::hmac_sha256;
use dsaudit_crypto::prp::SmallDomainPrp;
use dsaudit_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental hashing over arbitrary chunkings equals one-shot.
    #[test]
    fn sha256_chunking_invariant(data in prop::collection::vec(any::<u8>(), 0..2048), split in 1usize..64) {
        let mut h = Sha256::new();
        for chunk in data.chunks(split) {
            h.update(chunk);
        }
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// ChaCha20 decrypt(encrypt(x)) == x for all keys/nonces/lengths.
    #[test]
    fn chacha_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(), data in prop::collection::vec(any::<u8>(), 0..1024)) {
        let cipher = ChaCha20::new(key, nonce);
        let mut buf = data.clone();
        cipher.encrypt(&mut buf);
        cipher.decrypt(&mut buf);
        prop_assert_eq!(buf, data);
    }

    /// The keystream differs across keys (no degenerate keys).
    #[test]
    fn chacha_key_sensitivity(k1 in any::<[u8; 32]>(), k2 in any::<[u8; 32]>()) {
        prop_assume!(k1 != k2);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ChaCha20::new(k1, [0u8; 12]).encrypt(&mut a);
        ChaCha20::new(k2, [0u8; 12]).encrypt(&mut b);
        prop_assert_ne!(a, b);
    }

    /// The PRP is a bijection on every sampled domain.
    #[test]
    fn prp_bijective(seed in any::<[u8; 8]>(), d in 1u64..512) {
        let prp = SmallDomainPrp::new(&seed, d);
        let mut seen = vec![false; d as usize];
        for x in 0..d {
            let y = prp.permute(x);
            prop_assert!(y < d);
            prop_assert!(!seen[y as usize], "collision at {}", y);
            seen[y as usize] = true;
        }
    }

    /// `sample_distinct` is the first `k` outputs of `permute`, on both
    /// sides of the round-function table rule (`2^half_bits <= k`): at
    /// `d <= 4096` the half-block is at most 6 bits, so `k` up to 96
    /// lands above and below the threshold.
    #[test]
    fn prp_sample_is_permute_prefix(seed in any::<[u8; 16]>(), d in 1u64..4097, k in 1usize..97) {
        let prp = SmallDomainPrp::new(&seed, d);
        let k = k.min(d as usize);
        let expected: Vec<u64> = (0..k as u64).map(|j| prp.permute(j)).collect();
        prop_assert_eq!(prp.sample_distinct(k), expected);
    }

    /// HMAC differs on any single-bit message change.
    #[test]
    fn hmac_message_sensitivity(key in any::<[u8; 16]>(), msg in prop::collection::vec(any::<u8>(), 1..256), bit in 0usize..8) {
        let mut flipped = msg.clone();
        let idx = msg.len() / 2;
        flipped[idx] ^= 1 << bit;
        prop_assert_ne!(hmac_sha256(&key, &msg), hmac_sha256(&key, &flipped));
    }
}
