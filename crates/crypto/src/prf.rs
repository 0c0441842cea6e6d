//! Random-oracle instantiations used by the audit protocol:
//!
//! * `prf_fr` — the PRF `f : {0,1}^lambda -> Z_p^k` expanding challenge
//!   seed `C2` into coefficients `{c_i}` (Definition 2 of the paper);
//! * `hash_to_g1` — the random oracle `H : {0,1}^* -> G1` used for block
//!   indexing `H(name || i)`;
//! * `h_prime` — the universal oracle `H' : GT -> Z_p` that derives the
//!   Sigma-protocol challenge `zeta = H'(R)`.

use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::pairing::Gt;
use dsaudit_algebra::{Fq, Fr};

use crate::hmac::HmacKey;
use crate::sha256::{sha256, sha256_wide};

/// PRF `f`: derives the `i`-th pseudorandom scalar from a seed.
/// Statistically uniform over `Fr` (wide reduction from 512 bits).
pub fn prf_fr(seed: &[u8], index: u64) -> Fr {
    prf_fr_keyed(&HmacKey::new(seed), index)
}

/// [`prf_fr`] against a prepared [`HmacKey`] — challenge expansion
/// derives `k` coefficients from one seed, and the cached pad midstates
/// halve the SHA-256 compressions of each derivation.
///
/// Constant-time contract: the body is branch-free — no control flow
/// depends on the key or the derived coefficient, so the evaluation
/// leaks nothing about either through timing. Enforced by the
/// `ct-branch` lint via the annotation below.
// lint:ct
pub fn prf_fr_keyed(key: &HmacKey, index: u64) -> Fr {
    // `"dsaudit/prf/" || index (8 B LE)`, then the same with a trailing
    // 0xff for the high half of the wide reduction
    let mut msg = [0u8; 21];
    msg[..12].copy_from_slice(b"dsaudit/prf/");
    msg[12..20].copy_from_slice(&index.to_le_bytes());
    msg[20] = 0xff;
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&key.mac(&msg[..20]));
    wide[32..].copy_from_slice(&key.mac(&msg));
    Fr::from_bytes_wide(&wide)
}

/// The random oracle `H'` hiding the polynomial evaluation:
/// `zeta = H'(R)` with `R = e(g1, eps)^z` (§V-D).
pub fn h_prime(r: &Gt) -> Fr {
    let mut msg = Vec::with_capacity(397);
    msg.extend_from_slice(b"dsaudit/hprime/");
    msg.extend_from_slice(&r.to_uncompressed());
    Fr::from_bytes_wide(&sha256_wide(&msg))
}

/// The random oracle `H : {0,1}^* -> G1` by try-and-increment.
///
/// BN254's G1 has cofactor 1, so any curve point is already in the prime
/// subgroup. About two candidate x-coordinates are tried on average.
pub fn hash_to_g1(msg: &[u8]) -> G1Affine {
    let base = sha256(msg);
    for ctr in 0u32..=u32::MAX {
        let mut attempt = Vec::with_capacity(40);
        attempt.extend_from_slice(b"dsaudit/h2c/");
        attempt.extend_from_slice(&base);
        attempt.extend_from_slice(&ctr.to_le_bytes());
        let wide = sha256_wide(&attempt);
        let x = Fq::from_bytes_wide(&wide);
        let y2 = x.square() * x + Fq::from_u64(3);
        if let Some(mut y) = y2.sqrt() {
            // use one keyed bit to pick the y sign, so the oracle output
            // is not biased towards even y
            let sign_bit = sha256(&attempt)[0] & 1 == 1;
            if y.is_odd() != sign_bit {
                y = -y;
            }
            return G1Affine::from_xy(x, y).expect("constructed point is on the curve");
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

/// The per-chunk index oracle `t_i = H(name || i)` used by both prover
/// (authenticator generation) and verifier (`chi` computation).
pub fn index_oracle(name: Fr, chunk_index: u64) -> G1Affine {
    let mut msg = Vec::with_capacity(56);
    msg.extend_from_slice(b"dsaudit/index/");
    msg.extend_from_slice(&name.to_bytes_be());
    msg.extend_from_slice(&chunk_index.to_le_bytes());
    hash_to_g1(&msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_deterministic_and_index_sensitive() {
        let a = prf_fr(b"seed", 0);
        let b = prf_fr(b"seed", 0);
        let c = prf_fr(b"seed", 1);
        let d = prf_fr(b"other", 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn hash_to_g1_on_curve_and_deterministic() {
        let p = hash_to_g1(b"hello world");
        assert!(p.is_on_curve());
        assert!(!p.infinity);
        assert_eq!(p, hash_to_g1(b"hello world"));
        assert_ne!(p, hash_to_g1(b"hello worle"));
    }

    #[test]
    fn index_oracle_distinct_across_indices() {
        let name = Fr::from_u64(42);
        let t0 = index_oracle(name, 0);
        let t1 = index_oracle(name, 1);
        assert_ne!(t0, t1);
        assert_ne!(index_oracle(Fr::from_u64(43), 0), t0);
    }

    #[test]
    fn h_prime_depends_on_input() {
        let g = Gt::generator();
        let a = h_prime(&g);
        let b = h_prime(&g.pow(Fr::from_u64(2)));
        assert_ne!(a, b);
        assert_eq!(a, h_prime(&Gt::generator()));
    }
}
