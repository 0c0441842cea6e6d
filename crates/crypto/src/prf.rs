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
/// subgroup. About two candidate x-coordinates are tried on average;
/// each is asked for its Legendre symbol (shifts and subtractions) first,
/// so only the one that has a root pays for the square-root power.
pub fn hash_to_g1(msg: &[u8]) -> G1Affine {
    // `"dsaudit/h2c/" || SHA-256(msg) || ctr (4 B LE)`
    let mut attempt = [0u8; 48];
    attempt[..12].copy_from_slice(b"dsaudit/h2c/");
    attempt[12..44].copy_from_slice(&sha256(msg));
    for ctr in 0u32..=u32::MAX {
        attempt[44..].copy_from_slice(&ctr.to_le_bytes());
        let x = Fq::from_bytes_wide(&sha256_wide(&attempt));
        let y2 = x.square() * x + Fq::from_u64(3);
        if y2.legendre() < 0 {
            continue;
        }
        let mut y = y2.sqrt().expect("legendre-checked residue has a root");
        // use one keyed bit to pick the y sign, so the oracle output
        // is not biased towards even y
        let sign_bit = sha256(&attempt)[0] & 1 == 1;
        if y.is_odd() != sign_bit {
            y = -y;
        }
        return G1Affine::from_xy(x, y).expect("constructed point is on the curve");
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

/// The per-chunk index oracle `t_i = H(name || i)` used by both prover
/// (authenticator generation) and verifier (`chi` computation).
pub fn index_oracle(name: Fr, chunk_index: u64) -> G1Affine {
    // `"dsaudit/index/" || name (32 B BE) || i (8 B LE)`
    let mut msg = [0u8; 54];
    msg[..14].copy_from_slice(b"dsaudit/index/");
    msg[14..46].copy_from_slice(&name.to_bytes_be());
    msg[46..].copy_from_slice(&chunk_index.to_le_bytes());
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

    fn hex(p: &G1Affine) -> String {
        p.to_compressed().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answers for `H`, as compressed points: the candidate
    /// layout, the wide reduction, the residue test, the root and its
    /// keyed sign all feed these bytes, and every tag ever issued
    /// depends on them. Captured before the Jacobi filter and the
    /// windowed `pow` went in; neither may move them.
    #[test]
    fn hash_to_g1_known_answers() {
        let long: Vec<u8> = (0..200u8).collect();
        let cases: [(&[u8], &str); 4] = [
            (b"", "084fda1b8a0fc5c19f3b09878a4115c89219917b2c95c9b43246264a831ad289"),
            (b"abc", "2f50ca687998880c8e24822ca8170f91ad9109802b245708e879a6863f4222c4"),
            (b"hello world", "69486923f2d56595aa43d9f5e8b6328fcd3b70166950e2e8d9be14227d98b4a4"),
            (&long, "41f1827fe8f5a49962d3ec51acd58c9fe9c2f3e10b5486f5712e5cf7c2b52254"),
        ];
        for (msg, want) in cases {
            assert_eq!(hex(&hash_to_g1(msg)), want, "msg={msg:?}");
        }
    }

    /// Known answers for `t_i = H(name || i)` at the index boundaries.
    #[test]
    fn index_oracle_known_answers() {
        let name = Fr::from_u64(42);
        for (i, want) in [
            (0, "1118884da130634c977af3b7250ada8d68ef4acadf321de6752ece10ab109d40"),
            (1, "597fab3549ebf060fd74bd4434013f6e0460eddb31e4f9555cb289248d5bc4cf"),
            (1 << 32, "0c45ce3fad27b52712b5ffec99b82dab7a94c852fd8e9b18206dc42a14f97890"),
            (u64::MAX, "55671cc8602cedd2ac80400c051b324c213edafaf8ef011159a8ae42096fe893"),
        ] {
            assert_eq!(hex(&index_oracle(name, i)), want, "i={i}");
        }
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
