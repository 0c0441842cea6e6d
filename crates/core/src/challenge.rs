//! Challenge generation and expansion (§V-B "Challenge").
//!
//! The smart contract publishes 48 bytes of beacon randomness
//! `(C1, C2, r)`; prover and verifier deterministically expand it into
//! `k` distinct chunk indices `{i}` via the PRP `pi(C1, .)` and `k`
//! coefficients `{c_i}` via the PRF `f(C2, .)`, plus the KZG evaluation
//! point `r`.

use dsaudit_algebra::Fr;
use dsaudit_crypto::hmac::HmacKey;
use dsaudit_crypto::prf::prf_fr_keyed;
use dsaudit_crypto::prp::SmallDomainPrp;
use dsaudit_crypto::sha256::sha256_wide;

use crate::codec::{ByteReader, Codec};
use crate::error::DsAuditError;

/// The 48-byte on-chain challenge of one audit round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Challenge {
    /// Seed for the index PRP `pi`.
    pub c1: [u8; 16],
    /// Seed for the coefficient PRF `f`.
    pub c2: [u8; 16],
    /// KZG evaluation point (derived from 16 beacon bytes).
    pub r: Fr,
}

impl Challenge {
    /// Derives a challenge from 48 bytes of beacon output.
    pub fn from_beacon(beacon: &[u8; 48]) -> Self {
        let mut c1 = [0u8; 16];
        let mut c2 = [0u8; 16];
        c1.copy_from_slice(&beacon[..16]);
        c2.copy_from_slice(&beacon[16..32]);
        // expand the 16-byte r-seed into a full uniform field element
        let mut seed = Vec::with_capacity(28);
        seed.extend_from_slice(b"dsaudit/chal/r/");
        seed.extend_from_slice(&beacon[32..]);
        let r = Fr::from_bytes_wide(&sha256_wide(&seed));
        Self { c1, c2, r }
    }

    /// Samples a challenge from an RNG (stand-in for the beacon in tests
    /// and benches).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut beacon = [0u8; 48];
        rng.fill_bytes(&mut beacon);
        Self::from_beacon(&beacon)
    }

    /// Serializes to the 48-byte on-chain format. (The `r` component is
    /// stored as its 16-byte seed on chain; this helper re-serializes the
    /// logical challenge for gas accounting, using the first 16 bytes of
    /// the field element as a faithful size model.)
    pub fn on_chain_bytes(&self) -> usize {
        48
    }

    /// The `k` distinct challenged indices in `[0, d)`, in challenge
    /// order, without the coefficients — all a Merkle-path or SNARK
    /// backend needs of the expansion, and what [`Challenge::expand`]
    /// pairs coefficients with.
    ///
    /// When `k >= d` every chunk is challenged (small files), matching
    /// the protocol's behavior of clamping rather than repeating indices.
    ///
    /// Constant-time contract: as for [`Challenge::expand`].
    // lint:ct
    pub fn indices(&self, d: usize, k: usize) -> Vec<u64> {
        SmallDomainPrp::new(&self.c1, d as u64).sample_distinct(k.min(d))
    }

    /// Expands the challenge against a file of `d` chunks into the
    /// challenged set `{(i, c_i)}`: the [`Challenge::indices`] with the
    /// `j`-th paired to the PRF coefficient `f(C2, j)`.
    ///
    /// Constant-time contract: expansion is branch-free in the seeds —
    /// which chunks an audit samples must not leak before settlement, so
    /// no control flow here may depend on `c1`/`c2`-derived values.
    /// Enforced by the `ct-branch` lint via the annotation below.
    // lint:ct
    pub fn expand(&self, d: usize, k: usize) -> Vec<(u64, Fr)> {
        let prf_key = HmacKey::new(&self.c2);
        self.indices(d, k)
            .into_iter()
            .enumerate()
            .map(|(j, i)| (i, prf_fr_keyed(&prf_key, j as u64)))
            .collect()
    }
}

/// The expanded wire form of a challenge: `c1 (16 B) || c2 (16 B) ||
/// r (32 B canonical scalar)` — 64 bytes. (The 48-byte on-chain form
/// stores `r` as its beacon seed; this codec carries the *logical*
/// challenge between off-chain actors, where `r` is already expanded.)
impl Codec for Challenge {
    const TYPE_NAME: &'static str = "Challenge";

    fn encoded_len(&self) -> usize {
        64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.c1);
        out.extend_from_slice(&self.c2);
        self.r.encode_into(out);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let c1 = r.array::<16>("c1")?;
        let c2 = r.array::<16>("c2")?;
        let r_bytes = r.array::<32>("r")?;
        let r_scalar = Fr::from_bytes_be(&r_bytes).ok_or_else(|| r.malformed("r"))?;
        Ok(Self {
            c1,
            c2,
            r: r_scalar,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn codec_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc4a2);
        let ch = Challenge::random(&mut rng);
        let bytes = ch.encode();
        assert_eq!(bytes.len(), 64);
        assert_eq!(Challenge::decode(&bytes).unwrap(), ch);
        assert!(matches!(
            Challenge::decode(&bytes[..20]),
            Err(DsAuditError::Truncated {
                ty: "Challenge",
                field: "c2",
                ..
            })
        ));
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xc4a1)
    }

    #[test]
    fn expansion_deterministic() {
        let mut rng = rng();
        let ch = Challenge::random(&mut rng);
        assert_eq!(ch.expand(1000, 300), ch.expand(1000, 300));
    }

    #[test]
    fn indices_distinct_and_in_range() {
        let mut rng = rng();
        let ch = Challenge::random(&mut rng);
        let set = ch.expand(5000, 300);
        assert_eq!(set.len(), 300);
        let idx: HashSet<u64> = set.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx.len(), 300);
        assert!(idx.iter().all(|&i| i < 5000));
    }

    #[test]
    fn small_file_clamps_k() {
        let mut rng = rng();
        let ch = Challenge::random(&mut rng);
        let set = ch.expand(7, 300);
        assert_eq!(set.len(), 7);
        let idx: HashSet<u64> = set.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx.len(), 7);
    }

    #[test]
    fn indices_are_the_expansion_without_coefficients() {
        let ch = Challenge::random(&mut rng());
        for (d, k) in [(1, 1), (7, 300), (677, 300), (5000, 40)] {
            let from_expand: Vec<u64> = ch.expand(d, k).into_iter().map(|(i, _)| i).collect();
            assert_eq!(ch.indices(d, k), from_expand, "d={d} k={k}");
        }
    }

    #[test]
    fn beacon_roundtrip_and_sensitivity() {
        let mut b1 = [7u8; 48];
        let c1 = Challenge::from_beacon(&b1);
        b1[40] ^= 1; // perturb only the r-seed bytes
        let c2 = Challenge::from_beacon(&b1);
        assert_eq!(c1.c1, c2.c1);
        assert_ne!(c1.r, c2.r);
    }

    #[test]
    fn different_challenges_different_sets() {
        let mut rng = rng();
        let a = Challenge::random(&mut rng).expand(1000, 50);
        let b = Challenge::random(&mut rng).expand(1000, 50);
        assert_ne!(a, b);
    }

    /// Known-answer vectors for the expansion of the beacon
    /// `00 01 .. 2f`: `(d, k, first indices, SHA-256 over every pair as
    /// index (8 B LE) || coefficient (32 B BE))`, on the same `(d, k)`
    /// grid as the PRP's own vectors — the one-element domain, `k`
    /// clamped to `d = 7`, the paper's 1 MiB file, and a domain on each
    /// side of the PRP's round-function-table rule.
    const KNOWN_ANSWERS: [(usize, usize, &[u64], &str); 5] = [
        (
            1,
            1,
            &[0],
            "55237b52b528551d8d0016cfe63f5d28be3296b8a7cc002788fecffed644a48b",
        ),
        (
            7,
            300,
            &[6, 1, 5, 4, 3, 2, 0],
            "a7182547fcec91600093f3f48af24aaeba32dc92b82fcd3d7a8cf1cf631f5e4b",
        ),
        (
            677,
            300,
            &[610, 80, 363, 194, 671, 218, 558],
            "99dc9c6202b277b92fbc51a47af5050ba82ee6973f99cbc3fddb79affb611e87",
        ),
        (
            65536,
            300,
            &[4712, 43983, 59006, 8962, 16667, 35370, 41392],
            "4468a4f221860a011543c175df63750bdc609b6d5f7c6fbb306ceda1f225c051",
        ),
        (
            1 << 20,
            300,
            &[208598, 764581, 51985, 674523, 174, 1048038, 363655],
            "7ddf760bdd30543ac87629d84a078d2748345d7e575f2c427962af4e2f1926f1",
        ),
    ];

    #[test]
    fn expand_known_answers() {
        let ch = Challenge::from_beacon(&core::array::from_fn(|i| i as u8));
        for (d, k, head, digest) in KNOWN_ANSWERS {
            let set = ch.expand(d, k);
            assert_eq!(set.len(), k.min(d));
            let mut bytes = Vec::with_capacity(set.len() * 40);
            for (i, c) in &set {
                bytes.extend_from_slice(&i.to_le_bytes());
                bytes.extend_from_slice(&c.to_bytes_be());
            }
            let hex: String = dsaudit_crypto::sha256::sha256(&bytes)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            let indices: Vec<u64> = set.iter().map(|(i, _)| *i).collect();
            assert_eq!(&indices[..head.len()], head, "d={d} k={k}");
            assert_eq!(hex, digest, "d={d} k={k}");
        }
    }
}
