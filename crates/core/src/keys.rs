//! Key material for the audit protocol (§V-B "Initialize").
//!
//! The data owner samples `sk = (x, alpha)` and publishes
//! `pk = (eps = g2^x, delta = g2^{alpha x}, {g1^{alpha^j}}, g2, e(g1, eps))`.
//! The `alpha`-powers are the KZG-style commitment key; `x` is the
//! HLA signing exponent.

use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::g2::G2Affine;
use dsaudit_algebra::msm::LazyG1Table;
use dsaudit_algebra::pairing::{multi_pairing_prepared, FixedBaseGt, G2Prepared, Gt};
use dsaudit_algebra::par::join;
use dsaudit_algebra::Fr;
use dsaudit_crypto::assert_not_formattable;

use crate::codec::{ByteReader, Codec};
use crate::error::DsAuditError;
use crate::params::AuditParams;

/// The data owner's secret key `(x, alpha)`.
///
/// Deliberately neither `Copy` nor `Debug`: dropping a key zeroizes it
/// (so stray copies must be explicit `clone()`s), and
/// [`dsaudit_crypto::assert_not_formattable`] fails the build if it
/// implements `Debug` or `Display`.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    /// HLA signing exponent.
    pub x: Fr,
    /// KZG trapdoor.
    pub alpha: Fr,
}

assert_not_formattable!(SecretKey);

/// Best-effort zeroize-on-drop: see [`SecretKey::wipe`].
impl Drop for SecretKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl SecretKey {
    /// Overwrites both exponents with zeros (best-effort — the stores go
    /// through `black_box`, but without `unsafe` there is no volatile
    /// guarantee). Called automatically on drop.
    pub fn wipe(&mut self) {
        self.x.zeroize();
        self.alpha.zeroize();
    }

    /// Samples a fresh secret key.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Fr::random(rng);
            let alpha = Fr::random(rng);
            if !x.is_zero() && !alpha.is_zero() {
                return Self { x, alpha };
            }
        }
    }

    /// Serializes to the 64-byte owner-vault format (see [`Codec`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Parses the 64-byte owner-vault format.
    ///
    /// # Errors
    /// Typed [`DsAuditError`] on truncation, out-of-range scalars, a
    /// zero component, or trailing bytes — never a silent `None`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DsAuditError> {
        Self::decode(bytes)
    }
}

/// `x (32 B) || alpha (32 B)`, both big-endian canonical scalars. The
/// owner's vault format — never leaves the data owner.
impl Codec for SecretKey {
    const TYPE_NAME: &'static str = "SecretKey";

    fn encoded_len(&self) -> usize {
        64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.x.encode_into(out);
        self.alpha.encode_into(out);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let x_bytes = r.array::<32>("x")?;
        let x = Fr::from_bytes_be(&x_bytes).ok_or_else(|| r.malformed("x"))?;
        let alpha_bytes = r.array::<32>("alpha")?;
        let alpha = Fr::from_bytes_be(&alpha_bytes).ok_or_else(|| r.malformed("alpha"))?;
        // zero components would make the key cryptographically void
        if x.is_zero() {
            return Err(r.malformed("x"));
        }
        if alpha.is_zero() {
            return Err(r.malformed("alpha"));
        }
        Ok(Self { x, alpha })
    }
}

/// The public key recorded on chain during contract initialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    /// `eps = g2^x`.
    pub eps: G2Affine,
    /// `delta = g2^{alpha x}`.
    pub delta: G2Affine,
    /// `{g1^{alpha^j}}` for `j = 0..=s-1` (index 0 is `g1` itself).
    ///
    /// The paper lists powers up to `s-2` (all the prover strictly needs
    /// for the quotient witness); we include the `s-1` power as well so
    /// the storage provider can validate authenticators with public data
    /// alone. One extra 32-byte point; accounted in Fig. 4's repro.
    pub alpha_powers_g1: Vec<G1Affine>,
    /// Cached `e(g1, eps)` — the base for the Sigma-protocol commitment
    /// `R = e(g1, eps)^z`. Only needed with on-chain privacy enabled.
    /// The first proof under the key builds its table of powers (92,160
    /// bytes), which the key's clones share; verifiers and decoders
    /// never build one.
    pub e_g1_eps: FixedBaseGt,
    /// The slice table of `alpha_powers_g1` for the prover's quotient
    /// witness `psi`, built like `e_g1_eps`'s by the key's first proof
    /// with at least `SLICE_MSM_CUTOFF` quotient coefficients (at `s =
    /// 50`: 50 rows of 17 points, 61,200 bytes) and shared by its
    /// clones. Below the cutoff (`s <= 16`), in verifiers and decoders,
    /// nothing is built.
    pub alpha_table: LazyG1Table,
}

impl PublicKey {
    /// Chunking factor `s` this key was generated for.
    pub fn s(&self) -> usize {
        self.alpha_powers_g1.len()
    }

    /// Serializes to the on-chain registration format (see [`Codec`]):
    /// `s (4 B LE) || eps (64 B) || delta (64 B) || s x 32 B alpha powers
    /// || 192 B e(g1, eps)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Parses the on-chain registration format, validating every group
    /// element and the consistency `e(g1, eps) == cached GT element`.
    ///
    /// # Errors
    /// Typed [`DsAuditError`] naming the offending field — truncated
    /// input, an inconsistent length prefix, a point off the curve, or a
    /// failed consistency check — never a silent `None`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DsAuditError> {
        Self::decode(bytes)
    }

    /// The consistency checks a contract performs once at registration:
    /// the commitment key must start at the generator, and the cached
    /// GT element must equal `e(g1, eps)`.
    ///
    /// # Errors
    /// [`DsAuditError::Malformed`] naming the field that fails.
    pub fn validate(&self) -> Result<(), DsAuditError> {
        self.validate_against(&pair_with_g1(&self.eps))
    }

    /// [`PublicKey::validate`] with `e(g1, eps)` already computed.
    fn validate_against(&self, g1_eps: &Gt) -> Result<(), DsAuditError> {
        if self.alpha_powers_g1.first() != Some(&G1Affine::generator()) {
            return Err(DsAuditError::Malformed {
                ty: Self::TYPE_NAME,
                field: "alpha_powers_g1[0]",
            });
        }
        if g1_eps != self.e_g1_eps.base() {
            return Err(DsAuditError::Malformed {
                ty: Self::TYPE_NAME,
                field: "e_g1_eps",
            });
        }
        Ok(())
    }

    /// Serialized size in bytes as recorded on chain (Fig. 4).
    ///
    /// Compressed G1 points are 32 bytes, compressed G2 points 64 bytes,
    /// the cached GT element 192 bytes (torus-compressed). Without
    /// on-chain privacy the GT element is omitted.
    pub fn serialized_len(&self, with_privacy: bool) -> usize {
        let base = 64 + 64 + 32 * self.alpha_powers_g1.len();
        if with_privacy {
            base + 192
        } else {
            base
        }
    }
}

/// `e(g1, eps)`, the pairing [`PublicKey::validate`] compares the cached
/// `GT` element with.
fn pair_with_g1(eps: &G2Affine) -> Gt {
    multi_pairing_prepared(&[(&G1Affine::generator(), &G2Prepared::from_affine(eps))])
}

/// The on-chain registration format: `s (4 B LE) || eps || delta ||
/// s alpha powers || e(g1, eps)`. Decoding validates every group
/// element and the registration consistency checks, so any value this
/// impl produces is a usable public key.
impl Codec for PublicKey {
    const TYPE_NAME: &'static str = "PublicKey";

    fn encoded_len(&self) -> usize {
        4 + self.serialized_len(true)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.s() as u32).to_le_bytes());
        self.eps.encode_into(out);
        self.delta.encode_into(out);
        for p in &self.alpha_powers_g1 {
            p.encode_into(out);
        }
        self.e_g1_eps.base().encode_into(out);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let s = r.u32_le("s")? as usize;
        if s == 0 || s > crate::params::MAX_CHUNK_FACTOR {
            return Err(r.malformed("s"));
        }
        let eps_bytes = r.array::<64>("eps")?;
        let eps = G2Affine::from_compressed(&eps_bytes).ok_or_else(|| r.malformed("eps"))?;
        // the registration pairing needs `eps` alone, so it runs beside
        // the other fields' decode; their errors still come first
        let (rest, g1_eps) = join(
            || {
                let delta_bytes = r.array::<64>("delta")?;
                let delta = G2Affine::from_compressed(&delta_bytes)
                    .ok_or_else(|| r.malformed("delta"))?;
                // the announced count must be consistent with the bytes
                // actually present, so a forged prefix cannot trigger a
                // huge allocation
                if r.remaining() < 32 * s {
                    return Err(DsAuditError::Truncated {
                        ty: Self::TYPE_NAME,
                        field: "alpha_powers_g1",
                        expected: 32 * s,
                        got: r.remaining(),
                    });
                }
                let mut alpha_powers_g1 = Vec::with_capacity(s);
                for _ in 0..s {
                    let p_bytes = r.array::<32>("alpha_powers_g1")?;
                    alpha_powers_g1.push(
                        G1Affine::from_compressed(&p_bytes)
                            .ok_or_else(|| r.malformed("alpha_powers_g1"))?,
                    );
                }
                let gt_bytes = r.array::<192>("e_g1_eps")?;
                let e_g1_eps =
                    Gt::from_compressed(&gt_bytes).ok_or_else(|| r.malformed("e_g1_eps"))?;
                Ok((delta, alpha_powers_g1, e_g1_eps))
            },
            || pair_with_g1(&eps),
        );
        let (delta, alpha_powers_g1, e_g1_eps) = rest?;
        let pk = Self {
            eps,
            delta,
            alpha_powers_g1,
            e_g1_eps: FixedBaseGt::new(e_g1_eps),
            alpha_table: LazyG1Table::default(),
        };
        pk.validate_against(&g1_eps)?;
        Ok(pk)
    }
}

/// Generates the key pair for chunking factor `params.s`.
pub fn keygen<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    params: &AuditParams,
) -> (SecretKey, PublicKey) {
    let sk = SecretKey::random(rng);
    let pk = public_key_for(&sk, params.s);
    (sk, pk)
}

/// Derives the public key from a secret key (deterministic).
pub fn public_key_for(sk: &SecretKey, s: usize) -> PublicKey {
    let g2 = dsaudit_algebra::g2::G2Projective::generator();
    let eps = g2.mul(sk.x).to_affine();
    let delta = g2.mul(sk.alpha * sk.x).to_affine();
    // powers g1^{alpha^j} off the shared fixed-base generator table
    let mut powers: Vec<Fr> = Vec::with_capacity(s);
    let mut acc = Fr::one();
    for _ in 0..s {
        powers.push(acc);
        acc *= sk.alpha;
    }
    let alpha_powers_g1 = G1Projective::generator_table().mul_many_affine(&powers);
    let g1 = G1Affine::generator();
    let eps_p = G2Prepared::from_affine(&eps);
    let e_g1_eps = multi_pairing_prepared(&[(&g1, &eps_p)]);
    PublicKey {
        eps,
        delta,
        alpha_powers_g1,
        e_g1_eps: FixedBaseGt::new(e_g1_eps),
        alpha_table: LazyG1Table::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_algebra::pairing::pairing;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x4e7)
    }

    #[test]
    fn keygen_structure() {
        let mut rng = rng();
        let params = AuditParams::new(10, 30).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        assert_eq!(pk.s(), 10);
        assert_eq!(pk.alpha_powers_g1[0], G1Affine::generator());
        // g1^{alpha} equals generator * alpha
        assert_eq!(
            pk.alpha_powers_g1[1],
            G1Projective::generator().mul(sk.alpha).to_affine()
        );
        // eps = g2^x consistency through a pairing identity:
        // e(g1^alpha, eps) == e(g1, eps)^alpha
        let lhs = pairing(&pk.alpha_powers_g1[1], &pk.eps);
        let rhs = pk.e_g1_eps.pow(sk.alpha);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn delta_is_alpha_times_x() {
        let mut rng = rng();
        let params = AuditParams::new(4, 2).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        // e(g1, delta) == e(g1, g2)^{alpha x}
        let lhs = pairing(&G1Affine::generator(), &pk.delta);
        let rhs = Gt::generator().pow(sk.alpha * sk.x);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn serialized_len_formula() {
        let mut rng = rng();
        let params = AuditParams::new(50, 300).unwrap();
        let (_, pk) = keygen(&mut rng, &params);
        assert_eq!(pk.serialized_len(false), 64 + 64 + 32 * 50);
        assert_eq!(pk.serialized_len(true), 64 + 64 + 32 * 50 + 192);
    }

    #[test]
    fn public_key_deterministic_from_sk() {
        let mut rng = rng();
        let sk = SecretKey::random(&mut rng);
        assert_eq!(public_key_for(&sk, 8), public_key_for(&sk, 8));
    }

    #[test]
    fn public_key_wire_roundtrip() {
        let mut rng = rng();
        let params = AuditParams::new(6, 4).unwrap();
        let (_, pk) = keygen(&mut rng, &params);
        let bytes = pk.to_bytes();
        assert_eq!(bytes.len(), 4 + pk.serialized_len(true));
        let back = PublicKey::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, pk);
    }

    #[test]
    fn public_key_rejects_tampering_with_typed_errors() {
        let mut rng = rng();
        let params = AuditParams::new(4, 2).unwrap();
        let (_, pk) = keygen(&mut rng, &params);
        let mut bytes = pk.to_bytes();
        // truncation names the field that ran out
        assert!(matches!(
            PublicKey::from_bytes(&bytes[..bytes.len() - 1]),
            Err(crate::error::DsAuditError::Truncated {
                ty: "PublicKey",
                field: "e_g1_eps",
                ..
            })
        ));
        // swap eps for delta: breaks the pairing consistency check
        let (a, b) = (4usize, 4 + 64);
        for i in 0..64 {
            bytes.swap(a + i, b + i);
        }
        assert!(matches!(
            PublicKey::from_bytes(&bytes),
            Err(crate::error::DsAuditError::Malformed {
                ty: "PublicKey",
                field: "e_g1_eps"
            })
        ));
    }

    #[test]
    fn secret_key_wipe_zeroizes_both_exponents() {
        let mut rng = rng();
        let mut sk = SecretKey::random(&mut rng);
        assert!(!sk.x.is_zero() && !sk.alpha.is_zero());
        sk.wipe(); // what Drop runs
        assert!(sk.x.is_zero());
        assert!(sk.alpha.is_zero());
    }

    #[test]
    fn secret_key_codec_roundtrip_and_typed_errors() {
        let mut rng = rng();
        let sk = SecretKey::random(&mut rng);
        let bytes = sk.to_bytes();
        assert_eq!(bytes.len(), 64);
        assert!(SecretKey::from_bytes(&bytes).unwrap() == sk);
        // truncation is a typed error, not a silent None
        assert!(matches!(
            SecretKey::from_bytes(&bytes[..63]),
            Err(crate::error::DsAuditError::Truncated {
                ty: "SecretKey",
                field: "alpha",
                ..
            })
        ));
        // a zero component is rejected as malformed
        let mut zeroed = bytes.clone();
        zeroed[..32].fill(0);
        assert!(matches!(
            SecretKey::from_bytes(&zeroed),
            Err(crate::error::DsAuditError::Malformed {
                ty: "SecretKey",
                field: "x"
            })
        ));
    }
}
