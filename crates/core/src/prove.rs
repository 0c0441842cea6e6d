//! Proof generation on the storage-provider side (§V-D step 1).

use std::time::{Duration, Instant};

use dsaudit_algebra::curve::Projective;
use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::endo::msm_g1;
use dsaudit_algebra::poly::DensePoly;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::h_prime;

use crate::challenge::Challenge;
use crate::error::DsAuditError;
use crate::file::EncodedFile;
use crate::keys::PublicKey;
use crate::proof::{PlainProof, PrivateProof};

/// Storage-provider state for one stored file: the data plus its
/// authenticators (extra storage `1/s` of the file size).
#[derive(Clone, Debug)]
pub struct Prover<'a> {
    /// Public key of the owning contract.
    pub pk: &'a PublicKey,
    /// The stored (encoded) file.
    pub file: &'a EncodedFile,
    /// Per-chunk authenticators received from the data owner.
    pub tags: &'a [G1Affine],
}

/// Wall-clock split of one proof generation, for the Fig. 8 ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProveTimings {
    /// Finite-field work: challenge-weighted coefficients, evaluation,
    /// quotient division.
    pub field_ops: Duration,
    /// Elliptic-curve work: the two MSMs.
    pub curve_ops: Duration,
    /// GT work: the privacy commitment `R = e(g1, eps)^z` (zero for the
    /// plain variant).
    pub gt_ops: Duration,
}

impl ProveTimings {
    /// Total prove time.
    pub fn total(&self) -> Duration {
        self.field_ops + self.curve_ops + self.gt_ops
    }
}

impl<'a> Prover<'a> {
    /// Creates a prover after sanity-checking dimensions.
    ///
    /// # Errors
    /// [`DsAuditError::DimensionMismatch`] when the tag count does not
    /// match the file's chunk count, or the chunk size exceeds what the
    /// public key's commitment key supports.
    pub fn new(
        pk: &'a PublicKey,
        file: &'a EncodedFile,
        tags: &'a [G1Affine],
    ) -> Result<Self, DsAuditError> {
        if tags.len() != file.num_chunks() {
            return Err(DsAuditError::DimensionMismatch {
                what: "authenticators per chunk",
                expected: file.num_chunks(),
                got: tags.len(),
            });
        }
        if file.params.s > pk.s() {
            return Err(DsAuditError::DimensionMismatch {
                what: "chunk size vs. commitment key",
                expected: pk.s(),
                got: file.params.s,
            });
        }
        Ok(Self { pk, file, tags })
    }

    /// Expands the challenge and computes the shared pieces:
    /// `(sigma, P_k coefficients)`.
    fn aggregate(&self, challenge: &Challenge) -> (dsaudit_algebra::g1::G1Projective, Vec<Fr>) {
        let d = self.file.num_chunks();
        let k = self.file.params.k;
        let set = challenge.expand(d, k);
        // sigma = prod_i sigma_i^{c_i}
        let bases: Vec<G1Affine> = set.iter().map(|(i, _)| self.tags[*i as usize]).collect();
        let coeffs: Vec<Fr> = set.iter().map(|(_, c)| *c).collect();
        let sigma = msm_g1(&bases, &coeffs);
        // P_k coefficients: p_j = sum_i c_i m_{i,j}
        let s = self.file.params.s;
        let mut pk_coeffs = vec![Fr::zero(); s];
        for (i, c) in &set {
            for (j, m) in self.file.chunk(*i as usize).iter().enumerate() {
                pk_coeffs[j] += *c * *m;
            }
        }
        (sigma, pk_coeffs)
    }

    /// KZG opening: quotient witness `psi` and evaluation `y = P_k(r)`.
    fn open(&self, pk_coeffs: Vec<Fr>, r: Fr) -> (Fr, Vec<Fr>) {
        let poly = DensePoly::from_coeffs(pk_coeffs);
        let (quot, y) = poly.divide_by_linear(r);
        (y, quot.coeffs().to_vec())
    }

    /// Produces the non-private response `(sigma, y, psi)` — Eq. (1).
    ///
    /// Both aggregation MSMs (`sigma` over the challenged tags, `psi`
    /// over the commitment key) run through the signed-digit Pippenger in
    /// `dsaudit_algebra::msm`, and the two results share one batched
    /// affine conversion.
    pub fn prove_plain(&self, challenge: &Challenge) -> PlainProof {
        let _span = dsaudit_obs::span("core.prove_plain");
        dsaudit_obs::counter_inc("core.proofs_plain");
        let (sigma, pk_coeffs) = self.aggregate(challenge);
        let (y, quot) = self.open(pk_coeffs, challenge.r);
        let psi = msm_g1(&self.pk.alpha_powers_g1[..quot.len()], &quot);
        let affine = Projective::batch_to_affine(&[sigma, psi]);
        PlainProof {
            sigma: affine[0],
            y,
            psi: affine[1],
        }
    }

    /// Produces the privacy-assured response `(sigma, y', psi, R)` —
    /// the paper's main protocol (§V-D, verified by Eq. (2)).
    pub fn prove_private<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> PrivateProof {
        self.prove_private_instrumented(rng, challenge).0
    }

    /// Instrumented variant returning the field/curve/GT time split used
    /// by the Fig. 8 reproduction.
    pub fn prove_private_instrumented<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> (PrivateProof, ProveTimings) {
        let _span = dsaudit_obs::span("core.prove_private");
        dsaudit_obs::counter_inc("core.proofs_private");
        let mut t = ProveTimings::default();

        let t0 = Instant::now();
        let d = self.file.num_chunks();
        let k = self.file.params.k;
        let set = challenge.expand(d, k);
        let s = self.file.params.s;
        let mut pk_coeffs = vec![Fr::zero(); s];
        for (i, c) in &set {
            for (j, m) in self.file.chunk(*i as usize).iter().enumerate() {
                pk_coeffs[j] += *c * *m;
            }
        }
        let (y, quot) = self.open(pk_coeffs, challenge.r);
        t.field_ops += t0.elapsed();

        let t1 = Instant::now();
        let bases: Vec<G1Affine> = set.iter().map(|(i, _)| self.tags[*i as usize]).collect();
        let coeffs: Vec<Fr> = set.iter().map(|(_, c)| *c).collect();
        let sigma = msm_g1(&bases, &coeffs);
        let psi = msm_g1(&self.pk.alpha_powers_g1[..quot.len()], &quot);
        t.curve_ops += t1.elapsed();

        let t2 = Instant::now();
        let z = Fr::random(rng);
        let r_commit = self.pk.e_g1_eps.pow(z);
        t.gt_ops += t2.elapsed();

        let t3 = Instant::now();
        let zeta = h_prime(&r_commit);
        let y_prime = zeta * y + z;
        t.field_ops += t3.elapsed();

        let affine = Projective::batch_to_affine(&[sigma, psi]);
        (
            PrivateProof {
                sigma: affine[0],
                y_prime,
                psi: affine[1],
                r_commit,
            },
            t,
        )
    }

    /// Instrumented plain prover (the "w/o on-chain privacy" series).
    pub fn prove_plain_instrumented(&self, challenge: &Challenge) -> (PlainProof, ProveTimings) {
        let mut t = ProveTimings::default();
        let t0 = Instant::now();
        let d = self.file.num_chunks();
        let k = self.file.params.k;
        let set = challenge.expand(d, k);
        let s = self.file.params.s;
        let mut pk_coeffs = vec![Fr::zero(); s];
        for (i, c) in &set {
            for (j, m) in self.file.chunk(*i as usize).iter().enumerate() {
                pk_coeffs[j] += *c * *m;
            }
        }
        let (y, quot) = self.open(pk_coeffs, challenge.r);
        t.field_ops += t0.elapsed();
        let t1 = Instant::now();
        let bases: Vec<G1Affine> = set.iter().map(|(i, _)| self.tags[*i as usize]).collect();
        let coeffs: Vec<Fr> = set.iter().map(|(_, c)| *c).collect();
        let sigma = msm_g1(&bases, &coeffs);
        let psi = msm_g1(&self.pk.alpha_powers_g1[..quot.len()], &quot);
        t.curve_ops += t1.elapsed();
        let affine = Projective::batch_to_affine(&[sigma, psi]);
        (
            PlainProof {
                sigma: affine[0],
                y,
                psi: affine[1],
            },
            t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::keygen;
    use crate::params::AuditParams;
    use crate::tag::generate_tags;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9407e)
    }

    #[test]
    fn proofs_deterministic_given_challenge() {
        let mut rng = rng();
        let params = AuditParams::new(5, 4).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let file = EncodedFile::encode(&mut rng, &[42u8; 800], params);
        let tags = generate_tags(&sk, &file);
        let prover = Prover::new(&pk, &file, &tags).unwrap();
        let ch = Challenge::random(&mut rng);
        assert_eq!(prover.prove_plain(&ch), prover.prove_plain(&ch));
    }

    #[test]
    fn private_proof_masks_evaluation() {
        let mut rng = rng();
        let params = AuditParams::new(5, 4).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let file = EncodedFile::encode(&mut rng, &[7u8; 800], params);
        let tags = generate_tags(&sk, &file);
        let prover = Prover::new(&pk, &file, &tags).unwrap();
        let ch = Challenge::random(&mut rng);
        let plain = prover.prove_plain(&ch);
        let priv1 = prover.prove_private(&mut rng, &ch);
        let priv2 = prover.prove_private(&mut rng, &ch);
        // same sigma/psi, but y' differs per proof thanks to fresh z
        assert_eq!(priv1.sigma, plain.sigma);
        assert_eq!(priv1.psi, plain.psi);
        assert_ne!(priv1.y_prime, plain.y);
        assert_ne!(priv1.y_prime, priv2.y_prime);
        assert_ne!(priv1.r_commit, priv2.r_commit);
    }

    #[test]
    fn mismatched_tags_is_a_typed_error() {
        let mut rng = rng();
        let params = AuditParams::new(5, 4).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let file = EncodedFile::encode(&mut rng, &[7u8; 800], params);
        let mut tags = generate_tags(&sk, &file);
        tags.pop();
        assert_eq!(
            Prover::new(&pk, &file, &tags).err(),
            Some(DsAuditError::DimensionMismatch {
                what: "authenticators per chunk",
                expected: file.num_chunks(),
                got: file.num_chunks() - 1,
            })
        );
    }

    /// Known answer for one private proof from fixed seeds: key, file
    /// name, tags, challenge and mask all come from the one RNG stream,
    /// and the 40 challenged chunks take `msm_g1` through the GLV split
    /// and the index PRP through its round-function table. The bytes
    /// move only when the challenge set, the decomposition or the
    /// aggregation does.
    #[test]
    fn private_proof_bytes_known_answer() {
        use crate::codec::Codec;
        let mut rng = rng();
        let params = AuditParams::new(8, 40).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let data: Vec<u8> = (0..16_000).map(|i| (i * 31 % 251) as u8).collect();
        let file = EncodedFile::encode(&mut rng, &data, params);
        assert!(file.num_chunks() > 40, "k must not clamp");
        let tags = generate_tags(&sk, &file);
        let prover = Prover::new(&pk, &file, &tags).unwrap();
        let ch = Challenge::random(&mut rng);
        let proof = prover.prove_private(&mut rng, &ch);
        let hex: String = dsaudit_crypto::sha256::sha256(&proof.encode())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "f1e8833c9e065c69de202cb75c0315c5789c20f6b8fe4b8d5933f20bf56563f8"
        );
    }
}
