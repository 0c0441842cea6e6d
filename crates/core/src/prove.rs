//! Proof generation on the storage-provider side (§V-D step 1).

use std::time::{Duration, Instant};

use dsaudit_algebra::curve::Projective;
use dsaudit_algebra::endo::msm_g1;
use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::par::join;
use dsaudit_algebra::poly::DensePoly;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::h_prime;

use crate::challenge::Challenge;
use crate::error::DsAuditError;
use crate::file::EncodedFile;
use crate::keys::PublicKey;
use crate::params::AuditParams;
use crate::proof::{PlainProof, PrivateProof};

/// Storage-provider state for one stored file: the data plus its
/// authenticators (extra storage `1/s` of the file size).
#[derive(Clone, Debug)]
pub struct Prover<'a> {
    /// Public key of the owning contract.
    pub pk: &'a PublicKey,
    /// Per-chunk authenticators received from the data owner.
    pub tags: &'a [G1Affine],
    chunks: Chunks<'a>,
    params: AuditParams,
}

/// Where a [`Prover`] reads the challenged chunks from.
#[derive(Clone, Copy, Debug)]
enum Chunks<'a> {
    /// An encoded file, read as it is.
    Encoded(&'a EncodedFile),
    /// The raw stored bytes: each challenged chunk is encoded as it is
    /// read ([`EncodedFile::encode_chunk`]), so a round costs `O(k)`.
    Stored(&'a [u8]),
}

/// Time split of one proof generation, for the Fig. 8 ablation. Each
/// class is timed inside the closure that runs it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProveTimings {
    /// Finite-field work: challenge expansion, challenge-weighted
    /// coefficients, evaluation, quotient division.
    pub field_ops: Duration,
    /// Elliptic-curve work: the two MSMs.
    pub curve_ops: Duration,
    /// GT work: the privacy commitment `R = e(g1, eps)^z` and its hash
    /// `zeta = H'(R)` (zero for the plain variant).
    pub gt_ops: Duration,
}

impl ProveTimings {
    /// Busy time: the sum of the three classes. The private prover runs
    /// the GT class beside the other two when it has a second CPU, so
    /// this can exceed the wall-clock time of the call.
    pub fn total(&self) -> Duration {
        self.field_ops + self.curve_ops + self.gt_ops
    }
}

impl<'a> Prover<'a> {
    /// Creates a prover over an encoded file after sanity-checking
    /// dimensions.
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
        Self::checked(pk, Chunks::Encoded(file), file.num_chunks(), file.params, tags)
    }

    /// Creates a prover over raw stored bytes, laid out in chunks as
    /// [`EncodedFile::encode_with_name`] lays them out under `params`;
    /// only the challenged chunks are ever encoded. Proofs are
    /// byte-identical to [`Prover::new`] over the encoded bytes.
    ///
    /// # Errors
    /// As [`Prover::new`].
    pub fn from_stored(
        pk: &'a PublicKey,
        stored: &'a [u8],
        params: AuditParams,
        tags: &'a [G1Affine],
    ) -> Result<Self, DsAuditError> {
        let num_chunks = EncodedFile::chunk_count(stored.len(), params);
        Self::checked(pk, Chunks::Stored(stored), num_chunks, params, tags)
    }

    fn checked(
        pk: &'a PublicKey,
        chunks: Chunks<'a>,
        num_chunks: usize,
        params: AuditParams,
        tags: &'a [G1Affine],
    ) -> Result<Self, DsAuditError> {
        if tags.len() != num_chunks {
            return Err(DsAuditError::DimensionMismatch {
                what: "authenticators per chunk",
                expected: num_chunks,
                got: tags.len(),
            });
        }
        if params.s > pk.s() {
            return Err(DsAuditError::DimensionMismatch {
                what: "chunk size vs. commitment key",
                expected: pk.s(),
                got: params.s,
            });
        }
        Ok(Self {
            pk,
            tags,
            chunks,
            params,
        })
    }

    /// What both responses share, `(sigma, y, psi)` still projective:
    /// expands the challenge, aggregates `P_k = sum_i c_i M_i`, opens it
    /// at `r` (evaluation `y`, quotient witness) and runs the two MSMs —
    /// `sigma` over the challenged tags, `psi` over the commitment key —
    /// through the GLV-split Pippenger of `dsaudit_algebra::endo`.
    fn aggregate_and_open(
        &self,
        challenge: &Challenge,
    ) -> (G1Projective, Fr, G1Projective, ProveTimings) {
        let t0 = Instant::now();
        // one tag per chunk, checked at construction
        let set = challenge.expand(self.tags.len(), self.params.k);
        // P_k coefficients: p_j = sum_i c_i m_{i,j}
        let mut pk_coeffs = vec![Fr::zero(); self.params.s];
        for (i, c) in &set {
            let encoded;
            let chunk = match self.chunks {
                Chunks::Encoded(file) => file.chunk(*i as usize),
                Chunks::Stored(stored) => {
                    encoded = EncodedFile::encode_chunk(stored, *i as usize, self.params);
                    &encoded
                }
            };
            for (p, m) in pk_coeffs.iter_mut().zip(chunk) {
                *p += *c * *m;
            }
        }
        let (quot, y) = DensePoly::from_coeffs(pk_coeffs).divide_by_linear(challenge.r);
        let field_ops = t0.elapsed();

        let t1 = Instant::now();
        // sigma = prod_i sigma_i^{c_i}
        let (bases, coeffs): (Vec<G1Affine>, Vec<Fr>) = set
            .iter()
            .map(|(i, c)| (self.tags[*i as usize], *c))
            .unzip();
        let sigma = msm_g1(&bases, &coeffs);
        let quot = quot.coeffs();
        let psi = msm_g1(&self.pk.alpha_powers_g1[..quot.len()], quot);
        let t = ProveTimings {
            field_ops,
            curve_ops: t1.elapsed(),
            gt_ops: Duration::ZERO,
        };
        (sigma, y, psi, t)
    }

    /// Produces the non-private response `(sigma, y, psi)` — Eq. (1).
    pub fn prove_plain(&self, challenge: &Challenge) -> PlainProof {
        self.prove_plain_instrumented(challenge).0
    }

    /// Instrumented plain prover (the "w/o on-chain privacy" series of
    /// the Fig. 8 reproduction).
    pub fn prove_plain_instrumented(&self, challenge: &Challenge) -> (PlainProof, ProveTimings) {
        let _span = dsaudit_obs::span("core.prove_plain");
        dsaudit_obs::counter_inc("core.proofs_plain");
        let (sigma, y, psi, t) = self.aggregate_and_open(challenge);
        // one shared inversion for both affine conversions
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
    ///
    /// The mask `z` is the only RNG draw and is taken first, so that the
    /// commitment `R = e(g1, eps)^z` and `zeta = H'(R)` — which depend on
    /// nothing else — run beside the shared response under [`join`].
    pub fn prove_private_instrumented<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> (PrivateProof, ProveTimings) {
        let _span = dsaudit_obs::span("core.prove_private");
        dsaudit_obs::counter_inc("core.proofs_private");
        let z = Fr::random(rng);
        let ((r_commit, zeta, gt_ops), (sigma, y, psi, mut t)) = join(
            || {
                let t0 = Instant::now();
                let r_commit = self.pk.e_g1_eps.pow(z);
                (r_commit, h_prime(&r_commit), t0.elapsed())
            },
            || self.aggregate_and_open(challenge),
        );
        t.gt_ops = gt_ops;
        let affine = Projective::batch_to_affine(&[sigma, psi]);
        (
            PrivateProof {
                sigma: affine[0],
                y_prime: zeta * y + z,
                psi: affine[1],
                r_commit,
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

    /// Proving from the raw bytes encodes only the challenged chunks
    /// and answers byte for byte as proving from the encoded file.
    #[test]
    fn stored_bytes_prove_as_the_encoded_file() {
        let mut rng = rng();
        let params = AuditParams::new(3, 4).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        for len in [0usize, 1, 92, 93, 94, 800] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let file = EncodedFile::encode(&mut rng, &data, params);
            let tags = generate_tags(&sk, &file);
            let encoded = Prover::new(&pk, &file, &tags).unwrap();
            let stored = Prover::from_stored(&pk, &data, params, &tags).unwrap();
            let ch = Challenge::random(&mut rng);
            assert_eq!(stored.prove_plain(&ch), encoded.prove_plain(&ch), "len {len}");
        }
        let file = EncodedFile::encode(&mut rng, &[5u8; 800], params);
        let tags = generate_tags(&sk, &file);
        assert!(matches!(
            Prover::from_stored(&pk, &[5u8; 700], params, &tags),
            Err(DsAuditError::DimensionMismatch { what: "authenticators per chunk", .. })
        ));
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
