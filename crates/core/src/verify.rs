//! The file metadata a verifier holds, `chi` from public data, and the
//! stateless one-shot wrappers around the [`Auditor`]'s checks. The
//! verification equations themselves are evaluated in one place,
//! [`crate::batch`]: a single proof is a batch of one.

use dsaudit_algebra::g1::G1Projective;
use dsaudit_algebra::Fr;

use crate::auditor::Auditor;
use crate::cache::ChiCache;
use crate::challenge::Challenge;
use crate::error::{DsAuditError, Verdict};
use crate::keys::PublicKey;
use crate::proof::{PlainProof, PrivateProof};

/// Public metadata the verifier (smart contract) holds about a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// On-chain file identifier.
    pub name: Fr,
    /// Number of chunks `d`.
    pub num_chunks: usize,
    /// Challenged chunks per audit `k`.
    pub k: usize,
}

impl FileMeta {
    /// Rejects metadata no audit can run against.
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`] on zero chunks or a zero challenge
    /// count.
    pub fn validate(&self) -> Result<(), DsAuditError> {
        if self.num_chunks == 0 {
            return Err(DsAuditError::BadMeta("file has zero chunks"));
        }
        if self.k == 0 {
            return Err(DsAuditError::BadMeta("challenge count k is zero"));
        }
        Ok(())
    }
}

/// Computes `chi = prod_{(i, c_i)} H(name || i)^{c_i}` from public data,
/// with the hash-to-curve points served from the given [`ChiCache`].
pub fn compute_chi(cache: &ChiCache, name: Fr, set: &[(u64, Fr)]) -> G1Projective {
    let _span = dsaudit_obs::span("core.compute_chi");
    let (indices, coeffs): (Vec<u64>, Vec<Fr>) = set.iter().copied().unzip();
    cache.index_oracle_rows(name, &indices).msm(&coeffs, &[], &[])
}

/// One-shot verification of the non-private response against Eq. (1),
/// with cold caches. Prefer [`Auditor::verify_plain`] for repeated
/// rounds — the handle keeps its hash-to-curve and prepared-G2 caches
/// warm across audits.
///
/// # Errors
/// [`DsAuditError::BadMeta`] on unusable metadata; a failing proof is
/// `Ok(Verdict::Reject(..))`, not an error.
pub fn verify_plain(
    pk: &PublicKey,
    meta: &FileMeta,
    challenge: &Challenge,
    proof: &PlainProof,
) -> Result<Verdict, DsAuditError> {
    Auditor::ephemeral().verify_plain(pk, meta, challenge, proof)
}

/// One-shot verification of the privacy-assured response against
/// Eq. (2), with cold caches. Prefer [`Auditor::verify_private`] for
/// repeated rounds.
///
/// # Errors
/// [`DsAuditError::BadMeta`] on unusable metadata; a failing proof is
/// `Ok(Verdict::Reject(..))`, not an error.
pub fn verify_private(
    pk: &PublicKey,
    meta: &FileMeta,
    challenge: &Challenge,
    proof: &PrivateProof,
) -> Result<Verdict, DsAuditError> {
    Auditor::ephemeral().verify_private(pk, meta, challenge, proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RejectReason;
    use crate::file::EncodedFile;
    use crate::keys::keygen;
    use crate::params::AuditParams;
    use crate::prove::Prover;
    use crate::tag::generate_tags;
    use dsaudit_algebra::field::Field;
    use dsaudit_algebra::g1::G1Affine;
    use dsaudit_crypto::prf::h_prime;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xe51f)
    }

    struct Env {
        pk: PublicKey,
        file: EncodedFile,
        tags: Vec<dsaudit_algebra::g1::G1Affine>,
        meta: FileMeta,
    }

    fn setup(s: usize, k: usize, len: usize) -> Env {
        let mut rng = rng();
        let params = AuditParams::new(s, k).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let file = EncodedFile::encode(&mut rng, &data, params);
        let tags = generate_tags(&sk, &file);
        let meta = FileMeta {
            name: file.name,
            num_chunks: file.num_chunks(),
            k,
        };
        Env {
            pk,
            file,
            tags,
            meta,
        }
    }

    fn accepts_private(env: &Env, ch: &Challenge, proof: &PrivateProof) -> bool {
        verify_private(&env.pk, &env.meta, ch, proof)
            .expect("valid meta")
            .accepted()
    }

    #[test]
    fn honest_plain_proof_verifies() {
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
        let auditor = Auditor::new();
        for _ in 0..3 {
            let ch = Challenge::random(&mut rng);
            let proof = prover.prove_plain(&ch);
            assert!(auditor
                .verify_plain(&env.pk, &env.meta, &ch, &proof)
                .unwrap()
                .accepted());
        }
    }

    #[test]
    fn honest_private_proof_verifies() {
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
        let auditor = Auditor::new();
        for _ in 0..3 {
            let ch = Challenge::random(&mut rng);
            let proof = prover.prove_private(&mut rng, &ch);
            assert!(auditor
                .verify_private(&env.pk, &env.meta, &ch, &proof)
                .unwrap()
                .accepted());
        }
    }

    #[test]
    fn corrupted_data_fails_both_equations() {
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let mut bad_file = env.file.clone();
        bad_file.corrupt_block(0, 0);
        let prover = Prover::new(&env.pk, &bad_file, &env.tags).unwrap();
        // challenge until chunk 0 is covered (k=4 of d; loop to be sure)
        let mut hit = false;
        for _ in 0..20 {
            let ch = Challenge::random(&mut rng);
            let covers = ch
                .expand(env.meta.num_chunks, env.meta.k)
                .iter()
                .any(|(i, _)| *i == 0);
            let plain = verify_plain(&env.pk, &env.meta, &ch, &prover.prove_plain(&ch)).unwrap();
            let private = verify_private(
                &env.pk,
                &env.meta,
                &ch,
                &prover.prove_private(&mut rng, &ch),
            )
            .unwrap();
            if covers {
                hit = true;
                assert_eq!(
                    plain,
                    Verdict::Reject(RejectReason::Equation1),
                    "corrupted chunk must fail Eq.(1) with its reason"
                );
                assert_eq!(
                    private,
                    Verdict::Reject(RejectReason::Equation2),
                    "corrupted chunk must fail Eq.(2) with its reason"
                );
            } else {
                assert!(
                    plain.accepted() && private.accepted(),
                    "untouched chunks must still verify"
                );
            }
        }
        assert!(hit, "no challenge covered the corrupted chunk");
    }

    #[test]
    fn dropped_chunk_detected() {
        // 900 bytes -> 30 blocks -> d = 8 chunks at s = 4, so with k = 8
        // every chunk is challenged every round.
        let env = setup(4, 8, 900);
        assert!(env.meta.num_chunks <= env.meta.k, "premise: full coverage");
        let mut rng = rng();
        let mut bad_file = env.file.clone();
        bad_file.drop_chunk(1);
        let prover = Prover::new(&env.pk, &bad_file, &env.tags).unwrap();
        let ch = Challenge::random(&mut rng);
        assert!(!accepts_private(
            &env,
            &ch,
            &prover.prove_private(&mut rng, &ch)
        ));
    }

    #[test]
    fn wrong_challenge_rejected() {
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
        let ch1 = Challenge::random(&mut rng);
        let ch2 = Challenge::random(&mut rng);
        let proof = prover.prove_private(&mut rng, &ch1);
        assert!(!accepts_private(&env, &ch2, &proof));
    }

    #[test]
    fn tampered_proof_fields_rejected() {
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
        let ch = Challenge::random(&mut rng);
        let good = prover.prove_private(&mut rng, &ch);

        let mut bad = good;
        bad.y_prime += Fr::one();
        assert!(!accepts_private(&env, &ch, &bad));

        let mut bad = good;
        bad.sigma = bad.psi;
        assert!(!accepts_private(&env, &ch, &bad));

        let mut bad = good;
        bad.r_commit = bad.r_commit.mul(&dsaudit_algebra::Gt::generator());
        assert!(!accepts_private(&env, &ch, &bad));
    }

    /// The paper's equations evaluated term by term, sharing nothing
    /// with the verifiers: `chi` by one hash and one multiplication per
    /// challenged index, the exponent `-r` on the G2 side where the
    /// paper writes it, one full pairing per factor. With `zeta = 1`,
    /// `R = 1` this is Eq. (1):
    /// `R * e(sigma^zeta, g2) == e(g1^y chi^zeta, eps) * e(psi^zeta, delta eps^{-r})`.
    fn equation_holds(
        env: &Env,
        ch: &Challenge,
        (sigma, y, psi): (G1Affine, Fr, G1Affine),
        zeta: Fr,
        r_commit: dsaudit_algebra::Gt,
    ) -> bool {
        use dsaudit_algebra::g2::G2Affine;
        use dsaudit_algebra::pairing::pairing;
        let mut chi = G1Projective::identity();
        for (i, c) in ch.expand(env.meta.num_chunks, env.meta.k) {
            chi = chi.add(&dsaudit_crypto::prf::index_oracle(env.meta.name, i).mul(c));
        }
        let on_eps = G1Affine::generator().mul(y).add(&chi.mul(zeta)).to_affine();
        let eps_neg_r = env.pk.eps.mul(-ch.r);
        let kzg_g2 = env.pk.delta.to_projective().add(&eps_neg_r).to_affine();
        let sigma_zeta = sigma.mul(zeta).to_affine();
        let psi_zeta = psi.mul(zeta).to_affine();
        let lhs = r_commit.mul(&pairing(&sigma_zeta, &G2Affine::generator()));
        let rhs = pairing(&on_eps, &env.pk.eps).mul(&pairing(&psi_zeta, &kzg_g2));
        lhs == rhs
    }

    #[test]
    fn fused_verifiers_agree_with_term_by_term_equations() {
        use crate::batch::{verify_private_batch, BatchItem};
        use dsaudit_algebra::Gt;
        // (s, k, bytes): d > k, the design point, k >= d clamped, d = 1
        for (s, k, len) in [(4, 3, 2000), (50, 300, 480_000), (4, 8, 900), (4, 3, 100)] {
            let env = setup(s, k, len);
            let d = env.meta.num_chunks;
            match len {
                900 => assert!(d > 1 && d <= k, "premise: clamped"),
                100 => assert_eq!(d, 1, "premise: one chunk"),
                _ => assert!(d > k, "premise: k distinct of d"),
            }
            let mut rng = rng();
            let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
            let ch = Challenge::random(&mut rng);
            let other = G1Projective::random(&mut rng).to_affine();

            let good = prover.prove_plain(&ch);
            let mut plain_cases = [good; 4];
            plain_cases[1].sigma = other;
            plain_cases[2].y += Fr::one();
            plain_cases[3].psi = other;
            for (case, proof) in plain_cases.iter().enumerate() {
                let want = equation_holds(
                    &env,
                    &ch,
                    (proof.sigma, proof.y, proof.psi),
                    Fr::one(),
                    Gt::identity(),
                );
                let at = format!("plain case {case} at s={s} k={k} d={d}");
                assert_eq!(want, case == 0, "oracle, {at}");
                let got = verify_plain(&env.pk, &env.meta, &ch, proof).unwrap();
                assert_eq!(got.accepted(), want, "{at}");
            }

            let good = prover.prove_private(&mut rng, &ch);
            let mut private_cases = [good; 5];
            private_cases[1].sigma = other;
            private_cases[2].y_prime += Fr::one();
            private_cases[3].psi = other;
            private_cases[4].r_commit = good.r_commit.mul(&Gt::generator());
            for (case, proof) in private_cases.iter().enumerate() {
                let want = equation_holds(
                    &env,
                    &ch,
                    (proof.sigma, proof.y_prime, proof.psi),
                    h_prime(&proof.r_commit),
                    proof.r_commit,
                );
                let at = format!("private case {case} at s={s} k={k} d={d}");
                assert_eq!(want, case == 0, "oracle, {at}");
                assert_eq!(accepts_private(&env, &ch, proof), want, "{at}");
                // the batch is the conjunction of its items
                let items = [good, *proof].map(|proof| BatchItem {
                    pk: &env.pk,
                    meta: env.meta,
                    challenge: ch,
                    proof,
                });
                let batch = verify_private_batch(&mut rng, &items).unwrap();
                assert_eq!(batch.accepted(), want, "batch with {at}");
            }
        }
    }

    #[test]
    fn bad_meta_is_an_error_not_a_reject() {
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
        let ch = Challenge::random(&mut rng);
        let proof = prover.prove_private(&mut rng, &ch);
        let mut bad_meta = env.meta;
        bad_meta.num_chunks = 0;
        assert!(matches!(
            verify_private(&env.pk, &bad_meta, &ch, &proof),
            Err(DsAuditError::BadMeta(_))
        ));
        let mut bad_meta = env.meta;
        bad_meta.k = 0;
        assert!(matches!(
            verify_plain(&env.pk, &bad_meta, &ch, &prover.prove_plain(&ch)),
            Err(DsAuditError::BadMeta(_))
        ));
    }

    #[test]
    fn chi_cache_hits_on_repeated_rounds() {
        let mut rng = rng();
        let auditor = Auditor::new();
        let name = Fr::random(&mut rng);
        let set: Vec<(u64, Fr)> = (0..6)
            .map(|i| (i as u64 * 3 + 1, Fr::random(&mut rng)))
            .collect();
        let first = compute_chi(auditor.chi_cache(), name, &set);
        let s1 = auditor.chi_cache().stats();
        let second = compute_chi(auditor.chi_cache(), name, &set);
        let s2 = auditor.chi_cache().stats();
        assert_eq!(first, second, "cache must not change the result");
        assert_eq!(s1.misses, set.len() as u64, "first round misses");
        assert!(
            s2.hits - s1.hits >= set.len() as u64,
            "a repeated round must hit the cache for every challenged index \
             (hits went {} -> {}, misses {})",
            s1.hits,
            s2.hits,
            s2.misses
        );
    }

    #[test]
    fn replayed_proof_fails_fresh_round() {
        // A proof for round t must not satisfy round t+1 (fresh r).
        let env = setup(5, 4, 2000);
        let mut rng = rng();
        let prover = Prover::new(&env.pk, &env.file, &env.tags).unwrap();
        let ch1 = Challenge::random(&mut rng);
        let proof = prover.prove_plain(&ch1);
        let mut beacon = [9u8; 48];
        beacon[47] ^= 0xff;
        let ch2 = Challenge::from_beacon(&beacon);
        assert!(!verify_plain(&env.pk, &env.meta, &ch2, &proof)
            .unwrap()
            .accepted());
    }
}
