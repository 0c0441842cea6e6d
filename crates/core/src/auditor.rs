//! The auditor role handle: challenge issuance and proof verification
//! with handle-owned caches.
//!
//! An [`Auditor`] is the on-chain verifier's off-chain embodiment: it
//! issues beacon-derived challenges, checks single proofs against the
//! two verification equations, and settles whole rounds through the
//! batched pairing product (§VII-D). The two memoizations that make
//! repeated rounds cheap — the `(name, i)` hash-to-curve cache behind
//! `chi` and the prepared-G2 line-coefficient cache — are **owned by the
//! handle** (bounded, FIFO-evicting, with hit/miss counters; see
//! [`crate::cache`]) instead of process-wide statics, so a million-file
//! deployment can shard auditors and drop their memory with them.

#![deny(missing_docs)]

use crate::batch::{
    plain_holds, private_holds, verify_private_batch_with, verify_private_each_with, BatchItem,
};
use crate::cache::{CacheStats, ChiCache, PreparedG2Cache};
use crate::challenge::Challenge;
use crate::error::{DsAuditError, RejectReason, Verdict};
use crate::keys::PublicKey;
use crate::proof::{PlainProof, PrivateProof};
use crate::session::AuditSession;
use crate::verify::FileMeta;

/// Verifier handle owning the audit caches.
pub struct Auditor {
    chi: ChiCache,
    g2: PreparedG2Cache,
}

impl Auditor {
    /// An auditor with default cache bounds.
    pub fn new() -> Self {
        Self {
            chi: ChiCache::new(),
            g2: PreparedG2Cache::new(),
        }
    }

    /// A throwaway auditor for the stateless one-shot wrappers: caches
    /// sized for a single round (one file's challenged set, three G2
    /// points).
    pub(crate) fn ephemeral() -> Self {
        Self {
            chi: ChiCache::with_capacity(512),
            g2: PreparedG2Cache::with_capacity(8),
        }
    }

    /// The hash-to-curve cache (for [`crate::verify::compute_chi`]).
    pub fn chi_cache(&self) -> &ChiCache {
        &self.chi
    }

    /// The prepared-G2 cache.
    pub fn g2_cache(&self) -> &PreparedG2Cache {
        &self.g2
    }

    /// `(chi, prepared-G2)` hit/miss counters since creation.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (self.chi.stats(), self.g2.stats())
    }

    /// Derives a round challenge from 48 bytes of beacon output.
    ///
    /// This is the *only* challenge-derivation path: challenges are a
    /// pure function of the chain's public randomness, so any verifier
    /// holding the same beacon round derives byte-identical challenges
    /// (no per-auditor randomness to disagree about, nothing for a
    /// malicious auditor to bias). Tests that need an arbitrary
    /// challenge without a beacon use [`Challenge::random`] directly.
    pub fn challenge_from_beacon(&self, beacon: &[u8; 48]) -> Challenge {
        Challenge::from_beacon(beacon)
    }

    /// Opens a typed audit session over one file (see
    /// [`crate::session`]): the session enforces
    /// challenge → response → verdict ordering at compile time and round
    /// agreement by typed error.
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`] when the metadata cannot be audited.
    pub fn begin_session<'a>(
        &'a self,
        pk: &'a PublicKey,
        meta: FileMeta,
    ) -> Result<AuditSession<'a>, DsAuditError> {
        meta.validate()?;
        Ok(AuditSession::new(self, pk, meta))
    }

    /// Verifies the non-private response against Eq. (1).
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`] on unusable metadata; a failing proof
    /// is `Ok(Verdict::Reject(..))`, not an error.
    pub fn verify_plain(
        &self,
        pk: &PublicKey,
        meta: &FileMeta,
        challenge: &Challenge,
        proof: &PlainProof,
    ) -> Result<Verdict, DsAuditError> {
        meta.validate()?;
        let holds = plain_holds(self, pk, meta, challenge, proof);
        Ok(Verdict::from_equation(holds, RejectReason::Equation1))
    }

    /// Verifies the privacy-assured response against Eq. (2) — the
    /// on-chain check of the paper's main protocol.
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`] on unusable metadata; a failing proof
    /// is `Ok(Verdict::Reject(..))`, not an error.
    pub fn verify_private(
        &self,
        pk: &PublicKey,
        meta: &FileMeta,
        challenge: &Challenge,
        proof: &PrivateProof,
    ) -> Result<Verdict, DsAuditError> {
        meta.validate()?;
        let item = BatchItem {
            pk,
            meta: *meta,
            challenge: *challenge,
            proof: *proof,
        };
        Ok(Verdict::from_equation(
            private_holds(self, &item),
            RejectReason::Equation2,
        ))
    }

    /// Verifies a whole round's proofs with one shared Miller loop over
    /// `1 + 2 * (distinct owner keys)` pairs and one final
    /// exponentiation (§VII-D, [`crate::batch`]). Equivalent to
    /// verifying each item individually (soundness error `~1/r` from the
    /// random weights); an empty batch is trivially accepted.
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`] when any item's metadata is unusable; a
    /// failing batch is `Ok(Verdict::Reject(BatchCombination))`.
    pub fn verify_private_batch<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        items: &[BatchItem<'_>],
    ) -> Result<Verdict, DsAuditError> {
        verify_private_batch_with(self, rng, items)
    }

    /// Per-item accept flags for a whole round: one
    /// [`Auditor::verify_private_batch`] product when every proof is
    /// good. When the batch rejects, blame is found by bisection over
    /// the batch's own weights: the items are sorted by owner key, only
    /// the left half of a failing sub-batch is checked (the right half's
    /// two `GT` sides are the parent's divided by the left's), and a
    /// sub-batch of a few items verifies each alone with
    /// [`Auditor::verify_private`]. So the flags always equal what
    /// verifying each item alone would give, a cheating provider is
    /// singled out instead of failing its neighbours, and one bad item
    /// in `n` costs about `log2 n` sub-batch checks instead of `n`
    /// single verifications. An item that cannot be checked at all
    /// (unusable metadata) is rejected. Only the batch's weights draw
    /// from `rng`, exactly as [`Auditor::verify_private_batch`] draws.
    pub fn verify_private_each<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        items: &[BatchItem<'_>],
    ) -> Vec<bool> {
        verify_private_each_with(self, rng, items)
    }
}

impl Default for Auditor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::EncodedFile;
    use crate::keys::keygen;
    use crate::params::AuditParams;
    use crate::prove::Prover;
    use crate::tag::generate_tags;
    use dsaudit_algebra::field::Field;
    use dsaudit_algebra::Fr;
    use rand::SeedableRng;

    #[test]
    fn handle_owned_caches_warm_across_rounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa0d17);
        let params = AuditParams::new(4, 3).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let file = EncodedFile::encode(&mut rng, &[5u8; 700], params);
        let tags = generate_tags(&sk, &file);
        let meta = FileMeta {
            name: file.name,
            num_chunks: file.num_chunks(),
            k: params.k,
        };
        let prover = Prover::new(&pk, &file, &tags).unwrap();
        let auditor = Auditor::new();
        for _ in 0..3 {
            let ch = Challenge::random(&mut rng);
            let proof = prover.prove_private(&mut rng, &ch);
            assert!(auditor
                .verify_private(&pk, &meta, &ch, &proof)
                .unwrap()
                .accepted());
        }
        let (chi, g2) = auditor.cache_stats();
        assert!(chi.hits > 0, "repeated rounds must hit the chi cache");
        assert_eq!(g2.misses, 2, "eps and delta prepared exactly once");
        assert_eq!(g2.hits, 4, "two warm lookups per later round");
        // a second auditor starts cold: its caches are its own
        let other = Auditor::new();
        let (chi2, g22) = other.cache_stats();
        assert_eq!((chi2.hits, g22.hits), (0, 0));
    }

    /// At `k` at or above the slice cutoff, the first round fills the
    /// chi cache and promotes nothing; the second promotes the entries
    /// it hits, and verdicts and hit/miss counts are what they were
    /// without rows. At `k` below it nothing is ever promoted.
    #[test]
    fn a_warm_auditor_promotes_entries_from_its_second_round() {
        use dsaudit_algebra::msm::SLICE_MSM_CUTOFF;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa0d18);
        for k in [SLICE_MSM_CUTOFF - 1, SLICE_MSM_CUTOFF + 4] {
            let params = AuditParams::new(3, k).unwrap();
            let (sk, pk) = keygen(&mut rng, &params);
            let file = EncodedFile::encode(&mut rng, &[6u8; 6000], params);
            assert!(file.num_chunks() > 2 * k, "k must not clamp");
            let tags = generate_tags(&sk, &file);
            let meta = FileMeta {
                name: file.name,
                num_chunks: file.num_chunks(),
                k: params.k,
            };
            let prover = Prover::new(&pk, &file, &tags).unwrap();
            let auditor = Auditor::new();
            let mut promoted = Vec::new();
            for round in 0..6 {
                let ch = Challenge::random(&mut rng);
                let mut proof = prover.prove_private(&mut rng, &ch);
                let honest = round != 4;
                if !honest {
                    proof.y_prime += Fr::one();
                }
                let verdict = auditor.verify_private(&pk, &meta, &ch, &proof).unwrap();
                assert_eq!(verdict.accepted(), honest, "k {k} round {round}");
                promoted.push(auditor.chi_cache().rows_len());
            }
            // the counts are those of the lookups alone: every distinct
            // index misses once, every other lookup hits
            let (chi, _) = auditor.cache_stats();
            assert_eq!(chi.hits + chi.misses, 6 * k as u64);
            assert_eq!(chi.misses, auditor.chi_cache().len() as u64);
            if k < SLICE_MSM_CUTOFF {
                assert_eq!(promoted, [0; 6]);
            } else {
                assert_eq!(promoted[0], 0, "a cold round promotes nothing");
                assert!(promoted[1] > 0, "the second round promotes its hits");
                assert!(promoted.windows(2).all(|w| w[0] <= w[1]));
                assert!(promoted[5] <= auditor.chi_cache().len());
            }
        }
    }
}
