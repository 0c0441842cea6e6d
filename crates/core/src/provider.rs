//! The storage-provider role handle: holds shares and authenticators,
//! answers challenges.
//!
//! A [`StorageProvider`] is built by [`ingesting`](StorageProvider::ingest)
//! an [`Outsourcing`] bundle — which batch-validates the authenticators
//! against the owner's public key before the provider acknowledges the
//! contract (the paper's `acked` step) — and then answers audit
//! challenges with the privacy-assured 288-byte proof.

#![deny(missing_docs)]

use dsaudit_algebra::g1::G1Affine;

use crate::challenge::Challenge;
use crate::error::DsAuditError;
use crate::file::EncodedFile;
use crate::keys::PublicKey;
use crate::owner::Outsourcing;
use crate::proof::{PlainProof, PrivateProof};
use crate::prove::{Prover, ProveTimings};
use crate::session::{RoundChallenge, RoundResponse};
use crate::tag::verify_tags_batch;
use crate::verify::FileMeta;

/// Provider-side state for one stored file.
#[derive(Clone, Debug)]
pub struct StorageProvider {
    pk: PublicKey,
    file: EncodedFile,
    tags: Vec<G1Affine>,
}

impl StorageProvider {
    /// Accepts an outsourcing bundle after validating it: dimensions
    /// must agree and the tag vector must pass the random-linear-
    /// combination batch check (128-bit weights: a forged tag survives
    /// with probability at most `2^-128`).
    ///
    /// # Errors
    /// [`DsAuditError::DimensionMismatch`] on inconsistent shapes,
    /// [`DsAuditError::TagsRejected`] when the authenticators fail
    /// validation — the provider must refuse to acknowledge.
    pub fn ingest<R: rand::RngCore + ?Sized>(
        rng: &mut R,
        bundle: Outsourcing,
    ) -> Result<Self, DsAuditError> {
        if !verify_tags_batch(rng, &bundle.pk, &bundle.file, &bundle.tags)?.accepted() {
            return Err(DsAuditError::TagsRejected);
        }
        Self::new_unchecked(bundle.pk, bundle.file, bundle.tags)
    }

    /// Builds a provider from parts without the (pairing-heavy) tag
    /// validation — for trusted local pipelines and tests. Dimensions
    /// are still checked.
    ///
    /// # Errors
    /// [`DsAuditError::DimensionMismatch`] when the tag count does not
    /// match the chunk count or the chunk size exceeds the key.
    pub fn new_unchecked(
        pk: PublicKey,
        file: EncodedFile,
        tags: Vec<G1Affine>,
    ) -> Result<Self, DsAuditError> {
        // a Prover over the same references performs the shape checks
        Prover::new(&pk, &file, &tags)?;
        Ok(Self { pk, file, tags })
    }

    /// The owner's public key this provider serves.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The stored (encoded) file.
    pub fn file(&self) -> &EncodedFile {
        &self.file
    }

    /// The stored authenticators.
    pub fn tags(&self) -> &[G1Affine] {
        &self.tags
    }

    /// The public metadata the contract audits against.
    pub fn meta(&self) -> FileMeta {
        FileMeta {
            name: self.file.name,
            num_chunks: self.file.num_chunks(),
            k: self.file.params.k,
        }
    }

    /// The internal prover over this provider's holdings.
    fn prover(&self) -> Prover<'_> {
        Prover::new(&self.pk, &self.file, &self.tags)
            .expect("provider state was dimension-checked at construction")
    }

    /// Answers a challenge with the privacy-assured proof (§V-D).
    pub fn respond<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> PrivateProof {
        self.prover().prove_private(rng, challenge)
    }

    /// Answers a challenge with the non-private baseline proof.
    pub fn respond_plain(&self, challenge: &Challenge) -> PlainProof {
        self.prover().prove_plain(challenge)
    }

    /// Answers a session-issued round challenge, echoing its round
    /// number so the session can match response to round (see
    /// [`crate::session`]).
    pub fn respond_round<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &RoundChallenge,
    ) -> RoundResponse {
        RoundResponse {
            round: challenge.round,
            proof: self.respond(rng, &challenge.challenge),
        }
    }

    /// Instrumented proof generation (field/curve/GT time split, for
    /// the Fig. 8 reproduction).
    pub fn respond_instrumented<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> (PrivateProof, ProveTimings) {
        self.prover().prove_private_instrumented(rng, challenge)
    }

    // --- dispute/fault simulation -------------------------------------

    /// Silently corrupts block `j` of chunk `i` (models a cheating or
    /// bit-rotten provider in tests, examples, and the contract
    /// harness).
    pub fn corrupt_block(&mut self, i: usize, j: usize) {
        self.file.corrupt_block(i, j);
    }

    /// Replaces a whole chunk with zeros (models dropped data).
    pub fn drop_chunk(&mut self, i: usize) {
        self.file.drop_chunk(i);
    }

    /// Swaps the stored file wholesale (models a provider serving the
    /// wrong data while keeping the original tags). The replacement
    /// must have the same shape.
    ///
    /// # Errors
    /// [`DsAuditError::DimensionMismatch`] when the replacement's chunk
    /// count differs.
    pub fn replace_file(&mut self, file: EncodedFile) -> Result<(), DsAuditError> {
        if file.num_chunks() != self.file.num_chunks() {
            return Err(DsAuditError::DimensionMismatch {
                what: "replacement file chunks",
                expected: self.file.num_chunks(),
                got: file.num_chunks(),
            });
        }
        self.file = file;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::DataOwner;
    use crate::params::AuditParams;
    use crate::verify::verify_private;
    use dsaudit_algebra::g1::G1Projective;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x540f)
    }

    #[test]
    fn ingest_validates_then_responds() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let bundle = owner.outsource(&mut rng, &[3u8; 600]);
        let provider = StorageProvider::ingest(&mut rng, bundle).expect("honest bundle");
        let meta = provider.meta();
        let ch = Challenge::random(&mut rng);
        let proof = provider.respond(&mut rng, &ch);
        assert!(verify_private(provider.public_key(), &meta, &ch, &proof)
            .unwrap()
            .accepted());
    }

    #[test]
    fn ingest_rejects_forged_tags() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let mut bundle = owner.outsource(&mut rng, &[3u8; 600]);
        bundle.tags[0] = G1Projective::random(&mut rng).to_affine();
        assert_eq!(
            StorageProvider::ingest(&mut rng, bundle).err(),
            Some(DsAuditError::TagsRejected)
        );
    }

    #[test]
    fn ingest_rejects_mismatched_dimensions() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let mut bundle = owner.outsource(&mut rng, &[3u8; 600]);
        bundle.tags.pop();
        assert!(matches!(
            StorageProvider::ingest(&mut rng, bundle),
            Err(DsAuditError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn replace_file_enforces_shape() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let bundle = owner.outsource(&mut rng, &[3u8; 600]);
        let mut provider = StorageProvider::ingest(&mut rng, bundle).unwrap();
        let tiny = EncodedFile::encode(&mut rng, &[1u8; 10], params);
        assert!(provider.replace_file(tiny).is_err());
        let same_shape = EncodedFile::encode_with_name(
            provider.file().name,
            &[9u8; 600],
            params,
        );
        provider.replace_file(same_shape).unwrap();
    }
}
