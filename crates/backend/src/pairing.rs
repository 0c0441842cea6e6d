//! The paper's privacy-assured pairing (HLA) scheme behind the
//! [`AuditBackend`] trait — a pure adapter over `dsaudit-core` with
//! zero behavior change: same keys, same tags, same challenge
//! expansion, same 288-byte blinded proof, same verification equation.

use rand::RngCore;

use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::Fr;
use dsaudit_core::codec::{ByteReader, Codec};
use dsaudit_core::verify::FileMeta;
use dsaudit_core::{
    AuditParams, Auditor, Challenge, DataOwner, EncodedFile, PrivateProof, Prover, PublicKey,
    Verdict,
};

use crate::wire::{BackendProof, Commitment};
use crate::{AuditBackend, BackendError, BackendId, BackendSetup, ProverKit, Verifier};

/// The pairing backend; configured by the paper's audit parameters
/// (blocks per chunk `s`, challenges per round `k`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PairingBackend {
    /// Audit parameters every file under this backend is encoded with.
    pub params: AuditParams,
}

/// The pairing provider's proving material: the owner's public key,
/// the validated parameters the file was encoded with, and one tag per
/// chunk. The name the tags are bound to is the verifier's business; a
/// round encodes its `k` challenged chunks from the stored bytes.
#[derive(Clone, Debug)]
pub struct PairingKit {
    pk: PublicKey,
    params: AuditParams,
    tags: Vec<G1Affine>,
}

impl PairingBackend {
    /// A backend with explicit parameters (the simulator passes its
    /// scaled-down `s`/`k` through here).
    pub fn new(params: AuditParams) -> Self {
        Self { params }
    }

    /// The verifier for a file outsourced through the role API
    /// ([`DataOwner`]), from the typed public key and metadata — what
    /// [`AuditBackend::verifier`] builds after decoding the same two
    /// from a commitment.
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`](dsaudit_core::DsAuditError::BadMeta)
    /// (wrapped) when the metadata can never be audited: zero chunks or
    /// a zero challenge count.
    pub fn verifier_for(pk: PublicKey, meta: FileMeta) -> Result<Box<dyn Verifier>, BackendError> {
        meta.validate()?;
        Ok(Box::new(PairingVerifier {
            pk,
            meta,
            auditor: Auditor::new(),
        }))
    }

    /// Frames a role-API proof as this backend's erased wire object
    /// (what `prove` calldata carries).
    pub fn frame(proof: &PrivateProof) -> BackendProof {
        BackendProof {
            backend: BackendId::Pairing,
            bytes: proof.encode(),
        }
    }

    /// Commitment payload: `pk || name || num_chunks (4 B) || k (4 B)`
    /// — the public key plus the [`FileMeta`] verification needs.
    fn decode_commitment(bytes: &[u8]) -> Result<(PublicKey, FileMeta), BackendError> {
        let mut r = ByteReader::new(bytes, "PairingCommitment");
        let pk = PublicKey::decode_from(&mut r)?;
        let name = Fr::decode_from(&mut r)?;
        let num_chunks = r.u32_le("num_chunks")? as usize;
        let k = r.u32_le("k")? as usize;
        r.finish()?;
        Ok((pk, FileMeta { name, num_chunks, k }))
    }
}

impl AuditBackend for PairingBackend {
    fn id(&self) -> BackendId {
        BackendId::Pairing
    }

    fn setup(&self, rng: &mut dyn RngCore, data: &[u8]) -> Result<BackendSetup, BackendError> {
        // the field is pub: validated here, once, before any encode
        let params = AuditParams::new(self.params.s, self.params.k)?;
        let owner = DataOwner::generate(rng, params);
        let out = owner.outsource(rng, data);
        let meta = out.meta();

        let mut commitment = Vec::new();
        out.pk.encode_into(&mut commitment);
        meta.name.encode_into(&mut commitment);
        commitment.extend_from_slice(&(meta.num_chunks as u32).to_le_bytes());
        commitment.extend_from_slice(&(meta.k as u32).to_le_bytes());

        Ok(BackendSetup {
            commitment: Commitment {
                backend: BackendId::Pairing,
                bytes: commitment,
            },
            kit: ProverKit::Pairing(Box::new(PairingKit {
                pk: out.pk,
                params,
                tags: out.tags,
            })),
        })
    }

    fn prove(
        &self,
        rng: &mut dyn RngCore,
        kit: &ProverKit,
        stored: &[u8],
        beacon: &[u8; 48],
    ) -> Result<BackendProof, BackendError> {
        let ProverKit::Pairing(kit) = kit else {
            return Err(kit.wrong_backend(BackendId::Pairing));
        };
        if EncodedFile::chunk_count(stored.len(), kit.params) != kit.tags.len() {
            // stored bytes shrank or grew past a chunk boundary — the
            // prover cannot even line its tags up any more
            return Err(BackendError::Shape("chunk count vs. tag count"));
        }
        // only the k challenged chunks are encoded
        let prover = Prover::from_stored(&kit.pk, stored, kit.params, &kit.tags)?;
        let challenge = Challenge::from_beacon(beacon);
        Ok(Self::frame(&prover.prove_private(rng, &challenge)))
    }

    fn verifier(&self, commitment: &Commitment) -> Result<Box<dyn Verifier>, BackendError> {
        commitment.expect_backend(BackendId::Pairing)?;
        let (pk, meta) = Self::decode_commitment(&commitment.bytes)?;
        Self::verifier_for(pk, meta)
    }
}

/// A decoded pairing commitment plus the [`Auditor`] whose chi and
/// prepared-G2 caches stay warm across this file's rounds.
struct PairingVerifier {
    pk: PublicKey,
    meta: FileMeta,
    auditor: Auditor,
}

impl Verifier for PairingVerifier {
    fn id(&self) -> BackendId {
        BackendId::Pairing
    }

    fn commitment_len(&self) -> usize {
        self.pk.encoded_len() + self.meta.name.encoded_len() + 4 + 4
    }

    fn verify(&self, beacon: &[u8; 48], proof: &BackendProof) -> Result<Verdict, BackendError> {
        proof.expect_backend(BackendId::Pairing)?;
        let p = PrivateProof::decode(&proof.bytes)?;
        let challenge = Challenge::from_beacon(beacon);
        Ok(self
            .auditor
            .verify_private(&self.pk, &self.meta, &challenge, &p)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9a171)
    }

    fn small() -> PairingBackend {
        PairingBackend::new(AuditParams::new(4, 3).expect("valid"))
    }

    #[test]
    fn honest_round_accepts() {
        let mut r = rng();
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        let b = small();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [7u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        assert_eq!(proof.bytes.len(), dsaudit_core::PRIVATE_PROOF_BYTES);
        let verdict = b.verify(&setup.commitment, &beacon, &proof).unwrap();
        assert!(verdict.accepted());
    }

    #[test]
    fn corrupted_store_rejects() {
        let mut r = rng();
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        let b = small();
        let setup = b.setup(&mut r, &data).unwrap();
        let mut bad = data.clone();
        bad[17] ^= 0x40;
        let beacon = [9u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &bad, &beacon).unwrap();
        let verdict = b.verify(&setup.commitment, &beacon, &proof).unwrap();
        assert!(!verdict.accepted());
    }

    #[test]
    fn wrong_backend_objects_are_typed_errors() {
        let mut r = rng();
        let data = vec![3u8; 200];
        let b = small();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [1u8; 48];
        let kit = crate::MerkleBackend::default().setup(&mut r, &data).unwrap().kit;
        assert!(matches!(
            b.prove(&mut r, &kit, &data, &beacon),
            Err(BackendError::WrongBackend { .. })
        ));
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        let mut wrong = proof.clone();
        wrong.backend = BackendId::Groth16Merkle;
        assert!(matches!(
            b.verify(&setup.commitment, &beacon, &wrong),
            Err(BackendError::WrongBackend { .. })
        ));
    }
}
