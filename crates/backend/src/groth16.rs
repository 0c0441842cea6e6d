//! The Groth16-compressed Merkle backend: one constant 128-byte proof
//! per round that verifies a whole batch of challenged Merkle paths —
//! `snark::strawman` grown into a real backend.
//!
//! Two deliberate departures from the strawman:
//!
//! * **batching** — the circuit proves `B` challenged paths against one
//!   shared public root, so proof size and verify cost are independent
//!   of the batch;
//! * **public index bits** — the strawman witnesses the path direction
//!   bits, which is a soundness hole for auditing: a prover holding a
//!   single leaf could satisfy any challenge by re-routing its path.
//!   Here the verifier derives the challenged indices from the beacon
//!   and pins their bits as *public inputs*
//!   (see [`dsaudit_snark::merkle_batch_membership_circuit`]).
//!
//! The honest prover always synthesizes a satisfied circuit over its
//! *own* computed root; if its data is corrupt that root differs from
//! the committed one, the public inputs don't match, and verification
//! rejects — a clean `Verdict::Reject`, never a prover-side panic.

use rand::RngCore;

use dsaudit_algebra::field::Field;
use dsaudit_algebra::Fr;
use dsaudit_core::codec::{ByteReader, Codec};
use dsaudit_core::{Challenge, DsAuditError, RejectReason, Verdict};
use dsaudit_merkle::tree::{MerkleTree, MimcHasher};
use dsaudit_snark::groth16::{prove, setup, verify, Proof, ProvingKey, VerifyingKey};
use dsaudit_snark::{batch_public_inputs, merkle_batch_membership_circuit};

use crate::wire::{BackendProof, Commitment};
use crate::{AuditBackend, BackendError, BackendId, BackendSetup, ProverKit, Verifier};

/// Wire ceiling on tree depth (shared rationale with the merkle
/// backend: bounds decode work, unreachable in practice).
const MAX_DEPTH: usize = 64;

/// The Groth16-compressed Merkle backend.
#[derive(Clone, Copy, Debug)]
pub struct Groth16MerkleBackend {
    /// Challenged paths per round, all compressed into one proof.
    pub batch: usize,
}

impl Default for Groth16MerkleBackend {
    fn default() -> Self {
        Self { batch: 2 }
    }
}

/// Splits data into 31-byte field-element leaves (strawman encoding:
/// 31 bytes always fit below the BN254 scalar modulus).
fn leaves_from(data: &[u8]) -> Vec<Fr> {
    if data.is_empty() {
        return vec![Fr::from_u64(0)];
    }
    data.chunks(31)
        .map(|chunk| {
            let mut buf = [0u8; 32];
            buf[1..1 + chunk.len()].copy_from_slice(chunk);
            Fr::from_bytes_be(&buf).expect("31 bytes fit below the modulus")
        })
        .collect()
}

/// The Groth16 provider's proving material: the tree shape and batch
/// the circuit was keyed for, and the proving key itself.
#[derive(Clone, Debug)]
pub struct Groth16Kit {
    depth: usize,
    leaf_count: usize,
    batch: usize,
    pk: ProvingKey,
}

/// Decoded commitment payload (verifying key included); the backend's
/// [`Verifier`].
struct G16Commitment {
    root: Fr,
    depth: usize,
    leaf_count: usize,
    batch: usize,
    vk: VerifyingKey,
}

impl Groth16MerkleBackend {
    /// The challenged indices for `beacon` — the same expansion as the
    /// other backends, clamped to the leaf count exactly like the
    /// circuit shape is at setup.
    fn indices(beacon: &[u8; 48], leaf_count: usize, batch: usize) -> Vec<u64> {
        Challenge::from_beacon(beacon).indices(leaf_count, batch)
    }

    /// Commitment payload: `root || depth (4 B) || leaf_count (8 B) ||
    /// batch (4 B) || vk`.
    fn decode_commitment(bytes: &[u8]) -> Result<G16Commitment, BackendError> {
        let mut r = ByteReader::new(bytes, "Groth16Commitment");
        let root = Fr::decode_from(&mut r)?;
        let depth = r.u32_le("depth")? as usize;
        let leaf_count = u64::from_le_bytes(r.array::<8>("leaf_count")?) as usize;
        let batch = r.u32_le("batch")? as usize;
        let vk = VerifyingKey::decode_from(&mut r)?;
        r.finish()?;
        if depth > MAX_DEPTH || leaf_count == 0 || batch == 0 {
            return Err(BackendError::Audit(DsAuditError::Malformed {
                ty: "Groth16Commitment",
                field: "shape",
            }));
        }
        Ok(G16Commitment {
            root,
            depth,
            leaf_count,
            batch,
            vk,
        })
    }
}

impl AuditBackend for Groth16MerkleBackend {
    fn id(&self) -> BackendId {
        BackendId::Groth16Merkle
    }

    fn setup(&self, rng: &mut dyn RngCore, data: &[u8]) -> Result<BackendSetup, BackendError> {
        // an empty batch is a commitment `verifier` refuses
        if self.batch == 0 {
            return Err(BackendError::Shape("batch must be positive"));
        }
        let leaves = leaves_from(data);
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        let depth = tree.depth();
        let leaf_count = leaves.len();
        // the circuit shape depends only on (batch, depth) — setup over
        // representative indices 0..b_eff; the same clamp the challenge
        // expansion applies keeps prove/verify on the identical shape
        let b_eff = self.batch.min(leaf_count);
        let entries: Vec<(Fr, Vec<Fr>, usize)> = (0..b_eff)
            .map(|i| (leaves[i], tree.open(i).siblings, i))
            .collect();
        let cs = merkle_batch_membership_circuit(tree.root(), &entries);
        let pk = setup(rng, &cs)?;

        let mut commitment = Vec::new();
        tree.root().encode_into(&mut commitment);
        commitment.extend_from_slice(&(depth as u32).to_le_bytes());
        commitment.extend_from_slice(&(leaf_count as u64).to_le_bytes());
        commitment.extend_from_slice(&(self.batch as u32).to_le_bytes());
        pk.vk.encode_into(&mut commitment);

        Ok(BackendSetup {
            commitment: Commitment {
                backend: BackendId::Groth16Merkle,
                bytes: commitment,
            },
            kit: ProverKit::Groth16Merkle(Box::new(Groth16Kit {
                depth,
                leaf_count,
                batch: self.batch,
                pk,
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
        let ProverKit::Groth16Merkle(kit) = kit else {
            return Err(kit.wrong_backend(BackendId::Groth16Merkle));
        };
        let leaves = leaves_from(stored);
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        if tree.depth() != kit.depth || leaves.len() != kit.leaf_count {
            return Err(BackendError::Shape("tree depth / leaf count"));
        }
        let entries: Vec<(Fr, Vec<Fr>, usize)> = Self::indices(beacon, kit.leaf_count, kit.batch)
            .into_iter()
            .map(|i| (leaves[i as usize], tree.open(i as usize).siblings, i as usize))
            .collect();
        // synthesized over the prover's OWN root: always satisfied, so
        // proving never fails on corrupt data — the mismatch surfaces
        // at verification against the committed root
        let cs = merkle_batch_membership_circuit(tree.root(), &entries);
        let proof = prove(rng, &kit.pk, &cs)?;
        Ok(BackendProof {
            backend: BackendId::Groth16Merkle,
            bytes: proof.encode(),
        })
    }

    fn verifier(&self, commitment: &Commitment) -> Result<Box<dyn Verifier>, BackendError> {
        commitment.expect_backend(BackendId::Groth16Merkle)?;
        Ok(Box::new(Self::decode_commitment(&commitment.bytes)?))
    }
}

impl Verifier for G16Commitment {
    fn id(&self) -> BackendId {
        BackendId::Groth16Merkle
    }

    fn commitment_len(&self) -> usize {
        self.root.encoded_len() + 4 + 8 + 4 + self.vk.encoded_len()
    }

    fn verify(&self, beacon: &[u8; 48], proof: &BackendProof) -> Result<Verdict, BackendError> {
        proof.expect_backend(BackendId::Groth16Merkle)?;
        let p = Proof::decode(&proof.bytes)?;
        let indices = Groth16MerkleBackend::indices(beacon, self.leaf_count, self.batch);
        let publics = batch_public_inputs(self.root, &indices, self.depth);
        if verify(&self.vk, &publics, &p) {
            Ok(Verdict::Accept)
        } else {
            Ok(Verdict::Reject(RejectReason::SnarkProof))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x6f161)
    }

    fn backend() -> Groth16MerkleBackend {
        Groth16MerkleBackend { batch: 2 }
    }

    #[test]
    fn honest_round_accepts_with_constant_proof() {
        let mut r = rng();
        let data: Vec<u8> = (0..31 * 6).map(|i| (i % 249) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [3u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        assert_eq!(proof.bytes.len(), Proof::COMPRESSED_BYTES);
        assert!(b.verify(&setup.commitment, &beacon, &proof).unwrap().accepted());
    }

    #[test]
    fn corrupted_store_rejects_with_snark_reason() {
        let mut r = rng();
        let data: Vec<u8> = (0..31 * 6).map(|i| (i % 249) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        // corrupt every leaf so any challenged index hits the damage
        let bad: Vec<u8> = data.iter().map(|x| x ^ 0x02).collect();
        let beacon = [4u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &bad, &beacon).unwrap();
        assert_eq!(
            b.verify(&setup.commitment, &beacon, &proof).unwrap(),
            Verdict::Reject(RejectReason::SnarkProof)
        );
    }

    #[test]
    fn proof_for_other_round_rejects() {
        // a cached proof from round A cannot answer round B: the index
        // bits are public inputs derived from the beacon
        let mut r = rng();
        let data: Vec<u8> = (0..31 * 8).map(|i| (i * 7) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon_a = [10u8; 48];
        let beacon_b = [11u8; 48];
        assert_ne!(
            Groth16MerkleBackend::indices(&beacon_a, 8, 2),
            Groth16MerkleBackend::indices(&beacon_b, 8, 2),
            "test beacons must challenge different indices"
        );
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon_a).unwrap();
        assert!(!b.verify(&setup.commitment, &beacon_b, &proof).unwrap().accepted());
    }

    #[test]
    fn lost_bytes_cannot_even_prove() {
        let mut r = rng();
        let data: Vec<u8> = (0..31 * 8).map(|i| i as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        assert!(matches!(
            b.prove(&mut r, &setup.kit, &data[..31 * 3], &[1u8; 48]),
            Err(BackendError::Shape(_))
        ));
    }
}
