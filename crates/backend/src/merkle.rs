//! Merkle path audits behind the [`AuditBackend`] trait — the
//! Siacoin-style baseline of §II: cheap, frequent integrity checks,
//! with the two §II weaknesses addressed at this layer:
//!
//! * **challenge reuse** — indices come from the protocol's
//!   [`Challenge`] expansion over the chain's randomness beacon
//!   (full-entropy, `k` distinct indices per round), not a low-entropy
//!   counter;
//! * **depth spoofing** — the commitment binds `root || depth ||
//!   leaf_count`, and every path must be exactly `depth` siblings long.
//!
//! What it cannot fix stays documented: challenged leaves travel (and
//! would land on chain) in the clear, and proof size grows with depth —
//! the axes the pairing and groth16 backends win on.

use rand::RngCore;

use dsaudit_core::codec::{ByteReader, Codec};
use dsaudit_core::{Challenge, DsAuditError, RejectReason, Verdict};
use dsaudit_merkle::tree::{MerkleHasher, MerklePath, MerkleTree, PrunedTree, Sha256Hasher};

use crate::wire::{BackendProof, Commitment};
use crate::{AuditBackend, BackendError, BackendId, BackendSetup, ProverKit, Verifier};

/// Hard ceiling on tree depth accepted from the wire (2^64 leaves is
/// unreachable anyway; the bound keeps decode allocations small).
const MAX_DEPTH: usize = 64;

/// The Merkle path backend.
#[derive(Clone, Copy, Debug)]
pub struct MerkleBackend {
    /// Bytes per leaf.
    pub leaf_size: usize,
    /// Challenged leaves per round.
    pub k: usize,
}

impl Default for MerkleBackend {
    fn default() -> Self {
        Self { leaf_size: 64, k: 4 }
    }
}

/// One challenged leaf's response: the raw leaf and its path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProofEntry {
    /// The claimed leaf index.
    pub index: u64,
    /// Raw leaf bytes (the backend's privacy cost, in the clear).
    pub leaf: Vec<u8>,
    /// Sibling hashes, leaf level first.
    pub siblings: Vec<[u8; 32]>,
}

/// A round's response: one entry per challenged index, in challenge
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleBackendProof {
    /// Per-challenge entries.
    pub entries: Vec<MerkleProofEntry>,
}

impl Codec for MerkleBackendProof {
    const TYPE_NAME: &'static str = "MerkleBackendProof";

    fn encoded_len(&self) -> usize {
        4 + self
            .entries
            .iter()
            .map(|e| 8 + 4 + e.leaf.len() + 4 + 32 * e.siblings.len())
            .sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.index.to_le_bytes());
            out.extend_from_slice(&(e.leaf.len() as u32).to_le_bytes());
            out.extend_from_slice(&e.leaf);
            out.extend_from_slice(&(e.siblings.len() as u32).to_le_bytes());
            for s in &e.siblings {
                out.extend_from_slice(s);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let count = r.u32_le("entry count")? as usize;
        // every entry needs at least its fixed header; a forged count
        // fails here instead of allocating
        if r.remaining() < 16 * count {
            return Err(DsAuditError::Truncated {
                ty: Self::TYPE_NAME,
                field: "entries",
                expected: 16 * count,
                got: r.remaining(),
            });
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let index = u64::from_le_bytes(r.array::<8>("index")?);
            let leaf_len = r.u32_le("leaf length")? as usize;
            if r.remaining() < leaf_len {
                return Err(DsAuditError::Truncated {
                    ty: Self::TYPE_NAME,
                    field: "leaf",
                    expected: leaf_len,
                    got: r.remaining(),
                });
            }
            let leaf = r.take(leaf_len, "leaf")?.to_vec();
            let n_sib = r.u32_le("sibling count")? as usize;
            if n_sib > MAX_DEPTH {
                return Err(r.malformed("sibling count"));
            }
            let mut siblings = Vec::with_capacity(n_sib);
            for _ in 0..n_sib {
                siblings.push(r.array::<32>("sibling")?);
            }
            entries.push(MerkleProofEntry {
                index,
                leaf,
                siblings,
            });
        }
        Ok(MerkleBackendProof { entries })
    }
}

/// Commitment payload size: `root (32 B) || depth (4 B) || leaf_count
/// (8 B) || k (4 B)`.
const COMMITMENT_BYTES: usize = 32 + 4 + 8 + 4;

/// The Merkle provider's proving material: the leaf geometry, and the
/// tree built at setup minus its leaf level — the nodes above the leaf
/// hashes, `32 · (leaves.next_power_of_two() − 1)` bytes, 0.5 MiB per
/// MiB of file at the default 64-byte leaves. A round hashes each
/// challenged leaf and its sibling leaf from the stored bytes and takes
/// every other sibling from here, so it costs `O(k)`, and a leaf the
/// provider lost or changed fails every round that challenges it or
/// its sibling.
#[derive(Clone, Debug)]
pub struct MerkleKit {
    leaf_size: usize,
    k: usize,
    tree: PrunedTree<Sha256Hasher>,
}

impl MerkleKit {
    /// Bytes of tree nodes held.
    pub fn tree_bytes(&self) -> usize {
        32 * self.tree.node_count()
    }
}

/// Decoded commitment payload; the backend's [`Verifier`].
struct MerkleCommitment {
    root: [u8; 32],
    depth: usize,
    leaf_count: usize,
    k: usize,
}

impl MerkleBackend {
    /// The distinct indices challenged by `beacon` over a tree with
    /// `leaf_count` leaves — the same constant-time expansion the
    /// pairing scheme uses for chunk indices.
    fn indices(beacon: &[u8; 48], leaf_count: usize, k: usize) -> Vec<u64> {
        Challenge::from_beacon(beacon).indices(leaf_count, k)
    }

    /// Commitment payload: `root (32 B) || depth (4 B) || leaf_count
    /// (8 B) || k (4 B)` — the depth-spoof fix on the wire: the shape
    /// is committed next to the root, not inferred from the proof.
    fn decode_commitment(bytes: &[u8]) -> Result<MerkleCommitment, BackendError> {
        let mut r = ByteReader::new(bytes, "MerkleCommitment");
        let root = r.array::<32>("root")?;
        let depth = r.u32_le("depth")? as usize;
        let leaf_count = u64::from_le_bytes(r.array::<8>("leaf_count")?) as usize;
        let k = r.u32_le("k")? as usize;
        r.finish()?;
        if depth > MAX_DEPTH || leaf_count == 0 || k == 0 {
            return Err(BackendError::Audit(DsAuditError::Malformed {
                ty: "MerkleCommitment",
                field: "shape",
            }));
        }
        Ok(MerkleCommitment {
            root,
            depth,
            leaf_count,
            k,
        })
    }
}

impl AuditBackend for MerkleBackend {
    fn id(&self) -> BackendId {
        BackendId::Merkle
    }

    fn setup(&self, _rng: &mut dyn RngCore, data: &[u8]) -> Result<BackendSetup, BackendError> {
        // zero leaves cannot chunk; zero `k` is refused by `verifier`
        if self.leaf_size == 0 || self.k == 0 {
            return Err(BackendError::Shape("leaf_size and k must be positive"));
        }
        // an empty file is one empty leaf
        let tree = if data.is_empty() {
            MerkleTree::<Sha256Hasher>::from_data(&[data])
        } else {
            MerkleTree::<Sha256Hasher>::from_data(&data.chunks(self.leaf_size).collect::<Vec<_>>())
        };

        let mut commitment = Vec::with_capacity(COMMITMENT_BYTES);
        commitment.extend_from_slice(&tree.root());
        commitment.extend_from_slice(&(tree.depth() as u32).to_le_bytes());
        commitment.extend_from_slice(&(tree.num_leaves as u64).to_le_bytes());
        commitment.extend_from_slice(&(self.k as u32).to_le_bytes());

        Ok(BackendSetup {
            commitment: Commitment {
                backend: BackendId::Merkle,
                bytes: commitment,
            },
            kit: ProverKit::Merkle(MerkleKit {
                leaf_size: self.leaf_size,
                k: self.k,
                tree: tree.prune_leaves(),
            }),
        })
    }

    fn prove(
        &self,
        _rng: &mut dyn RngCore,
        kit: &ProverKit,
        stored: &[u8],
        beacon: &[u8; 48],
    ) -> Result<BackendProof, BackendError> {
        let ProverKit::Merkle(kit) = kit else {
            return Err(kit.wrong_backend(BackendId::Merkle));
        };
        let leaf_count = stored.len().div_ceil(kit.leaf_size).max(1);
        if leaf_count != kit.tree.num_leaves {
            return Err(BackendError::Shape("leaf count"));
        }
        // leaf `i` of the split setup hashed; an empty file's one leaf
        // is empty
        let leaf = |i: usize| stored.chunks(kit.leaf_size).nth(i).unwrap_or_default();
        let entries = Self::indices(beacon, leaf_count, kit.k)
            .into_iter()
            .map(|i| {
                let path = kit.tree.open(i as usize, |j| Sha256Hasher::leaf(leaf(j)));
                MerkleProofEntry {
                    index: i,
                    leaf: leaf(i as usize).to_vec(),
                    siblings: path.siblings,
                }
            })
            .collect();
        Ok(BackendProof {
            backend: BackendId::Merkle,
            bytes: MerkleBackendProof { entries }.encode(),
        })
    }

    fn verifier(&self, commitment: &Commitment) -> Result<Box<dyn Verifier>, BackendError> {
        commitment.expect_backend(BackendId::Merkle)?;
        Ok(Box::new(Self::decode_commitment(&commitment.bytes)?))
    }
}

impl Verifier for MerkleCommitment {
    fn id(&self) -> BackendId {
        BackendId::Merkle
    }

    fn commitment_len(&self) -> usize {
        COMMITMENT_BYTES
    }

    fn verify(&self, beacon: &[u8; 48], proof: &BackendProof) -> Result<Verdict, BackendError> {
        proof.expect_backend(BackendId::Merkle)?;
        let p = MerkleBackendProof::decode(&proof.bytes)?;
        let expected = MerkleBackend::indices(beacon, self.leaf_count, self.k);
        if p.entries.len() != expected.len() {
            return Ok(Verdict::Reject(RejectReason::MerklePath));
        }
        for (entry, want) in p.entries.iter().zip(&expected) {
            // index pinned by the challenge, path length pinned by the
            // committed depth — then the root recomputation
            let path = MerklePath::<Sha256Hasher> {
                index: entry.index as usize,
                siblings: entry.siblings.clone(),
            };
            if entry.index != *want
                || entry.siblings.len() != self.depth
                || !path.verify(&Sha256Hasher::leaf(&entry.leaf), &self.root)
            {
                return Ok(Verdict::Reject(RejectReason::MerklePath));
            }
        }
        Ok(Verdict::Accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x3e4c1e)
    }

    fn backend() -> MerkleBackend {
        MerkleBackend { leaf_size: 32, k: 3 }
    }

    #[test]
    fn honest_round_accepts() {
        let mut r = rng();
        let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [5u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        assert!(b.verify(&setup.commitment, &beacon, &proof).unwrap().accepted());
    }

    #[test]
    fn corrupted_store_rejects_with_merkle_reason() {
        let mut r = rng();
        let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        // corrupt *every* leaf so any challenged index hits the damage
        let bad: Vec<u8> = data.iter().map(|x| x ^ 0x01).collect();
        let beacon = [6u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &bad, &beacon).unwrap();
        assert_eq!(
            b.verify(&setup.commitment, &beacon, &proof).unwrap(),
            Verdict::Reject(RejectReason::MerklePath)
        );
    }

    /// A proof for other indices fails this round: the verifier pins
    /// each entry's index to the beacon's challenge.
    #[test]
    fn proof_for_other_round_rejects() {
        let mut r = rng();
        let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        let (beacon_a, beacon_b) = ([10u8; 48], [11u8; 48]);
        assert_ne!(
            MerkleBackend::indices(&beacon_a, 32, 3),
            MerkleBackend::indices(&beacon_b, 32, 3),
            "test beacons must challenge different indices"
        );
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon_a).unwrap();
        assert_eq!(
            b.verify(&setup.commitment, &beacon_b, &proof).unwrap(),
            Verdict::Reject(RejectReason::MerklePath)
        );
    }

    /// The two §II drawbacks of the deployed-DSN baseline, on the bytes
    /// that land on chain: bigger than the main protocol's constant
    /// proof, and the challenged leaf is in them verbatim.
    #[test]
    fn baseline_proof_bigger_than_main_and_leaks() {
        let mut r = rng();
        let file: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        // one 64-byte leaf per round, as Sia challenges
        let b = MerkleBackend { leaf_size: 64, k: 1 };
        let setup = b.setup(&mut r, &file).unwrap();
        let wire = b.prove(&mut r, &setup.kit, &file, &[2u8; 48]).unwrap().encode();
        // 64 B leaf + 7 * 32 B path + framing > 288 B main-protocol proof
        assert!(wire.len() > dsaudit_core::PRIVATE_PROOF_BYTES);
        assert!(file
            .chunks(64)
            .any(|leaf| wire.windows(64).any(|w| w == leaf)));
    }

    #[test]
    fn lost_bytes_cannot_even_prove() {
        let mut r = rng();
        let data: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        let truncated = &data[..512];
        assert!(matches!(
            b.prove(&mut r, &setup.kit, truncated, &[1u8; 48]),
            Err(BackendError::Shape(_))
        ));
    }

    #[test]
    fn depth_spoofed_proof_rejects() {
        let mut r = rng();
        let data: Vec<u8> = (0..1024).map(|i| (i * 3) as u8).collect();
        let b = backend();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [8u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        let mut p = MerkleBackendProof::decode(&proof.bytes).unwrap();
        // shorten one path a level — a shallower tree's answer
        p.entries[0].siblings.pop();
        let spoofed = BackendProof {
            backend: BackendId::Merkle,
            bytes: p.encode(),
        };
        assert_eq!(
            b.verify(&setup.commitment, &beacon, &spoofed).unwrap(),
            Verdict::Reject(RejectReason::MerklePath)
        );
    }

    #[test]
    fn proof_codec_roundtrips_and_is_bounded() {
        let p = MerkleBackendProof {
            entries: vec![MerkleProofEntry {
                index: 5,
                leaf: vec![1, 2, 3],
                siblings: vec![[7u8; 32]; 4],
            }],
        };
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.encoded_len());
        assert_eq!(MerkleBackendProof::decode(&bytes).unwrap(), p);
        // forged entry count
        let mut forged = bytes.clone();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(MerkleBackendProof::decode(&forged).is_err());
        // oversized sibling count
        let q = MerkleBackendProof {
            entries: vec![MerkleProofEntry {
                index: 0,
                leaf: Vec::new(),
                siblings: Vec::new(),
            }],
        };
        let mut bytes = q.encode();
        let off = bytes.len() - 4;
        bytes[off..].copy_from_slice(&(MAX_DEPTH as u32 + 1).to_le_bytes());
        assert!(matches!(
            MerkleBackendProof::decode(&bytes),
            Err(DsAuditError::Malformed { field: "sibling count", .. })
        ));
    }
}
