//! The Siacoin-style Merkle audit (§II) and its fundamental weakness.
//!
//! Per round the contract draws a leaf index from challenge randomness;
//! the provider submits the raw leaf plus its Merkle path; the contract
//! checks it against the stored root. The paper's criticism: "the
//! storage provider can reuse the proofs for challenged blocks ...
//! due to the low entropy of challenge randomness" — demonstrated here
//! by [`CachingCheater`], which passes audits after discarding the file
//! once every index has been challenged at least once.

use dsaudit_crypto::sha256::sha256;
use std::collections::HashMap;

use crate::tree::{MerkleHasher, MerklePath, MerkleTree, Sha256Hasher};

/// An on-chain Merkle audit response: the raw challenged leaf and its
/// path (note: *the leaf is data in the clear* — the baseline has no
/// on-chain privacy, which is the strawman's whole motivation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleAuditProof {
    /// Raw leaf bytes (leaks data on chain!).
    pub leaf_data: Vec<u8>,
    /// Inclusion path.
    pub path: MerklePath<Sha256Hasher>,
}

impl MerkleAuditProof {
    /// On-chain bytes of this response.
    pub fn serialized_len(&self) -> usize {
        self.leaf_data.len() + self.path.serialized_len()
    }
}

/// Verifier state: the root plus the tree *shape* (depth and leaf
/// count), as a contract would store.
///
/// Binding the shape matters: a root alone lets a provider answer a
/// challenge against a shallower tree whose interior node equals the
/// committed root (depth-spoofing), shrinking the data it must hold.
/// [`MerkleAudit::commitment`] digests `root || depth || leaf_count`
/// into the single word the contract keeps, and [`MerkleAudit::verify`]
/// rejects any path whose length disagrees with the committed depth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleAudit {
    /// Committed root.
    pub root: [u8; 32],
    /// Committed tree depth (every valid path has exactly this many
    /// siblings).
    pub depth: usize,
    /// Number of leaves (challenge domain).
    pub num_leaves: usize,
}

/// Domain prefix of the binding commitment digest.
const COMMITMENT_DOMAIN: &[u8] = b"dsaudit/merkle/commitment/v1";

impl MerkleAudit {
    /// Commits to a file split into `leaf_size`-byte leaves (an empty
    /// file is one empty leaf), hashing each leaf in place. Returns the
    /// verifier state and the prover's tree.
    pub fn commit(data: &[u8], leaf_size: usize) -> (Self, MerkleTree<Sha256Hasher>) {
        let hashes = if data.is_empty() {
            vec![Sha256Hasher::leaf(data)]
        } else {
            data.chunks(leaf_size).map(Sha256Hasher::leaf).collect()
        };
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(hashes);
        (
            Self {
                root: tree.root(),
                depth: tree.depth(),
                num_leaves: tree.num_leaves,
            },
            tree,
        )
    }

    /// The single digest a contract stores: a domain-separated hash
    /// binding `root || depth || leaf_count`, so none of the three can
    /// be restated later without changing the stored word.
    pub fn commitment(&self) -> [u8; 32] {
        let mut buf = Vec::with_capacity(COMMITMENT_DOMAIN.len() + 32 + 8 + 8);
        buf.extend_from_slice(COMMITMENT_DOMAIN);
        buf.extend_from_slice(&self.root);
        buf.extend_from_slice(&(self.depth as u64).to_le_bytes());
        buf.extend_from_slice(&(self.num_leaves as u64).to_le_bytes());
        sha256(&buf)
    }

    /// Checks this verifier state against a stored commitment digest.
    pub fn matches_commitment(&self, commitment: &[u8; 32]) -> bool {
        self.commitment() == *commitment
    }

    /// Derives the challenged leaf index from round randomness.
    pub fn challenge_index(&self, randomness: &[u8]) -> usize {
        let h = sha256(randomness);
        let v = u64::from_le_bytes(h[..8].try_into().expect("32-byte digest"));
        (v % self.num_leaves as u64) as usize
    }

    /// Verifies a response for the given round randomness: the path
    /// must claim the challenged index, be exactly the committed depth
    /// long, and recompute the committed root.
    pub fn verify(&self, randomness: &[u8], proof: &MerkleAuditProof) -> bool {
        let expect_idx = self.challenge_index(randomness);
        proof.path.index == expect_idx
            && proof.path.siblings.len() == self.depth
            && proof
                .path
                .verify(&Sha256Hasher::leaf(&proof.leaf_data), &self.root)
    }
}

/// Leaf `index` of `data` split into `leaf_size`-byte leaves, the
/// split [`MerkleAudit::commit`] hashes: the last leaf may be short, and
/// an index past the end is an empty leaf.
pub fn leaf_bytes(data: &[u8], leaf_size: usize, index: usize) -> &[u8] {
    let lo = index.saturating_mul(leaf_size).min(data.len());
    let hi = lo.saturating_add(leaf_size).min(data.len());
    &data[lo..hi]
}

/// Honest prover: answers from the full file.
pub fn honest_response(
    tree: &MerkleTree<Sha256Hasher>,
    data: &[u8],
    leaf_size: usize,
    index: usize,
) -> MerkleAuditProof {
    MerkleAuditProof {
        leaf_data: leaf_bytes(data, leaf_size, index).to_vec(),
        path: tree.open(index),
    }
}

/// The cheating provider of the paper's §II critique: it records every
/// (index -> response) it has ever sent, and once its cache covers the
/// challenge domain it **deletes the file** and keeps answering from
/// cache. Against a challenge source with reused/low-entropy randomness
/// this passes every audit while storing only `O(seen)` responses.
#[derive(Default, Debug)]
pub struct CachingCheater {
    cache: HashMap<usize, MerkleAuditProof>,
    /// Whether the underlying file has been discarded.
    pub dropped_file: bool,
}

impl CachingCheater {
    /// Fresh cheater.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes (and caches) an honest response while the file is still
    /// held.
    pub fn observe(&mut self, index: usize, proof: MerkleAuditProof) {
        self.cache.insert(index, proof);
    }

    /// Drops the file: from now on, only the cache answers.
    pub fn drop_file(&mut self) {
        self.dropped_file = true;
    }

    /// Answers a challenge if the cache covers it.
    pub fn respond(&self, index: usize) -> Option<MerkleAuditProof> {
        self.cache.get(&index).cloned()
    }

    /// Cache size in bytes (the cheater's true storage footprint).
    pub fn cache_bytes(&self) -> usize {
        self.cache.values().map(MerkleAuditProof::serialized_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_audit_passes() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let (audit, tree) = MerkleAudit::commit(&data, 64);
        for round in 0..20u64 {
            let rand = round.to_le_bytes();
            let idx = audit.challenge_index(&rand);
            let proof = honest_response(&tree, &data, 64, idx);
            assert!(audit.verify(&rand, &proof));
        }
    }

    #[test]
    fn wrong_index_fails() {
        let data = vec![7u8; 1024];
        let (audit, tree) = MerkleAudit::commit(&data, 64);
        let rand = 1u64.to_le_bytes();
        let idx = audit.challenge_index(&rand);
        let other = (idx + 1) % audit.num_leaves;
        let proof = honest_response(&tree, &data, 64, other);
        assert!(!audit.verify(&rand, &proof));
    }

    #[test]
    fn tampered_leaf_fails() {
        let data: Vec<u8> = (0..2048).map(|i| i as u8).collect();
        let (audit, tree) = MerkleAudit::commit(&data, 32);
        let rand = 9u64.to_le_bytes();
        let idx = audit.challenge_index(&rand);
        let mut proof = honest_response(&tree, &data, 32, idx);
        proof.leaf_data[0] ^= 1;
        assert!(!audit.verify(&rand, &proof));
    }

    /// The §II weakness: with low-entropy (here: 4-bit) challenge
    /// randomness, the cheater caches all 16 possible responses, drops
    /// the file, and passes forever.
    #[test]
    fn caching_cheater_beats_low_entropy_challenges() {
        let data: Vec<u8> = (0..32 * 256).map(|i| (i * 7) as u8).collect();
        let (audit, tree) = MerkleAudit::commit(&data, 256); // 32 leaves
        let mut cheater = CachingCheater::new();

        // phase 1: the provider behaves, but records responses. The
        // "beacon" has only 16 distinct values (low entropy).
        let beacon = |round: u64| (round % 16).to_le_bytes();
        for round in 0..64u64 {
            let rand = beacon(round);
            let idx = audit.challenge_index(&rand);
            let proof = honest_response(&tree, &data, 256, idx);
            assert!(audit.verify(&rand, &proof));
            cheater.observe(idx, proof);
        }

        // phase 2: file deleted; audits keep passing from the cache
        cheater.drop_file();
        let mut passed = 0;
        for round in 64..128u64 {
            let rand = beacon(round);
            let idx = audit.challenge_index(&rand);
            let proof = cheater.respond(idx).expect("cache covers the domain");
            assert!(audit.verify(&rand, &proof));
            passed += 1;
        }
        assert_eq!(passed, 64);
        // and the cheater stores far less than the file
        assert!(cheater.cache_bytes() < data.len());
    }

    /// The commitment digest binds every field: restating the root,
    /// the depth, or the leaf count produces a different stored word.
    #[test]
    fn commitment_binds_each_field() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 199) as u8).collect();
        let (audit, _) = MerkleAudit::commit(&data, 64);
        let stored = audit.commitment();
        assert!(audit.matches_commitment(&stored));

        let mut tampered = audit.clone();
        tampered.root[0] ^= 1;
        assert!(!tampered.matches_commitment(&stored), "root not bound");

        let mut tampered = audit.clone();
        tampered.depth -= 1;
        assert!(!tampered.matches_commitment(&stored), "depth not bound");

        let mut tampered = audit.clone();
        tampered.num_leaves -= 1;
        assert!(!tampered.matches_commitment(&stored), "leaf count not bound");
    }

    /// The depth-spoofing attack the binding exists for: a provider
    /// restating the same root as a shallower tree (so each "leaf"
    /// covers more data it no longer stores) cannot match the stored
    /// commitment, and a path of the wrong length never verifies.
    #[test]
    fn depth_spoof_is_rejected() {
        let data: Vec<u8> = (0..64 * 8).map(|i| i as u8).collect();
        let (audit, tree) = MerkleAudit::commit(&data, 64); // 8 leaves, depth 3
        assert_eq!(audit.depth, 3);
        let stored = audit.commitment();

        // restated shape with the genuine root fails the binding check
        let spoof = MerkleAudit {
            root: audit.root,
            depth: audit.depth - 1,
            num_leaves: audit.num_leaves / 2,
        };
        assert!(!spoof.matches_commitment(&stored));

        // a structurally valid proof whose path is one level short (or
        // long) is rejected by the depth check before the root check
        let rand = 3u64.to_le_bytes();
        let idx = audit.challenge_index(&rand);
        let mut short = honest_response(&tree, &data, 64, idx);
        short.path.siblings.pop();
        assert!(!audit.verify(&rand, &short));
        let mut long = honest_response(&tree, &data, 64, idx);
        long.path.siblings.push([0u8; 32]);
        assert!(!audit.verify(&rand, &long));
    }

    /// With high-entropy challenges the cache cannot cover the domain
    /// quickly — the honest-storage guarantee the HLA protocol keeps
    /// without ever exposing leaf data.
    #[test]
    fn high_entropy_defeats_small_cache() {
        let data: Vec<u8> = (0..256 * 512).map(|i| (i * 3) as u8).collect();
        let (audit, tree) = MerkleAudit::commit(&data, 256); // 512 leaves
        let mut cheater = CachingCheater::new();
        for round in 0..32u64 {
            let rand = sha256(&round.to_le_bytes()); // full-entropy beacon
            let idx = audit.challenge_index(&rand);
            cheater.observe(idx, honest_response(&tree, &data, 256, idx));
        }
        cheater.drop_file();
        let misses = (32..96u64)
            .filter(|round| {
                let rand = sha256(&round.to_le_bytes());
                cheater.respond(audit.challenge_index(&rand)).is_none()
            })
            .count();
        assert!(misses > 30, "only {misses} cache misses in 64 rounds");
    }
}
