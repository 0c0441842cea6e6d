//! The complete strawman auditing pipeline of §IV: a Merkle tree over
//! the file plus a Groth16 proof that the challenged leaf and path lead
//! to the committed root — on-chain privacy bought with heavy off-chain
//! machinery, which is exactly what Table II quantifies against the
//! paper's main HLA solution.

use dsaudit_algebra::field::Field;
use dsaudit_algebra::Fr;
use dsaudit_merkle::tree::{MerkleTree, MimcHasher};

use crate::gadgets::merkle_membership_circuit;
use crate::groth16::{prove, setup, verify, Proof, ProvingKey, SnarkError};

/// Size profile of one strawman instantiation — the size rows of
/// Table II. Its setup, prove and verify times are the `snark.setup`,
/// `snark.prove` and `snark.verify` obs spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct StrawmanStats {
    /// R1CS size (after optional padding).
    pub constraints: usize,
    /// Proving-key size in bytes ("Param. size").
    pub param_bytes: usize,
    /// Proof size in bytes (uncompressed, as posted on chain).
    pub proof_bytes: usize,
}

/// A committed file under the strawman scheme.
pub struct StrawmanAudit {
    tree: MerkleTree<MimcHasher>,
    leaves: Vec<Fr>,
    pk: ProvingKey,
    /// Number of constraints in the circuit (incl. padding).
    pub constraints: usize,
}

impl StrawmanAudit {
    /// Commits to `data` (split into 31-byte field-element leaves) and
    /// runs the trusted setup for the membership circuit.
    ///
    /// `pad_constraints`: when `Some(n)`, pads the circuit to `n`
    /// constraints to mimic the paper's SHA-256-in-Bellman circuit size
    /// (3x10^5).
    ///
    /// # Errors
    /// Propagates [`SnarkError`] from the setup.
    pub fn commit<R: rand::RngCore + ?Sized>(
        rng: &mut R,
        data: &[u8],
        pad_constraints: Option<usize>,
    ) -> Result<Self, SnarkError> {
        let leaves: Vec<Fr> = if data.is_empty() {
            vec![Fr::from_u64(0)]
        } else {
            data.chunks(31)
                .map(|chunk| {
                    let mut buf = [0u8; 32];
                    buf[32 - 31..32 - 31 + chunk.len()].copy_from_slice(chunk);
                    Fr::from_bytes_be(&buf).expect("31 bytes fit")
                })
                .collect()
        };
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        // setup over a representative circuit (index 0)
        let path = tree.open(0);
        let mut cs = merkle_membership_circuit(tree.root(), leaves[0], &path.siblings, 0);
        if let Some(n) = pad_constraints {
            cs.pad_constraints(n);
        }
        let constraints = cs.constraints.len();
        let pk = setup(rng, &cs)?;
        Ok(Self {
            tree,
            leaves,
            pk,
            constraints,
        })
    }

    /// The committed root (public, on chain).
    pub fn root(&self) -> Fr {
        self.tree.root()
    }

    /// Challenge domain size.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Produces the zero-knowledge audit response for a challenged
    /// index, verifies it, and reports the instantiation's sizes.
    ///
    /// # Errors
    /// Propagates prover errors.
    pub fn respond<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        index: usize,
        pad_constraints: Option<usize>,
    ) -> Result<(Proof, StrawmanStats), SnarkError> {
        let path = self.tree.open(index);
        let mut cs =
            merkle_membership_circuit(self.tree.root(), *self.tree.leaf(index), &path.siblings, index);
        if let Some(n) = pad_constraints {
            cs.pad_constraints(n);
        }
        let proof = prove(rng, &self.pk, &cs)?;
        let ok = verify(&self.pk.vk, &[self.tree.root()], &proof);
        debug_assert!(ok, "honest strawman proof must verify");

        Ok((
            proof,
            StrawmanStats {
                constraints: self.constraints,
                param_bytes: self.pk.serialized_len(),
                proof_bytes: Proof::UNCOMPRESSED_BYTES,
            },
        ))
    }

    /// Verifies an audit response on chain.
    pub fn verify_response(&self, proof: &Proof) -> bool {
        verify(&self.pk.vk, &[self.tree.root()], proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x57a77)
    }

    #[test]
    fn strawman_end_to_end_1kb() {
        let mut rng = rng();
        let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let audit = StrawmanAudit::commit(&mut rng, &data, None).unwrap();
        assert_eq!(audit.num_leaves(), 34); // ceil(1024/31)
        let (proof, stats) = audit.respond(&mut rng, 7, None).unwrap();
        assert!(audit.verify_response(&proof));
        assert!(stats.constraints > 0);
        assert_eq!(stats.proof_bytes, 384);
    }

    #[test]
    fn strawman_hides_the_leaf() {
        // two different files, same shape: the proofs are indistinguish-
        // able in size and the response carries no leaf bytes
        let mut rng = rng();
        let audit = StrawmanAudit::commit(&mut rng, &[1u8; 512], None).unwrap();
        let (proof, _) = audit.respond(&mut rng, 0, None).unwrap();
        // the serialized proof is 3 group elements; the leaf value never
        // appears (compare with MerkleAuditProof's raw leaf_data)
        let _ = proof;
    }

    #[test]
    fn wrong_root_rejected() {
        let mut rng = rng();
        let a1 = StrawmanAudit::commit(&mut rng, &[1u8; 256], None).unwrap();
        let a2 = StrawmanAudit::commit(&mut rng, &[2u8; 256], None).unwrap();
        let (proof, _) = a1.respond(&mut rng, 0, None).unwrap();
        // a2's verifier uses a2's root as public input
        assert!(!a2.verify_response(&proof));
    }
}
