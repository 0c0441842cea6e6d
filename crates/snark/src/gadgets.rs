//! R1CS gadgets: MiMC permutation/hash and batched Merkle-path
//! membership — the circuit of the paper's strawman ("the challenged
//! leaf node `m_i` and the corresponding Merkle path always lead to
//! `rt`"), which Table II runs at one challenged index.
//!
//! The constraint semantics mirror `dsaudit_crypto::mimc` exactly; a
//! test asserts circuit/native agreement on random inputs.

use dsaudit_algebra::field::Field;
use dsaudit_algebra::Fr;
use dsaudit_crypto::mimc::{round_constants, MIMC_ROUNDS};

use crate::r1cs::{ConstraintSystem, LinearCombination, Variable};

/// A circuit value: a linear combination plus its concrete assignment.
#[derive(Clone, Debug)]
pub struct FrVar {
    /// Symbolic form.
    pub lc: LinearCombination,
    /// Concrete value under the current assignment.
    pub value: Fr,
}

impl FrVar {
    /// Wraps an allocated variable.
    pub fn from_variable(cs: &ConstraintSystem, v: Variable) -> Self {
        Self {
            lc: LinearCombination::from_var(v),
            value: cs.value(v),
        }
    }

    /// A constant.
    pub fn constant(c: Fr) -> Self {
        Self {
            lc: LinearCombination::constant(c),
            value: c,
        }
    }

    /// Symbolic + concrete addition.
    #[must_use]
    pub fn add(&self, other: &FrVar) -> FrVar {
        FrVar {
            lc: self.lc.clone().add_lc(&other.lc),
            value: self.value + other.value,
        }
    }

    /// Symbolic + concrete subtraction.
    #[must_use]
    pub fn sub(&self, other: &FrVar) -> FrVar {
        FrVar {
            lc: self.lc.clone().sub_lc(&other.lc),
            value: self.value - other.value,
        }
    }
}

/// Multiplies two circuit values (one constraint, one fresh witness).
pub fn mul_vars(cs: &mut ConstraintSystem, a: &FrVar, b: &FrVar) -> FrVar {
    let out = cs.alloc_witness(a.value * b.value);
    cs.enforce(
        a.lc.clone(),
        b.lc.clone(),
        LinearCombination::from_var(out),
    );
    FrVar::from_variable(cs, out)
}

/// `x^5` (3 constraints).
pub fn pow5_gadget(cs: &mut ConstraintSystem, x: &FrVar) -> FrVar {
    let x2 = mul_vars(cs, x, x);
    let x4 = mul_vars(cs, &x2, &x2);
    mul_vars(cs, &x4, x)
}

/// The keyed MiMC permutation gadget (330 constraints), identical in
/// semantics to [`dsaudit_crypto::mimc::mimc_permute`].
pub fn mimc_permute_gadget(cs: &mut ConstraintSystem, x: &FrVar, k: &FrVar) -> FrVar {
    let mut acc = x.clone();
    for c in round_constants().iter().take(MIMC_ROUNDS) {
        let u = acc.add(k).add(&FrVar::constant(*c));
        acc = pow5_gadget(cs, &u);
    }
    acc.add(k)
}

/// The 2-to-1 MiMC hash gadget, matching
/// [`dsaudit_crypto::mimc::mimc_hash2`]:
/// `t = permute(l, 0); out = permute(r, t) + t + r`.
pub fn mimc_hash2_gadget(cs: &mut ConstraintSystem, l: &FrVar, r: &FrVar) -> FrVar {
    let zero = FrVar::constant(Fr::zero());
    let t = mimc_permute_gadget(cs, l, &zero);
    let inner = mimc_permute_gadget(cs, r, &t);
    inner.add(&t).add(r)
}

/// Synthesizes the batched membership circuit the groth16-merkle audit
/// backend proves: one shared public root, `B` challenged paths.
///
/// The path direction bits are **public inputs** (allocated before any witness, as the R1CS layout
/// requires). With witness bits a prover holding any single leaf could
/// answer every challenge by re-routing the path — the bits must be
/// pinned by the verifier, who derives them from the challenge beacon.
/// No booleanity constraints are needed on them: the verifier computes
/// the bit values itself, so a prover cannot choose them.
///
/// Every entry is `(leaf, siblings, index)`; all sibling vectors must
/// have the same length (the committed tree depth), which keeps the
/// constraint layout — and therefore the setup keys — independent of
/// *which* indices are challenged.
///
/// Returns the constraint system ready for setup/prove.
pub fn merkle_batch_membership_circuit(
    root: Fr,
    entries: &[(Fr, Vec<Fr>, usize)],
) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new();
    let root_v = cs.alloc_public(root);
    // all public inputs first: each entry's direction bits, low bit first
    let mut bit_vars = Vec::with_capacity(entries.len());
    for (_, siblings, index) in entries {
        let mut bits = Vec::with_capacity(siblings.len());
        for level in 0..siblings.len() {
            let bit = (index >> level) & 1 == 1;
            bits.push(cs.alloc_public(if bit { Fr::one() } else { Fr::zero() }));
        }
        bit_vars.push(bits);
    }
    for ((leaf, siblings, _), bits) in entries.iter().zip(&bit_vars) {
        let leaf_v = cs.alloc_witness(*leaf);
        let mut cur = FrVar::from_variable(&cs, leaf_v);
        for (sib, b) in siblings.iter().zip(bits) {
            let b_var = FrVar::from_variable(&cs, *b);
            let sib_var = {
                let v = cs.alloc_witness(*sib);
                FrVar::from_variable(&cs, v)
            };
            // swap = b * (sib - cur); left = cur + swap; right = sib - swap
            let diff = sib_var.sub(&cur);
            let swap = mul_vars(&mut cs, &b_var, &diff);
            let left = cur.add(&swap);
            let right = sib_var.sub(&swap);
            cur = mimc_hash2_gadget(&mut cs, &left, &right);
        }
        cs.enforce_equal(cur.lc, LinearCombination::from_var(root_v));
    }
    cs
}

/// The public-input vector [`merkle_batch_membership_circuit`] expects:
/// the root followed by each challenged index's direction bits (low bit
/// first, `depth` bits per index). Prover and verifier both call this,
/// so the layout cannot drift between them.
pub fn batch_public_inputs(root: Fr, indices: &[u64], depth: usize) -> Vec<Fr> {
    let mut out = Vec::with_capacity(1 + indices.len() * depth);
    out.push(root);
    for index in indices {
        for level in 0..depth {
            out.push(if (index >> level) & 1 == 1 {
                Fr::one()
            } else {
                Fr::zero()
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_crypto::mimc::{mimc_hash2, mimc_permute};
    use dsaudit_merkle::tree::{MerkleTree, MimcHasher};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9ad9e7)
    }

    #[test]
    fn permute_gadget_matches_native() {
        let mut rng = rng();
        let x = Fr::random(&mut rng);
        let k = Fr::random(&mut rng);
        let mut cs = ConstraintSystem::new();
        let xv = cs.alloc_witness(x);
        let kv = cs.alloc_witness(k);
        let x_var = FrVar::from_variable(&cs, xv);
        let k_var = FrVar::from_variable(&cs, kv);
        let out = mimc_permute_gadget(&mut cs, &x_var, &k_var);
        assert!(cs.is_satisfied());
        assert_eq!(out.value, mimc_permute(x, k));
        assert_eq!(cs.constraints.len(), 3 * MIMC_ROUNDS);
    }

    #[test]
    fn hash2_gadget_matches_native() {
        let mut rng = rng();
        let l = Fr::random(&mut rng);
        let r = Fr::random(&mut rng);
        let mut cs = ConstraintSystem::new();
        let lv = cs.alloc_witness(l);
        let rv = cs.alloc_witness(r);
        let l_var = FrVar::from_variable(&cs, lv);
        let r_var = FrVar::from_variable(&cs, rv);
        let out = mimc_hash2_gadget(&mut cs, &l_var, &r_var);
        assert!(cs.is_satisfied());
        assert_eq!(out.value, mimc_hash2(l, r));
    }

    fn batch_entries(
        tree: &MerkleTree<MimcHasher>,
        leaves: &[Fr],
        indices: &[usize],
    ) -> Vec<(Fr, Vec<Fr>, usize)> {
        indices
            .iter()
            .map(|&i| (leaves[i], tree.open(i).siblings, i))
            .collect()
    }

    #[test]
    fn merkle_circuit_accepts_valid_path() {
        let leaves: Vec<Fr> = (0..16u64).map(Fr::from_u64).collect();
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        for index in [0usize, 5, 15] {
            let entries = batch_entries(&tree, &leaves, &[index]);
            let cs = merkle_batch_membership_circuit(tree.root(), &entries);
            assert!(cs.is_satisfied(), "index {index}");
        }
    }

    #[test]
    fn merkle_circuit_rejects_wrong_leaf() {
        let leaves: Vec<Fr> = (0..16u64).map(Fr::from_u64).collect();
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        let mut entries = batch_entries(&tree, &leaves, &[3]);
        entries[0].0 = Fr::from_u64(99);
        let cs = merkle_batch_membership_circuit(tree.root(), &entries);
        assert!(!cs.is_satisfied());
    }

    #[test]
    fn merkle_circuit_rejects_wrong_index_bits() {
        // leaf 3's path under index 5's (public) direction bits
        let leaves: Vec<Fr> = (0..16u64).map(Fr::from_u64).collect();
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        let entries = [(leaves[3], tree.open(3).siblings, 5)];
        let cs = merkle_batch_membership_circuit(tree.root(), &entries);
        assert!(!cs.is_satisfied());
    }

    #[test]
    fn constraint_count_scales_with_depth() {
        // per level: the swap product and two MiMC permutations; per
        // entry: the root equality. The bits are public, so no
        // booleanity constraints.
        for depth in 1..=5u32 {
            let leaves: Vec<Fr> = (0..1u64 << depth).map(Fr::from_u64).collect();
            let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
            for indices in [&[0usize][..], &[1, 0, 1]] {
                let entries = batch_entries(&tree, &leaves, indices);
                let cs = merkle_batch_membership_circuit(tree.root(), &entries);
                let per_entry = depth as usize * (6 * MIMC_ROUNDS + 1) + 1;
                assert_eq!(cs.constraints.len(), indices.len() * per_entry, "depth {depth}");
            }
        }
    }

    #[test]
    fn batch_circuit_accepts_honest_paths_and_pins_bits_publicly() {
        let leaves: Vec<Fr> = (0..16u64).map(Fr::from_u64).collect();
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        let indices = [3usize, 11, 6];
        let cs = merkle_batch_membership_circuit(
            tree.root(),
            &batch_entries(&tree, &leaves, &indices),
        );
        assert!(cs.is_satisfied());
        // the circuit's own public assignment must match the helper the
        // verifier uses, or prover and verifier would drift apart
        let expect = batch_public_inputs(
            tree.root(),
            &indices.map(|i| i as u64),
            tree.depth(),
        );
        assert_eq!(cs.public_inputs(), expect);
        assert_eq!(expect.len(), 1 + indices.len() * tree.depth());
    }

    #[test]
    fn batch_circuit_rejects_one_bad_leaf() {
        let leaves: Vec<Fr> = (0..16u64).map(Fr::from_u64).collect();
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        let mut entries = batch_entries(&tree, &leaves, &[2, 9]);
        entries[1].0 = Fr::from_u64(77); // second challenged leaf corrupted
        let cs = merkle_batch_membership_circuit(tree.root(), &entries);
        assert!(!cs.is_satisfied());
    }
}
