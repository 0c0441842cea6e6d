//! Binary Merkle trees, generic over the node hash.

use dsaudit_algebra::field::Field;
use dsaudit_algebra::Fr;
use dsaudit_crypto::mimc::mimc_hash2;
use dsaudit_crypto::sha256::Sha256;

/// Abstraction over the 2-to-1 compression used at internal nodes.
pub trait MerkleHasher {
    /// Node type.
    type Node: Clone + PartialEq + Eq + core::fmt::Debug + Send + Sync;
    /// Hashes a raw leaf payload.
    fn leaf(data: &[u8]) -> Self::Node;
    /// Compresses two children.
    fn node(left: &Self::Node, right: &Self::Node) -> Self::Node;
    /// Padding node for non-power-of-two trees.
    fn empty() -> Self::Node;
}

/// SHA-256 hasher with domain separation between leaves and nodes.
#[derive(Clone, Copy, Debug)]
pub struct Sha256Hasher;

impl MerkleHasher for Sha256Hasher {
    type Node = [u8; 32];

    fn leaf(data: &[u8]) -> Self::Node {
        let mut h = Sha256::new();
        h.update(&[0x00]).update(data);
        h.finalize()
    }

    fn node(left: &Self::Node, right: &Self::Node) -> Self::Node {
        let mut h = Sha256::new();
        h.update(&[0x01]).update(left).update(right);
        h.finalize()
    }

    fn empty() -> Self::Node {
        [0u8; 32]
    }
}

/// MiMC hasher over `Fr` — the circuit-friendly instantiation used by
/// the SNARK strawman.
#[derive(Clone, Copy, Debug)]
pub struct MimcHasher;

impl MerkleHasher for MimcHasher {
    type Node = Fr;

    fn leaf(data: &[u8]) -> Self::Node {
        Fr::from_bytes_wide(&dsaudit_crypto::sha256::sha256_wide(data))
    }

    fn node(left: &Self::Node, right: &Self::Node) -> Self::Node {
        mimc_hash2(*left, *right)
    }

    fn empty() -> Self::Node {
        Fr::zero()
    }
}

/// An inclusion proof: the sibling hashes from leaf to root.
#[derive(Clone, Debug)]
pub struct MerklePath<H: MerkleHasher> {
    /// Leaf index the path opens.
    pub index: usize,
    /// Sibling node per level, bottom-up.
    pub siblings: Vec<H::Node>,
}

impl<H: MerkleHasher> PartialEq for MerklePath<H> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.siblings == other.siblings
    }
}
impl<H: MerkleHasher> Eq for MerklePath<H> {}

impl<H: MerkleHasher> MerklePath<H> {
    /// Recomputes the root from a leaf node and this path.
    pub fn compute_root(&self, leaf: &H::Node) -> H::Node {
        let mut acc = leaf.clone();
        let mut idx = self.index;
        for sib in &self.siblings {
            acc = if idx & 1 == 0 {
                H::node(&acc, sib)
            } else {
                H::node(sib, &acc)
            };
            idx >>= 1;
        }
        acc
    }

    /// Verifies the path against a known root.
    pub fn verify(&self, leaf: &H::Node, root: &H::Node) -> bool {
        self.compute_root(leaf) == *root
    }

    /// Serialized byte size (32 bytes per sibling), for on-chain cost
    /// accounting of the Merkle baseline.
    pub fn serialized_len(&self) -> usize {
        32 * self.siblings.len()
    }
}

/// A complete binary Merkle tree with all levels materialized.
#[derive(Clone, Debug)]
pub struct MerkleTree<H: MerkleHasher> {
    /// levels[0] = leaves (padded), last level = [root]
    levels: Vec<Vec<H::Node>>,
    /// Number of real (unpadded) leaves.
    pub num_leaves: usize,
}

impl<H: MerkleHasher> MerkleTree<H> {
    /// Builds a tree over raw leaf payloads.
    ///
    /// # Panics
    /// Panics on an empty leaf set.
    pub fn from_data<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "tree needs at least one leaf");
        Self::from_leaves(leaves.iter().map(|d| H::leaf(d.as_ref())).collect())
    }

    /// Builds a tree over already-hashed leaf nodes.
    ///
    /// # Panics
    /// Panics on an empty leaf set.
    pub fn from_leaves(mut leaves: Vec<H::Node>) -> Self {
        assert!(!leaves.is_empty(), "tree needs at least one leaf");
        let num_leaves = leaves.len();
        let padded = num_leaves.next_power_of_two();
        leaves.resize(padded, H::empty());
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let next: Vec<H::Node> = prev
                .chunks(2)
                .map(|pair| H::node(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        Self { levels, num_leaves }
    }

    /// The root node.
    pub fn root(&self) -> H::Node {
        self.levels.last().expect("nonempty")[0].clone()
    }

    /// Tree depth (number of levels above the leaves).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// The (padded) leaf at `index`.
    pub fn leaf(&self, index: usize) -> &H::Node {
        &self.levels[0][index]
    }

    /// Opens an inclusion proof for leaf `index`.
    ///
    /// # Panics
    /// Panics when `index` exceeds the padded leaf count.
    pub fn open(&self, index: usize) -> MerklePath<H> {
        assert!(index < self.levels[0].len(), "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.depth());
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1].clone());
            idx >>= 1;
        }
        MerklePath { index, siblings }
    }

    /// Drops the leaf level, keeping every node above it — half the
    /// tree's nodes. See [`PrunedTree`].
    pub fn prune_leaves(mut self) -> PrunedTree<H> {
        self.levels.remove(0);
        PrunedTree {
            levels: self.levels,
            num_leaves: self.num_leaves,
        }
    }
}

/// A [`MerkleTree`] without its leaf level: the nodes above the leaf
/// hashes, `num_leaves.next_power_of_two() - 1` of them. An opening
/// takes the opened leaf's sibling hash from the caller and every
/// other sibling from here, so whoever keeps this hashes one leaf per
/// opening instead of rebuilding the tree, and a changed leaf still
/// shows in every opening whose path starts at it or at its sibling.
#[derive(Clone, Debug)]
pub struct PrunedTree<H: MerkleHasher> {
    /// levels[0] = parents of the leaves, last level = [root]; empty
    /// for a one-leaf tree.
    levels: Vec<Vec<H::Node>>,
    /// Number of real (unpadded) leaves.
    pub num_leaves: usize,
}

impl<H: MerkleHasher> PrunedTree<H> {
    /// Nodes held.
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Opens an inclusion proof for leaf `index`. `leaf_hash(j)` must
    /// return the hash of real leaf `j`; it is called at most once, for
    /// the sibling (a padding sibling is [`MerkleHasher::empty`]).
    ///
    /// # Panics
    /// Panics when `index` is not a real leaf.
    pub fn open(&self, index: usize, leaf_hash: impl FnOnce(usize) -> H::Node) -> MerklePath<H> {
        assert!(index < self.num_leaves, "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.levels.len());
        if let Some((_root, inner)) = self.levels.split_last() {
            let sibling = index ^ 1;
            siblings.push(if sibling < self.num_leaves {
                leaf_hash(sibling)
            } else {
                H::empty()
            });
            let mut idx = index >> 1;
            for level in inner {
                siblings.push(level[idx ^ 1].clone());
                idx >>= 1;
            }
        }
        MerklePath { index, siblings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha_tree_roundtrip() {
        let data: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; 40]).collect();
        let tree = MerkleTree::<Sha256Hasher>::from_data(&data);
        assert_eq!(tree.depth(), 4); // 13 -> padded 16
        for (i, d) in data.iter().enumerate() {
            let path = tree.open(i);
            assert!(path.verify(&Sha256Hasher::leaf(d), &tree.root()));
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let data: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let tree = MerkleTree::<Sha256Hasher>::from_data(&data);
        let path = tree.open(3);
        assert!(!path.verify(&Sha256Hasher::leaf(b"evil"), &tree.root()));
    }

    #[test]
    fn wrong_index_path_rejected() {
        let data: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let tree = MerkleTree::<Sha256Hasher>::from_data(&data);
        let mut path = tree.open(3);
        path.index = 5;
        assert!(!path.verify(&Sha256Hasher::leaf(&data[3]), &tree.root()));
    }

    #[test]
    fn mimc_tree_roundtrip() {
        let leaves: Vec<Fr> = (0..10u64).map(Fr::from_u64).collect();
        let tree = MerkleTree::<MimcHasher>::from_leaves(leaves.clone());
        for (i, l) in leaves.iter().enumerate() {
            assert!(tree.open(i).verify(l, &tree.root()));
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::<Sha256Hasher>::from_data(&[b"only"]);
        assert_eq!(tree.depth(), 0);
        assert!(tree.open(0).verify(&Sha256Hasher::leaf(b"only"), &tree.root()));
    }

    #[test]
    fn roots_differ_on_any_change() {
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let t1 = MerkleTree::<Sha256Hasher>::from_data(&data);
        let mut data2 = data.clone();
        data2[2][0] ^= 1;
        let t2 = MerkleTree::<Sha256Hasher>::from_data(&data2);
        assert_ne!(t1.root(), t2.root());
    }

    /// A pruned tree opens the same paths as the full tree it came
    /// from, for every leaf count from 1 to 17, padded or not.
    #[test]
    fn pruned_tree_opens_the_full_trees_paths() {
        for n in 1..=17u8 {
            let data: Vec<Vec<u8>> = (0..n).map(|i| vec![i; 9]).collect();
            let tree = MerkleTree::<Sha256Hasher>::from_data(&data);
            let full: Vec<_> = (0..data.len()).map(|i| tree.open(i)).collect();
            let pruned = tree.prune_leaves();
            assert_eq!(pruned.node_count(), usize::from(n).next_power_of_two() - 1);
            for (i, want) in full.iter().enumerate() {
                let path = pruned.open(i, |j| Sha256Hasher::leaf(&data[j]));
                assert_eq!(&path, want, "{n} leaves, leaf {i}");
            }
        }
    }

    #[test]
    fn path_size_accounting() {
        let data: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 32]).collect();
        let tree = MerkleTree::<Sha256Hasher>::from_data(&data);
        assert_eq!(tree.open(0).serialized_len(), 5 * 32);
    }
}
