//! # dsaudit-merkle
//!
//! Binary Merkle trees, the commitment under two audit backends.
//!
//! Two hashers are provided: SHA-256 (what deployed DSNs use, and what
//! the merkle backend's Siacoin-style §II audit hashes with) and MiMC
//! over `Fr` (what the groth16 backend's circuit needs; at one index it
//! is the §IV strawman of Table II).

#![forbid(unsafe_code)]

pub mod tree;

pub use tree::{MerkleHasher, MerklePath, MerkleTree, MimcHasher, PrunedTree, Sha256Hasher};
