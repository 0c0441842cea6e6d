//! # dsaudit-merkle
//!
//! Merkle trees and the Siacoin-style Merkle audit baseline (§II).
//!
//! Two hashers are provided: SHA-256 (what deployed DSNs use) and MiMC
//! over `Fr` (what the SNARK strawman circuit needs). The [`audit`]
//! module implements the naive challenge-response Merkle audit and
//! demonstrates its weakness — with low-entropy challenges a provider
//! can cache past responses, discard the file and keep passing audits.

#![forbid(unsafe_code)]

pub mod audit;
pub mod tree;

pub use audit::{CachingCheater, MerkleAudit, MerkleAuditProof};
pub use tree::{MerkleHasher, MerklePath, MerkleTree, MimcHasher, PrunedTree, Sha256Hasher};
