//! # dsaudit-snark
//!
//! A complete, self-contained Groth16 zk-SNARK over BN254 — the
//! Bellman-equivalent backend of the paper's §IV strawman: R1CS
//! construction, QAP via radix-2 FFTs, trusted setup, prover, verifier,
//! and the MiMC Merkle-membership gadgets. The strawman of Table II is
//! the groth16 backend's circuit at one index
//! (`dsaudit_backend::groth16::membership_circuit`), padded with
//! [`ConstraintSystem::pad_constraints`] to the paper's circuit size.

#![forbid(unsafe_code)]

pub mod codec;
pub mod gadgets;
pub mod groth16;
pub mod r1cs;

pub use gadgets::{
    batch_public_inputs, merkle_batch_membership_circuit, mimc_hash2_gadget, mimc_permute_gadget,
    FrVar,
};
pub use groth16::{prove, setup, verify, Proof, ProvingKey, SnarkError, VerifyingKey};
pub use r1cs::{ConstraintSystem, LinearCombination, Variable};
