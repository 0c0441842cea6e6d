//! # dsaudit-contract
//!
//! The on-chain side of the paper: the storage-auditing smart contract
//! of Fig. 2 (Initialize: negotiated → acked → freeze; Audit:
//! challenge → prove → verify → pay), deposit management, micro-payment
//! settlement and dispute handling, plus the harness that deploys
//! sessions and drives their rounds.
//!
//! There is one contract, [`AuditContract`], with one [`Phase`] machine
//! and one [`Agreement`]. The proof-of-storage scheme is a deployment
//! parameter: the agreement's `dsaudit-backend` decodes its commitment
//! once into the verifier the contract is built from, so pairing,
//! Merkle and Groth16 agreements share negotiation, batched verdicts,
//! migration and settlement, and coexist on one chain.

#![forbid(unsafe_code)]

pub mod audit_contract;
pub mod harness;

pub use audit_contract::{Agreement, AuditContract, Phase};
pub use harness::{
    run_round, run_round_multi, setup_backend_session, setup_session, AgreementTerms,
    BackendSession,
};
