//! # dsaudit — privacy-assured, lightweight on-chain auditing of decentralized storage
//!
//! Facade crate re-exporting the full workspace: a reproduction of the
//! ICDCS 2020 paper "Towards Privacy-assured and Lightweight On-chain
//! Auditing of Decentralized Storage" together with every substrate it
//! depends on, implemented from scratch.
//!
//! ## Map
//!
//! * [`algebra`] — BN254 pairing curve, field tower, MSM, FFT, polynomials
//! * [`crypto`] — SHA-256 / HMAC / ChaCha20 / PRF / PRP / MiMC / sloth VDF
//! * [`core`] — the paper's audit protocol (HLA + KZG + Sigma masking),
//!   exposed through the role handles re-exported in [`prelude`]
//! * [`merkle`] — Merkle trees; the Siacoin-style §II audit baseline is
//!   the merkle backend (`dsaudit_backend::MerkleBackend`)
//! * [`snark`] — Groth16 with MiMC Merkle gadgets; the §IV strawman is
//!   the groth16 backend's circuit at one index
//! * [`chain`] — Ethereum-like simulator: gas, beacons, scheduler, costs
//! * [`contract`] — the Fig. 2 audit smart contract and multi-user harness
//! * [`storage`] — erasure-coded, DHT-routed decentralized storage network
//! * [`sim`] — discrete-event network simulator driving all of the above
//!   through churn, faults, repair and on-chain settlement
//!
//! ## One audit round
//!
//! The protocol is a three-party interaction; the API hands you one
//! handle per role and a typed session that makes out-of-order calls
//! unrepresentable:
//!
//! ```
//! use dsaudit::chain::beacon::{Beacon, TrustedBeacon};
//! use dsaudit::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), DsAuditError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = AuditParams::new(8, 4)?;
//!
//! // data owner: keygen + encode + tag -> outsourcing bundle
//! let owner = DataOwner::generate(&mut rng, params);
//! let bundle = owner.outsource(&mut rng, b"archive bytes");
//!
//! // storage provider: validates the bundle before acknowledging
//! let provider = StorageProvider::ingest(&mut rng, bundle)?;
//!
//! // auditor: challenge -> 288-byte private response -> verdict; the
//! // challenge is a pure function of the chain's randomness beacon,
//! // so any verifier derives the identical one
//! let auditor = Auditor::new();
//! let mut beacon = TrustedBeacon::new(b"chain randomness");
//! let session = auditor.begin_session(provider.public_key(), provider.meta())?;
//! let round = session.challenge_from_beacon(&beacon.randomness(0));
//! let response = provider.respond_round(&mut rng, &round.round_challenge());
//! let (_, verdict) = round.submit(response).map_err(|(_, e)| e)?.verify()?;
//! assert!(verdict.accepted());                           // on chain, 288 bytes
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use dsaudit_algebra as algebra;
pub use dsaudit_chain as chain;
pub use dsaudit_contract as contract;
pub use dsaudit_core as core;
pub use dsaudit_crypto as crypto;
pub use dsaudit_merkle as merkle;
pub use dsaudit_sim as sim;
pub use dsaudit_snark as snark;
pub use dsaudit_storage as storage;

/// The role-oriented protocol surface in one import: the three role
/// handles, the typed session, the canonical codec, parameters, wire
/// types, and the unified error/verdict pair.
pub mod prelude {
    pub use dsaudit_core::{
        AuditParams, AuditSession, Auditor, Challenge, Codec, DataOwner, DsAuditError,
        EncodedFile, FileMeta, Outsourcing, PlainProof, PrivateProof, PublicKey, RejectReason,
        RoundChallenge, RoundResponse, SecretKey, StorageProvider, Verdict,
    };
}
