//! # dsaudit-core
//!
//! The primary contribution of the reproduced paper: a privacy-assured,
//! lightweight on-chain auditing protocol for decentralized storage,
//! combining homomorphic linear authenticators (HLA), KZG-style
//! polynomial commitments for succinct constant-cost verification, and a
//! Sigma-protocol masking layer that keeps audit trails on the public
//! blockchain private.
//!
//! ## The role-oriented API
//!
//! The protocol is a three-party interaction, and the API mirrors it
//! with one handle per role:
//!
//! * [`DataOwner`] — keygen, (streaming) encoding, authenticator
//!   generation, and the [`Outsourcing`] bundle shipped to a provider;
//! * [`StorageProvider`] — validates and holds shares + tags, answers
//!   challenges with 288-byte private proofs;
//! * [`Auditor`] — issues challenges and verifies single proofs or
//!   whole batched rounds, with the hash-to-curve and prepared-G2
//!   caches owned by the handle (bounded, evicting; see [`cache`]).
//!
//! A typed [`AuditSession`] state machine connects them so invalid call
//! orders (prove before challenge, verify before a response) do not
//! compile, and round mismatches are typed errors. Every object that
//! crosses a trust boundary serializes through the canonical [`Codec`];
//! all fallible operations return [`DsAuditError`], and verification
//! returns a [`Verdict`] so callers can tell *bad proof* from *bad
//! input*.
//!
//! ## One audit round, end to end
//!
//! ```
//! use dsaudit_core::{AuditParams, Auditor, DataOwner, StorageProvider};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dsaudit_core::DsAuditError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = AuditParams::new(8, 4)?;
//!
//! // owner: keygen + encode + tag, bundled for outsourcing
//! let owner = DataOwner::generate(&mut rng, params);
//! let bundle = owner.outsource(&mut rng, b"archive bytes");
//!
//! // provider: validates the authenticators before acknowledging
//! let provider = StorageProvider::ingest(&mut rng, bundle)?;
//!
//! // auditor: a typed session drives challenge -> response -> verdict;
//! // the 48 challenge bytes come from the chain's randomness beacon
//! // (`dsaudit_chain::beacon`), not from auditor-local RNG state
//! let beacon_output = [0x5au8; 48];
//! let auditor = Auditor::new();
//! let session = auditor.begin_session(provider.public_key(), provider.meta())?;
//! let round = session.challenge_from_beacon(&beacon_output);
//! let response = provider.respond_round(&mut rng, &round.round_challenge());
//! let proven = round.submit(response).map_err(|(_, e)| e)?;
//! let (session, verdict) = proven.verify()?;
//! assert!(verdict.accepted());
//! assert_eq!(session.tally(), (1, 0));
//! # Ok(())
//! # }
//! ```
//!
//! ## Streaming encode
//!
//! GiB-scale archives are encoded from any [`std::io::Read`] without
//! buffering the raw bytes in full (peak transient allocation is one
//! chunk):
//!
//! ```
//! use dsaudit_core::{AuditParams, DataOwner};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dsaudit_core::DsAuditError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let owner = DataOwner::generate(&mut rng, AuditParams::new(8, 4)?);
//! let mut source: &[u8] = b"pretend this is a huge file handle";
//! let file = owner.encode_reader(&mut rng, &mut source)?;
//! let tags = owner.tag(&file);
//! assert_eq!(tags.len(), file.num_chunks());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod attack;
pub mod auditor;
pub mod batch;
pub mod cache;
pub mod challenge;
pub mod codec;
pub mod error;
pub mod file;
pub mod keys;
pub mod owner;
pub mod params;
pub mod proof;
pub mod prove;
pub mod provider;
pub mod session;
pub mod tag;
pub mod verify;

pub use auditor::Auditor;
pub use cache::{CacheStats, ChiCache, PreparedG2Cache};
pub use challenge::Challenge;
pub use codec::{ByteReader, Codec};
pub use error::{DsAuditError, RejectReason, Verdict};
pub use file::EncodedFile;
pub use keys::{keygen, PublicKey, SecretKey};
pub use owner::{share_name, DataOwner, Outsourcing};
pub use params::{chunks_for_confidence, confidence_for_chunks, AuditParams};
pub use proof::{PlainProof, PrivateProof, PLAIN_PROOF_BYTES, PRIVATE_PROOF_BYTES};
pub use prove::{Prover, ProveTimings};
pub use provider::StorageProvider;
pub use session::{AuditSession, ChallengedRound, ProvenRound, RoundChallenge, RoundResponse};
pub use tag::{generate_tags, verify_tag, verify_tags_batch, verify_tags_each};
pub use verify::{verify_plain, verify_private, FileMeta};
