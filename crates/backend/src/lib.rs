//! # dsaudit-backend
//!
//! "How possession is proven" as a pluggable strategy. Every scheme in
//! the repo — the paper's pairing-based HLA protocol, the Siacoin-style
//! Merkle path audit, and the Groth16-compressed Merkle batch — sits
//! behind one object-safe [`AuditBackend`] trait with the common
//! lifecycle:
//!
//! ```text
//! setup/tag ─→ challenge (beacon) ─→ prove ─→ verify ─→ settle
//! ```
//!
//! A contract is deployed over an erased [`Commitment`], which its
//! backend decodes **once** into a [`Verifier`]; the provider holds the
//! [`ProverKit`] that `setup` built; each round the chain's randomness
//! beacon is the challenge, the provider answers with an erased
//! [`BackendProof`], and the verifier returns the protocol's usual
//! [`Verdict`] — `Reject` for a proof that
//! decodes but does not verify, a typed error for bytes that don't
//! decode. Both wire objects lead with a [`BackendId`] byte, so a
//! chain can host contracts on different backends side by side and a
//! frame for an unknown backend dies in decoding, never in a verdict.
//!
//! The three shipped backends trade off exactly the axes the bench
//! suite measures head-to-head (`repro backends`):
//!
//! | backend | proof size | privacy | prover cost |
//! |---|---|---|---|
//! | pairing | 288 B constant | yes (blinded) | ~ms |
//! | merkle | `k·(leaf + 32·depth)` | none (leaks leaves) | ~µs |
//! | groth16-merkle | 128 B constant | yes (zk) | ~100 ms |

#![forbid(unsafe_code)]

use rand::RngCore;

use dsaudit_core::Verdict;

pub mod error;
pub mod groth16;
pub mod merkle;
pub mod pairing;
pub mod wire;

pub use error::BackendError;
pub use groth16::Groth16MerkleBackend;
pub use merkle::{MerkleBackend, MerkleBackendProof, MerkleProofEntry};
pub use pairing::PairingBackend;
pub use wire::{BackendProof, Commitment};

/// Identifies a proof-of-storage scheme on the wire: the leading byte
/// of every [`Commitment`] and [`BackendProof`], the
/// backend field of a node frame, and the per-contract selector in
/// agreement terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendId {
    /// The paper's privacy-assured pairing (HLA) scheme: constant
    /// 288-byte blinded proofs.
    Pairing = 1,
    /// Raw Merkle path audits: cheap to prove and verify, but proofs
    /// grow with depth and leak challenged leaves on chain.
    Merkle = 2,
    /// Groth16-compressed Merkle batches: one constant 128-byte proof
    /// covering a batch of challenged paths, zero-knowledge.
    Groth16Merkle = 3,
}

impl BackendId {
    /// Every shipped backend, in wire-id order.
    pub const ALL: [BackendId; 3] = [BackendId::Pairing, BackendId::Merkle, BackendId::Groth16Merkle];

    /// Parses a wire byte; `None` for unknown ids (a typed decode error
    /// at the call site, never a verdict).
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(BackendId::Pairing),
            2 => Some(BackendId::Merkle),
            3 => Some(BackendId::Groth16Merkle),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Stable lowercase name (CLI flags, report rows).
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Pairing => "pairing",
            BackendId::Merkle => "merkle",
            BackendId::Groth16Merkle => "groth16",
        }
    }

    /// Parses a CLI/report name as produced by [`BackendId::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "pairing" => Some(BackendId::Pairing),
            "merkle" => Some(BackendId::Merkle),
            "groth16" | "groth16-merkle" => Some(BackendId::Groth16Merkle),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the provider holds besides the data: the state `setup` built,
/// handed back to `prove` as it is. No caller sends it anywhere, so it
/// has no byte form to decode every round; its contents are each
/// backend's own business.
#[derive(Clone, Debug)]
pub enum ProverKit {
    /// Built by [`PairingBackend`].
    Pairing(Box<pairing::PairingKit>),
    /// Built by [`MerkleBackend`].
    Merkle(merkle::MerkleKit),
    /// Built by [`Groth16MerkleBackend`].
    Groth16Merkle(Box<groth16::Groth16Kit>),
}

impl ProverKit {
    /// The backend that built this kit, and the only one that proves
    /// from it.
    pub fn backend(&self) -> BackendId {
        match self {
            ProverKit::Pairing(_) => BackendId::Pairing,
            ProverKit::Merkle(_) => BackendId::Merkle,
            ProverKit::Groth16Merkle(_) => BackendId::Groth16Merkle,
        }
    }

    /// The error for handing this kit to backend `expected`.
    fn wrong_backend(&self, expected: BackendId) -> BackendError {
        BackendError::WrongBackend {
            expected,
            got: self.backend(),
        }
    }
}

/// What setup hands back: the verifier's on-chain commitment, erased to
/// a wire object, and the provider's proving material.
#[derive(Clone, Debug)]
pub struct BackendSetup {
    /// Stored by the audit contract; everything verification needs.
    pub commitment: Commitment,
    /// Held by the provider; everything proving needs beyond the data
    /// itself (the data is *not* inside — provers read the challenged
    /// units from what they store, so discarded bytes fail every round
    /// that challenges them).
    pub kit: ProverKit,
}

/// A proof-of-storage scheme behind the common audit lifecycle.
///
/// Object safety is the point: deployments pick a `dyn AuditBackend`
/// per agreement and a chain mixes backends freely. Implementations
/// must be deterministic given the rng — the simulator replays fault
/// schedules across backends and compares verdicts byte for byte.
///
/// The verdict contract, shared with the rest of the workspace: a proof
/// that *decodes* but fails its check is `Ok(Verdict::Reject(..))`; a
/// proof (or commitment) that does not decode, or that names a
/// different backend, is `Err(..)` — transport and framing problems
/// must never settle a round.
pub trait AuditBackend: Send + Sync {
    /// This backend's wire id.
    fn id(&self) -> BackendId;

    /// Processes `data` into a commitment/kit pair.
    ///
    /// # Errors
    /// A configuration that can never be audited (zero or out-of-range
    /// parameters: [`BackendError::Shape`] or the core layer's
    /// parameter error), and backend-specific setup failures (e.g. a
    /// circuit too large for the SNARK's FFT domain).
    fn setup(&self, rng: &mut dyn RngCore, data: &[u8]) -> Result<BackendSetup, BackendError>;

    /// Produces the round's proof over the provider's `stored` bytes
    /// for the challenge derived from `beacon`.
    ///
    /// Every parameter comes from `kit` and none from `self`: any
    /// instance of the kit's backend, however configured, returns the
    /// same proof — a caller that resolves the backend by id alone
    /// ([`backend_for`]) proves correctly for a kit that a differently
    /// configured instance set up.
    ///
    /// # Errors
    /// [`BackendError::WrongBackend`] when the kit belongs to another
    /// backend; [`BackendError::Shape`] when `stored` no longer has the
    /// shape the kit was built for (a provider that lost bytes should
    /// time out, not forge a submission); prover errors otherwise.
    fn prove(
        &self,
        rng: &mut dyn RngCore,
        kit: &ProverKit,
        stored: &[u8],
        beacon: &[u8; 48],
    ) -> Result<BackendProof, BackendError>;

    /// Decodes `commitment` once into a [`Verifier`] that checks round
    /// after round without touching the commitment bytes again — what
    /// an audit contract builds at deployment and keeps for its
    /// lifetime, so a commitment that does not decode is a deployment
    /// error and can never surface mid-round.
    ///
    /// # Errors
    /// [`BackendError::WrongBackend`] when the commitment belongs to
    /// another backend; typed codec errors when its payload does not
    /// decode or describes a shape that can never be audited.
    fn verifier(&self, commitment: &Commitment) -> Result<Box<dyn Verifier>, BackendError>;

    /// One-shot check of a proof against the commitment for the
    /// challenge derived from `beacon`: [`AuditBackend::verifier`]
    /// followed by a single [`Verifier::verify`].
    ///
    /// # Errors
    /// Everything `verifier` and [`Verifier::verify`] return. A
    /// well-formed proof that fails the check is
    /// `Ok(Verdict::Reject(..))`, not an error.
    fn verify(
        &self,
        commitment: &Commitment,
        beacon: &[u8; 48],
        proof: &BackendProof,
    ) -> Result<Verdict, BackendError> {
        self.verifier(commitment)?.verify(beacon, proof)
    }
}

/// A decoded commitment: the verifier half of a backend, with whatever
/// per-file state makes repeated rounds cheap (the pairing scheme's
/// warm hash-to-curve and prepared-G2 caches live here).
pub trait Verifier: Send {
    /// The backend this verifier belongs to (the id every proof it is
    /// handed must carry).
    fn id(&self) -> BackendId;

    /// Payload bytes of the commitment this verifier stands for — what
    /// registering it on chain stores.
    fn commitment_len(&self) -> usize;

    /// Checks one round's proof for the challenge derived from
    /// `beacon`.
    ///
    /// # Errors
    /// [`BackendError::WrongBackend`] when the proof is tagged for
    /// another backend, typed codec errors when its payload does not
    /// decode — the commitment is already parsed, so an error here is
    /// always the proof's fault. A well-formed proof that fails the
    /// check is `Ok(Verdict::Reject(..))`.
    fn verify(&self, beacon: &[u8; 48], proof: &BackendProof) -> Result<Verdict, BackendError>;
}

/// The default-configured backend for a wire id — how contracts and
/// daemons resolve the id they were deployed with.
pub fn backend_for(id: BackendId) -> Box<dyn AuditBackend> {
    match id {
        BackendId::Pairing => Box::new(PairingBackend::default()),
        BackendId::Merkle => Box::new(MerkleBackend::default()),
        BackendId::Groth16Merkle => Box::new(Groth16MerkleBackend::default()),
    }
}

/// Every shipped backend at default configuration, in wire-id order.
pub fn all_backends() -> Vec<Box<dyn AuditBackend>> {
    BackendId::ALL.iter().map(|id| backend_for(*id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_roundtrip_and_unknown_is_none() {
        for id in BackendId::ALL {
            assert_eq!(BackendId::from_u8(id.as_u8()), Some(id));
            assert_eq!(BackendId::from_name(id.name()), Some(id));
            assert_eq!(backend_for(id).id(), id);
        }
        assert_eq!(BackendId::from_u8(0), None);
        assert_eq!(BackendId::from_u8(4), None);
        assert_eq!(BackendId::from_name("rsa"), None);
    }

    #[test]
    fn registry_covers_every_backend_once() {
        let ids: Vec<BackendId> = all_backends().iter().map(|b| b.id()).collect();
        assert_eq!(ids, BackendId::ALL.to_vec());
    }
}
