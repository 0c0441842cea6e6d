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

/// §II's Sia-style Merkle audit baseline, as the merkle backend runs
/// it: one leaf per round, challenged from the chain's beacon.
#[cfg(test)]
mod audit {
    #[cfg(test)]
    mod tests {
        use std::collections::HashMap;

        use dsaudit_core::codec::Codec;
        use dsaudit_core::{Challenge, RejectReason, Verdict};
        use rand::SeedableRng;

        use crate::{AuditBackend, BackendId, BackendProof, MerkleBackend, MerkleBackendProof};

        fn rng() -> rand::rngs::StdRng {
            rand::rngs::StdRng::seed_from_u64(0x5a1a)
        }

        /// What a provider that dropped the file but kept its old proofs
        /// needs to answer `beacon`: the indices it challenges.
        fn challenged(beacon: &[u8; 48], leaf_count: usize) -> Vec<u64> {
            Challenge::from_beacon(beacon).indices(leaf_count, 1)
        }

        fn full_entropy(round: u64) -> [u8; 48] {
            let mut beacon = [0u8; 48];
            beacon[..32].copy_from_slice(&dsaudit_crypto::sha256::sha256(&round.to_le_bytes()));
            beacon
        }

        #[test]
        fn honest_audit_passes() {
            let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
            let b = MerkleBackend { leaf_size: 64, k: 1 };
            let setup = b.setup(&mut rng(), &data).unwrap();
            for round in 0..20u64 {
                let beacon = full_entropy(round);
                let proof = b.prove(&mut rng(), &setup.kit, &data, &beacon).unwrap();
                assert!(b.verify(&setup.commitment, &beacon, &proof).unwrap().accepted());
            }
        }

        /// A proof whose leaf bytes were changed after proving fails the
        /// root recomputation.
        #[test]
        fn tampered_leaf_fails() {
            let data: Vec<u8> = (0..2048).map(|i| i as u8).collect();
            let b = MerkleBackend { leaf_size: 32, k: 1 };
            let setup = b.setup(&mut rng(), &data).unwrap();
            let beacon = full_entropy(9);
            let proof = b.prove(&mut rng(), &setup.kit, &data, &beacon).unwrap();
            let mut p = MerkleBackendProof::decode(&proof.bytes).unwrap();
            p.entries[0].leaf[0] ^= 1;
            let tampered = BackendProof {
                backend: BackendId::Merkle,
                bytes: p.encode(),
            };
            assert_eq!(
                b.verify(&setup.commitment, &beacon, &tampered).unwrap(),
                Verdict::Reject(RejectReason::MerklePath)
            );
        }

        /// The §II weakness: while the challenge randomness recurs (16
        /// beacon values), a provider that recorded its proofs by
        /// challenged index, then dropped the file, answers every round
        /// from a record smaller than the file.
        #[test]
        fn caching_cheater_beats_low_entropy_challenges() {
            let data: Vec<u8> = (0..32 * 256).map(|i| (i * 7) as u8).collect();
            let b = MerkleBackend { leaf_size: 256, k: 1 }; // 32 leaves
            let setup = b.setup(&mut rng(), &data).unwrap();
            let beacon = |round: u64| [(round % 16) as u8; 48];

            // phase 1: the provider behaves, but records its proofs
            let mut recorded = HashMap::new();
            for round in 0..64u64 {
                let beacon = beacon(round);
                let proof = b.prove(&mut rng(), &setup.kit, &data, &beacon).unwrap();
                assert!(b.verify(&setup.commitment, &beacon, &proof).unwrap().accepted());
                recorded.insert(challenged(&beacon, 32), proof);
            }

            // phase 2: the file is gone; the record answers every round
            for round in 64..128u64 {
                let beacon = beacon(round);
                let proof = recorded.get(&challenged(&beacon, 32)).expect("record covers the domain");
                assert!(b.verify(&setup.commitment, &beacon, proof).unwrap().accepted());
            }
            let record_bytes: usize = recorded.values().map(|p| p.bytes.len()).sum();
            assert!(record_bytes < data.len(), "record {record_bytes} B vs file {} B", data.len());
        }

        /// A provider restating the committed root as a shallower tree
        /// is held to the committed depth: a path one level short or
        /// long never verifies, and the restated shape rejects the
        /// honest proof.
        #[test]
        fn depth_spoof_is_rejected() {
            let data: Vec<u8> = (0..64 * 8).map(|i| i as u8).collect();
            let b = MerkleBackend { leaf_size: 64, k: 1 }; // 8 leaves, depth 3
            let setup = b.setup(&mut rng(), &data).unwrap();
            assert_eq!(setup.commitment.bytes[32..36], 3u32.to_le_bytes());
            let beacon = full_entropy(3);
            let proof = b.prove(&mut rng(), &setup.kit, &data, &beacon).unwrap();
            assert!(b.verify(&setup.commitment, &beacon, &proof).unwrap().accepted());

            let reshaped = |edit: fn(&mut Vec<[u8; 32]>)| {
                let mut p = MerkleBackendProof::decode(&proof.bytes).unwrap();
                edit(&mut p.entries[0].siblings);
                BackendProof {
                    backend: BackendId::Merkle,
                    bytes: p.encode(),
                }
            };
            for spoofed in [
                reshaped(|s| {
                    s.pop();
                }),
                reshaped(|s| s.push([0u8; 32])),
            ] {
                assert_eq!(
                    b.verify(&setup.commitment, &beacon, &spoofed).unwrap(),
                    Verdict::Reject(RejectReason::MerklePath)
                );
            }

            // the genuine root restated as depth 2 over 4 leaves
            let mut restated = setup.commitment.clone();
            restated.bytes[32..36].copy_from_slice(&2u32.to_le_bytes());
            restated.bytes[36..44].copy_from_slice(&4u64.to_le_bytes());
            assert!(!b.verify(&restated, &beacon, &proof).unwrap().accepted());
        }

        /// Full-entropy beacons defeat the record: 32 rounds of proofs
        /// over 512 leaves answer few of the next 64 rounds.
        #[test]
        fn high_entropy_defeats_small_cache() {
            let data: Vec<u8> = (0..256 * 512).map(|i| (i * 3) as u8).collect();
            let b = MerkleBackend { leaf_size: 256, k: 1 }; // 512 leaves
            let setup = b.setup(&mut rng(), &data).unwrap();
            let mut recorded = HashMap::new();
            for round in 0..32u64 {
                let beacon = full_entropy(round);
                let proof = b.prove(&mut rng(), &setup.kit, &data, &beacon).unwrap();
                recorded.insert(challenged(&beacon, 512), proof);
            }
            let passes = (32..96u64)
                .filter(|&round| {
                    let beacon = full_entropy(round);
                    recorded.get(&challenged(&beacon, 512)).is_some_and(|proof| {
                        b.verify(&setup.commitment, &beacon, proof).unwrap().accepted()
                    })
                })
                .count();
            assert!(passes < 16, "{passes} of 64 full-entropy rounds hit the record");
        }
    }
}

/// Table II's SNARK strawman: the groth16 backend's circuit at one
/// challenged index, run through `snark::{setup, prove, verify}`.
#[cfg(test)]
mod strawman {
    #[cfg(test)]
    mod tests {
        use dsaudit_snark::groth16::{prove, setup, verify};
        use rand::SeedableRng;

        use crate::groth16::membership_circuit;
        use crate::BackendError;

        fn rng() -> rand::rngs::StdRng {
            rand::rngs::StdRng::seed_from_u64(0x57a77)
        }

        #[test]
        fn strawman_end_to_end_1kb() {
            let mut r = rng();
            let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
            let circuit = membership_circuit(&data, &[7]).unwrap();
            assert_eq!(circuit.leaf_count, 34); // ceil(1024 / 31)
            assert_eq!(circuit.publics, circuit.cs.public_inputs());
            assert!(!circuit.cs.constraints.is_empty());
            let pk = setup(&mut r, &circuit.cs).unwrap();
            let proof = prove(&mut r, &pk, &circuit.cs).unwrap();
            assert!(verify(&pk.vk, &circuit.publics, &proof));
            assert!(matches!(membership_circuit(&data, &[34]), Err(BackendError::Shape(_))));
        }

        /// A proof for one file's root fails under another file's
        /// publics.
        #[test]
        fn wrong_root_rejected() {
            let mut r = rng();
            let mine = membership_circuit(&[1u8; 256], &[0]).unwrap();
            let other = membership_circuit(&[2u8; 256], &[0]).unwrap();
            assert_ne!(mine.root, other.root);
            let pk = setup(&mut r, &mine.cs).unwrap();
            let proof = prove(&mut r, &pk, &mine.cs).unwrap();
            assert!(verify(&pk.vk, &mine.publics, &proof));
            assert!(!verify(&pk.vk, &other.publics, &proof));
        }
    }
}
