//! `dsaudit-node`: provider and auditor audit daemons over a
//! fault-injected transport, driving a deadline-bound round lifecycle.
//!
//! The paper's protocol says *what* a proof-of-storage interaction
//! computes; this crate pins down *how it survives a real network*.
//! Daemons exchange length-prefixed [`Codec`](dsaudit_core::Codec)
//! frames ([`frame`]) over a pluggable [`transport::Transport`];
//! the deterministic in-process implementation injects seeded drops,
//! delays, duplicates, reorders, partitions and byte corruption.
//! On top sits the round lifecycle ([`lifecycle`]): each round's
//! challenge comes from the chain's randomness beacon, which both
//! daemons read, so no challenge crosses the network. The auditor and
//! the provider open the round from the same beacon output with the
//! same idempotent id; the provider proves once and retransmits its
//! proof with bounded exponential backoff and deterministic jitter
//! until the auditor's `Settle` notice arrives, and a deadline expires
//! silence into the contract's penalty path. The lifecycle is
//! Open → Settled | Expired. The invariant the whole crate exists to
//! uphold: **every opened round terminates in exactly one of
//! `Settled(Accept)`, `Settled(Reject)` or `Expired` — none lost, none
//! settled twice** — which [`soak`] checks over hundreds of sessions
//! and three fault schedules, reproducibly.
//!
//! Everything runs on a virtual millisecond clock; there is no wall
//! clock, no threads and no async runtime, so any run is a pure
//! function of its seeds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod auditor;
pub mod frame;
pub mod harness;
pub mod lifecycle;
pub mod provider;
pub mod soak;
pub mod transport;

pub use auditor::{AuditorConfig, AuditorNode, AuditorStats};
pub use frame::{derive_challenge_id, ChallengeId, Frame};
pub use harness::Cluster;
pub use lifecycle::{ChallengeTrack, Outcome, RetryPolicy};
pub use provider::{ProviderConfig, ProviderNode, ProviderStats};
pub use soak::{run_soak, ScheduleReport, SoakConfig, SoakReport};
pub use transport::{
    InProcTransport, Millis, NetFaultConfig, PartitionWindow, PeerId, Transport, TransportStats,
};
