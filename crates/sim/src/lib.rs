//! # dsaudit-sim
//!
//! A deterministic, seedable discrete-event simulator that drives the
//! whole workspace under load: files are erasure-coded and placed on a
//! DHT of storage providers (`dsaudit-storage`), every share carries
//! its own authenticator vector (`dsaudit-core`'s per-share
//! outsourcing) and its own Fig. 2 audit contract (`dsaudit-contract`)
//! on one shared chain (`dsaudit-chain`); per-shard auditors, each
//! holding whole owner keys, settle each epoch's rounds with batched
//! pairing products, failed audits
//! trigger DHT-proximity repair and on-chain contract migration, and a
//! [`SimReport`] aggregates pass rates, repair traffic, durability, gas
//! per epoch and measured chain utilization.
//!
//! Reproducibility is a hard guarantee: one seed drives every random
//! decision, all state is iterated in deterministic order, and no clock
//! is read (verification gas is the chain's declared cost, not a
//! measured time) — two runs of the same [`SimConfig`], backend lanes
//! included, render byte-for-byte identical reports.
//!
//! ```
//! use dsaudit_sim::{ChurnRates, FaultRates, SimConfig, Simulation};
//!
//! let cfg = SimConfig {
//!     epochs: 2,
//!     providers: 8,
//!     owners: 1,
//!     erasure_k: 2,
//!     erasure_n: 4,
//!     churn: ChurnRates::none(),
//!     faults: FaultRates::none(),
//!     ..SimConfig::default()
//! };
//! let report = Simulation::new(cfg).run();
//! assert_eq!(report.passes, report.audits);
//! assert_eq!(report.files_intact, 1);
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod config;
pub mod engine;
pub mod fault;
pub mod report;

pub use churn::{ChurnModel, ChurnRates};
pub use config::SimConfig;
pub use engine::Simulation;
pub use fault::{FaultKind, FaultModel, FaultRates};
pub use report::{BackendLane, EpochStats, SimReport};
