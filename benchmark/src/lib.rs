//! The repo benchmark: five workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run, every output
//! checked against ground truth. See `README.md` beside this package.

#![forbid(unsafe_code)]

pub mod harness;
pub mod json;
pub mod names;
pub mod probes;
pub mod report;
pub mod runner;
pub mod workloads;
