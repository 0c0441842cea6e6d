//! The five workloads. Each is a closed loop with one client: every
//! operation waits for its verdict before the next one starts, as a
//! contract round does, so nothing queues and a faster layer saves at
//! most its own share of a round.

pub mod audit_steady;
pub mod backend_lanes;
pub mod node_faulty;
pub mod outsource_bulk;
pub mod sim_faulty;

use crate::harness::{Budget, Ctx, Outcome};

/// Runs the workload called `name`; `None` for an unknown name.
pub fn drive(name: &str, seed: u64, budget: Budget, ctx: &mut Ctx) -> Option<Outcome> {
    Some(match name {
        "audit_steady" => audit_steady::drive(seed, budget, ctx),
        "backend_lanes" => backend_lanes::drive(seed, budget, ctx),
        "outsource_bulk" => outsource_bulk::drive(seed, budget, ctx),
        "sim_faulty" => sim_faulty::drive(seed, budget, ctx),
        "node_faulty" => node_faulty::drive(seed, budget, ctx),
        _ => return None,
    })
}
