//! `sim_faulty`: the whole stack under churn and all four fault classes
//! at toy crypto parameters.
//!
//! `Simulation::new(..).run()` with 32 providers and 8 owners: per-round
//! cost is `sim` bookkeeping, `contract` batched settlement, `chain`
//! block and event handling and `storage` repair, not algebra. It is
//! where a lifecycle or contract refactor would regress.

use std::time::Instant;

use dsaudit_sim::{SimConfig, SimReport, Simulation};

use crate::harness::{sub_seed, Budget, Ctx, Outcome};

/// Epochs per budgeted second (the issue: 120 in 20 s).
const EPOCHS_PER_SECOND: f64 = 6.0;

/// Runs the workload for `seed`.
pub fn drive(seed: u64, budget: Budget, ctx: &mut Ctx) -> Outcome {
    let epochs = budget.count_for(EPOCHS_PER_SECOND, 1) as u32;
    let mut out = Outcome::default();
    let mut reports: Vec<SimReport> = Vec::new();

    for rep in 0..budget.reps {
        let cfg = SimConfig {
            seed: sub_seed(seed, rep as u64),
            epochs,
            providers: 32,
            owners: 8,
            ..SimConfig::default()
        };
        // Key generation, outsourcing and contract deployment for every
        // owner happen in `new`; `run` is the epochs.
        let setup_start = Instant::now();
        let sim = ctx.tracer.timed("sim.new", || Simulation::new(cfg));
        out.setup_s.push(setup_start.elapsed().as_secs_f64());

        let clock = ctx.tracer.begin_round(true);
        let report = ctx.tracer.timed("sim.run", || sim.run());
        let ms = ctx.tracer.end_round(clock);

        ctx.checks
            .check("sim_no_false_accept", report.false_accepts == 0);
        ctx.checks
            .check("sim_no_false_reject", report.false_rejects == 0);
        ctx.checks.check(
            "sim_no_transport_false_reject",
            report.transport_false_rejects == 0,
        );
        ctx.checks.check("sim_no_file_lost", report.files_lost == 0);
        ctx.checks.check(
            "sim_ran_every_epoch",
            report.per_epoch.len() == epochs as usize && report.audits > 0,
        );
        // The simulation is the closed loop here; one sample per run is
        // its wall time per audit round it settled.
        out.round_ms.push(ms / report.audits.max(1) as f64);
        out.rounds += report.audits;
        out.measured_s += ms / 1e3;
        out.injected += report.injected_faults;
        out.detected += report.detected_faults;
        reports.push(report);
    }

    if ctx.tracer.is_on() {
        let t = &ctx.tracer;
        let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let audits = sum(|r| r.audits);
        let layer = &mut out.layer;
        layer.insert("sim.setup_ms", t.p50_ms("sim.new"));
        layer.insert(
            "sim.wall_ms_per_epoch",
            t.p50_ms("sim.run") / f64::from(epochs),
        );
        layer.insert("sim.audits", audits);
        layer.insert("sim.injected_faults", sum(|r| r.injected_faults));
        layer.insert("sim.detected_faults", sum(|r| r.detected_faults));
        layer.insert("sim.false_accepts", sum(|r| r.false_accepts));
        layer.insert("sim.false_rejects", sum(|r| r.false_rejects));
        layer.insert("sim.repairs", sum(|r| r.repairs));
        layer.insert("sim.migrations", sum(|r| r.migrations));
        layer.insert("sim.transport_retries", sum(|r| r.transport_retries));
        layer.insert("sim.files_lost", sum(|r| r.files_lost));
        layer.insert(
            "sim.mean_utilization",
            reports.iter().map(SimReport::mean_utilization).sum::<f64>() / reports.len() as f64,
        );
        layer.insert(
            "sim.gas_per_round",
            sum(|r| r.total_gas - r.setup_gas) / audits,
        );
        layer.insert("sim.chain_bytes_per_round", sum(|r| r.chain_bytes) / audits);
    }
    out
}
