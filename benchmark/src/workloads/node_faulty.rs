//! `node_faulty`: the daemons over the seeded-fault transport.
//!
//! Calls of `run_soak` (504 sessions across the baseline, lossy and
//! partitioned schedules, three providers). It is the only workload in
//! which `node` frames, retries, TTL expiry and backpressure do work.

use std::time::Instant;

use dsaudit_node::{run_soak, SoakConfig, SoakReport};

use crate::harness::{sub_seed, Budget, Ctx, Outcome};

/// Sessions per `run_soak` call.
const SESSIONS: u32 = 504;
/// Providers per cluster.
const PROVIDERS: u32 = 3;
/// Sessions of the untimed warm-up call.
const WARM_UP_SESSIONS: u32 = 36;
/// `run_soak` calls per budgeted second (the issue: 12 in 20 s).
const CALLS_PER_SECOND: f64 = 0.6;

/// Runs the workload for `seed`.
pub fn drive(seed: u64, budget: Budget, ctx: &mut Ctx) -> Outcome {
    let calls = budget.count_for(CALLS_PER_SECOND, 1);
    let mut out = Outcome::default();
    let mut reports: Vec<SoakReport> = Vec::new();

    for rep in 0..budget.reps {
        let rep_seed = sub_seed(seed, rep as u64);
        // `run_soak` builds its own cluster, keys and holdings; what a
        // caller can set up ahead of time is the process itself, so the
        // set-up sample is one small untimed soak.
        let setup_start = Instant::now();
        let warm = ctx.tracer.timed("node.warm_up_soak", || {
            run_soak(&SoakConfig {
                seed: rep_seed,
                sessions: WARM_UP_SESSIONS,
                ..SoakConfig::default()
            })
        });
        ctx.checks.check("soak_invariants_hold", warm.ok());
        out.setup_s.push(setup_start.elapsed().as_secs_f64());

        for call in 0..calls {
            let cfg = SoakConfig {
                seed: sub_seed(rep_seed, 1 + call as u64),
                sessions: SESSIONS,
                providers: PROVIDERS,
                ..SoakConfig::default()
            };
            let clock = ctx.tracer.begin_round(true);
            let report = ctx.tracer.timed("node.run_soak", || run_soak(&cfg));
            let ms = ctx.tracer.end_round(clock);

            ctx.checks
                .check("soak_invariants_hold", report.violations().is_empty());
            ctx.checks.check(
                "soak_ran_every_session",
                report.total_sessions() == u64::from(SESSIONS),
            );
            for schedule in &report.schedules {
                let terminal = schedule.settled_accept + schedule.settled_reject + schedule.expired;
                ctx.checks
                    .check("soak_sessions_all_terminal", terminal == schedule.sessions);
                // Sessions go round the providers in turn, so each holds
                // a third. In `lossy` the second one holds corrupted
                // data, in `partitioned` the last one is cut off for the
                // whole run: none of that third may settle Accept (it
                // is Rejected, or Expires under loss), and nobody else
                // may settle Reject.
                let third = schedule.sessions / u64::from(PROVIDERS);
                let faulty = if schedule.name == "baseline" {
                    0
                } else {
                    third
                };
                let may_reject = if schedule.name == "lossy" { third } else { 0 };
                let wrongly_accepted = schedule
                    .settled_accept
                    .saturating_sub(schedule.sessions - faulty);
                ctx.checks
                    .check("soak_no_accept_of_faulty_provider", wrongly_accepted == 0);
                ctx.checks.check(
                    "soak_no_reject_of_honest_provider",
                    schedule.settled_reject <= may_reject,
                );
                out.injected += faulty;
                out.detected += faulty - wrongly_accepted.min(faulty);
            }
            out.round_ms.push(ms / f64::from(SESSIONS));
            out.rounds += report.total_sessions();
            out.measured_s += ms / 1e3;
            reports.push(report);
        }
    }

    if ctx.tracer.is_on() {
        let sum = |f: fn(&dsaudit_node::soak::ScheduleReport) -> u64| {
            reports
                .iter()
                .flat_map(|r| &r.schedules)
                .map(f)
                .sum::<u64>() as f64
        };
        let sessions = sum(|s| s.sessions);
        let layer = &mut out.layer;
        layer.insert("node.wall_us_per_session", out.measured_s * 1e6 / sessions);
        layer.insert(
            "node.virtual_ms_per_session",
            sum(|s| s.virtual_ms) / sessions,
        );
        layer.insert("node.retries_per_session", sum(|s| s.retries) / sessions);
        layer.insert(
            "node.overloaded_per_session",
            sum(|s| s.overloaded) / sessions,
        );
        layer.insert("node.expired_share", sum(|s| s.expired) / sessions);
        layer.insert("node.reject_share", sum(|s| s.settled_reject) / sessions);
        layer.insert("node.corrupt_frames", sum(|s| s.corrupt_frames));
        layer.insert("node.frames_dropped", sum(|s| s.transport.dropped));
        layer.insert("node.proofs_resent", sum(|s| s.proofs_resent));
    }
    out
}
