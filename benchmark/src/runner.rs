//! One process run: the selected workload untraced for the end-to-end
//! metrics, or traced — with the other four workloads at smoke scale and
//! the fixed probes — for the per-layer metrics.

use std::collections::BTreeMap;

use crate::harness::{
    median, peak_rss_mb, percentile, sub_seed, Budget, Checks, Ctx, Outcome, Span,
};
use crate::names::{BUSY_LAYERS, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{probes, workloads};

/// Everything a finished run knows.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every metric of the run's list, in the list's order.
    pub metrics: Vec<(&'static str, f64)>,
    /// All ground-truth checks of the process.
    pub checks: Checks,
    /// Sample counts behind the values.
    pub samples: BTreeMap<&'static str, u64>,
    /// The spans of a traced run, per workload (probes under `probes`).
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

fn end_to_end(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let detected_share = outcome.detected as f64 / outcome.injected as f64;
    BTreeMap::from([
        ("round_ms_p50", median(&outcome.round_ms)),
        ("rounds_per_s", outcome.rounds as f64 / outcome.measured_s),
        ("detected_share", detected_share),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", median(&outcome.setup_s)),
    ])
}

fn sample_counts(outcome: &Outcome) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("round_ms", outcome.round_ms.len() as u64),
        ("rounds", outcome.rounds),
        ("setup_s", outcome.setup_s.len() as u64),
        ("injected_faults", outcome.injected),
    ])
}

/// Picks `names` out of `values`; a name without a finite value is a
/// failed check and reads as 0.
fn ordered(
    names: impl Iterator<Item = &'static str>,
    values: &BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    names
        .map(|name| {
            let value = values.get(name).copied().filter(|v| v.is_finite());
            checks.check("metric_was_measured", value.is_some());
            if value.is_none() {
                eprintln!("benchmark: metric `{name}` has no finite value");
            }
            (name, value.unwrap_or(0.0))
        })
        .collect()
}

/// The untraced run: the selected workload only, end-to-end metrics.
pub fn untraced(workload: &str, seed: u64, budget: Budget, checks: Checks) -> Option<RunOutput> {
    let mut ctx = Ctx::new(false, checks);
    let outcome = workloads::drive(workload, seed, budget, &mut ctx)?;
    let mut checks = ctx.checks;
    // without a fault injected, a detected share of 1 would say nothing
    checks.check("faults_were_injected", outcome.injected > 0);
    let metrics = ordered(
        END_TO_END.iter().map(|m| m.name),
        &end_to_end(&outcome),
        &mut checks,
    );
    Some(RunOutput {
        metrics,
        checks,
        samples: sample_counts(&outcome),
        spans: Vec::new(),
    })
}

/// The traced run. The selected workload runs at `budget`; the other
/// four run at smoke scale so that every layer metric has a sample in
/// every run; the probes run once. Compare a layer metric only between
/// runs of the same workload: its sample size depends on which one was
/// selected.
pub fn traced(workload: &str, seed: u64, budget: Budget, mut checks: Checks) -> Option<RunOutput> {
    WORKLOADS.iter().find(|w| w.name == workload)?;
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut samples = BTreeMap::new();

    for w in &WORKLOADS {
        let selected = w.name == workload;
        let mut ctx = Ctx::new(true, checks);
        let outcome = workloads::drive(
            w.name,
            seed,
            if selected { budget } else { Budget::smoke() },
            &mut ctx,
        )?;
        checks = ctx.checks;
        layer.extend(outcome.layer.iter().map(|(k, v)| (*k, *v)));
        if selected {
            let shares = ctx.tracer.busy_shares();
            for (layer_name, metric) in BUSY_LAYERS {
                layer.insert(metric, shares.get(layer_name).copied().unwrap_or(0.0));
            }
            layer.insert(
                "bench.unattributed_share",
                shares.get("bench").copied().unwrap_or(0.0),
            );
            layer.insert("bench.round_ms_p95", percentile(&outcome.round_ms, 0.95));
            samples = sample_counts(&outcome);
        }
        spans.push((w.name, ctx.tracer.spans));
    }

    let mut ctx = Ctx::new(true, checks);
    layer.extend(probes::drive(sub_seed(seed, 0xb0b), &mut ctx));
    checks = ctx.checks;
    spans.push(("probes", ctx.tracer.spans));

    layer.insert(
        "bench.failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    let metrics = ordered(PER_LAYER.iter().map(|m| m.name), &layer, &mut checks);
    Some(RunOutput {
        metrics,
        checks,
        samples,
        spans,
    })
}

/// The self-test: every workload and the probes at smoke scale with the
/// first check of every kind inverted. Returns the kinds seen and the
/// kinds that failed exactly once — the two sets must be equal.
pub fn selftest(seed: u64) -> (Vec<&'static str>, Vec<&'static str>) {
    let output = traced(WORKLOADS[0].name, seed, Budget::smoke(), Checks::flipping())
        .expect("the first workload exists");
    let seen: Vec<&'static str> = output.checks.seen_kinds.iter().copied().collect();
    let failed_once = output
        .checks
        .failed_kinds
        .iter()
        .filter(|(_, n)| **n == 1)
        .map(|(kind, _)| *kind)
        .collect();
    (seen, failed_once)
}
