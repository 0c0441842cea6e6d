//! Auditor shards follow owner keys: shard `o % shards` settles every
//! share of owner `o`, so a batch pairs at most `1 + 2 * ceil(owners /
//! shards)` points, and the shard count changes how the round is
//! computed but not what the report says.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_obs::{Histogram, Registry};
use dsaudit_sim::{ChurnRates, FaultRates, SimConfig, Simulation};

fn faulty_config(shards: usize) -> SimConfig {
    SimConfig {
        seed: 0x005e_aded,
        epochs: 6,
        providers: 12,
        owners: 8,
        files_per_owner: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
        shards,
        churn: ChurnRates {
            join_rate: 0.3,
            leave_prob: 0.01,
            crash_prob: 0.01,
        },
        faults: FaultRates {
            corrupt: 0.08,
            drop: 0.02,
            withhold: 0.02,
            transport: 0.02,
        },
        ..SimConfig::default()
    }
}

#[test]
fn batches_span_their_shards_keys_and_the_report_ignores_the_shard_count() {
    let mut reports = Vec::new();
    for shards in [1, 2, 3, 4, 8] {
        let cfg = faulty_config(shards);
        let bound = 1 + 2 * cfg.owners.div_ceil(shards) as u64;
        let registry = Arc::new(Registry::new_virtual());
        dsaudit_obs::install(Arc::clone(&registry));
        let report = Simulation::new(cfg).run();
        dsaudit_obs::uninstall();

        assert!(report.injected_faults > 0, "the fault models must fire");
        assert_eq!(report.detected_faults, report.injected_faults);
        assert_eq!((report.false_accepts, report.false_rejects), (0, 0));

        let snap = registry.snapshot();
        let (_, pairs) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "core.batch_pairs")
            .expect("every epoch settles at least one batch");
        // the histogram keeps power-of-two buckets and the sum: bound the
        // largest sample by its bucket and the mean exactly
        let top = pairs.bucket_counts().iter().rposition(|&n| n > 0).unwrap();
        assert!(
            Histogram::upper_bound(top) <= bound.next_power_of_two(),
            "{shards} shards: a batch paired up to {} points, bound {bound}",
            Histogram::upper_bound(top),
        );
        assert!(
            pairs.sample_sum() <= pairs.sample_count() * bound,
            "{shards} shards"
        );
        reports.push((shards, report.to_json(), report.to_text()));
    }
    let (_, json, text) = &reports[0];
    for (shards, other_json, other_text) in &reports[1..] {
        assert_eq!(
            other_json, json,
            "{shards} shards: JSON differs from 1 shard"
        );
        assert_eq!(
            other_text, text,
            "{shards} shards: text differs from 1 shard"
        );
    }
}
