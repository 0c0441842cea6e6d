//! The batch auditor settles one batch per owner key: every batch pairs
//! `1 + 2 * 1 = 3` points (`g2`, then the key's `eps` and `delta`), and
//! every fault the run injects is detected.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_obs::Registry;
use dsaudit_sim::{ChurnRates, FaultRates, SimConfig, Simulation};

fn faulty_config() -> SimConfig {
    SimConfig {
        seed: 0x005e_aded,
        epochs: 6,
        providers: 12,
        owners: 8,
        files_per_owner: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
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
fn every_batch_is_one_owner_key_and_detection_is_exact() {
    let registry = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&registry));
    let report = Simulation::new(faulty_config()).run();
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
    // no sample is below 3 (a batch has a key), so a sum of exactly
    // 3 per sample means every sample is 3
    assert!(pairs.sample_count() > 0);
    assert_eq!(
        pairs.sample_sum(),
        3 * pairs.sample_count(),
        "a batch paired more than one owner key's points"
    );
}
