//! End-to-end network-lifecycle suite: the acceptance-scale
//! reproducibility run plus targeted churn/fault scenarios.

use dsaudit_backend::BackendId;
use dsaudit_sim::{ChurnRates, FaultRates, SimConfig, Simulation};

/// The acceptance-scale configuration: 32 providers, 8 owners, 50
/// epochs, nonzero churn and all four fault classes.
fn acceptance_config() -> SimConfig {
    SimConfig {
        seed: 0xac5e97a9ce,
        epochs: 50,
        providers: 32,
        owners: 8,
        files_per_owner: 1,
        file_bytes: 480,
        erasure_k: 3,
        erasure_n: 6,
        shards: 8,
        churn: ChurnRates {
            join_rate: 0.3,
            leave_prob: 0.004,
            crash_prob: 0.004,
        },
        faults: FaultRates {
            corrupt: 0.01,
            drop: 0.005,
            withhold: 0.005,
            transport: 0.01,
        },
        ..SimConfig::default()
    }
}

fn small_config() -> SimConfig {
    SimConfig {
        epochs: 5,
        providers: 12,
        owners: 2,
        file_bytes: 300,
        erasure_k: 2,
        erasure_n: 4,
        shards: 2,
        churn: ChurnRates::none(),
        faults: FaultRates::none(),
        ..SimConfig::default()
    }
}

#[test]
fn acceptance_run_is_reproducible_and_sound() {
    let first = Simulation::new(acceptance_config()).run();
    let second = Simulation::new(acceptance_config()).run();

    // byte-for-byte reproducibility across two full runs
    assert_eq!(first.to_json(), second.to_json(), "runs must be identical");
    assert_eq!(first.to_text(), second.to_text());

    // scale floor: every share contract settles every epoch
    assert_eq!(first.audits, 50 * 8 * 6, "48 share contracts x 50 epochs");

    // soundness and completeness: zero false accepts, zero false
    // rejects, every injected corrupt/drop/withheld share detected by a
    // contract-settled audit in its epoch
    assert_eq!(first.false_accepts, 0, "a faulty share passed an audit");
    assert_eq!(first.false_rejects, 0, "a healthy share failed an audit");
    assert!(first.injected_faults > 0, "the fault models must fire");
    assert_eq!(first.detected_faults, first.injected_faults);

    // transport faults are accounted apart from provider faults: every
    // lost frame was retransmitted, and none of them reached a verdict
    assert!(first.transport_faults > 0, "the transport fault model must fire");
    assert_eq!(first.transport_retries, first.transport_faults);
    assert_eq!(
        first.transport_false_rejects, 0,
        "a dropped frame is a retry, not a verdict"
    );

    // churn actually exercised
    assert!(first.joins > 0, "providers must join");
    assert!(first.leaves + first.crashes > 0, "providers must depart");
    assert!(first.migrations > 0, "contracts must follow migrating shares");

    // repair: every failure is repaired, no file ever drops below k
    // healthy shares, and every file decodes intact at the end
    assert!(first.repairs > 0);
    assert!(first.repair_traffic_bytes > 0);
    assert_eq!(first.files_lost, 0, "no file may be lost at these rates");
    assert_eq!(first.files_intact, 8, "every file must decode intact");
    let k = first.erasure.0;
    for e in &first.per_epoch {
        assert!(
            e.min_live_shares >= k,
            "epoch {}: durability margin fell below k ({} < {k})",
            e.epoch,
            e.min_live_shares,
        );
    }

    // chain accounting is measured and nonzero
    assert!(first.setup_gas > 0);
    assert!(first.total_gas > first.setup_gas);
    assert!(first.per_epoch.iter().all(|e| e.gas > 0 && e.chain_bytes > 0));
    assert!(first.mean_utilization() > 0.0);
    assert!(first.max_utilization() >= first.mean_utilization());
}

/// The report is a function of its seed with every backend running as a
/// shadow lane too (the config behind `repro json`'s per-backend gas):
/// no lane field is a clock reading, so text and JSON are byte-identical.
#[test]
fn backend_lane_runs_are_byte_identical() {
    let cfg = || SimConfig {
        seed: 0xbac_4e40,
        epochs: 4,
        providers: 6,
        owners: 1,
        files_per_owner: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
        shards: 1,
        churn: ChurnRates::none(),
        faults: FaultRates::none(),
        backends: BackendId::ALL.to_vec(),
        ..SimConfig::default()
    };
    let first = Simulation::new(cfg()).run();
    let second = Simulation::new(cfg()).run();
    assert_eq!(first.backend_lanes.len(), BackendId::ALL.len());
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(first.to_text(), second.to_text());
}

#[test]
fn withheld_proofs_time_out_and_shares_are_replaced() {
    let cfg = SimConfig {
        faults: FaultRates {
            corrupt: 0.0,
            drop: 0.0,
            withhold: 0.15,
            transport: 0.0,
        },
        ..small_config()
    };
    let report = Simulation::new(cfg).run();
    assert!(report.injected_faults > 0);
    assert_eq!(report.detected_faults, report.injected_faults);
    assert_eq!(report.failures, report.injected_faults, "every withhold is a timeout fail");
    assert_eq!(report.false_accepts, 0);
    assert_eq!(report.false_rejects, 0);
    assert!(report.repairs >= report.injected_faults, "withheld shares move providers");
    assert_eq!(report.files_lost, 0);
    assert_eq!(report.files_intact, 2);
}

#[test]
fn simultaneous_withholds_do_not_lose_the_file() {
    // With half the shares withheld per epoch, whole rounds can leave
    // fewer than k *trusted* shares even though every blob is intact.
    // That shortfall is transient (withholders answer again next epoch)
    // and must never be declared permanent data loss.
    let cfg = SimConfig {
        epochs: 6,
        faults: FaultRates {
            corrupt: 0.0,
            drop: 0.0,
            withhold: 0.5,
            transport: 0.0,
        },
        ..small_config()
    };
    let report = Simulation::new(cfg).run();
    assert!(report.injected_faults > 4, "withholds must fire en masse");
    assert_eq!(report.false_accepts, 0);
    assert_eq!(report.false_rejects, 0);
    assert_eq!(report.files_lost, 0, "intact blobs must never count as data loss");
    assert_eq!(report.files_intact, 2, "every file decodes after the storm");
}

#[test]
fn dropped_shares_fail_by_timeout_and_get_rebuilt() {
    let cfg = SimConfig {
        faults: FaultRates {
            corrupt: 0.0,
            drop: 0.12,
            withhold: 0.0,
            transport: 0.0,
        },
        ..small_config()
    };
    let report = Simulation::new(cfg).run();
    assert!(report.injected_faults > 0);
    assert_eq!(report.detected_faults, report.injected_faults);
    assert_eq!(report.false_accepts, 0);
    assert_eq!(report.false_rejects, 0);
    assert!(report.repairs >= report.injected_faults);
    assert_eq!(report.files_intact, 2);
}

#[test]
fn transport_loss_is_retried_and_never_becomes_a_verdict() {
    // a third of all proof frames lost in flight: every round must
    // still pass — the node layer retransmits within the deadline, and
    // the verdict stream never sees the loss
    let cfg = SimConfig {
        faults: FaultRates {
            corrupt: 0.0,
            drop: 0.0,
            withhold: 0.0,
            transport: 0.3,
        },
        ..small_config()
    };
    let report = Simulation::new(cfg).run();
    assert!(report.transport_faults > 0, "transport faults must fire at 30%/share");
    assert_eq!(report.transport_retries, report.transport_faults);
    assert_eq!(report.transport_false_rejects, 0, "a dropped frame is a retry, not a verdict");
    assert_eq!(report.injected_faults, 0, "no provider fault was injected");
    assert_eq!(report.failures, 0, "no round may fail from transport loss alone");
    assert_eq!(report.passes, report.audits);
    assert_eq!(report.false_rejects, 0);
    assert_eq!(report.repairs, 0, "healthy shares must not be re-placed");
    assert_eq!(report.files_intact, 2);
}

#[test]
fn graceful_leaves_hand_off_without_failing_a_round() {
    let cfg = SimConfig {
        epochs: 6,
        providers: 14,
        churn: ChurnRates {
            join_rate: 0.5,
            leave_prob: 0.05,
            crash_prob: 0.0,
        },
        ..small_config()
    };
    let report = Simulation::new(cfg).run();
    assert!(report.leaves > 0, "leaves must fire at 5%/provider/epoch");
    assert!(report.migrations > 0, "hand-offs migrate the contracts");
    assert_eq!(report.failures, 0, "graceful hand-off must not fail a round");
    assert_eq!(report.false_rejects, 0);
    assert_eq!(report.passes, report.audits);
    assert_eq!(report.files_intact, 2);
}

#[test]
fn crashes_are_detected_as_timeouts_and_repaired() {
    let cfg = SimConfig {
        epochs: 6,
        providers: 14,
        churn: ChurnRates {
            join_rate: 1.0,
            leave_prob: 0.0,
            crash_prob: 0.04,
        },
        ..small_config()
    };
    let report = Simulation::new(cfg).run();
    assert!(report.crashes > 0, "crashes must fire");
    assert!(report.failures > 0, "crashed holders time out");
    assert_eq!(report.false_accepts, 0);
    assert_eq!(report.false_rejects, 0);
    assert!(report.repairs > 0, "lost shares are rebuilt from survivors");
    assert_eq!(report.files_lost, 0);
    assert_eq!(report.files_intact, 2);
}

#[test]
fn different_seeds_diverge_but_each_reproduces() {
    let mut a = small_config();
    a.faults = FaultRates::default();
    a.churn = ChurnRates::default();
    let mut b = a.clone();
    b.seed ^= 0xdead_beef;
    let ra1 = Simulation::new(a.clone()).run();
    let ra2 = Simulation::new(a).run();
    let rb = Simulation::new(b).run();
    assert_eq!(ra1.to_json(), ra2.to_json());
    assert_ne!(ra1.to_json(), rb.to_json(), "seed must steer the run");
}
