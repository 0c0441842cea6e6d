//! The acceptance soak: ≥500 audit rounds across three fault
//! schedules, every round terminal, zero lost, zero double-settled,
//! and the whole report byte-for-byte reproducible.

use dsaudit_node::soak::{run_soak, SoakConfig};

#[test]
fn soak_terminates_every_challenge_and_reproduces_exactly() {
    let cfg = SoakConfig::default();
    assert!(cfg.sessions >= 500, "acceptance floor");

    let first = run_soak(&cfg);
    assert!(
        first.ok(),
        "lifecycle invariant violated:\n{}",
        first.violations().join("\n")
    );
    assert_eq!(first.total_sessions(), cfg.sessions as u64);

    // every schedule exercised its intended failure mode
    let by_name = |n: &str| {
        first
            .schedules
            .iter()
            .find(|s| s.name == n)
            .unwrap_or_else(|| panic!("schedule {n} missing"))
    };
    // sessions go round the providers in turn, so each holds a third
    let third = |s: &dsaudit_node::ScheduleReport| s.sessions / cfg.providers as u64;
    let baseline = by_name("baseline");
    assert_eq!(baseline.settled_accept, baseline.sessions, "baseline accepts every round");
    // a round needs one proof and one settle; faults add retransmissions
    assert!(
        baseline.transport.sent < 3 * baseline.sessions,
        "{} frames for {} sessions",
        baseline.transport.sent,
        baseline.sessions
    );
    let lossy = by_name("lossy");
    assert!(
        lossy.settled_reject > 0,
        "the corrupted-data provider must draw rejects through the lossy net"
    );
    assert!(lossy.retries > 0, "a 20% drop rate must force proof retries");
    assert!(lossy.corrupt_frames > 0, "corrupt frames must surface as typed errors");
    // the corrupted provider's third never accepts, and nobody else
    // is rejected
    assert!(lossy.settled_reject <= third(lossy), "rejects outside the corrupted third");
    assert!(
        lossy.settled_accept <= lossy.sessions - third(lossy),
        "the corrupted provider's third must not accept"
    );
    let partitioned = by_name("partitioned");
    assert_eq!(
        partitioned.expired,
        third(partitioned),
        "exactly the fully partitioned provider's rounds expire"
    );

    // a dropped/corrupted frame is a retry, never a verdict: rejects
    // happen only where data is actually bad (the lossy schedule's
    // corrupted provider)
    assert_eq!(baseline.settled_reject, 0, "transport faults must not reject");
    assert_eq!(partitioned.settled_reject, 0, "partition must expire, not reject");
    for s in &first.schedules {
        assert_eq!(s.overloaded, 0, "{}: nothing sheds", s.name);
        assert_eq!(s.proofs_resent, s.retries, "{}: a resent proof is a retry", s.name);
    }

    // byte-for-byte reproducibility of the full report
    let second = run_soak(&cfg);
    assert_eq!(first.to_json(), second.to_json(), "soak must be deterministic");
}

#[test]
fn soak_json_is_well_formed_enough_for_ci() {
    let cfg = SoakConfig {
        sessions: 30,
        ..SoakConfig::default()
    };
    let report = run_soak(&cfg);
    let json = report.to_json();
    assert!(json.contains("\"ok\": true"), "{json}");
    assert!(json.contains("\"schedules\""));
    assert_eq!(
        json.matches("\"name\"").count(),
        3,
        "one entry per schedule"
    );
    // crude balance check: same number of braces both ways
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
