//! The exact-metric snapshot, `BENCH_repro.json`.
//!
//! `repro json` writes it at the workspace root and `repro check` holds
//! it at equality: every metric here is exact (proof sizes, gas read off
//! the chain, chain bytes of a fixed-seed run, lint coverage), so the
//! gate renders the metrics again and compares the whole file line by
//! line. Timings live in `benchmark/`, which reports them with their
//! spread and compares them parent against change. Hand-rolled
//! serialization: the build environment has no registry access, so no
//! serde.

use std::io::Write as _;

use dsaudit_core::params::AuditParams;
use dsaudit_core::proof::{PLAIN_PROOF_BYTES, PRIVATE_PROOF_BYTES};

use crate::rng;

/// One exact metric: a name and a value with a unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Snake-case metric name.
    pub name: &'static str,
    /// Unit label (e.g. `"gas"`, `"bytes"`).
    pub unit: &'static str,
    /// The value, printed at four decimals.
    pub value: f64,
}

/// The fixed-seed snapshot simulation: honest providers on a lossy
/// network, churnless, sized so a release build settles it in well
/// under a second.
fn bench_sim_config() -> dsaudit_sim::SimConfig {
    dsaudit_sim::SimConfig {
        seed: 0xbe_c4a5,
        epochs: 8,
        providers: 10,
        owners: 2,
        file_bytes: 300,
        erasure_k: 2,
        erasure_n: 4,
        churn: dsaudit_sim::ChurnRates::none(),
        // honest providers on a lossy network: a tenth of all proof
        // frames are lost in flight and recovered by retries
        faults: dsaudit_sim::FaultRates {
            corrupt: 0.0,
            drop: 0.0,
            withhold: 0.0,
            transport: 0.1,
        },
        ..dsaudit_sim::SimConfig::default()
    }
}

/// The fixed-seed faulty simulation, `crates/sim/tests/owner_batches.rs`'s
/// `faulty_config()`: churn and all four fault classes over eight owners,
/// one batch per owner key, so its verdicts run both scalar splits (G1
/// MSMs and `Gt::multi_pow`) on every batch, and bisection on a rejected
/// one.
fn bench_faulty_sim_config() -> dsaudit_sim::SimConfig {
    dsaudit_sim::SimConfig {
        seed: 0x005e_aded,
        epochs: 6,
        providers: 12,
        owners: 8,
        files_per_owner: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
        churn: dsaudit_sim::ChurnRates {
            join_rate: 0.3,
            leave_prob: 0.01,
            crash_prob: 0.01,
        },
        faults: dsaudit_sim::FaultRates {
            corrupt: 0.08,
            drop: 0.02,
            withhold: 0.02,
            transport: 0.02,
        },
        ..dsaudit_sim::SimConfig::default()
    }
}

/// The `sim` metric group: gas per settled round and chain bytes per
/// round of the honest run (the whole chain, setup included, as
/// `benchmark/`'s `sim.chain_bytes_per_round`), then the faulty run's
/// audits, injected and detected faults and repairs. A lost frame that
/// reached a verdict, a false accept or a false reject is a protocol bug
/// and fails the collection.
fn collect_sim_metrics() -> Vec<Metric> {
    let report = dsaudit_sim::Simulation::new(bench_sim_config()).run();
    assert_eq!(report.passes, report.audits, "benchmark network is honest");
    assert!(report.transport_faults > 0, "the lossy-link model must fire");
    assert_eq!(
        report.transport_false_rejects, 0,
        "a dropped frame is a retry, not a verdict"
    );
    let faulty = dsaudit_sim::Simulation::new(bench_faulty_sim_config()).run();
    assert_eq!(
        (faulty.false_accepts, faulty.false_rejects, faulty.transport_false_rejects),
        (0, 0, 0),
        "every verdict of the faulty run matches the injected faults"
    );
    vec![
        Metric {
            name: "sim_gas_per_round",
            unit: "gas",
            value: (report.total_gas - report.setup_gas) as f64 / report.audits as f64,
        },
        Metric {
            name: "sim_chain_bytes_per_round",
            unit: "bytes",
            value: report.chain_bytes as f64 / report.audits as f64,
        },
        Metric {
            name: "sim_faulty_audits",
            unit: "audits",
            value: faulty.audits as f64,
        },
        Metric {
            name: "sim_faulty_injected_faults",
            unit: "faults",
            value: faulty.injected_faults as f64,
        },
        Metric {
            name: "sim_faulty_detected_faults",
            unit: "faults",
            value: faulty.detected_faults as f64,
        },
        Metric {
            name: "sim_faulty_repairs",
            unit: "repairs",
            value: faulty.repairs as f64,
        },
    ]
}

/// The `node` metric names per fault schedule of the default soak:
/// settled accepts, settled rejects, expiries, proof retries and late
/// proofs.
const NODE_SCHEDULE_METRICS: [(&str, [&str; 5]); 3] = [
    (
        "baseline",
        [
            "node_baseline_settled_accept",
            "node_baseline_settled_reject",
            "node_baseline_expired",
            "node_baseline_retries",
            "node_baseline_late_proofs",
        ],
    ),
    (
        "lossy",
        [
            "node_lossy_settled_accept",
            "node_lossy_settled_reject",
            "node_lossy_expired",
            "node_lossy_retries",
            "node_lossy_late_proofs",
        ],
    ),
    (
        "partitioned",
        [
            "node_partitioned_settled_accept",
            "node_partitioned_settled_reject",
            "node_partitioned_expired",
            "node_partitioned_retries",
            "node_partitioned_late_proofs",
        ],
    ),
];

/// The `node` metric group: the default 504-session node soak's
/// verdicts, proof retries and late proofs per fault schedule, then the
/// virtual ms of all three schedules. A round that escapes the
/// Settled/Expired terminal set fails the collection.
fn collect_node_metrics() -> Vec<Metric> {
    let report = dsaudit_node::run_soak(&dsaudit_node::SoakConfig::default());
    assert!(report.ok(), "node soak violations: {:?}", report.violations());
    let mut out = Vec::new();
    for (schedule, names) in NODE_SCHEDULE_METRICS {
        let s = report
            .schedules
            .iter()
            .find(|s| s.name == schedule)
            .expect("the soak runs every named schedule");
        let values = [
            (s.settled_accept, "rounds"),
            (s.settled_reject, "rounds"),
            (s.expired, "rounds"),
            (s.retries, "proofs"),
            (s.late_proofs, "proofs"),
        ];
        for (name, (value, unit)) in names.into_iter().zip(values) {
            out.push(Metric {
                name,
                unit,
                value: value as f64,
            });
        }
    }
    out.push(Metric {
        name: "node_virtual_ms",
        unit: "ms",
        value: report.schedules.iter().map(|s| s.virtual_ms).sum::<u64>() as f64,
    });
    out
}

/// The fixed-seed shadow-lane simulation behind the per-backend gas
/// figures: a tiny honest network where every share also runs all
/// three audit backends as shadow lanes through the same challenge
/// schedule. Gas is deterministic (the declared per-proof verify cost
/// plus measured transaction bytes), so one run yields stable
/// per-round figures.
pub fn bench_backend_sim_config() -> dsaudit_sim::SimConfig {
    dsaudit_sim::SimConfig {
        seed: 0xbac_4e40,
        epochs: 4,
        providers: 6,
        owners: 1,
        files_per_owner: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
        churn: dsaudit_sim::ChurnRates::none(),
        faults: dsaudit_sim::FaultRates::none(),
        backends: dsaudit_backend::BackendId::ALL.to_vec(),
        ..dsaudit_sim::SimConfig::default()
    }
}

/// The `backend` metric group: the merkle and groth16 proof sizes over
/// one 1 KiB blob (each proof must verify), plus per-round on-chain gas
/// for each shadow lane of the fixed-seed backend simulation.
fn collect_backend_metrics() -> Vec<Metric> {
    use dsaudit_backend::{AuditBackend, Groth16MerkleBackend, MerkleBackend};
    use dsaudit_core::codec::Codec as _;
    let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
    let beacon = [0x42u8; 48];
    let mut r = rng();
    let mut proof_bytes = |backend: &dyn AuditBackend| -> f64 {
        let setup = backend.setup(&mut r, &data).expect("setup");
        let proof = backend
            .prove(&mut r, &setup.kit, &data, &beacon)
            .expect("honest prove");
        assert!(backend
            .verify(&setup.commitment, &beacon, &proof)
            .expect("well-formed proof")
            .accepted());
        proof.encoded_len() as f64
    };
    let merkle_bytes = proof_bytes(&MerkleBackend { leaf_size: 32, k: 3 });
    let groth16_bytes = proof_bytes(&Groth16MerkleBackend { batch: 2 });

    let report = dsaudit_sim::Simulation::new(bench_backend_sim_config()).run();
    let lane_gas = |name: &str| -> f64 {
        let lane = report
            .backend_lanes
            .iter()
            .find(|l| l.backend == name)
            .expect("every listed backend reports a lane");
        assert_eq!(
            lane.false_accepts + lane.false_rejects,
            0,
            "honest benchmark lanes must agree with ground truth"
        );
        lane.gas_per_round() as f64
    };

    vec![
        Metric {
            name: "backend_merkle_proof_bytes",
            unit: "bytes",
            value: merkle_bytes,
        },
        Metric {
            name: "backend_groth16_proof_bytes",
            unit: "bytes",
            value: groth16_bytes,
        },
        Metric {
            name: "backend_gas_per_round_pairing",
            unit: "gas",
            value: lane_gas("pairing"),
        },
        Metric {
            name: "backend_gas_per_round_merkle",
            unit: "gas",
            value: lane_gas("merkle"),
        },
        Metric {
            name: "backend_gas_per_round_groth16",
            unit: "gas",
            value: lane_gas("groth16"),
        },
    ]
}

/// Static-analysis coverage of the workspace: how many files the
/// `dsaudit-lint` pass scans and how many rules it enforces. The CI
/// gate requires zero unsuppressed findings, so the snapshot records
/// *coverage* (which only grows with the codebase), not problem counts.
fn collect_lint_metrics() -> Vec<Metric> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match dsaudit_lint::analyze_workspace(&root) {
        Ok(report) => vec![
            Metric {
                name: "lint_files_scanned",
                unit: "files",
                value: report.files_scanned as f64,
            },
            Metric {
                name: "lint_rules",
                unit: "rules",
                value: report.rules_enforced() as f64,
            },
            Metric {
                name: "lint_callgraph_fns",
                unit: "fns",
                value: report.callgraph_fns as f64,
            },
            Metric {
                name: "lint_panic_audits",
                unit: "audits",
                value: report.count_suppressed("panic-reachability") as f64,
            },
            Metric {
                name: "lint_taint_audits",
                unit: "audits",
                value: report.count_suppressed("secret-taint") as f64,
            },
        ],
        // a bench binary copied outside the workspace has nothing to scan
        Err(_) => Vec::new(),
    }
}

/// The role-API proof sizes (constants of the wire format).
fn proof_size_metrics() -> Vec<Metric> {
    vec![
        Metric {
            name: "plain_proof_bytes",
            unit: "bytes",
            value: PLAIN_PROOF_BYTES as f64,
        },
        Metric {
            name: "private_proof_bytes",
            unit: "bytes",
            value: PRIVATE_PROOF_BYTES as f64,
        },
    ]
}

/// `audit_gas_private`: the gas of one classic on-chain round, read off
/// the chain — the `prove` transaction plus the declared verification
/// cost, the paper's ~589k per audit, exact at any file size or params.
fn audit_gas_metric() -> Metric {
    use dsaudit_chain::{beacon::TrustedBeacon, chain::Blockchain};
    use dsaudit_contract::{run_round, setup_session, AgreementTerms};
    let mut r = rng();
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"classic")));
    let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
    let params = AuditParams::new(4, 3).expect("valid");
    let terms = AgreementTerms::default();
    let session = setup_session(&mut r, &mut chain, "classic", &data, params, None, terms);
    let first_block = chain.block_count();
    assert!(run_round(&mut r, &mut chain, &session, true), "an honest round passes");
    Metric {
        name: "audit_gas_private",
        unit: "gas",
        value: chain.gas_used_since(first_block) as f64,
    }
}

/// Collects every snapshot metric, in the order the file lists them.
pub fn collect_metrics() -> Vec<Metric> {
    let mut out = proof_size_metrics();
    out.push(audit_gas_metric());
    out.extend(collect_sim_metrics());
    out.extend(collect_node_metrics());
    out.extend(collect_backend_metrics());
    out.extend(collect_lint_metrics());
    out
}

/// Serializes metrics as a stable, pretty-printed JSON object.
pub fn to_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{\n  \"schema\": \"dsaudit-bench-v1\",\n  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"{}\": {{ \"value\": {:.4}, \"unit\": \"{}\" }}{}\n",
            m.name, m.value, m.unit, comma
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Measures and writes the snapshot to `path`, returning the metrics.
///
/// # Errors
/// Propagates I/O failures from creating or writing the file.
pub fn emit(path: &str) -> std::io::Result<Vec<Metric>> {
    let metrics = collect_metrics();
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(&metrics).as_bytes())?;
    Ok(metrics)
}

/// What a snapshot line is matched by: the quoted key it starts with
/// (a metric name, `schema`, `metrics`), or else the whole line.
fn line_key(line: &str) -> &str {
    line.trim_start()
        .strip_prefix('"')
        .and_then(|rest| rest.split_once('"'))
        .map_or(line, |(key, _)| key)
}

/// The gate's comparison: `committed` snapshot text against the
/// rendering of `fresh`, one report line per line that differs. A line
/// is matched by its key, so a changed value gives one line naming its
/// metric, and a line on only one side says which side holds it. Empty
/// means the files are byte-identical.
pub fn diff_snapshot(committed: &str, fresh: &[Metric]) -> Vec<String> {
    fn find<'a>(side: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
        side.iter().find(|(k, _)| *k == key).map(|&(_, line)| line)
    }
    let rendered = to_json(fresh);
    let old: Vec<_> = committed.lines().map(|l| (line_key(l), l)).collect();
    let new: Vec<_> = rendered.lines().map(|l| (line_key(l), l)).collect();
    let mut out = Vec::new();
    for &(key, line) in &old {
        match find(&new, key) {
            Some(now) if now == line => {}
            Some(now) => out.push(format!("{key}: committed `{line}`, measured `{now}`")),
            None => out.push(format!("{key}: only in the committed snapshot: `{line}`")),
        }
    }
    for &(key, line) in &new {
        if find(&old, key).is_none() {
            out.push(format!("{key}: not in the committed snapshot: `{line}`"));
        }
    }
    if out.is_empty() && committed != rendered {
        out.push("same lines, but in another order or with other line endings".to_string());
    }
    out
}

/// Measures the metrics and diffs them against the committed snapshot
/// at `path` ([`diff_snapshot`]); an empty report means the gate passes.
///
/// # Errors
/// Fails when the snapshot cannot be read.
pub fn check_against(path: &str) -> Result<Vec<String>, String> {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read committed snapshot {path}: {e}"))?;
    Ok(diff_snapshot(&committed, &collect_metrics()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }

    fn sample() -> Vec<Metric> {
        vec![
            metric("a_bytes", "bytes", 288.0),
            metric("b_gas", "gas", 588_488.0),
            metric("c_fns", "fns", 2127.0),
        ]
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let s = to_json(&sample());
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert_eq!(s.matches("\"value\"").count(), 3);
        assert!(!s.contains(",\n  }"), "no trailing comma before close");
        assert!(s.contains("\"a_bytes\": { \"value\": 288.0000, \"unit\": \"bytes\" },"));
    }

    #[test]
    fn gate_reports_each_differing_line_and_nothing_else() {
        let committed = to_json(&sample());
        assert!(diff_snapshot(&committed, &sample()).is_empty());

        // one changed value: one line, naming that metric
        let mut changed = sample();
        changed[1].value = 588_489.0;
        let report = diff_snapshot(&committed, &changed);
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(report[0].starts_with("b_gas:") && report[0].contains("588489.0000"));

        // a hand edit of one committed line is that line
        let edited = committed.replace("2127.0000", "2128.0000");
        let report = diff_snapshot(&edited, &sample());
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(report[0].starts_with("c_fns:"));

        // a metric measured but not committed, and the other way round
        let mut fewer = sample();
        fewer.remove(1);
        let report = diff_snapshot(&committed, &fewer);
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(report[0].starts_with("b_gas: only in the committed"));
        let report = diff_snapshot(&to_json(&fewer), &sample());
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(report[0].starts_with("b_gas: not in the committed"));

        // no metrics at all (a binary run outside the workspace has no
        // lint counters): reported, not a panic
        assert_eq!(diff_snapshot(&committed, &[]).len(), 3);
        assert!(!diff_snapshot("", &sample()).is_empty());
    }
}
