//! Byte-reproducibility under observability.
//!
//! The obs layer mirrors statistics; it must never *become* them. This
//! gate runs the deterministic scenarios — the network simulator and
//! the node soak — once with obs disabled and once with a
//! virtual-clock registry installed, and asserts the rendered reports
//! are byte-identical. It also asserts the telemetry itself is
//! reproducible: two traced runs export identical artifacts.
//!
//! Everything lives in ONE `#[test]` because the obs sink is
//! process-global state; a single test owns the whole
//! install/run/uninstall sequence so the cargo test harness cannot
//! interleave another installation.

use std::sync::Arc;

use dsaudit_obs::export::{export_jsonl, export_prometheus, export_span_tree};
use dsaudit_obs::Registry;

fn sim_config() -> dsaudit_sim::SimConfig {
    dsaudit_sim::SimConfig {
        seed: 0x0b5_0b5,
        epochs: 4,
        providers: 6,
        owners: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
        faults: dsaudit_sim::FaultRates {
            corrupt: 0.05,
            drop: 0.0,
            withhold: 0.0,
            transport: 0.1,
        },
        ..dsaudit_sim::SimConfig::default()
    }
}

fn soak_config() -> dsaudit_node::SoakConfig {
    dsaudit_node::SoakConfig {
        sessions: 40,
        ..dsaudit_node::SoakConfig::default()
    }
}

fn run_sim_text() -> String {
    dsaudit_sim::Simulation::new(sim_config()).run().to_text()
}

fn run_soak_json() -> String {
    dsaudit_node::run_soak(&soak_config()).to_json()
}

/// Runs `f` with a fresh virtual-clock registry installed, returning
/// the closure's output plus the three exported trace artifacts.
fn traced<T>(f: impl FnOnce() -> T) -> (T, [String; 3]) {
    let reg = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&reg));
    let out = f();
    let back = dsaudit_obs::uninstall().expect("registry stays installed during the run");
    assert!(Arc::ptr_eq(&reg, &back));
    let snap = back.snapshot();
    (
        out,
        [export_jsonl(&snap), export_span_tree(&snap), export_prometheus(&snap)],
    )
}

#[test]
fn reports_are_byte_identical_with_obs_enabled() {
    // Baselines with obs disabled (the shipped configuration).
    assert!(!dsaudit_obs::is_enabled());
    let sim_base = run_sim_text();
    let soak_base = run_soak_json();

    // Same scenarios traced on the virtual clock: reports must not
    // move by a byte, and the telemetry must actually have content.
    let (sim_traced, sim_art) = traced(run_sim_text);
    assert_eq!(
        sim_base, sim_traced,
        "enabling obs changed the sim report"
    );
    let (soak_traced, soak_art) = traced(run_soak_json);
    assert_eq!(
        soak_base, soak_traced,
        "enabling obs changed the node-soak report"
    );
    assert!(
        sim_art[0].contains("\"kind\":\"counter\",\"name\":\"sim.audits\""),
        "sim trace records no audits:\n{}",
        sim_art[0]
    );
    assert!(
        soak_art[2].contains("node_session_issued"),
        "soak trace records no sessions:\n{}",
        soak_art[2]
    );

    // The trace itself is deterministic: tracing the same scenario
    // twice exports byte-identical artifacts (virtual clock, seeded
    // RNG, sorted registries).
    let (_, sim_art2) = traced(run_sim_text);
    assert_eq!(sim_art, sim_art2, "sim trace is not reproducible");
    let (_, soak_art2) = traced(run_soak_json);
    assert_eq!(soak_art, soak_art2, "node-soak trace is not reproducible");

    // And a disabled re-run still matches the baseline (install/
    // uninstall leaves no residue in the instrumented code).
    assert_eq!(sim_base, run_sim_text());
}
