//! The full network under load: a seeded discrete-event simulation of
//! erasure-coded, multi-provider audits end to end.
//!
//! 16 providers form a DHT; 4 owners upload 3-of-6 erasure-coded files;
//! every share carries its own authenticator vector and its own Fig. 2
//! audit contract on one shared chain. Each epoch, providers churn
//! (join / leave / crash) and misbehave (corrupt / drop / withhold
//! shares), one batch auditor settles each owner's proofs with one
//! batched pairing product, failed audits trigger DHT-proximity repair,
//! and the contracts migrate to the shares' new holders.
//!
//! ```text
//! cargo run --release --example network_sim
//! ```

use dsaudit::sim::{ChurnRates, FaultRates, SimConfig, Simulation};

fn main() {
    let cfg = SimConfig {
        seed: 0x5ca1e,
        epochs: 12,
        providers: 16,
        owners: 4,
        files_per_owner: 1,
        file_bytes: 480,
        erasure_k: 3,
        erasure_n: 6,
        churn: ChurnRates {
            join_rate: 0.5,
            leave_prob: 0.01,
            crash_prob: 0.01,
        },
        faults: FaultRates {
            corrupt: 0.02,
            drop: 0.01,
            withhold: 0.01,
            transport: 0.02,
        },
        ..SimConfig::default()
    };
    println!(
        "simulating {} epochs: {} providers, {} owners, {}-of-{} erasure, churn + faults on\n",
        cfg.epochs, cfg.providers, cfg.owners, cfg.erasure_k, cfg.erasure_n
    );
    let report = Simulation::new(cfg).run();
    print!("{}", report.to_text());

    assert_eq!(report.false_accepts, 0, "no faulty share may pass an audit");
    assert_eq!(report.false_rejects, 0, "no healthy share may fail one");
    assert_eq!(
        report.detected_faults, report.injected_faults,
        "every injected fault is caught by a contract-settled audit"
    );
    assert_eq!(report.files_lost, 0);
    assert_eq!(report.files_intact as usize, report.files);
    println!(
        "\nall {} injected faults detected and repaired; every file intact; pass rate {:.2}%",
        report.injected_faults,
        report.pass_rate() * 100.0
    );
}
