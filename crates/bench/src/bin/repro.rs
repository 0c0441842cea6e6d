//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p dsaudit-bench --bin repro -- all
//! cargo run --release -p dsaudit-bench --bin repro -- table2 --full
//! cargo run --release -p dsaudit-bench --bin repro -- fig7 --mb 32
//! ```

use dsaudit_bench::{figures, json, tables};

/// Measures the compact metric set and writes `BENCH_repro.json` at the
/// workspace root (not the cwd, so the tracked snapshot always updates).
fn emit_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    match json::emit(path) {
        Ok(metrics) => {
            println!("wrote {path}:");
            for m in &metrics {
                println!("  {:<28} {:>12.3} {}", m.name, m.value, m.unit);
            }
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Re-measures the guarded (exact) metrics and fails (exit 1) when any
/// of them differs from the committed `BENCH_repro.json` — the CI gate.
fn check_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    match json::check_against(path) {
        Ok((report, ok)) => {
            println!("exact-metric gate against {path}:");
            for line in &report {
                println!("  {line}");
            }
            if !ok {
                eprintln!(
                    "FAIL: a guarded metric differs from the committed snapshot \
                     (if deliberate, refresh it with `repro json` in the same PR)"
                );
                std::process::exit(1);
            }
            println!("gate passed");
        }
        Err(e) => {
            eprintln!("exact-metric gate could not run: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the fixed-seed network simulation and prints its report: the
/// scale scenario (erasure-coded multi-provider audits under churn and
/// faults) as one reproducible experiment.
fn run_sim(args: &[String]) {
    const KNOWN: &[&str] = &[
        "--seed", "--epochs", "--providers", "--owners", "--files", "--k", "--n", "--shards",
        "--backends",
    ];
    // strict flag parsing: an unknown flag, a missing value, or an
    // unparsable value is an error, not a silent fallback — CI must
    // never green-light a scenario it did not ask for
    let mut i = 1;
    while i < args.len() {
        if !KNOWN.contains(&args[i].as_str()) {
            eprintln!("sim: unknown flag '{}' (known: {})", args[i], KNOWN.join(" "));
            std::process::exit(2);
        }
        if args[i] == "--backends" {
            // comma-separated backend names (shadow audit lanes)
            let ok = args
                .get(i + 1)
                .is_some_and(|v| {
                    !v.is_empty()
                        && v.split(',')
                            .all(|n| dsaudit_backend::BackendId::from_name(n).is_some())
                });
            if !ok {
                eprintln!(
                    "sim: flag '--backends' needs a comma-separated list of backend names \
                     (pairing, merkle, groth16)"
                );
                std::process::exit(2);
            }
            i += 2;
            continue;
        }
        // every field narrower than u64 fits in u32, so bound-check
        // here — otherwise flag()'s typed re-parse would silently fall
        // back to the default on overflow
        let fits = match args.get(i + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(v)) => args[i] == "--seed" || v <= u32::MAX as u64,
            _ => false,
        };
        if !fits {
            eprintln!(
                "sim: flag '{}' needs an unsigned integer value{}",
                args[i],
                if args[i] == "--seed" { "" } else { " (at most 2^32-1)" }
            );
            std::process::exit(2);
        }
        i += 2;
    }
    fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
    let cfg = dsaudit_sim::SimConfig {
        seed: flag(args, "--seed", 0xd5a_517),
        epochs: flag(args, "--epochs", 20),
        providers: flag(args, "--providers", 32),
        owners: flag(args, "--owners", 4),
        files_per_owner: flag(args, "--files", 1),
        erasure_k: flag(args, "--k", 3),
        erasure_n: flag(args, "--n", 6),
        shards: flag(args, "--shards", 4),
        backends: args
            .iter()
            .position(|a| a == "--backends")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.split(',')
                    .map(|n| {
                        dsaudit_backend::BackendId::from_name(n).expect("validated above")
                    })
                    .collect()
            })
            .unwrap_or_default(),
        ..dsaudit_sim::SimConfig::default()
    };
    println!(
        "running {} epochs over {} providers / {} owners (seed {:#x})...\n",
        cfg.epochs, cfg.providers, cfg.owners, cfg.seed
    );
    let t0 = std::time::Instant::now();
    let report = dsaudit_sim::Simulation::new(cfg).run();
    let secs = t0.elapsed().as_secs_f64();
    print!("{}", report.to_text());
    println!(
        "\nwall clock: {secs:.2} s ({:.1} rounds/s end-to-end)",
        report.audits as f64 / secs
    );
    if report.false_accepts + report.false_rejects > 0 {
        eprintln!("AUDIT ACCURACY VIOLATION — see report above");
        std::process::exit(1);
    }
    for lane in &report.backend_lanes {
        if lane.false_accepts + lane.false_rejects > 0 {
            eprintln!(
                "AUDIT ACCURACY VIOLATION on backend lane `{}` — see report above",
                lane.backend
            );
            std::process::exit(1);
        }
    }
    if report.transport_false_rejects > 0 {
        eprintln!(
            "TRANSPORT MISATTRIBUTION — {} healthy share(s) failed a round because \
             the network lost a frame; a dropped frame is a retry, not a verdict",
            report.transport_false_rejects
        );
        std::process::exit(1);
    }
}

/// Runs the deterministic node soak (fault-injected audit daemons, three
/// fault schedules) and writes its JSON report; exits nonzero when any
/// challenge is lost, double-settled, or otherwise violates the
/// termination invariant — the CI `node-soak` step.
fn run_node_soak(args: &[String]) {
    const KNOWN: &[&str] = &["--seed", "--sessions", "--providers", "--ttl-ms", "--out"];
    let mut i = 1;
    while i < args.len() {
        if !KNOWN.contains(&args[i].as_str()) {
            eprintln!(
                "node-soak: unknown flag '{}' (known: {})",
                args[i],
                KNOWN.join(" ")
            );
            std::process::exit(2);
        }
        if args.get(i + 1).is_none() {
            eprintln!("node-soak: flag '{}' needs a value", args[i]);
            std::process::exit(2);
        }
        i += 2;
    }
    fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
    let defaults = dsaudit_node::SoakConfig::default();
    let cfg = dsaudit_node::SoakConfig {
        seed: flag(args, "--seed", defaults.seed),
        sessions: flag(args, "--sessions", defaults.sessions),
        providers: flag(args, "--providers", defaults.providers),
        ttl_ms: flag(args, "--ttl-ms", defaults.ttl_ms),
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../NODE_SOAK_repro.json").to_string()
        });

    println!(
        "node soak: {} sessions over {} providers per schedule set (seed {:#x}, ttl {} ms)...\n",
        cfg.sessions, cfg.providers, cfg.seed, cfg.ttl_ms
    );
    let t0 = std::time::Instant::now();
    let report = dsaudit_node::run_soak(&cfg);
    let secs = t0.elapsed().as_secs_f64();
    for s in &report.schedules {
        println!(
            "  {:<12} {:>4} sessions: {:>4} accept / {:>3} reject / {:>3} expired; \
             {} proof retries, {} late proofs, {} corrupt frames, {} virtual ms",
            s.name,
            s.sessions,
            s.settled_accept,
            s.settled_reject,
            s.expired,
            s.retries,
            s.late_proofs,
            s.corrupt_frames,
            s.virtual_ms,
        );
    }
    println!(
        "\n{} sessions settled in {secs:.2} s wall clock ({:.1} sessions/s)",
        report.total_sessions(),
        report.total_sessions() as f64 / secs
    );
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if !report.ok() {
        eprintln!("CHALLENGE LIFECYCLE VIOLATION:");
        for v in report.violations() {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("every challenge terminated in exactly one of Settled/Expired");
}

/// Runs a deterministic scenario with a virtual-clock telemetry
/// registry installed and writes all three exporter artifacts — the
/// JSON-lines event log, the aggregated span tree, and Prometheus-style
/// text exposition. The registry rides the scenario's own virtual
/// clock, so repeated runs produce byte-identical traces (the CI
/// artifact is diffable across PRs).
fn run_trace(args: &[String]) {
    use std::sync::Arc;
    const KNOWN: &[&str] = &["--scenario", "--out-dir"];
    let mut i = 1;
    while i < args.len() {
        if !KNOWN.contains(&args[i].as_str()) {
            eprintln!("trace: unknown flag '{}' (known: {})", args[i], KNOWN.join(" "));
            std::process::exit(2);
        }
        if args.get(i + 1).is_none() {
            eprintln!("trace: flag '{}' needs a value", args[i]);
            std::process::exit(2);
        }
        i += 2;
    }
    let scenario = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("sim");
    if scenario != "sim" && scenario != "node-soak" {
        eprintln!("trace: --scenario must be 'sim' or 'node-soak', got '{scenario}'");
        std::process::exit(2);
    }
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());

    let reg = Arc::new(dsaudit_obs::Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&reg));
    match scenario {
        "sim" => {
            let cfg = dsaudit_sim::SimConfig {
                seed: 0xd5a_517,
                epochs: 6,
                providers: 8,
                owners: 2,
                erasure_k: 2,
                erasure_n: 4,
                shards: 2,
                faults: dsaudit_sim::FaultRates {
                    corrupt: 0.02,
                    drop: 0.0,
                    withhold: 0.0,
                    transport: 0.1,
                },
                ..dsaudit_sim::SimConfig::default()
            };
            println!(
                "tracing sim: {} epochs over {} providers (seed {:#x}, virtual clock)",
                cfg.epochs, cfg.providers, cfg.seed
            );
            let report = dsaudit_sim::Simulation::new(cfg).run();
            println!("  {} audits, {} passes, {} failures", report.audits, report.passes, report.failures);
        }
        _ => {
            let cfg = dsaudit_node::SoakConfig {
                sessions: 60,
                ..dsaudit_node::SoakConfig::default()
            };
            println!(
                "tracing node-soak: {} sessions per schedule (seed {:#x}, virtual clock)",
                cfg.sessions, cfg.seed
            );
            let report = dsaudit_node::run_soak(&cfg);
            println!("  {} sessions, invariant {}", report.total_sessions(), if report.ok() { "held" } else { "VIOLATED" });
        }
    }
    let _ = dsaudit_obs::uninstall();
    let snap = reg.snapshot();

    let tag = scenario.replace('-', "_");
    let artifacts = [
        (format!("{out_dir}/TRACE_{tag}.jsonl"), dsaudit_obs::export::export_jsonl(&snap)),
        (format!("{out_dir}/TRACE_{tag}.spans.txt"), dsaudit_obs::export::export_span_tree(&snap)),
        (format!("{out_dir}/TRACE_{tag}.prom"), dsaudit_obs::export::export_prometheus(&snap)),
    ];
    for (path, body) in &artifacts {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path} ({} bytes)", body.len());
    }
    println!(
        "trace: {} span(s), {} counter(s), {} histogram(s), {} event(s) \
         ({} span(s) / {} event(s) dropped)",
        snap.spans.len(),
        snap.counters.len(),
        snap.histograms.len(),
        snap.events.len(),
        snap.dropped_spans,
        snap.dropped_events
    );
}

/// Head-to-head comparison of the pluggable audit backends: the same
/// blob committed, proven, and verified under each scheme (micro side),
/// and a fixed-seed simulation with all three backends running as
/// shadow lanes through one challenge and fault schedule (system side).
fn run_backends() {
    use dsaudit_backend::{
        AuditBackend, BackendId, Groth16MerkleBackend, MerkleBackend, PairingBackend,
    };
    use dsaudit_bench::time_mean;
    use dsaudit_core::codec::Codec as _;
    use dsaudit_core::params::AuditParams;
    use rand::SeedableRng;

    let data: Vec<u8> = (0..4096).map(|i| (i * 31 % 251) as u8).collect();
    let beacon = [0x42u8; 48];
    // instances sized so every scheme challenges the whole 4 KiB blob
    let backends: Vec<Box<dyn AuditBackend>> = vec![
        Box::new(PairingBackend::new(AuditParams::new(8, 16).expect("valid"))),
        Box::new(MerkleBackend { leaf_size: 256, k: 16 }),
        Box::new(Groth16MerkleBackend { batch: 16 }),
    ];

    println!("pluggable audit backends, head to head");
    println!("\nmicro: one {}-byte blob per scheme\n", data.len());
    println!(
        "  {:<10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "backend", "setup ms", "prove ms", "verify ms", "proof B", "commit B"
    );
    for backend in &backends {
        let mut r = rand::rngs::StdRng::seed_from_u64(0xbac_4e40);
        let t0 = std::time::Instant::now();
        let setup = backend.setup(&mut r, &data).expect("setup");
        let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
        let prove_ms = {
            let t = time_mean(5, || {
                let _ = backend
                    .prove(&mut r, &setup.kit, &data, &beacon)
                    .expect("honest prove");
            });
            t.as_secs_f64() * 1e3
        };
        let proof = backend
            .prove(&mut r, &setup.kit, &data, &beacon)
            .expect("honest prove");
        let verify_ms = {
            let t = time_mean(5, || {
                assert!(backend
                    .verify(&setup.commitment, &beacon, &proof)
                    .expect("well-formed proof")
                    .accepted());
            });
            t.as_secs_f64() * 1e3
        };
        println!(
            "  {:<10} {:>10.3} {:>10.3} {:>10.3} {:>9} {:>9}",
            backend.id().name(),
            setup_ms,
            prove_ms,
            verify_ms,
            proof.encoded_len(),
            setup.commitment.encoded_len(),
        );
    }

    let cfg = dsaudit_sim::SimConfig {
        seed: 0xbac_4e40,
        epochs: 4,
        providers: 6,
        owners: 1,
        files_per_owner: 1,
        file_bytes: 240,
        erasure_k: 2,
        erasure_n: 3,
        shards: 1,
        churn: dsaudit_sim::ChurnRates::none(),
        faults: dsaudit_sim::FaultRates::none(),
        backends: BackendId::ALL.to_vec(),
        ..dsaudit_sim::SimConfig::default()
    };
    println!(
        "\nsystem: {} epochs x {} shares, every backend as a shadow lane\n",
        cfg.epochs,
        cfg.erasure_n * cfg.files_per_owner * cfg.owners
    );
    let report = dsaudit_sim::Simulation::new(cfg).run();
    println!(
        "  {:<10} {:>7} {:>11} {:>13} {:>6} {:>6}",
        "backend", "rounds", "gas/round", "proof B/round", "fa", "fr"
    );
    let mut violated = false;
    for lane in &report.backend_lanes {
        println!(
            "  {:<10} {:>7} {:>11} {:>13} {:>6} {:>6}",
            lane.backend,
            lane.audits,
            lane.gas_per_round(),
            lane.proof_bytes_per_round(),
            lane.false_accepts,
            lane.false_rejects,
        );
        violated |= lane.false_accepts + lane.false_rejects > 0;
    }
    if violated {
        eprintln!("AUDIT ACCURACY VIOLATION on a backend lane — see table above");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let full = args.iter().any(|a| a == "--full");
    let measure_mb = args
        .iter()
        .position(|a| a == "--mb")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize);

    let divider = || println!("\n{}\n", "=".repeat(72));
    match cmd {
        "table1" => tables::table1(),
        "table2" => tables::table2(full),
        "fig4" => figures::fig4(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(measure_mb),
        "fig8" => figures::fig8(),
        "fig9" => figures::fig9(),
        "fig10" => figures::fig10(),
        "fig10b" => figures::fig10_batched(),
        "costs" => figures::costs(),
        "attack" => figures::attack_demo(),
        "baseline" => figures::baseline(),
        "json" => emit_json(),
        "check" => check_json(),
        "sim" => run_sim(&args),
        "node-soak" => run_node_soak(&args),
        "trace" => run_trace(&args),
        "backends" => run_backends(),
        "all" => {
            tables::table1();
            divider();
            tables::table2(full);
            divider();
            figures::fig4();
            divider();
            figures::fig5();
            divider();
            figures::fig6();
            divider();
            figures::fig7(measure_mb);
            divider();
            figures::fig8();
            divider();
            figures::fig9();
            divider();
            figures::fig10();
            divider();
            figures::fig10_batched();
            divider();
            figures::costs();
            divider();
            figures::baseline();
            divider();
            figures::attack_demo();
            divider();
            emit_json();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("usage: repro [table1|table2|fig4..fig10|fig10b|costs|baseline|attack|sim|node-soak|backends|trace|json|check|all] [--full] [--mb N] [sim: --epochs N --providers N --owners N --files N --k N --n N --shards N --seed N --backends pairing,merkle,groth16] [node-soak: --sessions N --providers N --ttl-ms N --seed N --out PATH] [trace: --scenario sim|node-soak --out-dir DIR]");
            std::process::exit(2);
        }
    }
}
