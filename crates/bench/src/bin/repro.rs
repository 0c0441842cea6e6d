//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p dsaudit-bench --bin repro -- all
//! cargo run --release -p dsaudit-bench --bin repro -- table2 --full
//! cargo run --release -p dsaudit-bench --bin repro -- fig7 --mb 32
//! ```

use dsaudit_backend::BackendId;
use dsaudit_bench::{figures, json, tables};

const USAGE: &str = "usage: repro [table1|table2|fig4..fig10|fig10b|costs|baseline|attack|sim|node-soak|backends|trace|json|check|all] [table2/all: --full] [fig7/all: --mb N] [sim: --epochs N --providers N --owners N --files N --k N --n N --seed N --backends pairing,merkle,groth16] [node-soak: --sessions N --providers N --ttl-ms N --seed N --out PATH] [trace: --scenario sim|node-soak --out-dir DIR]";

/// The flags one subcommand was given, parsed strictly: an unknown
/// flag, a flag without its value, or a value that does not parse is an
/// error (exit 2), never a silent default — CI must never green-light a
/// run it did not ask for.
struct Flags<'a> {
    /// Each flag given and its value; a switch's value is empty.
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Parses the words after subcommand `cmd` against the flags `cmd`
    /// knows; an unknown subcommand is an error too.
    fn parse(cmd: &str, args: &'a [String]) -> Result<Self, String> {
        let (valued, switches): (&[&str], &[&str]) = match cmd {
            "table2" => (&[], &["--full"]),
            "fig7" => (&["--mb"], &[]),
            "all" => (&["--mb"], &["--full"]),
            "sim" => (
                &[
                    "--seed", "--epochs", "--providers", "--owners", "--files", "--k", "--n",
                    "--backends",
                ],
                &[],
            ),
            "node-soak" => (&["--seed", "--sessions", "--providers", "--ttl-ms", "--out"], &[]),
            "trace" => (&["--scenario", "--out-dir"], &[]),
            "table1" | "fig4" | "fig5" | "fig6" | "fig8" | "fig9" | "fig10" | "fig10b"
            | "costs" | "attack" | "baseline" | "json" | "check" | "backends" => (&[], &[]),
            _ => return Err(format!("unknown experiment '{cmd}'")),
        };
        let mut given = Vec::new();
        let mut words = args.iter().map(String::as_str);
        while let Some(flag) = words.next() {
            if switches.contains(&flag) {
                given.push((flag, ""));
            } else if valued.contains(&flag) {
                given.push((flag, words.next().ok_or(format!("flag '{flag}' needs a value"))?));
            } else {
                let known = [valued, switches].concat().join(" ");
                return Err(format!("unknown flag '{flag}' (known: [{known}])"));
            }
        }
        Ok(Self { given })
    }

    /// Whether flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of flag `name` as a `T`, or `default` when absent.
    fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.parsed(name, default, |v| v.parse().ok())
    }

    /// The value of flag `name` through `parse`, or `default` when
    /// absent; the last of repeated flags wins.
    fn parsed<T>(
        &self,
        name: &str,
        default: T,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.given.iter().rev().find(|(flag, _)| *flag == name) {
            None => Ok(default),
            Some((_, v)) => parse(v).ok_or(format!("flag '{name}': cannot parse '{v}'")),
        }
    }
}

/// Measures the exact metrics and writes `BENCH_repro.json` at the
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

/// Measures the exact metrics again and fails (exit 1) when their
/// rendering differs from the committed `BENCH_repro.json` in any line,
/// printing each differing line — the CI gate.
fn check_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    match json::check_against(path) {
        Ok(report) if report.is_empty() => println!("{path} matches the measured metrics"),
        Ok(report) => {
            for line in &report {
                eprintln!("  {line}");
            }
            eprintln!(
                "FAIL: {path} differs from the measured metrics in {} line(s) \
                 (if deliberate, refresh it with `repro json` in the same PR)",
                report.len()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("exact-metric gate could not run: {e}");
            std::process::exit(1);
        }
    }
}

/// The sim's configuration from its flags. Every count narrower than
/// the seed is parsed as a `u32`, so an overflow is an error too.
fn sim_config(flags: &Flags<'_>) -> Result<dsaudit_sim::SimConfig, String> {
    let count = |name: &str, default: u32| flags.value(name, default).map(|v| v as usize);
    let backends =
        |list: &str| list.split(',').map(BackendId::from_name).collect::<Option<Vec<_>>>();
    Ok(dsaudit_sim::SimConfig {
        seed: flags.value("--seed", 0xd5a_517)?,
        epochs: flags.value("--epochs", 20)?,
        providers: count("--providers", 32)?,
        owners: count("--owners", 4)?,
        files_per_owner: count("--files", 1)?,
        erasure_k: count("--k", 3)?,
        erasure_n: count("--n", 6)?,
        backends: flags.parsed("--backends", Vec::new(), backends)?,
        ..dsaudit_sim::SimConfig::default()
    })
}

/// Runs the fixed-seed network simulation and prints its report: the
/// scale scenario (erasure-coded multi-provider audits under churn and
/// faults) as one reproducible experiment.
fn run_sim(flags: &Flags<'_>) -> Result<(), String> {
    let cfg = sim_config(flags)?;
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
    Ok(())
}

/// The node soak's configuration from its flags.
fn soak_config(flags: &Flags<'_>) -> Result<dsaudit_node::SoakConfig, String> {
    let defaults = dsaudit_node::SoakConfig::default();
    Ok(dsaudit_node::SoakConfig {
        seed: flags.value("--seed", defaults.seed)?,
        sessions: flags.value("--sessions", defaults.sessions)?,
        providers: flags.value("--providers", defaults.providers)?,
        ttl_ms: flags.value("--ttl-ms", defaults.ttl_ms)?,
    })
}

/// Runs the deterministic node soak (fault-injected audit daemons, three
/// fault schedules) and writes its JSON report; exits nonzero when any
/// challenge is lost, double-settled, or otherwise violates the
/// termination invariant — the CI `node-soak` step.
fn run_node_soak(flags: &Flags<'_>) -> Result<(), String> {
    let cfg = soak_config(flags)?;
    let out_path: String = flags.value(
        "--out",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../NODE_SOAK_repro.json").to_string(),
    )?;

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
    Ok(())
}

/// Runs a deterministic scenario with a virtual-clock telemetry
/// registry installed and writes all three exporter artifacts — the
/// JSON-lines event log, the aggregated span tree, and Prometheus-style
/// text exposition. The registry rides the scenario's own virtual
/// clock, so repeated runs produce byte-identical traces (the CI
/// artifact is diffable across PRs).
fn run_trace(flags: &Flags<'_>) -> Result<(), String> {
    use std::sync::Arc;
    let scenario: String = flags.value("--scenario", "sim".to_string())?;
    if scenario != "sim" && scenario != "node-soak" {
        return Err(format!("--scenario must be 'sim' or 'node-soak', got '{scenario}'"));
    }
    let out_dir: String =
        flags.value("--out-dir", concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string())?;

    let reg = Arc::new(dsaudit_obs::Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&reg));
    match scenario.as_str() {
        "sim" => {
            let cfg = dsaudit_sim::SimConfig {
                seed: 0xd5a_517,
                epochs: 6,
                providers: 8,
                owners: 2,
                erasure_k: 2,
                erasure_n: 4,
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
    Ok(())
}

/// Head-to-head comparison of the pluggable audit backends: the same
/// blob committed, proven, and verified under each scheme (micro side),
/// and a fixed-seed simulation with all three backends running as
/// shadow lanes through one challenge and fault schedule (system side).
fn run_backends() {
    use dsaudit_backend::{AuditBackend, Groth16MerkleBackend, MerkleBackend, PairingBackend};
    use dsaudit_bench::{timed, CALL};
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
        let mut setup = None;
        let setup_ms = timed(1, || setup = Some(backend.setup(&mut r, &data).expect("setup")))
            .mean_ms(CALL);
        let setup = setup.expect("the closure ran");
        let prove_ms =
            timed(5, || backend.prove(&mut r, &setup.kit, &data, &beacon).expect("honest prove"))
                .mean_ms(CALL);
        let proof = backend
            .prove(&mut r, &setup.kit, &data, &beacon)
            .expect("honest prove");
        let verify = || backend.verify(&setup.commitment, &beacon, &proof);
        let verify_ms =
            timed(5, || assert!(verify().expect("well-formed proof").accepted())).mean_ms(CALL);
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

    prove_by_size();

    let cfg = json::bench_backend_sim_config();
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

/// Prove time of the default pairing and merkle backends as the file
/// grows 64x: both read only the challenged units, so the row stays
/// flat. Panics if an honest proof rejects.
fn prove_by_size() {
    use dsaudit_backend::{AuditBackend, MerkleBackend, PairingBackend, ProverKit};
    use dsaudit_bench::{timed, CALL};
    use rand::SeedableRng;

    const SIZES: [(&str, usize); 4] = [
        ("64 KiB", 64 << 10),
        ("256 KiB", 256 << 10),
        ("1 MiB", 1 << 20),
        ("4 MiB", 4 << 20),
    ];
    let beacon = [0x42u8; 48];
    println!(
        "\nprove ms by file size (pairing s = 50, k = 300; merkle 64-byte leaves, k = 4)\n"
    );
    print!("  {:<12}", "backend");
    for (label, _) in SIZES {
        print!(" {label:>9}");
    }
    println!();
    let backends: [(&dyn AuditBackend, u32); 2] =
        [(&PairingBackend::default(), 9), (&MerkleBackend::default(), 1000)];
    let mut kit_bytes = Vec::new();
    for (backend, iters) in backends {
        print!("  {:<12}", backend.id().name());
        for (_, len) in SIZES {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut r = rand::rngs::StdRng::seed_from_u64(0x512e);
            let setup = backend.setup(&mut r, &data).expect("setup");
            let proof = backend
                .prove(&mut r, &setup.kit, &data, &beacon)
                .expect("honest prove");
            assert!(
                backend
                    .verify(&setup.commitment, &beacon, &proof)
                    .expect("well-formed proof")
                    .accepted(),
                "honest {} proof rejected at {len} bytes",
                backend.id()
            );
            let prove = || backend.prove(&mut r, &setup.kit, &data, &beacon).expect("honest prove");
            let ms = timed(iters, prove).mean_ms(CALL);
            print!(" {ms:>9.3}");
            if let ProverKit::Merkle(kit) = &setup.kit {
                kit_bytes.push(kit.tree_bytes());
            }
        }
        println!();
    }
    print!("  {:<12}", "merkle kit B");
    for bytes in kit_bytes {
        print!(" {bytes:>9}");
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let rest = args.get(1..).unwrap_or(&[]);
    if let Err(e) = Flags::parse(cmd, rest).and_then(|flags| run(cmd, &flags)) {
        eprintln!("{cmd}: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}

/// Runs subcommand `cmd`; a bad flag value is an error.
fn run(cmd: &str, flags: &Flags<'_>) -> Result<(), String> {
    let full = flags.has("--full");
    let measure_mb = || flags.value("--mb", 8usize);
    let divider = || println!("\n{}\n", "=".repeat(72));
    match cmd {
        "table1" => tables::table1(),
        "table2" => tables::table2(full),
        "fig4" => figures::fig4(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(measure_mb()?),
        "fig8" => figures::fig8(),
        "fig9" => figures::fig9(),
        "fig10" => figures::fig10(),
        "fig10b" => figures::fig10_batched(),
        "costs" => figures::costs(),
        "attack" => figures::attack_demo(),
        "baseline" => figures::baseline(),
        "json" => emit_json(),
        "check" => check_json(),
        "sim" => run_sim(flags)?,
        "node-soak" => run_node_soak(flags)?,
        "trace" => run_trace(flags)?,
        "backends" => run_backends(),
        "all" => {
            let measure_mb = measure_mb()?;
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
        other => return Err(format!("unknown experiment '{other}'")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn an_unparsable_value_is_an_error() {
        let args = words("--sessions 5x");
        let flags = Flags::parse("node-soak", &args).unwrap();
        assert!(soak_config(&flags).is_err());
        let args = words("--mb abc");
        let flags = Flags::parse("fig7", &args).unwrap();
        assert!(flags.value("--mb", 8usize).is_err());
        let args = words("--providers 4294967296");
        assert!(sim_config(&Flags::parse("sim", &args).unwrap()).is_err());
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert!(Flags::parse("node-soak", &words("--seed 1 --sessions")).is_err());
        assert!(Flags::parse("fig7", &words("--mb")).is_err());
    }

    #[test]
    fn an_unknown_flag_or_experiment_is_an_error() {
        assert!(Flags::parse("fig5", &words("--full")).is_err());
        assert!(Flags::parse("sim", &words("--ttl-ms 5")).is_err());
        assert!(Flags::parse("fig11", &[]).is_err());
        let args = words("--full --mb 2");
        let flags = Flags::parse("all", &args).unwrap();
        assert!(flags.has("--full"));
        assert_eq!(flags.value("--mb", 8usize), Ok(2));
    }

    #[test]
    fn backends_parse_as_a_list_of_names() {
        let args = words("--backends pairing,merkle,groth16-merkle");
        let cfg = sim_config(&Flags::parse("sim", &args).unwrap()).unwrap();
        assert_eq!(cfg.backends, BackendId::ALL.to_vec());
        for bad in ["pairing,nope", "pairing,", ","] {
            let args = vec!["--backends".to_string(), bad.to_string()];
            assert!(sim_config(&Flags::parse("sim", &args).unwrap()).is_err(), "{bad}");
        }
        let cfg = sim_config(&Flags::parse("sim", &[]).unwrap()).unwrap();
        assert!(cfg.backends.is_empty());
    }
}
