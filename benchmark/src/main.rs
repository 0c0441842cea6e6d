//! Command line of the benchmark. The driver calls
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//! line of standard output is the result object, everything else goes
//! to standard error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dsaudit_benchmark::harness::{Budget, Checks};
use dsaudit_benchmark::names::{self, WORKLOADS};
use dsaudit_benchmark::report::{self, Environment, RunRecord};
use dsaudit_benchmark::runner;

const USAGE: &str = "usage:
  dsaudit-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
  dsaudit-benchmark --selftest
  dsaudit-benchmark --compare <A.jsonl> <B.jsonl>
workloads: audit_steady backend_lanes outsource_bulk sim_faulty node_faulty";

/// Exit code of a self-test whose inverted checks were all caught.
const SELFTEST_CHECKS_CAN_FAIL: u8 = 1;
/// Exit code for a bad command line.
const USAGE_ERROR: u8 = 2;
/// Exit code of a self-test in which some check could not fail.
const SELFTEST_VACUOUS_CHECK: u8 = 4;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(USAGE_ERROR)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--selftest") => selftest(),
        Some("--compare") => match args.as_slice() {
            [_, a, b] => compare(Path::new(a), Path::new(b)),
            _ => usage("--compare takes two record files"),
        },
        _ => run(&args),
    }
}

fn selftest() -> ExitCode {
    let (seen, failed_once) = runner::selftest(1);
    eprintln!(
        "selftest: {} check kinds, first check of each inverted",
        seen.len()
    );
    let mut vacuous = false;
    for kind in &seen {
        let caught = failed_once.contains(kind);
        vacuous |= !caught;
        eprintln!(
            "  {kind}: {}",
            if caught {
                "failed once, as it must"
            } else {
                "DID NOT FAIL"
            }
        );
    }
    if vacuous || seen.is_empty() {
        eprintln!("selftest: some check cannot fail");
        return ExitCode::from(SELFTEST_VACUOUS_CHECK);
    }
    eprintln!("selftest: every inverted expectation was reported as a failure");
    ExitCode::from(SELFTEST_CHECKS_CAN_FAIL)
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => usage(&e),
    }
}

fn run(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    // beside the sources, wherever the command was started from
    let mut out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (1..=60) and --trace (0|1) are all required");
    };
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return usage(&format!("unknown workload {workload}"));
    }

    let budget = Budget::full(seconds);
    let output = if trace {
        runner::traced(workload, seed, budget, Checks::default())
    } else {
        runner::untraced(workload, seed, budget, Checks::default())
    }
    .expect("the workload name was checked above");

    let env = Environment::detect();
    eprintln!(
        "workload {workload} seed {seed} seconds {seconds} trace {} nproc {} bench.threads {} {} commit {}",
        u8::from(trace), env.nproc, env.threads, env.rustc, env.git_commit
    );
    for (name, value) in &output.metrics {
        eprintln!(
            "{name:<40} {value:>18.6} {}",
            names::unit_of(name).unwrap_or("")
        );
    }
    for (kind, n) in &output.checks.failed_kinds {
        eprintln!("FAILED CHECK {kind}: {n}");
    }
    let record = RunRecord {
        workload,
        seed,
        seconds,
        trace,
        attempted: output.checks.attempted,
        failed: output.checks.failed,
        samples: &output.samples,
        metrics: &output.metrics,
    };
    if let Err(e) = write_files(&out_dir, &record.to_line(&env), &output, workload, seed) {
        eprintln!(
            "benchmark: could not write under {}: {e}",
            out_dir.display()
        );
    }
    println!(
        "{}",
        report::result_line(
            output.checks.attempted,
            output.checks.failed,
            &output.metrics
        )
    );
    ExitCode::SUCCESS
}

/// Appends the run record to `runs.jsonl` and, for a traced run, writes
/// the span file.
fn write_files(
    dir: &Path,
    record: &str,
    output: &runner::RunOutput,
    workload: &str,
    seed: u64,
) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let mut runs = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(runs, "{record}")?;
    if !output.spans.is_empty() {
        std::fs::write(
            dir.join(format!("trace-{workload}-seed{seed}.jsonl")),
            report::trace_lines(&output.spans),
        )?;
    }
    Ok(())
}
