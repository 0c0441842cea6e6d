//! The `dsaudit-lint` binary: run from anywhere in the workspace with
//! `cargo run -p dsaudit-lint`. Exits nonzero when unsuppressed findings
//! exist; `--sarif` switches to the machine-readable SARIF report.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: dsaudit-lint [OPTIONS] [WORKSPACE_ROOT]
  --sarif          SARIF 2.1.0 report (for CI annotations)
  --only <rule>    restrict output to one rule id
  --list-rules     print the rule catalogue and exit
  --help           this text
exits 0 when the workspace has zero unsuppressed findings";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-rules") {
        for r in dsaudit_lint::RULES {
            println!("{:<20} {}", r.id, r.summary.split_whitespace().collect::<Vec<_>>().join(" "));
        }
        return ExitCode::SUCCESS;
    }
    let sarif = args.iter().any(|a| a == "--sarif");
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(rule) = &only {
        if !dsaudit_lint::RULES.iter().any(|r| r.id == rule) {
            eprintln!("dsaudit-lint: unknown rule `{rule}` (see --list-rules)");
            return ExitCode::from(2);
        }
    }
    // explicit root > the workspace this binary was built from > cwd
    let mut positional = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--only" {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            positional.push(a.clone());
        }
    }
    let root: PathBuf = positional.first().map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    match dsaudit_lint::analyze_workspace(&root) {
        Ok(report) => {
            let report = match &only {
                Some(rule) => report.only_rule(rule),
                None => report,
            };
            if sarif {
                print!("{}", dsaudit_lint::sarif::render_sarif(&report));
            } else {
                print!("{}", report.render_text());
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dsaudit-lint: cannot analyze {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
