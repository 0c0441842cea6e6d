//! All five workloads at about 1/50 of full scale, through the library
//! and through the command line: the names match `BENCHMARK.json`, exact
//! counts repeat, what is written parses, and the checks can fail.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use dsaudit_benchmark::harness::{Budget, Checks};
use dsaudit_benchmark::json::{self, Value};
use dsaudit_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS};
use dsaudit_benchmark::runner;

const SEED: u64 = 20_200_713;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {entry:?}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is not a list"))
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_the_names_the_code_defines() {
    let doc = benchmark_json();

    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let defined: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, defined);
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

    let listed: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .expect("every end-to-end metric has a bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let defined: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
        .collect();
    assert_eq!(listed, defined);
    assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let listed: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let defined: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    assert_eq!(listed, defined);
    assert!(PER_LAYER.len() <= 128);

    let mut names = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(well_formed(name), "`{name}` is not a well-formed name");
        assert!(names.insert(name), "`{name}` is used twice");
    }

    assert_eq!(
        entries(&doc, "paths")
            .iter()
            .filter_map(Value::as_str)
            .collect::<Vec<_>>(),
        ["benchmark"]
    );
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command.first(), Some(&"cargo"));
    assert!(command.contains(&"benchmark/Cargo.toml"));
}

#[test]
fn untraced_runs_report_the_end_to_end_list_on_every_workload() {
    for workload in &WORKLOADS {
        let output = runner::untraced(workload.name, SEED, Budget::smoke(), Checks::default())
            .expect("a defined workload runs");
        let names: Vec<&str> = output.metrics.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(
            output.checks.failed, 0,
            "{}: {:?}",
            workload.name, output.checks.failed_kinds
        );
        assert!(output.checks.attempted > 0);
        assert!(output.spans.is_empty());
        for (name, value) in &output.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name
            );
        }
        let detected = output
            .metrics
            .iter()
            .find(|(name, _)| *name == "detected_share");
        assert_eq!(detected.map(|(_, v)| *v), Some(1.0), "{}", workload.name);
    }
}

#[test]
fn traced_runs_repeat_every_exact_count_and_tile_their_rounds() {
    let workload = "backend_lanes";
    let first = runner::traced(workload, SEED, Budget::smoke(), Checks::default()).expect("runs");
    let again = runner::traced(workload, SEED, Budget::smoke(), Checks::default()).expect("runs");

    let names: Vec<&str> = first.metrics.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(first.checks.failed, 0, "{:?}", first.checks.failed_kinds);
    assert_eq!(first.checks.attempted, again.checks.attempted);

    for ((metric, (_, a)), (_, b)) in PER_LAYER.iter().zip(&first.metrics).zip(&again.metrics) {
        assert!(a.is_finite(), "{} = {a}", metric.name);
        if metric.is_exact() {
            assert_eq!(a, b, "{} must repeat for the same seed", metric.name);
        }
    }
    let value = |name: &str| {
        first
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(value("core.proof_bytes"), Some(288.0));
    assert_eq!(value("bench.failed_share"), Some(0.0));
    assert!(value("bench.unattributed_share").is_some_and(|share| share <= 0.05));

    // every workload and the probes left spans, each inside its parent
    let sources: Vec<&str> = first.spans.iter().map(|(source, _)| *source).collect();
    assert_eq!(sources.len(), WORKLOADS.len() + 1);
    for (source, spans) in &first.spans {
        assert!(!spans.is_empty(), "{source} recorded nothing");
        for span in spans {
            assert!(span.end_ns >= span.start_ns);
            if let Some(parent) = span.parent {
                let parent = &spans[parent];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                assert_eq!(parent.round, span.round);
            }
        }
    }
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dsaudit-benchmark"))
        .args(args)
        .output()
        .expect("the binary starts")
}

#[test]
fn command_line_prints_a_result_and_writes_a_trace_that_parse() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let dir = out_dir.to_str().expect("the temp dir is UTF-8");

    for (trace, list_len) in [("0", END_TO_END.len()), ("1", PER_LAYER.len())] {
        let run = run_cli(&[
            "--workload",
            "sim_faulty",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--out-dir",
            dir,
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("UTF-8");
        let result =
            json::parse(stdout.lines().last().expect("a result line")).expect("the result parses");
        let keys: Vec<&str> = result
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|n| n >= 1.0));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), list_len);
        for (name, entry) in metrics {
            assert!(
                entry.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
            assert!(
                entry.get("unit").and_then(Value::as_str).is_some(),
                "{name}"
            );
        }
    }

    let trace = std::fs::read_to_string(out_dir.join("trace-sim_faulty-seed5.jsonl"))
        .expect("the span file");
    assert!(trace.lines().count() > 100);
    for line in trace.lines() {
        let span = json::parse(line).expect("every span line parses");
        for key in [
            "workload", "id", "name", "layer", "start_ns", "end_ns", "parent", "round",
        ] {
            assert!(span.get(key).is_some(), "span without `{key}`: {line}");
        }
    }
    let runs = std::fs::read_to_string(out_dir.join("runs.jsonl")).expect("the run records");
    assert_eq!(runs.lines().count(), 2);
    for line in runs.lines() {
        let record = json::parse(line).expect("every run record parses");
        for key in [
            "workload",
            "seed",
            "nproc",
            "bench.threads",
            "rustc",
            "git_commit",
            "samples",
            "metrics",
        ] {
            assert!(record.get(key).is_some(), "record without `{key}`");
        }
    }

    let compared = run_cli(&[
        "--compare",
        out_dir.join("runs.jsonl").to_str().expect("UTF-8"),
        out_dir.join("runs.jsonl").to_str().expect("UTF-8"),
    ]);
    assert!(compared.status.success());
    let table = String::from_utf8(compared.stdout).expect("UTF-8");
    assert!(
        table.contains("round_ms_p50") && table.contains("inside"),
        "{table}"
    );
}

#[test]
fn selftest_exits_non_zero_because_every_check_kind_can_fail() {
    let run = run_cli(&["--selftest"]);
    let report = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{report}");
    assert!(run.stdout.is_empty());
    assert!(
        report
            .lines()
            .filter(|line| line.ends_with("failed once, as it must"))
            .count()
            >= 30,
        "{report}"
    );
    assert!(!report.contains("DID NOT FAIL"), "{report}");
}

#[test]
fn command_line_refuses_what_it_cannot_run() {
    for args in [
        &[
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "sim_faulty", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "sim_faulty",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--compare", "only-one.jsonl"][..],
    ] {
        let run = run_cli(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
