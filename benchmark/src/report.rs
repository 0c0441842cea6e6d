//! What a run leaves behind: the result line the driver reads, one
//! record per run appended to `runs.jsonl`, the span file of a traced
//! run, and the comparison of two record files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::{median, Span};
use crate::json::{self, quote, Value};
use crate::names::{self, Better, END_TO_END};

/// A metric value as JSON: every digit the measurement has. A value that
/// is not finite cannot be written as a number and reads as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn metrics_object(metrics: &[(&'static str, f64)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = names::unit_of(name).unwrap_or("");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&'static str, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted,
        failed,
        metrics_object(metrics)
    )
}

/// Where and on what the run happened, recorded beside the values.
#[derive(Clone, Debug)]
pub struct Environment {
    /// `available_parallelism()`.
    pub nproc: usize,
    /// Threads `algebra::par` uses.
    pub threads: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Environment {
    /// Looks the environment up; nothing here can fail the run.
    pub fn detect() -> Self {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            threads: dsaudit_algebra::par::num_threads(),
            rustc,
            git_commit: git_head().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The commit the repo around this package has checked out.
fn git_head() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// One finished run, as appended to `runs.jsonl`.
#[derive(Clone, Debug)]
pub struct RunRecord<'a> {
    /// The `--workload` argument.
    pub workload: &'a str,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--seconds` argument.
    pub seconds: u64,
    /// The `--trace` argument.
    pub trace: bool,
    /// Ground-truth checks performed.
    pub attempted: u64,
    /// Ground-truth checks that missed.
    pub failed: u64,
    /// How many samples stand behind the medians.
    pub samples: &'a BTreeMap<&'static str, u64>,
    /// Metric values.
    pub metrics: &'a [(&'static str, f64)],
}

impl RunRecord<'_> {
    /// The record as one line of JSON.
    pub fn to_line(&self, env: &Environment) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, n)| format!("{}: {n}", quote(name)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"bench.threads\": {}, \"rustc\": {}, \"git_commit\": {}, \"attempted\": {}, \
             \"failed\": {}, \"samples\": {{{}}}, \"metrics\": {}}}",
            quote(self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            env.nproc,
            env.threads,
            quote(&env.rustc),
            quote(&env.git_commit),
            self.attempted,
            self.failed,
            samples.join(", "),
            metrics_object(self.metrics),
        )
    }
}

/// The spans of a traced run as JSONL: one object per span with its id,
/// name, layer, start, end, parent, round id and workload.
pub fn trace_lines(spans: &[(&'static str, Vec<Span>)]) -> String {
    let mut out = String::new();
    for (workload, spans) in spans {
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": {}, \"id\": {id}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"round\": {}, \"measured\": {}}}",
                quote(workload),
                quote(span.name),
                quote(span.layer()),
                span.start_ns,
                span.end_ns,
                span.round,
                span.measured,
            );
        }
    }
    out
}

/// Values per `(workload, metric)` over the records of one file.
fn collect(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// Compares two record files: per workload and metric, both medians,
/// the ratio B/A with A as its base, and whether B is inside the
/// metric's bound.
pub fn compare(a_text: &str, b_text: &str) -> Result<String, String> {
    let a = collect(a_text)?;
    let b = collect(b_text)?;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<16} {:<36} {:>14} {:>4} {:>14} {:>4} {:>16} bound",
        "workload", "metric", "median A", "n", "median B", "n", "B/A (base A)"
    );
    for ((workload, metric), a_values) in &a {
        let Some(b_values) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(a_values), median(b_values));
        let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
        let verdict = match END_TO_END.iter().find(|m| m.name == metric) {
            None => "-".to_string(),
            Some(m) => {
                // how much worse B is than A, as a share of A
                let worse = match m.better {
                    Better::Lower => (mb - ma) / ma,
                    Better::Higher => (ma - mb) / ma,
                };
                let inside = worse <= m.bound;
                format!(
                    "{} (worse by {:+.4}, bound {})",
                    if inside { "inside" } else { "OUTSIDE" },
                    worse,
                    m.bound
                )
            }
        };
        let _ = writeln!(
            table,
            "{workload:<16} {metric:<36} {ma:>14.6} {:>4} {mb:>14.6} {:>4} {ratio:>16.4} {verdict}",
            a_values.len(),
            b_values.len()
        );
    }
    Ok(table)
}
