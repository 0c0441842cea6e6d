//! `dsaudit-lint`: repo-specific static analysis for the dsaudit
//! workspace.
//!
//! Three invariant classes in this codebase are *protocol* requirements,
//! not style preferences, and were previously enforced only by
//! convention:
//!
//! * **panic-freedom** — the wire/codec surfaces must survive adversarial
//!   bytes without aborting (any two verifiers must reach a verdict);
//! * **determinism** — the simulator, chain, storage and contract crates must be
//!   byte-for-byte reproducible from a seed (verdict agreement dies the
//!   moment iteration order differs between verifiers);
//! * **secret-hygiene** — secret key material must not be formattable,
//!   and annotated crypto hot paths must not branch on secret data.
//!
//! This crate walks every workspace `.rs` file with a hand-rolled,
//! comment/string/raw-string-aware lexer (no `syn`; the build
//! environment is offline) and enforces the rule catalogue in
//! `docs/LINTS.md`. Findings carry `file:line`, a stable rule id and a
//! fix hint; intentional exceptions are audited in place via
//! `lint:allow(<rule>)` comments that must carry a reason.
//!
//! Shipped three ways: the `dsaudit-lint` binary (nonzero exit on
//! findings, `--json` for machine-readable reports), the
//! `workspace_clean` integration test (so `cargo test` is a gate), and a
//! CI step.

#![forbid(unsafe_code)]

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
pub mod sarif;

use std::path::{Path, PathBuf};

pub use report::{FileReport, Finding, Suppression, WorkspaceReport};
pub use rules::{analyze_source, RuleInfo, RULES};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github"];

/// Collects every `.rs` file under `root` (skipping [`SKIP_DIRS`]),
/// sorted for deterministic reports.
fn rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads every workspace `.rs` file under `root` as
/// `(relative_path, lexed, ast)` triples — the shared input of the
/// token rules, the call graph, and the differential parser gate.
///
/// # Errors
/// Propagates I/O errors from the directory walk or file reads.
pub fn parse_workspace(root: &Path) -> std::io::Result<Vec<(String, lexer::Lexed, ast::Ast)>> {
    let mut out = Vec::new();
    for path in rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        let lexed = lexer::lex(&src);
        let ast = parser::parse(&lexed);
        out.push((rel, lexed, ast));
    }
    Ok(out)
}

/// Analyzes every workspace `.rs` file under `root`: the per-file
/// token rules, then the workspace call graph and the five
/// interprocedural passes (panic-reachability, secret-taint,
/// ct-closure, deadline, obs-purity) with `lint.toml` suppressions
/// applied.
///
/// `root` should be the workspace root (the directory holding the
/// top-level `Cargo.toml`); paths in findings are reported relative to
/// it with `/` separators, which is also what zone membership keys on.
///
/// # Errors
/// Propagates I/O errors from the directory walk or file reads.
pub fn analyze_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    let files = parse_workspace(root)?;

    // Per-file token rules (re-lexes via analyze_source to keep its
    // signature; lexing is a few ms for the whole tree).
    for (rel, _, _) in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let file_report = analyze_source(rel, &src);
        report.files_scanned += 1;
        report.findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
    }

    // Interprocedural passes over the workspace call graph.
    let graph = callgraph::CallGraph::build(&files);
    report.callgraph_fns = graph.fns.len();
    let (cfg, mut cfg_findings) = config::LintConfig::load(root);
    for pass in [
        passes::panic_reachability(&graph, &cfg),
        passes::secret_taint(&graph, &cfg),
        passes::ct_closure(&graph, &cfg),
        passes::deadline(&graph, &cfg),
        passes::obs_purity(&graph, &cfg),
    ] {
        report.findings.extend(pass.findings);
        report.suppressed.extend(pass.suppressed);
    }
    report.findings.append(&mut cfg_findings);
    report.findings.extend(cfg.unused_findings());

    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}
