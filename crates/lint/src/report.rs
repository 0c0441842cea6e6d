//! Finding and report types, plus the text renderer and the JSON string
//! escaping the SARIF renderer uses (the workspace has no serde).

use crate::rules::RULES;

/// One rule violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable rule id (see [`RULES`]).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// A parsed, well-formed `lint:allow` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// The code line the suppression covers.
    pub line: u32,
    /// The line the comment itself sits on.
    pub comment_line: u32,
    /// Rule id being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// Per-file analysis result.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Unsuppressed (live) findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by an audited `lint:allow`, with the matching
    /// suppression so reports can show the recorded reason.
    pub suppressed: Vec<(Finding, Suppression)>,
}

/// Whole-workspace analysis result.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of functions in the workspace call graph (0 when the
    /// interprocedural passes were not run).
    pub callgraph_fns: usize,
    /// Live findings across all files, in path order.
    pub findings: Vec<Finding>,
    /// Audited suppressions across all files, in path order.
    pub suppressed: Vec<(Finding, Suppression)>,
}

impl WorkspaceReport {
    /// Number of rules the analyzer enforces.
    pub fn rules_enforced(&self) -> usize {
        RULES.len()
    }

    /// Live findings under `rule`.
    pub fn count_findings(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Audited (suppressed) findings under `rule`.
    pub fn count_suppressed(&self, rule: &str) -> usize {
        self.suppressed.iter().filter(|(f, _)| f.rule == rule).count()
    }

    /// Restricts the report to a single rule (for `--only`).
    #[must_use]
    pub fn only_rule(mut self, rule: &str) -> WorkspaceReport {
        self.findings.retain(|f| f.rule == rule);
        self.suppressed.retain(|(f, _)| f.rule == rule);
        self
    }

    /// Human-readable report (one line per finding, then a summary).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "dsaudit-lint: {} file(s) scanned, {} fn(s) in call graph, {} rule(s), {} finding(s), {} audited suppression(s)\n",
            self.files_scanned,
            self.callgraph_fns,
            RULES.len(),
            self.findings.len(),
            self.suppressed.len()
        ));
        out
    }
}

/// JSON string escaping (quotes, backslashes, control characters) for
/// the SARIF renderer.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
