//! `lint.toml`: audited suppressions for the interprocedural passes.
//!
//! Pass findings (panic-reachability, secret-taint, ct-closure) are
//! whole-program properties — there is no single line an inline
//! `lint:allow` could sit on — so their allow-list lives in a file at
//! the workspace root, one `[[allow]]` table per audit:
//!
//! ```toml
//! [[allow]]
//! rule = "panic-reachability"
//! fn = "Fq12::mul"                # or `file = "crates/algebra/src/fp12.rs"`
//! reason = "divisor is the fixed nonzero modulus"
//! ```
//!
//! `rule` and `reason` are mandatory; exactly one of `fn` (a
//! `Type::name` qualified name or a bare fn name) or `file` (a
//! workspace-relative path) selects the target. Malformed or unused
//! entries are findings under the `suppression` meta-rule — the
//! allow-list must stay exact, or audits rot.
//!
//! The parser handles exactly the subset above (`[[allow]]` headers,
//! `key = "string"` pairs, `#` comments); it is not a general TOML
//! implementation, by design — the build environment is offline and
//! the format is ours.

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::report::{Finding, Suppression};

/// One `[[allow]]` entry.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    /// 1-based line of the `[[allow]]` header.
    pub line: u32,
    /// Rule id being allowed.
    pub rule: String,
    /// Target function: `Type::name` or a bare name.
    pub fn_name: Option<String>,
    /// Target file (workspace-relative, `/` separators).
    pub file: Option<String>,
    /// The mandatory justification.
    pub reason: String,
}

/// Parsed allow-list plus usage tracking.
#[derive(Debug, Default)]
pub struct LintConfig {
    /// Well-formed entries, in file order.
    pub entries: Vec<AllowEntry>,
    /// Indices of entries that matched at least one finding.
    used: RefCell<BTreeSet<usize>>,
}

/// Rules whose findings may be suppressed via `lint.toml`.
const TOML_RULES: &[&str] = &["panic-reachability", "secret-taint", "ct-closure"];

impl LintConfig {
    /// Parses `lint.toml` source. Malformed entries become findings
    /// (attributed to `path`) and are dropped from the allow-list.
    pub fn parse(src: &str, path: &str) -> (LintConfig, Vec<Finding>) {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut findings = Vec::new();
        let mut current: Option<AllowEntry> = None;

        let finish = |entry: Option<AllowEntry>, findings: &mut Vec<Finding>, entries: &mut Vec<AllowEntry>| {
            let Some(e) = entry else { return };
            let problem = if e.rule.is_empty() {
                Some("missing `rule`".to_string())
            } else if !TOML_RULES.contains(&e.rule.as_str()) {
                Some(format!(
                    "unknown or non-toml rule `{}` (lint.toml covers: {})",
                    e.rule,
                    TOML_RULES.join(", ")
                ))
            } else if e.reason.trim().is_empty() {
                Some("missing `reason`".to_string())
            } else if e.fn_name.is_none() && e.file.is_none() {
                Some("needs a `fn` or `file` target".to_string())
            } else {
                None
            };
            match problem {
                Some(p) => findings.push(Finding {
                    file: path.to_string(),
                    line: e.line,
                    rule: "suppression",
                    message: format!("malformed [[allow]] entry: {p}"),
                    hint: "each [[allow]] needs rule = \"...\", reason = \"...\", and fn/file",
                }),
                None => entries.push(e),
            }
        };

        for (i, raw) in src.lines().enumerate() {
            let lineno = (i + 1) as u32;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                finish(current.take(), &mut findings, &mut entries);
                current = Some(AllowEntry {
                    line: lineno,
                    ..AllowEntry::default()
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                findings.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule: "suppression",
                    message: format!("unparseable lint.toml line: `{raw}`"),
                    hint: "only [[allow]] tables with string key = \"value\" pairs are supported",
                });
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string);
            let (Some(entry), Some(value)) = (current.as_mut(), value) else {
                findings.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule: "suppression",
                    message: format!("key outside [[allow]] or non-string value: `{raw}`"),
                    hint: "only [[allow]] tables with string key = \"value\" pairs are supported",
                });
                continue;
            };
            match key {
                "rule" => entry.rule = value,
                "fn" => entry.fn_name = Some(value),
                "file" => entry.file = Some(value),
                "reason" => entry.reason = value,
                other => findings.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule: "suppression",
                    message: format!("unknown lint.toml key `{other}`"),
                    hint: "valid keys: rule, fn, file, reason",
                }),
            }
        }
        finish(current.take(), &mut findings, &mut entries);

        (
            LintConfig {
                entries,
                used: RefCell::new(BTreeSet::new()),
            },
            findings,
        )
    }

    /// Loads `lint.toml` from the workspace root; a missing file is an
    /// empty allow-list, not an error.
    pub fn load(root: &std::path::Path) -> (LintConfig, Vec<Finding>) {
        match std::fs::read_to_string(root.join("lint.toml")) {
            Ok(src) => LintConfig::parse(&src, "lint.toml"),
            Err(_) => (LintConfig::default(), Vec::new()),
        }
    }

    /// Finds an allow entry covering (`rule`, fn `qname`/`bare` in
    /// `file`) and marks it used. Returns a [`Suppression`] carrying
    /// the audit reason.
    pub fn match_allow(
        &self,
        rule: &str,
        qname: &str,
        bare: &str,
        file: &str,
    ) -> Option<Suppression> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule != rule {
                continue;
            }
            let hit = match (&e.fn_name, &e.file) {
                (Some(f), _) => f == qname || f == bare,
                (None, Some(p)) => p == file,
                (None, None) => false,
            };
            if hit {
                self.used.borrow_mut().insert(i);
                return Some(Suppression {
                    line: e.line,
                    comment_line: e.line,
                    rule: e.rule.clone(),
                    reason: e.reason.clone(),
                });
            }
        }
        None
    }

    /// Findings for entries that matched nothing this run — stale
    /// audits are removed, not accumulated.
    pub fn unused_findings(&self) -> Vec<Finding> {
        let used = self.used.borrow();
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, e)| Finding {
                file: "lint.toml".to_string(),
                line: e.line,
                rule: "suppression",
                message: format!(
                    "unused [[allow]] entry for rule `{}` ({}): it matched no finding",
                    e.rule,
                    e.fn_name
                        .as_deref()
                        .map(|f| format!("fn = \"{f}\""))
                        .unwrap_or_else(|| format!(
                            "file = \"{}\"",
                            e.file.as_deref().unwrap_or("")
                        )),
                ),
                hint: "delete stale allow entries so the audit list stays exact",
            })
            .collect()
    }
}

/// Strips a `#` comment, ignoring `#` characters inside a quoted
/// string (reasons routinely quote code or doc headings).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_inside_quoted_reason_is_not_a_comment() {
        let src = "[[allow]]\nrule = \"panic-reachability\"\nfile = \"a.rs\"\nreason = \"documented # Panics contract\" # trailing comment\n";
        let (cfg, findings) = LintConfig::parse(src, "lint.toml");
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(cfg.entries[0].reason, "documented # Panics contract");
    }

    #[test]
    fn parses_well_formed_entries() {
        let src = "# audited allows\n\n[[allow]]\nrule = \"panic-reachability\"\nfn = \"Fq12::mul\"\nreason = \"divisor is the fixed modulus\"\n\n[[allow]]\nrule = \"ct-closure\"\nfile = \"crates/algebra/src/fp.rs\"\nreason = \"word-level ops only\"\n";
        let (cfg, findings) = LintConfig::parse(src, "lint.toml");
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(cfg.entries.len(), 2);
        assert_eq!(cfg.entries[0].fn_name.as_deref(), Some("Fq12::mul"));
        assert_eq!(cfg.entries[1].file.as_deref(), Some("crates/algebra/src/fp.rs"));
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let src = "[[allow]]\nrule = \"secret-taint\"\nfn = \"f\"\n";
        let (cfg, findings) = LintConfig::parse(src, "lint.toml");
        assert!(cfg.entries.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression");
        assert!(findings[0].message.contains("reason"));
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let src = "[[allow]]\nrule = \"no-such-rule\"\nfn = \"f\"\nreason = \"x\"\n";
        let (_, findings) = LintConfig::parse(src, "lint.toml");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn token_rules_are_rejected_from_toml() {
        // inline lint:allow remains the only channel for token rules
        let src = "[[allow]]\nrule = \"no-panic\"\nfn = \"f\"\nreason = \"x\"\n";
        let (_, findings) = LintConfig::parse(src, "lint.toml");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn matching_marks_used_and_unused_reports() {
        let src = "[[allow]]\nrule = \"ct-closure\"\nfn = \"mul\"\nreason = \"r\"\n\n[[allow]]\nrule = \"ct-closure\"\nfn = \"never_called\"\nreason = \"r\"\n";
        let (cfg, _) = LintConfig::parse(src, "lint.toml");
        let s = cfg.match_allow("ct-closure", "Fq::mul", "mul", "a.rs");
        assert!(s.is_some());
        assert_eq!(s.expect("matched").reason, "r");
        assert!(cfg.match_allow("secret-taint", "Fq::mul", "mul", "a.rs").is_none());
        let unused = cfg.unused_findings();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("never_called"));
    }
}
