//! SARIF 2.1.0 output — the interchange format CI systems turn into
//! inline code annotations. Hand-rolled JSON like the rest of the
//! workspace (no serde in the offline build environment).
//!
//! The emitted document is the minimal conforming subset: one run,
//! a `tool.driver` carrying the rule catalogue, one `result` per
//! finding with a `physicalLocation` region, and suppressed findings
//! included with `suppressions[]` entries carrying the audit reason
//! (SARIF viewers render those as dismissed).

use crate::report::{json_str, Finding, WorkspaceReport};
use crate::rules::RULES;

/// Renders the workspace report as a SARIF 2.1.0 document.
pub fn render_sarif(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"dsaudit-lint\",\n");
    out.push_str("          \"informationUri\": \"docs/LINTS.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            json_str(r.id),
            json_str(r.summary),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let total = report.findings.len() + report.suppressed.len();
    let mut emitted = 0usize;
    for f in &report.findings {
        emitted += 1;
        out.push_str(&result_json(f, None, emitted < total));
    }
    for (f, s) in &report.suppressed {
        emitted += 1;
        out.push_str(&result_json(f, Some(&s.reason), emitted < total));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn result_json(f: &Finding, suppressed_reason: Option<&str>, comma: bool) -> String {
    let mut s = String::from("        {\n");
    s.push_str(&format!("          \"ruleId\": {},\n", json_str(f.rule)));
    s.push_str(&format!(
        "          \"level\": {},\n",
        json_str(if suppressed_reason.is_some() { "note" } else { "error" })
    ));
    s.push_str(&format!(
        "          \"message\": {{\"text\": {}}},\n",
        json_str(&format!("{} — hint: {}", f.message, f.hint))
    ));
    s.push_str(&format!(
        "          \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]",
        json_str(&f.file),
        f.line.max(1)
    ));
    if let Some(reason) = suppressed_reason {
        s.push_str(&format!(
            ",\n          \"suppressions\": [{{\"kind\": \"inSource\", \"justification\": {}}}]",
            json_str(reason)
        ));
    }
    s.push_str("\n        }");
    s.push_str(if comma { ",\n" } else { "\n" });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Suppression;

    #[test]
    fn sarif_structure_and_balance() {
        let rep = WorkspaceReport {
            files_scanned: 1,
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: "panic-reachability",
                message: "panic reachable from `verify`".into(),
                hint: "fix it",
            }],
            suppressed: vec![(
                Finding {
                    file: "crates/y/src/lib.rs".into(),
                    line: 3,
                    rule: "ct-closure",
                    message: "non-ct call".into(),
                    hint: "audit",
                },
                Suppression {
                    line: 3,
                    comment_line: 3,
                    rule: "ct-closure".into(),
                    reason: "word ops only".into(),
                },
            )],
            ..WorkspaceReport::default()
        };
        let s = render_sarif(&rep);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"dsaudit-lint\""));
        assert!(s.contains("\"ruleId\": \"panic-reachability\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("\"justification\": \"word ops only\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        // every rule in the catalogue is declared
        for r in RULES {
            assert!(s.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
        }
    }

    #[test]
    fn sarif_is_balanced_and_escaped() {
        let rep = WorkspaceReport {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 0,
                rule: "no-panic",
                message: "quote \" backslash \\ newline \n".into(),
                hint: "h",
            }],
            ..WorkspaceReport::default()
        };
        let s = render_sarif(&rep);
        assert!(s.contains("quote \\\" backslash \\\\ newline \\n"), "{s}");
        // SARIF lines are 1-based
        assert!(s.contains("\"startLine\": 1"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
