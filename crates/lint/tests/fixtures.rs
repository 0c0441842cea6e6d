//! Fixture tests: for every rule, at least one firing and one
//! non-firing source, plus the lexer edge cases that would turn a
//! text-match linter into a false-positive machine.

use dsaudit_lint::callgraph::CallGraph;
use dsaudit_lint::config::LintConfig;
use dsaudit_lint::lexer::lex;
use dsaudit_lint::parser::parse;
use dsaudit_lint::passes::panic_reachability;
use dsaudit_lint::{analyze_files, analyze_source, RULES};

/// Rules of the live (unsuppressed) findings for `src` analyzed at `path`.
fn live_rules(path: &str, src: &str) -> Vec<&'static str> {
    analyze_source(path, src)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect()
}

/// Rules of the live findings for `files` run through every rule and
/// pass, as `analyze_workspace` runs them, with an empty `lint.toml`.
fn workspace_rules(files: &[(&str, &str)]) -> Vec<&'static str> {
    let parsed: Vec<_> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src);
            let ast = parse(&lexed);
            ((*path).to_string(), lexed, ast)
        })
        .collect();
    let report = analyze_files(&parsed, LintConfig::parse("", "lint.toml"));
    report.findings.iter().map(|f| f.rule).collect()
}

/// One planted defect per rule: `(rule id, files)`. Each fires its rule
/// and no other.
const PLANTED: &[(&str, &[(&str, &str)])] = &[
    ("no-panic", &[("crates/core/src/codec.rs", "pub fn read(r: &R) -> u8 { r.next().unwrap() }")]),
    ("no-index", &[("crates/core/src/codec.rs", "pub fn first(b: &[u8]) -> u8 { b[0] }")]),
    ("determinism", &[("crates/sim/src/engine.rs", "use std::collections::HashMap;")]),
    (
        "ct-branch",
        &[("crates/crypto/src/prf.rs", "// lint:ct\nfn f(x: u64) -> u64 { if x > 0 { 1 } else { 0 } }")],
    ),
    (
        "decode-bounds",
        &[(
            "crates/core/src/tag.rs",
            "fn decode_from(r: &mut R) -> Result<V, E> {\n    let n = r.u32_le(\"n\")? as usize;\n    Ok(Vec::with_capacity(n))\n}",
        )],
    ),
    ("suppression", &[("crates/core/src/misc.rs", "// lint:allow(no-such-rule) — reason\nfn f() {}")]),
    (
        "panic-reachability",
        &[(
            "crates/x/src/lib.rs",
            "fn verify_thing(v: &[u8]) -> bool { helper(v) }\nfn helper(v: &[u8]) -> bool { v[0] == 1 }",
        )],
    ),
    (
        "secret-taint",
        &[("crates/x/src/lib.rs", "struct HmacKey;\nfn bad(key: &HmacKey) { println!(\"{:?}\", key); }")],
    ),
    (
        "ct-closure",
        &[(
            "crates/x/src/lib.rs",
            "// lint:ct\nfn kernel(x: u64) -> u64 { helper(x) }\nfn helper(x: u64) -> u64 { x.wrapping_mul(3) }",
        )],
    ),
    (
        "obs-purity",
        &[
            ("crates/obs/src/lib.rs", "pub fn span(name: &str) -> Span { Span }\npub struct Span;"),
            (
                "crates/x/src/lib.rs",
                "fn verify_thing() -> bool { let guard = dsaudit_obs::span(\"x\"); helper(&guard) }\n\
                 fn helper(_g: &Span) -> bool { true }",
            ),
        ],
    ),
];

/// Every rule shows a true finding: its planted defect fires it and no
/// other rule. A rule without a planted defect fails here.
#[test]
fn every_rule_fires_on_its_planted_defect_alone() {
    for rule in RULES {
        let (_, files) = PLANTED
            .iter()
            .find(|(id, _)| *id == rule.id)
            .unwrap_or_else(|| panic!("rule `{}` has no planted defect", rule.id));
        assert_eq!(workspace_rules(files), [rule.id], "planted defect of `{}`", rule.id);
    }
    assert_eq!(PLANTED.len(), RULES.len(), "a planted defect names no rule");
}

// --- no-panic --------------------------------------------------------------

#[test]
fn no_panic_fires_in_a_panic_free_file() {
    let src = "pub fn read(r: &R) -> u8 { r.next().unwrap() }";
    assert_eq!(live_rules("crates/core/src/codec.rs", src), ["no-panic"]);
    let src = "pub fn read(r: &R) -> u8 { r.next().expect(\"byte\") }";
    assert_eq!(live_rules("crates/storage/src/wire.rs", src), ["no-panic"]);
    let src = "pub fn read() { panic!(\"boom\") }";
    assert_eq!(live_rules("crates/storage/src/erasure.rs", src), ["no-panic"]);
    let src = "pub fn read() { todo!() }";
    assert_eq!(live_rules("crates/core/src/codec.rs", src), ["no-panic"]);
}

#[test]
fn no_panic_fires_inside_codec_impls_anywhere() {
    let src = "impl Codec for Foo {\n    fn decode_from(r: &mut R) -> Foo { r.next().unwrap() }\n}";
    assert_eq!(live_rules("crates/anywhere/src/thing.rs", src), ["no-panic"]);
}

#[test]
fn no_panic_silent_outside_zones_and_in_tests() {
    let src = "pub fn read(r: &R) -> u8 { r.next().unwrap() }";
    assert!(live_rules("crates/sim/src/engine.rs", src).is_empty());
    // #[cfg(test)] items inside a zone file are exempt
    let src = "#[cfg(test)]\nmod tests {\n    fn t(r: &R) { r.next().unwrap(); }\n}";
    assert!(live_rules("crates/core/src/codec.rs", src).is_empty());
    // tests/-directory files are exempt wholesale
    let src = "fn t(r: &R) { r.next().unwrap(); }";
    assert!(live_rules("crates/core/tests/proptests.rs", src).is_empty());
    // `unwrap` that is not a `.unwrap()` call (a local fn) does not fire
    let src = "fn unwrap_layers(x: u8) -> u8 { unwrap(x) }\nfn unwrap(x: u8) -> u8 { x }";
    assert!(live_rules("crates/core/src/codec.rs", src).is_empty());
}

/// Why `no-panic` is not subsumed by `panic-reachability`: `encode_into`
/// is no entry point of the pass, so the pass never reports its
/// `.unwrap()`, with or without an allow. The token rule does. (A
/// file-level allow, which `lint.toml` still accepts, would also
/// discharge a site that an entry point does reach.)
#[test]
fn no_panic_catches_what_a_file_level_reachability_allow_discharges() {
    let path = "crates/core/src/keys.rs";
    let src = "impl Codec for PublicKey {\n\
               \x20   fn encode_into(&self, out: &mut Vec<u8>) { out.push(self.x.checked().unwrap()); }\n\
               \x20   fn decode_from(r: &mut R) -> Result<Self, E> { self_check(r); Ok(PublicKey) }\n\
               }\n\
               fn self_check(r: &mut R) { r.first().expect(\"byte\"); }\n";
    let rep = analyze_source(path, src);
    assert_eq!(
        rep.findings.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
        [(2, "no-panic")]
    );

    let lexed = lex(src);
    let ast = parse(&lexed);
    let graph = CallGraph::build(&[(path.to_string(), lexed, ast)]);
    // without an allow the pass sees only the decode_from chain
    let (bare, _) = LintConfig::parse("", "lint.toml");
    let pass = panic_reachability(&graph, &bare);
    assert_eq!(pass.findings.len(), 1);
    assert!(pass.findings[0].message.contains("PublicKey::decode_from -> self_check"));
    // the file-level allow discharges it; the encode_into site stays
    // visible to no-panic alone
    let toml = "[[allow]]\nrule = \"panic-reachability\"\nfile = \"crates/core/src/keys.rs\"\nreason = \"fixture\"\n";
    let (cfg, bad) = LintConfig::parse(toml, "lint.toml");
    assert!(bad.is_empty());
    let pass = panic_reachability(&graph, &cfg);
    assert!(pass.findings.is_empty());
    assert_eq!(pass.suppressed.len(), 2, "one audit record per fn with sites");
}

// --- no-index --------------------------------------------------------------

#[test]
fn no_index_fires_on_postfix_indexing() {
    let src = "pub fn first(b: &[u8]) -> u8 { b[0] }";
    assert_eq!(live_rules("crates/core/src/codec.rs", src), ["no-index"]);
    // indexing a call result and chained indexing
    let src = "pub fn f(m: &M) -> u8 { m.rows()[1] }";
    assert_eq!(live_rules("crates/storage/src/wire.rs", src), ["no-index"]);
}

#[test]
fn no_index_ignores_attributes_literals_and_types() {
    let src = "#[derive(Clone)]\npub struct A;\nconst B: [u8; 4] = [0; 4];\npub fn f(x: &mut [u8], v: Vec<u8>) -> Vec<u8> { vec![0u8; 3] }";
    assert!(live_rules("crates/core/src/codec.rs", src).is_empty());
    // array literals after a keyword are literals, not indexing
    for body in [
        "for b in [1u8, 2] { let _ = b; }",
        "return [0u8; 2];",
        "match [x, 1] { _ => {} }",
    ] {
        let src = format!("pub fn f(x: u8) {{ {body} }}");
        assert!(live_rules("crates/core/src/codec.rs", &src).is_empty(), "{body}");
    }
    // indexing outside the zones is fine (erasure kernels, sim, ...)
    let src = "pub fn first(b: &[u8]) -> u8 { b[0] }";
    assert!(live_rules("crates/storage/src/erasure.rs", src).is_empty());
}

// --- determinism -----------------------------------------------------------

#[test]
fn determinism_fires_in_deterministic_trees() {
    let src = "use std::collections::HashMap;";
    assert_eq!(live_rules("crates/sim/src/engine.rs", src), ["determinism"]);
    let src = "fn now() -> Instant { Instant::now() }";
    assert_eq!(live_rules("crates/chain/src/chain.rs", src), ["determinism"]);
    let src = "fn s() { let _ = SystemTime::now(); }";
    assert_eq!(live_rules("crates/storage/src/network.rs", src), ["determinism"]);
    // contract gas is metered at a declared cost, never a clock reading
    let src = "fn gas() { let t0 = std::time::Instant::now(); }";
    assert_eq!(live_rules("crates/contract/src/audit_contract.rs", src), ["determinism"]);
    // any Date-like identifier counts
    let src = "fn d() { let _ = LocalDate::today(); }";
    assert_eq!(live_rules("crates/sim/src/clock.rs", src), ["determinism"]);
}

#[test]
fn determinism_silent_elsewhere_and_in_tests() {
    let src = "use std::collections::HashMap;";
    assert!(live_rules("crates/core/src/codec_helpers.rs", src).is_empty());
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}";
    assert!(live_rules("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn determinism_dedups_double_mentions_on_one_line() {
    let src = "fn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
    assert_eq!(live_rules("crates/sim/src/engine.rs", src), ["determinism"]);
}

// --- secret-taint ----------------------------------------------------------

/// An assertion renders its message arguments and both operands of
/// `assert_eq!`/`assert_ne!`, but never the condition of
/// `assert!`/`debug_assert!`: a 1-bit verdict, like a comparison's.
#[test]
fn secret_taint_reads_an_assert_condition_as_a_public_bit() {
    for (body, fires) in [
        ("assert!(valid(key));", false),
        ("debug_assert!(valid(key), \"a usable key\");", false),
        ("assert!(valid(key), \"bad key {:?}\", key);", true),
        ("debug_assert!(valid(key), \"bad key {:?}\", key);", true),
        ("assert_eq!(digest(key), 0);", true),
        ("assert_ne!(0, digest(key));", true),
    ] {
        let src = format!("struct HmacKey;\nfn check(key: &HmacKey) {{ {body} }}");
        let rules = workspace_rules(&[("crates/x/src/lib.rs", &src)]);
        let expected: &[&str] = if fires { &["secret-taint"] } else { &[] };
        assert_eq!(rules, expected, "{body}");
    }
}

// --- ct-branch -------------------------------------------------------------

#[test]
fn ct_branch_fires_on_each_construct() {
    for (body, what) in [
        ("if x > 0 { 1 } else { 0 }", "if"),
        ("match x { 0 => 1, _ => 0 }", "match"),
        ("{ return x; }", "return"),
        ("(x > 0 && x < 9) as u64", "&&"),
        ("(x == 0 || x == 1) as u64", "||"),
    ] {
        let src = format!("// lint:ct\nfn f(x: u64) -> u64 {{ {body} }}");
        assert_eq!(
            live_rules("crates/crypto/src/prf.rs", &src),
            ["ct-branch"],
            "construct: {what}"
        );
    }
}

#[test]
fn ct_branch_only_covers_the_annotated_body() {
    // branch-free annotated body: clean
    let src = "// lint:ct\nfn f(x: u64) -> u64 { x.wrapping_mul(3) ^ (x >> 7) }";
    assert!(live_rules("crates/crypto/src/prf.rs", src).is_empty());
    // branches in the *next* (unannotated) function: clean
    let src = "// lint:ct\nfn f(x: u64) -> u64 { x ^ 1 }\nfn g(x: u64) -> u64 { if x > 0 { 1 } else { 0 } }";
    assert!(live_rules("crates/crypto/src/prf.rs", src).is_empty());
    // doc comments and attributes may sit between annotation and fn
    let src = "// lint:ct\n/// Docs.\n#[inline]\nfn f(x: u64) -> u64 { if x > 0 { 1 } else { 0 } }";
    assert_eq!(live_rules("crates/crypto/src/prf.rs", src), ["ct-branch"]);
}

// --- decode-bounds ---------------------------------------------------------

#[test]
fn decode_bounds_fires_on_unbounded_allocation() {
    let src = "fn decode_from(r: &mut R) -> Result<V, E> {\n    let count = r.u32_le(\"count\")? as usize;\n    let out = Vec::with_capacity(count);\n    Ok(out)\n}";
    assert_eq!(live_rules("crates/core/src/tag.rs", src), ["decode-bounds"]);
    let src = "fn decode_header(r: &mut R) -> Result<V, E> {\n    let count = r.u32_le(\"count\")? as usize;\n    Ok(vec![0u8; count])\n}";
    assert_eq!(live_rules("crates/core/src/tag.rs", src), ["decode-bounds"]);
}

#[test]
fn decode_bounds_satisfied_by_a_preceding_length_check() {
    let src = "fn decode_from(r: &mut R) -> Result<V, E> {\n    let count = r.u32_le(\"count\")? as usize;\n    if r.remaining() < 32 * count { return Err(E::Truncated); }\n    let out = Vec::with_capacity(count);\n    Ok(out)\n}";
    assert!(live_rules("crates/core/src/tag.rs", src).is_empty());
    // a slice len() bound also counts
    let src = "fn decode_all(bytes: &[u8]) -> Vec<u8> {\n    let n = bytes.len();\n    Vec::with_capacity(n)\n}";
    assert!(live_rules("crates/core/src/tag.rs", src).is_empty());
    // allocations outside decode fns are unconstrained
    let src = "fn encode_into(&self, n: usize) -> Vec<u8> { Vec::with_capacity(n) }";
    assert!(live_rules("crates/core/src/tag.rs", src).is_empty());
}

// --- suppression -----------------------------------------------------------

#[test]
fn well_formed_allow_suppresses_exactly_its_target() {
    // trailing comment suppresses its own line
    let src = "pub fn read(r: &R) -> u8 { r.next().unwrap() } // lint:allow(no-panic) — fixture";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert!(rep.findings.is_empty());
    assert_eq!(rep.suppressed.len(), 1);
    assert_eq!(rep.suppressed[0].0.rule, "no-panic");
    assert_eq!(rep.suppressed[0].1.reason, "fixture");
    // standalone comment suppresses the next code line
    let src = "// lint:allow(no-panic) — fixture\npub fn read(r: &R) -> u8 { r.next().unwrap() }";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert!(rep.findings.is_empty());
    assert_eq!(rep.suppressed.len(), 1);
}

#[test]
fn allow_does_not_leak_to_other_lines_or_rules() {
    // the allow covers line 2; the unwrap on line 3 still fires
    let src = "// lint:allow(no-panic) — fixture\npub fn a(r: &R) -> u8 { r.next().unwrap() }\npub fn b(r: &R) -> u8 { r.next().unwrap() }";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert_eq!(rep.findings.len(), 1);
    assert_eq!(rep.suppressed.len(), 1);
    // an allow for a different rule suppresses nothing
    // (and, suppressing nothing, is itself a finding)
    let src = "pub fn read(b: &[u8]) -> u8 { b[0] } // lint:allow(no-panic) — wrong rule";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert_eq!(
        rep.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        ["no-index", "suppression"]
    );
}

#[test]
fn an_allow_that_suppresses_nothing_is_a_finding() {
    // the unwrap it audited is gone
    let src = "fn f(r: &R) -> u8 {\n    // lint:allow(no-panic) — fixture\n    r.next().unwrap_or(0)\n}";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert!(rep.suppressed.is_empty());
    assert_eq!(
        rep.findings.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
        [(2, "suppression")]
    );
    // interprocedural rules take no inline allows: lint.toml audits them
    let src = "fn f() {} // lint:allow(panic-reachability) — fixture";
    assert_eq!(live_rules("crates/core/src/misc.rs", src), ["suppression"]);
}

#[test]
fn malformed_suppressions_are_findings_and_unsuppressible() {
    let src = "// lint:allow(no-such-rule) — reason\nfn f() {}";
    assert_eq!(live_rules("crates/core/src/misc.rs", src), ["suppression"]);
    let src = "// lint:allow(no-panic)\nfn f() {}";
    assert_eq!(live_rules("crates/core/src/misc.rs", src), ["suppression"]);
    let src = "// lint:allow(no-panic — unterminated\nfn f() {}";
    assert_eq!(live_rules("crates/core/src/misc.rs", src), ["suppression"]);
    // a reason made only of dashes/colons is still empty after trimming
    let src = "// lint:allow(no-panic) — - :\nfn f() {}";
    assert_eq!(live_rules("crates/core/src/misc.rs", src), ["suppression"]);
}

// --- lexer edge cases at the rule level ------------------------------------

#[test]
fn string_literals_never_fire() {
    let src = "const S: &str = \"x.unwrap() and panic! and b[0]\";";
    assert!(live_rules("crates/core/src/codec.rs", src).is_empty());
    let src = "const S: &str = r#\"HashMap::new() and \"quoted\" unwrap()\"#;";
    assert!(live_rules("crates/sim/src/engine.rs", src).is_empty());
    let src = "const S: &[u8] = br#\"Instant::now()\"#;";
    assert!(live_rules("crates/chain/src/chain.rs", src).is_empty());
}

#[test]
fn comments_never_fire() {
    let src = "// calls x.unwrap() — prose, not code\nfn f() {}";
    assert!(live_rules("crates/core/src/codec.rs", src).is_empty());
    let src = "/* outer /* nested HashMap::new() */ still comment */\nfn f() {}";
    assert!(live_rules("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn lifetimes_do_not_confuse_char_literals() {
    // `'a` lifetimes next to char literals containing quote-like chars
    let src = "fn f<'a>(x: &'a str) -> char { '\\'' }\nconst C: char = '[';";
    assert!(live_rules("crates/core/src/codec.rs", src).is_empty());
}

#[test]
fn line_numbers_attribute_findings_correctly() {
    let src = "\n\nfn read(r: &R) -> u8 {\n    r.next().unwrap()\n}";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert_eq!(rep.findings.len(), 1);
    assert_eq!(rep.findings[0].line, 4);
}
