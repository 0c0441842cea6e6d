//! Fixture tests: for every rule, at least one firing and one
//! non-firing source, plus the lexer edge cases that would turn a
//! text-match linter into a false-positive machine.

use dsaudit_lint::analyze_source;

/// Rules of the live (unsuppressed) findings for `src` analyzed at `path`.
fn live_rules(path: &str, src: &str) -> Vec<&'static str> {
    analyze_source(path, src)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect()
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

// --- secret-debug ----------------------------------------------------------

#[test]
fn secret_debug_fires_on_derive_and_manual_impls() {
    let src = "#[derive(Clone, Debug)]\npub struct SecretKey { x: u64 }";
    assert_eq!(live_rules("crates/core/src/keys.rs", src), ["secret-debug"]);
    let src = "#[derive(Display)]\npub struct HmacKey;";
    assert_eq!(live_rules("crates/crypto/src/hmac.rs", src), ["secret-debug"]);
    let src = "impl core::fmt::Debug for SmallDomainPrp {\n    fn fmt(&self, f: &mut F) -> R { Ok(()) }\n}";
    assert_eq!(live_rules("crates/crypto/src/prp.rs", src), ["secret-debug"]);
}

#[test]
fn secret_debug_silent_on_public_types_and_clean_secrets() {
    let src = "#[derive(Clone, Debug)]\npub struct PublicKey { v: u64 }";
    assert!(live_rules("crates/core/src/keys.rs", src).is_empty());
    let src = "#[derive(Clone, PartialEq)]\npub struct SecretKey { x: u64 }";
    assert!(live_rules("crates/core/src/keys.rs", src).is_empty());
    // Debug impl for a *different* type in a file that also defines a secret
    let src = "pub struct SecretKey;\nimpl std::fmt::Debug for Wrapper {\n    fn fmt(&self, f: &mut F) -> R { Ok(()) }\n}";
    assert!(live_rules("crates/core/src/keys.rs", src).is_empty());
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
    let src = "pub fn read(b: &[u8]) -> u8 { b[0] } // lint:allow(no-panic) — wrong rule";
    let rep = analyze_source("crates/core/src/codec.rs", src);
    assert_eq!(
        rep.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        ["no-index"]
    );
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
