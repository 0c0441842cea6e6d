//! The rule engine: zones, spans, suppressions and the six rules.
//!
//! Each rule is a pure function of the token stream plus precomputed
//! *spans* (token-index ranges): `#[cfg(test)]` blocks, `impl Codec for`
//! blocks, `fn decode*` bodies and `ct`-annotated bodies. Zones are
//! path predicates. See `docs/LINTS.md` for the catalogue.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::report::{Finding, FileReport, Suppression};

/// Static description of one rule, for `--json` and the docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id, as used in suppression comments.
    pub id: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-panic",
        summary: "no unwrap()/expect()/panic!/unimplemented!/todo! in panic-free zones \
                  (codec surfaces, storage wire/erasure, Codec impls)",
    },
    RuleInfo {
        id: "no-index",
        summary: "no slice indexing `x[i]` on decode surfaces (core codec, storage wire, \
                  Codec impls); use get()/split_first() and return a typed error",
    },
    RuleInfo {
        id: "determinism",
        summary: "no HashMap/HashSet/Instant/SystemTime/thread_rng/Date-like calls in \
                  crates/{sim,chain,storage,contract}: seed-reproducibility is contractual",
    },
    RuleInfo {
        id: "secret-debug",
        summary: "secret types (SecretKey, HmacKey, SmallDomainPrp) may not derive or \
                  impl Debug/Display",
    },
    RuleInfo {
        id: "ct-branch",
        summary: "bodies annotated `lint:ct` may not contain if/match/&&/||/return; \
                  branches on provably public data need an audited allow",
    },
    RuleInfo {
        id: "decode-bounds",
        summary: "Vec::with_capacity/vec! in decode bodies must be preceded by a \
                  remaining()/len() bound so forged prefixes cannot force allocations",
    },
    RuleInfo {
        id: "suppression",
        summary: "every lint:allow must name a known rule and carry a non-empty reason",
    },
    RuleInfo {
        id: "panic-reachability",
        summary: "interprocedural: no panic site (panic!/unwrap/indexing/div) may be \
                  reachable through the call graph from a Codec::decode impl or verify_* \
                  entry point",
    },
    RuleInfo {
        id: "secret-taint",
        summary: "interprocedural: SecretKey/HmacKey/PRF-derived values may not flow into \
                  Debug/format!-family/log/wire-encode sinks, across function boundaries",
    },
    RuleInfo {
        id: "ct-closure",
        summary: "interprocedural: lint:ct functions may only call other ct-annotated or \
                  lint.toml-allowlisted functions",
    },
    RuleInfo {
        id: "obs-purity",
        summary: "interprocedural: observability is write-only — no verdict/codec/ct-\
                  reachable function may consume an obs return value (statement position \
                  or `let _x = ...` only), and lint:ct kernels may not call obs at all",
    },
    RuleInfo {
        id: "deadline",
        summary: "interprocedural: every loop in crates/node awaiting a transport receive \
                  (recv/try_recv) must be reachable from a timeout/TTL check in the same \
                  function; unbounded daemon drains spin forever on partitioned peers",
    },
];

/// Types whose in-memory representation is secret material.
const SECRET_TYPES: &[&str] = &["SecretKey", "HmacKey", "SmallDomainPrp"];

/// Identifiers that break seed-reproducibility when they appear in the
/// deterministic crates.
const NONDETERMINISTIC_IDENTS: &[&str] =
    &["HashMap", "HashSet", "Instant", "SystemTime", "thread_rng"];

/// Files (workspace-relative, `/`-separated) whose whole body is a
/// panic-free zone: the adversarial-bytes decode surfaces.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/core/src/codec.rs",
    "crates/storage/src/wire.rs",
    "crates/storage/src/erasure.rs",
];

/// Files where slice indexing is additionally banned. Narrower than the
/// panic-free list: the erasure matrix kernels index with loop-bounded
/// counters, where `get()` chains would obscure the algebra; their
/// decode entry points are covered by the `Codec` impls in `wire.rs`.
const NO_INDEX_FILES: &[&str] = &["crates/core/src/codec.rs", "crates/storage/src/wire.rs"];

/// Crate source trees where determinism is contractual.
const DETERMINISTIC_TREES: &[&str] =
    &["crates/sim/src/", "crates/chain/src/", "crates/storage/src/", "crates/contract/src/"];

/// A half-open token-index range.
type Span = (usize, usize);

fn in_spans(spans: &[Span], idx: usize) -> bool {
    spans.iter().any(|&(a, b)| idx >= a && idx < b)
}

/// Index of the `}` matching the `{` at `open` (or `tokens.len()`).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    tokens.len()
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Spans of `#[cfg(test)]` items (the following braced item).
fn cfg_test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        if is_punct(&tokens[i], "#")
            && is_punct(&tokens[i + 1], "[")
            && is_ident(&tokens[i + 2], "cfg")
            && is_punct(&tokens[i + 3], "(")
            && is_ident(&tokens[i + 4], "test")
        {
            // Find the braced item the attribute decorates: the first `{`
            // before a `;` ends the search (an attribute on a `use` or
            // field has no body to exempt).
            let mut j = i + 5;
            while j < tokens.len() && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
                j += 1;
            }
            if j < tokens.len() && is_punct(&tokens[j], "{") {
                let end = matching_brace(tokens, j);
                spans.push((j, end + 1));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Spans of `impl ... Codec for ... { ... }` bodies.
fn codec_impl_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_ident(&tokens[i], "impl") {
            let mut j = i + 1;
            let mut saw_codec = false;
            let mut saw_for = false;
            while j < tokens.len() && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
                if is_ident(&tokens[j], "Codec") {
                    saw_codec = true;
                }
                if is_ident(&tokens[j], "for") {
                    saw_for = true;
                }
                j += 1;
            }
            if saw_codec && saw_for && j < tokens.len() && is_punct(&tokens[j], "{") {
                let end = matching_brace(tokens, j);
                spans.push((j, end + 1));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Body spans of functions whose name starts with `decode`.
fn decode_fn_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if is_ident(&tokens[i], "fn")
            && tokens[i + 1].kind == TokenKind::Ident
            && tokens[i + 1].text.starts_with("decode")
        {
            let mut j = i + 2;
            while j < tokens.len() && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
                j += 1;
            }
            if j < tokens.len() && is_punct(&tokens[j], "{") {
                let end = matching_brace(tokens, j);
                spans.push((j, end + 1));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Body spans of functions annotated with a `lint:ct` comment: the
/// annotation must sit on its own line directly above the function item
/// (attributes and doc comments may intervene).
fn ct_spans(lexed: &Lexed) -> Vec<Span> {
    let tokens = &lexed.tokens;
    let mut spans = Vec::new();
    for c in &lexed.comments {
        if c.text.trim() != "lint:ct" {
            continue;
        }
        // first `fn` token after the annotation line
        let Some(fn_idx) = tokens
            .iter()
            .position(|t| t.line > c.line && is_ident(t, "fn"))
        else {
            continue;
        };
        let mut j = fn_idx + 1;
        while j < tokens.len() && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
            j += 1;
        }
        if j < tokens.len() && is_punct(&tokens[j], "{") {
            spans.push((j, matching_brace(tokens, j) + 1));
        }
    }
    spans
}

/// Parsed suppressions plus findings for malformed ones.
fn parse_suppressions(lexed: &Lexed, file: &str) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "suppression",
                message: "unterminated lint:allow(...)".into(),
                hint: "write `lint:allow(<rule>) — <reason>`",
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason: String = rest[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || ch == '—' || ch == '–' || ch == '-' || ch == ':'
            })
            .trim()
            .to_string();
        if !RULES.iter().any(|r| r.id == rule) {
            bad.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "suppression",
                message: format!("lint:allow names unknown rule `{rule}`"),
                hint: "rule ids are listed in docs/LINTS.md",
            });
            continue;
        }
        if reason.is_empty() {
            bad.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "suppression",
                message: format!("lint:allow({rule}) carries no reason"),
                hint: "every suppression must say why it is sound: \
                       `lint:allow(<rule>) — <reason>`",
            });
            continue;
        }
        // A trailing comment suppresses its own line; a standalone
        // comment suppresses the next line that has code on it.
        let target = if lexed.has_token_on_line(c.line) {
            c.line
        } else {
            lexed.next_token_line_after(c.line).unwrap_or(c.line)
        };
        sups.push(Suppression {
            line: target,
            comment_line: c.line,
            rule: rule.clone(),
            reason,
        });
    }
    (sups, bad)
}

/// Everything the per-token rules need to know about a file.
struct FileContext<'a> {
    path: &'a str,
    tokens: &'a [Token],
    /// File lives under tests/, benches/ or examples/.
    test_file: bool,
    test_spans: Vec<Span>,
    codec_spans: Vec<Span>,
    decode_spans: Vec<Span>,
    ct_spans: Vec<Span>,
}

impl FileContext<'_> {
    fn is_test(&self, idx: usize) -> bool {
        self.test_file || in_spans(&self.test_spans, idx)
    }

    fn panic_free(&self, idx: usize) -> bool {
        !self.is_test(idx)
            && (PANIC_FREE_FILES.contains(&self.path) || in_spans(&self.codec_spans, idx))
    }

    fn no_index(&self, idx: usize) -> bool {
        !self.is_test(idx)
            && (NO_INDEX_FILES.contains(&self.path) || in_spans(&self.codec_spans, idx))
    }

    fn deterministic(&self, idx: usize) -> bool {
        !self.is_test(idx) && DETERMINISTIC_TREES.iter().any(|t| self.path.starts_with(t))
    }

    fn finding(&self, line: u32, rule: &'static str, message: String, hint: &'static str) -> Finding {
        Finding {
            file: self.path.to_string(),
            line,
            rule,
            message,
            hint,
        }
    }
}

fn check_no_panic(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !ctx.panic_free(i) || t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |s: &str| ctx.tokens.get(i + 1).is_some_and(|n| is_punct(n, s));
        let prev_is_dot = i > 0 && is_punct(&ctx.tokens[i - 1], ".");
        match t.text.as_str() {
            "unwrap" | "expect" if next_is("(") && prev_is_dot => {
                out.push(ctx.finding(
                    t.line,
                    "no-panic",
                    format!(".{}() on a decode surface", t.text),
                    "return a typed DsAuditError (ok_or_else + reader.malformed(...)) instead",
                ));
            }
            "panic" | "unimplemented" | "todo" if next_is("!") => {
                out.push(ctx.finding(
                    t.line,
                    "no-panic",
                    format!("{}! on a decode surface", t.text),
                    "decode paths must return errors, never abort",
                ));
            }
            _ => {}
        }
    }
}

fn check_no_index(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !ctx.no_index(i) || !is_punct(t, "[") || i == 0 {
            continue;
        }
        let prev = &ctx.tokens[i - 1];
        // `[` in postfix position (after an ident, `)` or `]`) is an
        // index expression; after `#`, `!`, `=`, `(` etc. it is an
        // attribute, macro bracket, or array literal/type. `mut`/`dyn`
        // precede slice *types* (`&mut [u8]`), never an indexed value.
        let postfix = (prev.kind == TokenKind::Ident && prev.text != "mut" && prev.text != "dyn")
            || (prev.kind == TokenKind::Punct && (prev.text == ")" || prev.text == "]"));
        if postfix {
            out.push(ctx.finding(
                t.line,
                "no-index",
                "slice/array indexing on a decode surface".into(),
                "use get()/get_mut() and surface a typed error on None",
            ));
        }
    }
}

fn check_determinism(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !ctx.deterministic(i) || t.kind != TokenKind::Ident {
            continue;
        }
        if NONDETERMINISTIC_IDENTS.contains(&t.text.as_str()) || t.text.contains("Date") {
            out.push(ctx.finding(
                t.line,
                "determinism",
                format!("`{}` in a seed-reproducible crate", t.text),
                "use BTreeMap/BTreeSet and simulated clocks; wall time and hash order \
                 diverge between verifiers",
            ));
        }
    }
}

fn check_secret_debug(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        // derive(..., Debug/Display, ...) on a secret struct/enum
        if (is_ident(t, "struct") || is_ident(t, "enum"))
            && tokens
                .get(i + 1)
                .is_some_and(|n| SECRET_TYPES.contains(&n.text.as_str()))
        {
            // scan the attribute window above the item (stop at the
            // previous item boundary)
            let mut j = i;
            let mut derive_window = Vec::new();
            while j > 0 {
                j -= 1;
                let p = &tokens[j];
                if is_punct(p, ";") || is_punct(p, "}") || is_punct(p, "{") {
                    break;
                }
                derive_window.push(p);
            }
            let has_derive = derive_window.iter().any(|p| is_ident(p, "derive"));
            let bad = derive_window
                .iter()
                .find(|p| is_ident(p, "Debug") || is_ident(p, "Display"));
            if has_derive {
                if let Some(b) = bad {
                    out.push(ctx.finding(
                        tokens[i + 1].line,
                        "secret-debug",
                        format!(
                            "secret type `{}` derives {}",
                            tokens[i + 1].text, b.text
                        ),
                        "secrets must not be formattable; drop the derive (add a manual \
                         redacting impl on the container if needed)",
                    ));
                }
            }
        }
        // impl Debug/Display for <secret>
        if is_ident(t, "impl") {
            let mut j = i + 1;
            let mut fmt_trait = None;
            let mut saw_for = false;
            let mut target_secret = None;
            while j < tokens.len() && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
                let p = &tokens[j];
                if is_ident(p, "Debug") || is_ident(p, "Display") {
                    fmt_trait = Some(p.text.clone());
                }
                if is_ident(p, "for") {
                    saw_for = true;
                }
                if saw_for && SECRET_TYPES.contains(&p.text.as_str()) {
                    target_secret = Some(p.text.clone());
                }
                j += 1;
            }
            if let (Some(tr), Some(sec)) = (fmt_trait, target_secret) {
                out.push(ctx.finding(
                    t.line,
                    "secret-debug",
                    format!("manual {tr} impl for secret type `{sec}`"),
                    "secrets must not be formattable",
                ));
            }
        }
    }
}

fn check_ct_branch(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !in_spans(&ctx.ct_spans, i) {
            continue;
        }
        let construct = match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "if") => Some("if"),
            (TokenKind::Ident, "match") => Some("match"),
            (TokenKind::Ident, "return") => Some("early return"),
            (TokenKind::Punct, "&&") => Some("&&"),
            (TokenKind::Punct, "||") => Some("||"),
            _ => None,
        };
        if let Some(c) = construct {
            out.push(ctx.finding(
                t.line,
                "ct-branch",
                format!("`{c}` inside a lint:ct (constant-time) body"),
                "rewrite branch-free, or add an audited allow stating why the \
                 branched-on data is public",
            ));
        }
    }
}

fn check_decode_bounds(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for &(start, end) in &ctx.decode_spans {
        let mut bounded = false;
        for i in start..end.min(ctx.tokens.len()) {
            let t = &ctx.tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            match t.text.as_str() {
                // a consulted length bound: ByteReader::remaining() or a
                // slice/collection len() before the allocation
                "remaining" | "len" => bounded = true,
                "with_capacity" | "vec"
                    if !ctx.is_test(i)
                        && ctx.tokens.get(i + 1).is_some_and(|n| {
                            is_punct(n, "(") || is_punct(n, "!")
                        })
                        && !bounded =>
                {
                    out.push(ctx.finding(
                        t.line,
                        "decode-bounds",
                        "allocation in a decode body before any length bound".into(),
                        "check reader.remaining() (or an input len()) against the \
                         announced count first, so forged prefixes cannot force \
                         huge allocations",
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Analyzes one file's source. `path` must be workspace-relative with
/// `/` separators — zone membership is decided from it.
pub fn analyze_source(path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let (sups, mut findings) = parse_suppressions(&lexed, path);
    let ctx = FileContext {
        path,
        tokens: &lexed.tokens,
        test_file: path.contains("/tests/")
            || path.contains("/benches/")
            || path.contains("/examples/")
            || path.starts_with("tests/")
            || path.starts_with("benches/")
            || path.starts_with("examples/"),
        test_spans: cfg_test_spans(&lexed.tokens),
        codec_spans: codec_impl_spans(&lexed.tokens),
        decode_spans: decode_fn_spans(&lexed.tokens),
        ct_spans: ct_spans(&lexed),
    };
    check_no_panic(&ctx, &mut findings);
    check_no_index(&ctx, &mut findings);
    check_determinism(&ctx, &mut findings);
    check_secret_debug(&ctx, &mut findings);
    check_ct_branch(&ctx, &mut findings);
    check_decode_bounds(&ctx, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    // `HashMap<K, V> = HashMap::new()` should read as one finding, not two
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);

    // split into suppressed / live. Malformed suppressions ("suppression"
    // rule) are never themselves suppressible.
    let mut live = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let s = (f.rule != "suppression")
            .then(|| sups.iter().find(|s| s.line == f.line && s.rule == f.rule))
            .flatten();
        match s {
            Some(s) => suppressed.push((f, s.clone())),
            None => live.push(f),
        }
    }
    FileReport {
        findings: live,
        suppressed,
    }
}
