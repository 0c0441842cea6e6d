//! The per-file rules: zones, inline suppressions, and the six rules
//! that need no call graph (`no-panic`, `no-index`, `determinism`,
//! `ct-branch`, `decode-bounds`, `suppression`).
//!
//! They read the `(path, Lexed, Ast)` triple that
//! [`crate::parse_workspace`] builds for the passes too, so each file is
//! lexed and parsed once. Every zone comes from the AST: `#[cfg(test)]`
//! and `#[test]` items, `impl Codec for` blocks, `decode*` bodies and
//! `lint:ct` bodies. `no-panic` and `no-index` report the panic sites
//! `panic-reachability` collects (`passes::intrinsic_panic_sites`); the other
//! rules match tokens inside the AST's spans. Path zones are prefix
//! predicates. See `docs/LINTS.md` for the catalogue.

use crate::ast::{Ast, Item, ItemKind};
use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::parser::parse;
use crate::passes::{intrinsic_panic_sites, PanicKind};
use crate::report::{FileReport, Finding, Suppression};

/// Static description of one rule, for `--list-rules` and SARIF.
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
];

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

/// Whether `path` (workspace-relative, `/`-separated) lies under a
/// `tests/`, `benches/` or `examples/` directory: all of such a file is
/// test code, for the per-file rules and the passes alike.
pub(crate) fn is_test_path(path: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| path.starts_with(d) || path.contains(&format!("/{d}")))
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
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

/// Everything the per-file rules need to know about a file. Every span
/// comes from the file's AST.
struct FileContext<'a> {
    path: &'a str,
    tokens: &'a [Token],
    /// File lives under tests/, benches/ or examples/.
    test_file: bool,
    /// `#[cfg(test)]`/`#[test]` items.
    test_spans: Vec<Span>,
    /// `impl Codec for` items.
    codec_spans: Vec<Span>,
    /// Bodies of fns named `decode*`.
    decode_spans: Vec<Span>,
    /// Bodies of `lint:ct` fns.
    ct_spans: Vec<Span>,
}

impl<'a> FileContext<'a> {
    fn new(path: &'a str, lexed: &'a Lexed, ast: &Ast) -> FileContext<'a> {
        let mut ctx = FileContext {
            path,
            tokens: &lexed.tokens,
            test_file: is_test_path(path),
            test_spans: Vec::new(),
            codec_spans: Vec::new(),
            decode_spans: Vec::new(),
            ct_spans: Vec::new(),
        };
        ctx.add_item_spans(&ast.items);
        ast.visit_fns(&mut |def, _, _, _, _| {
            let Some(body) = def.body_span else {
                return;
            };
            if def.is_ct {
                ctx.ct_spans.push(body);
            }
            if def.name.starts_with("decode") {
                ctx.decode_spans.push(body);
            }
        });
        ctx
    }

    /// Records the test items and `Codec` impls among `items`, at any
    /// depth of the item tree.
    fn add_item_spans(&mut self, items: &[Item]) {
        for item in items {
            if item.is_test {
                self.test_spans.push(item.span);
                continue;
            }
            match &item.kind {
                ItemKind::Impl(im) => {
                    if im.trait_name.as_deref() == Some("Codec") {
                        self.codec_spans.push(item.span);
                    }
                    self.add_item_spans(&im.items);
                }
                ItemKind::Mod { items, .. } | ItemKind::Trait { items, .. } => {
                    self.add_item_spans(items);
                }
                _ => {}
            }
        }
    }

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

/// `no-panic` and `no-index`: the intrinsic panic sites of each fn whose
/// body lies in the rule's zone. `no-panic` takes `.unwrap()`,
/// `.expect()`, `panic!`, `unimplemented!` and `todo!`; `no-index`
/// takes indexing.
fn check_panic_sites(ctx: &FileContext<'_>, ast: &Ast, out: &mut Vec<Finding>) {
    ast.visit_fns(&mut |def, _, _, _, _| {
        let Some((body, _)) = def.body_span else {
            return;
        };
        for site in intrinsic_panic_sites(def) {
            let (rule, in_zone, hint) = match &site.kind {
                PanicKind::Unwrap(_) => (
                    "no-panic",
                    ctx.panic_free(body),
                    "return a typed DsAuditError (ok_or_else + reader.malformed(...)) instead",
                ),
                PanicKind::Macro(m) if matches!(m.as_str(), "panic" | "unimplemented" | "todo") => (
                    "no-panic",
                    ctx.panic_free(body),
                    "decode paths must return errors, never abort",
                ),
                PanicKind::Index => (
                    "no-index",
                    ctx.no_index(body),
                    "use get()/get_mut() and surface a typed error on None",
                ),
                _ => continue,
            };
            if in_zone {
                let message = format!("{} on a decode surface", site.what());
                out.push(ctx.finding(site.line, rule, message, hint));
            }
        }
    });
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

fn check_ct_branch(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for &(start, end) in &ctx.ct_spans {
        for t in &ctx.tokens[start..end] {
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
}

fn check_decode_bounds(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for &(start, end) in &ctx.decode_spans {
        let mut bounded = false;
        for (i, t) in ctx.tokens.iter().enumerate().take(end).skip(start) {
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

/// Analyzes one file's source: lexes and parses it, then runs
/// [`analyze_file`]. `path` must be workspace-relative with `/`
/// separators — zone membership is decided from it.
pub fn analyze_source(path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let ast = parse(&lexed);
    analyze_file(path, &lexed, &ast)
}

/// Runs the per-file rules over one lexed and parsed file (see
/// [`analyze_source`] for `path`).
pub fn analyze_file(path: &str, lexed: &Lexed, ast: &Ast) -> FileReport {
    let (sups, mut findings) = parse_suppressions(lexed, path);
    let ctx = FileContext::new(path, lexed, ast);
    check_panic_sites(&ctx, ast, &mut findings);
    check_determinism(&ctx, &mut findings);
    check_ct_branch(&ctx, &mut findings);
    check_decode_bounds(&ctx, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    // `HashMap<K, V> = HashMap::new()` should read as one finding, not two
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);

    // split into suppressed / live. Malformed suppressions ("suppression"
    // rule) are never themselves suppressible.
    let mut used = vec![false; sups.len()];
    let mut live = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = (f.rule != "suppression")
            .then(|| {
                sups.iter()
                    .position(|s| s.line == f.line && s.rule == f.rule)
            })
            .flatten();
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed.push((f, sups[i].clone()));
            }
            None => live.push(f),
        }
    }
    // an allow that suppresses nothing is stale, like an unused
    // lint.toml entry
    for (s, _) in sups.iter().zip(&used).filter(|(_, &u)| !u) {
        live.push(ctx.finding(
            s.comment_line,
            "suppression",
            format!(
                "lint:allow({}) suppresses nothing: no `{}` finding on line {}",
                s.rule, s.rule, s.line
            ),
            "delete stale allows so every suppression audits a live finding",
        ));
    }
    live.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileReport {
        findings: live,
        suppressed,
    }
}
