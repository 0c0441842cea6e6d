//! The interprocedural passes over the workspace call graph:
//! panic-reachability, secret-taint, ct-closure, deadline, and
//! obs-purity.
//!
//! All of them consume the [`CallGraph`] plus the audited allow-list from
//! `lint.toml` ([`crate::config::LintConfig`]): pass findings are
//! whole-program properties with no single line to hang an inline
//! `lint:allow` on, so their suppressions live in the config file where
//! each carries a rule, a target, and a reason.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ast::{walk_stmts, Expr, Stmt};
use crate::callgraph::{CallGraph, CallSite, FnNode};
use crate::config::LintConfig;
use crate::report::{Finding, Suppression};

/// Output of one pass run: live findings plus config-suppressed ones.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Live findings.
    pub findings: Vec<Finding>,
    /// Findings audited away by a `lint.toml` entry.
    pub suppressed: Vec<(Finding, Suppression)>,
}

impl PassResult {
    fn push(&mut self, f: Finding, cfg: &LintConfig, node: &FnNode) {
        match cfg.match_allow(f.rule, &node.qname(), &node.def.name, &node.file) {
            Some(reason_suppression) => self.suppressed.push((f, reason_suppression)),
            None => self.findings.push(f),
        }
    }
}

// ---------------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------------

/// One intrinsic (local, non-transitive) panic site.
#[derive(Debug, Clone)]
struct PanicSite {
    line: u32,
    what: String,
}

/// Macros that abort on expansion (debug_assert* compiles out in
/// release verifiers, so it does not count).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "unimplemented",
    "todo",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Collects the intrinsic panic sites of one function body.
fn intrinsic_panic_sites(node: &FnNode) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    let Some(body) = &node.def.body else {
        return sites;
    };
    walk_stmts(body, &mut |e| match e {
        Expr::Macro { segs, line, .. } => {
            let name = segs.last().map(String::as_str).unwrap_or("");
            if PANIC_MACROS.contains(&name) {
                sites.push(PanicSite {
                    line: *line,
                    what: format!("{name}!"),
                });
            }
        }
        Expr::Method { name, line, .. } if name == "unwrap" || name == "expect" => {
            sites.push(PanicSite {
                line: *line,
                what: format!(".{name}()"),
            });
        }
        Expr::Index { line, .. } => {
            sites.push(PanicSite {
                line: *line,
                what: "slice/array indexing".into(),
            });
        }
        // division by a literal cannot raise a divide-by-zero panic
        // (overflow `MIN / -1` aside, which the kernels avoid by
        // operating on unsigned words)
        Expr::Binary { op, rhs, line, .. }
            if (op == "/" || op == "%") && !matches!(rhs.as_ref(), Expr::Lit { .. }) =>
        {
            sites.push(PanicSite {
                line: *line,
                what: format!("`{op}` with non-literal divisor"),
            });
        }
        _ => {}
    });
    sites
}

/// Whether `node` is a panic-reachability entry point: a `Codec`
/// decode impl or a `verify_*`/`verify` function, outside test code.
fn is_panic_entry(node: &FnNode) -> bool {
    if node.in_test || node.is_trait_decl {
        return false;
    }
    let is_decode_impl =
        node.trait_name.as_deref() == Some("Codec") && node.def.name.starts_with("decode");
    let is_verify = node.def.name == "verify" || node.def.name.starts_with("verify_");
    is_decode_impl || is_verify
}

/// **panic-reachability**: reports every entry point from which a panic
/// site is reachable through the call graph, with the full call chain.
pub fn panic_reachability(graph: &CallGraph, cfg: &LintConfig) -> PassResult {
    let n = graph.fns.len();

    // Intrinsic sites, with config-level suppression applied *at the
    // site*: allowing `fn = "Fq12::mul"` under this rule audits the
    // panic potential of that body, killing every chain through it.
    let mut out = PassResult::default();
    let mut sites: Vec<Vec<PanicSite>> = Vec::with_capacity(n);
    for node in &graph.fns {
        if node.in_test {
            sites.push(Vec::new());
            continue;
        }
        let s = intrinsic_panic_sites(node);
        let sup = if s.is_empty() {
            None
        } else {
            cfg.match_allow("panic-reachability", &node.qname(), &node.def.name, &node.file)
        };
        if let Some(sup) = sup {
            // One audit record per audited fn (anchored at its first
            // site) so the suppressed counts reflect the audit surface.
            out.suppressed.push((
                Finding {
                    file: node.file.clone(),
                    line: s[0].line,
                    rule: "panic-reachability",
                    message: format!(
                        "{} panic site(s) in `{}` audited (first: {})",
                        s.len(),
                        node.qname(),
                        s[0].what
                    ),
                    hint: "return a typed error on the panicking path, or audit it in \
                           lint.toml with a reason",
                },
                sup,
            ));
            sites.push(Vec::new());
        } else {
            sites.push(s);
        }
    }

    // Transitive can-panic set via reverse BFS from intrinsic fns.
    // Edges through test fns are ignored (test callers may assert).
    let rev = graph.reverse_edges();
    let mut can_panic = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in 0..n {
        if !sites[i].is_empty() {
            can_panic[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &caller in &rev[i] {
            if !can_panic[caller] && !graph.fns[caller].in_test {
                can_panic[caller] = true;
                queue.push_back(caller);
            }
        }
    }

    // For each entry that can panic, BFS forward for the shortest
    // chain to a fn with an intrinsic site; one finding per
    // (entry, sink fn) pair so audits can address sinks one by one.
    for (entry, node) in graph.fns.iter().enumerate() {
        if !is_panic_entry(node) || !can_panic[entry] {
            continue;
        }
        let chains = shortest_chains_to_sinks(graph, entry, &sites, &can_panic);
        for (sink, chain) in chains {
            let site = &sites[sink][0];
            let chain_str = chain
                .iter()
                .map(|&i| graph.fns[i].qname())
                .collect::<Vec<_>>()
                .join(" -> ");
            let f = Finding {
                file: node.file.clone(),
                line: node.def.line,
                rule: "panic-reachability",
                message: format!(
                    "panic reachable from entry point `{}`: {} ({} at {}:{})",
                    node.qname(),
                    chain_str,
                    site.what,
                    graph.fns[sink].file,
                    site.line
                ),
                hint: "return a typed error on the panicking path, or audit it in lint.toml \
                       with a reason",
            };
            out.push(f, cfg, node);
        }
    }
    out
}

/// BFS from `entry` through can-panic nodes; returns, per sink fn
/// (one with intrinsic sites), the shortest chain `entry..=sink`.
fn shortest_chains_to_sinks(
    graph: &CallGraph,
    entry: usize,
    sites: &[Vec<PanicSite>],
    can_panic: &[bool],
) -> Vec<(usize, Vec<usize>)> {
    let n = graph.fns.len();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[entry] = true;
    queue.push_back(entry);
    let mut order = Vec::new();
    while let Some(i) = queue.pop_front() {
        order.push(i);
        for site in &graph.calls[i] {
            for &callee in &site.callees {
                if !seen[callee] && can_panic[callee] && !graph.fns[callee].in_test {
                    seen[callee] = true;
                    prev[callee] = Some(i);
                    queue.push_back(callee);
                }
            }
        }
    }
    let mut out = Vec::new();
    for i in order {
        if sites[i].is_empty() {
            continue;
        }
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = prev[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        out.push((i, chain));
    }
    out
}

// ---------------------------------------------------------------------------
// secret-taint
// ---------------------------------------------------------------------------

/// Types whose values are secret material (mirrors the token rule).
const SECRET_TYPES: &[&str] = &["SecretKey", "HmacKey", "SmallDomainPrp"];

/// Format-family macros: anything that can render a value to text.
const FORMAT_MACROS: &[&str] = &[
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "dbg",
];

/// Methods that return structurally non-secret data even on a secret
/// receiver (sizes, emptiness) — they terminate taint propagation.
const NONPROPAGATING_METHODS: &[&str] = &["len", "is_empty"];

/// Where a tainted value originated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    /// Taint entered through parameter `i` — meaningful only inside a
    /// summary; resolved to a concrete origin at the call site.
    Param(usize),
    /// A concrete secret source, with a human-readable description.
    Concrete(String),
}

type Taint = BTreeSet<Origin>;

/// Per-function dataflow summary, computed to fixpoint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct FnSummary {
    /// Parameter indices that flow into the return value.
    param_to_ret: BTreeSet<usize>,
    /// Whether the fn *originates* a secret in its return value
    /// (constructor of a secret type, PRF derivation).
    ret_secret: Option<String>,
    /// Parameter indices that reach a sink inside this fn (or deeper),
    /// with a description of the sink for chain reporting.
    param_to_sink: BTreeMap<usize, String>,
}

/// A sink hit found while analyzing one body.
#[derive(Debug)]
struct SinkHit {
    line: u32,
    sink_desc: String,
    origins: Taint,
}

/// **secret-taint**: tracks `SecretKey`/`HmacKey`/PRF-derived values
/// through assignments, projections, and calls; reports any flow into
/// a Debug/format!/log/wire-encode sink.
pub fn secret_taint(graph: &CallGraph, cfg: &LintConfig) -> PassResult {
    let n = graph.fns.len();
    let mut summaries: Vec<FnSummary> = vec![FnSummary::default(); n];

    // Seed: secret-type constructors and PRF derivations originate
    // secrets in their return values.
    for (i, node) in graph.fns.iter().enumerate() {
        let ret_ty = node.def.ret.iter().any(|t| SECRET_TYPES.contains(&t.as_str()));
        let ctor_of_secret = SECRET_TYPES.contains(&node.self_ty.as_str())
            && node.def.ret.iter().any(|t| t == "Self" || SECRET_TYPES.contains(&t.as_str()));
        if ret_ty || ctor_of_secret {
            summaries[i].ret_secret = Some(format!("`{}` (returns secret material)", node.qname()));
        }
    }

    // Fixpoint over summaries (bounded; the lattice is finite).
    for _ in 0..12 {
        let mut changed = false;
        for i in 0..n {
            let node = &graph.fns[i];
            if node.def.body.is_none() {
                continue;
            }
            let (summary, _) = analyze_body(node, graph, i, &summaries);
            let merged = FnSummary {
                ret_secret: summaries[i].ret_secret.clone().or(summary.ret_secret.clone()),
                ..summary
            };
            if merged != summaries[i] {
                summaries[i] = merged;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: collect concrete sink hits.
    let mut out = PassResult::default();
    for (i, node) in graph.fns.iter().enumerate() {
        if node.in_test || node.def.body.is_none() {
            continue;
        }
        let (_, hits) = analyze_body(node, graph, i, &summaries);
        for hit in hits {
            let concrete: Vec<&String> = hit
                .origins
                .iter()
                .filter_map(|o| match o {
                    Origin::Concrete(d) => Some(d),
                    Origin::Param(_) => None,
                })
                .collect();
            let Some(first) = concrete.first() else {
                continue; // param-only taint: reported at an outer call site
            };
            let f = Finding {
                file: node.file.clone(),
                line: hit.line,
                rule: "secret-taint",
                message: format!(
                    "secret value from {} reaches {} in `{}`",
                    first,
                    hit.sink_desc,
                    node.qname()
                ),
                hint: "redact the secret before formatting/encoding, or audit the flow in \
                       lint.toml with a reason",
            };
            out.push(f, cfg, node);
        }
    }
    out
}

/// Analyzes one body against current summaries; returns the new
/// summary for the fn plus every sink hit (with unresolved `Param`
/// origins left in place for the caller to resolve).
fn analyze_body(
    node: &FnNode,
    graph: &CallGraph,
    self_idx: usize,
    summaries: &[FnSummary],
) -> (FnSummary, Vec<SinkHit>) {
    let _ = self_idx;
    let body = node.def.body.as_ref().expect("caller checked body");
    let mut env: BTreeMap<String, Taint> = BTreeMap::new();
    let mut hits: Vec<SinkHit> = Vec::new();
    let mut summary = FnSummary::default();

    // Seed parameters.
    for (pi, p) in node.def.params.iter().enumerate() {
        let mut t = Taint::new();
        t.insert(Origin::Param(pi));
        if p.ty.iter().any(|x| SECRET_TYPES.contains(&x.as_str())) {
            let pname = p.names.first().map(String::as_str).unwrap_or("self");
            let ty = p
                .ty
                .iter()
                .find(|x| SECRET_TYPES.contains(&x.as_str()))
                .expect("checked");
            t.insert(Origin::Concrete(format!(
                "{ty} parameter `{pname}` of `{}`",
                node.qname()
            )));
        }
        if p.is_self && SECRET_TYPES.contains(&node.self_ty.as_str()) {
            t.insert(Origin::Concrete(format!(
                "secret receiver `self: {}` of `{}`",
                node.self_ty,
                node.qname()
            )));
        }
        let name = if p.is_self {
            "self".to_string()
        } else {
            p.names.first().cloned().unwrap_or_default()
        };
        if !name.is_empty() {
            env.insert(name, t);
        }
    }

    let mut ret_taint = Taint::new();
    // The block value (tail-expression taint) is the return value.
    let tail = eval_stmts(body, node, graph, summaries, &mut env, &mut hits, &mut ret_taint);
    ret_taint.extend(tail);

    for o in &ret_taint {
        match o {
            Origin::Param(pi) => {
                summary.param_to_ret.insert(*pi);
            }
            Origin::Concrete(d) => {
                summary.ret_secret.get_or_insert_with(|| d.clone());
            }
        }
    }
    for hit in &hits {
        for o in &hit.origins {
            if let Origin::Param(pi) = o {
                summary
                    .param_to_sink
                    .entry(*pi)
                    .or_insert_with(|| hit.sink_desc.clone());
            }
        }
    }
    (summary, hits)
}

/// Evaluates statements in order; returns the block's value taint
/// (the tail expression's) and accumulates explicit-`return` taint
/// into `ret_taint`.
fn eval_stmts(
    stmts: &[crate::ast::Stmt],
    node: &FnNode,
    graph: &CallGraph,
    summaries: &[FnSummary],
    env: &mut BTreeMap<String, Taint>,
    hits: &mut Vec<SinkHit>,
    ret_taint: &mut Taint,
) -> Taint {
    use crate::ast::Stmt;
    let mut tail = Taint::new();
    for (si, s) in stmts.iter().enumerate() {
        let is_last = si + 1 == stmts.len();
        match s {
            Stmt::Let { names, ty, init, els, .. } => {
                let mut t = Taint::new();
                if let Some(e) = init {
                    t = eval(e, node, graph, summaries, env, hits);
                }
                // type ascription alone marks secrecy (e.g. a secret
                // deserialized from a store)
                if ty.iter().any(|x| SECRET_TYPES.contains(&x.as_str())) {
                    let ty_name = ty
                        .iter()
                        .find(|x| SECRET_TYPES.contains(&x.as_str()))
                        .expect("checked");
                    t.insert(Origin::Concrete(format!(
                        "{ty_name} local in `{}`",
                        node.qname()
                    )));
                }
                for nm in names {
                    env.entry(nm.clone()).or_default().extend(t.iter().cloned());
                }
                if let Some(b) = els {
                    let _ = eval_stmts(b, node, graph, summaries, env, hits, ret_taint);
                }
            }
            Stmt::Expr(e) => {
                if let Expr::Return { value: Some(v), .. } = e {
                    let t = eval(v, node, graph, summaries, env, hits);
                    ret_taint.extend(t);
                } else {
                    let t = eval(e, node, graph, summaries, env, hits);
                    if is_last {
                        tail = t;
                    }
                }
            }
            Stmt::Item(_) => {}
        }
    }
    tail
}

/// Evaluates an expression's taint, recording sink hits on the way.
fn eval(
    e: &Expr,
    node: &FnNode,
    graph: &CallGraph,
    summaries: &[FnSummary],
    env: &mut BTreeMap<String, Taint>,
    hits: &mut Vec<SinkHit>,
) -> Taint {
    match e {
        Expr::Path { segs, .. } => {
            if segs.len() == 1 {
                env.get(&segs[0]).cloned().unwrap_or_default()
            } else {
                Taint::new()
            }
        }
        Expr::Lit { .. } | Expr::Unknown { .. } => Taint::new(),
        Expr::Field { base, .. } => eval(base, node, graph, summaries, env, hits),
        Expr::Unary { inner } | Expr::Cast { inner } => {
            eval(inner, node, graph, summaries, env, hits)
        }
        Expr::Index { base, index, .. } => {
            let mut t = eval(base, node, graph, summaries, env, hits);
            t.extend(eval(index, node, graph, summaries, env, hits));
            t
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            let mut t = Taint::new();
            for it in items {
                t.extend(eval(it, node, graph, summaries, env, hits));
            }
            t
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let mut t = eval(lhs, node, graph, summaries, env, hits);
            t.extend(eval(rhs, node, graph, summaries, env, hits));
            // Comparisons produce a 1-bit public verdict (accepting or
            // rejecting a proof IS the protocol); the secret does not
            // survive into the boolean.
            if matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||") {
                return Taint::new();
            }
            t
        }
        Expr::Range { lo, hi, .. } => {
            let mut t = Taint::new();
            if let Some(l) = lo {
                t.extend(eval(l, node, graph, summaries, env, hits));
            }
            if let Some(h) = hi {
                t.extend(eval(h, node, graph, summaries, env, hits));
            }
            t
        }
        Expr::Assign { target, value, .. } => {
            let t = eval(value, node, graph, summaries, env, hits);
            // x = v / x.f = v : taint the root variable
            if let Some(root) = root_var(target) {
                env.entry(root).or_default().extend(t.iter().cloned());
            }
            Taint::new()
        }
        Expr::Struct { fields, base, .. } => {
            let mut t = Taint::new();
            for (_, v) in fields {
                t.extend(eval(v, node, graph, summaries, env, hits));
            }
            if let Some(b) = base {
                t.extend(eval(b, node, graph, summaries, env, hits));
            }
            t
        }
        Expr::Block { stmts, .. } => {
            let mut ret = Taint::new();
            let tail = eval_stmts(stmts, node, graph, summaries, env, hits, &mut ret);
            ret.extend(tail);
            ret
        }
        Expr::If { cond, then, alt, .. } => {
            let _ = eval(cond, node, graph, summaries, env, hits);
            let mut ret = Taint::new();
            let tail = eval_stmts(then, node, graph, summaries, env, hits, &mut ret);
            ret.extend(tail);
            if let Some(a) = alt {
                ret.extend(eval(a, node, graph, summaries, env, hits));
            }
            ret
        }
        Expr::Match { scrutinee, arms, .. } => {
            let scr = eval(scrutinee, node, graph, summaries, env, hits);
            let mut ret = scr;
            for (guard, value) in arms {
                if let Some(g) = guard {
                    let _ = eval(g, node, graph, summaries, env, hits);
                }
                ret.extend(eval(value, node, graph, summaries, env, hits));
            }
            ret
        }
        Expr::Loop { cond, body, .. } => {
            if let Some(c) = cond {
                let _ = eval(c, node, graph, summaries, env, hits);
            }
            let mut ret = Taint::new();
            eval_stmts(body, node, graph, summaries, env, hits, &mut ret);
            ret
        }
        Expr::For { iter, body, pat_names, .. } => {
            let it = eval(iter, node, graph, summaries, env, hits);
            for nm in pat_names {
                env.entry(nm.clone()).or_default().extend(it.iter().cloned());
            }
            let mut ret = Taint::new();
            eval_stmts(body, node, graph, summaries, env, hits, &mut ret);
            ret
        }
        Expr::Closure { body, .. } => eval(body, node, graph, summaries, env, hits),
        Expr::Return { value, .. } => {
            if let Some(v) = value {
                eval(v, node, graph, summaries, env, hits)
            } else {
                Taint::new()
            }
        }
        Expr::Macro { segs, args, line } => {
            let name = segs.last().map(String::as_str).unwrap_or("");
            let mut t = Taint::new();
            for a in args {
                t.extend(eval(a, node, graph, summaries, env, hits));
            }
            if FORMAT_MACROS.contains(&name) && !t.is_empty() {
                hits.push(SinkHit {
                    line: *line,
                    sink_desc: format!("`{name}!` formatting sink"),
                    origins: t.clone(),
                });
            }
            // format! *returns* a rendering of its inputs: the secret
            // is in the output string too
            if name == "format" { t } else { Taint::new() }
        }
        Expr::Call { segs, args, line } => {
            let arg_taints: Vec<Taint> = args
                .iter()
                .map(|a| eval(a, node, graph, summaries, env, hits))
                .collect();
            call_taint(node, graph, summaries, segs.join("::"), find_callees(graph, node, e), &arg_taints, None, *line, hits)
        }
        Expr::CallExpr { callee, args, line } => {
            let mut t = eval(callee, node, graph, summaries, env, hits);
            for a in args {
                t.extend(eval(a, node, graph, summaries, env, hits));
            }
            let _ = line;
            t
        }
        Expr::Method { recv, name, args, line } => {
            let recv_taint = eval(recv, node, graph, summaries, env, hits);
            let arg_taints: Vec<Taint> = args
                .iter()
                .map(|a| eval(a, node, graph, summaries, env, hits))
                .collect();
            if NONPROPAGATING_METHODS.contains(&name.as_str()) {
                return Taint::new();
            }
            // direct sinks: wire-encode and Formatter::fmt on tainted data
            let all: Taint = recv_taint
                .iter()
                .cloned()
                .chain(arg_taints.iter().flatten().cloned())
                .collect();
            if (name == "encode" || name == "encode_to" || name == "encode_into" || name == "fmt")
                && !recv_taint.is_empty()
            {
                hits.push(SinkHit {
                    line: *line,
                    sink_desc: format!("wire/format sink `.{name}()`"),
                    origins: recv_taint.clone(),
                });
            }
            call_taint(
                node,
                graph,
                summaries,
                format!(".{name}"),
                find_callees(graph, node, e),
                &arg_taints,
                Some(all),
                *line,
                hits,
            )
        }
    }
}

/// Root variable of an assignment target (`x`, `x.f`, `x[i]`).
fn root_var(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].clone()),
        Expr::Field { base, .. } | Expr::Index { base, .. } => root_var(base),
        Expr::Unary { inner } => root_var(inner),
        _ => None,
    }
}

/// Callee indices for a call/method expression, via the prebuilt call
/// sites (matched by line + display).
fn find_callees(graph: &CallGraph, node: &FnNode, e: &Expr) -> Vec<usize> {
    let idx = graph
        .fns
        .iter()
        .position(|f| std::ptr::eq(f, node))
        .unwrap_or(usize::MAX);
    let Some(sites) = graph.calls.get(idx) else {
        return Vec::new();
    };
    let (line, display) = match e {
        Expr::Call { segs, line, .. } => (*line, segs.join("::")),
        Expr::Method { name, line, .. } => (*line, format!(".{name}")),
        _ => return Vec::new(),
    };
    for s in sites {
        if s.line == line && s.display == display {
            return s.callees.clone();
        }
    }
    Vec::new()
}

/// Applies callee summaries at a call site: propagates param→ret
/// flows into the result taint and reports param→sink flows as hits
/// at this call site.
#[allow(clippy::too_many_arguments)]
fn call_taint(
    node: &FnNode,
    graph: &CallGraph,
    summaries: &[FnSummary],
    display: String,
    callees: Vec<usize>,
    arg_taints: &[Taint],
    method_all: Option<Taint>,
    line: u32,
    hits: &mut Vec<SinkHit>,
) -> Taint {
    let _ = node;
    let mut out = Taint::new();
    // Summaries are applied only at *unambiguous* call sites: when
    // over-approximated dispatch fans a `.decode()` out to twenty
    // impls, unioning their summaries would give every decode call
    // `SecretKey::decode_from`'s secret return. The taint pass trades
    // that soundness for precision (documented under-approximation);
    // panic-reachability keeps the conservative fan-out.
    if callees.len() > 1 {
        for t in arg_taints {
            out.extend(t.iter().cloned());
        }
        if let Some(all) = &method_all {
            out.extend(all.iter().cloned());
        }
        return out;
    }
    for &c in &callees {
        let s = &summaries[c];
        if let Some(desc) = &s.ret_secret {
            out.insert(Origin::Concrete(desc.clone()));
        }
        // method calls: arg 0 in the callee's param space is the
        // receiver for inherent methods with `self`
        let offset = usize::from(method_all.is_some() && graph.fns[c].def.params.first().is_some_and(|p| p.is_self));
        for &pi in &s.param_to_ret {
            if let Some(t) = index_taint(arg_taints, &method_all, pi, offset) {
                out.extend(t.iter().cloned());
            }
        }
        for (pi, sink_desc) in &s.param_to_sink {
            if let Some(t) = index_taint(arg_taints, &method_all, *pi, offset) {
                if !t.is_empty() {
                    hits.push(SinkHit {
                        line,
                        sink_desc: format!(
                            "{} (inside `{}` via `{display}`)",
                            sink_desc,
                            graph.fns[c].qname()
                        ),
                        origins: t.clone(),
                    });
                }
            }
        }
    }
    // Unresolved calls: be permissive for returns (no workspace callee
    // means std/vendored code that the token rules cover), but keep
    // the arg taint flowing for wrapper types (Some(x), Ok(x)).
    if callees.is_empty() {
        for t in arg_taints {
            out.extend(t.iter().cloned());
        }
        if let Some(all) = &method_all {
            out.extend(all.iter().cloned());
        }
    }
    out
}

/// Taint of the callee's parameter `pi`, accounting for the receiver
/// offset on method calls.
fn index_taint<'a>(
    arg_taints: &'a [Taint],
    method_all: &'a Option<Taint>,
    pi: usize,
    offset: usize,
) -> Option<&'a Taint> {
    if offset == 1 && pi == 0 {
        return method_all.as_ref();
    }
    arg_taints.get(pi.checked_sub(offset)?)
}

// ---------------------------------------------------------------------------
// ct-closure
// ---------------------------------------------------------------------------

/// **ct-closure**: every `lint:ct` function may only call other
/// ct-annotated or allowlisted functions (the constant-time contract
/// is not compositional otherwise). Calls that resolve to nothing in
/// the workspace (std, core intrinsics) are out of scope — the token
/// rule already bans branching constructs inside the body itself.
pub fn ct_closure(graph: &CallGraph, cfg: &LintConfig) -> PassResult {
    let mut out = PassResult::default();
    for (i, node) in graph.fns.iter().enumerate() {
        if !node.is_ct {
            continue;
        }
        for site in &graph.calls[i] {
            if site.callees.is_empty() {
                continue;
            }
            // Over-approximated dispatch can include unrelated
            // same-named methods; require that NO candidate satisfies
            // the closure before firing (documented under-approximation).
            let ok = site.callees.iter().any(|&c| {
                let callee = &graph.fns[c];
                callee.is_ct
                    || cfg
                        .match_allow("ct-closure", &callee.qname(), &callee.def.name, &callee.file)
                        .is_some()
            });
            if ok {
                // consume the allow so it does not count as unused
                for &c in &site.callees {
                    let callee = &graph.fns[c];
                    let _ = cfg.match_allow(
                        "ct-closure",
                        &callee.qname(),
                        &callee.def.name,
                        &callee.file,
                    );
                }
                continue;
            }
            let names: Vec<String> = site
                .callees
                .iter()
                .map(|&c| graph.fns[c].qname())
                .collect();
            let f = Finding {
                file: node.file.clone(),
                line: site.line,
                rule: "ct-closure",
                message: format!(
                    "`{}` is lint:ct but calls non-ct function(s) {} via `{}`",
                    node.qname(),
                    names.join(", "),
                    site.display
                ),
                hint: "annotate the callee lint:ct (and fix its branches), or allowlist it in \
                       lint.toml with a reason",
            };
            out.push(f, cfg, node);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// deadline
// ---------------------------------------------------------------------------

/// Identifier fragments that witness a timeout/TTL bound (checked
/// case-insensitively as substrings, so `expires_at`, `poll_timeout`
/// and `horizon_ms` all count).
const DEADLINE_WITNESSES: &[&str] = &["deadline", "timeout", "expir", "horizon"];

/// The TTL witness, matched as a whole word (`ttl_ms`, `Ttl`,
/// `TTL`) only: as a substring it would also match `settle`.
const TTL_WORD: &str = "ttl";

/// Method/function names that receive from a transport.
const RECV_NAMES: &[&str] = &["recv", "try_recv"];

fn mentions_witness(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    let lowercase_at = |i: Option<usize>| {
        i.and_then(|i| ident.as_bytes().get(i))
            .is_some_and(u8::is_ascii_lowercase)
    };
    DEADLINE_WITNESSES.iter().any(|w| lower.contains(w))
        || lower.match_indices(TTL_WORD).any(|(i, _)| {
            !lowercase_at(i.checked_sub(1)) && !lowercase_at(Some(i + TTL_WORD.len()))
        })
}

/// `deadline`: every loop in `crates/node` that awaits a transport
/// receive (`recv`/`try_recv`) must be reachable from a timeout/TTL
/// check — concretely, the enclosing function must mention a deadline
/// witness (`deadline`, `ttl`, `timeout`, `expir…`, `horizon`) in its
/// parameters or body. A daemon loop that drains a transport with no
/// such bound can spin forever on a partitioned or silent peer, which
/// is exactly the liveness failure the challenge lifecycle's TTL-expiry
/// path exists to prevent. Suppression goes through `lint.toml` like
/// the other whole-program rules.
pub fn deadline(graph: &CallGraph, cfg: &LintConfig) -> PassResult {
    let mut out = PassResult::default();
    for node in &graph.fns {
        if node.in_test || node.def.is_test || !node.file.starts_with("crates/node/src/") {
            continue;
        }
        let Some(body) = &node.def.body else {
            continue;
        };

        // A witness anywhere in the function bounds every loop in it:
        // the TTL check and the drain loop are usually siblings
        // (`step(now)` checks expiries then drains the mailbox).
        let mut witnessed = node.def.params.iter().any(|p| {
            p.names.iter().any(|n| mentions_witness(n)) || p.ty.iter().any(|t| mentions_witness(t))
        });
        if !witnessed {
            walk_stmts(body, &mut |e| {
                witnessed |= match e {
                    Expr::Path { segs, .. }
                    | Expr::Call { segs, .. }
                    | Expr::Macro { segs, .. } => segs.iter().any(|s| mentions_witness(s)),
                    Expr::Method { name, .. } | Expr::Field { name, .. } => {
                        mentions_witness(name)
                    }
                    Expr::Struct { fields, .. } => {
                        fields.iter().any(|(n, _)| mentions_witness(n))
                    }
                    _ => false,
                };
            });
        }
        if witnessed {
            continue;
        }

        // Any loop whose subtree (including a while-let condition, where
        // the recv call usually lives) touches a transport receive.
        let mut recv_loop_lines: Vec<u32> = Vec::new();
        walk_stmts(body, &mut |e| {
            let line = match e {
                Expr::Loop { line, .. } | Expr::For { line, .. } => *line,
                _ => return,
            };
            let mut has_recv = false;
            e.walk(&mut |inner| {
                has_recv |= match inner {
                    Expr::Method { name, .. } => RECV_NAMES.contains(&name.as_str()),
                    Expr::Call { segs, .. } => {
                        segs.last().is_some_and(|s| RECV_NAMES.contains(&s.as_str()))
                    }
                    _ => false,
                };
            });
            if has_recv {
                recv_loop_lines.push(line);
            }
        });
        for line in recv_loop_lines {
            let f = Finding {
                file: node.file.clone(),
                line,
                rule: "deadline",
                message: format!(
                    "`{}` loops over a transport receive with no reachable timeout/TTL \
                     check — a silent or partitioned peer would spin this loop forever",
                    node.qname()
                ),
                hint: "bound the loop with a deadline (ttl/timeout/expires_at/horizon) \
                       checked in the same function, or audit it in lint.toml with a reason",
            };
            out.push(f, cfg, node);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// obs-purity
// ---------------------------------------------------------------------------

/// Source prefix of the telemetry crate; a call counts as an obs call
/// when *every* resolved callee lives here.
const OBS_PREFIX: &str = "crates/obs/src/";

/// Whether `site` resolves exclusively to functions in the obs crate.
/// Requiring *all* candidates (and at least one) keeps over-approximated
/// method dispatch from tarring unrelated same-named methods — a
/// documented under-approximation compensated by the obs crate's
/// distinctive public names (`counter_add`, `sample_count`, ...).
fn is_obs_site(graph: &CallGraph, site: &CallSite) -> bool {
    !site.callees.is_empty()
        && site
            .callees
            .iter()
            .all(|&c| graph.fns.get(c).is_some_and(|f| f.file.starts_with(OBS_PREFIX)))
}

/// `(line, display)` key of a call/method expression, matching how
/// [`CallSite::display`] is built.
fn call_key(e: &Expr) -> Option<(u32, String)> {
    match e {
        Expr::Call { segs, line, .. } => Some((*line, segs.join("::"))),
        Expr::Method { name, line, .. } => Some((*line, format!(".{name}"))),
        _ => None,
    }
}

/// Records the *discarded-result* call positions of one statement list
/// (not nested lists): expression statements, and `let` initializers
/// whose every binding is underscore-prefixed (the span-guard idiom
/// `let _span = dsaudit_obs::span(..)`). Recurses only into let-else
/// diverging blocks, which no expression owns.
fn mark_discard_level(stmts: &[Stmt], out: &mut BTreeMap<(u32, String), u32>) {
    for st in stmts {
        match st {
            Stmt::Expr(e) => {
                if let Some(k) = call_key(e) {
                    *out.entry(k).or_insert(0) += 1;
                }
            }
            Stmt::Let { names, init, els, .. } => {
                if let Some(e) = init {
                    if !names.is_empty() && names.iter().all(|n| n.starts_with('_')) {
                        if let Some(k) = call_key(e) {
                            *out.entry(k).or_insert(0) += 1;
                        }
                    }
                }
                if let Some(b) = els {
                    mark_discard_level(b, out);
                }
            }
            Stmt::Item(_) => {}
        }
    }
}

/// Multiset of `(line, display)` keys at which a call's result is
/// provably discarded anywhere in `body`. Every nested statement list
/// is owned by a `Block`/`If`/`Loop`/`For` expression (which the walk
/// visits exactly once) except let-else blocks, which
/// [`mark_discard_level`] chases itself.
fn discard_positions(body: &[Stmt]) -> BTreeMap<(u32, String), u32> {
    let mut out = BTreeMap::new();
    mark_discard_level(body, &mut out);
    walk_stmts(body, &mut |e| match e {
        Expr::Block { stmts, .. } => mark_discard_level(stmts, &mut out),
        Expr::If { then, .. } => mark_discard_level(then, &mut out),
        Expr::Loop { body, .. } | Expr::For { body, .. } => mark_discard_level(body, &mut out),
        _ => {}
    });
    out
}

/// **obs-purity**: observability must be write-only. Over the call
/// graph, (a) no function on a path from a verdict/codec entry point
/// (`is_panic_entry`) or a `lint:ct` kernel may *consume* an obs
/// return value — every obs call must sit in statement position or bind
/// to an underscore-prefixed local (the span-guard idiom) — and (b) no
/// `lint:ct` kernel may call into the obs crate at all (even a disabled
/// check is a data-independent-timing hazard inside a ct region).
/// Together these prove, structurally, that enabling telemetry cannot
/// change a verdict, a codec result, or ct behavior.
pub fn obs_purity(graph: &CallGraph, cfg: &LintConfig) -> PassResult {
    let n = graph.fns.len();
    let mut out = PassResult::default();

    // (b) ct kernels are obs-free, reachable or not.
    for (i, node) in graph.fns.iter().enumerate() {
        if !node.is_ct || node.in_test {
            continue;
        }
        for site in &graph.calls[i] {
            if !is_obs_site(graph, site) {
                continue;
            }
            let names: Vec<String> =
                site.callees.iter().map(|&c| graph.fns[c].qname()).collect();
            let f = Finding {
                file: node.file.clone(),
                line: site.line,
                rule: "obs-purity",
                message: format!(
                    "`{}` is lint:ct but calls obs function(s) {} via `{}` — telemetry \
                     is forbidden inside constant-time kernels",
                    node.qname(),
                    names.join(", "),
                    site.display
                ),
                hint: "instrument the non-ct wrapper around the kernel instead",
            };
            out.push(f, cfg, node);
        }
    }

    // Forward reachability from verdict/codec entries and ct kernels,
    // skipping test code (tests may snapshot and assert on telemetry).
    let mut reach = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, node) in graph.fns.iter().enumerate() {
        if is_panic_entry(node) || (node.is_ct && !node.in_test && !node.is_trait_decl) {
            reach[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for site in &graph.calls[i] {
            for &callee in &site.callees {
                if !reach[callee] && !graph.fns[callee].in_test {
                    reach[callee] = true;
                    queue.push_back(callee);
                }
            }
        }
    }

    // (a) on every reachable function, each obs call site must appear
    // at a discarded-result position at least as often as it occurs.
    for (i, node) in graph.fns.iter().enumerate() {
        if !reach[i] || node.in_test || node.is_ct || node.file.starts_with(OBS_PREFIX) {
            continue;
        }
        let Some(body) = &node.def.body else {
            continue;
        };
        let allowed = discard_positions(body);
        let mut obs_sites: BTreeMap<(u32, String), u32> = BTreeMap::new();
        for site in &graph.calls[i] {
            if is_obs_site(graph, site) {
                *obs_sites.entry((site.line, site.display.clone())).or_insert(0) += 1;
            }
        }
        for ((line, display), count) in obs_sites {
            if count <= allowed.get(&(line, display.clone())).copied().unwrap_or(0) {
                continue;
            }
            let f = Finding {
                file: node.file.clone(),
                line,
                rule: "obs-purity",
                message: format!(
                    "`{}` consumes the return value of obs call `{}` on a \
                     verdict/codec/ct-reachable path — observability must be write-only",
                    node.qname(),
                    display
                ),
                hint: "call obs in statement position, or bind its guard to an \
                       underscore-prefixed local (`let _span = ...`)",
            };
            out.push(f, cfg, node);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ast;
    use crate::lexer::{lex, Lexed};
    use crate::parser::parse;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let triples: Vec<(String, Lexed, Ast)> = files
            .iter()
            .map(|(name, src)| {
                let lexed = lex(src);
                let ast = parse(&lexed);
                ((*name).to_string(), lexed, ast)
            })
            .collect();
        CallGraph::build(&triples)
    }

    fn empty_cfg() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn panic_chain_is_reported_end_to_end() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn verify_thing(v: &[u8]) -> bool { helper(v) }\n\
             fn helper(v: &[u8]) -> bool { deep(v) }\n\
             fn deep(v: &[u8]) -> bool { v[0] == 1 }\n",
        )]);
        let r = panic_reachability(&g, &empty_cfg());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.rule, "panic-reachability");
        assert!(
            f.message.contains("verify_thing -> helper -> deep"),
            "chain missing: {}",
            f.message
        );
        assert!(f.message.contains("slice/array indexing"));
    }

    #[test]
    fn clean_verify_has_no_findings() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn verify_thing(v: &[u8]) -> bool { v.first().copied() == Some(1) }\n",
        )]);
        let r = panic_reachability(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn test_fns_do_not_create_chains() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn verify_thing(v: &[u8]) -> bool { v.is_empty() }\n\
             #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { assert!(verify_thing(&[])); }\n}\n",
        )]);
        let r = panic_reachability(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn taint_flows_across_function_boundaries() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "struct SecretKey { bytes: Vec<u8> }\n\
             fn log_bytes(d: &[u8]) { println!(\"{:?}\", d); }\n\
             fn derive(sk: &SecretKey) -> Vec<u8> { expand(sk) }\n\
             fn expand(sk: &SecretKey) -> Vec<u8> { sk.bytes.clone() }\n\
             fn leak(sk: &SecretKey) { let d = derive(sk); log_bytes(&d); }\n",
        )]);
        let r = secret_taint(&g, &empty_cfg());
        assert!(
            r.findings.iter().any(|f| f.rule == "secret-taint" && f.message.contains("log_bytes")
                || f.message.contains("println")),
            "expected a cross-function taint finding, got {:?}",
            r.findings
        );
    }

    #[test]
    fn len_does_not_propagate_taint() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "struct SecretKey { bytes: Vec<u8> }\n\
             fn report(sk: &SecretKey) { println!(\"{}\", sk.bytes.len()); }\n",
        )]);
        let r = secret_taint(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn direct_format_of_secret_param_fires() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "struct HmacKey;\nfn bad(key: &HmacKey) { println!(\"{:?}\", key); }\n",
        )]);
        let r = secret_taint(&g, &empty_cfg());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("HmacKey parameter `key`"));
    }

    #[test]
    fn ct_closure_flags_non_ct_callee() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "// lint:ct\nfn kernel(x: u64) -> u64 { helper(x) }\n\
             fn helper(x: u64) -> u64 { x.wrapping_mul(3) }\n",
        )]);
        let r = ct_closure(&g, &empty_cfg());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("helper"));
    }

    #[test]
    fn ct_closure_accepts_ct_callees() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "// lint:ct\nfn kernel(x: u64) -> u64 { inner(x) }\n\
             // lint:ct\nfn inner(x: u64) -> u64 { x.wrapping_mul(3) }\n",
        )]);
        let r = ct_closure(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unbounded_recv_loop_in_node_is_flagged() {
        // `Settle` contains `ttl` but is not a TTL witness
        let g = graph_of(&[(
            "crates/node/src/pump.rs",
            "fn pump(t: &mut Mailbox) {\n\
                 while let Some(m) = t.recv(0, 1) {\n\
                     handle(Frame::Settle(m));\n\
                 }\n\
             }\n\
             fn handle(_m: u8) {}\n",
        )]);
        let r = deadline(&g, &empty_cfg());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "deadline");
        assert!(r.findings[0].message.contains("pump"), "{:?}", r.findings);
    }

    #[test]
    fn deadline_witness_in_the_same_function_silences_the_rule() {
        // the witness can be a field access (`expires_at`, `ttl_ms`),
        // a local (`deadline`), or a parameter — all idioms the daemons
        // use
        let g = graph_of(&[(
            "crates/node/src/pump.rs",
            "fn pump(t: &mut Mailbox, deadline: u64) {\n\
                 while let Some(m) = t.recv(0, 1) {\n\
                     if m.at > deadline { break; }\n\
                     handle(m);\n\
                 }\n\
             }\n\
             fn drain(t: &mut Mailbox, now: u64) {\n\
                 expire_overdue(now);\n\
                 loop {\n\
                     let m = t.try_recv(now);\n\
                     if m.is_none() { break; }\n\
                 }\n\
             }\n\
             fn bounded(t: &mut Mailbox, cfg: Cfg) {\n\
                 while let Some(m) = t.recv(cfg.ttl_ms, 1) {\n\
                     handle(m);\n\
                 }\n\
             }\n\
             fn expire_overdue(_now: u64) {}\n\
             fn handle(_m: u8) {}\n",
        )]);
        let r = deadline(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn recv_loops_outside_crates_node_are_not_the_rules_business() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "fn pump(t: &mut Mailbox) {\n\
                 while let Some(m) = t.recv(0, 1) {\n\
                     handle(m);\n\
                 }\n\
             }\n\
             fn handle(_m: u8) {}\n",
        )]);
        let r = deadline(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    /// A fake obs crate plus an instrumented verify chain, all clean:
    /// statement-position calls and an underscore-bound span guard.
    const OBS_SRC: (&str, &str) = (
        "crates/obs/src/lib.rs",
        "pub fn counter_inc(name: &str) {}\n\
         pub fn observe(name: &str, value: u64) {}\n\
         pub fn span(name: &str) -> Span { Span }\n\
         pub struct Span;\n",
    );

    #[test]
    fn obs_purity_accepts_discarded_obs_calls() {
        let g = graph_of(&[
            OBS_SRC,
            (
                "crates/x/src/lib.rs",
                "fn verify_thing(v: &[u8]) -> bool {\n\
                     let _span = dsaudit_obs::span(\"x.verify\");\n\
                     dsaudit_obs::counter_inc(\"x.calls\");\n\
                     if v.is_empty() {\n\
                         dsaudit_obs::observe(\"x.len\", 0);\n\
                     }\n\
                     true\n\
                 }\n",
            ),
        ]);
        let r = obs_purity(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn obs_purity_flags_consumed_return_value() {
        let g = graph_of(&[
            OBS_SRC,
            (
                "crates/x/src/lib.rs",
                "fn verify_thing(v: &[u8]) -> bool {\n\
                     let guard = dsaudit_obs::span(\"x.verify\");\n\
                     helper(&guard)\n\
                 }\n\
                 fn helper(_g: &Span) -> bool { true }\n",
            ),
        ]);
        let r = obs_purity(&g, &empty_cfg());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "obs-purity");
        assert!(r.findings[0].message.contains("dsaudit_obs::span"), "{:?}", r.findings);
    }

    #[test]
    fn obs_purity_flags_obs_call_inside_ct_kernel() {
        let g = graph_of(&[
            OBS_SRC,
            (
                "crates/x/src/lib.rs",
                "// lint:ct\nfn kernel(x: u64) -> u64 {\n\
                     dsaudit_obs::counter_inc(\"x.kernel\");\n\
                     x.wrapping_mul(3)\n\
                 }\n",
            ),
        ]);
        let r = obs_purity(&g, &empty_cfg());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(
            r.findings[0].message.contains("lint:ct"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn obs_purity_ignores_unreachable_consumers() {
        // snapshot/export plumbing consumes obs values legitimately —
        // it is not on any verify/decode/ct path.
        let g = graph_of(&[
            OBS_SRC,
            (
                "crates/bench/src/lib.rs",
                "fn render() -> Span { dsaudit_obs::span(\"bench\") }\n",
            ),
        ]);
        let r = obs_purity(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn loops_without_a_receive_are_ignored() {
        let g = graph_of(&[(
            "crates/node/src/math.rs",
            "fn sum(xs: &[u64]) -> u64 {\n\
                 let mut acc = 0u64;\n\
                 for x in xs {\n\
                     acc += x;\n\
                 }\n\
                 acc\n\
             }\n",
        )]);
        let r = deadline(&g, &empty_cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
