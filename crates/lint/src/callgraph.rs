//! Workspace-wide call graph over the parsed ASTs.
//!
//! Nodes are every `fn` in the workspace (free functions, inherent and
//! trait-impl methods, trait default bodies, nested fns). Edges are
//! resolved conservatively:
//!
//! * **free calls** `f(..)` / `path::f(..)` resolve by last path
//!   segment against free functions; `Type::method(..)` paths resolve
//!   against that type's impls first, then trait declarations.
//! * **method calls** `recv.m(..)` resolve by receiver type when the
//!   receiver is `self`, a typed parameter, a type-ascribed local, or a
//!   constructor result — otherwise they **over-approximate** to every
//!   workspace method named `m`.
//! * trait-method calls additionally fan out to every impl of the
//!   trait (dynamic dispatch is indistinguishable from static here).
//!   This includes `dyn Trait` receivers: `Box<dyn AuditBackend>`
//!   unwraps to the trait name, so a call through a trait object
//!   resolves to every implementor.
//! * locals bound from a free-fn call (`let b = backend_for(id)`) type
//!   as the fn's declared return when every same-named free fn agrees
//!   on it — registry-style factories returning `Box<dyn Trait>` pin
//!   dispatch to the trait's impls instead of every same-named method.
//!
//! Calls that resolve to nothing in the workspace (std, vendored deps)
//! produce no edge: the passes treat external code per their own
//! policies. All containers are `BTreeMap`/`BTreeSet`-ordered so graph
//! dumps and finding order are deterministic.

use std::collections::BTreeMap;

use crate::ast::{walk_stmts, Ast, Expr, FnDef};
use crate::lexer::Lexed;
use crate::rules::is_test_path;

/// A fully-qualified function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// Container type name for methods (`Fq12` in `impl Fq12`), empty
    /// for free functions.
    pub self_ty: String,
    /// Trait name when the fn lives in a `impl Trait for Type` block or
    /// a trait declaration.
    pub trait_name: Option<String>,
    /// The parsed definition.
    pub def: FnDef,
    /// Whether the fn is test-only (`#[test]`, `#[cfg(test)]` module,
    /// or under a `tests/`/`benches/` directory).
    pub in_test: bool,
    /// Whether this is a bodyless trait declaration (`fn f(..);`).
    pub is_trait_decl: bool,
}

impl FnNode {
    /// `Type::name` for methods, bare `name` for free fns — the id used
    /// in reports and `lint.toml` matching.
    pub fn qname(&self) -> String {
        if self.self_ty.is_empty() {
            self.def.name.clone()
        } else {
            format!("{}::{}", self.self_ty, self.def.name)
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Indices into [`CallGraph::fns`] of every possible callee.
    pub callees: Vec<usize>,
    /// Source line of the call.
    pub line: u32,
    /// Display form (`frobenius`, `Fr::new`, `.unwrap`).
    pub display: String,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function node, in deterministic (file, line) order.
    pub fns: Vec<FnNode>,
    /// Resolved call sites per function (same index space as `fns`).
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Builds the graph from `(file, lexed, ast)` triples.
    pub fn build(files: &[(String, Lexed, Ast)]) -> CallGraph {
        let mut fns = Vec::new();
        for (file, _, ast) in files {
            let path_test = is_test_path(file);
            ast.visit_fns(&mut |def, self_ty, trait_name, in_test, is_trait_decl| {
                fns.push(FnNode {
                    file: file.clone(),
                    self_ty: self_ty.unwrap_or("").to_string(),
                    trait_name: trait_name.map(str::to_string),
                    def: def.clone(),
                    in_test: in_test || path_test,
                    is_trait_decl,
                });
            });
        }
        // deterministic node order regardless of visit order
        fns.sort_by(|a, b| (a.file.as_str(), a.def.line).cmp(&(b.file.as_str(), b.def.line)));

        let maps = ResolutionMaps::new(&fns);
        let calls = fns
            .iter()
            .map(|node| extract_calls(node, &maps))
            .collect();
        CallGraph { fns, calls }
    }

    /// Index lookup by qualified name (first match).
    pub fn find(&self, qname: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.qname() == qname)
    }

    /// Reverse adjacency: `callers[i]` = every fn with an edge to `i`.
    pub fn reverse_edges(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.fns.len()];
        for (caller, sites) in self.calls.iter().enumerate() {
            for site in sites {
                for &callee in &site.callees {
                    rev[callee].push(caller);
                }
            }
        }
        for v in &mut rev {
            v.sort_unstable();
            v.dedup();
        }
        rev
    }
}

/// Method names that collide with the std prelude/collections API:
/// an *unknown-receiver* call to one of these is overwhelmingly a std
/// call, so it resolves to no workspace edge rather than fanning out
/// to every same-named method. Typed receivers still resolve exactly.
const UBIQUITOUS_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "clone",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "iter",
    "next",
    "extend",
    "clear",
    "fmt",
    "new",
    "default",
    "as_bytes",
    "to_vec",
    "to_string",
    "write",
    "read",
    // digest-API name (in-tree Sha256 and every hasher idiom): an
    // untyped `.finalize()` is a hash being read out, not the
    // simulator's report assembly
    "finalize",
    // atomic API names: an untyped `.load(Ordering::..)`/`.store(..)`
    // receiver is a static atomic (the obs enabled gate), not
    // `Provider::load` or a config loader
    "load",
    "store",
];

/// Name→candidate-index maps used during edge resolution.
struct ResolutionMaps {
    /// Free functions by bare name.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// All methods (any container) by bare name.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by `(container, name)`.
    methods_by_ty_name: BTreeMap<(String, String), Vec<usize>>,
    /// Impls of each trait: trait name → container names.
    impls_of_trait: BTreeMap<String, Vec<String>>,
    /// Declared return type of free fns, by bare name — only when every
    /// free fn with that name agrees on it (ambiguous names type
    /// nothing). `Box<dyn Trait>` returns unwrap to the trait name.
    free_fn_ret: BTreeMap<String, String>,
}

impl ResolutionMaps {
    fn new(fns: &[FnNode]) -> ResolutionMaps {
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_ty_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut impls_of_trait: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut ret_candidates: BTreeMap<String, Option<String>> = BTreeMap::new();
        for (i, node) in fns.iter().enumerate() {
            if node.self_ty.is_empty() {
                free_by_name.entry(node.def.name.clone()).or_default().push(i);
                let ret = main_type_name(&node.def.ret);
                ret_candidates
                    .entry(node.def.name.clone())
                    .and_modify(|e| {
                        if *e != ret {
                            *e = None;
                        }
                    })
                    .or_insert(ret);
            } else {
                methods_by_name
                    .entry(node.def.name.clone())
                    .or_default()
                    .push(i);
                methods_by_ty_name
                    .entry((node.self_ty.clone(), node.def.name.clone()))
                    .or_default()
                    .push(i);
                if let Some(tr) = &node.trait_name {
                    let v = impls_of_trait.entry(tr.clone()).or_default();
                    if !node.is_trait_decl && !v.contains(&node.self_ty) {
                        v.push(node.self_ty.clone());
                    }
                }
            }
        }
        let free_fn_ret = ret_candidates
            .into_iter()
            .filter_map(|(name, ret)| ret.map(|r| (name, r)))
            .collect();
        ResolutionMaps {
            free_by_name,
            methods_by_name,
            methods_by_ty_name,
            impls_of_trait,
            free_fn_ret,
        }
    }

    /// Resolves `Type::name` — inherent/impl methods of `Type` first;
    /// if `Type` is a trait, fan out to every implementor; fall back to
    /// the trait declaration itself (for default bodies).
    fn resolve_qualified(&self, ty: &str, name: &str) -> Vec<usize> {
        let mut out = self
            .methods_by_ty_name
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if let Some(impls) = self.impls_of_trait.get(ty) {
            for imp in impls {
                if let Some(v) = self.methods_by_ty_name.get(&(imp.clone(), name.to_string())) {
                    out.extend(v.iter().copied());
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resolves `recv.name(..)` given an optional receiver type.
    fn resolve_method(&self, recv_ty: Option<&str>, name: &str) -> Vec<usize> {
        if let Some(ty) = recv_ty {
            let hit = self.resolve_qualified(ty, name);
            if !hit.is_empty() {
                return hit;
            }
        }
        // Unknown receiver: conservative over-approximation — except
        // for method names that collide with the std prelude on every
        // second type (`.len()` on an untyped receiver is almost never
        // the workspace's `BoundedCache::len`). Those resolve to
        // nothing; a documented under-approximation.
        if UBIQUITOUS_METHODS.contains(&name) {
            return Vec::new();
        }
        self.methods_by_name.get(name).cloned().unwrap_or_default()
    }
}

/// Best-effort local typing environment: maps local variable names to
/// type names gleaned from params, `let` ascriptions, constructor
/// calls (`let k = SecretKey::new(..)`), and free-fn declared returns
/// (`let b = backend_for(id)` with `fn backend_for(..) -> Box<dyn T>`).
fn local_types(node: &FnNode, rets: &BTreeMap<String, String>) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    if !node.self_ty.is_empty() {
        env.insert("self".to_string(), node.self_ty.clone());
        env.insert("Self".to_string(), node.self_ty.clone());
    }
    for p in &node.def.params {
        if let Some(name) = p.names.first() {
            if let Some(ty) = main_type_name(&p.ty) {
                env.insert(name.clone(), ty);
            }
        }
    }
    let Some(body) = &node.def.body else { return env };
    walk_lets(body, rets, &mut env);
    env
}

fn walk_lets(
    stmts: &[crate::ast::Stmt],
    rets: &BTreeMap<String, String>,
    env: &mut BTreeMap<String, String>,
) {
    use crate::ast::Stmt;
    for s in stmts {
        match s {
            Stmt::Let { names, ty, init, els, .. } => {
                if names.len() == 1 {
                    if let Some(t) = main_type_name(ty) {
                        env.insert(names[0].clone(), t);
                    } else if let Some(Expr::Call { segs, .. }) = init {
                        // `let k = SecretKey::new(..)` / `Foo::default()`
                        let qual = segs.len() >= 2
                            && segs[segs.len() - 2]
                                .chars()
                                .next()
                                .is_some_and(char::is_uppercase);
                        if qual {
                            env.insert(names[0].clone(), segs[segs.len() - 2].clone());
                        } else if let Some(ret) = rets.get(&segs[segs.len() - 1]) {
                            // free fn (bare or `module::f`) with a known
                            // declared return type
                            env.insert(names[0].clone(), ret.clone());
                        }
                    }
                }
                if let Some(e) = init {
                    walk_expr_lets(e, rets, env);
                }
                if let Some(b) = els {
                    walk_lets(b, rets, env);
                }
            }
            Stmt::Expr(e) => walk_expr_lets(e, rets, env),
            Stmt::Item(_) => {}
        }
    }
}

fn walk_expr_lets(
    e: &Expr,
    rets: &BTreeMap<String, String>,
    env: &mut BTreeMap<String, String>,
) {
    e.walk(&mut |x| {
        if let Expr::Block { stmts, .. } = x {
            walk_lets(stmts, rets, env);
        }
    });
}

/// Picks the "main" type name from a type-identifier bag: the first
/// uppercase-initial identifier that is not a well-known wrapper.
fn main_type_name(ty: &[String]) -> Option<String> {
    const WRAPPERS: &[&str] = &["Option", "Result", "Vec", "Box", "Rc", "Arc", "Cow"];
    let mut fallback = None;
    for t in ty {
        if t.chars().next().is_some_and(char::is_uppercase) {
            if WRAPPERS.contains(&t.as_str()) {
                fallback.get_or_insert_with(|| t.clone());
                continue;
            }
            return Some(t.clone());
        }
    }
    fallback
}

/// Extracts and resolves every call site in `node`'s body.
fn extract_calls(node: &FnNode, maps: &ResolutionMaps) -> Vec<CallSite> {
    let Some(body) = &node.def.body else {
        return Vec::new();
    };
    let env = local_types(node, &maps.free_fn_ret);
    let mut sites = Vec::new();
    walk_stmts(body, &mut |e| match e {
        Expr::Call { segs, line, .. } => {
            let callees = if segs.len() >= 2 {
                let ty = &segs[segs.len() - 2];
                let name = &segs[segs.len() - 1];
                let ty = if ty == "Self" && !node.self_ty.is_empty() {
                    node.self_ty.as_str()
                } else {
                    ty.as_str()
                };
                if ty.chars().next().is_some_and(char::is_uppercase) {
                    maps.resolve_qualified(ty, name)
                } else {
                    // `module::f(..)` — resolve as a free fn
                    maps.free_by_name.get(name).cloned().unwrap_or_default()
                }
            } else {
                maps.free_by_name
                    .get(&segs[0])
                    .cloned()
                    .unwrap_or_default()
            };
            sites.push(CallSite {
                callees,
                line: *line,
                display: segs.join("::"),
            });
        }
        Expr::Method { recv, name, line, .. } => {
            let recv_ty = receiver_type(recv, &env, node);
            let callees = maps.resolve_method(recv_ty.as_deref(), name);
            sites.push(CallSite {
                callees,
                line: *line,
                display: format!(".{name}"),
            });
        }
        _ => {}
    });
    sites
}

/// Types a method receiver expression when possible.
fn receiver_type(
    recv: &Expr,
    env: &BTreeMap<String, String>,
    node: &FnNode,
) -> Option<String> {
    match recv {
        Expr::Path { segs, .. } if segs.len() == 1 => env.get(&segs[0]).cloned(),
        Expr::Path { segs, .. } => {
            // `a::B` path receiver — associated const etc.; type unknown
            let last = segs.last().expect("nonempty path");
            if last.chars().next().is_some_and(char::is_uppercase) {
                Some(last.clone())
            } else {
                None
            }
        }
        Expr::Call { segs, .. } if segs.len() >= 2 => {
            // `Foo::new(..).method()` — receiver is Foo
            let ty = &segs[segs.len() - 2];
            if ty == "Self" {
                Some(node.self_ty.clone()).filter(|s| !s.is_empty())
            } else if ty.chars().next().is_some_and(char::is_uppercase) {
                Some(ty.clone())
            } else {
                None
            }
        }
        Expr::Unary { inner } | Expr::Cast { inner } => receiver_type(inner, env, node),
        Expr::Struct { segs, .. } => segs.last().cloned(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
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

    fn edges(g: &CallGraph, caller: &str) -> Vec<String> {
        let i = g.find(caller).expect("caller present");
        let mut out: Vec<String> = g.calls[i]
            .iter()
            .flat_map(|s| s.callees.iter().map(|&c| g.fns[c].qname()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn free_and_qualified_calls_resolve() {
        let g = graph_of(&[(
            "a.rs",
            "fn leaf() {}\nfn mid() { leaf(); }\nstruct T;\nimpl T {\n    fn new() -> T { T }\n    fn run(&self) { helper(); }\n}\nfn helper() {}\nfn top() { mid(); T::new(); }\n",
        )]);
        assert_eq!(edges(&g, "mid"), ["leaf"]);
        assert_eq!(edges(&g, "top"), ["T::new", "mid"]);
        assert_eq!(edges(&g, "T::run"), ["helper"]);
    }

    #[test]
    fn typed_receiver_narrows_method_dispatch() {
        let g = graph_of(&[(
            "a.rs",
            "struct A;\nstruct B;\nimpl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn f(a: A) { a.go(); }\nfn g(x: &UnknownTy) { x.go(); }\n",
        )]);
        assert_eq!(edges(&g, "f"), ["A::go"]);
        // unknown receiver over-approximates to both
        assert_eq!(edges(&g, "g"), ["A::go", "B::go"]);
    }

    #[test]
    fn trait_calls_fan_out_to_impls() {
        let g = graph_of(&[(
            "a.rs",
            "trait Codec {\n    fn decode_from(r: u8) -> Self;\n    fn decode(b: u8) -> Self where Self: Sized { Self::decode_from(b) }\n}\nstruct X;\nimpl Codec for X { fn decode_from(r: u8) -> X { X } }\nfn call_it(b: u8) -> X { Codec::decode(b); X::decode_from(b) }\n",
        )]);
        // Codec::decode resolves to the default body; X::decode_from to the impl
        let e = edges(&g, "call_it");
        assert!(e.contains(&"Codec::decode".to_string()), "{e:?}");
        assert!(e.contains(&"X::decode_from".to_string()), "{e:?}");
        // the default body's Self::decode_from fans out to the impl
        let d = edges(&g, "Codec::decode");
        assert!(d.contains(&"X::decode_from".to_string()), "{d:?}");
    }

    #[test]
    fn constructor_results_type_locals() {
        let g = graph_of(&[(
            "a.rs",
            "struct K;\nimpl K {\n    fn new() -> K { K }\n    fn use_it(&self) {}\n}\nstruct Other;\nimpl Other { fn use_it(&self) {} }\nfn f() {\n    let k = K::new();\n    k.use_it();\n}\n",
        )]);
        assert_eq!(edges(&g, "f"), ["K::new", "K::use_it"]);
    }

    #[test]
    fn dyn_trait_receivers_fan_out_to_all_impls() {
        let g = graph_of(&[(
            "a.rs",
            "trait AuditBackend { fn prove(&self); }\n\
             struct Pairing;\nstruct Merkle;\n\
             impl AuditBackend for Pairing { fn prove(&self) {} }\n\
             impl AuditBackend for Merkle { fn prove(&self) {} }\n\
             fn drive(b: &dyn AuditBackend) { b.prove(); }\n",
        )]);
        let e = edges(&g, "drive");
        assert!(e.contains(&"Pairing::prove".to_string()), "{e:?}");
        assert!(e.contains(&"Merkle::prove".to_string()), "{e:?}");
    }

    #[test]
    fn registry_return_types_pin_dyn_dispatch() {
        let g = graph_of(&[(
            "a.rs",
            "trait AuditBackend { fn prove(&self); }\n\
             struct Pairing;\nstruct Merkle;\nstruct Decoy;\n\
             impl AuditBackend for Pairing { fn prove(&self) {} }\n\
             impl AuditBackend for Merkle { fn prove(&self) {} }\n\
             impl Decoy { fn prove(&self) {} }\n\
             fn backend_for(id: u8) -> Box<dyn AuditBackend> { Box::new(Pairing) }\n\
             fn drive(id: u8) { let b = backend_for(id); b.prove(); }\n",
        )]);
        let e = edges(&g, "drive");
        // the declared return type pins dispatch to the trait's impls,
        // not every same-named method in the workspace
        assert!(e.contains(&"Pairing::prove".to_string()), "{e:?}");
        assert!(e.contains(&"Merkle::prove".to_string()), "{e:?}");
        assert!(!e.contains(&"Decoy::prove".to_string()), "{e:?}");
    }

    #[test]
    fn ct_annotations_attach_to_fns() {
        let g = graph_of(&[(
            "a.rs",
            "/// docs\n// lint:ct\npub fn kernel(x: u64) -> u64 { x }\npub fn plain(x: u64) -> u64 { x }\n",
        )]);
        let k = g.find("kernel").expect("kernel");
        let p = g.find("plain").expect("plain");
        assert!(g.fns[k].def.is_ct);
        assert!(!g.fns[p].def.is_ct);
    }
}
