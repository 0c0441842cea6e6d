//! The lightweight AST produced by [`crate::parser`].
//!
//! This is not a faithful Rust grammar: it models exactly what the
//! interprocedural passes need — the item tree (functions, impls,
//! traits, modules) and, inside function bodies, the expression shapes
//! that carry analysis facts: calls, method calls, macros, field
//! projections, indexing, assignments and control flow. Everything
//! else parses to [`Expr::Unknown`] without failing; the parser is
//! total and records token-index spans: the per-file rules take their
//! zones from them, and the differential gate asserts the item tree
//! tiles the lexer stream exactly.

use crate::lexer::Token;

/// A parsed source file: the item list plus the token stream length it
/// was parsed from (for span/tiling checks).
#[derive(Clone, Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Length of the token stream the file parsed from.
    pub num_tokens: usize,
}

/// One item, with the half-open token-index range it covers (including
/// its attributes).
#[derive(Clone, Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Half-open `[start, end)` token-index span.
    pub span: (usize, usize),
    /// Whether the item carries `#[test]` or `#[cfg(test)]`.
    pub is_test: bool,
}

/// The item kinds the analyzer distinguishes.
#[derive(Clone, Debug)]
pub enum ItemKind {
    /// A function (free, impl method, or trait method).
    Fn(FnDef),
    /// An `impl` block with its child items.
    Impl(ImplDef),
    /// An inline `mod name { ... }` with its child items.
    Mod {
        /// Module name.
        name: String,
        /// Items inside the braces.
        items: Vec<Item>,
    },
    /// A `trait` definition with its child items (method signatures
    /// and provided-default methods).
    Trait {
        /// Trait name.
        name: String,
        /// Items inside the braces.
        items: Vec<Item>,
    },
    /// Any other item (struct/enum/use/const/static/type/macro_rules):
    /// recorded only for span tiling.
    Other {
        /// Which keyword introduced it.
        what: String,
        /// Its name, when one follows the keyword.
        name: Option<String>,
    },
    /// A token the item parser could not attach to any item. The
    /// differential gate counts these; a healthy parse has none.
    Opaque,
}

/// An `impl` block.
#[derive(Clone, Debug)]
pub struct ImplDef {
    /// Last path segment of the implemented-for type (`Vec` for
    /// `impl Codec for Vec<G1Affine>`).
    pub self_ty: String,
    /// Last path segment of the trait, for trait impls.
    pub trait_name: Option<String>,
    /// Child items (methods, associated consts/types).
    pub items: Vec<Item>,
}

/// One function parameter.
#[derive(Clone, Debug, Default)]
pub struct Param {
    /// Every binding identifier in the pattern (one for `x: T`,
    /// several for destructuring patterns).
    pub names: Vec<String>,
    /// Every identifier appearing in the type annotation.
    pub ty: Vec<String>,
    /// Whether this is a `self` receiver.
    pub is_self: bool,
}

/// A function definition (or bodiless trait-method signature).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether a standalone `// lint:ct` comment annotates the fn (see
    /// [`crate::parser::parse`]).
    pub is_ct: bool,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Identifiers appearing in the return type.
    pub ret: Vec<String>,
    /// The parsed body; `None` for trait-method signatures.
    pub body: Option<Vec<Stmt>>,
    /// Half-open token span of the braced body, braces included; `None`
    /// exactly when `body` is.
    pub body_span: Option<(usize, usize)>,
}

/// One statement inside a function body.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// A `let` binding (including `let ... else { ... }`).
    Let {
        /// Binding identifiers in the pattern.
        names: Vec<String>,
        /// Identifiers in the type ascription, when present.
        ty: Vec<String>,
        /// Initializer expression, when present.
        init: Option<Expr>,
        /// The `else` diverging block of a let-else, when present.
        els: Option<Vec<Stmt>>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement.
    Expr(Expr),
    /// A nested item (e.g. a fn defined inside a body).
    Item(Box<Item>),
}

/// One expression. Each variant keeps the 1-based line it starts on.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A path used as a value: `x`, `self`, `Fr::ZERO`.
    Path {
        /// Path segments (turbofish generics dropped).
        segs: Vec<String>,
        /// Start line.
        line: u32,
    },
    /// A literal (number/string/char); content dropped.
    Lit {
        /// Start line.
        line: u32,
    },
    /// A call through a path: `foo(a)`, `Fr::new(x)`.
    Call {
        /// Callee path segments.
        segs: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// Start line.
        line: u32,
    },
    /// A call of a non-path callee (closure, field): `(f)(x)`, `self.f(x)`
    /// where `f` is a field holding a closure.
    CallExpr {
        /// The callee expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Start line.
        line: u32,
    },
    /// A method call: `recv.name(args)`.
    Method {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Start line.
        line: u32,
    },
    /// A field projection: `base.name`, `base.0`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (`"0"`-style for tuple fields).
        name: String,
        /// Start line.
        line: u32,
    },
    /// An index/slice expression: `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// The index expression (a [`Expr::Range`] for slicing).
        index: Box<Expr>,
        /// Start line.
        line: u32,
    },
    /// A macro invocation: `name!(args)`.
    Macro {
        /// Macro path segments.
        segs: Vec<String>,
        /// Best-effort parsed arguments.
        args: Vec<Expr>,
        /// Start line.
        line: u32,
    },
    /// A binary operation.
    Binary {
        /// The operator text (`"/"`, `"=="`, `"&&"`, ...).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Start line.
        line: u32,
    },
    /// An assignment, plain or compound (`x = v`, `x += v`).
    Assign {
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
        /// Start line.
        line: u32,
    },
    /// A prefix-operator expression (`&x`, `*x`, `-x`, `!x`).
    Unary {
        /// The operand.
        inner: Box<Expr>,
    },
    /// A struct literal: `Path { field: expr, .. }`.
    Struct {
        /// Struct path segments.
        segs: Vec<String>,
        /// Field initializers (shorthand fields map to a `Path`).
        fields: Vec<(String, Expr)>,
        /// The `..base` expression, when present.
        base: Option<Box<Expr>>,
        /// Start line.
        line: u32,
    },
    /// A tuple or parenthesized expression.
    Tuple {
        /// Elements (a 1-tuple is a plain paren group).
        items: Vec<Expr>,
        /// Start line.
        line: u32,
    },
    /// An array literal `[a, b]` or `[x; n]`.
    Array {
        /// Element expressions (both forms flattened).
        items: Vec<Expr>,
        /// Start line.
        line: u32,
    },
    /// A block expression `{ ... }`.
    Block {
        /// Statements inside.
        stmts: Vec<Stmt>,
        /// Start line.
        line: u32,
    },
    /// An `if`/`if let` expression.
    If {
        /// The condition (the bound expression for `if let`).
        cond: Box<Expr>,
        /// The then-block.
        then: Vec<Stmt>,
        /// The else branch (a nested `If` or a `Block`).
        alt: Option<Box<Expr>>,
        /// Start line.
        line: u32,
    },
    /// A `match` expression.
    Match {
        /// The scrutinee.
        scrutinee: Box<Expr>,
        /// Arms: optional guard expression plus arm value.
        arms: Vec<(Option<Expr>, Expr)>,
        /// Start line.
        line: u32,
    },
    /// A `loop` or `while`/`while let` (condition folded into `cond`).
    Loop {
        /// The loop condition, when the loop has one.
        cond: Option<Box<Expr>>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Start line.
        line: u32,
    },
    /// A `for` loop.
    For {
        /// Pattern binding identifiers.
        pat_names: Vec<String>,
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Start line.
        line: u32,
    },
    /// A closure.
    Closure {
        /// Parameter binding identifiers.
        params: Vec<String>,
        /// The closure body.
        body: Box<Expr>,
        /// Start line.
        line: u32,
    },
    /// `return`/`break` with an optional value.
    Return {
        /// The returned expression, when present.
        value: Option<Box<Expr>>,
        /// Start line.
        line: u32,
    },
    /// A range `lo..hi` / `lo..=hi` with optional endpoints.
    Range {
        /// Lower endpoint.
        lo: Option<Box<Expr>>,
        /// Upper endpoint.
        hi: Option<Box<Expr>>,
        /// Start line.
        line: u32,
    },
    /// An `expr as Type` cast (type dropped).
    Cast {
        /// The cast operand.
        inner: Box<Expr>,
    },
    /// A token sequence the parser could not classify.
    Unknown {
        /// Start line.
        line: u32,
    },
}

impl Expr {
    /// The 1-based line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line }
            | Expr::Call { line, .. }
            | Expr::CallExpr { line, .. }
            | Expr::Method { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Struct { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Block { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::Loop { line, .. }
            | Expr::For { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Return { line, .. }
            | Expr::Range { line, .. }
            | Expr::Unknown { line } => *line,
            Expr::Unary { inner } | Expr::Cast { inner } => inner.line(),
        }
    }

    /// Preorder walk over this expression and every nested expression,
    /// descending into blocks, arms, closures and nested statements.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => {}
            Expr::Call { args, .. } | Expr::Macro { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::CallExpr { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Method { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { base, .. } => base.walk(f),
            Expr::Index { base, index, .. } => {
                base.walk(f);
                index.walk(f);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Assign { target, value, .. } => {
                target.walk(f);
                value.walk(f);
            }
            Expr::Unary { inner } | Expr::Cast { inner } => inner.walk(f),
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
                if let Some(b) = base {
                    b.walk(f);
                }
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    e.walk(f);
                }
            }
            Expr::Block { stmts, .. } => walk_stmts(stmts, f),
            Expr::If {
                cond, then, alt, ..
            } => {
                cond.walk(f);
                walk_stmts(then, f);
                if let Some(a) = alt {
                    a.walk(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for (guard, value) in arms {
                    if let Some(g) = guard {
                        g.walk(f);
                    }
                    value.walk(f);
                }
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    c.walk(f);
                }
                walk_stmts(body, f);
            }
            Expr::For { iter, body, .. } => {
                iter.walk(f);
                walk_stmts(body, f);
            }
            Expr::Closure { body, .. } => body.walk(f),
            Expr::Return { value, .. } => {
                if let Some(v) = value {
                    v.walk(f);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(l) = lo {
                    l.walk(f);
                }
                if let Some(h) = hi {
                    h.walk(f);
                }
            }
        }
    }
}

/// Walks every expression under a statement list (see [`Expr::walk`]).
pub fn walk_stmts(stmts: &[Stmt], f: &mut impl FnMut(&Expr)) {
    for s in stmts {
        match s {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    e.walk(f);
                }
                if let Some(b) = els {
                    walk_stmts(b, f);
                }
            }
            Stmt::Expr(e) => e.walk(f),
            // nested items are analyzed as their own graph nodes
            Stmt::Item(_) => {}
        }
    }
}

impl Ast {
    /// Visits every function in the tree with its container context:
    /// `(fn, impl_self_ty, trait_name, in_test, is_trait_decl)`, where
    /// `in_test` holds when the fn or any item around it is a test item.
    pub fn visit_fns(
        &self,
        f: &mut impl FnMut(&FnDef, Option<&str>, Option<&str>, bool, bool),
    ) {
        fn walk_items(
            items: &[Item],
            self_ty: Option<&str>,
            trait_name: Option<&str>,
            in_test: bool,
            is_trait_decl: bool,
            f: &mut impl FnMut(&FnDef, Option<&str>, Option<&str>, bool, bool),
        ) {
            for item in items {
                let in_test = in_test || item.is_test;
                match &item.kind {
                    ItemKind::Fn(fd) => {
                        f(fd, self_ty, trait_name, in_test, is_trait_decl);
                        if let Some(body) = &fd.body {
                            walk_nested(body, in_test, f);
                        }
                    }
                    ItemKind::Impl(im) => walk_items(
                        &im.items,
                        Some(&im.self_ty),
                        im.trait_name.as_deref(),
                        in_test,
                        false,
                        f,
                    ),
                    ItemKind::Mod { items, .. } => walk_items(items, None, None, in_test, false, f),
                    ItemKind::Trait { name, items } => {
                        walk_items(items, Some(name), Some(name), in_test, true, f)
                    }
                    ItemKind::Other { .. } | ItemKind::Opaque => {}
                }
            }
        }
        fn walk_nested(
            stmts: &[Stmt],
            in_test: bool,
            f: &mut impl FnMut(&FnDef, Option<&str>, Option<&str>, bool, bool),
        ) {
            for s in stmts {
                if let Stmt::Item(item) = s {
                    walk_items(std::slice::from_ref(item), None, None, in_test, false, f);
                }
            }
        }
        walk_items(&self.items, None, None, false, false, f)
    }

    /// Flattens the item tree's token spans and checks they tile
    /// `[0, num_tokens)` exactly: top-level items are contiguous and
    /// non-overlapping, and child items nest strictly inside their
    /// parent. Returns a description of the first violation.
    pub fn check_span_tiling(&self, tokens: &[Token]) -> Result<(), String> {
        let mut cursor = 0usize;
        for item in &self.items {
            if item.span.0 != cursor {
                return Err(format!(
                    "gap/overlap at token {} (item starts at {}, near line {})",
                    cursor,
                    item.span.0,
                    tokens.get(cursor).map_or(0, |t| t.line)
                ));
            }
            if item.span.1 < item.span.0 {
                return Err(format!("inverted span {:?}", item.span));
            }
            check_children(item)?;
            cursor = item.span.1;
        }
        if cursor != self.num_tokens {
            return Err(format!(
                "trailing tokens: tiled {} of {}",
                cursor, self.num_tokens
            ));
        }
        return Ok(());

        fn check_children(item: &Item) -> Result<(), String> {
            let kids: &[Item] = match &item.kind {
                ItemKind::Impl(im) => &im.items,
                ItemKind::Mod { items, .. } | ItemKind::Trait { items, .. } => items,
                _ => return Ok(()),
            };
            let mut cursor = item.span.0;
            for kid in kids {
                if kid.span.0 < cursor || kid.span.1 > item.span.1 {
                    return Err(format!(
                        "child span {:?} escapes/overlaps parent {:?}",
                        kid.span, item.span
                    ));
                }
                check_children(kid)?;
                cursor = kid.span.1;
            }
            Ok(())
        }
    }

    /// Counts [`ItemKind::Opaque`] items anywhere in the tree.
    pub fn opaque_tokens(&self) -> usize {
        fn count(items: &[Item]) -> usize {
            items
                .iter()
                .map(|i| match &i.kind {
                    ItemKind::Opaque => 1,
                    ItemKind::Impl(im) => count(&im.items),
                    ItemKind::Mod { items, .. } | ItemKind::Trait { items, .. } => count(items),
                    _ => 0,
                })
                .sum()
        }
        count(&self.items)
    }
}
