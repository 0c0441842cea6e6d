//! A total recursive-descent parser over the [`crate::lexer`] token
//! stream producing the [`crate::ast`] item tree.
//!
//! Design constraints, in order:
//!
//! 1. **Totality.** The parser never fails and never loops: every
//!    construct it does not model collapses to `Expr::Unknown` or
//!    `ItemKind::Opaque` with guaranteed forward progress. The
//!    compiler, not the linter, is the arbiter of validity.
//! 2. **Span discipline.** Every item records the half-open
//!    token-index range it consumed; the differential gate asserts the
//!    item tree tiles the token stream exactly, so dropped or
//!    double-consumed tokens are test failures, not silent holes in the
//!    call graph.
//! 3. **Just enough grammar.** Bodies parse down to the expressions the
//!    interprocedural passes consume — calls, method calls, macros,
//!    field projections, indexing, assignments, control flow — with
//!    struct-literal/`if`-condition disambiguation, turbofish, match
//!    guards, closures, ranges, and let-else handled; types are
//!    collected as bags of identifiers.

use crate::ast::{Ast, Expr, FnDef, ImplDef, Item, ItemKind, Param, Stmt};
use crate::lexer::{Lexed, Token, TokenKind};

/// Keywords that introduce an item in statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "use",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "mod",
    "static",
    "type",
    "macro_rules",
];

/// Parses a lexed file into its item tree. Never fails.
///
/// A `// lint:ct` comment annotates the function whose `fn name` comes
/// first after the comment's line (doc comments and attributes may
/// intervene); that [`FnDef`] gets `is_ct`.
pub fn parse(lexed: &Lexed) -> Ast {
    let toks = &lexed.tokens;
    let ct_kws = lexed
        .comments
        .iter()
        .filter(|c| c.text.trim() == "lint:ct")
        .filter_map(|c| {
            (0..toks.len()).find(|&i| {
                toks[i].line > c.line
                    && toks[i].kind == TokenKind::Ident
                    && toks[i].text == "fn"
                    && toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            })
        })
        .collect();
    let mut p = Parser {
        toks,
        pos: 0,
        ct_kws,
    };
    Ast {
        items: p.parse_items(toks.len()),
        num_tokens: toks.len(),
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Token indices of the `fn` keywords a `lint:ct` comment annotates.
    ct_kws: Vec<usize>,
}

impl<'a> Parser<'a> {
    // ---- token helpers --------------------------------------------------

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + off)
    }

    fn line(&self) -> u32 {
        self.peek().map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn punct_at(&self, off: usize, s: &str) -> bool {
        self.peek_at(off)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn at_any_ident(&self) -> bool {
        self.peek().is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Index of the token closing the delimiter at `open` (which must
    /// be `(`, `[` or `{`). Tracks all three delimiter kinds jointly.
    /// Returns `toks.len() - 1`-ish fallbacks on malformed input.
    fn matching(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1).max(open)
    }

    /// Skips a balanced `<...>` generic-argument/parameter list; `pos`
    /// must be at the `<`. `>` preceded by `-` (i.e. `->`) does not
    /// close; `(`/`[`/`{` groups are jumped over whole.
    fn skip_angles(&mut self) {
        debug_assert!(self.at_punct("<"));
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        let arrow = self.pos > 0
                            && self.toks[self.pos - 1].kind == TokenKind::Punct
                            && self.toks[self.pos - 1].text == "-";
                        if !arrow {
                            depth -= 1;
                            if depth == 0 {
                                self.pos += 1;
                                return;
                            }
                        }
                    }
                    "(" | "[" | "{" => {
                        let close = self.matching(self.pos);
                        self.pos = close; // +1 below
                    }
                    ";" => return, // malformed; bail without consuming
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// Skips a type: `&`/`*` prefixes, path segments, balanced angle
    /// lists, parenthesized/array types, `dyn`/`impl` markers. Stops at
    /// anything else. Collects identifiers into `out`.
    fn skip_type(&mut self, out: &mut Vec<String>) {
        loop {
            if self.at_punct("&") || self.at_punct("&&") || self.at_punct("*") {
                self.pos += 1;
                continue;
            }
            if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                self.pos += 1;
                continue;
            }
            if self.at_ident("mut") || self.at_ident("const") || self.at_ident("dyn") {
                self.pos += 1;
                continue;
            }
            if self.at_punct("(") || self.at_punct("[") {
                let close = self.matching(self.pos);
                for t in &self.toks[self.pos..=close.min(self.toks.len() - 1)] {
                    if t.kind == TokenKind::Ident {
                        out.push(t.text.clone());
                    }
                }
                self.pos = close + 1;
                // tuple/array type may be followed by more path (rare) — stop
                return;
            }
            if self.at_any_ident() {
                // a path segment (including `impl Trait`, `fn(..)` pointers)
                let t = self.bump().expect("ident");
                if t.text != "impl" && t.text != "fn" && t.text != "as" {
                    out.push(t.text.clone());
                }
                if t.text == "fn" && self.at_punct("(") {
                    let close = self.matching(self.pos);
                    for t in &self.toks[self.pos..=close.min(self.toks.len() - 1)] {
                        if t.kind == TokenKind::Ident {
                            out.push(t.text.clone());
                        }
                    }
                    self.pos = close + 1;
                }
                if self.at_punct("<") {
                    let before = self.pos;
                    self.skip_angles();
                    for t in &self.toks[before..self.pos] {
                        if t.kind == TokenKind::Ident {
                            out.push(t.text.clone());
                        }
                    }
                }
                if self.punct_at(0, ":") && self.punct_at(1, ":") {
                    self.pos += 2;
                    continue;
                }
                if self.at_punct("+") {
                    // trait bound union: `impl A + B`
                    self.pos += 1;
                    continue;
                }
                if self.at_punct("-") && self.punct_at(1, ">") {
                    // fn-pointer return: `fn(..) -> T`
                    self.pos += 2;
                    continue;
                }
                return;
            }
            return;
        }
    }

    // ---- items ----------------------------------------------------------

    /// Parses items until token index `end`.
    fn parse_items(&mut self, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < end {
            let before = self.pos;
            let item = self.parse_item(end);
            items.push(item);
            if self.pos == before {
                // absolute progress guard — cannot happen, but never loop
                self.pos += 1;
            }
        }
        items
    }

    /// Parses one item starting at the current position (attributes
    /// included in its span). Unknown leading tokens become `Opaque`.
    fn parse_item(&mut self, end: usize) -> Item {
        let start = self.pos;
        let mut is_test = false;

        // attributes: `#[...]` / `#![...]`
        while self.at_punct("#") && self.pos < end {
            let mut j = self.pos + 1;
            if self.punct_at(1, "!") {
                j += 1;
            }
            if !(self.toks.get(j).is_some_and(|t| t.kind == TokenKind::Punct && t.text == "[")) {
                break;
            }
            let save = self.pos;
            self.pos = j;
            let close = self.matching(self.pos);
            for t in &self.toks[save..=close.min(self.toks.len() - 1)] {
                if t.kind == TokenKind::Ident && t.text == "test" {
                    is_test = true;
                }
            }
            self.pos = close + 1;
        }

        // visibility
        if self.eat_ident("pub") && self.at_punct("(") {
            let close = self.matching(self.pos);
            self.pos = close + 1;
        }

        // qualifiers before `fn`
        loop {
            if self.at_ident("const") {
                // `const fn` vs `const NAME: ...` item
                let next = self.peek_at(1);
                let is_fn_qualifier = next.is_some_and(|t| {
                    t.kind == TokenKind::Ident
                        && matches!(t.text.as_str(), "fn" | "unsafe" | "extern" | "async")
                });
                if is_fn_qualifier {
                    self.pos += 1;
                    continue;
                }
                break;
            }
            if self.at_ident("async") || self.at_ident("unsafe") || self.at_ident("default") {
                self.pos += 1;
                continue;
            }
            if self.at_ident("extern") {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }

        let kind = if self.at_ident("fn") {
            ItemKind::Fn(self.parse_fn())
        } else if self.at_ident("impl") {
            ItemKind::Impl(self.parse_impl())
        } else if self.at_ident("mod") {
            self.pos += 1;
            let name = self.bump_ident_name();
            if self.at_punct("{") {
                let close = self.matching(self.pos);
                self.pos += 1; // into the braces
                let items = self.parse_items(close);
                self.pos = close + 1;
                ItemKind::Mod { name, items }
            } else {
                self.eat_punct(";");
                ItemKind::Mod {
                    name,
                    items: Vec::new(),
                }
            }
        } else if self.at_ident("trait") {
            self.pos += 1;
            let name = self.bump_ident_name();
            if self.at_punct("<") {
                self.skip_angles();
            }
            // supertrait bounds / where clause: skip to the body
            while self.pos < end && !self.at_punct("{") && !self.at_punct(";") {
                if self.at_punct("<") {
                    self.skip_angles();
                } else if self.at_punct("(") || self.at_punct("[") {
                    let close = self.matching(self.pos);
                    self.pos = close + 1;
                } else {
                    self.pos += 1;
                }
            }
            if self.at_punct("{") {
                let close = self.matching(self.pos);
                self.pos += 1;
                let items = self.parse_items(close);
                self.pos = close + 1;
                ItemKind::Trait { name, items }
            } else {
                self.eat_punct(";");
                ItemKind::Trait {
                    name,
                    items: Vec::new(),
                }
            }
        } else if self.at_ident("struct") || self.at_ident("enum") || self.at_ident("union") {
            let what = self.bump().expect("kw").text.clone();
            let name = if self.at_any_ident() {
                Some(self.bump_ident_name())
            } else {
                None
            };
            // skip generics, tuple body, where clause, braced body / `;`
            while self.pos < end {
                if self.at_punct("<") {
                    self.skip_angles();
                } else if self.at_punct("(") {
                    let close = self.matching(self.pos);
                    self.pos = close + 1;
                } else if self.at_punct("{") {
                    let close = self.matching(self.pos);
                    self.pos = close + 1;
                    break;
                } else if self.eat_punct(";") {
                    break;
                } else {
                    self.pos += 1;
                }
            }
            ItemKind::Other { what, name }
        } else if self.at_ident("macro_rules") {
            self.pos += 1; // macro_rules
            self.eat_punct("!");
            let name = if self.at_any_ident() {
                Some(self.bump_ident_name())
            } else {
                None
            };
            if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
                let close = self.matching(self.pos);
                self.pos = close + 1;
            }
            self.eat_punct(";");
            ItemKind::Other {
                what: "macro_rules".into(),
                name,
            }
        } else if self.at_ident("use")
            || self.at_ident("type")
            || self.at_ident("static")
            || self.at_ident("const")
        {
            let what = self.bump().expect("kw").text.clone();
            let name = if self.at_any_ident() {
                Some(self.toks[self.pos].text.clone())
            } else {
                None
            };
            // skip to the `;` closing the item, jumping groups whole
            while self.pos < end {
                if self.at_punct("(") || self.at_punct("[") || self.at_punct("{") {
                    let close = self.matching(self.pos);
                    self.pos = close + 1;
                } else if self.eat_punct(";") {
                    break;
                } else if self.at_punct("<") {
                    self.skip_angles();
                } else {
                    self.pos += 1;
                }
            }
            ItemKind::Other { what, name }
        } else if let Some(path_len) = self.item_macro_path() {
            // item-position macro invocation: `proptest! { ... }`,
            // `criterion_group!(...)`, `krate::m!(...)`. Brace-delimited
            // contents are parsed as items so fns inside (proptest
            // bodies) reach the call graph; other delimiters are
            // skipped whole.
            let name: String = self.toks[self.pos..self.pos + path_len]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            self.pos += path_len + 1; // path, !
            let braced = self.at_punct("{");
            let close = self.matching(self.pos);
            let items = if braced {
                self.pos += 1;
                let items = self.parse_items(close);
                self.pos = close + 1;
                items
            } else {
                self.pos = close + 1;
                self.eat_punct(";");
                Vec::new()
            };
            ItemKind::Mod {
                name: format!("{name}!"),
                items,
            }
        } else {
            // not an item start: consume a single token as Opaque, but
            // only if nothing (attr/vis/qualifier) was consumed yet —
            // otherwise record what we did consume as an opaque item.
            if self.pos == start {
                self.pos += 1;
            }
            ItemKind::Opaque
        };

        Item {
            kind,
            span: (start, self.pos),
            is_test,
        }
    }

    /// The token length of the macro path `a::b::m` when an item-position
    /// invocation `a::b::m!(..)` / `[..]` / `{..}` starts at `pos`.
    fn item_macro_path(&self) -> Option<usize> {
        let ident_at = |off: usize| self.peek_at(off).is_some_and(|t| t.kind == TokenKind::Ident);
        if !ident_at(0) {
            return None;
        }
        let mut len = 1;
        while self.punct_at(len, ":") && self.punct_at(len + 1, ":") && ident_at(len + 2) {
            len += 3;
        }
        let delimited = ["(", "[", "{"].iter().any(|d| self.punct_at(len + 1, d));
        (self.punct_at(len, "!") && delimited).then_some(len)
    }

    fn bump_ident_name(&mut self) -> String {
        if self.at_any_ident() {
            self.bump().expect("ident").text.clone()
        } else {
            String::new()
        }
    }

    /// Parses `impl<G> Trait for Type<G> where ... { items }`; `pos` is
    /// at the `impl` keyword.
    fn parse_impl(&mut self) -> ImplDef {
        self.pos += 1; // impl
        if self.at_punct("<") {
            self.skip_angles();
        }
        // Collect the header: everything to the `{` at depth 0.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        while self.pos < self.toks.len() && !self.at_punct("{") && !self.at_punct(";") {
            if self.at_punct("<") {
                self.skip_angles();
                continue;
            }
            if self.at_ident("where") {
                // skip the where clause wholesale
                while self.pos < self.toks.len() && !self.at_punct("{") && !self.at_punct(";") {
                    if self.at_punct("<") {
                        self.skip_angles();
                    } else if self.at_punct("(") || self.at_punct("[") {
                        let close = self.matching(self.pos);
                        self.pos = close + 1;
                    } else {
                        self.pos += 1;
                    }
                }
                break;
            }
            if self.at_ident("for") {
                saw_for = true;
                self.pos += 1;
                continue;
            }
            if self.at_any_ident() {
                let name = self.bump().expect("ident").text.clone();
                if saw_for {
                    after_for.push(name);
                } else {
                    before_for.push(name);
                }
                continue;
            }
            self.pos += 1;
        }
        let (self_ty, trait_name) = if saw_for {
            (
                after_for.last().cloned().unwrap_or_default(),
                before_for.last().cloned(),
            )
        } else {
            (before_for.last().cloned().unwrap_or_default(), None)
        };
        let items = if self.at_punct("{") {
            let close = self.matching(self.pos);
            self.pos += 1;
            let items = self.parse_items(close);
            self.pos = close + 1;
            items
        } else {
            self.eat_punct(";");
            Vec::new()
        };
        ImplDef {
            self_ty,
            trait_name,
            items,
        }
    }

    /// Parses a `fn` item; `pos` is at the `fn` keyword.
    fn parse_fn(&mut self) -> FnDef {
        let is_ct = self.ct_kws.contains(&self.pos);
        let line = self.line();
        self.pos += 1; // fn
        let name = self.bump_ident_name();
        if self.at_punct("<") {
            self.skip_angles();
        }
        let params = if self.at_punct("(") {
            let close = self.matching(self.pos);
            let params = self.parse_params(close);
            self.pos = close + 1;
            params
        } else {
            Vec::new()
        };
        // return type
        let mut ret = Vec::new();
        if self.at_punct("-") && self.punct_at(1, ">") {
            self.pos += 2;
            while self.pos < self.toks.len()
                && !self.at_punct("{")
                && !self.at_punct(";")
                && !self.at_ident("where")
            {
                if self.at_punct("<") {
                    let before = self.pos;
                    self.skip_angles();
                    for t in &self.toks[before..self.pos] {
                        if t.kind == TokenKind::Ident {
                            ret.push(t.text.clone());
                        }
                    }
                    continue;
                }
                if self.at_punct("(") || self.at_punct("[") {
                    let close = self.matching(self.pos);
                    for t in &self.toks[self.pos..=close.min(self.toks.len() - 1)] {
                        if t.kind == TokenKind::Ident {
                            ret.push(t.text.clone());
                        }
                    }
                    self.pos = close + 1;
                    continue;
                }
                if self.at_any_ident() {
                    ret.push(self.toks[self.pos].text.clone());
                }
                self.pos += 1;
            }
        }
        // where clause (group contents jumped whole: `[u8; 48]` has a
        // `;` that must not read as the item terminator)
        if self.at_ident("where") {
            while self.pos < self.toks.len() && !self.at_punct("{") && !self.at_punct(";") {
                if self.at_punct("<") {
                    self.skip_angles();
                } else if self.at_punct("(") || self.at_punct("[") {
                    let close = self.matching(self.pos);
                    self.pos = close + 1;
                } else {
                    self.pos += 1;
                }
            }
        }
        // body
        let (body, body_span) = if self.at_punct("{") {
            let open = self.pos;
            let close = self.matching(self.pos);
            self.pos += 1;
            let stmts = self.parse_block(close);
            self.pos = close + 1;
            (Some(stmts), Some((open, self.pos)))
        } else {
            self.eat_punct(";");
            (None, None)
        };
        FnDef {
            name,
            line,
            is_ct,
            params,
            ret,
            body,
            body_span,
        }
    }

    /// Parses the parameter list between the `(` at `pos` and `close`.
    fn parse_params(&mut self, close: usize) -> Vec<Param> {
        self.pos += 1; // (
        let mut params = Vec::new();
        while self.pos < close {
            // one parameter: tokens up to the next comma at depth 0
            let mut param = Param::default();
            let mut seen_colon = false;
            while self.pos < close {
                if self.at_punct(",") {
                    self.pos += 1;
                    break;
                }
                if self.at_punct("<") {
                    let before = self.pos;
                    self.skip_angles();
                    if seen_colon {
                        for t in &self.toks[before..self.pos] {
                            if t.kind == TokenKind::Ident {
                                param.ty.push(t.text.clone());
                            }
                        }
                    }
                    continue;
                }
                if self.at_punct("(") || self.at_punct("[") || self.at_punct("{") {
                    let group_close = self.matching(self.pos);
                    for t in &self.toks[self.pos..=group_close.min(self.toks.len() - 1)] {
                        if t.kind == TokenKind::Ident {
                            if seen_colon {
                                param.ty.push(t.text.clone());
                            } else if !matches!(t.text.as_str(), "mut" | "ref") {
                                param.names.push(t.text.clone());
                            }
                        }
                    }
                    self.pos = group_close + 1;
                    continue;
                }
                if self.at_punct(":") {
                    seen_colon = true;
                    self.pos += 1;
                    continue;
                }
                if self.at_any_ident() {
                    let text = self.toks[self.pos].text.clone();
                    self.pos += 1;
                    if text == "self" && !seen_colon {
                        param.is_self = true;
                    } else if seen_colon {
                        param.ty.push(text);
                    } else if !matches!(text.as_str(), "mut" | "ref" | "_") {
                        param.names.push(text);
                    }
                    continue;
                }
                self.pos += 1;
            }
            if param.is_self || !param.names.is_empty() || !param.ty.is_empty() {
                params.push(param);
            }
        }
        params
    }

    // ---- statements -----------------------------------------------------

    /// Parses the statements between the current position and `end`
    /// (exclusive; the caller already stepped past the opening `{`).
    fn parse_block(&mut self, end: usize) -> Vec<Stmt> {
        let mut stmts = Vec::new();
        while self.pos < end {
            let before = self.pos;
            if self.eat_punct(";") {
                continue;
            }
            // statement-position attributes
            if self.at_punct("#") {
                let mut j = self.pos + 1;
                if self.punct_at(1, "!") {
                    j += 1;
                }
                if self.toks.get(j).is_some_and(|t| t.kind == TokenKind::Punct && t.text == "[") {
                    self.pos = j;
                    let close = self.matching(self.pos);
                    self.pos = close + 1;
                    continue;
                }
            }
            if self.at_ident("let") {
                stmts.push(self.parse_let(end));
            } else if self
                .peek()
                .is_some_and(|t| t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()))
                || (self.at_ident("pub"))
                || (self.at_ident("const")
                    && self
                        .peek_at(1)
                        .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "fn")
                    && !self.punct_at(1, "{"))
            {
                // nested item (fn/use/struct/... in statement position).
                // NB `const { ... }` blocks and `const fn` fall through
                // to the item parser's qualifier handling.
                let item = self.parse_item(end);
                stmts.push(Stmt::Item(Box::new(item)));
            } else {
                let e = self.parse_expr(end, false);
                stmts.push(Stmt::Expr(e));
                self.eat_punct(";");
            }
            if self.pos == before {
                stmts.push(Stmt::Expr(Expr::Unknown { line: self.line() }));
                self.pos += 1;
            }
        }
        stmts
    }

    /// Parses a `let` statement; `pos` is at `let`.
    fn parse_let(&mut self, end: usize) -> Stmt {
        let line = self.line();
        self.pos += 1; // let
        let names = self.parse_pattern_names(end, &["=", ":", ";"]);
        let mut ty = Vec::new();
        if self.at_punct(":") {
            self.pos += 1;
            while self.pos < end && !self.at_punct("=") && !self.at_punct(";") {
                if self.at_punct("<") {
                    let before = self.pos;
                    self.skip_angles();
                    for t in &self.toks[before..self.pos] {
                        if t.kind == TokenKind::Ident {
                            ty.push(t.text.clone());
                        }
                    }
                    continue;
                }
                if self.at_punct("(") || self.at_punct("[") {
                    let close = self.matching(self.pos);
                    for t in &self.toks[self.pos..=close.min(self.toks.len() - 1)] {
                        if t.kind == TokenKind::Ident {
                            ty.push(t.text.clone());
                        }
                    }
                    self.pos = close + 1;
                    continue;
                }
                if self.at_any_ident() {
                    ty.push(self.toks[self.pos].text.clone());
                }
                self.pos += 1;
            }
        }
        let mut init = None;
        let mut els = None;
        if self.eat_punct("=") {
            init = Some(self.parse_expr(end, false));
            if self.eat_ident("else") && self.at_punct("{") {
                let close = self.matching(self.pos);
                self.pos += 1;
                els = Some(self.parse_block(close));
                self.pos = close + 1;
            }
        }
        self.eat_punct(";");
        Stmt::Let {
            names,
            ty,
            init,
            els,
            line,
        }
    }

    /// Collects binding identifiers of a pattern, advancing until one
    /// of `stops` appears at delimiter depth 0 (the stop token is not
    /// consumed). Also stops at `in` (for-loop patterns) and before
    /// `=` when it is part of `==`/`=>`/`..=`.
    fn parse_pattern_names(&mut self, end: usize, stops: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        while self.pos < end {
            if let Some(t) = self.peek() {
                if t.kind == TokenKind::Punct {
                    if stops.contains(&t.text.as_str()) {
                        if t.text == "=" {
                            // `..=` range pattern: the `=` belongs to the range
                            let prev_dot = self.pos > 0
                                && self.toks[self.pos - 1].kind == TokenKind::Punct
                                && self.toks[self.pos - 1].text == ".";
                            if prev_dot {
                                self.pos += 1;
                                continue;
                            }
                        }
                        return names;
                    }
                    if matches!(t.text.as_str(), "(" | "[" | "{") {
                        let close = self.matching(self.pos);
                        // collect nested binding idents too
                        let mut j = self.pos + 1;
                        while j < close {
                            let tj = &self.toks[j];
                            if tj.kind == TokenKind::Ident
                                && !matches!(tj.text.as_str(), "mut" | "ref" | "_")
                                && !(j + 2 < close
                                    && self.toks[j + 1].kind == TokenKind::Punct
                                    && self.toks[j + 1].text == ":"
                                    && self.toks[j + 2].kind == TokenKind::Punct
                                    && self.toks[j + 2].text == ":")
                            {
                                names.push(tj.text.clone());
                            }
                            j += 1;
                        }
                        self.pos = close + 1;
                        continue;
                    }
                } else if t.kind == TokenKind::Ident {
                    if t.text == "in" && stops.contains(&"in") {
                        return names;
                    }
                    if t.text == "if" && stops.contains(&"if") {
                        return names;
                    }
                    if !matches!(t.text.as_str(), "mut" | "ref" | "_" | "in") {
                        names.push(t.text.clone());
                    }
                    self.pos += 1;
                    continue;
                }
            }
            self.pos += 1;
        }
        names
    }

    // ---- expressions ----------------------------------------------------

    /// Parses one expression. `no_struct` disables struct-literal
    /// parsing (if/while/match-scrutinee position). Stops before any
    /// token that cannot continue the expression.
    fn parse_expr(&mut self, end: usize, no_struct: bool) -> Expr {
        let lhs = self.parse_prefix(end, no_struct);
        self.parse_binop_chain(lhs, end, no_struct)
    }

    fn parse_binop_chain(&mut self, mut lhs: Expr, end: usize, no_struct: bool) -> Expr {
        loop {
            if self.pos >= end {
                return lhs;
            }
            let Some(t) = self.peek() else { return lhs };
            if t.kind == TokenKind::Ident && t.text == "as" {
                self.pos += 1;
                let mut sink = Vec::new();
                self.skip_type(&mut sink);
                lhs = Expr::Cast {
                    inner: Box::new(lhs),
                };
                continue;
            }
            if t.kind != TokenKind::Punct {
                return lhs;
            }
            let line = t.line;
            match t.text.as_str() {
                "&&" | "||" => {
                    let op = t.text.clone();
                    self.pos += 1;
                    let rhs = self.parse_prefix(end, no_struct);
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
                "=" => {
                    if self.punct_at(1, "=") {
                        self.pos += 2;
                        let rhs = self.parse_prefix(end, no_struct);
                        lhs = Expr::Binary {
                            op: "==".into(),
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                            line,
                        };
                    } else if self.punct_at(1, ">") {
                        // `=>` match arm arrow: not ours
                        return lhs;
                    } else {
                        self.pos += 1;
                        let value = self.parse_expr(end, no_struct);
                        return Expr::Assign {
                            target: Box::new(lhs),
                            value: Box::new(value),
                            line,
                        };
                    }
                }
                "!" if self.punct_at(1, "=") => {
                    self.pos += 2;
                    let rhs = self.parse_prefix(end, no_struct);
                    lhs = Expr::Binary {
                        op: "!=".into(),
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
                "." if self.punct_at(1, ".") => {
                    // range: `..` / `..=`
                    self.pos += 2;
                    self.eat_punct("=");
                    let hi = if self.range_has_upper(end) {
                        Some(Box::new(self.parse_prefix_postfix_only(end, no_struct)))
                    } else {
                        None
                    };
                    lhs = Expr::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                        line,
                    };
                }
                "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "<" | ">" => {
                    let mut op = t.text.clone();
                    self.pos += 1;
                    // multi-char operators built from single-char tokens
                    if (op == "<" && self.at_punct("<")) || (op == ">" && self.at_punct(">")) {
                        op.push_str(&self.bump().expect("shift").text);
                    }
                    if self.at_punct("=") {
                        match op.as_str() {
                            "<" | ">" => {
                                // comparison <= / >=
                                self.pos += 1;
                                op.push('=');
                            }
                            _ => {
                                // compound assignment
                                self.pos += 1;
                                let value = self.parse_expr(end, no_struct);
                                return Expr::Assign {
                                    target: Box::new(lhs),
                                    value: Box::new(value),
                                    line,
                                };
                            }
                        }
                    }
                    let rhs = self.parse_prefix(end, no_struct);
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
                _ => return lhs,
            }
        }
    }

    /// Whether a range expression has an upper bound here (vs `a..` at
    /// the end of a slice index or struct-update position).
    fn range_has_upper(&self, end: usize) -> bool {
        if self.pos >= end {
            return false;
        }
        match self.peek() {
            None => false,
            Some(t) => !(t.kind == TokenKind::Punct
                && matches!(t.text.as_str(), ")" | "]" | "}" | "," | ";" | "{")),
        }
    }

    /// Prefix + primary + postfix, without binary continuation (used
    /// for range upper bounds where `..a + b` grouping is irrelevant).
    fn parse_prefix_postfix_only(&mut self, end: usize, no_struct: bool) -> Expr {
        self.parse_prefix(end, no_struct)
    }

    fn parse_prefix(&mut self, end: usize, no_struct: bool) -> Expr {
        if self.pos >= end {
            return Expr::Unknown { line: self.line() };
        }
        // prefix operators
        if self.at_punct("&") || self.at_punct("&&") || self.at_punct("*") || self.at_punct("-")
            || (self.at_punct("!") && !self.punct_at(1, "="))
        {
            self.pos += 1;
            self.eat_ident("mut");
            let inner = self.parse_prefix(end, no_struct);
            return Expr::Unary {
                inner: Box::new(inner),
            };
        }
        let primary = self.parse_primary(end, no_struct);
        self.parse_postfix(primary, end, no_struct)
    }

    fn parse_postfix(&mut self, mut e: Expr, end: usize, no_struct: bool) -> Expr {
        loop {
            if self.pos >= end {
                return e;
            }
            if self.at_punct("?") {
                self.pos += 1;
                continue;
            }
            if self.at_punct(".") {
                if self.punct_at(1, ".") {
                    // range — belongs to the binop chain
                    return e;
                }
                let line = self.line();
                match self.peek_at(1) {
                    Some(t) if t.kind == TokenKind::Ident => {
                        let name = t.text.clone();
                        self.pos += 2;
                        if name == "await" {
                            continue;
                        }
                        // turbofish between name and call parens
                        if self.punct_at(0, ":") && self.punct_at(1, ":") {
                            self.pos += 2;
                            if self.at_punct("<") {
                                self.skip_angles();
                            }
                        }
                        if self.at_punct("(") {
                            let close = self.matching(self.pos);
                            let args = self.parse_expr_list(close);
                            self.pos = close + 1;
                            e = Expr::Method {
                                recv: Box::new(e),
                                name,
                                args,
                                line,
                            };
                        } else {
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                line,
                            };
                        }
                        continue;
                    }
                    Some(t) if t.kind == TokenKind::Num => {
                        let name = t.text.clone();
                        self.pos += 2;
                        e = Expr::Field {
                            base: Box::new(e),
                            name,
                            line,
                        };
                        continue;
                    }
                    _ => return e,
                }
            }
            if self.at_punct("(") {
                let line = self.line();
                let close = self.matching(self.pos);
                let args = self.parse_expr_list(close);
                self.pos = close + 1;
                e = match e {
                    Expr::Path { segs, .. } => Expr::Call { segs, args, line },
                    other => Expr::CallExpr {
                        callee: Box::new(other),
                        args,
                        line,
                    },
                };
                continue;
            }
            if self.at_punct("[") {
                let line = self.line();
                let close = self.matching(self.pos);
                self.pos += 1;
                let index = if self.pos < close {
                    self.parse_expr(close, false)
                } else {
                    Expr::Unknown { line }
                };
                self.pos = close + 1;
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    line,
                };
                continue;
            }
            let _ = no_struct;
            return e;
        }
    }

    /// Parses a comma-separated expression list up to (exclusive) the
    /// token index `close`; `pos` is at the opening delimiter.
    fn parse_expr_list(&mut self, close: usize) -> Vec<Expr> {
        self.pos += 1; // opening delimiter
        let mut out = Vec::new();
        while self.pos < close {
            let before = self.pos;
            let e = self.parse_expr(close, false);
            out.push(e);
            if self.at_punct(",") || self.at_punct(";") {
                self.pos += 1;
            }
            if self.pos == before {
                self.pos += 1; // skip an unparseable token (e.g. pattern in matches!)
            }
        }
        out
    }

    fn parse_primary(&mut self, end: usize, no_struct: bool) -> Expr {
        let line = self.line();
        if self.pos >= end {
            return Expr::Unknown { line };
        }
        let t = self.toks[self.pos].clone();

        // labels: `'outer: loop { ... }`
        if t.kind == TokenKind::Lifetime {
            self.pos += 1;
            self.eat_punct(":");
            return self.parse_primary(end, no_struct);
        }

        match t.kind {
            TokenKind::Num | TokenKind::Str | TokenKind::Char => {
                self.pos += 1;
                return Expr::Lit { line };
            }
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    let close = self.matching(self.pos);
                    let items = self.parse_expr_list(close);
                    self.pos = close + 1;
                    return if items.len() == 1 {
                        items.into_iter().next().expect("one element")
                    } else {
                        Expr::Tuple { items, line }
                    };
                }
                "[" => {
                    let close = self.matching(self.pos);
                    let items = self.parse_expr_list(close);
                    self.pos = close + 1;
                    return Expr::Array { items, line };
                }
                "{" => {
                    let close = self.matching(self.pos);
                    self.pos += 1;
                    let stmts = self.parse_block(close);
                    self.pos = close + 1;
                    return Expr::Block { stmts, line };
                }
                "|" | "||" => {
                    // closure
                    let params = if t.text == "|" {
                        self.pos += 1;
                        self.closure_params(end)
                    } else {
                        self.pos += 1;
                        Vec::new()
                    };
                    // optional return type forces a block body
                    if self.at_punct("-") && self.punct_at(1, ">") {
                        self.pos += 2;
                        while self.pos < end && !self.at_punct("{") {
                            if self.at_punct("<") {
                                self.skip_angles();
                            } else {
                                self.pos += 1;
                            }
                        }
                    }
                    let body = self.parse_expr(end, false);
                    return Expr::Closure {
                        params,
                        body: Box::new(body),
                        line,
                    };
                }
                _ => {
                    self.pos += 1;
                    return Expr::Unknown { line };
                }
            },
            TokenKind::Ident => {}
            TokenKind::Lifetime => unreachable!("handled above"),
        }

        // identifier-led constructs
        match t.text.as_str() {
            "move" => {
                self.pos += 1;
                // `move |...| body` / `move || body`
                return self.parse_primary(end, no_struct);
            }
            "return" | "break" => {
                self.pos += 1;
                if self.peek().is_some_and(|n| n.kind == TokenKind::Lifetime) {
                    self.pos += 1; // break label
                }
                let value = if self.expr_follows(end) {
                    Some(Box::new(self.parse_expr(end, no_struct)))
                } else {
                    None
                };
                return Expr::Return { value, line };
            }
            "continue" => {
                self.pos += 1;
                if self.peek().is_some_and(|n| n.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                return Expr::Return { value: None, line };
            }
            "if" => return self.parse_if(end),
            "match" => return self.parse_match(end),
            "loop" => {
                self.pos += 1;
                let body = self.braced_block(end);
                return Expr::Loop {
                    cond: None,
                    body,
                    line,
                };
            }
            "while" => {
                self.pos += 1;
                if self.eat_ident("let") {
                    let _pat = self.parse_pattern_names(end, &["="]);
                    self.eat_punct("=");
                }
                let cond = self.parse_expr(end, true);
                let body = self.braced_block(end);
                return Expr::Loop {
                    cond: Some(Box::new(cond)),
                    body,
                    line,
                };
            }
            "for" => {
                self.pos += 1;
                let pat_names = self.parse_pattern_names(end, &["in"]);
                self.eat_ident("in");
                let iter = self.parse_expr(end, true);
                let body = self.braced_block(end);
                return Expr::For {
                    pat_names,
                    iter: Box::new(iter),
                    body,
                    line,
                };
            }
            "unsafe" | "async" => {
                self.pos += 1;
                if self.at_punct("{") {
                    let close = self.matching(self.pos);
                    self.pos += 1;
                    let stmts = self.parse_block(close);
                    self.pos = close + 1;
                    return Expr::Block { stmts, line };
                }
                return Expr::Unknown { line };
            }
            _ => {}
        }

        // path
        let mut segs = vec![self.bump().expect("ident").text.clone()];
        loop {
            if self.punct_at(0, ":") && self.punct_at(1, ":") {
                self.pos += 2;
                if self.at_punct("<") {
                    self.skip_angles();
                    continue;
                }
                if self.at_any_ident() {
                    segs.push(self.bump().expect("ident").text.clone());
                    continue;
                }
                break;
            }
            break;
        }

        // macro invocation
        if self.at_punct("!")
            && (self.punct_at(1, "(") || self.punct_at(1, "[") || self.punct_at(1, "{"))
        {
            self.pos += 1; // !
            let close = self.matching(self.pos);
            let args = self.parse_expr_list(close);
            self.pos = close + 1;
            return Expr::Macro { segs, args, line };
        }

        // struct literal
        if self.at_punct("{") && !no_struct {
            let close = self.matching(self.pos);
            self.pos += 1; // {
            let mut fields = Vec::new();
            let mut base = None;
            while self.pos < close {
                let before = self.pos;
                if self.at_punct(".") && self.punct_at(1, ".") {
                    self.pos += 2;
                    base = Some(Box::new(self.parse_expr(close, false)));
                } else if self.at_any_ident() || self.peek().is_some_and(|t| t.kind == TokenKind::Num) {
                    let fname = self.bump().expect("field").text.clone();
                    if self.eat_punct(":") {
                        let v = self.parse_expr(close, false);
                        fields.push((fname, v));
                    } else {
                        // shorthand field
                        let fline = self.line();
                        fields.push((
                            fname.clone(),
                            Expr::Path {
                                segs: vec![fname],
                                line: fline,
                            },
                        ));
                    }
                }
                if self.at_punct(",") {
                    self.pos += 1;
                }
                if self.pos == before {
                    self.pos += 1;
                }
            }
            self.pos = close + 1;
            return Expr::Struct {
                segs,
                fields,
                base,
                line,
            };
        }

        Expr::Path { segs, line }
    }

    /// Collects closure parameter names; `pos` is just past the
    /// opening `|`. Consumes through the closing `|`.
    fn closure_params(&mut self, end: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut after_colon = false;
        while self.pos < end {
            if self.at_punct("|") {
                self.pos += 1;
                return names;
            }
            if self.at_punct(",") {
                after_colon = false;
                self.pos += 1;
                continue;
            }
            if self.at_punct(":") {
                after_colon = true;
                self.pos += 1;
                continue;
            }
            if self.at_punct("(") || self.at_punct("[") || self.at_punct("<") {
                if self.at_punct("<") {
                    self.skip_angles();
                } else {
                    let close = self.matching(self.pos);
                    if !after_colon {
                        for t in &self.toks[self.pos..=close.min(self.toks.len() - 1)] {
                            if t.kind == TokenKind::Ident
                                && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                            {
                                names.push(t.text.clone());
                            }
                        }
                    }
                    self.pos = close + 1;
                }
                continue;
            }
            if self.at_any_ident() {
                let text = self.bump().expect("ident").text.clone();
                if !after_colon && !matches!(text.as_str(), "mut" | "ref" | "_") {
                    names.push(text);
                }
                continue;
            }
            self.pos += 1;
        }
        names
    }

    /// Whether an expression plausibly starts at the current token
    /// (used after `return`/`break`).
    fn expr_follows(&self, end: usize) -> bool {
        if self.pos >= end {
            return false;
        }
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Punct => {
                    matches!(t.text.as_str(), "(" | "[" | "{" | "&" | "&&" | "*" | "-" | "!" | "|" | "||")
                }
                TokenKind::Ident => !matches!(t.text.as_str(), "else"),
                _ => true,
            },
        }
    }

    /// Parses the `{ ... }` block expected next; recovers by returning
    /// an empty block when it is missing.
    fn braced_block(&mut self, _end: usize) -> Vec<Stmt> {
        if self.at_punct("{") {
            let close = self.matching(self.pos);
            self.pos += 1;
            let stmts = self.parse_block(close);
            self.pos = close + 1;
            stmts
        } else {
            Vec::new()
        }
    }

    fn parse_if(&mut self, end: usize) -> Expr {
        let line = self.line();
        self.pos += 1; // if
        if self.eat_ident("let") {
            let _pat = self.parse_pattern_names(end, &["="]);
            self.eat_punct("=");
        }
        let cond = self.parse_expr(end, true);
        let then = self.braced_block(end);
        let alt = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.parse_if(end)))
            } else {
                let bline = self.line();
                Some(Box::new(Expr::Block {
                    stmts: self.braced_block(end),
                    line: bline,
                }))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            alt,
            line,
        }
    }

    fn parse_match(&mut self, end: usize) -> Expr {
        let line = self.line();
        self.pos += 1; // match
        let scrutinee = self.parse_expr(end, true);
        let mut arms = Vec::new();
        if self.at_punct("{") {
            let close = self.matching(self.pos);
            self.pos += 1;
            while self.pos < close {
                let before = self.pos;
                // pattern up to `=>` or an `if` guard at depth 0
                let _pat = self.parse_pattern_names(close, &["=", "if"]);
                let guard = if self.eat_ident("if") {
                    Some(self.parse_expr(close, true))
                } else {
                    None
                };
                // expect `=>` (= then >)
                if self.at_punct("=") && self.punct_at(1, ">") {
                    self.pos += 2;
                    let value = self.parse_expr(close, false);
                    self.eat_punct(",");
                    arms.push((guard, value));
                } else if self.pos == before {
                    self.pos += 1;
                }
            }
            self.pos = close + 1;
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, ItemKind, Stmt};
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    fn only_fn(ast: &Ast) -> &FnDef {
        for item in &ast.items {
            if let ItemKind::Fn(f) = &item.kind {
                return f;
            }
        }
        panic!("no fn parsed");
    }

    /// Collects (variant-name, detail) facts from a body for asserts.
    fn facts(f: &FnDef) -> Vec<String> {
        let mut out = Vec::new();
        crate::ast::walk_stmts(f.body.as_ref().expect("body"), &mut |e| match e {
            Expr::Call { segs, .. } => out.push(format!("call:{}", segs.join("::"))),
            Expr::Method { name, .. } => out.push(format!("method:{name}")),
            Expr::Macro { segs, .. } => out.push(format!("macro:{}", segs.join("::"))),
            Expr::Index { .. } => out.push("index".into()),
            Expr::Field { name, .. } => out.push(format!("field:{name}")),
            _ => {}
        });
        out
    }

    #[test]
    fn fn_signature_and_body_basics() {
        let ast = parse_src(
            "pub fn verify(sk: &SecretKey, proof: Proof) -> Result<bool, Error> {\
             \n    let x = proof.agg.decompress();\
             \n    check(x, sk.inner)\
             \n}",
        );
        let f = only_fn(&ast);
        assert_eq!(f.name, "verify");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].names, ["sk"]);
        assert!(f.params[0].ty.contains(&"SecretKey".to_string()));
        assert!(f.ret.contains(&"Result".to_string()));
        let facts = facts(f);
        assert!(facts.contains(&"method:decompress".to_string()));
        assert!(facts.contains(&"call:check".to_string()));
        assert!(facts.contains(&"field:agg".to_string()));
        assert!(facts.contains(&"field:inner".to_string()));
    }

    #[test]
    fn impl_blocks_carry_self_type_and_trait() {
        let ast = parse_src(
            "impl Codec for Vec<G1Affine> {\n    fn decode_from(r: &mut R) -> X { f(r) }\n}\
             \nimpl<'a> ByteReader<'a> {\n    fn take(&mut self) {}\n}",
        );
        let mut seen = Vec::new();
        ast.visit_fns(&mut |f, self_ty, trait_name, _, _| {
            seen.push((
                f.name.clone(),
                self_ty.unwrap_or("").to_string(),
                trait_name.unwrap_or("").to_string(),
            ));
        });
        assert_eq!(
            seen,
            vec![
                ("decode_from".into(), "Vec".to_string(), "Codec".to_string()),
                ("take".into(), "ByteReader".to_string(), String::new()),
            ]
        );
    }

    #[test]
    fn struct_literals_vs_if_blocks() {
        let ast = parse_src(
            "fn f(c: bool) -> P {\n    if c { g() } else { h() };\n    P { x: 1, y: k() }\n}",
        );
        let facts = facts(only_fn(&ast));
        assert!(facts.contains(&"call:g".to_string()));
        assert!(facts.contains(&"call:h".to_string()));
        assert!(facts.contains(&"call:k".to_string()));
    }

    #[test]
    fn match_guards_and_arms_are_parsed() {
        let ast = parse_src(
            "fn f(x: Option<u8>) -> u8 {\n    match x {\n        Some(v) if big(v) => use_it(v),\n        Some(1..=9) => 1,\n        _ => fallback(),\n    }\n}",
        );
        let facts = facts(only_fn(&ast));
        assert!(facts.contains(&"call:big".to_string()), "{facts:?}");
        assert!(facts.contains(&"call:use_it".to_string()));
        assert!(facts.contains(&"call:fallback".to_string()));
    }

    #[test]
    fn closures_ranges_turbofish_compound_assign() {
        let ast = parse_src(
            "fn f(v: &[u8]) -> u64 {\n    let mut acc = 0u64;\n    acc += v.iter().map(|b| *b as u64).sum::<u64>();\n    for i in 0..v.len() { acc *= helper(v[i]); }\n    acc\n}",
        );
        let facts = facts(only_fn(&ast));
        assert!(facts.contains(&"method:iter".to_string()));
        assert!(facts.contains(&"method:map".to_string()));
        assert!(facts.contains(&"method:sum".to_string()));
        assert!(facts.contains(&"method:len".to_string()));
        assert!(facts.contains(&"call:helper".to_string()));
        assert!(facts.contains(&"index".to_string()));
    }

    #[test]
    fn macros_expose_inner_calls() {
        let ast = parse_src(
            "fn f(sk: SecretKey) {\n    println!(\"{:?}\", derive(sk));\n    assert_eq!(a(), b());\n}",
        );
        let facts = facts(only_fn(&ast));
        assert!(facts.contains(&"macro:println".to_string()));
        assert!(facts.contains(&"call:derive".to_string()));
        assert!(facts.contains(&"macro:assert_eq".to_string()));
        assert!(facts.contains(&"call:a".to_string()));
        assert!(facts.contains(&"call:b".to_string()));
    }

    #[test]
    fn path_macros_at_item_position_parse_as_macro_items() {
        let src = "dsaudit_crypto::assert_not_formattable!(SecretKey);\n\
                   crate::m! { fn f() { g(); } }\nfn g() {}\n";
        let ast = parse_src(src);
        let names: Vec<&str> = ast
            .items
            .iter()
            .filter_map(|item| match &item.kind {
                ItemKind::Mod { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["dsaudit_crypto::assert_not_formattable!", "crate::m!"]);
        assert_eq!(ast.opaque_tokens(), 0);
        let graph = crate::callgraph::CallGraph::build(&[("a.rs".to_string(), lex(src), ast)]);
        let f = graph.find("f").expect("the braced body's fn is in the call graph");
        let g = graph.find("g").expect("g");
        assert!(graph.calls[f].iter().any(|site| site.callees.contains(&g)));
    }

    #[test]
    fn let_else_and_nested_items() {
        let ast = parse_src(
            "fn f(o: Option<u8>) -> u8 {\n    let Some(x) = o else { return fallback(); };\n    fn nested(q: u8) -> u8 { inner(q) }\n    nested(x)\n}",
        );
        let f = only_fn(&ast);
        let facts = facts(f);
        assert!(facts.contains(&"call:fallback".to_string()), "{facts:?}");
        assert!(facts.contains(&"call:nested".to_string()));
        // the nested fn is reachable via visit_fns
        let mut names = Vec::new();
        ast.visit_fns(&mut |fd, _, _, _, _| names.push(fd.name.clone()));
        assert!(names.contains(&"nested".to_string()));
    }

    #[test]
    fn tiling_holds_on_mixed_items() {
        let src = "//! doc\nuse std::fmt;\n\nconst N: usize = 4;\n\n#[derive(Clone)]\npub struct S<T> { x: T }\n\nimpl<T> S<T> {\n    pub fn get(&self) -> &T { &self.x }\n}\n\nmod inner {\n    pub fn f() {}\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(true); }\n}\n";
        let lexed = lex(src);
        let ast = parse(&lexed);
        ast.check_span_tiling(&lexed.tokens).expect("tiling");
        assert_eq!(ast.opaque_tokens(), 0);
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() {}\n}";
        let ast = parse_src(src);
        let mut flags = Vec::new();
        ast.visit_fns(&mut |f, _, _, in_test, _| flags.push((f.name.clone(), in_test)));
        assert_eq!(flags, vec![("helper".to_string(), true)]);
    }

    #[test]
    fn trait_methods_with_defaults() {
        let src = "pub trait Codec: Sized {\n    const TYPE_NAME: &'static str;\n    fn decode_from(r: &mut R) -> Result<Self, E>;\n    fn decode(bytes: &[u8]) -> Result<Self, E> {\n        Self::decode_from(&mut R::new(bytes))\n    }\n}";
        let ast = parse_src(src);
        let mut seen = Vec::new();
        ast.visit_fns(&mut |f, self_ty, _, _, is_decl| {
            seen.push((f.name.clone(), self_ty.unwrap_or("").to_string(), is_decl, f.body.is_some()));
        });
        assert_eq!(
            seen,
            vec![
                ("decode_from".to_string(), "Codec".to_string(), true, false),
                ("decode".to_string(), "Codec".to_string(), true, true),
            ]
        );
    }

    #[test]
    fn statement_vs_expression_edge_cases() {
        // trailing-dot float, tuple field access, shift operators
        let ast = parse_src(
            "fn f(t: (u8, (u8, u8))) -> f64 {\n    let a = t.1.0;\n    let b = 1u64 << 3 >> 1;\n    let c = 0.;\n    c + a as f64 + b as f64\n}",
        );
        let f = only_fn(&ast);
        assert_eq!(f.name, "f");
        let mut tuple_fields = 0;
        crate::ast::walk_stmts(f.body.as_ref().expect("body"), &mut |e| {
            if let Expr::Field { name, .. } = e {
                if name.chars().all(|c| c.is_ascii_digit()) {
                    tuple_fields += 1;
                }
            }
        });
        assert_eq!(tuple_fields, 2, "t.1.0 is two tuple-field hops");
    }

    #[test]
    fn let_collects_types_and_names() {
        let ast = parse_src("fn f() {\n    let (a, b): (Fr, Fr) = pair();\n    let key: SecretKey = gen();\n}");
        let f = only_fn(&ast);
        let body = f.body.as_ref().expect("body");
        match &body[0] {
            Stmt::Let { names, ty, .. } => {
                assert_eq!(names, &["a", "b"]);
                assert_eq!(ty, &["Fr", "Fr"]);
            }
            other => panic!("expected let, got {other:?}"),
        }
        match &body[1] {
            Stmt::Let { names, ty, .. } => {
                assert_eq!(names, &["key"]);
                assert_eq!(ty, &["SecretKey"]);
            }
            other => panic!("expected let, got {other:?}"),
        }
    }
}
