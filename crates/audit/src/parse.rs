//! The item-level Rust parser behind the two coverage rules
//! (`snap.field_coverage`, `spec.event_coverage`).
//!
//! Input is a file's significant-token stream (comments already
//! stripped); output is an [`Ast`]. The parser is **total**: any token
//! stream produces an AST without panicking, with unrecognized
//! constructs consumed as [`ItemKind::Other`] ("unparsed"). Top-level
//! item ranges partition the stream — every token attributed, no
//! overlap, strictly increasing — which the workspace property test
//! asserts file by file.
//!
//! What it deliberately does not do: signatures, function bodies,
//! pattern grammar, macro expansion. A function is its name and the
//! token range of its body (see [`crate::ast`]).

use crate::ast::{Ast, EnumDecl, FnDecl, ImplBlock, Item, ItemKind, ModDecl, StructDecl};
use crate::lexer::{TokKind, Token};

/// Parses a significant-token stream into an AST.
pub fn parse(src: &str, sig: &[Token]) -> Ast {
    let p = Parser { src, toks: sig };
    Ast {
        items: p.parse_items(0, sig.len()),
    }
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Token],
}

impl<'s> Parser<'s> {
    fn text(&self, i: usize) -> &'s str {
        self.toks.get(i).map_or("", |t| t.text(self.src))
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    fn is(&self, i: usize, s: &str) -> bool {
        self.text(i) == s
    }

    fn is_ident(&self, i: usize) -> bool {
        self.kind(i) == Some(TokKind::Ident)
    }

    /// Two puncts form a glued operator (`::`, `->`, `=>`) only when
    /// byte-adjacent.
    fn glued(&self, i: usize) -> bool {
        match (self.toks.get(i), self.toks.get(i + 1)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    /// `::` starting at token `i`?
    fn is_path_sep(&self, i: usize) -> bool {
        self.is(i, ":") && self.glued(i) && self.is(i + 1, ":")
    }

    /// Index just past the bracket matching the opener at `open`
    /// (clamped to `hi`). Counts `(`/`[`/`{` uniformly so mixed nesting
    /// stays balanced even on malformed input.
    fn skip_balanced(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < hi {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Skips a generics list starting at a `<`. `>` that belongs to a
    /// glued `->` (as in `F: Fn() -> T`) does not close the list.
    fn skip_generics(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < hi {
            let t = self.text(i);
            if t == "<" {
                depth += 1;
            } else if t == ">" {
                let arrow = i > 0 && self.is(i - 1, "-") && self.glued(i - 1);
                if !arrow {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
            } else if t == "(" || t == "[" {
                i = self.skip_balanced(i, hi);
                continue;
            } else if t == "{" || t == ";" {
                // Malformed generics: bail rather than swallow the body.
                return i;
            }
            i += 1;
        }
        hi
    }

    /// Whitespace-joined text of a token range (for types and paths).
    fn join(&self, lo: usize, hi: usize) -> String {
        let mut out = String::new();
        for i in lo..hi.min(self.toks.len()) {
            let t = self.text(i);
            if !out.is_empty() && t != ":" && !self.text(i - 1).ends_with(':') {
                out.push(' ');
            }
            out.push_str(t);
        }
        out
    }

    // ---- items ----------------------------------------------------------

    /// Parses `[lo, hi)` into items whose ranges tile it exactly.
    fn parse_items(&self, lo: usize, hi: usize) -> Vec<Item> {
        let mut items = Vec::new();
        let mut i = lo;
        while i < hi {
            let item = self.parse_item(i, hi);
            debug_assert!(item.hi > i, "parser must make progress");
            i = item.hi.max(i + 1);
            items.push(item);
        }
        items
    }

    /// Parses one item starting at `lo`; always consumes at least one
    /// token.
    fn parse_item(&self, lo: usize, hi: usize) -> Item {
        let mut i = lo;
        let mut cfg_test = false;
        let mut test_attr = false;
        // Leading attributes. Inner attributes (`#![…]`) belong to the
        // enclosing scope: emitted as standalone "attr" items.
        while self.is(i, "#") && i < hi {
            let inner = self.is(i + 1, "!");
            let open = if inner { i + 2 } else { i + 1 };
            if !self.is(open, "[") {
                break;
            }
            let end = self.skip_balanced(open, hi);
            if inner {
                if i == lo {
                    return self.mk(lo, end, ItemKind::Other("attr"));
                }
                break;
            }
            let attr = self.join(open + 1, end.saturating_sub(1));
            if attr.starts_with("cfg") && attr.contains("test") {
                cfg_test = true;
            }
            if attr == "test" || attr.starts_with("test ") || attr.contains("tokio :: test") {
                test_attr = true;
            }
            i = end;
        }
        if i >= hi {
            return self.mk(lo, hi.max(lo + 1), ItemKind::Other("attr"));
        }
        // Visibility and leading modifiers.
        let mut j = i;
        if self.is(j, "pub") {
            j += 1;
            if self.is(j, "(") {
                j = self.skip_balanced(j, hi);
            }
        }
        while matches!(self.text(j), "unsafe" | "async" | "extern") {
            if self.is(j, "extern") && self.kind(j + 1) == Some(TokKind::Str) {
                j += 1; // extern "C"
            }
            j += 1;
        }
        // `const fn` vs `const NAME`.
        if self.is(j, "const") && self.is(j + 1, "fn") {
            j += 1;
        }
        let test = test_attr || cfg_test;
        match self.text(j) {
            "fn" => {
                let (decl, end) = self.parse_fn(j, hi, test);
                self.mk(lo, end, ItemKind::Fn(decl))
            }
            "struct" | "union" => {
                let (decl, end) = self.parse_struct(j, hi);
                self.mk(lo, end, ItemKind::Struct(decl))
            }
            "enum" => {
                let (decl, end) = self.parse_enum(j, hi);
                self.mk(lo, end, ItemKind::Enum(decl))
            }
            "impl" => {
                let (block, end) = self.parse_impl(j, hi);
                self.mk(lo, end, ItemKind::Impl(block))
            }
            "mod" => {
                let name = if self.is_ident(j + 1) {
                    self.text(j + 1).to_string()
                } else {
                    String::new()
                };
                if self.is(j + 2, ";") {
                    return self.mk(
                        lo,
                        j + 3,
                        ItemKind::Mod(ModDecl {
                            name,
                            items: Vec::new(),
                        }),
                    );
                }
                let mut k = j + 1;
                while k < hi && !self.is(k, "{") && !self.is(k, ";") {
                    k += 1;
                }
                if !self.is(k, "{") {
                    return self.mk(lo, (k + 1).min(hi.max(lo + 1)), ItemKind::Other("unparsed"));
                }
                let end = self.skip_balanced(k, hi);
                let items = self.parse_items(k + 1, end.saturating_sub(1));
                self.mk(lo, end, ItemKind::Mod(ModDecl { name, items }))
            }
            "use" => {
                let mut k = j + 1;
                while k < hi && !self.is(k, ";") {
                    if self.is(k, "{") {
                        k = self.skip_balanced(k, hi);
                        continue;
                    }
                    k += 1;
                }
                self.mk(lo, (k + 1).min(hi), ItemKind::Other("use"))
            }
            "trait" => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("trait"))
            }
            "const" | "static" | "type" => {
                let label = match self.text(j) {
                    "static" => "static",
                    "type" => "type",
                    _ => "const",
                };
                let end = self.consume_to_semi(j, hi);
                self.mk(lo, end, ItemKind::Other(label))
            }
            "macro_rules" => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("macro"))
            }
            "extern" => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("extern"))
            }
            // Item-position macro invocation: `proptest! { … }`,
            // `criterion_main!(benches);`, `id_snapshot!(OsdId, …);`.
            _ if self.is_ident(j) && self.is(j + 1, "!") => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("macro"))
            }
            _ => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("unparsed"))
            }
        }
    }

    fn mk(&self, lo: usize, hi: usize, kind: ItemKind) -> Item {
        Item {
            kind,
            lo,
            hi: hi.max(lo + 1),
            line: self.line(lo),
        }
    }

    /// Consumes through the next top-level `;`.
    fn consume_to_semi(&self, lo: usize, hi: usize) -> usize {
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                ";" => return i + 1,
                "(" | "[" | "{" => {
                    i = self.skip_balanced(i, hi);
                    continue;
                }
                "}" | ")" | "]" => return i + 1, // stray closer: consume it
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Consumes through a balanced `{…}` block or a `;`, whichever
    /// comes first.
    fn consume_to_block_or_semi(&self, lo: usize, hi: usize) -> usize {
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                ";" => return i + 1,
                "{" => return self.skip_balanced(i, hi),
                "(" | "[" => {
                    i = self.skip_balanced(i, hi);
                    continue;
                }
                "}" | ")" | "]" => return i + 1,
                _ => {}
            }
            i += 1;
        }
        hi
    }

    // ---- fn -------------------------------------------------------------

    /// At the `fn` keyword: the name, then past the signature to the
    /// body's braces (or the `;` of a bodyless trait fn).
    fn parse_fn(&self, at: usize, hi: usize, test: bool) -> (FnDecl, usize) {
        let name = if self.is_ident(at + 1) {
            self.text(at + 1).to_string()
        } else {
            String::new()
        };
        let line = self.line(at);
        let mut j = at + 2;
        if self.is(j, "<") {
            j = self.skip_generics(j, hi);
        }
        // Parameters, return type, where clause.
        while j < hi && !matches!(self.text(j), "{" | ";") {
            if self.is(j, "(") || self.is(j, "[") {
                j = self.skip_balanced(j, hi);
                continue;
            }
            j += 1;
        }
        let (body_range, end) = if self.is(j, ";") {
            (None, j + 1)
        } else {
            let body_end = self.skip_balanced(j, hi);
            (Some((j, body_end)), body_end)
        };
        (
            FnDecl {
                name,
                line,
                test,
                body_range,
            },
            end,
        )
    }

    // ---- struct / enum --------------------------------------------------

    fn parse_struct(&self, at: usize, hi: usize) -> (StructDecl, usize) {
        let name = if self.is_ident(at + 1) {
            self.text(at + 1).to_string()
        } else {
            String::new()
        };
        let mut i = at + 2;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        // Tuple struct or unit struct: no named fields.
        while i < hi && !matches!(self.text(i), "{" | "(" | ";") {
            i += 1;
        }
        if self.is(i, "(") {
            let end = self.skip_balanced(i, hi);
            let end = if self.is(end, ";") { end + 1 } else { end };
            return (
                StructDecl {
                    name,
                    fields: Vec::new(),
                },
                end,
            );
        }
        if !self.is(i, "{") {
            return (
                StructDecl {
                    name,
                    fields: Vec::new(),
                },
                (i + 1).min(hi.max(at + 1)),
            );
        }
        let end = self.skip_balanced(i, hi);
        let fields = self.parse_fields(i + 1, end.saturating_sub(1));
        (StructDecl { name, fields }, end)
    }

    /// Named fields inside a struct body: `[vis] name: Type,`.
    fn parse_fields(&self, lo: usize, hi: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            // Skip field attributes and visibility.
            if self.is(i, "#") && self.is(i + 1, "[") {
                i = self.skip_balanced(i + 1, hi);
                continue;
            }
            if self.is(i, "pub") {
                i += 1;
                if self.is(i, "(") {
                    i = self.skip_balanced(i, hi);
                }
                continue;
            }
            if self.is_ident(i) && self.is(i + 1, ":") && !self.is_path_sep(i + 1) {
                out.push(self.text(i).to_string());
                // Type runs to the next top-level comma.
                let mut k = i + 2;
                let mut depth = 0i64;
                while k < hi {
                    match self.text(k) {
                        "," if depth == 0 => break,
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ">" if !(self.is(k - 1, "-") && self.glued(k - 1)) => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
            i += 1;
        }
        out
    }

    fn parse_enum(&self, at: usize, hi: usize) -> (EnumDecl, usize) {
        let name = if self.is_ident(at + 1) {
            self.text(at + 1).to_string()
        } else {
            String::new()
        };
        let mut i = at + 2;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        while i < hi && !matches!(self.text(i), "{" | ";") {
            i += 1;
        }
        if !self.is(i, "{") {
            return (
                EnumDecl {
                    name,
                    variants: Vec::new(),
                },
                (i + 1).min(hi.max(at + 1)),
            );
        }
        let end = self.skip_balanced(i, hi);
        let mut variants = Vec::new();
        let mut j = i + 1;
        let body_hi = end.saturating_sub(1);
        let mut expect = true;
        while j < body_hi {
            match self.text(j) {
                "#" if self.is(j + 1, "[") => {
                    j = self.skip_balanced(j + 1, body_hi);
                    continue;
                }
                "(" | "{" | "[" => {
                    j = self.skip_balanced(j, body_hi);
                    continue;
                }
                "," => expect = true,
                "=" => expect = false, // discriminant expr
                _ => {
                    if expect && self.is_ident(j) {
                        variants.push((self.text(j).to_string(), self.line(j)));
                        expect = false;
                    }
                }
            }
            j += 1;
        }
        (EnumDecl { name, variants }, end)
    }

    // ---- impl -----------------------------------------------------------

    fn parse_impl(&self, at: usize, hi: usize) -> (ImplBlock, usize) {
        let mut i = at + 1;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        // Header up to `{`: optional `Trait for` then the type path.
        let mut header_end = i;
        while header_end < hi && !matches!(self.text(header_end), "{" | ";") {
            if self.is(header_end, "(") || self.is(header_end, "[") {
                header_end = self.skip_balanced(header_end, hi);
                continue;
            }
            header_end += 1;
        }
        let mut for_at = None;
        let mut k = i;
        while k < header_end {
            if self.is(k, "for") && !self.is(k + 1, "<") {
                for_at = Some(k);
                break;
            }
            if self.is(k, "<") {
                k = self.skip_generics(k, hi.min(header_end));
                continue;
            }
            k += 1;
        }
        let last_seg = |lo: usize, hi_: usize| -> String {
            let mut last = String::new();
            let mut m = lo;
            while m < hi_ {
                if self.is(m, "<") {
                    m = self.skip_generics(m, hi_);
                    continue;
                }
                if self.is_ident(m) && !matches!(self.text(m), "dyn" | "where") {
                    last = self.text(m).to_string();
                }
                m += 1;
            }
            last
        };
        let (trait_name, type_name) = match for_at {
            Some(f) => (Some(last_seg(i, f)), last_seg(f + 1, header_end)),
            None => (None, last_seg(i, header_end)),
        };
        if !self.is(header_end, "{") {
            return (
                ImplBlock {
                    trait_name,
                    type_name,
                    fns: Vec::new(),
                },
                (header_end + 1).min(hi.max(at + 1)),
            );
        }
        let end = self.skip_balanced(header_end, hi);
        let inner = self.parse_items(header_end + 1, end.saturating_sub(1));
        let fns = inner
            .into_iter()
            .filter_map(|it| match it.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        (
            ImplBlock {
                trait_name,
                type_name,
                fns,
            },
            end,
        )
    }
}
