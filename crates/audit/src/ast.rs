//! The item-level AST the two coverage rules read.
//!
//! This is deliberately *not* a Rust grammar: items (functions,
//! structs, enums, impls, modules) are recognized with just the facts
//! `snap.field_coverage` and `spec.event_coverage` consume — struct
//! field names, enum variant names, an impl's trait and type, and each
//! function's name and body token range. Function bodies are not
//! parsed; every other rule runs on the token stream directly.
//!
//! Spans are token ranges into a file's significant-token stream
//! ([`crate::SourceFile::sig`]). The parser is total and the top-level
//! item ranges **partition** the stream: every significant token lies
//! in exactly one item, in order, with no overlap (property-tested over
//! the whole workspace).

/// One parsed file.
#[derive(Debug, Default, Clone)]
pub struct Ast {
    /// Top-level items; their `[lo, hi)` token ranges tile `[0, sig.len())`.
    pub items: Vec<Item>,
}

/// One item. `lo..hi` spans the item's significant tokens, including
/// any leading outer attributes.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// First significant-token index, inclusive.
    pub lo: usize,
    /// Past-the-last significant-token index, exclusive.
    pub hi: usize,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub enum ItemKind {
    Fn(FnDecl),
    Struct(StructDecl),
    Enum(EnumDecl),
    Impl(ImplBlock),
    Mod(ModDecl),
    /// Anything else, labeled: "use", "const", "static", "type",
    /// "trait", "macro", "extern", "attr" (stray attribute), "unparsed".
    Other(&'static str),
}

/// A named-field struct (tuple/unit structs parse with empty `fields`).
#[derive(Debug, Clone)]
pub struct StructDecl {
    pub name: String,
    /// Field names, in declaration order.
    pub fields: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct EnumDecl {
    pub name: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, u32)>,
}

#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// `impl Trait for Type` — the trait's last path segment.
    pub trait_name: Option<String>,
    /// The implemented type's last path segment.
    pub type_name: String,
    pub fns: Vec<FnDecl>,
}

#[derive(Debug, Clone)]
pub struct ModDecl {
    pub name: String,
    pub items: Vec<Item>,
}

#[derive(Debug, Clone)]
pub struct FnDecl {
    pub name: String,
    pub line: u32,
    /// `true` when the fn carried `#[test]` (or a `#[cfg(test)]` attr).
    pub test: bool,
    /// Token range of the body including braces (`None` for bodyless
    /// trait fns).
    pub body_range: Option<(usize, usize)>,
}

impl Ast {
    /// Every named-field struct in the file (recursing through modules).
    pub fn structs(&self) -> Vec<&StructDecl> {
        let mut out = Vec::new();
        collect_structs(&self.items, &mut out);
        out
    }

    /// Every enum in the file (recursing through modules).
    pub fn enums(&self) -> Vec<&EnumDecl> {
        let mut out = Vec::new();
        collect_enums(&self.items, &mut out);
        out
    }
}

fn collect_structs<'a>(items: &'a [Item], out: &mut Vec<&'a StructDecl>) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(s) => out.push(s),
            ItemKind::Mod(m) => collect_structs(&m.items, out),
            _ => {}
        }
    }
}

fn collect_enums<'a>(items: &'a [Item], out: &mut Vec<&'a EnumDecl>) {
    for item in items {
        match &item.kind {
            ItemKind::Enum(e) => out.push(e),
            ItemKind::Mod(m) => collect_enums(&m.items, out),
            _ => {}
        }
    }
}
