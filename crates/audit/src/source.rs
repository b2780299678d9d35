//! Workspace file loading and classification: which crate a file
//! belongs to, whether it is library / binary / test / bench / example
//! code, and which line ranges sit inside `#[cfg(test)]` modules.

use crate::lexer::{lex, TokKind, Token};
use crate::pragma::{parse_pragmas, Pragma, PragmaError};

/// How a file participates in the build — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<c>/src/**` excluding `src/bin/` — library code.
    LibSrc,
    /// `crates/<c>/src/bin/**` or `src/main.rs` — a binary.
    BinSrc,
    /// `tests/**` (crate-local or workspace-level) — test code.
    TestCode,
    /// `crates/bench/**` or any `benches/**` — benchmark code.
    Bench,
    /// `examples/**` — example code.
    Example,
}

/// One lexed, classified workspace file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    pub crate_name: String,
    pub kind: FileKind,
    pub src: String,
    /// Significant tokens: everything except comments.
    pub sig: Vec<Token>,
    pub pragmas: Vec<Pragma>,
    pub pragma_errors: Vec<PragmaError>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    cfg_test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    pub fn new(rel_path: String, src: String) -> Self {
        let (crate_name, kind) = classify(&rel_path);
        let tokens = lex(&src);
        let (pragmas, pragma_errors) = parse_pragmas(&src, &tokens);
        let sig: Vec<Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .copied()
            .collect();
        let cfg_test_ranges = cfg_test_ranges(&src, &sig);
        SourceFile {
            rel_path,
            crate_name,
            kind,
            src,
            sig,
            pragmas,
            pragma_errors,
            cfg_test_ranges,
        }
    }

    /// Is `line` inside a `#[cfg(test)]` module body?
    pub fn in_cfg_test(&self, line: u32) -> bool {
        self.cfg_test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// (crate name, kind) from a workspace-relative path.
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", c, rest @ ..] => {
            let name = (*c).to_string();
            let kind = if *c == "bench" || rest.first() == Some(&"benches") {
                FileKind::Bench
            } else if rest.first() == Some(&"tests") {
                FileKind::TestCode
            } else if rest.first() == Some(&"examples") {
                FileKind::Example
            } else if rest.first() == Some(&"src")
                && (rest.get(1) == Some(&"bin") || rest.get(1) == Some(&"main.rs"))
            {
                FileKind::BinSrc
            } else {
                FileKind::LibSrc
            };
            (name, kind)
        }
        // Workspace-level tests/ and examples/ compile into the harness.
        ["tests", ..] => ("harness".to_string(), FileKind::TestCode),
        ["examples", ..] => ("harness".to_string(), FileKind::Example),
        _ => ("<root>".to_string(), FileKind::LibSrc),
    }
}

/// Finds `#[cfg(test)] mod <name> { … }` regions. Attribute and module
/// must be adjacent in the significant-token stream (doc comments in
/// between are fine — they are not significant tokens).
fn cfg_test_ranges(src: &str, sig: &[Token]) -> Vec<(u32, u32)> {
    let text = |i: usize| -> &str { sig[i].text(src) };
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < sig.len() {
        let is_cfg_test = text(i) == "#"
            && text(i + 1) == "["
            && text(i + 2) == "cfg"
            && text(i + 3) == "("
            && text(i + 4) == "test"
            && text(i + 5) == ")"
            && text(i + 6) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Only module bodies get a line range; `#[cfg(test)]` on other
        // items (rare here) is ignored by this helper.
        let mut j = i + 7;
        if !(j < sig.len() && sig[j].kind == TokKind::Ident && text(j) == "mod") {
            i += 1;
            continue;
        }
        while j < sig.len() && text(j) != "{" {
            j += 1;
        }
        if j == sig.len() {
            break;
        }
        let start_line = sig[i].line;
        let mut depth = 0i32;
        let mut end_line = sig[j].line;
        while j < sig.len() {
            match text(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = sig[j].line;
                        break;
                    }
                }
                _ => {}
            }
            end_line = sig[j].line;
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j + 1;
    }
    ranges
}
