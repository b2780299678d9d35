//! Parser soundness: the item-level parser is *total* and its spans
//! round-trip. Over every `.rs` file in this workspace — and over
//! generated token soup — the top-level item ranges must tile
//! `[0, sig.len())` exactly (every significant token attributed to
//! exactly one item, in order, no overlap), with nested module items
//! staying inside their parent and pairwise disjoint.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use edm_audit::ast::{FnDecl, Item, ItemKind};
use edm_audit::{audit_sources, SourceFile};

/// Asserts the span invariants for one parsed file.
fn assert_spans_sound(file: &SourceFile) {
    let n = file.sig.len();
    let items = &file.ast.items;
    if n == 0 {
        assert!(items.is_empty(), "{}: items without tokens", file.rel_path);
        return;
    }
    assert!(!items.is_empty(), "{}: tokens without items", file.rel_path);
    // Top-level tiling: contiguous cover of the whole token stream.
    let mut cursor = 0usize;
    for item in items {
        assert_eq!(
            item.lo, cursor,
            "{}: gap or overlap before item at token {cursor}",
            file.rel_path
        );
        assert!(
            item.hi > item.lo,
            "{}: empty item span at token {}",
            file.rel_path,
            item.lo
        );
        cursor = item.hi;
    }
    assert_eq!(cursor, n, "{}: trailing tokens unattributed", file.rel_path);
    for item in items {
        assert_nested_sound(file, item);
    }
}

/// Module children sit strictly inside the parent span, in order,
/// without overlapping each other.
fn assert_nested_sound(file: &SourceFile, item: &Item) {
    if let ItemKind::Mod(m) = &item.kind {
        let mut cursor = item.lo;
        for child in &m.items {
            assert!(
                child.lo >= cursor && child.hi > child.lo && child.hi <= item.hi,
                "{}: mod `{}` child span {}..{} escapes parent {}..{}",
                file.rel_path,
                m.name,
                child.lo,
                child.hi,
                item.lo,
                item.hi
            );
            cursor = child.hi;
            assert_nested_sound(file, child);
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Span round-trip over the real workspace: every file this repo
/// builds must parse totally.
#[test]
fn workspace_item_spans_partition_every_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    assert!(
        files.len() > 50,
        "workspace walk found only {} files — wrong root?",
        files.len()
    );
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let rel = path.strip_prefix(&root).unwrap_or(&path);
        let file = SourceFile::new(rel.to_string_lossy().replace('\\', "/"), src);
        assert_spans_sound(&file);
    }
}

/// What the parser recognized in a set of files.
#[derive(Debug, Default)]
struct Tally {
    fns: usize,
    test_fns: usize,
    structs: usize,
    fields: usize,
    enums: usize,
    variants: usize,
    impls: usize,
    trait_impls: usize,
}

impl Tally {
    fn add_items(&mut self, file: &SourceFile, items: &[Item]) {
        for item in items {
            match &item.kind {
                ItemKind::Fn(f) => self.add_fn(file, f),
                ItemKind::Struct(s) => {
                    assert!(!s.name.is_empty(), "{}: unnamed struct", file.rel_path);
                    self.structs += 1;
                    self.fields += s.fields.len();
                }
                ItemKind::Enum(e) => {
                    assert!(!e.name.is_empty(), "{}: unnamed enum", file.rel_path);
                    self.enums += 1;
                    self.variants += e.variants.len();
                }
                ItemKind::Impl(imp) => {
                    assert!(
                        !imp.type_name.is_empty(),
                        "{}:{}: impl without a type",
                        file.rel_path,
                        item.line
                    );
                    self.impls += 1;
                    self.trait_impls += usize::from(imp.trait_name.is_some());
                    for f in &imp.fns {
                        self.add_fn(file, f);
                    }
                }
                ItemKind::Mod(m) => self.add_items(file, &m.items),
                ItemKind::Other(_) => {}
            }
        }
    }

    /// A fn has a name, and its body range — what `snap.field_coverage`
    /// reads the `save`/`load` identifiers from — is exactly one braced
    /// block.
    fn add_fn(&mut self, file: &SourceFile, f: &FnDecl) {
        assert!(
            !f.name.is_empty(),
            "{}:{}: unnamed fn",
            file.rel_path,
            f.line
        );
        if let Some((lo, hi)) = f.body_range {
            let text = |i: usize| file.sig[i].text(&file.src);
            assert!(
                lo < hi && hi <= file.sig.len() && text(lo) == "{" && text(hi - 1) == "}",
                "{}:{}: body of `{}` is not a braced block",
                file.rel_path,
                f.line,
                f.name
            );
        }
        self.fns += 1;
        self.test_fns += usize::from(f.test);
    }
}

/// The parser recognizes real items in the workspace, it doesn't just
/// bucket everything as `Other("unparsed")`: a floor on everything the
/// coverage rules read.
#[test]
fn workspace_parse_recognizes_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    let mut tally = Tally::default();
    let (mut unparsed, mut total) = (0usize, 0usize);
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let file = SourceFile::new(path.to_string_lossy().into_owned(), src);
        tally.add_items(&file, &file.ast.items);
        for item in &file.ast.items {
            total += 1;
            if matches!(item.kind, ItemKind::Other("unparsed")) {
                unparsed += 1;
            }
        }
    }
    for (what, got, floor) in [
        ("fns", tally.fns, 1000),
        ("#[test] fns", tally.test_fns, 300),
        ("structs", tally.structs, 100),
        ("struct fields", tally.fields, 400),
        ("enums", tally.enums, 20),
        ("enum variants", tally.variants, 80),
        ("impls", tally.impls, 120),
        ("trait impls", tally.trait_impls, 60),
    ] {
        assert!(
            got > floor,
            "only {got} {what} parsed across the workspace: {tally:?}"
        );
    }
    // Unparsed fallback items must stay a rare escape hatch.
    assert!(
        unparsed * 50 <= total,
        "{unparsed}/{total} top-level items fell back to unparsed"
    );
}

/// Item-shaped fragments plus deliberate garbage: the parser must stay
/// total and span-sound on any interleaving.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("fn f(a: u64, b_us: u64) -> u64 { let x = a + b_us; x }".to_string()),
        Just("pub struct S { pub a: u64, b: Mutex<u64> }".to_string()),
        Just("impl S { fn m(&self) -> u64 { self.a } }".to_string()),
        Just("use std::collections::HashMap;".to_string()),
        Just("#[derive(Debug, Clone)]".to_string()),
        Just("enum E { A, B = 3, C(u64) }".to_string()),
        Just("mod inner { pub fn g() {} }".to_string()),
        Just("#[cfg(test)] mod tests { #[test] fn t() { assert!(true); } }".to_string()),
        Just("trait T { fn t(&self) -> u64; }".to_string()),
        Just("pub const X: u64 = 1;".to_string()),
        Just("static Y: &str = \"s\";".to_string()),
        Just("type Alias<T> = std::sync::Mutex<T>;".to_string()),
        Just("macro_rules! m { () => {} }".to_string()),
        Just(
            "impl Iterator for S { type Item = u64; fn next(&mut self) -> Option<u64> { None } }"
                .to_string()
        ),
        // Garbage the fallback path must survive.
        Just("fn".to_string()),
        Just("impl {".to_string()),
        Just("} }".to_string()),
        Just(") ; (".to_string()),
        Just("-> <T as U>::V".to_string()),
        Just("#![allow(dead_code)]".to_string()),
        Just("::".to_string()),
        Just("let stray = 1;".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn generated_sources_parse_totally(parts in prop::collection::vec(fragment(), 0..24)) {
        let src = parts.join("\n");
        let file = SourceFile::new("crates/cluster/src/lib.rs".to_string(), src.clone());
        assert_spans_sound(&file);
        // And the whole engine must not panic on whatever the parser
        // produced.
        let out = audit_sources(vec![("crates/cluster/src/lib.rs".to_string(), src)]);
        let _ = out.render_text();
        let _ = out.render_json();
    }
}
