//! Regression tests for two structural rules.
//!
//! `frozen-reference`: a frozen module may change comments and whitespace
//! freely, but any *semantic* edit — renaming a local, reordering
//! functions, touching a literal — must shift the committed fingerprint
//! and surface as a finding. These tests tamper with an in-memory copy of
//! the real frozen solver and check both directions against the committed
//! snapshots.
//!
//! `unused-pub`: a `pub` item fires unless a file outside its crate's
//! library code names it, or type flow reaches it through the public
//! signature of a used item of its crate. In-memory workspaces check each
//! side, and a ratchet keeps the workspace's allow count from growing.

use std::path::PathBuf;

use mlf_lint::lexer::lex;
use mlf_lint::parser::{parse_items, ItemKind};
use mlf_lint::structure::{self, fingerprint_source, FROZEN_REFERENCE, UNUSED_PUB};
use mlf_lint::{classify, load_workspace, Config, LoadedFile};

const CORE_REFERENCE: &str = "crates/core/src/reference.rs";
const SIM_REFERENCE: &str = "crates/sim/src/reference.rs";
const TREE_REFERENCE: &str = "crates/sim/src/reference_tree.rs";

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn read_frozen(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("frozen module readable")
}

fn loaded(rel: &str, src: String, cfg: &Config) -> LoadedFile {
    LoadedFile {
        rel: rel.to_string(),
        info: classify(rel, cfg).expect("frozen module is in scope"),
        src,
    }
}

/// `frozen-reference` findings produced by the structural pass over the
/// two frozen modules, with `core`'s source replaced by `core_src`.
fn frozen_findings(core_src: String) -> Vec<mlf_lint::Finding> {
    let cfg = Config::workspace();
    let files = vec![
        loaded(CORE_REFERENCE, core_src, &cfg),
        loaded(SIM_REFERENCE, read_frozen(SIM_REFERENCE), &cfg),
        loaded(TREE_REFERENCE, read_frozen(TREE_REFERENCE), &cfg),
    ];
    structure::analyze(&workspace_root(), &files, &cfg)
        .into_iter()
        .filter(|f| f.rule == FROZEN_REFERENCE)
        .collect()
}

/// Rename the first `let`-bound local throughout the file. The copy need
/// not compile — only the token stream matters to the fingerprint.
fn rename_first_local(src: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut name = None;
    for (pos, _) in src.match_indices("let ") {
        // Require a non-ident char before `let` so `complete` etc. don't match.
        if pos > 0 && src[..pos].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &src[pos + 4..];
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
        let candidate = &rest[..end];
        if !candidate.is_empty() && !candidate.starts_with(|c: char| c.is_ascii_digit()) {
            name = Some(candidate.to_string());
            break;
        }
    }
    let name = name.expect("frozen module has at least one let binding");
    let replacement = format!("{name}_tampered");
    assert!(!src.contains(&replacement), "tampered name must be fresh");
    // Word-boundary replace of every occurrence.
    let mut out = String::with_capacity(src.len());
    let bytes = src.as_bytes();
    let mut i = 0;
    while let Some(off) = src[i..].find(&name) {
        let start = i + off;
        let end = start + name.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1] as char);
        let right_ok = end == src.len() || !is_ident(bytes[end] as char);
        out.push_str(&src[i..start]);
        if left_ok && right_ok {
            out.push_str(&replacement);
        } else {
            out.push_str(&name);
        }
        i = end;
    }
    out.push_str(&src[i..]);
    out
}

/// Swap two adjacent top-level functions, located via the item parser.
fn reorder_two_fns(src: &str) -> String {
    let lexed = lex(src);
    let items = parse_items(src, &lexed.tokens);
    let fns: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.kind == ItemKind::Fn && !it.cfg_test)
        .map(|(i, _)| i)
        .collect();
    let (a, b) = fns
        .windows(2)
        .find(|w| w[1] == w[0] + 1 && w[0] + 2 < items.len())
        .map(|w| (w[0], w[1]))
        .expect("frozen module has two adjacent top-level fns");
    let lines: Vec<&str> = src.lines().collect();
    let (s1, s2, s3) = (
        items[a].line as usize - 1,
        items[b].line as usize - 1,
        items[b + 1].line as usize - 1,
    );
    let mut out: Vec<&str> = Vec::with_capacity(lines.len());
    out.extend_from_slice(&lines[..s1]);
    out.extend_from_slice(&lines[s2..s3]);
    out.extend_from_slice(&lines[s1..s2]);
    out.extend_from_slice(&lines[s3..]);
    let mut joined = out.join("\n");
    if src.ends_with('\n') {
        joined.push('\n');
    }
    joined
}

/// Touch only comments and whitespace: extra doc prose, an added line
/// comment, reindentation noise, and trailing blank lines.
fn comment_only_edit(src: &str) -> String {
    let mut out = String::from("// tamper check: this comment must not shift the fingerprint\n");
    for (i, line) in src.lines().enumerate() {
        if i == 3 {
            out.push_str("    // an interior comment, also invisible\n\n");
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("\n\n// trailing commentary\n");
    out
}

#[test]
fn rename_local_shifts_fingerprint_and_fires() {
    let original = read_frozen(CORE_REFERENCE);
    let tampered = rename_first_local(&original);
    assert_ne!(tampered, original);
    assert_ne!(
        fingerprint_source(&tampered).fnv64,
        fingerprint_source(&original).fnv64,
        "renaming a local must change the token fingerprint"
    );
    let findings = frozen_findings(tampered);
    assert!(
        findings.iter().any(|f| f.path == CORE_REFERENCE),
        "integrity must fire for the tampered module: {findings:?}"
    );
}

#[test]
fn reordering_two_fns_shifts_fingerprint_and_fires() {
    let original = read_frozen(CORE_REFERENCE);
    let tampered = reorder_two_fns(&original);
    assert_ne!(tampered, original);
    // Same token multiset, different order: position sensitivity is the point.
    assert_ne!(
        fingerprint_source(&tampered).fnv64,
        fingerprint_source(&original).fnv64,
        "reordering functions must change the token fingerprint"
    );
    assert_eq!(
        fingerprint_source(&tampered).tokens,
        fingerprint_source(&original).tokens,
        "reordering moves tokens without adding any"
    );
    let findings = frozen_findings(tampered);
    assert!(
        findings.iter().any(|f| f.path == CORE_REFERENCE),
        "integrity must fire for the reordered module: {findings:?}"
    );
}

#[test]
fn comment_and_whitespace_edits_stay_clean() {
    let original = read_frozen(CORE_REFERENCE);
    let edited = comment_only_edit(&original);
    assert_ne!(edited, original);
    assert_eq!(
        fingerprint_source(&edited).fnv64,
        fingerprint_source(&original).fnv64,
        "comment/whitespace edits must not move the fingerprint"
    );
    let findings = frozen_findings(edited);
    assert!(
        findings.is_empty(),
        "no integrity findings expected for comment-only edits: {findings:?}"
    );
}

#[test]
fn pristine_workspace_matches_committed_fingerprints() {
    let findings = frozen_findings(read_frozen(CORE_REFERENCE));
    assert!(
        findings.is_empty(),
        "committed fingerprints must match the working tree: {findings:?}"
    );
}

/// Names of the items `unused-pub` reports over an in-memory workspace of
/// `(path, source)` files, sorted.
fn unused_pub(files: &[(&str, &str)]) -> Vec<String> {
    let cfg = Config::workspace();
    let files: Vec<LoadedFile> = files
        .iter()
        .map(|(rel, src)| loaded(rel, src.to_string(), &cfg))
        .collect();
    let mut names: Vec<String> = structure::analyze(&workspace_root(), &files, &cfg)
        .into_iter()
        .filter(|f| f.rule == UNUSED_PUB)
        .map(|f| {
            let item = f.message.split('`').nth(1).expect("message names the item");
            item.rsplit(' ')
                .next()
                .expect("item has a name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

const NET_LIB: &str = "crates/net/src/fake.rs";
const NET_TEST: &str = "crates/net/tests/fake.rs";
const CORE_LIB: &str = "crates/core/src/fake.rs";

#[test]
fn unreferenced_pub_fn_fires() {
    assert_eq!(unused_pub(&[(NET_LIB, "pub fn lonely() {}\n")]), ["lonely"]);
}

#[test]
fn harness_or_other_crate_reference_silences() {
    let lib = "pub fn lonely() {}\n";
    let harness = "fn t() { mlf_net::lonely(); }\n";
    assert!(unused_pub(&[(NET_LIB, lib), (NET_TEST, harness)]).is_empty());
    let other_crate = "pub(crate) fn f() { mlf_net::lonely() }\n";
    assert!(unused_pub(&[(NET_LIB, lib), (CORE_LIB, other_crate)]).is_empty());
}

#[test]
fn own_cfg_test_reference_still_fires() {
    let lib = "pub fn lonely() {}\n\
               #[cfg(test)]\n\
               mod tests {\n    #[test]\n    fn t() { super::lonely(); }\n}\n";
    assert_eq!(unused_pub(&[(NET_LIB, lib)]), ["lonely"]);
}

#[test]
fn type_in_a_used_signature_is_silent() {
    let lib = "pub struct Shape(u32);\n\
               pub fn make(seed: Seed) -> Shape { Shape(seed.0) }\n\
               pub struct Seed(pub u32);\n";
    let harness = "fn t() { let _ = mlf_net::make(x); }\n";
    assert!(unused_pub(&[(NET_LIB, lib), (NET_TEST, harness)]).is_empty());
}

#[test]
fn type_named_only_by_an_unused_fn_fires_with_it() {
    let lib = "pub struct Orphan;\n\
               pub fn orphan_maker() -> Orphan { Orphan }\n\
               pub fn used() -> u32 { 0 }\n";
    let harness = "fn t() { mlf_net::used(); }\n";
    assert_eq!(
        unused_pub(&[(NET_LIB, lib), (NET_TEST, harness)]),
        ["Orphan", "orphan_maker"]
    );
}

/// `outer()` is used; it returns `Outer`, whose pub field holds `Middle`,
/// whose variant holds `Inner`. Only the fixpoint reaches `Inner`. A type
/// behind a private field stays unreached.
#[test]
fn type_chains_resolve_through_the_fixpoint() {
    let lib = "pub fn outer() -> Outer { todo!() }\n\
               pub struct Outer {\n    pub middle: Vec<Middle>,\n    secret: Secret,\n}\n\
               pub enum Middle {\n    Held(Inner),\n    Empty,\n}\n\
               pub struct Inner;\n\
               pub struct Secret;\n";
    let harness = "fn t() { mlf_net::outer(); }\n";
    assert_eq!(
        unused_pub(&[(NET_LIB, lib), (NET_TEST, harness)]),
        ["Secret"]
    );
}

/// The most `unused-pub` allow directives the workspace may carry outside
/// `crates/lint` (whose doc strings spell the directive). Type flow left
/// no item that needs one. The test pins the count exactly, so a new allow
/// is a reviewed edit to this bound (which stays below 20) and a removed
/// one lowers it.
const MAX_UNUSED_PUB_ALLOWS: usize = 0;

#[test]
fn unused_pub_allows_do_not_grow_back() {
    let files = load_workspace(&workspace_root(), &Config::workspace()).expect("workspace loads");
    let allows: Vec<String> = files
        .iter()
        .filter(|f| !f.rel.starts_with("crates/lint/"))
        .flat_map(|f| {
            f.src
                .lines()
                .enumerate()
                .filter(|(_, line)| line.contains("mlf-lint:") && line.contains("(unused-pub"))
                .map(move |(i, _)| format!("{}:{}", f.rel, i + 1))
        })
        .collect();
    assert_eq!(
        allows.len(),
        MAX_UNUSED_PUB_ALLOWS,
        "{} unused-pub allows, bound {MAX_UNUSED_PUB_ALLOWS}: {allows:?}",
        allows.len()
    );
}
