//! The item-level **structural pass**: cross-file analyses over the
//! [`parser`](crate::parser) output that machine-check the architectural
//! half of the determinism contract.
//!
//! Four analyses plus one coverage check, each a named rule suppression
//! directives can target (see [`STRUCTURAL`]):
//!
//! * **`frozen-reference`** — the frozen reference engines
//!   (`Config::frozen_files`) carry committed comment/whitespace-
//!   normalized fingerprints under `crates/lint/snapshots/frozen/`. Any
//!   edit that changes the token stream (a rename, a reorder, a tweaked
//!   constant) is a finding; comment and formatting changes are not.
//!   Deliberate re-freezes run `cargo run -p mlf-lint -- --bless`.
//! * **`crate-layering`** — workspace dependency edges (from each crate's
//!   `Cargo.toml` *and* from `mlf_*` identifiers in its sources) must
//!   point strictly downward in the declared layering
//!   (`Config::layering`, low → high). Upward edges — which include
//!   every possible cycle, since the layering is a total order — and any
//!   dependency of/on the standalone tooling crates are findings.
//! * **`api-surface`** — each library crate's `pub` item inventory is
//!   committed under `crates/lint/snapshots/api/<crate>.txt`. Items that
//!   appear or disappear relative to the snapshot are findings, so public
//!   API drift is a reviewed diff, never an accident. `--bless`
//!   regenerates the inventories deterministically (sorted, stable text).
//! * **`unused-pub`** — a `pub` item whose name is never referenced
//!   outside its defining crate's library code (other crates, the crate's
//!   own tests/benches/examples, the workspace-root harness) should be
//!   `pub(crate)`. A reference from the crate's own `#[cfg(test)]`
//!   modules does not count. Matching is by identifier, so a shared name
//!   anywhere outside the crate counts as use — the rule errs toward
//!   silence. Types also flow: a `pub` type named in the public
//!   signature (parameters and return type, plain-`pub` fields, enum
//!   variants, trait members, alias definitions) of a `pub` item of the
//!   same crate that is itself used counts as used, computed to a
//!   fixpoint, so `fn f() -> A` used elsewhere keeps `A` and any type `A`
//!   exposes. A type named only by unused items still fires with them.
//!   Intentional API that no file names (e.g. items used only from doc
//!   examples, which are comments to the analyzer) carries
//!   `// mlf-lint: allow(unused-pub, reason = "…")` on the item.
//! * **`differential-coverage`** — every frozen reference module (and
//!   every non-test `mod` nested in one) must be named, together with its
//!   crate, by at least one workspace test file: freezing an engine
//!   without a differential test is itself a finding.
//!
//! Reachability caveat: the API inventory records `pub` items at their
//! definition path. Whether a deep item is *exported* additionally depends
//! on parent-module visibility and re-exports; recording the definition
//! site is what makes drift reviewable without a full name-resolution
//! pass.

use crate::lexer::lex;
use crate::parser::{parse_items, Item, ItemKind, Visibility};
use crate::{Config, Finding, LoadedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule name: frozen reference module fingerprint mismatch.
pub const FROZEN_REFERENCE: &str = "frozen-reference";
/// Rule name: crate dependency edge violating the declared layering.
pub const CRATE_LAYERING: &str = "crate-layering";
/// Rule name: public API drift against the committed snapshot.
pub const API_SURFACE: &str = "api-surface";
/// Rule name: `pub` item never referenced outside its defining crate.
pub const UNUSED_PUB: &str = "unused-pub";
/// Rule name: frozen reference module with no naming test file.
pub const DIFFERENTIAL_COVERAGE: &str = "differential-coverage";

/// The structural rules: `(name, one-line summary)` — the analog of
/// [`crate::rules::ALL`] for `--list` and allow-directive validation.
pub const STRUCTURAL: &[(&str, &str)] = &[
    (
        FROZEN_REFERENCE,
        "frozen reference engines only change in comments/whitespace (re-bless with --bless)",
    ),
    (
        CRATE_LAYERING,
        "crate dependency edges follow the declared layering; tooling crates stay leaves",
    ),
    (
        API_SURFACE,
        "per-crate pub item inventories match the committed snapshots (re-bless with --bless)",
    ),
    (
        UNUSED_PUB,
        "pub items referenced nowhere outside their crate should be pub(crate)",
    ),
    (
        DIFFERENTIAL_COVERAGE,
        "every frozen reference module is named by at least one workspace test file",
    ),
];

/// A comment/whitespace-normalized fingerprint of one source file: the
/// FNV-1a 64 hash of the token stream (kinds + texts) plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of code tokens.
    pub tokens: usize,
    /// FNV-1a 64 over the token kind/text sequence.
    pub fnv64: u64,
}

/// Fingerprint `src`: lex (comments vanish, whitespace collapses) and hash
/// the token sequence. Two sources get equal fingerprints iff they agree
/// token-for-token — i.e. differ at most in comments and formatting.
pub fn fingerprint_source(src: &str) -> Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let lexed = lex(src);
    let mut h = OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for t in &lexed.tokens {
        mix(&[t.kind as u8]);
        mix(t.text(src).as_bytes());
        mix(&[0xff]);
    }
    Fingerprint {
        tokens: lexed.tokens.len(),
        fnv64: h,
    }
}

/// One line of a per-crate public-API inventory, with its definition site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ApiEntry {
    /// The snapshot line: `<kind> <module_path>::<name>`.
    pub entry: String,
    /// Workspace-relative file of the definition.
    pub rel: String,
    /// 1-based line of the item (first attribute line).
    pub line: u32,
}

fn crate_dir_to_lib(dir: &str) -> String {
    if dir == "root" {
        "multicast_fairness".to_string()
    } else {
        format!("mlf_{dir}")
    }
}

fn crate_dir_to_package(dir: &str) -> String {
    if dir == "root" {
        "multicast-fairness".to_string()
    } else {
        format!("mlf-{dir}")
    }
}

/// The module path of a library source file within its crate, or `None`
/// when the file is not part of a library tree (`bin/`, tests, …).
fn file_module_path(rel: &str, krate: &str) -> Option<String> {
    let lib = crate_dir_to_lib(krate);
    let src_prefix = if krate == "root" {
        "src/".to_string()
    } else {
        format!("crates/{krate}/src/")
    };
    let tail = rel.strip_prefix(&src_prefix)?;
    if tail.contains("bin/") {
        return None;
    }
    let tail = tail.strip_suffix(".rs")?;
    let mut path = lib;
    if tail != "lib" {
        for seg in tail.split('/') {
            if seg == "mod" {
                continue;
            }
            path.push_str("::");
            path.push_str(seg);
        }
    }
    Some(path)
}

/// Walk one file's items collecting `pub` API entries under `path`.
fn collect_api(items: &[Item], path: &str, rel: &str, out: &mut Vec<ApiEntry>) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        let push = |out: &mut Vec<ApiEntry>, word: &str, name: &str| {
            out.push(ApiEntry {
                entry: format!("{word} {path}::{name}"),
                rel: rel.to_string(),
                line: item.line,
            });
        };
        match item.kind {
            ItemKind::Mod => {
                if let Some(n) = &item.name {
                    if item.vis == Visibility::Public {
                        push(out, "mod", n);
                    }
                    let sub = format!("{path}::{n}");
                    collect_api(&item.children, &sub, rel, out);
                }
            }
            ItemKind::Use if item.vis == Visibility::Public => {
                if let Some(p) = &item.use_path {
                    out.push(ApiEntry {
                        entry: format!("use {path}::[{p}]"),
                        rel: rel.to_string(),
                        line: item.line,
                    });
                }
            }
            ItemKind::Fn
            | ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::TypeAlias
            | ItemKind::Const
            | ItemKind::Static
                if item.vis == Visibility::Public =>
            {
                if let Some(n) = &item.name {
                    push(out, item.kind.word(), n);
                }
            }
            ItemKind::MacroRules if item.macro_export => {
                if let Some(n) = &item.name {
                    push(out, "macro", n);
                }
            }
            // Inherent-impl members with explicit `pub` are API.
            ItemKind::Impl if !item.trait_impl => {
                if let Some(target) = &item.impl_target {
                    let sub = format!("{path}::{target}");
                    for m in &item.children {
                        if m.cfg_test || m.vis != Visibility::Public {
                            continue;
                        }
                        if let Some(n) = &m.name {
                            out.push(ApiEntry {
                                entry: format!("{} {sub}::{n}", m.kind.word()),
                                rel: rel.to_string(),
                                line: m.line,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Compute the per-crate public API inventories for every crate in
/// `Config::api_crates`, sorted and deduplicated.
pub fn api_surface(files: &[LoadedFile], cfg: &Config) -> BTreeMap<String, Vec<ApiEntry>> {
    let mut out: BTreeMap<String, Vec<ApiEntry>> = BTreeMap::new();
    for dir in &cfg.api_crates {
        out.insert(dir.clone(), Vec::new());
    }
    for f in files {
        let Some(krate) = &f.info.krate else { continue };
        if !cfg.api_crates.contains(krate) {
            continue;
        }
        let Some(path) = file_module_path(&f.rel, krate) else {
            continue;
        };
        let lexed = lex(&f.src);
        let items = parse_items(&f.src, &lexed.tokens);
        let entries = out.entry(krate.clone()).or_default();
        collect_api(&items, &path, &f.rel, entries);
    }
    for entries in out.values_mut() {
        entries.sort();
        entries.dedup_by(|a, b| a.entry == b.entry);
    }
    out
}

// ---------------------------------------------------------------------------
// Snapshot I/O
// ---------------------------------------------------------------------------

fn frozen_snapshot_path(root: &Path, cfg: &Config, rel: &str) -> PathBuf {
    root.join(&cfg.snapshot_dir)
        .join("frozen")
        .join(format!("{}.fp", rel.replace('/', "__")))
}

fn api_snapshot_path(root: &Path, cfg: &Config, krate: &str) -> PathBuf {
    root.join(&cfg.snapshot_dir)
        .join("api")
        .join(format!("{krate}.txt"))
}

fn snapshot_rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn parse_fp_snapshot(text: &str) -> Option<Fingerprint> {
    let mut tokens = None;
    let mut fnv = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(v) = line.strip_prefix("tokens ") {
            tokens = v.trim().parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("fnv64 ") {
            fnv = u64::from_str_radix(v.trim().trim_start_matches("0x"), 16).ok();
        }
    }
    Some(Fingerprint {
        tokens: tokens?,
        fnv64: fnv?,
    })
}

fn render_fp_snapshot(rel: &str, fp: Fingerprint) -> String {
    format!(
        "# mlf-lint frozen-reference fingerprint (comment/whitespace-normalized).\n\
         # Re-bless a deliberate re-freeze: cargo run -p mlf-lint -- --bless\n\
         file {rel}\n\
         tokens {}\n\
         fnv64 0x{:016x}\n",
        fp.tokens, fp.fnv64
    )
}

fn render_api_snapshot(krate: &str, entries: &[ApiEntry]) -> String {
    let mut out = format!(
        "# mlf-lint public-API surface snapshot for crate `{}`.\n\
         # One `pub` item per line, sorted; drift against this file is a finding.\n\
         # Re-bless deliberate API changes: cargo run -p mlf-lint -- --bless\n",
        crate_dir_to_package(krate)
    );
    for e in entries {
        out.push_str(&e.entry);
        out.push('\n');
    }
    out
}

fn parse_api_snapshot(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

// ---------------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------------

fn check_frozen(root: &Path, files: &[LoadedFile], cfg: &Config, findings: &mut Vec<Finding>) {
    for frozen in &cfg.frozen_files {
        let snap_path = frozen_snapshot_path(root, cfg, frozen);
        let snap_rel = snapshot_rel(root, &snap_path);
        let Some(file) = files.iter().find(|f| &f.rel == frozen) else {
            findings.push(Finding {
                rule: FROZEN_REFERENCE,
                path: frozen.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "frozen reference file `{frozen}` is configured but missing from the \
                     workspace scan"
                ),
            });
            continue;
        };
        let current = fingerprint_source(&file.src);
        let committed = fs::read_to_string(&snap_path)
            .ok()
            .and_then(|t| parse_fp_snapshot(&t));
        match committed {
            None => findings.push(Finding {
                rule: FROZEN_REFERENCE,
                path: frozen.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "no committed fingerprint for frozen reference `{frozen}` (expected \
                     `{snap_rel}`) — run `cargo run -p mlf-lint -- --bless`"
                ),
            }),
            Some(fp) if fp != current => findings.push(Finding {
                rule: FROZEN_REFERENCE,
                path: frozen.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "frozen reference `{frozen}` changed semantically: fingerprint \
                     0x{:016x}/{} tokens vs committed 0x{:016x}/{} — frozen engines may \
                     only change in comments/whitespace; if this re-freeze is deliberate, \
                     re-bless with `cargo run -p mlf-lint -- --bless` and call it out in review",
                    current.fnv64, current.tokens, fp.fnv64, fp.tokens
                ),
            }),
            Some(_) => {}
        }
    }
}

/// Parse the `mlf-*` dependency names (with line numbers) out of one
/// `Cargo.toml`, from its `[dependencies]` / `[dev-dependencies]` /
/// `[build-dependencies]` sections.
fn manifest_mlf_deps(text: &str) -> Vec<(String, u32)> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: &str = line
            .split(|c: char| c == '=' || c == '.' || c.is_whitespace())
            .next()
            .unwrap_or("");
        if let Some(dir) = name.strip_prefix("mlf-") {
            deps.push((dir.to_string(), idx as u32 + 1));
        }
    }
    deps
}

fn check_layering(root: &Path, files: &[LoadedFile], cfg: &Config, findings: &mut Vec<Finding>) {
    let layer_of = |dir: &str| cfg.layering.iter().position(|l| l == dir);
    let chain = cfg.layering.join(" → ");
    let mut emit = |path: String, line: u32, message: String| {
        findings.push(Finding {
            rule: CRATE_LAYERING,
            path,
            line,
            col: 1,
            message,
        });
    };
    let mut check_edge = |from: &str, to: &str, path: String, line: u32, via: &str| {
        if from == to {
            return;
        }
        if cfg.standalone_crates.iter().any(|s| s == from) {
            emit(
                path,
                line,
                format!(
                    "standalone tooling crate `{}` must depend on no workspace crate, but {via} \
                     pulls in `{}`",
                    crate_dir_to_package(from),
                    crate_dir_to_package(to)
                ),
            );
            return;
        }
        if cfg.standalone_crates.iter().any(|s| s == to) {
            emit(
                path,
                line,
                format!(
                    "`{}` depends on standalone tooling crate `{}` — the analyzer stays a leaf",
                    crate_dir_to_package(from),
                    crate_dir_to_package(to)
                ),
            );
            return;
        }
        let (Some(lf), Some(lt)) = (layer_of(from), layer_of(to)) else {
            return;
        };
        if lt >= lf {
            emit(
                path,
                line,
                format!(
                    "upward dependency edge `{}` → `{}` inverts the declared crate layering \
                     ({chain}); cycles are impossible only while every edge points downward",
                    crate_dir_to_package(from),
                    crate_dir_to_package(to)
                ),
            );
        }
    };

    // Manifest edges.
    let manifest_crates: Vec<&String> = cfg
        .layering
        .iter()
        .chain(cfg.standalone_crates.iter())
        .collect();
    for dir in manifest_crates {
        let manifest = root.join("crates").join(dir).join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let rel = snapshot_rel(root, &manifest);
        for (dep, line) in manifest_mlf_deps(&text) {
            check_edge(dir, &dep, rel.clone(), line, "its Cargo.toml");
        }
    }

    // Source edges: `mlf_*` identifiers anywhere under a crate's directory
    // (library, tests, benches — all impose real dependency edges). The
    // root umbrella sits above the whole layering and is exempt.
    let lib_names: Vec<(String, String)> = cfg
        .layering
        .iter()
        .chain(cfg.standalone_crates.iter())
        .map(|d| (crate_dir_to_lib(d), d.clone()))
        .collect();
    for f in files {
        let Some(krate) = &f.info.krate else { continue };
        if krate == "root" {
            continue;
        }
        if layer_of(krate).is_none() && !cfg.standalone_crates.iter().any(|s| s == krate) {
            continue;
        }
        let lexed = lex(&f.src);
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for t in &lexed.tokens {
            if t.kind != crate::lexer::TokenKind::Ident {
                continue;
            }
            let text = t.text(&f.src);
            let Some((_, dep_dir)) = lib_names.iter().find(|(lib, _)| lib == text) else {
                continue;
            };
            if !seen.insert(text) {
                continue; // one finding per (file, dep) pair
            }
            check_edge(
                krate,
                dep_dir,
                f.rel.clone(),
                t.line,
                "this source reference",
            );
        }
    }
}

fn check_api_surface(root: &Path, files: &[LoadedFile], cfg: &Config, findings: &mut Vec<Finding>) {
    let surfaces = api_surface(files, cfg);
    for (krate, entries) in &surfaces {
        let snap_path = api_snapshot_path(root, cfg, krate);
        let snap_rel = snapshot_rel(root, &snap_path);
        let Ok(text) = fs::read_to_string(&snap_path) else {
            findings.push(Finding {
                rule: API_SURFACE,
                path: snap_rel,
                line: 1,
                col: 1,
                message: format!(
                    "no committed API snapshot for crate `{}` — run \
                     `cargo run -p mlf-lint -- --bless`",
                    crate_dir_to_package(krate)
                ),
            });
            continue;
        };
        let committed = parse_api_snapshot(&text);
        let current: BTreeSet<&str> = entries.iter().map(|e| e.entry.as_str()).collect();
        for e in entries {
            if !committed.contains(&e.entry) {
                findings.push(Finding {
                    rule: API_SURFACE,
                    path: e.rel.clone(),
                    line: e.line,
                    col: 1,
                    message: format!(
                        "public item `{}` is not in the committed API snapshot for `{}` — \
                         deliberate API growth is re-blessed with \
                         `cargo run -p mlf-lint -- --bless`",
                        e.entry,
                        crate_dir_to_package(krate)
                    ),
                });
            }
        }
        for gone in committed.iter().filter(|c| !current.contains(c.as_str())) {
            findings.push(Finding {
                rule: API_SURFACE,
                path: snap_rel.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "public item `{gone}` disappeared from crate `{}` — removing API is a \
                     breaking change; re-bless with `cargo run -p mlf-lint -- --bless`",
                    crate_dir_to_package(krate)
                ),
            });
        }
    }
}

/// A `pub` item that is a candidate for the unused-pub check.
struct PubCandidate {
    name: String,
    kind: ItemKind,
    signature: Vec<String>,
    rel: String,
    line: u32,
    krate: String,
}

impl PubCandidate {
    fn new(item: &Item, name: &str, rel: &str, krate: &str) -> Self {
        PubCandidate {
            name: name.to_string(),
            kind: item.kind,
            signature: item.signature.clone(),
            rel: rel.to_string(),
            line: item.line,
            krate: krate.to_string(),
        }
    }

    /// Whether type flow can reach the item: only types are named in
    /// signatures.
    fn is_type(&self) -> bool {
        matches!(
            self.kind,
            ItemKind::Struct
                | ItemKind::Enum
                | ItemKind::Union
                | ItemKind::Trait
                | ItemKind::TypeAlias
        )
    }
}

fn collect_pub_candidates(items: &[Item], rel: &str, krate: &str, out: &mut Vec<PubCandidate>) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match item.kind {
            ItemKind::Fn
            | ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::TypeAlias
            | ItemKind::Const
            | ItemKind::Static
                if item.vis == Visibility::Public =>
            {
                if let Some(n) = &item.name {
                    out.push(PubCandidate::new(item, n, rel, krate));
                }
            }
            ItemKind::Mod => collect_pub_candidates(&item.children, rel, krate, out),
            ItemKind::Impl if !item.trait_impl => {
                for m in &item.children {
                    if m.cfg_test || m.vis != Visibility::Public {
                        continue;
                    }
                    if let Some(n) = &m.name {
                        out.push(PubCandidate::new(m, n, rel, krate));
                    }
                }
            }
            _ => {}
        }
    }
}

fn check_unused_pub(files: &[LoadedFile], cfg: &Config, findings: &mut Vec<Finding>) {
    use crate::FileClass;
    // Usage units: the library code of crate X is one unit ("lib:X");
    // everything else (harness files, other crates, root tests) is grouped
    // by its own identity. An item of crate X is "used" iff its name
    // appears in any unit other than "lib:X".
    let mut usage: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut candidates: Vec<PubCandidate> = Vec::new();
    for f in files {
        let unit = match (&f.info.class, &f.info.krate) {
            (FileClass::Library, Some(k)) => format!("lib:{k}"),
            (_, Some(k)) => format!("harness:{k}"),
            (_, None) => "harness:".to_string(),
        };
        let lexed = lex(&f.src);
        for t in &lexed.tokens {
            if t.kind == crate::lexer::TokenKind::Ident {
                let text = t.text(&f.src);
                let name = text.strip_prefix("r#").unwrap_or(text);
                usage.entry(name).or_default().insert(unit.clone());
            }
        }
        if f.info.class == FileClass::Library {
            if let Some(k) = &f.info.krate {
                if cfg.deterministic_crates.contains(k) {
                    let items = parse_items(&f.src, &lexed.tokens);
                    collect_pub_candidates(&items, &f.rel, k, &mut candidates);
                }
            }
        }
    }
    let mut used: Vec<bool> = candidates
        .iter()
        .map(|c| {
            let own = format!("lib:{}", c.krate);
            usage
                .get(c.name.as_str())
                .is_some_and(|units| units.iter().any(|u| u != &own))
        })
        .collect();
    // Type flow: a pub type named in the public signature of a used pub
    // item of its own crate is reachable through that item, and so used.
    loop {
        let reachable: BTreeSet<(&str, &str)> = candidates
            .iter()
            .zip(&used)
            .filter(|(_, u)| **u)
            .flat_map(|(c, _)| c.signature.iter().map(|n| (c.krate.as_str(), n.as_str())))
            .collect();
        let mut grew = false;
        for (c, u) in candidates.iter().zip(used.iter_mut()) {
            if !*u && c.is_type() && reachable.contains(&(c.krate.as_str(), c.name.as_str())) {
                *u = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for (c, _) in candidates.iter().zip(&used).filter(|(_, u)| !**u) {
        findings.push(Finding {
            rule: UNUSED_PUB,
            path: c.rel.clone(),
            line: c.line,
            col: 1,
            message: format!(
                "`pub {} {}` is never referenced outside its defining crate, directly or \
                 through the signature of a used item — downgrade to `pub(crate)`, or keep it \
                 public with `// mlf-lint: allow(unused-pub, reason = \"…\")` naming why the \
                 API is intentional",
                c.kind.word(),
                c.name
            ),
        });
    }
}

fn check_differential_coverage(files: &[LoadedFile], cfg: &Config, findings: &mut Vec<Finding>) {
    // Identifier sets of every workspace test file.
    let test_files: Vec<(&LoadedFile, BTreeSet<String>)> = files
        .iter()
        .filter(|f| f.rel.starts_with("tests/") || f.rel.contains("/tests/"))
        .map(|f| {
            let lexed = lex(&f.src);
            let idents: BTreeSet<String> = lexed
                .tokens
                .iter()
                .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
                .map(|t| {
                    let text = t.text(&f.src);
                    text.strip_prefix("r#").unwrap_or(text).to_string()
                })
                .collect();
            (f, idents)
        })
        .collect();
    for frozen in &cfg.frozen_files {
        let Some(file) = files.iter().find(|f| &f.rel == frozen) else {
            continue; // check_frozen already reported the missing file
        };
        let Some(krate) = &file.info.krate else {
            continue;
        };
        let lib = crate_dir_to_lib(krate);
        let stem = Path::new(frozen)
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_default();
        let lexed = lex(&file.src);
        let items = parse_items(&file.src, &lexed.tokens);
        let mut required: Vec<(String, u32)> = vec![(stem.clone(), 1)];
        for item in &items {
            if item.kind == ItemKind::Mod && !item.cfg_test {
                if let Some(n) = &item.name {
                    required.push((n.clone(), item.line));
                }
            }
        }
        for (module, line) in required {
            let covered = test_files
                .iter()
                .any(|(_, idents)| idents.contains(&lib) && idents.contains(&module));
            if !covered {
                findings.push(Finding {
                    rule: DIFFERENTIAL_COVERAGE,
                    path: frozen.clone(),
                    line,
                    col: 1,
                    message: format!(
                        "frozen reference module `{lib}::{module}` is named by no workspace \
                         test file — freezing an engine without a differential test leaves \
                         the bitwise contract unchecked"
                    ),
                });
            }
        }
    }
}

/// Run the whole structural pass over a loaded workspace. `root` anchors
/// the `Cargo.toml` and snapshot reads; findings come back unsorted (the
/// caller merges them with the token-pass findings and applies
/// suppression directives).
pub fn analyze(root: &Path, files: &[LoadedFile], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_frozen(root, files, cfg, &mut findings);
    check_layering(root, files, cfg, &mut findings);
    check_api_surface(root, files, cfg, &mut findings);
    check_unused_pub(files, cfg, &mut findings);
    check_differential_coverage(files, cfg, &mut findings);
    findings
}

/// Regenerate every snapshot (frozen fingerprints + per-crate API
/// surfaces) from the current workspace state. Output is deterministic:
/// same sources, same bytes. Returns the workspace-relative paths written.
pub fn bless(root: &Path, files: &[LoadedFile], cfg: &Config) -> io::Result<Vec<String>> {
    let mut written = Vec::new();
    for frozen in &cfg.frozen_files {
        let Some(file) = files.iter().find(|f| &f.rel == frozen) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("frozen file `{frozen}` not found in workspace scan"),
            ));
        };
        let fp = fingerprint_source(&file.src);
        let path = frozen_snapshot_path(root, cfg, frozen);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(&path, render_fp_snapshot(frozen, fp))?;
        written.push(snapshot_rel(root, &path));
    }
    for (krate, entries) in &api_surface(files, cfg) {
        let path = api_snapshot_path(root, cfg, krate);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(&path, render_api_snapshot(krate, entries))?;
        written.push(snapshot_rel(root, &path));
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_comments_and_whitespace() {
        let a = "pub fn f(x: u32) -> u32 { x + 1 }";
        let b = "// a comment\npub fn f(\n    x: u32\n) -> u32 {\n    /* inline */ x + 1\n}";
        assert_eq!(fingerprint_source(a).fnv64, fingerprint_source(b).fnv64);
    }

    #[test]
    fn fingerprint_sees_semantic_changes() {
        let a = "pub fn f(x: u32) -> u32 { x + 1 }";
        let renamed = "pub fn f(y: u32) -> u32 { y + 1 }";
        let retuned = "pub fn f(x: u32) -> u32 { x + 2 }";
        assert_ne!(
            fingerprint_source(a).fnv64,
            fingerprint_source(renamed).fnv64
        );
        assert_ne!(
            fingerprint_source(a).fnv64,
            fingerprint_source(retuned).fnv64
        );
    }

    #[test]
    fn manifest_dep_parsing() {
        let toml = "[package]\nname = \"mlf-sim\"\n\n[dependencies]\nmlf-net.workspace = true\n\
                    mlf-layering = { path = \"../layering\" }\n\n[dev-dependencies]\nproptest.workspace = true\n";
        let deps = manifest_mlf_deps(toml);
        let names: Vec<&str> = deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(names, ["net", "layering"]);
    }

    #[test]
    fn module_paths_from_rel() {
        assert_eq!(
            file_module_path("crates/core/src/lib.rs", "core").as_deref(),
            Some("mlf_core")
        );
        assert_eq!(
            file_module_path("crates/core/src/properties/mod.rs", "core").as_deref(),
            Some("mlf_core::properties")
        );
        assert_eq!(
            file_module_path("crates/core/src/properties/same_path.rs", "core").as_deref(),
            Some("mlf_core::properties::same_path")
        );
        assert_eq!(
            file_module_path("src/lib.rs", "root").as_deref(),
            Some("multicast_fairness")
        );
        assert_eq!(file_module_path("crates/core/tests/x.rs", "core"), None);
    }
}
