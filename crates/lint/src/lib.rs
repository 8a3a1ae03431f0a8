//! `mlf-lint` — the workspace determinism-and-hygiene static analyzer.
//!
//! Every result this workspace ships (paper-figure reproductions,
//! serial-vs-parallel sweep differentials, frozen `reference` engines)
//! depends on a **bitwise-reproducibility contract**: same inputs, same
//! bits, on any machine, at any thread count. That contract is one
//! `HashMap` iteration or one `partial_cmp` sort away from silently
//! breaking. This crate machine-checks it on every CI run.
//!
//! # Design
//!
//! A hand-rolled, dependency-free **token-level** analyzer (the build is
//! offline, so no `syn`): the [`lexer`] understands strings, raw strings,
//! char literals, and nested block comments — so rule-pattern text inside
//! literals or comments never fires — and the [`rules`] match token
//! patterns, not syntax trees. Files are classified into scope classes
//! ([`FileClass`]): *library* code carries the full contract, *harness*
//! code (tests/benches/examples/bins) and *tooling* crates are exempt from
//! the rules that only make sense for deterministic library paths.
//! `#[cfg(test)]` regions inside library files count as harness code, and
//! so, on whole-workspace runs, does every file an out-of-line
//! `#[cfg(test)] mod name;` declaration pulls in (see [`load_workspace`]).
//!
//! # Suppression
//!
//! Deliberate violations are annotated in place and the annotations are
//! themselves validated:
//!
//! ```text
//! // mlf-lint: allow(panic-unwrap, reason = "invariant: every receiver froze")
//! let rate = frozen.expect("every receiver froze");
//! ```
//!
//! `allow(rule, reason = "…")` suppresses `rule` on the same line (when the
//! comment trails code) or on the next code line; `allow-file(rule,
//! reason = "…")` suppresses a rule for the whole file. Unknown rule names,
//! missing reasons, and allows that suppress nothing are **errors**
//! ([`meta::BAD_ALLOW`], [`meta::UNUSED_ALLOW`]) — a stale allow is a hole
//! in the contract.
//!
//! See [`rules::ALL`] for the rule set and `README`-level rationale on each.
//!
//! # The structural pass
//!
//! On a whole-workspace run ([`lint_workspace`], and the CLI with no path
//! arguments) the token rules are joined by an **item-level structural
//! pass**: the [`parser`] builds item headers (kind, name, visibility,
//! attributes, `mod`/`impl` nesting) on top of the lexer, and
//! [`structure`] runs five cross-file analyses over them —
//! frozen-reference integrity, the crate-layering DAG, public-API surface
//! snapshots, unused-pub, and differential coverage of frozen modules.
//! The integrity and API analyses diff against **committed snapshots**
//! under `crates/lint/snapshots/`:
//!
//! ```text
//! crates/lint/snapshots/
//! ├── frozen/   one fingerprint file per frozen reference module
//! │             (comment/whitespace-normalized token-stream FNV-1a 64)
//! └── api/      one sorted `pub`-item inventory per library crate
//! ```
//!
//! Deliberate changes are **re-blessed** — `cargo run -p mlf-lint --
//! --bless` regenerates every snapshot deterministically (same sources,
//! same bytes), so the diff of the snapshot files *is* the review artifact
//! for a re-freeze or an API change. Structural findings honor the same
//! `// mlf-lint: allow(rule, reason = "…")` directives as token rules; a
//! directive above an item (including above its attributes) targets it.

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod structure;

use lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Names of the meta-rules that validate suppression directives.
pub mod meta {
    /// A malformed allow directive: unknown rule name, missing reason, or
    /// unparseable syntax.
    pub const BAD_ALLOW: &str = "bad-allow";
    /// An allow directive that suppressed no finding.
    pub const UNUSED_ALLOW: &str = "unused-allow";
}

/// Which contract a file is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipping library code: the full determinism contract applies.
    Library,
    /// Tests, benches, examples, and `src/bin` binaries: hygiene rules
    /// only.
    Harness,
    /// Tooling crates (`mlf-bench`, `mlf-lint` itself): clocks, env vars,
    /// and printing are their job; only universal hygiene rules apply.
    Tooling,
}

/// The analyzer's policy: which crates are deterministic, which files are
/// solver/engine hot paths, and which files may use `unsafe`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose library code carries the determinism contract
    /// (`"root"` is the umbrella crate at the workspace root).
    pub deterministic_crates: Vec<String>,
    /// Crates whose library code must not depend on unordered-map
    /// iteration order.
    pub map_iter_crates: Vec<String>,
    /// Workspace-relative files counting as solver/engine hot paths for
    /// the `as-float-cast` rule.
    pub hot_path_files: Vec<String>,
    /// Workspace-relative files allowed to contain `unsafe`.
    pub unsafe_allow_files: Vec<String>,
    /// Crates classified [`FileClass::Tooling`].
    pub tooling_crates: Vec<String>,
    /// Workspace-relative files frozen for differential testing: only
    /// comments and whitespace may change (checked against committed
    /// fingerprints by [`structure`]).
    pub frozen_files: Vec<String>,
    /// The declared crate layering, low → high (directory names under
    /// `crates/`): every dependency edge must point strictly downward.
    pub layering: Vec<String>,
    /// Standalone tooling crates that must depend on no workspace crate
    /// (and that nothing in the layering may depend on).
    pub standalone_crates: Vec<String>,
    /// Crates (directory names; `"root"` = the umbrella crate) whose
    /// public API surface is snapshotted and diffed.
    pub api_crates: Vec<String>,
    /// Workspace-relative directory holding the committed snapshots.
    pub snapshot_dir: String,
}

impl Config {
    /// The policy for this workspace — the single source of truth the CI
    /// lint job and the self-check test both run under.
    pub fn workspace() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        Config {
            deterministic_crates: v(&[
                "root",
                "net",
                "core",
                "layering",
                "sim",
                "protocols",
                "scenario",
            ]),
            map_iter_crates: v(&["core", "sim", "scenario", "protocols"]),
            hot_path_files: v(&[
                "crates/core/src/maxmin.rs",
                "crates/core/src/weighted.rs",
                "crates/core/src/unicast.rs",
                "crates/core/src/allocation.rs",
                "crates/core/src/index.rs",
                "crates/sim/src/engine.rs",
                "crates/sim/src/index.rs",
                "crates/sim/src/tree.rs",
            ]),
            unsafe_allow_files: v(&[
                "crates/bench/benches/workspace_reuse.rs",
                "tests/allocation_ratchet.rs",
            ]),
            tooling_crates: v(&["bench", "lint"]),
            frozen_files: v(&[
                "crates/core/src/reference.rs",
                "crates/sim/src/reference.rs",
                "crates/sim/src/reference_tree.rs",
            ]),
            layering: v(&[
                "net",
                "core",
                "layering",
                "sim",
                "protocols",
                "scenario",
                "bench",
            ]),
            standalone_crates: v(&["lint"]),
            api_crates: v(&[
                "root",
                "net",
                "core",
                "layering",
                "sim",
                "protocols",
                "scenario",
            ]),
            snapshot_dir: "crates/lint/snapshots".to_string(),
        }
    }
}

/// Every rule name an allow directive may target: token rules, structural
/// rules, and the directive meta-rules are all addressable.
pub fn known_rule_names() -> Vec<&'static str> {
    rules::ALL
        .iter()
        .map(|r| r.name)
        .chain(structure::STRUCTURAL.iter().map(|(n, _)| *n))
        .collect()
}

/// One diagnostic: rule, location, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (a name from [`rules::ALL`] or [`meta`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The classification of one source file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Scope class.
    pub class: FileClass,
    /// Owning crate (`"root"` for the umbrella crate), if recognizable.
    pub krate: Option<String>,
}

/// Classify a workspace-relative path, or `None` when the file is out of
/// scope (vendored stand-ins, the linter's own fixture corpus, generated
/// artifacts).
pub fn classify(rel: &str, cfg: &Config) -> Option<FileInfo> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
        return None;
    }
    // The linter's fixture corpus contains deliberate violations.
    if rel.contains("tests/fixtures/") {
        return None;
    }
    let krate = if parts.first() == Some(&"crates") && parts.len() >= 3 {
        Some(parts[1].to_string())
    } else if parts.first() == Some(&"src") {
        Some("root".to_string())
    } else {
        None
    };
    let harness = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        || rel.contains("/src/bin/");
    let class = match &krate {
        Some(k) if cfg.tooling_crates.iter().any(|t| t == k) => FileClass::Tooling,
        _ if harness => FileClass::Harness,
        Some(_) => FileClass::Library,
        None => FileClass::Harness,
    };
    Some(FileInfo {
        rel: rel.to_string(),
        class,
        krate,
    })
}

/// Everything a rule needs to inspect one file.
pub struct FileCtx<'a> {
    /// The raw source.
    pub src: &'a str,
    /// File identity and scope.
    pub info: &'a FileInfo,
    /// The token stream (comments excluded).
    pub tokens: &'a [Token],
    /// `in_test[i]` — token `i` sits inside a `#[cfg(test)]`/`#[test]`
    /// item and is held to harness scope.
    pub in_test: &'a [bool],
    /// The active policy.
    pub cfg: &'a Config,
}

impl<'a> FileCtx<'a> {
    /// Token text.
    pub fn text(&self, i: usize) -> &'a str {
        self.tokens[i].text(self.src)
    }

    /// Whether token `i` is the identifier `name` (raw identifiers
    /// `r#name` match too).
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| {
            t.kind == TokenKind::Ident && {
                let text = t.text(self.src);
                text == name || text.strip_prefix("r#") == Some(name)
            }
        })
    }

    /// Whether token `i` is the punctuation `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(self.src, c))
    }

    /// Whether tokens `i, i+1` spell `::`.
    pub fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':') && self.is_punct(i + 1, ':')
    }

    /// Whether the crate this file belongs to is in `list`.
    pub fn crate_in(&self, list: &[String]) -> bool {
        self.info
            .krate
            .as_ref()
            .is_some_and(|k| list.iter().any(|c| c == k))
    }

    /// Library-scope tokens only: true when the file is library class and
    /// token `i` is outside `#[cfg(test)]` regions.
    pub fn is_library_code(&self, i: usize) -> bool {
        self.info.class == FileClass::Library && !self.in_test[i]
    }
}

/// Mark tokens that live inside test-gated items: `#[cfg(test)] mod … { }`,
/// `#[test] fn … { }`, `#[bench] …`. `#[cfg(not(test))]` does *not* count.
fn test_regions(tokens: &[Token], src: &str) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let text = |i: usize| tokens[i].text(src);
    let is_p = |i: usize, c: char| tokens[i].is_punct(src, c);
    let mut i = 0;
    while i < tokens.len() {
        if !(is_p(i, '#') && i + 1 < tokens.len() && is_p(i + 1, '[')) {
            i += 1;
            continue;
        }
        // Scan the attribute to its matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() {
            if is_p(j, '[') {
                depth += 1;
            } else if is_p(j, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tokens[j].kind == TokenKind::Ident {
                idents.push(text(j));
            }
            j += 1;
        }
        let attr_end = j; // index of `]` (or end)
        let gates_test = (idents.first() == Some(&"cfg")
            && idents.contains(&"test")
            && !idents.contains(&"not"))
            || idents.first() == Some(&"test")
            || idents.first() == Some(&"bench");
        if !gates_test || attr_end >= tokens.len() {
            i = attr_end.max(i + 1);
            continue;
        }
        // Skip any further attributes, then find the item's extent: the
        // matching `}` of its first top-level `{`, or a top-level `;`.
        let mut k = attr_end + 1;
        while k + 1 < tokens.len() && is_p(k, '#') && is_p(k + 1, '[') {
            let mut d = 0usize;
            while k < tokens.len() {
                if is_p(k, '[') {
                    d += 1;
                } else if is_p(k, ']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut end = k;
        while end < tokens.len() {
            if is_p(end, '(') || is_p(end, '[') {
                paren += 1;
            } else if is_p(end, ')') || is_p(end, ']') {
                paren -= 1;
            } else if is_p(end, '{') {
                brace += 1;
            } else if is_p(end, '}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            } else if is_p(end, ';') && paren == 0 && brace == 0 {
                break;
            }
            end += 1;
        }
        let end = end.min(tokens.len().saturating_sub(1));
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// One parsed suppression directive.
#[derive(Debug)]
struct Directive {
    rule: String,
    file_wide: bool,
    line: u32,
    col: u32,
    /// Lines this directive suppresses (empty for file-wide).
    targets: Vec<u32>,
    used: bool,
}

/// Parse `mlf-lint: allow(rule, reason = "…")` directives out of comments.
/// Malformed directives become `bad-allow` findings immediately.
fn parse_directives(
    lexed: &Lexed,
    src: &str,
    rel: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Directive> {
    let known = known_rule_names();
    let mut directives = Vec::new();
    for c in &lexed.comments {
        let body = &src[c.start..c.end];
        // Directives live in plain `//` comments only: doc comments
        // (`///`, `//!`) hold *examples* of directives, and block comments
        // are prose.
        if !body.starts_with("//") || body.starts_with("///") || body.starts_with("//!") {
            continue;
        }
        let Some(at) = body.find("mlf-lint:") else {
            continue;
        };
        let rest = body[at + "mlf-lint:".len()..].trim_start();
        let bad = |findings: &mut Vec<Finding>, msg: String| {
            findings.push(Finding {
                rule: meta::BAD_ALLOW,
                path: rel.to_string(),
                line: c.line,
                col: c.col + at as u32,
                message: msg,
            });
        };
        let (file_wide, args) = if let Some(a) = rest.strip_prefix("allow-file") {
            (true, a)
        } else if let Some(a) = rest.strip_prefix("allow") {
            (false, a)
        } else {
            bad(
                findings,
                format!("unrecognized mlf-lint directive `{}`", rest.trim_end()),
            );
            continue;
        };
        let args = args.trim_start();
        let Some(inner) = args
            .strip_prefix('(')
            .and_then(|a| a.split_once(')').map(|(i, _)| i))
        else {
            bad(findings, "malformed allow directive: expected `(…)`".into());
            continue;
        };
        let (rule_name, reason) = match inner.split_once(',') {
            Some((r, tail)) => (r.trim(), Some(tail.trim())),
            None => (inner.trim(), None),
        };
        if !known.contains(&rule_name) {
            bad(
                findings,
                format!(
                    "allow names unknown rule `{rule_name}` (known: {})",
                    known.join(", ")
                ),
            );
            continue;
        }
        let reason_ok = reason.is_some_and(|r| {
            r.strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim_start)
                .is_some_and(|r| r.starts_with('"') && r.trim_end().len() > 2)
        });
        if !reason_ok {
            bad(
                findings,
                format!("allow({rule_name}) needs a non-empty `reason = \"…\"`"),
            );
            continue;
        }
        // Targets: the directive's own line when code precedes the comment
        // on it, otherwise the next token-bearing line.
        let mut targets = Vec::new();
        if !file_wide {
            let trailing = lexed
                .tokens
                .iter()
                .any(|t| t.line == c.line && t.start < c.start);
            if trailing {
                targets.push(c.line);
            } else if let Some(next) = lexed.tokens.iter().find(|t| t.line > c.line) {
                targets.push(next.line);
            }
        }
        directives.push(Directive {
            rule: rule_name.to_string(),
            file_wide,
            line: c.line,
            col: c.col + at as u32,
            targets,
            used: false,
        });
    }
    directives
}

/// The token-rule findings for one file, before directive resolution.
fn raw_token_findings(info: &FileInfo, src: &str, lexed: &Lexed, cfg: &Config) -> Vec<Finding> {
    let in_test = test_regions(&lexed.tokens, src);
    let ctx = FileCtx {
        src,
        info,
        tokens: &lexed.tokens,
        in_test: &in_test,
        cfg,
    };
    let mut findings = Vec::new();
    for rule in rules::ALL {
        (rule.check)(&ctx, &mut findings);
    }
    findings
}

/// Resolve suppression directives against `findings` for one file: drop
/// suppressed findings, add `bad-allow`/`unused-allow` meta-findings.
///
/// `structural_ran` says whether the structural pass contributed findings
/// for this run: when it did not (per-file linting via [`lint_source`] /
/// [`lint_paths`]), allows naming structural rules are exempt from the
/// unused-allow check — they may well suppress something on the full
/// workspace run.
fn apply_directives(
    rel: &str,
    src: &str,
    lexed: &Lexed,
    mut findings: Vec<Finding>,
    structural_ran: bool,
) -> Vec<Finding> {
    let mut meta_findings = Vec::new();
    let mut directives = parse_directives(lexed, src, rel, &mut meta_findings);
    findings.retain(|f| {
        let suppressed = directives.iter_mut().any(|d| {
            let hit = d.rule == f.rule && (d.file_wide || d.targets.contains(&f.line));
            if hit {
                d.used = true;
            }
            hit
        });
        !suppressed
    });
    let structural_rule = |name: &str| structure::STRUCTURAL.iter().any(|(n, _)| *n == name);
    for d in &directives {
        if !d.used && (structural_ran || !structural_rule(&d.rule)) {
            meta_findings.push(Finding {
                rule: meta::UNUSED_ALLOW,
                path: rel.to_string(),
                line: d.line,
                col: d.col,
                message: format!(
                    "allow({}) suppresses nothing — remove it or fix the annotation target",
                    d.rule
                ),
            });
        }
    }
    findings.extend(meta_findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Lint one file's source with the token rules. `rel` chooses the scope
/// class and per-file policy; pass workspace-relative paths
/// (`crates/core/src/maxmin.rs`). The structural pass needs the whole
/// workspace and runs only in [`lint_workspace`].
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let Some(info) = classify(rel, cfg) else {
        return Vec::new();
    };
    let lexed = lex(src);
    let findings = raw_token_findings(&info, src, &lexed, cfg);
    apply_directives(rel, src, &lexed, findings, false)
}

/// A whole-run report.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings across all scanned files, in path order.
    pub findings: Vec<Finding>,
    /// Number of files actually linted (in-scope `.rs` files).
    pub files_scanned: usize,
    /// Whether the structural pass ran (whole-workspace runs only).
    pub structural: bool,
}

/// One in-scope source file loaded for a workspace run.
#[derive(Debug)]
pub struct LoadedFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The raw source text.
    pub src: String,
    /// The classification [`classify`] produced.
    pub info: FileInfo,
}

/// Recursively collect `.rs` files under `path`, sorted for deterministic
/// output. Skips `target/`, `.git/`, `vendor/`, and the fixture corpus.
fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(path)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if matches!(name, "target" | ".git" | "vendor" | "fixtures") {
                continue;
            }
            collect_rs_files(&entry, out)?;
        } else if name.ends_with(".rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Lint every in-scope `.rs` file under `paths` with the token rules
/// (workspace `root` anchors the relative paths used for classification
/// and reporting). For the full contract — token rules *plus* the
/// structural pass — use [`lint_workspace`].
pub fn lint_paths(root: &Path, paths: &[PathBuf], cfg: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    for p in paths {
        collect_rs_files(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut report = Report::default();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel, cfg).is_none() {
            continue;
        }
        let src = fs::read_to_string(file)?;
        report.files_scanned += 1;
        report.findings.extend(lint_source(&rel, &src, cfg));
    }
    Ok(report)
}

/// Load every in-scope `.rs` file of the workspace rooted at `root`, in
/// sorted path order. A library file that a `#[cfg(test)] mod name;`
/// declaration pulls in (`name.rs` or `name/mod.rs` in the declaring
/// module's directory), or that such a file declares in turn, is held to
/// harness scope like an inline `#[cfg(test)] mod name { … }`.
pub fn load_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<LoadedFile>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    files.dedup();
    let mut loaded = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(info) = classify(&rel, cfg) else {
            continue;
        };
        loaded.push(LoadedFile {
            rel,
            src: fs::read_to_string(file)?,
            info,
        });
    }
    mark_test_modules(&mut loaded);
    Ok(loaded)
}

/// The modules `src` declares out of line at its top level
/// (`mod name;`), each with whether a `#[cfg(test)]` gates it.
fn module_decls(src: &str) -> Vec<(&str, bool)> {
    let tokens = lex(src).tokens;
    let in_test = test_regions(&tokens, src);
    let mut depth = 0usize;
    let mut decls = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct(src, '{') {
            depth += 1;
        } else if t.is_punct(src, '}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0
            && t.kind == TokenKind::Ident
            && t.text(src) == "mod"
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(src, ';'))
        {
            decls.push((tokens[i + 1].text(src), in_test[i]));
        }
    }
    decls
}

/// Reclassify the library files that only test builds compile (see
/// [`load_workspace`]) as harness code, to a fixpoint over nested
/// declarations.
fn mark_test_modules(files: &mut [LoadedFile]) {
    // `(declaring file, child candidate, gated)` per top-level `mod x;`.
    let mut edges = Vec::new();
    for (f, file) in files.iter().enumerate() {
        let (dir, name) = file.rel.rsplit_once('/').unwrap_or(("", &file.rel));
        let module_dir = match name {
            "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
            _ => format!("{dir}/{}", name.trim_end_matches(".rs")),
        };
        for (decl, gated) in module_decls(&file.src) {
            for child in [
                format!("{module_dir}/{decl}.rs"),
                format!("{module_dir}/{decl}/mod.rs"),
            ] {
                if let Some(c) = files.iter().position(|g| g.rel == child) {
                    edges.push((f, c, gated));
                }
            }
        }
    }
    let mut test_only = vec![false; files.len()];
    let mut grew = true;
    while grew {
        grew = false;
        for &(parent, child, gated) in &edges {
            if (gated || test_only[parent]) && !test_only[child] {
                test_only[child] = true;
                grew = true;
            }
        }
    }
    for (file, _) in files.iter_mut().zip(test_only).filter(|(_, t)| *t) {
        if file.info.class == FileClass::Library {
            file.info.class = FileClass::Harness;
        }
    }
}

/// Lint the whole workspace: token rules over every in-scope file, plus
/// the item-level structural pass ([`structure::analyze`]). Directive
/// resolution sees the union, so one `allow(unused-pub, …)` both
/// suppresses its structural finding and is validated as used.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let loaded = load_workspace(root, cfg)?;
    // Raw findings grouped per file; structural findings may also land on
    // non-Rust paths (Cargo.toml, snapshot files), which carry no
    // directives and pass through unfiltered.
    let mut per_file: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    let mut passthrough: Vec<Finding> = Vec::new();
    let mut lexed_by_rel: BTreeMap<&str, Lexed> = BTreeMap::new();
    for f in &loaded {
        let lexed = lex(&f.src);
        let raw = raw_token_findings(&f.info, &f.src, &lexed, cfg);
        per_file.insert(f.rel.as_str(), raw);
        lexed_by_rel.insert(f.rel.as_str(), lexed);
    }
    for finding in structure::analyze(root, &loaded, cfg) {
        match per_file.get_mut(finding.path.as_str()) {
            Some(list) => list.push(finding),
            None => passthrough.push(finding),
        }
    }
    let mut report = Report {
        findings: passthrough,
        files_scanned: loaded.len(),
        structural: true,
    };
    for f in &loaded {
        let raw = per_file.remove(f.rel.as_str()).unwrap_or_default();
        let lexed = &lexed_by_rel[f.rel.as_str()];
        report
            .findings
            .extend(apply_directives(&f.rel, &f.src, lexed, raw, true));
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render a report as JSON (hand-rolled; the workspace builds offline,
/// so no serde).
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"files_scanned\":{},\"structural\":{},\"finding_count\":{},\"findings\":[",
        report.files_scanned,
        report.structural,
        report.findings.len()
    );
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":\"");
        json_escape(f.rule, &mut out);
        out.push_str("\",\"path\":\"");
        json_escape(&f.path, &mut out);
        let _ = write!(
            out,
            "\",\"line\":{},\"col\":{},\"message\":\"",
            f.line, f.col
        );
        json_escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// Render a report for humans, grouped by file, `rustc`-style.
pub fn to_human(report: &Report) -> String {
    let mut out = String::new();
    let mut by_file: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in &report.findings {
        by_file.entry(&f.path).or_default().push(f);
    }
    for (path, findings) in &by_file {
        for f in findings {
            let _ = writeln!(
                out,
                "error[{}]: {}\n  --> {}:{}:{}",
                f.rule, f.message, path, f.line, f.col
            );
        }
    }
    let _ = writeln!(
        out,
        "mlf-lint: {} finding(s) in {} file(s), {} file(s) scanned",
        report.findings.len(),
        by_file.len(),
        report.files_scanned
    );
    out
}
