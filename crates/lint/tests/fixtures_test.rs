//! The fixture corpus: every rule has a bad snippet that fires and a good
//! snippet that stays clean, plus false-positive traps (trigger text inside
//! strings, raw strings, and nested block comments) and directive-validation
//! cases. The final test lints the workspace itself and requires zero
//! findings — the linter's own contract with this repository.

use mlf_lint::{lint_source, meta, Config, Finding};
use std::path::Path;

/// Classifies as library code of a deterministic, map-order-sensitive crate.
const LIB: &str = "crates/core/src/fixture.rs";
/// Classifies as a solver hot-path file (as-float-cast applies).
const HOT: &str = "crates/sim/src/engine.rs";
/// A path where `unsafe` is allowlisted.
const UNSAFE_OK: &str = "crates/bench/benches/workspace_reuse.rs";

fn lint_fixture(file: &str, rel: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    lint_source(rel, &src, &Config::workspace())
}

fn rule_count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

/// `(rule, bad fixture, rel path to lint under, expected firings)`.
const BAD_CASES: &[(&str, &str, &str, usize)] = &[
    ("map-iteration", "map_iteration_bad.rs", LIB, 2),
    ("float-sort", "float_sort_bad.rs", LIB, 2),
    ("ambient-entropy", "ambient_entropy_bad.rs", LIB, 3),
    ("panic-unwrap", "panic_unwrap_bad.rs", LIB, 3),
    ("unsafe-code", "unsafe_code_bad.rs", LIB, 1),
    ("as-float-cast", "as_float_cast_bad.rs", HOT, 3),
    (
        "ignore-without-reason",
        "ignore_without_reason_bad.rs",
        LIB,
        1,
    ),
    ("print-debug", "print_debug_bad.rs", LIB, 3),
];

/// `(good fixture, rel path to lint under)` — all must be completely clean.
const GOOD_CASES: &[(&str, &str)] = &[
    ("map_iteration_good.rs", LIB),
    ("float_sort_good.rs", LIB),
    ("ambient_entropy_good.rs", LIB),
    ("panic_unwrap_good.rs", LIB),
    ("unsafe_code_good.rs", LIB),
    ("as_float_cast_good.rs", HOT),
    ("ignore_without_reason_good.rs", LIB),
    ("print_debug_good.rs", LIB),
    ("false_positives.rs", LIB),
    ("directives_allow.rs", LIB),
];

#[test]
fn bad_fixtures_fire_their_rule() {
    for &(rule, file, rel, expected) in BAD_CASES {
        let findings = lint_fixture(file, rel);
        assert_eq!(
            rule_count(&findings, rule),
            expected,
            "{file}: expected {expected} `{rule}` findings, got {findings:#?}"
        );
    }
}

#[test]
fn bad_fixture_findings_carry_spans() {
    for &(rule, file, rel, _) in BAD_CASES {
        for f in lint_fixture(file, rel) {
            if f.rule == rule {
                assert!(f.line >= 1 && f.col >= 1, "{file}: zero span in {f:?}");
                assert_eq!(f.path, rel, "{file}: finding path mismatch");
            }
        }
    }
}

#[test]
fn good_fixtures_are_clean() {
    for &(file, rel) in GOOD_CASES {
        let findings = lint_fixture(file, rel);
        assert!(findings.is_empty(), "{file}: unexpected {findings:#?}");
    }
}

#[test]
fn unsafe_is_legal_on_the_allowlisted_path() {
    let findings = lint_fixture("unsafe_code_bad.rs", UNSAFE_OK);
    assert_eq!(
        rule_count(&findings, "unsafe-code"),
        0,
        "allowlisted path still fired: {findings:#?}"
    );
}

#[test]
fn harness_scope_relaxes_hygiene_rules() {
    // The same panicking source is a finding in library code but legal in a
    // test file of the same crate.
    let findings = lint_fixture("panic_unwrap_bad.rs", "crates/core/tests/fixture.rs");
    assert_eq!(rule_count(&findings, "panic-unwrap"), 0);
    // float-sort applies to harness code too: NaN panics flake tests.
    let findings = lint_fixture("float_sort_bad.rs", "crates/core/tests/fixture.rs");
    assert_eq!(rule_count(&findings, "float-sort"), 2);
}

#[test]
fn invalid_directives_are_findings() {
    let findings = lint_fixture("directives_bad.rs", LIB);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        [meta::BAD_ALLOW, meta::BAD_ALLOW, meta::UNUSED_ALLOW],
        "unexpected {findings:#?}"
    );
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = Config::workspace();
    let report = mlf_lint::lint_workspace(&root, &cfg).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        mlf_lint::to_human(&report)
    );
    // The whole-workspace entry point must have run the structural pass
    // (frozen fingerprints, layering, API snapshots) — not just the token
    // rules.
    assert!(report.structural, "structural pass did not run");
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
}

/// A file pulled in by an out-of-line `#[cfg(test)] mod gated;` is held to
/// harness scope on a workspace run, as an inline `#[cfg(test)]` module is;
/// the same source declared as a plain `mod plain;` stays library code.
#[test]
fn out_of_line_test_modules_are_harness_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/test_module");
    let report = mlf_lint::lint_workspace(&root, &Config::workspace()).expect("fixture scan");
    let unwraps = |file: &str| {
        report
            .findings
            .iter()
            .filter(|f| f.rule == "panic-unwrap" && f.path == format!("crates/core/src/{file}"))
            .count()
    };
    assert_eq!(unwraps("gated.rs"), 0, "{}", mlf_lint::to_human(&report));
    assert_eq!(unwraps("plain.rs"), 1, "{}", mlf_lint::to_human(&report));
}
