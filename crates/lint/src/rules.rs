//! The rule registry: the determinism and hygiene invariants the
//! workspace actually relies on, as token-pattern checks.
//!
//! Every rule documents *which contract it guards*. Rules are scoped by
//! [`FileClass`] and crate lists from the [`Config`](crate::Config): the
//! determinism rules bind library code of the deterministic crates;
//! harness and tooling code is exempt where the hazard doesn't apply.

use crate::lexer::TokenKind;
use crate::{FileClass, FileCtx, Finding};

/// One registered rule.
pub struct Rule {
    /// Stable rule name (used in diagnostics and allow directives).
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
    /// The token-pattern check.
    pub check: fn(&FileCtx<'_>, &mut Vec<Finding>),
}

/// The full registry, in diagnostic-priority order.
pub const ALL: &[Rule] = &[
    Rule {
        name: "map-iteration",
        summary: "no iteration-order dependence on HashMap/HashSet in deterministic library code",
        check: map_iteration,
    },
    Rule {
        name: "float-sort",
        summary: "float comparators must use total_cmp, never partial_cmp",
        check: float_sort,
    },
    Rule {
        name: "ambient-entropy",
        summary: "no wall clocks, env vars, thread ids, or RandomState in deterministic paths",
        check: ambient_entropy,
    },
    Rule {
        name: "panic-unwrap",
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in library code",
        check: panic_unwrap,
    },
    Rule {
        name: "unsafe-code",
        summary: "no `unsafe` outside the explicit allowlist",
        check: unsafe_code,
    },
    Rule {
        name: "as-float-cast",
        summary: "no `as` float<->int casts in solver/engine hot paths",
        check: as_float_cast,
    },
    Rule {
        name: "ignore-without-reason",
        summary: "#[ignore] needs a reason string",
        check: ignore_without_reason,
    },
    Rule {
        name: "print-debug",
        summary: "no dbg!/println! in library code",
        check: print_debug,
    },
];

fn emit(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>, rule: &'static str, i: usize, msg: String) {
    let t = &ctx.tokens[i];
    findings.push(Finding {
        rule,
        path: ctx.info.rel.clone(),
        line: t.line,
        col: t.col,
        message: msg,
    });
}

/// Methods whose result order reflects a map's internal (seed-dependent)
/// bucket order. Construction, `get`, `contains_key`, `remove`, `insert`,
/// `len`, `clear` are order-independent and allowed.
const ORDER_DEPENDENT_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// **map-iteration** — `HashMap`/`HashSet` iteration order varies across
/// `RandomState` seeds (and std versions), so any path that folds, emits,
/// or evicts in iteration order breaks bitwise reproducibility. The
/// check tracks identifiers bound or typed as unordered maps in the file
/// (`let m = HashMap::new()`, `field: HashSet<…>`) and flags
/// order-dependent method calls and `for … in` loops over them.
fn map_iteration(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.info.class != FileClass::Library || !ctx.crate_in(&ctx.cfg.map_iter_crates) {
        return;
    }
    // Pass 1: collect names bound or typed as HashMap/HashSet.
    let mut map_names: Vec<&str> = Vec::new();
    for i in 0..ctx.tokens.len() {
        if !(ctx.is_ident(i, "HashMap") || ctx.is_ident(i, "HashSet")) {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 2 && ctx.is_path_sep(j - 2) {
            j -= 2;
            if j >= 1 && ctx.tokens[j - 1].kind == TokenKind::Ident {
                j -= 1;
            }
        }
        if j == 0 {
            continue;
        }
        let name = if ctx.is_punct(j - 1, ':') && !(j >= 2 && ctx.is_punct(j - 2, ':')) {
            // Type ascription `name: HashMap<…>` (field or let).
            (j >= 2 && ctx.tokens[j - 2].kind == TokenKind::Ident).then(|| ctx.text(j - 2))
        } else if ctx.is_punct(j - 1, '=') {
            // Binding `let name = HashMap::new()` / `name = HashMap::…`.
            (j >= 2 && ctx.tokens[j - 2].kind == TokenKind::Ident).then(|| ctx.text(j - 2))
        } else {
            None
        };
        if let Some(n) = name {
            if n != "mut" && !map_names.contains(&n) {
                map_names.push(n);
            }
        }
    }
    if map_names.is_empty() {
        return;
    }
    // Pass 2: flag order-dependent uses of those names.
    for i in 0..ctx.tokens.len() {
        if !ctx.is_library_code(i) {
            continue;
        }
        // `name.method(` with an order-dependent method.
        if ctx.is_punct(i, '.')
            && i >= 1
            && ctx.tokens[i - 1].kind == TokenKind::Ident
            && map_names.contains(&ctx.text(i - 1))
        {
            if let Some(m) = ORDER_DEPENDENT_METHODS
                .iter()
                .find(|m| ctx.is_ident(i + 1, m))
            {
                if ctx.is_punct(i + 2, '(') {
                    emit(
                        ctx,
                        findings,
                        "map-iteration",
                        i + 1,
                        format!(
                            "`.{m}()` on unordered map/set `{}` — iteration order is \
                             nondeterministic; walk an explicit order (sorted keys, \
                             insertion queue) instead",
                            ctx.text(i - 1)
                        ),
                    );
                }
            }
        }
        // `for x in [&[mut]] …name {`.
        if ctx.is_ident(i, "for") {
            // Find the `in` within a short window, not crossing a brace.
            let mut j = i + 1;
            let mut found_in = None;
            while j < ctx.tokens.len() && j < i + 12 {
                if ctx.is_punct(j, '{') || ctx.is_punct(j, ';') {
                    break;
                }
                if ctx.is_ident(j, "in") {
                    found_in = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_idx) = found_in else { continue };
            // The iterated expression: last identifier of the chain before
            // the loop body's `{` (stopping at calls — those are handled by
            // the method check above).
            let mut k = in_idx + 1;
            let mut last_ident: Option<usize> = None;
            while k < ctx.tokens.len() {
                if ctx.is_punct(k, '{') {
                    break;
                }
                if ctx.is_punct(k, '(') || ctx.is_punct(k, '[') {
                    last_ident = None;
                    break;
                }
                if ctx.tokens[k].kind == TokenKind::Ident
                    && !ctx.is_ident(k, "mut")
                    && !ctx.is_ident(k, "ref")
                {
                    last_ident = Some(k);
                }
                k += 1;
            }
            if let Some(l) = last_ident {
                if map_names.contains(&ctx.text(l)) {
                    emit(
                        ctx,
                        findings,
                        "map-iteration",
                        l,
                        format!(
                            "`for … in` over unordered map/set `{}` — iteration order is \
                             nondeterministic; walk an explicit order instead",
                            ctx.text(l)
                        ),
                    );
                }
            }
        }
    }
}

const COMPARATOR_SINKS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// **float-sort** — a `partial_cmp`-based comparator either panics on NaN
/// (`.unwrap()`) or silently reports `Equal`/`Less` for incomparable
/// pairs, making the sort order input-dependent in exactly the cases that
/// matter. `f64::total_cmp` is total, NaN-safe, and bit-stable. Applies
/// everywhere (tests sort expectation vectors too — a panic or unstable
/// order there flakes the differentials).
fn float_sort(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        let Some(sink) = COMPARATOR_SINKS.iter().find(|m| ctx.is_ident(i, m)) else {
            continue;
        };
        if !ctx.is_punct(i + 1, '(') {
            continue;
        }
        // Scan the argument list for a `partial_cmp` identifier.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < ctx.tokens.len() {
            if ctx.is_punct(j, '(') {
                depth += 1;
            } else if ctx.is_punct(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if ctx.is_ident(j, "partial_cmp") {
                emit(
                    ctx,
                    findings,
                    "float-sort",
                    j,
                    format!(
                        "`{sink}` comparator uses `partial_cmp` — panics or degrades on NaN; \
                         use `f64::total_cmp`/`f32::total_cmp`"
                    ),
                );
                break;
            }
            j += 1;
        }
    }
}

/// **ambient-entropy** — wall clocks, environment variables, thread
/// identity, and `RandomState` smuggle per-run entropy into results.
/// Deterministic library code takes seeds and configuration as explicit
/// inputs; only harness/tooling code may read the ambient world.
///
/// The one sanctioned allow-pattern: **timeout clocks for scheduling**.
/// Fault-tolerant runtimes (the sweep coordinator) may read the
/// monotonic clock to decide *when* to retry, reassign, or give up
/// waiting — provided the clock can never influence *what* is produced.
/// The allow's reason must state that boundary; the differential that
/// enforces it is the coordinator's fault-injection suite, which pins
/// the merged bytes to the fault-free serial sweep under every timeout
/// schedule. A clock that selects, orders, truncates, or transforms
/// result data is a real finding — never allow it.
fn ambient_entropy(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.info.class != FileClass::Library || !ctx.crate_in(&ctx.cfg.deterministic_crates) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.is_library_code(i) {
            continue;
        }
        for name in ["Instant", "SystemTime", "RandomState"] {
            if ctx.is_ident(i, name) {
                emit(
                    ctx,
                    findings,
                    "ambient-entropy",
                    i,
                    format!(
                        "`{name}` in deterministic library code — wall clocks and seeded-by-\
                         default hashers break bitwise reproducibility; take explicit \
                         seeds/times as inputs"
                    ),
                );
            }
        }
        // `env::var…` / `env::args…` and `thread::current`.
        if ctx.is_ident(i, "env") && ctx.is_path_sep(i + 1) {
            for f in ["var", "vars", "var_os", "vars_os", "args", "args_os"] {
                if ctx.is_ident(i + 3, f) {
                    emit(
                        ctx,
                        findings,
                        "ambient-entropy",
                        i,
                        format!(
                            "`env::{f}` in deterministic library code — ambient configuration \
                             must arrive through explicit parameters"
                        ),
                    );
                }
            }
        }
        if ctx.is_ident(i, "thread") && ctx.is_path_sep(i + 1) && ctx.is_ident(i + 3, "current") {
            emit(
                ctx,
                findings,
                "ambient-entropy",
                i,
                "`thread::current` in deterministic library code — thread identity varies \
                 per run; shard by explicit worker index"
                    .to_string(),
            );
        }
    }
}

/// **panic-unwrap** — library code panicking tears down a whole sweep (and
/// a worker panic aborts a parallel run mid-merge). Library paths return
/// typed errors; `.unwrap()`/`.expect()` are confined to tests, examples,
/// and explicitly-allowed invariant sites. `assert!`/`debug_assert!`
/// stay allowed: they *document* invariants rather than papering over
/// fallible APIs.
fn panic_unwrap(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.info.class != FileClass::Library || !ctx.crate_in(&ctx.cfg.deterministic_crates) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.is_library_code(i) {
            continue;
        }
        if ctx.is_punct(i, '.')
            && (ctx.is_ident(i + 1, "unwrap") || ctx.is_ident(i + 1, "expect"))
            && ctx.is_punct(i + 2, '(')
        {
            emit(
                ctx,
                findings,
                "panic-unwrap",
                i + 1,
                format!(
                    "`.{}()` in library code — return a typed error, rewrite infallibly, or \
                     add `// mlf-lint: allow(panic-unwrap, reason = …)` naming the invariant",
                    ctx.text(i + 1)
                ),
            );
        }
        for mac in ["panic", "todo", "unimplemented"] {
            if ctx.is_ident(i, mac) && ctx.is_punct(i + 1, '!') {
                emit(
                    ctx,
                    findings,
                    "panic-unwrap",
                    i,
                    format!("`{mac}!` in library code — return a typed error instead"),
                );
            }
        }
    }
}

/// **unsafe-code** — the workspace is `forbid(unsafe_code)` by policy;
/// the exceptions (the counting allocators of the alloc bench and of the
/// allocation ratchet test) are allowlisted by path in the
/// [`Config`](crate::Config).
fn unsafe_code(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx
        .cfg
        .unsafe_allow_files
        .iter()
        .any(|f| f == &ctx.info.rel)
    {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.is_ident(i, "unsafe") {
            emit(
                ctx,
                findings,
                "unsafe-code",
                i,
                "`unsafe` outside the allowlist — this workspace proves its performance \
                 with safe code; extend Config::unsafe_allow_files only with review"
                    .to_string(),
            );
        }
    }
}

const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// **as-float-cast** — in solver/engine hot paths, `as` conversions
/// between ints and floats silently lose precision (`usize as f64` is
/// inexact past 2^53; float→int truncates and saturates). Hot-path
/// arithmetic feeds bitwise-compared results, so conversions must be
/// provably lossless (`f64::from`, `try_from`) or carry an allow naming
/// the bound that makes them exact.
fn as_float_cast(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !ctx.cfg.hot_path_files.iter().any(|f| f == &ctx.info.rel) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.is_library_code(i) || !ctx.is_ident(i, "as") {
            continue;
        }
        if ctx.is_ident(i + 1, "f64") || ctx.is_ident(i + 1, "f32") {
            emit(
                ctx,
                findings,
                "as-float-cast",
                i,
                format!(
                    "`as {}` in a hot path — inexact for wide integers; use `f64::from` \
                     (lossless widths) or an allow naming the range bound",
                    ctx.text(i + 1)
                ),
            );
        }
        if i >= 1
            && ctx.tokens[i - 1].kind == TokenKind::Float
            && INT_TYPES.iter().any(|t| ctx.is_ident(i + 1, t))
        {
            emit(
                ctx,
                findings,
                "as-float-cast",
                i,
                format!(
                    "float literal cast `as {}` truncates — compute in the integer domain \
                     or use `try_from`",
                    ctx.text(i + 1)
                ),
            );
        }
    }
}

/// **ignore-without-reason** — `#[ignore]` with no reason string rots: six
/// months later nobody knows whether the test is slow, flaky, or broken.
/// `#[ignore = "why"]` keeps the cost visible.
fn ignore_without_reason(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        if ctx.is_punct(i, '#') && ctx.is_punct(i + 1, '[') && ctx.is_ident(i + 2, "ignore") {
            let has_reason = ctx.is_punct(i + 3, '=')
                && ctx
                    .tokens
                    .get(i + 4)
                    .is_some_and(|t| t.kind == TokenKind::Literal);
            if !has_reason {
                emit(
                    ctx,
                    findings,
                    "ignore-without-reason",
                    i + 2,
                    "`#[ignore]` without a reason — write `#[ignore = \"why\"]`".to_string(),
                );
            }
        }
    }
}

/// **print-debug** — library code writing to stdout corrupts `--json`
/// consumers and benches; `dbg!` is leftover scaffolding by definition.
/// CLI binaries, examples, and tests print freely.
fn print_debug(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.info.class != FileClass::Library || !ctx.crate_in(&ctx.cfg.deterministic_crates) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.is_library_code(i) {
            continue;
        }
        for mac in ["println", "print", "eprintln", "eprint", "dbg"] {
            if ctx.is_ident(i, mac) && ctx.is_punct(i + 1, '!') {
                emit(
                    ctx,
                    findings,
                    "print-debug",
                    i,
                    format!(
                        "`{mac}!` in library code — return data and let the caller render it \
                         (CLI bins and examples are exempt)"
                    ),
                );
            }
        }
    }
}
