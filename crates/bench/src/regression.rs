//! Bench-regression records: the `BENCH_<name>.json` artifacts the sweep
//! benches emit and the CI gate compares against committed baselines.
//!
//! The workspace builds without network access, so there is no serde; the
//! record format is a small fixed-shape JSON object written and parsed by
//! hand:
//!
//! ```json
//! {
//!   "bench": "protocol_sweep",
//!   "points": 36,
//!   "elapsed_seconds": 1.234567,
//!   "points_per_second": 29.17
//! }
//! ```
//!
//! `points_per_second` is the gated metric: the serial sweep's throughput
//! in points per second, which tracks per-point solve cost without the
//! scheduling noise of the parallel path. [`check_regression`] fails when
//! the current throughput falls more than the allowed fraction below the
//! baseline (CI uses 0.30 — a >30% regression fails the job); faster runs
//! never fail, so baselines only need re-seeding when the hot path
//! genuinely changes.

use std::io::Write;
use std::path::{Path, PathBuf};

/// One bench run's gated measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which bench produced the record (`protocol_sweep`,
    /// `parallel_sweep`).
    pub bench: String,
    /// Sweep points the measured run produced.
    pub points: u64,
    /// Wall-clock seconds of the measured (serial) run, best-of-N.
    pub elapsed_seconds: f64,
    /// The gated metric: `points / elapsed_seconds`.
    pub points_per_second: f64,
}

/// Why an artifact could not be produced, read, or gated. Every artifact
/// IO failure is a value on this type — the binaries funnel it through
/// the CLI exit-2 contract ([`crate::or_exit`]) instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The filesystem refused an artifact operation.
    Io {
        /// The artifact path involved.
        path: PathBuf,
        /// What was being attempted (`"create"`, `"write"`, `"read"`).
        op: &'static str,
        /// The OS error rendered as text (io::Error does not implement
        /// `Clone`/`Eq`).
        message: String,
    },
    /// A record file or field did not parse.
    Malformed(String),
    /// A bench name outside `[A-Za-z0-9_-]` (it names the artifact file).
    BadName(String),
    /// Gate inputs describe different benches or workloads.
    Mismatch(String),
}

impl RecordError {
    fn io(path: &Path, op: &'static str, e: std::io::Error) -> Self {
        RecordError::Io {
            path: path.to_path_buf(),
            op,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Io { path, op, message } => {
                write!(f, "cannot {op} {}: {message}", path.display())
            }
            RecordError::Malformed(detail)
            | RecordError::BadName(detail)
            | RecordError::Mismatch(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for RecordError {}

impl BenchRecord {
    /// Build a record from a measured run.
    pub fn new(bench: impl Into<String>, points: u64, elapsed_seconds: f64) -> Self {
        let bench = bench.into();
        BenchRecord {
            bench,
            points,
            elapsed_seconds,
            points_per_second: points as f64 / elapsed_seconds.max(1e-12),
        }
    }

    /// Render the canonical JSON form. The bench name must be a plain
    /// identifier (`[A-Za-z0-9_-]`) — it is embedded unescaped and names
    /// the artifact file — anything else is a [`RecordError::BadName`].
    pub fn to_json(&self) -> Result<String, RecordError> {
        if !self
            .bench
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            || self.bench.is_empty()
        {
            return Err(RecordError::BadName(format!(
                "bench names are [A-Za-z0-9_-]: {:?}",
                self.bench
            )));
        }
        Ok(format!(
            "{{\n  \"bench\": \"{}\",\n  \"points\": {},\n  \"elapsed_seconds\": {:.6},\n  \
             \"points_per_second\": {:.3}\n}}\n",
            self.bench, self.points, self.elapsed_seconds, self.points_per_second
        ))
    }

    /// Parse a record from its JSON form (accepts any field order and
    /// whitespace; unknown fields are ignored).
    pub fn parse(json: &str) -> Result<Self, RecordError> {
        let bench = string_field(json, "bench")?;
        let points = number_field(json, "points")? as u64;
        let elapsed_seconds = number_field(json, "elapsed_seconds")?;
        let points_per_second = number_field(json, "points_per_second")?;
        Ok(BenchRecord {
            bench,
            points,
            elapsed_seconds,
            points_per_second,
        })
    }

    /// Write the record as `BENCH_<bench>.json` under `dir`, returning the
    /// path.
    pub fn write(&self, dir: impl AsRef<Path>) -> Result<PathBuf, RecordError> {
        let json = self.to_json()?;
        let path = dir.as_ref().join(format!("BENCH_{}.json", self.bench));
        let mut f =
            std::fs::File::create(&path).map_err(|e| RecordError::io(&path, "create", e))?;
        f.write_all(json.as_bytes())
            .map_err(|e| RecordError::io(&path, "write", e))?;
        Ok(path)
    }

    /// Read and parse a record file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, RecordError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| RecordError::io(path, "read", e))?;
        Self::parse(&text)
    }
}

fn field_start<'a>(json: &'a str, key: &str) -> Result<&'a str, RecordError> {
    let needle = format!("\"{key}\"");
    let at = json
        .find(&needle)
        .ok_or_else(|| RecordError::Malformed(format!("missing field {key:?}")))?;
    let rest = &json[at + needle.len()..];
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| RecordError::Malformed(format!("field {key:?} has no ':'")))?;
    Ok(rest.trim_start())
}

fn string_field(json: &str, key: &str) -> Result<String, RecordError> {
    let rest = field_start(json, key)?;
    let rest = rest
        .strip_prefix('"')
        .ok_or_else(|| RecordError::Malformed(format!("field {key:?} is not a string")))?;
    let end = rest
        .find('"')
        .ok_or_else(|| RecordError::Malformed(format!("field {key:?} is unterminated")))?;
    Ok(rest[..end].to_string())
}

fn number_field(json: &str, key: &str) -> Result<f64, RecordError> {
    let rest = field_start(json, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    let token = &rest[..end];
    let value: f64 = token.parse().map_err(|_| {
        RecordError::Malformed(format!("field {key:?} is not a number (got {token:?})"))
    })?;
    if !value.is_finite() {
        return Err(RecordError::Malformed(format!(
            "field {key:?} is not finite"
        )));
    }
    Ok(value)
}

/// The gate verdict for one bench.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Throughput is within the allowed band (or better). Carries
    /// `current / baseline`.
    Pass(f64),
    /// Throughput regressed more than the allowed fraction. Carries
    /// `current / baseline`.
    Regressed(f64),
}

/// Compare a current record against a baseline: fail when
/// `points_per_second` drops by more than `max_regression` (e.g. `0.30`
/// fails anything below 70% of the baseline throughput).
///
/// The two records must describe the same bench and the same point count —
/// a silently shrunken workload would otherwise game the throughput gate.
pub fn check_regression(
    baseline: &BenchRecord,
    current: &BenchRecord,
    max_regression: f64,
) -> Result<GateOutcome, RecordError> {
    if baseline.bench != current.bench {
        return Err(RecordError::Mismatch(format!(
            "bench mismatch: baseline {:?} vs current {:?}",
            baseline.bench, current.bench
        )));
    }
    if baseline.points != current.points {
        return Err(RecordError::Mismatch(format!(
            "workload mismatch for {:?}: baseline ran {} points, current ran {} \
             (re-seed the baseline when the bench grid changes)",
            baseline.bench, baseline.points, current.points
        )));
    }
    // partial_cmp keeps NaN (a hand-built record; parse rejects it) on the
    // error path alongside zero and negatives.
    if baseline.points_per_second.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(RecordError::Mismatch(format!(
            "baseline for {:?} has non-positive points_per_second",
            baseline.bench
        )));
    }
    let ratio = current.points_per_second / baseline.points_per_second;
    if ratio < 1.0 - max_regression {
        Ok(GateOutcome::Regressed(ratio))
    } else {
        Ok(GateOutcome::Pass(ratio))
    }
}

/// Where bench artifacts go: `$MLF_BENCH_ARTIFACT_DIR` if set, else the
/// current directory (cargo runs bench binaries with the package root as
/// cwd, so artifacts land in `crates/bench/` by default).
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("MLF_BENCH_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Whether the benches should run in CI check mode (`MLF_BENCH_CHECK=1`):
/// determinism asserts + one timed measurement + artifact, skipping the
/// slower sampling loops.
pub fn check_mode() -> bool {
    std::env::var_os("MLF_BENCH_CHECK").is_some_and(|v| v == "1")
}

/// Time `f` best-of-three (the minimum keeps the report stable without a
/// stats stack).
pub fn time_best_of_three(f: impl Fn() -> usize) -> std::time::Duration {
    let mut best = std::time::Duration::MAX;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// The gated-bench measurement every gated bench shares: time `run`
/// best-of-three, write the `BENCH_<bench>.json` artifact into
/// [`artifact_dir`], print the throughput line, and return the elapsed
/// time for the speedup report.
///
/// `unit` names what `points` counts (`"points"`, `"slots"`) and `mode`
/// how `run` executes (`"serial"`, `"coordinated threads"`, …); both only
/// label the printed line, the artifact records plain points per second.
///
/// An unwritable artifact is a [`RecordError`], not a warning: CI gates on
/// the file existing, so the benches funnel this through [`crate::or_exit`]
/// and fail with exit status 2 rather than silently passing.
pub fn measure_and_emit(
    bench: &str,
    points: u64,
    unit: &str,
    mode: &str,
    run: impl Fn() -> usize,
) -> Result<std::time::Duration, RecordError> {
    let elapsed = time_best_of_three(run);
    let record = BenchRecord::new(bench, points, elapsed.as_secs_f64());
    let path = record.write(artifact_dir())?;
    println!(
        "throughput: {:.3} {unit}/s {mode} ({points} {unit} in {elapsed:?}) -> {}",
        record.points_per_second,
        path.display()
    );
    Ok(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord::new("protocol_sweep", 36, 1.25)
    }

    #[test]
    fn json_roundtrips() {
        let r = record();
        assert!((r.points_per_second - 28.8).abs() < 1e-9);
        let parsed = BenchRecord::parse(&r.to_json().unwrap()).unwrap();
        assert_eq!(parsed.bench, "protocol_sweep");
        assert_eq!(parsed.points, 36);
        assert!((parsed.elapsed_seconds - 1.25).abs() < 1e-6);
        assert!((parsed.points_per_second - 28.8).abs() < 1e-3);
    }

    #[test]
    fn parse_accepts_field_reordering_and_ignores_unknowns() {
        let parsed = BenchRecord::parse(
            r#"{"points_per_second": 10.5, "commit": "abc", "points": 7,
                "bench": "parallel_sweep", "elapsed_seconds": 0.666}"#,
        )
        .unwrap();
        assert_eq!(parsed.bench, "parallel_sweep");
        assert_eq!(parsed.points, 7);
        assert!((parsed.points_per_second - 10.5).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_malformed_records() {
        let missing = BenchRecord::parse(r#"{"bench": "x", "points": 3}"#).unwrap_err();
        assert!(missing.to_string().contains("elapsed_seconds"), "{missing}");
        let not_num = BenchRecord::parse(
            r#"{"bench":"x","points":"three","elapsed_seconds":1,"points_per_second":1}"#,
        )
        .unwrap_err();
        assert!(not_num.to_string().contains("points"), "{not_num}");
        let unterminated = BenchRecord::parse(r#"{"bench": "x"#).unwrap_err();
        assert!(
            unterminated.to_string().contains("unterminated"),
            "{unterminated}"
        );
    }

    #[test]
    fn gate_passes_within_band_and_fails_beyond() {
        let baseline = record();
        // 25% slower: inside the 30% band.
        let slower = BenchRecord::new("protocol_sweep", 36, 1.25 / 0.75);
        assert!(matches!(
            check_regression(&baseline, &slower, 0.30).unwrap(),
            GateOutcome::Pass(r) if (r - 0.75).abs() < 1e-9
        ));
        // 35% slower: regression.
        let much_slower = BenchRecord::new("protocol_sweep", 36, 1.25 / 0.65);
        assert!(matches!(
            check_regression(&baseline, &much_slower, 0.30).unwrap(),
            GateOutcome::Regressed(r) if (r - 0.65).abs() < 1e-9
        ));
        // Faster never fails.
        let faster = BenchRecord::new("protocol_sweep", 36, 0.5);
        assert!(matches!(
            check_regression(&baseline, &faster, 0.30).unwrap(),
            GateOutcome::Pass(_)
        ));
    }

    #[test]
    fn gate_rejects_mismatched_workloads() {
        let baseline = record();
        let other_bench = BenchRecord::new("parallel_sweep", 36, 1.0);
        assert!(check_regression(&baseline, &other_bench, 0.3).is_err());
        let shrunk = BenchRecord::new("protocol_sweep", 6, 0.2);
        let err = check_regression(&baseline, &shrunk, 0.3).unwrap_err();
        assert!(err.to_string().contains("workload mismatch"), "{err}");
    }

    #[test]
    fn write_and_read_through_a_file() {
        let dir = std::env::temp_dir().join("mlf_bench_regression_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = record().write(&dir).unwrap();
        assert!(path.ends_with("BENCH_protocol_sweep.json"));
        let back = BenchRecord::read(&path).unwrap();
        assert_eq!(back.bench, "protocol_sweep");
        std::fs::remove_file(path).unwrap();
    }
}
