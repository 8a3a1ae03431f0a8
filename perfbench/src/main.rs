//! The repository benchmark: four figure-shaped workloads driven through
//! the public APIs of `mlf-net`, `mlf-core`, `mlf-scenario`,
//! `mlf-protocols` and `mlf-sim`, with every output checked against a
//! reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig5_randomjoin|hier_linear_grid|fig5_fleet|fig8_protocols> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload first computes its reference outputs, once and outside
//! every clock. With `--trace 0` the run then alternates set-ups (building
//! the next pass's scenarios and inputs) with timed passes for
//! `--seconds`, and reports the end-to-end metrics as medians, at a
//! nominal host speed (see [`measure::Clock`]). With
//! `--trace 1` it alternates untraced passes with traced ones, in which
//! each layer is timed from outside by calling its public function
//! directly, and reports the per-layer metrics plus a "where the time
//! goes" table. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/WORKLOADS.md` for why each workload exists.

mod measure;
mod packets;
mod sweeps;
mod trace;

use measure::{median, peak_rss_mb, quartiles, reset_peak_rss, Clock, Kernel};
use std::time::Instant;
use trace::{Kind, LayerValues, PER_LAYER};

/// Seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1;
/// Seed reserved for confirming a claimed gain after the change was
/// written (never used while tuning).
const HELD_OUT_SEED: u64 = 1999;
/// Shortest batch of set-ups timed as one sample. One set-up of these
/// workloads takes microseconds, so a sample is the mean over a batch.
const SETUP_BATCH_S: f64 = 0.005;
/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest traced passes a traced run makes (two, so counters can be
/// compared for drift).
const MIN_TRACED_PASSES: usize = 2;

const WORKLOADS: [&str; 4] = [
    "fig5_randomjoin",
    "hier_linear_grid",
    "fig5_fleet",
    "fig8_protocols",
];

const USAGE: &str = "usage: mlf-perfbench --workload <fig5_randomjoin|hier_linear_grid|fig5_fleet|fig8_protocols> [--seed N] [--seconds S] [--trace 0|1]";

/// What one untraced pass produced.
pub struct Pass {
    /// The library calls the pass times.
    pub clock: Clock,
    /// Sweep points completed.
    pub points: u64,
    /// Outputs compared against the reference.
    pub attempted: u64,
    /// Outputs that differed from the reference or whose call failed.
    pub failed: u64,
}

impl Pass {
    pub fn new(kernel: Kernel) -> Self {
        Pass {
            clock: Clock::start(kernel),
            points: 0,
            attempted: 0,
            failed: 0,
        }
    }
}

/// What one traced pass produced.
pub struct TracedPass {
    /// The pass's own timed library calls, measured without tracing.
    pub pass: Pass,
    /// Work units per second of the instrumented execution.
    pub traced_per_s: f64,
    /// Per-layer metric values (names from [`PER_LAYER`]).
    pub values: LayerValues,
    /// Rows of the "where the time goes" table: layer and seconds.
    pub rows: Vec<(&'static str, f64)>,
}

/// One benchmark workload, after set-up.
pub trait Workload {
    /// The work unit `points_per_s` counts, for the printed summary.
    fn unit(&self) -> &'static str {
        "points"
    }
    /// The calibration kernel of the workload's shape.
    fn kernel(&self) -> Kernel {
        Kernel::Solver
    }
    /// Simulated star slots per sweep point, for workloads that simulate.
    fn slots_per_point(&self) -> Option<u64> {
        None
    }
    /// A digest of the reference outputs every pass is checked against.
    fn reference_digest(&self) -> u64;
    /// The program's set-up: build the scenarios and inputs of the next
    /// pass, replacing those of the previous set-up.
    fn set_up(&mut self);
    /// One untraced pass over the inputs of the last set-up, checked
    /// against the reference.
    fn pass(&mut self) -> Pass;
    /// One traced pass over the inputs of the last set-up; `first` is true
    /// for the run's first traced pass.
    fn traced_pass(&mut self, first: bool) -> TracedPass;
    /// A note printed under the end-to-end summary.
    fn note(&self) -> Option<&'static str> {
        None
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The workload of `seed` with its reference outputs, computed once and
/// outside every clock.
fn load(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "fig5_randomjoin" => Box::new(sweeps::SerialSweeps::fig5_randomjoin(seed)),
        "hier_linear_grid" => Box::new(sweeps::SerialSweeps::hier_linear_grid(seed)),
        "fig5_fleet" => Box::new(sweeps::Fleet::fig5(seed)),
        "fig8_protocols" => Box::new(packets::Fig8::new(seed)),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
}

fn main() {
    // Fleet workers re-execute this binary: route them into the worker
    // loop before anything else runs.
    mlf_scenario::transport::maybe_run_process_worker();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {}  seed {}  (held-out seed {HELD_OUT_SEED}, default {DEFAULT_SEED})  \
         available parallelism {}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut workload = load(args.workload, args.seed);
    println!("reference digest {:#018x}", workload.reference_digest());
    // The reference computation is not the program's work: peak RSS
    // counts from here on.
    if !reset_peak_rss() {
        println!("(peak RSS cannot be reset here; it includes the reference computation)");
    }

    let (correct, attempted, failed, metrics) = if args.trace {
        traced_run(workload.as_mut(), args.seconds)
    } else {
        untraced_run(workload.as_mut(), args.seconds)
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Debug formatting keeps every digit; JSON has no NaN.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

type Metric = (&'static str, f64, &'static str);

/// One set-up and the pass over its inputs.
struct Step {
    /// Wall and nominal seconds of one set-up.
    setup: (f64, f64),
    pass: Pass,
}

/// Wall and nominal seconds of one set-up: the mean over a batch of at
/// least [`SETUP_BATCH_S`]. The last set-up's inputs feed the next pass.
fn timed_set_up(w: &mut dyn Workload) -> (f64, f64) {
    let mut clock = Clock::start(w.kernel());
    let n = clock.time(|| {
        let t = Instant::now();
        let mut n = 0;
        while n == 0 || t.elapsed().as_secs_f64() < SETUP_BATCH_S {
            w.set_up();
            n += 1;
        }
        n as f64
    });
    (clock.secs / n, clock.nominal_secs / n)
}

/// Set-ups and timed passes for `seconds`; the end-to-end metrics.
fn untraced_run(w: &mut dyn Workload, seconds: f64) -> (bool, u64, u64, Vec<Metric>) {
    let start = Instant::now();
    let mut steps = Vec::new();
    while steps.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let setup = timed_set_up(w);
        let pass = w.pass();
        steps.push(Step { setup, pass });
    }

    let rate = |secs: fn(&Clock) -> f64| -> Vec<f64> {
        steps
            .iter()
            .map(|s| s.pass.points as f64 / secs(&s.pass.clock))
            .collect()
    };
    let [q1, points_per_s, q3] = quartiles(&rate(|c| c.nominal_secs));
    let wall_rate = median(&rate(|c| c.secs));
    let setup_s = median(&steps.iter().map(|s| s.setup.1).collect::<Vec<_>>());
    let wall_setup = median(&steps.iter().map(|s| s.setup.0).collect::<Vec<_>>());
    let (attempted, failed) = tally(steps.iter().map(|s| &s.pass));
    let rss = peak_rss_mb();
    println!(
        "{} set-ups and passes in {:.2} s, {} {} per pass",
        steps.len(),
        start.elapsed().as_secs_f64(),
        steps[0].pass.points,
        w.unit(),
    );
    println!(
        "points_per_s  {points_per_s:.1} 1/s at nominal speed  (quartiles {q1:.1} .. {q3:.1}; \
         wall clock {wall_rate:.1})"
    );
    if let Some(slots) = w.slots_per_point() {
        println!(
            "slots_per_s   {:.0} 1/s at nominal speed  ({slots} slots per point)",
            points_per_s * slots as f64
        );
    }
    println!("setup_s       {setup_s:.9} s at nominal speed  (wall clock {wall_setup:.9})");
    println!("peak_rss_mb   {rss:.3} MiB  (this process, after the reference)");
    if let Some(note) = w.note() {
        println!("              {note}");
    }
    println!(
        "failed_frac   {}  ({failed} of {attempted} checked outputs)",
        failed as f64 / attempted as f64
    );
    let metrics = vec![
        ("points_per_s", points_per_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss, "MiB"),
    ];
    (failed == 0, attempted, failed, metrics)
}

/// Alternating untraced and traced passes for `seconds`; the per-layer
/// metrics, the tracing overhead and the "where the time goes" table.
fn traced_run(w: &mut dyn Workload, seconds: f64) -> (bool, u64, u64, Vec<Metric>) {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    while plain.is_empty()
        || traced.len() < MIN_TRACED_PASSES
        || start.elapsed().as_secs_f64() < seconds
    {
        w.set_up();
        plain.push(w.pass());
        let first = traced.is_empty();
        w.set_up();
        traced.push(w.traced_pass(first));
    }
    let mut passes: Vec<&Pass> = plain.iter().collect();
    passes.extend(traced.iter().map(|t| &t.pass));
    let (attempted, mut failed) = tally(passes.iter().copied());

    // Exact counters must repeat from pass to pass; timings are medians.
    let drift = trace::counter_drift(traced.iter().map(|t| &t.values));
    for name in &drift {
        println!("DRIFT: deterministic counter {name} differs between traced passes");
    }
    failed += drift.len() as u64;
    let untraced_per_s = median(
        &plain
            .iter()
            .map(|p| p.points as f64 / p.clock.secs)
            .collect::<Vec<_>>(),
    );
    let traced_per_s = median(&traced.iter().map(|t| t.traced_per_s).collect::<Vec<_>>());

    let mut values = trace::median_values(traced.iter().map(|t| &t.values));
    values.set("trace.untraced_per_s", untraced_per_s);
    values.set("trace.traced_per_s", traced_per_s);
    values.set("trace.overhead_frac", untraced_per_s / traced_per_s - 1.0);

    println!(
        "{} untraced + {} traced passes in {:.2} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "tracing overhead: untraced {untraced_per_s:.1} {u}/s, traced {traced_per_s:.1} {u}/s ({:+.1}%)",
        100.0 * (untraced_per_s / traced_per_s - 1.0),
        u = w.unit(),
    );
    // The table comes from the traced pass with the median wall time, so
    // its rows and its total describe one real pass.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| {
        let secs = |i: usize| traced[i].pass.clock.secs;
        secs(a).total_cmp(&secs(b))
    });
    let mid = &traced[order[order.len() / 2]];
    trace::print_table(mid.pass.clock.secs, &mid.rows);
    println!("counter digest {:#018x}", values.counter_digest());

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.get(m.name);
            println!(
                "  {:<42} {:>16} {}{}",
                m.name,
                format_value(v, m.unit),
                m.unit,
                if m.kind == Kind::Exact {
                    "  (exact)"
                } else {
                    ""
                }
            );
            (m.name, v, m.unit)
        })
        .collect();
    (failed == 0, attempted, failed, metrics)
}

/// Compare a pass's outputs with the reference, position by position:
/// each position either holds counts as one attempt, and each missing,
/// extra or differing output as a failure.
pub fn check<T: PartialEq>(got: &[T], want: &[T], pass: &mut Pass) {
    let same = got.iter().zip(want).filter(|(g, w)| g == w).count();
    let attempted = got.len().max(want.len());
    let failed = attempted - same;
    if failed > 0 {
        eprintln!(
            "mismatch: {failed} of {attempted} outputs differ from the reference ({} expected, {} returned)",
            want.len(),
            got.len()
        );
    }
    pass.attempted += attempted as u64;
    pass.failed += failed as u64;
}

fn format_value(v: f64, unit: &str) -> String {
    if unit == "count" {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn tally<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> (u64, u64) {
    passes
        .into_iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
}
