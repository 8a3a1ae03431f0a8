//! Fault-tolerant sweep coordination: shard, verify, merge, checkpoint.
//!
//! The coordinator is the crate's one parallel engine. It hands job-range
//! shards to workers, every delivered shard carries a deterministic
//! FNV-1a content hash the coordinator recomputes before accepting,
//! accepted shards can additionally be **spot-checked** — their head jobs
//! recomputed bitwise by a *different* worker — and completed shards
//! stream to an append-only [checkpoint] so a killed sweep resumes from
//! disk. Plain thread sweeps are coordinated sweeps too:
//! [`CoordinatorConfig::threads`] runs the same loop with no audit and no
//! deadlines.
//!
//! The engine is generic over the crate-private `Sweep` trait: a job
//! type, a record with a canonical bit-exact codec, a per-worker state
//! with a pure `solve`, and a sweep identity. [`Scenario`] sweeps
//! Figure-5 points, [`ProtocolScenario`](crate::ProtocolScenario)
//! Figure-8 points; both get the same fleets, checks and checkpoints.
//!
//! The determinism contract is what makes all of this cheap: every record
//! is a pure function of its job and the sweep spec, so *any* worker can
//! recompute *any* shard at *any* time and produce the same bytes.
//! Failures therefore become recoverable rather than fatal — lost work is
//! reassigned, corrupt work is rejected and recomputed, duplicated work is
//! dropped — and the merged report is **bitwise identical** to the serial
//! sweep no matter what failed:
//!
//! ```text
//! coordinate(faults = none) ≡ coordinate(any FaultPlan)
//!                           ≡ kill-at-every-shard + resume ≡ sweep()
//! ```
//!
//! # Fault model and injection
//!
//! Faults are injected deterministically from a seeded [`FaultPlan`]
//! ([`FaultPlan::from_seed`] draws events from the simulation RNG), one
//! event at most per shard, firing on the shard's **first** assignment:
//!
//! * [`FaultKind::CrashWorker`] — the worker thread exits mid-shard and
//!   never replies; its channel drops, the shard times out and is
//!   reassigned, and the dead worker is detected at the next send.
//! * [`FaultKind::Stall`] — the worker sleeps past the per-shard deadline
//!   and delivers late; the coordinator has already reassigned, and the
//!   late delivery is either accepted (identical bytes) or dropped as a
//!   duplicate.
//! * [`FaultKind::CorruptHash`] — the delivery's content hash lies; the
//!   recomputed hash disagrees, the shard is rejected (never merged) and
//!   retried elsewhere with capped exponential backoff.
//! * [`FaultKind::DuplicateShard`] — the shard is delivered twice; the
//!   second copy is dropped.
//! * [`FaultKind::KillProcess`] — (process fleets) the supervisor
//!   SIGKILLs the worker child mid-shard; the death is observed, every
//!   assignment it held requeued, and the slot respawned with capped
//!   backoff. Thread
//!   fleets model it as a clean worker exit.
//! * [`FaultKind::TornFrame`] — the assignment frame is damaged on the
//!   wire; the frame checksum catches it, the worker rejects it, and the
//!   coordinator requeues. Thread fleets deliver the rejection directly.
//!
//! Retries are capped ([`CoordinatorConfig::max_retries`], then
//! [`CoordinatorError::ShardFailed`]); when every worker is lost the
//! coordinator degrades gracefully to computing the remaining shards
//! serially in-process. None of these scheduling decisions can change the
//! merged bytes — only *whether* and *when* a shard's (always identical)
//! points arrive.
//!
//! # Clocks
//!
//! Per-shard deadlines and retry backoff read the monotonic wall clock —
//! the one sanctioned exception to the crate's no-ambient-entropy rule
//! (see the `ambient-entropy` docs in `mlf-lint`): the clock steers
//! **scheduling only** (when to reassign, when to give up waiting). Every
//! accepted shard's bytes are a pure function of the job list, so a slow
//! machine retries more but merges the same report.
//!
//! # Transports
//!
//! The event loop is generic over the crate-private `WorkerTransport`
//! seam: [`TransportKind::Threads`] runs an in-process fleet over typed
//! mpsc channels (a panicking solve is re-raised on the caller's thread),
//! [`TransportKind::Process`] a **supervised fleet of child worker
//! processes** that self-exec the current binary
//! and speak the framed protocol of [`crate::transport`]. Dead processes
//! are respawned with capped backoff up to
//! [`ProcessConfig::max_respawns`] per slot; an exhausted fleet degrades
//! to the serial fallback like a lost thread fleet. The transport cannot
//! change the merged bytes — it only moves *where* the same pure solves
//! run.
//!
//! # Pipelining
//!
//! Each worker holds up to two assignments, so the next one is already
//! queued while the coordinator verifies the previous report. The
//! coordinator tracks them per worker as `(task, attempt)` tickets,
//! oldest first. A report retires its own ticket, a dead worker requeues
//! every ticket it held, and a rejection names the ticket it rejects.
//!
//! # Topology counters
//!
//! Every job builds its own topology, so the merged
//! [`SweepReport::cache`] is set from the job list alone: a miss per job
//! of a random-network source, a hit per job of a fixed one. A seeds-only
//! coordinated sweep therefore reports what [`Scenario::sweep`] does.

use crate::checkpoint::{self, CheckpointError, CheckpointMeta, CheckpointWriter, ShardRecord};
use crate::hash::Fnv1a;
use crate::protocol::ProtocolScenarioError;
use crate::record::{Dec, Enc};
use crate::transport::{TransportCounters, TransportError, TransportPoll, WorkerTransport};
use crate::{CacheStats, Scenario, ScenarioError, SweepGrid, SweepReport};
use mlf_sim::SimRng;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

// mlf-lint: allow(ambient-entropy, reason = "monotonic deadlines drive retry/reassignment scheduling only; merged bytes are a pure function of the job list (see module docs)")
type Deadline = std::time::Instant;

/// What a coordinated sweep sweeps. Everything the coordinator, the
/// checkpoint and the worker protocol know about a sweep goes through
/// this seam, so none of them names a concrete record type.
pub(crate) trait Sweep: Sync + Sized {
    /// One unit of work; its record is a pure function of it.
    type Job: Clone + Send + Sync + 'static;
    /// One job's output.
    type Record: Clone + Send + 'static;
    /// A worker's private scratch; a record never depends on its history.
    type Worker;
    /// The `Init` frame type that ships this kind of sweep to a worker.
    const INIT_FRAME: u8;
    /// Encoded bytes of one job.
    const JOB_BYTES: usize;
    /// Encoded bytes of one record.
    const RECORD_BYTES: usize;

    /// Append one job's encoding.
    fn encode_job(job: &Self::Job, e: &mut Enc);
    /// Inverse of [`Sweep::encode_job`].
    fn decode_job(d: &mut Dec<'_>) -> Result<Self::Job, String>;
    /// Append one record's canonical encoding: every `f64` by its bits,
    /// so two records are bitwise equal iff their encodings are.
    fn encode_record(record: &Self::Record, e: &mut Enc);
    /// Inverse of [`Sweep::encode_record`]; rejects bytes it never writes.
    fn decode_record(d: &mut Dec<'_>) -> Result<Self::Record, String>;
    /// A fresh worker state.
    fn worker(&self) -> Self::Worker;
    /// The pure solve of one job.
    fn solve(&self, worker: &mut Self::Worker, job: &Self::Job) -> Self::Record;
    /// Fold everything besides the job list that determines the records.
    fn identity(&self, h: &mut Fnv1a);
    /// Append the spec a worker process rebuilds this sweep from, or say
    /// why it cannot be shipped faithfully.
    fn process_spec(&self, e: &mut Enc) -> Result<(), String>;
    /// Rebuild the sweep from [`Sweep::process_spec`]'s bytes.
    fn from_spec(d: &mut Dec<'_>) -> Result<Self, String>;
}

/// The canonical encoding of a run of records.
pub(crate) fn encode_records<S: Sweep>(records: &[S::Record]) -> Vec<u8> {
    let mut e = Enc::new();
    for r in records {
        S::encode_record(r, &mut e);
    }
    e.done()
}
/// The kinds of failure the seeded harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread exits mid-shard without replying.
    CrashWorker,
    /// The worker sleeps past the shard deadline, then delivers late.
    Stall,
    /// The delivery claims a content hash its points do not have.
    CorruptHash,
    /// The delivery arrives twice.
    DuplicateShard,
    /// The worker *process* is SIGKILLed mid-shard by the supervisor
    /// (thread fleets model it as a clean worker exit — either way the
    /// coordinator observes a dead worker).
    KillProcess,
    /// The assignment frame is damaged on the wire; the frame checksum
    /// catches it and the worker rejects instead of computing.
    TornFrame,
}

/// Every fault kind, in wire-code order: the first four are the thread
/// alphabet [`FaultPlan::from_seed`] draws from, all six the process one.
pub(crate) const FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::CrashWorker,
    FaultKind::Stall,
    FaultKind::CorruptHash,
    FaultKind::DuplicateShard,
    FaultKind::KillProcess,
    FaultKind::TornFrame,
];

/// One injected fault: `kind` fires when `worker` receives `shard` on the
/// shard's first assignment (retries run clean, so every plan converges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The worker the fault is armed on.
    pub worker: usize,
    /// The shard whose first assignment triggers it.
    pub shard: u64,
}

/// A deterministic fault schedule. The same plan against the same sweep
/// produces the same failures — which is what lets CI assert that *every*
/// plan merges the same bytes as the fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An explicit plan (tests targeting one fault class).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Draw a plan from the simulation RNG: each shard has a 40% chance
    /// of carrying one fault of a uniformly chosen kind, armed on a
    /// uniformly chosen worker. At most one event per shard, so a capped
    /// retry budget always converges.
    pub fn from_seed(seed: u64, workers: usize, shards: u64) -> Self {
        Self::draw(&FAULT_KINDS[..4], seed, workers, shards)
    }

    /// Like [`FaultPlan::from_seed`], drawing from the full fault
    /// alphabet including the process-transport kinds
    /// ([`FaultKind::KillProcess`], [`FaultKind::TornFrame`]) — the plan
    /// the process-chaos differentials run at every fleet size.
    pub fn from_seed_process(seed: u64, workers: usize, shards: u64) -> Self {
        Self::draw(&FAULT_KINDS, seed, workers, shards)
    }

    fn draw(kinds: &[FaultKind], seed: u64, workers: usize, shards: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let workers = workers.max(1) as u64;
        let mut events = Vec::new();
        for shard in 0..shards {
            if !rng.bernoulli(0.4) {
                continue;
            }
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            let worker = rng.below(workers) as usize;
            events.push(FaultEvent {
                kind,
                worker,
                shard,
            });
        }
        FaultPlan { events }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub(crate) fn fires(&self, worker: usize, shard: u64, attempt: u32) -> Option<FaultKind> {
        if attempt != 0 {
            return None;
        }
        self.events
            .iter()
            .find(|e| e.worker == worker && e.shard == shard)
            .map(|e| e.kind)
    }
}

/// Which worker fleet a coordinated sweep runs on.
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// In-process worker threads over typed mpsc channels.
    #[default]
    Threads,
    /// Supervised child worker processes over the framed stdin/stdout
    /// protocol of [`crate::transport`].
    Process(ProcessConfig),
}

/// Knobs of the process-fleet supervisor.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// The worker binary (`None` = re-exec the current executable, which
    /// must call [`crate::transport::maybe_run_process_worker`] first
    /// thing in `main`).
    pub program: Option<PathBuf>,
    /// Respawn budget per worker slot; a slot that exhausts it stays
    /// down (and a fully exhausted fleet falls back to the serial path).
    pub max_respawns: u32,
    /// First respawn backoff; doubles per respawn.
    pub respawn_backoff: Duration,
    /// Respawn backoff ceiling.
    pub respawn_backoff_cap: Duration,
    /// A worker silent for this long while holding an assignment is
    /// declared dead, killed, and respawned. Generous by default — the
    /// per-shard [`CoordinatorConfig::shard_timeout`] already requeues
    /// slow shards; the heartbeat only reclaims truly wedged processes.
    pub heartbeat: Duration,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            program: None,
            max_respawns: 4,
            respawn_backoff: Duration::from_millis(10),
            respawn_backoff_cap: Duration::from_millis(200),
            heartbeat: Duration::from_secs(30),
        }
    }
}

/// Knobs of one coordinated sweep.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Workers (`0` = use `std::thread::available_parallelism`); never
    /// more than the sweep has shards.
    pub workers: usize,
    /// Jobs per shard (clamped to at least 1).
    pub shard_size: usize,
    /// Head jobs of every accepted shard recomputed bitwise by a second
    /// worker before the shard is merged (`0` disables spot checks).
    pub spot_check: usize,
    /// How long one shard may stay assigned before it is reassigned
    /// (`Duration::MAX`: never).
    pub shard_timeout: Duration,
    /// Retry budget per shard (timeouts and hash rejects both count).
    pub max_retries: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Stream accepted shards to this append-only checkpoint file and
    /// resume from it when it already exists.
    pub checkpoint: Option<PathBuf>,
    /// The injected fault schedule (empty in production).
    pub fault_plan: FaultPlan,
    /// Stop with [`CoordinatorError::Interrupted`] after accepting this
    /// many *new* shards — the simulated-kill hook the resume tests drive.
    pub max_new_shards: Option<u64>,
    /// Which fleet to run on (threads or supervised processes).
    pub transport: TransportKind,
}

impl CoordinatorConfig {
    /// A plain thread sweep: `workers` threads (`0` = available
    /// parallelism), one job per shard (so every worker gets work and
    /// uneven jobs balance), no spot checks, and no shard deadline.
    pub fn threads(workers: usize) -> Self {
        CoordinatorConfig {
            workers,
            shard_size: 1,
            spot_check: 0,
            shard_timeout: Duration::MAX,
            ..CoordinatorConfig::default()
        }
    }
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: 2,
            shard_size: 8,
            spot_check: 2,
            shard_timeout: Duration::from_secs(2),
            max_retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            checkpoint: None,
            fault_plan: FaultPlan::none(),
            max_new_shards: None,
            transport: TransportKind::Threads,
        }
    }
}

/// Why a coordinated sweep stopped without a merged report.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorError {
    /// One shard exhausted its retry budget.
    ShardFailed {
        /// The shard index.
        shard: u64,
        /// Attempts consumed.
        attempts: u32,
    },
    /// [`CoordinatorConfig::max_new_shards`] was reached with work left;
    /// the checkpoint (when configured) holds everything accepted so far.
    Interrupted {
        /// Newly accepted shards this run.
        accepted: u64,
    },
    /// The checkpoint file could not be written, read, or trusted.
    Checkpoint(CheckpointError),
    /// The process fleet could not be launched (spawning the initial
    /// children failed at the OS level). Wire-level damage *after*
    /// launch never surfaces here — it is retried, respawned around, or
    /// absorbed by the serial fallback.
    Transport(TransportError),
    /// The grid failed [`Scenario::validate_grid`]; no worker started.
    Grid(ScenarioError),
    /// The protocol grid failed
    /// [`ProtocolSweepGrid::validate`](crate::ProtocolSweepGrid::validate);
    /// no worker started.
    ProtocolGrid(ProtocolScenarioError),
    /// The scenario cannot be shipped to worker processes (fixed
    /// network, explicit link-rate config, or unregistered allocator);
    /// run it on [`TransportKind::Threads`] instead.
    UnsupportedScenario {
        /// Why the scenario spec could not be built.
        reason: String,
    },
}

impl std::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatorError::ShardFailed { shard, attempts } => {
                write!(f, "shard {shard} failed after {attempts} attempts")
            }
            CoordinatorError::Interrupted { accepted } => {
                write!(f, "interrupted after accepting {accepted} new shards")
            }
            CoordinatorError::Checkpoint(e) => write!(f, "{e}"),
            CoordinatorError::Transport(e) => write!(f, "process fleet failed to launch: {e}"),
            CoordinatorError::Grid(e) => write!(f, "invalid sweep grid: {e}"),
            CoordinatorError::ProtocolGrid(e) => write!(f, "invalid protocol sweep grid: {e}"),
            CoordinatorError::UnsupportedScenario { reason } => {
                write!(f, "scenario cannot run on the process transport: {reason}")
            }
        }
    }
}

impl std::error::Error for CoordinatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordinatorError::Checkpoint(e) => Some(e),
            CoordinatorError::Transport(e) => Some(e),
            CoordinatorError::Grid(e) => Some(e),
            CoordinatorError::ProtocolGrid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CoordinatorError {
    fn from(e: CheckpointError) -> Self {
        CoordinatorError::Checkpoint(e)
    }
}

impl From<TransportError> for CoordinatorError {
    fn from(e: TransportError) -> Self {
        CoordinatorError::Transport(e)
    }
}

/// Scheduling telemetry of one coordinated run. Everything here depends
/// on timing, fault injection, and machine load — which is exactly why it
/// lives *outside* [`SweepReport`] equality: two runs with wildly
/// different stats still merge identical bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Total shards in the sweep.
    pub shards: u64,
    /// Workers launched: never more than the shards.
    pub workers: u64,
    /// Shards restored from the checkpoint instead of recomputed.
    pub shards_from_checkpoint: u64,
    /// Shard reassignments (timeouts, hash rejects, spot mismatches).
    pub retries: u64,
    /// Deadline expiries observed.
    pub timeouts: u64,
    /// Deliveries rejected because their content hash did not verify.
    pub hash_rejects: u64,
    /// Deliveries dropped because the shard was already settled.
    pub duplicates_dropped: u64,
    /// Workers found dead at dispatch (send failed).
    pub workers_lost: u64,
    /// Spot checks that compared bitwise equal.
    pub spot_checks_passed: u64,
    /// Shards accepted without their spot check (no second worker left,
    /// spot retries exhausted, or serial fallback).
    pub spot_checks_skipped: u64,
    /// Whether the run finished by computing remaining shards serially.
    pub serial_fallback: bool,
    /// Worker processes respawned by the supervisor.
    pub respawns: u64,
    /// Assignment frames rejected by workers as damaged in flight.
    pub frames_rejected: u64,
}

impl std::fmt::Display for CoordinatorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "shards: {} total, {} from checkpoint",
            self.shards, self.shards_from_checkpoint
        )?;
        writeln!(
            f,
            "recovery: {} retries, {} timeouts, {} hash rejects, {} duplicates dropped",
            self.retries, self.timeouts, self.hash_rejects, self.duplicates_dropped
        )?;
        writeln!(
            f,
            "fleet: {} workers lost, {} respawns, {} frames rejected, serial fallback: {}",
            self.workers_lost,
            self.respawns,
            self.frames_rejected,
            if self.serial_fallback { "yes" } else { "no" }
        )?;
        write!(
            f,
            "audit: {} spot checks passed, {} skipped",
            self.spot_checks_passed, self.spot_checks_skipped
        )
    }
}

/// A merged coordinated sweep: the (bitwise canonical) report plus the
/// scheduling telemetry of how it got there.
#[derive(Debug, Clone)]
pub struct CoordinatorReport<R = SweepReport> {
    /// The merged sweep, byte-identical to the serial sweep over the same
    /// jobs.
    pub report: R,
    /// Scheduling telemetry (excluded from any equality the differentials
    /// assert).
    pub stats: CoordinatorStats,
}

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// What a worker was asked to compute: a real shard, or the spot-check
/// audit of one. Shared with the transport frame codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskId {
    Shard(u64),
    Spot(u64),
}

/// One dispatched assignment as the coordinator tracks it: the task and
/// the attempt it was sent as.
pub(crate) type Ticket = (TaskId, u32);

/// How many assignments one worker may hold at once. With two, the next
/// assignment is already queued at the worker while the coordinator
/// verifies the previous report and dispatches, so no worker idles
/// through that round trip. Workers serve their assignments in order.
const IN_FLIGHT_DEPTH: usize = 2;

/// One unit of dispatched work. Shared with the transport frame codec.
#[derive(Debug, Clone)]
pub(crate) struct Assignment<J> {
    pub(crate) task: TaskId,
    pub(crate) attempt: u32,
    pub(crate) shard: u64,
    pub(crate) start: u64,
    pub(crate) jobs: Vec<J>,
}

impl<J> Assignment<J> {
    pub(crate) fn ticket(&self) -> Ticket {
        (self.task, self.attempt)
    }
}

/// One delivered computation. Shared with the transport frame codec.
#[derive(Debug, Clone)]
pub(crate) struct WorkerReport<R> {
    pub(crate) worker: usize,
    pub(crate) task: TaskId,
    pub(crate) attempt: u32,
    pub(crate) points: Vec<R>,
    pub(crate) hash: u64,
}

struct ShardSpec<J> {
    start: u64,
    jobs: Vec<J>,
}

/// A shard's hash-verified records, awaiting or undergoing their spot
/// check.
struct Audit<R> {
    points: Vec<R>,
    /// The worker that computed the records; the spot check goes elsewhere.
    computed_by: usize,
    spot_attempt: u32,
}

/// `None` deadlines never fire (a sweep without a shard timeout).
enum ShardState<R> {
    /// Waiting for a worker (`ready_at` holds the retry backoff).
    Queued { ready_at: Option<Deadline> },
    /// Assigned; reassigned if not delivered by `deadline`.
    Running { deadline: Option<Deadline> },
    /// Verified records waiting for a spot-check slot.
    Held {
        audit: Audit<R>,
        ready_at: Option<Deadline>,
    },
    /// Spot check in flight on a second worker.
    SpotRunning {
        audit: Audit<R>,
        deadline: Option<Deadline>,
    },
    /// Accepted (and checkpointed, when configured).
    Done { points: Vec<R> },
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// A worker's private compute state. Shared by the thread workers and
/// the process workers (`crate::transport`).
pub(crate) struct WorkerState<S: Sweep> {
    state: S::Worker,
}

impl<S: Sweep> WorkerState<S> {
    pub(crate) fn new(sweep: &S) -> Self {
        WorkerState {
            state: sweep.worker(),
        }
    }

    /// Serve one assignment as worker `id` under the fault `plan`.
    /// `None` means an injected crash: the worker must die without
    /// replying. Otherwise the report, plus whether an injected duplicate
    /// asks for it to be delivered twice. Faults target real shard work
    /// only; spot checks run clean (they are the audit, not the subject).
    pub(crate) fn serve(
        &mut self,
        sweep: &S,
        id: usize,
        a: &Assignment<S::Job>,
        plan: &FaultPlan,
        stall: Duration,
    ) -> Option<(WorkerReport<S::Record>, bool)> {
        let fault = match a.task {
            TaskId::Shard(_) => plan.fires(id, a.shard, a.attempt),
            TaskId::Spot(_) => None,
        };
        match fault {
            Some(FaultKind::CrashWorker | FaultKind::KillProcess) => return None,
            Some(FaultKind::Stall) => std::thread::sleep(stall),
            _ => {}
        }
        let points: Vec<S::Record> = a
            .jobs
            .iter()
            .map(|job| sweep.solve(&mut self.state, job))
            .collect();
        let mut hash = checkpoint::shard_hash::<S>(a.shard, a.start, &points);
        if fault == Some(FaultKind::CorruptHash) {
            hash ^= 0x5eed_bad0_dead_beef;
        }
        let report = WorkerReport {
            worker: id,
            task: a.task,
            attempt: a.attempt,
            points,
            hash,
        };
        Some((report, fault == Some(FaultKind::DuplicateShard)))
    }
}

/// What a thread worker sends back: a report, or the payload of a panic
/// in its solve, which the coordinator re-raises.
type FromWorker<R> = Result<WorkerReport<R>, Box<dyn std::any::Any + Send>>;

fn worker_loop<S: Sweep>(
    sweep: &S,
    id: usize,
    rx: mpsc::Receiver<Assignment<S::Job>>,
    tx: mpsc::Sender<FromWorker<S::Record>>,
    plan: &FaultPlan,
    stall: Duration,
) {
    let mut worker = WorkerState::new(sweep);
    // The fleet shuts down by dropping its senders: the worker serves what
    // it was sent, then `recv` fails.
    while let Ok(a) = rx.recv() {
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker.serve(sweep, id, &a, plan, stall)
        }));
        let (report, duplicate) = match served {
            Ok(Some(served)) => served,
            // A crash exits without replying: dropping `rx` is what the
            // coordinator eventually observes as a dead channel. (A
            // thread cannot be SIGKILLed, so KillProcess degrades to the
            // same observable outcome.)
            Ok(None) => return,
            Err(payload) => {
                let _ = tx.send(Err(payload));
                return;
            }
        };
        if duplicate && tx.send(Ok(report.clone())).is_err() {
            return;
        }
        if tx.send(Ok(report)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Thread transport
// ---------------------------------------------------------------------------

struct ThreadSlot<J> {
    tx: mpsc::Sender<Assignment<J>>,
    alive: bool,
}

/// The in-process fleet: one worker thread per slot over typed mpsc
/// channels, behind [`WorkerTransport`] so the event loop cannot tell it
/// from a process fleet.
struct ThreadTransport<'p, S: Sweep> {
    slots: Vec<ThreadSlot<S::Job>>,
    rrx: mpsc::Receiver<FromWorker<S::Record>>,
    plan: &'p FaultPlan,
    /// Synthetic events (torn-frame rejections) delivered ahead of the
    /// report channel.
    pending: VecDeque<TransportPoll<S::Record>>,
    counters: TransportCounters,
}

impl<S: Sweep> WorkerTransport<S> for ThreadTransport<'_, S> {
    fn worker_count(&self) -> usize {
        self.slots.len()
    }

    fn usable(&self, worker: usize) -> bool {
        self.slots[worker].alive
    }

    fn try_send(&mut self, worker: usize, assignment: &Assignment<S::Job>) -> bool {
        if !self.slots[worker].alive {
            return false;
        }
        // A torn frame never reaches the worker: model the damage as an
        // immediate rejection — exactly what a process worker sends back
        // after a checksum mismatch.
        if matches!(assignment.task, TaskId::Shard(_))
            && self
                .plan
                .fires(worker, assignment.shard, assignment.attempt)
                == Some(FaultKind::TornFrame)
        {
            self.pending.push_back(TransportPoll::Rejected {
                worker,
                ticket: assignment.ticket(),
            });
            return true;
        }
        if self.slots[worker].tx.send(assignment.clone()).is_ok() {
            true
        } else {
            // The channel is dead: the worker crashed some time ago.
            self.slots[worker].alive = false;
            self.counters.workers_lost += 1;
            false
        }
    }

    fn recv_timeout(&mut self, wait: Duration) -> TransportPoll<S::Record> {
        if let Some(ev) = self.pending.pop_front() {
            return ev;
        }
        match self.rrx.recv_timeout(wait) {
            Ok(Ok(rep)) => TransportPoll::Report(rep),
            // A solve panicked: the sweep fails the way a serial loop
            // would. Unwinding drops the fleet's channels, so the other
            // workers exit and the scope joins them.
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(mpsc::RecvTimeoutError::Timeout) => TransportPoll::Timeout,
            Err(mpsc::RecvTimeoutError::Disconnected) => TransportPoll::AllDown,
        }
    }

    fn shutdown(&mut self) {
        self.slots.clear();
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// The identity of one coordinated sweep: the sweep's own spec and the
/// exact job list. Binds checkpoints to their sweep so a file can never
/// resume a different experiment.
fn sweep_identity<S: Sweep>(sweep: &S, jobs: &[S::Job]) -> u64 {
    let mut h = Fnv1a::new();
    sweep.identity(&mut h);
    h.write_u64(jobs.len() as u64);
    let mut e = Enc::new();
    for job in jobs {
        S::encode_job(job, &mut e);
    }
    h.write(&e.done());
    h.finish()
}

fn backoff(cfg: &CoordinatorConfig, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    cfg.backoff_base
        .saturating_mul(1u32 << shift)
        .min(cfg.backoff_cap)
}

/// Run `jobs` of `sweep` through the coordinator: the records in job
/// order and the scheduling telemetry.
pub(crate) fn coordinate<S: Sweep + 'static>(
    sweep: &S,
    jobs: Vec<S::Job>,
    cfg: &CoordinatorConfig,
) -> Result<(Vec<S::Record>, CoordinatorStats), CoordinatorError> {
    let mut run = Run::new(sweep, &jobs, cfg)?;
    if run.remaining > 0 {
        if run.interrupted() {
            return Err(CoordinatorError::Interrupted { accepted: 0 });
        }
        run.launch()?;
    }
    Ok(run.finish())
}

/// The mutable state of one coordinated sweep: every shard's scheduling
/// state, what each worker holds, the checkpoint writer, and the
/// telemetry. The event loop's methods live here.
struct Run<'a, S: Sweep> {
    sweep: &'a S,
    cfg: &'a CoordinatorConfig,
    shards: Vec<ShardSpec<S::Job>>,
    state: Vec<ShardState<S::Record>>,
    /// Per shard, the attempt its next (or running) assignment carries.
    attempts: Vec<u32>,
    /// Per worker, the assignments sent and not yet answered, oldest
    /// first; at most [`IN_FLIGHT_DEPTH`] each.
    current: Vec<VecDeque<Ticket>>,
    writer: Option<CheckpointWriter>,
    /// Shards not yet `Done`.
    remaining: usize,
    /// Shards accepted by this run (checkpointed ones excluded).
    accepted_new: u64,
    stats: CoordinatorStats,
}
impl<'a, S: Sweep + 'static> Run<'a, S> {
    /// Shard the job list and restore whatever the checkpoint (when
    /// configured and present) already holds.
    fn new(
        sweep: &'a S,
        jobs: &[S::Job],
        cfg: &'a CoordinatorConfig,
    ) -> Result<Self, CoordinatorError> {
        let shard_size = cfg.shard_size.max(1);
        let shards: Vec<ShardSpec<S::Job>> = jobs
            .chunks(shard_size)
            .enumerate()
            .map(|(idx, chunk)| ShardSpec {
                start: (idx * shard_size) as u64,
                jobs: chunk.to_vec(),
            })
            .collect();
        let mut stats = CoordinatorStats {
            shards: shards.len() as u64,
            ..CoordinatorStats::default()
        };
        let meta = CheckpointMeta {
            sweep: sweep_identity(sweep, jobs),
            shards: shards.len() as u64,
            shard_size: shard_size as u64,
        };
        let mut state: Vec<ShardState<S::Record>> = (0..shards.len())
            .map(|_| ShardState::Queued { ready_at: None })
            .collect();
        let mut writer = None;
        if let Some(path) = &cfg.checkpoint {
            if path.exists() {
                let loaded = checkpoint::load::<S>(path, &meta)?;
                for (k, rec) in loaded.shards.iter().enumerate() {
                    let spec = &shards[rec.shard as usize];
                    if rec.start != spec.start || rec.points.len() != spec.jobs.len() {
                        return Err(CheckpointError::Corrupt {
                            // Record 1 is the header.
                            record: k + 2,
                            reason: format!("shard {} has the wrong geometry", rec.shard),
                        }
                        .into());
                    }
                    let slot = &mut state[rec.shard as usize];
                    if !matches!(slot, ShardState::Done { .. }) {
                        stats.shards_from_checkpoint += 1;
                    }
                    *slot = ShardState::Done {
                        points: rec.points.clone(),
                    };
                }
                writer = Some(CheckpointWriter::resume(path, &meta, &loaded)?);
            } else {
                writer = Some(CheckpointWriter::create(path, &meta)?);
            }
        }
        let remaining = state
            .iter()
            .filter(|s| !matches!(s, ShardState::Done { .. }))
            .count();
        Ok(Run {
            sweep,
            cfg,
            attempts: vec![0; shards.len()],
            shards,
            state,
            current: Vec::new(),
            writer,
            remaining,
            accepted_new: 0,
            stats,
        })
    }

    /// The merged records in canonical shard order and the stats. Call
    /// only once every shard is done.
    fn finish(self) -> (Vec<S::Record>, CoordinatorStats) {
        let points = self
            .state
            .into_iter()
            .flat_map(|s| match s {
                ShardState::Done { points } => points,
                _ => Vec::new(),
            })
            .collect();
        (points, self.stats)
    }

    /// Take shard `i`'s state out, leaving a placeholder the caller
    /// overwrites.
    fn take(&mut self, i: usize) -> ShardState<S::Record> {
        std::mem::replace(&mut self.state[i], ShardState::Queued { ready_at: None })
    }

    /// Accept one verified shard: checkpoint it, mark it done.
    fn accept(&mut self, i: usize, points: Vec<S::Record>) -> Result<(), CoordinatorError> {
        if let Some(w) = self.writer.as_mut() {
            let start = self.shards[i].start;
            let hash = checkpoint::shard_hash::<S>(i as u64, start, &points);
            w.append::<S>(&ShardRecord {
                shard: i as u64,
                start,
                points: points.clone(),
                hash,
            })?;
        }
        self.state[i] = ShardState::Done { points };
        self.remaining -= 1;
        self.accepted_new += 1;
        Ok(())
    }

    /// Whether the simulated-kill cap fires now.
    fn interrupted(&self) -> bool {
        matches!(self.cfg.max_new_shards, Some(cap) if self.accepted_new >= cap && self.remaining > 0)
    }

    /// Burn one retry of shard `i` and requeue it behind its backoff; a
    /// spent budget fails the sweep.
    fn retry_shard(&mut self, i: usize) -> Result<(), CoordinatorError> {
        self.stats.retries += 1;
        self.attempts[i] += 1;
        if self.attempts[i] > self.cfg.max_retries {
            return Err(CoordinatorError::ShardFailed {
                shard: i as u64,
                attempts: self.attempts[i],
            });
        }
        self.state[i] = ShardState::Queued {
            ready_at: Some(Deadline::now() + backoff(self.cfg, self.attempts[i])),
        };
        Ok(())
    }

    /// Retry a lost spot check of shard `i` behind its backoff. Once the
    /// audit's budget is spent the shard is accepted on its already
    /// verified content hash: losing the audit must never fail the sweep.
    fn retry_spot(
        &mut self,
        i: usize,
        mut audit: Audit<S::Record>,
    ) -> Result<(), CoordinatorError> {
        audit.spot_attempt += 1;
        if audit.spot_attempt > self.cfg.max_retries {
            self.stats.spot_checks_skipped += 1;
            return self.accept(i, audit.points);
        }
        let ready_at = Some(Deadline::now() + backoff(self.cfg, audit.spot_attempt));
        self.state[i] = ShardState::Held { audit, ready_at };
        Ok(())
    }

    /// Remove `ticket` from `worker`'s in-flight queue, if it is there.
    fn retire(&mut self, worker: usize, ticket: Ticket) {
        if let Some(queue) = self.current.get_mut(worker) {
            queue.retain(|&t| t != ticket);
        }
    }

    /// A worker died holding `ticket`, or rejected it unread: put the
    /// task back in play when it is still the live attempt. A lost shard
    /// burns a retry, like a timeout; a lost spot check retries the
    /// audit. A stale ticket (already timed out and reassigned) changes
    /// nothing.
    fn lose(&mut self, (task, attempt): Ticket) -> Result<(), CoordinatorError> {
        match task {
            TaskId::Shard(shard) => {
                let i = shard as usize;
                if matches!(self.state[i], ShardState::Running { .. })
                    && self.attempts[i] == attempt
                {
                    return self.retry_shard(i);
                }
            }
            TaskId::Spot(shard) => {
                let i = shard as usize;
                match self.take(i) {
                    ShardState::SpotRunning { audit, .. } if audit.spot_attempt == attempt => {
                        return self.retry_spot(i, audit);
                    }
                    other => self.state[i] = other,
                }
            }
        }
        Ok(())
    }

    /// Hand every ready task to a worker with room: queued shards to any
    /// worker, spot checks of held shards to any worker but the one that
    /// computed them. A held shard with no second worker left is accepted
    /// on its verified content hash alone. Returns whether anything was
    /// sent. Once no worker has room, queued shards are skipped unsent.
    fn dispatch<T: WorkerTransport<S>>(
        &mut self,
        transport: &mut T,
    ) -> Result<bool, CoordinatorError> {
        let mut sent = false;
        let mut full = false;
        let now = Deadline::now();
        for i in 0..self.state.len() {
            let (task, attempt, exclude) = match &self.state[i] {
                ShardState::Queued { ready_at } if !full && ready_at.map_or(true, |t| t <= now) => {
                    (TaskId::Shard(i as u64), self.attempts[i], None)
                }
                ShardState::Held { audit, ready_at } if ready_at.map_or(true, |t| t <= now) => {
                    let computed_by = audit.computed_by;
                    if (0..transport.worker_count())
                        .any(|w| w != computed_by && transport.usable(w))
                    {
                        (
                            TaskId::Spot(i as u64),
                            audit.spot_attempt,
                            Some(computed_by),
                        )
                    } else {
                        if let ShardState::Held { audit, .. } = self.take(i) {
                            self.stats.spot_checks_skipped += 1;
                            self.accept(i, audit.points)?;
                        }
                        if self.interrupted() {
                            break;
                        }
                        continue;
                    }
                }
                _ => continue,
            };
            let spec = &self.shards[i];
            let len = match task {
                TaskId::Shard(_) => spec.jobs.len(),
                TaskId::Spot(_) => self.cfg.spot_check.min(spec.jobs.len()),
            };
            let assignment = || Assignment {
                task,
                attempt,
                shard: i as u64,
                start: spec.start,
                jobs: spec.jobs[..len].to_vec(),
            };
            if dispatch_to::<S, T>(transport, &mut self.current, exclude, assignment) {
                sent = true;
                let deadline = now.checked_add(self.cfg.shard_timeout);
                self.state[i] = match self.take(i) {
                    ShardState::Held { audit, .. } => ShardState::SpotRunning { audit, deadline },
                    _ => ShardState::Running { deadline },
                };
            } else if exclude.is_none() {
                full = true;
            }
        }
        Ok(sent)
    }

    /// How long to wait for the next event (until the earliest deadline
    /// or backoff, or one timeout-sized probe window when nothing is
    /// scheduled), and whether any task is in flight.
    fn next_wait(&self) -> (Duration, bool) {
        let mut next: Option<Deadline> = None;
        let mut in_flight = false;
        for s in &self.state {
            let t = match s {
                ShardState::Running { deadline } | ShardState::SpotRunning { deadline, .. } => {
                    in_flight = true;
                    *deadline
                }
                ShardState::Queued { ready_at } | ShardState::Held { ready_at, .. } => *ready_at,
                ShardState::Done { .. } => None,
            };
            if let Some(t) = t {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        let wait = match next {
            Some(t) => t.saturating_duration_since(Deadline::now()),
            // Nothing scheduled at all: either every live worker is busy
            // (possibly crashed without detection) or work is waiting on
            // a worker. Probe in timeout-sized windows.
            None => self.cfg.shard_timeout,
        };
        (wait, in_flight)
    }

    /// Requeue every task past its deadline. Returns whether any was.
    fn expire(&mut self) -> Result<bool, CoordinatorError> {
        let now = Deadline::now();
        let mut expired_any = false;
        for i in 0..self.state.len() {
            let expired = match &self.state[i] {
                ShardState::Running { deadline } | ShardState::SpotRunning { deadline, .. } => {
                    deadline.is_some_and(|d| d <= now)
                }
                _ => false,
            };
            if !expired {
                continue;
            }
            expired_any = true;
            self.stats.timeouts += 1;
            match self.take(i) {
                ShardState::SpotRunning { audit, .. } => self.retry_spot(i, audit)?,
                _ => self.retry_shard(i)?,
            }
        }
        Ok(expired_any)
    }

    /// Drive one launched fleet to completion, then shut it down
    /// (whatever the outcome — process children are reaped even on
    /// error) and fold its counters into the stats.
    fn drive<T: WorkerTransport<S>>(&mut self, transport: &mut T) -> Result<(), CoordinatorError> {
        self.current = vec![VecDeque::new(); transport.worker_count()];
        let result = self.drive_loop(transport);
        transport.shutdown();
        let c = transport.counters();
        self.stats.workers_lost += c.workers_lost;
        self.stats.respawns += c.respawns;
        result
    }

    /// The transport-generic event loop: dispatch, verify, retry, merge.
    /// Scheduling decisions are identical for thread and process fleets —
    /// which is why the two transports merge identical bytes.
    fn drive_loop<T: WorkerTransport<S>>(
        &mut self,
        transport: &mut T,
    ) -> Result<(), CoordinatorError> {
        let mut stuck_probes = 0u32;
        loop {
            if self.dispatch(transport)? {
                stuck_probes = 0;
            }
            if self.remaining == 0 {
                return Ok(());
            }
            if self.interrupted() {
                return Err(CoordinatorError::Interrupted {
                    accepted: self.accepted_new,
                });
            }
            if !(0..transport.worker_count()).any(|w| transport.usable(w)) {
                return self.serial_remainder();
            }

            let (wait, in_flight) = self.next_wait();
            // An hour bounds the wait of a sweep without deadlines; waking
            // early is harmless.
            match transport
                .recv_timeout(wait.clamp(Duration::from_millis(1), Duration::from_secs(3600)))
            {
                TransportPoll::Report(rep) => {
                    stuck_probes = 0;
                    self.handle_report(rep)?;
                }
                TransportPoll::Rejected { worker, ticket } => {
                    // A damaged assignment frame: the worker never saw
                    // the work. Requeue it like a lost worker's.
                    stuck_probes = 0;
                    self.stats.frames_rejected += 1;
                    self.retire(worker, ticket);
                    self.lose(ticket)?;
                }
                TransportPoll::Down { worker } => {
                    // Everything the worker held is lost with it.
                    stuck_probes = 0;
                    let lost = self.current.get_mut(worker).map(std::mem::take);
                    for ticket in lost.into_iter().flatten() {
                        self.lose(ticket)?;
                    }
                }
                TransportPoll::Timeout => {
                    if !self.expire()? && !in_flight {
                        stuck_probes += 1;
                        if stuck_probes >= 3 {
                            // Live-but-silent workers have had three
                            // full timeout windows; treat the fleet as
                            // lost and finish serially.
                            return self.serial_remainder();
                        }
                    }
                }
                // Every worker is permanently gone.
                TransportPoll::AllDown => return self.serial_remainder(),
            }
        }
    }

    /// Process one delivery: verify, settle, or retry.
    fn handle_report(&mut self, rep: WorkerReport<S::Record>) -> Result<(), CoordinatorError> {
        self.retire(rep.worker, (rep.task, rep.attempt));
        match rep.task {
            TaskId::Shard(shard) => {
                let i = shard as usize;
                if !matches!(
                    self.state[i],
                    ShardState::Running { .. } | ShardState::Queued { .. }
                ) {
                    // Already settled (duplicate delivery, or a stale
                    // delivery from a timed-out attempt).
                    self.stats.duplicates_dropped += 1;
                    return Ok(());
                }
                // A delivery for an open shard is welcome whichever
                // attempt produced it — determinism makes every valid
                // delivery byte-identical — provided it verifies.
                let spec = &self.shards[i];
                let expected = checkpoint::shard_hash::<S>(shard, spec.start, &rep.points);
                if rep.points.len() != spec.jobs.len() || rep.hash != expected {
                    self.stats.hash_rejects += 1;
                    return self.retry_shard(i);
                }
                if self.cfg.spot_check == 0 {
                    return self.accept(i, rep.points);
                }
                self.state[i] = ShardState::Held {
                    audit: Audit {
                        points: rep.points,
                        computed_by: rep.worker,
                        spot_attempt: 0,
                    },
                    ready_at: None,
                };
                Ok(())
            }
            TaskId::Spot(shard) => {
                let i = shard as usize;
                let audit = match self.take(i) {
                    ShardState::SpotRunning { audit, .. } => audit,
                    other => {
                        self.state[i] = other;
                        self.stats.duplicates_dropped += 1;
                        return Ok(());
                    }
                };
                let spot_len = self.cfg.spot_check.min(self.shards[i].jobs.len());
                let head_ok = rep.points.len() == spot_len
                    && encode_records::<S>(&rep.points)
                        == encode_records::<S>(&audit.points[..spot_len]);
                if head_ok {
                    self.stats.spot_checks_passed += 1;
                    return self.accept(i, audit.points);
                }
                // Two workers disagree bitwise: trust neither, recompute
                // the shard from scratch.
                self.retry_shard(i)
            }
        }
    }

    /// Graceful degradation: every worker is lost, so compute the
    /// remaining shards serially in shard order. Bytes are unaffected —
    /// the serial path runs the same pure solve per job.
    fn serial_remainder(&mut self) -> Result<(), CoordinatorError> {
        self.stats.serial_fallback = true;
        let mut worker = self.sweep.worker();
        let mut outcome: Result<(), CoordinatorError> = Ok(());
        for i in 0..self.shards.len() {
            let points = match self.take(i) {
                done @ ShardState::Done { .. } => {
                    self.state[i] = done;
                    continue;
                }
                // A hash-verified shard awaiting its spot check is kept;
                // the audit is skipped, not the verification.
                ShardState::Held { audit, .. } | ShardState::SpotRunning { audit, .. } => {
                    self.stats.spot_checks_skipped += 1;
                    audit.points
                }
                _ => self.shards[i]
                    .jobs
                    .iter()
                    .map(|job| self.sweep.solve(&mut worker, job))
                    .collect(),
            };
            let accepted = self.accept(i, points);
            if accepted.is_err() || self.interrupted() {
                outcome = accepted.and(Err(CoordinatorError::Interrupted {
                    accepted: self.accepted_new,
                }));
                break;
            }
        }
        outcome
    }

    /// Launch the configured fleet — never more workers than shards —
    /// and drive the event loop over it.
    fn launch(&mut self) -> Result<(), CoordinatorError> {
        let cfg = self.cfg;
        let sweep = self.sweep;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        }
        .min(self.shards.len());
        self.stats.workers = workers as u64;
        let plan = &cfg.fault_plan;
        // Stalls must overshoot the deadline, or they would be ordinary
        // slow deliveries rather than timeouts.
        let stall = cfg
            .shard_timeout
            .saturating_mul(2)
            .saturating_add(Duration::from_millis(20));
        match &cfg.transport {
            TransportKind::Threads => std::thread::scope(|scope| {
                let (rtx, rrx) = mpsc::channel();
                let slots: Vec<ThreadSlot<S::Job>> = (0..workers)
                    .map(|id| {
                        let (tx, rx) = mpsc::channel();
                        let rtx = rtx.clone();
                        scope.spawn(move || worker_loop(sweep, id, rx, rtx, plan, stall));
                        ThreadSlot { tx, alive: true }
                    })
                    .collect();
                drop(rtx);
                let mut transport = ThreadTransport {
                    slots,
                    rrx,
                    plan,
                    pending: VecDeque::new(),
                    counters: TransportCounters::default(),
                };
                self.drive(&mut transport)
            }),
            TransportKind::Process(pc) => {
                let mut spec = Enc::new();
                sweep
                    .process_spec(&mut spec)
                    .map_err(|reason| CoordinatorError::UnsupportedScenario { reason })?;
                let mut transport = crate::supervisor::ProcessTransport::<S>::launch(
                    spec.done(),
                    workers,
                    pc.clone(),
                    plan.clone(),
                    stall,
                )?;
                self.drive(&mut transport)
            }
        }
    }
}

impl Scenario {
    /// [`Scenario::sweep`] through the coordinator: shards the seeds
    /// across workers, hash-verifies and optionally spot-checks every
    /// shard, checkpoints accepted shards, and merges in canonical seed
    /// order. The merged [`SweepReport`] is **bitwise identical** to the
    /// serial sweep on any fleet, under any [`FaultPlan`] and across any
    /// kill/resume sequence. See the [module docs](crate::coordinator).
    pub fn coordinate<I: IntoIterator<Item = u64>>(
        &self,
        seeds: I,
        cfg: &CoordinatorConfig,
    ) -> Result<CoordinatorReport, CoordinatorError> {
        self.coordinate_grid(&SweepGrid::seeds(seeds), cfg)
    }

    /// [`Scenario::sweep_grid`] through the coordinator (models-major job
    /// order, exactly like the serial grid sweep). A grid that
    /// [`Scenario::validate_grid`] rejects is [`CoordinatorError::Grid`].
    pub fn coordinate_grid(
        &self,
        grid: &SweepGrid,
        cfg: &CoordinatorConfig,
    ) -> Result<CoordinatorReport, CoordinatorError> {
        self.validate_grid(grid).map_err(CoordinatorError::Grid)?;
        let jobs = Self::grid_jobs(grid);
        let cache = CacheStats::per_point(&self.source, jobs.len(), jobs.len());
        let (points, stats) = coordinate(self, jobs, cfg)?;
        Ok(CoordinatorReport {
            report: SweepReport {
                label: self.label.clone(),
                points,
                cache,
            },
            stats,
        })
    }
}

/// Hand the assignment `make` builds to a usable worker other than
/// `exclude` that has room — idle workers first, then second slots — and
/// record it in that worker's in-flight queue. The assignment is built
/// only once some worker has room. Returns whether a worker took it.
fn dispatch_to<S: Sweep, T: WorkerTransport<S>>(
    transport: &mut T,
    current: &mut [VecDeque<Ticket>],
    exclude: Option<usize>,
    make: impl Fn() -> Assignment<S::Job>,
) -> bool {
    let mut assignment: Option<Assignment<S::Job>> = None;
    for depth in 0..IN_FLIGHT_DEPTH {
        for (w, queue) in current.iter_mut().enumerate() {
            if Some(w) == exclude || queue.len() != depth || !transport.usable(w) {
                continue;
            }
            let a = assignment.get_or_insert_with(&make);
            if transport.try_send(w, a) {
                queue.push_back(a.ticket());
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Job;
    use mlf_core::allocator::MultiRate;

    type Point = <Scenario as Sweep>::Record;

    /// One scripted fleet event, fired at the next poll.
    enum Step {
        /// The worker dies with everything it holds and comes back empty,
        /// like a respawned process.
        Down(usize),
        /// The worker rejects the `k`-th assignment it holds, unread.
        Reject(usize, usize),
        /// The worker serves its oldest assignment and delivers the
        /// report twice.
        Duplicate(usize),
    }

    /// A deterministic in-process fleet for exact scheduling checks.
    /// Scripted steps fire first, one per poll; after that, workers
    /// serve their oldest assignment in turn, one report per poll. It
    /// panics when a worker is handed more than `IN_FLIGHT_DEPTH`
    /// assignments, or a spot check of a shard it computed.
    struct Scripted<'s> {
        scenario: &'s Scenario,
        workers: Vec<WorkerState<Scenario>>,
        held: Vec<VecDeque<Assignment<Job>>>,
        script: VecDeque<Step>,
        replay: Option<WorkerReport<Point>>,
        turn: usize,
        /// Per shard, the worker whose delivery of it was last served.
        computed_by: Vec<Option<usize>>,
        /// Every assignment sent, in order.
        sent: Vec<(usize, Ticket)>,
    }

    impl<'s> Scripted<'s> {
        fn new(scenario: &'s Scenario, workers: usize, shards: usize, script: Vec<Step>) -> Self {
            Scripted {
                scenario,
                workers: (0..workers).map(|_| WorkerState::new(scenario)).collect(),
                held: vec![VecDeque::new(); workers],
                script: script.into(),
                replay: None,
                turn: 0,
                computed_by: vec![None; shards],
                sent: Vec::new(),
            }
        }

        fn serve(&mut self, w: usize) -> WorkerReport<Point> {
            let a = self.held[w].pop_front().expect("the worker holds work");
            if let TaskId::Shard(i) = a.task {
                self.computed_by[i as usize] = Some(w);
            }
            let plan = FaultPlan::none();
            let (report, _) = self.workers[w]
                .serve(self.scenario, w, &a, &plan, Duration::ZERO)
                .expect("no faults are armed");
            report
        }
    }

    impl WorkerTransport<Scenario> for Scripted<'_> {
        fn worker_count(&self) -> usize {
            self.held.len()
        }

        fn usable(&self, _worker: usize) -> bool {
            true
        }

        fn try_send(&mut self, worker: usize, assignment: &Assignment<Job>) -> bool {
            assert!(
                self.held[worker].len() < IN_FLIGHT_DEPTH,
                "worker {worker} handed more than {IN_FLIGHT_DEPTH} assignments"
            );
            if let TaskId::Spot(i) = assignment.task {
                assert_ne!(self.computed_by[i as usize], Some(worker), "self-audit");
            }
            self.held[worker].push_back(assignment.clone());
            self.sent.push((worker, assignment.ticket()));
            true
        }

        fn recv_timeout(&mut self, wait: Duration) -> TransportPoll<Point> {
            if let Some(report) = self.replay.take() {
                return TransportPoll::Report(report);
            }
            match self.script.pop_front() {
                Some(Step::Down(w)) => {
                    self.held[w].clear();
                    return TransportPoll::Down { worker: w };
                }
                Some(Step::Reject(w, k)) => {
                    let a = self.held[w].remove(k).expect("the worker holds k+1 tasks");
                    return TransportPoll::Rejected {
                        worker: w,
                        ticket: a.ticket(),
                    };
                }
                Some(Step::Duplicate(w)) => {
                    let report = self.serve(w);
                    self.replay = Some(report.clone());
                    return TransportPoll::Report(report);
                }
                None => {}
            }
            let n = self.held.len();
            for k in 0..n {
                let w = (self.turn + k) % n;
                if !self.held[w].is_empty() {
                    self.turn = w + 1;
                    return TransportPoll::Report(self.serve(w));
                }
            }
            // Idle: work waits on a backoff.
            std::thread::sleep(wait);
            TransportPoll::Timeout
        }

        fn shutdown(&mut self) {}

        fn counters(&self) -> TransportCounters {
            TransportCounters::default()
        }
    }

    /// How many times `ticket` was sent.
    fn times(sent: &[(usize, Ticket)], ticket: Ticket) -> usize {
        sent.iter().filter(|&&(_, t)| t == ticket).count()
    }

    fn scripted_scenario() -> Scenario {
        Scenario::builder()
            .label("scripted")
            .random_networks(14, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .expect("valid scenario spec")
    }

    /// Run seeds `0..8` as one-job shards on a two-worker scripted fleet,
    /// and check the merged bytes against the serial sweep.
    fn scripted_run(
        spot_check: usize,
        script: Vec<Step>,
    ) -> (CoordinatorStats, Vec<(usize, Ticket)>) {
        let scenario = scripted_scenario();
        let cfg = CoordinatorConfig {
            shard_size: 1,
            spot_check,
            shard_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
            ..CoordinatorConfig::default()
        };
        let jobs: Vec<Job> = (0..8).map(|seed| (None, seed)).collect();
        let mut run = Run::new(&scenario, &jobs, &cfg).expect("no checkpoint to load");
        let mut fleet = Scripted::new(&scenario, 2, jobs.len(), script);
        run.drive(&mut fleet).expect("the scripted run merges");
        let sent = fleet.sent;
        let (points, stats) = run.finish();
        let serial = scripted_scenario().sweep(0..8);
        assert_eq!(points.len(), serial.points.len());
        for (got, want) in points.iter().zip(&serial.points) {
            assert_eq!(
                checkpoint::encode_point(got),
                checkpoint::encode_point(want)
            );
        }
        // Every task the fleet drops is requeued at once: none waits out
        // its deadline.
        assert_eq!(stats.timeouts, 0, "{stats:?}");
        assert!(!stats.serial_fallback);
        (stats, sent)
    }

    /// The first dispatch pass fills idle workers first, then second
    /// slots: worker 0 holds shards 0 and 2, worker 1 shards 1 and 3.
    #[test]
    fn dispatch_fills_idle_workers_before_second_slots() {
        let (_, sent) = scripted_run(0, Vec::new());
        let first: Vec<(usize, Ticket)> = sent[..4].to_vec();
        let shard = |i| (TaskId::Shard(i), 0);
        assert_eq!(
            first,
            vec![(0, shard(0)), (1, shard(1)), (0, shard(2)), (1, shard(3))]
        );
    }

    #[test]
    fn a_lost_worker_requeues_every_assignment_it_held() {
        let (stats, sent) = scripted_run(0, vec![Step::Down(0)]);
        assert_eq!(stats.retries, 2, "{stats:?}");
        for i in [0, 2] {
            assert_eq!(
                times(&sent, (TaskId::Shard(i), 1)),
                1,
                "shard {i} is resent"
            );
        }
        for i in [1, 3] {
            assert_eq!(
                times(&sent, (TaskId::Shard(i), 1)),
                0,
                "shard {i} was not lost"
            );
        }
    }

    #[test]
    fn a_rejection_requeues_the_task_it_names() {
        // Worker 0 holds shards 0 and 2 and rejects the second.
        let (stats, sent) = scripted_run(0, vec![Step::Reject(0, 1)]);
        assert_eq!((stats.frames_rejected, stats.retries), (1, 1), "{stats:?}");
        assert_eq!(
            times(&sent, (TaskId::Shard(2), 1)),
            1,
            "the rejected task is resent"
        );
        assert_eq!(times(&sent, (TaskId::Shard(0), 1)), 0, "the head is not");
    }

    #[test]
    fn a_duplicate_of_a_retired_task_is_dropped_and_counted() {
        // The copy must not retire worker 0's other assignment, or the
        // worker would be handed a third (the fleet panics on that).
        let (stats, _) = scripted_run(1, vec![Step::Duplicate(0)]);
        assert_eq!(stats.duplicates_dropped, 1, "{stats:?}");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.spot_checks_passed, 8);
    }

    /// A toy sweep: job `j` solves to `j * j`, job 13 panics, and job 7
    /// sleeps past the default shard deadline when `slow` is set. It
    /// counts the workers it equips.
    #[derive(Default)]
    struct Squares {
        slow: bool,
        workers: std::sync::atomic::AtomicUsize,
    }

    impl Sweep for Squares {
        type Job = u64;
        type Record = u64;
        type Worker = ();
        const INIT_FRAME: u8 = 0;
        const JOB_BYTES: usize = 8;
        const RECORD_BYTES: usize = 8;

        fn encode_job(job: &u64, e: &mut Enc) {
            e.u64(*job);
        }
        fn decode_job(d: &mut Dec<'_>) -> Result<u64, String> {
            d.u64()
        }
        fn encode_record(record: &u64, e: &mut Enc) {
            e.u64(*record);
        }
        fn decode_record(d: &mut Dec<'_>) -> Result<u64, String> {
            d.u64()
        }
        fn worker(&self) {
            self.workers
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn solve(&self, _: &mut (), &job: &u64) -> u64 {
            assert_ne!(job, 13, "job 13 panics");
            if self.slow && job == 7 {
                std::thread::sleep(Duration::from_millis(2100));
            }
            job * job
        }
        fn identity(&self, h: &mut Fnv1a) {
            h.write(b"squares");
        }
        fn process_spec(&self, _: &mut Enc) -> Result<(), String> {
            Err("squares run on threads only".to_string())
        }
        fn from_spec(_: &mut Dec<'_>) -> Result<Self, String> {
            Err("squares run on threads only".to_string())
        }
    }

    fn squares(sweep: &Squares, jobs: std::ops::Range<u64>, n: usize) -> Vec<u64> {
        let (records, stats) = coordinate(sweep, jobs.collect(), &CoordinatorConfig::threads(n))
            .expect("thread sweeps succeed");
        assert_eq!((stats.retries, stats.timeouts), (0, 0), "{stats:?}");
        assert!(!stats.serial_fallback);
        let equipped = sweep.workers.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(stats.workers as usize, equipped);
        records
    }

    #[test]
    fn thread_sweeps_run_every_requested_worker_up_to_one_per_job() {
        for (jobs, workers) in [(0..5, 5), (0..12, 8), (20..44, 8)] {
            let sweep = Squares::default();
            let want: Vec<u64> = jobs.clone().map(|j| j * j).collect();
            assert_eq!(squares(&sweep, jobs, 8), want);
            assert_eq!(sweep.workers.into_inner(), workers);
        }
        let empty = Squares::default();
        assert!(squares(&empty, 0..0, 4).is_empty());
        assert_eq!(empty.workers.into_inner(), 0, "no shards, no workers");
    }

    /// A shard that runs past the default 2 s deadline is neither
    /// retried nor failed: thread sweeps have no deadline, and the
    /// deadline arithmetic cannot overflow.
    #[test]
    fn thread_sweeps_never_time_out_a_slow_shard() {
        assert_eq!(CoordinatorConfig::threads(2).shard_timeout, Duration::MAX);
        let sweep = Squares {
            slow: true,
            ..Squares::default()
        };
        let want: Vec<u64> = (0..12).map(|j| j * j).collect();
        assert_eq!(squares(&sweep, 0..12, 2), want);
    }

    #[test]
    fn a_panicking_solve_reaches_the_caller_as_a_panic() {
        for n in [1, 2, 8] {
            let sweep = Squares::default();
            let run = std::panic::AssertUnwindSafe(|| squares(&sweep, 0..40, n));
            let payload = std::panic::catch_unwind(run).expect_err("the solve panics");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(message.contains("job 13 panics"), "{message}");
        }
    }

    #[test]
    fn fault_plans_are_deterministic_in_their_seed() {
        for seed in 0..8 {
            let a = FaultPlan::from_seed(seed, 4, 16);
            let b = FaultPlan::from_seed(seed, 4, 16);
            assert_eq!(a, b);
        }
        // At most one event per shard.
        let plan = FaultPlan::from_seed(3, 4, 64);
        let mut shards: Vec<u64> = plan.events().iter().map(|e| e.shard).collect();
        shards.dedup();
        assert_eq!(shards.len(), plan.events().len());
        // Different seeds disagree somewhere across a few draws.
        assert!((0..8).any(|s| FaultPlan::from_seed(s, 4, 64) != plan));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = CoordinatorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
            ..CoordinatorConfig::default()
        };
        assert_eq!(backoff(&cfg, 1), Duration::from_millis(10));
        assert_eq!(backoff(&cfg, 2), Duration::from_millis(20));
        assert_eq!(backoff(&cfg, 3), Duration::from_millis(40));
        assert_eq!(backoff(&cfg, 4), Duration::from_millis(70));
        assert_eq!(backoff(&cfg, 30), Duration::from_millis(70));
    }
}
