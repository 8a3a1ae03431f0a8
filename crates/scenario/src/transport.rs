//! The process-transport wire protocol and worker entry point.
//!
//! The [coordinator](crate::coordinator) can run its fleet either as
//! in-process threads or as supervised **child processes** that self-exec
//! the current binary (see [`maybe_run_process_worker`]) and speak a
//! versioned binary frame protocol over stdin/stdout.
//! This module owns that seam: the frame types, the typed
//! [`TransportError`] taxonomy, the `ScenarioSpec` a scenario ships to
//! a worker process, the worker-side loop (`run_stdio_worker`), and the
//! `WorkerTransport` abstraction the coordinator drives — implemented
//! by the in-process thread transport in `coordinator` and by the
//! process supervisor in `supervisor`.
//!
//! # Frames
//!
//! Every frame is one record of the crate's checksummed record codec
//! (`crate::record`, shared with the checkpoint file): [`MAGIC`],
//! [`PROTOCOL_VERSION`], a type byte, a header-checksummed length, the
//! payload, and an FNV-1a checksum over everything before it. Payloads
//! reuse the canonical 66-byte point encoding
//! ([`crate::checkpoint::encode_point`]) — a point crosses the process
//! boundary in exactly the bytes the shard hashes and the checkpoint file
//! speak, which is what keeps the process transport inside the bitwise
//! differential.
//!
//! # Error taxonomy and resync
//!
//! [`TransportError`] distinguishes damage classes because they demand
//! different reactions: a [`ChecksumMismatch`](TransportError::ChecksumMismatch),
//! [`UnknownFrameType`](TransportError::UnknownFrameType) or
//! [`Malformed`](TransportError::Malformed) payload arrives on an intact
//! *framing* layer (the verified header said how long the frame is), so
//! the reader can skip the frame and resync on the next one — the worker
//! answers with a `Reject` frame and the coordinator requeues. Truncation,
//! bad magic, version skew, and a bad header mean the stream itself cannot
//! be trusted; the worker exits and the supervisor respawns it.
//!
//! # Determinism
//!
//! A worker process computes points with the same pure
//! `sweep_point_with` the threads use, over a `ScenarioSpec` that
//! round-trips every solve-relevant knob (scenarios that *cannot* be
//! shipped faithfully — fixed networks, explicit per-session link-rate
//! configs, unregistered allocators — are rejected up front with
//! [`CoordinatorError::UnsupportedScenario`](crate::coordinator::CoordinatorError::UnsupportedScenario)
//! rather than approximated). Fault injection riding the same seeded
//! [`FaultPlan`] on both sides keeps chaos runs reproducible.

use crate::cache::CacheStats;
use crate::checkpoint::{decode_point, encode_point, model_code, model_from_code, POINT_BYTES};
use crate::coordinator::{
    Assignment, FaultEvent, FaultKind, FaultPlan, Job, TaskId, Ticket, WorkerReport, WorkerState,
};
use crate::record::{self, Dec, Enc};
use crate::{LinkRates, NetworkSource, Scenario};
use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SingleRate, Unicast, Weighted};
use mlf_core::LinkRateModel;
use mlf_net::TopologyFamily;
use std::io::{Read, Write};
use std::time::Duration;

/// Magic prefix of every record: frames and checkpoint records alike.
pub const MAGIC: [u8; 4] = *b"MLFW";

/// Record-codec version spoken (and required) by this build. A
/// coordinator and a worker from different generations refuse each other
/// with [`TransportError::VersionSkew`] instead of misparsing; a
/// checkpoint from another generation is refused the same way.
// mlf-lint: allow(unused-pub, reason = "documented wire-protocol surface; referenced by ARCHITECTURE.md")
pub const PROTOCOL_VERSION: u16 = 2;

const FRAME_INIT: u8 = 1;
const FRAME_ASSIGN: u8 = 2;
const FRAME_REPORT: u8 = 3;
const FRAME_REJECT: u8 = 4;
const FRAME_SHUTDOWN: u8 = 5;

/// Environment marker a worker child process is launched with.
pub(crate) const WORKER_ENV: &str = "MLF_PROCESS_WORKER";
/// Argument marker a worker child process is launched with (cosmetic —
/// the env var is what arms [`maybe_run_process_worker`], the argument
/// makes worker processes identifiable in `ps`).
pub(crate) const WORKER_ARG: &str = "--mlf-process-worker";

/// Why a frame could not be read, written, or trusted.
// mlf-lint: allow(unused-pub, reason = "carried by CoordinatorError::Transport so callers can match on launch failures")
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the frame needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The peer speaks a different protocol generation.
    VersionSkew {
        /// The version on the wire.
        wire: u16,
        /// The version this build supports.
        supported: u16,
    },
    /// The header checksum failed or the length field exceeds the cap:
    /// the frame's extent cannot be trusted.
    BadHeader {
        /// What was wrong.
        reason: String,
    },
    /// The frame checksum did not verify (bytes were damaged in flight).
    ChecksumMismatch {
        /// The checksum stored in the frame.
        stored: u64,
        /// The checksum computed over the received bytes.
        computed: u64,
    },
    /// An intact frame of a type this build does not know.
    UnknownFrameType {
        /// The unknown type byte.
        tag: u8,
    },
    /// The frame payload did not decode as its type.
    Malformed {
        /// What was wrong.
        reason: String,
    },
    /// An OS-level read or write failed.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The OS error, stringified.
        message: String,
    },
}

impl TransportError {
    /// Whether the framing layer stayed intact (the reader consumed a
    /// whole frame and can continue with the next one). See the
    /// [module docs](self) on resync.
    pub(crate) fn resyncable(&self) -> bool {
        matches!(
            self,
            TransportError::ChecksumMismatch { .. }
                | TransportError::UnknownFrameType { .. }
                | TransportError::Malformed { .. }
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Truncated { expected, got } => {
                write!(f, "frame truncated: needed {expected} bytes, got {got}")
            }
            TransportError::BadMagic { got } => {
                write!(f, "bad frame magic {got:02x?}")
            }
            TransportError::VersionSkew { wire, supported } => write!(
                f,
                "protocol version skew: wire speaks v{wire}, this build supports v{supported}"
            ),
            TransportError::BadHeader { reason } => write!(f, "bad frame header: {reason}"),
            TransportError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored 0x{stored:016x}, computed 0x{computed:016x}"
            ),
            TransportError::UnknownFrameType { tag } => {
                write!(f, "unknown frame type {tag}")
            }
            TransportError::Malformed { reason } => {
                write!(f, "malformed frame payload: {reason}")
            }
            TransportError::Io { op, message } => {
                write!(f, "transport {op} failed: {message}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One message of the coordinator ↔ worker-process protocol.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// Coordinator → worker, once per process: who you are and what
    /// scenario you compute.
    Init(WorkerInit),
    /// Coordinator → worker: compute one shard or spot check.
    Assign(Assignment),
    /// Worker → coordinator: a computed shard or spot check.
    Report(WorkerReport),
    /// Worker → coordinator: the last frame could not be honored (damaged
    /// in flight, or arrived out of protocol); the sender should requeue.
    Reject {
        /// Why the frame was rejected.
        message: String,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
}

/// Everything a freshly spawned worker process needs before its first
/// assignment.
#[derive(Debug, Clone)]
pub(crate) struct WorkerInit {
    /// The worker's slot index in the fleet.
    pub(crate) worker: usize,
    /// How long a [`FaultKind::Stall`] sleeps.
    pub(crate) stall: Duration,
    /// The seeded fault schedule (workers self-inject compute-side
    /// faults; the supervisor injects wire-side faults).
    pub(crate) plan: FaultPlan,
    /// The scenario to rebuild and compute.
    pub(crate) spec: ScenarioSpec,
}

/// The shippable identity of a scenario: every knob that can change a
/// sweep point's bytes, in a form a worker process can rebuild with
/// [`ScenarioSpec::build_scenario`]. Produced by `Scenario::process_spec`,
/// which rejects scenarios that cannot be shipped faithfully.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioSpec {
    pub(crate) label: String,
    pub(crate) family: TopologyFamily,
    pub(crate) nodes: usize,
    pub(crate) sessions: usize,
    pub(crate) max_receivers: usize,
    /// `None` = [`LinkRates::Efficient`], `Some(m)` = uniform model `m`.
    pub(crate) link_model: Option<LinkRateModel>,
    pub(crate) allocator: AllocatorCode,
    pub(crate) check_properties: bool,
    pub(crate) cache_points: usize,
    pub(crate) cache_networks: usize,
}

/// The registry of allocator configurations the process transport can
/// ship by name. Membership is decided by *signature equality*: a
/// scenario's allocator maps to a code only if a fresh instance of that
/// registry entry states the identical
/// [`cache_signature`](Allocator::cache_signature), so a worker process
/// provably rebuilds the same solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AllocatorCode {
    MultiRate,
    SingleRate,
    HybridDeclared,
    WeightedUniform,
    Unicast,
}

impl AllocatorCode {
    const ALL: [AllocatorCode; 5] = [
        AllocatorCode::MultiRate,
        AllocatorCode::SingleRate,
        AllocatorCode::HybridDeclared,
        AllocatorCode::WeightedUniform,
        AllocatorCode::Unicast,
    ];

    fn instantiate(self) -> Box<dyn Allocator> {
        match self {
            AllocatorCode::MultiRate => Box::new(MultiRate::new()),
            AllocatorCode::SingleRate => Box::new(SingleRate::new()),
            AllocatorCode::HybridDeclared => Box::new(Hybrid::as_declared()),
            AllocatorCode::WeightedUniform => Box::new(Weighted::uniform()),
            AllocatorCode::Unicast => Box::new(Unicast::new()),
        }
    }
}

fn allocator_code(a: &dyn Allocator) -> Option<AllocatorCode> {
    let sig = a.cache_signature()?;
    AllocatorCode::ALL
        .into_iter()
        .find(|code| code.instantiate().cache_signature().as_deref() == Some(sig.as_str()))
}

impl ScenarioSpec {
    /// Rebuild the scenario this spec describes (worker-process side).
    pub(crate) fn build_scenario(&self) -> Result<Scenario, String> {
        let builder = Scenario::builder()
            .label(self.label.clone())
            .random_networks_with(self.family, self.nodes, self.sessions, self.max_receivers)
            .link_rates(match self.link_model {
                None => LinkRates::Efficient,
                Some(m) => LinkRates::Uniform(m),
            })
            .check_properties(self.check_properties)
            .cache_capacity(self.cache_points, self.cache_networks);
        let builder = match self.allocator {
            AllocatorCode::MultiRate => builder.allocator(MultiRate::new()),
            AllocatorCode::SingleRate => builder.allocator(SingleRate::new()),
            AllocatorCode::HybridDeclared => builder.allocator(Hybrid::as_declared()),
            AllocatorCode::WeightedUniform => builder.allocator(Weighted::uniform()),
            AllocatorCode::Unicast => builder.allocator(Unicast::new()),
        };
        builder.build().map_err(|e| e.to_string())
    }
}

impl Scenario {
    /// The `ScenarioSpec` a worker process rebuilds this scenario from,
    /// or the reason it cannot be shipped. Only scenarios whose every
    /// solve-relevant knob round-trips are eligible — anything else would
    /// silently break the bitwise differential, so it is rejected here.
    /// (Layering and reporting knobs never reach a sweep point's bytes —
    /// nothing outside the solve key and the scenario digest does — so
    /// they are not shipped.)
    pub(crate) fn process_spec(&self) -> Result<ScenarioSpec, String> {
        let NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        } = &self.source
        else {
            return Err(
                "process transport needs a random-network scenario; a fixed network \
                 cannot be shipped to a worker process"
                    .to_string(),
            );
        };
        let link_model = match &self.link_rates {
            LinkRates::Efficient => None,
            LinkRates::Uniform(m) => Some(*m),
            LinkRates::Explicit(_) => {
                return Err(
                    "explicit per-session link-rate configs cannot be shipped to a \
                     worker process"
                        .to_string(),
                )
            }
        };
        let allocator = allocator_code(self.allocator.as_ref()).ok_or_else(|| {
            format!(
                "allocator {:?} is not in the process-transport registry \
                 (no registry entry states its cache signature)",
                self.allocator.name()
            )
        })?;
        Ok(ScenarioSpec {
            label: self.label.clone(),
            family: *family,
            nodes: *nodes,
            sessions: *sessions,
            max_receivers: *max_receivers,
            link_model,
            allocator,
            check_properties: self.check_properties,
            cache_points: self.cache_points,
            cache_networks: self.cache_networks,
        })
    }
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

fn fault_code(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::CrashWorker => 0,
        FaultKind::Stall => 1,
        FaultKind::CorruptHash => 2,
        FaultKind::DuplicateShard => 3,
        FaultKind::KillProcess => 4,
        FaultKind::TornFrame => 5,
    }
}

fn fault_from_code(code: u8) -> Result<FaultKind, String> {
    match code {
        0 => Ok(FaultKind::CrashWorker),
        1 => Ok(FaultKind::Stall),
        2 => Ok(FaultKind::CorruptHash),
        3 => Ok(FaultKind::DuplicateShard),
        4 => Ok(FaultKind::KillProcess),
        5 => Ok(FaultKind::TornFrame),
        t => Err(format!("unknown fault kind {t}")),
    }
}

fn task_code(task: TaskId) -> (u8, u64) {
    match task {
        TaskId::Shard(i) => (0, i),
        TaskId::Spot(i) => (1, i),
    }
}

fn task_from_code(kind: u8, index: u64) -> Result<TaskId, String> {
    match kind {
        0 => Ok(TaskId::Shard(index)),
        1 => Ok(TaskId::Spot(index)),
        t => Err(format!("unknown task kind {t}")),
    }
}

fn encode_init(e: &mut Enc, init: &WorkerInit) {
    e.u32(init.worker as u32);
    e.u64(init.stall.as_nanos() as u64);
    e.u32(init.plan.events().len() as u32);
    for ev in init.plan.events() {
        e.u8(fault_code(ev.kind));
        e.u32(ev.worker as u32);
        e.u64(ev.shard);
    }
    let spec = &init.spec;
    e.str(&spec.label);
    let (ftag, fparam): (u8, u64) = match spec.family {
        TopologyFamily::FlatTree => (0, 0),
        TopologyFamily::KaryTree { arity } => (1, arity as u64),
        TopologyFamily::TransitStub { transit } => (2, transit as u64),
        TopologyFamily::Dumbbell => (3, 0),
    };
    e.u8(ftag);
    e.u64(fparam);
    e.u64(spec.nodes as u64);
    e.u64(spec.sessions as u64);
    e.u64(spec.max_receivers as u64);
    let (mtag, mbits) = model_code(spec.link_model);
    e.u8(mtag);
    e.u64(mbits);
    e.u8(fault_code_allocator(spec.allocator));
    e.u8(u8::from(spec.check_properties));
    e.u64(spec.cache_points as u64);
    e.u64(spec.cache_networks as u64);
}

fn fault_code_allocator(code: AllocatorCode) -> u8 {
    match code {
        AllocatorCode::MultiRate => 0,
        AllocatorCode::SingleRate => 1,
        AllocatorCode::HybridDeclared => 2,
        AllocatorCode::WeightedUniform => 3,
        AllocatorCode::Unicast => 4,
    }
}

fn allocator_from_code(code: u8) -> Result<AllocatorCode, String> {
    match code {
        0 => Ok(AllocatorCode::MultiRate),
        1 => Ok(AllocatorCode::SingleRate),
        2 => Ok(AllocatorCode::HybridDeclared),
        3 => Ok(AllocatorCode::WeightedUniform),
        4 => Ok(AllocatorCode::Unicast),
        t => Err(format!("unknown allocator code {t}")),
    }
}

fn decode_init(payload: &[u8]) -> Result<WorkerInit, String> {
    let mut d = Dec(payload);
    let worker = d.u32()? as usize;
    let stall = Duration::from_nanos(d.u64()?);
    // kind u8 + worker u32 + shard u64 per event.
    let nevents = d.count(13)?;
    let mut events = Vec::with_capacity(nevents);
    for _ in 0..nevents {
        let kind = fault_from_code(d.u8()?)?;
        let worker = d.u32()? as usize;
        let shard = d.u64()?;
        events.push(FaultEvent {
            kind,
            worker,
            shard,
        });
    }
    let label = d.str()?;
    let ftag = d.u8()?;
    let fparam = d.u64()?;
    let family = match ftag {
        0 => TopologyFamily::FlatTree,
        1 => TopologyFamily::KaryTree {
            arity: fparam as usize,
        },
        2 => TopologyFamily::TransitStub {
            transit: fparam as usize,
        },
        3 => TopologyFamily::Dumbbell,
        t => return Err(format!("unknown family tag {t}")),
    };
    let nodes = d.u64()? as usize;
    let sessions = d.u64()? as usize;
    let max_receivers = d.u64()? as usize;
    let mtag = d.u8()?;
    let mbits = d.u64()?;
    let link_model = model_from_code(mtag, mbits)?;
    let allocator = allocator_from_code(d.u8()?)?;
    let check_properties = d.u8()? != 0;
    let cache_points = d.u64()? as usize;
    let cache_networks = d.u64()? as usize;
    d.finish()?;
    Ok(WorkerInit {
        worker,
        stall,
        plan: FaultPlan::from_events(events),
        spec: ScenarioSpec {
            label,
            family,
            nodes,
            sessions,
            max_receivers,
            link_model,
            allocator,
            check_properties,
            cache_points,
            cache_networks,
        },
    })
}

fn encode_assign(e: &mut Enc, a: &Assignment) {
    let (tkind, tindex) = task_code(a.task);
    e.u8(tkind);
    e.u64(tindex);
    e.u32(a.attempt);
    e.u64(a.shard);
    e.u64(a.start);
    e.u32(a.jobs.len() as u32);
    for &(model, seed) in &a.jobs {
        let (tag, bits) = model_code(model);
        e.u8(tag);
        e.u64(bits);
        e.u64(seed);
    }
}

fn decode_assign(payload: &[u8]) -> Result<Assignment, String> {
    let mut d = Dec(payload);
    let tkind = d.u8()?;
    let tindex = d.u64()?;
    let task = task_from_code(tkind, tindex)?;
    let attempt = d.u32()?;
    let shard = d.u64()?;
    let start = d.u64()?;
    // model tag u8 + model bits u64 + seed u64 per job.
    let njobs = d.count(17)?;
    let mut jobs: Vec<Job> = Vec::with_capacity(njobs);
    for _ in 0..njobs {
        let tag = d.u8()?;
        let bits = d.u64()?;
        let seed = d.u64()?;
        jobs.push((model_from_code(tag, bits)?, seed));
    }
    d.finish()?;
    Ok(Assignment {
        task,
        attempt,
        shard,
        start,
        jobs,
    })
}

fn encode_report(e: &mut Enc, r: &WorkerReport) {
    e.u32(r.worker as u32);
    let (tkind, tindex) = task_code(r.task);
    e.u8(tkind);
    e.u64(tindex);
    e.u32(r.attempt);
    e.u64(r.hash);
    e.u64(r.cache.hits);
    e.u64(r.cache.misses);
    e.u64(r.cache.evictions);
    e.u32(r.points.len() as u32);
    for p in &r.points {
        e.bytes(&encode_point(p));
    }
}

fn decode_report(payload: &[u8]) -> Result<WorkerReport, String> {
    let mut d = Dec(payload);
    let worker = d.u32()? as usize;
    let tkind = d.u8()?;
    let tindex = d.u64()?;
    let task = task_from_code(tkind, tindex)?;
    let attempt = d.u32()?;
    let hash = d.u64()?;
    let cache = CacheStats {
        hits: d.u64()?,
        misses: d.u64()?,
        evictions: d.u64()?,
    };
    let npoints = d.count(POINT_BYTES)?;
    let mut points = Vec::with_capacity(npoints);
    for _ in 0..npoints {
        points.push(decode_point(d.take(POINT_BYTES)?)?);
    }
    d.finish()?;
    Ok(WorkerReport {
        worker,
        task,
        attempt,
        points,
        hash,
        cache,
    })
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

/// Serialize one frame as one record of the codec.
pub(crate) fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::new();
    let tag = match frame {
        Frame::Init(init) => {
            encode_init(&mut e, init);
            FRAME_INIT
        }
        Frame::Assign(a) => {
            encode_assign(&mut e, a);
            FRAME_ASSIGN
        }
        Frame::Report(r) => {
            encode_report(&mut e, r);
            FRAME_REPORT
        }
        Frame::Reject { message } => {
            e.str(message);
            FRAME_REJECT
        }
        Frame::Shutdown => FRAME_SHUTDOWN,
    };
    record::encode(tag, &e.done())
}

/// Write one frame and flush it.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), TransportError> {
    w.write_all(&frame_bytes(frame))
        .and_then(|_| w.flush())
        .map_err(|e| TransportError::Io {
            op: "write",
            message: e.to_string(),
        })
}

/// Read one frame. `Ok(None)` is a clean end of stream (EOF on a frame
/// boundary); EOF anywhere inside a frame is
/// [`TransportError::Truncated`]. Checksum and payload validation
/// failures consume the whole frame, so a
/// [resyncable](TransportError::resyncable) error leaves the reader on
/// the next frame boundary.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, TransportError> {
    let Some(rec) = record::read(r)? else {
        return Ok(None);
    };
    let payload = &rec.payload[..];
    let malformed = |reason: String| TransportError::Malformed { reason };
    let frame = match rec.kind {
        FRAME_INIT => Frame::Init(decode_init(payload).map_err(malformed)?),
        FRAME_ASSIGN => Frame::Assign(decode_assign(payload).map_err(malformed)?),
        FRAME_REPORT => Frame::Report(decode_report(payload).map_err(malformed)?),
        FRAME_REJECT => {
            let mut d = Dec(payload);
            let message = d.str().map_err(malformed)?;
            d.finish().map_err(malformed)?;
            Frame::Reject { message }
        }
        FRAME_SHUTDOWN => {
            if !payload.is_empty() {
                return Err(TransportError::Malformed {
                    reason: format!("shutdown frame carries {} payload bytes", payload.len()),
                });
            }
            Frame::Shutdown
        }
        tag => return Err(TransportError::UnknownFrameType { tag }),
    };
    Ok(Some(frame))
}

// ---------------------------------------------------------------------------
// Coordinator-side transport abstraction
// ---------------------------------------------------------------------------

/// What one poll of a transport produced.
#[derive(Debug)]
pub(crate) enum TransportPoll {
    /// A worker delivered a computed task.
    Report(WorkerReport),
    /// A worker rejected an assignment unread (damaged frame); requeue it.
    Rejected {
        /// The rejecting worker's slot.
        worker: usize,
        /// The assignment it rejected.
        ticket: Ticket,
    },
    /// A worker died; requeue every assignment it held.
    Down {
        /// The dead worker's slot.
        worker: usize,
    },
    /// Nothing arrived within the wait.
    Timeout,
    /// Every worker is permanently gone (the coordinator should fall back
    /// to the serial path).
    AllDown,
}

/// Counters a transport accumulates on behalf of
/// [`CoordinatorStats`](crate::coordinator::CoordinatorStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransportCounters {
    /// Workers found dead (send failed, reader saw EOF, heartbeat blown).
    pub(crate) workers_lost: u64,
    /// Worker processes respawned after a death.
    pub(crate) respawns: u64,
}

/// The worker-fleet boundary the coordinator drives. Implemented by the
/// in-process thread transport (`coordinator`) and the supervised
/// process fleet (`supervisor`); the coordinator's event loop is generic
/// over this trait, which is what makes thread mode and process mode the
/// *same* scheduling code — and therefore the same merged bytes.
pub(crate) trait WorkerTransport {
    /// Fleet size (slot indices are `0..worker_count()`).
    fn worker_count(&self) -> usize;
    /// Whether a slot can still (eventually) take work. A dead-but-
    /// respawnable process worker is usable; an exhausted one is not.
    fn usable(&self, worker: usize) -> bool;
    /// Try to hand `assignment` to `worker`. `false` means the worker
    /// cannot take it right now (busy respawning, channel gone); the
    /// coordinator will try another worker or wait.
    fn try_send(&mut self, worker: usize, assignment: &Assignment) -> bool;
    /// Wait up to `wait` for the next fleet event.
    fn recv_timeout(&mut self, wait: Duration) -> TransportPoll;
    /// Begin a clean shutdown (workers told to drain and exit; process
    /// children reaped).
    fn shutdown(&mut self);
    /// The counters accumulated so far.
    fn counters(&self) -> TransportCounters;
}

// ---------------------------------------------------------------------------
// Worker-process side
// ---------------------------------------------------------------------------

/// If this process was launched as a coordinator's worker child, run the
/// worker loop over stdin/stdout and **exit** — otherwise return
/// immediately. Binaries that can host process-transport sweeps (the
/// bench binaries, the chaos tests) call this first thing in `main`; the
/// supervisor launches workers by re-executing the current binary with
/// the marker environment set, so the self-exec lands here.
pub fn maybe_run_process_worker() {
    // mlf-lint: allow(ambient-entropy, reason = "the env marker only selects worker-child mode at process startup (a sanctioned process boundary, like the coordinator's deadline clock); computed bytes stay a pure function of the Init frame")
    let armed = matches!(std::env::var_os(WORKER_ENV), Some(v) if v == "1");
    if !armed {
        return;
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let code = run_stdio_worker(&mut stdin.lock(), &mut stdout.lock());
    std::process::exit(code);
}

/// The worker-process loop: read an `Init`, rebuild the scenario, then
/// serve `Assign` frames until `Shutdown` or EOF. Returns the process
/// exit code (0 clean, 2 protocol failure, 3 injected crash).
///
/// Fault semantics mirror the thread workers: `CrashWorker` and
/// `KillProcess` exit without replying (the supervisor additionally
/// SIGKILLs on `KillProcess` — whichever lands first, the coordinator
/// observes a dead worker), `Stall` sleeps past the shard deadline,
/// `CorruptHash` lies about the content hash, `DuplicateShard` delivers
/// twice. `TornFrame` is injected by the *supervisor* (it damages wire
/// bytes); this side merely rejects the damaged frame and resyncs.
pub(crate) fn run_stdio_worker<R: Read, W: Write>(input: &mut R, output: &mut W) -> i32 {
    let init = match read_frame(input) {
        Ok(Some(Frame::Init(init))) => init,
        Ok(None) => return 0,
        Ok(Some(_)) => {
            let _ = write_frame(
                output,
                &Frame::Reject {
                    message: "expected an Init frame first".to_string(),
                },
            );
            return 2;
        }
        Err(e) => {
            let _ = write_frame(
                output,
                &Frame::Reject {
                    message: e.to_string(),
                },
            );
            return 2;
        }
    };
    let scenario = match init.spec.build_scenario() {
        Ok(s) => s,
        Err(reason) => {
            let _ = write_frame(output, &Frame::Reject { message: reason });
            return 2;
        }
    };
    let mut worker = WorkerState::new(&scenario);
    loop {
        let a = match read_frame(input) {
            Ok(Some(Frame::Assign(a))) => a,
            Ok(Some(Frame::Shutdown)) | Ok(None) => return 0,
            Ok(Some(_)) => {
                let _ = write_frame(
                    output,
                    &Frame::Reject {
                        message: "unexpected frame (worker takes Assign/Shutdown)".to_string(),
                    },
                );
                continue;
            }
            Err(e) if e.resyncable() => {
                let _ = write_frame(
                    output,
                    &Frame::Reject {
                        message: e.to_string(),
                    },
                );
                continue;
            }
            Err(_) => return 2,
        };
        // An injected crash or kill exits without replying; the
        // supervisor's SIGKILL (for KillProcess) races this clean exit, and
        // either way the coordinator sees a dead worker and requeues.
        let Some((report, duplicate)) =
            worker.serve(&scenario, init.worker, &a, &init.plan, init.stall)
        else {
            return 3;
        };
        let report = Frame::Report(report);
        if duplicate && write_frame(output, &report).is_err() {
            return 2;
        }
        if write_frame(output, &report).is_err() {
            return 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::shard_content_hash;
    use crate::record::HEADER_BYTES;
    use crate::{ScenarioMetrics, SweepPoint};

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            label: "wire".to_string(),
            family: TopologyFamily::FlatTree,
            nodes: 12,
            sessions: 3,
            max_receivers: 3,
            link_model: Some(LinkRateModel::Scaled(2.0)),
            allocator: AllocatorCode::MultiRate,
            check_properties: true,
            cache_points: 64,
            cache_networks: 16,
        }
    }

    fn point(seed: u64) -> SweepPoint {
        SweepPoint {
            seed,
            model: Some(LinkRateModel::RandomJoin { sigma: 6.0 }),
            metrics: ScenarioMetrics {
                jain_index: 0.9,
                min_rate: -0.0,
                total_rate: f64::NAN,
                satisfaction: 0.5,
                iterations: 11,
            },
            properties_holding: Some(4),
        }
    }

    #[test]
    fn every_frame_type_round_trips() {
        let frames = vec![
            Frame::Init(WorkerInit {
                worker: 3,
                stall: Duration::from_millis(250),
                plan: FaultPlan::from_events(vec![
                    FaultEvent {
                        kind: FaultKind::TornFrame,
                        worker: 1,
                        shard: 4,
                    },
                    FaultEvent {
                        kind: FaultKind::KillProcess,
                        worker: 0,
                        shard: 2,
                    },
                ]),
                spec: spec(),
            }),
            Frame::Init(WorkerInit {
                worker: 0,
                stall: Duration::ZERO,
                plan: FaultPlan::none(),
                spec: ScenarioSpec {
                    family: TopologyFamily::TransitStub { transit: 3 },
                    link_model: None,
                    allocator: AllocatorCode::Unicast,
                    check_properties: false,
                    ..spec()
                },
            }),
            Frame::Assign(Assignment {
                task: TaskId::Spot(7),
                attempt: 2,
                shard: 7,
                start: 56,
                jobs: vec![(None, 1), (Some(LinkRateModel::Sum), 9)],
            }),
            Frame::Report(WorkerReport {
                worker: 1,
                task: TaskId::Shard(7),
                attempt: 0,
                points: vec![point(0), point(1)],
                hash: 0xdead_beef,
                cache: CacheStats {
                    hits: 1,
                    misses: 2,
                    evictions: 3,
                },
            }),
            Frame::Reject {
                message: "bad frame".to_string(),
            },
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&frame_bytes(f));
        }
        let mut cursor = &wire[..];
        for f in &frames {
            let got = read_frame(&mut cursor).unwrap().expect("frame present");
            // The codec is canonical, so byte equality of re-encodings is
            // full structural equality (and survives NaN metrics).
            assert_eq!(frame_bytes(&got), frame_bytes(f));
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn damaged_frames_are_classified() {
        let good = frame_bytes(&Frame::Reject {
            message: "x".to_string(),
        });

        let mut flipped = good.clone();
        let idx = HEADER_BYTES + 1;
        flipped[idx] ^= 0x20;
        let err = read_frame(&mut &flipped[..]).unwrap_err();
        assert!(
            matches!(err, TransportError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.resyncable());

        let mut magic = good.clone();
        magic[0] = b'X';
        let err = read_frame(&mut &magic[..]).unwrap_err();
        assert!(matches!(err, TransportError::BadMagic { .. }), "{err}");
        assert!(!err.resyncable());

        let mut skew = good.clone();
        skew[4] = 0xff;
        let err = read_frame(&mut &skew[..]).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::VersionSkew {
                    wire: 0x00ff,
                    supported: PROTOCOL_VERSION
                }
            ),
            "{err}"
        );

        let truncated = &good[..good.len() - 3];
        let err = read_frame(&mut &truncated[..]).unwrap_err();
        assert!(matches!(err, TransportError::Truncated { .. }), "{err}");
        let err = read_frame(&mut &good[..5]).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Truncated {
                    expected: HEADER_BYTES,
                    got: 5
                }
            ),
            "{err}"
        );

        // A flipped length byte fails the header checksum: the frame's
        // extent is unknown, so the stream cannot resync.
        let mut length = good.clone();
        length[7] ^= 0x01;
        let err = read_frame(&mut &length[..]).unwrap_err();
        assert!(matches!(err, TransportError::BadHeader { .. }), "{err}");
        assert!(!err.resyncable());

        // An unknown type with valid checksums: consumed whole, resyncable.
        let mut unknown = record::encode(99, &[]);
        unknown.extend_from_slice(&good);
        let mut cursor = &unknown[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(
            matches!(err, TransportError::UnknownFrameType { tag: 99 }),
            "{err}"
        );
        assert!(err.resyncable());
        assert!(
            matches!(read_frame(&mut cursor).unwrap(), Some(Frame::Reject { .. })),
            "reader resynced on the next frame"
        );
    }

    #[test]
    fn process_spec_round_trips_every_registered_allocator() {
        for code in AllocatorCode::ALL {
            let spec = ScenarioSpec {
                allocator: code,
                // Weighted/Unicast regimes reject non-efficient link rates.
                link_model: None,
                ..spec()
            };
            let scenario = spec.build_scenario().expect("spec builds");
            let back = scenario.process_spec().expect("spec ships");
            assert_eq!(back.allocator, code, "allocator registry round trip");
            assert_eq!(back.nodes, spec.nodes);
            assert_eq!(back.check_properties, spec.check_properties);
        }
    }

    #[test]
    fn fixed_networks_are_rejected() {
        let net = mlf_net::topology::random_network(0, 10, 3, 3).unwrap();
        let scenario = Scenario::builder().network(net).build().unwrap();
        assert!(scenario.process_spec().is_err());
    }

    #[test]
    fn stdio_worker_matches_sweep_bitwise() {
        let spec = spec();
        let mut scenario = spec.build_scenario().unwrap();
        let seeds: Vec<u64> = (0..6).collect();
        let expected = scenario.sweep(seeds.iter().copied());
        let jobs: Vec<Job> = seeds.iter().map(|&s| (None, s)).collect();

        let mut input = Vec::new();
        input.extend(frame_bytes(&Frame::Init(WorkerInit {
            worker: 0,
            stall: Duration::ZERO,
            plan: FaultPlan::none(),
            spec: spec.clone(),
        })));
        input.extend(frame_bytes(&Frame::Assign(Assignment {
            task: TaskId::Shard(0),
            attempt: 0,
            shard: 0,
            start: 0,
            jobs: jobs.clone(),
        })));
        // A torn frame mid-stream: the worker must reject and resync.
        let mut torn = frame_bytes(&Frame::Assign(Assignment {
            task: TaskId::Shard(1),
            attempt: 0,
            shard: 1,
            start: 6,
            jobs: jobs.clone(),
        }));
        torn[HEADER_BYTES] ^= 0x40;
        input.extend(torn);
        input.extend(frame_bytes(&Frame::Shutdown));

        let mut output = Vec::new();
        let code = run_stdio_worker(&mut &input[..], &mut output);
        assert_eq!(code, 0, "clean shutdown");

        let mut out = &output[..];
        let Some(Frame::Report(rep)) = read_frame(&mut out).unwrap() else {
            panic!("expected a report first");
        };
        assert_eq!(rep.worker, 0);
        assert_eq!(rep.task, TaskId::Shard(0));
        assert_eq!(rep.hash, shard_content_hash(0, 0, &rep.points));
        assert_eq!(
            (rep.cache.hits, rep.cache.misses),
            (0, 6),
            "the report carries its own cache delta"
        );
        let enc_got: Vec<_> = rep.points.iter().map(encode_point).collect();
        let enc_want: Vec<_> = expected.points.iter().map(encode_point).collect();
        assert_eq!(enc_got, enc_want, "process-side points bitwise equal");
        let Some(Frame::Reject { .. }) = read_frame(&mut out).unwrap() else {
            panic!("expected a reject for the torn frame");
        };
        assert!(read_frame(&mut out).unwrap().is_none());
    }
}
