//! The process-transport wire protocol and worker entry point.
//!
//! The [coordinator](crate::coordinator) can run its fleet either as
//! in-process threads or as supervised **child processes** that self-exec
//! the current binary (see [`maybe_run_process_worker`]) and speak a
//! versioned binary frame protocol over stdin/stdout.
//! This module owns that seam: the frame types, the typed
//! [`TransportError`] taxonomy, the spec a scenario ships to a worker
//! process, the worker-side loop (`run_stdio_worker`), and the
//! `WorkerTransport` abstraction the coordinator drives — implemented
//! by the in-process thread transport in `coordinator` and by the
//! process supervisor in `supervisor`. Frames are generic over the
//! coordinator's `Sweep`: the `Init` frame's type says which kind of
//! sweep a worker rebuilds (type 1 a [`Scenario`], type 6 a
//! [`ProtocolScenario`]), and jobs and records cross the wire in that
//! sweep's own canonical codec.
//!
//! # Frames
//!
//! Every frame is one record of the crate's checksummed record codec
//! (`crate::record`, shared with the checkpoint file): [`MAGIC`],
//! `PROTOCOL_VERSION`, a type byte, a header-checksummed length, the
//! payload, and an FNV-1a checksum over everything before it. A record
//! crosses the process boundary in exactly the bytes the shard hashes
//! and the checkpoint file speak, which is what keeps the process
//! transport inside the bitwise differential.
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
//! A worker process computes records with the same pure `solve` the
//! threads use, over a spec that round-trips every solve-relevant knob
//! (scenarios that *cannot* be shipped faithfully — fixed networks,
//! explicit per-session link-rate configs, unregistered allocators — are
//! rejected up front with
//! [`CoordinatorError::UnsupportedScenario`](crate::coordinator::CoordinatorError::UnsupportedScenario)
//! rather than approximated). Fault injection riding the same seeded
//! [`FaultPlan`] on both sides keeps chaos runs reproducible.

use crate::coordinator::{
    Assignment, FaultEvent, FaultKind, FaultPlan, Sweep, TaskId, Ticket, WorkerReport, WorkerState,
    FAULT_KINDS,
};
use crate::record::{self, Dec, Enc};
use crate::{ProtocolScenario, Scenario};
use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SingleRate, Unicast, Weighted};
use std::io::{Read, Write};
use std::time::Duration;

/// Magic prefix of every record: frames and checkpoint records alike.
pub const MAGIC: [u8; 4] = *b"MLFW";

/// Record-codec version spoken (and required) by this build. A
/// coordinator and a worker from different generations refuse each other
/// with [`TransportError::VersionSkew`] instead of misparsing; a
/// checkpoint from another generation is refused the same way.
pub(crate) const PROTOCOL_VERSION: u16 = 2;

/// `Init` frame of a [`Scenario`] sweep.
pub(crate) const FRAME_INIT: u8 = 1;
const FRAME_ASSIGN: u8 = 2;
const FRAME_REPORT: u8 = 3;
const FRAME_REJECT: u8 = 4;
const FRAME_SHUTDOWN: u8 = 5;
/// `Init` frame of a [`ProtocolScenario`] sweep.
pub(crate) const FRAME_INIT_PROTOCOL: u8 = 6;

/// Environment marker a worker child process is launched with.
pub(crate) const WORKER_ENV: &str = "MLF_PROCESS_WORKER";
/// Argument marker a worker child process is launched with (cosmetic —
/// the env var is what arms [`maybe_run_process_worker`], the argument
/// makes worker processes identifiable in `ps`).
pub(crate) const WORKER_ARG: &str = "--mlf-process-worker";

/// Why a frame could not be read, written, or trusted.
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
pub(crate) enum Frame<S: Sweep> {
    /// Coordinator → worker, once per process: who you are and what
    /// sweep you compute.
    Init(WorkerInit),
    /// Coordinator → worker: compute one shard or spot check.
    Assign(Assignment<S::Job>),
    /// Worker → coordinator: a computed shard or spot check.
    Report(WorkerReport<S::Record>),
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
    /// The frame type, which names the kind of sweep (`Sweep::INIT_FRAME`).
    pub(crate) kind: u8,
    /// The sweep's `Sweep::process_spec` bytes.
    pub(crate) spec: Vec<u8>,
}

/// The registry of allocator configurations the process transport can
/// ship by name. Membership is decided by *signature equality*: a
/// scenario's allocator maps to a code only if a fresh instance of that
/// registry entry states the identical
/// [`signature`](Allocator::signature), so a worker process
/// provably rebuilds the same solve. The code is the entry's index.
pub(crate) const ALLOCATORS: [fn() -> Box<dyn Allocator>; 5] = [
    || Box::new(MultiRate::new()),
    || Box::new(SingleRate::new()),
    || Box::new(Hybrid::as_declared()),
    || Box::new(Weighted::uniform()),
    || Box::new(Unicast::new()),
];

pub(crate) fn allocator_code(a: &dyn Allocator) -> Option<u8> {
    let sig = a.signature();
    (0..ALLOCATORS.len())
        .find(|&i| ALLOCATORS[i]().signature() == sig)
        .map(|i| i as u8)
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

fn fault_from_code(code: u8) -> Result<FaultKind, String> {
    let kind = FAULT_KINDS.get(usize::from(code)).copied();
    kind.ok_or_else(|| format!("unknown fault kind {code}"))
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
        // The wire code is the kind's index in `FAULT_KINDS`.
        e.u8(ev.kind as u8);
        e.u32(ev.worker as u32);
        e.u64(ev.shard);
    }
    e.bytes(&init.spec);
}

fn decode_init(kind: u8, payload: &[u8]) -> Result<WorkerInit, String> {
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
    Ok(WorkerInit {
        worker,
        stall,
        plan: FaultPlan::from_events(events),
        kind,
        spec: d.0.to_vec(),
    })
}

fn encode_assign<S: Sweep>(e: &mut Enc, a: &Assignment<S::Job>) {
    let (tkind, tindex) = task_code(a.task);
    e.u8(tkind);
    e.u64(tindex);
    e.u32(a.attempt);
    e.u64(a.shard);
    e.u64(a.start);
    e.u32(a.jobs.len() as u32);
    for job in &a.jobs {
        S::encode_job(job, e);
    }
}

fn decode_assign<S: Sweep>(payload: &[u8]) -> Result<Assignment<S::Job>, String> {
    let mut d = Dec(payload);
    let tkind = d.u8()?;
    let tindex = d.u64()?;
    let task = task_from_code(tkind, tindex)?;
    let attempt = d.u32()?;
    let shard = d.u64()?;
    let start = d.u64()?;
    let njobs = d.count(S::JOB_BYTES)?;
    let jobs = (0..njobs)
        .map(|_| S::decode_job(&mut d))
        .collect::<Result<Vec<_>, _>>()?;
    d.finish()?;
    Ok(Assignment {
        task,
        attempt,
        shard,
        start,
        jobs,
    })
}

fn encode_report<S: Sweep>(e: &mut Enc, r: &WorkerReport<S::Record>) {
    e.u32(r.worker as u32);
    let (tkind, tindex) = task_code(r.task);
    e.u8(tkind);
    e.u64(tindex);
    e.u32(r.attempt);
    e.u64(r.hash);
    e.u32(r.points.len() as u32);
    for p in &r.points {
        S::encode_record(p, e);
    }
}

fn decode_report<S: Sweep>(payload: &[u8]) -> Result<WorkerReport<S::Record>, String> {
    let mut d = Dec(payload);
    let worker = d.u32()? as usize;
    let tkind = d.u8()?;
    let tindex = d.u64()?;
    let task = task_from_code(tkind, tindex)?;
    let attempt = d.u32()?;
    let hash = d.u64()?;
    let npoints = d.count(S::RECORD_BYTES)?;
    let points = (0..npoints)
        .map(|_| S::decode_record(&mut d))
        .collect::<Result<Vec<_>, _>>()?;
    d.finish()?;
    Ok(WorkerReport {
        worker,
        task,
        attempt,
        points,
        hash,
    })
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

/// Serialize one frame as one record of the codec.
pub(crate) fn frame_bytes<S: Sweep>(frame: &Frame<S>) -> Vec<u8> {
    let mut e = Enc::new();
    let tag = match frame {
        Frame::Init(init) => {
            encode_init(&mut e, init);
            init.kind
        }
        Frame::Assign(a) => {
            encode_assign::<S>(&mut e, a);
            FRAME_ASSIGN
        }
        Frame::Report(r) => {
            encode_report::<S>(&mut e, r);
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
pub(crate) fn write_frame<S: Sweep, W: Write>(
    w: &mut W,
    frame: &Frame<S>,
) -> Result<(), TransportError> {
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
pub(crate) fn read_frame<S: Sweep, R: Read>(r: &mut R) -> Result<Option<Frame<S>>, TransportError> {
    let Some(rec) = record::read(r)? else {
        return Ok(None);
    };
    let payload = &rec.payload[..];
    let malformed = |reason: String| TransportError::Malformed { reason };
    let frame = match rec.kind {
        FRAME_INIT | FRAME_INIT_PROTOCOL => {
            Frame::Init(decode_init(rec.kind, payload).map_err(malformed)?)
        }
        FRAME_ASSIGN => Frame::Assign(decode_assign::<S>(payload).map_err(malformed)?),
        FRAME_REPORT => Frame::Report(decode_report::<S>(payload).map_err(malformed)?),
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
pub(crate) enum TransportPoll<R> {
    /// A worker delivered a computed task.
    Report(WorkerReport<R>),
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
pub(crate) trait WorkerTransport<S: Sweep> {
    /// Fleet size (slot indices are `0..worker_count()`).
    fn worker_count(&self) -> usize;
    /// Whether a slot can still (eventually) take work. A dead-but-
    /// respawnable process worker is usable; an exhausted one is not.
    fn usable(&self, worker: usize) -> bool;
    /// Try to hand `assignment` to `worker`. `false` means the worker
    /// cannot take it right now (busy respawning, channel gone); the
    /// coordinator will try another worker or wait.
    fn try_send(&mut self, worker: usize, assignment: &Assignment<S::Job>) -> bool;
    /// Wait up to `wait` for the next fleet event.
    fn recv_timeout(&mut self, wait: Duration) -> TransportPoll<S::Record>;
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

/// The worker-process loop: read an `Init`, rebuild the sweep it names,
/// then serve `Assign` frames until `Shutdown` or EOF. Returns the
/// process exit code (0 clean, 2 protocol failure, 3 injected crash).
///
/// Fault semantics mirror the thread workers: `CrashWorker` and
/// `KillProcess` exit without replying (the supervisor additionally
/// SIGKILLs on `KillProcess` — whichever lands first, the coordinator
/// observes a dead worker), `Stall` sleeps past the shard deadline,
/// `CorruptHash` lies about the content hash, `DuplicateShard` delivers
/// twice. `TornFrame` is injected by the *supervisor* (it damages wire
/// bytes); this side merely rejects the damaged frame and resyncs.
pub(crate) fn run_stdio_worker<R: Read, W: Write>(input: &mut R, output: &mut W) -> i32 {
    let init = match read_frame::<Scenario, R>(input) {
        Ok(Some(Frame::Init(init))) => init,
        Ok(None) => return 0,
        Ok(Some(_)) => {
            reject(output, "expected an Init frame first".to_string());
            return 2;
        }
        Err(e) => {
            reject(output, e.to_string());
            return 2;
        }
    };
    match init.kind {
        FRAME_INIT_PROTOCOL => serve_stdio::<ProtocolScenario, R, W>(&init, input, output),
        _ => serve_stdio::<Scenario, R, W>(&init, input, output),
    }
}

fn reject<W: Write>(output: &mut W, message: String) {
    let _ = write_frame(output, &Frame::<Scenario>::Reject { message });
}

fn serve_stdio<S: Sweep, R: Read, W: Write>(
    init: &WorkerInit,
    input: &mut R,
    output: &mut W,
) -> i32 {
    let mut d = Dec(&init.spec);
    let sweep = match S::from_spec(&mut d).and_then(|s| d.finish().map(|()| s)) {
        Ok(s) => s,
        Err(reason) => {
            reject(output, reason);
            return 2;
        }
    };
    let mut worker = WorkerState::new(&sweep);
    loop {
        let a = match read_frame::<S, R>(input) {
            Ok(Some(Frame::Assign(a))) => a,
            Ok(Some(Frame::Shutdown)) | Ok(None) => return 0,
            Ok(Some(_)) => {
                reject(
                    output,
                    "unexpected frame (worker takes Assign/Shutdown)".to_string(),
                );
                continue;
            }
            Err(e) if e.resyncable() => {
                reject(output, e.to_string());
                continue;
            }
            Err(_) => return 2,
        };
        // An injected crash or kill exits without replying; the
        // supervisor's SIGKILL (for KillProcess) races this clean exit, and
        // either way the coordinator sees a dead worker and requeues.
        let Some((report, duplicate)) =
            worker.serve(&sweep, init.worker, &a, &init.plan, init.stall)
        else {
            return 3;
        };
        let report = Frame::<S>::Report(report);
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
    use crate::checkpoint::{encode_point, shard_content_hash};
    use crate::point::Job;
    use crate::record::HEADER_BYTES;
    use crate::{LinkRates, ScenarioMetrics, SweepPoint};
    use mlf_core::LinkRateModel;
    use mlf_net::TopologyFamily;

    fn scenario() -> Scenario {
        Scenario::builder()
            .label("wire")
            .random_networks(12, 3, 3)
            .link_rates(LinkRates::Uniform(LinkRateModel::Scaled(2.0)))
            .allocator(MultiRate::new())
            .build()
            .unwrap()
    }

    fn read_err(bytes: &mut &[u8]) -> TransportError {
        match read_frame::<Scenario, _>(bytes) {
            Err(e) => e,
            Ok(_) => panic!("expected a read error"),
        }
    }

    fn spec_of(scenario: &Scenario) -> Vec<u8> {
        let mut e = Enc::new();
        scenario.process_spec(&mut e).expect("the scenario ships");
        e.done()
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
        let frames: Vec<Frame<Scenario>> = vec![
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
                kind: FRAME_INIT,
                spec: spec_of(&scenario()),
            }),
            Frame::Init(WorkerInit {
                worker: 0,
                stall: Duration::ZERO,
                plan: FaultPlan::none(),
                kind: FRAME_INIT_PROTOCOL,
                spec: vec![1, 2, 3],
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
            let got = read_frame::<Scenario, _>(&mut cursor)
                .unwrap()
                .expect("frame present");
            // The codec is canonical, so byte equality of re-encodings is
            // full structural equality (and survives NaN metrics).
            assert_eq!(frame_bytes(&got), frame_bytes(f));
        }
        assert!(
            read_frame::<Scenario, _>(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn damaged_frames_are_classified() {
        let good = frame_bytes(&Frame::<Scenario>::Reject {
            message: "x".to_string(),
        });

        let mut flipped = good.clone();
        let idx = HEADER_BYTES + 1;
        flipped[idx] ^= 0x20;
        let err = read_err(&mut &flipped[..]);
        assert!(
            matches!(err, TransportError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.resyncable());

        let mut magic = good.clone();
        magic[0] = b'X';
        let err = read_err(&mut &magic[..]);
        assert!(matches!(err, TransportError::BadMagic { .. }), "{err}");
        assert!(!err.resyncable());

        let mut skew = good.clone();
        skew[4] = 0xff;
        let err = read_err(&mut &skew[..]);
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
        let err = read_err(&mut &truncated[..]);
        assert!(matches!(err, TransportError::Truncated { .. }), "{err}");
        let err = read_err(&mut &good[..5]);
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
        let err = read_err(&mut &length[..]);
        assert!(matches!(err, TransportError::BadHeader { .. }), "{err}");
        assert!(!err.resyncable());

        // An unknown type with valid checksums: consumed whole, resyncable.
        let mut unknown = record::encode(99, &[]);
        unknown.extend_from_slice(&good);
        let mut cursor = &unknown[..];
        let err = read_err(&mut cursor);
        assert!(
            matches!(err, TransportError::UnknownFrameType { tag: 99 }),
            "{err}"
        );
        assert!(err.resyncable());
        assert!(
            matches!(
                read_frame::<Scenario, _>(&mut cursor).unwrap(),
                Some(Frame::Reject { .. })
            ),
            "reader resynced on the next frame"
        );
    }

    #[test]
    fn process_spec_round_trips_every_registered_allocator() {
        for (code, make) in ALLOCATORS.iter().enumerate() {
            let mut scenario = Scenario::builder()
                .label("wire")
                .random_networks_with(TopologyFamily::TransitStub { transit: 3 }, 12, 3, 3)
                .check_properties(false)
                .build()
                .unwrap();
            // Weighted/Unicast regimes reject non-efficient link rates.
            scenario.allocator = make();
            let bytes = spec_of(&scenario);
            let mut d = Dec(&bytes);
            let back = Scenario::from_spec(&mut d).expect("spec builds");
            assert!(d.finish().is_ok());
            assert_eq!(allocator_code(back.allocator.as_ref()), Some(code as u8));
            assert_eq!(spec_of(&back), bytes, "registry round trip");
        }
    }

    #[test]
    fn fixed_networks_are_rejected() {
        let net = mlf_net::topology::random_network(0, 10, 3, 3).unwrap();
        let scenario = Scenario::builder().network(net).build().unwrap();
        assert!(scenario.process_spec(&mut Enc::new()).is_err());
    }

    #[test]
    fn stdio_worker_matches_sweep_bitwise() {
        let mut scenario = scenario();
        let seeds: Vec<u64> = (0..6).collect();
        let expected = scenario.sweep(seeds.iter().copied());
        let jobs: Vec<Job> = seeds.iter().map(|&s| (None, s)).collect();

        let mut input = Vec::new();
        input.extend(frame_bytes(&Frame::<Scenario>::Init(WorkerInit {
            worker: 0,
            stall: Duration::ZERO,
            plan: FaultPlan::none(),
            kind: FRAME_INIT,
            spec: spec_of(&scenario),
        })));
        input.extend(frame_bytes(&Frame::<Scenario>::Assign(Assignment {
            task: TaskId::Shard(0),
            attempt: 0,
            shard: 0,
            start: 0,
            jobs: jobs.clone(),
        })));
        // A torn frame mid-stream: the worker must reject and resync.
        let mut torn = frame_bytes(&Frame::<Scenario>::Assign(Assignment {
            task: TaskId::Shard(1),
            attempt: 0,
            shard: 1,
            start: 6,
            jobs: jobs.clone(),
        }));
        torn[HEADER_BYTES] ^= 0x40;
        input.extend(torn);
        input.extend(frame_bytes(&Frame::<Scenario>::Shutdown));

        let mut output = Vec::new();
        let code = run_stdio_worker(&mut &input[..], &mut output);
        assert_eq!(code, 0, "clean shutdown");

        let mut out = &output[..];
        let Some(Frame::Report(rep)) = read_frame::<Scenario, _>(&mut out).unwrap() else {
            panic!("expected a report first");
        };
        assert_eq!(rep.worker, 0);
        assert_eq!(rep.task, TaskId::Shard(0));
        assert_eq!(rep.hash, shard_content_hash(0, 0, &rep.points));
        let enc_got: Vec<_> = rep.points.iter().map(encode_point).collect();
        let enc_want: Vec<_> = expected.points.iter().map(encode_point).collect();
        assert_eq!(enc_got, enc_want, "process-side points bitwise equal");
        let Some(Frame::Reject { .. }) = read_frame::<Scenario, _>(&mut out).unwrap() else {
            panic!("expected a reject for the torn frame");
        };
        assert!(read_frame::<Scenario, _>(&mut out).unwrap().is_none());
    }
}
