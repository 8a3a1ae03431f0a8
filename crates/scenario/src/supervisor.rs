//! The process-fleet supervisor: spawn, watch, kill, respawn, reap.
//!
//! [`ProcessTransport`] implements the coordinator's `WorkerTransport`
//! seam over a fleet of child worker processes. Each slot holds one
//! child (self-exec'd with the worker marker, speaking the framed
//! protocol of [`crate::transport`] over piped stdin/stdout) plus a
//! reader thread that turns the child's stdout frames into events on one
//! shared channel. The supervisor's job is purely *liveness*:
//!
//! * a worker silent past its heartbeat while holding an assignment is
//!   declared dead, killed, and reaped;
//! * a dead slot respawns with capped exponential backoff, up to
//!   `ProcessConfig::max_respawns` times, then stays down (**exhausted**);
//! * every death surfaces to the coordinator as a `Down` event so the
//!   lost assignment is requeued;
//! * shutdown and drop kill, wait on, and join everything — no zombies,
//!   whatever path the run exits through.
//!
//! Scheduling (which shard goes where, retry budgets, verification) all
//! stays in the coordinator's transport-generic event loop — the
//! supervisor only reports who is alive and moves bytes.

use crate::coordinator::{Assignment, FaultKind, FaultPlan, ProcessConfig, TaskId};
use crate::record::HEADER_BYTES;
use crate::transport::{
    frame_bytes, read_frame, write_frame, Frame, ScenarioSpec, TransportCounters, TransportError,
    TransportPoll, WorkerInit, WorkerTransport, WORKER_ARG, WORKER_ENV,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

// mlf-lint: allow(ambient-entropy, reason = "monotonic clocks drive heartbeat and respawn scheduling only; computed bytes are a pure function of each assignment (see coordinator module docs)")
type Clock = std::time::Instant;

/// One event from a reader thread, tagged with the incarnation that
/// produced it so events from a replaced child are discarded.
struct RawEvent {
    worker: usize,
    generation: u64,
    kind: RawEventKind,
}

enum RawEventKind {
    Report(Box<crate::coordinator::WorkerReport>),
    Rejected,
    Down,
}

struct ChildSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    reader: Option<JoinHandle<()>>,
    /// Bumped per spawn; stale reader events are dropped by comparison.
    generation: u64,
    respawns_used: u32,
    /// When a dead slot may respawn (capped exponential backoff).
    respawn_at: Option<Clock>,
    /// The respawn budget is spent; this slot is permanently down.
    exhausted: bool,
    /// Heartbeat deadline while the child holds an assignment.
    busy_until: Option<Clock>,
}

impl ChildSlot {
    fn new() -> Self {
        ChildSlot {
            child: None,
            stdin: None,
            reader: None,
            generation: 0,
            respawns_used: 0,
            respawn_at: None,
            exhausted: false,
            busy_until: None,
        }
    }
}

fn reader_loop(worker: usize, generation: u64, stdout: ChildStdout, tx: Sender<RawEvent>) {
    let mut reader = std::io::BufReader::new(stdout);
    loop {
        let kind = match read_frame(&mut reader) {
            Ok(Some(Frame::Report(rep))) => RawEventKind::Report(Box::new(rep)),
            Ok(Some(Frame::Reject { .. })) => RawEventKind::Rejected,
            // EOF, a stream-level error, or an out-of-protocol frame: the
            // child is gone or cannot be trusted — either way, Down.
            _ => {
                let _ = tx.send(RawEvent {
                    worker,
                    generation,
                    kind: RawEventKind::Down,
                });
                return;
            }
        };
        if tx
            .send(RawEvent {
                worker,
                generation,
                kind,
            })
            .is_err()
        {
            return;
        }
    }
}

/// A supervised fleet of child worker processes.
pub(crate) struct ProcessTransport {
    program: PathBuf,
    spec: ScenarioSpec,
    plan: FaultPlan,
    stall: Duration,
    cfg: ProcessConfig,
    slots: Vec<ChildSlot>,
    events_tx: Sender<RawEvent>,
    events_rx: Receiver<RawEvent>,
    counters: TransportCounters,
}

impl ProcessTransport {
    /// Spawn the initial fleet. Failure to spawn *any* initial child is
    /// fatal (the machine cannot exec the worker binary at all); every
    /// later failure is absorbed as a down worker.
    pub(crate) fn launch(
        spec: ScenarioSpec,
        workers: usize,
        cfg: ProcessConfig,
        plan: FaultPlan,
        stall: Duration,
    ) -> Result<ProcessTransport, TransportError> {
        let program = match cfg.program.clone() {
            Some(p) => p,
            None => std::env::current_exe().map_err(|e| TransportError::Io {
                op: "current_exe",
                message: e.to_string(),
            })?,
        };
        let (events_tx, events_rx) = channel();
        let mut fleet = ProcessTransport {
            program,
            spec,
            plan,
            stall,
            cfg,
            slots: (0..workers.max(1)).map(|_| ChildSlot::new()).collect(),
            events_tx,
            events_rx,
            counters: TransportCounters::default(),
        };
        for w in 0..fleet.slots.len() {
            fleet.spawn_child(w)?;
        }
        Ok(fleet)
    }

    /// Spawn (or respawn) slot `w`'s child and send its `Init` frame.
    /// `Err` means the OS could not spawn at all; an unreachable child
    /// after a successful spawn is marked down instead (`Ok`).
    fn spawn_child(&mut self, w: usize) -> Result<(), TransportError> {
        let mut child = Command::new(&self.program)
            .arg(WORKER_ARG)
            .env(WORKER_ENV, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| TransportError::Io {
                op: "spawn",
                message: e.to_string(),
            })?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let tx = self.events_tx.clone();
        let slot = &mut self.slots[w];
        // The previous incarnation's reader (if any) has already seen EOF;
        // joining is cheap and keeps thread handles from piling up.
        if let Some(h) = slot.reader.take() {
            let _ = h.join();
        }
        slot.generation += 1;
        let generation = slot.generation;
        slot.reader =
            stdout.map(|out| std::thread::spawn(move || reader_loop(w, generation, out, tx)));
        slot.child = Some(child);
        slot.stdin = None;
        slot.busy_until = None;
        let init = Frame::Init(WorkerInit {
            worker: w,
            stall: self.stall,
            plan: self.plan.clone(),
            spec: self.spec.clone(),
        });
        let mut sin = match stdin {
            Some(s) => s,
            None => {
                self.mark_down(w);
                return Ok(());
            }
        };
        if write_frame(&mut sin, &init).is_err() {
            self.mark_down(w);
            return Ok(());
        }
        self.slots[w].stdin = Some(sin);
        Ok(())
    }

    /// Kill, reap, and deregister slot `w`'s child (if any), then either
    /// schedule a respawn with capped backoff or mark the slot exhausted.
    fn mark_down(&mut self, w: usize) {
        let slot = &mut self.slots[w];
        slot.stdin = None;
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        // Safe to join: the child is reaped, so its stdout pipe is at EOF
        // and the reader exits (its channel sends never block).
        if let Some(h) = slot.reader.take() {
            let _ = h.join();
        }
        slot.busy_until = None;
        if slot.respawns_used >= self.cfg.max_respawns {
            slot.exhausted = true;
            slot.respawn_at = None;
        } else {
            slot.respawns_used += 1;
            let shift = slot.respawns_used.saturating_sub(1).min(16);
            let delay = self
                .cfg
                .respawn_backoff
                .saturating_mul(1u32 << shift)
                .min(self.cfg.respawn_backoff_cap);
            slot.respawn_at = Some(Clock::now() + delay);
        }
    }

    /// Kill, reap, and join every remaining child and reader.
    fn reap_all(&mut self) {
        for slot in &mut self.slots {
            slot.stdin = None;
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(h) = slot.reader.take() {
                let _ = h.join();
            }
        }
    }
}

impl WorkerTransport for ProcessTransport {
    fn worker_count(&self) -> usize {
        self.slots.len()
    }

    fn usable(&self, worker: usize) -> bool {
        !self.slots[worker].exhausted
    }

    fn try_send(&mut self, worker: usize, assignment: &Assignment) -> bool {
        if self.slots[worker].exhausted {
            return false;
        }
        if self.slots[worker].child.is_none() {
            if matches!(self.slots[worker].respawn_at, Some(t) if t > Clock::now()) {
                return false;
            }
            if self.spawn_child(worker).is_err() {
                // The OS refused the spawn; burn a respawn attempt so a
                // persistently unspawnable slot eventually exhausts.
                self.mark_down(worker);
                return false;
            }
            self.counters.respawns += 1;
        }
        if self.slots[worker].stdin.is_none() {
            // The fresh child died before taking its Init frame.
            return false;
        }
        let fault = match assignment.task {
            TaskId::Shard(_) => self
                .plan
                .fires(worker, assignment.shard, assignment.attempt),
            TaskId::Spot(_) => None,
        };
        let mut bytes = frame_bytes(&Frame::Assign(assignment.clone()));
        if matches!(fault, Some(FaultKind::TornFrame)) {
            // Damage one payload byte, length intact: the child's frame
            // checksum fails, it answers Reject, and the stream resyncs
            // on the next frame boundary.
            bytes[HEADER_BYTES] ^= 0x40;
        }
        let write_ok = match self.slots[worker].stdin.as_mut() {
            Some(sin) => sin.write_all(&bytes).and_then(|_| sin.flush()).is_ok(),
            None => false,
        };
        if !write_ok {
            self.counters.workers_lost += 1;
            self.mark_down(worker);
            return false;
        }
        if matches!(fault, Some(FaultKind::KillProcess)) {
            // A real mid-shard SIGKILL. The worker also self-exits on
            // this fault, so whichever lands first the coordinator
            // observes the same thing: a dead worker, a requeued shard.
            if let Some(child) = self.slots[worker].child.as_mut() {
                let _ = child.kill();
            }
        }
        self.slots[worker].busy_until = Some(Clock::now() + self.cfg.heartbeat);
        true
    }

    fn recv_timeout(&mut self, wait: Duration) -> TransportPoll {
        let deadline = Clock::now() + wait;
        loop {
            if self.slots.iter().all(|s| s.exhausted) {
                return TransportPoll::AllDown;
            }
            // Heartbeat sweep: a child silent past its deadline while
            // holding work is dead to us, whatever the kernel thinks.
            let now = Clock::now();
            for w in 0..self.slots.len() {
                if matches!(self.slots[w].busy_until, Some(t) if t <= now)
                    && self.slots[w].child.is_some()
                {
                    self.counters.workers_lost += 1;
                    self.mark_down(w);
                    return TransportPoll::Down { worker: w };
                }
            }
            // Wake for the earliest interesting instant: the caller's
            // deadline, a heartbeat, or a respawn maturing.
            let mut wake = deadline;
            for s in &self.slots {
                if let Some(t) = s.busy_until {
                    wake = wake.min(t);
                }
                if s.child.is_none() && !s.exhausted {
                    if let Some(t) = s.respawn_at {
                        wake = wake.min(t);
                    }
                }
            }
            let now = Clock::now();
            let wait = wake
                .saturating_duration_since(now)
                .max(Duration::from_millis(1));
            match self.events_rx.recv_timeout(wait) {
                Ok(ev) => {
                    if ev.generation != self.slots[ev.worker].generation {
                        // A replaced incarnation's event: obsolete.
                        continue;
                    }
                    match ev.kind {
                        RawEventKind::Report(rep) => {
                            self.slots[ev.worker].busy_until = None;
                            let mut rep = *rep;
                            // Trust the slot, not the wire, for identity.
                            rep.worker = ev.worker;
                            return TransportPoll::Report(rep);
                        }
                        RawEventKind::Rejected => {
                            self.slots[ev.worker].busy_until = None;
                            return TransportPoll::Rejected { worker: ev.worker };
                        }
                        RawEventKind::Down => {
                            if self.slots[ev.worker].child.is_none() {
                                // Already marked down (send failure or
                                // heartbeat beat the reader to it).
                                continue;
                            }
                            self.counters.workers_lost += 1;
                            self.mark_down(ev.worker);
                            return TransportPoll::Down { worker: ev.worker };
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Clock::now();
                    if now >= deadline {
                        return TransportPoll::Timeout;
                    }
                    // A respawn matured: report a timeout so the
                    // coordinator's dispatch pass retries the slot.
                    let matured = self.slots.iter().any(|s| {
                        s.child.is_none() && !s.exhausted && s.respawn_at.map_or(true, |t| t <= now)
                    });
                    if matured {
                        return TransportPoll::Timeout;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while we hold a sender; be safe anyway.
                    return TransportPoll::AllDown;
                }
            }
        }
    }

    fn shutdown(&mut self) {
        // Ask nicely: a Shutdown frame, then EOF on stdin.
        for slot in &mut self.slots {
            if let Some(sin) = slot.stdin.as_mut() {
                let _ = write_frame(sin, &Frame::Shutdown);
            }
            slot.stdin = None;
        }
        // Grace window for clean exits (no half-written anything), then
        // force the stragglers.
        let grace = Clock::now() + Duration::from_millis(500);
        loop {
            let mut alive = false;
            for slot in &mut self.slots {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => slot.child = None,
                        Ok(None) => alive = true,
                        Err(_) => slot.child = None,
                    }
                }
            }
            if !alive || Clock::now() >= grace {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.reap_all();
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        // No zombies on any exit path, including panics: `shutdown` makes
        // this a no-op, every other path still kills, waits, and joins.
        self.reap_all();
    }
}
