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
//! * a dead slot respawns on the coordinator's capped exponential retry
//!   backoff (`CoordinatorConfig::{backoff_base, backoff_cap}`), up to
//!   `MAX_RESPAWNS` (four) times, then stays down (**exhausted**);
//! * every death surfaces to the coordinator as a `Down` event so every
//!   assignment the worker held is requeued;
//! * shutdown and drop kill, wait on, and join everything — no zombies,
//!   whatever path the run exits through. A clean shutdown waits on
//!   events, not a poll: each child's reader reports its stdout EOF, and
//!   only then is the child reaped.
//!
//! A slot may hold several assignments at once. The child serves its
//! frames in order, so the supervisor attributes a `Reject` to the
//! slot's oldest unanswered frame.
//!
//! Scheduling (which shard goes where, retry budgets, verification) all
//! stays in the coordinator's transport-generic event loop — the
//! supervisor only reports who is alive and moves bytes.

use crate::coordinator::{
    backoff, Assignment, CoordinatorConfig, FaultKind, ProcessConfig, Sweep, TaskId, Ticket,
    WorkerReport, MAX_RESPAWNS,
};
use crate::record::HEADER_BYTES;
use crate::transport::{
    frame_bytes, read_frame, write_frame, Frame, TransportCounters, TransportError, TransportPoll,
    WorkerInit, WorkerTransport, WORKER_ARG, WORKER_ENV,
};
use std::collections::VecDeque;
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
struct RawEvent<R> {
    worker: usize,
    generation: u64,
    kind: RawEventKind<R>,
}

enum RawEventKind<R> {
    Report(Box<WorkerReport<R>>),
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
    /// Assignments written to the child and not yet answered, oldest
    /// first.
    outstanding: VecDeque<Ticket>,
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
            outstanding: VecDeque::new(),
        }
    }

    /// Kill, reap, and join the slot's child and reader, if any. Safe to
    /// join: once the child is reaped its stdout pipe is at EOF, so the
    /// reader exits (its channel sends never block).
    fn reap(&mut self) {
        self.stdin = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn reader_loop<S: Sweep>(
    worker: usize,
    generation: u64,
    stdout: ChildStdout,
    tx: Sender<RawEvent<S::Record>>,
) {
    let mut reader = std::io::BufReader::new(stdout);
    loop {
        let kind = match read_frame::<S, _>(&mut reader) {
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
pub(crate) struct ProcessTransport<S: Sweep> {
    program: PathBuf,
    /// The sweep's `Sweep::process_spec` bytes, shipped in every `Init`.
    spec: Vec<u8>,
    stall: Duration,
    /// The sweep's config: its fault plan and its retry backoff.
    coordinator: CoordinatorConfig,
    cfg: ProcessConfig,
    slots: Vec<ChildSlot>,
    /// Slots marked down outside `recv_timeout` (a failed write) whose
    /// death the coordinator has not been told yet.
    lost: VecDeque<usize>,
    events_tx: Sender<RawEvent<S::Record>>,
    events_rx: Receiver<RawEvent<S::Record>>,
    counters: TransportCounters,
}

impl<S: Sweep> ProcessTransport<S> {
    /// Spawn the initial fleet. Failure to spawn *any* initial child is
    /// fatal (the machine cannot exec the worker binary at all); every
    /// later failure is absorbed as a down worker.
    pub(crate) fn launch(
        spec: Vec<u8>,
        workers: usize,
        coordinator: &CoordinatorConfig,
        cfg: ProcessConfig,
        stall: Duration,
    ) -> Result<Self, TransportError> {
        let program = std::env::current_exe().map_err(|e| TransportError::Io {
            op: "current_exe",
            message: e.to_string(),
        })?;
        let (events_tx, events_rx) = channel();
        let mut fleet = ProcessTransport {
            program,
            spec,
            stall,
            coordinator: coordinator.clone(),
            cfg,
            slots: (0..workers.max(1)).map(|_| ChildSlot::new()).collect(),
            lost: VecDeque::new(),
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
            stdout.map(|out| std::thread::spawn(move || reader_loop::<S>(w, generation, out, tx)));
        slot.child = Some(child);
        slot.stdin = None;
        slot.busy_until = None;
        slot.outstanding.clear();
        let init = Frame::<S>::Init(WorkerInit {
            worker: w,
            stall: self.stall,
            plan: self.coordinator.fault_plan.clone(),
            kind: S::INIT_FRAME,
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
        slot.reap();
        slot.busy_until = None;
        slot.outstanding.clear();
        if slot.respawns_used >= MAX_RESPAWNS {
            slot.exhausted = true;
            slot.respawn_at = None;
        } else {
            slot.respawns_used += 1;
            slot.respawn_at = Some(Clock::now() + backoff(&self.coordinator, slot.respawns_used));
        }
    }

    /// Kill, reap, and join every remaining child and reader.
    fn reap_all(&mut self) {
        self.slots.iter_mut().for_each(ChildSlot::reap);
    }

    /// Slot `w`'s child answered `ticket` (a report or a rejection):
    /// retire it, and keep the heartbeat armed while the child still
    /// holds work.
    fn answered(&mut self, w: usize, ticket: Ticket) {
        let slot = &mut self.slots[w];
        if let Some(k) = slot.outstanding.iter().position(|&t| t == ticket) {
            slot.outstanding.remove(k);
        }
        slot.busy_until = (!slot.outstanding.is_empty()).then(|| Clock::now() + self.cfg.heartbeat);
    }
}

impl<S: Sweep> WorkerTransport<S> for ProcessTransport<S> {
    fn worker_count(&self) -> usize {
        self.slots.len()
    }

    fn usable(&self, worker: usize) -> bool {
        !self.slots[worker].exhausted
    }

    fn try_send(&mut self, worker: usize, assignment: &Assignment<S::Job>) -> bool {
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
            TaskId::Shard(_) => {
                self.coordinator
                    .fault_plan
                    .fires(worker, assignment.shard, assignment.attempt)
            }
            TaskId::Spot(_) => None,
        };
        let mut bytes = frame_bytes(&Frame::<S>::Assign(assignment.clone()));
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
            // The child may die holding earlier assignments: report the
            // death so the coordinator requeues them now.
            self.counters.workers_lost += 1;
            self.mark_down(worker);
            self.lost.push_back(worker);
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
        let slot = &mut self.slots[worker];
        slot.outstanding.push_back(assignment.ticket());
        // Already armed when the child holds earlier work: the heartbeat
        // measures the child's silence, not the coordinator's sends.
        slot.busy_until
            .get_or_insert_with(|| Clock::now() + self.cfg.heartbeat);
        true
    }

    fn recv_timeout(&mut self, wait: Duration) -> TransportPoll<S::Record> {
        let deadline = Clock::now() + wait;
        loop {
            if let Some(w) = self.lost.pop_front() {
                return TransportPoll::Down { worker: w };
            }
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
                            let mut rep = *rep;
                            self.answered(ev.worker, (rep.task, rep.attempt));
                            // Trust the slot, not the wire, for identity.
                            rep.worker = ev.worker;
                            return TransportPoll::Report(rep);
                        }
                        RawEventKind::Rejected => {
                            // The child serves frames in order, so it
                            // rejected its oldest unanswered one.
                            let Some(ticket) = self.slots[ev.worker].outstanding.front().copied()
                            else {
                                // Nothing outstanding to requeue (a
                                // refused Init; the child exits next).
                                continue;
                            };
                            self.answered(ev.worker, ticket);
                            return TransportPoll::Rejected {
                                worker: ev.worker,
                                ticket,
                            };
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
                let _ = write_frame(sin, &Frame::<S>::Shutdown);
            }
            slot.stdin = None;
        }
        // Each exiting child closes its stdout, and its reader reports
        // that EOF as `Down`: reap the child then. Stragglers past the
        // grace window are killed below.
        let grace = Clock::now() + Duration::from_millis(500);
        while self.slots.iter().any(|s| s.child.is_some()) {
            let wait = grace.saturating_duration_since(Clock::now());
            let Ok(ev) = self.events_rx.recv_timeout(wait) else {
                break;
            };
            let slot = &mut self.slots[ev.worker];
            if ev.generation == slot.generation && matches!(ev.kind, RawEventKind::Down) {
                if let Some(mut child) = slot.child.take() {
                    let _ = child.wait();
                }
            }
        }
        self.reap_all();
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

impl<S: Sweep> Drop for ProcessTransport<S> {
    fn drop(&mut self) {
        // No zombies on any exit path, including panics: `shutdown` makes
        // this a no-op, every other path still kills, waits, and joins.
        self.reap_all();
    }
}
