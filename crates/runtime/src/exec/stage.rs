//! The per-job board: the claim lane, the completion ring, the seats,
//! and the claim loop every body-runner runs over them.
//!
//! A job's one stage is a [`Lane`]: its tasks in task order, an atomic
//! claim `cursor` the runners advance, and an atomic `limit` that
//! admission raises. Every seat claims from it, so the next task goes to
//! whichever runner frees up first, the dynamic least-loaded discipline
//! of paper §3.2. What the plan calls a core is a [`Seat`]; a runner
//! — a pool worker, or the job's own calling thread — holding a seat's
//! *ticket* loops claim → [`run_attempt`] → publish ([`serve`]),
//! publishing completions into a sequence-numbered ring. Nobody watches
//! that ring: the runner whose publication makes a batch *due* (half a
//! window pending, or anything pending while a seat is starved) takes a
//! **turn** at the job's [`Frontier`] (`exec/mod.rs`); the rest claim on.
//!
//! Who writes which shared word:
//!
//! | word | written by | read by |
//! |---|---|---|
//! | `Lane::cursor` | runners (CAS claim) | all |
//! | `Lane::limit`, `Lane::requeue` pushes | the runner whose turn it is | runners |
//! | ring slot (`seq`, completion), `tail` | the publishing runner | the turn (`tail`: also the caller's watchdog) |
//! | `absorbed` | the runner whose turn it is | runners (`due`) |
//! | `JobShared::frontier` (the lock) | whoever wins `try_lock` after a `due` look; the caller, blocking, for its first turn, its watchdog and its report | — |
//! | `starved`, `parked` | a runner parking its seat; the turn handing seats back | all |
//! | home slot (waiting flag, seat) | a turn or a spent quantum offering the caller a seat; the caller taking it | both |
//! | `closed` | the turn that ends the job, or the caller's watchdog | all |
//!
//! A completion carries its own accounting (the seat, the body time,
//! the attempt's trace events), so a runner keeps no per-job state that
//! outlives a publication and absorbing the last completion of a job
//! means its timing and trace are complete.
//!
//! Every protocol word is `SeqCst`: the two no-lost-turn arguments
//! below ([`Board::publish`], [`park`]) are store-then-load on both
//! sides and need the single total order. `exec/tests.rs` enumerates
//! every interleaving of both over a model of these words.

use super::engine::{JobSpec, Ticket};
use super::faults::FaultKind;
use super::trace::{JobId, TraceBuffer, TraceClock, TraceEvent, TraceEventKind};
use super::{take_turns, ExecError, Frontier, TaskCtx, TaskOutput};
use crate::task::TaskId;
use seqpar_specmem::{ConcurrentVersionedMemory, VersionId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// One dispatch of one task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct WorkItem {
    /// Index of the task in commit order.
    pub task: u32,
    /// 0 for the speculative first attempt; >0 for rollback
    /// re-executions.
    pub attempt: u32,
}

/// A finished execution, reported back to the commit unit.
#[derive(Debug)]
pub(super) struct WorkerDone {
    pub task: u32,
    pub attempt: u32,
    pub output: TaskOutput,
    /// Set when the attempt produced no result: the body panicked (the
    /// worker catches it and keeps serving) or the fault plan injected
    /// a [`FaultKind::WorkerPanic`]. The commit unit treats either like
    /// a misspeculation: discard and replay, charged against the
    /// task's retry budget.
    pub panicked: bool,
    /// The attempt ran behind an injected [`FaultKind::StageStall`];
    /// the commit unit tallies it when the attempt reaches the
    /// frontier.
    pub stalled: bool,
    /// [`Seat::id`] of the seat that ran the attempt, and the body time
    /// to charge to it.
    pub seat: usize,
    pub busy: Duration,
    /// The worker-side trace events of the attempt (empty untraced).
    pub events: Vec<TraceEvent>,
}

/// One seat of the job: the unit a runner serves, and the key its
/// timing and trace events are charged to (a plan core, to a trace
/// reader). A seat's *ticket* is the right to serve it; exactly one
/// exists, held by a runner, queued in an [`Injector`], waiting in the
/// home slot, or parked on the [`Board`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Seat {
    /// Index into the board's seats (and the per-seat statistics).
    pub id: usize,
}

/// Keeps a word every claim or publication hammers off the cache lines
/// a turn writes (and the other way round).
#[repr(align(64))]
struct Padded<T>(T);

/// The job's claimable task sequence: task indices `0..len`, released
/// in order.
struct Lane {
    len: usize,
    /// The window: at most this many attempts admitted and not yet
    /// absorbed (`queue_capacity` + the seats).
    cap: usize,
    /// Next task index to claim.
    cursor: Padded<AtomicUsize>,
    /// Indices below this are claimable.
    limit: AtomicUsize,
    /// Squash redispatches, claimed before the cursor. Small and rare:
    /// a mutex is fine, and `requeued` keeps the common claim off it.
    requeue: Mutex<VecDeque<WorkItem>>,
    requeued: AtomicUsize,
}

impl Lane {
    fn new(len: usize, cap: usize) -> Self {
        Self {
            len,
            cap,
            cursor: Padded(AtomicUsize::new(0)),
            limit: AtomicUsize::new(0),
            requeue: Mutex::new(VecDeque::new()),
            requeued: AtomicUsize::new(0),
        }
    }

    /// Admitted attempts nobody has claimed yet.
    fn claimable(&self) -> usize {
        self.requeued.load(SeqCst)
            + self
                .limit
                .load(SeqCst)
                .saturating_sub(self.cursor.0.load(SeqCst))
    }
}

/// One entry of the completion ring: filled by the runner that drew
/// sequence number `seq - 1`, emptied by the turn that absorbs it.
struct Slot {
    /// `s + 1` once the completion with sequence number `s` is in
    /// `done`; any other value means "not yet".
    seq: AtomicU64,
    done: Mutex<Option<WorkerDone>>,
}

/// The shared state of one job: claim lane, completion ring, parked
/// seats. See the module docs for who writes what.
pub(super) struct Board {
    lane: Lane,
    /// Sized to the window (rounded up to a power of two), so a
    /// published completion always finds its slot free.
    ring: Vec<Slot>,
    /// Sequence number the next publication draws.
    tail: Padded<AtomicU64>,
    /// Completions taken off the ring so far.
    absorbed: AtomicU64,
    /// Pending completions at which a batch is due: half the window, at
    /// least 1.
    wake_at: u64,
    /// Seats parked, or about to be, for lack of claimable work.
    starved: AtomicUsize,
    parked: Mutex<Vec<Seat>>,
    closed: AtomicBool,
    /// The home slot: whether the job's calling thread is waiting for a
    /// seat, and the one it was offered.
    home: Mutex<(bool, Option<Seat>)>,
    caller: Thread,
}

/// Locks a board mutex. Nothing panics while holding one (the critical
/// sections are pushes and pops), so poisoning cannot be observed.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("board lock poisoned")
}

impl Board {
    /// Builds the board of a stage of `tasks` tasks and `seats` seats,
    /// its window `capacity` plus its seats. Must be called on the job's
    /// calling thread: that is the thread a seat in the home slot and
    /// the end of the job wake. Every seat starts parked; the first
    /// admission hands them out, the first of them home.
    pub(super) fn new(tasks: usize, seats: usize, capacity: usize) -> Self {
        let window = capacity.max(1) + seats;
        Self {
            ring: (0..window.next_power_of_two())
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    done: Mutex::new(None),
                })
                .collect(),
            lane: Lane::new(tasks, window),
            tail: Padded(AtomicU64::new(0)),
            absorbed: AtomicU64::new(0),
            wake_at: (window / 2).max(1) as u64,
            starved: AtomicUsize::new(seats),
            parked: Mutex::new((0..seats).map(|id| Seat { id }).collect()),
            closed: AtomicBool::new(false),
            home: Mutex::new((true, None)),
            caller: std::thread::current(),
        }
    }

    /// The window: the bound on admitted-but-unabsorbed attempts, and
    /// the ticket quantum of every seat.
    pub(super) fn cap(&self) -> usize {
        self.lane.cap
    }

    /// The number of tasks, the end of the release order.
    pub(super) fn len(&self) -> usize {
        self.lane.len
    }

    // --- the runner whose turn it is ---------------------------------------

    /// Admits fresh tasks up to index `to`. Returns the claimable count
    /// right after, for the trace.
    pub(super) fn raise(&self, to: usize) -> usize {
        let l = &self.lane;
        l.limit.store(to, SeqCst);
        l.claimable()
    }

    /// Admits a squash redispatch; runners claim it before the cursor.
    pub(super) fn requeue(&self, item: WorkItem) -> usize {
        let l = &self.lane;
        let mut q = lock(&l.requeue);
        q.push_back(item);
        l.requeued.store(q.len(), SeqCst);
        drop(q);
        l.claimable()
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.ring[seq as usize & (self.ring.len() - 1)]
    }

    /// Whether the completion with sequence number `head` is in its slot.
    fn is_published(&self, head: u64) -> bool {
        self.slot(head).seq.load(SeqCst) == head + 1
    }

    /// Whether a batch is due, the condition under which a runner tries
    /// for a turn: half a window pending, or anything pending with a
    /// seat starved, once the batch's first slot is filled. `pending`
    /// counts every sequence number drawn, so a publisher that was slow
    /// to fill the ring's head slot sees, when it has, the completions
    /// queued behind it, whose own look found the head empty.
    pub(super) fn due(&self) -> bool {
        let head = self.absorbed.load(SeqCst);
        let pending = self.tail.0.load(SeqCst).saturating_sub(head);
        (pending >= self.wake_at || (pending > 0 && self.starved.load(SeqCst) > 0))
            && self.is_published(head)
    }

    /// The completion with sequence number `head`, once published.
    pub(super) fn take_published(&self, head: u64) -> Option<WorkerDone> {
        self.is_published(head)
            .then(|| lock(&self.slot(head).done).take())
            .flatten()
    }

    /// Tells the next `due` look how far the ring has been drained.
    pub(super) fn set_absorbed(&self, head: u64) {
        self.absorbed.store(head, SeqCst);
    }

    /// Takes back parked seats while there is claimable work for them,
    /// at most one per claimable attempt; the caller hands their tickets
    /// to the pool. Call after [`raise`](Self::raise) /
    /// [`requeue`](Self::requeue): those stores precede this load of
    /// `starved` and this scan, [`park`] increments `starved` before its
    /// last look at the lane, which it takes under the `parked` lock, so
    /// a parking seat is found here or sees the new work itself.
    pub(super) fn unpark_claimable(&self, out: &mut Vec<Seat>) {
        if self.starved.load(SeqCst) == 0 {
            return;
        }
        let mut parked = lock(&self.parked);
        let wanted = self.lane.claimable().min(parked.len());
        out.extend(parked.drain(..wanted));
        self.starved.fetch_sub(wanted, SeqCst);
    }

    /// Ends the job: claims fail from here on, tickets still queued
    /// anywhere are dropped by whoever pops them, and the caller wakes
    /// to write the report.
    pub(super) fn close(&self) {
        self.closed.store(true, SeqCst);
        self.caller.unpark();
    }

    pub(super) fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }

    /// Sequence numbers drawn so far (the watchdog's idea of progress).
    pub(super) fn published(&self) -> u64 {
        self.tail.0.load(SeqCst)
    }

    /// Offers `seat`'s ticket to the job's own calling thread, which
    /// takes it (and is woken) only if it is waiting with nothing in
    /// hand. Otherwise the ticket is the pool's.
    pub(super) fn offer_home(&self, seat: Seat) -> bool {
        let mut home = lock(&self.home);
        let taken = home.0 && home.1.is_none();
        if taken {
            home.1 = Some(seat);
            self.caller.unpark();
        }
        taken
    }

    /// The caller's side of the home slot: the seat it was offered, or
    /// a note that it is waiting for one.
    pub(super) fn take_home(&self) -> Option<Seat> {
        let mut home = lock(&self.home);
        let seat = home.1.take();
        home.0 = seat.is_none();
        seat
    }

    // --- every runner -------------------------------------------------------

    /// Claims the next attempt: a requeued squash first, else the
    /// cursor's task if it is below the limit. Returns the attempt and
    /// the claimable count right after the claim.
    pub(super) fn claim(&self) -> Option<(WorkItem, usize)> {
        let l = &self.lane;
        if l.requeued.load(SeqCst) > 0 {
            let mut q = lock(&l.requeue);
            if let Some(item) = q.pop_front() {
                l.requeued.store(q.len(), SeqCst);
                drop(q);
                return Some((item, l.claimable()));
            }
        }
        let mut at = l.cursor.0.load(SeqCst);
        loop {
            let limit = l.limit.load(SeqCst);
            if at >= limit {
                return None;
            }
            match l.cursor.0.compare_exchange_weak(at, at + 1, SeqCst, SeqCst) {
                Ok(_) => {
                    let item = WorkItem {
                        task: at as u32,
                        attempt: 0,
                    };
                    return Some((item, l.requeued.load(SeqCst) + limit - at - 1));
                }
                Err(now) => at = now,
            }
        }
    }

    /// [`claim`](Self::claim), retried [`SPINS`] times on an empty
    /// lane.
    fn claim_or_spin(&self) -> Option<(WorkItem, usize)> {
        for _ in 0..SPINS {
            if let Some(claimed) = self.claim() {
                return Some(claimed);
            }
            if self.closed.load(SeqCst) {
                break;
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Publishes a completion; the publisher's [`take_turns`] follows.
    /// Together: fill the slot → store `seq` → load [`due`](Self::due)
    /// → `try_lock`. A turn ends: unlock → load `due` → retry. No turn
    /// is lost: a publisher only gives up when its `try_lock` failed,
    /// so the holder's unlock, and the `due` look after it, come later
    /// in the one total order than this slot's `seq` — the holder sees
    /// everything the loser saw. (A stale `absorbed` only over-counts
    /// `pending`.)
    fn publish(&self, done: WorkerDone) {
        let seq = self.tail.0.fetch_add(1, SeqCst);
        let slot = self.slot(seq);
        *lock(&slot.done) = Some(done);
        slot.seq.store(seq + 1, SeqCst);
    }
}

/// Parks `seat` for lack of claimable work, unless work turned up
/// meanwhile (returns `false`: claim again): bump `starved` → look at
/// the lane → try for the turn if one is due → look at the lane again,
/// under the `parked` lock → park. Bumping `starved` first is what makes
/// anything pending due, so nothing stays unabsorbed behind a parked
/// seat: this runner takes the turn itself, or lost the `try_lock` to a
/// holder whose look after unlocking sees the bump, or nothing is
/// published yet and the publisher's own look will see it. A turn that
/// admits meanwhile is found by the second look.
fn park(job: &Arc<JobShared>, seat: Seat, pool: &Injector<Ticket>) -> bool {
    let board = &job.board;
    board.starved.fetch_add(1, SeqCst);
    if board.lane.claimable() == 0 {
        take_turns(job, pool);
        let mut parked = lock(&board.parked);
        if board.lane.claimable() == 0 {
            parked.push(seat);
            return true;
        }
    }
    board.starved.fetch_sub(1, SeqCst);
    false
}

/// A blocking MPMC queue of tickets: how an idle worker is handed a
/// seat. The engine owns one for every job it runs. Touched once per ticket,
/// never per task.
pub(super) struct Injector<T> {
    /// The queue, and whether it has been closed.
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
}

impl<T> Injector<T> {
    pub(super) fn new() -> Self {
        Self {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Queues `ticket` at the tail (dropped if the injector closed).
    pub(super) fn push(&self, ticket: T) {
        let mut state = lock(&self.state);
        if !state.1 {
            state.0.push_back(ticket);
            self.ready.notify_one();
        }
    }

    /// Blocks for the next ticket; `None` once closed.
    pub(super) fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if state.1 {
                return None;
            }
            if let Some(ticket) = state.0.pop_front() {
                return Some(ticket);
            }
            state = self.ready.wait(state).expect("board lock poisoned");
        }
    }

    /// Drops every queued ticket and releases every blocked worker.
    pub(super) fn close(&self) {
        let mut state = lock(&self.state);
        state.0.clear();
        state.1 = true;
        self.ready.notify_all();
    }
}

/// One job as its runners share it: the spec every attempt runs
/// against, the trace clock, the board, and the frontier one of them at
/// a time takes a turn at. Every ticket of the job holds an `Arc` of it,
/// so a straggler still running one of its attempts after the job ended
/// publishes into this job's closed board, never the next job's.
pub(super) struct JobShared {
    pub job: JobId,
    pub spec: JobSpec,
    pub clock: TraceClock,
    pub board: Board,
    pub frontier: Mutex<Frontier>,
}

impl JobShared {
    /// Runs one attempt's body on the calling thread, catching a panic.
    /// [`run_attempt`] passes the job's substrate, the attempt's version
    /// already open, and the turn passes `None` when it replays a task
    /// as the fallback executor — on
    /// purpose even for versioned jobs: a sequential replay must compute
    /// the task's result without opening, or double-applying into, a
    /// memory version.
    ///
    /// # Errors
    ///
    /// [`ExecError::TaskFailed`] if the body panicked: recoverable in a
    /// pipelined attempt (the commit unit squashes and replays), final
    /// under the frontier lock, where no replay exists.
    pub(super) fn run_here(
        &self,
        task: u32,
        attempt: u32,
        mem: Option<&ConcurrentVersionedMemory>,
    ) -> Result<TaskOutput, ExecError> {
        let ctx = TaskCtx { attempt, mem };
        catch_unwind(AssertUnwindSafe(|| self.spec.body.run(TaskId(task), &ctx)))
            .map_err(|_| ExecError::TaskFailed { task: TaskId(task) })
    }
}

/// How often a runner retries an empty lane, a
/// [`spin_loop`](std::hint::spin_loop) hint apart, before it parks its
/// seat. About a microsecond — enough to ride out another runner being
/// mid-admission on another core, and nothing on a core the two share.
const SPINS: u32 = 64;

/// Serves `seat`'s ticket: claim → [`run_attempt`] → publish → a turn
/// at the frontier if that made a batch due, until a window of claims
/// (the ticket quantum), an empty lane, or the end of the job. Each
/// completion carries the attempt's timing and trace events with it.
///
/// Returns whether the quantum ran out: a pool worker then hands the
/// ticket on, so a pool smaller than the seats round-robins them and a
/// waiting caller gets a seat back. Otherwise the
/// ticket is spent — the seat is parked on the board, and the next turn
/// that admits work hands it out again, or the job is over.
pub(super) fn serve(job: &Arc<JobShared>, seat: Seat, pool: &Injector<Ticket>) -> bool {
    let board = &job.board;
    let mut trace = TraceBuffer::for_job(job.clock, job.job);
    let mut claims = 0;
    loop {
        if board.closed.load(SeqCst) {
            return false;
        }
        if claims >= board.cap() {
            return true;
        }
        let Some((item, occupancy)) = board.claim_or_spin() else {
            if park(job, seat, pool) {
                return false;
            }
            continue;
        };
        claims += 1;
        trace.record(TraceEventKind::QueuePop {
            task: item.task,
            attempt: item.attempt,
            occupancy,
        });
        let mut done = run_attempt(job, seat, item, &mut trace);
        done.events = trace.take_events();
        board.publish(done);
        take_turns(job, pool);
    }
}

/// Runs one attempt end to end — fault injection, version open, the
/// body under `catch_unwind`, and the dispatch/complete trace pair —
/// and returns the completion to report, the body time it charges to
/// `seat` included. The events stay in `trace`; the caller
/// decides how they travel.
fn run_attempt(job: &JobShared, seat: Seat, item: WorkItem, trace: &mut TraceBuffer) -> WorkerDone {
    let faults = &job.spec.config.fault_plan;
    let mem = job.spec.mode.mem();
    let fault = faults.fault_at(item.task, item.attempt);
    // The one stage, to the trace.
    let stage = 0;
    if fault == Some(FaultKind::WorkerPanic) {
        // Injected panic: the attempt dies before the body runs.
        // Reported through the same `panicked` channel as a caught
        // real panic (rather than unwinding for real) so chaos runs
        // do not spray panic-hook noise over the test output. The
        // trace still gets a dispatch/complete pair so the attempt
        // shows up as a (zero-length) slice.
        trace.record(TraceEventKind::Dispatch {
            core: seat.id,
            stage,
            task: item.task,
            attempt: item.attempt,
        });
        trace.record(TraceEventKind::Complete {
            core: seat.id,
            stage,
            task: item.task,
            attempt: item.attempt,
            panicked: true,
            stalled: false,
        });
        return WorkerDone {
            task: item.task,
            attempt: item.attempt,
            output: TaskOutput::empty(),
            panicked: true,
            stalled: false,
            seat: seat.id,
            busy: Duration::ZERO,
            events: Vec::new(),
        };
    }
    trace.record(TraceEventKind::Dispatch {
        core: seat.id,
        stage,
        task: item.task,
        attempt: item.attempt,
    });
    let stalled = fault == Some(FaultKind::StageStall);
    if stalled {
        // The injected stall counts into the traced service time
        // (the slice shows the wedged stage) but not into `busy`.
        std::thread::sleep(faults.stall_duration());
    }
    // Versioned runs: open the attempt's memory version before the
    // body runs. A squashed predecessor attempt was rolled back at
    // the frontier before this re-dispatch, so `begin` never sees a
    // live duplicate.
    if let Some(m) = mem {
        m.begin(VersionId(u64::from(item.task)));
    }
    let started = Instant::now();
    let result = job.run_here(item.task, item.attempt, mem);
    let busy = started.elapsed();
    // A real body panic no longer kills the run: the worker survives
    // and the commit unit squashes and replays the attempt under the
    // task's retry budget.
    let panicked = result.is_err();
    let output = result.unwrap_or_else(|_| TaskOutput::empty());
    trace.record(TraceEventKind::Complete {
        core: seat.id,
        stage,
        task: item.task,
        attempt: item.attempt,
        panicked,
        stalled,
    });
    WorkerDone {
        task: item.task,
        attempt: item.attempt,
        output,
        panicked,
        stalled,
        seat: seat.id,
        busy,
        events: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_batch_threshold_is_half_the_window() {
        let board = Board::new(8, 2, 32);
        assert_eq!(board.wake_at, (32 + 2) / 2, "queue capacity plus two seats");
        let one = Board::new(8, 1, 0);
        assert_eq!(one.wake_at, 1, "a window of two wakes at every publication");
    }
}
