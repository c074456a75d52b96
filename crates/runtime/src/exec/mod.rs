//! The real-thread pipelined executor.
//!
//! [`Simulator`](crate::Simulator) *estimates* what a plan would do on
//! the paper's modelled hardware; an [`Engine`] actually *runs* a loop
//! on OS threads. The paper has one machine (§3.1: cores, queues, one
//! versioned memory) and so does this module: the engine is the only
//! owner of worker threads, and a [`JobSpec`] — a task count, the seats
//! of the one stage, a [`NativeBody`] supplying each task's real
//! computation, a [`JobMode`] and an [`ExecConfig`] — handed to
//! [`Engine::run`] is the only way in. Like the paper's runtime, an
//! engine runs one parallelized loop at a time: a second `run` while one
//! is in flight is refused ([`ExecError::Busy`]). A run enforces the
//! paper's execution model with real concurrency primitives:
//!
//! * **One stage** (the paper's speculative phase, run as TLS): a job is
//!   one stage of tasks and nothing else can be written down. Mapping a
//!   plan onto seats, and refusing the plans that do not map, happens
//!   before a job exists, where the static lint checks the same. The
//!   paper's serial phase C runs on the frontier's turn, as each task
//!   commits ([`NativeBody::commit`]); the
//!   [`Simulator`](crate::Simulator) keeps the three-phase pipeline.
//! * **Bounded windows** (§3.1's 32-entry core-to-core queues): the
//!   stage is a *lane* — its tasks in task order, an atomic claim
//!   cursor the runners advance, and an atomic limit admission raises.
//!   At most [`ExecConfig::queue_capacity`] attempts plus one per seat
//!   are admitted and not yet absorbed; a lane that runs that far
//!   ahead of the commit frontier has nothing to claim.
//! * **Dynamic least-loaded assignment** (§3.2): every seat claims from
//!   the one lane, so the next task goes to whichever runner frees up
//!   first — the runnable equivalent of "least work enqueued".
//! * **No thread that only watches** (§3.1's machine has none): every
//!   thread of a job runs bodies — the pool's workers and the thread
//!   that called [`Engine::run`], which holds a seat like the rest.
//!   Runners publish completions into a sequence-numbered ring; the
//!   one whose publication makes a batch due (half a window pending, or
//!   claimable work ran out somewhere) `try_lock`s the job's
//!   `Frontier` and takes a *turn* — absorbs everything published,
//!   runs the commit frontier once over the lot, raises the limits —
//!   while the others claim on (the board and the turn rule are in
//!   `stage.rs`, the turn's steps below).
//! * **In-order commit**: a reorder buffer releases task outputs in
//!   task order (the sequential program order), exactly the commit
//!   discipline the paper's versioned memory enforces. As a task's bytes
//!   join the stream the body finishes them ([`NativeBody::commit`]):
//!   order-dependent state folds there, in serial phase C, where no
//!   attempt can conflict on it.
//! * **Misspeculation rollback**, its squash source the job's
//!   [`JobMode`]:
//!   * *Conflict-driven* ([`JobMode::Versioned`], what every workload
//!     and every benchmark runs): the task bodies route their
//!     speculative state through the job's
//!     [`ConcurrentVersionedMemory`], each attempt running inside its
//!     own version. Reads eagerly forward uncommitted stores from
//!     earlier versions; a non-silent write that contradicts a value a
//!     later version already observed squashes that version *at the
//!     memory substrate*, at access granularity — real conflict
//!     detection. The commit frontier checks the version
//!     ([`ConcurrentVersionedMemory::commit_check_batch`]) before
//!     irrevocably publishing anything, rolls conflicted versions back,
//!     and re-dispatches.
//!   * *Replay* ([`JobMode::Replay`]): each task's recorded speculation
//!     ([`SpecRecord`]) drives squashes — the paper's own method of
//!     replaying the dependences that actually occurred. A task's first
//!     attempt is dispatched without waiting for its speculated
//!     producers — that is what makes it speculative — so when a
//!     speculated dependence *manifested*, the commit unit rejects the
//!     attempt, discards its output, and re-dispatches the task. It is
//!     kept as the deterministic reference that ties the native squash,
//!     violation and recovery counters to the simulator's (and to
//!     [`predict_recovery`], which reads the same table).
//!
//!   Either way the re-execution starts only after every earlier task
//!   has committed (commit is in-order), mirroring how a TLS restart
//!   re-reads committed memory versions.
//!
//! Because commit order is fixed and replayed squash decisions depend
//! only on the recorded speculation — not on thread timing — a
//! replay's output byte stream, squash count, and per-task work
//! counters are fully deterministic across runs and thread
//! interleavings. On a conflict-driven run the *conflict counts* are
//! genuinely timing-dependent (they record real races), but the
//! committed output is still byte-identical to sequential execution: a
//! version only commits when every value it read matched the state all
//! earlier commits produced. The differential suites
//! (`tests/differential_native.rs`, `tests/versioned_native.rs`) check
//! these properties against the simulator and the sequential oracle for
//! every workload.

mod commit;
mod engine;
mod faults;
mod metrics;
mod stage;
mod trace;

pub use engine::{Engine, EngineConfig, JobMode, JobSpec};
pub use faults::{
    predict_recovery, FaultKind, FaultPlan, RecoveryCounts, RecoveryPrediction, SpecRecord,
};
pub use metrics::{GovernorStats, NativeReport, WorkerStat};
pub use trace::{
    CriticalPath, DurationStats, JobId, SquashReason, StageMetrics, TimeUnit, Timeline,
    TraceDefect, TraceEvent, TraceEventKind,
};

use crate::task::TaskId;
use commit::{CommitUnit, Stop};
use engine::{hand, Ticket};
use seqpar_specmem::ConcurrentVersionedMemory;
use stage::{Injector, JobShared, Seat, WorkItem};
use std::collections::VecDeque;
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};
use trace::TraceBuffer;

/// The attempt number the sequential fallback runs tasks at: far above
/// any pipelined attempt, never speculative, never fault-injected.
/// Trace consumers see it on the [`TraceEventKind::Commit`] events of
/// fallback-committed tasks, which have no worker-side dispatch.
pub const FALLBACK_ATTEMPT: u32 = u32::MAX;

/// Why a native run could not produce a report.
///
/// Recoverable failures (worker panics, stalls) never surface here —
/// the commit frontier squashes and replays them, degrading to
/// sequential execution when a retry budget runs out. `ExecError` is
/// reserved for the cases where no legal sequential outcome can be
/// produced at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A task body panicked where no replay is possible: on the
    /// sequential fallback path. The body itself cannot produce the
    /// task's sequential result, so the run has no legal outcome.
    TaskFailed {
        /// The task whose body failed.
        task: TaskId,
    },
    /// The engine was running another job: it runs one at a time. A
    /// body that calls [`Engine::run`] on the engine running it gets
    /// this too, rather than waiting for its own job.
    Busy,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TaskFailed { task } => write!(
                f,
                "task {} failed un-replayably (body panicked on the sequential path)",
                task.0
            ),
            ExecError::Busy => write!(f, "the engine is running another job"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Machine and supervision parameters for native execution.
///
/// Not `Copy` (the fault plan owns a forced-injection list); clone it
/// to share across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Entries of the stage's input queue (the paper models 32-entry
    /// hardware queues; [`crate::SimConfig::queue_capacity`] is the
    /// simulated twin of this knob): the admission window is this plus
    /// one in-service slot per seat. Values below 1 are clamped to 1
    /// (see [`ExecConfig::with_queue_capacity`]).
    pub queue_capacity: usize,
    /// Worker-panic replays allowed per task (misspeculation and
    /// conflict replays are part of the normal protocol and are not
    /// charged; a stall that finishes costs nothing). When a task
    /// exceeds the budget the executor degrades to in-order sequential
    /// execution of the remaining tasks instead of aborting; budget 0
    /// falls back on the first panic.
    pub retry_budget: u32,
    /// Deadline of the stall watchdog: when no completion is published
    /// and nothing commits for this long while the job's calling thread
    /// waits for a seat, it declares the pipeline wedged and switches to
    /// the sequential fallback. (A thread inside a task body watches
    /// nothing: a stall on the caller's own seat simply takes its time.)
    pub watchdog_deadline: Duration,
    /// The chaos schedule (default: [`FaultPlan::none`], which injects
    /// nothing).
    pub fault_plan: FaultPlan,
    /// Record a structured execution trace: every dispatch, completion,
    /// queue push/pop, squash, and commit lands in a per-thread
    /// [`TraceBuffer`](Timeline) and the stitched [`Timeline`] is
    /// returned on [`NativeReport::timeline`]. Off by default — when
    /// off, recording is a single branch per would-be event.
    pub trace: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 32,
            retry_budget: 3,
            watchdog_deadline: Duration::from_secs(30),
            fault_plan: FaultPlan::none(),
            trace: false,
        }
    }
}

impl ExecConfig {
    /// A default config whose queues hold `queue_capacity` entries.
    ///
    /// `queue_capacity` is clamped to a minimum of 1 — **explicitly**:
    /// a queue that holds nothing models no hardware. Capacity 0
    /// therefore behaves exactly like capacity 1 (one queued item,
    /// maximum backpressure), which the regression test
    /// `zero_capacity_clamps_to_one_and_both_drain_a_parallel_stage`
    /// pins down.
    pub fn with_queue_capacity(queue_capacity: usize) -> Self {
        Self {
            queue_capacity: queue_capacity.max(1),
            ..Self::default()
        }
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Replaces the per-task retry budget.
    pub fn with_retry_budget(mut self, retry_budget: u32) -> Self {
        self.retry_budget = retry_budget;
        self
    }

    /// Replaces the watchdog deadline.
    pub fn with_watchdog_deadline(mut self, watchdog_deadline: Duration) -> Self {
        self.watchdog_deadline = watchdog_deadline;
        self
    }

    /// Turns structured execution tracing on or off (see
    /// [`ExecConfig::trace`]).
    pub fn with_tracing(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Returns the config unchanged: there is no runtime governor.
    /// Whether a loop speculates is its plan's decision, made before
    /// the run, and a one-seat plan runs the same board, frontier and
    /// substrate as any other. A shim, kept only while `benchmark/`
    /// calls it.
    pub fn with_governor(self, _governor: GovernorConfig) -> Self {
        self
    }
}

/// Nothing to configure: the argument of the [`ExecConfig::with_governor`]
/// shim, kept only while `benchmark/` names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorConfig {}

/// What one task produced: the bytes it contributes to the in-order
/// output stream plus the work units it really performed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskOutput {
    /// Bytes appended to the committed output stream (commit order =
    /// task order).
    pub bytes: Vec<u8>,
    /// Work units performed (a deterministic cost meter, the native
    /// twin of simulated task cost).
    pub work: u64,
}

impl TaskOutput {
    /// An output with `bytes` and no metered work.
    pub fn bytes(bytes: Vec<u8>) -> Self {
        Self { bytes, work: 0 }
    }

    /// An empty output.
    pub fn empty() -> Self {
        Self::default()
    }
}

/// Execution context handed to [`NativeBody::run`].
#[derive(Debug)]
pub struct TaskCtx<'a> {
    /// 0 for the original (speculative) dispatch; incremented by each
    /// rollback re-execution.
    pub attempt: u32,
    /// The concurrent versioned memory this attempt's speculative state
    /// flows through, when the job is [`JobMode::Versioned`]. The
    /// executor has already opened version `VersionId(task.0)` for the
    /// attempt; the body issues `read`/`write` against it and must
    /// **not** begin, commit, or roll it back itself. `None` on replay
    /// jobs *and* on the sequential fallback path — a versioned body
    /// must compute its sequential result without the substrate when
    /// this is `None`.
    pub mem: Option<&'a ConcurrentVersionedMemory>,
}

impl TaskCtx<'_> {
    /// Whether this execution is the speculative first attempt.
    ///
    /// A first attempt is dispatched without waiting for the task's
    /// speculated producers, so a body whose trace recorded a
    /// manifested dependence must produce its *stale* result here (the
    /// value speculation would really have computed); re-executions
    /// (`attempt > 0`) run after every earlier task committed and must
    /// produce the true result. Branching on this flag rather than on
    /// how far the racing commits have got keeps outputs deterministic.
    pub fn speculative(&self) -> bool {
        self.attempt == 0
    }
}

/// The real computation behind a job's tasks: the executor calls
/// [`NativeBody::run`] on worker threads, one call per dispatch (so a
/// squashed task's body runs again for the re-execution), and
/// [`NativeBody::commit`] once per task, on the attempt that commits.
pub trait NativeBody: Send + Sync {
    /// Executes `task` and returns its output.
    fn run(&self, task: TaskId, ctx: &TaskCtx<'_>) -> TaskOutput;

    /// Finishes `task`'s committed bytes as they join the output stream:
    /// called for every task exactly once, in task order, under the
    /// frontier lock — by the batch drain and the sequential fallback
    /// alike. What a body folds here is the
    /// paper's serial phase C: order-dependent state no speculative
    /// attempt touches, so none conflicts on it. It must not panic. The
    /// default does nothing.
    fn commit(&self, task: TaskId, bytes: &mut [u8]) {
        let _ = (task, bytes);
    }
}

impl<F> NativeBody for F
where
    F: Fn(TaskId, &TaskCtx<'_>) -> TaskOutput + Send + Sync,
{
    fn run(&self, task: TaskId, ctx: &TaskCtx<'_>) -> TaskOutput {
        self(task, ctx)
    }
}

/// The admission state over a job's [`Board`](stage::Board): which
/// squashed attempts await readmission, how far fresh tasks are
/// released, and how much of the window is in use. Part of the
/// [`Frontier`], so only the runner whose turn it is touches it; the
/// board carries only what admission publishes. Speculated deps do not
/// gate admission — running ahead of them is what speculation means —
/// and a job has no other kind.
#[derive(Default)]
struct Dispatcher {
    /// Squashed attempts awaiting readmission, ahead of any fresh work.
    pending: VecDeque<WorkItem>,
    /// Fresh tasks before this index are admitted.
    released: usize,
    /// Attempts admitted and not yet absorbed.
    outstanding: usize,
    /// Scratch for handing parked seats back.
    seats: Vec<Seat>,
}

impl Dispatcher {
    fn admitted(&mut self, item: WorkItem, occupancy: usize, trace: &mut TraceBuffer) {
        trace.record(TraceEventKind::QueuePush {
            task: item.task,
            attempt: item.attempt,
            occupancy,
        });
        self.outstanding += 1;
    }

    /// Admits whatever fits the window: requeued squashes first, then
    /// fresh tasks in order. Then hands parked seats their tickets back
    /// through `pool`. Each admission is traced as a `QueuePush` with
    /// the claimable count right after it.
    fn admit(&mut self, job: &Arc<JobShared>, pool: &Injector<Ticket>, trace: &mut TraceBuffer) {
        let board = &job.board;
        let cap = board.cap();
        while self.outstanding < cap {
            let Some(item) = self.pending.pop_front() else {
                break;
            };
            let occupancy = board.requeue(item);
            self.admitted(item, occupancy, trace);
        }
        let from = self.released;
        let to = board.len().min(from + cap.saturating_sub(self.outstanding));
        if to > from {
            self.released = to;
            let occupancy = board.raise(to);
            for idx in from..to {
                let item = WorkItem {
                    task: idx as u32,
                    attempt: 0,
                };
                let occupancy = occupancy.saturating_sub(to - 1 - idx);
                self.admitted(item, occupancy, trace);
            }
        }
        board.unpark_claimable(&mut self.seats);
        for seat in self.seats.drain(..) {
            hand(pool, job, seat);
        }
    }
}

/// Everything one job's commit frontier owns, behind the `Mutex` on
/// [`JobShared::frontier`]: one runner's at a time, handed over.
struct Frontier {
    dispatch: Dispatcher,
    commit: CommitUnit,
    /// The dispatcher's trace events, whichever thread's turn it was.
    trace: TraceBuffer,
    /// Sequence number of the next completion to take off the ring —
    /// completions absorbed so far.
    head: u64,
    /// Set by the turn that ended the job: whether the sequential
    /// fallback ran, or why no legal outcome exists.
    outcome: Option<Result<bool, ExecError>>,
}

impl Frontier {
    fn new(commit: CommitUnit, trace: TraceBuffer) -> Self {
        Self {
            dispatch: Dispatcher::default(),
            commit,
            trace,
            head: 0,
            outcome: None,
        }
    }
}

/// A runner's look at its job's frontier, after its own publication and
/// when the lane ran dry: while a batch is due, try for the turn. A
/// loser goes back to claiming, because the holder **looks again after
/// it unlocks** (this very loop) and the loser's publication or
/// `starved` bump precedes its failed `try_lock`. A straggler's
/// publication into an ended job stays due for ever: hence `is_closed`.
fn take_turns(job: &Arc<JobShared>, pool: &Injector<Ticket>) {
    while !job.board.is_closed() && job.board.due() {
        let Ok(f) = job.frontier.try_lock() else {
            return;
        };
        Turn { job, pool, f }.take();
    }
}

/// Runs `job` from the calling thread to its report: the first turn
/// (nothing is due before the first admission), then a body-runner like
/// any other — but only ever on a seat of *this* job, taken from the
/// home slot — asleep only while the job has no seat to offer it. That
/// sleep doubles as the watchdog.
fn call(
    job: &Arc<JobShared>,
    pool: &Injector<Ticket>,
    started: Instant,
) -> Result<NativeReport, ExecError> {
    let board = &job.board;
    Turn::wait_for(job, pool).take();
    let deadline = job.spec.config.watchdog_deadline;
    // Publications, which never fall and precede every commit of an
    // open board: what the job had done when it last moved, and when
    // this thread noticed.
    let mut moved = (board.published(), Instant::now());
    let mut watchdog_trips = 0;
    while !board.is_closed() {
        if let Some(seat) = board.take_home() {
            // A spent quantum: the caller has no other job to yield to.
            while stage::serve(job, seat, pool) {}
            continue;
        }
        if board.published() != moved.0 {
            moved = (board.published(), Instant::now());
        }
        let waited = moved.1.elapsed();
        if waited >= deadline {
            // A whole deadline without a publication: a stage is wedged,
            // and the rest runs here. The lock is waited for: only
            // fallback bodies run under it. Closing the board ends this
            // loop.
            board.close();
            let mut turn = Turn::wait_for(job, pool);
            if turn.f.outcome.is_none() {
                watchdog_trips += 1;
                turn.f.trace.record(TraceEventKind::WatchdogTrip);
                turn.end(Err(Stop::FallBack));
            }
            continue;
        }
        std::thread::park_timeout(deadline - waited);
    }
    // Stragglers of a fallen-back job may still be running on pool
    // workers; they publish into a closed board, and are dropped with it.
    let mut turn = Turn::wait_for(job, pool);
    let f = &mut *turn.f;
    let fallback = f.outcome.clone().expect("a closed board has an outcome")?;
    let dispatch_events = f.trace.take_events();
    let ended = (watchdog_trips, fallback);
    Ok(f.commit
        .report(job, started.elapsed(), ended, dispatch_events))
}

/// One turn at a job's frontier: the lock, and the steps taken under it
/// — absorb **every** published completion, admit behind them, run one
/// frontier drain over the lot, admit again — and the sequential
/// fallback when a retry budget or the watchdog demands it.
struct Turn<'a> {
    job: &'a Arc<JobShared>,
    pool: &'a Injector<Ticket>,
    f: MutexGuard<'a, Frontier>,
}

impl<'a> Turn<'a> {
    /// Blocks for the frontier: the caller's first turn, its watchdog,
    /// and its report.
    fn wait_for(job: &'a Arc<JobShared>, pool: &'a Injector<Ticket>) -> Self {
        let f = job
            .frontier
            .lock()
            .expect("a turn at the frontier panicked");
        Turn { job, pool, f }
    }

    /// Takes the turn, ending the job if this is where it ends.
    fn take(mut self) {
        if self.f.outcome.is_none() {
            match self.steps() {
                Ok(false) => {}
                ended => self.end(ended.map(drop)),
            }
        }
    }

    /// The pipelined protocol's steps; `true` once every task has
    /// committed.
    fn steps(&mut self) -> Result<bool, Stop> {
        if self.absorb_batch() {
            // The absorbed attempts freed window space: admit behind
            // them *before* the frontier runs, so the other runners
            // claim on while this one commits.
            self.admit();
            self.drain_frontier()?;
        }
        if self.f.commit.committed_tasks() >= self.job.spec.tasks {
            return Ok(true);
        }
        self.admit();
        Ok(false)
    }

    /// Ends the job under the lock: closes the board (which wakes the
    /// caller), runs the fallback if that is how it ends, and leaves the
    /// outcome for the caller's report.
    fn end(&mut self, stopped: Result<(), Stop>) {
        self.job.board.close();
        self.f.outcome = Some(match stopped {
            Ok(()) => Ok(false),
            Err(Stop::FallBack) => self.fall_back().map(|()| true),
            Err(Stop::Failed(e)) => Err(e),
        });
    }

    /// Opens the board to whatever the window allows.
    fn admit(&mut self) {
        let f = &mut *self.f;
        f.dispatch.admit(self.job, self.pool, &mut f.trace);
    }

    /// Takes every completion the runners have published off the ring
    /// into the reorder buffer. Returns whether there was any.
    fn absorb_batch(&mut self) -> bool {
        let (job, f) = (self.job, &mut *self.f);
        let before = f.head;
        while let Some(done) = job.board.take_published(f.head) {
            f.head += 1;
            f.dispatch.outstanding -= 1;
            f.commit.accept(done);
        }
        if f.head == before {
            return false;
        }
        job.board.set_absorbed(f.head);
        true
    }

    /// Runs the commit frontier once over everything absorbed, and puts
    /// the attempts it squashed back in line (rollback: a discarded
    /// attempt's output is gone).
    fn drain_frontier(&mut self) -> Result<(), Stop> {
        let (job, f) = (self.job, &mut *self.f);
        f.dispatch.pending.extend(f.commit.drain(job)?);
        Ok(())
    }

    /// Graceful degradation: commits every remaining task in order on
    /// this thread, fault-free and non-speculative — exactly a resumed
    /// sequential run — after rolling back the versions of the attempts
    /// it will not commit.
    fn fall_back(&mut self) -> Result<(), ExecError> {
        let (job, f) = (self.job, &mut *self.f);
        f.commit.discard_buffered(job);
        let from = f.commit.committed_tasks();
        f.trace.record(TraceEventKind::FallbackActivated {
            from_task: from as u32,
        });
        for task in from..job.spec.tasks {
            let output = job.run_here(task as u32, FALLBACK_ATTEMPT, None)?;
            f.commit.commit_fallback(job, output);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
