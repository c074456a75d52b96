//! The engine: the one owner of worker threads.
//!
//! An [`Engine`] owns one long-lived pool of OS threads, spawned lazily
//! on the first ticket the pool is handed and shared by every job given
//! to it. A job is a [`JobSpec`]; [`Engine::run`] runs it from the
//! calling thread, [`Engine::submit`] from a thread of its own,
//! returning at once with a [`JobHandle`] — either way one more of the
//! job's body-runners, not a watcher. Any number of jobs run
//! concurrently, each with its own commit frontier, fault plan, trace
//! buffers, and (for versioned jobs) memory substrate. A
//! caller with one loop to run builds an engine one narrower than the
//! plan and drops it afterwards; a harness that runs many keeps one
//! warmed engine and pays thread start-up once.
//!
//! # Job isolation invariants
//!
//! Jobs share only the stateless worker threads. Everything stateful
//! is keyed by the job:
//!
//! - every ticket carries an `Arc` of its job's shared state, so a
//!   worker executes each attempt against that job's board, graph,
//!   body, substrate, and fault plan — never a neighbour's;
//! - every trace event a runner records is stamped with the job's
//!   [`JobId`] and travels to the job's frontier inside the attempt's
//!   completion, so the [`Timeline`](super::Timeline)s of concurrent
//!   jobs never mix;
//! - commit frontiers and retry budgets live behind each job's own
//!   frontier lock; a conflict storm in one job squashes only that
//!   job's attempts.
//!
//! # Scheduling and liveness
//!
//! The injector carries *tickets* — (job, seat) pairs — not tasks. A
//! runner holding a ticket runs the claim loop of [`super::stage`]
//! over that job's board, touching no engine-wide state per task, and
//! takes a turn at that job's frontier when its own publication makes
//! a batch due. It gives the ticket up in one of two ways: after one
//! window of claims (the *ticket quantum*) a pool worker hands it on —
//! to the job's own caller if that is waiting for a seat, else to the
//! injector's tail, so a pool smaller than the sum of its jobs' seats
//! round-robins between them; when its lane runs dry it parks the seat
//! on the job's board, and the next turn that admits into the lane
//! hands the ticket out again. The thread that called `run` (or the job
//! thread of `submit`) serves seats of *its* job only, so it returns
//! within one attempt of the job's last commit, and sleeps only while
//! the job has no seat for it; that sleep is the watchdog. Task bodies
//! never block on other tasks (ordering is enforced at each job's
//! commit frontier), so a busy pool delays jobs but cannot deadlock
//! them. Size the pool to the most cores a single plan names *minus
//! one* — the caller is the last, and every job in flight brings its
//! own runner; seats on one core, or a pool smaller than the seats,
//! time-slice.
//!
//! # Lifecycle
//!
//! The pool lives as long as anything can still hand it a ticket: the
//! [`Engine`] handle, and the job thread of every submitted job.
//! Dropping the handle with jobs in flight therefore costs them
//! nothing — they finish on the pool, no watchdog trips, no fallback
//! runs — and the last job thread to finish closes the injector and
//! joins the workers, which hold only the injector themselves.

use super::commit::CommitUnit;
use super::stage::{serve, Board, Injector, JobShared, Seat};
use super::trace::{JobId, TraceBuffer, TraceClock};
use super::{call, ExecConfig, ExecError, Frontier, NativeBody, NativeReport};
use crate::plan::ExecutionPlan;
use crate::task::TaskGraph;
use seqpar_specmem::ConcurrentVersionedMemory;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pool parameters for an [`Engine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// OS threads in the shared worker pool ([`Engine::new`] clamps it
    /// to at least 1), not counting the thread each job is run from,
    /// which works too. Spawned lazily on the first ticket handed to
    /// the pool, so an engine that only ever runs one-seat jobs costs
    /// no threads.
    pub workers: usize,
}

impl Default for EngineConfig {
    /// One worker per core but one: the caller is the last runner.
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(8, std::num::NonZero::get);
        Self { workers: cores - 1 }
    }
}

impl EngineConfig {
    /// A pool of `workers` threads (an engine given 0 runs 1).
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// A pool with one worker per distinct core of `plan` but one: the
    /// thread that runs the job is the last. Stages that share a core
    /// share its thread, so `three_phase(2)` gets one worker, and a
    /// one-core plan none ([`Engine::new`] still spawns one).
    pub fn for_plan(plan: &ExecutionPlan) -> Self {
        let cores: BTreeSet<usize> = (0..plan.stage_count())
            .flat_map(|s| plan.stage(s).cores())
            .collect();
        Self::with_workers(cores.len().saturating_sub(1))
    }
}

/// One submittable unit of work: a task graph, the plan to run it
/// under, the body computing each task, an optional versioned-memory
/// substrate, and the per-job supervision parameters. Everything is
/// owned (`Arc`'d) because the engine's threads outlive any borrow the
/// caller could offer.
// No `Debug`: `dyn NativeBody` has nothing printable.
#[derive(Clone)]
#[allow(missing_debug_implementations)]
pub struct JobSpec {
    /// The task graph to execute.
    pub graph: Arc<TaskGraph>,
    /// The execution plan (stage-to-core assignment) to run it under.
    pub plan: Arc<ExecutionPlan>,
    /// The computation behind each task.
    pub body: Arc<dyn NativeBody>,
    /// The job's private versioned-memory substrate, and with it the
    /// squash source. `Some`: every attempt runs inside version
    /// `VersionId(task.0)` of it (handed to the body as
    /// [`TaskCtx::mem`](super::TaskCtx::mem)), the substrate detects
    /// conflicts at access granularity, and the graph's recorded
    /// [`SpecDep`](crate::SpecDep) violations are ignored. `None`:
    /// *replay* — the recorded violations drive the squashes, so
    /// squash counts are a function of the graph alone and line up with
    /// the simulator's. The substrate must be fresh and is never shared
    /// between jobs: version ids are task indices, which collide across
    /// graphs.
    pub mem: Option<Arc<ConcurrentVersionedMemory>>,
    /// Per-job supervision parameters: fault plan, retry budget,
    /// tracing, watchdog. `queue_capacity` sizes
    /// the job's per-stage admission windows.
    pub config: ExecConfig,
}

/// A handle to a submitted job. [`JobHandle::wait`] blocks until the
/// job's report is ready. Dropping the handle without waiting detaches
/// the job: it still runs to completion, its report is discarded.
#[derive(Debug)]
pub struct JobHandle {
    job: JobId,
    thread: JoinHandle<Result<NativeReport, ExecError>>,
}

impl JobHandle {
    /// The engine-assigned id of this job: the `job` field of its
    /// report and the stamp on all its trace events. Each engine counts
    /// its jobs from 1; [`JobId::SOLO`] (0) is the simulator's stamp.
    pub fn id(&self) -> JobId {
        self.job
    }

    /// Blocks until the job finishes and returns its report.
    ///
    /// # Errors
    ///
    /// Exactly as for [`Engine::run`]; additionally
    /// [`ExecError::WorkersDisconnected`] if the job's thread died
    /// without producing a report (a runtime invariant violation,
    /// reported rather than hanging).
    pub fn wait(self) -> Result<NativeReport, ExecError> {
        self.thread
            .join()
            .unwrap_or(Err(ExecError::WorkersDisconnected))
    }
}

/// What the injector carries: the right to serve one seat of one job,
/// with the job state its attempts run against.
pub(super) struct Ticket {
    job: Arc<JobShared>,
    seat: Seat,
}

/// The way to the injector — a trait because a pool worker holds only
/// the injector, while a job's calling thread has the pool to start.
pub(super) trait Pool {
    fn queue(&self, ticket: Ticket);
}

impl Pool for Injector<Ticket> {
    fn queue(&self, ticket: Ticket) {
        self.push(ticket);
    }
}

/// Where a seat's ticket goes when a turn unparks it or a quantum is
/// spent: to the job's own caller if that is waiting, else to `pool`.
pub(super) fn hand(pool: &dyn Pool, job: &Arc<JobShared>, seat: Seat) {
    if !job.board.offer_home(seat) {
        let job = Arc::clone(job);
        pool.queue(Ticket { job, seat });
    }
}

pub(super) struct EngineInner {
    config: EngineConfig,
    /// Closed when the last holder of the pool (the [`Engine`] handle
    /// or a submitted job's thread) drops it, so the workers exit.
    injector: Arc<Injector<Ticket>>,
    spawn: Once,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_job: AtomicU64,
}

impl EngineInner {
    fn ensure_workers(&self) {
        self.spawn.call_once(|| {
            let mut handles = self.workers.lock().expect("engine worker list poisoned");
            for idx in 0..self.config.workers {
                let injector = Arc::clone(&self.injector);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("seqpar-engine-{idx}"))
                        .spawn(move || engine_worker(&injector))
                        .expect("spawn engine pool worker"),
                );
            }
        });
    }
}

impl Pool for EngineInner {
    /// Starts the pool first if this is its first ticket — so an engine
    /// whose jobs never dispatch past their callers (one seat wide)
    /// never pays thread start-up.
    fn queue(&self, ticket: Ticket) {
        self.ensure_workers();
        self.injector.push(ticket);
    }
}

impl Drop for EngineInner {
    fn drop(&mut self) {
        // Close the injector first; blocked workers then see it and
        // exit, making the joins finite.
        self.injector.close();
        let workers =
            std::mem::take(&mut *self.workers.lock().expect("engine worker list poisoned"));
        for w in workers {
            let _ = w.join();
        }
    }
}

/// A long-lived, lazily-spawned shared worker pool running any number
/// of jobs concurrently. See the module docs for the isolation,
/// liveness and lifecycle story.
///
/// [`Engine::run`] and [`Engine::submit`] take `&self`, so one engine
/// serves every thread that can borrow it — one per process (or per
/// benchmark harness) is the intended shape. Dropping the engine
/// closes the pool and joins its threads once no submitted job is left
/// running on it.
#[derive(Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for EngineInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineInner")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine whose pool will hold `config.workers` threads
    /// (at least 1). No threads start until the first ticket goes to
    /// the pool (or an explicit [`Engine::warm`]).
    pub fn new(mut config: EngineConfig) -> Self {
        config.workers = config.workers.max(1);
        Self {
            inner: Arc::new(EngineInner {
                config,
                injector: Arc::new(Injector::new()),
                spawn: Once::new(),
                workers: Mutex::new(Vec::new()),
                next_job: AtomicU64::new(1),
            }),
        }
    }

    /// The pool parameters in use.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Spawns the worker pool now instead of on the first dispatch.
    /// Benchmark harnesses call this outside the timed region so
    /// measured runs never include thread-startup cost.
    pub fn warm(&self) {
        self.inner.ensure_workers();
    }

    /// Submits `spec` and returns immediately. The job runs from a
    /// thread of its own — one more body-runner — and the shared pool; call
    /// [`JobHandle::wait`] for the report. Jobs submitted concurrently
    /// execute concurrently; outputs and per-job counters are exactly
    /// what the same spec produces alone on an engine of its own.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name(format!("seqpar-job-{}", job.0))
            .spawn(move || run_engine_job(&inner, job, &spec))
            .expect("spawn engine job thread");
        JobHandle { job, thread }
    }

    /// Runs `spec` to completion **from the calling thread**, which
    /// takes the first turn at the job's frontier and then serves a
    /// seat of the job like any pool worker: `workers` pool threads
    /// plus this one run bodies. This is the path benchmark harnesses
    /// time: a warmed engine plus `run` keeps every thread spawn out of
    /// the measured region. For concurrent jobs use [`Engine::submit`],
    /// which does the same from a background thread.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Invalid`] when the plan fails validation
    /// ([`SimError::StageMismatch`](crate::SimError::StageMismatch) when
    /// plan and graph disagree on stage count,
    /// [`SimError::EmptyStagePool`](crate::SimError::EmptyStagePool)
    /// when a stage has no cores — the same checks the simulator
    /// performs; core- and queue-count limits are physical-machine model
    /// parameters and do not constrain native execution). Returns
    /// [`ExecError::TaskFailed`] only when a body panics where no
    /// replay exists (the sequential fallback); pipelined worker panics
    /// are recovered, not raised.
    pub fn run(&self, spec: &JobSpec) -> Result<NativeReport, ExecError> {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        run_engine_job(&self.inner, job, spec)
    }
}

/// One pool worker: serves whatever ticket the injector hands it, over
/// *that* job's board and state, and hands the ticket on when its
/// quantum is up. Stateless between tickets — this is what makes the
/// pool shareable.
fn engine_worker(injector: &Injector<Ticket>) {
    while let Some(Ticket { job, seat }) = injector.pop() {
        if serve(&job, seat, injector) {
            hand(injector, &job, seat);
        }
    }
}

/// Runs one job end to end from the calling thread — the one place a
/// job is set up: plan validation, the board, the commit unit, the
/// frontier, then
/// [`call`], which works the job to its report.
fn run_engine_job(
    pool: &EngineInner,
    job: JobId,
    spec: &JobSpec,
) -> Result<NativeReport, ExecError> {
    let graph = &*spec.graph;
    let plan = &*spec.plan;
    crate::diag::PlanShape::of(plan).check_against(graph.stage_count())?;
    let started = Instant::now();
    if graph.is_empty() {
        let mut report = NativeReport::empty(started.elapsed());
        report.job = job;
        return Ok(report);
    }

    // One shared clock, one private buffer per recording site: the
    // commit frontier, the dispatcher, and every ticket a runner
    // serves. All no-ops when tracing is off.
    let clock = TraceClock::new(spec.config.trace);
    let buffer = || TraceBuffer::for_job(clock, job);
    let board = Board::new(graph, plan, spec.config.queue_capacity);
    let commit = CommitUnit::new(buffer(), &spec.config);
    let frontier = Frontier::new(spec, board.lane_count(), commit, buffer());
    let shared = Arc::new(JobShared {
        job,
        spec: spec.clone(),
        clock,
        board,
        frontier: Mutex::new(frontier),
    });
    call(&shared, pool, started)
}
