//! The engine: the one owner of worker threads.
//!
//! An [`Engine`] owns one long-lived pool of OS threads, spawned lazily
//! on the first dispatch and shared by every job handed to it. A job is
//! a [`JobSpec`]; [`Engine::run`] supervises it on the calling thread,
//! [`Engine::submit`] on a thread of its own, returning at once with a
//! [`JobHandle`]. Any number of jobs run concurrently, each with its
//! own commit frontier, governor, fault plan, trace buffers, and (for
//! versioned jobs) memory substrate. A caller with one loop to run
//! builds an engine as wide as the plan, runs the job and drops it; a
//! harness that runs many keeps one warmed engine and pays thread
//! start-up once.
//!
//! # Job isolation invariants
//!
//! Jobs share only the stateless worker threads. Everything stateful
//! is keyed by the job:
//!
//! - every ticket carries an `Arc` of its job's shared state, so a
//!   worker executes each attempt against that job's board, graph,
//!   body, substrate, and fault plan — never a neighbour's;
//! - every trace event a worker records is stamped with the job's
//!   [`JobId`] and travels to the job's supervisor inside the attempt's
//!   completion, so the [`Timeline`](super::Timeline)s of concurrent
//!   jobs never mix;
//! - commit frontiers, governors, retry budgets, and watchdogs live on
//!   the job's supervisor thread; a conflict storm in one job can
//!   throttle only that job's dispatch window.
//!
//! # Scheduling and liveness
//!
//! The injector carries *tickets* — (job, seat) pairs — not tasks. A
//! worker holding a ticket runs the claim loop of [`super::stage`]
//! over that job's board, touching no engine-wide state per task, and
//! gives the ticket up in one of two ways: after one window of claims
//! (the *ticket quantum*) it requeues the ticket at the injector's
//! tail, so a pool smaller than the sum of its jobs' seats round-robins
//! between them; when its lane runs dry it parks the seat on the job's
//! board, and the job's supervisor hands the ticket back once it has
//! admitted more work. Task bodies never block on other tasks
//! (speculation means running ahead; ordering is enforced at each
//! job's commit frontier, on its supervisor thread), so a busy pool
//! delays jobs but cannot deadlock them. Size the pool at least as
//! large as the widest single plan for full overlap; an undersized pool
//! degrades to time-slicing.
//!
//! # Lifecycle
//!
//! The pool lives as long as anything can still hand it a ticket: the
//! [`Engine`] handle, and the supervisor thread of every submitted job.
//! Dropping the handle with jobs in flight therefore costs them
//! nothing — they finish on the pool, no watchdog trips, no fallback
//! runs — and the last supervisor to finish closes the injector and
//! joins the workers.

use super::commit::{CommitUnit, CommitView};
use super::stage::{serve, Board, Injector, JobShared, Seat};
use super::trace::{JobId, TraceBuffer, TraceClock};
use super::{ExecConfig, ExecError, NativeBody, NativeReport, Supervisor};
use crate::plan::ExecutionPlan;
use crate::task::TaskGraph;
use crossbeam::channel::{bounded, Receiver};
use seqpar_specmem::ConcurrentVersionedMemory;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pool parameters for an [`Engine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// OS threads in the shared worker pool ([`Engine::new`] clamps it
    /// to at least 1). Spawned lazily on the first pipelined dispatch,
    /// so an engine that only ever runs governor-degraded jobs costs no
    /// threads.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(8, std::num::NonZero::get),
        }
    }
}

impl EngineConfig {
    /// A pool of `workers` threads (an engine given 0 runs 1).
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
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
    /// governor, tracing, validation, watchdog. `queue_capacity` sizes
    /// the job's per-stage admission windows.
    pub config: ExecConfig,
}

/// A handle to a submitted job. [`JobHandle::wait`] blocks until the
/// job's report is ready. Dropping the handle without waiting detaches
/// the job: it still runs to completion, its report is discarded.
#[derive(Debug)]
pub struct JobHandle {
    job: JobId,
    rx: Receiver<Result<NativeReport, ExecError>>,
    thread: Option<JoinHandle<()>>,
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
    /// [`ExecError::WorkersDisconnected`] if the job's supervisor
    /// thread died without producing a report (a runtime invariant
    /// violation, reported rather than hanging).
    pub fn wait(mut self) -> Result<NativeReport, ExecError> {
        let result = self
            .rx
            .recv()
            .unwrap_or(Err(ExecError::WorkersDisconnected));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        result
    }
}

/// What the injector carries: the right to serve one seat of one job,
/// with the job state its attempts run against.
struct Ticket {
    job: Arc<JobShared>,
    seat: Seat,
}

pub(super) struct EngineInner {
    config: EngineConfig,
    /// Closed when the last holder of the pool (the [`Engine`] handle
    /// or a submitted job's supervisor) drops it, so the workers exit.
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

    /// Queues `seat`'s ticket of `job` for the next idle worker,
    /// starting the pool first if this is the first ticket — so an
    /// engine whose jobs never dispatch (governor-degraded end to end)
    /// never pays thread start-up.
    pub(super) fn hand(&self, job: &Arc<JobShared>, seat: Seat) {
        self.ensure_workers();
        self.injector.push(Ticket {
            job: Arc::clone(job),
            seat,
        });
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
    /// (at least 1). No threads start until the first pipelined
    /// dispatch (or an explicit [`Engine::warm`]).
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

    /// Submits `spec` and returns immediately. The job runs under its
    /// own supervisor thread against the shared pool; call
    /// [`JobHandle::wait`] for the report. Jobs submitted concurrently
    /// execute concurrently; outputs and per-job counters are exactly
    /// what the same spec produces alone on an engine of its own.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        let inner = Arc::clone(&self.inner);
        let (tx, rx) = bounded(1);
        let thread = std::thread::Builder::new()
            .name(format!("seqpar-job-{}", job.0))
            .spawn(move || {
                let _ = tx.send(run_engine_job(&inner, job, &spec));
            })
            .expect("spawn engine job supervisor");
        JobHandle {
            job,
            rx,
            thread: Some(thread),
        }
    }

    /// Runs `spec` to completion, supervising it **inline on the
    /// calling thread** — the pool still executes the task bodies, but
    /// no per-job supervisor thread is spawned. This is the path
    /// benchmark harnesses time: a warmed engine plus `run` keeps every
    /// thread spawn out of the measured region. For concurrent jobs use
    /// [`Engine::submit`], which supervises on a background thread.
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
    /// replay exists (the sequential fallback or the validation
    /// oracle); pipelined worker panics are recovered, not raised.
    pub fn run(&self, spec: &JobSpec) -> Result<NativeReport, ExecError> {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        run_engine_job(&self.inner, job, spec)
    }
}

/// One pool worker: serves whatever ticket the injector hands it, over
/// *that* job's board and state, and requeues the ticket at the tail
/// when its quantum is up. Stateless between tickets — this is what
/// makes the pool shareable.
fn engine_worker(injector: &Injector<Ticket>) {
    while let Some(ticket) = injector.pop() {
        if serve(&ticket.job, ticket.seat) {
            injector.push(ticket);
        }
    }
}

/// Runs one job end to end on the calling (supervisor) thread — the one
/// place a job is set up: plan validation, the commit unit, the board,
/// the supervision loop over the pool, the report.
fn run_engine_job(
    pool: &EngineInner,
    job: JobId,
    spec: &JobSpec,
) -> Result<NativeReport, ExecError> {
    let graph = &*spec.graph;
    let plan = &*spec.plan;
    // A plan that was stamped by the static soundness lint must not
    // have been structurally mutated since: execution would then run
    // a shape the lint never saw. Unstamped (hand-built) plans pass.
    debug_assert!(
        plan.lint_stamp_intact(),
        "execution plan was mutated after it passed seqpar-lint"
    );
    crate::diag::PlanShape::of(plan).check_against(graph.stage_count())?;
    let started = Instant::now();
    if graph.is_empty() {
        let mut report = NativeReport::empty(started.elapsed());
        report.job = job;
        return Ok(report);
    }

    let watermark = Arc::new(AtomicU64::new(0));
    // One shared clock, one private buffer per recording site: the
    // commit frontier, the dispatcher (this thread), and every ticket a
    // worker serves. All no-ops when tracing is off.
    let clock = TraceClock::new(spec.config.trace);
    let mut commit = CommitUnit::new(
        graph,
        Arc::clone(&watermark),
        TraceBuffer::for_job(clock, job),
        spec.mem.as_deref(),
        &spec.config,
    );
    let mut dispatch_trace = TraceBuffer::for_job(clock, job);

    let shared = Arc::new(JobShared {
        job,
        spec: spec.clone(),
        view: CommitView::new(watermark),
        clock,
        board: Board::new(graph, plan, spec.config.queue_capacity),
    });

    let supervised = Supervisor::new(pool, &shared, &mut commit, &mut dispatch_trace).run()?;

    // After a fallback, straggler attempts of this job may still be
    // running on pool workers; they publish into a closed board nobody
    // reads, and are dropped with it.
    Ok(commit.into_report(started.elapsed(), &shared.board, supervised, dispatch_trace))
}
