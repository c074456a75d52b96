//! The engine: the one owner of worker threads.
//!
//! An [`Engine`] owns one long-lived pool of OS threads, spawned on the
//! first job of more than one seat (or by [`Engine::warm`]), and runs
//! one job at a time on it, as the paper's runtime runs one
//! parallelized loop at a time. A job is a [`JobSpec`];
//! [`Engine::run`] runs it from the calling thread, one more of the
//! job's body-runners, not a watcher, and refuses a second job while one
//! is in flight ([`ExecError::Busy`]). A caller with one loop to run
//! builds an engine one narrower than the plan and drops it afterwards;
//! a harness that runs many keeps one warmed engine and pays thread
//! start-up once.
//!
//! # Scheduling and liveness
//!
//! The injector carries *tickets* — seats of the job in flight — not
//! tasks. A runner holding a ticket runs the claim loop of
//! [`super::stage`] over the job's board, touching no engine-wide state
//! per task, and takes a turn at the job's frontier when its own
//! publication makes a batch due. It gives the ticket up in one of two
//! ways: after one window of claims (the *ticket quantum*) a pool worker
//! hands it on — to the job's caller if that is waiting for a seat, else
//! to the injector's tail, so a pool smaller than the plan's seats
//! round-robins between them; when its lane runs dry it parks the seat
//! on the job's board, and the next turn that admits into the lane hands
//! the ticket out again. The thread that called `run` serves seats of
//! its job only, so it returns within one attempt of the job's last
//! commit, and sleeps only while the job has no seat for it; that sleep
//! is the watchdog. Task bodies never block on other tasks (ordering is
//! enforced at the commit frontier), so a small pool delays a job but
//! cannot deadlock it. Size the pool to the seats of the widest plan
//! *minus one* — the caller is the last; seats on one core, or a pool
//! smaller than the seats, time-slice.
//!
//! A job ends when its board closes. A straggler still inside a body on
//! a pool worker (a fallen-back job's) publishes into the closed board,
//! which its ticket keeps alive, and only then takes the next job's
//! ticket: every trace event, seat statistic and completion of a job
//! travels to that job's frontier, never to the next one's.

use super::commit::CommitUnit;
use super::faults::SpecRecord;
use super::stage::{serve, Board, Injector, JobShared, Seat};
use super::trace::{JobId, TraceBuffer, TraceClock};
use super::{call, ExecConfig, ExecError, Frontier, NativeBody, NativeReport};
use seqpar_specmem::ConcurrentVersionedMemory;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pool parameters for an [`Engine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// OS threads in the worker pool ([`Engine::new`] clamps it to at
    /// least 1), not counting the thread each job is run from, which
    /// works too. Spawned on the first job of more than one seat, so an
    /// engine that only ever runs one-seat jobs costs no threads.
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
}

/// One job: its task count, the seats of its one stage, the body
/// computing each task, where its squashes come from, and the per-job
/// supervision parameters — the TLS stage the engine runs, and nothing
/// it would have to refuse. Everything is owned (`Arc`'d) because the
/// engine's threads outlive any borrow the caller could offer.
// No `Debug`: `dyn NativeBody` has nothing printable.
#[derive(Clone)]
#[allow(missing_debug_implementations)]
pub struct JobSpec {
    /// How many tasks the job runs: task `i` is the `i`-th in commit
    /// (program) order.
    pub tasks: usize,
    /// The runners the stage admits at once (the plan's cores): the
    /// caller holds one, the engine's pool serves the rest.
    pub seats: NonZeroUsize,
    /// The computation behind each task.
    pub body: Arc<dyn NativeBody>,
    /// The squash source.
    pub mode: JobMode,
    /// Per-job supervision parameters: fault plan, retry budget,
    /// tracing, watchdog. `queue_capacity` sizes the job's admission
    /// window.
    pub config: ExecConfig,
}

/// Where a job's squashes come from.
#[derive(Clone, Debug)]
pub enum JobMode {
    /// The job's private versioned-memory substrate: every attempt runs
    /// inside version `VersionId(task.0)` of it (handed to the body as
    /// [`TaskCtx::mem`](super::TaskCtx::mem)), and the substrate detects
    /// conflicts at access granularity. It must be fresh and is never
    /// shared between jobs: version ids are task indices, which collide
    /// across jobs. What every workload and every benchmark runs.
    Versioned(Arc<ConcurrentVersionedMemory>),
    /// *Replay*: each task's recorded speculation, in task order
    /// ([`SpecRecord::table`]). The speculative attempt of a task with a
    /// violation is squashed, so squash counts are a function of the
    /// recording alone and line up with the simulator's. A task past
    /// the table's end recorded none.
    Replay(Arc<[SpecRecord]>),
}

impl JobMode {
    /// The substrate of a versioned job.
    pub(super) fn mem(&self) -> Option<&ConcurrentVersionedMemory> {
        match self {
            JobMode::Versioned(mem) => Some(mem),
            JobMode::Replay(_) => None,
        }
    }
}

/// What the injector carries: the right to serve one seat of the job,
/// with the job state its attempts run against.
pub(super) struct Ticket {
    job: Arc<JobShared>,
    seat: Seat,
}

/// Where a seat's ticket goes when a turn unparks it or a quantum is
/// spent: to the job's own caller if that is waiting, else to `pool`.
pub(super) fn hand(pool: &Injector<Ticket>, job: &Arc<JobShared>, seat: Seat) {
    if !job.board.offer_home(seat) {
        let job = Arc::clone(job);
        pool.push(Ticket { job, seat });
    }
}

/// A long-lived, lazily-spawned worker pool that runs one job at a time.
/// See the module docs for the liveness story.
///
/// [`Engine::run`] takes `&self`, so one engine serves every thread that
/// can borrow it, one job after another — one per process (or per
/// benchmark harness) is the intended shape. Dropping the engine closes
/// the pool and joins its threads.
pub struct Engine {
    config: EngineConfig,
    /// Closed on drop, so the workers exit.
    injector: Arc<Injector<Ticket>>,
    workers: OnceLock<Vec<JoinHandle<()>>>,
    /// Held for the length of a run, so the engine admits one job at a
    /// time; the count of jobs admitted so far.
    admitted: Mutex<u64>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the injector first; blocked workers then see it and
        // exit, making the joins finite.
        self.injector.close();
        for w in self.workers.take().into_iter().flatten() {
            let _ = w.join();
        }
    }
}

impl Engine {
    /// Creates an engine whose pool will hold `config.workers` threads
    /// (at least 1). No threads start until the first job of more than
    /// one seat (or an explicit [`Engine::warm`]).
    pub fn new(mut config: EngineConfig) -> Self {
        config.workers = config.workers.max(1);
        Self {
            config,
            injector: Arc::new(Injector::new()),
            workers: OnceLock::new(),
            admitted: Mutex::new(0),
        }
    }

    /// The pool parameters in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Spawns the worker pool now instead of on the first job of more
    /// than one seat. Benchmark harnesses call this outside the timed
    /// region so measured runs never include thread-startup cost.
    pub fn warm(&self) {
        self.workers.get_or_init(|| {
            (0..self.config.workers)
                .map(|idx| {
                    let injector = Arc::clone(&self.injector);
                    std::thread::Builder::new()
                        .name(format!("seqpar-engine-{idx}"))
                        .spawn(move || engine_worker(&injector))
                        .expect("spawn engine pool worker")
                })
                .collect()
        });
    }

    /// Runs `spec` to completion **from the calling thread**, which
    /// takes the first turn at the job's frontier and then serves a
    /// seat of the job like any pool worker: `workers` pool threads
    /// plus this one run bodies. This is the path benchmark harnesses
    /// time: a warmed engine plus `run` keeps every thread spawn out of
    /// the measured region.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Busy`], before looking at the job, while
    /// another job is in flight on this engine: one started from another
    /// thread, or the job whose body is calling. Returns
    /// [`ExecError::TaskFailed`] only when a body panics where no
    /// replay exists (the sequential fallback); pipelined worker panics
    /// are recovered, not raised.
    pub fn run(&self, spec: &JobSpec) -> Result<NativeReport, ExecError> {
        let mut admitted = match self.admitted.try_lock() {
            Ok(admitted) => admitted,
            // A run that panicked leaves the count valid: admit the next.
            Err(TryLockError::Poisoned(admitted)) => admitted.into_inner(),
            Err(TryLockError::WouldBlock) => return Err(ExecError::Busy),
        };
        *admitted += 1;
        let job = JobId(*admitted);
        let started = Instant::now();
        if spec.tasks == 0 {
            let mut report = NativeReport::empty(started.elapsed());
            report.job = job;
            return Ok(report);
        }
        if spec.seats.get() > 1 {
            self.warm();
        }

        // One shared clock, one private buffer per recording site: the
        // commit frontier, the dispatcher, and every ticket a runner
        // serves. All no-ops when tracing is off.
        let clock = TraceClock::new(spec.config.trace);
        let buffer = || TraceBuffer::for_job(clock, job);
        let board = Board::new(spec.tasks, spec.seats.get(), spec.config.queue_capacity);
        let commit = CommitUnit::new(buffer(), &spec.config);
        let frontier = Frontier::new(commit, buffer());
        let shared = Arc::new(JobShared {
            job,
            spec: spec.clone(),
            clock,
            board,
            frontier: Mutex::new(frontier),
        });
        call(&shared, &self.injector, started)
    }
}

/// One pool worker: serves whatever ticket the injector hands it, over
/// *that* job's board and state, and hands the ticket on when its
/// quantum is up. Stateless between tickets.
fn engine_worker(injector: &Injector<Ticket>) {
    while let Some(Ticket { job, seat }) = injector.pop() {
        if serve(&job, seat, injector) {
            hand(injector, &job, seat);
        }
    }
}
