//! Native (real-thread) execution of workload kernels.
//!
//! [`Workload::trace`](crate::Workload::trace) captures *what happened*
//! in a sequential run; a [`VersionedJob`] packages the same run so each
//! iteration can be **re-executed for real** on an [`Engine`]'s worker
//! threads. The job owns whatever prefix state the kernel needs (input
//! spans, interpreter snapshots, annealer checkpoints, …) plus two
//! bodies:
//!
//! * the *versioned* body runs an iteration with its loop-carried state
//!   flowing through a [`ConcurrentVersionedMemory`] — reads forward
//!   uncommitted stores from earlier iterations, conflicting writes
//!   squash later readers at the substrate;
//! * the *sequential oracle* computes the same iteration's output from
//!   precomputed prefix state with no substrate — what validation, the
//!   sequential fallback, and a replay job (`JobSpec::mem == None`) run.
//!
//! Determinism: each oracle call depends only on the iteration, and a
//! versioned call only on the iteration and the values it read — never
//! on thread timing — so the executor's in-order commit yields the same
//! output stream on every run.

use seqpar::IterationTrace;
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecError, ExecutionPlan, JobSpec, NativeBody, NativeReport,
    TaskCtx, TaskId, TaskOutput,
};
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A timed sequential reference run of a [`VersionedJob`].
#[derive(Clone, Debug)]
pub struct SequentialRun {
    /// Concatenated per-iteration output bytes, in program order.
    pub output: Vec<u8>,
    /// Total metered work.
    pub work: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

/// The signature of a versioned job body: run one iteration with its
/// loop-carried state flowing through version `v` of the shared
/// [`ConcurrentVersionedMemory`] — reads forward uncommitted stores from
/// earlier iterations, conflicting writes squash later readers. The
/// body must issue only `read`/`write` on `v` (the executor owns the
/// version's lifecycle) and must be a pure function of `(iter, values
/// read)`, so a squash-and-replay reproduces the sequential result.
pub type VersionedIterationBody =
    dyn Fn(u64, VersionId, &ConcurrentVersionedMemory) -> (Vec<u8>, u64) + Send + Sync;

/// The sequential twin of a [`VersionedIterationBody`]: compute the same
/// iteration's output with no substrate, from precomputed prefix state —
/// what the validation oracle and the sequential fallback run.
pub type SequentialIterationBody = dyn Fn(u64) -> (Vec<u8>, u64) + Send + Sync;

/// A workload packaged for **conflict-driven** native execution: its
/// loop-carried state flows through [`Addr`]-keyed accesses to a
/// [`ConcurrentVersionedMemory`], and squashes originate from the
/// substrate's conflict detection at access granularity, not from the
/// trace's recorded dependence events.
#[derive(Clone)]
pub struct VersionedJob {
    trace: IterationTrace,
    body: Arc<VersionedIterationBody>,
    oracle: Arc<SequentialIterationBody>,
}

impl fmt::Debug for VersionedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionedJob")
            .field("iterations", &self.trace.len())
            .finish_non_exhaustive()
    }
}

impl VersionedJob {
    /// Packages `trace` with a memory-backed body and its sequential
    /// oracle. The two must agree: for every iteration `i`,
    /// `oracle(i)` returns exactly what `body(i, ...)` returns when its
    /// reads observe the committed state of iterations `0..i` — that
    /// equivalence is what makes versioned output byte-identical to
    /// [`VersionedJob::sequential`], and the differential suite pins it.
    pub fn new(
        trace: IterationTrace,
        body: impl Fn(u64, VersionId, &ConcurrentVersionedMemory) -> (Vec<u8>, u64)
            + Send
            + Sync
            + 'static,
        oracle: impl Fn(u64) -> (Vec<u8>, u64) + Send + Sync + 'static,
    ) -> Self {
        Self {
            trace,
            body: Arc::new(body),
            oracle: Arc::new(oracle),
        }
    }

    /// Packages a kernel whose iterations are individually pure — the
    /// common shape across the suite's native bodies — with `slots`
    /// loop-carried accumulators threaded through versioned memory at
    /// `Addr(0) .. Addr(slots)`.
    ///
    /// Each iteration computes its bytes via `compute`, reads every
    /// accumulator slot, merges the bytes into the slot values via
    /// `fold(iter, bytes, slots)`, writes every slot back (writes whose
    /// value did not change are elided by the substrate's silent-store
    /// rule and become read-set bets), and appends the folded slot
    /// values little-endian to its emitted record — so a stale racing
    /// read that escaped conflict detection would corrupt the committed
    /// byte stream, which the differential suite pins against the
    /// sequential oracle.
    ///
    /// The oracle is derived at construction by folding the slots in
    /// program order, so body/oracle agreement holds for any `fold`.
    pub fn accumulating(
        trace: IterationTrace,
        compute: impl Fn(u64) -> (Vec<u8>, u64) + Send + Sync + 'static,
        slots: usize,
        fold: impl Fn(u64, &[u8], &mut [u64]) + Send + Sync + 'static,
    ) -> Self {
        let compute: Arc<SequentialIterationBody> = Arc::new(compute);
        let fold = Arc::new(fold);
        // Prefix accumulator states, in program order: prefix[i] is the
        // slot vector *after* iteration i folded in.
        let mut prefix: Vec<Vec<u64>> = Vec::with_capacity(trace.len());
        let mut state = vec![0u64; slots];
        for i in 0..trace.len() as u64 {
            let (bytes, _) = compute(i);
            fold(i, &bytes, &mut state);
            prefix.push(state.clone());
        }
        let emit = |mut bytes: Vec<u8>, state: &[u64], work: u64| {
            for v in state {
                bytes.extend(v.to_le_bytes());
            }
            (bytes, work)
        };
        let oracle = {
            let compute = Arc::clone(&compute);
            move |iter: u64| {
                let (bytes, work) = compute(iter);
                emit(bytes, &prefix[iter as usize], work)
            }
        };
        let body = {
            let compute = Arc::clone(&compute);
            move |iter: u64, v: VersionId, m: &ConcurrentVersionedMemory| {
                let (bytes, work) = compute(iter);
                let mut state: Vec<u64> = (0..slots as u64).map(|s| m.read(v, Addr(s))).collect();
                fold(iter, &bytes, &mut state);
                for (s, val) in state.iter().enumerate() {
                    m.write(v, Addr(s as u64), *val);
                }
                emit(bytes, &state, work)
            }
        };
        Self::new(trace, body, oracle)
    }

    /// The recorded iteration trace (source of the task graph).
    pub fn trace(&self) -> &IterationTrace {
        &self.trace
    }

    /// Number of loop iterations.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the job has no iterations.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Runs every iteration in order on the calling thread through the
    /// sequential oracle — the reference against which versioned native
    /// output must be byte-identical.
    pub fn sequential(&self) -> SequentialRun {
        let started = Instant::now();
        let mut output = Vec::new();
        let mut work = 0u64;
        for i in 0..self.trace.len() as u64 {
            let (bytes, w) = (self.oracle)(i);
            output.extend(bytes);
            work += w;
        }
        SequentialRun {
            output,
            work,
            wall: started.elapsed(),
        }
    }

    /// Runs the job on real threads under `plan`, with every attempt's
    /// loop-carried state routed through a fresh
    /// [`ConcurrentVersionedMemory`] — the one-shot convenience: an
    /// [`Engine`] of its own with one worker per seat of the plan but
    /// one — the calling thread fills the last seat — dropped on return. Returns the report (whose
    /// [`mem`](NativeReport::mem) field carries the substrate counters)
    /// together with the memory itself, so callers can inspect the
    /// committed loop-carried state. Callers that run more than one job
    /// keep an engine and hand it [`VersionedJob::job_spec`]s.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`Engine::run`]: an invalid plan
    /// ([`ExecError::Invalid`]) or a task whose body panics where no
    /// replay exists ([`ExecError::TaskFailed`]).
    pub fn execute(
        &self,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> Result<(NativeReport, Arc<ConcurrentVersionedMemory>), ExecError> {
        let (spec, mem) = self.job_spec(plan, config);
        let seats: usize = (0..plan.stage_count())
            .map(|s| plan.stage(s).cores().len())
            .sum();
        let report = Engine::new(EngineConfig::with_workers(seats.saturating_sub(1))).run(&spec)?;
        Ok((report, mem))
    }

    /// Packages the job as a submittable unit for an [`Engine`], with a
    /// fresh private substrate. Returns the spec and the substrate
    /// handle so the caller can inspect committed loop-carried state
    /// after the job's report arrives.
    ///
    /// One-stage plans execute the TLS task graph; multi-stage plans
    /// the three-phase DSWP graph, with only the transform stage (the
    /// single TLS stage, or phase B) touching memory and emitting
    /// bytes; A and C model read/write phases and emit nothing. Oracle
    /// and fallback attempts see [`TaskCtx::mem`]` == None` and run the
    /// sequential twin.
    pub fn job_spec(
        &self,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> (JobSpec, Arc<ConcurrentVersionedMemory>) {
        let graph = Arc::new(if plan.stage_count() == 1 {
            self.trace.tls_task_graph()
        } else {
            self.trace.task_graph()
        });
        let emit_stage = if graph.stage_count() == 1 { 0u8 } else { 1u8 };
        let mem = Arc::new(ConcurrentVersionedMemory::new());
        let body = Arc::clone(&self.body);
        let oracle = Arc::clone(&self.oracle);
        let task_body = move |task: TaskId, ctx: &TaskCtx<'_>| {
            if ctx.stage.0 != emit_stage {
                return TaskOutput::empty();
            }
            let (bytes, work) = match ctx.mem {
                Some(m) => body(ctx.iter, VersionId(u64::from(task.0)), m),
                None => oracle(ctx.iter),
            };
            TaskOutput { bytes, work }
        };
        let task_body: Arc<dyn NativeBody> = Arc::new(task_body);
        (
            JobSpec {
                graph,
                plan: Arc::new(plan.clone()),
                body: task_body,
                mem: Some(Arc::clone(&mem)),
                config,
            },
            mem,
        )
    }
}
