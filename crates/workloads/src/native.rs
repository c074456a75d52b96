//! Native (real-thread) execution of workload kernels.
//!
//! [`Workload::trace`](crate::Workload::trace) captures *what happened*
//! in a sequential run; a [`VersionedJob`] packages the same run so each
//! iteration can be **re-executed for real** on an [`Engine`]'s worker
//! threads. A kernel walks its loop once to build its job: the walk
//! yields the trace and a [`RangeRunner`] — per-iteration inputs, or
//! sparse `RestorePoints` of the loop's state — and the job owns it
//! plus two bodies, each of which hands the runner a chunk of
//! iterations to run on one live state, restored once:
//!
//! * the *versioned* body threads the chunk's loop-carried state through
//!   a [`ConcurrentVersionedMemory`] — reads forward uncommitted stores
//!   from earlier chunks, conflicting writes squash later readers;
//! * the *sequential oracle* runs the chunk with no substrate — what
//!   validation, the sequential fallback, and a replay job
//!   (`JobSpec::mem == None`) run.
//!
//! Determinism: each oracle call depends only on its iterations, and a
//! versioned call only on its iterations and the values it read — never
//! on thread timing — so the executor's in-order commit yields the same
//! output stream on every run.
//!
//! Grain: a task is not one iteration but a *chunk* of `k` consecutive
//! ones, run in order inside one version ([`VersionedJob::grain`] picks
//! `k` from the job's measured iteration time). To the executor, the
//! substrate and the simulator a chunk is an ordinary task.

use seqpar::IterationTrace;
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecError, ExecutionPlan, JobSpec, NativeBody, NativeReport,
    TaskCtx, TaskId, TaskOutput,
};
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};
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

/// What a job runs its loop with: `run(iters, emit)` restores the state
/// before `iters` at most once, unmetered, then runs them in order, handing
/// `emit` each one's record bytes and metered work. Any
/// `Fn(u64) -> (Vec<u8>, u64)` is a runner that restores nothing.
pub trait RangeRunner: Send + Sync + 'static {
    /// Runs `iters` in order, emitting every record.
    fn run(&self, iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64));

    /// A range that starts on a multiple of this replays nothing.
    fn stride(&self) -> u64 {
        1
    }
}

impl<F: Fn(u64) -> (Vec<u8>, u64) + Send + Sync + 'static> RangeRunner for F {
    fn run(&self, iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64)) {
        for i in iters {
            let (bytes, work) = self(i);
            emit(&bytes, work);
        }
    }
}

/// The states a kernel's walk passes through, kept sparsely: the state
/// before iteration `i` only when `i` is a multiple of the stride then in
/// force, a power of two the walk's own clock widens until a stride of
/// iterations lasts a quarter of [`GRAIN_TARGET_NS`]. So a chunk the time
/// term of the grain sizes starts on a point; a shorter one replays less
/// than a stride, unmetered.
pub(crate) struct RestorePoints<P> {
    points: Vec<(u64, P)>,
    stride: u64,
    offered: u64,
    /// The walk's time before the last capture, and when it resumed.
    walked: Duration,
    resumed: Instant,
}

impl<P: Send + Sync + 'static> RestorePoints<P> {
    pub(crate) fn new() -> Self {
        Self {
            points: Vec::new(),
            stride: 1,
            offered: 0,
            walked: Duration::ZERO,
            resumed: Instant::now(),
        }
    }

    /// Offers the state before the walk's next iteration, captured only
    /// if kept. Reads the clock only at a multiple of the stride.
    pub(crate) fn offer(&mut self, capture: impl FnOnce() -> P) {
        let i = self.offered;
        self.offered += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        if i > 0 {
            self.walked += self.resumed.elapsed();
            let fits = u128::from(GRAIN_TARGET_NS / 4 * i) / self.walked.as_nanos().max(1);
            #[cfg(test)]
            let fits = if tests::EVERY_POINT.get() { 0 } else { fits };
            if fits > u128::from(self.stride) {
                self.stride = 1 << fits.ilog2();
            }
        }
        if i.is_multiple_of(self.stride) {
            self.points.push((i, capture()));
        }
        self.resumed = Instant::now();
    }

    /// The latest point at or before iteration `a`.
    fn at(&self, a: u64) -> &(u64, P) {
        let later = self.points.partition_point(|(i, _)| *i <= a);
        &self.points[later - 1]
    }

    /// The runner that resumes the walked loop: `restore` turns a point
    /// into live state, `step(state, i)` runs iteration `i` on it. A range
    /// that starts where the last one ended (the next chunk on one seat)
    /// resumes that one's state instead.
    pub(crate) fn runner<S: Send + 'static>(
        self,
        restore: impl Fn(&P) -> S + Send + Sync + 'static,
        step: impl Fn(&mut S, u64) -> (Vec<u8>, u64) + Send + Sync + 'static,
    ) -> impl RangeRunner {
        let left = Mutex::new(None);
        Resume(
            self.stride,
            move |iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64)| {
                let resumed = left.lock().expect("nothing panics under the lock").take();
                let mut live = match resumed.filter(|(at, _)| *at == iters.start) {
                    Some((_, live)) => live,
                    None => {
                        let (from, point) = self.at(iters.start);
                        let mut live = restore(point);
                        // The replay restores the range's state: its work
                        // belongs to the iterations it repeats.
                        for i in *from..iters.start {
                            step(&mut live, i);
                        }
                        live
                    }
                };
                for i in iters.clone() {
                    let (bytes, work) = step(&mut live, i);
                    emit(&bytes, work);
                }
                *left.lock().expect("nothing panics under the lock") = Some((iters.end, live));
            },
        )
    }
}

/// A runner of ranges with the stride of its restore points.
struct Resume<F>(u64, F);

impl<F> RangeRunner for Resume<F>
where
    F: Fn(Range<u64>, &mut dyn FnMut(&[u8], u64)) + Send + Sync + 'static,
{
    fn run(&self, iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64)) {
        (self.1)(iters, emit);
    }

    fn stride(&self) -> u64 {
        self.0
    }
}

/// What a task runs: one chunk's iterations in order, their bytes
/// concatenated, their work summed. Given a version `v` of the job's
/// [`ConcurrentVersionedMemory`] it threads the loop-carried state through
/// `v` with `read`/`write` alone, a pure function of the iterations and
/// the values read, so a squash-and-replay reproduces the sequential
/// result; given none it is the sequential oracle.
type ChunkBody = dyn Fn(Range<u64>, Option<(VersionId, &ConcurrentVersionedMemory)>) -> (Vec<u8>, u64)
    + Send
    + Sync;

/// How long a task should run. The executor spends 0.3 µs on a task
/// with no carried state and 0.55–1.0 µs on one with (the benchmark's
/// `exec.overhead_ns_per_task.*`), so a task of 32 µs outlasts its own
/// overhead 30–100 times: at most 3 % of the wall is hand-off and commit.
const GRAIN_TARGET_NS: u64 = 32_000;

/// Chunking never leaves a seat of the plan's widest stage fewer tasks
/// than this: enough for the claim cursors to even out iterations of
/// unequal length across seats, and for a squash to throw away an eighth
/// of a seat's share at most.
const TASKS_PER_SEAT: usize = 8;

/// A workload packaged for **conflict-driven** native execution: its
/// loop-carried state flows through [`Addr`]-keyed accesses to a
/// [`ConcurrentVersionedMemory`], and squashes originate from the
/// substrate's conflict detection at access granularity, not from the
/// trace's recorded dependence events.
#[derive(Clone)]
pub struct VersionedJob {
    trace: IterationTrace,
    body: Arc<ChunkBody>,
    /// Mean wall time of one iteration, measured once at construction
    /// and never again: [`grain`](VersionedJob::grain) reads only this,
    /// so one job builds one graph per plan however often it is asked.
    iteration_ns: u64,
    restore_stride: u64,
}

impl fmt::Debug for VersionedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionedJob")
            .field("iterations", &self.trace.len())
            .field("iteration_ns", &self.iteration_ns)
            .field("restore_stride", &self.restore_stride)
            .finish_non_exhaustive()
    }
}

/// The seats of `plan`'s widest stage.
fn widest_stage(plan: &ExecutionPlan) -> usize {
    let seats = |s| plan.stage(s).cores().len();
    (0..plan.stage_count()).map(seats).max().unwrap_or(0)
}

impl VersionedJob {
    /// Packages a kernel whose iterations are individually pure — the
    /// shape of every native body in the suite — with `slots`
    /// loop-carried accumulators threaded through versioned memory at
    /// `Addr(0) .. Addr(slots)`.
    ///
    /// Each iteration's bytes come from `runner`; the job merges them
    /// into the slot values via `fold(iter, bytes, slots)` and appends
    /// the folded slot values little-endian to the iteration's emitted
    /// record — so a stale racing read that escaped conflict detection
    /// would corrupt the committed byte stream, which the differential
    /// suite pins against the sequential oracle. A chunk of iterations
    /// touches the substrate once: it runs its range first, then reads
    /// every slot, folds its iterations in order on the values it read,
    /// and writes every slot back (writes whose value did not change are
    /// elided by the substrate's silent-store rule and become read-set
    /// bets). Reading that late keeps the window in which an earlier
    /// chunk's write can squash this one as short as the folds.
    ///
    /// The oracle's slot values come from one construction pass over the
    /// whole loop, folding in program order, so body/oracle agreement —
    /// what makes versioned output byte-identical to
    /// [`VersionedJob::sequential`] — holds for any `fold`. That pass is
    /// also the clock [`grain`](VersionedJob::grain) reads: the live
    /// loop's time, restored once.
    pub fn accumulating(
        trace: IterationTrace,
        runner: impl RangeRunner,
        slots: usize,
        fold: impl Fn(u64, &[u8], &mut [u64]) + Send + Sync + 'static,
    ) -> Self {
        let n = trace.len();
        // The slot values after each iteration folded in, in program
        // order: iteration i's are `prefix[i * slots..][..slots]`.
        let started = Instant::now();
        let mut prefix = Vec::with_capacity(n * slots);
        let mut state = vec![0u64; slots];
        let mut i = 0u64;
        runner.run(0..n as u64, &mut |bytes, _| {
            fold(i, bytes, &mut state);
            prefix.extend_from_slice(&state);
            i += 1;
        });
        let iteration_ns = (started.elapsed().as_nanos() / n.max(1) as u128) as u64;
        let restore_stride = runner.stride();
        let carried = 8 * slots;
        let body = move |iters: Range<u64>,
                         mem: Option<(VersionId, &ConcurrentVersionedMemory)>| {
            // Every record goes straight into the task's output, with
            // room left after each for the slot values it does not know
            // yet; `ends` remembers where the records stop.
            let len = (iters.end - iters.start) as usize;
            let (mut out, mut ends) = (Vec::new(), Vec::with_capacity(len));
            let mut work = 0u64;
            runner.run(iters.clone(), &mut |bytes, w| {
                if ends.is_empty() {
                    out.reserve((bytes.len() + carried) * len);
                }
                out.extend_from_slice(bytes);
                out.resize(out.len() + carried, 0);
                ends.push(out.len());
                work += w;
            });
            let mut state: Vec<u64> = mem.map_or_else(Vec::new, |(v, m)| {
                (0..slots as u64).map(|s| m.read(v, Addr(s))).collect()
            });
            let mut start = 0;
            for (i, end) in iters.zip(ends) {
                let (bytes, tail) = out[start..end].split_at_mut(end - start - carried);
                let after = if mem.is_some() {
                    fold(i, bytes, &mut state);
                    &state[..]
                } else {
                    &prefix[i as usize * slots..][..slots]
                };
                for (dst, val) in tail.chunks_exact_mut(8).zip(after) {
                    dst.copy_from_slice(&val.to_le_bytes());
                }
                start = end;
            }
            if let Some((v, m)) = mem {
                for (s, val) in state.iter().enumerate() {
                    m.write(v, Addr(s as u64), *val);
                }
            }
            (out, work)
        };
        Self {
            trace,
            body: Arc::new(body),
            iteration_ns,
            restore_stride,
        }
    }

    /// The recorded trace, one record per iteration whatever the grain:
    /// what the simulator's per-iteration figures and the tuner read.
    /// The graph a run executes is built from this trace
    /// [`chunked`](IterationTrace::chunked) by
    /// [`grain`](VersionedJob::grain), and is [`JobSpec::graph`].
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
        let (output, work) = (self.body)(0..self.trace.len() as u64, None);
        SequentialRun {
            output,
            work,
            wall: started.elapsed(),
        }
    }

    /// Runs the job on real threads under `plan`, with every attempt's
    /// loop-carried state routed through a fresh
    /// [`ConcurrentVersionedMemory`] — the one-shot convenience: an
    /// [`Engine`] sized by [`EngineConfig::for_plan`], dropped on
    /// return. Returns the report (whose
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
        let report = Engine::new(EngineConfig::for_plan(plan)).run(&spec)?;
        Ok((report, mem))
    }

    /// How many consecutive iterations make one task under `plan`: the
    /// largest power of two that keeps a task no longer than ~32 µs by
    /// the iteration time measured at construction — long enough that
    /// the executor's per-task cost (0.3–1.0 µs) is ≤ 3 % of it — and
    /// leaves every seat of the plan's widest stage at least 8 tasks;
    /// 1 when a single iteration already outlasts the target or the loop
    /// is too short to share out. A pure function of the job and the
    /// plan, and a power of two so that ordinary timing wobble between
    /// two constructions of one job seldom changes the graph.
    pub fn grain(&self, plan: &ExecutionPlan) -> usize {
        let cap = self.trace.len() / (TASKS_PER_SEAT * widest_stage(plan).max(1));
        let wanted = GRAIN_TARGET_NS / self.iteration_ns.max(1);
        let k = wanted.min(cap as u64).max(1);
        1 << k.ilog2()
    }

    /// Packages the job as a submittable unit for an [`Engine`], with a
    /// fresh private substrate. Returns the spec and the substrate
    /// handle so the caller can inspect committed loop-carried state
    /// after the job's report arrives.
    ///
    /// The graph is the trace [`chunked`](IterationTrace::chunked) by
    /// [`grain`](VersionedJob::grain)`(plan)`: a task is a chunk of that
    /// many consecutive iterations (the last chunk may be shorter),
    /// [`TaskCtx::iter`] is the chunk's index, and whatever compares the
    /// run with a simulation task by task must simulate
    /// [`JobSpec::graph`], not a graph of [`trace`](VersionedJob::trace).
    /// One-stage plans execute the TLS task graph; multi-stage plans
    /// the three-phase DSWP graph, with only the transform stage (the
    /// single TLS stage, or phase B) touching memory and emitting
    /// bytes; A and C model read/write phases and emit nothing. The
    /// transform task runs its chunk's iterations in order inside its
    /// one version and emits their records back to back, so the
    /// committed stream is the sequential one at any grain. Oracle and
    /// fallback attempts see [`TaskCtx::mem`]` == None` and run the
    /// sequential twin over the same iterations.
    pub fn job_spec(
        &self,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> (JobSpec, Arc<ConcurrentVersionedMemory>) {
        self.job_spec_at(self.grain(plan), plan, config)
    }

    /// [`job_spec`](VersionedJob::job_spec) with the grain given, not
    /// measured: the one place a graph and a task body are built.
    fn job_spec_at(
        &self,
        k: usize,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> (JobSpec, Arc<ConcurrentVersionedMemory>) {
        let chunks = self.trace.chunked(k);
        let graph = Arc::new(if plan.stage_count() == 1 {
            chunks.tls_task_graph()
        } else {
            chunks.task_graph()
        });
        let emit_stage = if graph.stage_count() == 1 { 0u8 } else { 1u8 };
        let mem = Arc::new(ConcurrentVersionedMemory::new());
        let body = Arc::clone(&self.body);
        let (k, n) = (k as u64, self.trace.len() as u64);
        let task_body = move |task: TaskId, ctx: &TaskCtx<'_>| {
            if ctx.stage.0 != emit_stage {
                return TaskOutput::empty();
            }
            let iters = ctx.iter * k..n.min((ctx.iter + 1) * k);
            let (bytes, work) = body(iters, ctx.mem.map(|m| (VersionId(u64::from(task.0)), m)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_workloads, InputSize};
    use seqpar::IterationRecord;
    use seqpar_runtime::FaultPlan;
    use std::cell::Cell;

    thread_local! {
        /// Set while a test builds jobs that keep every restore point.
        pub(super) static EVERY_POINT: Cell<bool> = const { Cell::new(false) };
    }

    /// A synthetic `accumulating` loop of `n` short iterations. With
    /// `slots` > 0 its fold is order-sensitive (multiply-then-add) and
    /// leaves two iterations in three silent on slot 0.
    fn synthetic(n: u64, slots: usize) -> VersionedJob {
        let trace = (0..n).map(|i| IterationRecord::new(1, 5 + i % 3, 1));
        VersionedJob::accumulating(
            trace.collect(),
            |i: u64| {
                (
                    i.wrapping_mul(0x9E37_79B9).to_le_bytes()[..3].to_vec(),
                    1 + i % 4,
                )
            },
            slots,
            |i, bytes, state| {
                if let [acc, count, ..] = state {
                    if i % 3 == 0 {
                        *acc = acc.wrapping_mul(31).wrapping_add(u64::from(bytes[0]) | 1);
                    }
                    *count += 1;
                }
            },
        )
    }

    /// Every kernel of the suite at `Test` size, plus a clean and a
    /// carried synthetic loop.
    fn jobs() -> Vec<(String, VersionedJob)> {
        let mut jobs: Vec<(String, VersionedJob)> = all_workloads()
            .iter()
            .map(|w| {
                let id = w.meta().spec_id.to_string();
                (id, w.versioned_job(InputSize::Test))
            })
            .collect();
        jobs.push(("synthetic.clean".to_string(), synthetic(97, 0)));
        jobs.push(("synthetic.carried".to_string(), synthetic(97, 2)));
        jobs
    }

    /// Every kernel keeps its carried state below this address.
    const SLOTS: u64 = 8;

    fn slots(mem: &ConcurrentVersionedMemory) -> Vec<u64> {
        (0..SLOTS)
            .map(|s| mem.committed(Addr(s)).unwrap_or(0))
            .collect()
    }

    /// What the sequential loop leaves in memory: the versioned body run
    /// one iteration per version, each committed before the next begins.
    /// Its records are the oracle's, which pins body/oracle agreement on
    /// the way.
    fn sequential_slots(id: &str, job: &VersionedJob) -> Vec<u64> {
        let mem = ConcurrentVersionedMemory::new();
        for i in 0..job.len() as u64 {
            let v = VersionId(i);
            mem.begin(v);
            let versioned = (job.body)(i..i + 1, Some((v, &mem)));
            assert_eq!(versioned, (job.body)(i..i + 1, None), "{id} @ {i}");
            mem.try_commit(v).expect("nothing runs beside it");
        }
        slots(&mem)
    }

    /// A job with what its sequential run commits and leaves in memory.
    struct Case {
        id: String,
        job: VersionedJob,
        seq: SequentialRun,
        slots: Vec<u64>,
    }

    impl Case {
        fn new(id: String, job: VersionedJob) -> Case {
            Case {
                seq: job.sequential(),
                slots: sequential_slots(&id, &job),
                id,
                job,
            }
        }

        fn all() -> Vec<Case> {
            jobs()
                .into_iter()
                .map(|(id, job)| Case::new(id, job))
                .collect()
        }

        /// The grains worth running: one iteration per task, odd and
        /// even splits with a ragged tail, all but one iteration in the
        /// first task, exactly one task, and a chunk longer than the loop.
        fn grains(&self) -> Vec<usize> {
            let n = self.job.len();
            let mut grains = vec![1, 2, 3, 7, n - 1, n, n + 5];
            grains.retain(|&k| k > 0);
            grains.sort_unstable();
            grains.dedup();
            grains
        }

        /// Runs the job at grain `k` through the one routine `job_spec`
        /// feeds its measured grain to, and holds the run to the
        /// sequential bytes, work and memory.
        fn check(&self, engine: &Engine, k: usize, plan: &ExecutionPlan, mode: Mode) {
            let Case { id, job, seq, .. } = self;
            let what = format!("{id}: k = {k}, {} stage(s), {mode:?}", plan.stage_count());
            let faults = if mode.chaos {
                FaultPlan::seeded(7)
            } else {
                FaultPlan::none()
            };
            let config = ExecConfig::default().with_faults(faults);
            let (mut spec, mem) = job.job_spec_at(k, plan, config);
            if mode.replay {
                spec.mem = None;
            }
            let tasks = job.len().div_ceil(k) * usize::from(plan.stage_count());
            assert_eq!(spec.graph.len(), tasks, "{what}");
            let report = engine
                .run(&spec)
                .expect("every seeded fault is recoverable");
            assert_eq!(report.output, seq.output, "{what}: bytes");
            assert_eq!(report.work, seq.work, "{what}: work");
            // The fallback and a replay run the oracle, which leaves the
            // substrate alone.
            if !mode.replay && !report.fallback_activated {
                assert_eq!(slots(&mem), self.slots, "{what}: memory");
                assert_eq!(mem.active_count(), 0, "{what}: version left open");
            }
        }
    }

    /// Conflict-driven or replayed (`JobSpec::mem` cleared), fault-free
    /// or under `FaultPlan::seeded(7)`.
    #[derive(Clone, Copy, Debug)]
    struct Mode {
        chaos: bool,
        replay: bool,
    }

    const MODES: [Mode; 4] = [
        Mode {
            chaos: false,
            replay: false,
        },
        Mode {
            chaos: true,
            replay: false,
        },
        Mode {
            chaos: false,
            replay: true,
        },
        Mode {
            chaos: true,
            replay: true,
        },
    ];

    fn plans() -> [ExecutionPlan; 3] {
        [
            ExecutionPlan::tls(1),
            ExecutionPlan::tls(4),
            ExecutionPlan::three_phase(4),
        ]
    }

    /// Whatever `k` the clock picks, the committed stream is the
    /// sequential one. Tier-1 runs every job at every grain once, under
    /// a plan and a mode that rotate so that each (grain, plan), (grain,
    /// mode) and (plan, mode) pair is met — 3 and 4 are coprime, so a
    /// dozen consecutive `job + grain` indices meet all twelve of the
    /// last; the full cross is [`every_grain_full_matrix`].
    #[test]
    fn every_grain_commits_the_sequential_bytes() {
        let engine = Engine::new(EngineConfig::with_workers(3));
        let plans = plans();
        for (j, case) in Case::all().iter().enumerate() {
            for (g, k) in case.grains().into_iter().enumerate() {
                case.check(&engine, k, &plans[(j + g) % 3], MODES[(j + g) % 4]);
            }
        }
    }

    /// Every job × grain × plan × mode. Twelve times the runs of the
    /// test above and minutes in a debug build, so CI's `conflict-stress`
    /// runs it, in release mode and twenty times over: its runners have
    /// the cores on which chunked versions race for real.
    #[test]
    #[ignore = "full matrix; conflict-stress loops it in release mode"]
    fn every_grain_full_matrix() {
        let engine = Engine::new(EngineConfig::with_workers(3));
        for case in Case::all() {
            for k in case.grains() {
                for plan in plans() {
                    for mode in MODES {
                        case.check(&engine, k, &plan, mode);
                    }
                }
            }
        }
    }

    /// The oracle meters an iteration's own work and nothing it does to
    /// restore the state before it: a kernel's sequential work is the
    /// sum of its trace's B costs. mcf is left out because its record
    /// splits an iteration's work over phases A, B and C.
    #[test]
    fn oracle_work_is_the_traced_work() {
        for w in all_workloads().iter().filter(|w| w.meta().name != "mcf") {
            let job = w.versioned_job(InputSize::Test);
            let traced: u64 = job.trace().records().iter().map(|r| r.b_cost).sum();
            assert_eq!(job.sequential().work, traced, "{}", w.meta().spec_id);
        }
    }

    /// A kernel builds its job and its trace from the same walk of its
    /// loop: the job the executor runs and the trace the simulator
    /// schedules describe one run.
    #[test]
    fn every_kernels_job_carries_its_workload_trace() {
        for w in all_workloads() {
            let job = w.versioned_job(InputSize::Test);
            assert_eq!(
                job.trace(),
                &w.trace(InputSize::Test),
                "{}",
                w.meta().spec_id
            );
        }
    }

    /// A job identical to `job` but for what its clock read.
    fn measured_at(job: &VersionedJob, iteration_ns: u64) -> VersionedJob {
        VersionedJob {
            iteration_ns,
            ..job.clone()
        }
    }

    /// Pins the rule of [`VersionedJob::grain`].
    #[test]
    fn grain_is_a_stable_power_of_two_that_keeps_every_seat_fed() {
        let plans = [
            ExecutionPlan::tls(1),
            ExecutionPlan::tls(4),
            ExecutionPlan::tls(8),
            ExecutionPlan::three_phase(4),
            ExecutionPlan::three_phase(8),
        ];
        let mut all = jobs();
        let long = synthetic(4096, 2);
        for ns in [0, 1, 100, 1_000, 15_999, 16_000, 31_999, 32_000, 1 << 40] {
            all.push((format!("synthetic @ {ns} ns"), measured_at(&long, ns)));
        }
        for (id, job) in &all {
            for plan in &plans {
                let k = job.grain(plan);
                assert_eq!(k, job.grain(plan), "{id}: stable across calls");
                assert_eq!(k, job.clone().grain(plan), "{id}: frozen in the job");
                assert!(k.is_power_of_two(), "{id}: k = {k}");
                let tasks = job.len().div_ceil(k);
                let floor = job.len().min(TASKS_PER_SEAT * widest_stage(plan));
                assert!(tasks >= floor, "{id}: {tasks} tasks of k = {k} < {floor}");
                let (spec, _mem) = job.job_spec(plan, ExecConfig::default());
                let stages = usize::from(plan.stage_count());
                assert_eq!(
                    spec.graph.len(),
                    tasks * stages,
                    "{id}: job_spec runs at grain"
                );
            }
        }
        // The target binds: 32 µs of 100 ns iterations, rounded down.
        let fine = measured_at(&long, 100);
        assert_eq!(fine.grain(&ExecutionPlan::tls(1)), 256);
        // The cap binds: 4096 iterations over 8 × 8 tasks.
        assert_eq!(fine.grain(&ExecutionPlan::tls(8)), 64);
        // The widest stage counts, not the plan's total: B has 6 seats.
        assert_eq!(fine.grain(&ExecutionPlan::three_phase(8)), 64);
        // One iteration that outlasts the target — or half of it: two
        // would overshoot — is a task.
        assert_eq!(measured_at(&long, 32_000).grain(&ExecutionPlan::tls(1)), 1);
        assert_eq!(measured_at(&long, 16_001).grain(&ExecutionPlan::tls(1)), 1);
        assert_eq!(measured_at(&long, 16_000).grain(&ExecutionPlan::tls(1)), 2);
        // A loop too short to share out is not chunked.
        assert_eq!(
            measured_at(&synthetic(15, 2), 100).grain(&ExecutionPlan::tls(1)),
            1
        );
        assert_eq!(synthetic(0, 2).grain(&ExecutionPlan::tls(4)), 1);
    }

    /// Construction reads the clock: 64 short iterations chunk by 8
    /// under `tls(1)`, the same 64 made to outlast the target do not.
    #[test]
    fn construction_measures_what_an_iteration_costs() {
        let build = |compute: fn(u64) -> (Vec<u8>, u64)| {
            let trace = (0..64).map(|_| IterationRecord::new(1, 1, 1));
            VersionedJob::accumulating(trace.collect(), compute, 0, |_, _, _| {})
        };
        let slow = |i: u64| {
            std::thread::sleep(Duration::from_nanos(GRAIN_TARGET_NS));
            (vec![i as u8], 1)
        };
        let fast = |i: u64| (vec![i as u8], 1);
        let plan = ExecutionPlan::tls(1);
        assert_eq!(build(slow).grain(&plan), 1);
        assert!(build(slow).iteration_ns >= GRAIN_TARGET_NS);
        // A sleep is never short; a short pass can be preempted into a
        // long one, so the fast side gets three constructions to be fast.
        assert_eq!((0..3).map(|_| build(fast).grain(&plan)).max(), Some(8));
    }

    /// Pins the rule of [`RestorePoints`] on walks whose states are
    /// their own indices: point 0 is kept, every kept index is a multiple
    /// of the stride in force when it was kept, that stride is a power of
    /// two that never narrows, and a range resumes from the latest point
    /// at or before its start.
    #[test]
    fn restore_points_keep_strided_states_and_resume_from_the_latest() {
        let walk = |n: u64, slow: bool| {
            let mut points = RestorePoints::new();
            let mut last = 1;
            for i in 0..n {
                let kept = points.points.len();
                points.offer(|| i);
                let stride = points.stride;
                assert!(
                    stride.is_power_of_two() && stride >= last,
                    "{stride} after {last}"
                );
                if points.points.len() > kept {
                    assert_eq!(i % stride, 0, "kept {i} at stride {stride}");
                }
                last = stride;
                if slow {
                    std::thread::sleep(Duration::from_nanos(GRAIN_TARGET_NS / 4));
                }
            }
            points
        };
        // An iteration that outlasts a quarter of the target keeps every
        // point; a cheap one widens the stride.
        let slow = walk(40, true);
        assert_eq!(slow.stride, 1);
        assert_eq!(slow.points.len(), 40);
        let fast = walk(20_000, false);
        assert_eq!(fast.points[0], (0, 0));
        assert!(
            fast.stride > 1,
            "a no-op iteration fits the quarter many times"
        );
        assert!(fast.stride <= GRAIN_TARGET_NS / 4);
        for a in (0..20_000)
            .step_by(97)
            .chain([fast.stride - 1, fast.stride, 19_999])
        {
            let &(from, state) = fast.at(a);
            assert_eq!(from, state);
            assert!(from <= a, "{from} > {a}");
            let next = fast.points.iter().find(|(i, _)| *i > from);
            assert!(
                next.is_none_or(|(i, _)| *i > a),
                "a later point precedes {a}"
            );
        }
        // The runner restores once and replays up to the range unmetered.
        let runner = fast.runner(
            |&i| i,
            |live, i| {
                assert_eq!(*live, i, "the live state is the one before {i}");
                *live += 1;
                (vec![i as u8], 1)
            },
        );
        for range in [0..1, 5..9, 1_000..1_003, 19_990..20_000] {
            let (mut bytes, mut work) = (Vec::new(), 0);
            runner.run(range.clone(), &mut |b, w| {
                bytes.extend_from_slice(b);
                work += w;
            });
            let expected: Vec<u8> = range.clone().map(|i| i as u8).collect();
            assert_eq!((bytes, work), (expected, range.end - range.start));
        }
    }

    /// The kernels that resume their loop from restore points.
    const RESUMED: [&str; 6] = ["vpr", "twolf", "vortex", "gap", "perlbmk", "mcf"];

    /// A job built to keep every restore point and the default sparse job
    /// run the same loop: the same sequential bytes and work, and at
    /// grains below, at and above the sparse stride — below it a chunk
    /// replays — the same committed bytes, work and slots, fault-free and
    /// under `FaultPlan::seeded(7)`. `every_mode` runs each grain in both
    /// modes; otherwise the modes alternate from grain to grain. One seat:
    /// the substrate's races are [`every_grain_full_matrix`]'s.
    fn sparse_points_commit_what_every_point_does(size: InputSize, every_mode: bool) {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let plan = ExecutionPlan::tls(1);
        for w in all_workloads() {
            if !RESUMED.contains(&w.meta().name) {
                continue;
            }
            let id = w.meta().spec_id.to_string();
            EVERY_POINT.set(true);
            let dense = Case::new(format!("{id} (every point)"), w.versioned_job(size));
            EVERY_POINT.set(false);
            let job = w.versioned_job(size);
            assert_eq!(dense.job.restore_stride, 1, "{id}");
            let seq = job.sequential();
            assert_eq!((&seq.output, seq.work), (&dense.seq.output, dense.seq.work));
            let s = job.restore_stride as usize;
            let mut grains = vec![1, 3, s - 1, s, 2 * s, job.len()];
            grains.retain(|&k| k > 0);
            grains.sort_unstable();
            grains.dedup();
            let sparse = Case {
                id: format!("{id} (stride {s})"),
                job,
                seq: dense.seq.clone(),
                slots: dense.slots.clone(),
            };
            for case in [&dense, &sparse] {
                for (g, &k) in grains.iter().enumerate() {
                    // On one seat a chunk resumes the state the one before
                    // left; run backwards, every chunk restores from its
                    // latest point, and one below the stride replays.
                    let n = case.job.len() as u64;
                    let starts: Vec<u64> = (0..n).step_by(k).collect();
                    let runs: Vec<_> = starts
                        .iter()
                        .rev()
                        .map(|&a| (case.job.body)(a..n.min(a + k as u64), None))
                        .collect();
                    let output: Vec<u8> = runs.iter().rev().flat_map(|(b, _)| b.clone()).collect();
                    let work: u64 = runs.iter().map(|(_, w)| w).sum();
                    assert_eq!(output, case.seq.output, "{}: k = {k} backwards", case.id);
                    assert_eq!(work, case.seq.work, "{}: k = {k} backwards", case.id);
                    for chaos in [false, true] {
                        if every_mode || chaos == (g % 2 == 1) {
                            case.check(
                                &engine,
                                k,
                                &plan,
                                Mode {
                                    chaos,
                                    replay: false,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_restore_points_commit_what_every_point_does() {
        sparse_points_commit_what_every_point_does(InputSize::Test, false);
    }

    /// The same at `Train`, where the strides are wider; CI runs it in
    /// release.
    #[test]
    #[ignore = "Train size; CI runs it in release with the Train pins"]
    fn sparse_restore_points_commit_what_every_point_does_at_train() {
        sparse_points_commit_what_every_point_does(InputSize::Train, true);
    }
}
