//! Native (real-thread) execution of workload kernels.
//!
//! A kernel describes its hot loop once, as a `Kernel` (handed out as
//! a [`KernelLoop`]).
//! [`Workload::trace`](crate::Workload::trace) is one pass of its steps
//! that keeps only the trace; a [`VersionedJob`] runs the same steps
//! **for real** on an [`Engine`]'s worker threads. A kernel job's first
//! sequential run is its one pass: it emits the bytes, reads the clock,
//! and records the trace and sparse restore points, from which a chunk
//! of iterations restores once. Every record ends in a *tail*: the
//! values of the loop's checksum slots after it, folded in program
//! order. Who folds the tail is the constructor's choice:
//!
//! * a kernel's job ([`Workload::versioned_job`](crate::Workload::versioned_job)):
//!   the chunk only runs its range (the paper's phase B) and leaves its
//!   tails empty, and the commit unit folds them in task order
//!   ([`NativeBody::commit`], phase C), so chunks make no substrate
//!   access and never conflict on the slots;
//! * [`accumulating`](VersionedJob::accumulating), the substrate's own
//!   test: the chunk threads the slots through a
//!   [`ConcurrentVersionedMemory`] inside its version — reads forward
//!   uncommitted stores from earlier chunks, conflicting writes squash
//!   later readers.
//!
//! Handed no version, the body is the *sequential oracle*: what
//! validation, the sequential fallback, and a replay job
//! (`JobSpec::mem == None`) run.
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

use crate::common::fnv1a_fold;
use seqpar::{IterationRecord, IterationTrace};
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecError, ExecutionPlan, JobSpec, NativeBody, NativeReport,
    TaskCtx, TaskGraph, TaskId, TaskOutput,
};
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A timed sequential reference run of a [`VersionedJob`].
#[derive(Clone, Debug)]
pub struct SequentialRun {
    /// Concatenated per-iteration output bytes, in program order.
    pub output: Vec<u8>,
    /// Total metered work.
    pub work: u64,
    /// Wall-clock time of the run's steps and fold — on a kernel job's
    /// first run, not of the trace and the points it records.
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

/// A kernel's hot loop, described once: the trace, the job's oracle and
/// its chunks all run [`step`](Kernel::step).
pub(crate) trait Kernel: Send + Sync + 'static {
    /// The loop's live state.
    type State: Send + 'static;
    /// What a restore point keeps of the state.
    type Point: Send + Sync + 'static;
    /// What the record rule reads of a step besides its work.
    type Seen;
    /// What the record rule carries from one iteration to the next.
    type Book: Default;

    /// Whether phase B runs speculatively ([`IterationTrace::speculative`]).
    const SPECULATIVE: bool = true;
    /// The checksum slots the commit folds every record into.
    const SLOTS: usize = 2;

    /// The state before iteration 0.
    fn start(&self) -> Self::State;

    /// Runs iteration `i` on `state`: its bytes, its work and what the
    /// record rule reads of it; `None` once the loop has ended.
    fn step(&self, state: &mut Self::State, i: u64) -> Option<(Vec<u8>, u64, Self::Seen)>;

    /// What a restore point keeps of `state`. A loop that keeps none
    /// starts every range from [`start`](Kernel::start): its state holds
    /// nothing a step's bytes or work read.
    fn point(&self, _state: &Self::State) -> Option<Self::Point> {
        None
    }

    /// The live state a point stands for.
    fn restore(&self, _point: &Self::Point) -> Self::State {
        self.start()
    }

    /// Iteration `i`'s trace record, from its step's work and what it saw.
    fn record(&self, book: &mut Self::Book, i: u64, work: u64, seen: Self::Seen)
        -> IterationRecord;

    /// Merges iteration `i`'s record into the slot values, in program
    /// order from zeros. By default they are an output stream's rolling
    /// FNV-1a checksum and its length so far.
    fn fold(&self, _i: u64, bytes: &[u8], slots: &mut [u64]) {
        slots[0] = fnv1a_fold(slots[0], bytes);
        slots[1] += bytes.len() as u64;
    }
}

/// Runs `kernel`'s iteration `i`: every step of a pass or a range is
/// taken here, where a test counts them.
fn step<K: Kernel>(kernel: &K, state: &mut K::State, i: u64) -> Option<(Vec<u8>, u64, K::Seen)> {
    let step = kernel.step(state, i);
    #[cfg(test)]
    tests::STEPS.set(tests::STEPS.get() + u64::from(step.is_some()));
    step
}

/// A kernel's loop at one input size, described once: what
/// [`Workload::trace`](crate::Workload::trace) records and
/// [`Workload::versioned_job`](crate::Workload::versioned_job) runs.
/// Building one generates the loop's inputs and runs none of it.
#[derive(Clone)]
pub struct KernelLoop {
    pass: Arc<dyn Fn(bool) -> (IterationTrace, Option<Kept>) + Send + Sync>,
    tail: Arc<Tail>,
}

/// A job's pass's runner, output (as [`Tail::emit`] lays it), work and clock.
type Kept = (Box<dyn RangeRunner>, Vec<u8>, u64, Duration);

impl fmt::Debug for KernelLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelLoop").finish_non_exhaustive()
    }
}

impl KernelLoop {
    pub(crate) fn new<K: Kernel>(kernel: K) -> Self {
        let kernel = Arc::new(kernel);
        let folds = Arc::clone(&kernel);
        let tail = Tail {
            slots: K::SLOTS,
            fold: Box::new(move |i, bytes, slots| folds.fold(i, bytes, slots)),
        };
        Self {
            pass: Arc::new(move |kept| pass(&kernel, kept)),
            tail: Arc::new(tail),
        }
    }

    /// The loop's trace, from a pass that keeps nothing else.
    pub(crate) fn trace(&self) -> IterationTrace {
        (self.pass)(false).0
    }
}

/// Runs `kernel`'s loop once from its start, recording the trace. A
/// job's pass (`kept`) also keeps the output, sparse restore points and
/// a clock of the steps alone: before every `stride`-th step it reads the
/// clock and pauses it to keep a point and record the steps since. The
/// stride is a power of two the clock widens until a stride of steps
/// lasts a quarter of [`GRAIN_TARGET_NS`]: so a chunk the grain's time
/// term sizes starts on a point; a shorter one replays under a stride.
fn pass<K: Kernel>(kernel: &Arc<K>, kept: bool) -> (IterationTrace, Option<Kept>) {
    let (mut trace, mut book) = (IterationTrace::new(), K::Book::default());
    trace.speculative = K::SPECULATIVE;
    // The steps the rule has yet to read, each one's work and what it saw.
    let mut pending: Vec<(u64, K::Seen)> = Vec::new();
    let mut record = |pending: &mut Vec<_>| {
        for (work, seen) in pending.drain(..) {
            let i = trace.len() as u64;
            trace.push(kernel.record(&mut book, i, work, seen));
        }
    };
    let mut live = kernel.start();
    let (mut out, mut work, mut points, mut stride) = (Vec::new(), 0, Vec::new(), 1);
    // The steps' time before the last pause, and when they resumed.
    let (mut walked, mut resumed) = (Duration::ZERO, Instant::now());
    for i in 0u64.. {
        if kept && i.is_multiple_of(stride) {
            walked += resumed.elapsed();
            let fits = u128::from(GRAIN_TARGET_NS / 4 * i) / walked.as_nanos().max(1);
            #[cfg(test)]
            let fits = if tests::EVERY_POINT.get() { 0 } else { fits };
            if fits > u128::from(stride) {
                stride = 1 << fits.ilog2();
            }
            if i.is_multiple_of(stride) {
                if let Some(point) = kernel.point(&live) {
                    #[cfg(test)]
                    tests::POINTS.set(tests::POINTS.get() + 1);
                    points.push((i, point));
                }
                record(&mut pending);
            }
            resumed = Instant::now();
        }
        let Some((bytes, w, seen)) = step(&**kernel, &mut live, i) else {
            break;
        };
        pending.push((w, seen));
        if kept {
            push_record(&mut out, &bytes, K::SLOTS);
            work += w;
        } else {
            record(&mut pending);
        }
    }
    let clocked = walked + resumed.elapsed();
    record(&mut pending);
    out.shrink_to_fit();
    let kept = kept.then(|| {
        let runner = Resume {
            kernel: Arc::clone(kernel),
            stride: if points.is_empty() { 1 } else { stride },
            points,
            left: Mutex::new(None),
        };
        (Box::new(runner) as Box<dyn RangeRunner>, out, work, clocked)
    });
    (trace, kept)
}

/// Runs ranges of a recorded kernel loop: a range restores the latest
/// point at or before it and replays up to it, unmetered (a loop with no
/// points starts from its start), unless it starts where the last range
/// ended — the next chunk on one seat — and resumes that one's state.
struct Resume<K: Kernel> {
    kernel: Arc<K>,
    points: Vec<(u64, K::Point)>,
    stride: u64,
    left: Mutex<Option<(u64, K::State)>>,
}

impl<K: Kernel> RangeRunner for Resume<K> {
    fn run(&self, iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64)) {
        let kernel = &*self.kernel;
        let left = self.left.lock().expect("no panic under the lock").take();
        let later = self.points.partition_point(|(i, _)| *i <= iters.start);
        let mut live = match (left, later.checked_sub(1)) {
            (Some((end, live)), _) if end == iters.start => live,
            (_, None) => kernel.start(),
            (_, Some(p)) => {
                let (from, point) = &self.points[p];
                let mut live = kernel.restore(point);
                // The replay restores the range's state: its work belongs
                // to the iterations it repeats.
                for i in *from..iters.start {
                    step(kernel, &mut live, i);
                }
                live
            }
        };
        for i in iters.clone() {
            let (bytes, work, _) = step(kernel, &mut live, i).expect("the loop runs this far");
            emit(&bytes, work);
        }
        *self.left.lock().expect("no panic under the lock") = Some((iters.end, live));
    }

    fn stride(&self) -> u64 {
        self.stride
    }
}

/// The order-dependent end of a loop: `slots` accumulators that
/// `fold(iter, bytes, slots)` merges every record into, in program order
/// from zeros, and whose values after the fold are appended to the
/// record little-endian — so a stale value anywhere corrupts the
/// committed byte stream, which the differential suites pin against the
/// sequential oracle.
struct Tail {
    slots: usize,
    fold: Box<Fold>,
}

/// `fold(iter, bytes, slots)`: merges iteration `iter`'s record into the
/// slot values.
type Fold = dyn Fn(u64, &[u8], &mut [u64]) + Send + Sync;

/// Appends a record and, with `slots`, its tail. Until a fold fills the
/// tail, its first eight bytes hold the record's length: all a fold
/// needs to find the records of a chunk it did not emit.
fn push_record(out: &mut Vec<u8>, bytes: &[u8], slots: usize) {
    out.extend_from_slice(bytes);
    if slots > 0 {
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.resize(out.len() + 8 * slots - 8, 0);
    }
}

impl Tail {
    /// Bytes after each record: the slot values once folded.
    fn carried(&self) -> usize {
        8 * self.slots
    }

    /// Runs `iters` into one buffer, each record followed by its tail
    /// ([`push_record`]). With no slots a record has no tail.
    fn emit(&self, runner: &dyn RangeRunner, iters: Range<u64>) -> (Vec<u8>, u64) {
        let len = (iters.end - iters.start) as usize;
        let (mut out, mut work) = (Vec::new(), 0u64);
        runner.run(iters, &mut |bytes, w| {
            if out.is_empty() {
                out.reserve((bytes.len() + self.carried()) * len);
            }
            push_record(&mut out, bytes, self.slots);
            work += w;
        });
        (out, work)
    }

    /// Folds the records [`emit`](Tail::emit) left in `out`, the first
    /// of them iteration `first`, in order on `state`, and writes each
    /// one's slot values into its tail. `tails` is scratch for where the
    /// tails start, found from the last record back.
    fn fold(&self, first: u64, out: &mut [u8], state: &mut [u64], tails: &mut Vec<usize>) {
        let carried = self.carried();
        if carried == 0 {
            return;
        }
        tails.clear();
        let mut end = out.len();
        while end > 0 {
            let tail = end - carried;
            let len = u64::from_le_bytes(out[tail..tail + 8].try_into().expect("eight bytes"));
            tails.push(tail);
            end = tail - len as usize;
        }
        let mut start = 0;
        for (i, &tail) in (first..).zip(tails.iter().rev()) {
            let (bytes, rest) = out[start..].split_at_mut(tail - start);
            (self.fold)(i, bytes, state);
            for (dst, val) in rest[..carried].chunks_exact_mut(8).zip(&*state) {
                dst.copy_from_slice(&val.to_le_bytes());
            }
            start = tail + carried;
        }
    }
}

/// A run's fold at commit: the slot values after the last committed
/// task, and the fold's scratch.
struct Committed {
    state: Vec<u64>,
    tails: Vec<usize>,
}

/// How long a task should run. Handing a task over costs the executor
/// 0.3 µs with no carried state and 0.55–1.0 µs with (the benchmark's
/// `exec.overhead_ns_per_task.*`), and at one seat a kernel chunk also
/// pays the versioned memory for its version — begin, a check and a
/// commit with nothing read or written, since its checksum tail folds at
/// commit — and that fold (EXPERIMENTS.md "The checksum tail folds at
/// commit"). A task of 32 µs so outlasts its overhead 20 times and more:
/// under 5 % of the wall is hand-off, substrate and commit.
const GRAIN_TARGET_NS: u64 = 32_000;

/// Chunking never leaves a seat of the plan's widest stage fewer tasks
/// than this: enough for the claim cursors to even out iterations of
/// unequal length across seats, and for a squash to throw away an eighth
/// of a seat's share at most.
const TASKS_PER_SEAT: usize = 8;

/// A workload packaged for **conflict-driven** native execution: each
/// task runs a chunk of the loop inside a version of a
/// [`ConcurrentVersionedMemory`], and squashes originate from the
/// substrate's conflict detection at access granularity, not from the
/// trace's recorded dependence events. What a chunk speculates on is the
/// constructor's choice: [`accumulating`](VersionedJob::accumulating)
/// threads the checksum slots through [`Addr`]-keyed accesses, a
/// kernel's job folds them at commit, outside any version.
#[derive(Clone)]
pub struct VersionedJob {
    body: Arc<Body>,
    /// Mean wall time of one iteration, set by the first
    /// [`sequential`](VersionedJob::sequential) run of the job or a clone:
    /// [`grain`](VersionedJob::grain) reads only this, so one job builds
    /// one graph per plan however often it is asked.
    iteration_ns: Arc<OnceLock<u64>>,
}

/// A job's trace and the runner of its iterations.
type Recorded = (IterationTrace, Box<dyn RangeRunner>);

/// What a job runs, shared by its clones.
struct Body {
    /// The trace and the runner: given to
    /// [`accumulating`](VersionedJob::accumulating), recorded by a kernel
    /// job's first sequential run from its loop.
    recorded: OnceLock<Recorded>,
    kernel: Option<KernelLoop>,
    tail: Arc<Tail>,
    /// An `accumulating` job's slot values before each iteration, in
    /// program order: iteration i's are `prefix[i * slots..][..slots]`.
    prefix: OnceLock<Vec<u64>>,
}

impl fmt::Debug for VersionedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let recorded = self.body.recorded.get();
        f.debug_struct("VersionedJob")
            .field("iterations", &recorded.map(|(trace, _)| trace.len()))
            .field("iteration_ns", &self.iteration_ns.get())
            .field("restore_stride", &recorded.map(|(_, r)| r.stride()))
            .field("folds_at_commit", &self.body.at_commit())
            .finish_non_exhaustive()
    }
}

/// The seats of `plan`'s widest stage.
fn widest_stage(plan: &ExecutionPlan) -> usize {
    let seats = |s| plan.stage(s).cores().len();
    (0..plan.stage_count()).map(seats).max().unwrap_or(0)
}

impl Body {
    fn recorded(&self) -> &Recorded {
        let recorded = self.recorded.get();
        recorded.expect("a sequential run records the loop")
    }

    /// Whether the commit folds the tail, not the chunk: a kernel's job.
    fn at_commit(&self) -> bool {
        self.kernel.is_some()
    }

    /// What a task runs: one chunk's iterations in order, their bytes
    /// concatenated, their work summed. Given a version `v` of the job's
    /// [`ConcurrentVersionedMemory`], an `accumulating` chunk threads its
    /// slots through `v` with `read`/`write` alone, a pure function of the
    /// iterations and the values read, so a squash-and-replay reproduces
    /// the sequential result; given none it is the sequential oracle.
    fn run(
        &self,
        iters: Range<u64>,
        mem: Option<(VersionId, &ConcurrentVersionedMemory)>,
    ) -> (Vec<u8>, u64) {
        let (trace, runner) = self.recorded();
        let (mut out, work) = self.tail.emit(&**runner, iters.clone());
        if self.at_commit() {
            return (out, work);
        }
        let slots = self.tail.slots;
        let mut state: Vec<u64> = match mem {
            Some((v, m)) => (0..slots as u64).map(|s| m.read(v, Addr(s))).collect(),
            None if iters.start == 0 || slots == 0 => vec![0; slots],
            None => self.prefix.get_or_init(|| {
                let (mut table, mut state) = (Vec::new(), vec![0; slots]);
                runner.run(0..trace.len() as u64, &mut |bytes, _| {
                    let i = (table.len() / slots) as u64;
                    table.extend_from_slice(&state);
                    (self.tail.fold)(i, bytes, &mut state);
                });
                table
            })[iters.start as usize * slots..][..slots]
                .to_vec(),
        };
        let len = (iters.end - iters.start) as usize;
        self.tail.fold(
            iters.start,
            &mut out,
            &mut state,
            &mut Vec::with_capacity(len),
        );
        if let Some((v, m)) = mem {
            for (s, val) in state.iter().enumerate() {
                m.write(v, Addr(s as u64), *val);
            }
        }
        (out, work)
    }
}

impl VersionedJob {
    /// Packages a loop whose iterations are individually pure with
    /// `slots` loop-carried accumulators threaded through versioned
    /// memory at `Addr(0) .. Addr(slots)`: the substrate's own test, every
    /// pair of consecutive chunks a true dependence.
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
    /// The oracle folds the same way from the slot values before its
    /// range — zeros at iteration 0, else a table built by one pass over
    /// the whole loop the first time a range starts mid-loop (the
    /// fallback's, a replay's) — so body/oracle agreement, which makes
    /// versioned output byte-identical to [`VersionedJob::sequential`],
    /// holds for any `fold`. Construction runs no iteration.
    pub fn accumulating(
        trace: IterationTrace,
        runner: impl RangeRunner,
        slots: usize,
        fold: impl Fn(u64, &[u8], &mut [u64]) + Send + Sync + 'static,
    ) -> Self {
        let recorded = (trace, Box::new(runner) as Box<dyn RangeRunner>);
        let tail = Tail {
            slots,
            fold: Box::new(fold),
        };
        Self::new(OnceLock::from(recorded), None, Arc::new(tail))
    }

    /// A kernel's job: [`accumulating`](VersionedJob::accumulating)'s
    /// records and bytes, with the tail in serial phase C (§3.2). A chunk
    /// runs its range and emits its records with their tails empty,
    /// touching no substrate address, and the commit folds them in order
    /// on the slot values every earlier task left, outside any version.
    /// So no chunk conflicts with another on the tail, and the oracle a
    /// fallback or a replay runs mid-loop needs no slot values before its
    /// range. Construction runs no iteration.
    pub(crate) fn recording(kernel: KernelLoop) -> Self {
        let tail = Arc::clone(&kernel.tail);
        Self::new(OnceLock::new(), Some(kernel), tail)
    }

    fn new(recorded: OnceLock<Recorded>, kernel: Option<KernelLoop>, tail: Arc<Tail>) -> Self {
        let body = Body {
            recorded,
            kernel,
            tail,
            prefix: OnceLock::new(),
        };
        Self {
            body: Arc::new(body),
            iteration_ns: Arc::default(),
        }
    }

    /// The recorded trace, one record per iteration whatever the grain:
    /// what the simulator's per-iteration figures and the tuner read.
    /// The graph a run executes is built from this trace
    /// [`chunked`](IterationTrace::chunked) by
    /// [`grain`](VersionedJob::grain), and is [`JobSpec::graph`]. A
    /// kernel job nothing has run records it with a sequential run.
    pub fn trace(&self) -> &IterationTrace {
        if self.body.recorded.get().is_none() {
            self.sequential();
        }
        &self.body.recorded().0
    }

    /// Number of loop iterations.
    pub fn len(&self) -> usize {
        self.trace().len()
    }

    /// Whether the job has no iterations.
    pub fn is_empty(&self) -> bool {
        self.trace().is_empty()
    }

    /// Runs every iteration in order on the calling thread through the
    /// sequential oracle, its tail folded — the reference against which
    /// versioned native output must be byte-identical. The job's first
    /// run sets its clock; a kernel job's first run is its one pass, which
    /// also records the trace and the restore points, untimed.
    pub fn sequential(&self) -> SequentialRun {
        let mut first = None;
        if let Some(kernel) = &self.body.kernel {
            self.body.recorded.get_or_init(|| {
                let (trace, kept) = (kernel.pass)(true);
                let (runner, output, work, clocked) = kept.expect("a job's pass keeps its run");
                first = Some((output, work, clocked));
                (trace, runner)
            });
        }
        let n = self.len();
        let started = Instant::now();
        let (mut output, work, clocked) = first.unwrap_or_else(|| {
            let (output, work) = self.body.run(0..n as u64, None);
            (output, work, Duration::ZERO)
        });
        if self.body.at_commit() {
            let tail = &self.body.tail;
            tail.fold(0, &mut output, &mut vec![0; tail.slots], &mut Vec::new());
        }
        let wall = clocked + started.elapsed();
        let ns = (wall.as_nanos() / n.max(1) as u128) as u64;
        let _ = self.iteration_ns.set(ns);
        SequentialRun { output, work, wall }
    }

    /// What the first sequential run's clock read, running one if none has.
    fn clock(&self) -> u64 {
        if self.iteration_ns.get().is_none() {
            self.sequential();
        }
        *self
            .iteration_ns
            .get()
            .expect("a sequential run sets the clock")
    }

    /// Runs the job on real threads under `plan`, every attempt inside
    /// its own version of a fresh [`ConcurrentVersionedMemory`] — the
    /// one-shot convenience: an [`Engine`] sized by
    /// [`EngineConfig::for_plan`], dropped on return. Returns the report
    /// (whose [`mem`](NativeReport::mem) field carries the substrate
    /// counters) together with the memory itself, so callers can inspect
    /// what the run committed there. Callers that run more than one job
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
    /// the iteration time of the job's first sequential run (run here if
    /// none has) — long enough that
    /// the executor's per-task cost (0.3–1.0 µs) is ≤ 3 % of it — and
    /// leaves every seat of the plan's widest stage at least 8 tasks;
    /// 1 when a single iteration already outlasts the target or the loop
    /// is too short to share out. A pure function of the job's clock and
    /// the plan, and a power of two so that ordinary timing wobble between
    /// two constructions of one job seldom changes the graph.
    pub fn grain(&self, plan: &ExecutionPlan) -> usize {
        let cap = self.len() / (TASKS_PER_SEAT * widest_stage(plan).max(1));
        let wanted = GRAIN_TARGET_NS / self.clock().max(1);
        let k = wanted.min(cap as u64).max(1);
        1 << k.ilog2()
    }

    /// Packages the job as a submittable unit for an [`Engine`], with a
    /// fresh private substrate. Returns the spec and the substrate
    /// handle so the caller can inspect what the run committed there
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
    /// sequential twin over the same iterations. A job that folds its
    /// tail at commit folds it in [`NativeBody::commit`], from zeros at
    /// iteration 0: the spec's body owns the run's slot values.
    pub fn job_spec(
        &self,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> (JobSpec, Arc<ConcurrentVersionedMemory>) {
        let (spec, mem, _) = self.job_spec_at(self.grain(plan), plan, config);
        (spec, mem)
    }

    /// [`job_spec`](VersionedJob::job_spec) with the grain given, not
    /// measured: the one place a graph and a task body are built. Also
    /// returns the slot values the run's commits fold, for inspection.
    fn job_spec_at(
        &self,
        k: usize,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> (
        JobSpec,
        Arc<ConcurrentVersionedMemory>,
        Arc<Mutex<Committed>>,
    ) {
        let chunks = self.trace().chunked(k);
        let graph = Arc::new(if plan.stage_count() == 1 {
            chunks.tls_task_graph()
        } else {
            chunks.task_graph()
        });
        let mem = Arc::new(ConcurrentVersionedMemory::new());
        let folded = self.body.tail.slots * usize::from(self.body.at_commit());
        let committed = Arc::new(Mutex::new(Committed {
            state: vec![0; folded],
            tails: Vec::new(),
        }));
        let tasks = ChunkTasks {
            emit_stage: if graph.stage_count() == 1 { 0 } else { 1 },
            graph: Arc::clone(&graph),
            body: Arc::clone(&self.body),
            k: k as u64,
            n: self.len() as u64,
            committed: Arc::clone(&committed),
        };
        let spec = JobSpec {
            graph,
            plan: Arc::new(plan.clone()),
            body: Arc::new(tasks),
            mem: Some(Arc::clone(&mem)),
            config,
        };
        (spec, mem, committed)
    }
}

/// The task body of one run at grain `k`: a transform task runs its
/// chunk, and, when the job folds its tail at commit, its commit folds
/// the chunk's records on the slot values of the run.
struct ChunkTasks {
    graph: Arc<TaskGraph>,
    body: Arc<Body>,
    emit_stage: u8,
    k: u64,
    n: u64,
    committed: Arc<Mutex<Committed>>,
}

impl NativeBody for ChunkTasks {
    fn run(&self, task: TaskId, ctx: &TaskCtx<'_>) -> TaskOutput {
        if ctx.stage.0 != self.emit_stage {
            return TaskOutput::empty();
        }
        let iters = ctx.iter * self.k..self.n.min((ctx.iter + 1) * self.k);
        let version = ctx.mem.map(|m| (VersionId(u64::from(task.0)), m));
        let (bytes, work) = self.body.run(iters, version);
        TaskOutput { bytes, work }
    }

    fn commit(&self, task: TaskId, bytes: &mut [u8]) {
        let t = self.graph.task(task);
        if !self.body.at_commit() || t.stage.0 != self.emit_stage {
            return;
        }
        let first = t.iter * self.k;
        let mut c = self.committed.lock().expect("a fold does not panic");
        let Committed { state, tails } = &mut *c;
        if first == 0 {
            state.fill(0);
        }
        self.body.tail.fold(first, bytes, state, tails);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_workloads, InputSize};
    use seqpar::IterationRecord;
    use seqpar_runtime::{FaultKind, FaultPlan};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    thread_local! {
        /// Set while a test runs passes that keep every restore point.
        pub(super) static EVERY_POINT: Cell<bool> = const { Cell::new(false) };
        /// Kernel steps run on this thread.
        pub(super) static STEPS: Cell<u64> = const { Cell::new(0) };
        /// Restore points kept on this thread.
        pub(super) static POINTS: Cell<u64> = const { Cell::new(0) };
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

    /// Every job keeps no more checksum slots than this.
    const SLOTS: usize = 8;

    /// The slot values a run left: committed to the substrate by an
    /// `accumulating` job, folded by the commit tail of one that folds at
    /// commit — which writes no slot, and no substrate address at all.
    fn slots(job: &VersionedJob, mem: &ConcurrentVersionedMemory, folded: &[u64]) -> Vec<u64> {
        let mut slots: Vec<u64> = (0..SLOTS as u64)
            .map(|s| mem.committed(Addr(s)).unwrap_or(0))
            .collect();
        if job.body.at_commit() {
            assert_eq!(mem.stats().writes, 0, "a chunk writes no slot");
            slots[..folded.len()].copy_from_slice(folded);
        }
        slots
    }

    /// What the sequential loop leaves: the versioned body run one
    /// iteration per version, each committed before the next begins and
    /// its tail folded then. Its records are the oracle's, which pins
    /// body/oracle agreement on the way.
    fn sequential_slots(id: &str, job: &VersionedJob) -> Vec<u64> {
        let mem = ConcurrentVersionedMemory::new();
        let (tail, at_commit) = (&job.body.tail, job.body.at_commit());
        let mut c = Committed {
            state: vec![0; if at_commit { tail.slots } else { 0 }],
            tails: Vec::new(),
        };
        for i in 0..job.len() as u64 {
            let v = VersionId(i);
            mem.begin(v);
            let (mut versioned, work) = job.body.run(i..i + 1, Some((v, &mem)));
            assert_eq!(
                (versioned.clone(), work),
                job.body.run(i..i + 1, None),
                "{id} @ {i}"
            );
            mem.try_commit(v).expect("nothing runs beside it");
            if at_commit {
                tail.fold(i, &mut versioned, &mut c.state, &mut c.tails);
            }
        }
        slots(job, &mem, &c.state)
    }

    impl VersionedJob {
        /// Oracle chunks that cover the loop in order, concatenated and,
        /// if the job folds its tail at commit, folded as the commits
        /// would: the sequential stream.
        fn folded<'a>(&self, chunks: impl Iterator<Item = &'a Vec<u8>>) -> Vec<u8> {
            let mut output: Vec<u8> = chunks.flatten().copied().collect();
            if self.body.at_commit() {
                let tail = &self.body.tail;
                tail.fold(0, &mut output, &mut vec![0; tail.slots], &mut Vec::new());
            }
            output
        }

        /// The stride of the job's restore points, recorded if need be.
        fn restore_stride(&self) -> u64 {
            self.trace();
            self.body.recorded.get().expect("recorded").1.stride()
        }
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
            let (mut spec, mem, committed) = job.job_spec_at(k, plan, config);
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
            // substrate alone; every commit folds a tail that folds there.
            let folded = &committed.lock().expect("no fold panics").state;
            if !mode.replay && !report.fallback_activated {
                assert_eq!(slots(job, &mem, folded), self.slots, "{what}: memory");
                assert_eq!(mem.active_count(), 0, "{what}: version left open");
            } else if job.body.at_commit() {
                assert_eq!(slots(job, &mem, folded), self.slots, "{what}: folded");
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

    /// A kernel's job records its trace on the same steps that
    /// [`Workload::trace`](crate::Workload::trace) runs: the job the
    /// executor runs and the trace the simulator schedules describe one
    /// run.
    fn jobs_carry_their_workload_traces(size: InputSize) {
        for w in all_workloads() {
            let job = w.versioned_job(size);
            assert_eq!(job.trace(), &w.trace(size), "{}", w.meta().spec_id);
        }
    }

    #[test]
    fn every_kernels_job_carries_its_workload_trace() {
        jobs_carry_their_workload_traces(InputSize::Test);
    }

    /// The same at `Train`; CI runs it in release.
    #[test]
    #[ignore = "Train size; CI runs it in release with the Train pins"]
    fn every_kernels_job_carries_its_workload_trace_at_train() {
        jobs_carry_their_workload_traces(InputSize::Train);
    }

    /// A job identical to `job` but for its clock, a fresh one that read
    /// `iteration_ns`.
    fn measured_at(job: &VersionedJob, iteration_ns: u64) -> VersionedJob {
        VersionedJob {
            iteration_ns: Arc::new(OnceLock::from(iteration_ns)),
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

    /// The first sequential run reads the clock: 64 short iterations
    /// chunk by 8 under `tls(1)`, the same 64 made to outlast the target
    /// do not.
    #[test]
    fn the_first_sequential_run_is_the_clock() {
        let build = |compute: fn(u64) -> (Vec<u8>, u64)| {
            let trace = (0..64).map(|_| IterationRecord::new(1, 1, 1));
            let job = VersionedJob::accumulating(trace.collect(), compute, 0, |_, _, _| {});
            let seq = job.sequential();
            let per_iteration = (seq.wall.as_nanos() / 64) as u64;
            assert_eq!(job.iteration_ns.get(), Some(&per_iteration));
            job
        };
        let slow = |i: u64| {
            std::thread::sleep(Duration::from_nanos(GRAIN_TARGET_NS));
            (vec![i as u8], 1)
        };
        let fast = |i: u64| (vec![i as u8], 1);
        let plan = ExecutionPlan::tls(1);
        assert_eq!(build(slow).grain(&plan), 1);
        assert!(build(slow).clock() >= GRAIN_TARGET_NS);
        // A sleep is never short; a short run can be preempted into a
        // long one, so the fast side gets three jobs to be fast.
        assert_eq!((0..3).map(|_| build(fast).grain(&plan)).max(), Some(8));
    }

    /// The order-sensitive two-slot tail of [`counted`] and [`Counted`].
    fn fold_counted(i: u64, bytes: &[u8], state: &mut [u64]) {
        state[0] = state[0].wrapping_mul(31).wrapping_add(u64::from(bytes[0]));
        state[1] += i;
    }

    /// An `accumulating` loop of `n` one-byte iterations, and a counter
    /// of the iterations it ran.
    fn counted(n: u64) -> (VersionedJob, Arc<AtomicU64>) {
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        let trace = (0..n).map(|_| IterationRecord::new(1, 1, 1)).collect();
        let compute = move |i: u64| {
            r.fetch_add(1, Relaxed);
            (vec![i as u8], 1)
        };
        (
            VersionedJob::accumulating(trace, compute, 2, fold_counted),
            ran,
        )
    }

    /// [`counted`]'s loop described as a kernel, its tail folded at
    /// commit, counting the steps that were iteration 0: each full pass
    /// over the loop runs one.
    struct Counted {
        n: u64,
        zeros: Arc<AtomicU64>,
    }

    impl Kernel for Counted {
        type State = ();
        type Point = ();
        type Seen = ();
        type Book = ();
        const SLOTS: usize = 2;

        fn start(&self) {}

        fn step(&self, _: &mut (), i: u64) -> Option<(Vec<u8>, u64, ())> {
            self.zeros.fetch_add(u64::from(i == 0), Relaxed);
            (i < self.n).then(|| (vec![i as u8], 1, ()))
        }

        fn record(&self, _: &mut (), _: u64, _: u64, _: ()) -> IterationRecord {
            IterationRecord::new(1, 1, 1)
        }

        fn fold(&self, i: u64, bytes: &[u8], slots: &mut [u64]) {
            fold_counted(i, bytes, slots);
        }
    }

    /// The steps run on this thread since the last call.
    fn steps() -> u64 {
        STEPS.replace(0)
    }

    /// Building a job runs none of its loop, its first sequential run is
    /// the only one its clock needs, and a mid-loop oracle range pays one
    /// full pass for the prefix table, once — unless the job folds its
    /// tail at commit: then an oracle range runs its own iterations and
    /// no more, and a replay and a fallback from mid-loop run iteration 0
    /// once, on task 0's one attempt. The fold makes each the sequential
    /// stream. Every kernel's first sequential run is the only pass its
    /// trace, its restore points and its clock need.
    #[test]
    fn a_job_runs_its_loop_once() {
        let n = 64u64;
        let (job, ran) = counted(n);
        let ran_since = || ran.swap(0, Relaxed);
        let plan = ExecutionPlan::tls(1);
        let twin = job.clone();
        assert_eq!(ran_since(), 0, "construction");
        let seq = job.sequential();
        assert_eq!(ran_since(), n, "sequential");
        let k = job.grain(&plan);
        assert_eq!(k, twin.grain(&plan), "a clone shares the clock");
        assert_eq!(ran_since(), 0, "grain after a sequential run");
        let (fresh, ran_fresh) = counted(n);
        assert_eq!(fresh.grain(&plan), fresh.grain(&plan));
        assert_eq!(ran_fresh.load(Relaxed), n, "grain on a fresh job, twice");
        // Oracle ranges from the end backwards: the first starts mid-loop
        // and builds the table; every one folds from the state before it.
        let mut runs = Vec::new();
        let starts: Vec<u64> = (0..n).step_by(5).collect();
        for (r, &start) in starts.iter().rev().enumerate() {
            let range = start..n.min(start + 5);
            runs.push(job.body.run(range.clone(), None));
            let pass = if r == 0 { n } else { 0 };
            assert_eq!(ran_since(), pass + range.end - range.start, "{range:?}");
        }
        assert_eq!(job.folded(runs.iter().rev().map(|(b, _)| b)), seq.output);

        let zeros = Arc::new(AtomicU64::new(0));
        let z = Arc::clone(&zeros);
        let kernel = VersionedJob::recording(KernelLoop::new(Counted { n, zeros: z }));
        steps();
        let seq = kernel.sequential();
        assert_eq!((steps(), zeros.swap(0, Relaxed)), (n, 1));
        let mut runs = Vec::new();
        for &start in starts.iter().rev() {
            let range = start..n.min(start + 5);
            runs.push(kernel.body.run(range.clone(), None));
            assert_eq!(steps(), range.end - range.start, "{range:?}");
        }
        assert_eq!(kernel.folded(runs.iter().rev().map(|(b, _)| b)), seq.output);
        zeros.swap(0, Relaxed);
        let engine = Engine::new(EngineConfig::for_plan(&plan));
        let (mut replay, _, _) = kernel.job_spec_at(4, &plan, ExecConfig::default());
        replay.mem = None;
        let report = engine.run(&replay).expect("a replay runs");
        assert_eq!(report.output, seq.output, "replay");
        assert_eq!(zeros.swap(0, Relaxed), 1, "replay");
        let faults = FaultPlan::none().with_forced(3, 0, FaultKind::WorkerPanic);
        let config = ExecConfig::default()
            .with_faults(faults)
            .with_retry_budget(0);
        let (spec, mem, _) = kernel.job_spec_at(4, &plan, config);
        let report = engine.run(&spec).expect("the fallback runs");
        assert!(report.fallback_activated, "a panic at budget 0 falls back");
        assert_eq!(report.output, seq.output, "fallback");
        assert_eq!(zeros.swap(0, Relaxed), 1, "fallback");
        assert_eq!(mem.stats().reads + mem.stats().writes, 0, "no slot access");

        for w in all_workloads() {
            let id = w.meta().spec_id;
            steps();
            let job = w.versioned_job(InputSize::Test);
            let twin = job.clone();
            assert_eq!(steps(), 0, "{id}: construction");
            let seq = job.sequential();
            let n = job.len() as u64;
            assert_eq!(steps(), n, "{id}: the first sequential run");
            assert_eq!(job.trace().len(), twin.len(), "{id}");
            let _ = job.job_spec(&plan, ExecConfig::default());
            assert_eq!(job.grain(&plan), twin.grain(&plan), "{id}");
            assert_eq!(steps(), 0, "{id}: len, trace, grain and job_spec");
            POINTS.set(0);
            assert_eq!(&w.trace(InputSize::Test), job.trace(), "{id}");
            assert_eq!((steps(), POINTS.get()), (n, 0), "{id}: Workload::trace");
            let again = job.sequential();
            assert_eq!(steps(), n, "{id}: a second sequential run");
            assert_eq!((again.output, again.work), (seq.output, seq.work), "{id}");
        }
    }

    /// Formatting a job reads its clock and runs none of its loop, and
    /// formatting a kernel's job records none of it.
    #[test]
    fn formatting_a_job_runs_none_of_its_loop() {
        let (job, ran) = counted(64);
        let fresh = format!("{job:?}");
        assert!(fresh.contains("iteration_ns: None"), "{fresh}");
        assert_eq!(ran.load(Relaxed), 0, "formatting a fresh job");
        job.sequential();
        ran.swap(0, Relaxed);
        assert!(format!("{job:?}").contains("iteration_ns: Some("));
        assert_eq!(ran.load(Relaxed), 0, "formatting a measured job");
        let kernel = all_workloads()[1].versioned_job(InputSize::Test);
        steps();
        let fresh = format!("{kernel:?}");
        assert!(fresh.contains("iterations: None"), "{fresh}");
        assert!(fresh.contains("restore_stride: None"), "{fresh}");
        assert_eq!(steps(), 0, "formatting a kernel job nothing has run");
    }

    /// A loop of `n` iterations whose state is the index of the next one,
    /// kept whole as a point; the indices kept are logged. `slow` steps
    /// outlast a quarter of the grain target.
    struct Indexed {
        n: u64,
        slow: bool,
        kept: Mutex<Vec<u64>>,
    }

    impl Kernel for Indexed {
        type State = u64;
        type Point = u64;
        type Seen = ();
        type Book = ();
        const SLOTS: usize = 0;

        fn start(&self) -> u64 {
            0
        }

        fn step(&self, live: &mut u64, i: u64) -> Option<(Vec<u8>, u64, ())> {
            assert_eq!(*live, i, "the live state is the one before {i}");
            if self.slow {
                std::thread::sleep(Duration::from_nanos(GRAIN_TARGET_NS / 4));
            }
            *live += 1;
            (i < self.n).then(|| (vec![i as u8], 1, ()))
        }

        fn point(&self, live: &u64) -> Option<u64> {
            self.kept.lock().expect("no panic").push(*live);
            Some(*live)
        }

        fn restore(&self, point: &u64) -> u64 {
            *point
        }

        fn record(&self, _: &mut (), _: u64, _: u64, _: ()) -> IterationRecord {
            IterationRecord::new(1, 1, 1)
        }

        fn fold(&self, _: u64, _: &[u8], _: &mut [u64]) {}
    }

    /// Pins the rule of a job's restore points on a loop whose states are
    /// their own indices: point 0 is kept; the stride only widens, so the
    /// distance between consecutive points never shrinks; each point is a
    /// multiple of the stride in force, which is a power of two at or
    /// above its distance from the one before; and a range resumes from
    /// the latest point at or before its start.
    #[test]
    fn restore_points_keep_strided_states_and_resume_from_the_latest() {
        let pass_of = |n: u64, slow: bool| {
            let kernel = Arc::new(Indexed {
                n,
                slow,
                kept: Mutex::default(),
            });
            let (trace, kept) = pass(&kernel, true);
            assert_eq!(trace.len() as u64, n);
            let runner = kept.expect("a job's pass keeps its run").0;
            let points = kernel.kept.lock().expect("no panic").clone();
            (points, runner)
        };
        // An iteration that outlasts a quarter of the target keeps every
        // point, the state before the step that ends the loop included; a
        // cheap one widens the stride.
        let (slow, runner) = pass_of(40, true);
        assert_eq!(runner.stride(), 1);
        assert_eq!(slow, (0..=40).collect::<Vec<_>>());
        let (fast, runner) = pass_of(20_000, false);
        let stride = runner.stride();
        assert!(stride > 1, "a no-op iteration fits the quarter many times");
        assert!(stride.is_power_of_two() && stride <= GRAIN_TARGET_NS / 4);
        assert_eq!(fast[0], 0);
        let gaps: Vec<u64> = fast.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.windows(2).all(|g| g[0] <= g[1]), "{gaps:?}");
        for (&at, &gap) in fast[1..].iter().zip(&gaps) {
            assert_eq!(at % gap.next_power_of_two(), 0, "{at} after {gap}");
            assert!(gap <= stride, "{gap} > {stride}");
        }
        // The runner restores once and replays up to the range unmetered.
        for range in [0..1, 5..9, 1_000..1_003, 19_990..20_000, 7..8] {
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
            assert_eq!(dense.job.restore_stride(), 1, "{id}");
            let seq = job.sequential();
            assert_eq!((&seq.output, seq.work), (&dense.seq.output, dense.seq.work));
            let s = job.restore_stride() as usize;
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
                        .map(|&a| case.job.body.run(a..n.min(a + k as u64), None))
                        .collect();
                    let output = case.job.folded(runs.iter().rev().map(|(b, _)| b));
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
