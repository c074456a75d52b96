//! Native (real-thread) execution of workload kernels.
//!
//! A kernel describes its hot loop once, as a `Kernel` (handed out as
//! a [`KernelLoop`]).
//! [`Workload::trace`](crate::Workload::trace) is one pass of its steps
//! that keeps only the trace; a [`VersionedJob`] runs the same steps
//! **for real** on an [`Engine`]'s worker threads. A kernel job's first
//! sequential run is its one pass: it emits the bytes, reads the clock
//! and records the trace. A plan with two or more seats keeps restore
//! points, from which each chunk restores. Every record ends in a *tail*:
//! the values of the loop's checksum slots after it, folded in program
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
//! ([`JobMode::Replay`]) run.
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
    Engine, EngineConfig, ExecConfig, ExecError, ExecutionPlan, JobMode, JobSpec, NativeBody,
    NativeReport, TaskCtx, TaskGraph, TaskId, TaskOutput,
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
    /// first run, not of the record rule that writes its trace.
    pub wall: Duration,
}

/// What a job runs its loop with: `run(iters, emit)` restores the state
/// before `iters` at most once, unmetered, then runs them in order, handing
/// `emit` each one's record bytes and metered work. Any
/// `Fn(u64) -> (Vec<u8>, u64)` is a runner that restores nothing.
pub trait RangeRunner: Send + Sync + 'static {
    /// Runs `iters` in order, emitting every record.
    fn run(&self, iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64));
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

    /// What a restore point keeps of `state` ([`Resume`]). A loop that
    /// keeps none starts every range from [`start`](Kernel::start): its
    /// state holds nothing a step's bytes or work read.
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
    runs: Arc<dyn Loop>,
    tail: Arc<Tail>,
}

impl fmt::Debug for KernelLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelLoop").finish_non_exhaustive()
    }
}

impl KernelLoop {
    pub(crate) fn new<K: Kernel>(kernel: K) -> Self {
        let runs = Arc::new(Resume {
            kernel,
            points: OnceLock::new(),
            left: Mutex::new(None),
        });
        let folds = Arc::clone(&runs);
        let tail = Arc::new(Tail {
            slots: K::SLOTS,
            fold: Box::new(move |i, bytes, slots| folds.kernel.fold(i, bytes, slots)),
        });
        Self { runs, tail }
    }

    /// The loop's trace, from a pass that keeps nothing else.
    pub(crate) fn trace(&self) -> IterationTrace {
        self.runs.pass(false).0
    }
}

/// A kernel's loop, its type erased: a job's pass, points and ranges.
trait Loop: RangeRunner {
    /// Runs the loop once, recording the trace; a job's pass (`kept`) also
    /// keeps the output (as [`Tail::emit`] lays it), the work and a clock
    /// of the steps alone, not of the record rule. It keeps no point.
    fn pass(&self, kept: bool) -> (IterationTrace, Option<(Vec<u8>, u64, Duration)>);
    /// Keeps the state before every multiple of `k` as a point, walking
    /// the loop once to its end, untimed; a later call keeps nothing.
    fn keep(&self, k: u64);
    /// The kept points' stride, once kept.
    fn stride(&self) -> Option<u64>;
}

/// Runs ranges of a kernel's loop. A range that starts where the last
/// one ended (the next chunk on one seat) resumes the state it left; any
/// other restores the latest point at or before it and replays up to it,
/// unmetered. A plan with two or more seats keeps points at its grain
/// ([`Loop::keep`]), so none of its chunks replays. A one-seat plan keeps
/// none while its ranges resume; the first of its ranges past iteration 0
/// that cannot (a retry, a replay job's squashed chunk) keeps them, once,
/// at its own length, so a run that reruns every chunk walks the loop
/// once more, not once per chunk.
struct Resume<K: Kernel> {
    kernel: K,
    points: OnceLock<Points<K::Point>>,
    left: Mutex<Option<(u64, K::State)>>,
}

/// Restore points' stride, and each point after the iteration it precedes.
type Points<P> = (u64, Vec<(u64, P)>);

impl<K: Kernel> RangeRunner for Resume<K> {
    fn run(&self, iters: Range<u64>, emit: &mut dyn FnMut(&[u8], u64)) {
        let kernel = &self.kernel;
        let left = self.left.lock().expect("no panic under the lock").take();
        let (from, mut live) = match left {
            Some((end, live)) if end == iters.start => (end, live),
            _ => self.restore(&iters),
        };
        // The replay restores the range's state: its work belongs to the
        // iterations it repeats.
        for i in from..iters.start {
            step(kernel, &mut live, i);
        }
        for i in iters.clone() {
            let (bytes, work, _) = step(kernel, &mut live, i).expect("the loop runs this far");
            emit(&bytes, work);
        }
        *self.left.lock().expect("no panic under the lock") = Some((iters.end, live));
    }
}

impl<K: Kernel> Resume<K> {
    /// The latest point at or before `iters`, and the state it stands
    /// for, keeping points at the range's length first if none are kept
    /// and the range starts past iteration 0. A loop that keeps no point
    /// starts the range itself from [`Kernel::start`].
    fn restore(&self, iters: &Range<u64>) -> (u64, K::State) {
        if iters.start > 0 && self.points.get().is_none() {
            self.keep(iters.end - iters.start);
        }
        let points = self.points.get().map_or(&[][..], |(_, points)| points);
        match points.partition_point(|(i, _)| *i <= iters.start) {
            0 => (iters.start, self.kernel.start()),
            later => {
                let (i, point) = &points[later - 1];
                (*i, self.kernel.restore(point))
            }
        }
    }
}

impl<K: Kernel> Loop for Resume<K> {
    fn pass(&self, kept: bool) -> (IterationTrace, Option<(Vec<u8>, u64, Duration)>) {
        let kernel = &self.kernel;
        let (mut live, mut out, mut work) = (kernel.start(), Vec::new(), 0);
        // Each step's work and what the record rule reads of it.
        let mut seen: Vec<(u64, K::Seen)> = Vec::new();
        let started = Instant::now();
        while let Some((bytes, w, s)) = step(kernel, &mut live, seen.len() as u64) {
            if kept {
                push_record(&mut out, &bytes, K::SLOTS);
                work += w;
            }
            seen.push((w, s));
        }
        let clocked = started.elapsed();
        let (mut trace, mut book) = (IterationTrace::new(), K::Book::default());
        trace.speculative = K::SPECULATIVE;
        for (i, (w, s)) in (0..).zip(seen) {
            trace.push(kernel.record(&mut book, i, w, s));
        }
        out.shrink_to_fit();
        (trace, kept.then_some((out, work, clocked)))
    }

    fn keep(&self, k: u64) {
        self.points.get_or_init(|| {
            #[cfg(test)]
            let k = if tests::EVERY_POINT.get() { 1 } else { k };
            let (mut live, mut points) = (self.kernel.start(), Vec::new());
            for i in 0u64.. {
                let point = if i.is_multiple_of(k) {
                    match self.kernel.point(&live) {
                        None => break,
                        point => point,
                    }
                } else {
                    None
                };
                // A point taken at the loop's end precedes no iteration.
                if step(&self.kernel, &mut live, i).is_none() {
                    break;
                }
                if let Some(point) = point {
                    #[cfg(test)]
                    tests::POINTS.set(tests::POINTS.get() + 1);
                    points.push((i, point));
                }
            }
            (k, points)
        });
    }

    fn stride(&self) -> Option<u64> {
        self.points.get().map(|(k, _)| *k)
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

/// How long a task should run, at least, under a plan of two or more
/// seats (at one seat the loop is one task). A chunk pays a fixed cost
/// beside its body: the claim, the substrate's `begin` (~55 ns), the
/// publish and the frontier's turn (absorb, the check and commit of its
/// version, appending its bytes, admitting the next). Jobs of 1 to 15
/// one-iteration chunks of a tiny `accumulating` loop, run back to back
/// on one warmed engine at `tls(1)` (hot caches, 2-vCPU x86-64), read
/// ~0.4–0.7 µs a chunk with no slot, ~0.65–1.05 µs with one carried
/// slot, and ~2.2–4.5 µs a job: the slope and intercept of a line
/// through the median walls, the upper ends from a slower host band
/// minutes later. A task that reaches 32 µs outlasts that cost some 30
/// times and more: hand-off, substrate and commit are ≤ ~3 % of the
/// wall. The first plan with two or more seats keeps restore points at
/// the k this sets.
const GRAIN_TARGET_NS: u64 = 32_000;

/// Chunking never leaves a seat of a plan of two or more seats fewer
/// tasks than this: enough for the claim cursor to even out iterations
/// of unequal length across seats, and for a squash to throw away an
/// eighth of a seat's share at most. A lone seat has no one to even out
/// with and nothing that squashes it, so it takes the loop whole.
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

/// What a job runs, shared by its clones.
struct Body {
    /// The trace: given to [`accumulating`](VersionedJob::accumulating),
    /// recorded by a kernel job's first sequential run from its loop.
    trace: OnceLock<IterationTrace>,
    /// What runs the iterations: a kernel job's is its loop.
    runner: Arc<dyn RangeRunner>,
    kernel: Option<KernelLoop>,
    tail: Arc<Tail>,
    /// An `accumulating` job's slot values before each iteration, in
    /// program order: iteration i's are `prefix[i * slots..][..slots]`.
    prefix: OnceLock<Vec<u64>>,
}

impl fmt::Debug for VersionedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (trace, kernel) = (self.body.trace.get(), self.body.kernel.as_ref());
        f.debug_struct("VersionedJob")
            .field("iterations", &trace.map(IterationTrace::len))
            .field("iteration_ns", &self.iteration_ns.get())
            .field("restore_stride", &kernel.and_then(|k| k.runs.stride()))
            .field("folds_at_commit", &self.body.at_commit())
            .finish_non_exhaustive()
    }
}

impl Body {
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
        let runner = &*self.runner;
        let (mut out, work) = self.tail.emit(runner, iters.clone());
        if self.at_commit() {
            return (out, work);
        }
        let slots = self.tail.slots;
        let mut state: Vec<u64> = match mem {
            Some((v, m)) => (0..slots as u64).map(|s| m.read(v, Addr(s))).collect(),
            None if iters.start == 0 || slots == 0 => vec![0; slots],
            None => self.prefix.get_or_init(|| {
                let (mut table, mut state) = (Vec::new(), vec![0; slots]);
                let n = self.trace.get().expect("an accumulating job's trace").len();
                runner.run(0..n as u64, &mut |bytes, _| {
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
        let tail = Tail {
            slots,
            fold: Box::new(fold),
        };
        Self::new(
            OnceLock::from(trace),
            Arc::new(runner),
            None,
            Arc::new(tail),
        )
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
        let (runs, tail) = (Arc::clone(&kernel.runs), Arc::clone(&kernel.tail));
        Self::new(OnceLock::new(), runs, Some(kernel), tail)
    }

    fn new(
        trace: OnceLock<IterationTrace>,
        runner: Arc<dyn RangeRunner>,
        kernel: Option<KernelLoop>,
        tail: Arc<Tail>,
    ) -> Self {
        let body = Body {
            trace,
            runner,
            kernel,
            tail,
            prefix: OnceLock::new(),
        };
        let (body, iteration_ns) = (Arc::new(body), Arc::default());
        Self { body, iteration_ns }
    }

    /// The recorded trace, one record per iteration whatever the grain:
    /// what the simulator's per-iteration figures and the tuner read.
    /// The graph a run executes is built from this trace
    /// [`chunked`](IterationTrace::chunked) by
    /// [`grain`](VersionedJob::grain): [`graph`](VersionedJob::graph). A
    /// kernel job nothing has run records it with a sequential run.
    pub fn trace(&self) -> &IterationTrace {
        if self.body.trace.get().is_none() {
            self.sequential();
        }
        self.body
            .trace
            .get()
            .expect("a sequential run records the loop")
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
    /// also records the trace, untimed, and keeps no restore point.
    pub fn sequential(&self) -> SequentialRun {
        let mut first = None;
        if let Some(kernel) = &self.body.kernel {
            self.body.trace.get_or_init(|| {
                let (trace, kept) = kernel.runs.pass(true);
                first = kept;
                trace
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
    /// Propagates [`ExecError`] from [`Engine::run`]: a task whose body
    /// panics where no replay exists ([`ExecError::TaskFailed`]).
    ///
    /// # Panics
    ///
    /// As [`job_spec`](VersionedJob::job_spec), on a plan the engine
    /// refuses.
    pub fn execute(
        &self,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> Result<(NativeReport, Arc<ConcurrentVersionedMemory>), ExecError> {
        let (spec, mem) = self.job_spec(plan, config);
        let report = Engine::new(EngineConfig::for_plan(plan)).run(&spec)?;
        Ok((report, mem))
    }

    /// How many consecutive iterations make one task under `plan`.
    ///
    /// One seat: the loop is one task, `k = len()`. The seat has nothing
    /// to balance against, nothing runs beside it and nothing can squash
    /// it, so every chunk after the first would only pay the per-chunk
    /// cost again (~0.4–1 µs: claim, `begin`, publish, frontier turn).
    /// The clock is not read, so every process builds the same graph.
    ///
    /// Two or more seats: the smallest power of two whose chunk reaches
    /// ~32 µs by the iteration time of the job's first sequential run
    /// (run here if none has) — long enough that the per-chunk cost is
    /// ≤ ~3 % of it — unless that leaves a seat of the plan fewer than 8
    /// tasks, when it is the largest power of two that leaves each 8;
    /// 1 when a single iteration already reaches the target or the loop
    /// is too short to share out. A pure function of the job's clock and
    /// the plan, and a power of two so that ordinary timing wobble between
    /// two constructions of one job seldom changes the graph.
    ///
    /// # Panics
    ///
    /// As [`job_spec`](VersionedJob::job_spec), on a plan the engine
    /// refuses.
    pub fn grain(&self, plan: &ExecutionPlan) -> usize {
        let seats = seats(plan).get();
        if seats <= 1 {
            return self.len().max(1);
        }
        let cap = self.len() / (TASKS_PER_SEAT * seats);
        let reaches = GRAIN_TARGET_NS.div_ceil(self.clock().max(1));
        (reaches.next_power_of_two() as usize).min(1 << cap.max(1).ilog2())
    }

    /// The task graph a run under `plan` executes: the trace
    /// [`chunked`](IterationTrace::chunked) by
    /// [`grain`](VersionedJob::grain)`(plan)`, in TLS form. Whatever
    /// compares a run with a simulation task by task simulates this, not
    /// a graph of [`trace`](VersionedJob::trace); its recorded
    /// speculation is a replay's table
    /// ([`SpecRecord::table`](seqpar_runtime::SpecRecord::table)).
    pub fn graph(&self, plan: &ExecutionPlan) -> TaskGraph {
        self.trace().chunked(self.grain(plan)).tls_task_graph()
    }

    /// Packages the job as a submittable unit for an [`Engine`], with a
    /// fresh private substrate. Returns the spec and the substrate
    /// handle so the caller can inspect what the run committed there
    /// after the job's report arrives.
    ///
    /// A task is a chunk of [`grain`](VersionedJob::grain)`(plan)`
    /// consecutive iterations (the last chunk may be shorter) — task `i`
    /// runs iterations `i * k ..` — and the spec's seats are the plan's
    /// ([`ExecutionPlan::seats`]). A task runs its chunk's iterations in
    /// order inside its one version and emits their records back to back,
    /// so the committed stream is the sequential one at any grain. Oracle
    /// and fallback attempts see [`TaskCtx::mem`]` == None` and run the
    /// sequential twin over the same iterations. A job that folds its
    /// tail at commit folds it in [`NativeBody::commit`], from zeros at
    /// iteration 0: the spec's body owns the run's slot values.
    ///
    /// # Panics
    ///
    /// With the refusal's text, on a plan the engine refuses: more than
    /// one stage, a round-robin stage, or an empty pool.
    pub fn job_spec(
        &self,
        plan: &ExecutionPlan,
        config: ExecConfig,
    ) -> (JobSpec, Arc<ConcurrentVersionedMemory>) {
        let (spec, mem, _) = self.job_spec_at(self.grain(plan), plan, config);
        (spec, mem)
    }

    /// [`job_spec`](VersionedJob::job_spec) with the grain given, not
    /// measured: the one place a task body is built. Also returns the
    /// slot values the run's commits fold, for inspection. The first
    /// call whose plan has two or more seats keeps a kernel job's
    /// restore points, at `k`: one seat resumes instead.
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
        let seats = seats(plan);
        if let Some(kernel) = self.body.kernel.as_ref().filter(|_| seats.get() > 1) {
            kernel.runs.keep(k as u64);
        }
        let mem = Arc::new(ConcurrentVersionedMemory::new());
        let folded = self.body.tail.slots * usize::from(self.body.at_commit());
        let committed = Arc::new(Mutex::new(Committed {
            state: vec![0; folded],
            tails: Vec::new(),
        }));
        let tasks = ChunkTasks {
            body: Arc::clone(&self.body),
            k: k as u64,
            n: self.len() as u64,
            committed: Arc::clone(&committed),
        };
        let spec = JobSpec {
            tasks: self.len().div_ceil(k),
            seats,
            body: Arc::new(tasks),
            mode: JobMode::Versioned(Arc::clone(&mem)),
            config,
        };
        (spec, mem, committed)
    }
}

/// The seats the engine gives `plan`.
///
/// # Panics
///
/// With the refusal's text, on a plan the engine refuses.
fn seats(plan: &ExecutionPlan) -> std::num::NonZeroUsize {
    plan.seats().unwrap_or_else(|refusal| panic!("{refusal}"))
}

/// The task body of one run at grain `k`: a task runs its chunk, and,
/// when the job folds its tail at commit, its commit folds the chunk's
/// records on the slot values of the run — the paper's serial phase C.
struct ChunkTasks {
    body: Arc<Body>,
    k: u64,
    n: u64,
    committed: Arc<Mutex<Committed>>,
}

impl NativeBody for ChunkTasks {
    fn run(&self, task: TaskId, ctx: &TaskCtx<'_>) -> TaskOutput {
        let first = u64::from(task.0) * self.k;
        let iters = first..self.n.min(first + self.k);
        let version = ctx.mem.map(|m| (VersionId(u64::from(task.0)), m));
        let (bytes, work) = self.body.run(iters, version);
        TaskOutput { bytes, work }
    }

    fn commit(&self, task: TaskId, bytes: &mut [u8]) {
        if !self.body.at_commit() {
            return;
        }
        let first = u64::from(task.0) * self.k;
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
    use seqpar_runtime::{FaultKind, FaultPlan, SpecRecord, StageAssignment};
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
    /// body/oracle agreement on the way: the oracle runs in a pass of its
    /// own, so that each of its ranges resumes the one before.
    fn sequential_slots(id: &str, job: &VersionedJob) -> Vec<u64> {
        let mem = ConcurrentVersionedMemory::new();
        let (tail, at_commit) = (&job.body.tail, job.body.at_commit());
        let mut c = Committed {
            state: vec![0; if at_commit { tail.slots } else { 0 }],
            tails: Vec::new(),
        };
        let mut records = Vec::new();
        for i in 0..job.len() as u64 {
            let v = VersionId(i);
            mem.begin(v);
            let (mut versioned, work) = job.body.run(i..i + 1, Some((v, &mem)));
            records.push((versioned.clone(), work));
            mem.try_commit(v).expect("nothing runs beside it");
            if at_commit {
                tail.fold(i, &mut versioned, &mut c.state, &mut c.tails);
            }
        }
        for (i, record) in (0..).zip(records) {
            assert_eq!(record, job.body.run(i..i + 1, None), "{id} @ {i}");
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

        /// The stride of a kernel job's restore points, once kept.
        fn restore_stride(&self) -> u64 {
            let kernel = self.body.kernel.as_ref().expect("a kernel's job");
            kernel.runs.stride().expect("the points are kept")
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
            let what = format!("{id}: k = {k}, {} seat(s), {mode:?}", seats(plan));
            let faults = if mode.chaos {
                FaultPlan::seeded(7)
            } else {
                FaultPlan::none()
            };
            let config = ExecConfig::default().with_faults(faults);
            let (mut spec, mem, committed) = job.job_spec_at(k, plan, config);
            if mode.replay {
                let graph = job.trace().chunked(k).tls_task_graph();
                spec.mode = JobMode::Replay(SpecRecord::table(&graph));
            }
            assert_eq!(spec.tasks, job.len().div_ceil(k), "{what}");
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

    /// Conflict-driven or replayed (`JobMode::Replay`), fault-free
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
            ExecutionPlan::tls(2),
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

    /// Pins the rule of [`VersionedJob::grain`] under two or more seats.
    #[test]
    fn grain_is_a_stable_power_of_two_that_keeps_every_seat_fed() {
        let plans = [
            ExecutionPlan::tls(4),
            ExecutionPlan::tls(8),
            ExecutionPlan::tls(2),
            ExecutionPlan::tls(6),
        ];
        let mut all = jobs();
        let long = synthetic(8192, 2);
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
                let floor = job.len().min(TASKS_PER_SEAT * seats(plan).get());
                assert!(tasks >= floor, "{id}: {tasks} tasks of k = {k} < {floor}");
                // A chunk reaches the target unless the cap binds, and
                // only a one-iteration chunk may reach twice the target.
                let chunk_ns = k as u64 * job.clock().max(1);
                let capped = 2 * k > job.len() / (TASKS_PER_SEAT * seats(plan).get());
                assert!(chunk_ns >= GRAIN_TARGET_NS || capped, "{id}: k = {k}");
                assert!(chunk_ns < 2 * GRAIN_TARGET_NS || k == 1, "{id}: k = {k}");
                let (spec, _mem) = job.job_spec(plan, ExecConfig::default());
                assert_eq!(spec.tasks, tasks, "{id}: job_spec runs at grain");
            }
        }
        // The target binds: 32 µs of 100 ns iterations, rounded up.
        let two = ExecutionPlan::tls(2);
        let fine = measured_at(&long, 100);
        assert_eq!(fine.grain(&two), 512);
        // The cap binds: 8192 iterations over 8 × 8 tasks.
        assert_eq!(fine.grain(&ExecutionPlan::tls(8)), 128);
        // And at 6 seats: 8192 iterations over 6 × 8 tasks, rounded down.
        assert_eq!(fine.grain(&ExecutionPlan::tls(6)), 128);
        // One iteration that reaches the target is a task; one just
        // short of it takes two, and one just past half of it too.
        assert_eq!(measured_at(&long, 32_000).grain(&two), 1);
        assert_eq!(measured_at(&long, 31_999).grain(&two), 2);
        assert_eq!(measured_at(&long, 16_001).grain(&two), 2);
        assert_eq!(measured_at(&long, 16_000).grain(&two), 2);
        assert_eq!(measured_at(&long, 15_999).grain(&two), 4);
        // A loop too short to share out is not chunked.
        assert_eq!(measured_at(&synthetic(15, 2), 100).grain(&two), 1);
        assert_eq!(synthetic(0, 2).grain(&ExecutionPlan::tls(4)), 1);
    }

    /// One seat: the loop is one task, on every kernel and synthetic
    /// loop, whatever its clock read — and a serial stage is one seat.
    #[test]
    fn a_one_seat_grain_is_the_whole_loop() {
        let plans = [
            ExecutionPlan::tls(1),
            ExecutionPlan::new(vec![StageAssignment::serial(1)]),
        ];
        let mut all = jobs();
        for n in [1, 15, 4096] {
            for ns in [0, 1, 100, 32_000, 1 << 40] {
                all.push((format!("{n} @ {ns} ns"), measured_at(&synthetic(n, 2), ns)));
            }
        }
        for (id, job) in &all {
            for plan in &plans {
                assert_eq!(job.grain(plan), job.len(), "{id}");
                let (spec, _mem) = job.job_spec(plan, ExecConfig::default());
                assert_eq!(spec.tasks, 1, "{id}: one task");
            }
        }
        assert_eq!(synthetic(0, 2).grain(&ExecutionPlan::tls(1)), 1);
    }

    /// The first sequential run reads the clock: 128 short iterations
    /// chunk by 8 under `tls(2)`, the same 128 made to outlast the target
    /// do not.
    #[test]
    fn the_first_sequential_run_is_the_clock() {
        let build = |compute: fn(u64) -> (Vec<u8>, u64)| {
            let trace = (0..128).map(|_| IterationRecord::new(1, 1, 1));
            let job = VersionedJob::accumulating(trace.collect(), compute, 0, |_, _, _| {});
            let seq = job.sequential();
            let per_iteration = (seq.wall.as_nanos() / 128) as u64;
            assert_eq!(job.iteration_ns.get(), Some(&per_iteration));
            job
        };
        let slow = |i: u64| {
            std::thread::sleep(Duration::from_nanos(GRAIN_TARGET_NS));
            (vec![i as u8], 1)
        };
        let fast = |i: u64| (vec![i as u8], 1);
        let plan = ExecutionPlan::tls(2);
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
    /// the only one its clock needs — a one-seat grain reads no clock, so
    /// on a fresh job it runs nothing — and a mid-loop oracle range pays one
    /// full pass for the prefix table, once — unless the job folds its
    /// tail at commit: then an oracle range runs its own iterations and
    /// no more, and a replay and a fallback from mid-loop run iteration 0
    /// once, on task 0's one attempt. The fold makes each the sequential
    /// stream. Every kernel's first sequential run is the only pass its
    /// trace and its clock need; the first plan with two seats walks a
    /// loop that keeps restore points once more, and no later plan does.
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
        let two = ExecutionPlan::tls(2);
        let k = job.grain(&two);
        assert_eq!(k, twin.grain(&two), "a clone shares the clock");
        assert_eq!(ran_since(), 0, "grain after a sequential run");
        let (fresh, ran_fresh) = counted(n);
        assert_eq!(fresh.grain(&plan), n as usize);
        assert_eq!(ran_fresh.load(Relaxed), 0, "one seat: grain reads no clock");
        assert_eq!(fresh.grain(&two), fresh.grain(&two));
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
        let graph = kernel.trace().chunked(4).tls_task_graph();
        replay.mode = JobMode::Replay(SpecRecord::table(&graph));
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
        steps();
        let _ = kernel.job_spec(&ExecutionPlan::tls(2), ExecConfig::default());
        assert_eq!(steps(), 0, "a loop that keeps no point walks none");

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
            let _ = job.job_spec(&ExecutionPlan::tls(2), ExecConfig::default());
            let walked = if RESUMED.contains(&w.meta().name) {
                n
            } else {
                0
            };
            assert_eq!(steps(), walked, "{id}: a two-seat plan's points");
            let _ = job.job_spec(&ExecutionPlan::tls(4), ExecConfig::default());
            assert_eq!(steps(), 0, "{id}: the points are kept once");
        }
    }

    /// A one-seat job is one task, and a panic on its first attempt costs
    /// one replay of the loop, not the fallback: the injected panic fires
    /// before the body runs, so the loop runs once, from iteration 0,
    /// inside a version, and commits the sequential bytes — on every
    /// kernel, and on a loop that counts its passes.
    #[test]
    fn a_one_task_job_replays_its_loop_once_after_a_panic() {
        let plan = ExecutionPlan::tls(1);
        let engine = Engine::new(EngineConfig::for_plan(&plan));
        let faults = FaultPlan::none().with_forced(0, 0, FaultKind::WorkerPanic);
        let config = ExecConfig::default().with_faults(faults);
        let zeros = Arc::new(AtomicU64::new(0));
        let z = Arc::clone(&zeros);
        let counted = VersionedJob::recording(KernelLoop::new(Counted { n: 64, zeros: z }));
        let mut all = vec![("counted".to_string(), counted)];
        all.extend(all_workloads().iter().map(|w| {
            let id = w.meta().spec_id.to_string();
            (id, w.versioned_job(InputSize::Test))
        }));
        for (id, job) in all {
            let seq = job.sequential();
            let (spec, mem) = job.job_spec(&plan, config.clone());
            assert_eq!(spec.tasks, 1, "{id}: one task");
            zeros.store(0, Relaxed);
            steps();
            let report = engine.run(&spec).expect("a replay commits the task");
            assert_eq!(report.output, seq.output, "{id}: bytes");
            assert_eq!(report.work, seq.work, "{id}: work");
            assert_eq!((report.tasks_committed, report.attempts), (1, 2), "{id}");
            assert_eq!(report.recovery.panics_recovered, 1, "{id}");
            assert!(!report.fallback_activated, "{id}: replayed, no fallback");
            assert_eq!(mem.active_count(), 0, "{id}: version left open");
            assert_eq!(steps(), job.len() as u64, "{id}: the loop runs once");
            let passes = u64::from(id == "counted");
            assert_eq!(zeros.load(Relaxed), passes, "{id}: from iteration 0");
        }
    }

    /// Formatting a job reads its clock and runs none of its loop, and
    /// formatting a kernel's job records none of it: it prints the stride
    /// of the restore points a two-seat plan kept, and none before.
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
        let _ = kernel.job_spec(&ExecutionPlan::tls(1), ExecConfig::default());
        steps();
        let one = format!("{kernel:?}");
        assert!(one.contains("iterations: Some("), "{one}");
        assert!(one.contains("restore_stride: None"), "{one}: one seat");
        let two = ExecutionPlan::tls(2);
        let _ = kernel.job_spec(&two, ExecConfig::default());
        steps();
        let kept = format!("{kernel:?}");
        let stride = format!("restore_stride: Some({})", kernel.grain(&two));
        assert!(kept.contains(&stride), "{kept}");
        assert_eq!(steps(), 0, "formatting a kernel job that has run");
    }

    /// A loop of `n` iterations whose state is the index of the next one,
    /// kept whole as a point.
    struct Indexed {
        n: u64,
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
            *live += 1;
            (i < self.n).then(|| (vec![i as u8], 1, ()))
        }

        fn point(&self, live: &u64) -> Option<u64> {
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

    /// `Indexed { n }`'s ranges, nothing kept yet.
    fn indexed(n: u64) -> Resume<Indexed> {
        Resume {
            kernel: Indexed { n },
            points: OnceLock::new(),
            left: Mutex::new(None),
        }
    }

    /// Pins the rule of a job's restore points on a loop whose states are
    /// their own indices: the pass keeps none; a walk at `k` keeps the
    /// state before every multiple of `k` to the loop's end, in one pass,
    /// and a second walk keeps nothing; a range resumes the state the
    /// last one left, or else restores the latest point at or before its
    /// start and replays up to it unmetered. While no point is kept, a
    /// range from iteration 0 starts the loop, and one past it first
    /// keeps points at its own length.
    #[test]
    fn restore_points_keep_strided_states_and_resume_from_the_latest() {
        let n = 100;
        let runs = indexed(n);
        let (trace, kept) = runs.pass(true);
        assert_eq!(trace.len() as u64, n);
        assert!(
            kept.is_some() && runs.stride().is_none(),
            "a pass keeps none"
        );
        // Each range's steps, replay and walk included.
        let run = |runs: &Resume<Indexed>, range: Range<u64>| {
            steps();
            let (mut bytes, mut work) = (Vec::new(), 0);
            runs.run(range.clone(), &mut |b, w| {
                bytes.extend_from_slice(b);
                work += w;
            });
            let expected: Vec<u8> = range.clone().map(|i| i as u8).collect();
            assert_eq!((bytes, work), (expected, range.end - range.start));
            steps()
        };
        assert_eq!(run(&runs, 0..5), 5, "no point: the loop's start");
        assert_eq!(runs.stride(), None, "a range from 0 keeps none");
        assert_eq!(run(&runs, 40..45), n + 5, "no point: one walk, then 40");
        assert_eq!(runs.stride(), Some(5), "kept at the range's length");
        assert_eq!(run(&runs, 45..50), 5, "resumed");
        assert_eq!(run(&runs, 42..44), 4, "replayed from 40");
        let runs = indexed(n);
        steps();
        runs.keep(8);
        assert_eq!((runs.stride(), steps()), (Some(8), n), "one walk");
        runs.keep(4);
        assert_eq!((runs.stride(), steps()), (Some(8), 0), "kept once");
        let points = &runs.points.get().expect("kept").1;
        let every_eighth: Vec<(u64, u64)> = (0..n).step_by(8).map(|i| (i, i)).collect();
        assert_eq!(points, &every_eighth);
        for (range, replayed) in [(0..1, 0), (40..48, 0), (5..9, 5), (99..100, 3), (7..8, 7)] {
            assert_eq!(
                run(&runs, range.clone()),
                range.end - range.start + replayed
            );
        }
        assert_eq!(run(&runs, 8..16), 8, "resumed");
    }

    /// A one-seat run that reruns every chunk — a replay job whose every
    /// chunk is squashed and run again — walks the loop once to keep
    /// points at the chunk's length and then takes each range's own
    /// steps: linear in the loop, where replaying every rerun from the
    /// loop's start was quadratic.
    #[test]
    fn rerunning_every_chunk_walks_the_loop_once() {
        let (n, k) = (1_000, 8);
        let runs = indexed(n);
        steps();
        for start in (0..n).step_by(k as usize) {
            for _ in 0..2 {
                runs.run(start..n.min(start + k), &mut |_, _| {});
            }
        }
        assert_eq!(steps(), 3 * n, "two runs of every range and one walk");
        assert_eq!(runs.stride(), Some(k));
    }

    /// The kernels that resume their loop from restore points.
    const RESUMED: [&str; 6] = ["vpr", "twolf", "vortex", "gap", "perlbmk", "mcf"];

    /// A job whose two-seat plan kept every restore point and the default
    /// sparse job, whose plan kept them at its grain, run the same loop:
    /// the same sequential bytes and work, and at grains below, at and
    /// above the sparse stride — below it a chunk replays — the same
    /// committed bytes, work and slots, fault-free and under
    /// `FaultPlan::seeded(7)`. `every_mode` runs each grain in both
    /// modes; otherwise the modes alternate from grain to grain. Two seats
    /// on two runners, so chunks restore; the substrate's races are
    /// [`every_grain_full_matrix`]'s.
    fn sparse_points_commit_what_every_point_does(size: InputSize, every_mode: bool) {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let plan = ExecutionPlan::tls(2);
        for w in all_workloads() {
            if !RESUMED.contains(&w.meta().name) {
                continue;
            }
            let id = w.meta().spec_id.to_string();
            let dense = Case::new(format!("{id} (every point)"), w.versioned_job(size));
            EVERY_POINT.set(true);
            let _ = dense.job.job_spec(&plan, ExecConfig::default());
            EVERY_POINT.set(false);
            let job = w.versioned_job(size);
            let seq = job.sequential();
            assert_eq!((&seq.output, seq.work), (&dense.seq.output, dense.seq.work));
            let _ = job.job_spec(&plan, ExecConfig::default());
            assert_eq!(dense.job.restore_stride(), 1, "{id}");
            let s = job.restore_stride() as usize;
            assert_eq!(s, job.grain(&plan), "{id}: kept at the plan's grain");
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
                    // Run backwards, every chunk restores from its latest
                    // point, and one below the stride replays.
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

    /// One-seat plans keep no restore point: not the first sequential
    /// run, not `job_spec` at `tls(1)` or at a serial stage on core 1,
    /// not an engine run of either. The first `tls(2)`
    /// `job_spec` keeps a loop's points in one walk of its `n` steps, at
    /// that plan's grain `k`, and no later plan walks again. Run
    /// backwards, so that no chunk resumes, each chunk at `k` then takes
    /// exactly its own steps: none replays.
    fn only_a_plan_with_two_seats_keeps_points(size: InputSize) {
        let engine = Engine::new(EngineConfig::with_workers(1));
        for w in all_workloads() {
            let id = w.meta().spec_id;
            let job = w.versioned_job(size);
            POINTS.set(0);
            let seq = job.sequential();
            let serial = ExecutionPlan::new(vec![StageAssignment::serial(1)]);
            for plan in [ExecutionPlan::tls(1), serial] {
                let (spec, _) = job.job_spec(&plan, ExecConfig::default());
                let report = engine.run(&spec).expect("a fault-free run");
                assert_eq!(report.output, seq.output, "{id}");
            }
            assert_eq!(POINTS.get(), 0, "{id}: one seat");
            let (n, two) = (job.len() as u64, ExecutionPlan::tls(2));
            let k = job.grain(&two) as u64;
            steps();
            let _ = job.job_spec(&two, ExecConfig::default());
            let keeps = RESUMED.contains(&w.meta().name);
            let walk = if keeps { (n, n.div_ceil(k)) } else { (0, 0) };
            assert_eq!((steps(), POINTS.replace(0)), walk, "{id}: k = {k}");
            for plan in [two, ExecutionPlan::tls(4)] {
                let _ = job.job_spec(&plan, ExecConfig::default());
            }
            assert_eq!((steps(), POINTS.get()), (0, 0), "{id}: kept once");
            let starts: Vec<u64> = (0..n).step_by(k as usize).collect();
            let mut runs = Vec::new();
            for &start in starts.iter().rev() {
                let range = start..n.min(start + k);
                runs.push(job.body.run(range.clone(), None));
                assert_eq!(steps(), range.end - range.start, "{id}: {range:?}");
            }
            assert_eq!(job.folded(runs.iter().rev().map(|(b, _)| b)), seq.output);
        }
    }

    #[test]
    fn only_a_plan_with_two_seats_keeps_restore_points() {
        only_a_plan_with_two_seats_keeps_points(InputSize::Test);
    }

    /// The same at `Train`, the rig's size; CI runs it in release.
    #[test]
    #[ignore = "Train size; CI runs it in release with the Train pins"]
    fn only_a_plan_with_two_seats_keeps_restore_points_at_train() {
        only_a_plan_with_two_seats_keeps_points(InputSize::Train);
    }
}
