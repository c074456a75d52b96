//! Structured execution tracing: per-worker event buffers stitched into
//! a post-run [`Timeline`].
//!
//! The paper's evaluation rests on per-task timelines (the authors used
//! `pfmon` on real hardware); this module is our equivalent. When
//! [`ExecConfig::trace`](super::ExecConfig::trace) is on, every worker
//! thread appends typed [`TraceEvent`]s to a buffer it owns exclusively
//! — no locks, no shared cache lines, one monotonic-clock read plus one
//! `Vec` push per event — and the dispatcher and commit unit do the
//! same at the commit frontier. After the run the buffers are merged
//! by timestamp into a [`Timeline`] carried on
//! [`NativeReport::timeline`](super::NativeReport::timeline), from which
//! the per-stage histograms ([`Timeline::stage_metrics`]), the critical
//! path ([`Timeline::critical_path`]), and a Chrome `trace_event`
//! export ([`Timeline::to_chrome_json`], loadable in Perfetto or
//! `chrome://tracing`) are derived.
//!
//! [`SimResult::timeline`](crate::SimResult::timeline) emits the
//! same event schema from a simulated schedule (timestamps in cycles
//! instead of nanoseconds), so sim and native timelines are directly
//! diffable — the differential suite checks they agree on commit order.
//!
//! See `OBSERVABILITY.md` at the repository root for the full schema
//! reference and a capture walkthrough.

use crate::task::{StageId, TaskId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

/// The unit of [`TraceEvent::ts`] timestamps in a [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeUnit {
    /// Real nanoseconds since the run started — native executor
    /// timelines.
    Nanos,
    /// Simulated machine cycles — the simulator's twin timelines
    /// ([`SimResult::timeline`](crate::SimResult::timeline)).
    Cycles,
}

impl fmt::Display for TimeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeUnit::Nanos => f.write_str("ns"),
            TimeUnit::Cycles => f.write_str("cycles"),
        }
    }
}

/// Why the commit unit discarded an attempt (the decision ladder of
/// `CommitUnit::drain`, in ladder order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SquashReason {
    /// The worker panicked (injected or real); the attempt produced
    /// nothing and is replayed under the retry budget.
    PanicRecovered,
    /// A violated speculated dependence manifested: the normal
    /// misspeculation rollback of the speculation protocol.
    Misspeculation,
    /// The versioned memory substrate invalidated the attempt's version:
    /// a read it took was contradicted by an earlier version's
    /// conflicting (non-silent) write or a rollback's revoked forward.
    /// This is the squash source of versioned-memory runs, detected at
    /// access granularity instead of replayed from recorded dependence
    /// events.
    MemoryConflict,
}

impl fmt::Display for SquashReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SquashReason::PanicRecovered => f.write_str("panic"),
            SquashReason::Misspeculation => f.write_str("misspeculation"),
            SquashReason::MemoryConflict => f.write_str("memory-conflict"),
        }
    }
}

/// Identifies one job on an [`Engine`](super::Engine), which numbers
/// its jobs from 1. Every trace event carries the id of the job it
/// belongs to, so the timelines of jobs run one after another on one
/// engine can be merged (see [`Timeline::merge`]) and still validated
/// per job. The simulator twin stamps [`JobId::SOLO`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The id simulated timelines (and an
    /// [`empty`](super::NativeReport::empty) report) carry: no engine
    /// assigns it.
    pub const SOLO: JobId = JobId(0);
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// One timestamped trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened, in the owning [`Timeline`]'s
    /// [`TimeUnit`] (nanoseconds since run start for native runs,
    /// cycles for simulated ones).
    pub ts: u64,
    /// The job this event belongs to ([`JobId::SOLO`] in simulated
    /// timelines).
    pub job: JobId,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The typed event schema shared by the native executor and the
/// simulator (see `OBSERVABILITY.md` for the reference table).
///
/// `attempt` is 0 for a task's speculative first dispatch and increments
/// with each squash-and-replay re-dispatch;
/// [`FALLBACK_ATTEMPT`](super::FALLBACK_ATTEMPT) marks a commit made by
/// the in-order sequential fallback, which has no worker-side dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The dispatcher enqueued an attempt on the job's queue (the
    /// native executor's: it runs one stage, so queue events name
    /// none). `occupancy` is the queue length right after the push.
    QueuePush {
        /// The enqueued task.
        task: u32,
        /// The enqueued attempt number.
        attempt: u32,
        /// Queue entries in flight immediately after the push.
        occupancy: usize,
    },
    /// A worker dequeued an attempt. `occupancy` is the queue length
    /// right after the pop, so push/pop pairs bracket the queue-wait
    /// interval and the occupancy series tracks backpressure.
    QueuePop {
        /// The dequeued task.
        task: u32,
        /// The dequeued attempt number.
        attempt: u32,
        /// Queue entries left immediately after the pop.
        occupancy: usize,
    },
    /// A worker started running an attempt's body.
    Dispatch {
        /// The plan core the worker models (natively, the seat: core
        /// `i` of a `tls` plan).
        core: usize,
        /// The task's stage.
        stage: u8,
        /// The task.
        task: u32,
        /// The attempt number.
        attempt: u32,
    },
    /// A worker finished an attempt (successfully, or by catching a
    /// panic, or after an injected stall).
    Complete {
        /// The plan core the worker models (natively, the seat: core
        /// `i` of a `tls` plan).
        core: usize,
        /// The task's stage.
        stage: u8,
        /// The task.
        task: u32,
        /// The attempt number.
        attempt: u32,
        /// The attempt produced nothing (real or injected panic).
        panicked: bool,
        /// The attempt ran behind an injected stage stall.
        stalled: bool,
    },
    /// The commit unit discarded an attempt at the frontier and
    /// re-dispatched the task.
    Squash {
        /// The squashed task.
        task: u32,
        /// The discarded attempt.
        attempt: u32,
        /// Which rung of the recovery ladder fired.
        reason: SquashReason,
    },
    /// The commit frontier advanced: `task`'s output joined the
    /// committed stream. Commits are strictly in task (= sequential
    /// program) order.
    Commit {
        /// The committed task.
        task: u32,
        /// The committing attempt
        /// ([`FALLBACK_ATTEMPT`](super::FALLBACK_ATTEMPT) when the
        /// sequential fallback committed it inline).
        attempt: u32,
    },
    /// The runtime outcome of the speculation the planner chose for
    /// this task (Y-branch, Commutative, and alias speculation all
    /// materialize as speculated dependences): how many manifested
    /// (violated) and how many the task got away with.
    SpecDecision {
        /// The task carrying speculated dependences.
        task: u32,
        /// Dependences that manifested and forced a squash.
        violated: u32,
        /// Dependences that were successfully speculated past.
        survived: u32,
    },
    /// A retry budget ran out (or the watchdog tripped): the executor
    /// abandoned worker dispatch and committed the remaining tasks
    /// in order under the frontier lock, starting at `from_task`.
    FallbackActivated {
        /// The first task the sequential fallback committed.
        from_task: u32,
    },
    /// The heartbeat watchdog fired: no completion arrived within
    /// [`ExecConfig::watchdog_deadline`](super::ExecConfig::watchdog_deadline).
    WatchdogTrip,
}

impl TraceEventKind {
    /// The task this event concerns, if it concerns one.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            TraceEventKind::QueuePush { task, .. }
            | TraceEventKind::QueuePop { task, .. }
            | TraceEventKind::Dispatch { task, .. }
            | TraceEventKind::Complete { task, .. }
            | TraceEventKind::Squash { task, .. }
            | TraceEventKind::Commit { task, .. }
            | TraceEventKind::SpecDecision { task, .. }
            | TraceEventKind::FallbackActivated { from_task: task } => Some(TaskId(*task)),
            TraceEventKind::WatchdogTrip => None,
        }
    }
}

/// The shared run clock: one `Instant` read per recorded event, or a
/// no-op when tracing is off.
#[derive(Clone, Copy, Debug)]
pub(super) struct TraceClock {
    start: Option<Instant>,
}

impl TraceClock {
    pub(super) fn new(enabled: bool) -> Self {
        Self {
            start: enabled.then(Instant::now),
        }
    }

    pub(super) fn enabled(&self) -> bool {
        self.start.is_some()
    }
}

/// A single-owner event buffer: each ticket a runner serves (and the frontier)
/// owns one exclusively, so recording is lock-free by construction —
/// one clock read plus one `Vec` push, and a single branch when tracing
/// is disabled.
#[derive(Debug)]
pub(super) struct TraceBuffer {
    clock: TraceClock,
    job: JobId,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// A buffer whose every event is stamped with `job` — pool workers
    /// and per-job frontiers record through one of these so merged
    /// multi-job timelines stay attributable.
    pub(super) fn for_job(clock: TraceClock, job: JobId) -> Self {
        Self {
            clock,
            job,
            events: Vec::new(),
        }
    }

    /// Whether recording does anything (off ⇒ every call is one branch).
    pub(super) fn enabled(&self) -> bool {
        self.clock.enabled()
    }

    /// Records `kind` at the current run clock. No-op when disabled.
    pub(super) fn record(&mut self, kind: TraceEventKind) {
        if let Some(start) = self.clock.start {
            self.events.push(TraceEvent {
                ts: start.elapsed().as_nanos() as u64,
                job: self.job,
                kind,
            });
        }
    }

    /// Empties the buffer, which keeps recording.
    pub(super) fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// A structural defect found by [`Timeline::validate`]: the trace
/// violates the execution model's happens-before and ordering rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDefect {
    /// A completed attempt has no matching dispatch event.
    CompletionWithoutDispatch {
        /// The completed task.
        task: u32,
        /// The completed attempt.
        attempt: u32,
    },
    /// An attempt completed before it was dispatched.
    CompletionBeforeDispatch {
        /// The offending task.
        task: u32,
        /// The offending attempt.
        attempt: u32,
    },
    /// One `(task, attempt)` pair completed twice — the
    /// one-outstanding-attempt protocol forbids that.
    DuplicateCompletion {
        /// The offending task.
        task: u32,
        /// The offending attempt.
        attempt: u32,
    },
    /// A committed attempt never completed (fallback commits excepted).
    CommitWithoutCompletion {
        /// The committed task.
        task: u32,
        /// The committing attempt.
        attempt: u32,
    },
    /// A squashed attempt never reached the frontier as a completion.
    SquashWithoutCompletion {
        /// The squashed task.
        task: u32,
        /// The squashed attempt.
        attempt: u32,
    },
    /// The `i`-th commit event is not task `i`: commits left sequential
    /// program order.
    CommitOutOfOrder {
        /// Position in the commit sequence.
        position: u32,
        /// The task that committed there instead.
        task: u32,
    },
    /// A queue pop has no matching earlier push (only checked for
    /// timelines that record queue events at all).
    PopWithoutPush {
        /// The popped task.
        task: u32,
        /// The popped attempt.
        attempt: u32,
    },
}

impl fmt::Display for TraceDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDefect::CompletionWithoutDispatch { task, attempt } => {
                write!(f, "t{task}#{attempt} completed without a dispatch")
            }
            TraceDefect::CompletionBeforeDispatch { task, attempt } => {
                write!(f, "t{task}#{attempt} completed before its dispatch")
            }
            TraceDefect::DuplicateCompletion { task, attempt } => {
                write!(f, "t{task}#{attempt} completed twice")
            }
            TraceDefect::CommitWithoutCompletion { task, attempt } => {
                write!(f, "t{task}#{attempt} committed without completing")
            }
            TraceDefect::SquashWithoutCompletion { task, attempt } => {
                write!(f, "t{task}#{attempt} squashed without completing")
            }
            TraceDefect::CommitOutOfOrder { position, task } => {
                write!(f, "commit #{position} was t{task}, not t{position}")
            }
            TraceDefect::PopWithoutPush { task, attempt } => {
                write!(f, "t{task}#{attempt} popped without a matching push")
            }
        }
    }
}

impl std::error::Error for TraceDefect {}

/// Summary statistics over a set of duration samples (one [`TimeUnit`]
/// apart — nanoseconds for native timelines, cycles for simulated
/// ones). An empty sample set reports all-zero stats.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DurationStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub total: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl DurationStats {
    /// Computes the summary of `samples` (consumed: sorted in place).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let total: u64 = samples.iter().sum();
        let pct = |p: f64| -> u64 {
            let idx = (p * (samples.len() - 1) as f64).round() as usize;
            samples[idx.min(samples.len() - 1)]
        };
        Self {
            count,
            total,
            min: samples[0],
            max: samples[samples.len() - 1],
            mean: total as f64 / count as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }

    /// Whether there were no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Per-stage derived metrics: the stage histograms of the observability
/// layer (service time, queue wait, commit latency).
#[derive(Clone, Debug, PartialEq)]
pub struct StageMetrics {
    /// The stage.
    pub stage: StageId,
    /// Body executions observed (including squashed attempts).
    pub attempts: u64,
    /// Tasks of this stage that committed.
    pub committed: u64,
    /// Dispatch→complete duration per attempt — how long the stage's
    /// bodies actually ran.
    pub service: DurationStats,
    /// Queue-push→queue-pop duration per attempt — how long work sat in
    /// the stage's input queue (empty for simulated timelines, which
    /// model queues analytically).
    pub queue_wait: DurationStats,
    /// Complete→commit duration for committing attempts — how long
    /// finished work waited in the reorder buffer for the in-order
    /// frontier to reach it.
    pub commit_latency: DurationStats,
}

impl StageMetrics {
    /// Total time this stage's workers spent inside bodies (the sum of
    /// service samples) — the numerator of pipeline-balance shares.
    pub fn busy(&self) -> u64 {
        self.service.total
    }
}

/// The critical path estimate: the longest chain of tasks the run
/// serialized, weighted by each task's measured service time (see
/// [`Timeline::critical_path`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total weight of the chain, in the timeline's [`TimeUnit`].
    pub length: u64,
    /// The chain itself, in task order.
    pub tasks: Vec<TaskId>,
}

/// A post-run execution timeline: every recorded [`TraceEvent`], merged
/// across workers and sorted by timestamp.
///
/// Produced by the native executor (on
/// [`NativeReport::timeline`](super::NativeReport::timeline) when
/// [`ExecConfig::trace`](super::ExecConfig::trace) is set) and by
/// [`SimResult::timeline`](crate::SimResult::timeline); both
/// emit the same schema, so the two sides are diffable event-for-event.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
    unit: TimeUnit,
    stage_count: u8,
    events: Vec<TraceEvent>,
}

impl Timeline {
    /// Merges per-thread buffers into one timestamp-sorted timeline.
    ///
    /// The sort is stable, so events a single thread recorded in order
    /// (in particular the commit unit's in-order commit sequence) keep
    /// their relative order even under timestamp ties.
    pub(crate) fn stitch(
        unit: TimeUnit,
        stage_count: u8,
        buffers: impl IntoIterator<Item = Vec<TraceEvent>>,
    ) -> Self {
        let mut events: Vec<TraceEvent> = buffers.into_iter().flatten().collect();
        events.sort_by_key(|e| e.ts);
        Self {
            unit,
            stage_count,
            events,
        }
    }

    /// Merges per-job timelines (say, of jobs run on one engine)
    /// into a single multi-job timeline. Events keep their [`JobId`]
    /// stamps, so [`validate`](Timeline::validate) still checks each
    /// job's commit order independently and
    /// [`to_chrome_json`](Timeline::to_chrome_json) renders each job as
    /// its own process track. The stage count is the maximum across
    /// inputs (stage labels are advisory in a merged view).
    ///
    /// # Panics
    ///
    /// Panics if the timelines disagree on [`TimeUnit`] — mixing
    /// nanoseconds with simulated cycles would make timestamps
    /// meaningless.
    #[must_use]
    pub fn merge(timelines: impl IntoIterator<Item = Timeline>) -> Self {
        let mut unit = None;
        let mut stage_count = 0u8;
        let mut events: Vec<TraceEvent> = Vec::new();
        for t in timelines {
            match unit {
                None => unit = Some(t.unit),
                Some(u) => assert_eq!(
                    u, t.unit,
                    "cannot merge timelines with different time units"
                ),
            }
            stage_count = stage_count.max(t.stage_count);
            events.extend(t.events);
        }
        events.sort_by_key(|e| e.ts);
        Self {
            unit: unit.unwrap_or(TimeUnit::Nanos),
            stage_count,
            events,
        }
    }

    /// The unit of every timestamp in this timeline.
    pub fn unit(&self) -> TimeUnit {
        self.unit
    }

    /// Pipeline stages of the traced run.
    pub fn stage_count(&self) -> u8 {
        self.stage_count
    }

    /// All events, sorted by timestamp.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timestamp of the last event — the traced span of the run.
    pub fn span(&self) -> u64 {
        self.events.last().map_or(0, |e| e.ts)
    }

    /// The tasks in the order they committed. For a well-formed
    /// timeline this is exactly `0..n` — sequential program order —
    /// which is what makes sim and native timelines diffable.
    pub fn commit_order(&self) -> Vec<TaskId> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Commit { task, .. } => Some(TaskId(task)),
                _ => None,
            })
            .collect()
    }

    /// Checks the structural invariants every trace must satisfy:
    ///
    /// 1. each attempt's events are ordered dispatch → complete
    ///    (recorded by the same worker thread, so the ordering is
    ///    exact), with at most one completion per `(task, attempt)`;
    /// 2. every committed attempt completed (commits by the sequential
    ///    fallback, marked [`FALLBACK_ATTEMPT`](super::FALLBACK_ATTEMPT),
    ///    are exempt — they have no worker-side events);
    /// 3. every squashed attempt completed (reaching the frontier is
    ///    what gets an attempt squashed);
    /// 4. commits happen in sequential program order: the `i`-th commit
    ///    event is task `i`;
    /// 5. if the timeline records queue events at all, every pop has a
    ///    matching push.
    ///
    /// Cross-thread pairs (rules 2, 3, 5) are checked for *existence*,
    /// not timestamp order: each thread records into its own lock-free
    /// buffer, so two records of one physical handoff (the dispatcher's
    /// push and a worker's pop, a worker's completion and the
    /// frontier's commit) can land nanoseconds apart in either order.
    /// The handoff itself is what the invariant asserts.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceDefect`] found.
    pub fn validate(&self) -> Result<(), TraceDefect> {
        // Every pairing and ordering rule is scoped to one job: merged
        // multi-job timelines reuse task numbering per job, so keys
        // carry the JobId and the commit-order counter is per job.
        //
        // Existence pre-pass: cross-thread counterparts, order-free.
        let mut completed_set: HashMap<(JobId, u32, u32), u32> = HashMap::new();
        let mut pushed: HashMap<(JobId, u32, u32), u64> = HashMap::new();
        for e in &self.events {
            match e.kind {
                TraceEventKind::Complete { task, attempt, .. } => {
                    *completed_set.entry((e.job, task, attempt)).or_insert(0) += 1;
                }
                TraceEventKind::QueuePush { task, attempt, .. } => {
                    pushed.insert((e.job, task, attempt), e.ts);
                }
                _ => {}
            }
        }
        if let Some((&(_, task, attempt), _)) = completed_set.iter().find(|(_, &n)| n > 1) {
            return Err(TraceDefect::DuplicateCompletion { task, attempt });
        }
        let any_push = !pushed.is_empty();
        // Ordering pass over the merged stream.
        let mut dispatched: HashMap<(JobId, u32, u32), u64> = HashMap::new();
        let mut commits: HashMap<JobId, u32> = HashMap::new();
        for e in &self.events {
            match e.kind {
                TraceEventKind::QueuePop { task, attempt, .. } => {
                    if any_push && !pushed.contains_key(&(e.job, task, attempt)) {
                        return Err(TraceDefect::PopWithoutPush { task, attempt });
                    }
                }
                TraceEventKind::Dispatch { task, attempt, .. } => {
                    dispatched.entry((e.job, task, attempt)).or_insert(e.ts);
                }
                TraceEventKind::Complete { task, attempt, .. } => {
                    let Some(&d) = dispatched.get(&(e.job, task, attempt)) else {
                        return Err(TraceDefect::CompletionWithoutDispatch { task, attempt });
                    };
                    if d > e.ts {
                        return Err(TraceDefect::CompletionBeforeDispatch { task, attempt });
                    }
                }
                TraceEventKind::Squash { task, attempt, .. } => {
                    if !completed_set.contains_key(&(e.job, task, attempt)) {
                        return Err(TraceDefect::SquashWithoutCompletion { task, attempt });
                    }
                }
                TraceEventKind::Commit { task, attempt } => {
                    // Fallback commits run inline under the frontier
                    // lock: no runner-side events.
                    if attempt != super::FALLBACK_ATTEMPT
                        && !completed_set.contains_key(&(e.job, task, attempt))
                    {
                        return Err(TraceDefect::CommitWithoutCompletion { task, attempt });
                    }
                    let next = commits.entry(e.job).or_insert(0);
                    if task != *next {
                        return Err(TraceDefect::CommitOutOfOrder {
                            position: *next,
                            task,
                        });
                    }
                    *next += 1;
                }
                TraceEventKind::QueuePush { .. }
                | TraceEventKind::SpecDecision { .. }
                | TraceEventKind::FallbackActivated { .. }
                | TraceEventKind::WatchdogTrip => {}
            }
        }
        Ok(())
    }

    /// Derives the per-stage histograms: service time per attempt,
    /// queue wait per attempt, commit latency per committed task.
    pub fn stage_metrics(&self) -> Vec<StageMetrics> {
        let n = self.stage_count as usize;
        let mut dispatch: HashMap<(JobId, u32, u32), u64> = HashMap::new();
        let mut push: HashMap<(JobId, u32, u32), u64> = HashMap::new();
        // (ts, stage) of each attempt's completion, for commit latency.
        let mut complete: HashMap<(JobId, u32, u32), (u64, u8)> = HashMap::new();
        let mut service: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut queue_wait: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut commit_latency: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut attempts = vec![0u64; n];
        let mut committed = vec![0u64; n];
        for e in &self.events {
            match e.kind {
                TraceEventKind::QueuePush { task, attempt, .. } => {
                    push.insert((e.job, task, attempt), e.ts);
                }
                TraceEventKind::QueuePop { task, attempt, .. } => {
                    // Only the native executor queues, and it runs one
                    // stage.
                    if let Some(&p) = push.get(&(e.job, task, attempt)) {
                        queue_wait[0].push(e.ts.saturating_sub(p));
                    }
                }
                TraceEventKind::Dispatch { task, attempt, .. } => {
                    dispatch.insert((e.job, task, attempt), e.ts);
                }
                TraceEventKind::Complete {
                    stage,
                    task,
                    attempt,
                    ..
                } => {
                    let s = stage as usize;
                    attempts[s] += 1;
                    if let Some(&d) = dispatch.get(&(e.job, task, attempt)) {
                        service[s].push(e.ts.saturating_sub(d));
                    }
                    complete.insert((e.job, task, attempt), (e.ts, stage));
                }
                TraceEventKind::Commit { task, attempt } => {
                    if let Some(&(c, stage)) = complete.get(&(e.job, task, attempt)) {
                        let s = stage as usize;
                        committed[s] += 1;
                        commit_latency[s].push(e.ts.saturating_sub(c));
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut rows = service
            .into_iter()
            .zip(queue_wait)
            .zip(commit_latency)
            .enumerate();
        // (The zip keeps the three per-stage sample vectors aligned.)
        for (s, ((srv, qw), cl)) in &mut rows {
            out.push(StageMetrics {
                stage: StageId(s as u8),
                attempts: attempts[s],
                committed: committed[s],
                service: DurationStats::from_samples(srv),
                queue_wait: DurationStats::from_samples(qw),
                commit_latency: DurationStats::from_samples(cl),
            });
        }
        out
    }

    /// Estimates the critical path: the heaviest chain of tasks the run
    /// serialized, with each task weighted by its committing attempt's
    /// measured service time. The only serialization a timeline shows is
    /// a squash: the re-execution starts only after every earlier task
    /// has committed (commit is in order), so a task with a
    /// [`Squash`](TraceEventKind::Squash) event chains after the task
    /// before it, and every other task may overlap its predecessors.
    /// Tasks committed by the sequential fallback carry zero weight (they
    /// have no worker-side measurement), so the estimate covers the
    /// pipelined portion of the run.
    pub fn critical_path(&self) -> CriticalPath {
        // Service time of the attempt each task committed at.
        let mut dispatch: HashMap<(u32, u32), u64> = HashMap::new();
        let mut complete: HashMap<(u32, u32), u64> = HashMap::new();
        let mut weight: HashMap<u32, u64> = HashMap::new();
        let mut squashed: HashSet<u32> = HashSet::new();
        for e in &self.events {
            match e.kind {
                TraceEventKind::Dispatch { task, attempt, .. } => {
                    dispatch.insert((task, attempt), e.ts);
                }
                TraceEventKind::Complete { task, attempt, .. } => {
                    complete.insert((task, attempt), e.ts);
                }
                TraceEventKind::Squash { task, .. } => {
                    squashed.insert(task);
                }
                TraceEventKind::Commit { task, attempt } => {
                    let service = match (
                        dispatch.get(&(task, attempt)),
                        complete.get(&(task, attempt)),
                    ) {
                        (Some(&d), Some(&c)) => c.saturating_sub(d),
                        _ => 0,
                    };
                    weight.insert(task, service);
                }
                _ => {}
            }
        }
        // Task `idx` chains after `idx - 1` iff it was squashed.
        let chained = |idx: usize| idx > 0 && squashed.contains(&(idx as u32));
        let n = weight.keys().max().map_or(0, |&t| t as usize + 1);
        let mut best = vec![0u64; n];
        let (mut tail, mut tail_len) = (None, 0u64);
        for idx in 0..n {
            let before = if chained(idx) { best[idx - 1] } else { 0 };
            best[idx] = before + weight.get(&(idx as u32)).copied().unwrap_or(0);
            if best[idx] >= tail_len {
                tail_len = best[idx];
                tail = Some(idx);
            }
        }
        let mut tasks = Vec::new();
        let mut cursor = tail;
        while let Some(idx) = cursor {
            tasks.push(TaskId(idx as u32));
            cursor = chained(idx).then(|| idx - 1);
        }
        tasks.reverse();
        CriticalPath {
            length: tail_len,
            tasks,
        }
    }

    /// Exports the timeline as Chrome `trace_event` JSON (the "JSON
    /// Array Format" with a `traceEvents` wrapper), loadable in
    /// [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
    ///
    /// `stage_labels` names each stage in slice titles (missing entries
    /// fall back to `stage{N}`). Attempts become duration (`X`) slices
    /// on their worker's track; squashes, commits, speculation
    /// decisions, and recovery actions become instant (`i`) events on
    /// the frontier track; queue occupancy becomes counter (`C`)
    /// series. Native nanosecond timestamps are exported in the
    /// format's microseconds; simulated timelines map one cycle to one
    /// microsecond.
    pub fn to_chrome_json(&self, stage_labels: &[String]) -> String {
        let label = |s: u8| -> String {
            stage_labels
                .get(s as usize)
                .cloned()
                .unwrap_or_else(|| format!("stage{s}"))
        };
        let ts_us = |ts: u64| -> f64 {
            match self.unit {
                TimeUnit::Nanos => ts as f64 / 1000.0,
                TimeUnit::Cycles => ts as f64,
            }
        };
        let mut entries: Vec<String> = Vec::new();
        // Each job renders as its own Chrome "process": pid = JobId.
        // Simulated timelines (`JobId::SOLO`) keep the historical pid 0
        // track names.
        let mut named_jobs: Vec<u64> = Vec::new();
        let mut named_cores: Vec<(u64, usize)> = Vec::new();
        let mut dispatch: HashMap<(JobId, u32, u32), u64> = HashMap::new();
        for e in &self.events {
            let pid = e.job.0;
            if !named_jobs.contains(&pid) {
                named_jobs.push(pid);
                let pname = if pid == 0 {
                    "seqpar pipelined executor".to_string()
                } else {
                    format!("seqpar engine job {pid}")
                };
                entries.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{pname}\"}}}}"
                ));
                entries.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"frontier (dispatch + commit)\"}}}}"
                ));
            }
            match e.kind {
                TraceEventKind::Dispatch {
                    core,
                    task,
                    attempt,
                    ..
                } => {
                    dispatch.insert((e.job, task, attempt), e.ts);
                    if !named_cores.contains(&(pid, core)) {
                        named_cores.push((pid, core));
                        entries.push(format!(
                            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                             \"args\":{{\"name\":\"core {core}\"}}}}",
                            core + 1
                        ));
                    }
                }
                TraceEventKind::Complete {
                    core,
                    stage,
                    task,
                    attempt,
                    panicked,
                    stalled,
                } => {
                    let start = dispatch
                        .get(&(e.job, task, attempt))
                        .copied()
                        .unwrap_or(e.ts);
                    let dur = ts_us(e.ts) - ts_us(start);
                    entries.push(format!(
                        "{{\"name\":\"{} t{task}#{attempt}\",\"cat\":\"task\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{},\
                         \"args\":{{\"task\":{task},\"attempt\":{attempt},\"stage\":{stage},\
                         \"panicked\":{panicked},\"stalled\":{stalled}}}}}",
                        escape_json(&label(stage)),
                        ts_us(start),
                        core + 1
                    ));
                }
                TraceEventKind::QueuePush { occupancy, .. }
                | TraceEventKind::QueuePop { occupancy, .. } => {
                    entries.push(format!(
                        "{{\"name\":\"queue {}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":{pid},\
                         \"args\":{{\"entries\":{occupancy}}}}}",
                        escape_json(&label(0)),
                        ts_us(e.ts)
                    ));
                }
                TraceEventKind::Squash {
                    task,
                    attempt,
                    reason,
                } => {
                    entries.push(format!(
                        "{{\"name\":\"squash:{reason} t{task}#{attempt}\",\"cat\":\"squash\",\
                         \"ph\":\"i\",\"ts\":{:.3},\"pid\":{pid},\"tid\":0,\"s\":\"t\",\
                         \"args\":{{\"task\":{task},\"attempt\":{attempt}}}}}",
                        ts_us(e.ts)
                    ));
                }
                TraceEventKind::Commit { task, attempt } => {
                    entries.push(format!(
                        "{{\"name\":\"commit t{task}\",\"cat\":\"commit\",\"ph\":\"i\",\
                         \"ts\":{:.3},\"pid\":{pid},\"tid\":0,\"s\":\"t\",\
                         \"args\":{{\"task\":{task},\"attempt\":{attempt}}}}}",
                        ts_us(e.ts)
                    ));
                }
                TraceEventKind::SpecDecision {
                    task,
                    violated,
                    survived,
                } => {
                    entries.push(format!(
                        "{{\"name\":\"speculation t{task}\",\"cat\":\"speculation\",\
                         \"ph\":\"i\",\"ts\":{:.3},\"pid\":{pid},\"tid\":0,\"s\":\"t\",\
                         \"args\":{{\"violated\":{violated},\"survived\":{survived}}}}}",
                        ts_us(e.ts)
                    ));
                }
                TraceEventKind::FallbackActivated { from_task } => {
                    entries.push(format!(
                        "{{\"name\":\"sequential fallback\",\"cat\":\"recovery\",\"ph\":\"i\",\
                         \"ts\":{:.3},\"pid\":{pid},\"tid\":0,\"s\":\"g\",\
                         \"args\":{{\"from_task\":{from_task}}}}}",
                        ts_us(e.ts)
                    ));
                }
                TraceEventKind::WatchdogTrip => {
                    entries.push(format!(
                        "{{\"name\":\"watchdog trip\",\"cat\":\"recovery\",\"ph\":\"i\",\
                         \"ts\":{:.3},\"pid\":{pid},\"tid\":0,\"s\":\"g\",\"args\":{{}}}}",
                        ts_us(e.ts)
                    ));
                }
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&entries.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            ts,
            job: JobId::SOLO,
            kind,
        }
    }

    fn job_ev(ts: u64, job: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            ts,
            job: JobId(job),
            kind,
        }
    }

    fn dispatch(ts: u64, task: u32, attempt: u32) -> TraceEvent {
        ev(
            ts,
            TraceEventKind::Dispatch {
                core: 0,
                stage: 0,
                task,
                attempt,
            },
        )
    }

    fn complete(ts: u64, task: u32, attempt: u32) -> TraceEvent {
        ev(
            ts,
            TraceEventKind::Complete {
                core: 0,
                stage: 0,
                task,
                attempt,
                panicked: false,
                stalled: false,
            },
        )
    }

    fn commit(ts: u64, task: u32, attempt: u32) -> TraceEvent {
        ev(ts, TraceEventKind::Commit { task, attempt })
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = TraceBuffer::for_job(TraceClock::new(false), JobId::SOLO);
        assert!(!buf.enabled());
        buf.record(TraceEventKind::WatchdogTrip);
        assert!(buf.take_events().is_empty());
    }

    #[test]
    fn enabled_buffer_timestamps_monotonically() {
        let mut buf = TraceBuffer::for_job(TraceClock::new(true), JobId::SOLO);
        buf.record(TraceEventKind::WatchdogTrip);
        buf.record(TraceEventKind::WatchdogTrip);
        let events = buf.take_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts <= events[1].ts);
    }

    #[test]
    fn stitch_sorts_and_validate_accepts_a_legal_trace() {
        let t = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![
                vec![dispatch(10, 1, 0), complete(30, 1, 0)],
                vec![dispatch(5, 0, 0), complete(20, 0, 0)],
                vec![commit(25, 0, 0), commit(35, 1, 0)],
            ],
        );
        assert_eq!(t.len(), 6);
        assert!(t.events().windows(2).all(|w| w[0].ts <= w[1].ts));
        t.validate().expect("legal trace");
        assert_eq!(t.commit_order(), vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn validate_rejects_out_of_order_commits() {
        let t = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![dispatch(0, 1, 0), complete(1, 1, 0), commit(2, 1, 0)]],
        );
        assert_eq!(
            t.validate(),
            Err(TraceDefect::CommitOutOfOrder {
                position: 0,
                task: 1
            })
        );
    }

    #[test]
    fn validate_rejects_commit_without_completion() {
        let t = Timeline::stitch(TimeUnit::Nanos, 1, vec![vec![commit(2, 0, 0)]]);
        assert_eq!(
            t.validate(),
            Err(TraceDefect::CommitWithoutCompletion {
                task: 0,
                attempt: 0
            })
        );
        // A fallback commit is exempt: it has no worker-side events.
        let fb = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![commit(2, 0, crate::exec::FALLBACK_ATTEMPT)]],
        );
        fb.validate().expect("fallback commits are exempt");
    }

    #[test]
    fn validate_rejects_completion_without_dispatch() {
        let t = Timeline::stitch(TimeUnit::Nanos, 1, vec![vec![complete(1, 0, 0)]]);
        assert_eq!(
            t.validate(),
            Err(TraceDefect::CompletionWithoutDispatch {
                task: 0,
                attempt: 0
            })
        );
    }

    #[test]
    fn duration_stats_summarize_and_handle_empty() {
        let s = DurationStats::from_samples(vec![30, 10, 20]);
        assert_eq!((s.count, s.min, s.max, s.p50), (3, 10, 30, 20));
        assert!((s.mean - 20.0).abs() < 1e-9);
        let empty = DurationStats::from_samples(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn stage_metrics_derive_service_and_commit_latency() {
        let mut events = vec![
            ev(
                0,
                TraceEventKind::QueuePush {
                    task: 0,
                    attempt: 0,
                    occupancy: 1,
                },
            ),
            ev(
                4,
                TraceEventKind::QueuePop {
                    task: 0,
                    attempt: 0,
                    occupancy: 0,
                },
            ),
        ];
        events.extend([dispatch(5, 0, 0), complete(15, 0, 0), commit(20, 0, 0)]);
        let t = Timeline::stitch(TimeUnit::Nanos, 1, vec![events]);
        let m = &t.stage_metrics()[0];
        assert_eq!(m.attempts, 1);
        assert_eq!(m.committed, 1);
        assert_eq!(m.service.p50, 10);
        assert_eq!(m.queue_wait.p50, 4);
        assert_eq!(m.commit_latency.p50, 5);
        assert_eq!(m.busy(), 10);
    }

    #[test]
    fn critical_path_follows_serializing_edges() {
        // t1's first attempt is squashed, so its replay (30) chains after
        // t0 (10); t2 (35) overlapped t1 and chains after nothing.
        let squash = ev(
            12,
            TraceEventKind::Squash {
                task: 1,
                attempt: 0,
                reason: SquashReason::MemoryConflict,
            },
        );
        let t = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![
                vec![dispatch(0, 0, 0), complete(10, 0, 0)],
                vec![dispatch(1, 1, 0), complete(5, 1, 0)],
                vec![dispatch(12, 1, 1), complete(42, 1, 1)],
                vec![dispatch(2, 2, 0), complete(37, 2, 0)],
                vec![commit(11, 0, 0), squash, commit(43, 1, 1), commit(44, 2, 0)],
            ],
        );
        t.validate().expect("legal trace");
        let cp = t.critical_path();
        assert_eq!(cp.length, 40);
        assert_eq!(cp.tasks, vec![TaskId(0), TaskId(1)]);
        // Without the squash nothing serializes: the heaviest task alone.
        let clean = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![
                dispatch(0, 0, 0),
                complete(10, 0, 0),
                dispatch(0, 1, 0),
                complete(30, 1, 0),
                commit(11, 0, 0),
                commit(31, 1, 0),
            ]],
        );
        let cp = clean.critical_path();
        assert_eq!(cp.length, 30);
        assert_eq!(cp.tasks, vec![TaskId(1)]);
    }

    #[test]
    fn chrome_export_wraps_trace_events() {
        let t = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![
                dispatch(0, 0, 0),
                complete(1000, 0, 0),
                commit(1500, 0, 0),
            ]],
        );
        let json = t.to_chrome_json(&["B \"transform\"".to_string()]);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("B \\\"transform\\\" t0#0"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1.000"));
        assert!(json.contains("commit t0"));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn merged_multi_job_timeline_validates_per_job() {
        // Two jobs reuse task number 0 and interleave in time; commit
        // order must be checked per job, not across the merge.
        let a = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![
                job_ev(
                    0,
                    1,
                    TraceEventKind::Dispatch {
                        core: 0,
                        stage: 0,
                        task: 0,
                        attempt: 0,
                    },
                ),
                job_ev(
                    10,
                    1,
                    TraceEventKind::Complete {
                        core: 0,
                        stage: 0,
                        task: 0,
                        attempt: 0,
                        panicked: false,
                        stalled: false,
                    },
                ),
                job_ev(
                    20,
                    1,
                    TraceEventKind::Commit {
                        task: 0,
                        attempt: 0,
                    },
                ),
            ]],
        );
        let b = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![
                job_ev(
                    5,
                    2,
                    TraceEventKind::Dispatch {
                        core: 1,
                        stage: 0,
                        task: 0,
                        attempt: 0,
                    },
                ),
                job_ev(
                    15,
                    2,
                    TraceEventKind::Complete {
                        core: 1,
                        stage: 0,
                        task: 0,
                        attempt: 0,
                        panicked: false,
                        stalled: false,
                    },
                ),
                job_ev(
                    25,
                    2,
                    TraceEventKind::Commit {
                        task: 0,
                        attempt: 0,
                    },
                ),
            ]],
        );
        let merged = Timeline::merge([a, b]);
        assert_eq!(merged.len(), 6);
        merged.validate().expect("per-job commit order is legal");
        // Each job renders as its own Chrome process.
        let json = merged.to_chrome_json(&[]);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("seqpar engine job 1"));
        assert!(json.contains("seqpar engine job 2"));
    }

    #[test]
    fn merged_timeline_catches_cross_job_completion_reuse() {
        // Job 2 commits a task that only job 1 completed: the pairing
        // must not bleed across jobs.
        let t = Timeline::stitch(
            TimeUnit::Nanos,
            1,
            vec![vec![
                job_ev(
                    0,
                    1,
                    TraceEventKind::Dispatch {
                        core: 0,
                        stage: 0,
                        task: 0,
                        attempt: 0,
                    },
                ),
                job_ev(
                    10,
                    1,
                    TraceEventKind::Complete {
                        core: 0,
                        stage: 0,
                        task: 0,
                        attempt: 0,
                        panicked: false,
                        stalled: false,
                    },
                ),
                job_ev(
                    20,
                    2,
                    TraceEventKind::Commit {
                        task: 0,
                        attempt: 0,
                    },
                ),
            ]],
        );
        assert_eq!(
            t.validate(),
            Err(TraceDefect::CommitWithoutCompletion {
                task: 0,
                attempt: 0
            })
        );
    }

    #[test]
    fn job_id_defaults_to_solo() {
        // Call sites outside an engine land on SOLO.
        assert_eq!(JobId::default(), JobId::SOLO);
        assert_eq!(JobId::SOLO.to_string(), "job0");
    }
}
