//! What a native run reports: the committed output stream, speculation
//! counters that line up one-for-one with the simulator's, and real
//! wall-clock / per-worker timing.

use super::faults::RecoveryCounts;
use super::trace::{JobId, Timeline};
use seqpar_specmem::MemStats;
use std::time::Duration;

/// A shim, kept only while `benchmark/` reads it: the counters of a
/// runtime governor there no longer is. No run reports one
/// ([`NativeReport::governor`] is always `None`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Always 0; kept while the benchmark reads it.
    pub shrinks: u64,
    /// Always 0; kept while the benchmark reads it.
    pub grows: u64,
    /// Always 0; kept while the benchmark reads it.
    pub degrades: u64,
    /// Always 0; kept while the benchmark reads it.
    pub reprobes: u64,
    /// Always 0; kept while the benchmark reads it.
    pub backoffs: u64,
    /// Always 0; kept while the benchmark reads it.
    pub degraded_commits: u64,
}

/// Timing for one seat of the plan (one core of its one stage),
/// whichever threads served it.
#[derive(Clone, Debug)]
pub struct WorkerStat {
    /// The plan core this worker modelled.
    pub core: usize,
    /// Total time spent inside task bodies.
    pub busy: Duration,
    /// Executions performed (including squashed attempts).
    pub tasks: u64,
}

/// The result of one job ([`Engine::run`](super::Engine::run) or
/// [`JobHandle::wait`](super::JobHandle::wait)).
///
/// `violations` and `speculations_survived` are defined identically to
/// [`SimResult`](crate::SimResult)'s fields — one count per speculated
/// dependence, charged once per task — so differential tests can
/// compare them directly.
///
/// Every counter except `wall`, `workers`, and `watchdog_trips` is
/// decided at the commit frontier from `(task, attempt)` and the
/// [`FaultPlan`](super::FaultPlan) alone, so two runs with the same
/// config report identical values — even under injected chaos, and even
/// when a retry budget forced the sequential fallback. `watchdog_trips`
/// is the one genuinely timing-dependent recovery counter: whether a
/// stall outlasts the deadline depends on real elapsed time.
#[derive(Clone, Debug)]
pub struct NativeReport {
    /// The job this report describes, as numbered by the
    /// [`Engine`](super::Engine) that ran it (a submitted job's is its
    /// [`JobHandle::id`](super::JobHandle::id)). Every counter, trace
    /// event, and stat below is scoped to this job alone — an engine
    /// running many jobs concurrently never bleeds one job's numbers
    /// into another's report.
    pub job: JobId,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// The committed output stream, in task (= sequential program)
    /// order.
    pub output: Vec<u8>,
    /// Tasks committed (equals the graph size on success).
    pub tasks_committed: u64,
    /// Body executions, including squashed attempts.
    pub attempts: u64,
    /// Attempts discarded by misspeculation rollback.
    pub squashes: u64,
    /// Violated speculated dependences (squash causes), matching
    /// `SimResult::violations`.
    pub violations: u64,
    /// Speculated dependences that did not manifest, matching
    /// `SimResult::speculations_survived`.
    pub speculations_survived: u64,
    /// Deterministic work units metered by committed attempts.
    pub work: u64,
    /// Fault-recovery tallies (panics recovered, stalls absorbed,
    /// fallback-committed tasks). All zero on a fault-free run.
    pub recovery: RecoveryCounts,
    /// Times the heartbeat watchdog fired because no completion arrived
    /// within [`ExecConfig::watchdog_deadline`](super::ExecConfig::watchdog_deadline)
    /// (each trip activates the sequential fallback).
    pub watchdog_trips: u64,
    /// Whether the run finished under the in-order sequential fallback
    /// (retry budget exhausted or watchdog tripped) rather than fully
    /// pipelined. The output is byte-identical either way.
    pub fallback_activated: bool,
    /// Per-seat timing: one entry per plan core that served at least
    /// one attempt (none at all when the sequential fallback committed
    /// every task). Each completion carries its seat and body time, so
    /// on a run without fallback the `tasks` add up to `attempts`.
    pub workers: Vec<WorkerStat>,
    /// The structured execution timeline, present when the run was
    /// traced ([`ExecConfig::trace`](super::ExecConfig::trace)); `None`
    /// otherwise, and for empty graphs. See `OBSERVABILITY.md` for how
    /// to read and export it.
    pub timeline: Option<Timeline>,
    /// A snapshot of the concurrent versioned memory's counters
    /// (reads, eager forwards, silent stores suppressed, conflict
    /// squashes, commits, rollbacks) when the job carried one
    /// ([`JobSpec::mem`](super::JobSpec::mem)); `None` for replay
    /// jobs. Unlike the
    /// frontier-decided counters above, conflict counts here are
    /// genuinely timing-dependent — they record real races detected at
    /// access granularity, while the committed output stays
    /// byte-identical.
    pub mem: Option<MemStats>,
    /// Always `None`: there is no runtime governor. A shim, kept only
    /// while `benchmark/` reads it.
    pub governor: Option<GovernorStats>,
}

impl NativeReport {
    /// An all-zero report over `wall` — what running an empty task
    /// graph produces (no workers spawned, nothing attempted, nothing
    /// committed). Public so doc examples and downstream tests can
    /// exercise the zero-task / zero-worker edges of the derived
    /// metrics without running an executor.
    pub fn empty(wall: Duration) -> Self {
        Self {
            job: JobId::SOLO,
            wall,
            output: Vec::new(),
            tasks_committed: 0,
            attempts: 0,
            squashes: 0,
            violations: 0,
            speculations_survived: 0,
            work: 0,
            recovery: RecoveryCounts::default(),
            watchdog_trips: 0,
            fallback_activated: false,
            workers: Vec::new(),
            timeline: None,
            mem: None,
            governor: None,
        }
    }

    /// Plan cores that served at least one attempt.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Fraction of worker wall time spent inside task bodies.
    ///
    /// Edge cases are defined, not NaN: a report with **no workers**
    /// (an empty graph never spawns any) or a **zero wall clock**
    /// (theoretical, but a sub-resolution run could produce one)
    /// reports `0.0` utilization rather than dividing by zero.
    ///
    /// ```
    /// use seqpar_runtime::NativeReport;
    /// use std::time::Duration;
    ///
    /// let idle = NativeReport::empty(Duration::from_millis(5));
    /// assert_eq!(idle.threads(), 0);
    /// assert_eq!(idle.utilization(), 0.0); // no workers: defined, not NaN
    /// ```
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() || self.wall.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        busy / (self.wall.as_secs_f64() * self.workers.len() as f64)
    }

    /// Fraction of attempts that were squashed.
    ///
    /// A report with **zero attempts** (an empty graph commits nothing
    /// and attempts nothing) reports a misspeculation rate of `0.0`
    /// rather than dividing by zero:
    ///
    /// ```
    /// use seqpar_runtime::NativeReport;
    /// use std::time::Duration;
    ///
    /// let idle = NativeReport::empty(Duration::ZERO);
    /// assert_eq!(idle.attempts, 0);
    /// assert_eq!(idle.misspec_rate(), 0.0); // 0 tasks: defined, not NaN
    /// ```
    pub fn misspec_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.squashes as f64 / self.attempts as f64
    }
}
