//! Deterministic fault injection for the native executor.
//!
//! A [`FaultPlan`] decides, purely from a `u64` seed and a `(task,
//! attempt)` pair, whether a dispatch is sabotaged and how: the worker
//! panics or the worker stalls — the two failures a real host can
//! inflict on an attempt. No wall-clock entropy is involved, so a chaos
//! run is exactly reproducible from its seed — the property the chaos
//! proptests and the 3-seed CI job rely on.
//!
//! The same plan drives both sides of the differential harness: the
//! native executor consults it on worker threads and at the commit
//! frontier, while [`supervise_task`] replays the identical commit-time
//! decision procedure as a pure function so the simulator (and tests)
//! can predict every recovery counter without spawning a thread.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One class of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker panics instead of running the task's body.
    WorkerPanic,
    /// The worker sleeps for [`FaultPlan::stall_duration`] before
    /// running the body — an artificial stage stall the heartbeat
    /// watchdog can observe.
    StageStall,
}

/// Deterministic per-task recovery counters.
///
/// Every field is decided at the commit frontier, where attempts are
/// processed strictly in task order by a procedure that depends only on
/// `(task, attempt)` and the [`FaultPlan`] — never on thread timing —
/// so two runs with the same seed report identical counts. (The
/// exceptions, `NativeReport::attempts` and `watchdog_trips`, are
/// documented on their own fields.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryCounts {
    /// Worker panics (injected or real) converted into squash-and-replay
    /// re-dispatches instead of aborting the run — the only replays
    /// charged against retry budgets (misspeculation replays are part
    /// of the normal protocol and are not charged).
    pub panics_recovered: u64,
    /// Attempts that reached the commit frontier after an injected
    /// stage stall (the stall itself recovers by finishing; this counts
    /// how many the chaos plan inflicted).
    pub stalls_absorbed: u64,
    /// Tasks committed by the in-order sequential fallback after a
    /// retry budget was exhausted or the watchdog tripped.
    pub fallback_tasks: u64,
}

impl RecoveryCounts {
    /// Accumulates `other` into `self`.
    pub(crate) fn absorb(&mut self, other: &RecoveryCounts) {
        self.panics_recovered += other.panics_recovered;
        self.stalls_absorbed += other.stalls_absorbed;
        self.fallback_tasks += other.fallback_tasks;
    }
}

/// A seeded, deterministic chaos schedule: which `(task, attempt)`
/// dispatches are sabotaged, and how.
///
/// Each `(task, attempt)` pair gets at most one fault, drawn by hashing
/// `(seed, task, attempt)` and partitioning the hash into per-class
/// per-mille bands, plus an explicit `forced` list for targeted tests.
/// The default plan ([`FaultPlan::none`]) injects nothing and costs one
/// branch per dispatch.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    panic_permille: u16,
    stall_permille: u16,
    stall: Duration,
    forced: Vec<(u32, u32, FaultKind)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            panic_permille: 0,
            stall_permille: 0,
            stall: Duration::from_micros(200),
            forced: Vec::new(),
        }
    }

    /// A moderate chaos plan derived from `seed`: roughly 6% of
    /// dispatches panic and 1% stall.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            panic_permille: 60,
            stall_permille: 10,
            stall: Duration::from_micros(200),
            forced: Vec::new(),
        }
    }

    /// The seeded plans a chaos harness should run: every seed named in
    /// the `SEQPAR_CHAOS_SEED` environment variable (a comma-separated
    /// `u64` list), or [`FaultPlan::seeded`] over `defaults` when the
    /// variable is unset or empty. Invalid entries panic rather than
    /// silently shrinking CI coverage.
    ///
    /// Each engine job carries its own cloned plan, and draws hash only
    /// `(seed, task, attempt)` — so the same seed sabotages the same
    /// dispatches whether a job runs alone or shares a pool.
    pub fn seeded_from_env(defaults: &[u64]) -> Vec<Self> {
        let seeds: Vec<u64> = match std::env::var("SEQPAR_CHAOS_SEED") {
            Ok(raw) if !raw.trim().is_empty() => raw
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .expect("SEQPAR_CHAOS_SEED entries are u64 seeds")
                })
                .collect(),
            _ => defaults.to_vec(),
        };
        seeds.into_iter().map(Self::seeded).collect()
    }

    /// Sets the worker-panic rate in per-mille of dispatches.
    pub fn with_panic_permille(mut self, permille: u16) -> Self {
        self.panic_permille = permille;
        self
    }

    /// Sets the stage-stall rate in per-mille of dispatches.
    pub fn with_stall_permille(mut self, permille: u16) -> Self {
        self.stall_permille = permille;
        self
    }

    /// Sets how long an injected stall sleeps.
    pub fn with_stall_duration(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// Forces `kind` onto one exact `(task, attempt)` dispatch,
    /// overriding the seeded draw — the targeted-injection hook for
    /// unit tests.
    pub fn with_forced(mut self, task: u32, attempt: u32, kind: FaultKind) -> Self {
        self.forced.push((task, attempt, kind));
        self
    }

    /// How long an injected [`FaultKind::StageStall`] sleeps.
    pub fn stall_duration(&self) -> Duration {
        self.stall
    }

    /// Whether the plan can never inject anything (the fast path).
    pub fn is_inert(&self) -> bool {
        self.forced.is_empty() && self.panic_permille == 0 && self.stall_permille == 0
    }

    /// The fault injected on dispatch `(task, attempt)`, if any.
    pub fn fault_at(&self, task: u32, attempt: u32) -> Option<FaultKind> {
        if let Some((_, _, kind)) = self
            .forced
            .iter()
            .find(|(t, a, _)| *t == task && *a == attempt)
        {
            return Some(*kind);
        }
        if self.panic_permille == 0 && self.stall_permille == 0 {
            return None;
        }
        let draw = splitmix64(
            self.seed
                ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        ) % 1000;
        let panic_band = u64::from(self.panic_permille);
        if draw < panic_band {
            Some(FaultKind::WorkerPanic)
        } else if draw < panic_band + u64::from(self.stall_permille) {
            Some(FaultKind::StageStall)
        } else {
            None
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer, used as a stateless hash
/// (and as the governor tests' script generator).
pub(super) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What supervising one task at the commit frontier does, as predicted
/// by replaying the supervisor's decision procedure as a pure function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskSupervision {
    /// Recovery counters charged while supervising this task (partial
    /// counts up to budget exhaustion when `exhausted`).
    pub counts: RecoveryCounts,
    /// Whether the attempt-0 misspeculation squash fired (it does not
    /// when attempt 0 panicked — the panic is handled first and the
    /// replay is no longer speculative).
    pub misspec_squashed: bool,
    /// Total body dispatches the task consumed (including squashed and
    /// panicked attempts), when not `exhausted`.
    pub attempts: u32,
    /// The task exhausted its retry budget: the executor abandons
    /// worker dispatch and falls back to in-order sequential execution
    /// of every remaining task.
    pub exhausted: bool,
}

/// Replays the commit-frontier supervision protocol for one task as a
/// pure function of the fault plan — the simulated twin of the native
/// executor's recovery path, used by [`Simulator::run_with_faults`](crate::Simulator::run_with_faults)
/// (see [`crate::sim`]) and the differential chaos tests.
///
/// `violated` says whether the task has at least one violated
/// speculated dependence (so its genuine attempt 0 gets the normal
/// misspeculation squash). The decision order per attempt mirrors
/// `CommitUnit::drain` exactly: worker panic → misspeculation squash →
/// commit. Only a panic is charged against `retry_budget`.
pub fn supervise_task(
    plan: &FaultPlan,
    retry_budget: u32,
    task: u32,
    violated: bool,
) -> TaskSupervision {
    let mut sup = TaskSupervision::default();
    for attempt in 0u32.. {
        sup.attempts += 1;
        let fault = plan.fault_at(task, attempt);
        if fault == Some(FaultKind::StageStall) {
            sup.counts.stalls_absorbed += 1;
        }
        if fault == Some(FaultKind::WorkerPanic) {
            sup.counts.panics_recovered += 1;
            if sup.counts.panics_recovered > u64::from(retry_budget) {
                sup.exhausted = true;
                break;
            }
        } else if attempt == 0 && violated {
            sup.misspec_squashed = true;
        } else {
            break;
        }
    }
    sup
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7);
        let b = FaultPlan::seeded(7);
        let c = FaultPlan::seeded(8);
        let draws = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..200).map(|t| p.fault_at(t, 0)).collect()
        };
        assert_eq!(draws(&a), draws(&b));
        assert_ne!(draws(&a), draws(&c), "different seeds draw differently");
        assert!(
            draws(&a).iter().any(Option::is_some),
            "a seeded plan injects something over 200 tasks"
        );
    }

    #[test]
    fn inert_plan_never_injects() {
        let zeroed = FaultPlan::seeded(7)
            .with_panic_permille(0)
            .with_stall_permille(0);
        for p in [FaultPlan::none(), zeroed] {
            assert!(p.is_inert());
            for t in 0..100 {
                for a in 0..4 {
                    assert_eq!(p.fault_at(t, a), None);
                }
            }
        }
        assert!(!FaultPlan::none().with_stall_permille(1).is_inert());
    }

    #[test]
    fn forced_faults_override_the_seeded_draw() {
        let p = FaultPlan::none().with_forced(3, 1, FaultKind::StageStall);
        assert_eq!(p.fault_at(3, 1), Some(FaultKind::StageStall));
        assert_eq!(p.fault_at(3, 0), None);
        assert_eq!(p.fault_at(4, 1), None);
        assert!(!p.is_inert());
    }

    #[test]
    fn supervision_terminates_and_respects_the_budget() {
        // Panic on every attempt: budget 2 allows 2 charged replays and
        // the third panic exhausts.
        let p = FaultPlan::none().with_panic_permille(1000);
        let sup = supervise_task(&p, 2, 0, false);
        assert!(sup.exhausted);
        assert_eq!(sup.counts.panics_recovered, 3);
        assert_eq!(sup.attempts, 3);
    }

    #[test]
    fn budget_zero_exhausts_on_the_first_fault() {
        let p = FaultPlan::none().with_forced(5, 0, FaultKind::WorkerPanic);
        let sup = supervise_task(&p, 0, 5, false);
        assert!(sup.exhausted);
        assert_eq!(sup.counts.panics_recovered, 1);
        // A clean task is unaffected even at budget 0.
        let clean = supervise_task(&p, 0, 6, false);
        assert!(!clean.exhausted);
        assert_eq!(clean.attempts, 1);
    }

    #[test]
    fn panicked_first_attempt_skips_the_misspec_squash() {
        let p = FaultPlan::none().with_forced(2, 0, FaultKind::WorkerPanic);
        let sup = supervise_task(&p, 3, 2, true);
        assert!(!sup.misspec_squashed, "replay after a panic is attempt 1");
        assert_eq!(sup.counts.panics_recovered, 1);
        assert_eq!(sup.attempts, 2);
        // Without the panic the squash fires normally.
        let normal = supervise_task(&FaultPlan::none(), 3, 2, true);
        assert!(normal.misspec_squashed);
        assert_eq!(normal.attempts, 2);
    }
}
