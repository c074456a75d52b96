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
//! frontier, while [`predict_recovery`] folds the identical commit-time
//! decision procedure as a pure function, so tests can predict every
//! deterministic counter of a replay run without spawning a thread. Both
//! read a replay's misspeculations from one table ([`SpecRecord::table`]).

use crate::task::TaskGraph;
use std::sync::Arc;
use std::time::Duration;

/// One task's recorded speculation: of the speculated dependences the
/// trace recorded for it, how many manifested and how many held. A
/// replay job ([`JobMode::Replay`](super::JobMode::Replay)) carries one
/// per task, in task order, and squashes the speculative attempt of
/// every task with a violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecRecord {
    /// Speculated dependences that manifested.
    pub violated: u32,
    /// Speculated dependences that held.
    pub survived: u32,
}

impl SpecRecord {
    /// Each task's record in `graph`, in task order: the table a replay
    /// job and [`predict_recovery`] read.
    pub fn table(graph: &TaskGraph) -> Arc<[SpecRecord]> {
        graph
            .tasks()
            .iter()
            .map(|task| {
                let deps = graph.spec_deps(task);
                let violated = deps.iter().filter(|d| d.violated).count() as u32;
                SpecRecord {
                    violated,
                    survived: deps.len() as u32 - violated,
                }
            })
            .collect()
    }
}

/// One class of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// SplitMix64: the standard 64-bit finalizer, used as a stateless hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What supervising one task at the commit frontier does, as predicted
/// by replaying the supervisor's decision procedure as a pure function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Supervision {
    /// Recovery counters charged while supervising this task (partial
    /// counts up to budget exhaustion when `exhausted`).
    counts: RecoveryCounts,
    /// Whether the attempt-0 misspeculation squash fired (it does not
    /// when attempt 0 panicked — the panic is handled first and the
    /// replay is no longer speculative).
    misspec_squashed: bool,
    /// Total body dispatches the task consumed (including squashed and
    /// panicked attempts, the exhausting one included).
    attempts: u32,
    /// The task exhausted its retry budget: the executor abandons
    /// worker dispatch and falls back to in-order sequential execution
    /// of every remaining task.
    exhausted: bool,
}

/// Replays the commit-frontier supervision protocol for one task as a
/// pure function of the fault plan: one step of [`predict_recovery`].
///
/// `violated` says whether the task has at least one violated
/// speculated dependence (so its genuine attempt 0 gets the normal
/// misspeculation squash). The decision order per attempt mirrors
/// `CommitUnit::drain` exactly: worker panic → misspeculation squash →
/// commit. Only a panic is charged against `retry_budget`.
fn supervise_task(plan: &FaultPlan, retry_budget: u32, task: u32, violated: bool) -> Supervision {
    let mut sup = Supervision::default();
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

/// The deterministic counters of a replay run, as [`predict_recovery`]
/// derives them; each field is the [`NativeReport`](crate::NativeReport)
/// field of the same name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPrediction {
    /// Panics recovered, stalls absorbed and tasks the sequential
    /// fallback committed.
    pub recovery: RecoveryCounts,
    /// Body attempts: squashed, panicked and fallback ones included.
    pub attempts: u64,
    /// Misspeculation squashes.
    pub squashes: u64,
    /// Violated speculated dependences, tallied at their squash.
    pub violations: u64,
    /// Speculated dependences that held, tallied at their task's commit
    /// before any fallback.
    pub speculations_survived: u64,
}

/// Predicts what a replay run of the tasks `recorded` describes (one
/// [`SpecRecord`] a task, in task order) reports under `faults` and
/// `retry_budget`, without a thread.
///
/// The commit frontier decides every counter strictly in task order
/// from `(task, attempt)` alone, so the prediction folds the per-task
/// ladder over the tasks in that order. When a task exhausts the budget,
/// the executor stops dispatching and commits that task and every later
/// one inline, one attempt each: the speculation counters freeze and
/// `recovery.fallback_tasks` counts the tail.
pub fn predict_recovery(
    recorded: &[SpecRecord],
    faults: &FaultPlan,
    retry_budget: u32,
) -> RecoveryPrediction {
    let mut p = RecoveryPrediction::default();
    for (idx, r) in recorded.iter().enumerate() {
        let sup = supervise_task(faults, retry_budget, idx as u32, r.violated > 0);
        p.recovery.absorb(&sup.counts);
        p.attempts += u64::from(sup.attempts);
        if sup.misspec_squashed {
            p.squashes += 1;
            p.violations += u64::from(r.violated);
        }
        if sup.exhausted {
            let tail = (recorded.len() - idx) as u64;
            p.recovery.fallback_tasks = tail;
            p.attempts += tail;
            break;
        }
        p.speculations_survived += u64::from(r.survived);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SpecDep;
    use crate::{ExecutionPlan, SimConfig, Simulator};

    /// A TLS chain of `n` tasks, each speculating on its predecessor;
    /// the dependences of every fifth task manifest.
    fn chain(n: u64) -> TaskGraph {
        let mut g = TaskGraph::new(1);
        let mut prev = None;
        for i in 0..n {
            let spec: Vec<SpecDep> = prev
                .map(|on| SpecDep {
                    on,
                    violated: i % 5 == 0,
                })
                .into_iter()
                .collect();
            prev = Some(g.add_task(0, i, 10, &[], &spec));
        }
        g
    }

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

    #[test]
    fn fault_simulation_is_deterministic_and_inert_plans_change_nothing() {
        let g = chain(180);
        let n = g.len() as u64;
        let sim = Simulator::new(SimConfig::with_cores(4));
        let clean = sim.run(&g, &ExecutionPlan::tls(4)).unwrap();
        let table = SpecRecord::table(&g);
        let inert = predict_recovery(&table, &FaultPlan::none(), 3);
        assert_eq!(
            inert.recovery,
            RecoveryCounts::default(),
            "an inert fault plan must change nothing"
        );
        assert_eq!(inert.violations, clean.violations);
        assert_eq!(inert.speculations_survived, clean.speculations_survived);
        // Tasks 5, 10, …, 175 squash once each and commit on attempt 1.
        assert_eq!(inert.squashes, 35);
        assert_eq!(inert.attempts, n + inert.squashes);

        let faults = FaultPlan::seeded(42);
        let a = predict_recovery(&table, &faults, 3);
        assert_eq!(
            a,
            predict_recovery(&table, &faults, 3),
            "same seed, same chaos"
        );
        assert!(
            a.recovery.panics_recovered > 0,
            "seed 42 injects something over 180 tasks"
        );
        assert_eq!(a.recovery.fallback_tasks, 0);
        // Every task commits once; every squash and every panic costs
        // one more attempt.
        assert_eq!(
            a.attempts,
            n + a.squashes + a.recovery.panics_recovered,
            "replayed attempts are counted"
        );
    }

    #[test]
    fn fault_simulation_budget_exhaustion_serializes_the_tail() {
        let g = chain(60);
        let n = g.len() as u64;
        // Panic on every attempt: task 0 exhausts any finite budget.
        let always = FaultPlan::none().with_panic_permille(1000);
        let table = SpecRecord::table(&g);
        let r = predict_recovery(&table, &always, 2);
        assert_eq!(r.recovery.fallback_tasks, n);
        assert_eq!(r.violations, 0, "speculation counters freeze at fallback");
        assert_eq!(r.speculations_survived, 0);
        // Each task ran once in the fallback tail, plus the three
        // charged attempts task 0 burned pipelined.
        assert_eq!(r.attempts, n + 3);

        // Task 15 misspeculates, then its replays panic past budget 1:
        // its squash is tallied before the counters freeze.
        let late = FaultPlan::none()
            .with_forced(15, 1, FaultKind::WorkerPanic)
            .with_forced(15, 2, FaultKind::WorkerPanic);
        let r = predict_recovery(&table, &late, 1);
        assert_eq!(r.recovery.fallback_tasks, n - 15);
        assert_eq!(r.recovery.panics_recovered, 2);
        assert_eq!((r.squashes, r.violations), (3, 3), "tasks 5, 10 and 15");
        // Tasks 1..15 committed pipelined; 5 and 10 held no dependence.
        assert_eq!(r.speculations_survived, 14 - 2);
        // 15 first attempts, two squash replays, task 15's three
        // attempts, and the tail.
        assert_eq!(r.attempts, 15 + 2 + 3 + (n - 15));
    }
}
