use super::*;
use crate::plan::ExecutionPlan;
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Runs a job of `tasks` tasks on `seats` seats on an engine of its own
/// — one runner per seat, the calling thread being the last — dropped on
/// return.
fn run_on(
    mode: JobMode,
    config: ExecConfig,
    tasks: u64,
    seats: usize,
    body: impl NativeBody + 'static,
) -> Result<NativeReport, ExecError> {
    let seats = NonZeroUsize::new(seats).expect("a job has a seat");
    Engine::new(EngineConfig::with_workers(seats.get() - 1)).run(&JobSpec {
        tasks: tasks as usize,
        seats,
        body: Arc::new(body),
        mode,
        config,
    })
}

/// The canonical speculative loop as a replay table: task `i` speculates
/// on task `i - 1`, and the dependence manifested at the tasks in
/// `violate_at`.
fn speculative(tasks: u64, violate_at: &[u64]) -> Arc<[SpecRecord]> {
    (0..tasks)
        .map(|i| match i {
            0 => SpecRecord::default(),
            i if violate_at.contains(&i) => SpecRecord {
                violated: 1,
                survived: 0,
            },
            _ => SpecRecord {
                violated: 0,
                survived: 1,
            },
        })
        .collect()
}

/// Runs the canonical speculative loop ([`speculative`]) as a replay
/// job: the recorded violations are the squash source.
fn run(
    config: ExecConfig,
    tasks: u64,
    violate_at: &[u64],
    seats: usize,
    body: impl NativeBody + 'static,
) -> Result<NativeReport, ExecError> {
    let mode = JobMode::Replay(speculative(tasks, violate_at));
    run_on(mode, config, tasks, seats, body)
}

/// A replay that recorded no speculation: only a panic squashes.
fn unrecorded() -> JobMode {
    JobMode::Replay(Arc::new([]))
}

/// [`run_on`] through a fresh substrate, handed back for inspection.
fn run_versioned(
    config: ExecConfig,
    tasks: u64,
    seats: usize,
    body: impl NativeBody + 'static,
) -> (NativeReport, Arc<ConcurrentVersionedMemory>) {
    let mem = Arc::new(ConcurrentVersionedMemory::new());
    let mode = JobMode::Versioned(Arc::clone(&mem));
    let report = run_on(mode, config, tasks, seats, body).unwrap();
    (report, mem)
}

/// A body that emits each task's index — and a deliberately corrupt tag
/// while speculative, so a missed squash or a phantom squash both
/// corrupt the output stream.
fn tagging_body(violate_at: Vec<u64>) -> impl NativeBody {
    move |task: TaskId, ctx: &TaskCtx<'_>| {
        let i = u64::from(task.0);
        let mut bytes = i.to_le_bytes().to_vec();
        if ctx.speculative() && violate_at.contains(&i) {
            bytes[0] ^= 0xFF; // stale value speculation would produce
        }
        TaskOutput { bytes, work: i + 1 }
    }
}

/// A body that emits each task's index.
fn tag(task: TaskId, _: &TaskCtx<'_>) -> TaskOutput {
    TaskOutput::bytes(u64::from(task.0).to_le_bytes().to_vec())
}

fn expected_stream(iters: u64) -> Vec<u8> {
    (0..iters).flat_map(u64::to_le_bytes).collect()
}

#[test]
fn pipeline_output_matches_sequential_order() {
    let report = run(ExecConfig::default(), 50, &[], 4, tagging_body(vec![])).unwrap();
    assert_eq!(report.output, expected_stream(50));
    assert_eq!(report.tasks_committed, 50);
    assert_eq!(report.attempts, 50);
    assert_eq!(report.squashes, 0);
    assert_eq!(report.violations, 0);
    assert_eq!(report.speculations_survived, 49);
}

#[test]
fn violated_speculation_squashes_and_reexecutes() {
    let violate = vec![3, 7, 20];
    let report = run(
        ExecConfig::default(),
        30,
        &violate,
        4,
        tagging_body(violate.clone()),
    )
    .unwrap();
    // Rollback is load-bearing: the speculative attempts wrote corrupt
    // bytes, so the stream is clean only if each violation squashed and
    // re-executed exactly once.
    assert_eq!(report.output, expected_stream(30));
    assert_eq!(report.squashes, violate.len() as u64);
    assert_eq!(report.violations, violate.len() as u64);
    assert_eq!(report.speculations_survived, 29 - violate.len() as u64);
    assert_eq!(report.attempts, 30 + violate.len() as u64);
}

#[test]
fn single_core_plan_still_completes() {
    let report = run(ExecConfig::default(), 20, &[5], 1, tagging_body(vec![5])).unwrap();
    assert_eq!(report.output, expected_stream(20));
    assert_eq!(report.threads(), 1); // one seat, on core 0
}

/// The first commit's bytes become the stream, not a copy of them: a
/// one-task run reports the very buffer its body returned, whether the
/// task commits from the frontier or from the sequential fallback.
#[test]
fn the_first_commit_moves_its_bytes_into_the_stream() {
    let fallback = ExecConfig::default()
        .with_faults(FaultPlan::none().with_forced(0, 0, FaultKind::WorkerPanic))
        .with_retry_budget(0);
    for (config, falls_back) in [(ExecConfig::default(), false), (fallback, true)] {
        let returned = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&returned);
        let body = move |_: TaskId, _: &TaskCtx<'_>| {
            let bytes = vec![7u8; 4096];
            r.store(bytes.as_ptr() as usize, Ordering::Relaxed);
            TaskOutput::bytes(bytes)
        };
        let (report, _) = run_versioned(config, 1, 1, body);
        assert_eq!(report.fallback_activated, falls_back);
        assert_eq!(report.output, vec![7; 4096]);
        let at = report.output.as_ptr() as usize;
        assert_eq!(at, returned.load(Ordering::Relaxed), "moved, not copied");
    }
}

#[test]
fn tiny_queues_apply_backpressure_without_deadlock() {
    let config = ExecConfig::with_queue_capacity(1);
    let report = run(
        config,
        200,
        &[17, 90, 91],
        4,
        tagging_body(vec![17, 90, 91]),
    )
    .unwrap();
    assert_eq!(report.output, expected_stream(200));
    assert_eq!(report.squashes, 3);
}

#[test]
fn empty_graph_commits_nothing() {
    let report = run(ExecConfig::default(), 0, &[], 4, tagging_body(vec![])).unwrap();
    assert!(report.output.is_empty());
    assert_eq!(report.tasks_committed, 0);
}

#[test]
fn repeated_runs_are_deterministic() {
    let violate = vec![1, 4, 11, 12];
    let once = || {
        run(
            ExecConfig::default(),
            60,
            &violate,
            8,
            tagging_body(violate.clone()),
        )
        .unwrap()
    };
    let first = once();
    for _ in 0..5 {
        let again = once();
        assert_eq!(again.output, first.output);
        assert_eq!(again.squashes, first.squashes);
        assert_eq!(again.violations, first.violations);
        assert_eq!(again.work, first.work);
    }
}

// ---------------------------------------------------------------------
// Fault injection and supervised recovery.
// ---------------------------------------------------------------------

/// Runs the canonical graph under `config` and asserts the output is
/// still byte-identical to sequential; returns the report.
fn run_faulted(iters: u64, violate: &[u64], config: ExecConfig) -> NativeReport {
    let report = run(config, iters, violate, 4, tagging_body(violate.to_vec()))
        .expect("recoverable faults never abort the run");
    assert_eq!(
        report.output,
        expected_stream(iters),
        "output must stay byte-identical to sequential under faults"
    );
    assert_eq!(report.tasks_committed, iters);
    report
}

#[test]
fn injected_worker_panic_is_recovered() {
    let config = ExecConfig::default().with_faults(FaultPlan::none().with_forced(
        5,
        0,
        FaultKind::WorkerPanic,
    ));
    let report = run_faulted(20, &[], config);
    assert_eq!(report.recovery.panics_recovered, 1);
    assert!(!report.fallback_activated);
    // The panicked attempt costs exactly one extra dispatch.
    assert_eq!(report.attempts, 20 + 1);
}

#[test]
fn injected_stall_is_absorbed_within_the_deadline() {
    let config = ExecConfig::default()
        .with_faults(
            FaultPlan::none()
                .with_forced(5, 0, FaultKind::StageStall)
                .with_stall_duration(Duration::from_millis(5)),
        )
        .with_retry_budget(0);
    let report = run_faulted(20, &[], config);
    assert_eq!(report.recovery.stalls_absorbed, 1);
    assert_eq!(report.watchdog_trips, 0);
    assert!(
        !report.fallback_activated,
        "a finished stall costs no retry"
    );
    assert_eq!(report.attempts, 20);
}

thread_local! {
    /// Set on a pool worker once it has begun its first body.
    static SLOWED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `body`, after holding the first `held` pool workers to run one,
/// on their first body, for `hold(rank)`: `rank` counts the workers
/// from 0 in the order they began. The caller runs no body until `held`
/// workers have begun (or two seconds passed), so the held tasks are the
/// pool's whichever tasks they are, and what the caller can reach it
/// runs and then waits. Also returns the count of workers that began.
fn hold_workers(
    held: usize,
    hold: impl Fn(usize) -> Duration + Send + Sync + 'static,
    body: impl NativeBody + 'static,
) -> (impl NativeBody + 'static, Arc<AtomicUsize>) {
    let begun = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&begun);
    let wrapped = move |task: TaskId, ctx: &TaskCtx<'_>| {
        if !on_pool_worker() {
            wait_until(|| seen.load(Ordering::SeqCst) >= held);
        } else if !SLOWED.with(|s| s.replace(true)) {
            let rank = seen.fetch_add(1, Ordering::SeqCst);
            if rank < held {
                std::thread::sleep(hold(rank));
            }
        }
        body.run(task, ctx)
    };
    (wrapped, begun)
}

#[test]
fn watchdog_trips_on_a_wedged_stage_and_falls_back() {
    // Every first attempt runs behind an injected stall of three
    // watchdog deadlines, and a pool worker's first task then sleeps for
    // ten more: the pipeline wedges at the commit frontier, the caller
    // runs what it can reach (three stalls at most, one task being the
    // held worker's), and idle, it must degrade to sequential execution
    // — with the output still byte-identical. Every task either commits
    // a stalled first attempt or runs in the fallback.
    let deadline = Duration::from_millis(60);
    let iters = 4;
    let (body, begun) = hold_workers(1, move |_| 10 * deadline, tagging_body(vec![]));
    let faults = (0..iters as u32).fold(
        FaultPlan::none().with_stall_duration(3 * deadline),
        |faults, task| faults.with_forced(task, 0, FaultKind::StageStall),
    );
    let config = ExecConfig::default()
        .with_faults(faults)
        .with_watchdog_deadline(deadline);
    let report = run(config, iters, &[], 4, body).expect("recoverable faults never abort the run");
    assert!(begun.load(Ordering::SeqCst) >= 1, "a worker was held");
    assert_eq!(report.output, expected_stream(iters));
    assert_eq!(report.tasks_committed, iters);
    assert!(report.watchdog_trips >= 1);
    assert!(report.fallback_activated);
    assert!(report.recovery.fallback_tasks > 0);
    assert_eq!(
        report.recovery.stalls_absorbed + report.recovery.fallback_tasks,
        iters
    );
}

#[test]
fn a_clean_job_after_a_fallen_back_one_commits_only_its_own() {
    // Job 1 falls back on the watchdog while a pool worker is held in
    // one of its bodies, so it ends with a straggler still running. Job
    // 2 runs on the same engine; midway, it lets the straggler go, which
    // publishes into job 1's closed board and then serves job 2. Job 2
    // commits its own bytes, and nothing of job 1 reaches its report or
    // its timeline.
    let held = Arc::new(AtomicBool::new(false));
    let released = Arc::new(AtomicBool::new(false));
    let returned = Arc::new(AtomicBool::new(false));
    let first = {
        let (held, released, returned) = (held.clone(), released.clone(), returned.clone());
        let body = tagging_body(vec![]);
        move |task: TaskId, ctx: &TaskCtx<'_>| {
            if !on_pool_worker() {
                wait_until(|| held.load(Ordering::SeqCst));
            } else if !held.swap(true, Ordering::SeqCst) {
                let since = Instant::now();
                while !released.load(Ordering::SeqCst) && since.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                returned.store(true, Ordering::SeqCst);
            }
            body.run(task, ctx)
        }
    };
    let second = {
        let (released, returned) = (released.clone(), returned.clone());
        let body = tagging_body(vec![]);
        move |task: TaskId, ctx: &TaskCtx<'_>| {
            match task.0 {
                8 => released.store(true, Ordering::SeqCst),
                40 => wait_until(|| returned.load(Ordering::SeqCst)),
                _ => {}
            }
            body.run(task, ctx)
        }
    };
    let engine = Engine::new(EngineConfig::with_workers(3));
    let spec = |iters: u64, body: Arc<dyn NativeBody>, config: ExecConfig| JobSpec {
        tasks: iters as usize,
        seats: NonZeroUsize::new(4).unwrap(),
        body,
        mode: JobMode::Replay(speculative(iters, &[])),
        config,
    };
    let wedged = ExecConfig::default().with_watchdog_deadline(Duration::from_millis(60));
    let one = engine.run(&spec(4, Arc::new(first), wedged)).unwrap();
    assert!(held.load(Ordering::SeqCst), "a worker was held");
    assert!(one.fallback_activated && one.watchdog_trips >= 1);
    assert_eq!(one.output, expected_stream(4));
    assert!(
        !returned.load(Ordering::SeqCst),
        "the straggler outlives its job"
    );

    let iters = 64;
    let traced = ExecConfig::default().with_tracing(true);
    let two = engine.run(&spec(iters, Arc::new(second), traced)).unwrap();
    assert!(
        returned.load(Ordering::SeqCst),
        "the straggler went mid-job"
    );
    assert_ne!(two.job, one.job);
    assert_eq!(two.output, expected_stream(iters));
    assert_eq!((two.tasks_committed, two.attempts), (iters, iters));
    assert!(!two.fallback_activated);
    assert_eq!(two.watchdog_trips, 0);
    assert_eq!(two.recovery, RecoveryCounts::default());
    let served: u64 = two.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(served, two.attempts, "no completion of job 1 is booked");
    let timeline = two.timeline.as_ref().expect("tracing was on");
    timeline.validate().expect("a well-formed timeline");
    assert!(timeline.events().iter().all(|e| e.job == two.job));
    assert_eq!(timeline.commit_order().len(), iters as usize);
}

#[test]
fn budget_zero_degrades_to_sequential_fallback_instead_of_aborting() {
    let config = ExecConfig::default()
        .with_faults(FaultPlan::none().with_forced(5, 0, FaultKind::WorkerPanic))
        .with_retry_budget(0);
    let report = run_faulted(20, &[], config);
    assert!(report.fallback_activated);
    assert_eq!(report.recovery.panics_recovered, 1);
    // Tasks 0..=4 committed pipelined (the frontier stood at task 5
    // when the budget ran out); 5.. ran sequentially.
    assert_eq!(report.recovery.fallback_tasks, 20 - 5);
    assert_eq!(report.watchdog_trips, 0);
}

#[test]
fn real_body_panic_is_squashed_and_replayed() {
    let body = move |task: TaskId, ctx: &TaskCtx<'_>| {
        if task.0 == 7 && ctx.attempt == 0 {
            panic!("flaky body");
        }
        tag(task, ctx)
    };
    let report = run(ExecConfig::default(), 20, &[], 4, body).unwrap();
    assert_eq!(report.output, expected_stream(20));
    assert_eq!(report.recovery.panics_recovered, 1);
    assert!(!report.fallback_activated);
}

#[test]
fn unreplayable_body_panic_is_a_typed_error() {
    // A body that panics on *every* attempt of one task: the budget
    // exhausts, the fallback re-runs it sequentially, and that panic is
    // unrecoverable — surfaced as ExecError::TaskFailed, not a crash.
    let body = move |task: TaskId, _: &TaskCtx<'_>| -> TaskOutput {
        if task.0 == 2 {
            panic!("permanently broken body");
        }
        TaskOutput::empty()
    };
    let err = run(ExecConfig::default().with_retry_budget(1), 8, &[], 4, body).unwrap_err();
    assert_eq!(err, ExecError::TaskFailed { task: TaskId(2) });
}

#[test]
fn seeded_chaos_is_deterministic_and_matches_the_predictor() {
    let violate = vec![3, 9];
    let iters = 120u64;
    let faults = FaultPlan::seeded(7);
    let config = ExecConfig::default().with_faults(faults.clone());
    let [a, b] = [config.clone(), config]
        .map(|config| run(config, iters, &violate, 4, tagging_body(violate.clone())).unwrap());
    assert_eq!(a.output, b.output);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.squashes, b.squashes);
    assert_eq!(a.violations, b.violations);
    assert!(!a.fallback_activated, "seed 7 must not exhaust budget 3");
    assert_eq!(a.output, expected_stream(iters));
    assert!(a.recovery.panics_recovered > 0);

    // The pure predictor replays the frontier protocol exactly.
    let predicted = predict_recovery(&speculative(iters, &violate), &faults, 3);
    assert_eq!(predicted.recovery.fallback_tasks, 0);
    assert_eq!(a.recovery, predicted.recovery);
    assert_eq!(a.attempts, predicted.attempts);
    assert_eq!(a.squashes, predicted.squashes);
    assert_eq!(a.violations, predicted.violations);
    assert_eq!(a.speculations_survived, predicted.speculations_survived);
}

#[test]
fn an_exhausted_misspeculated_task_keeps_its_squash_in_the_prediction() {
    // Task 5 misspeculates on attempt 0 and its replay panics past a
    // budget of 0: the squash and its violation are tallied before the
    // sequential fallback freezes the speculation counters.
    let violate = vec![3, 5];
    let faults = FaultPlan::none().with_forced(5, 1, FaultKind::WorkerPanic);
    let config = ExecConfig::default()
        .with_faults(faults.clone())
        .with_retry_budget(0);
    let report = run_faulted(20, &violate, config);
    assert!(report.fallback_activated);
    let predicted = predict_recovery(&speculative(20, &violate), &faults, 0);
    assert_eq!((predicted.squashes, predicted.violations), (2, 2));
    assert_eq!(predicted.recovery.fallback_tasks, 20 - 5);
    assert_eq!(report.recovery, predicted.recovery);
    assert_eq!(report.attempts, predicted.attempts);
    assert_eq!(report.squashes, predicted.squashes);
    assert_eq!(report.violations, predicted.violations);
    assert_eq!(
        report.speculations_survived,
        predicted.speculations_survived
    );
}

#[test]
fn zero_capacity_clamps_to_one_and_both_drain_a_parallel_stage() {
    // `with_queue_capacity(0)` is documented to clamp to 1: a zero-
    // capacity queue could never transfer an item under the dispatcher's
    // try-send protocol. Pin the clamp and prove capacities 0 and 1
    // behave identically through a Parallel stage with squashes in
    // flight.
    let zero = ExecConfig::with_queue_capacity(0);
    assert_eq!(zero.queue_capacity, 1, "capacity 0 must clamp to 1");
    let one = ExecConfig::with_queue_capacity(1);
    assert_eq!(one.queue_capacity, 1);

    let violate = vec![2, 9];
    let [r0, r1] = [zero, one]
        .map(|config| run(config, 30, &violate, 4, tagging_body(violate.clone())).unwrap());
    assert_eq!(r0.output, expected_stream(30));
    assert_eq!(r0.output, r1.output);
    assert_eq!(r0.squashes, r1.squashes);
    assert_eq!(r0.attempts, r1.attempts);
    assert_eq!(r0.work, r1.work);
}

// --- structured tracing ----------------------------------------------

#[test]
fn untraced_runs_carry_no_timeline() {
    let report = run(ExecConfig::default(), 10, &[], 4, tagging_body(vec![])).unwrap();
    assert!(report.timeline.is_none(), "tracing is off by default");
}

#[test]
fn traced_run_yields_a_well_formed_timeline() {
    let violate = vec![3, 11];
    let report = run(
        ExecConfig::default().with_tracing(true),
        25,
        &violate,
        4,
        tagging_body(violate.clone()),
    )
    .unwrap();
    assert_eq!(report.output, expected_stream(25));
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline.validate().expect("native traces are well-formed");
    assert_eq!(timeline.unit(), TimeUnit::Nanos);
    assert_eq!(timeline.stage_count(), 1);
    // Commits are the sequential order, one per task.
    let order = timeline.commit_order();
    assert_eq!(order.len(), 25);
    assert!(order.iter().enumerate().all(|(i, t)| t.0 as usize == i));
    // Event tallies line up with the report's counters.
    let squash_events = timeline
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Squash { .. }))
        .count() as u64;
    assert_eq!(squash_events, report.squashes);
    let metrics = timeline.stage_metrics();
    assert_eq!(metrics.len(), 1);
    let attempts: u64 = metrics.iter().map(|m| m.attempts).sum();
    assert_eq!(attempts, report.attempts);
    let committed: u64 = metrics.iter().map(|m| m.committed).sum();
    assert_eq!(committed, report.tasks_committed);
    // The stage carries the two squashed replays on top of one attempt
    // per task. (Not a wall-clock comparison: these bodies run in
    // nanoseconds, so real service times are scheduler noise.)
    assert_eq!(metrics[0].committed, 25);
    assert_eq!(metrics[0].attempts, 25 + violate.len() as u64);
    // The critical path is non-trivial.
    let cp = timeline.critical_path();
    assert!(cp.length > 0);
    assert!(!cp.tasks.is_empty());
    // The Chrome export wraps every slice.
    let json = timeline.to_chrome_json(&["tls".into()]);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("tls t4#0"));
}

#[test]
fn traced_chaos_run_still_validates_and_commits_in_order() {
    let config = ExecConfig::default()
        .with_faults(FaultPlan::seeded(7))
        .with_tracing(true);
    let report = run_faulted(120, &[4, 19], config);
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline
        .validate()
        .expect("chaos traces are well-formed too");
    assert_eq!(timeline.commit_order().len(), 120);
}

#[test]
fn traced_fallback_commits_carry_the_fallback_attempt() {
    let config = ExecConfig::default()
        .with_faults(FaultPlan::none().with_forced(5, 0, FaultKind::WorkerPanic))
        .with_retry_budget(0)
        .with_tracing(true);
    let report = run_faulted(20, &[], config);
    assert!(report.fallback_activated);
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline
        .validate()
        .expect("fallback traces are well-formed");
    let fallback_commits = timeline
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Commit { attempt, .. } if attempt == FALLBACK_ATTEMPT))
        .count() as u64;
    assert_eq!(fallback_commits, report.recovery.fallback_tasks);
    assert!(timeline
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::FallbackActivated { .. })));
}

/// A body that emits one placeholder byte per task — a wrong one on a
/// speculative task of the iterations in `violate_at` — and whose commit
/// stamps it with the number of commits before it, logging the task.
struct Stamping {
    violate_at: Vec<u64>,
    log: Arc<Mutex<Vec<u32>>>,
}

impl NativeBody for Stamping {
    fn run(&self, task: TaskId, ctx: &TaskCtx<'_>) -> TaskOutput {
        let stale = ctx.speculative() && self.violate_at.contains(&u64::from(task.0));
        TaskOutput::bytes(vec![if stale { 0xEE } else { 0xFF }])
    }

    fn commit(&self, task: TaskId, bytes: &mut [u8]) {
        let mut log = self.log.lock().unwrap();
        assert_eq!(bytes, [0xFF], "task {}: a squashed attempt's bytes", task.0);
        bytes[0] = log.len() as u8;
        log.push(task.0);
    }
}

/// The commit hook runs once per task, in task order, on the committed
/// attempt's bytes in the stream — whichever path commits it: the batch
/// drain past squashed attempts, on four seats or one, and the fallback
/// after a panic at budget 0.
#[test]
fn the_commit_hook_finishes_every_task_once_in_order() {
    let iters = 30u64;
    let violated = vec![3, 4, 17];
    let panic = ExecConfig::default()
        .with_faults(FaultPlan::none().with_forced(5, 0, FaultKind::WorkerPanic))
        .with_retry_budget(0);
    let cases = [
        ("drain", ExecConfig::default(), 4),
        ("one seat", ExecConfig::default(), 1),
        ("fallback", panic, 4),
    ];
    for (path, config, seats) in cases {
        let log = Arc::new(Mutex::new(Vec::new()));
        let body = Stamping {
            violate_at: violated.clone(),
            log: Arc::clone(&log),
        };
        let report = run(config, iters, &violated, seats, body).unwrap();
        let tasks = iters as u32;
        assert_eq!(
            *log.lock().unwrap(),
            (0..tasks).collect::<Vec<_>>(),
            "{path}"
        );
        let stamps: Vec<u8> = (0..tasks as u8).collect();
        assert_eq!(report.output, stamps, "{path}");
        match path {
            "drain" => assert_eq!(report.squashes, violated.len() as u64),
            "one seat" => {
                assert!(!report.fallback_activated, "{path}");
                assert_eq!(report.squashes, violated.len() as u64);
            }
            _ => assert!(report.fallback_activated, "{path}"),
        }
    }
}

// --- versioned-memory runs -------------------------------------------

/// A single-stage TLS loop over a shared counter: each task reads the
/// counter through its memory version, increments it, and emits the
/// value it observed. Sequentially, task `i` observes `i` — so the
/// committed output stream pins both the byte-identity guarantee and
/// the substrate's conflict detection (a stale racing read that
/// escaped squashing would emit the wrong tag).
fn counter_body() -> impl NativeBody {
    |task: TaskId, ctx: &TaskCtx<'_>| {
        let value = if let Some(m) = ctx.mem {
            let v = VersionId(u64::from(task.0));
            let got = m.read(v, Addr(0));
            m.write(v, Addr(0), got + 1);
            got
        } else {
            // Sequential oracle / fallback path: task `i` observes the
            // `i` increments before it, without touching the substrate.
            u64::from(task.0)
        };
        TaskOutput::bytes(value.to_le_bytes().to_vec())
    }
}

#[test]
fn versioned_run_commits_sequential_output_and_memory_state() {
    let iters = 40;
    let (report, mem) = run_versioned(
        ExecConfig::default().with_retry_budget(0),
        iters,
        4,
        counter_body(),
    );
    assert_eq!(report.output, expected_stream(iters));
    assert_eq!(report.tasks_committed, iters);
    // Every task's version committed and published: the counter holds
    // the full tally, and no version is left open.
    assert_eq!(mem.committed(Addr(0)), Some(iters));
    assert_eq!(mem.active_count(), 0);
    let stats = report.mem.expect("versioned runs report memory stats");
    assert_eq!(stats.commits, iters);
    // Conflict counts are timing-dependent, but every substrate
    // violation surfaces as exactly one frontier squash.
    assert_eq!(report.squashes, stats.violations);
    assert_eq!(report.attempts, iters + report.squashes);
    assert!(
        !report.fallback_activated,
        "conflict replays are never charged"
    );
}

/// A task whose body panics publishes none of its stores: in a one-seat
/// counter loop, task 5 writes `got + 100` and then panics on every
/// attempt that has a version. Each panicked version is rolled back, and
/// once the retry budget is spent the run degrades to the sequential
/// fallback, which runs the rest without the substrate. The stream is the
/// sequential one, the counter holds the five increments before task 5,
/// and no version is left open.
#[test]
fn a_panicking_degraded_task_publishes_nothing() {
    let body = |task: TaskId, ctx: &TaskCtx<'_>| {
        let Some(m) = ctx.mem else {
            return tag(task, ctx);
        };
        let v = VersionId(u64::from(task.0));
        let got = m.read(v, Addr(0));
        if task.0 == 5 {
            m.write(v, Addr(0), got + 100);
            panic!("the body fails after its store");
        }
        m.write(v, Addr(0), got + 1);
        TaskOutput::bytes(got.to_le_bytes().to_vec())
    };
    let (report, mem) = run_versioned(ExecConfig::default(), 10, 1, body);
    assert_eq!(report.output, expected_stream(10));
    assert!(report.fallback_activated, "the budget is spent on task 5");
    assert_eq!(mem.committed(Addr(0)), Some(5));
    assert_eq!(mem.active_count(), 0);
}

#[test]
fn versioned_runs_ignore_recorded_spec_deps() {
    // Every task but the first recorded a *violated* dependence — a
    // replay job squashes all of them. A versioned job carries no
    // recording: the bodies never touch memory, so the substrate sees no
    // conflicts and the versioned frontier must squash nothing.
    let iters = 20;
    let violate: Vec<u64> = (1..iters).collect();
    let (report, _mem) = run_versioned(ExecConfig::default(), iters, 4, tag);
    assert_eq!(report.output, expected_stream(iters));
    assert_eq!(report.squashes, 0);
    assert_eq!(report.violations, 0);
    assert_eq!(report.attempts, iters);
    // The same job as a replay, for contrast, squashes every violation.
    let replay = run(ExecConfig::default(), iters, &violate, 4, tag).unwrap();
    assert_eq!(replay.squashes, iters - 1);
}

/// The critical path chains only what the timeline shows serialized. A
/// versioned run of a graph whose every recorded dependence is violated
/// squashes nothing, so its path is one task, no longer than the run;
/// the same graph as a replay job squashes every task after the first,
/// and each squash chains the task after its predecessor.
#[test]
fn critical_path_chains_only_squashed_tasks() {
    let iters = 20;
    let violate: Vec<u64> = (1..iters).collect();
    let traced = ExecConfig::default().with_tracing(true);
    let (report, _mem) = run_versioned(traced.clone(), iters, 4, tag);
    assert_eq!(report.squashes, 0);
    let timeline = report.timeline.as_ref().expect("tracing was on");
    let cp = timeline.critical_path();
    assert_eq!(cp.tasks.len(), 1, "{cp:?}");
    assert!(
        cp.length <= timeline.span(),
        "{cp:?} beyond {}",
        timeline.span()
    );
    let replay = run(traced, iters, &violate, 4, tag).unwrap();
    assert_eq!(replay.squashes, iters - 1);
    let cp = replay
        .timeline
        .as_ref()
        .expect("tracing was on")
        .critical_path();
    let chain: Vec<TaskId> = (0..iters as u32).map(TaskId).collect();
    assert_eq!(cp.tasks, chain);
}

/// What the substrate counts agrees with the frontier's report and the
/// timeline: one version opened per attempt, one committed per task, and
/// every substrate violation a frontier squash with the `memory-conflict`
/// reason — the only reason a fault-free versioned run shows.
#[test]
fn traced_versioned_run_agrees_with_mem_stats() {
    let iters = 25;
    let (report, _mem) = run_versioned(
        ExecConfig::default().with_tracing(true),
        iters,
        4,
        counter_body(),
    );
    assert_eq!(report.output, expected_stream(iters));
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline
        .validate()
        .expect("versioned traces are well-formed");
    let stats = report.mem.expect("versioned runs report memory stats");
    assert_eq!(stats.begins, report.attempts);
    assert_eq!(stats.commits, report.tasks_committed);
    assert_eq!(stats.violations, report.squashes);
    let squashes = |pred: &dyn Fn(SquashReason) -> bool| {
        timeline
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Squash { reason, .. } if pred(reason)))
            .count() as u64
    };
    assert_eq!(
        squashes(&|r| r == SquashReason::MemoryConflict),
        stats.violations
    );
    assert_eq!(squashes(&|_| true), report.squashes);
}

#[test]
fn versioned_chaos_run_still_commits_sequential_output() {
    // Injected panics and stalls land among attempts that hold open
    // memory versions; every recovery path must roll the version back
    // before replaying, or the replay's `begin` would panic the
    // substrate.
    for seed in [7, 42] {
        let iters = 30;
        let config = ExecConfig::default()
            .with_faults(FaultPlan::seeded(seed))
            .with_retry_budget(4)
            .with_tracing(true);
        let (report, mem) = run_versioned(config, iters, 4, counter_body());
        assert_eq!(report.output, expected_stream(iters), "seed {seed}");
        assert_eq!(report.tasks_committed, iters);
        report
            .timeline
            .as_ref()
            .expect("tracing was on")
            .validate()
            .expect("versioned chaos traces are well-formed");
        if !report.fallback_activated {
            assert_eq!(mem.committed(Addr(0)), Some(iters), "seed {seed}");
            assert_eq!(mem.active_count(), 0, "seed {seed}");
        }
    }
}

#[test]
fn a_body_panic_after_a_write_rolls_its_version_back() {
    // An injected panic dies before its version opens; a real one can
    // leave a write behind, which later tasks may already have read by
    // forwarding. The panic rung must roll the version back (revoking
    // those forwards) before the replay opens it again.
    let iters = 40;
    let mid = iters / 2;
    let body = move |task: TaskId, ctx: &TaskCtx<'_>| {
        let value = if let Some(m) = ctx.mem {
            let v = VersionId(u64::from(task.0));
            let got = m.read(v, Addr(0));
            m.write(v, Addr(0), got + 1);
            if u64::from(task.0) == mid && ctx.attempt == 0 {
                panic!("body fails after writing its slot");
            }
            got
        } else {
            u64::from(task.0)
        };
        TaskOutput::bytes(value.to_le_bytes().to_vec())
    };
    for seats in [2, 4] {
        let (report, mem) = run_versioned(ExecConfig::default(), iters, seats, body);
        assert_eq!(report.output, expected_stream(iters));
        assert_eq!(mem.committed(Addr(0)), Some(iters));
        assert_eq!(mem.active_count(), 0);
        assert_eq!(report.recovery.panics_recovered, 1);
    }
}

// --- the board: claim cursors, batched wakes, ticket quantum ------------

use super::stage::Board;

/// Whether the calling thread is one of an engine's pool workers (and
/// not the thread a job is run from).
fn on_pool_worker() -> bool {
    let thread = std::thread::current();
    thread
        .name()
        .is_some_and(|n| n.starts_with("seqpar-engine-"))
}

/// Yields until `ready`, how a body waits for another body's flag. The
/// two seconds are a backstop: a run that cannot raise the flag fails
/// its assertions instead of hanging.
fn wait_until(ready: impl Fn() -> bool) {
    let since = Instant::now();
    while !ready() && since.elapsed() < Duration::from_secs(2) {
        std::thread::yield_now();
    }
}

/// The lane window and batch threshold of a one-seat `tls(1)` plan at
/// the default queue capacity: 32 + 1 seat, and half of that.
const WINDOW: u64 = 33;
const WAKE_AT: u64 = WINDOW / 2;

/// Runs the counter loop for `iters` iterations under `plan` and asserts
/// the run is prompt, trip-free and byte-identical: nobody watches the ring,
/// so nothing but a runner's own look after publishing, and the turn it
/// tries for when its lane runs dry, gets a completion absorbed.
/// `versioned` threads the counter through the substrate (conflict
/// replays then make the attempt count a matter of timing).
fn run_prompt(seats: usize, iters: u64, faults: FaultPlan, versioned: bool) -> NativeReport {
    let config = ExecConfig::default().with_faults(faults);
    let deadline = config.watchdog_deadline;
    let started = Instant::now();
    let report = if versioned {
        let (report, mem) = run_versioned(config, iters, seats, counter_body());
        assert_eq!(mem.committed(Addr(0)), Some(iters));
        report
    } else {
        run_on(unrecorded(), config, iters, seats, counter_body()).unwrap()
    };
    assert!(
        started.elapsed() < deadline / 4,
        "{iters} tasks took {:?}: a turn was lost",
        started.elapsed()
    );
    assert_eq!(report.output, expected_stream(iters), "{iters} tasks");
    assert_eq!(report.watchdog_trips, 0, "{iters} tasks");
    assert!(!report.fallback_activated, "{iters} tasks");
    report
}

#[test]
fn eight_threads_claim_every_index_once_and_none_past_the_limit() {
    const N: usize = 20_000;
    let board = Board::new(N, 8, 32);
    // What the raiser has decided to publish, stored *before* the raise:
    // a claim of index `i` must find `i < published`.
    let published = AtomicUsize::new(0);
    let claimed = AtomicUsize::new(0);
    let start = Barrier::new(9);
    let mut all: Vec<u32> = std::thread::scope(|scope| {
        let claimers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    start.wait();
                    while claimed.load(Ordering::SeqCst) < N {
                        let Some((item, _)) = board.claim() else {
                            std::hint::spin_loop();
                            continue;
                        };
                        assert_eq!(item.attempt, 0);
                        assert!(
                            (item.task as usize) < published.load(Ordering::SeqCst),
                            "index {} claimed past the limit",
                            item.task
                        );
                        claimed.fetch_add(1, Ordering::SeqCst);
                        mine.push(item.task);
                    }
                    mine
                })
            })
            .collect();
        start.wait();
        let mut limit = 0;
        while limit < N {
            // Uneven steps, sometimes outrunning the claimers and
            // sometimes starving them.
            limit = (limit + 1 + limit % 37).min(N);
            published.store(limit, Ordering::SeqCst);
            board.raise(limit);
            if limit % 5 == 0 {
                while claimed.load(Ordering::SeqCst) < limit {
                    std::hint::spin_loop();
                }
            }
        }
        claimers
            .into_iter()
            .flat_map(|c| c.join().expect("claimer panicked"))
            .collect()
    });
    all.sort_unstable();
    assert_eq!(all, (0..N as u32).collect::<Vec<_>>());
}

#[test]
fn no_wake_is_lost_at_the_tail_of_a_job() {
    // One task; one short of the batch threshold; exactly the
    // threshold; one more than the window. None of the first three ever
    // reaches half a window pending: only a runner running out of
    // claimable work gets their completions absorbed — the caller alone
    // on `tls(1)`, whichever of two runners parks last on `tls(2)`, and
    // of four on `tls(4)`.
    for seats in [1, 2, 4] {
        for iters in [1, WAKE_AT - 1, WAKE_AT, WINDOW + 1] {
            run_prompt(seats, iters, FaultPlan::none(), true);
        }
    }
}

#[test]
fn a_panicked_attempt_with_every_runner_parked_resumes_promptly() {
    // Task 0 and a task mid-window panic, and are squashed at the
    // commit point. Their replays go out through the requeue lane while
    // every runner has run on to the limit; the one whose turn squashed
    // them is on its way to parking its seat and must find them in its
    // last look at the lane, and a seat already parked must be handed
    // out again.
    let mid = (WAKE_AT + 3) as u32;
    let faults = FaultPlan::none()
        .with_forced(0, 0, FaultKind::WorkerPanic)
        .with_forced(mid, 0, FaultKind::WorkerPanic);
    for seats in [1, 2] {
        let report = run_prompt(seats, 3 * WINDOW, faults.clone(), false);
        assert_eq!(report.recovery.panics_recovered, 2);
        assert_eq!(report.attempts, 3 * WINDOW + 2);
        // Through the substrate conflict replays make the attempt count
        // a matter of timing, but an injected panic dies before its
        // version opens and a panicked completion goes to the frontier's
        // panic rung whatever else happened: both are recovered.
        let report = run_prompt(seats, 3 * WINDOW, faults.clone(), true);
        assert_eq!(report.recovery.panics_recovered, 2);
    }
}

#[test]
fn a_starved_stage_does_not_wait_for_half_a_window() {
    // Eight seats and a queue of one: a window of nine, a batch due at
    // four pending. Tasks 0 and 1 publish at once; tasks 2-8 block until
    // task 9 has *started* — which it only can once a turn absorbs
    // something and admits it. Seven runners end up blocked and the
    // eighth finds the lane empty with two completions pending, short
    // of the threshold, so nothing but the starvation rule (its seat is
    // parking) makes it take that turn.
    let iters = 64u64;
    let started = AtomicBool::new(false);
    let gave_up = Arc::new(AtomicBool::new(false));
    let timed_out = Arc::clone(&gave_up);
    let body = move |task: TaskId, ctx: &TaskCtx<'_>| {
        match task.0 {
            2..=8 => {
                let since = Instant::now();
                while !started.load(Ordering::SeqCst) {
                    if since.elapsed() > Duration::from_secs(10) {
                        timed_out.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            9 => started.store(true, Ordering::SeqCst),
            _ => {}
        }
        tag(task, ctx)
    };
    let report = run(ExecConfig::with_queue_capacity(1), iters, &[], 8, body).unwrap();
    assert!(
        !gave_up.load(Ordering::SeqCst),
        "task 9 was not admitted until half a window had completed"
    );
    assert_eq!(report.output, expected_stream(iters));
    assert_eq!(report.watchdog_trips, 0);
}

#[test]
fn a_plan_wider_than_its_runners_serves_every_seat_by_the_quantum() {
    // Three seats, two runners: the caller holds seat 0 and the one
    // pool worker the other two. Turns keep the lane fed, so the seat
    // the worker holds never runs dry: only the quantum — hand the
    // ticket on after a window of claims — brings the third seat to it
    // before the job is done. The caller runs at most `LEAD` tasks ahead
    // of the worker, so the job cannot finish on the caller while the
    // host keeps the worker off the CPU. The deadline is a backstop:
    // past it nobody waits, and the assertions fail instead.
    const TASKS: u64 = 4_000;
    const LEAD: u64 = 256;
    let on_worker = Arc::new(AtomicU64::new(0));
    let at_home = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = {
        let (on_worker, at_home) = (Arc::clone(&on_worker), Arc::clone(&at_home));
        move |task: TaskId, ctx: &TaskCtx<'_>| {
            if on_pool_worker() {
                on_worker.fetch_add(1, Ordering::SeqCst);
            } else {
                let ahead = at_home.fetch_add(1, Ordering::SeqCst);
                while on_worker.load(Ordering::SeqCst) + LEAD <= ahead && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            }
            std::hint::black_box((0..2_000u64).fold(u64::from(task.0), |x, y| x ^ (x << 7) ^ y));
            tag(task, ctx)
        }
    };
    let report = Engine::new(EngineConfig::with_workers(1))
        .run(&JobSpec {
            tasks: TASKS as usize,
            seats: NonZeroUsize::new(3).unwrap(),
            body: Arc::new(body),
            mode: unrecorded(),
            config: ExecConfig::default().with_tracing(true),
        })
        .unwrap();
    assert_eq!(report.output, expected_stream(TASKS));
    assert_eq!(report.watchdog_trips, 0);
    for core in 0..3 {
        let seat = report.workers.iter().find(|w| w.core == core);
        assert!(
            seat.is_some_and(|w| w.tasks > 0),
            "seat {core} served nothing: {:?}",
            report.workers
        );
    }
    let served: u64 = report.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(served, report.attempts, "every completion books its seat");
    // Round-robin, not a hand-over at the end: the worker went back and
    // forth between its two seats many times.
    let timeline = report.timeline.as_ref().expect("tracing was on");
    let pool_seats: Vec<usize> = timeline
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Dispatch { core, .. } if core > 0 => Some(core),
            _ => None,
        })
        .collect();
    let switches = pool_seats.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches >= 8,
        "only {switches} switches between seats 1 and 2"
    );
}

#[test]
fn the_caller_holds_a_seat_of_an_eight_seat_plan_on_seven_workers() {
    // A pool body does not finish before the caller has run one, so
    // seven workers cannot drain the job while the host keeps the caller
    // off the CPU. The deadline is a backstop: past it nobody waits, and
    // a caller that never ran a body fails the assertions instead of
    // hanging the run.
    const TASKS: u64 = 800;
    let caller = std::thread::current().id();
    let on_caller = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&on_caller);
    let deadline = Instant::now() + Duration::from_secs(2);
    let body = move |task: TaskId, ctx: &TaskCtx<'_>| {
        if std::thread::current().id() == caller {
            count.fetch_add(1, Ordering::SeqCst);
        } else {
            while count.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        std::hint::black_box((0..20_000u64).fold(u64::from(task.0), |x, y| x ^ (x << 7) ^ y));
        tag(task, ctx)
    };
    let report = run_on(unrecorded(), ExecConfig::default(), TASKS, 8, body).unwrap();
    assert_eq!(report.output, expected_stream(TASKS));
    assert_eq!(report.attempts, TASKS);
    // The first seat handed out goes home: the caller runs bodies, and
    // they are booked to a seat like anyone's.
    assert!(on_caller.load(Ordering::SeqCst) > 0);
    let first = report.workers.iter().find(|w| w.core == 0).expect("seat 0");
    assert!(first.tasks > 0);
    let served: u64 = report.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(served, report.attempts, "every completion books its seat");
}

#[test]
fn a_traced_one_seat_run_on_the_caller_alone_yields_a_full_timeline() {
    // The benchmark's traced path: `tls(1)`, so claim, body, publish and
    // commit all happen on the thread that called `run`, and the pool
    // is never started.
    let iters = 3 * WINDOW;
    let (report, _mem) = run_versioned(
        ExecConfig::default().with_tracing(true),
        iters,
        1,
        counter_body(),
    );
    assert_eq!(report.output, expected_stream(iters));
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline.validate().expect("a well-formed timeline");
    let metrics = timeline.stage_metrics();
    assert_eq!(metrics.len(), 1);
    assert_eq!(metrics[0].attempts, report.attempts);
    assert_eq!(metrics[0].committed, iters);
    let m = &metrics[0];
    assert!(!m.service.is_empty() && !m.queue_wait.is_empty() && !m.commit_latency.is_empty());
}

#[test]
fn an_engine_has_at_least_one_worker() {
    let engine = Engine::new(EngineConfig::with_workers(0));
    assert_eq!(engine.config().workers, 1);
}

/// `for_plan` counts the seats of the plan's stage, the caller being
/// the last.
#[test]
fn an_engine_for_a_plan_has_a_worker_per_core_but_one() {
    let workers = |plan: ExecutionPlan| EngineConfig::for_plan(&plan).workers;
    assert_eq!(workers(ExecutionPlan::tls(1)), 0);
    assert_eq!(workers(ExecutionPlan::tls(2)), 1);
    assert_eq!(workers(ExecutionPlan::tls(4)), 3);
    let serial = ExecutionPlan::new(vec![crate::plan::StageAssignment::serial(3)]);
    assert_eq!(workers(serial), 0);
}

#[test]
fn the_watchdog_counts_publications_not_wakes() {
    // Five pool workers each hold their first task for a different
    // multiple of half the deadline; the caller runs no body until all
    // five have begun, then runs the rest and has nothing left to do but
    // watch. Nothing it waits for wakes it — every task is admitted from
    // the start — but a publication comes every half deadline.
    const HELD: usize = 5;
    let deadline = Duration::from_millis(150);
    let iters = WAKE_AT - 4;
    let half = deadline / 2;
    let (slow, begun) = hold_workers(HELD, move |rank| half * (rank as u32 + 1), tag);
    let config = ExecConfig::default().with_watchdog_deadline(deadline);
    let report = run_on(unrecorded(), config.clone(), iters, HELD + 1, slow).unwrap();
    assert_eq!(
        begun.load(Ordering::SeqCst),
        HELD,
        "the caller was to be left idle"
    );
    assert!(report.wall > 2 * deadline);
    assert_eq!(report.watchdog_trips, 0, "a publishing job is not wedged");
    assert!(!report.fallback_activated);
    assert_eq!(report.output, expected_stream(iters));

    // Wedged: a worker holds its task past the deadline with nothing
    // else left to publish. A trip, the rest sequentially on the caller,
    // still the sequential stream.
    let (stalled, _) = hold_workers(1, move |_| deadline * 6, tag);
    let report = run_on(unrecorded(), config, iters, 2, stalled).unwrap();
    assert_eq!(report.watchdog_trips, 1);
    assert!(report.fallback_activated);
    assert_eq!(report.output, expected_stream(iters));
}

/// Squashes end to end. Tasks 4–7 read-modify-write one counter, every
/// other task a private address. They are made to race, by flags, not
/// by luck: task 4 holds its write back until tasks 5–7 have read the
/// counter, and they hold their completions back until it has written.
/// So the substrate squashes their versions while they run, the
/// frontier finds each one squashed when it gets there, and each goes
/// straight back in line — where a full lane window may keep it pending
/// a while. Every one must come back, and nothing else squashes.
#[test]
fn early_squashed_attempts_go_straight_back_in_line_and_all_come_back() {
    let (iters, quiet) = (64u64, 4u64);
    // Victims that have read, whether the squasher has written, and
    // victims that are done.
    let state = [const { AtomicUsize::new(0) }; 3];
    let body = move |task: TaskId, ctx: &TaskCtx<'_>| {
        let Some(m) = ctx.mem else {
            // Sequential oracle / fallback path.
            return tag(task, ctx);
        };
        let (i, v) = (u64::from(task.0), VersionId(u64::from(task.0)));
        if !(quiet..2 * quiet).contains(&i) {
            m.write(v, Addr(1000 + i), 1);
            return tag(task, ctx);
        }
        let got = m.read(v, Addr(0));
        let raced = ctx.attempt == 0;
        if raced && i == quiet {
            wait_until(|| state[0].load(Ordering::SeqCst) >= 3);
        } else if raced {
            state[0].fetch_add(1, Ordering::SeqCst);
            wait_until(|| state[1].load(Ordering::SeqCst) >= 1);
        }
        m.write(v, Addr(0), got + 1);
        if raced && i == quiet {
            // Last to publish: the frontier stays put until the
            // victims' completions are on the ring.
            state[1].store(1, Ordering::SeqCst);
            wait_until(|| state[2].load(Ordering::SeqCst) >= 3);
        } else if raced {
            state[2].fetch_add(1, Ordering::SeqCst);
        }
        TaskOutput::bytes((got + quiet).to_le_bytes().to_vec())
    };
    let (report, mem) = run_versioned(ExecConfig::default().with_tracing(true), iters, 4, body);
    assert_eq!(report.output, expected_stream(iters));
    assert_eq!(mem.committed(Addr(0)), Some(quiet));
    // The race squashes tasks 5-7, once each.
    assert_eq!((report.squashes, report.violations), (3, 3));
    assert_eq!(report.attempts, iters + 3);
    // A squashed attempt that never came back would wedge the frontier
    // until the watchdog fell back to sequential execution.
    assert_eq!(report.watchdog_trips, 0);
    assert!(!report.fallback_activated);
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline.validate().expect("well-formed timeline");
    // Every squashed attempt is followed by its replay, admitted as the
    // next attempt.
    let events = timeline.events();
    for (at, e) in events.iter().enumerate() {
        let TraceEventKind::Squash { task, attempt, .. } = e.kind else {
            continue;
        };
        let back = events[at..].iter().any(|later| match later.kind {
            TraceEventKind::QueuePush {
                task: t,
                attempt: a,
                ..
            } => (t, a) == (task, attempt + 1),
            _ => false,
        });
        assert!(back, "task {task} attempt {attempt} never came back");
    }
}

/// There is no runtime governor: `with_governor` returns the config it
/// is given, and a one-seat plan under it runs the board, the frontier
/// and the pipelined path like any other. Every task is queued once,
/// each replayed violation squashes and is queued again, and no report
/// carries governor counters.
#[test]
fn with_governor_changes_nothing_and_a_one_seat_plan_pipelines() {
    assert_eq!(
        ExecConfig::default().with_governor(GovernorConfig::default()),
        ExecConfig::default()
    );
    let iters = 3 * WINDOW;
    let violated: Vec<u64> = (1..iters).step_by(3).collect();
    let config = ExecConfig::default()
        .with_tracing(true)
        .with_governor(GovernorConfig::default());
    let report = run(config, iters, &violated, 1, tag).unwrap();
    assert_eq!(report.output, expected_stream(iters));
    assert_eq!(report.squashes, violated.len() as u64);
    assert_eq!(report.governor, None);
    let timeline = report.timeline.as_ref().expect("tracing was on");
    timeline
        .validate()
        .expect("a well-formed one-seat timeline");
    let mut pushed = vec![0; iters as usize];
    for e in timeline.events() {
        if let TraceEventKind::QueuePush {
            task, attempt: 0, ..
        } = e.kind
        {
            pushed[task as usize] += 1;
        }
    }
    assert!(pushed.iter().all(|&n| n == 1), "{pushed:?}");
}

// --- the turn protocol, enumerated ------------------------------------------
//
// A plain-state model of the five words the no-lost-turn arguments in
// `stage.rs` are about — `tail`, the slot tags, `absorbed`, `starved`,
// the frontier lock — plus one lane's claimable count and its parked
// seat. Two publishers make two publications each and one runner parks;
// every script is split at every access to a shared word, and every
// interleaving is walked (depth-first over distinct states, no
// sampling). A thread that stops stands for a runner that goes on to
// claim or park, so "pending but not due" is a legal place to stop;
// *due* with nobody left to take the turn is a lost turn, and so is a
// parked seat looking at claimable work.

/// The batch threshold of the model: with four publications, both
/// halves of the `due` rule get exercised.
const MODEL_WAKE_AT: u64 = 2;
const PARKER: usize = 2;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[rustfmt::skip]
enum Pc {
    #[default] Draw, Fill,                               // publish
    DueAbsorbed, DueTail, DueStarved, DueSlot, TryLock,  // take_turns
    Absorb, StoreAbsorbed, Raise, LoadStarved, ScanParked, Unlock, // a turn
    Next, Bump, LookAtLane, Park, Undo, Claim, Idle,     // park
}

/// One thread: where it is, the publications it has left, and its
/// locals (`head`: the sequence number drawn, then the `due` look's and
/// the turn's head; zeroed when dead, so equivalent states merge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct ModelThread {
    pc: Pc,
    left: u8,
    head: u64,
    pending: u64,
    took: bool,
}

#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Model {
    tail: u64,
    /// Bit `s`: the slot of sequence number `s` is filled and tagged.
    published: u64,
    absorbed: u64,
    starved: u64,
    locked: bool,
    /// The parker's lane: claimable attempts, and its seat in `parked`.
    claimable: u64,
    parked: bool,
    threads: [ModelThread; 3],
}

impl Model {
    fn due(&self, pending: u64) -> bool {
        pending >= MODEL_WAKE_AT || (pending > 0 && self.starved > 0)
    }

    /// Thread `t`'s next access to a shared word, one transition a
    /// line. `false`: it is idle. Without `recheck` a turn ends at its
    /// unlock — the bug the protocol's second look is there to prevent.
    #[rustfmt::skip]
    fn step(&mut self, t: usize, recheck: bool) -> bool {
        use Pc::*;
        let mut th = self.threads[t];
        let filled = self.published & (1 << th.head) != 0;
        let go = |yes: bool, then: Pc, otherwise: Pc| if yes { then } else { otherwise };
        th.pc = match th.pc {
            Idle          => return false,
            Draw          => { th.head = self.tail; self.tail += 1; Fill }
            Fill          => { self.published |= 1 << th.head; th.left -= 1; DueAbsorbed }
            DueAbsorbed   => { th.head = self.absorbed; DueTail }
            DueTail       => { th.pending = self.tail - th.head; DueStarved }
            DueStarved    => go(self.due(std::mem::take(&mut th.pending)), DueSlot, Next),
            DueSlot       => go(filled, TryLock, Next),
            TryLock       => if self.locked { Next } else { self.locked = true; th.head = self.absorbed; Absorb }
            Absorb        => if filled { th.head += 1; th.took = true; Absorb } else { StoreAbsorbed }
            StoreAbsorbed => { self.absorbed = th.head; Raise }
            Raise         => { self.claimable += u64::from(std::mem::take(&mut th.took)); LoadStarved }
            LoadStarved   => go(self.starved > 0, ScanParked, Unlock),
            // One step: the scan and `park`'s last look hold the same lock.
            // (Only another thread's turn finds the parker parked.)
            ScanParked    => {
                if self.parked && self.claimable > 0 {
                    (self.parked, self.starved, self.threads[PARKER].pc) = (false, self.starved - 1, Claim);
                }
                Unlock
            }
            Unlock        => { self.locked = false; go(recheck, DueAbsorbed, Next) }
            Next          => go(t == PARKER, Park, go(th.left > 0, Draw, Idle)),
            Bump          => { self.starved += 1; LookAtLane }
            LookAtLane    => go(self.claimable > 0, Undo, DueAbsorbed),
            Park          => if self.claimable > 0 { Undo } else { self.parked = true; Idle }
            Undo          => { self.starved -= 1; Claim }
            Claim         => { self.claimable -= 1; Idle }
        };
        if !matches!(th.pc, Fill | DueTail | DueStarved | DueSlot | TryLock | Absorb | StoreAbsorbed) {
            th.head = 0;
        }
        self.threads[t] = th;
        true
    }
}

fn explore(m: &Model, recheck: bool, seen: &mut HashSet<Model>, schedule: &mut Vec<usize>) {
    if !seen.insert(m.clone()) {
        return;
    }
    let mut idle = true;
    for t in 0..m.threads.len() {
        let mut next = m.clone();
        if next.step(t, recheck) {
            idle = false;
            schedule.push(t);
            explore(&next, recheck, seen, schedule);
            schedule.pop();
        }
    }
    let lost = m.due(m.tail - m.absorbed) || (m.parked && m.claimable > 0);
    assert!(
        !(idle && lost),
        "a turn was lost: every thread is idle in {m:?} after schedule {schedule:?}"
    );
}

fn explore_the_turn_protocol(recheck: bool) -> usize {
    let thread = |pc, left| ModelThread {
        pc,
        left,
        ..ModelThread::default()
    };
    let start = Model {
        threads: [
            thread(Pc::Draw, 2),
            thread(Pc::Draw, 2),
            thread(Pc::Bump, 0),
        ],
        ..Model::default()
    };
    let mut seen = HashSet::new();
    explore(&start, recheck, &mut seen, &mut Vec::new());
    seen.len()
}

#[test]
fn the_turn_protocol_loses_no_turn_in_any_interleaving() {
    let states = explore_the_turn_protocol(true);
    assert!(states > 1_000, "only {states} states: the model collapsed");
}

#[test]
#[should_panic(expected = "a turn was lost")]
fn the_turn_protocol_model_finds_the_turn_lost_without_the_recheck() {
    explore_the_turn_protocol(false);
}
