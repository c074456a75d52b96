//! Differential sim-vs-native harness — the headline test of the native
//! executor.
//!
//! The simulator and the native executor consume the same inputs (an
//! `ExecutionPlan` plus a `TaskGraph` derived from one recorded trace),
//! so they must agree wherever their semantics overlap. "The same"
//! means the graph that ran — the job's trace chunked at the grain the
//! job picked for the plan ([`ran`], or the `JobSpec`'s own `graph`) —
//! never a per-iteration graph re-derived from `job.trace()`:
//!
//! * the native output stream is byte-identical to the sequential run
//!   at every thread count (in-order commit restores program order), and
//! * the native misspeculation counters (violations, survived
//!   speculations, squashes) equal the simulator's for the same
//!   plan/trace — both are driven by the recorded dependence events,
//!   never by thread timing.
//!
//! The native side is every workload's `versioned_job`, run as a
//! *replay* ([`replay`]): the same `JobSpec` the benchmarks run, with
//! its substrate cleared so the recorded dependences, not real races,
//! decide what squashes.

use seqpar::IterationTrace;
use seqpar_bench::{simulate, PlanKind};
use seqpar_runtime::{
    predict_recovery, Engine, EngineConfig, ExecConfig, ExecutionPlan, FaultKind, FaultPlan,
    JobSpec, NativeBody, NativeReport, SimConfig, Simulator, TaskCtx, TaskId, TaskOutput,
};
use seqpar_workloads::{all_workloads, workload_by_name, InputSize, VersionedJob};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Thread counts exercised per workload (the issue demands at least 3).
const THREADS: &[usize] = &[1, 2, 4, 8];

fn jobs() -> Vec<(&'static str, VersionedJob)> {
    all_workloads()
        .iter()
        .map(|w| (w.meta().spec_id, w.versioned_job(InputSize::Test)))
        .collect()
}

/// `job` under `plan` as a deterministic replay: with no substrate the
/// graph's recorded violations are the squash source and the body runs
/// its sequential oracle. The speculative attempt of a task whose
/// recorded dependence was violated emits corrupted bytes — it ran
/// ahead of its producer — so byte identity proves each one was
/// squashed and re-executed.
fn replay(job: &VersionedJob, plan: &ExecutionPlan, config: ExecConfig) -> JobSpec {
    let (mut spec, _mem) = job.job_spec(plan, config);
    spec.mem = None;
    let graph = Arc::clone(&spec.graph);
    wrap(&mut spec, move |oracle, task, ctx| {
        let mut out = oracle.run(task, ctx);
        let violated = graph.spec_deps(graph.task(task)).iter().any(|d| d.violated);
        if ctx.speculative() && violated {
            match out.bytes.first_mut() {
                Some(b) => *b ^= 0xFF,
                None => out.bytes.push(0xFF),
            }
        }
        out
    });
    spec
}

/// A body that runs each task through `run(inner, task, ctx)` and
/// leaves its commit to `inner`'s, which folds the job's tail.
struct Wrapped<F> {
    inner: Arc<dyn NativeBody>,
    run: F,
}

impl<F> NativeBody for Wrapped<F>
where
    F: Fn(&dyn NativeBody, TaskId, &TaskCtx<'_>) -> TaskOutput + Send + Sync,
{
    fn run(&self, task: TaskId, ctx: &TaskCtx<'_>) -> TaskOutput {
        (self.run)(&*self.inner, task, ctx)
    }

    fn commit(&self, task: TaskId, bytes: &mut [u8]) {
        self.inner.commit(task, bytes);
    }
}

/// Replaces `spec`'s body with `run` around it.
fn wrap<F>(spec: &mut JobSpec, run: F)
where
    F: Fn(&dyn NativeBody, TaskId, &TaskCtx<'_>) -> TaskOutput + Send + Sync + 'static,
{
    let inner = Arc::clone(&spec.body);
    spec.body = Arc::new(Wrapped { inner, run });
}

/// Runs `spec` on an engine of its own, sized as production sizes one
/// ([`EngineConfig::for_plan`]: a worker per distinct core but one).
fn run(spec: &JobSpec) -> NativeReport {
    Engine::new(EngineConfig::for_plan(&spec.plan))
        .run(spec)
        .expect("plan matches graph and every fault is recoverable")
}

/// The trace whose graph `job` runs under `plan`: its per-iteration
/// records merged at whatever grain the job chose — no test here pins one.
fn ran(job: &VersionedJob, plan: &ExecutionPlan) -> IterationTrace {
    job.trace().chunked(job.grain(plan))
}

/// The squashes a replay must report: one per task whose graph records
/// a violated dependence.
fn recorded_misspeculations(spec: &JobSpec) -> u64 {
    let violated = |t| spec.graph.spec_deps(t).iter().any(|d| d.violated);
    spec.graph.tasks().iter().filter(|&t| violated(t)).count() as u64
}

/// (a) Native output is byte-identical to sequential for every workload
/// at every thread count, under the paper's three-phase DSWP plan.
#[test]
fn native_output_is_byte_identical_to_sequential() {
    for (id, job) in jobs() {
        let seq = job.sequential();
        assert!(
            !seq.output.is_empty(),
            "{id}: sequential run produced output"
        );
        for &t in THREADS {
            let plan = ExecutionPlan::three_phase(t);
            let r = run(&replay(&job, &plan, ExecConfig::default()));
            assert_eq!(
                r.output, seq.output,
                "{id}: native output diverged from sequential at {t} threads"
            );
            assert_eq!(
                r.work, seq.work,
                "{id}: committed work diverged from sequential at {t} threads"
            );
        }
    }
}

/// (b) Native misspeculation counters equal the simulator's for the same
/// plan and graph: both tally one violation per violated dependence and
/// one survival per dependence the speculation got away with.
#[test]
fn native_misspec_counts_match_simulator() {
    for (id, job) in jobs() {
        for &t in THREADS {
            let plan = ExecutionPlan::three_phase(t);
            let spec = replay(&job, &plan, ExecConfig::default());
            // Squashes are a native-only notion (one per squashed attempt);
            // the graph predicts them exactly: one per violated task.
            let expected_squashes = recorded_misspeculations(&spec);
            let native = run(&spec);
            let sim = simulate(&ran(&job, &plan), t, PlanKind::Dswp);
            assert_eq!(
                native.violations, sim.violations,
                "{id}: violation counts disagree at {t} threads"
            );
            assert_eq!(
                native.speculations_survived, sim.speculations_survived,
                "{id}: survived-speculation counts disagree at {t} threads"
            );
            assert_eq!(
                native.squashes, expected_squashes,
                "{id}: squash count disagrees with the trace at {t} threads"
            );
            // Every squash costs exactly one extra attempt.
            assert_eq!(
                native.attempts,
                native.tasks_committed + native.squashes,
                "{id}: attempt accounting broken at {t} threads"
            );
        }
    }
}

/// The same two properties under the TLS single-stage plan: a different
/// graph shape (one stage, speculation on every carried dependence) must
/// not break sequential semantics or the counter agreement.
#[test]
fn tls_plan_agrees_with_simulator_and_sequential() {
    for (id, job) in jobs() {
        let seq = job.sequential();
        for &t in &[2usize, 4] {
            let plan = ExecutionPlan::tls(t);
            let native = run(&replay(&job, &plan, ExecConfig::default()));
            assert_eq!(
                native.output, seq.output,
                "{id}: TLS native output diverged at {t} threads"
            );
            let sim = simulate(&ran(&job, &plan), t, PlanKind::Tls);
            assert_eq!(
                native.violations, sim.violations,
                "{id}: TLS violation counts disagree at {t} threads"
            );
            assert_eq!(
                native.speculations_survived, sim.speculations_survived,
                "{id}: TLS survived-speculation counts disagree at {t} threads"
            );
        }
    }
}

/// Determinism regression: two native runs of the same job produce
/// identical outputs and identical work counters — commit order and
/// squash decisions must not depend on thread interleaving.
#[test]
fn native_execution_is_deterministic_across_runs() {
    for (id, job) in jobs() {
        let spec = replay(&job, &ExecutionPlan::three_phase(8), ExecConfig::default());
        let (a, b) = (run(&spec), run(&spec));
        assert_eq!(a.output, b.output, "{id}: outputs differ across runs");
        assert_eq!(a.work, b.work, "{id}: work counters differ across runs");
        assert_eq!(a.squashes, b.squashes, "{id}: squash counts differ");
        assert_eq!(a.violations, b.violations, "{id}: violations differ");
        assert_eq!(a.attempts, b.attempts, "{id}: attempt counts differ");
        assert_eq!(
            a.tasks_committed, b.tasks_committed,
            "{id}: committed-task counts differ"
        );
    }
}

/// The chaos seed: overridable via `SEQPAR_CHAOS_SEED` (the CI chaos
/// job runs the suite under three fixed seeds), defaulting to 7.
fn chaos_seed() -> u64 {
    std::env::var("SEQPAR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// The panic-injecting plan the differential chaos tests use: a seeded
/// ~12% worker-panic rate plus one forced panic (so a nonzero recovery
/// count is guaranteed for *any* seed override). Panic-only, so the
/// test isolates the squash-and-replay path.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_panic_permille(120)
        .with_stall_permille(0)
        .with_forced(1, 0, FaultKind::WorkerPanic)
}

/// Differential chaos: with deterministic worker panics injected, the
/// supervised native run still commits the byte-identical sequential
/// stream, actually recovers panics (nonzero count), and every
/// deterministic counter matches its pure twin ([`predict_recovery`])
/// exactly — the recovery protocol is the same function on both sides.
#[test]
fn chaos_native_recovery_matches_simulator_twin() {
    let seed = chaos_seed();
    let faults = chaos_plan(seed);
    let threads = 4;
    let budget = 3;
    for id in ["164.gzip", "181.mcf", "197.parser"] {
        let w = workload_by_name(id).expect("known benchmark");
        let job = w.versioned_job(InputSize::Test);
        let seq = job.sequential();
        let plan = ExecutionPlan::three_phase(threads);
        let config = ExecConfig::default()
            .with_faults(faults.clone())
            .with_retry_budget(budget);
        let spec = replay(&job, &plan, config);
        let native = run(&spec);
        assert_eq!(
            native.output, seq.output,
            "{id}: chaos run (seed {seed}) broke sequential semantics"
        );
        assert!(
            native.recovery.panics_recovered > 0,
            "{id}: chaos plan (seed {seed}) injected no panics"
        );
        let twin = predict_recovery(&spec.graph, &faults, budget);
        assert_eq!(
            native.recovery, twin.recovery,
            "{id}: recovery counters disagree with the twin at seed {seed}"
        );
        assert_eq!(
            native.attempts, twin.attempts,
            "{id}: attempt counts disagree with the twin at seed {seed}"
        );
        assert_eq!(
            native.squashes, twin.squashes,
            "{id}: squash counts disagree with the twin at seed {seed}"
        );
        assert_eq!(
            native.violations, twin.violations,
            "{id}: violation counts disagree with the twin at seed {seed}"
        );
        assert_eq!(
            native.speculations_survived, twin.speculations_survived,
            "{id}: survived counts disagree with the twin at seed {seed}"
        );
    }
}

/// Chaos determinism: two native runs under the same seed report the
/// same recovery counters and the same output, for every workload.
#[test]
fn chaos_recovery_counters_are_deterministic_across_runs() {
    let seed = chaos_seed();
    let config = ExecConfig::default().with_faults(chaos_plan(seed));
    for (id, job) in jobs() {
        let spec = replay(&job, &ExecutionPlan::three_phase(4), config.clone());
        let (a, b) = (run(&spec), run(&spec));
        assert_eq!(a.output, b.output, "{id}: chaos outputs differ across runs");
        assert_eq!(
            a.recovery, b.recovery,
            "{id}: chaos recovery counters differ across runs"
        );
        assert_eq!(a.attempts, b.attempts, "{id}: chaos attempts differ");
        assert_eq!(a.squashes, b.squashes, "{id}: chaos squashes differ");
    }
}

/// Budget exhaustion degrades, never aborts: with a retry budget of 0,
/// the first charged fault flips the run into the in-order sequential
/// fallback — output stays byte-identical and the fallback is reported.
#[test]
fn chaos_budget_zero_degrades_to_sequential_fallback() {
    let w = workload_by_name("164.gzip").expect("known benchmark");
    let job = w.versioned_job(InputSize::Test);
    let seq = job.sequential();
    let config = ExecConfig::default()
        .with_faults(chaos_plan(chaos_seed()))
        .with_retry_budget(0);
    let report = run(&replay(&job, &ExecutionPlan::three_phase(4), config));
    assert_eq!(
        report.output, seq.output,
        "sequential fallback broke sequential semantics"
    );
    assert!(
        report.fallback_activated,
        "budget 0 with a forced panic must trigger the fallback"
    );
    assert!(report.recovery.fallback_tasks > 0);
}

/// The structured timelines of the two substrates are diffable: for
/// every workload, a traced native run and the simulator's
/// [`SimResult::timeline`](seqpar_runtime::SimResult::timeline) twin of the same plan both validate
/// against the shared event schema and agree exactly on task commit
/// order (always sequential program order). Service times and
/// speculation replay differ by design — wall nanoseconds vs modelled
/// cycles, squash-and-replay vs serialization — so commit order is the
/// cross-substrate invariant (see OBSERVABILITY.md).
#[test]
fn timelines_agree_on_task_order() {
    for (id, job) in jobs() {
        let config = ExecConfig::default().with_tracing(true);
        let spec = replay(&job, &ExecutionPlan::three_phase(4), config);
        let graph = &*spec.graph;
        let native = run(&spec);
        let native_tl = native
            .timeline
            .as_ref()
            .expect("traced run carries a timeline");
        native_tl
            .validate()
            .unwrap_or_else(|d| panic!("{id}: native timeline malformed: {d}"));

        let sim = Simulator::new(SimConfig {
            cores: 4,
            comm_latency: 10,
            queue_capacity: 128,
            ..SimConfig::default()
        });
        let sim_tl = sim
            .run(graph, &ExecutionPlan::three_phase(4))
            .expect("plan matches machine")
            .timeline(graph);
        sim_tl
            .validate()
            .unwrap_or_else(|d| panic!("{id}: sim timeline malformed: {d}"));

        assert_eq!(
            native_tl.commit_order(),
            sim_tl.commit_order(),
            "{id}: sim and native timelines disagree on task commit order"
        );
        assert_eq!(
            native_tl.stage_count(),
            sim_tl.stage_count(),
            "{id}: timelines disagree on pipeline shape"
        );
    }
}

/// Tight queues exercise backpressure without deadlock or reordering.
#[test]
fn native_execution_survives_tiny_queues() {
    for (id, job) in jobs() {
        let seq = job.sequential();
        let config = ExecConfig::with_queue_capacity(1);
        let r = run(&replay(&job, &ExecutionPlan::three_phase(4), config));
        assert_eq!(
            r.output, seq.output,
            "{id}: capacity-1 queues broke sequential semantics"
        );
    }
}

/// The corruption [`replay`] injects is load-bearing: every task whose
/// recorded dependence was violated really did emit different bytes on
/// its speculative attempt than on the re-execution that committed, so
/// the byte-identity assertions above hold only because the run squashed
/// each of them — exactly the recorded count.
#[test]
fn violated_speculation_emits_bytes_the_rollback_discards() {
    let w = workload_by_name("175.vpr").expect("known benchmark");
    let job = w.versioned_job(InputSize::Test);
    let mut spec = replay(&job, &ExecutionPlan::three_phase(4), ExecConfig::default());
    let expected_squashes = recorded_misspeculations(&spec);
    assert!(expected_squashes > 0, "vpr misspeculates at every size");
    // (task, attempt) -> the bytes that attempt emitted.
    type Emitted = BTreeMap<(u32, u32), Vec<u8>>;
    let emitted: Arc<Mutex<Emitted>> = Arc::default();
    let log = Arc::clone(&emitted);
    wrap(&mut spec, move |body, task, ctx| {
        let out = body.run(task, ctx);
        let mut log = log.lock().expect("no body panics");
        log.insert((task.0, ctx.attempt), out.bytes.clone());
        out
    });
    let report = run(&spec);
    assert_eq!(report.output, job.sequential().output);
    assert_eq!(report.squashes, expected_squashes);
    let emitted = emitted.lock().expect("no body panics");
    let graph = &spec.graph;
    for (idx, task) in graph.tasks().iter().enumerate() {
        if graph.spec_deps(task).iter().any(|d| d.violated) {
            let idx = idx as u32;
            assert_ne!(
                emitted[&(idx, 0)],
                emitted[&(idx, 1)],
                "task {idx}: the speculative attempt emitted the committed bytes"
            );
        }
    }
}
