//! Differential property test for `seqpar-lint`: the linter's deny
//! level must be *sufficient* for safe execution.
//!
//! For randomly generated execution plans over a real workload's
//! partition, any plan the full lint battery passes at deny level must
//! run on the native executor without error and commit byte-identical
//! output to the sequential run. Conversely, a plan the shape check
//! denies must also be refused by the job adapter
//! (`VersionedJob::job_spec`, which panics with the refusal's text), and
//! every plan the adapter refuses must be denied by `SP0007` with that
//! text — the static and dynamic validators may not disagree in either
//! direction. Both read one function, `ExecutionPlan::seats`: the
//! engine runs one `Serial` or `Parallel` stage with a core.
//!
//! Cases are drawn from the offline proptest stub's deterministic
//! per-test RNG, so the sampled plan population is stable across runs
//! and machines.

use proptest::prelude::*;
use seqpar_analysis::Lint;
use seqpar_runtime::{ExecConfig, ExecutionPlan, StageAssignment};
use seqpar_workloads::{workload_by_name, InputSize, SequentialRun, VersionedJob};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};

/// bzip2's job and its sequential run, built once: neither depends on
/// the drawn plan.
fn job() -> &'static (VersionedJob, SequentialRun) {
    static JOB: OnceLock<(VersionedJob, SequentialRun)> = OnceLock::new();
    JOB.get_or_init(|| {
        let w = workload_by_name("256.bzip2").expect("bzip2 exists");
        let job = w.versioned_job(InputSize::Test);
        let seq = job.sequential();
        (job, seq)
    })
}

/// Builds a plan from drawn (kind, width, base) stage descriptors.
fn build_plan(stages: &[(usize, usize, usize)]) -> ExecutionPlan {
    let assignments = stages
        .iter()
        .map(|&(kind, width, base)| {
            let cores: Vec<usize> = (base..base + width).collect();
            match kind {
                0 => StageAssignment::serial(base),
                1 => StageAssignment::parallel(cores),
                _ => StageAssignment::round_robin(cores),
            }
        })
        .collect();
    ExecutionPlan::new(assignments)
}

/// bzip2's loop, parallelized once: the partition every plan is
/// linted against.
fn parallelized() -> &'static seqpar::ParallelizedLoop {
    static LOOP: OnceLock<seqpar::ParallelizedLoop> = OnceLock::new();
    LOOP.get_or_init(|| {
        let model = workload_by_name("256.bzip2")
            .expect("bzip2 exists")
            .ir_model();
        seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .expect("bzip2 parallelizes cleanly")
    })
}

thread_local! {
    /// Set while this thread builds a job that may be refused.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// What the job adapter says of `plan`: the text it panics with when it
/// refuses the plan, `None` when it builds the job. The panic is caught,
/// its report silenced on this thread only, and nothing runs.
fn refusal(job: &VersionedJob, plan: &ExecutionPlan) -> Option<String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                report(info);
            }
        }));
    });
    QUIET.set(true);
    let built = catch_unwind(AssertUnwindSafe(|| {
        job.job_spec(plan, ExecConfig::default());
    }));
    QUIET.set(false);
    let payload = built.err()?;
    let text = payload.downcast_ref::<String>().cloned();
    Some(text.expect("a refusal panics with its text"))
}

/// The adapter refuses exactly what `SP0007` denies, with one text: a
/// refused plan carries a `PlanShape` finding whose detail is the
/// refusal, and a plan the lint passes is built. Returns the refusal.
fn lint_agrees_with_the_adapter(plan: &ExecutionPlan) -> Option<String> {
    let report = parallelized().lint_plan(plan);
    let refused = refusal(&job().0, plan);
    let denied: Vec<&str> = report
        .entries()
        .iter()
        .filter_map(|e| match &e.lint {
            Lint::PlanShape { detail } => Some(detail.as_str()),
            _ => None,
        })
        .collect();
    match &refused {
        Some(text) => assert_eq!(denied, [text.as_str()], "{plan:?}"),
        None => {
            assert!(denied.is_empty(), "{plan:?} built but denied: {denied:?}");
            assert!(report.is_clean(), "{plan:?}: {:?}", report.deny_codes());
        }
    }
    refused
}

/// The named plans: the simulator's three-phase pipelines, a round-robin
/// stage and an empty pool are refused and denied with one text; a TLS
/// plan and a serial stage are built and lint clean.
#[test]
fn the_lint_denies_what_the_adapter_refuses_on_the_named_plans() {
    let refused = [
        ExecutionPlan::three_phase(4),
        ExecutionPlan::three_phase_static(16),
        ExecutionPlan::new(vec![StageAssignment::round_robin(vec![0, 1])]),
        ExecutionPlan::new(vec![StageAssignment::Parallel { cores: vec![] }]),
    ];
    for plan in &refused {
        let text = lint_agrees_with_the_adapter(plan).expect("refused");
        assert_eq!(text, plan.seats().unwrap_err().to_string());
    }
    for plan in [
        ExecutionPlan::tls(1),
        ExecutionPlan::tls(4),
        ExecutionPlan::new(vec![StageAssignment::serial(2)]),
    ] {
        assert_eq!(lint_agrees_with_the_adapter(&plan), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lint-clean random plans execute natively with zero oracle
    /// mismatches; shape-denied plans are refused by the adapter with the
    /// text the lint denies them with, and the other way round.
    #[test]
    fn deny_clean_plans_run_fault_free_natively(
        stages in proptest::collection::vec(
            (0..3usize, 1..4usize, 0..6usize),
            1..4,
        )
    ) {
        let plan = build_plan(&stages);
        let report = parallelized().lint_plan(&plan);
        let refused = lint_agrees_with_the_adapter(&plan);
        let (job, seq) = job();
        if report.is_clean() {
            // Sufficiency: nothing the linter passes may fail at runtime.
            let run = match job.execute(&plan, ExecConfig::default()) {
                Ok((r, _mem)) => r,
                Err(e) => panic!(
                    "lint-clean plan {stages:?} failed on the native executor: {e}"
                ),
            };
            prop_assert_eq!(
                &run.output, &seq.output,
                "lint-clean plan {:?} changed observable output", stages
            );
            prop_assert_eq!(
                run.work, seq.work,
                "lint-clean plan {:?} changed committed work", stages
            );
        } else {
            // Agreement: every deny here is a shape deny (the partition
            // itself linted clean inside `parallelize`), and the adapter
            // must refuse the same plan.
            prop_assert!(
                refused.is_some(),
                "plan {:?} denied by lint ({:?}) but accepted natively",
                stages, report.deny_codes()
            );
        }
    }
}
