//! Differential property test for `seqpar-lint`: the linter's deny
//! level must be *sufficient* for safe execution.
//!
//! For randomly generated execution plans over a real workload's
//! partition, any plan the full lint battery passes at deny level must
//! run on the native executor without error and commit byte-identical
//! output to the sequential run. Conversely, a plan the shape check
//! denies must also be refused by the executor — the static and
//! dynamic validators may not disagree in either direction.
//!
//! Cases are drawn from the offline proptest stub's deterministic
//! per-test RNG, so the sampled plan population is stable across runs
//! and machines.

use proptest::prelude::*;
use seqpar_runtime::{ExecConfig, ExecutionPlan, StageAssignment};
use seqpar_workloads::{workload_by_name, InputSize, SequentialRun, VersionedJob};
use std::sync::OnceLock;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lint-clean random plans execute natively with zero oracle
    /// mismatches; shape-denied plans are refused by the executor too.
    #[test]
    fn deny_clean_plans_run_fault_free_natively(
        stages in proptest::collection::vec(
            (0..3usize, 1..4usize, 0..6usize),
            2..5,
        )
    ) {
        let w = workload_by_name("256.bzip2").expect("bzip2 exists");
        let plan = build_plan(&stages);

        let model = w.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .expect("bzip2 parallelizes cleanly");
        let report = result.lint_plan(&plan);

        let (job, seq) = job();
        let outcome = job.execute(&plan, ExecConfig::default());
        if report.is_clean() {
            // Sufficiency: nothing the linter passes may fail at runtime.
            let run = match outcome {
                Ok((r, _mem)) => r,
                Err(e) => panic!(
                    "lint-clean plan {stages:?} refused by the native executor: {e}"
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
            // itself linted clean inside `parallelize`), and the
            // executor's own validation must refuse the same plan.
            prop_assert!(
                outcome.is_err(),
                "plan {:?} denied by lint ({:?}) but accepted natively",
                stages, report.deny_codes()
            );
        }
    }
}
