//! Property test for the feedback-directed plan autotuner: every row
//! the search scores, at any thread count, must mint with an intact
//! lint stamp and commit byte-identical output to the sequential oracle
//! when executed natively under the configuration every row runs (the
//! default: 32-entry queues). The tuner is allowed to lose races; it is
//! never allowed to trade correctness for speed.
//!
//! The same search is also replayed to pin the reproducibility contract
//! end-to-end: identical configuration, identical table. The search
//! scores the whole space, so its winner is the space's cheapest
//! candidate, whatever the inert budget says.
//!
//! Cases are drawn from the offline proptest stub's deterministic
//! per-test RNG, so the sampled population is stable across runs and
//! machines.

use proptest::prelude::*;
use seqpar_analysis::tune::{score_candidate, Candidate, TuneConfig};
use seqpar_bench::tune::TunableWorkload;
use seqpar_runtime::{Engine, EngineConfig, ExecConfig};
use seqpar_workloads::{all_workloads, workload_by_name, InputSize};

/// A cross-section of the suite: a pipeline-friendly compressor, a
/// conflict-heavy placer, and a near-DOALL parser.
const WORKLOADS: &[&str] = &["164.gzip", "175.vpr", "197.parser"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of every row the autotuner scores, across the core
    /// budgets it accepts.
    #[test]
    fn emitted_plans_are_lint_clean_and_byte_identical(
        threads in 1..9usize,
        widx in 0..WORKLOADS.len(),
    ) {
        let w = workload_by_name(WORKLOADS[widx]).expect("suite workload");
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let config = TuneConfig { threads, ..TuneConfig::default() };
        let result = tunable
            .tune(&config)
            .expect("these three workloads partition soundly");
        prop_assert_eq!(result.rows.len(), threads);

        let job = w.versioned_job(InputSize::Test);
        let seq = job.sequential();
        for row in &result.rows {
            let c = row.candidate;
            // Mints with the stamp intact (`mint_plan` also asserts it),
            // and is the plan the candidate scored.
            let plan = tunable.mint_plan(&c);
            prop_assert_eq!(&plan, &c.plan());
            prop_assert!(plan.is_linted());

            // Byte-identical to the oracle under the shared executor
            // configuration.
            let (spec, _mem) = job.job_spec(&plan, ExecConfig::default());
            let native = Engine::new(EngineConfig::for_plan(&plan))
                .run(&spec)
                .expect("emitted plan matches the machine");
            prop_assert_eq!(
                &native.output, &seq.output,
                "threads {}: candidate {:?} diverged from the sequential \
                 oracle", threads, c
            );
            prop_assert_eq!(native.work, seq.work);
        }

        // Reproducibility: the same configuration replays the same table.
        let replay = tunable.tune(&config).expect("replay succeeds");
        prop_assert_eq!(replay.rows, result.rows);
        prop_assert_eq!(replay.best, result.best);
    }
}

/// Every kernel at `Train` under the default configuration: all 8
/// candidates of the 8-core space are scored, in the space's order, and
/// the winner costs what the cheapest of them costs. (A walk from the
/// baseline to its nearest local optimum stopped at perlbmk's `tls 4`,
/// 104 960, while `tls 1` costs 87 359.)
#[test]
fn the_winner_is_the_minimum_of_the_whole_space() {
    let config = TuneConfig::default();
    let space = Candidate::space(config.threads);
    assert_eq!(space.len(), 8);
    for w in all_workloads() {
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Train);
        let id = tunable.spec_id();
        let result = tunable
            .tune(&config)
            .expect("every kernel partitions soundly");
        assert_eq!(result.evals, space.len(), "{id}");
        let searched: Vec<Candidate> = result.rows.iter().map(|r| r.candidate).collect();
        assert_eq!(searched, space, "{id}");
        let cheapest = space
            .iter()
            .map(|c| score_candidate(tunable.input(), c).expect("scores").cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best.score.cost, cheapest, "{id}");
    }
}

/// `TuneConfig::budget` is inert: a budget of one and the default 48
/// score the same table, to the bit.
#[test]
fn the_budget_changes_nothing() {
    let w = workload_by_name("175.vpr").expect("vpr exists");
    let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Train);
    let tune = |budget| {
        tunable
            .tune(&TuneConfig {
                budget,
                ..TuneConfig::default()
            })
            .expect("vpr partitions soundly")
    };
    let (one, full) = (tune(1), tune(48));
    assert_eq!(one.rows, full.rows);
    assert_eq!(one.best, full.best);
    assert_eq!((one.evals, full.evals), (8, 8));
}
