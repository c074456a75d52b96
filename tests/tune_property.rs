//! Property test for the feedback-directed plan autotuner: every plan
//! the search emits — the baseline, the best, and every top-K finalist,
//! at any budget or thread count — must be lint-clean at deny level,
//! mint with an intact lint stamp, and commit byte-identical output to
//! the sequential oracle when executed natively under the configuration
//! every contender runs (the default: 32-entry queues). The tuner
//! is allowed to lose races; it is never allowed to trade correctness
//! for speed.
//!
//! The same (budget, threads) search is also replayed to pin the
//! reproducibility contract end-to-end: identical configuration,
//! identical winner. And at the default budget the search scores the
//! whole space, so its winner is the space's cheapest candidate.
//!
//! Cases are drawn from the offline proptest stub's deterministic
//! per-test RNG, so the sampled population is stable across runs and
//! machines.

use proptest::prelude::*;
use seqpar_analysis::tune::{score_candidate, Candidate, TuneConfig};
use seqpar_bench::tune::TunableWorkload;
use seqpar_runtime::{Engine, EngineConfig};
use seqpar_workloads::{all_workloads, workload_by_name, InputSize};

/// A cross-section of the suite: a pipeline-friendly compressor, a
/// conflict-heavy placer, and a near-DOALL parser.
const WORKLOADS: &[&str] = &["164.gzip", "175.vpr", "197.parser"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of everything the autotuner emits, across the whole
    /// configuration space it accepts.
    #[test]
    fn emitted_plans_are_lint_clean_and_byte_identical(
        budget in 4..16usize,
        threads in 1..9usize,
        widx in 0..WORKLOADS.len(),
    ) {
        let w = workload_by_name(WORKLOADS[widx]).expect("suite workload");
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let config = TuneConfig { budget, threads, top_k: 3 };
        let result = tunable
            .tune(&config)
            .expect("these three workloads partition soundly");

        let job = w.versioned_job(InputSize::Test);
        let seq = job.sequential();

        // Everything the search hands out: baseline, best, finalists.
        let mut emitted = vec![result.baseline, result.best];
        emitted.extend(result.top_k.iter().copied());
        let mut seen = Vec::new();
        for scored in emitted {
            let c = scored.candidate;
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);

            // Lint-clean at deny level, per the search's own gate.
            let report = tunable.input().lint_candidate(&c);
            prop_assert!(
                report.is_clean(),
                "budget {budget} threads {threads}: emitted candidate {c:?} \
                 is not lint-clean ({:?})",
                report.deny_codes()
            );

            // Mints with the stamp intact (`mint_plan` also asserts the
            // shape key matches the searched fingerprint).
            let plan = tunable.mint_plan(&c);
            prop_assert!(plan.is_linted());

            // Byte-identical to the oracle under the candidate's own
            // executor knobs.
            let (spec, _mem) = job.job_spec(&plan, TunableWorkload::exec_config());
            let native = Engine::new(EngineConfig::for_plan(&plan))
                .run(&spec)
                .expect("emitted plan matches the machine");
            prop_assert_eq!(
                &native.output, &seq.output,
                "budget {} threads {}: candidate {:?} diverged from the \
                 sequential oracle", budget, threads, c
            );
            prop_assert_eq!(native.work, seq.work);
        }

        // Reproducibility: the same configuration replays the same
        // search to the same winner.
        let replay = tunable.tune(&config).expect("replay succeeds");
        prop_assert_eq!(replay.best.candidate, result.best.candidate);
        prop_assert_eq!(replay.evals, result.evals);
    }
}

/// Every kernel at `Train` under the default configuration: all 8
/// candidates of the 8-core space are scored, none is lint-pruned, and
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
        assert_eq!(
            (result.evals, result.pruned_by_lint),
            (space.len(), 0),
            "{id}"
        );
        let cheapest = space
            .iter()
            .map(|c| {
                score_candidate(tunable.input(), c)
                    .expect("gated shape")
                    .cost
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best.score.cost, cheapest, "{id}");
    }
}
