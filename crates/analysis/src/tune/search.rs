//! The deterministic search driver.
//!
//! The space of [`super::space`] is small — `threads` TLS widths, 8
//! candidates at 8 threads — so the search scores all of it rather than walking a neighbourhood: it takes
//! [`Candidate::space`] in order (the harness's default, full-width TLS
//! candidate first), lint-gates each candidate and scores it, until the
//! evaluation budget is spent. The cheapest candidate wins, ties going
//! to the earlier one. Nothing is drawn from a random stream, so a
//! `(TuneInput, TuneConfig)` pair replays to the identical winner and
//! top-K — the reproducibility contract `AUTOTUNING.md` documents.

use super::evaluator::{score_candidate, Score};
use super::space::{Candidate, TuneInput};
use std::fmt;

/// Tuning-run parameters: the evaluation budget, the core budget
/// candidates must fit in, and how many finalists to keep.
///
/// ```
/// use seqpar_analysis::tune::TuneConfig;
///
/// // The defaults match the CI smoke job: at most 48 simulator
/// // evaluations, an 8-core budget, 3 natively validated finalists.
/// let config = TuneConfig::default();
/// assert_eq!(config.budget, 48);
/// assert_eq!(config.threads, 8);
/// assert_eq!(config.top_k, 3);
///
/// // The budget is a ceiling: the search stops earlier, once it has
/// // scored the whole space — 8 candidates at 8 threads.
/// let deep = TuneConfig { budget: 256, ..TuneConfig::default() };
/// assert_eq!(deep.threads, config.threads);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Simulator evaluations the search may spend, the baseline's
    /// included (lint-pruned candidates do not count).
    pub budget: usize,
    /// Core budget: no candidate plan may require more cores.
    pub threads: usize,
    /// How many finalists to hand to native validation.
    pub top_k: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            budget: 48,
            threads: 8,
            top_k: 3,
        }
    }
}

/// A candidate with its evaluator score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredCandidate {
    /// The point in the space.
    pub candidate: Candidate,
    /// Its simulator-backed score.
    pub score: Score,
}

/// The outcome of one tuning run.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The workload that was tuned.
    pub workload: String,
    /// The configuration that produced this result.
    pub config: TuneConfig,
    /// The untuned baseline (TLS at the full core budget) and its
    /// score.
    pub baseline: ScoredCandidate,
    /// The best candidate found (lowest cost, the earlier one in
    /// [`Candidate::space`] on a tie; equals `baseline` when nothing
    /// scored below it).
    pub best: ScoredCandidate,
    /// The `top_k` cheapest candidates scored, best first — the set the
    /// bench glue validates natively. Every candidate has a plan shape
    /// of its own, so no two finalists share one.
    pub top_k: Vec<ScoredCandidate>,
    /// Simulator evaluations actually spent (baseline included).
    pub evals: usize,
    /// Candidates discarded by the `seqpar-lint` gate before evaluation.
    pub pruned_by_lint: usize,
}

/// A tuning run failed before the search could start.
#[derive(Clone, Debug, PartialEq)]
pub enum TuneError {
    /// The workload's partition itself fails the soundness lint — no
    /// candidate can be clean, so searching would be meaningless.
    UnsoundPartition {
        /// The workload.
        workload: String,
        /// Deny-level finding count of the partition report.
        denials: usize,
    },
    /// The simulator rejected a plan/graph pairing (a lint-gate bug if
    /// it ever fires).
    Sim(seqpar_runtime::SimError),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::UnsoundPartition { workload, denials } => write!(
                f,
                "partition of {workload} has {denials} deny-level lint finding(s); refusing to tune an unsound loop"
            ),
            TuneError::Sim(e) => write!(f, "simulator rejected a gated candidate: {e:?}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<seqpar_runtime::SimError> for TuneError {
    fn from(e: seqpar_runtime::SimError) -> Self {
        TuneError::Sim(e)
    }
}

/// Runs the feedback-directed search for one workload.
///
/// The search is fully deterministic in `(input, config)`; see the
/// module docs for the order it scores in and [`TuneResult`] for what
/// comes back.
///
/// ```
/// use seqpar_analysis::lint::{LintReport, StageKind, StagePlan};
/// use seqpar_analysis::tune::{tune, TuneConfig, TuneInput};
/// use seqpar_runtime::TaskGraph;
///
/// // A toy loop: 16 iterations, three-phase pipeline and a TLS racing
/// // graph over the same work (no speculation in this example).
/// let mut dswp = TaskGraph::new(3);
/// let mut tls = TaskGraph::new(1);
/// for i in 0..16 {
///     let a = dswp.add_task(0, i, 2, &[], &[]);
///     let b = dswp.add_task(1, i, 12, &[a], &[]);
///     dswp.add_task(2, i, 1, &[b], &[]);
///     tls.add_task(0, i, 15, &[], &[]);
/// }
/// let input = TuneInput {
///     workload: "toy".to_string(),
///     dswp_graph: dswp,
///     tls_graph: tls,
///     pipeline_stages: StagePlan::three_phase(vec![]),
///     tls_stages: StagePlan::new(vec![], vec![StageKind::Replicated]),
///     partition_report: LintReport::default(),
///     conflict_profile: None,
/// };
///
/// let config = TuneConfig { budget: 24, threads: 4, top_k: 2 };
/// let result = tune(&input, &config).unwrap();
///
/// // The budget covers the whole space: the four TLS widths.
/// assert_eq!(result.evals, 4);
///
/// // Deterministic: a second call reproduces the exact search.
/// let replay = tune(&input, &config).unwrap();
/// assert_eq!(result.top_k, replay.top_k);
/// assert_eq!(result.best.candidate, replay.best.candidate);
///
/// // The winner never scores worse than the untuned baseline, and
/// // every finalist passed the lint gate.
/// assert!(result.best.score.cost <= result.baseline.score.cost);
/// for finalist in &result.top_k {
///     assert!(input.lint_candidate(&finalist.candidate).is_clean());
/// }
/// ```
///
/// # Errors
///
/// [`TuneError::UnsoundPartition`] when the partition report already
/// carries deny-level findings; [`TuneError::Sim`] if the simulator
/// rejects a gated candidate (which the gate should prevent).
pub fn tune(input: &TuneInput, config: &TuneConfig) -> Result<TuneResult, TuneError> {
    if !input.partition_report.is_clean() {
        return Err(TuneError::UnsoundPartition {
            workload: input.workload.clone(),
            denials: input.partition_report.deny_count(),
        });
    }

    let threads = config.threads.max(1);
    let budget = config.budget.max(1);
    let mut scored: Vec<ScoredCandidate> = Vec::new();
    let mut pruned_by_lint = 0usize;
    for candidate in Candidate::space(threads) {
        if scored.len() == budget {
            break;
        }
        if !input.lint_candidate(&candidate).is_clean() {
            pruned_by_lint += 1;
            continue;
        }
        let score = score_candidate(input, &candidate)?;
        scored.push(ScoredCandidate { candidate, score });
    }
    // The baseline leads the space, and a clean partition passes the
    // one-stage shape check at any width.
    let baseline = *scored.first().expect("the baseline passes the lint gate");
    debug_assert_eq!(baseline.candidate, Candidate::default_for(threads));
    let evals = scored.len();

    // A stable sort: of two candidates that cost the same, the earlier
    // in the space stays ahead.
    scored.sort_by(|a, b| a.score.cost.total_cmp(&b.score.cost));
    scored.truncate(config.top_k.max(1));

    Ok(TuneResult {
        workload: input.workload.clone(),
        config: *config,
        baseline,
        best: scored[0],
        top_k: scored,
        evals,
        pruned_by_lint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{LintReport, StageKind, StagePlan};
    use seqpar_runtime::{ConflictProfile, RegionConflict, SpecDep, TaskGraph, TaskId};

    fn input(hot: bool) -> TuneInput {
        let iters = 24u64;
        let mut dswp = TaskGraph::new(3);
        let mut tls = TaskGraph::new(1);
        for i in 0..iters {
            let a = dswp.add_task(0, i, 2, &[], &[]);
            let spec: Vec<SpecDep> = if i > 0 {
                vec![SpecDep {
                    on: TaskId((i as u32 - 1) * 3 + 1),
                    violated: hot && i % 2 == 0,
                }]
            } else {
                Vec::new()
            };
            let b = dswp.add_task(1, i, 16, &[a], &spec);
            dswp.add_task(2, i, 2, &[b], &[]);
            let spec_tls: Vec<SpecDep> = if i > 0 {
                vec![SpecDep {
                    on: TaskId(i as u32 - 1),
                    violated: hot && i % 2 == 0,
                }]
            } else {
                Vec::new()
            };
            tls.add_task(0, i, 20, &[], &spec_tls);
        }
        TuneInput {
            workload: "search-test".to_string(),
            dswp_graph: dswp,
            tls_graph: tls,
            pipeline_stages: StagePlan::three_phase(vec![]),
            tls_stages: StagePlan::new(vec![], vec![StageKind::Replicated]),
            partition_report: LintReport::default(),
            conflict_profile: hot.then(|| {
                ConflictProfile::new(
                    vec![RegionConflict {
                        region: "tab".to_string(),
                        carried_freq: 0.5,
                        accesses: 3,
                    }],
                    iters,
                )
            }),
        }
    }

    #[test]
    fn search_is_deterministic() {
        let input = input(true);
        let config = TuneConfig {
            budget: 32,
            threads: 8,
            top_k: 3,
        };
        let a = tune(&input, &config).unwrap();
        let b = tune(&input, &config).unwrap();
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evals, b.evals);
        assert_eq!(a.pruned_by_lint, b.pruned_by_lint);
    }

    #[test]
    fn no_candidate_in_the_space_beats_the_winner() {
        for hot in [true, false] {
            let input = input(hot);
            let config = TuneConfig {
                budget: 200,
                threads: 8,
                top_k: 3,
            };
            let result = tune(&input, &config).unwrap();
            let space = Candidate::space(config.threads);
            assert_eq!(result.evals, space.len(), "budget to spare");
            for c in space {
                let cost = score_candidate(&input, &c).unwrap().cost;
                assert!(
                    cost >= result.best.score.cost,
                    "{c:?} is cheaper than the winner: {cost} < {}",
                    result.best.score.cost
                );
            }
        }
    }

    #[test]
    fn budget_is_respected_and_top_k_is_shape_diverse() {
        let input = input(false);
        let config = TuneConfig {
            budget: 5,
            threads: 8,
            top_k: 3,
        };
        let result = tune(&input, &config).unwrap();
        // The budget stops the search short of the space's 8.
        assert_eq!(result.evals, config.budget);
        assert!(result.top_k.len() <= config.top_k);
        let shapes: std::collections::BTreeSet<u64> = result
            .top_k
            .iter()
            .map(|s| s.candidate.shape_key())
            .collect();
        assert_eq!(shapes.len(), result.top_k.len(), "finalist shapes dedup");
        for finalist in &result.top_k {
            assert!(input.lint_candidate(&finalist.candidate).is_clean());
            assert!(finalist.candidate.plan().cores_required() <= config.threads);
        }
    }

    #[test]
    fn unsound_partitions_are_refused() {
        let mut bad = input(false);
        // A shape mismatch is the cheapest deny-level finding to mint:
        // a one-stage plan audited against the three-phase view.
        bad.partition_report = crate::lint::check_plan_shape(
            &StagePlan::three_phase(vec![]),
            &seqpar_runtime::ExecutionPlan::tls(2),
        );
        assert!(!bad.partition_report.is_clean());
        let err = tune(&bad, &TuneConfig::default()).unwrap_err();
        assert!(matches!(err, TuneError::UnsoundPartition { .. }));
    }
}
