//! The deterministic search driver.
//!
//! The space of [`super::space`] is small — `threads` TLS widths, 8
//! candidates at 8 threads — so the search scores all of it: it takes
//! [`Candidate::space`] in order (the harness's default, full-width TLS
//! candidate first), scores each candidate once, and keeps every row.
//! The cheapest row wins, ties going to the earlier one. Nothing is
//! drawn from a random stream, so a `(TuneInput, TuneConfig)` pair
//! replays to the identical table — the reproducibility contract
//! `AUTOTUNING.md` documents.

use super::evaluator::{score_candidate, Score};
use super::space::{Candidate, TuneInput};
use std::fmt;

/// Tuning-run parameters: the core budget the table spans.
///
/// ```
/// use seqpar_analysis::tune::TuneConfig;
///
/// // An 8-core budget: the table is the TLS plan at widths 8 down to 1.
/// let config = TuneConfig::default();
/// assert_eq!(config.threads, 8);
///
/// // The budget is inert: the search scores the whole space whatever
/// // it says.
/// let tiny = TuneConfig { budget: 1, ..TuneConfig::default() };
/// assert_eq!(tiny.threads, config.threads);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Inert: the search scores every candidate whatever this says.
    /// Kept only while `benchmark/` names it.
    pub budget: usize,
    /// Core budget: no candidate plan may require more cores.
    pub threads: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            budget: 48,
            threads: 8,
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

/// The outcome of one tuning run: the scored table.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The workload that was tuned.
    pub workload: String,
    /// The configuration that produced this result.
    pub config: TuneConfig,
    /// Every candidate of [`Candidate::space`] with its score, in
    /// space order: the baseline first, then narrower pools.
    pub rows: Vec<ScoredCandidate>,
    /// The untuned baseline (TLS at the full core budget), `rows[0]`.
    pub baseline: ScoredCandidate,
    /// The cheapest row, the earlier one on a tie (equals `baseline`
    /// when nothing scored below it).
    pub best: ScoredCandidate,
    /// Simulator evaluations spent: `rows.len()`.
    pub evals: usize,
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
    /// The simulator rejected a candidate's plan against the TLS graph
    /// (a one-stage plan runs any one-stage graph, so this is a bug in
    /// the graph's construction if it ever fires).
    Sim(seqpar_runtime::SimError),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::UnsoundPartition { workload, denials } => write!(
                f,
                "partition of {workload} has {denials} deny-level lint finding(s); refusing to tune an unsound loop"
            ),
            TuneError::Sim(e) => write!(f, "simulator rejected a candidate: {e:?}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<seqpar_runtime::SimError> for TuneError {
    fn from(e: seqpar_runtime::SimError) -> Self {
        TuneError::Sim(e)
    }
}

/// Scores the whole plan space of one workload.
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
/// let config = TuneConfig { threads: 4, ..TuneConfig::default() };
/// let result = tune(&input, &config).unwrap();
///
/// // One row per TLS width, in space order, the baseline first.
/// assert_eq!(result.evals, 4);
/// let widths: Vec<usize> = result.rows.iter().map(|r| r.candidate.width).collect();
/// assert_eq!(widths, [4, 3, 2, 1]);
/// assert_eq!(result.baseline, result.rows[0]);
///
/// // Deterministic: a second call reproduces the exact table.
/// let replay = tune(&input, &config).unwrap();
/// assert_eq!(result.rows, replay.rows);
///
/// // The winner never scores worse than any row.
/// assert!(result.rows.iter().all(|r| result.best.score.cost <= r.score.cost));
/// ```
///
/// # Errors
///
/// [`TuneError::UnsoundPartition`] when the partition report already
/// carries deny-level findings; [`TuneError::Sim`] if the simulator
/// rejects a candidate.
pub fn tune(input: &TuneInput, config: &TuneConfig) -> Result<TuneResult, TuneError> {
    if !input.partition_report.is_clean() {
        return Err(TuneError::UnsoundPartition {
            workload: input.workload.clone(),
            denials: input.partition_report.deny_count(),
        });
    }

    let rows = Candidate::space(config.threads)
        .into_iter()
        .map(|candidate| {
            let score = score_candidate(input, &candidate)?;
            Ok(ScoredCandidate { candidate, score })
        })
        .collect::<Result<Vec<_>, TuneError>>()?;
    // `min_by` keeps the first of equal rows: the earlier in the space.
    let best = *rows
        .iter()
        .min_by(|a, b| a.score.cost.total_cmp(&b.score.cost))
        .expect("the space holds the baseline");
    Ok(TuneResult {
        workload: input.workload.clone(),
        config: *config,
        baseline: rows[0],
        best,
        evals: rows.len(),
        rows,
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
        let config = TuneConfig::default();
        let a = tune(&input, &config).unwrap();
        let b = tune(&input, &config).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn no_candidate_in_the_space_beats_the_winner() {
        for hot in [true, false] {
            let input = input(hot);
            let config = TuneConfig::default();
            let result = tune(&input, &config).unwrap();
            let space = Candidate::space(config.threads);
            assert_eq!(result.evals, space.len());
            assert_eq!(result.rows.len(), space.len());
            for (row, c) in result.rows.iter().zip(space) {
                assert_eq!(row.candidate, c, "rows keep the space's order");
                let cost = score_candidate(&input, &c).unwrap().cost;
                assert_eq!(row.score.cost, cost, "{c:?}");
                assert!(
                    cost >= result.best.score.cost,
                    "{c:?} is cheaper than the winner: {cost} < {}",
                    result.best.score.cost
                );
            }
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
