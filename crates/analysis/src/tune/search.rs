//! The deterministic search driver.
//!
//! A steepest descent over the candidate space of [`super::space`]:
//! start from the harness's default (full-width TLS) candidate; from
//! the incumbent, lint-gate and score its one neighbour on each axis,
//! in [`AXES`] order; move to the cheapest of them when its cost is
//! *strictly* lower than the incumbent's; stop when none is, or when
//! the evaluation budget is spent. Nothing is drawn from a random
//! stream, so a `(TuneInput, TuneConfig)` pair replays to the identical
//! move history, winner, and top-K — the reproducibility contract
//! `AUTOTUNING.md` documents.

use super::evaluator::{Evaluator, Score};
use super::space::{Axis, Candidate, TuneInput, AXES};
use std::collections::BTreeMap;
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
/// // The budget is a ceiling: the descent stops earlier, at the first
/// // point none of whose neighbours is cheaper.
/// let deep = TuneConfig { budget: 256, ..TuneConfig::default() };
/// assert_eq!(deep.threads, config.threads);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Simulator evaluations the search may spend, the baseline's
    /// included (lint-pruned neighbours do not count).
    pub budget: usize,
    /// Core budget: no candidate plan may require more cores.
    pub threads: usize,
    /// How many distinct-shaped finalists to hand to native validation.
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

/// One step of the move history — enough to audit (and unit-test) that
/// a replayed search took the identical trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveRecord {
    /// Evaluation index the move consumed (1-based; 0 is the baseline).
    pub eval: usize,
    /// The mutated axis.
    pub axis: Axis,
    /// The neighbour's cost.
    pub cost: f64,
    /// Whether the search moved to this neighbour: it strictly beat the
    /// incumbent and no neighbour scored beside it was cheaper.
    pub accepted: bool,
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
    /// The best candidate found (lowest cost; equals `baseline` when no
    /// neighbour improved on it).
    pub best: ScoredCandidate,
    /// Up to `top_k` finalists with *distinct plan shapes*, best first —
    /// the set the bench glue validates natively. Deduping by shape
    /// keeps the native reps from re-measuring queue variants of one
    /// plan while a differently-shaped near-winner goes unmeasured.
    pub top_k: Vec<ScoredCandidate>,
    /// The full move history, in order.
    pub moves: Vec<MoveRecord>,
    /// Simulator evaluations actually spent (baseline included).
    pub evals: usize,
    /// Neighbours discarded by the `seqpar-lint` gate before evaluation.
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
/// The descent is fully deterministic in `(input, config)`; see the
/// module docs for the acceptance rule and [`TuneResult`] for what comes
/// back.
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
/// // Deterministic: a second call reproduces the exact search.
/// let replay = tune(&input, &config).unwrap();
/// assert_eq!(result.moves, replay.moves);
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

    let evaluator = Evaluator::new(input);
    let threads = config.threads.max(1);

    let baseline_candidate = Candidate::default_for(threads);
    debug_assert!(input.lint_candidate(&baseline_candidate).is_clean());
    let baseline = ScoredCandidate {
        candidate: baseline_candidate,
        score: evaluator.score(&baseline_candidate)?,
    };

    let mut current = baseline;
    let mut evals = 1usize;
    let mut pruned_by_lint = 0usize;
    let mut moves: Vec<MoveRecord> = Vec::new();
    // Best score seen per plan shape, for the diverse top-K.
    let mut best_per_shape: BTreeMap<u64, ScoredCandidate> = BTreeMap::new();
    best_per_shape.insert(baseline.candidate.shape_key(), baseline);

    let budget = config.budget.max(1);
    while evals < budget {
        // The cheapest neighbour strictly below the incumbent, with its
        // index in `moves`. A round the budget cuts short still moves
        // to the best of what it scored, so `best` is where the walk
        // ended.
        let mut step: Option<(usize, ScoredCandidate)> = None;
        for &axis in AXES {
            if evals == budget {
                break;
            }
            let Some(candidate) = current.candidate.mutate(axis, threads) else {
                continue;
            };
            if !input.lint_candidate(&candidate).is_clean() {
                pruned_by_lint += 1;
                continue;
            }
            let score = evaluator.score(&candidate)?;
            evals += 1;
            moves.push(MoveRecord {
                eval: evals - 1,
                axis,
                cost: score.cost,
                accepted: false,
            });

            let scored = ScoredCandidate { candidate, score };
            best_per_shape
                .entry(candidate.shape_key())
                .and_modify(|held| {
                    if score.cost < held.score.cost {
                        *held = scored;
                    }
                })
                .or_insert(scored);
            let to_beat = step.map_or(current.score.cost, |(_, s)| s.score.cost);
            if score.cost < to_beat {
                step = Some((moves.len() - 1, scored));
            }
        }
        let Some((at, next)) = step else {
            break;
        };
        moves[at].accepted = true;
        current = next;
    }

    let mut finalists: Vec<ScoredCandidate> = best_per_shape.into_values().collect();
    finalists.sort_by(|a, b| {
        a.score
            .cost
            .partial_cmp(&b.score.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    finalists.truncate(config.top_k.max(1));
    let best = finalists.first().copied().unwrap_or(baseline);

    Ok(TuneResult {
        workload: input.workload.clone(),
        config: *config,
        baseline,
        best,
        top_k: finalists,
        moves,
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
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(a.best.candidate, b.best.candidate);
        assert_eq!(a.evals, b.evals);
        assert_eq!(a.pruned_by_lint, b.pruned_by_lint);
    }

    #[test]
    fn descent_stops_at_a_local_optimum() {
        for hot in [true, false] {
            let input = input(hot);
            let config = TuneConfig {
                budget: 200,
                threads: 8,
                top_k: 3,
            };
            let result = tune(&input, &config).unwrap();
            assert!(result.evals < config.budget, "budget to spare");
            // The hot loop walks (narrower, then round-robin); the
            // quiet one starts at its optimum and spends one round.
            assert_eq!(result.moves.iter().any(|m| m.accepted), hot);
            for &axis in AXES {
                let Some(n) = result.best.candidate.mutate(axis, config.threads) else {
                    continue;
                };
                let cost = Evaluator::new(&input).score(&n).unwrap().cost;
                assert!(
                    cost >= result.best.score.cost,
                    "{axis:?} neighbour of the winner is cheaper: {cost} < {}",
                    result.best.score.cost
                );
            }
        }
    }

    #[test]
    fn accepted_moves_are_strictly_improving() {
        let input = input(true);
        let result = tune(
            &input,
            &TuneConfig {
                budget: 40,
                threads: 8,
                top_k: 3,
            },
        )
        .unwrap();
        let mut incumbent = result.baseline.score.cost;
        for m in &result.moves {
            if m.accepted {
                assert!(
                    m.cost < incumbent,
                    "accepted move at eval {} did not improve: {} >= {incumbent}",
                    m.eval,
                    m.cost
                );
                incumbent = m.cost;
            }
        }
        assert_eq!(result.best.score.cost, incumbent);
        assert!(result.best.score.cost <= result.baseline.score.cost);
    }

    #[test]
    fn budget_is_respected_and_top_k_is_shape_diverse() {
        let input = input(false);
        let config = TuneConfig {
            budget: 20,
            threads: 8,
            top_k: 3,
        };
        let result = tune(&input, &config).unwrap();
        assert!(result.evals <= config.budget);
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
