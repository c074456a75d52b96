//! The simulator-backed candidate evaluator and its analytic cost model.
//!
//! The paper's simulator prices what it models — task costs, queue
//! backpressure, communication latency, and the serialization of
//! violated speculative dependences — in virtual cycles, deterministic
//! and fast enough to score the whole space with. It deliberately does
//! *not* model the native substrate's overheads: versioned-memory
//! probes and folds, squash *replay* work ("no additional cost to
//! misspeculation", §3.1), or per-worker scheduling cost. Those are
//! exactly the terms that make wide plans lose natively at small
//! working sets, so the evaluator adds them back analytically on top of
//! the simulated makespan; the
//! constants are documented in `AUTOTUNING.md` together with the
//! measured sim-score-vs-native-wall-clock divergence. Native
//! validation of every row remains the ground truth.

use super::space::{Candidate, TuneInput};
use seqpar_runtime::{SimConfig, SimError, SimResult, Simulator, TaskGraph};

/// Core-to-core communication latency used for every evaluation, in
/// cycles — the same value the bench harness simulates with, so tuned
/// scores stay comparable to the published figures.
pub const COMM_LATENCY: u64 = 10;

/// Analytic per-worker scheduling tax, in permille of the makespan per
/// active worker beyond the first. Models the native executor's
/// dispatch/commit bookkeeping that the simulator does not price.
pub const WORKER_TAX_PERMILLE: u64 = 30;

/// Cycles every commit pays the versioned memory whatever the plan. The
/// figure is a reading of the substrate before it kept one version
/// chain per address, when commit folded retired write buffers every
/// 8th commit (`24 / 8`) and a lookup walked the seven buffers left
/// between folds (`2 × 7`); that mechanism is gone, and the figure stays
/// so scores stay bit-identical until ROADMAP 5 (a) replaces it with a
/// measured commit cost.
const COMMIT_COST: f64 = 17.0;

/// Base cycles of one cross-worker conflict probe, scaled by the
/// predicted conflict density and divided across the substrate's 16
/// address shards.
pub const PROBE_COST: f64 = 48.0;

/// One candidate's score: the simulated makespan plus the analytic
/// native-overhead terms, all in virtual cycles. Lower cost is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Total cost the search minimizes.
    pub cost: f64,
    /// Simulated makespan.
    pub makespan: u64,
    /// Analytic per-worker scheduling tax.
    pub worker_tax: f64,
    /// Analytic versioned-memory term (per-commit upkeep and probes).
    pub mem_cost: f64,
    /// Analytic squash-replay term for violated speculations.
    pub replay_cost: f64,
    /// Simulated speedup over the serial run.
    pub sim_speedup: f64,
    /// Violated speculative dependences the simulator serialized.
    pub violations: u64,
}

/// Scores one candidate of `input`'s loop with a deterministic
/// simulator run, on the paper's 32-entry queues, plus the analytic
/// overhead terms.
///
/// # Errors
///
/// Propagates [`SimError`] when the candidate's plan and the TLS graph
/// disagree — which a one-stage graph never does.
pub fn score_candidate(input: &TuneInput, candidate: &Candidate) -> Result<Score, SimError> {
    let plan = candidate.plan();
    let sim = Simulator::new(SimConfig {
        cores: plan.cores_required(),
        comm_latency: COMM_LATENCY,
        ..SimConfig::default()
    });
    let result = sim.run(&input.tls_graph, &plan)?;

    let makespan = result.makespan;
    let workers = plan.cores_required() as u64;
    let worker_tax = (makespan * WORKER_TAX_PERMILLE * workers.saturating_sub(1)) as f64 / 1000.0;

    let mem_cost = mem_cost(input, candidate);
    let replay_cost = replay_cost(&input.tls_graph, &result);

    let cost = makespan as f64 + worker_tax + mem_cost + replay_cost;
    Ok(Score {
        cost,
        makespan,
        worker_tax,
        mem_cost,
        replay_cost,
        sim_speedup: result.speedup(),
        violations: result.violations,
    })
}

/// The analytic versioned-memory term: every commit — one per task of
/// the graph — pays [`COMMIT_COST`] plus a conflict probe against each
/// neighbour in the pool, scaled by the predicted density at this width.
fn mem_cost(input: &TuneInput, candidate: &Candidate) -> f64 {
    let commits = input.tls_graph.len() as f64;
    let neighbours = candidate.width.saturating_sub(1) as f64;
    let density = input
        .conflict_profile
        .as_ref()
        .map(|p| f64::from(p.scaled(candidate.width).density_permille()))
        .unwrap_or(0.0)
        / 1000.0;
    commits * (COMMIT_COST + PROBE_COST * density * neighbours / 16.0)
}

/// The analytic squash-replay term: each violated speculation natively
/// re-executes about one average task body of `graph`.
fn replay_cost(graph: &TaskGraph, result: &SimResult) -> f64 {
    let avg_task = result.serial_cycles as f64 / graph.len().max(1) as f64;
    result.violations as f64 * avg_task
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{LintReport, StageKind, StagePlan};
    use seqpar_runtime::{ConflictProfile, RegionConflict, SpecDep, TaskGraph, TaskId};

    fn input(hot: bool) -> TuneInput {
        let iters = 32u64;
        let mut dswp = TaskGraph::new(3);
        let mut tls = TaskGraph::new(1);
        for i in 0..iters {
            let a = dswp.add_task(0, i, 3, &[], &[]);
            let spec: Vec<SpecDep> = if i > 0 {
                vec![SpecDep {
                    on: TaskId((i as u32 - 1) * 3 + 1),
                    violated: hot && i % 3 == 0,
                }]
            } else {
                Vec::new()
            };
            let b = dswp.add_task(1, i, 20, &[a], &spec);
            dswp.add_task(2, i, 2, &[b], &[]);

            let spec_tls: Vec<SpecDep> = if i > 0 {
                vec![SpecDep {
                    on: TaskId(i as u32 - 1),
                    violated: hot && i % 3 == 0,
                }]
            } else {
                Vec::new()
            };
            tls.add_task(0, i, 25, &[], &spec_tls);
        }
        let profile = hot.then(|| {
            ConflictProfile::new(
                vec![RegionConflict {
                    region: "acc".to_string(),
                    carried_freq: 0.3,
                    accesses: 2,
                }],
                iters,
            )
        });
        TuneInput {
            workload: "eval-test".to_string(),
            dswp_graph: dswp,
            tls_graph: tls,
            pipeline_stages: StagePlan::three_phase(vec![]),
            tls_stages: StagePlan::new(vec![], vec![StageKind::Replicated]),
            partition_report: LintReport::default(),
            conflict_profile: profile,
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let input = input(true);
        let c = Candidate::default_for(8);
        let a = score_candidate(&input, &c).unwrap();
        let b = score_candidate(&input, &c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_tax_penalizes_idle_width_on_quiet_workloads() {
        let input = input(false);
        let wide = Candidate::default_for(8);
        let narrow = {
            let mut c = wide;
            c.width = 2;
            c
        };
        let s_wide = score_candidate(&input, &wide).unwrap();
        let s_narrow = score_candidate(&input, &narrow).unwrap();
        assert!(s_wide.worker_tax > s_narrow.worker_tax);
    }

    #[test]
    fn replay_cost_reacts_to_governor_and_violations() {
        // Each violated speculation costs one average task body (here
        // every TLS task is 25 cycles) ...
        let c = Candidate::default_for(4);
        let hot = score_candidate(&input(true), &c).unwrap();
        assert!(hot.violations > 0);
        assert_eq!(hot.replay_cost, hot.violations as f64 * 25.0);
        // ... and a loop without violations pays no replay term at all.
        let quiet = score_candidate(&input(false), &c).unwrap();
        assert_eq!(quiet.violations, 0);
        assert_eq!(quiet.replay_cost, 0.0);
    }

    #[test]
    fn mem_cost_scales_with_density_and_width() {
        let narrow = Candidate::default_for(2);
        let wide = Candidate::default_for(8);
        // A quiet loop pays the per-commit upkeep and nothing else,
        // whatever the width.
        let quiet = input(false);
        let q_narrow = score_candidate(&quiet, &narrow).unwrap();
        let q_wide = score_candidate(&quiet, &wide).unwrap();
        assert_eq!(q_narrow.mem_cost, 32.0 * COMMIT_COST);
        assert_eq!(q_wide.mem_cost, q_narrow.mem_cost);
        // A dense one pays probes on top, more of them per commit the
        // more neighbours it races.
        let hot = input(true);
        let h_narrow = score_candidate(&hot, &narrow).unwrap();
        let h_wide = score_candidate(&hot, &wide).unwrap();
        assert!(h_narrow.mem_cost > q_narrow.mem_cost);
        assert!(h_wide.mem_cost > h_narrow.mem_cost);
    }

    #[test]
    fn the_default_candidate_scores_what_it_scored_with_memory_axes() {
        // The toy loop of `tune`'s doc example. 308.3 is what the
        // evaluator returned for it while `Candidate` still carried a
        // shard count and a cadence (at their defaults, 16 and 8):
        // makespan 30 + worker tax 6.3 + 16 commits × 17.
        let mut dswp = TaskGraph::new(3);
        let mut tls = TaskGraph::new(1);
        for i in 0..16 {
            let a = dswp.add_task(0, i, 2, &[], &[]);
            let b = dswp.add_task(1, i, 12, &[a], &[]);
            dswp.add_task(2, i, 1, &[b], &[]);
            tls.add_task(0, i, 15, &[], &[]);
        }
        let toy = TuneInput {
            dswp_graph: dswp,
            tls_graph: tls,
            conflict_profile: None,
            ..input(false)
        };
        let score = score_candidate(&toy, &Candidate::default_for(8)).unwrap();
        assert_eq!(score.cost, 308.3);
        assert_eq!(score.mem_cost, 272.0);
    }
}
