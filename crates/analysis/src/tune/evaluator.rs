//! The simulator-backed candidate evaluator and its analytic cost model.
//!
//! The paper's simulator prices what it models — task costs, queue
//! backpressure, communication latency, and the serialization of
//! violated speculative dependences — in virtual cycles, deterministic
//! and fast enough to burn a search budget on. It deliberately does
//! *not* model the native substrate's overheads: versioned-memory
//! probes and folds, squash *replay* work ("no additional cost to
//! misspeculation", §3.1), per-worker scheduling cost, or the
//! governor's issue throttling. Those are exactly the terms that make
//! wide plans lose natively at small working sets, so the evaluator
//! adds them back analytically on top of the simulated makespan; the
//! constants are documented in `AUTOTUNING.md` together with the
//! measured sim-score-vs-native-wall-clock divergence. Native
//! validation of the top-K candidates remains the ground truth.

use super::space::{Candidate, GraphKind, TuneInput};
use seqpar_runtime::{SimConfig, SimError, SimResult, Simulator, Timeline};

/// Core-to-core communication latency used for every evaluation, in
/// cycles — the same value the bench harness simulates with, so tuned
/// scores stay comparable to the published figures.
pub const COMM_LATENCY: u64 = 10;

/// Analytic per-worker scheduling tax, in permille of the makespan per
/// active worker beyond the first. Models the native executor's
/// dispatch/commit bookkeeping that the simulator does not price.
pub const WORKER_TAX_PERMILLE: u64 = 30;

/// Cycles every commit pays the versioned memory whatever the plan: a
/// reclamation fold amortized over the substrate's cadence of 8
/// (`24 / 8`) plus the lookup walk down the seven versions left
/// un-reclaimed between folds (`2 × 7`).
const COMMIT_COST: f64 = 17.0;

/// Base cycles of one cross-worker conflict probe, scaled by the
/// predicted conflict density and divided across the substrate's 16
/// address shards.
pub const PROBE_COST: f64 = 48.0;

/// Floor of the governor replay factor, in permille: even a window-1
/// governor replays some squashed work.
pub const GOV_REPLAY_FLOOR_PERMILLE: u64 = 150;

/// Where the evaluator thinks a candidate's simulated time went — the
/// signal the search driver uses to direct its next mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bottleneck {
    /// Queue backpressure stalls dominate: grow the queue capacity.
    QueueBackpressure,
    /// A stage's reorder buffer dominates its service time: commit
    /// order, not compute, is the constraint — narrow the pool, tame
    /// speculation, or tighten the governor.
    CommitWait(u8),
    /// The replicated pool's service time dominates: widen it (or
    /// rebalance placement).
    ParallelService(u8),
    /// A serial stage's service time dominates: the pipeline shape
    /// itself is the constraint — merge stages or narrow the pool.
    SerialService(u8),
}

/// One candidate's score: the simulated makespan plus the analytic
/// native-overhead terms, all in virtual cycles. Lower cost is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Total cost the search minimizes.
    pub cost: f64,
    /// Simulated makespan (after the governor issue-throttle floor).
    pub makespan: u64,
    /// Raw simulated makespan before the throttle floor.
    pub raw_makespan: u64,
    /// Analytic per-worker scheduling tax.
    pub worker_tax: f64,
    /// Analytic versioned-memory term (per-commit upkeep and probes).
    pub mem_cost: f64,
    /// Analytic squash-replay term for violated speculations.
    pub replay_cost: f64,
    /// Simulated speedup over the serial run (from the raw makespan).
    pub sim_speedup: f64,
    /// Violated speculative dependences the simulator serialized.
    pub violations: u64,
    /// Cycles tasks were delayed by queue backpressure.
    pub queue_stall_cycles: u64,
    /// The dominant time sink, for bottleneck-directed search moves.
    pub bottleneck: Option<Bottleneck>,
}

/// Simulator-backed evaluator for one workload's [`TuneInput`].
#[derive(Debug)]
pub struct Evaluator<'a> {
    input: &'a TuneInput,
}

impl<'a> Evaluator<'a> {
    /// Wraps the workload input.
    pub fn new(input: &'a TuneInput) -> Self {
        Self { input }
    }

    /// Scores one candidate with a deterministic simulator run plus the
    /// analytic overhead terms.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] when the candidate's plan and graph
    /// disagree — which the lint gate is supposed to make impossible.
    pub fn score(&self, candidate: &Candidate) -> Result<Score, SimError> {
        let plan = candidate.plan();
        let graph = self.input.graph_for(candidate.kind, candidate.spec_mask);
        let sim = Simulator::new(SimConfig {
            cores: plan.cores_required(),
            comm_latency: COMM_LATENCY,
            queue_capacity: candidate.queue_capacity.max(1),
            num_queues: 256,
        });

        let profile = self.input.conflict_profile.as_ref();
        let governor = candidate.governor.resolve(profile, candidate.width);
        let result = sim.run(&graph, &plan)?;
        let (timeline, _stats) = result.timeline(&graph, governor.as_ref());

        // Governor issue throttle: a window of `w` keeps at most `w`
        // iterations in flight, so throughput cannot beat
        // `serial / min(w, width)` no matter what the ungoverned
        // schedule says. The simulator's governed twin mirrors
        // decisions without changing timing, so the floor is analytic.
        let raw_makespan = result.makespan;
        let makespan = match candidate.governor.window_cap(profile, candidate.width) {
            Some(w) => {
                let effective = (w as usize).min(candidate.width.max(1)).max(1) as u64;
                raw_makespan.max(result.serial_cycles / effective)
            }
            None => raw_makespan,
        };

        let workers = plan.cores_required() as u64;
        let worker_tax =
            (makespan * WORKER_TAX_PERMILLE * workers.saturating_sub(1)) as f64 / 1000.0;

        let mem_cost = self.mem_cost(candidate, &result);
        let replay_cost = self.replay_cost(candidate, &result);

        let cost = makespan as f64 + worker_tax + mem_cost + replay_cost;
        Ok(Score {
            cost,
            makespan,
            raw_makespan,
            worker_tax,
            mem_cost,
            replay_cost,
            sim_speedup: result.speedup(),
            violations: result.violations,
            queue_stall_cycles: result.queue_stall_cycles,
            bottleneck: self.bottleneck(candidate, &result, &timeline),
        })
    }

    /// The analytic versioned-memory term: every commit pays
    /// [`COMMIT_COST`] plus a conflict probe against each neighbour in
    /// the pool, scaled by the predicted density at this width.
    fn mem_cost(&self, candidate: &Candidate, result: &SimResult) -> f64 {
        let commits = result.tasks_executed as f64;
        let neighbours = candidate.width.saturating_sub(1) as f64;
        let density = self
            .input
            .conflict_profile
            .as_ref()
            .map(|p| f64::from(p.scaled(candidate.width).density_permille()))
            .unwrap_or(0.0)
            / 1000.0;
        commits * (COMMIT_COST + PROBE_COST * density * neighbours / 16.0)
    }

    /// The analytic squash-replay term: each violated speculation
    /// natively re-executes about one average task body; a governor
    /// with a small window catches most of them before the work is
    /// wasted.
    fn replay_cost(&self, candidate: &Candidate, result: &SimResult) -> f64 {
        if result.violations == 0 {
            return 0.0;
        }
        let avg_task = result.serial_cycles as f64 / result.tasks_executed.max(1) as f64;
        let factor_permille = match candidate
            .governor
            .window_cap(self.input.conflict_profile.as_ref(), candidate.width)
        {
            None => 1000,
            Some(w) => (u64::from(w) * 1000 / 64).clamp(GOV_REPLAY_FLOOR_PERMILLE, 1000),
        };
        result.violations as f64 * avg_task * factor_permille as f64 / 1000.0
    }

    /// Classifies the dominant time sink from the per-stage service and
    /// commit-latency histograms plus the simulator's queue-stall
    /// counter. (Queue-wait histograms are empty for simulated
    /// timelines — queues are modeled analytically — so backpressure is
    /// read from [`SimResult::queue_stall_cycles`] instead.)
    fn bottleneck(
        &self,
        candidate: &Candidate,
        result: &SimResult,
        timeline: &Timeline,
    ) -> Option<Bottleneck> {
        if result.queue_stall_cycles * 10 > result.makespan {
            return Some(Bottleneck::QueueBackpressure);
        }
        let metrics = timeline.stage_metrics();
        let hot = metrics.iter().max_by_key(|m| m.service.total)?;
        if hot.service.total == 0 {
            return None;
        }
        if hot.commit_latency.total > hot.service.total {
            return Some(Bottleneck::CommitWait(hot.stage.0));
        }
        let plan = candidate.plan();
        let replicated =
            hot.stage.0 < plan.stage_count() && plan.stage(hot.stage.0).cores().len() > 1;
        // The TLS pool is the replicated stage even at width 1: the
        // width axis, not the shape, is the lever there.
        Some(if replicated || candidate.kind == GraphKind::Tls {
            Bottleneck::ParallelService(hot.stage.0)
        } else {
            Bottleneck::SerialService(hot.stage.0)
        })
    }
}

/// Convenience: score a candidate, treating governor choice `Off` and
/// explicit windows uniformly. Exposed for the bench glue's correlation
/// table, which re-scores natively validated candidates.
///
/// # Errors
///
/// See [`Evaluator::score`].
pub fn score_candidate(input: &TuneInput, candidate: &Candidate) -> Result<Score, SimError> {
    Evaluator::new(input).score(candidate)
}

#[cfg(test)]
mod tests {
    use super::super::space::Axis;
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
        let input = input(true);
        let mut off = Candidate::default_for(4);
        off.governor = super::super::space::GovernorChoice::Off;
        let mut tight = off;
        tight.governor = super::super::space::GovernorChoice::Window(1);
        let s_off = score_candidate(&input, &off).unwrap();
        let s_tight = score_candidate(&input, &tight).unwrap();
        assert!(s_off.violations > 0);
        assert!(
            s_off.replay_cost > s_tight.replay_cost,
            "an ungoverned run replays more squashed work: {} vs {}",
            s_off.replay_cost,
            s_tight.replay_cost
        );
        // ...but the tight window pays an issue-throttle floor instead.
        assert!(s_tight.makespan >= s_off.raw_makespan.min(s_tight.raw_makespan));

        // Synchronizing the speculated dependences away removes the
        // replay term entirely.
        let sync = off.mutate(Axis::Speculation, 0, 4).unwrap();
        let s_sync = score_candidate(&input, &sync).unwrap();
        assert_eq!(s_sync.violations, 0);
        assert_eq!(s_sync.replay_cost, 0.0);
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

    #[test]
    fn bottleneck_is_reported_for_real_candidates() {
        let input = input(false);
        let c = Candidate::default_for(4);
        let s = score_candidate(&input, &c).unwrap();
        assert!(s.bottleneck.is_some());
    }
}
