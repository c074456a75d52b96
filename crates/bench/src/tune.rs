//! Bench-side glue for the feedback-directed plan autotuner.
//!
//! The search itself lives in `seqpar_analysis::tune` and only ever
//! sees task graphs and lint reports; this module supplies what the
//! analysis crate cannot reach — real workloads, the native executor,
//! and the wall clock. [`TunableWorkload::prepare`] assembles a
//! [`TuneInput`] from a workload's IR model and recorded trace,
//! [`TunableWorkload::validate_native`] re-runs the search's top-K
//! finalists (plus the untuned default) on real OS threads with
//! interleaved repetitions — all under one executor configuration
//! ([`TunableWorkload::exec_config`]), so contenders differ in plan
//! alone — byte-checks every run against the
//! sequential oracle, and fills the winning plan's
//! [`PlanArtifact`] with measured [`NativeValidation`] figures. The
//! `seqpar-tune` binary drives these entry points; `AUTOTUNING.md`
//! documents the whole story.

use seqpar::ParallelizedLoop;
use seqpar_analysis::tune::{
    tune, Candidate, NativeValidation, PlanArtifact, ScoredCandidate, TuneConfig, TuneError,
    TuneInput, TuneResult,
};
use seqpar_runtime::{Engine, EngineConfig, ExecConfig, ExecutionPlan, NativeReport, PlanDelta};
use seqpar_workloads::{InputSize, VersionedJob, Workload};

/// Interleaved repetitions per contender during native validation:
/// the recorded wall time is the per-contender median, so one scheduler
/// hiccup cannot crown (or dethrone) a plan.
pub const VALIDATE_REPS: usize = 3;

/// One workload prepared for tuning: the analysis-side search input,
/// the parallelizer result that mints lint-stamped plans, and the
/// versioned-memory job native validation runs.
#[derive(Debug)]
pub struct TunableWorkload {
    spec_id: String,
    result: ParallelizedLoop,
    job: VersionedJob,
    input: TuneInput,
}

/// One (simulator cost, native wall clock) pair from native validation,
/// for the sim-score-vs-wall-clock correlation table in
/// `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrelationPoint {
    /// Structural fingerprint of the contender's plan.
    pub fingerprint: u64,
    /// The evaluator's surrogate cost (virtual cycles).
    pub sim_cost: f64,
    /// Median native wall clock, milliseconds.
    pub native_wall_ms: f64,
    /// Whether this contender is the untuned default.
    pub is_default: bool,
}

/// A tuning run carried through native validation.
#[derive(Debug)]
pub struct TunedOutcome {
    /// The search result the validation started from.
    pub result: TuneResult,
    /// The natively fastest finalist (which may differ from the
    /// simulator's pick — the surrogate score is advisory).
    pub winner: ScoredCandidate,
    /// The winner's artifact with [`PlanArtifact::native`] filled in.
    pub artifact: PlanArtifact,
    /// Tuned-vs-default comparison of the median runs.
    pub delta: PlanDelta,
    /// Per-contender (sim cost, native wall) pairs, default first.
    pub correlation: Vec<CorrelationPoint>,
}

impl TunableWorkload {
    /// Parallelizes `w`'s IR model and packages everything the tuner
    /// and the native validator need. Uses `allow_unsound` so that a
    /// deny-level partition reaches the tuner's own refusal path
    /// ([`TuneError::UnsoundPartition`]) with its finding count intact
    /// instead of failing here.
    ///
    /// # Panics
    ///
    /// Panics if the workload's IR model does not parallelize at all —
    /// every workload in the suite must.
    pub fn prepare(w: &dyn Workload, size: InputSize) -> Self {
        let model = w.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .allow_unsound(true)
            .parallelize_outermost(model.func)
            .expect("workload IR model parallelizes");
        let job = w.versioned_job(size);
        let trace = job.trace();
        let profile = result.conflict_profile();
        let input = TuneInput {
            workload: w.meta().spec_id.to_string(),
            dswp_graph: trace.task_graph(),
            tls_graph: trace.tls_task_graph(),
            pipeline_stages: result.stage_plan().clone(),
            tls_stages: result.tls_stage_plan(),
            partition_report: result.lint_report().clone(),
            conflict_profile: (!profile.is_quiet()).then(|| profile.clone()),
        };
        Self {
            spec_id: w.meta().spec_id.to_string(),
            result,
            job,
            input,
        }
    }

    /// Benchmark SPEC id.
    pub fn spec_id(&self) -> &str {
        &self.spec_id
    }

    /// The assembled search input.
    pub fn input(&self) -> &TuneInput {
        &self.input
    }

    /// Runs the deterministic search over this workload's plan space.
    ///
    /// # Errors
    ///
    /// Propagates [`TuneError`] from the search (unsound partition, or
    /// a simulator rejection the lint gate should have prevented).
    pub fn tune(&self, config: &TuneConfig) -> Result<TuneResult, TuneError> {
        tune(&self.input, config)
    }

    /// Mints the lint-stamped execution plan for one candidate via
    /// [`ParallelizedLoop::plan_custom`] — the stages of the plan the
    /// candidate scored in the simulator, now carrying the lint stamp
    /// and the width-scaled conflict profile the native executor
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics if the minted plan's fingerprint disagrees with the
    /// candidate's shape key (`plan_custom` must not reshape what it
    /// stamps) or if the plan lost its lint stamp — validating an
    /// unaudited plan would be meaningless.
    pub fn mint_plan(&self, candidate: &Candidate) -> ExecutionPlan {
        let plan = self
            .result
            .plan_custom(vec![candidate.plan().stage(0).clone()]);
        assert_eq!(
            plan.fingerprint(),
            candidate.shape_key(),
            "{}: minted plan shape diverged from the searched candidate",
            self.spec_id
        );
        assert!(
            plan.is_linted(),
            "{}: tuned plan failed the lint re-audit at mint time",
            self.spec_id
        );
        plan
    }

    /// The native executor configuration every contender runs: the
    /// default, with the paper's 32-entry queues — the one
    /// `figures --native` and `seqpar-trace` run.
    pub fn exec_config() -> ExecConfig {
        ExecConfig::default()
    }

    /// A warmed persistent [`Engine`] sized to exactly the candidate's
    /// seats, the calling thread filling one, so pool width — not outstanding-item caps —
    /// still bounds the candidate's real parallelism. Built once per
    /// contender and reused across every validation repetition, which
    /// keeps thread-spawn cost out of the timed runs the winner is
    /// crowned on.
    fn engine_for(&self, candidate: &Candidate) -> Engine {
        let plan = self.mint_plan(candidate);
        let engine = Engine::new(EngineConfig::for_plan(&plan));
        engine.warm();
        engine
    }

    /// Executes one candidate natively on `engine` with a fresh
    /// versioned memory, byte-checking the committed output against
    /// `expected`.
    ///
    /// # Panics
    ///
    /// Panics when the plan fails to execute or the output diverges
    /// from the sequential oracle — a tuned plan must never trade
    /// correctness for speed.
    fn run_candidate(
        &self,
        engine: &Engine,
        candidate: &Candidate,
        expected: &[u8],
    ) -> NativeReport {
        let plan = self.mint_plan(candidate);
        let (spec, _mem) = self.job.job_spec(&plan, Self::exec_config());
        let report = engine.run(&spec).expect("tuned plan matches the machine");
        assert_eq!(
            report.output, expected,
            "{}: tuned plan diverged from the sequential oracle",
            self.spec_id
        );
        report
    }

    /// Re-validates a search result natively: the untuned default and
    /// every distinct top-K finalist run [`VALIDATE_REPS`] times in
    /// interleaved rounds, every run byte-checked against the
    /// sequential oracle, and the natively fastest finalist (by median
    /// wall clock) is crowned — the simulator score only nominates,
    /// the wall clock elects. The winner's artifact carries the
    /// measured [`NativeValidation`], and every contender contributes a
    /// [`CorrelationPoint`].
    ///
    /// # Panics
    ///
    /// Panics if the result has no finalists (the search always returns
    /// at least the baseline) or any run breaks sequential semantics.
    pub fn validate_native(&self, result: TuneResult) -> TunedOutcome {
        let default = Candidate::default_for(result.config.threads.max(1));
        // Contenders: the default first, then finalists that differ
        // from it (the baseline is usually also finalist #1 when
        // nothing improved on it).
        let mut contenders = vec![default];
        for f in &result.top_k {
            if !contenders.contains(&f.candidate) {
                contenders.push(f.candidate);
            }
        }
        let seq = self.job.sequential();
        // One warmed engine per contender, built before any timed
        // round: each candidate keeps its own pool width across reps.
        let engines: Vec<Engine> = contenders.iter().map(|c| self.engine_for(c)).collect();
        let mut reps: Vec<Vec<NativeReport>> = (0..contenders.len())
            .map(|_| Vec::with_capacity(VALIDATE_REPS))
            .collect();
        for _round in 0..VALIDATE_REPS {
            for (i, c) in contenders.iter().enumerate() {
                reps[i].push(self.run_candidate(&engines[i], c, &seq.output));
            }
        }
        let medians: Vec<NativeReport> = reps
            .into_iter()
            .map(|mut runs| {
                runs.sort_by_key(|r| r.wall);
                runs.swap_remove(runs.len() / 2)
            })
            .collect();

        let sim_cost_of = |candidate: &Candidate| -> f64 {
            if *candidate == result.baseline.candidate {
                result.baseline.score.cost
            } else {
                result
                    .top_k
                    .iter()
                    .find(|f| f.candidate == *candidate)
                    .map_or(f64::NAN, |f| f.score.cost)
            }
        };
        let correlation: Vec<CorrelationPoint> = contenders
            .iter()
            .zip(&medians)
            .enumerate()
            .map(|(i, (c, report))| CorrelationPoint {
                fingerprint: c.shape_key(),
                sim_cost: sim_cost_of(c),
                native_wall_ms: report.wall.as_secs_f64() * 1e3,
                is_default: i == 0,
            })
            .collect();

        // Crown the natively fastest *tuned* contender; when the
        // default is the only contender (no finalist differed), it
        // wins by forfeit.
        let tuned_range = 1..contenders.len();
        let winner_idx = tuned_range
            .clone()
            .min_by(|&a, &b| medians[a].wall.cmp(&medians[b].wall))
            .unwrap_or(0);
        let winner_candidate = contenders[winner_idx];
        let winner = result
            .top_k
            .iter()
            .find(|f| f.candidate == winner_candidate)
            .copied()
            .unwrap_or(result.baseline);

        let delta = medians[winner_idx].delta_vs(&medians[0]);
        let mut artifact = PlanArtifact::from_result(&result, &winner);
        artifact.native = Some(NativeValidation {
            tuned_wall_ms: delta.tuned_wall.as_secs_f64() * 1e3,
            default_wall_ms: delta.baseline_wall.as_secs_f64() * 1e3,
            speedup_vs_default: delta.speedup_vs_baseline,
        });
        TunedOutcome {
            result,
            winner,
            artifact,
            delta,
            correlation,
        }
    }
}

/// Renders a tuned outcome as the terminal block `seqpar-tune` prints:
/// the search summary, the native verdict, and the correlation pairs.
pub fn render_outcome(outcome: &TunedOutcome) -> String {
    let r = &outcome.result;
    let native = outcome.artifact.native.expect("validated outcome");
    let mut out = String::new();
    out.push_str(&format!(
        "## {}: budget {} ({} evals, {} lint-pruned)\n",
        r.workload, r.config.budget, r.evals, r.pruned_by_lint
    ));
    out.push_str(&format!(
        "baseline cost {:.0} -> best cost {:.0} ({} finalists)\n",
        r.baseline.score.cost,
        r.best.score.cost,
        r.top_k.len()
    ));
    let c = &outcome.winner.candidate;
    out.push_str(&format!("winner: tls width {}\n", c.width));
    out.push_str(&format!(
        "native: tuned {:.3} ms vs default {:.3} ms -> {:.2}x {}\n",
        native.tuned_wall_ms,
        native.default_wall_ms,
        native.speedup_vs_default,
        if native.speedup_vs_default > 1.0 {
            "(beats default)"
        } else {
            "(default holds)"
        }
    ));
    out.push_str("correlation (sim cost vs native wall):\n");
    for p in &outcome.correlation {
        out.push_str(&format!(
            "  {:#018x}  cost {:>12.0}  wall {:>9.3} ms{}\n",
            p.fingerprint,
            p.sim_cost,
            p.native_wall_ms,
            if p.is_default { "  [default]" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_workloads::workload_by_name;

    #[test]
    fn minted_plans_match_searched_shapes_and_carry_stamps() {
        let w = workload_by_name("164.gzip").expect("gzip exists");
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        for threads in [1usize, 2, 4, 8] {
            for c in Candidate::space(threads) {
                let plan = tunable.mint_plan(&c);
                assert_eq!(plan.fingerprint(), c.shape_key());
                assert!(plan.is_linted(), "{c:?} stamps at {threads}");
            }
        }
    }

    #[test]
    fn tune_workload_validates_natively_and_round_trips_artifacts() {
        let w = workload_by_name("164.gzip").expect("gzip exists");
        let config = TuneConfig {
            budget: 12,
            threads: 4,
            top_k: 2,
        };
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let outcome = tunable.validate_native(tunable.tune(&config).unwrap());
        let native = outcome.artifact.native.expect("validation fills native");
        assert!(native.tuned_wall_ms > 0.0 && native.default_wall_ms > 0.0);
        assert!(
            (native.speedup_vs_default - outcome.delta.speedup_vs_baseline).abs() < 1e-9,
            "artifact and delta agree"
        );
        // Default first, then at least the winner; costs come from the
        // search, walls from the native runs.
        assert!(outcome.correlation.len() >= 2);
        assert!(outcome.correlation[0].is_default);
        assert!(outcome.correlation.iter().all(|p| p.native_wall_ms > 0.0));
        // The artifact round-trips through its JSON schema with the
        // native block intact.
        let back = PlanArtifact::from_json(&outcome.artifact.to_json()).unwrap();
        assert_eq!(back, outcome.artifact);
        let rendered = render_outcome(&outcome);
        assert!(rendered.contains("164.gzip"));
        assert!(rendered.contains("correlation"));
    }

    #[test]
    fn validation_is_byte_checked_even_for_exotic_knobs() {
        // Every shape a 4-core budget allows, on the suite's stormiest
        // loop: each output must still be byte-identical to the oracle.
        let w = workload_by_name("175.vpr").expect("vpr exists");
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let seq = tunable.job.sequential();
        for c in Candidate::space(4) {
            let report = tunable.run_candidate(&tunable.engine_for(&c), &c, &seq.output);
            assert_eq!(report.output, seq.output, "{c:?}");
        }
    }
}
