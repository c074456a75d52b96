//! Bench-side glue for the feedback-directed plan autotuner.
//!
//! The search itself lives in `seqpar_analysis::tune` and only ever
//! sees task graphs and lint reports; this module supplies what the
//! analysis crate cannot reach — real workloads, the native executor,
//! and the wall clock. [`TunableWorkload::prepare`] assembles a
//! [`TuneInput`] from a workload's IR model and recorded trace, and
//! [`TunableWorkload::validate_native`] runs every row of the scored
//! table (the untuned default first) on real OS threads in interleaved
//! repetitions — all under one executor configuration
//! ([`TunableWorkload::exec_config`]), so rows differ in plan alone —
//! byte-checks every run against the sequential oracle, and fills the
//! natively fastest row's [`PlanArtifact`] with measured
//! [`NativeValidation`] figures. The `seqpar-tune` binary drives these
//! entry points; `AUTOTUNING.md` documents the whole story.

use seqpar::ParallelizedLoop;
use seqpar_analysis::tune::{
    tune, Candidate, NativeValidation, PlanArtifact, ScoredCandidate, TuneConfig, TuneError,
    TuneInput, TuneResult,
};
use seqpar_runtime::{Engine, EngineConfig, ExecConfig, ExecutionPlan, NativeReport, PlanDelta};
use seqpar_workloads::{InputSize, VersionedJob, Workload};

/// Interleaved repetitions per row during native validation: the
/// recorded wall time is the per-row median, so one scheduler hiccup
/// cannot crown (or dethrone) a plan.
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

/// One row of the table after native validation: the candidate with
/// its simulator score beside its median native wall clock — the pairs
/// the sim-score-vs-wall-clock table in `EXPERIMENTS.md` collects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NativeRow {
    /// The candidate and its evaluator score.
    pub scored: ScoredCandidate,
    /// Median native wall clock, milliseconds.
    pub wall_ms: f64,
}

/// A tuning run carried through native validation.
#[derive(Debug)]
pub struct TunedOutcome {
    /// The search result the validation started from.
    pub result: TuneResult,
    /// Every row of the table in its order, the default first, with
    /// its median native wall.
    pub rows: Vec<NativeRow>,
    /// The natively fastest row, the default included (it may differ
    /// from the simulator's pick — the surrogate score is advisory).
    pub winner: ScoredCandidate,
    /// The winner's artifact with [`PlanArtifact::native`] filled in.
    pub artifact: PlanArtifact,
    /// Winner-vs-default comparison of the median runs.
    pub delta: PlanDelta,
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
        let result = crate::parallelize_model(w);
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
    /// a simulator rejection).
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
    /// seats, the calling thread filling one, so pool width — not
    /// outstanding-item caps — still bounds the candidate's real
    /// parallelism. Built once per row and reused across every
    /// validation repetition, which keeps thread-spawn cost out of the
    /// timed runs the winner is crowned on.
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

    /// Re-validates a search result natively: every row of the table,
    /// the untuned default first, runs [`VALIDATE_REPS`] times in
    /// interleaved rounds, every run byte-checked against the
    /// sequential oracle, and the natively fastest row (by median wall
    /// clock, the default included) is crowned — the simulator score
    /// only ranks, the wall clock elects. The winner's artifact carries
    /// the measured [`NativeValidation`].
    ///
    /// # Panics
    ///
    /// Panics if any run breaks sequential semantics.
    pub fn validate_native(&self, result: TuneResult) -> TunedOutcome {
        let seq = self.job.sequential();
        // One warmed engine per row, built before any timed round: each
        // candidate keeps its own pool width across reps.
        let engines: Vec<Engine> = result
            .rows
            .iter()
            .map(|r| self.engine_for(&r.candidate))
            .collect();
        let mut reps: Vec<Vec<NativeReport>> = result
            .rows
            .iter()
            .map(|_| Vec::with_capacity(VALIDATE_REPS))
            .collect();
        for _round in 0..VALIDATE_REPS {
            for ((row, engine), runs) in result.rows.iter().zip(&engines).zip(&mut reps) {
                runs.push(self.run_candidate(engine, &row.candidate, &seq.output));
            }
        }
        let medians: Vec<NativeReport> = reps
            .into_iter()
            .map(|mut runs| {
                runs.sort_by_key(|r| r.wall);
                runs.swap_remove(runs.len() / 2)
            })
            .collect();
        let rows: Vec<NativeRow> = result
            .rows
            .iter()
            .zip(&medians)
            .map(|(&scored, report)| NativeRow {
                scored,
                wall_ms: report.wall.as_secs_f64() * 1e3,
            })
            .collect();

        // `min_by_key` keeps the first of equal walls: the earlier row.
        let winner_idx = (0..medians.len())
            .min_by_key(|&i| medians[i].wall)
            .expect("the table holds the default");
        let winner = result.rows[winner_idx];
        let delta = medians[winner_idx].delta_vs(&medians[0]);
        let mut artifact = PlanArtifact::from_result(&result, &winner);
        artifact.native = Some(NativeValidation {
            tuned_wall_ms: delta.tuned_wall.as_secs_f64() * 1e3,
            default_wall_ms: delta.baseline_wall.as_secs_f64() * 1e3,
            speedup_vs_default: delta.speedup_vs_baseline,
        });
        TunedOutcome {
            result,
            rows,
            winner,
            artifact,
            delta,
        }
    }
}

/// Renders a search the way `seqpar-tune --no-native` prints it: the
/// summary line, every row's simulator cost, and the simulated winner.
pub fn render_search(result: &TuneResult) -> String {
    render(result, None)
}

/// Renders a validated outcome the way `seqpar-tune` prints it: the
/// summary line, every row's simulator cost beside its median native
/// wall, the winner, and the native verdict.
pub fn render_outcome(outcome: &TunedOutcome) -> String {
    render(&outcome.result, Some(outcome))
}

fn render(result: &TuneResult, outcome: Option<&TunedOutcome>) -> String {
    let winner = outcome.map_or(result.best, |o| o.winner).candidate;
    let mut out = format!(
        "## {}: {} rows, baseline cost {:.0} -> best cost {:.0}\n",
        result.workload,
        result.rows.len(),
        result.baseline.score.cost,
        result.best.score.cost
    );
    let native_col = if outcome.is_some() { "  native ms" } else { "" };
    out.push_str(&format!(
        "  width  fingerprint             sim cost{native_col}\n"
    ));
    for (i, row) in result.rows.iter().enumerate() {
        let c = row.candidate;
        out.push_str(&format!(
            "  {:>5}  {:#018x}  {:>12.0}",
            c.width,
            c.shape_key(),
            row.score.cost
        ));
        if let Some(o) = outcome {
            out.push_str(&format!("  {:>9.3}", o.rows[i].wall_ms));
        }
        if i == 0 {
            out.push_str("  [default]");
        }
        if c == winner {
            out.push_str("  [winner]");
        }
        out.push('\n');
    }
    out.push_str(&format!("winner: tls width {}", winner.width));
    match outcome.and_then(|o| o.artifact.native) {
        None => out.push_str(" (simulated; native validation skipped)\n"),
        Some(n) => out.push_str(&format!(
            "\nnative: tuned {:.3} ms vs default {:.3} ms -> {:.2}x {}\n",
            n.tuned_wall_ms,
            n.default_wall_ms,
            n.speedup_vs_default,
            if n.speedup_vs_default > 1.0 {
                "(beats default)"
            } else {
                "(default holds)"
            }
        )),
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
            threads: 4,
            ..TuneConfig::default()
        };
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let outcome = tunable.validate_native(tunable.tune(&config).unwrap());
        let native = outcome.artifact.native.expect("validation fills native");
        assert!(native.tuned_wall_ms > 0.0 && native.default_wall_ms > 0.0);
        assert!(
            (native.speedup_vs_default - outcome.delta.speedup_vs_baseline).abs() < 1e-9,
            "artifact and delta agree"
        );
        // Every row ran, in the table's order, the default first; costs
        // come from the search, walls from the native runs.
        let scored: Vec<ScoredCandidate> = outcome.rows.iter().map(|r| r.scored).collect();
        assert_eq!(scored, outcome.result.rows);
        assert_eq!(scored[0].candidate, Candidate::default_for(4));
        assert!(outcome.rows.iter().all(|r| r.wall_ms > 0.0));
        // The crown goes to the fastest row, the default included.
        let fastest = outcome
            .rows
            .iter()
            .map(|r| r.wall_ms)
            .fold(f64::INFINITY, f64::min);
        let winner = outcome
            .rows
            .iter()
            .find(|r| r.scored == outcome.winner)
            .expect("the winner is a row");
        assert_eq!(winner.wall_ms, fastest);
        assert_eq!(native.tuned_wall_ms, fastest);
        // The artifact round-trips through its JSON schema with the
        // native block intact.
        let back = PlanArtifact::from_json(&outcome.artifact.to_json()).unwrap();
        assert_eq!(back, outcome.artifact);
        let rendered = render_outcome(&outcome);
        assert!(rendered.starts_with("## 164.gzip: 4 rows,"), "{rendered}");
        assert!(rendered.contains("[winner]"), "{rendered}");
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
