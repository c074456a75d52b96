//! The toolchain workload: for all 11 kernels, compile (IR model →
//! parallelize → 32-core plan → lint), regenerate the iteration trace,
//! simulate the paper's thread sweep under both plan kinds, and run the
//! seeded tuner. The native executor does none of this work, so a change
//! to the compiler, simulator or tuner is held here to "nothing got
//! slower and every simulated statistic is identical".
//!
//! Everything but host time is deterministic. Set-up computes one
//! reference pass; every measured pass must reproduce its statistics
//! exactly, and one that does not counts as failed.
//!
//! `--seed` does not reach this workload. The kernels generate their own
//! inputs, and the tuner's seed stays at its default on purpose: another
//! seed walks another trajectory whose candidates cost up to 25 % more
//! or less to simulate, so seeding it would change how much work a run
//! measures, not which inputs it sees.

use crate::metrics::{Measured, KERNELS};
use crate::native::SIZE;
use crate::spans::Recorder;
use crate::stats::best;
use seqpar::{IterationTrace, ParallelizedLoop, Parallelizer};
use seqpar_analysis::tune::{tune, Candidate, TuneConfig, TuneInput};
use seqpar_bench::{geomean, simulate, PlanKind, THREAD_SWEEP};
use seqpar_workloads::{all_workloads, Workload};
use std::time::Instant;

/// Cores of the plan each compile pass emits and lints, and the core
/// count `sim.speedup_32c.*` is read at.
const PLAN_CORES: usize = 32;
/// Compile passes per round: one pass over the 11 models is ~1 ms, too
/// short to time alone.
pub const COMPILE_REPS: usize = 100;
/// Tuner evaluations per kernel.
const TUNE_BUDGET: usize = 48;
/// Rounds measured in `RUN_SECONDS`.
pub const ROUNDS_PER_RUN: u64 = 8;

/// The statistics a pass must reproduce bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    pub speculated_deps: usize,
    pub lint_findings: usize,
    /// Simulated makespans, kernel-major over the sweep × {DSWP, TLS}.
    makespans: Vec<u64>,
    pub sim_tasks: u64,
    /// Per kernel: simulated DSWP speed-up at `PLAN_CORES`.
    pub speedup_32c: Vec<f64>,
    /// Per kernel: best simulated speed-up anywhere in the sweep.
    pub best_speedup: Vec<f64>,
    /// Per kernel: the tuner's winning candidate and its makespan.
    winners: Vec<(Candidate, u64)>,
    pub tune_evals: u64,
}

/// Host time of one pass, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// One compile pass over the 11 models (the mean of the pass's reps).
    pub compile: f64,
    pub build_model: f64,
    pub parallelize: f64,
    pub lint: f64,
    pub trace: f64,
    pub sim: f64,
    pub tune: f64,
    /// The whole pass, including what the phase timers leave out.
    pub wall: f64,
}

/// One kernel's compile: IR model → parallelize → plan → lint, each
/// phase timed (and, when `rec` is on, recorded as a span).
fn compile(
    w: &dyn Workload,
    t: &mut Timing,
    rec: &Recorder,
) -> Result<(ParallelizedLoop, usize), String> {
    let name = w.meta().name;
    let started = Instant::now();
    let model = rec.span("ir.build_model", name, || w.ir_model());
    let modelled = Instant::now();
    let result = rec
        .span("core.parallelize", name, || {
            Parallelizer::new(&model.program)
                .profile(model.profile.clone())
                .allow_unsound(true)
                .parallelize_outermost(model.func)
        })
        .map_err(|e| format!("{name}: parallelize: {e}"))?;
    let parallelized = Instant::now();
    let findings = rec.span("analysis.lint", name, || {
        let plan = result.plan(PLAN_CORES);
        result.lint_plan(&plan).entries().len()
    });
    let linted = Instant::now();
    t.build_model += (modelled - started).as_nanos() as f64;
    t.parallelize += (parallelized - modelled).as_nanos() as f64;
    t.lint += (linted - parallelized).as_nanos() as f64;
    Ok((result, findings))
}

fn tune_input(name: &str, result: &ParallelizedLoop, trace: &IterationTrace) -> TuneInput {
    let profile = result.conflict_profile();
    TuneInput {
        workload: name.to_string(),
        dswp_graph: trace.task_graph(),
        tls_graph: trace.tls_task_graph(),
        pipeline_stages: result.stage_plan().clone(),
        tls_stages: result.tls_stage_plan(),
        partition_report: result.lint_report().clone(),
        conflict_profile: (!profile.is_quiet()).then(|| profile.clone()),
    }
}

/// One pass over the suite: `compile_reps` compile passes, then trace,
/// simulate and tune every kernel.
///
/// # Errors
///
/// A compile or tuner error, naming the kernel.
pub fn pass(compile_reps: usize, rec: &Recorder) -> Result<(Stats, Timing), String> {
    let suite = all_workloads();
    let mut t = Timing::default();
    let pass_started = Instant::now();

    let mut compiled = Vec::new();
    let unrecorded = Recorder::off();
    let started = Instant::now();
    for rep in 0..compile_reps {
        // Spans for the first rep only; the others repeat it for timing's sake.
        let rec = if rep == 0 { rec } else { &unrecorded };
        compiled.clear();
        for w in &suite {
            compiled.push(compile(w.as_ref(), &mut t, rec)?);
        }
    }
    let reps = compile_reps as f64;
    t.compile = started.elapsed().as_nanos() as f64 / reps;
    (t.build_model, t.parallelize, t.lint) =
        (t.build_model / reps, t.parallelize / reps, t.lint / reps);

    let started = Instant::now();
    let traces: Vec<IterationTrace> = suite
        .iter()
        .map(|w| rec.span("workloads.trace", w.meta().name, || w.trace(SIZE)))
        .collect();
    t.trace = started.elapsed().as_nanos() as f64;

    let mut stats = Stats {
        speculated_deps: compiled
            .iter()
            .map(|(r, _)| r.speculated_deps().len())
            .sum(),
        lint_findings: compiled.iter().map(|(_, findings)| findings).sum(),
        makespans: Vec::new(),
        sim_tasks: 0,
        speedup_32c: Vec::new(),
        best_speedup: Vec::new(),
        winners: Vec::new(),
        tune_evals: 0,
    };

    let started = Instant::now();
    for (w, trace) in suite.iter().zip(&traces) {
        rec.span("sim.run", w.meta().name, || {
            let mut best = 0.0f64;
            for &threads in THREAD_SWEEP {
                for kind in [PlanKind::Dswp, PlanKind::Tls] {
                    let r = simulate(trace, threads, kind);
                    stats.makespans.push(r.makespan);
                    stats.sim_tasks += r.tasks_executed as u64;
                    best = best.max(r.speedup());
                    if threads == PLAN_CORES && kind == PlanKind::Dswp {
                        stats.speedup_32c.push(r.speedup());
                    }
                }
            }
            stats.best_speedup.push(best);
        });
    }
    t.sim = started.elapsed().as_nanos() as f64;

    let config = TuneConfig {
        budget: TUNE_BUDGET,
        ..TuneConfig::default()
    };
    for ((w, trace), (result, _)) in suite.iter().zip(&traces).zip(&compiled) {
        let name = w.meta().name;
        let input = tune_input(name, result, trace);
        let started = Instant::now();
        let tuned = rec
            .span("analysis.tune", name, || tune(&input, &config))
            .map_err(|e| format!("{name}: tune: {e}"))?;
        t.tune += started.elapsed().as_nanos() as f64;
        stats
            .winners
            .push((tuned.best.candidate, tuned.best.score.makespan));
        stats.tune_evals += tuned.evals as u64;
    }
    t.wall = pass_started.elapsed().as_nanos() as f64;
    Ok((stats, t))
}

/// Checked units per pass: each kernel is compiled, simulated and tuned.
const UNITS_PER_PASS: u64 = 3 * KERNELS.len() as u64;

/// What the measured passes produced.
pub struct Samples {
    pub reference: Stats,
    timings: Vec<Timing>,
    pub attempted: u64,
    pub failed: u64,
}

/// Set-up: the reference pass every measured pass is compared with.
///
/// # Errors
///
/// As [`pass`]; without a reference there is nothing to measure against.
pub fn set_up(rec: &Recorder) -> Result<Stats, String> {
    pass(1, rec).map(|(stats, _)| stats)
}

pub fn measure(reference: Stats, rounds: u64, rec: &Recorder) -> Samples {
    let mut s = Samples {
        reference,
        timings: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for _ in 0..rounds {
        s.attempted += UNITS_PER_PASS;
        match pass(COMPILE_REPS, rec) {
            Ok((stats, timing)) => {
                if stats != s.reference {
                    eprintln!("FAILED plan-sim: a pass did not reproduce the reference statistics");
                    s.failed += UNITS_PER_PASS;
                }
                s.timings.push(timing);
            }
            Err(e) => {
                eprintln!("FAILED plan-sim: {e}");
                s.failed += UNITS_PER_PASS;
            }
        }
    }
    s
}

impl Samples {
    /// The best pass's time in one phase (see [`crate::stats::best`]).
    fn best(&self, f: impl Fn(&Timing) -> f64) -> f64 {
        best(&self.timings.iter().map(f).collect::<Vec<f64>>())
    }

    /// `tasks_per_s` (simulated tasks per second of host time inside the
    /// simulator), `speedup_geomean` (in simulated cycles) and `round_ms`.
    ///
    /// # Errors
    ///
    /// When every pass failed and there is no timing to report.
    pub fn end_to_end(&self, out: &mut Measured) -> Result<(), String> {
        if self.timings.is_empty() {
            return Err("plan-sim: no pass completed".into());
        }
        let sim_tasks = self.reference.sim_tasks as f64;
        out.insert(
            "tasks_per_s".into(),
            sim_tasks / (self.best(|t| t.sim) / 1e9),
        );
        out.insert(
            "speedup_geomean".into(),
            geomean(self.reference.best_speedup.iter().copied()),
        );
        out.insert("round_ms".into(), self.best(|t| t.wall) / 1e6);
        Ok(())
    }

    pub fn per_layer(&self, out: &mut Measured) {
        if self.timings.is_empty() {
            return;
        }
        let r = &self.reference;
        for (kernel, speedup) in KERNELS.iter().zip(&r.speedup_32c) {
            out.insert(format!("sim.speedup_32c.{kernel}"), *speedup);
        }
        out.insert(
            "sim.host_ns_per_task".into(),
            self.best(|t| t.sim) / r.sim_tasks as f64,
        );
        out.insert("workloads.trace_ms".into(), self.best(|t| t.trace) / 1e6);
        out.insert("plan.compile_ms".into(), self.best(|t| t.compile) / 1e6);
        out.insert(
            "ir.build_model_ms".into(),
            self.best(|t| t.build_model) / 1e6,
        );
        out.insert(
            "core.parallelize_ms".into(),
            self.best(|t| t.parallelize) / 1e6,
        );
        out.insert("analysis.lint_ms".into(), self.best(|t| t.lint) / 1e6);
        out.insert("core.speculated_deps".into(), r.speculated_deps as f64);
        out.insert("analysis.lint_findings".into(), r.lint_findings as f64);
        out.insert(
            "analysis.tune_search_ms".into(),
            self.best(|t| t.tune) / 1e6,
        );
        out.insert(
            "analysis.tune_evals_per_s".into(),
            r.tune_evals as f64 / (self.best(|t| t.tune) / 1e9),
        );
    }

    pub fn lines(&self) -> Vec<String> {
        let r = &self.reference;
        let mut lines = vec![format!(
            "{:<10} {:>12} {:>12}",
            "kernel", "speedup@32c", "best speedup"
        )];
        for ((kernel, at32), best) in KERNELS.iter().zip(&r.speedup_32c).zip(&r.best_speedup) {
            lines.push(format!("{kernel:<10} {at32:>12.3} {best:>12.3}"));
        }
        if !self.timings.is_empty() {
            let walls: Vec<f64> = self.timings.iter().map(|t| t.wall / 1e6).collect();
            let s = crate::stats::summarize(&walls);
            lines.push(format!(
                "per round round_ms p25 {:.4}  median {:.4}  p75 {:.4}  n {}",
                s.p25, s.median, s.p75, s.n
            ));
            lines.push(format!(
                "per pass (best of {}): compile {:.3} ms x{COMPILE_REPS}, trace {:.1} ms, sim {:.1} ms ({} tasks), tune {:.1} ms ({} evals)",
                self.timings.len(),
                self.best(|t| t.compile) / 1e6,
                self.best(|t| t.trace) / 1e6,
                self.best(|t| t.sim) / 1e6,
                r.sim_tasks,
                self.best(|t| t.tune) / 1e6,
                r.tune_evals,
            ));
        }
        lines
    }
}
