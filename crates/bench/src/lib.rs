//! Experiment harness: sweeps, tables, and figure regeneration.
//!
//! This crate turns workload traces into the paper's tables and figures,
//! and runs the kernels natively for the [`native`] table. The entry
//! point is the `figures` binary (`cargo run -p seqpar-bench --bin
//! figures -- all`); the library half exposes the sweep machinery to the
//! binaries, the integration tests and the examples.

#![warn(missing_docs)]

pub mod native;
pub mod tune;

/// The workspace's dependency-free JSON reader (re-exported from
/// `seqpar-runtime`, where the plan-artifact loader also uses it).
pub use seqpar_runtime::json;

/// How iterations are scheduled in a sweep: the tuner's plan kind, one
/// enum for both.
pub use seqpar_analysis::tune::PlanKind;

use seqpar::IterationTrace;
use seqpar_runtime::{
    CriticalPath, Engine, EngineConfig, ExecConfig, ExecutionPlan, NativeReport, SimConfig,
    SimResult, Simulator, TaskGraph, TimeUnit, Timeline, TraceEventKind,
};
use seqpar_workloads::{InputSize, VersionedJob, Workload, WorkloadMeta};
use std::sync::Arc;

/// The thread counts used throughout the paper's figures.
pub const THREAD_SWEEP: &[usize] = &[1, 2, 4, 6, 8, 10, 12, 15, 16, 20, 24, 28, 32];

/// One point of a speedup curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Thread (core) count.
    pub threads: usize,
    /// Speedup of multi-threaded over single-threaded execution.
    pub speedup: f64,
    /// Fraction of speculations that were violated.
    pub misspec_rate: f64,
    /// Core utilization.
    pub utilization: f64,
}

/// A full speedup curve for one benchmark.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Benchmark SPEC id.
    pub spec_id: String,
    /// The points, in ascending thread order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The best speedup and the minimum thread count achieving it
    /// (within 1%), as in Table 2.
    pub fn best(&self) -> SweepPoint {
        let max = self.points.iter().map(|p| p.speedup).fold(0.0f64, f64::max);
        *self
            .points
            .iter()
            .find(|p| p.speedup >= max * 0.99)
            .expect("sweep is non-empty")
    }

    /// The speedup at a specific thread count, if swept.
    pub fn at(&self, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.threads == threads)
            .map(|p| p.speedup)
    }
}

/// The task graph `kind` schedules `trace` as.
fn graph_of(trace: &IterationTrace, kind: PlanKind) -> TaskGraph {
    match kind {
        PlanKind::Dswp => trace.task_graph(),
        PlanKind::Tls => trace.tls_task_graph(),
    }
}

/// Simulates one trace at one thread count under the given plan. A sweep
/// builds the graph once and calls [`simulate_graph`] per point instead.
pub fn simulate(trace: &IterationTrace, threads: usize, kind: PlanKind) -> SimResult {
    simulate_graph(&graph_of(trace, kind), threads, kind)
}

/// Simulates `graph` — a trace's graph of the same `kind` — at one thread
/// count under the given plan.
pub fn simulate_graph(graph: &TaskGraph, threads: usize, kind: PlanKind) -> SimResult {
    let plan = kind.plan(threads);
    // Channel buffering: a stage-to-stage channel gangs several of the
    // machine's 256 hardware queues (only a handful of channels exist),
    // giving 128 in-flight iterations; the single-queue 32-entry case is
    // measured by the queue-capacity ablation.
    let sim = Simulator::new(SimConfig {
        cores: threads,
        comm_latency: 10,
        queue_capacity: 128,
        ..SimConfig::default()
    });
    sim.run(graph, &plan).expect("plan matches machine")
}

/// Sweeps a precomputed trace over `threads`.
pub fn sweep_trace(
    spec_id: &str,
    trace: &IterationTrace,
    threads: &[usize],
    kind: PlanKind,
) -> SweepResult {
    let graph = graph_of(trace, kind);
    let points = threads
        .iter()
        .map(|&t| {
            let r = simulate_graph(&graph, t, kind);
            SweepPoint {
                threads: t,
                speedup: r.speedup(),
                misspec_rate: misspec_rate(&r),
                utilization: r.utilization(),
            }
        })
        .collect();
    SweepResult {
        spec_id: spec_id.to_string(),
        points,
    }
}

/// The share of a simulation's speculated dependences that manifested.
pub fn misspec_rate(r: &SimResult) -> f64 {
    let speculated = r.violations + r.speculations_survived;
    if speculated == 0 {
        0.0
    } else {
        r.violations as f64 / speculated as f64
    }
}

/// Runs the full sweep for one workload.
pub fn sweep_workload(w: &dyn Workload, size: InputSize, kind: PlanKind) -> SweepResult {
    let trace = w.trace(size);
    sweep_trace(w.meta().spec_id, &trace, THREAD_SWEEP, kind)
}

/// One line on the grain `job` runs at under `plan`: its iterations and
/// the time of one as its first sequential run measured it (the job's
/// `Debug`), how many tasks of how many iterations that makes, and which
/// of [`VersionedJob::grain`]'s rules set `k` — at one seat the whole
/// loop; else its floor of 8 tasks per seat of the plan when doubling
/// `k` would break that, else the ~32 µs task-length target, which no
/// smaller `k` reaches. Coarsening is never silent: `seqpar-trace`
/// prints this for every job it runs, and `figures --native` prints
/// each row's k.
pub fn render_grain(job: &VersionedJob, plan: &ExecutionPlan) -> String {
    let k = job.grain(plan);
    let seats = plan.seats().map_or(1, std::num::NonZeroUsize::get);
    let bound = if seats <= 1 {
        "one seat: the loop is one task".to_string()
    } else if job.len() / (2 * k) < 8 * seats {
        format!("no larger k keeps 8 tasks for each of the plan's {seats} seats")
    } else {
        "no smaller k reaches the ~32 us target".to_string()
    };
    format!(
        "grain: {job:?} -> {} tasks of k = {k} iterations ({bound})",
        job.len().div_ceil(k)
    )
}

/// Renders a set of curves as an ASCII table (threads × benchmarks), the
/// textual equivalent of the paper's figures.
pub fn render_curves(title: &str, curves: &[SweepResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!("{:>8}", "threads"));
    for c in curves {
        out.push_str(&format!("{:>14}", c.spec_id));
    }
    out.push('\n');
    for (i, &t) in THREAD_SWEEP.iter().enumerate() {
        out.push_str(&format!("{t:>8}"));
        for c in curves {
            out.push_str(&format!("{:>14.2}", c.points[i].speedup));
        }
        out.push('\n');
    }
    out
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark id.
    pub spec_id: String,
    /// Minimum threads at which the best speedup occurs.
    pub threads: usize,
    /// Best speedup.
    pub speedup: f64,
    /// Moore's-law reference speedup at that thread count.
    pub moore: f64,
    /// speedup / moore.
    pub ratio: f64,
    /// The paper's reported speedup, for side-by-side comparison.
    pub paper_speedup: f64,
    /// The paper's reported thread count.
    pub paper_threads: u32,
    /// `seqpar-lint` verdict for this benchmark's plan (e.g. `clean`,
    /// `warn(1)`, `DENY(2)`). `None` unless the caller ran the linter
    /// (the `figures --lint` path fills it in).
    pub lint: Option<String>,
    /// The plan autotuner's verdict for this benchmark at the default
    /// 8-core budget: the winner's simulated speedup and its evaluator
    /// cost delta vs the untuned default (e.g. `4.12x (-18%)`). `None`
    /// unless the caller ran the tuner (the `figures --tuned` path
    /// fills it in).
    pub tuned: Option<String>,
}

/// Computes Table 2 from sweeps.
pub fn table2(sweeps: &[(WorkloadMeta, SweepResult)]) -> Vec<Table2Row> {
    sweeps
        .iter()
        .map(|(meta, sweep)| {
            let best = sweep.best();
            let moore = WorkloadMeta::moore_speedup(best.threads as u32);
            Table2Row {
                spec_id: meta.spec_id.to_string(),
                threads: best.threads,
                speedup: best.speedup,
                moore,
                ratio: best.speedup / moore,
                paper_speedup: meta.paper_speedup,
                paper_threads: meta.paper_threads,
                lint: None,
                tuned: None,
            }
        })
        .collect()
}

/// Geometric mean of a positive series.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Renders Table 2 rows.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let with_lint = rows.iter().any(|r| r.lint.is_some());
    let with_tuned = rows.iter().any(|r| r.tuned.is_some());
    let mut out = String::new();
    out.push_str("## Table 2: best speedup vs Moore's-law reference\n");
    out.push_str(&format!(
        "{:<14}{:>9}{:>9}{:>8}{:>7} |{:>9}{:>9}",
        "benchmark", "threads", "speedup", "moore", "ratio", "paper", "paper#"
    ));
    if with_lint {
        out.push_str("  lint");
    }
    if with_tuned {
        out.push_str(&format!("  {:<16}", "tuned@8"));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<14}{:>9}{:>9.2}{:>8.2}{:>7.2} |{:>9.2}{:>9}",
            r.spec_id, r.threads, r.speedup, r.moore, r.ratio, r.paper_speedup, r.paper_threads
        ));
        if let Some(v) = &r.lint {
            out.push_str(&format!("  {v}"));
        }
        if with_tuned {
            out.push_str(&format!("  {:<16}", r.tuned.as_deref().unwrap_or("—")));
        }
        out.push('\n');
    }
    let gm_speedup = geomean(rows.iter().map(|r| r.speedup));
    let gm_threads = geomean(rows.iter().map(|r| r.threads as f64));
    let gm_moore = geomean(rows.iter().map(|r| r.moore));
    let gm_ratio = geomean(rows.iter().map(|r| r.ratio));
    let am = |f: &dyn Fn(&Table2Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    out.push_str(&format!(
        "{:<14}{:>9.0}{:>9.2}{:>8.2}{:>7.2} |{:>9.2}\n",
        "GeoMean",
        gm_threads,
        gm_speedup,
        gm_moore,
        gm_ratio,
        geomean(rows.iter().map(|r| r.paper_speedup)),
    ));
    out.push_str(&format!(
        "{:<14}{:>9.0}{:>9.2}{:>8.2}{:>7.2} |{:>9.2}\n",
        "ArithMean",
        am(&|r| r.threads as f64),
        am(&|r| r.speedup),
        am(&|r| r.moore),
        am(&|r| r.ratio),
        am(&|r| r.paper_speedup),
    ));
    out
}

/// A traced native run of one workload: the report, its structured
/// timeline, and the sequential wall time it was checked against.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The native executor's report (timeline detached into
    /// [`TracedRun::timeline`]).
    pub report: NativeReport,
    /// The stitched execution timeline (validated by the caller;
    /// [`trace_native`] only guarantees it is present).
    pub timeline: Timeline,
    /// Wall-clock milliseconds of the sequential reference run.
    pub sequential_wall_ms: f64,
    /// The task graph the run executed ([`VersionedJob::graph`]): what a
    /// simulated twin of *this* run is taken over — a graph re-derived
    /// from a second job's trace need not have the same grain.
    pub graph: Arc<TaskGraph>,
    /// [`render_grain`] of the job that ran.
    pub grain: String,
}

/// Runs one workload under `tls(threads)` on real OS threads with
/// structured tracing enabled and returns the report plus its
/// [`Timeline`].
///
/// As in the [`native`] table, the committed output is checked
/// byte-for-byte against the sequential run before anything is
/// returned — a trace of an execution that broke sequential semantics
/// would be worse than no trace. Every workload runs conflict-driven on
/// the versioned-memory substrate, so reports carry its counters in
/// [`NativeReport::mem`].
pub fn trace_native(
    w: &dyn Workload,
    size: InputSize,
    threads: usize,
    config: &ExecConfig,
) -> TracedRun {
    let job = w.versioned_job(size);
    let plan = ExecutionPlan::tls(threads);
    let seq = job.sequential();
    let engine = Engine::new(EngineConfig::for_plan(&plan));
    engine.warm();
    let (spec, _mem) = job.job_spec(&plan, config.clone().with_tracing(true));
    let mut report = engine
        .run(&spec)
        .expect("plan matches machine and faults are recoverable");
    assert_eq!(
        report.output,
        seq.output,
        "{}: native output diverged from sequential at {threads} threads",
        w.meta().spec_id
    );
    let timeline = report
        .timeline
        .take()
        .expect("traced run carries a timeline");
    TracedRun {
        report,
        timeline,
        sequential_wall_ms: seq.wall.as_secs_f64() * 1e3,
        graph: Arc::new(job.graph(&plan)),
        grain: render_grain(&job, &plan),
    }
}

/// Renders a timeline's per-stage histograms as an ASCII table — the
/// `seqpar-trace` terminal view. One row per
/// stage: attempts, commits, service-time percentiles, queue wait,
/// commit latency, and each stage's share of total busy time.
///
/// `labels` names the stages (see
/// [`seqpar_workloads::stage_labels`]); stages beyond the slice fall
/// back to `stage N`.
pub fn render_trace_summary(timeline: &Timeline, labels: &[String]) -> String {
    let unit = timeline.unit();
    let metrics = timeline.stage_metrics();
    let total_busy: u64 = metrics.iter().map(seqpar_runtime::StageMetrics::busy).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "### trace summary: {} events over {} {unit}\n",
        timeline.len(),
        timeline.span()
    ));
    out.push_str(&format!(
        "{:<16}{:>9}{:>9}{:>12}{:>12}{:>12}{:>12}{:>12}{:>7}\n",
        "stage",
        "attempts",
        "commits",
        "svc-p50",
        "svc-p90",
        "svc-max",
        "qwait-p50",
        "commit-p50",
        "busy%"
    ));
    for m in &metrics {
        let label = labels
            .get(m.stage.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("stage {}", m.stage.0));
        let share = if total_busy == 0 {
            0.0
        } else {
            100.0 * m.busy() as f64 / total_busy as f64
        };
        out.push_str(&format!(
            "{label:<16}{:>9}{:>9}{:>12}{:>12}{:>12}{:>12}{:>12}{share:>6.1}%\n",
            m.attempts,
            m.committed,
            m.service.p50,
            m.service.p90,
            m.service.max,
            m.queue_wait.p50,
            m.commit_latency.p50,
        ));
    }
    out
}

/// Renders a timeline as an ASCII Gantt chart, one row per core, built
/// from its dispatch/complete slices: a native run's, or a simulated
/// schedule's through [`SimResult::timeline`](seqpar_runtime::SimResult::timeline).
///
/// Glyphs cycle `A..J` by task id; squashed attempts draw like any
/// other slice (they occupied the core just the same).
pub fn render_timeline_gantt(timeline: &Timeline) -> String {
    const COLUMNS: usize = 72;
    let span = timeline.span().max(1);
    let scale = span as f64 / COLUMNS as f64;
    let mut started: std::collections::HashMap<(usize, u32, u32), u64> =
        std::collections::HashMap::new();
    let mut rows: Vec<Vec<u8>> = Vec::new();
    for e in timeline.events() {
        match e.kind {
            TraceEventKind::Dispatch {
                core,
                task,
                attempt,
                ..
            } => {
                started.insert((core, task, attempt), e.ts);
            }
            TraceEventKind::Complete {
                core,
                task,
                attempt,
                ..
            } => {
                let Some(start) = started.remove(&(core, task, attempt)) else {
                    continue;
                };
                if rows.len() <= core {
                    rows.resize(core + 1, vec![b'.'; COLUMNS]);
                }
                let lo = (start as f64 / scale) as usize;
                let hi = ((e.ts as f64 / scale) as usize).max(lo + 1);
                let glyph = b"ABCDEFGHIJ"[task as usize % 10];
                for cell in rows[core].iter_mut().take(hi.min(COLUMNS)).skip(lo) {
                    *cell = glyph;
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (c, row) in rows.iter().enumerate() {
        out.push_str(&format!("core {c:>2} |"));
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out
}

/// Renders a critical-path estimate as one line: total weight and the
/// task chain (elided in the middle when long).
pub fn render_critical_path(path: &CriticalPath, unit: TimeUnit) -> String {
    let ids: Vec<String> = path.tasks.iter().map(|t| format!("t{}", t.0)).collect();
    let chain = if ids.len() > 8 {
        format!(
            "{} … {} ({} tasks)",
            ids[..4].join(" → "),
            ids[ids.len() - 2..].join(" → "),
            ids.len()
        )
    } else {
        ids.join(" → ")
    };
    format!("critical path: {} {unit} through {chain}", path.length)
}

/// Renders Table 1 from workload metadata.
pub fn render_table1(metas: &[WorkloadMeta]) -> String {
    let mut out = String::new();
    out.push_str("## Table 1: loops, lines changed, techniques\n");
    out.push_str(&format!(
        "{:<14}{:>6}{:>7}{:>7}  {:<50}\n",
        "benchmark", "exec%", "lines", "model", "techniques"
    ));
    for m in metas {
        let techniques: Vec<String> = m
            .techniques
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        out.push_str(&format!(
            "{:<14}{:>6}{:>7}{:>7}  {:<50}\n",
            m.spec_id,
            m.exec_time_pct,
            m.lines_changed_all,
            m.lines_changed_model,
            techniques.join(", ")
        ));
        for l in m.loops {
            out.push_str(&format!("{:14}  loop: {l}\n", ""));
        }
    }
    let total: u32 = metas.iter().map(|m| m.lines_changed_all).sum();
    out.push_str(&format!("total lines changed: {total} (paper: 60)\n"));
    out
}

/// The lint verdict for one workload's computed partition and plan.
#[derive(Clone, Debug)]
pub struct LintOutcome {
    /// Benchmark SPEC id.
    pub spec_id: &'static str,
    /// Merged report: partition-level findings plus the plan-shape
    /// check of the `cores`-way execution plan.
    pub report: seqpar_analysis::LintReport,
    /// Whether the emitted plan carries an intact lint stamp (set only
    /// when every check passed at deny level).
    pub plan_stamped: bool,
    /// Predicted per-iteration conflict density of the `cores`-way
    /// plan, in permille (the audit pass's static estimate).
    pub predicted_conflict_permille: u32,
    /// Display name of the densest predicted conflict region, if any.
    pub hottest_region: Option<String>,
}

/// Parallelizes `w`'s IR model exactly as the library pipeline would —
/// same builder, same profile — except with `allow_unsound`, so that a
/// deny-level partition is *reported* (by the lint, or by the tuner's
/// own refusal) rather than refused.
///
/// # Panics
///
/// Panics if the model does not parallelize at all: every workload in
/// the suite does.
pub fn parallelize_model(w: &dyn Workload) -> seqpar::ParallelizedLoop {
    let model = w.ir_model();
    seqpar::Parallelizer::new(&model.program)
        .profile(model.profile)
        .allow_unsound(true)
        .parallelize_outermost(model.func)
        .expect("workload IR model parallelizes")
}

/// Runs the full `seqpar-lint` battery over one workload's IR model
/// ([`parallelize_model`]): the partition report merged with the
/// plan-shape check of the `cores`-way plan.
pub fn lint_workload(w: &dyn Workload, cores: usize) -> LintOutcome {
    let result = parallelize_model(w);
    let plan = result.plan(cores);
    // Priced for the plan's seats: its iterations race each other.
    let profile = result.conflict_profile().scaled(cores);
    LintOutcome {
        spec_id: w.meta().spec_id,
        report: result.lint_plan(&plan),
        plan_stamped: plan.is_linted(),
        predicted_conflict_permille: profile.density_permille(),
        hottest_region: profile.hottest().map(|r| r.region.clone()),
    }
}

/// Renders lint outcomes as a GitHub-flavoured markdown table, suitable
/// for piping into a CI step summary.
pub fn render_lint_table(outcomes: &[LintOutcome]) -> String {
    let mut out = String::new();
    out.push_str(
        "| benchmark | deny | warn | codes | plan stamped | conflict ‰ | hot region | verdict |\n",
    );
    out.push_str(
        "|-----------|-----:|-----:|-------|:------------:|-----------:|------------|---------|\n",
    );
    for o in outcomes {
        let codes: Vec<String> = o
            .report
            .codes()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            o.spec_id,
            o.report.deny_count(),
            o.report.warn_count(),
            if codes.is_empty() {
                "—".to_string()
            } else {
                codes.join(", ")
            },
            if o.plan_stamped { "yes" } else { "no" },
            o.predicted_conflict_permille,
            o.hottest_region.as_deref().unwrap_or("—"),
            if o.report.is_clean() {
                "clean"
            } else {
                "**DENY**"
            },
        ));
    }
    let denies: usize = outcomes.iter().map(|o| o.report.deny_count()).sum();
    let warns: usize = outcomes.iter().map(|o| o.report.warn_count()).sum();
    out.push_str(&format!(
        "\n{} workload(s): {denies} deny finding(s), {warns} warning(s)\n",
        outcomes.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean([4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 1.0);
    }

    #[test]
    fn sweep_points_align_with_thread_sweep() {
        let mut trace = IterationTrace::new();
        for _ in 0..64 {
            trace.push(seqpar::IterationRecord::new(1, 50, 1));
        }
        let s = sweep_trace("demo", &trace, THREAD_SWEEP, PlanKind::Dswp);
        assert_eq!(s.points.len(), THREAD_SWEEP.len());
        assert!(s.at(32).unwrap() > s.at(1).unwrap());
        assert!(s.best().speedup >= s.at(1).unwrap());
    }

    #[test]
    fn lint_workload_estimates_the_annealers_conflict_density() {
        // The annealers' profiled swap collisions dominate their static
        // estimates; a speculation-free workload stays quiet.
        let outcome = |id: &str| {
            let w = seqpar_workloads::workload_by_name(id).expect("known benchmark");
            lint_workload(w.as_ref(), 8)
        };
        let vpr = outcome("175.vpr");
        assert!(vpr.predicted_conflict_permille > 0);
        assert_eq!(vpr.hottest_region.as_deref(), Some("block_coords"));
        assert!(outcome("300.twolf").predicted_conflict_permille > 0);
        assert_eq!(outcome("197.parser").predicted_conflict_permille, 0);
    }

    #[test]
    fn grain_line_names_the_bound_that_allows_no_larger_k() {
        // 128 iterations under tls(2): the floor of 8 tasks a seat
        // allows k = 8.
        let job = |pause: Duration| {
            let trace = (0..128).map(|_| seqpar::IterationRecord::new(1, 1, 1));
            let compute = move |i: u64| {
                std::thread::sleep(pause);
                (vec![i as u8], 1)
            };
            VersionedJob::accumulating(trace.collect(), compute, 0, |_, _, _| {})
        };
        let plan = ExecutionPlan::tls(2);
        // Iterations that outlast the target: k = 1, and not for the floor.
        let slow = job(Duration::from_micros(40));
        let line = render_grain(&slow, &plan);
        assert!(line.contains("-> 128 tasks of k = 1 "), "{line}");
        assert!(line.contains("reaches the ~32 us target"), "{line}");
        // Short ones reach the floor (a preempted first run reads long,
        // so three tries).
        let lines: Vec<String> = (0..3)
            .map(|_| render_grain(&job(Duration::ZERO), &plan))
            .collect();
        let capped = |l: &String| {
            l.contains("-> 16 tasks of k = 8 ")
                && l.contains("8 tasks for each of the plan's 2 seats")
        };
        assert!(lines.iter().any(capped), "{lines:?}");
        // One seat takes the loop whole, however long an iteration.
        for measured in [slow, job(Duration::ZERO)] {
            let line = render_grain(&measured, &ExecutionPlan::tls(1));
            assert!(line.contains("-> 1 tasks of k = 128 "), "{line}");
            assert!(line.contains("(one seat: the loop is one task)"), "{line}");
        }
    }

    #[test]
    fn gantt_rendering_covers_every_core_row() {
        let mut trace = IterationTrace::new();
        for _ in 0..32 {
            trace.push(seqpar::IterationRecord::new(2, 20, 2));
        }
        let sim = Simulator::new(SimConfig {
            cores: 4,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let graph = trace.task_graph();
        let r = sim.run(&graph, &ExecutionPlan::three_phase(4)).unwrap();
        let chart = render_timeline_gantt(&r.timeline(&graph));
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains("core  0 |"));
        // Busy cores show glyphs, not only idle dots.
        assert!(chart.bytes().filter(u8::is_ascii_uppercase).count() > 10);
    }

    #[test]
    fn trace_renderers_cover_a_simulated_timeline() {
        let mut trace = IterationTrace::new();
        for _ in 0..24 {
            trace.push(seqpar::IterationRecord::new(2, 20, 2));
        }
        let graph = trace.task_graph();
        let sim = Simulator::new(SimConfig {
            cores: 4,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let timeline = sim
            .run(&graph, &ExecutionPlan::three_phase(4))
            .unwrap()
            .timeline(&graph);
        timeline.validate().unwrap();

        let labels = seqpar_workloads::stage_labels(timeline.stage_count());
        let summary = render_trace_summary(&timeline, &labels);
        assert!(summary.contains("B (transform)"));
        assert!(summary.contains("busy%"));
        // Stage shares sum to ~100% across the three rows.
        assert!(summary.contains("cycles"));

        let gantt = render_timeline_gantt(&timeline);
        assert_eq!(gantt.lines().count(), 4, "one row per plan core");
        assert!(gantt.bytes().filter(u8::is_ascii_uppercase).count() > 10);

        let path = timeline.critical_path();
        let line = render_critical_path(&path, timeline.unit());
        assert!(line.contains("critical path"));
        assert!(line.contains("cycles"));
    }

    #[test]
    fn traced_native_run_exports_a_valid_chrome_trace() {
        let w = seqpar_workloads::workload_by_name("164.gzip").expect("gzip exists");
        let run = trace_native(w.as_ref(), InputSize::Test, 4, &ExecConfig::default());
        run.timeline.validate().unwrap();
        assert!(run.report.timeline.is_none(), "timeline was detached");
        let labels = seqpar_workloads::stage_labels(run.timeline.stage_count());
        let text = run.timeline.to_chrome_json(&labels);
        let check = json::check_chrome_trace(&text).expect("exported trace passes the schema");
        assert!(check.slices > 0, "task executions become X slices");
        assert!(check.instants > 0, "commits become instants");
        assert!(check.metadata > 0, "process/thread names are present");
    }

    #[test]
    fn render_functions_produce_nonempty_tables() {
        let mut trace = IterationTrace::new();
        for _ in 0..16 {
            trace.push(seqpar::IterationRecord::new(1, 10, 1));
        }
        let s = sweep_trace("demo", &trace, THREAD_SWEEP, PlanKind::Dswp);
        let fig = render_curves("demo fig", &[s]);
        assert!(fig.contains("demo"));
        assert!(fig.lines().count() > THREAD_SWEEP.len());
    }
}
