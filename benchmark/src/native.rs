//! The three workloads that run the native executor. One closed loop on
//! the calling thread: `Engine::run` supervises inline, the pool has `W`
//! workers, and nothing else in the process is runnable.
//!
//! Set-up (engine built and warmed, jobs built, oracle bytes computed)
//! is outside every timed region. A round times, for every job in a
//! seeded order, the sequential oracle and then the native run, over a
//! fixed number of rounds. A job's speed-up is the median over rounds of
//! that adjacent pair's ratio, so machine drift lands on both sides of
//! it; a job's wall time is its best round (see [`crate::stats::best`]).

use crate::host::Host;
use crate::ladder::{self, Variant, RUNGS};
use crate::metrics::{Measured, LADDER_PIPELINED, SPEC_GOVERNED, SPEC_PIPELINED};
use crate::spans::{BodySpans, Recorder};
use crate::stats::{best, median, summarize};
use seqpar_bench::geomean;
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecError, ExecutionPlan, GovernorConfig, NativeReport,
    Timeline,
};
use seqpar_workloads::{all_workloads, InputSize, Prng, VersionedJob};
use std::time::Instant;

/// The input size of every SPEC kernel. The kernels generate their own
/// inputs from this and nothing else, so `--seed` cannot reach them.
pub const SIZE: InputSize = InputSize::Train;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SpecGoverned,
    SpecPipelined,
    Ladder,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Self> {
        [Kind::SpecGoverned, Kind::SpecPipelined, Kind::Ladder]
            .into_iter()
            .find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecGoverned => SPEC_GOVERNED,
            Kind::SpecPipelined => SPEC_PIPELINED,
            Kind::Ladder => LADDER_PIPELINED,
        }
    }

    /// Rounds measured in `RUN_SECONDS`; a fixed count, so parent and
    /// change always measure the same amount of work.
    pub fn rounds_per_run(self) -> u64 {
        match self {
            Kind::SpecGoverned => 9,
            Kind::SpecPipelined => 8,
            Kind::Ladder => 16,
        }
    }

    fn config(self) -> ExecConfig {
        match self {
            Kind::SpecGoverned => governed(),
            Kind::SpecPipelined | Kind::Ladder => ExecConfig::default(),
        }
    }
}

fn governed() -> ExecConfig {
    ExecConfig::default().with_governor(GovernorConfig::default())
}

/// One job with its expected bytes.
pub struct Case {
    pub name: String,
    pub job: VersionedJob,
    pub tasks: u64,
    oracle: Vec<u8>,
}

/// Everything built before the first timed region.
pub struct Setup {
    pub engine: Engine,
    pub cases: Vec<Case>,
    /// Body-span sink shared by the ladder's closures (traced runs only).
    pub bodies: Option<BodySpans>,
    pub build_jobs_ms: f64,
}

/// Builds the engine, the jobs and their oracle outputs. Spans are
/// recorded around each call into `crates/workloads` when `rec` is on.
pub fn set_up(kind: Kind, seed: u64, host: &Host, rec: &Recorder) -> Setup {
    let engine = Engine::new(EngineConfig::with_workers(host.workers));
    engine.warm();
    let bodies = (rec.is_on() && kind == Kind::Ladder).then(|| rec.body_spans());
    let started = Instant::now();
    let jobs: Vec<(String, VersionedJob)> = match kind {
        Kind::SpecGoverned | Kind::SpecPipelined => all_workloads()
            .iter()
            .map(|w| {
                let name = w.meta().name;
                (
                    name.to_string(),
                    rec.span("workloads.build_job", name, || w.versioned_job(SIZE)),
                )
            })
            .collect(),
        Kind::Ladder => RUNGS
            .iter()
            .flat_map(|rung| Variant::ALL.map(|variant| (*rung, variant)))
            .map(|(rung, variant)| {
                let name = format!("{}.{}", rung.name, variant.suffix());
                let job = rec.span("workloads.build_job", &name, || {
                    ladder::build(seed, rung, variant, bodies.clone())
                });
                (name, job)
            })
            .collect(),
    };
    let build_jobs_ms = started.elapsed().as_secs_f64() * 1e3;
    let cases = jobs
        .into_iter()
        .map(|(name, job)| {
            let oracle = rec
                .span("workloads.sequential", &name, || job.sequential())
                .output;
            Case {
                tasks: job.len() as u64,
                name,
                job,
                oracle,
            }
        })
        .collect();
    Setup {
        engine,
        cases,
        bodies,
        build_jobs_ms,
    }
}

/// One timed native run, byte-compared with the oracle.
struct Run {
    wall_ns: f64,
    /// `None` when the run returned an error or the wrong bytes.
    report: Option<NativeReport>,
}

fn run_native(
    engine: &Engine,
    case: &Case,
    plan: &ExecutionPlan,
    config: ExecConfig,
    rec: &Recorder,
    span: &'static str,
    bodies: Option<&BodySpans>,
) -> Run {
    // The spec (task graph, fresh substrate) is built outside the timed
    // region: it is per-run set-up, not execution.
    let (spec, _mem) = case.job.job_spec(plan, config);
    let mut wall_ns = 0.0;
    let timed = || {
        let started = Instant::now();
        let result = engine.run(&spec);
        wall_ns = started.elapsed().as_nanos() as f64;
        result
    };
    let result: Result<NativeReport, ExecError> = match bodies {
        Some(sink) => rec.span_with_bodies(span, &case.name, sink, timed),
        None => rec.span(span, &case.name, timed),
    };
    let report = match result {
        Ok(report) if report.output == case.oracle => Some(report),
        Ok(_) => {
            eprintln!(
                "FAILED {}: committed bytes differ from the sequential oracle",
                case.name
            );
            None
        }
        Err(e) => {
            eprintln!("FAILED {}: {e}", case.name);
            None
        }
    };
    Run { wall_ns, report }
}

/// Everything the rounds measured, per case (outer index) and round.
pub struct Samples {
    kind: Kind,
    rounds: u64,
    seq_ns: Vec<Vec<f64>>,
    native_ns: Vec<Vec<f64>>,
    traced_ns: Vec<Vec<f64>>,
    utilization: Vec<f64>,
    totals: Totals,
    /// Median-able stage numbers from each traced round's merged timeline:
    /// service p50, queue-wait p50, commit-latency p50 and p99, in ns.
    stage_ns: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
}

/// Counter sums over every untraced native run.
#[derive(Default)]
struct Totals {
    committed: u64,
    attempts: u64,
    fallback_runs: u64,
    watchdog_trips: u64,
    degraded_commits: u64,
    governor: [u64; 5],
    mem_begins: u64,
    mem: [u64; 5],
}

impl Totals {
    fn add(&mut self, r: &NativeReport) {
        self.committed += r.tasks_committed;
        self.attempts += r.attempts;
        self.fallback_runs += u64::from(r.fallback_activated);
        self.watchdog_trips += r.watchdog_trips;
        if let Some(g) = r.governor {
            self.degraded_commits += g.degraded_commits;
            for (sum, v) in self
                .governor
                .iter_mut()
                .zip([g.degrades, g.reprobes, g.shrinks, g.grows, g.backoffs])
            {
                *sum += v;
            }
        }
        if let Some(m) = r.mem {
            self.mem_begins += m.begins;
            for (sum, v) in self.mem.iter_mut().zip([
                m.reads,
                m.forwards,
                m.silent_stores,
                m.violations,
                m.rollbacks,
            ]) {
                *sum += v;
            }
        }
    }
}

fn shuffled(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Runs `rounds` rounds. With the recorder on, every job also runs once
/// per round with the program's own tracing enabled — those runs feed
/// `stage_metrics()` and the tracing-overhead number and nothing else.
pub fn measure(
    kind: Kind,
    setup: &Setup,
    host: &Host,
    rounds: u64,
    seed: u64,
    rec: &Recorder,
) -> Samples {
    let n = setup.cases.len();
    let plan = ExecutionPlan::tls(host.workers);
    let mut s = Samples {
        kind,
        rounds,
        seq_ns: vec![Vec::new(); n],
        native_ns: vec![Vec::new(); n],
        traced_ns: vec![Vec::new(); n],
        utilization: Vec::new(),
        totals: Totals::default(),
        stage_ns: Default::default(),
        attempted: 0,
        failed: 0,
    };
    let mut rng = Prng::new(seed ^ 0x0DDE_7A5C);
    for round in 0..rounds {
        let mut timelines: Vec<Timeline> = Vec::new();
        for j in shuffled(n, &mut rng) {
            let case = &setup.cases[j];
            let started = Instant::now();
            let seq = rec.span("workloads.sequential", &case.name, || case.job.sequential());
            s.seq_ns[j].push(started.elapsed().as_nanos() as f64);
            s.attempted += 1;
            if seq.output != case.oracle {
                eprintln!(
                    "FAILED {}: the sequential oracle does not repeat",
                    case.name
                );
                s.failed += 1;
            }

            let run = run_native(
                &setup.engine,
                case,
                &plan,
                kind.config(),
                rec,
                "exec.run",
                None,
            );
            s.native_ns[j].push(run.wall_ns);
            s.attempted += 1;
            match &run.report {
                Some(report) => {
                    s.totals.add(report);
                    s.utilization.push(report.utilization());
                }
                None => s.failed += 1,
            }

            if rec.is_on() {
                // Ladder bodies record their own spans in the first traced
                // round only: 60 000 spans are plenty.
                let bodies = setup.bodies.as_ref().filter(|_| round == 0);
                let config = kind.config().with_tracing(true);
                let traced = run_native(
                    &setup.engine,
                    case,
                    &plan,
                    config,
                    rec,
                    "exec.run.traced",
                    bodies,
                );
                s.traced_ns[j].push(traced.wall_ns);
                s.attempted += 1;
                match traced.report.and_then(|r| r.timeline) {
                    Some(timeline) => timelines.push(timeline),
                    None => s.failed += 1,
                }
            }
        }
        if !timelines.is_empty() {
            let merged = Timeline::merge(timelines);
            if let Some(stage) = merged.stage_metrics().first() {
                let numbers = [
                    stage.service.p50,
                    stage.queue_wait.p50,
                    stage.commit_latency.p50,
                    stage.commit_latency.p99,
                ];
                for (samples, v) in s.stage_ns.iter_mut().zip(numbers) {
                    samples.push(v as f64);
                }
            }
        }
    }
    s
}

/// One row of the per-job table.
pub struct JobRow {
    pub name: String,
    pub tasks: u64,
    /// Best sequential and native wall over the rounds.
    pub seq_ms: f64,
    pub native_ms: f64,
    pub native_p25_ms: f64,
    pub native_median_ms: f64,
    pub native_p75_ms: f64,
    /// Median over rounds of sequential ÷ native wall of the same round.
    pub speedup: f64,
    pub overhead_ns_per_task: f64,
}

impl Samples {
    pub fn rows(&self, setup: &Setup) -> Vec<JobRow> {
        setup
            .cases
            .iter()
            .enumerate()
            .map(|(j, case)| {
                let seq = best(&self.seq_ns[j]);
                let native = summarize(&self.native_ns[j]);
                let ratios: Vec<f64> = self.seq_ns[j]
                    .iter()
                    .zip(&self.native_ns[j])
                    .map(|(seq, native)| seq / native)
                    .collect();
                JobRow {
                    name: case.name.clone(),
                    tasks: case.tasks,
                    seq_ms: seq / 1e6,
                    native_ms: native.min / 1e6,
                    native_p25_ms: native.p25 / 1e6,
                    native_median_ms: native.median / 1e6,
                    native_p75_ms: native.p75 / 1e6,
                    speedup: median(&ratios),
                    overhead_ns_per_task: (native.min - seq) / case.tasks as f64,
                }
            })
            .collect()
    }

    /// Each round's own `tasks_per_s`, `speedup_geomean` and `round_ms`.
    fn round_series(&self, setup: &Setup) -> [Vec<f64>; 3] {
        let tasks: u64 = setup.cases.iter().map(|c| c.tasks).sum();
        let jobs = 0..setup.cases.len();
        let mut series: [Vec<f64>; 3] = Default::default();
        for r in 0..self.rounds as usize {
            let native_ns: f64 = jobs.clone().map(|j| self.native_ns[j][r]).sum();
            let seq_ns: f64 = jobs.clone().map(|j| self.seq_ns[j][r]).sum();
            let speedups = jobs
                .clone()
                .map(|j| self.seq_ns[j][r] / self.native_ns[j][r]);
            series[0].push(tasks as f64 / (native_ns / 1e9));
            series[1].push(geomean(speedups));
            series[2].push((seq_ns + native_ns) / 1e6);
        }
        series
    }

    /// The spread of the end-to-end numbers over this run's rounds.
    pub fn round_lines(&self, setup: &Setup) -> Vec<String> {
        ["tasks_per_s", "speedup_geomean", "round_ms"]
            .iter()
            .zip(self.round_series(setup))
            .map(|(name, series)| {
                let s = summarize(&series);
                format!(
                    "per round {name:<16} p25 {:>14.4}  median {:>14.4}  p75 {:>14.4}  n {}",
                    s.p25, s.median, s.p75, s.n
                )
            })
            .collect()
    }

    /// `tasks_per_s` (Σ tasks ÷ Σ per-job best native wall),
    /// `speedup_geomean` (over jobs, of the median per-round speed-up) and
    /// `round_ms` (Σ over jobs of best sequential + best native wall).
    pub fn end_to_end(&self, setup: &Setup, out: &mut Measured) {
        let rows = self.rows(setup);
        let tasks: u64 = rows.iter().map(|r| r.tasks).sum();
        let native_s: f64 = rows.iter().map(|r| r.native_ms / 1e3).sum();
        out.insert("tasks_per_s".into(), tasks as f64 / native_s);
        out.insert(
            "speedup_geomean".into(),
            geomean(rows.iter().map(|r| r.speedup)),
        );
        let round_ms: f64 = rows.iter().map(|r| r.seq_ms + r.native_ms).sum();
        out.insert("round_ms".into(), round_ms);
    }

    /// The per-layer numbers the rounds themselves yield.
    pub fn per_layer(&self, setup: &Setup, out: &mut Measured) {
        let wl = self.kind.name();
        let rows = self.rows(setup);
        let t = &self.totals;
        let per_round = |v: u64| v as f64 / self.rounds as f64;
        out.insert("workloads.build_jobs_ms".into(), setup.build_jobs_ms);
        for row in &rows {
            match self.kind {
                Kind::SpecGoverned | Kind::SpecPipelined => {
                    let mode = if self.kind == Kind::SpecGoverned {
                        "governed"
                    } else {
                        "pipelined"
                    };
                    out.insert(format!("exec.speedup.{mode}.{}", row.name), row.speedup);
                    out.insert(
                        format!("workloads.body_ns_per_task.{}", row.name),
                        row.seq_ms * 1e6 / row.tasks as f64,
                    );
                }
                Kind::Ladder => {
                    out.insert(
                        format!("exec.overhead_ns_per_task.{}", row.name),
                        row.overhead_ns_per_task,
                    );
                }
            }
        }
        out.insert(
            format!("exec.worker_utilization.{wl}"),
            median(&self.utilization),
        );
        out.insert(
            format!("exec.useful_attempt_ratio.{wl}"),
            t.committed as f64 / t.attempts.max(1) as f64,
        );
        out.insert("exec.fallback_runs".into(), t.fallback_runs as f64);
        out.insert("exec.watchdog_trips".into(), t.watchdog_trips as f64);
        if self.kind == Kind::SpecGoverned {
            out.insert(
                format!("exec.pipelined_fraction.{wl}"),
                1.0 - t.degraded_commits as f64 / t.committed.max(1) as f64,
            );
            let names = ["degrades", "reprobes", "shrinks", "grows", "backoffs"];
            for (name, v) in names.iter().zip(t.governor) {
                out.insert(format!("governor.{name}"), per_round(v));
            }
        }
        let names = [
            "reads",
            "forwards",
            "silent_stores",
            "violations",
            "rollbacks",
        ];
        for (name, v) in names.iter().zip(t.mem) {
            out.insert(format!("specmem.{name}"), per_round(v));
        }
        out.insert(
            "specmem.forward_ratio".into(),
            t.mem[1] as f64 / t.mem[0].max(1) as f64,
        );
        out.insert(
            "specmem.violation_ratio".into(),
            t.mem[3] as f64 / t.mem_begins.max(1) as f64,
        );

        if self.traced_ns.iter().all(|v| !v.is_empty()) {
            let sum = |runs: &[Vec<f64>]| runs.iter().map(|v| best(v)).sum::<f64>();
            let overhead = sum(&self.traced_ns) / sum(&self.native_ns) - 1.0;
            out.insert(format!("exec.trace_overhead_pct.{wl}"), overhead * 100.0);
        }
        if self.kind != Kind::SpecGoverned && !self.stage_ns[0].is_empty() {
            let names = [
                "service_us_p50",
                "queue_wait_us_p50",
                "commit_latency_us_p50",
                "commit_latency_us_p99",
            ];
            for (name, samples) in names.iter().zip(&self.stage_ns) {
                out.insert(format!("exec.{name}.{wl}"), median(samples) / 1e3);
            }
        }
    }
}

/// Ladder only, traced run only: the clean rungs once more at
/// `tls(nproc)` — one thread more than the host has cores, labelled
/// `oversubscribed` and never gated — and once more under the default
/// governor, whose regret is its wall over the better of the sequential
/// loop and the forced pipeline.
pub fn ladder_extras(
    setup: &Setup,
    samples: &mut Samples,
    host: &Host,
    rec: &Recorder,
    out: &mut Measured,
) {
    const REPS: usize = 3;
    let wide = Engine::new(EngineConfig::with_workers(host.nproc));
    wide.warm();
    let wide_plan = ExecutionPlan::tls(host.nproc);
    let plan = ExecutionPlan::tls(host.workers);
    for (j, case) in setup
        .cases
        .iter()
        .enumerate()
        .filter(|(_, c)| c.name.ends_with(".clean"))
    {
        let seq = best(&samples.seq_ns[j]);
        let pipelined = best(&samples.native_ns[j]);
        let mut failed = 0;
        let mut timed = |engine: &Engine, plan: &ExecutionPlan, config: ExecConfig, span| {
            let walls: Vec<f64> = (0..REPS)
                .filter_map(|_| {
                    let run = run_native(engine, case, plan, config.clone(), rec, span, None);
                    failed += u64::from(run.report.is_none());
                    run.report.map(|_| run.wall_ns)
                })
                .collect();
            (walls.len() == REPS).then(|| best(&walls))
        };
        if let Some(wall) = timed(
            &wide,
            &wide_plan,
            ExecConfig::default(),
            "exec.run.at_nproc",
        ) {
            out.insert(format!("exec.speedup_at_nproc.{}", case.name), seq / wall);
        }
        if let Some(wall) = timed(&setup.engine, &plan, governed(), "exec.run.governed") {
            out.insert(
                format!("governor.regret.{}", case.name),
                wall / seq.min(pipelined),
            );
        }
        samples.attempted += 2 * REPS as u64;
        samples.failed += failed;
    }
}
