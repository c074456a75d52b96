//! `seqpar-trace`: capture and inspect a structured execution timeline.
//!
//! Usage:
//!
//! ```text
//! seqpar-trace <workload> [--threads N] [--size test|train|ref]
//!              [--fault-seed N] [--out trace.json]
//! seqpar-trace <w1>,<w2>,... [--threads N] [--out trace.json]
//! seqpar-trace --check trace.json
//! ```
//!
//! The workload (a SPEC id like `164.gzip`, or its short name `gzip`)
//! is run under `tls(N)`, the native executor's one-stage plan, on real
//! OS threads with [`ExecConfig::trace`] enabled; its
//! committed output is checked byte-for-byte against the sequential
//! run; and the stitched timeline is validated, summarized (per-stage
//! service/queue/commit histograms), rendered as a terminal Gantt
//! chart, and compared against the simulator's timeline of the same
//! plan (commit order must agree — speculation replay differs by
//! design, see OBSERVABILITY.md).
//!
//! A comma-separated workload list runs every named job **concurrently
//! on one persistent engine** (`--threads` sizes the shared pool);
//! each job's output is still byte-checked against its own sequential
//! run, the per-job timelines are merged with `Timeline::merge` into
//! one JobId-tagged stream, and `--out` exports that merged stream as
//! Chrome JSON where each job renders as its own process row (pid =
//! job id; see OBSERVABILITY.md for the schema).
//!
//! `--out PATH` additionally exports the timeline as Chrome
//! `trace_event` JSON — load it in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`. `--check PATH` parses an exported file and
//! validates it against the trace-event schema without running
//! anything (the CI smoke job round-trips `--out` through `--check`).
//!
//! Exit status: 0 on success, 1 when the timeline (or a checked file)
//! is malformed, sim and native disagree on commit order, or the run was
//! *vacuous* — a plan of more than one seat none of whose attempts ran
//! on a runner, or a fault plan that panicked attempts runners ran with
//! no panic reported recovered — 2 on usage errors.

use seqpar_bench::{
    json, render_critical_path, render_grain, render_timeline_gantt, render_trace_summary,
    trace_native,
};
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecutionPlan, FaultKind, FaultPlan, NativeReport, SimConfig,
    Simulator, Timeline, TraceEventKind,
};
use seqpar_workloads::{all_workloads, stage_labels, InputSize, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 4usize;
    let mut size = InputSize::Test;
    let mut fault_seed = None;
    let mut out_path = None;
    let mut check_path = None;
    let mut target = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--threads" => {
                threads = match iter.next().map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    other => usage(&format!("--threads needs an integer >= 1, got {other:?}")),
                }
            }
            "--size" => {
                size = match iter.next().map(String::as_str) {
                    Some("test") => InputSize::Test,
                    Some("train") => InputSize::Train,
                    Some("ref") => InputSize::Ref,
                    other => usage(&format!("unknown size {other:?} (use test|train|ref)")),
                }
            }
            "--fault-seed" => {
                fault_seed = match iter.next().map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) => Some(n),
                    other => usage(&format!("--fault-seed needs a u64, got {other:?}")),
                }
            }
            "--out" => match iter.next() {
                Some(p) => out_path = Some(p.clone()),
                None => usage("--out needs a path"),
            },
            "--check" => match iter.next() {
                Some(p) => check_path = Some(p.clone()),
                None => usage("--check needs a path"),
            },
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => usage(&format!("unexpected argument {other}")),
        }
    }

    if let Some(path) = check_path {
        check_file(&path);
        return;
    }
    let Some(target) = target else {
        usage("a workload is required (a SPEC id like 164.gzip, its short name, or --check PATH)");
    };
    let workloads = all_workloads();
    if target.contains(',') {
        multi_job_trace(
            &workloads,
            &target,
            threads,
            size,
            fault_seed,
            out_path.as_deref(),
        );
        return;
    }
    let Some(w) = find_workload(&workloads, &target) else {
        usage(&format!(
            "unknown workload {target} (use a SPEC id like 164.gzip or a short name like gzip)"
        ));
    };

    let mut config = ExecConfig::default();
    if let Some(seed) = fault_seed {
        config = config.with_faults(FaultPlan::seeded(seed));
    }
    let exec_plan = ExecutionPlan::tls(threads);
    let meta = w.meta();
    println!(
        "## {}: traced native run ({threads} threads, tls plan)",
        meta.spec_id
    );
    let run = trace_native(w, size, threads, &config);
    let report = &run.report;
    println!("{}", run.grain);
    println!(
        "wall {:.3} ms (sequential {:.3} ms); {} tasks committed in {} attempts, \
         {} squashed, {} panics recovered; output byte-identical to sequential",
        report.wall.as_secs_f64() * 1e3,
        run.sequential_wall_ms,
        report.tasks_committed,
        report.attempts,
        report.squashes,
        report.recovery.panics_recovered,
    );
    if let Some(m) = report.mem {
        println!(
            "memory substrate: {} reads ({} forwarded), {} writes ({} silent), \
             {} conflicts, {} commits, {} rollbacks",
            m.reads, m.forwards, m.writes, m.silent_stores, m.violations, m.commits, m.rollbacks,
        );
    }

    let timeline = &run.timeline;
    if let Err(defect) = timeline.validate() {
        eprintln!("timeline is MALFORMED: {defect}");
        std::process::exit(1);
    }
    println!("timeline: {} events, well-formed", timeline.len());
    require_real_work(
        meta.spec_id,
        report,
        timeline,
        &exec_plan,
        &config.fault_plan,
    );
    println!();

    let labels = stage_labels(timeline.stage_count());
    print!("{}", render_trace_summary(timeline, &labels));
    println!();
    print!("{}", render_timeline_gantt(timeline));

    println!(
        "{}",
        render_critical_path(&timeline.critical_path(), timeline.unit())
    );

    // The simulated twin runs the task graph the run executed, at the
    // grain it executed it.
    let graph = &*run.graph;

    // Differential check: the simulator's timeline of the same plan must
    // commit tasks in the same order (always sequential order, for both).
    let sim = Simulator::new(SimConfig {
        cores: threads,
        comm_latency: 10,
        queue_capacity: 128,
        ..SimConfig::default()
    });
    let sim_timeline = sim
        .run(graph, &exec_plan)
        .expect("plan matches machine")
        .timeline(graph);
    if sim_timeline.commit_order() == timeline.commit_order() {
        println!(
            "sim/native commit order: agree ({} tasks)",
            timeline.commit_order().len()
        );
    } else {
        eprintln!("sim/native commit order: DISAGREE");
        std::process::exit(1);
    }

    if let Some(path) = out_path {
        let text = timeline.to_chrome_json(&labels);
        if let Err(e) = json::check_chrome_trace(&text) {
            eprintln!("exported trace failed self-check: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path} ({} bytes) — load it at https://ui.perfetto.dev or chrome://tracing",
            text.len()
        );
    }
}

/// Multi-job mode: run every comma-named workload concurrently on one
/// persistent engine, byte-check each against its own sequential run,
/// merge the JobId-tagged timelines, and optionally export the merged
/// stream as Chrome JSON (one process row per job).
fn multi_job_trace(
    workloads: &[Box<dyn Workload>],
    targets: &str,
    threads: usize,
    size: InputSize,
    fault_seed: Option<u64>,
    out_path: Option<&str>,
) {
    let mut config = ExecConfig::default().with_tracing(true);
    if let Some(seed) = fault_seed {
        config = config
            .with_faults(FaultPlan::seeded(seed))
            .with_retry_budget(4);
    }
    let exec_plan = ExecutionPlan::tls(threads);
    let engine = Engine::new(EngineConfig::with_workers(threads));
    engine.warm();
    println!(
        "## multi-job traced run: {targets} concurrently on one {threads}-worker engine (tls plan)"
    );
    // Submit every job before waiting on any: they overlap on the pool.
    let mut submitted = Vec::new();
    for name in targets.split(',') {
        let name = name.trim();
        let Some(w) = find_workload(workloads, name) else {
            usage(&format!("unknown workload {name} in the job list"));
        };
        let job = w.versioned_job(size);
        let seq = job.sequential();
        println!("{}: {}", w.meta().spec_id, render_grain(&job, &exec_plan));
        let handle = engine.submit(job.job_spec(&exec_plan, config.clone()).0);
        submitted.push((w.meta().spec_id, seq, handle));
    }
    let mut timelines = Vec::new();
    let mut stage_count = 0;
    for (id, seq, handle) in submitted {
        let job_id = handle.id();
        let mut report = handle.wait().unwrap_or_else(|e| {
            eprintln!("{id}: job failed: {e}");
            std::process::exit(1);
        });
        if report.output != seq.output {
            eprintln!("{id}: output DIVERGED from sequential");
            std::process::exit(1);
        }
        println!(
            "job {job_id} {id}: wall {:.3} ms (sequential {:.3} ms); {} tasks committed \
             in {} attempts, {} squashed; output byte-identical to sequential",
            report.wall.as_secs_f64() * 1e3,
            seq.wall.as_secs_f64() * 1e3,
            report.tasks_committed,
            report.attempts,
            report.squashes,
        );
        let timeline = report.timeline.take().expect("tracing was on");
        require_real_work(id, &report, &timeline, &exec_plan, &config.fault_plan);
        stage_count = stage_count.max(timeline.stage_count());
        timelines.push(timeline);
    }
    let merged = Timeline::merge(timelines);
    if let Err(defect) = merged.validate() {
        eprintln!("merged timeline is MALFORMED: {defect}");
        std::process::exit(1);
    }
    println!(
        "merged timeline: {} events across the jobs, well-formed (per-job \
         pairing and commit order hold under the merge)",
        merged.len()
    );
    if let Some(path) = out_path {
        let labels = stage_labels(stage_count);
        let text = merged.to_chrome_json(&labels);
        if let Err(e) = json::check_chrome_trace(&text) {
            eprintln!("exported trace failed self-check: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path} ({} bytes) — each job renders as its own process row \
             (pid = job id) at https://ui.perfetto.dev",
            text.len()
        );
    }
}

/// Exits 1 if the run proves nothing about the pipelined path: a plan
/// with somebody to overlap with, yet no attempt ran on a runner
/// (everything was committed at the frontier); or `faults` panicked
/// attempts that runners did run — the sequential fallback is never
/// sabotaged — and the report recovered from none. The frontier handles
/// a panic before any conflict check, so every one counts.
fn require_real_work(
    id: &str,
    report: &NativeReport,
    timeline: &Timeline,
    plan: &ExecutionPlan,
    faults: &FaultPlan,
) {
    let on_runners: u64 = report.workers.iter().map(|w| w.tasks).sum();
    let seats = Engine::seats(plan);
    if seats > 1 && on_runners == 0 {
        eprintln!("{id}: VACUOUS: a {seats}-seat plan, and no attempt ran on a runner");
        std::process::exit(1);
    }
    if faults.is_inert() {
        return;
    }
    let sabotaged = timeline
        .events()
        .iter()
        .filter(|e| match e.kind {
            TraceEventKind::Dispatch { task, attempt, .. } => {
                faults.fault_at(task, attempt) == Some(FaultKind::WorkerPanic)
            }
            _ => false,
        })
        .count();
    let recovered = report.recovery.panics_recovered;
    println!(
        "{id}: {on_runners} attempts ran on runners, {sabotaged} of them panicked, \
         {recovered} panics recovered"
    );
    if sabotaged > 0 && recovered == 0 {
        eprintln!("{id}: VACUOUS: panicked attempts ran, and nothing was recovered");
        std::process::exit(1);
    }
}

/// `--check` mode: parse and schema-validate an exported trace file.
fn check_file(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match json::check_chrome_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: valid Chrome trace ({} events: {} slices, {} instants, \
                 {} counter samples, {} metadata records)",
                check.events, check.slices, check.instants, check.counters, check.metadata
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID Chrome trace: {e}");
            std::process::exit(1);
        }
    }
}

/// Accepts a full SPEC id (`164.gzip`) or its short name (`gzip`).
fn find_workload<'a>(workloads: &'a [Box<dyn Workload>], name: &str) -> Option<&'a dyn Workload> {
    workloads
        .iter()
        .find(|w| {
            let id = w.meta().spec_id;
            id == name || id.split('.').nth(1) == Some(name)
        })
        .map(std::convert::AsRef::as_ref)
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: seqpar-trace <workload> [--threads N] \
         [--size test|train|ref] [--fault-seed N] [--out trace.json]\n\
         \x20      seqpar-trace <w1>,<w2>,... [--threads N] [--out trace.json]\n\
         \x20      seqpar-trace --check trace.json"
    );
    std::process::exit(2);
}
