//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! figures [--size test|train|ref] [--lint] [--tuned] \
//!     [fig4|fig5|fig6|fig7|table1|table2|ablations|gantt|all]
//! figures --native [--size test|train|ref] [--fault-seed N] <SPEC ids…|all>
//! ```
//!
//! `--lint` adds a `lint` column to Table 2: each benchmark's partition
//! and plan are run through the `seqpar-lint` battery and the verdict
//! (`clean`, `warn(n)`, `DENY(n)`) is printed next to its speedup.
//!
//! `--tuned` adds a `tuned@8` column to Table 2: the plan autotuner
//! (default budget, 8-core budget — see AUTOTUNING.md) searches each benchmark's plan space and the column
//! shows the winner's simulated speedup with its evaluator cost delta
//! against the untuned default, e.g. `4.12x (-18%)`. This is the
//! simulator's verdict only; `seqpar-tune` validates winners natively
//! and persists them as plan artifacts.
//!
//! With `--native`, targets name benchmarks (`164.gzip`, … or `all`) and
//! each runs on real OS threads under `tls(1)` and `tls(2)`, one row
//! each (the native executor runs one stage; the simulated figures keep
//! the paper's three-phase plan). A row reads sequential ÷ native wall as the
//! median `[IQR]` of 7 repeats that alternate the order of the sequential
//! loop and the native run, beside the median sequential
//! wall (the job's first run, which records its trace, is timed on its
//! own as `first(ms)`), the squash ratio next to the simulator's
//! misspeculation on the graph the runs executed, and k. A spin-pair
//! capacity reading before and after each benchmark certifies its
//! two-seat rows; below 1.8 on either side they print as `shared core`
//! and stay out of the footer's geomean. Every run's output is
//! byte-checked against the sequential loop, and a mismatch panics.
//! Native runs default to the `test` input size (real wall time, not
//! simulated cycles) unless `--size` is given. For per-stage timelines
//! use the `seqpar-trace` binary.
//!
//! `--fault-seed N` (native mode only) arms the deterministic fault
//! injector with `FaultPlan::seeded(N)` on every native run: worker
//! panics and stalls are injected and the supervisor must recover —
//! output stays byte-identical and the `recovered` column counts
//! recovered panics.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator
//! over work-unit traces, not an Itanium 2), but the *shapes* — which
//! benchmarks scale, where they saturate, who beats the Moore's-law
//! reference — are the reproduction target (see EXPERIMENTS.md).

use seqpar_bench::native::{native_kernel, render_native_table};
use seqpar_bench::{
    render_curves, render_table1, render_table2, sweep_workload, table2, PlanKind, SweepResult,
};
use seqpar_workloads::{all_workloads, workload_by_name, InputSize};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut size = None;
    let mut native = false;
    let mut lint = false;
    let mut tuned = false;
    let mut fault_seed = None;
    let mut targets = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--lint" => lint = true,
            "--tuned" => tuned = true,
            "--size" => {
                size = match iter.next().map(String::as_str) {
                    Some("test") => Some(InputSize::Test),
                    Some("train") => Some(InputSize::Train),
                    Some("ref") => Some(InputSize::Ref),
                    other => {
                        eprintln!("unknown size {other:?} (use test|train|ref)");
                        std::process::exit(2);
                    }
                }
            }
            "--native" => native = true,
            "--fault-seed" => {
                fault_seed = match iter.next().map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) => Some(n),
                    other => {
                        eprintln!("--fault-seed needs a u64, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    if native {
        // Real threads measure real seconds: default to the small input so
        // `--native all` stays interactive.
        run_native(size.unwrap_or(InputSize::Test), &targets, fault_seed);
        return;
    }
    if fault_seed.is_some() {
        eprintln!("--fault-seed only applies to --native runs");
        std::process::exit(2);
    }
    let size = size.unwrap_or(InputSize::Train);
    for t in &targets {
        match t.as_str() {
            "fig4" => fig(
                size,
                "Figure 4: parallelizable by the framework",
                &["181.mcf", "253.perlbmk", "255.vortex", "256.bzip2"],
            ),
            "fig5" => fig(
                size,
                "Figure 5: Commutative-enabled",
                &["176.gcc", "254.gap"],
            ),
            "fig6" => fig(
                size,
                "Figure 6: improved parallelizations",
                &["186.crafty", "197.parser", "300.twolf", "175.vpr"],
            ),
            "fig7" => fig(size, "Figure 7: Y-branch (gzip)", &["164.gzip"]),
            "table1" => table1(),
            "gantt" => gantt(size),
            "table2" => run_table2(size, lint, tuned),
            "ablations" => ablations(size),
            "all" => {
                fig(
                    size,
                    "Figure 4: parallelizable by the framework",
                    &["181.mcf", "253.perlbmk", "255.vortex", "256.bzip2"],
                );
                fig(
                    size,
                    "Figure 5: Commutative-enabled",
                    &["176.gcc", "254.gap"],
                );
                fig(
                    size,
                    "Figure 6: improved parallelizations",
                    &["186.crafty", "197.parser", "300.twolf", "175.vpr"],
                );
                fig(size, "Figure 7: Y-branch (gzip)", &["164.gzip"]);
                table1();
                run_table2(size, lint, tuned);
                ablations(size);
                gantt(size);
            }
            other => {
                eprintln!("unknown target {other}");
                std::process::exit(2);
            }
        }
    }
}

/// `--native` mode: each target is a benchmark id (or `all`); every
/// benchmark runs its rows of the native table, and the table prints
/// once all have run.
fn run_native(size: InputSize, targets: &[String], fault_seed: Option<u64>) {
    let mut selected = Vec::new();
    for t in targets {
        match t.as_str() {
            "all" => selected.extend(all_workloads()),
            id => selected.push(workload_by_name(id).unwrap_or_else(|| {
                eprintln!("unknown benchmark {id} (use a SPEC id like 164.gzip, or all)");
                std::process::exit(2);
            })),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("## Native table: sequential / native wall, median [IQR] (host exposes {cores} CPU(s); size {size:?})");
    if let Some(seed) = fault_seed {
        println!("fault injection armed on every native run: FaultPlan::seeded({seed})");
    }
    let kernels: Vec<_> = selected
        .iter()
        .map(|w| native_kernel(w.as_ref(), size, fault_seed))
        .collect();
    print!("{}", render_native_table(&kernels));
}

fn fig(size: InputSize, title: &str, ids: &[&str]) {
    let curves: Vec<SweepResult> = ids
        .iter()
        .map(|id| {
            let w = workload_by_name(id).expect("known benchmark");
            sweep_workload(w.as_ref(), size, PlanKind::Dswp)
        })
        .collect();
    println!("{}", render_curves(title, &curves));
}

fn table1() {
    let metas: Vec<_> = all_workloads().iter().map(|w| w.meta()).collect();
    println!("{}", render_table1(&metas));
}

fn run_table2(size: InputSize, lint: bool, tuned: bool) {
    let sweeps: Vec<_> = all_workloads()
        .iter()
        .map(|w| (w.meta(), sweep_workload(w.as_ref(), size, PlanKind::Dswp)))
        .collect();
    let mut rows = table2(&sweeps);
    if lint {
        for (row, w) in rows.iter_mut().zip(all_workloads().iter()) {
            let report = seqpar_bench::lint_workload(w.as_ref(), 8).report;
            row.lint = Some(if report.deny_count() > 0 {
                format!("DENY({})", report.deny_count())
            } else if report.warn_count() > 0 {
                format!("warn({})", report.warn_count())
            } else {
                "clean".to_string()
            });
        }
    }
    if tuned {
        // Default search at the 8-core budget: deterministic, so
        // the column is reproducible run to run (see AUTOTUNING.md).
        let config = seqpar_analysis::tune::TuneConfig::default();
        for (row, w) in rows.iter_mut().zip(all_workloads().iter()) {
            let tunable = seqpar_bench::tune::TunableWorkload::prepare(w.as_ref(), size);
            row.tuned = Some(match tunable.tune(&config) {
                Ok(r) => {
                    let delta =
                        100.0 * (r.best.score.cost - r.baseline.score.cost) / r.baseline.score.cost;
                    format!("{:.2}x ({delta:+.0}%)", r.best.score.sim_speedup)
                }
                Err(e) => match e {
                    seqpar_analysis::tune::TuneError::UnsoundPartition { .. } => {
                        "unsound".to_string()
                    }
                    other => format!("error: {other}"),
                },
            });
        }
    }
    println!("{}", render_table2(&rows));
}

/// Prints the first cycles of 256.bzip2's 8-core schedule — the A/B/C
/// pipeline of paper Figure 3, rendered from a real trace.
fn gantt(size: InputSize) {
    let w = workload_by_name("256.bzip2").expect("bzip2 exists");
    let trace = w.trace(size);
    let sim = seqpar_runtime::Simulator::new(seqpar_runtime::SimConfig {
        cores: 8,
        comm_latency: 10,
        queue_capacity: 128,
        ..seqpar_runtime::SimConfig::default()
    });
    let graph = trace.task_graph();
    let r = sim
        .run(&graph, &seqpar_runtime::ExecutionPlan::three_phase(8))
        .expect("valid plan");
    println!("## Figure 3 (schedule view): 256.bzip2 on 8 cores");
    println!("core 0 = phase A (read), cores 1-6 = phase B (transform), core 7 = phase C (write)");
    print!(
        "{}",
        seqpar_bench::render_timeline_gantt(&r.timeline(&graph))
    );
    println!();
}

/// Design-choice ablations called out in DESIGN.md.
fn ablations(size: InputSize) {
    println!("## Ablations");
    // DSWP vs TLS execution plans (paper §3.2: results should be similar).
    println!("\n### DSWP vs TLS plan, best speedup");
    println!("{:<14}{:>10}{:>10}", "benchmark", "dswp", "tls");
    for w in all_workloads() {
        let d = sweep_workload(w.as_ref(), size, PlanKind::Dswp).best();
        let t = sweep_workload(w.as_ref(), size, PlanKind::Tls).best();
        println!(
            "{:<14}{:>10.2}{:>10.2}",
            w.meta().spec_id,
            d.speedup,
            t.speedup
        );
    }
    // Speculation value: re-run with every speculation event violated
    // (equivalent to synchronizing all carried dependences).
    println!("\n### Value of speculation (32 threads, DSWP)");
    println!(
        "{:<14}{:>12}{:>16}",
        "benchmark", "speculative", "synchronized"
    );
    for w in all_workloads() {
        let trace = w.trace(size);
        let spec = seqpar_bench::simulate(&trace, 32, PlanKind::Dswp).speedup();
        let sync = {
            // Rewrite every record to depend on its predecessor.
            let mut t = seqpar::IterationTrace::speculative();
            for (i, r) in trace.records().iter().enumerate() {
                let mut r = *r;
                if i > 0 {
                    r.misspec_on = Some(i as u64 - 1);
                }
                t.push(r);
            }
            seqpar_bench::simulate(&t, 32, PlanKind::Dswp).speedup()
        };
        println!("{:<14}{:>12.2}{:>16.2}", w.meta().spec_id, spec, sync);
    }
    // Dynamic least-loaded vs static round-robin phase-B assignment on
    // the most variance-bound benchmark.
    println!("\n### Dynamic vs static phase-B assignment (186.crafty, 16 threads)");
    let crafty = workload_by_name("186.crafty").expect("crafty exists");
    let ctrace = crafty.trace(size);
    let cgraph = ctrace.task_graph();
    let sim16 = seqpar_runtime::Simulator::new(seqpar_runtime::SimConfig {
        cores: 16,
        comm_latency: 10,
        queue_capacity: 128,
        ..seqpar_runtime::SimConfig::default()
    });
    let dynamic = sim16
        .run(&cgraph, &seqpar_runtime::ExecutionPlan::three_phase(16))
        .expect("valid plan");
    let rr = sim16
        .run(
            &cgraph,
            &seqpar_runtime::ExecutionPlan::three_phase_static(16),
        )
        .expect("valid plan");
    println!(
        "least-loaded: {:.2}   round-robin: {:.2}",
        dynamic.speedup(),
        rr.speedup()
    );

    // 176.gcc's label_num fix (§4.2.1): global counter vs the paper's
    // per-function (function, number) pairs.
    println!("\n### 176.gcc label numbering (16 threads)");
    let gcc = seqpar_workloads::gcc::Gcc;
    let fixed = seqpar_bench::simulate(
        &seqpar_workloads::Workload::trace(&gcc, size),
        16,
        PlanKind::Dswp,
    )
    .speedup();
    let global =
        seqpar_bench::simulate(&gcc.trace_with_global_labels(size), 16, PlanKind::Dswp).speedup();
    println!("per-function labels: {fixed:.2}   global label_num: {global:.2}");

    // Queue capacity sweep on the most pipeline-bound benchmark.
    println!("\n### Queue capacity (164.gzip, 16 threads)");
    let gzip = workload_by_name("164.gzip").expect("gzip exists");
    let trace = gzip.trace(size);
    let graph = trace.task_graph();
    for cap in [1usize, 4, 8, 32, 128] {
        let sim = seqpar_runtime::Simulator::new(seqpar_runtime::SimConfig {
            cores: 16,
            comm_latency: 10,
            queue_capacity: cap,
            ..seqpar_runtime::SimConfig::default()
        });
        let r = sim
            .run(&graph, &seqpar_runtime::ExecutionPlan::three_phase(16))
            .expect("valid plan");
        println!(
            "capacity {cap:>4}: speedup {:>6.2} (stall cycles {})",
            r.speedup(),
            r.queue_stall_cycles
        );
    }
}
