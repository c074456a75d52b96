//! Every benchmark's extracted plan on *real* OS threads.
//!
//! Earlier revisions hand-rolled a gzip-only pipeline here. The native
//! executor (`seqpar_runtime::exec`) now runs the same A/B/C three-phase
//! plan the simulator schedules — bounded stage windows as the hardware
//! queues, replicated phase-B workers, a versioned memory that detects
//! conflicting accesses, an in-order commit unit, and squash-and-replay
//! on misspeculation — so this example is a thin caller: all eleven
//! benchmarks execute natively at several thread counts
//! (`VersionedJob::execute`, a one-shot engine per run), and each output
//! is checked byte-for-byte against the sequential run (the commit
//! discipline the paper's versioned memory enforces).
//!
//! Run with `cargo run --release --example real_threads_pipeline`.

use seqpar_runtime::{ExecConfig, ExecutionPlan};
use seqpar_workloads::{all_workloads, InputSize};

fn main() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    println!("host exposes {cores} CPU(s); wall-clock speedup is bounded by that");
    println!(
        "{:<14}{:>9}{:>9}{:>10}{:>10}{:>9}{:>9}",
        "benchmark", "threads", "seq(ms)", "wall(ms)", "speedup", "squash", "output"
    );
    for w in all_workloads() {
        let job = w.versioned_job(InputSize::Test);
        let seq = job.sequential();
        for threads in [2usize, 4, 8] {
            let plan = ExecutionPlan::three_phase(threads);
            let (r, _mem) = job
                .execute(&plan, ExecConfig::default())
                .expect("plan matches machine");
            assert_eq!(
                r.output,
                seq.output,
                "{}: native output must be byte-identical to sequential",
                w.meta().spec_id
            );
            println!(
                "{:<14}{:>9}{:>9.2}{:>10.2}{:>9.2}x{:>9}{:>9}",
                w.meta().spec_id,
                threads,
                seq.wall.as_secs_f64() * 1e3,
                r.wall.as_secs_f64() * 1e3,
                r.speedup_vs(seq.wall),
                r.squashes,
                "ok"
            );
        }
    }
    println!("\nall benchmarks byte-identical to sequential under native execution");
    if cores == 1 {
        println!(
            "note: this host has a single CPU, so the demonstration here is \
             correctness (byte-identical in-order output under concurrent \
             execution), not wall-clock scaling"
        );
    }
}
