//! The paper's Figure 1 + Figure 7, executable: the Y-branch tradeoff.
//!
//! gzip decides adaptively when to restart its dictionary, which makes
//! block boundaries unpredictable and kills parallelism. Fixed-interval
//! restarts (what the Y-branch authorizes the compiler to do) cost a
//! little compression and unlock pipeline-parallel block compression.
//!
//! This example measures both sides of the trade on the real LZ77 kernel:
//! the compression ratios under adaptive vs fixed blocking, and the
//! speedup sweep of the fixed-block parallelization.
//!
//! Run with `cargo run --release --example compress_pipeline`.

use seqpar_bench::{simulate_graph, PlanKind};
use seqpar_workloads::gzip::{BlockMode, Gzip};
use seqpar_workloads::{InputSize, Workload};

fn main() {
    let g = Gzip;
    let size = InputSize::Train;

    let whole = g.compression_ratio(size, BlockMode::Fixed(usize::MAX));
    let adaptive = g.compression_ratio(size, BlockMode::Adaptive);
    let fixed = g.compression_ratio(size, BlockMode::Fixed(32 * 1024));
    println!("compression ratio (lower is better):");
    println!("  whole file      {whole:.4}");
    println!("  adaptive blocks {adaptive:.4} (gzip's heuristic, unparallelizable)");
    println!("  fixed blocks    {fixed:.4} (Y-branch / pigz, parallelizable)");
    println!(
        "  fixed-block loss vs whole file: {:.2}% (paper reports <1%)",
        (fixed - whole) * 100.0
    );

    println!("\nspeedup of the fixed-block pipeline (Figure 7):");
    let trace = g.trace(size);
    println!(
        "  {} blocks, misspeculation rate {:.0}%",
        trace.len(),
        trace.misspec_rate() * 100.0
    );
    println!("{:>8}{:>10}", "cores", "speedup");
    let graph = trace.task_graph();
    for cores in [1usize, 2, 4, 8, 16, 32] {
        let r = simulate_graph(&graph, cores, PlanKind::Dswp);
        println!("{cores:>8}{:>10.2}", r.speedup());
    }
}
