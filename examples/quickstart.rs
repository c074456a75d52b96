//! Quickstart: parallelize an annotated sequential loop end to end.
//!
//! Builds the IR for a small compression-style loop, runs the full
//! compiler pipeline (analysis → annotations → speculation → PS-DSWP
//! partitioning), then simulates the extracted three-phase pipeline on
//! machines of growing size.
//!
//! Run with `cargo run --example quickstart`.

use seqpar::{IterationRecord, IterationTrace, Parallelizer, SpeculationConfig};
use seqpar_bench::{simulate, PlanKind};
use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode, Program};

fn main() {
    // 1. Model the hot loop: read an item, transform it with a pure
    //    function, append the result. The RNG used for sampling carries
    //    internal state, so the programmer marks it Commutative.
    let mut program = Program::new("quickstart");
    let seed = program.add_global("rng_seed", 1);
    let out = program.add_global("output_cursor", 1);
    program.declare_extern("read_item", ExternEffect::pure_fn());
    program.declare_extern(
        "sample",
        ExternEffect {
            reads: vec![seed],
            writes: vec![seed],
            ..Default::default()
        },
    );
    program.declare_extern("transform", ExternEffect::pure_fn());

    let mut b = FunctionBuilder::new("main_loop");
    let header = b.add_block("header");
    let exit = b.add_block("exit");
    b.jump(header);
    b.switch_to(header);
    let item = b.call_ext("read_item", &[], None);
    let noise = b.call_ext("sample", &[], Some(CommGroupId(0)));
    let result = b.call_ext("transform", &[item, noise], None);
    let aout = b.global_addr(out);
    let cursor = b.load(aout);
    let next = b.binop(Opcode::Add, cursor, result);
    b.store(aout, next);
    let zero = b.const_(0);
    let done = b.binop(Opcode::CmpEq, item, zero);
    b.cond_branch(done, exit, header);
    b.switch_to(exit);
    b.ret(None);
    let func = b.finish(&mut program);

    // 2. Extract threads.
    let parallelized = Parallelizer::new(&program)
        .speculation(SpeculationConfig::default())
        .parallelize_outermost(func)
        .expect("the loop parallelizes");
    println!("report: {}", parallelized.report());
    println!(
        "parallel fraction: {:.0}% (ideal pipeline bound {:.1}x)",
        parallelized.report().parallel_fraction() * 100.0,
        parallelized.report().ideal_speedup_bound()
    );

    // 3. Measure: pretend the profiler timed 2000 iterations where the
    //    transform dominates, and simulate the plan on 2..32 cores.
    let mut trace = IterationTrace::new();
    for i in 0..2000u64 {
        trace.push(IterationRecord::new(4, 80 + (i * 37) % 60, 4));
    }
    println!("\n{:>8}{:>10}{:>13}", "cores", "speedup", "utilization");
    for cores in [2usize, 4, 8, 16, 32] {
        let r = simulate(&trace, cores, PlanKind::Dswp);
        println!(
            "{cores:>8}{:>10.2}{:>12.0}%",
            r.speedup(),
            r.utilization() * 100.0
        );
    }

    // 4. Peek at the actual schedule: phase A streams on core 0, the
    //    replicated phase B fills the middle cores, phase C commits in
    //    order on the last core. Tasks are placed in order, so the
    //    schedule of the first 50 iterations is the first cycles of the
    //    whole one.
    let sim = seqpar_runtime::Simulator::new(seqpar_runtime::SimConfig {
        cores: 6,
        comm_latency: 0,
        ..seqpar_runtime::SimConfig::default()
    });
    let mut head = IterationTrace::new();
    for &record in &trace.records()[..50] {
        head.push(record);
    }
    let graph = head.task_graph();
    let result = sim
        .run(&graph, &seqpar_runtime::ExecutionPlan::three_phase(6))
        .expect("plan is valid");
    println!("\nfirst cycles of the 6-core schedule (distinct letters = tasks):");
    print!(
        "{}",
        seqpar_bench::render_timeline_gantt(&result.timeline(&graph))
    );
}
