//! The paper's Figure 2, executable: why `Commutative` matters.
//!
//! 300.twolf's inner loop calls `Yacm_random`, whose internal `seed`
//! recurrence chains every iteration to the previous one. This example
//! builds the loop twice — with and without the one-line `Commutative`
//! annotation — and shows the dependence graph, the partition, and the
//! simulated speedup for both.
//!
//! Run with `cargo run --example commutative_rng`.

use seqpar::{Parallelizer, Stage, Technique};
use seqpar_bench::{simulate_graph, PlanKind};
use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode, Program};
use seqpar_workloads::{InputSize, Workload};

fn build(commutative: bool) -> (Program, seqpar_ir::FuncId) {
    let mut p = Program::new("twolf-fig2");
    let seed = p.add_global("randVarS", 1);
    p.declare_extern(
        "Yacm_random",
        ExternEffect {
            reads: vec![seed],
            writes: vec![seed],
            ..Default::default()
        },
    );
    p.declare_extern("next_pair", ExternEffect::pure_fn());
    p.declare_extern("ucxx2", ExternEffect::pure_fn());
    let mut b = FunctionBuilder::new("uloop");
    let header = b.add_block("header");
    let exit = b.add_block("exit");
    b.jump(header);
    b.switch_to(header);
    // The annealing schedule drives the loop (phase A).
    let sched = b.call_ext("next_pair", &[], None);
    // Two draws pick the cells to exchange; their seed recurrence chains
    // the iterations unless the annotation removes it.
    let group = commutative.then_some(CommGroupId(0));
    let cell_a = b.call_ext("Yacm_random", &[], group);
    let cell_b = b.call_ext("Yacm_random", &[], group);
    let _cost = b.call_ext("ucxx2", &[cell_a, cell_b], None);
    let done = b.binop(Opcode::CmpLe, sched, sched);
    b.cond_branch(done, exit, header);
    b.switch_to(exit);
    b.ret(None);
    let f = b.finish(&mut p);
    (p, f)
}

fn main() {
    for commutative in [false, true] {
        let (p, f) = build(commutative);
        let result = Parallelizer::new(&p)
            .parallelize_outermost(f)
            .expect("loop found");
        let label = if commutative {
            "with @Commutative"
        } else {
            "without annotation"
        };
        println!("== {label} ==");
        println!("  {}", result.report());
        println!(
            "  stage weights: A={} B={} C={} (uses Commutative: {})",
            result.partition().weight(Stage::A),
            result.partition().weight(Stage::B),
            result.partition().weight(Stage::C),
            result.report().uses(Technique::Commutative),
        );
    }

    // And on the real kernel: the measured twolf trace, where the RNG is
    // commutative and only genuine placement collisions misspeculate.
    println!("\n== measured 300.twolf kernel (annealer trace) ==");
    let twolf = seqpar_workloads::twolf::Twolf;
    let trace = twolf.trace(InputSize::Test);
    println!(
        "  iterations: {}, misspec rate {:.0}%",
        trace.len(),
        trace.misspec_rate() * 100.0
    );
    let graph = trace.task_graph();
    for cores in [2usize, 8, 32] {
        let r = simulate_graph(&graph, cores, PlanKind::Dswp);
        println!("  {cores:>2} cores -> speedup {:.2}", r.speedup());
    }
}
