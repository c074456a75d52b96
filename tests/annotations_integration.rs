//! Integration tests for the sequential-model extensions: the annotations
//! must be the difference between serial and parallel extraction, end to
//! end.

use seqpar::{Parallelizer, Technique};
use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode, Program, YBranchHint};

/// Figure 2 shape: RNG feeding heavy pure work, schedule-driven control.
fn rng_loop(commutative: bool) -> (Program, seqpar_ir::FuncId) {
    let mut p = Program::new("fig2");
    let seed = p.add_global("seed", 1);
    p.declare_extern(
        "rng",
        ExternEffect {
            reads: vec![seed],
            writes: vec![seed],
            ..Default::default()
        },
    );
    p.declare_extern("work", ExternEffect::pure_fn());
    p.declare_extern("schedule", ExternEffect::pure_fn());
    let mut b = FunctionBuilder::new("uloop");
    let header = b.add_block("header");
    let exit = b.add_block("exit");
    b.jump(header);
    b.switch_to(header);
    let s = b.call_ext("schedule", &[], None);
    let r = b.call_ext("rng", &[], commutative.then_some(CommGroupId(0)));
    let _w = b.call_ext("work", &[r], None);
    let done = b.binop(Opcode::CmpLe, s, s);
    b.cond_branch(done, exit, header);
    b.switch_to(exit);
    b.ret(None);
    let f = b.finish(&mut p);
    (p, f)
}

#[test]
fn commutative_annotation_moves_the_rng_into_the_parallel_stage() {
    let (p0, f0) = rng_loop(false);
    let (p1, f1) = rng_loop(true);
    // The ablation drops both the annotation and the audit pass's
    // inference (which would otherwise re-derive the group itself).
    let without = Parallelizer::new(&p0)
        .infer_annotations(false)
        .parallelize_outermost(f0)
        .unwrap();
    let with = Parallelizer::new(&p1).parallelize_outermost(f1).unwrap();
    assert!(
        with.report().parallel_fraction() > without.report().parallel_fraction(),
        "annotation must grow the parallel stage: {} vs {}",
        with.report(),
        without.report()
    );
    assert!(with.report().uses(Technique::Commutative));
    assert!(!without.report().uses(Technique::Commutative));
    // Under default settings the unannotated program parallelizes like
    // the annotated one: the RNG's seed is provably encapsulated, so
    // the audit pass mints the commutative group on its own.
    let inferred = Parallelizer::new(&p0).parallelize_outermost(f0).unwrap();
    assert!(inferred.report().uses(Technique::Commutative));
    assert_eq!(
        inferred.report().parallel_fraction(),
        with.report().parallel_fraction()
    );
}

/// Figure 1 shape: dictionary compression with an annotated reset branch.
fn dict_loop(annotated: bool) -> (Program, seqpar_ir::FuncId) {
    let mut p = Program::new("fig1");
    let dict = p.add_global("dict", 1);
    p.declare_extern("read", ExternEffect::pure_fn());
    p.declare_extern(
        "compress",
        ExternEffect {
            reads: vec![dict],
            writes: vec![dict],
            ..Default::default()
        },
    );
    let mut b = FunctionBuilder::new("deflate");
    let header = b.add_block("header");
    let reset = b.add_block("reset");
    let latch = b.add_block("latch");
    let exit = b.add_block("exit");
    b.jump(header);
    b.switch_to(header);
    let ch = b.call_ext("read", &[], None);
    let profitable = b.call_ext("compress", &[ch], None);
    if annotated {
        b.ybranch(profitable, reset, latch, YBranchHint::new(0.00001));
    } else {
        b.cond_branch(profitable, reset, latch);
    }
    b.switch_to(reset);
    let a = b.global_addr(dict);
    let z = b.const_(0);
    b.store(a, z);
    b.jump(latch);
    b.switch_to(latch);
    let done = b.binop(Opcode::CmpEq, ch, ch);
    b.cond_branch(done, exit, header);
    b.switch_to(exit);
    b.ret(None);
    let f = b.finish(&mut p);
    (p, f)
}

#[test]
fn ybranch_annotation_unlocks_block_parallel_compression() {
    let (p0, f0) = dict_loop(false);
    let (p1, f1) = dict_loop(true);
    let without = Parallelizer::new(&p0).parallelize_outermost(f0).unwrap();
    let with = Parallelizer::new(&p1).parallelize_outermost(f1).unwrap();
    assert!(with.report().uses(Technique::YBranch));
    assert!(!without.report().uses(Technique::YBranch));
    assert!(
        with.report().parallel_fraction() > without.report().parallel_fraction(),
        "Y-branch must grow the parallel stage: {} vs {}",
        with.report(),
        without.report()
    );
}

#[test]
fn ybranch_probability_controls_the_forced_interval() {
    assert_eq!(YBranchHint::new(0.00001).interval(), 100_000);
    assert_eq!(YBranchHint::new(0.5).interval(), 2);
    assert_eq!(YBranchHint::new(0.0).interval(), u64::MAX);
}
