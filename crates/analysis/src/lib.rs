//! Dependence analyses for the `seqpar` parallelization framework.
//!
//! The analyses in this crate turn a [`seqpar_ir::Program`] into the
//! [`pdg::LoopPdg`] — a program dependence graph over one target loop —
//! that the thread extractor in the `seqpar` core crate partitions into
//! pipeline stages. Following §2.1–2.2 of *Bridges et al., MICRO 2007*,
//! the pipeline is:
//!
//! 1. [`points_to`] — Andersen-style inclusion-based pointer analysis
//!    with whole-program scope;
//! 2. [`alias`] — may/must alias queries over memory references,
//!    field-sensitive at the query;
//! 3. [`effects`] — bottom-up read/write object summaries for functions,
//!    approximating whole-program "region" visibility through calls;
//! 4. [`control`] — control dependence from post-dominance;
//! 5. [`regdeps`] — SSA def-use register dependences with loop-carried
//!    classification;
//! 6. [`memdep`] — may-alias memory dependences, refined by a
//!    [`profile::MemProfile`] exactly as the paper's memory-profiling pass
//!    refines static dependences before simulation (§3.1);
//! 7. [`pdg`] — assembly of the per-loop dependence graph;
//! 8. [`value_range`] — constancy/invariance facts used to nominate value
//!    speculation candidates;
//! 9. [`audit`] — interprocedural annotation inference (provably
//!    commutative callees need no hand annotation) and the static
//!    conflict-density estimate the parallelizer rescinds dense
//!    speculation by and the tuner prices conflict probes from.
//!
//! Downstream of the pipeline, [`lint`] audits the partitioner's
//! output, and [`tune`] scores the plan space it spans: a
//! feedback-directed, simulator-scored autotuner whose every row the
//! bench harness validates natively (see `AUTOTUNING.md`).
//!
//! # Example
//!
//! ```
//! use seqpar_ir::{FunctionBuilder, Program, Opcode};
//! use seqpar_analysis::pdg::LoopPdg;
//!
//! let mut program = Program::new("p");
//! let acc = program.add_global("acc", 1);
//! let mut b = FunctionBuilder::new("sum_loop");
//! let header = b.add_block("header");
//! let exit = b.add_block("exit");
//! b.jump(header);
//! b.switch_to(header);
//! let ptr = b.global_addr(acc);
//! let cur = b.load(ptr);
//! let one = b.const_(1);
//! let next = b.binop(Opcode::Add, cur, one);
//! b.store(ptr, next);
//! let done = b.binop(Opcode::CmpEq, next, one);
//! b.cond_branch(done, exit, header);
//! b.switch_to(exit);
//! b.ret(None);
//! let f = b.finish(&mut program);
//! let forest = seqpar_ir::LoopForest::build(program.function(f));
//! let (loop_id, _) = forest.loops().next().unwrap();
//! let pdg = LoopPdg::build(&program, f, &forest, loop_id, None);
//! // The accumulator creates a loop-carried memory dependence.
//! assert!(pdg.edges().any(|e| e.carried));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alias;
pub mod audit;
pub mod control;
pub mod effects;
pub mod lint;
pub mod memdep;
pub mod pdg;
pub mod points_to;
pub mod profile;
pub mod regdeps;
pub mod tune;
pub mod value_range;

pub use alias::{AliasQuery, AliasResult};
pub use audit::{
    conflict_profile, infer_commutativity, InferredGroup, MemAccess, INFERRED_GROUP_BIT,
};
pub use lint::{
    check_plan_shape, Lint, LintCode, LintEntry, LintInput, LintReport, SpeculatedDep, StageKind,
    StagePlan,
};
pub use pdg::{DepKind, LoopPdg, PdgEdge, PdgNode};
pub use points_to::{AbstractObj, PointsTo};
pub use profile::{BranchProfile, LoopProfile, MemProfile, ValueProfile};
