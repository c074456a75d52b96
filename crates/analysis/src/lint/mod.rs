//! `seqpar-lint`: static partition-soundness checking.
//!
//! The parallelizer's output — a stage assignment over a
//! [`LoopPdg`], a set of speculated dependences, and an
//! [`ExecutionPlan`] — encodes a claim: *running the loop under this
//! plan preserves sequential semantics*. The checkers here audit that
//! claim before anything runs:
//!
//! 1. `flow` — forward-flow soundness: every surviving dependence
//!    must respect pipeline stage order, and every removed (speculated)
//!    dependence must carry a commit-time validation obligation;
//! 2. `races` — replicated-stage race detection: points-to and
//!    effect summaries find may-aliasing write/write or write/read
//!    pairs on unversioned state reachable from two concurrent
//!    iterations;
//! 3. `annotations` — annotation audit: `Commutative` groups whose
//!    side effects escape the group, and Y-branch erasures that guard
//!    stores to live-out state;
//! 4. `inference` — annotation hygiene against the audit pass
//!    ([`crate::audit`]): annotations that are redundant (inference
//!    proves them), dead (they exempt nothing reachable), or refuted
//!    (loop code writes the group's read-only inputs).
//!
//! Findings are typed ([`Lint`]), carry stable codes ([`LintCode`],
//! `SP0001`–`SP0202`), and lower to the same
//! [`Diagnostic`] type the runtime's
//! dynamic validators render with.

mod annotations;
mod diag;
mod flow;
mod inference;
mod races;

pub use diag::{Lint, LintCode};

use crate::audit::{infer_commutativity_with, InferredGroup};
use crate::effects::{EffectSummary, Effects};
use crate::pdg::{DepKind, LoopPdg, PdgNode};
use crate::points_to::{AbstractObj, PointsTo};
use seqpar_ir::{BlockId, Loop, LoopForest, Opcode, Program};
use seqpar_runtime::{Diagnostic, Engine, ExecutionPlan, PlanShape, Severity};
use std::collections::BTreeSet;
use std::fmt;

/// How a pipeline stage executes its iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Iterations run in order on one logical worker; carried
    /// dependences inside the stage are satisfied by program order.
    Sequential,
    /// Iterations are distributed over a worker pool and run
    /// concurrently, unordered.
    Replicated,
}

/// A compiler-neutral view of a partition: the pipeline stage of each
/// PDG node plus each stage's execution discipline.
///
/// The core crate lowers its `Partition` (stages A/B/C) into this form
/// so the checkers need no dependency on the partitioner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePlan {
    stage_of: Vec<u8>,
    kinds: Vec<StageKind>,
}

impl StagePlan {
    /// Creates a stage plan.
    ///
    /// # Panics
    ///
    /// Panics if any node's stage index is out of range of `kinds`.
    pub fn new(stage_of: Vec<u8>, kinds: Vec<StageKind>) -> Self {
        assert!(
            stage_of.iter().all(|&s| (s as usize) < kinds.len()),
            "stage index out of range of the declared stage kinds"
        );
        Self { stage_of, kinds }
    }

    /// The standard PS-DSWP three-phase shape: sequential stage 0,
    /// replicated stage 1, sequential stage 2.
    pub fn three_phase(stage_of: Vec<u8>) -> Self {
        Self::new(
            stage_of,
            vec![
                StageKind::Sequential,
                StageKind::Replicated,
                StageKind::Sequential,
            ],
        )
    }

    /// The stage of a PDG node.
    pub fn stage_of(&self, node: usize) -> u8 {
        self.stage_of[node]
    }

    /// The execution discipline of a stage.
    pub fn kind(&self, stage: u8) -> StageKind {
        self.kinds[stage as usize]
    }

    /// The number of pipeline stages.
    pub fn stage_count(&self) -> u8 {
        self.kinds.len() as u8
    }

    /// The number of PDG nodes covered.
    pub fn node_count(&self) -> usize {
        self.stage_of.len()
    }

    /// Whether a stage replicates iterations over a pool.
    pub fn is_replicated(&self, stage: u8) -> bool {
        self.kind(stage) == StageKind::Replicated
    }
}

/// A dependence the parallelizer removed speculatively.
///
/// `src`/`dst` are PDG node indices (speculation preserves node
/// numbering; only edges are removed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeculatedDep {
    /// Producer node.
    pub src: usize,
    /// Consumer node.
    pub dst: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// Whether the dependence was loop-carried.
    pub carried: bool,
    /// Profile-estimated probability the dependence manifests.
    pub misspec_rate: f64,
    /// Whether the runtime validates the speculation at commit time
    /// and recovers on misspeculation.
    pub commit_validated: bool,
}

/// Everything the checkers need about one parallelized loop.
#[derive(Clone, Copy, Debug)]
pub struct LintInput<'a> {
    /// The whole program (for points-to, effects, and provenance).
    pub program: &'a Program,
    /// The loop's PDG *after* annotation and speculation passes —
    /// i.e. exactly the graph the partitioner saw.
    pub pdg: &'a LoopPdg,
    /// The stage assignment under audit.
    pub stages: &'a StagePlan,
    /// The dependences removed speculatively before partitioning.
    pub speculated: &'a [SpeculatedDep],
    /// PDG nodes whose memory accesses a transformation (reduction
    /// expansion) privatizes per worker: conflicts confined to these
    /// nodes land on private copies and are not races.
    pub privatized: &'a [usize],
    /// The execution plan, when one has been laid out already.
    pub plan: Option<&'a ExecutionPlan>,
}

/// One finding paired with its rendered diagnostic.
#[derive(Clone, Debug)]
pub struct LintEntry {
    /// The typed finding.
    pub lint: Lint,
    /// Its lowered, rendering-ready diagnostic.
    pub diagnostic: Diagnostic,
}

/// The result of a lint run: findings in checker order.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    entries: Vec<LintEntry>,
}

impl LintReport {
    /// The findings, in checker order.
    pub fn entries(&self) -> &[LintEntry] {
        &self.entries
    }

    /// Whether the run produced no deny-level findings. Warnings do
    /// not make a report unclean.
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// The number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.diagnostic.is_deny())
            .count()
    }

    /// The number of warnings.
    pub fn warn_count(&self) -> usize {
        self.entries.len() - self.deny_count()
    }

    /// All finding codes, in checker order (duplicates preserved).
    pub fn codes(&self) -> Vec<LintCode> {
        self.entries.iter().map(|e| e.lint.code()).collect()
    }

    /// The distinct deny-level codes, sorted.
    pub fn deny_codes(&self) -> Vec<LintCode> {
        let set: BTreeSet<LintCode> = self
            .entries
            .iter()
            .filter(|e| e.lint.severity() == Severity::Deny)
            .map(|e| e.lint.code())
            .collect();
        set.into_iter().collect()
    }

    /// Folds another report's findings into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.entries.extend(other.entries);
    }

    /// Renders every diagnostic plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.diagnostic.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error{}, {} warning{}\n",
            self.deny_count(),
            if self.deny_count() == 1 { "" } else { "s" },
            self.warn_count(),
            if self.warn_count() == 1 { "" } else { "s" },
        ));
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Runs every checker over one parallelized loop, computing the
/// whole-program facts, the loop forest and the commutativity inference
/// internally.
///
/// # Panics
///
/// Panics if `input.stages` does not cover exactly the PDG's nodes.
pub fn run(input: &LintInput) -> LintReport {
    let points_to = PointsTo::analyze(input.program);
    let effects = Effects::analyze(input.program, &points_to);
    let forest = LoopForest::build(input.program.function(input.pdg.func()));
    let inferred = infer_commutativity_with(input.program, input.pdg, &points_to, &effects);
    run_with(input, &points_to, &effects, &forest, &inferred)
}

/// [`run`] with what the parallelizer has computed already: the
/// program's points-to and effect facts, the loop forest of the PDG's
/// function, and the commutativity inference over the PDG's nodes
/// (which the annotation and speculation passes leave as they are, so
/// inferring before or after them gives the same groups).
///
/// # Panics
///
/// Panics if `input.stages` does not cover exactly the PDG's nodes.
pub fn run_with(
    input: &LintInput,
    points_to: &PointsTo,
    effects: &Effects,
    forest: &LoopForest,
    inferred: &[InferredGroup],
) -> LintReport {
    assert_eq!(
        input.stages.node_count(),
        input.pdg.node_count(),
        "stage plan must assign a stage to every PDG node"
    );
    let ctx = Ctx {
        input,
        points_to,
        effects,
        forest,
        inferred,
    };
    let mut lints = Vec::new();
    lints.extend(flow::check(&ctx));
    lints.extend(races::check(&ctx));
    lints.extend(annotations::check(&ctx));
    lints.extend(inference::check(&ctx));
    if let Some(plan) = input.plan {
        lints.extend(plan_lints(input.stages, plan));
    }
    let entries = lints
        .into_iter()
        .map(|lint| {
            let diagnostic = lint.to_diagnostic(input.program, input.pdg);
            LintEntry { lint, diagnostic }
        })
        .collect();
    LintReport { entries }
}

/// Checks only plan shape against a stage plan — the piece that can
/// be re-run cheaply when a new [`ExecutionPlan`] is laid out over an
/// already-audited partition.
pub fn check_plan_shape(stages: &StagePlan, plan: &ExecutionPlan) -> LintReport {
    let entries = plan_lints(stages, plan)
        .into_iter()
        .map(|lint| {
            let diagnostic = lint
                .to_diagnostic_contextless()
                .expect("plan lints carry no node provenance");
            LintEntry { lint, diagnostic }
        })
        .collect();
    LintReport { entries }
}

/// Structural findings about an execution plan: shape mismatches and
/// layouts the native executor refuses ([`Engine::check_plan`]) (deny),
/// and sequential stages wastefully given multi-core pools (warn).
fn plan_lints(stages: &StagePlan, plan: &ExecutionPlan) -> Vec<Lint> {
    let mut lints = Vec::new();
    let shape = PlanShape::of(plan);
    let refused = match shape.check_against(stages.stage_count()) {
        Err(e) => Some(e.to_string()),
        Ok(()) => Engine::check_plan(plan).err().map(|e| e.to_string()),
    };
    if let Some(detail) = refused {
        lints.push(Lint::PlanShape { detail });
    }
    for stage in 0..plan.stage_count().min(stages.stage_count()) {
        if !stages.is_replicated(stage) && shape.multi_core[stage as usize] {
            lints.push(Lint::SequentialStageOnPool { stage });
        }
    }
    lints
}

/// The memory behaviour of one PDG node, resolved to abstract objects.
#[derive(Clone, Debug, Default)]
pub(crate) struct Access {
    /// Objects the node may read.
    pub reads: BTreeSet<AbstractObj>,
    /// Objects the node may write.
    pub writes: BTreeSet<AbstractObj>,
    /// The node may touch memory the analysis cannot name.
    pub unknown: bool,
}

impl Access {
    fn from_summary(s: &EffectSummary) -> Self {
        Self {
            reads: s.reads.clone(),
            writes: s.writes.clone(),
            unknown: s.clobbers_unknown,
        }
    }
}

/// Shared analysis context: whole-program points-to and effect
/// summaries computed once, the loop structure of the linted function,
/// and the commutativity the audit pass infers for the loop.
pub(crate) struct Ctx<'a> {
    pub input: &'a LintInput<'a>,
    pub points_to: &'a PointsTo,
    pub effects: &'a Effects,
    forest: &'a LoopForest,
    pub inferred: &'a [InferredGroup],
}

impl Ctx<'_> {
    /// The loop the PDG was built over.
    pub fn linted_loop(&self) -> &Loop {
        self.forest.get(self.input.pdg.loop_id())
    }

    /// The memory access summary of a PDG node, or `None` for nodes
    /// with no memory behaviour.
    pub fn node_access(&self, node: usize) -> Option<Access> {
        let pdg = self.input.pdg;
        let func = self.input.program.function(pdg.func());
        match pdg.nodes().get(node)? {
            PdgNode::Branch(_) => None,
            PdgNode::Inst(id) => {
                let inst = func.inst(*id);
                match &inst.opcode {
                    Opcode::Load(mem) => {
                        let pts = self.points_to.of(pdg.func(), mem.base);
                        Some(Access {
                            reads: pts.iter().copied().collect(),
                            unknown: pts.is_empty(),
                            ..Access::default()
                        })
                    }
                    Opcode::Store(mem) => {
                        let pts = self.points_to.of(pdg.func(), mem.base);
                        Some(Access {
                            writes: pts.iter().copied().collect(),
                            unknown: pts.is_empty(),
                            ..Access::default()
                        })
                    }
                    Opcode::Call { callee, .. } => Some(Access::from_summary(
                        &self.effects.of_callee(self.input.program, callee),
                    )),
                    _ => None,
                }
            }
        }
    }

    /// A display name for an abstract object.
    pub fn object_name(&self, obj: AbstractObj) -> String {
        match obj {
            AbstractObj::Global(g) => self.input.program.global(g).name.clone(),
            AbstractObj::Alloc(f, i) => {
                let func = self.input.program.function(f);
                match &func.inst(i).label {
                    Some(l) => format!("alloc '{l}' in {}", func.name),
                    None => format!("alloc site {i:?} in {}", func.name),
                }
            }
        }
    }

    /// Objects written under the *taken* path of Y-branch-annotated
    /// branches inside the linted loop.
    ///
    /// The Y-branch contract (paper §2.3.1) says the true path may
    /// legally run on any iteration, so the state it re-initialises is
    /// "resettable": concurrent iterations observing either the old or
    /// the reset value are both sequentially explicable, and conflicts
    /// confined to this state are not races.
    pub fn ybranch_reset_objects(&self) -> BTreeSet<AbstractObj> {
        let pdg = self.input.pdg;
        let program = self.input.program;
        let func = program.function(pdg.func());
        let l = self.linted_loop();
        let mut objects = BTreeSet::new();
        for (node, n) in pdg.nodes().iter().enumerate() {
            let PdgNode::Branch(b) = n else { continue };
            if pdg.ybranch_hint(node).is_none() {
                continue;
            }
            let seqpar_ir::Terminator::CondBranch { then_block, .. } = &func.block(*b).terminator
            else {
                continue;
            };
            if !l.contains(*then_block) {
                continue;
            }
            objects.extend(self.block_written_objects(*then_block));
        }
        objects
    }

    /// Objects written by the stores and calls of one block.
    pub fn block_written_objects(&self, block: BlockId) -> BTreeSet<AbstractObj> {
        let pdg = self.input.pdg;
        let program = self.input.program;
        let func = program.function(pdg.func());
        let mut objects = BTreeSet::new();
        for &i in &func.block(block).insts {
            match &func.inst(i).opcode {
                Opcode::Store(mem) => {
                    objects.extend(self.points_to.of(pdg.func(), mem.base).iter().copied());
                }
                Opcode::Call { callee, .. } => {
                    objects.extend(self.effects.of_callee(program, callee).writes);
                }
                _ => {}
            }
        }
        objects
    }
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").finish_non_exhaustive()
    }
}
