//! Typed lint findings and their lowering to rendered diagnostics.
//!
//! Every checker produces [`Lint`] values — structured findings that
//! carry PDG-node indices and analysis facts — which are lowered once,
//! with program context in hand, into the shared
//! [`Diagnostic`] type that the runtime's
//! dynamic validators also render with. The [`LintCode`] table is the
//! stable public contract: golden tests and CI gates match on codes,
//! not on message text.

use crate::pdg::{DepKind, LoopPdg, PdgNode};
use seqpar_ir::{Callee, Opcode, Program};
use seqpar_runtime::{Diagnostic, Severity};
use std::fmt;

/// Stable lint codes.
///
/// `SP00xx` codes are deny-level (the plan is unsound and must not
/// run); `SP01xx` codes are warnings (legal but suspicious).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `SP0001`: a non-speculated dependence flows to an earlier
    /// pipeline stage.
    BackwardDep,
    /// `SP0002`: a loop-carried dependence begins and ends inside a
    /// replicated stage, whose iterations are unordered.
    CarriedInReplicated,
    /// `SP0003`: a speculated dependence carries no commit-time
    /// validation obligation.
    UnvalidatedSpeculation,
    /// `SP0004`: two accesses in a replicated stage may race on
    /// unversioned state across iterations.
    ReplicatedRace,
    /// `SP0005`: a `Commutative` annotation covers a callee whose
    /// side effects escape the declared commutative group.
    NonCommutative,
    /// `SP0006`: an erased Y-branch control dependence guards stores
    /// that reach live-out state.
    YBranchLiveOut,
    /// `SP0007`: the execution plan's shape does not fit the native
    /// engine (more than one stage, a round-robin stage, an empty pool:
    /// what `ExecutionPlan::seats` refuses) or the partition (stage
    /// count).
    PlanShape,
    /// `SP0101` (warn): a speculated dependence misfires often enough
    /// to threaten the speedup.
    HighMisspec,
    /// `SP0102` (warn): a sequential partition stage is mapped onto a
    /// multi-core pool — legal under in-order commit, but wasteful.
    SequentialStageOnPool,
    /// `SP0103` (warn): an annotation exempts nothing reachable — no
    /// conflict in the linted partition is broken by it.
    DeadAnnotation,
    /// `SP0201` (warn): a hand-written `Commutative` annotation that
    /// the audit pass proves on its own; the annotation is redundant.
    RedundantCommutative,
    /// `SP0202` (warn): a hand-written `Commutative` annotation whose
    /// encapsulation premise the audit pass refutes — code outside the
    /// group touches the group's state inside the loop.
    RefutedAnnotation,
}

impl LintCode {
    /// Every registered code, in `SPxxxx` order. `seqpar-lint
    /// --explain` and the exhaustiveness tests iterate this.
    pub const ALL: &'static [LintCode] = &[
        LintCode::BackwardDep,
        LintCode::CarriedInReplicated,
        LintCode::UnvalidatedSpeculation,
        LintCode::ReplicatedRace,
        LintCode::NonCommutative,
        LintCode::YBranchLiveOut,
        LintCode::PlanShape,
        LintCode::HighMisspec,
        LintCode::SequentialStageOnPool,
        LintCode::DeadAnnotation,
        LintCode::RedundantCommutative,
        LintCode::RefutedAnnotation,
    ];

    /// The stable code string (e.g. `"SP0001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::BackwardDep => "SP0001",
            LintCode::CarriedInReplicated => "SP0002",
            LintCode::UnvalidatedSpeculation => "SP0003",
            LintCode::ReplicatedRace => "SP0004",
            LintCode::NonCommutative => "SP0005",
            LintCode::YBranchLiveOut => "SP0006",
            LintCode::PlanShape => "SP0007",
            LintCode::HighMisspec => "SP0101",
            LintCode::SequentialStageOnPool => "SP0102",
            LintCode::DeadAnnotation => "SP0103",
            LintCode::RedundantCommutative => "SP0201",
            LintCode::RefutedAnnotation => "SP0202",
        }
    }

    /// Parses a stable code string (`"SP0004"`) back to its code.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::HighMisspec
            | LintCode::SequentialStageOnPool
            | LintCode::DeadAnnotation
            | LintCode::RedundantCommutative
            | LintCode::RefutedAnnotation => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// The rationale behind the code and how to fix a finding, as
    /// printed by `seqpar-lint --explain SPxxxx`. Every registered
    /// code has non-empty text.
    pub fn explain(self) -> &'static str {
        match self {
            LintCode::BackwardDep => {
                "A surviving dependence flows from a later pipeline stage back to an \
                 earlier one. Pipeline stages commit in order, so a backward edge means \
                 a consumer would run before its producer — the partition cannot \
                 preserve sequential semantics.\n\
                 Fix: move the producer to an earlier (or the consumer to a later) \
                 stage, or speculate the dependence with a commit-time validation."
            }
            LintCode::CarriedInReplicated => {
                "A loop-carried dependence begins and ends inside the replicated stage. \
                 Replicated iterations run concurrently and unordered, so nothing \
                 enforces the producing iteration before the consuming one.\n\
                 Fix: hoist one endpoint into a sequential stage, privatize the state \
                 (reduction expansion), or break the dependence with an annotation the \
                 checkers accept (Commutative, Y-branch)."
            }
            LintCode::UnvalidatedSpeculation => {
                "A dependence was removed speculatively but carries no commit-time \
                 validation obligation. If the dependence manifests at runtime, the \
                 wrong value commits silently.\n\
                 Fix: mark the speculation commit-validated so the versioned substrate \
                 checks it at the commit frontier, or do not speculate the edge."
            }
            LintCode::ReplicatedRace => {
                "Two accesses resident in the replicated stage may touch the same \
                 unversioned object from concurrent iterations, with at least one \
                 write and no exemption (commutative group, speculation, Y-branch \
                 reset state, per-iteration allocation, privatization, or field \
                 disjointness) covering the pair.\n\
                 Fix: route the object through versioned memory, privatize it, or \
                 annotate the access pattern the model supports."
            }
            LintCode::NonCommutative => {
                "A Commutative annotation licenses reordering calls in its group, but \
                 the group's side effects escape: state the group writes is observed \
                 by unannotated code, so different call orders are distinguishable.\n\
                 Fix: widen the group to cover every observer, or remove the \
                 annotation and synchronize the calls."
            }
            LintCode::YBranchLiveOut => {
                "An erased Y-branch control dependence guards stores whose target is \
                 live-out: read after the loop. The Y-branch contract only covers \
                 state whose reset on any iteration is sequentially explicable; a \
                 live-out observer can tell the difference.\n\
                 Fix: keep the control dependence, or confine the guarded stores to \
                 state that dies at loop exit."
            }
            LintCode::PlanShape => {
                "The execution plan's shape does not fit the partition: stage counts \
                 disagree or a stage has an empty core pool, so the runtime could not \
                 map the partition onto workers at all. Or it does not fit the native \
                 executor, which runs one dynamically assigned stage: the plan has \
                 more than one stage, or a round-robin one.\n\
                 Fix: lay out the plan from the partition (stage count and a \
                 non-empty pool per stage) rather than by hand; natively, one \
                 `Serial` or `Parallel` stage over the one-stage view of the loop."
            }
            LintCode::HighMisspec => {
                "A speculated dependence manifests often according to the profile, so \
                 the runtime will squash and replay frequently — legal, but the \
                 replay cost can erase the speedup the speculation was meant to buy.\n\
                 Fix: synchronize the dependence instead. The `Parallelizer` does so \
                 itself for a memory dependence this dense: its density rescind \
                 restores the edge and the partitioner synchronizes it."
            }
            LintCode::SequentialStageOnPool => {
                "A sequential partition stage is mapped onto a multi-core pool. \
                 In-order commit keeps the result correct, but every core past the \
                 first idles.\n\
                 Fix: give the stage a single core and return the rest to the \
                 replicated stage's pool."
            }
            LintCode::DeadAnnotation => {
                "An annotation (Commutative group or Y-branch) exempts nothing \
                 reachable: no conflict in the linted loop is broken by it, so \
                 deleting it changes neither the partition nor the runtime checks. \
                 Dead annotations cost review effort and can mask stale assumptions.\n\
                 Fix: delete the annotation; if it documents intent for code that is \
                 about to grow a conflict, keep it and silence the warning knowingly."
            }
            LintCode::RedundantCommutative => {
                "The audit pass proves this call commutative on its own: the callee's \
                 effect summary is bounded and its state is touched by no other code, \
                 so the encapsulated-state inference reaches the same exemption \
                 without the hand annotation.\n\
                 Fix: delete the annotation and let inference carry the proof; the \
                 partition is unchanged."
            }
            LintCode::RefutedAnnotation => {
                "The audit pass refutes this Commutative annotation's premise: code \
                 outside the group touches the group's state inside the loop, so \
                 reordering the group's calls is observable between iterations even \
                 though no post-loop escape exists.\n\
                 Fix: widen the group to include the outside accessor, or remove the \
                 annotation and synchronize the calls."
            }
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed finding from a checker.
///
/// Node fields are indices into the linted [`LoopPdg`]'s node array;
/// the lowering attaches human-readable provenance for each.
#[derive(Clone, Debug, PartialEq)]
pub enum Lint {
    /// A dependence edge flows from a later stage to an earlier one
    /// and no speculation covers it.
    BackwardDep {
        /// Producer node.
        src: usize,
        /// Consumer node.
        dst: usize,
        /// Dependence kind.
        kind: DepKind,
        /// Whether the edge is loop-carried.
        carried: bool,
        /// The producer's pipeline stage.
        src_stage: u8,
        /// The consumer's pipeline stage.
        dst_stage: u8,
    },
    /// A carried dependence is confined to a replicated stage, whose
    /// iterations run concurrently and unordered.
    CarriedInReplicated {
        /// Producer node.
        src: usize,
        /// Consumer node.
        dst: usize,
        /// Dependence kind.
        kind: DepKind,
        /// The replicated stage.
        stage: u8,
    },
    /// A speculated dependence has no commit-time validation
    /// obligation, so a misspeculation would go undetected.
    UnvalidatedSpeculation {
        /// Producer node.
        src: usize,
        /// Consumer node.
        dst: usize,
        /// Dependence kind.
        kind: DepKind,
    },
    /// Two replicated-stage accesses may touch the same unversioned
    /// state from concurrent iterations.
    ReplicatedRace {
        /// First access node.
        first: usize,
        /// Second access node (equal to `first` for a node racing
        /// with its own next-iteration instance).
        second: usize,
        /// The access path: conflicting objects and access kinds.
        path: String,
    },
    /// A `Commutative` annotation whose callee's writes escape the
    /// declared group.
    NonCommutative {
        /// The annotated call node.
        node: usize,
        /// The commutative group id.
        group: u32,
        /// Where the effect escapes to.
        path: String,
    },
    /// An erased Y-branch control dependence guards stores reaching
    /// live-out state.
    YBranchLiveOut {
        /// The annotated branch node.
        branch: usize,
        /// The guarded writer.
        writer: String,
        /// The live-out object.
        object: String,
        /// The out-of-loop reader that observes it.
        reader: String,
    },
    /// The execution plan does not fit the partition.
    PlanShape {
        /// What is wrong with the shape.
        detail: String,
    },
    /// A speculated dependence with a high expected misspeculation
    /// rate.
    HighMisspec {
        /// Producer node.
        src: usize,
        /// Consumer node.
        dst: usize,
        /// Expected per-iteration misspeculation probability.
        rate: f64,
    },
    /// A sequential partition stage mapped onto a multi-core pool.
    SequentialStageOnPool {
        /// The stage.
        stage: u8,
    },
    /// An annotation that exempts no reachable conflict.
    DeadAnnotation {
        /// The annotated node (call or branch).
        node: usize,
        /// What the annotation is, rendered (`Commutative group 3`,
        /// `Y-branch`).
        what: String,
    },
    /// A hand `Commutative` annotation the audit proves independently.
    RedundantCommutative {
        /// The annotated call node.
        node: usize,
        /// The commutative group id.
        group: u32,
    },
    /// A hand `Commutative` annotation whose encapsulation premise the
    /// audit refutes inside the loop.
    RefutedAnnotation {
        /// The annotated call node.
        node: usize,
        /// The commutative group id.
        group: u32,
        /// Where the outside access happens.
        path: String,
    },
}

impl Lint {
    /// The stable code of this finding.
    pub fn code(&self) -> LintCode {
        match self {
            Lint::BackwardDep { .. } => LintCode::BackwardDep,
            Lint::CarriedInReplicated { .. } => LintCode::CarriedInReplicated,
            Lint::UnvalidatedSpeculation { .. } => LintCode::UnvalidatedSpeculation,
            Lint::ReplicatedRace { .. } => LintCode::ReplicatedRace,
            Lint::NonCommutative { .. } => LintCode::NonCommutative,
            Lint::YBranchLiveOut { .. } => LintCode::YBranchLiveOut,
            Lint::PlanShape { .. } => LintCode::PlanShape,
            Lint::HighMisspec { .. } => LintCode::HighMisspec,
            Lint::SequentialStageOnPool { .. } => LintCode::SequentialStageOnPool,
            Lint::DeadAnnotation { .. } => LintCode::DeadAnnotation,
            Lint::RedundantCommutative { .. } => LintCode::RedundantCommutative,
            Lint::RefutedAnnotation { .. } => LintCode::RefutedAnnotation,
        }
    }

    /// The severity of this finding.
    pub fn severity(&self) -> Severity {
        self.code().severity()
    }

    /// Lowers the plan-shape findings, which carry no PDG-node
    /// provenance and so need no program context. `None` for findings
    /// that do reference nodes.
    pub(crate) fn to_diagnostic_contextless(&self) -> Option<Diagnostic> {
        let code = self.code().as_str();
        let mk = |message: String| match self.severity() {
            Severity::Deny => Diagnostic::deny(code, message),
            Severity::Warn => Diagnostic::warn(code, message),
        };
        match self {
            Lint::PlanShape { detail } => Some(mk(format!(
                "execution plan does not fit the partition: {detail}"
            ))),
            Lint::SequentialStageOnPool { stage } => Some(mk(format!(
                "sequential stage {stage} is mapped onto a multi-core pool; \
                 in-order commit keeps it correct but the extra cores idle"
            ))),
            _ => None,
        }
    }

    /// Lowers the finding to a rendered diagnostic with PDG-node
    /// provenance.
    pub(crate) fn to_diagnostic(&self, program: &Program, pdg: &LoopPdg) -> Diagnostic {
        if let Some(d) = self.to_diagnostic_contextless() {
            return d;
        }
        let code = self.code().as_str();
        let mk = |message: String| match self.severity() {
            Severity::Deny => Diagnostic::deny(code, message),
            Severity::Warn => Diagnostic::warn(code, message),
        };
        match self {
            Lint::BackwardDep {
                src,
                dst,
                kind,
                carried,
                src_stage,
                dst_stage,
            } => mk(format!(
                "{} dependence flows backward from stage {src_stage} to stage {dst_stage}",
                kind_name(*kind)
            ))
            .with_origin(describe_node(program, pdg, *src))
            .with_note(format!("consumer: {}", describe_node(program, pdg, *dst)))
            .with_note(if *carried {
                "loop-carried; covered by no speculation".to_string()
            } else {
                "intra-iteration; covered by no speculation".to_string()
            }),
            Lint::CarriedInReplicated {
                src,
                dst,
                kind,
                stage,
            } => mk(format!(
                "loop-carried {} dependence inside replicated stage {stage}, \
                 whose iterations are unordered",
                kind_name(*kind)
            ))
            .with_origin(describe_node(program, pdg, *src))
            .with_note(format!("consumer: {}", describe_node(program, pdg, *dst))),
            Lint::UnvalidatedSpeculation { src, dst, kind } => mk(format!(
                "speculated {} dependence has no commit-time validation obligation",
                kind_name(*kind)
            ))
            .with_origin(describe_node(program, pdg, *src))
            .with_note(format!("consumer: {}", describe_node(program, pdg, *dst)))
            .with_note("a manifested dependence would commit a wrong value silently"),
            Lint::ReplicatedRace {
                first,
                second,
                path,
            } => {
                let d = mk(format!(
                    "concurrent iterations of the replicated stage may race: {path}"
                ))
                .with_origin(describe_node(program, pdg, *first));
                if first == second {
                    d.with_note("the node conflicts with its own next-iteration instance")
                } else {
                    d.with_note(format!(
                        "conflicting access: {}",
                        describe_node(program, pdg, *second)
                    ))
                }
            }
            Lint::NonCommutative { node, group, path } => mk(format!(
                "Commutative annotation (group {group}) is not self-commuting: {path}"
            ))
            .with_origin(describe_node(program, pdg, *node))
            .with_note("reordering the annotated calls is observable outside the group"),
            Lint::YBranchLiveOut {
                branch,
                writer,
                object,
                reader,
            } => mk(format!(
                "erased Y-branch control dependence guards a store to live-out state '{object}'"
            ))
            .with_origin(describe_node(program, pdg, *branch))
            .with_note(format!("guarded writer: {writer}"))
            .with_note(format!("observed after the loop by: {reader}")),
            Lint::HighMisspec { src, dst, rate } => mk(format!(
                "speculated dependence misfires with probability {rate:.3} per iteration"
            ))
            .with_origin(describe_node(program, pdg, *src))
            .with_note(format!("consumer: {}", describe_node(program, pdg, *dst))),
            Lint::DeadAnnotation { node, what } => {
                mk(format!("{what} annotation exempts nothing reachable"))
                    .with_origin(describe_node(program, pdg, *node))
                    .with_note("no conflict in this loop is broken by the annotation; delete it")
            }
            Lint::RedundantCommutative { node, group } => mk(format!(
                "Commutative annotation (group {group}) is redundant: the audit \
                 pass proves the call commutative on its own"
            ))
            .with_origin(describe_node(program, pdg, *node))
            .with_note("the callee's state is encapsulated; inference carries the proof"),
            Lint::RefutedAnnotation { node, group, path } => mk(format!(
                "Commutative annotation (group {group}) is refuted: {path}"
            ))
            .with_origin(describe_node(program, pdg, *node))
            .with_note("code outside the group touches the group's state inside the loop"),
            Lint::PlanShape { .. } | Lint::SequentialStageOnPool { .. } => {
                unreachable!("handled by to_diagnostic_contextless")
            }
        }
    }
}

/// Human name of a dependence kind.
fn kind_name(kind: DepKind) -> &'static str {
    match kind {
        DepKind::Reg => "register",
        DepKind::Mem => "memory",
        DepKind::Control => "control",
    }
}

/// Renders `node`'s provenance: function, node index, opcode, and the
/// instruction label when one was attached.
pub(crate) fn describe_node(program: &Program, pdg: &LoopPdg, node: usize) -> String {
    let func = program.function(pdg.func());
    match pdg.nodes().get(node) {
        Some(PdgNode::Inst(id)) => {
            let inst = func.inst(*id);
            let op = match &inst.opcode {
                Opcode::Const(v) => format!("const {v}"),
                Opcode::Copy => "copy".to_string(),
                Opcode::Phi => "phi".to_string(),
                Opcode::AddrOf(g) => format!("addr_of '{}'", program.global(*g).name),
                Opcode::Gep => "gep".to_string(),
                Opcode::Load(_) => "load".to_string(),
                Opcode::Store(_) => "store".to_string(),
                Opcode::Call { callee, .. } => format!("call {}", callee_name(program, callee)),
                other => format!("{other:?}").to_lowercase(),
            };
            match &inst.label {
                Some(l) => format!("{}: node {node} = {op} (\"{l}\")", func.name),
                None => format!("{}: node {node} = {op}", func.name),
            }
        }
        Some(PdgNode::Branch(b)) => {
            format!(
                "{}: node {node} = branch at block '{}'",
                func.name,
                func.block(*b).name
            )
        }
        None => format!("{}: node {node} (out of range)", func.name),
    }
}

/// Renders an arbitrary instruction's provenance (for findings that
/// reference code outside the linted loop's PDG).
pub(crate) fn describe_inst(
    program: &Program,
    func: seqpar_ir::FuncId,
    inst: seqpar_ir::InstId,
) -> String {
    let f = program.function(func);
    let i = f.inst(inst);
    let op = match &i.opcode {
        Opcode::Load(_) => "load".to_string(),
        Opcode::Store(_) => "store".to_string(),
        Opcode::Call { callee, .. } => format!("call {}", callee_name(program, callee)),
        other => format!("{other:?}").to_lowercase(),
    };
    match &i.label {
        Some(l) => format!("{}: {op} (\"{l}\")", f.name),
        None => format!("{}: {op}", f.name),
    }
}

/// The display name of a call target.
pub(crate) fn callee_name(program: &Program, callee: &Callee) -> String {
    match callee {
        Callee::Internal(f) => program.function(*f).name.clone(),
        Callee::External(name) => name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_code_round_trips_and_explains_itself() {
        for &code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
            let text = code.explain();
            assert!(!text.trim().is_empty(), "{code} has no --explain rationale");
            assert!(
                text.contains("Fix:"),
                "{code} explanation lacks a fix-it: {text}"
            );
        }
        assert_eq!(LintCode::parse("SP9999"), None);
    }

    #[test]
    fn code_order_is_ascending_and_severity_bands_hold() {
        let strs: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        assert_eq!(strs, sorted, "ALL must stay in SPxxxx order");
        for &code in LintCode::ALL {
            let warn_band = &code.as_str()[3..4] != "0";
            assert_eq!(
                code.severity() == Severity::Warn,
                warn_band,
                "{code}: SP0xxx deny, SP01xx/SP02xx warn"
            );
        }
    }
}
