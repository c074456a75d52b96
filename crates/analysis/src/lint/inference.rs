//! Checker 5: annotation hygiene via the audit pass.
//!
//! The audit pass (see [`crate::audit`]) infers commutativity from
//! effect summaries alone; cross-checking its verdicts against the
//! annotations the programmer actually wrote yields three warnings:
//!
//! * [`Lint::RedundantCommutative`] (`SP0201`) — the inference proves
//!   the annotated call commutative on its own; the annotation can be
//!   deleted with no change to the partition.
//! * [`Lint::DeadAnnotation`] (`SP0103`) — the annotation exempts
//!   nothing reachable: no pair of group member accesses (including a
//!   member against its own next-iteration instance) can conflict, or
//!   a Y-branch's taken path writes nothing. Deleting it changes
//!   neither the partition nor the runtime checks.
//! * [`Lint::RefutedAnnotation`] (`SP0202`) — loop-resident code
//!   outside the group *writes* state the group's callees only read.
//!   The group-escape audit (`SP0005`) owns the written state; this
//!   checker owns the read-only inputs, whose loop-variance makes the
//!   calls order-sensitive even though no write escapes.

use super::diag::{describe_inst, Lint};
use super::races::{conflict_objects, unknown_conflict};
use super::{Access, Ctx};
use crate::audit::INFERRED_GROUP_BIT;
use crate::pdg::PdgNode;
use crate::points_to::AbstractObj;
use seqpar_ir::{CommGroupId, Opcode, Terminator};
use std::collections::BTreeSet;

pub(super) fn check(ctx: &Ctx) -> Vec<Lint> {
    let mut lints = commutative_hygiene(ctx);
    lints.extend(dead_ybranch(ctx));
    lints
}

/// `SP0201`, `SP0103`, and `SP0202` for hand commutative groups.
fn commutative_hygiene(ctx: &Ctx) -> Vec<Lint> {
    let pdg = ctx.input.pdg;
    let mut lints = Vec::new();
    let mut audited: BTreeSet<CommGroupId> = BTreeSet::new();

    for node in 0..pdg.node_count() {
        let Some(group) = pdg.commutative_group(node) else {
            continue;
        };
        // Inferred groups have no annotation to audit.
        if group.0 & INFERRED_GROUP_BIT != 0 {
            continue;
        }
        if !audited.insert(group) {
            continue;
        }
        let members: Vec<usize> = (0..pdg.node_count())
            .filter(|&n| pdg.commutative_group(n) == Some(group))
            .collect();

        if ctx.inferred.iter().any(|g| g.nodes.contains(&node)) {
            lints.push(Lint::RedundantCommutative {
                node,
                group: group.0,
            });
            // A provable annotation is live by definition (the proof
            // covers real state); skip the dead/refuted checks.
            continue;
        }

        if let Some(lint) = refuted_group(ctx, group, node, &members) {
            lints.push(lint);
            continue;
        }

        if group_is_dead(ctx, &members) {
            lints.push(Lint::DeadAnnotation {
                node,
                what: format!("Commutative (group {})", group.0),
            });
        }
    }
    lints
}

/// Whether no pair of member accesses — a member against any member,
/// itself included, since replicated iterations re-instance every
/// node — can conflict. Such a group exempts nothing.
fn group_is_dead(ctx: &Ctx, members: &[usize]) -> bool {
    let accesses: Vec<Option<Access>> = members.iter().map(|&n| ctx.node_access(n)).collect();
    for (i, a) in accesses.iter().enumerate() {
        for b in &accesses[i..] {
            let (Some(a), Some(b)) = (a, b) else { continue };
            if !conflict_objects(a, b).is_empty() || unknown_conflict(a, b) {
                return false;
            }
        }
    }
    true
}

/// `SP0202`: a non-member instruction inside the linted loop writes
/// an object the group's callees only read.
fn refuted_group(ctx: &Ctx, group: CommGroupId, first: usize, members: &[usize]) -> Option<Lint> {
    let program = ctx.input.program;
    let pdg = ctx.input.pdg;
    let func_id = pdg.func();
    let func = program.function(func_id);

    let mut reads: BTreeSet<AbstractObj> = BTreeSet::new();
    let mut writes: BTreeSet<AbstractObj> = BTreeSet::new();
    let mut member_insts = BTreeSet::new();
    for &m in members {
        let PdgNode::Inst(i) = pdg.nodes()[m] else {
            continue;
        };
        member_insts.insert(i);
        if let Opcode::Call { callee, .. } = &func.inst(i).opcode {
            let s = ctx.effects.of_callee(program, callee);
            reads.extend(s.reads);
            writes.extend(s.writes);
        }
    }
    let read_only: BTreeSet<AbstractObj> = reads.difference(&writes).copied().collect();
    if read_only.is_empty() {
        return None;
    }

    for &b in &ctx.linted_loop().blocks {
        for &i in &func.block(b).insts {
            if member_insts.contains(&i) {
                continue;
            }
            let written: Vec<AbstractObj> = match &func.inst(i).opcode {
                Opcode::Store(mem) => ctx
                    .points_to
                    .of(func_id, mem.base)
                    .iter()
                    .filter(|o| read_only.contains(o))
                    .copied()
                    .collect(),
                Opcode::Call { callee, .. } => ctx
                    .effects
                    .of_callee(program, callee)
                    .writes
                    .into_iter()
                    .filter(|o| read_only.contains(o))
                    .collect(),
                _ => continue,
            };
            if let Some(obj) = written.first() {
                return Some(Lint::RefutedAnnotation {
                    node: first,
                    group: group.0,
                    path: format!(
                        "read-only group state '{}' is written by {}",
                        ctx.object_name(*obj),
                        describe_inst(program, func_id, i)
                    ),
                });
            }
        }
    }
    None
}

/// `SP0103` for Y-branches: a hint whose taken path writes nothing
/// resets no state, so the reset-state exemption it licenses is empty.
fn dead_ybranch(ctx: &Ctx) -> Vec<Lint> {
    let pdg = ctx.input.pdg;
    let func = ctx.input.program.function(pdg.func());
    let l = ctx.linted_loop();
    let mut lints = Vec::new();
    for (node, n) in pdg.nodes().iter().enumerate() {
        let PdgNode::Branch(b) = n else { continue };
        if pdg.ybranch_hint(node).is_none() {
            continue;
        }
        let Terminator::CondBranch { then_block, .. } = &func.block(*b).terminator else {
            continue;
        };
        if !l.contains(*then_block) {
            continue;
        }
        if ctx.block_written_objects(*then_block).is_empty() {
            lints.push(Lint::DeadAnnotation {
                node,
                what: "Y-branch".to_string(),
            });
        }
    }
    lints
}
