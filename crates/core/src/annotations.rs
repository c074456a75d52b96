//! Application of the sequential-model extensions (paper §2.3).
//!
//! These passes run over a [`LoopPdg`] *before* partitioning and erase the
//! dependences that the annotations declare removable:
//!
//! * **Commutative** (§2.3.2): calls in the same commutative group may
//!   execute in any order; outside the function, outputs depend only on
//!   inputs. The pass removes memory dependences between same-group call
//!   sites — including the carried self-dependence of a single call site,
//!   which is exactly the `seed` recurrence of 300.twolf's `Yacm_random`
//!   in Figure 2.
//! * **Y-branch** (§2.3.1): the true path may be taken at any dynamic
//!   instance, so downstream code need not wait on the branch's computed
//!   condition, and the state feeding the condition no longer serializes
//!   iterations. The pass removes the annotated branch's outgoing control
//!   dependences and its incoming carried dependences.

use seqpar_analysis::pdg::{DepKind, LoopPdg, PdgNode};
use seqpar_ir::{CommGroupId, Program, Terminator};

/// Outcome of the Commutative pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommutativeOutcome {
    /// Edges removed.
    pub edges_removed: usize,
    /// Groups that had at least one edge removed.
    pub groups_applied: Vec<CommGroupId>,
}

/// Removes memory dependences between calls of the same commutative
/// group.
///
/// The calls still execute atomically with respect to one another (the
/// paper's runtime serializes group members through non-transactional
/// memory with a rollback function per call, §2.3.2), but the *ordering*
/// dependence is gone, which is what blocks parallelization.
pub fn apply_commutative(pdg: &mut LoopPdg) -> CommutativeOutcome {
    let groups: Vec<Option<CommGroupId>> = (0..pdg.node_count())
        .map(|n| pdg.commutative_group(n))
        .collect();
    let removable = pdg.find_edges(|e| {
        e.kind == DepKind::Mem
            && match (groups[e.src], groups[e.dst]) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
    });
    let mut applied: Vec<CommGroupId> = removable
        .iter()
        .filter_map(|(_, e)| groups[e.src])
        .collect();
    applied.sort();
    applied.dedup();
    let edges_removed = removable.len();
    pdg.remove_edges(removable.into_iter().map(|(i, _)| i).collect());
    CommutativeOutcome {
        edges_removed,
        groups_applied: applied,
    }
}

/// Outcome of the Y-branch pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct YBranchOutcome {
    /// Edges removed.
    pub edges_removed: usize,
    /// Annotated branches that had edges removed, with the forced-path
    /// interval implied by their probability hint.
    pub branches_applied: Vec<u64>,
}

/// Removes the dependences an annotated Y-branch declares removable.
///
/// For every branch node carrying a [`seqpar_ir::YBranchHint`]:
///
/// * its outgoing **control** edges are removed — the compiler may force
///   the true path, so consumers need not wait for the real condition;
/// * its incoming **carried** edges are removed — the cross-iteration
///   state feeding the condition (e.g. "is the dictionary still
///   profitable?") no longer orders iterations, because the compiler
///   re-blocks the input at the interval the hint allows;
/// * carried **memory** edges through the state the true path resets are
///   removed: since the compiler may force the reset at boundaries of its
///   choosing, that state is privatizable per block — exactly how the
///   dictionary dependence disappears in Figure 1 and in 164.gzip. The
///   reset state is identified as anything memory-connected to the
///   true-path block's instructions.
pub fn apply_ybranch(program: &Program, pdg: &mut LoopPdg) -> YBranchOutcome {
    let annotated: Vec<(usize, u64)> = (0..pdg.node_count())
        .filter_map(|n| pdg.ybranch_hint(n).map(|h| (n, h.interval())))
        .collect();
    if annotated.is_empty() {
        return YBranchOutcome::default();
    }
    let func = program.function(pdg.func());
    // Nodes on the true paths of the annotated branches.
    let mut reset_nodes = vec![false; pdg.node_count()];
    for (n, _) in &annotated {
        let PdgNode::Branch(block) = pdg.nodes()[*n] else {
            continue;
        };
        if let Terminator::CondBranch { then_block, .. } = &func.block(block).terminator {
            for &i in &func.block(*then_block).insts {
                if let Some(idx) = pdg.index_of(PdgNode::Inst(i)) {
                    reset_nodes[idx] = true;
                }
            }
        }
    }
    // Expand to everything memory-connected to the reset region: that is
    // the state the forced path reinitializes.
    let mut reset_state = reset_nodes.clone();
    for e in pdg.find_edges(|e| e.kind == DepKind::Mem) {
        let e = e.1;
        if reset_nodes[e.src] {
            reset_state[e.dst] = true;
        }
        if reset_nodes[e.dst] {
            reset_state[e.src] = true;
        }
    }
    let is_annotated = |n: usize| annotated.iter().any(|(b, _)| *b == n);
    let removable = pdg.find_edges(|e| {
        (is_annotated(e.src) && e.kind == DepKind::Control)
            || (is_annotated(e.dst) && e.carried)
            || (e.kind == DepKind::Mem && e.carried && (reset_state[e.src] || reset_state[e.dst]))
    });
    let edges_removed = removable.len();
    pdg.remove_edges(removable.into_iter().map(|(i, _)| i).collect());
    YBranchOutcome {
        edges_removed,
        branches_applied: annotated
            .into_iter()
            .map(|(_, interval)| interval)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_analysis::pdg::PdgEdge;
    use seqpar_ir::{
        CommGroupId, ExternEffect, FunctionBuilder, LoopForest, Opcode, Program, YBranchHint,
    };

    /// The paper's Figure 2: a loop calling an RNG with an internal seed
    /// recurrence, annotated Commutative.
    fn twolf_rng_loop(commutative: bool) -> LoopPdg {
        let mut p = Program::new("twolf");
        let seed = p.add_global("randVarS", 1);
        p.declare_extern(
            "Yacm_random",
            ExternEffect {
                reads: vec![seed],
                writes: vec![seed],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("uloop");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let group = commutative.then_some(CommGroupId(7));
        let r = b.call_ext("Yacm_random", &[], group);
        let done = b.binop(Opcode::CmpEq, r, r);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        LoopPdg::build(&p, f, &forest, lid, None)
    }

    #[test]
    fn commutative_removes_the_rng_seed_recurrence() {
        let mut pdg = twolf_rng_loop(true);
        let carried_mem_before = pdg
            .edges()
            .filter(|e| e.kind == DepKind::Mem && e.carried)
            .count();
        assert!(
            carried_mem_before > 0,
            "the seed recurrence must exist first"
        );
        let outcome = apply_commutative(&mut pdg);
        assert_eq!(outcome.groups_applied, vec![CommGroupId(7)]);
        assert!(outcome.edges_removed >= carried_mem_before);
        assert_eq!(
            pdg.edges()
                .filter(|e| e.kind == DepKind::Mem && e.carried)
                .count(),
            0
        );
    }

    #[test]
    fn unannotated_rng_keeps_its_recurrence() {
        let mut pdg = twolf_rng_loop(false);
        let outcome = apply_commutative(&mut pdg);
        assert_eq!(outcome.edges_removed, 0);
        assert!(pdg.edges().any(|e| e.kind == DepKind::Mem && e.carried));
    }

    #[test]
    fn different_groups_are_not_merged() {
        // Two calls touching the same global but in *different* groups:
        // their mutual dependence must survive.
        let mut p = Program::new("t");
        let g = p.add_global("shared", 1);
        p.declare_extern(
            "alloc_a",
            ExternEffect {
                reads: vec![g],
                writes: vec![g],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let x = b.call_ext("alloc_a", &[], Some(CommGroupId(1)));
        let _y = b.call_ext("alloc_a", &[], Some(CommGroupId(2)));
        let done = b.binop(Opcode::CmpEq, x, x);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        let mut pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let outcome = apply_commutative(&mut pdg);
        // Only the self-edges of each call (same group as itself) are
        // removable; the cross-call edges remain.
        assert!(outcome.edges_removed > 0);
        let cross_edges = pdg
            .edges()
            .filter(|e| e.kind == DepKind::Mem && e.src != e.dst)
            .count();
        assert!(cross_edges > 0, "cross-group dependences must survive");
    }

    /// Figure 1's dictionary-reset loop with a Y-branch.
    fn gzip_ybranch_loop(annotated: bool) -> (Program, LoopPdg) {
        let mut p = Program::new("gzip");
        let dict = p.add_global("dict", 1);
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
        let profitable = b.call_ext("compress", &[], None);
        if annotated {
            b.ybranch(profitable, reset, latch, YBranchHint::new(0.00001));
        } else {
            b.cond_branch(profitable, reset, latch);
        }
        b.switch_to(reset);
        let addr = b.global_addr(dict);
        let zero = b.const_(0);
        b.store(addr, zero);
        b.jump(latch);
        b.switch_to(latch);
        let done = b.binop(Opcode::CmpEq, profitable, profitable);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        (p, pdg)
    }

    #[test]
    fn ybranch_erases_control_and_incoming_carried_edges() {
        let (p, mut pdg) = gzip_ybranch_loop(true);
        let outcome = apply_ybranch(&p, &mut pdg);
        assert_eq!(outcome.branches_applied, vec![100_000]);
        assert!(outcome.edges_removed > 0);
    }

    #[test]
    fn ybranch_breaks_the_dictionary_recurrence() {
        // The compress call reads and writes the dictionary: without the
        // annotation it has a carried self-dependence; the Y-branch makes
        // the dictionary block-privatizable.
        let (p, mut pdg) = gzip_ybranch_loop(true);
        let call = (0..pdg.node_count())
            .find(|&n| pdg.weight(n) == 8)
            .expect("the compress call");
        assert!(pdg
            .edges()
            .any(|e| e.src == call && e.dst == call && e.carried));
        apply_ybranch(&p, &mut pdg);
        assert!(!pdg
            .edges()
            .any(|e| e.src == call && e.dst == call && e.carried));
    }

    #[test]
    fn plain_branch_is_untouched() {
        let (p, mut pdg) = gzip_ybranch_loop(false);
        let before = pdg.edges().count();
        let outcome = apply_ybranch(&p, &mut pdg);
        assert_eq!(outcome.edges_removed, 0);
        assert_eq!(pdg.edges().count(), before);
    }

    #[test]
    fn ybranch_pass_is_idempotent() {
        let (p, mut pdg) = gzip_ybranch_loop(true);
        let first = apply_ybranch(&p, &mut pdg);
        let second = apply_ybranch(&p, &mut pdg);
        assert!(first.edges_removed > 0);
        assert_eq!(second.edges_removed, 0);
    }

    #[test]
    fn commutative_ignores_reg_and_control_edges() {
        let mut pdg = twolf_rng_loop(true);
        apply_commutative(&mut pdg);
        // Register edge from the call's result to the compare remains.
        assert!(pdg.edges().any(|e| e.kind == DepKind::Reg));
    }

    #[test]
    fn manual_edge_between_group_members_is_removed() {
        let mut pdg = twolf_rng_loop(true);
        apply_commutative(&mut pdg);
        // Re-add a synthetic mem edge on the commutative call and check a
        // second pass removes it again.
        let call = (0..pdg.node_count())
            .find(|&n| pdg.commutative_group(n).is_some())
            .unwrap();
        pdg.add_edge(PdgEdge {
            src: call,
            dst: call,
            kind: DepKind::Mem,
            carried: true,
            freq: 1.0,
        });
        let outcome = apply_commutative(&mut pdg);
        assert_eq!(outcome.edges_removed, 1);
    }
}
