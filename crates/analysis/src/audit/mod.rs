//! `seqpar-audit`: interprocedural annotation inference and static
//! conflict-density estimation.
//!
//! The lint checkers (see [`crate::lint`]) audit the annotations a
//! programmer *wrote*; this pass goes one step further and derives,
//! from the same points-to and effect-summary facts, the annotations
//! the programmer *need not write*:
//!
//! * [`infer_commutativity`] — the **encapsulated-state rule**: a
//!   callee whose effect summary is bounded and whose state (its
//!   read/write object set) is touched by no other code in the whole
//!   program is self-commuting (paper §2.3.2 — "outside the function,
//!   outputs depend only on inputs"). Call sites of such a callee are
//!   grouped automatically, with group ids disjoint from hand-written
//!   ones, and the parallelizer applies them exactly as it would a
//!   hand `Commutative` annotation. Workloads like 300.twolf's
//!   `Yacm_random`, 175.vpr's `my_irand`, and 197.parser's `xalloc`
//!   need no annotation under this rule.
//! * [`conflict_profile`] — a **static conflict-density estimate**:
//!   for every dependence the parallelizer chose to speculate, the
//!   profiled manifestation frequency is the probability that a
//!   concurrent iteration pair conflicts on the dependence's address
//!   region and squashes. Aggregated over regions and scaled by the
//!   replicated stage's pool size, the estimate predicts the squash
//!   rate a governed run will observe — which the parallelizer uses
//!   to rescind speculation too dense to pay, the tuner to price
//!   conflict probes, and `figures conflicts` to set beside the rate
//!   the governor measures.
//!
//! The lint pipeline consumes the same inference to emit the `SP01xx`
//! and `SP02xx` annotation-hygiene warnings (dead, redundant, and
//! refuted annotations).

mod commutativity;
mod density;

pub use commutativity::{
    infer_commutativity, infer_commutativity_with, InferredGroup, INFERRED_GROUP_BIT,
};
pub use density::{conflict_profile, conflict_profile_with};

use crate::effects::Effects;
use crate::pdg::{LoopPdg, PdgNode};
use crate::points_to::{AbstractObj, PointsTo};
use seqpar_ir::{Opcode, Program};
use std::collections::BTreeSet;

/// The memory behaviour of one PDG node, resolved to abstract objects.
///
/// The same resolution the lint checkers use: loads and stores through
/// the points-to sets of their base pointers, calls through callee
/// effect summaries.
#[derive(Clone, Debug, Default)]
pub struct MemAccess {
    /// Objects the node may read.
    pub reads: BTreeSet<AbstractObj>,
    /// Objects the node may write.
    pub writes: BTreeSet<AbstractObj>,
    /// The node may touch memory the analysis cannot name.
    pub unknown: bool,
}

/// The memory access summary of a PDG node, or `None` for nodes with
/// no memory behaviour.
pub fn access_of(
    program: &Program,
    pdg: &LoopPdg,
    points_to: &PointsTo,
    effects: &Effects,
    node: usize,
) -> Option<MemAccess> {
    let func = program.function(pdg.func());
    match pdg.nodes().get(node)? {
        PdgNode::Branch(_) => None,
        PdgNode::Inst(id) => {
            let inst = func.inst(*id);
            match &inst.opcode {
                Opcode::Load(mem) => {
                    let pts = points_to.of(pdg.func(), mem.base);
                    Some(MemAccess {
                        reads: pts.iter().copied().collect(),
                        unknown: pts.is_empty(),
                        ..MemAccess::default()
                    })
                }
                Opcode::Store(mem) => {
                    let pts = points_to.of(pdg.func(), mem.base);
                    Some(MemAccess {
                        writes: pts.iter().copied().collect(),
                        unknown: pts.is_empty(),
                        ..MemAccess::default()
                    })
                }
                Opcode::Call { callee, .. } => {
                    let s = effects.of_callee(program, callee);
                    Some(MemAccess {
                        reads: s.reads,
                        writes: s.writes,
                        unknown: s.clobbers_unknown,
                    })
                }
                _ => None,
            }
        }
    }
}

/// A display name for an abstract object.
pub fn object_name(program: &Program, obj: AbstractObj) -> String {
    match obj {
        AbstractObj::Global(g) => program.global(g).name.clone(),
        AbstractObj::Alloc(f, i) => {
            let func = program.function(f);
            match &func.inst(i).label {
                Some(l) => format!("alloc '{l}' in {}", func.name),
                None => format!("alloc site {i:?} in {}", func.name),
            }
        }
    }
}
