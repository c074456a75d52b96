//! Checker 2: replicated-stage race detection.
//!
//! The replicated stage runs loop iterations concurrently over a
//! worker pool with no ordering between them, so any two iterations'
//! instances of the stage may interleave freely. Every pair of
//! stage-resident accesses (including a node paired with its own
//! next-iteration instance) that may touch a common abstract object
//! with at least one write is a candidate race.
//!
//! Candidates are then filtered by the exemptions that correspond
//! exactly to the mechanisms the programming model provides for
//! breaking such conflicts:
//!
//! * **Commutative** — both accesses are calls in the same commutative
//!   group; the runtime serialises group members atomically and the
//!   annotation licenses any order (paper §2.3.2);
//! * **speculation** — a speculated dependence covers the pair; the
//!   runtime versions the consumer's view and validates at commit;
//! * **Y-branch reset state** — the conflicting objects are written on
//!   the taken path of a Y-branch in this loop; the annotation makes
//!   any observed value of that state sequentially explicable
//!   (paper §2.3.1);
//! * **per-iteration allocations** — the object is an allocation site
//!   inside the loop body, so each iteration's accesses land on a
//!   fresh object that context-insensitive points-to merely merges;
//! * **privatized state** — both accesses were privatized per worker
//!   by reduction expansion (paper §2.1), so cross-iteration
//!   instances touch different copies;
//! * **field disjointness** — for two plain loads/stores the
//!   field-sensitive alias query proves the references disjoint even
//!   though their points-to sets overlap.
//!
//! Whatever survives is reported as [`Lint::ReplicatedRace`] with the
//! conflicting access path.

use super::diag::Lint;
use super::{Access, Ctx};
use crate::alias::AliasQuery;
use crate::pdg::PdgNode;
use crate::points_to::AbstractObj;
use seqpar_ir::{MemRef, Opcode};
use std::collections::BTreeSet;

pub(super) fn check(ctx: &Ctx) -> Vec<Lint> {
    let input = ctx.input;
    let pdg = input.pdg;
    let stages = input.stages;

    // Memory-active nodes resident in a replicated stage.
    let members: Vec<(usize, Access)> = (0..pdg.node_count())
        .filter(|&n| stages.is_replicated(stages.stage_of(n)))
        .filter_map(|n| ctx.node_access(n).map(|a| (n, a)))
        .collect();
    if members.is_empty() {
        return Vec::new();
    }

    let reset_state = ctx.ybranch_reset_objects();
    let aliases = AliasQuery::new(input.program, ctx.points_to);
    let mut lints = Vec::new();

    for (i, (m, am)) in members.iter().enumerate() {
        for (n, an) in members.iter().skip(i) {
            if commutative_pair(ctx, *m, *n)
                || speculation_covers(ctx, *m, *n)
                || privatized_pair(ctx, *m, *n)
                || fields_disjoint(ctx, &aliases, *m, *n)
            {
                continue;
            }
            let conflicts = conflict_objects(am, an)
                .into_iter()
                .filter(|o| !reset_state.contains(o))
                .filter(|o| !per_iteration_alloc(ctx, *o))
                .collect::<Vec<_>>();
            let unknown = unknown_conflict(am, an);
            if conflicts.is_empty() && !unknown {
                continue;
            }
            lints.push(Lint::ReplicatedRace {
                first: *m,
                second: *n,
                path: describe_conflicts(ctx, am, an, &conflicts, unknown),
            });
        }
    }
    lints
}

/// Both nodes are calls annotated with the same commutative group.
fn commutative_pair(ctx: &Ctx, m: usize, n: usize) -> bool {
    match (
        ctx.input.pdg.commutative_group(m),
        ctx.input.pdg.commutative_group(n),
    ) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// A speculated dependence covers the pair in either direction.
fn speculation_covers(ctx: &Ctx, m: usize, n: usize) -> bool {
    ctx.input
        .speculated
        .iter()
        .any(|s| (s.src == m && s.dst == n) || (s.src == n && s.dst == m))
}

/// Both accesses were privatized per worker (reduction expansion):
/// each iteration's instance lands on its worker's private copy.
fn privatized_pair(ctx: &Ctx, m: usize, n: usize) -> bool {
    ctx.input.privatized.contains(&m) && ctx.input.privatized.contains(&n)
}

/// Both nodes are plain loads/stores whose references the
/// field-sensitive alias query proves disjoint.
fn fields_disjoint(ctx: &Ctx, aliases: &AliasQuery, m: usize, n: usize) -> bool {
    let (Some(a), Some(b)) = (plain_mem_ref(ctx, m), plain_mem_ref(ctx, n)) else {
        return false;
    };
    !aliases.alias_in(ctx.input.pdg.func(), &a, &b).may_alias()
}

/// The memory reference of a node, when it is a plain load or store.
fn plain_mem_ref(ctx: &Ctx, node: usize) -> Option<MemRef> {
    let pdg = ctx.input.pdg;
    let PdgNode::Inst(id) = pdg.nodes()[node] else {
        return None;
    };
    match ctx.input.program.function(pdg.func()).inst(id).opcode {
        Opcode::Load(mem) | Opcode::Store(mem) => Some(mem),
        _ => None,
    }
}

/// The object is an allocation site inside the linted loop body: each
/// iteration allocates afresh, so cross-iteration instances are
/// distinct objects the site-named abstraction merges.
fn per_iteration_alloc(ctx: &Ctx, obj: AbstractObj) -> bool {
    let AbstractObj::Alloc(f, site) = obj else {
        return false;
    };
    if f != ctx.input.pdg.func() {
        return false;
    }
    let func = ctx.input.program.function(f);
    ctx.linted_loop()
        .blocks
        .iter()
        .any(|&b| func.block(b).insts.contains(&site))
}

/// Objects on which the two accesses conflict (at least one writes).
pub(super) fn conflict_objects(a: &Access, b: &Access) -> BTreeSet<AbstractObj> {
    let mut objs = BTreeSet::new();
    objs.extend(a.writes.intersection(&b.writes).copied());
    objs.extend(a.writes.intersection(&b.reads).copied());
    objs.extend(a.reads.intersection(&b.writes).copied());
    objs
}

/// One side may touch memory the analysis cannot name — it must be
/// assumed to read and write anything — and the other side touches
/// memory at all.
pub(super) fn unknown_conflict(a: &Access, b: &Access) -> bool {
    let touches = |x: &Access| x.unknown || !x.reads.is_empty() || !x.writes.is_empty();
    (a.unknown && touches(b)) || (b.unknown && touches(a))
}

/// Renders the access path: each conflicting object with the kinds of
/// access meeting on it.
fn describe_conflicts(
    ctx: &Ctx,
    a: &Access,
    b: &Access,
    conflicts: &[AbstractObj],
    unknown: bool,
) -> String {
    let mut parts: Vec<String> = conflicts
        .iter()
        .map(|o| {
            let kind = if a.writes.contains(o) && b.writes.contains(o) {
                "write/write"
            } else {
                "write/read"
            };
            format!("{kind} on '{}'", ctx.object_name(*o))
        })
        .collect();
    if unknown {
        parts.push("access to unanalyzable memory".to_string());
    }
    parts.join("; ")
}
