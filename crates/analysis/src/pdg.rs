//! The program dependence graph over one target loop.
//!
//! This is the data structure the DSWP partitioner consumes: nodes are the
//! instructions (and conditional branches) of the loop body, edges are
//! register, memory, and control dependences, each classified as
//! intra-iteration or loop-carried and tagged with its profile-observed
//! manifestation frequency.

use crate::alias::AliasQuery;
use crate::control::ControlDeps;
use crate::effects::Effects;
use crate::memdep::mem_deps;
use crate::points_to::PointsTo;
use crate::profile::LoopProfile;
use crate::regdeps::reg_deps;
use seqpar_ir::{
    BlockId, CommGroupId, FuncId, InstId, LoopForest, LoopId, Opcode, Program, Terminator,
    YBranchHint,
};
use std::collections::HashMap;

/// A PDG node: an instruction or a block's conditional branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PdgNode {
    /// An ordinary instruction.
    Inst(InstId),
    /// The conditional branch terminating a block.
    Branch(BlockId),
}

/// The kind of dependence an edge represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// SSA register (def-use) dependence.
    Reg,
    /// Memory (may-alias) dependence.
    Mem,
    /// Control dependence.
    Control,
}

/// One dependence edge between PDG node indices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PdgEdge {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// Whether the dependence crosses loop iterations.
    pub carried: bool,
    /// Profile-observed manifestation frequency (`1.0` = always).
    pub freq: f64,
}

/// The program dependence graph of a single loop.
#[derive(Clone, Debug)]
pub struct LoopPdg {
    func: FuncId,
    loop_id: LoopId,
    nodes: Vec<PdgNode>,
    index: HashMap<PdgNode, usize>,
    edges: Vec<PdgEdge>,
    weights: Vec<u64>,
    commutative: Vec<Option<CommGroupId>>,
    ybranch: Vec<Option<YBranchHint>>,
}

impl LoopPdg {
    /// Builds the PDG of `loop_id` in `func`.
    ///
    /// Control edges from a latch branch are marked carried: whether the
    /// *next* iteration runs is decided by this iteration's branch.
    /// Memory edges take their frequency from `profile` when provided.
    pub fn build(
        program: &Program,
        func: FuncId,
        forest: &LoopForest,
        loop_id: LoopId,
        profile: Option<&LoopProfile>,
    ) -> Self {
        let points_to = PointsTo::analyze(program);
        let effects = Effects::analyze(program, &points_to);
        Self::build_with(
            program, func, forest, loop_id, profile, &points_to, &effects,
        )
    }

    /// [`LoopPdg::build`] with precomputed whole-program points-to and
    /// effect facts (a caller that runs several passes over one program
    /// computes them once).
    pub fn build_with(
        program: &Program,
        func: FuncId,
        forest: &LoopForest,
        loop_id: LoopId,
        profile: Option<&LoopProfile>,
        points_to: &PointsTo,
        effects: &Effects,
    ) -> Self {
        let f = program.function(func);
        let l = forest.get(loop_id);
        // Nodes: instructions in block order, plus a Branch node per
        // conditionally terminated block.
        let mut nodes = Vec::new();
        let mut commutative = Vec::new();
        let mut ybranch = Vec::new();
        for &b in &l.blocks {
            for &i in &f.block(b).insts {
                nodes.push(PdgNode::Inst(i));
                commutative.push(match &f.inst(i).opcode {
                    Opcode::Call { commutative, .. } => *commutative,
                    _ => None,
                });
                ybranch.push(None);
            }
            if let Terminator::CondBranch { ybranch: y, .. } = &f.block(b).terminator {
                nodes.push(PdgNode::Branch(b));
                commutative.push(None);
                ybranch.push(*y);
            }
        }
        let index: HashMap<PdgNode, usize> =
            nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let weights = nodes
            .iter()
            .map(|n| match n {
                PdgNode::Inst(i) => default_weight(&f.inst(*i).opcode),
                PdgNode::Branch(_) => 1,
            })
            .collect();

        let scope: Vec<InstId> = forest.body_insts(loop_id, f);
        let mut edges = Vec::new();

        // Register dependences (including carried phi inputs).
        for d in reg_deps(f, &scope, Some(l)) {
            edges.push(PdgEdge {
                src: index[&PdgNode::Inst(d.def_inst)],
                dst: index[&PdgNode::Inst(d.use_inst)],
                kind: DepKind::Reg,
                carried: d.carried,
                freq: 1.0,
            });
        }
        // Branch conditions consume their defining instruction.
        for &b in &l.blocks {
            if let Some(cond) = f.block(b).terminator.condition() {
                if let Some(def) = f.def_of(cond) {
                    if let (Some(&s), Some(&t)) = (
                        index.get(&PdgNode::Inst(def)),
                        index.get(&PdgNode::Branch(b)),
                    ) {
                        edges.push(PdgEdge {
                            src: s,
                            dst: t,
                            kind: DepKind::Reg,
                            carried: false,
                            freq: 1.0,
                        });
                    }
                }
            }
        }

        // Memory dependences refined by profile.
        let aliases = AliasQuery::new(program, points_to);
        let mem_profile = profile.map(|p| &p.memory);
        for d in mem_deps(program, func, &scope, &aliases, effects, mem_profile) {
            edges.push(PdgEdge {
                src: index[&PdgNode::Inst(d.src)],
                dst: index[&PdgNode::Inst(d.dst)],
                kind: DepKind::Mem,
                carried: d.carried,
                freq: d.freq,
            });
        }

        // Control dependences: Branch(a) -> members of control-dependent
        // blocks. Latch branches control the next iteration (carried).
        let cd = ControlDeps::analyze(f);
        for &b in &l.blocks {
            for &a in cd.deps_of(b) {
                if !l.contains(a) {
                    continue;
                }
                let Some(&src) = index.get(&PdgNode::Branch(a)) else {
                    continue;
                };
                let carried = l.latches.contains(&a);
                for &i in &f.block(b).insts {
                    edges.push(PdgEdge {
                        src,
                        dst: index[&PdgNode::Inst(i)],
                        kind: DepKind::Control,
                        carried,
                        freq: 1.0,
                    });
                }
                if let Some(&dst) = index.get(&PdgNode::Branch(b)) {
                    if src != dst {
                        edges.push(PdgEdge {
                            src,
                            dst,
                            kind: DepKind::Control,
                            carried,
                            freq: 1.0,
                        });
                    }
                }
            }
        }

        Self {
            func,
            loop_id,
            nodes,
            index,
            edges,
            weights,
            commutative,
            ybranch,
        }
    }

    /// The function this PDG was built over.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// The loop this PDG was built over.
    pub fn loop_id(&self) -> LoopId {
        self.loop_id
    }

    /// The nodes, in body order.
    pub fn nodes(&self) -> &[PdgNode] {
        &self.nodes
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the dependence edges.
    pub fn edges(&self) -> impl Iterator<Item = &PdgEdge> {
        self.edges.iter()
    }

    /// The index of a node, if it is part of this PDG.
    pub fn index_of(&self, node: PdgNode) -> Option<usize> {
        self.index.get(&node).copied()
    }

    /// The estimated execution weight of a node.
    pub fn weight(&self, node: usize) -> u64 {
        self.weights[node]
    }

    /// Overrides the estimated execution weight of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_weight(&mut self, node: usize, weight: u64) {
        self.weights[node] = weight;
    }

    /// The commutative group of a node, when it is an annotated call.
    pub fn commutative_group(&self, node: usize) -> Option<CommGroupId> {
        self.commutative[node]
    }

    /// Places a call node into a commutative group, as the audit pass
    /// does when it *proves* commutativity that the program text never
    /// annotated. Inferred groups use ids disjoint from hand-written
    /// ones (see `seqpar_analysis::audit`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_commutative_group(&mut self, node: usize, group: CommGroupId) {
        self.commutative[node] = Some(group);
    }

    /// The Y-branch hint of a node, when it is an annotated branch.
    pub fn ybranch_hint(&self, node: usize) -> Option<YBranchHint> {
        self.ybranch[node]
    }

    /// Removes the edges at the given positions (used by annotation and
    /// speculation passes). Indices refer to the current edge order.
    pub fn remove_edges(&mut self, mut positions: Vec<usize>) {
        positions.sort_unstable_by(|a, b| b.cmp(a));
        positions.dedup();
        for p in positions {
            self.edges.swap_remove(p);
        }
    }

    /// Adds an edge (used by tests and transformation passes).
    pub fn add_edge(&mut self, edge: PdgEdge) {
        assert!(edge.src < self.nodes.len() && edge.dst < self.nodes.len());
        self.edges.push(edge);
    }

    /// The positions and contents of edges satisfying `pred`.
    pub fn find_edges(&self, mut pred: impl FnMut(&PdgEdge) -> bool) -> Vec<(usize, PdgEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| pred(e))
            .map(|(i, e)| (i, *e))
            .collect()
    }

    /// Total weight of all nodes (one iteration's estimated cost).
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Renders the PDG in Graphviz DOT format. `node_attr` may add extra
    /// attributes per node (e.g. a stage color); return an empty string
    /// for none.
    pub fn to_dot(
        &self,
        func: &seqpar_ir::Function,
        mut node_attr: impl FnMut(usize) -> String,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph pdg {\n  rankdir=TB;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let label = match n {
                PdgNode::Inst(id) => {
                    let inst = func.inst(*id);
                    inst.label
                        .clone()
                        .unwrap_or_else(|| format!("{:?}", inst.opcode))
                }
                PdgNode::Branch(b) => format!("branch {b}"),
            };
            let extra = node_attr(i);
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}\"{extra}];",
                label.replace('"', "'")
            );
        }
        for e in &self.edges {
            let style = match e.kind {
                DepKind::Reg => "solid",
                DepKind::Mem => "dashed",
                DepKind::Control => "dotted",
            };
            let color = if e.carried { "red" } else { "black" };
            let _ = writeln!(
                out,
                "  n{} -> n{} [style={style}, color={color}];",
                e.src, e.dst
            );
        }
        out.push_str("}\n");
        out
    }
}

fn default_weight(op: &Opcode) -> u64 {
    match op {
        Opcode::Call { .. } => 8,
        Opcode::Load(_) | Opcode::Store(_) => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_ir::{FunctionBuilder, Program};

    /// A loop with an accumulator in memory and a commutative RNG call.
    fn build_fixture() -> (Program, FuncId, LoopForest, LoopId) {
        let mut p = Program::new("t");
        let acc = p.add_global("acc", 1);
        p.declare_extern("rng", seqpar_ir::ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let a = b.global_addr(acc);
        let v = b.load(a);
        b.label_last("load_acc");
        let r = b.call_ext("rng", &[], Some(CommGroupId(1)));
        let sum = b.binop(Opcode::Add, v, r);
        b.store(a, sum);
        b.label_last("store_acc");
        let done = b.binop(Opcode::CmpEq, sum, r);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut p);
        let forest = LoopForest::build(p.function(func));
        let (lid, _) = forest.loops().next().unwrap();
        (p, func, forest, lid)
    }

    #[test]
    fn pdg_has_inst_and_branch_nodes() {
        let (p, f, forest, lid) = build_fixture();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let insts = pdg
            .nodes()
            .iter()
            .filter(|n| matches!(n, PdgNode::Inst(_)))
            .count();
        let branches = pdg
            .nodes()
            .iter()
            .filter(|n| matches!(n, PdgNode::Branch(_)))
            .count();
        assert_eq!(insts, 6);
        assert_eq!(branches, 1);
    }

    #[test]
    fn accumulator_creates_carried_memory_edge() {
        let (p, f, forest, lid) = build_fixture();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        assert!(pdg
            .edges()
            .any(|e| e.kind == DepKind::Mem && e.carried && e.freq == 1.0));
    }

    #[test]
    fn latch_branch_controls_next_iteration() {
        let (p, f, forest, lid) = build_fixture();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let branch = pdg
            .nodes()
            .iter()
            .position(|n| matches!(n, PdgNode::Branch(_)))
            .unwrap();
        assert!(pdg
            .edges()
            .any(|e| e.src == branch && e.kind == DepKind::Control && e.carried));
    }

    #[test]
    fn commutative_annotation_is_visible_on_nodes() {
        let (p, f, forest, lid) = build_fixture();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let groups: Vec<_> = (0..pdg.node_count())
            .filter_map(|n| pdg.commutative_group(n))
            .collect();
        assert_eq!(groups, vec![CommGroupId(1)]);
    }

    #[test]
    fn profile_frequencies_attach_to_memory_edges() {
        let (p, f, forest, lid) = build_fixture();
        let func = p.function(f);
        let mut profile = LoopProfile::with_trip_count(100);
        profile
            .memory
            .record_by_label(func, "store_acc", "load_acc", 0.05);
        let pdg = LoopPdg::build(&p, f, &forest, lid, Some(&profile));
        assert!(pdg
            .edges()
            .any(|e| e.kind == DepKind::Mem && e.carried && (e.freq - 0.05).abs() < 1e-9));
    }

    #[test]
    fn edge_removal_and_lookup_roundtrip() {
        let (p, f, forest, lid) = build_fixture();
        let mut pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let before = pdg.edges().count();
        let mem_edges = pdg.find_edges(|e| e.kind == DepKind::Mem);
        assert!(!mem_edges.is_empty());
        pdg.remove_edges(mem_edges.iter().map(|(i, _)| *i).collect());
        let after = pdg.edges().count();
        assert_eq!(after, before - mem_edges.len());
        assert!(pdg.edges().all(|e| e.kind != DepKind::Mem));
    }

    #[test]
    fn dot_export_lists_every_node_and_edge() {
        let (p, f, forest, lid) = build_fixture();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let dot = pdg.to_dot(p.function(f), |_| String::new());
        assert!(dot.starts_with("digraph pdg {"));
        for i in 0..pdg.node_count() {
            assert!(dot.contains(&format!("n{i} [label=")), "node {i} missing");
        }
        assert_eq!(dot.matches(" -> ").count(), pdg.edges().count());
        // Carried edges are highlighted; labels survive.
        assert!(dot.contains("color=red"));
        assert!(dot.contains("load_acc"));
    }

    #[test]
    fn weights_default_by_opcode_and_can_be_overridden() {
        let (p, f, forest, lid) = build_fixture();
        let mut pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let call = (0..pdg.node_count())
            .find(|&n| pdg.commutative_group(n).is_some())
            .unwrap();
        assert_eq!(pdg.weight(call), 8);
        pdg.set_weight(call, 100);
        assert_eq!(pdg.weight(call), 100);
        assert!(pdg.total_weight() > 100);
    }
}
