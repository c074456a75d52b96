//! The PS-DSWP partitioner: SCC condensation and three-phase assignment.
//!
//! Decoupled software pipelining partitions the loop-body PDG into stages
//! such that all dependences flow forward through the pipeline. The
//! paper's generalization (§3.2) uses exactly three phases:
//!
//! * **A** — sequential: tasks depend only on prior phase-A tasks;
//! * **B** — parallel: each task depends only on its iteration's phase-A
//!   task, so tasks from different iterations replicate across cores
//!   (this is the "parallel stage" extension that makes DSWP scale);
//! * **C** — sequential: consumes phase-B results in iteration order.
//!
//! An SCC of the (annotation- and speculation-pruned) PDG is *doall* when
//! none of its internal edges is loop-carried: its code can run for many
//! iterations concurrently. The partitioner places the heaviest
//! consistent set of doall SCCs in phase B, their ancestors in phase A,
//! and everything else in phase C.

use crate::scc::SccDecomposition;
use seqpar_analysis::pdg::LoopPdg;

/// The paper's three phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Sequential producer stage.
    A,
    /// Replicated parallel stage.
    B,
    /// Sequential consumer stage.
    C,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::A => f.write_str("A"),
            Stage::B => f.write_str("B"),
            Stage::C => f.write_str("C"),
        }
    }
}

/// The result of partitioning one loop PDG.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    stage_of: Vec<Stage>,
    weights: [u64; 3],
    doall_sccs: usize,
    sequential_sccs: usize,
}

impl Partition {
    /// The stage assigned to PDG node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn stage_of(&self, node: usize) -> Stage {
        self.stage_of[node]
    }

    /// Per-node stage assignments in PDG node order.
    pub fn stages(&self) -> &[Stage] {
        &self.stage_of
    }

    /// Total node weight assigned to `stage`.
    pub fn weight(&self, stage: Stage) -> u64 {
        self.weights[stage as usize]
    }

    /// Fraction of one iteration's weight in the parallel stage — the
    /// quantity that bounds scalability (Amdahl over the pipeline).
    pub fn parallel_fraction(&self) -> f64 {
        let total: u64 = self.weights.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.weights[Stage::B as usize] as f64 / total as f64
        }
    }

    /// Number of doall SCCs found in the pruned PDG.
    pub fn doall_scc_count(&self) -> usize {
        self.doall_sccs
    }

    /// Number of sequential (carried-dependence) SCCs.
    pub fn sequential_scc_count(&self) -> usize {
        self.sequential_sccs
    }

    /// Whether a non-empty parallel stage was extracted.
    pub fn has_parallel_stage(&self) -> bool {
        self.weights[Stage::B as usize] > 0
    }
}

/// Renders `pdg` as Graphviz DOT with nodes colored by their assigned
/// stage (A = gold, B = palegreen, C = lightblue) — handy for inspecting
/// why code landed in a sequential phase.
pub fn partition_to_dot(
    program: &seqpar_ir::Program,
    pdg: &LoopPdg,
    partition: &Partition,
) -> String {
    let func = program.function(pdg.func());
    pdg.to_dot(func, |n| {
        let color = match partition.stage_of(n) {
            Stage::A => "gold",
            Stage::B => "palegreen",
            Stage::C => "lightblue",
        };
        format!(", style=filled, fillcolor={color}")
    })
}

/// Partitions `pdg` into the three-phase pipeline.
pub fn partition(pdg: &LoopPdg) -> Partition {
    let n = pdg.node_count();
    let edges: Vec<(usize, usize)> = pdg.edges().map(|e| (e.src, e.dst)).collect();
    let scc = SccDecomposition::compute(n, edges.iter().copied());
    let nscc = scc.count();

    // Doall classification: no internal carried edge.
    let mut doall = vec![true; nscc];
    for e in pdg.edges() {
        if e.carried && scc.component_of(e.src) == scc.component_of(e.dst) {
            doall[scc.component_of(e.src)] = false;
        }
    }
    // SCC weights.
    let mut weight = vec![0u64; nscc];
    for v in 0..n {
        weight[scc.component_of(v)] += pdg.weight(v);
    }
    // Condensation adjacency + DAG reachability (reflexive excluded).
    let mut adj = vec![Vec::new(); nscc];
    for (s, d) in &edges {
        let (cs, cd) = (scc.component_of(*s), scc.component_of(*d));
        if cs != cd && !adj[cs].contains(&cd) {
            adj[cs].push(cd);
        }
    }
    let words = nscc.div_ceil(64).max(1);
    let mut reach = vec![vec![0u64; words]; nscc];
    // Tarjan indices: sinks have low indices, so ascending index order is
    // reverse-topological — exactly what backward propagation needs.
    for u in 0..nscc {
        let mut row = vec![0u64; words];
        for &v in &adj[u] {
            row[v / 64] |= 1 << (v % 64);
            for w in 0..words {
                row[w] |= reach[v][w];
            }
        }
        reach[u] = row;
    }
    let reaches = |r: &Vec<Vec<u64>>, u: usize, v: usize| r[u][v / 64] >> (v % 64) & 1 == 1;

    // Start with every doall SCC in B and evict until consistent:
    // 1. no sequential SCC both descends from and leads back into B,
    // 2. no carried edge between two distinct B members.
    let mut in_b: Vec<bool> = doall.clone();
    loop {
        let mut evict: Option<usize> = None;
        'search: for s in 0..nscc {
            if in_b[s] {
                continue;
            }
            // Sequential SCC s between two B members?
            let b_before: Vec<usize> = (0..nscc)
                .filter(|&b| in_b[b] && reaches(&reach, b, s))
                .collect();
            if b_before.is_empty() {
                continue;
            }
            for b2 in 0..nscc {
                if in_b[b2] && reaches(&reach, s, b2) {
                    // Evict the lighter endpoint.
                    let b1 = *b_before
                        .iter()
                        .min_by_key(|b| weight[**b])
                        .expect("non-empty");
                    evict = Some(if weight[b1] <= weight[b2] { b1 } else { b2 });
                    break 'search;
                }
            }
        }
        if evict.is_none() {
            for e in pdg.edges() {
                if !e.carried {
                    continue;
                }
                let (cs, cd) = (scc.component_of(e.src), scc.component_of(e.dst));
                if cs != cd && in_b[cs] && in_b[cd] {
                    evict = Some(if weight[cs] <= weight[cd] { cs } else { cd });
                    break;
                }
            }
        }
        match evict {
            Some(b) => in_b[b] = false,
            None => break,
        }
    }

    // A = strict ancestors of B; C = the rest.
    let mut stage_scc = vec![Stage::C; nscc];
    for c in 0..nscc {
        if in_b[c] {
            stage_scc[c] = Stage::B;
        } else if (0..nscc).any(|b| in_b[b] && reaches(&reach, c, b)) {
            stage_scc[c] = Stage::A;
        }
    }
    // With no parallel stage at all, everything is one sequential phase A.
    if !in_b.iter().any(|b| *b) {
        stage_scc.iter_mut().for_each(|s| *s = Stage::A);
    }

    let stage_of: Vec<Stage> = (0..n).map(|v| stage_scc[scc.component_of(v)]).collect();
    let mut weights = [0u64; 3];
    for v in 0..n {
        weights[stage_of[v] as usize] += pdg.weight(v);
    }
    Partition {
        stage_of,
        weights,
        doall_sccs: doall.iter().filter(|d| **d).count(),
        sequential_sccs: doall.iter().filter(|d| !**d).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_analysis::pdg::{DepKind, PdgEdge};
    use seqpar_ir::{ExternEffect, FunctionBuilder, LoopForest, Opcode, Program};

    /// A classic pipeline loop: read (sequential counter), process
    /// (independent heavy work), write (sequential output append).
    fn pipeline_pdg() -> LoopPdg {
        let mut p = Program::new("t");
        let cursor = p.add_global("cursor", 1);
        let out = p.add_global("out", 1);
        p.declare_extern("process", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        // Phase-A shaped: cursor = cursor + 1 (carried memory recurrence).
        let ac = b.global_addr(cursor);
        let cur = b.load(ac);
        let one = b.const_(1);
        let nxt = b.binop(Opcode::Add, cur, one);
        b.store(ac, nxt);
        // Phase-B shaped: heavy pure call on the item.
        let processed = b.call_ext("process", &[nxt], None);
        b.label_last("process");
        // Phase-C shaped: append to output (carried recurrence on out).
        let ao = b.global_addr(out);
        let tail = b.load(ao);
        let merged = b.binop(Opcode::Add, tail, processed);
        b.store(ao, merged);
        let done = b.binop(Opcode::CmpLe, nxt, one);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        LoopPdg::build(&p, f, &forest, lid, None)
    }

    fn node_labelled(pdg: &LoopPdg, program_label: &str) -> usize {
        // Only used with the fixture above where labels are unique.
        let _ = program_label;
        (0..pdg.node_count())
            .find(|&n| pdg.weight(n) == 8) // the call is the only weight-8 node
            .unwrap()
    }

    #[test]
    fn pure_call_lands_in_the_parallel_stage() {
        let pdg = pipeline_pdg();
        let part = partition(&pdg);
        assert!(part.has_parallel_stage());
        let call = node_labelled(&pdg, "process");
        assert_eq!(part.stage_of(call), Stage::B);
    }

    #[test]
    fn carried_recurrences_stay_sequential() {
        let pdg = pipeline_pdg();
        let part = partition(&pdg);
        assert!(
            part.sequential_scc_count() >= 2,
            "cursor and out recurrences"
        );
        // Producer recurrence must come before the call (stage A), the
        // output recurrence after it (stage C).
        assert!(part.weight(Stage::A) > 0);
        assert!(part.weight(Stage::C) > 0);
    }

    #[test]
    fn parallel_fraction_is_meaningful() {
        let pdg = pipeline_pdg();
        let part = partition(&pdg);
        let f = part.parallel_fraction();
        assert!(f > 0.0 && f < 1.0, "fraction {f}");
        let total: u64 = [Stage::A, Stage::B, Stage::C]
            .iter()
            .map(|s| part.weight(*s))
            .sum();
        assert_eq!(total, pdg.total_weight());
    }

    #[test]
    fn fully_sequential_loop_collapses_to_phase_a() {
        // A loop that is one big recurrence.
        let mut p = Program::new("t");
        let acc = p.add_global("acc", 1);
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let a = b.global_addr(acc);
        let v = b.load(a);
        let one = b.const_(1);
        let n = b.binop(Opcode::Add, v, one);
        b.store(a, n);
        let done = b.binop(Opcode::CmpLe, n, one);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let part = partition(&pdg);
        assert!(!part.has_parallel_stage());
        assert_eq!(part.weight(Stage::A), pdg.total_weight());
        assert_eq!(part.parallel_fraction(), 0.0);
    }

    #[test]
    fn carried_edge_between_doall_sccs_evicts_one() {
        let mut pdg = pipeline_pdg();
        let part_before = partition(&pdg);
        assert!(part_before.has_parallel_stage());
        // Fabricate a carried edge from the parallel call to itself via a
        // second doall node — here, onto the call directly, making its
        // SCC sequential.
        let call = node_labelled(&pdg, "process");
        pdg.add_edge(PdgEdge {
            src: call,
            dst: call,
            kind: DepKind::Mem,
            carried: true,
            freq: 1.0,
        });
        let part_after = partition(&pdg);
        assert_ne!(part_after.stage_of(call), Stage::B);
        assert!(part_after.weight(Stage::B) < part_before.weight(Stage::B));
    }

    #[test]
    fn partition_dot_colors_every_stage() {
        let mut p = seqpar_ir::Program::new("t");
        let cursor = p.add_global("cursor", 1);
        let out = p.add_global("out", 1);
        p.declare_extern("process", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let ac = b.global_addr(cursor);
        let cur = b.load(ac);
        let one = b.const_(1);
        let nxt = b.binop(Opcode::Add, cur, one);
        b.store(ac, nxt);
        let processed = b.call_ext("process", &[nxt], None);
        let ao = b.global_addr(out);
        let tail = b.load(ao);
        let merged = b.binop(Opcode::Add, tail, processed);
        b.store(ao, merged);
        let done = b.binop(Opcode::CmpLe, nxt, one);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let part = partition(&pdg);
        let dot = partition_to_dot(&p, &pdg, &part);
        assert!(dot.contains("fillcolor=gold"));
        assert!(dot.contains("fillcolor=palegreen"));
        assert!(dot.contains("fillcolor=lightblue"));
    }

    #[test]
    fn stage_weights_cover_every_node() {
        let pdg = pipeline_pdg();
        let part = partition(&pdg);
        assert_eq!(part.stages().len(), pdg.node_count());
    }
}
