//! Property-based tests for the thread-extraction machinery: SCC
//! decomposition against brute force, partition invariants over
//! randomly generated loop bodies, and the task graphs a measured trace
//! derives against the graphs `TaskGraph::add_task` builds.

use proptest::prelude::*;
use seqpar::dswp::{partition, Stage};
use seqpar::scc::SccDecomposition;
use seqpar::tls::{self, CarriedHandling};
use seqpar::{IterationRecord, IterationTrace};
use seqpar_analysis::pdg::LoopPdg;
use seqpar_ir::{ExternEffect, FunctionBuilder, LoopForest, Opcode, Program};
use seqpar_runtime::{SpecDep, TaskGraph, TaskId};

/// Brute-force reachability on a small graph.
#[allow(clippy::needless_range_loop)]
fn reachable(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut r = vec![vec![false; n]; n];
    for i in 0..n {
        r[i][i] = true;
    }
    for &(a, b) in edges {
        r[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                r[i][j] |= r[i][k] && r[k][j];
            }
        }
    }
    r
}

proptest! {
    /// Two nodes share an SCC exactly when they are mutually reachable.
    #[test]
    #[allow(clippy::needless_range_loop)] // brute-force style on purpose
    fn scc_matches_mutual_reachability(
        edges in proptest::collection::vec((0..10usize, 0..10usize), 0..40)
    ) {
        let n = 10;
        let scc = SccDecomposition::compute(n, edges.iter().copied());
        let r = reachable(n, &edges);
        for i in 0..n {
            for j in 0..n {
                let same = scc.component_of(i) == scc.component_of(j);
                prop_assert_eq!(same, r[i][j] && r[j][i], "nodes {} and {}", i, j);
            }
        }
    }

    /// The condensation's topological order respects every edge.
    #[test]
    fn scc_topological_order_is_valid(
        edges in proptest::collection::vec((0..12usize, 0..12usize), 0..50)
    ) {
        let n = 12;
        let scc = SccDecomposition::compute(n, edges.iter().copied());
        let order: Vec<usize> = scc.topological().collect();
        let pos = |c: usize| order.iter().position(|x| *x == c).expect("component in order");
        for &(a, b) in &edges {
            let (ca, cb) = (scc.component_of(a), scc.component_of(b));
            if ca != cb {
                prop_assert!(pos(ca) < pos(cb), "edge {}->{} violates order", a, b);
            }
        }
    }

    /// Partitions of random loop bodies always respect the pipeline
    /// direction (A before B before C for intra-iteration dependences)
    /// and cover every node.
    #[test]
    fn random_loops_partition_consistently(
        stores in proptest::collection::vec((0..4usize, 0..4usize), 1..8),
        calls in proptest::collection::vec(any::<bool>(), 1..5)
    ) {
        // Build a loop touching up to 4 globals with a mix of loads,
        // stores, and pure/impure calls.
        let mut p = Program::new("random");
        let globals: Vec<_> = (0..4).map(|i| p.add_global(format!("g{i}"), 1)).collect();
        p.declare_extern("pure", ExternEffect::pure_fn());
        p.declare_extern("impure", ExternEffect::clobber_all());
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let mut last = b.const_(1);
        for (src, dst) in &stores {
            let a_src = b.global_addr(globals[*src]);
            let v = b.load(a_src);
            let sum = b.binop(Opcode::Add, v, last);
            let a_dst = b.global_addr(globals[*dst]);
            b.store(a_dst, sum);
            last = sum;
        }
        for pure in &calls {
            let name = if *pure { "pure" } else { "impure" };
            last = b.call_ext(name, &[last], None);
        }
        let done = b.binop(Opcode::CmpEq, last, last);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().expect("loop exists");
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        let part = partition(&pdg);
        prop_assert_eq!(part.stages().len(), pdg.node_count());
        // Intra-iteration edges flow forward through the pipeline.
        for e in pdg.edges() {
            if !e.carried {
                prop_assert!(part.stage_of(e.src) <= part.stage_of(e.dst));
            }
        }
        // Weight accounting is exact.
        let total: u64 = [Stage::A, Stage::B, Stage::C]
            .iter()
            .map(|s| part.weight(*s))
            .sum();
        prop_assert_eq!(total, pdg.total_weight());
    }
}

// Trace-derived graphs. `IterationTrace` writes its graphs in one pass
// with `TaskGraph::chain`; each must equal, arenas and channels
// included, the graph the checked `add_task` builds from the same
// records, written out below as the paper's task model states it. Every
// test name starts with `trace_graph`, so CI runs them alone, in
// release, with `PROPTEST_CASES=1000`.

/// Cases for the trace-graph properties: `PROPTEST_CASES` when set,
/// else 256.
fn trace_graph_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(256)
}

/// The speculation events of iteration `i`: the producer it truly
/// depended on, if any, then — in a speculative trace — the previous
/// iteration it speculated past, unless that was the producer; `id`
/// names an iteration's speculated task.
fn spec_events(trace: &IterationTrace, i: usize, id: impl Fn(u64) -> TaskId) -> Vec<SpecDep> {
    let misspec_on = trace.records()[i].misspec_on;
    let mut events = Vec::new();
    if let Some(j) = misspec_on {
        events.push(SpecDep {
            on: id(j),
            violated: true,
        });
    }
    let previous = (i as u64).checked_sub(1);
    if trace.speculative && previous.is_some() && misspec_on != previous {
        events.push(SpecDep {
            on: id(i as u64 - 1),
            violated: false,
        });
    }
    events
}

/// §3.2's three-phase graph through `add_task`: A after the previous A,
/// B after its A (speculating on earlier Bs), C after its B and the
/// previous C.
fn three_phase_by_add_task(trace: &IterationTrace) -> TaskGraph {
    let mut g = TaskGraph::new(3);
    let (mut prev_a, mut prev_c): (Option<TaskId>, Option<TaskId>) = (None, None);
    for (i, r) in trace.records().iter().enumerate() {
        let iter = i as u64;
        let a = g.add_task(0, iter, r.a_cost, prev_a.as_slice(), &[]);
        let spec = spec_events(trace, i, |j| TaskId(3 * j as u32 + 1));
        let b = g.add_task(1, iter, r.b_cost, &[a], &spec);
        let c_deps: Vec<TaskId> = std::iter::once(b).chain(prev_c).collect();
        prev_c = Some(g.add_task(2, iter, r.c_cost, &c_deps, &[]));
        prev_a = Some(a);
    }
    g
}

/// The speculative TLS graph through `add_task`: one task per
/// iteration, speculating on earlier ones.
fn tls_by_add_task(trace: &IterationTrace) -> TaskGraph {
    let mut g = TaskGraph::new(1);
    for (i, r) in trace.records().iter().enumerate() {
        let spec = spec_events(trace, i, |j| TaskId(j as u32));
        g.add_task(0, i as u64, r.total(), &[], &spec);
    }
    g
}

/// The synchronized TLS graph through `add_task`: every iteration waits
/// for the previous one and speculates on nothing.
fn synchronized_by_add_task(trace: &IterationTrace) -> TaskGraph {
    let mut g = TaskGraph::new(1);
    let mut prev: Option<TaskId> = None;
    for (i, r) in trace.records().iter().enumerate() {
        prev = Some(g.add_task(0, i as u64, r.total(), prev.as_slice(), &[]));
    }
    g
}

/// A trace from drawn `(a, b, c, pick, j)` tuples: `pick` 0 makes the
/// record misspeculate on the previous iteration, 1 on iteration
/// `j mod i` (anywhere earlier), anything else on none.
fn drawn_trace(raw: &[(u64, u64, u64, u8, u64)], speculative: bool) -> IterationTrace {
    let mut trace = if speculative {
        IterationTrace::speculative()
    } else {
        IterationTrace::new()
    };
    for (i, &(a, b, c, pick, j)) in raw.iter().enumerate() {
        let mut r = IterationRecord::new(a, b, c);
        let i = i as u64;
        if i > 0 && pick == 0 {
            r = r.with_misspec_on(i - 1);
        } else if i > 0 && pick == 1 {
            r = r.with_misspec_on(j % i);
        }
        trace.push(r);
    }
    trace
}

/// Asserts every trace-derived graph of `trace` equals its `add_task`
/// twin.
fn assert_graphs_match_add_task(trace: &IterationTrace) {
    assert_eq!(trace.task_graph(), three_phase_by_add_task(trace));
    assert_eq!(trace.tls_task_graph(), tls_by_add_task(trace));
    assert_eq!(
        tls::task_graph(trace, CarriedHandling::Speculate),
        tls_by_add_task(trace)
    );
    assert_eq!(
        tls::task_graph(trace, CarriedHandling::Synchronize),
        synchronized_by_add_task(trace)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(trace_graph_cases()))]

    /// All four shapes of a random trace, speculative or not, and of
    /// the same trace chunked by `k`, equal what `add_task` builds.
    #[test]
    fn trace_graphs_equal_the_add_task_graphs(
        raw in proptest::collection::vec((0..50u64, 0..500u64, 0..50u64, 0..4u8, any::<u64>()), 0..150),
        speculative in any::<bool>(),
        k in 1..9usize,
    ) {
        let trace = drawn_trace(&raw, speculative);
        assert_graphs_match_add_task(&trace);
        assert_graphs_match_add_task(&trace.chunked(k));
    }
}
