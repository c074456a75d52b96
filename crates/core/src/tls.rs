//! The TLS-style baseline parallelization.
//!
//! Thread-level speculation executes whole loop iterations concurrently,
//! speculating that they are independent; the versioned memory subsystem
//! detects violations and squashes. The paper uses TLS-style execution
//! plans as the comparison point and notes (§3.2) that "similar
//! parallelizations and results could be obtained with execution plans
//! that more closely resemble TLS" — this module provides them, including
//! the refinement from §2.1 that some dependences are better
//! *synchronized* than speculated.

use crate::pipeline::IterationTrace;
use seqpar_runtime::{ChainLink, ChainShape, ExecutionPlan, SpecDep, TaskGraph};

/// How the TLS parallelization treats loop-carried dependences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CarriedHandling {
    /// Speculate all carried dependences; violations serialize.
    Speculate,
    /// Synchronize all carried dependences (every iteration waits for its
    /// predecessor — the degenerate no-speculation TLS).
    Synchronize,
}

/// Builds a TLS task graph from a measured trace.
///
/// Each iteration is one task. With [`CarriedHandling::Speculate`],
/// consecutive iterations carry speculation events (violated when the
/// trace observed a real dependence); with
/// [`CarriedHandling::Synchronize`], every iteration hard-depends on its
/// predecessor.
pub fn task_graph(trace: &IterationTrace, handling: CarriedHandling) -> TaskGraph {
    match handling {
        CarriedHandling::Speculate => trace.tls_task_graph(),
        CarriedHandling::Synchronize => {
            let shape = ChainShape {
                carried: [true],
                speculated: 0,
            };
            let links = trace.records().iter().map(|r| ChainLink {
                costs: [r.total()],
                violated_on: None,
                past_previous: false,
            });
            TaskGraph::chain(shape, links)
        }
    }
}

/// The TLS execution plan: all iterations spread across all cores.
pub fn plan(cores: usize) -> ExecutionPlan {
    ExecutionPlan::tls(cores)
}

/// Splits each TLS task's speculation events for inspection (useful in
/// tests and the ablation benches).
pub fn violation_count(graph: &TaskGraph) -> u64 {
    graph
        .tasks()
        .iter()
        .flat_map(|t| graph.spec_deps(t).iter())
        .filter(|s: &&SpecDep| s.violated)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::IterationRecord;
    use seqpar_runtime::{SimConfig, Simulator};

    fn trace(n: u64) -> IterationTrace {
        let mut t = IterationTrace::speculative();
        for i in 0..n {
            let mut r = IterationRecord::new(2, 50, 2);
            if i % 10 == 5 {
                r = r.with_misspec_on(i - 1);
            }
            t.push(r);
        }
        t
    }

    #[test]
    fn speculative_tls_beats_synchronized_tls() {
        let t = trace(200);
        let spec = task_graph(&t, CarriedHandling::Speculate);
        let sync = task_graph(&t, CarriedHandling::Synchronize);
        let sim = Simulator::new(SimConfig {
            cores: 8,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let rs = sim.run(&spec, &plan(8)).unwrap();
        let rh = sim.run(&sync, &plan(8)).unwrap();
        assert!(rs.speedup() > 3.0, "speculative {}", rs.speedup());
        assert!(rh.speedup() <= 1.01, "synchronized {}", rh.speedup());
    }

    #[test]
    fn synchronized_graph_has_no_speculation() {
        let t = trace(50);
        let g = task_graph(&t, CarriedHandling::Synchronize);
        assert_eq!(violation_count(&g), 0);
        assert!(g.tasks().iter().all(|task| g.spec_deps(task).is_empty()));
        assert!(g.tasks().iter().skip(1).all(|task| g.deps(task).len() == 1));
    }

    #[test]
    fn speculative_graph_records_observed_violations() {
        let t = trace(100);
        let g = task_graph(&t, CarriedHandling::Speculate);
        let expected = t
            .records()
            .iter()
            .filter(|r| r.misspec_on.is_some())
            .count() as u64;
        assert_eq!(violation_count(&g), expected);
        assert!(expected > 0);
    }

    #[test]
    fn plans_cover_all_cores() {
        assert_eq!(plan(6).stage(0).cores().len(), 6);
    }
}
