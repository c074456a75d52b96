//! From partitions and measured traces to simulatable task graphs.
//!
//! The paper measures parallel performance by decomposing the
//! single-threaded run into *tasks* — dynamic instances of the statically
//! chosen phases — timing each natively, and simulating the schedule
//! (§3.1). [`IterationTrace`] is that decomposition: one record per loop
//! iteration with the measured phase costs and the dynamic dependence
//! events (misspeculations) that actually occurred.

use seqpar_runtime::{ChainLink, ChainShape, ExecutionPlan, TaskGraph};

/// Measurements for one loop iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationRecord {
    /// Cycles spent in the sequential produce phase (A).
    pub a_cost: u64,
    /// Cycles spent in the parallel phase (B).
    pub b_cost: u64,
    /// Cycles spent in the sequential consume phase (C).
    pub c_cost: u64,
    /// `Some(j)` when this iteration's phase-B work *actually* depended
    /// on iteration `j`'s phase-B work — i.e. the speculation that
    /// iterations are independent was violated by iteration `j`.
    pub misspec_on: Option<u64>,
}

impl IterationRecord {
    /// A record with the given costs and no misspeculation.
    pub fn new(a_cost: u64, b_cost: u64, c_cost: u64) -> Self {
        Self {
            a_cost,
            b_cost,
            c_cost,
            misspec_on: None,
        }
    }

    /// Marks this iteration as having truly depended on iteration `j`.
    pub fn with_misspec_on(mut self, j: u64) -> Self {
        self.misspec_on = Some(j);
        self
    }

    /// Total cycles of the iteration.
    pub fn total(&self) -> u64 {
        self.a_cost + self.b_cost + self.c_cost
    }
}

/// The measured execution trace of one parallelized loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IterationTrace {
    records: Vec<IterationRecord>,
    /// Whether phase B runs speculatively (records `SpecDep`s between
    /// consecutive B tasks). Non-speculative pipelines — e.g. 256.bzip2,
    /// whose blocks are truly independent — skip them.
    pub speculative: bool,
}

impl IterationTrace {
    /// Creates an empty, non-speculative trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace whose phase B runs speculatively.
    pub fn speculative() -> Self {
        Self {
            speculative: true,
            ..Self::default()
        }
    }

    /// Appends one iteration's measurements.
    ///
    /// # Panics
    ///
    /// Panics if the record misspeculates on a future iteration.
    pub fn push(&mut self, record: IterationRecord) {
        if let Some(j) = record.misspec_on {
            assert!(
                (j as usize) < self.records.len(),
                "iteration {} cannot depend on future iteration {j}",
                self.records.len()
            );
        }
        self.records.push(record);
    }

    /// The per-iteration records.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// The number of iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total single-threaded cycles.
    pub fn total_cycles(&self) -> u64 {
        self.records.iter().map(IterationRecord::total).sum()
    }

    /// Fraction of iterations that misspeculated.
    pub fn misspec_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.records
                .iter()
                .filter(|r| r.misspec_on.is_some())
                .count() as f64
                / self.records.len() as f64
        }
    }

    /// The same loop at a coarser grain: record `c` of the result stands
    /// for iterations `c·k .. min(len, (c+1)·k)` run back to back as one
    /// task. Phase costs are summed, so `total_cycles` is preserved.
    ///
    /// A chunk runs its iterations in order, so a misspeculation on an
    /// iteration of the *same* chunk cannot manifest and is dropped; one
    /// on an earlier chunk becomes a misspeculation on that chunk — the
    /// latest such chunk when the merged iterations name several,
    /// because it is the last producer the chunk has to wait for.
    /// `chunked(1)` is the identity. Costs compose exactly
    /// (`chunked(a).chunked(b)` sums what `chunked(a·b)` sums); producers
    /// compose only up to that one-slot loss — a record remembers its
    /// latest producer, so chunking twice can forget an earlier one that
    /// chunking once keeps, never invent or postpone one.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn chunked(&self, k: usize) -> IterationTrace {
        assert!(k > 0, "a chunk holds at least one iteration");
        let records = self
            .records
            .chunks(k)
            .enumerate()
            .map(|(chunk, merged)| {
                let mut record = IterationRecord::default();
                for r in merged {
                    record.a_cost += r.a_cost;
                    record.b_cost += r.b_cost;
                    record.c_cost += r.c_cost;
                    let producer = r.misspec_on.map(|j| j / k as u64);
                    if producer.is_some_and(|p| p < chunk as u64) {
                        record.misspec_on = record.misspec_on.max(producer);
                    }
                }
                record
            })
            .collect();
        IterationTrace {
            records,
            speculative: self.speculative,
        }
    }

    /// Builds the three-phase task graph of §3.2: phase-A tasks chained
    /// serially, each phase-B task depending on its iteration's phase-A
    /// task (plus speculation events), phase-C tasks consuming phase B in
    /// iteration order.
    pub fn task_graph(&self) -> TaskGraph {
        let shape = ChainShape {
            carried: [true, false, true],
            speculated: 1,
        };
        TaskGraph::chain(shape, self.links(|r| [r.a_cost, r.b_cost, r.c_cost]))
    }

    /// Builds the TLS-style task graph: one stage, one task per
    /// iteration, consecutive iterations linked by speculation.
    pub fn tls_task_graph(&self) -> TaskGraph {
        let shape = ChainShape {
            carried: [false],
            speculated: 0,
        };
        TaskGraph::chain(shape, self.links(|r| [r.total()]))
    }

    /// One chain link per iteration, its tasks costed by `costs`. An
    /// iteration's speculation events are the producer it truly depended
    /// on, if any, then — in a speculative trace — the neighbour it
    /// speculated past, unless that neighbour is the producer.
    fn links<'a, const S: usize>(
        &'a self,
        costs: impl Fn(&IterationRecord) -> [u64; S] + Clone + 'a,
    ) -> impl ExactSizeIterator<Item = ChainLink<S>> + Clone + 'a {
        self.records.iter().enumerate().map(move |(i, r)| {
            let i = i as u64;
            ChainLink {
                costs: costs(r),
                violated_on: r.misspec_on,
                past_previous: self.speculative && i > 0 && r.misspec_on != Some(i - 1),
            }
        })
    }

    /// The standard execution plan for this trace on `cores` cores.
    pub fn plan(cores: usize) -> ExecutionPlan {
        ExecutionPlan::three_phase(cores)
    }
}

impl FromIterator<IterationRecord> for IterationTrace {
    fn from_iter<T: IntoIterator<Item = IterationRecord>>(iter: T) -> Self {
        let mut trace = IterationTrace::new();
        for r in iter {
            trace.push(r);
        }
        trace
    }
}

impl Extend<IterationRecord> for IterationTrace {
    fn extend<T: IntoIterator<Item = IterationRecord>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::{self, CarriedHandling};
    use seqpar_runtime::{SimConfig, Simulator, SpecDep, StageId, TaskId};

    fn trace(n: u64, misspec_every: Option<u64>) -> IterationTrace {
        let mut t = IterationTrace::speculative();
        for i in 0..n {
            let mut r = IterationRecord::new(5, 100, 5);
            if let Some(k) = misspec_every {
                if i > 0 && i % k == 0 {
                    r = r.with_misspec_on(i - 1);
                }
            }
            t.push(r);
        }
        t
    }

    #[test]
    fn totals_accumulate() {
        let t = trace(10, None);
        assert_eq!(t.len(), 10);
        assert_eq!(t.total_cycles(), 1100);
        assert_eq!(t.misspec_rate(), 0.0);
    }

    #[test]
    fn misspec_rate_counts_violations() {
        let t = trace(10, Some(2));
        // Iterations 2,4,6,8 misspeculate.
        assert!((t.misspec_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn task_graph_has_three_tasks_per_iteration() {
        let t = trace(7, None);
        let g = t.task_graph();
        assert_eq!(g.len(), 21);
        assert_eq!(g.serial_cycles(), t.total_cycles());
    }

    #[test]
    fn clean_trace_pipelines_to_high_speedup() {
        let t = trace(500, None);
        let g = t.task_graph();
        let sim = Simulator::new(SimConfig {
            cores: 8,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &IterationTrace::plan(8)).unwrap();
        assert!(r.speedup() > 5.0, "speedup {}", r.speedup());
        assert_eq!(r.speculations_survived, 499);
    }

    #[test]
    fn heavy_misspeculation_destroys_speedup() {
        let mut t = IterationTrace::speculative();
        for i in 0..200 {
            let mut r = IterationRecord::new(0, 100, 0);
            if i > 0 {
                r = r.with_misspec_on(i - 1);
            }
            t.push(r);
        }
        let g = t.task_graph();
        let sim = Simulator::new(SimConfig {
            cores: 16,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &IterationTrace::plan(16)).unwrap();
        assert!(r.speedup() < 1.2, "speedup {}", r.speedup());
        assert_eq!(r.violations, 199);
    }

    #[test]
    fn tls_graph_is_single_stage() {
        let t = trace(5, None);
        let g = t.tls_task_graph();
        assert_eq!(g.stage_count(), 1);
        assert_eq!(g.len(), 5);
        assert_eq!(g.serial_cycles(), t.total_cycles());
    }

    #[test]
    #[should_panic(expected = "future iteration")]
    fn misspec_on_future_iteration_is_rejected() {
        let mut t = IterationTrace::new();
        t.push(IterationRecord::new(1, 1, 1).with_misspec_on(5));
    }

    #[test]
    fn collects_from_iterator() {
        let t: IterationTrace = (0..4).map(|_| IterationRecord::new(1, 2, 3)).collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_cycles(), 24);
        assert!(!t.speculative);
    }

    #[test]
    fn misspec_on_distant_iteration_links_to_it() {
        let mut t = IterationTrace::speculative();
        t.push(IterationRecord::new(1, 10, 1));
        t.push(IterationRecord::new(1, 10, 1));
        t.push(IterationRecord::new(1, 10, 1).with_misspec_on(0));
        let g = t.task_graph();
        // Task B2 (index 7) has a violated dep on B0 (index 1) and a
        // surviving spec dep on B1.
        let b2 = &g.tasks()[7];
        assert_eq!(g.spec_deps(b2).len(), 2);
        assert!(g.spec_deps(b2).iter().any(|s| s.violated));
        assert!(g.spec_deps(b2).iter().any(|s| !s.violated));
    }

    fn spec(on: u32, violated: bool) -> SpecDep {
        SpecDep {
            on: TaskId(on),
            violated,
        }
    }

    fn stage_pairs(pairs: &[(u8, u8)]) -> Vec<(StageId, StageId)> {
        pairs
            .iter()
            .map(|&(s, t)| (StageId(s), StageId(t)))
            .collect()
    }

    #[test]
    fn an_empty_trace_builds_empty_graphs_of_each_shape() {
        let t = IterationTrace::speculative();
        for (g, stages) in [
            (t.task_graph(), 3),
            (t.tls_task_graph(), 1),
            (tls::task_graph(&t, CarriedHandling::Synchronize), 1),
        ] {
            assert!(g.is_empty());
            assert_eq!(g.stage_count(), stages);
            assert!(g.channels().is_empty());
        }
    }

    #[test]
    fn one_iteration_has_no_carried_edge_and_nothing_to_speculate_on() {
        let mut t = IterationTrace::speculative();
        t.push(IterationRecord::new(1, 2, 3));
        let g = t.task_graph();
        let tasks = g.tasks();
        assert_eq!(tasks.len(), 3);
        assert!(g.deps(&tasks[0]).is_empty());
        assert_eq!(g.deps(&tasks[1]), [TaskId(0)]);
        assert_eq!(g.deps(&tasks[2]), [TaskId(1)]);
        assert!(tasks.iter().all(|task| g.spec_deps(task).is_empty()));
        let tls = t.tls_task_graph();
        assert_eq!(tls.len(), 1);
        assert!(tls.deps(&tls.tasks()[0]).is_empty());
        assert!(tls.spec_deps(&tls.tasks()[0]).is_empty());
        assert_eq!(tls.serial_cycles(), 6);
    }

    #[test]
    fn a_misspeculation_on_the_previous_iteration_replaces_the_neighbour_edge() {
        let t = trace_with(3, &[(2, 1)]);
        // B2 (task 7) keeps one event: the violated one on B1 (task 4).
        let g = t.task_graph();
        assert_eq!(g.spec_deps(&g.tasks()[7]), [spec(4, true)]);
        assert_eq!(g.spec_deps(&g.tasks()[4]), [spec(1, false)]);
        let tls = t.tls_task_graph();
        assert_eq!(tls.spec_deps(&tls.tasks()[2]), [spec(1, true)]);
    }

    #[test]
    fn a_misspeculation_far_back_keeps_the_neighbour_edge_after_it() {
        let t = trace_with(6, &[(5, 1)]);
        let g = t.task_graph();
        // B5 is task 16: violated on B1 (task 4), then past B4 (task 13).
        assert_eq!(
            g.spec_deps(&g.tasks()[16]),
            [spec(4, true), spec(13, false)]
        );
        // C5 waits on B5 and C4; A5 on A4.
        assert_eq!(g.deps(&g.tasks()[17]), [TaskId(16), TaskId(14)]);
        assert_eq!(g.deps(&g.tasks()[15]), [TaskId(12)]);
        let tls = t.tls_task_graph();
        assert_eq!(
            tls.spec_deps(&tls.tasks()[5]),
            [spec(1, true), spec(4, false)]
        );
        // A non-speculative trace keeps the violated event alone.
        let plain = IterationTrace {
            speculative: false,
            ..t
        };
        let plain = plain.tls_task_graph();
        assert_eq!(plain.spec_deps(&plain.tasks()[5]), [spec(1, true)]);
    }

    #[test]
    fn channels_follow_the_shape() {
        let t = trace_with(4, &[(3, 0)]);
        assert_eq!(t.task_graph().channels(), stage_pairs(&[(0, 1), (1, 2)]));
        assert!(t.tls_task_graph().channels().is_empty());
        assert!(tls::task_graph(&t, CarriedHandling::Synchronize)
            .channels()
            .is_empty());
        let one = trace_with(1, &[]);
        assert_eq!(one.task_graph().channels(), stage_pairs(&[(0, 1), (1, 2)]));
        assert_eq!(
            t.chunked(3).task_graph().channels(),
            stage_pairs(&[(0, 1), (1, 2)])
        );
    }

    /// `n` records of distinct costs; `deps` lists `(iteration, producer)`.
    fn trace_with(n: u64, deps: &[(u64, u64)]) -> IterationTrace {
        let mut t = IterationTrace::speculative();
        for i in 0..n {
            let mut r = IterationRecord::new(i, 10 * i, 100 * i);
            if let Some(&(_, j)) = deps.iter().find(|(at, _)| *at == i) {
                r = r.with_misspec_on(j);
            }
            t.push(r);
        }
        t
    }

    fn producers(t: &IterationTrace) -> Vec<Option<u64>> {
        t.records().iter().map(|r| r.misspec_on).collect()
    }

    #[test]
    fn chunked_by_one_is_the_identity() {
        let t = trace_with(9, &[(3, 1), (4, 3), (8, 0)]);
        assert_eq!(t.chunked(1), t);
        assert_eq!(IterationTrace::new().chunked(4), IterationTrace::new());
    }

    #[test]
    fn a_chunk_at_least_as_long_as_the_trace_is_one_record() {
        let t = trace_with(5, &[(2, 1), (4, 0)]);
        for k in [5, 6, 100] {
            let c = t.chunked(k);
            assert_eq!(c.len(), 1);
            // 0+1+2+3+4 = 10 per unit of cost; nothing left to depend on.
            assert_eq!(c.records()[0], IterationRecord::new(10, 100, 1000));
        }
    }

    #[test]
    fn chunked_keeps_costs_the_ragged_tail_and_the_speculative_flag() {
        let t = trace_with(10, &[]);
        let c = t.chunked(4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.records()[2], IterationRecord::new(8 + 9, 170, 1700));
        assert_eq!(c.total_cycles(), t.total_cycles());
        assert_eq!(c.tls_task_graph().len(), 3);
        assert_eq!(c.task_graph().serial_cycles(), t.total_cycles());
        assert!(c.speculative);
        let plain: IterationTrace = (0..10).map(|_| IterationRecord::new(1, 2, 3)).collect();
        assert!(!plain.chunked(4).speculative);
    }

    #[test]
    fn chunked_drops_producers_inside_the_chunk_and_maps_the_rest() {
        // Chunks of 4: {0..4}, {4..8}, {8..12}.
        let t = trace_with(12, &[(3, 1), (5, 4), (6, 2), (9, 1), (10, 6), (11, 8)]);
        // 3→1 and 5→4 and 11→8 stay inside their chunks; 6→2 crosses to
        // chunk 0; chunk 2 names chunks 0 (9→1) and 1 (10→6): the latest.
        assert_eq!(producers(&t.chunked(4)), [None, Some(0), Some(1)]);
        // The latest wins whatever the order the iterations name them in.
        let t = trace_with(12, &[(9, 6), (10, 1)]);
        assert_eq!(producers(&t.chunked(4)), [None, None, Some(1)]);
    }

    proptest::proptest! {
        /// Chunking by `a` then by `b` is chunking by `a·b`: exactly on
        /// costs, and on producers up to the one slot a record has — the
        /// second pass can only have forgotten an earlier producer, so
        /// it never names a later one than the single pass does.
        #[test]
        fn chunking_composes(
            raw in proptest::collection::vec((0..50u64, 0..500u64, 0..4u64, proptest::strategy::any::<u64>()), 0..120),
            a in 1..6usize,
            b in 1..6usize,
        ) {
            let mut t = IterationTrace::speculative();
            for (i, &(a_cost, b_cost, pick, j)) in raw.iter().enumerate() {
                let mut r = IterationRecord::new(a_cost, b_cost, 1);
                if i > 0 && pick == 0 {
                    r = r.with_misspec_on(j % i as u64);
                }
                t.push(r);
            }
            let (twice, once) = (t.chunked(a).chunked(b), t.chunked(a * b));
            let costs = |t: &IterationTrace| -> Vec<_> {
                t.records().iter().map(|r| (r.a_cost, r.b_cost, r.c_cost)).collect()
            };
            proptest::prop_assert_eq!(costs(&twice), costs(&once));
            for (c, (two, one)) in producers(&twice).into_iter().zip(producers(&once)).enumerate() {
                proptest::prop_assert!(two <= one, "chunk {}: {:?} then {:?}", c, two, one);
            }
        }

        /// With every misspeculation on the previous iteration (gcc, mcf,
        /// vortex) no chunk has two producers and composition is exact.
        #[test]
        fn chunking_composes_exactly_on_neighbour_dependences(
            hits in proptest::collection::vec(0..3u64, 0..120),
            a in 1..6usize,
            b in 1..6usize,
        ) {
            let mut t = IterationTrace::speculative();
            for (i, &hit) in hits.iter().enumerate() {
                let mut r = IterationRecord::new(1, 7, 1);
                if i > 0 && hit == 0 {
                    r = r.with_misspec_on(i as u64 - 1);
                }
                t.push(r);
            }
            proptest::prop_assert_eq!(t.chunked(a).chunked(b), t.chunked(a * b));
        }
    }
}
