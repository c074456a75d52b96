//! Tasks and task graphs.

use std::fmt;

/// Index of a task within a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a pipeline stage (the paper's *phase*: A = 0, B = 1, C = 2 in
/// the three-phase pattern of §3.2, though any number of stages is
/// allowed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(pub u8);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage{}", self.0)
    }
}

/// A speculated dependence observed (or not) at runtime.
///
/// The memory-profiling pass tells the simulator which speculated
/// dependences actually manifested: a violated one behaves exactly like a
/// synchronized dependence (serialization), a non-violated one costs
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecDep {
    /// The producer task this task speculated past.
    pub on: TaskId,
    /// Whether the dependence actually manifested this iteration.
    pub violated: bool,
}

/// A contiguous run of entries in one of the graph's dependence arenas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DepRange {
    start: u32,
    len: u32,
}

impl DepRange {
    fn slice<'a, T>(&self, arena: &'a [T]) -> &'a [T] {
        let start = self.start as usize;
        &arena[start..start + self.len as usize]
    }
}

/// A dynamic task: one instance of a phase for one loop iteration.
///
/// Dependence lists live in flat per-graph arenas (see
/// [`TaskGraph::deps`] and [`TaskGraph::spec_deps`]) rather than in
/// per-task `Vec`s: a graph holds four allocations (tasks, the two
/// arenas, and its handful of channels) no matter how many tasks it
/// contains, which keeps a live graph from fragmenting the heap under
/// the executor's allocation-heavy bodies.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// The stage (phase) this task belongs to.
    pub stage: StageId,
    /// The loop iteration this task came from.
    pub iter: u64,
    /// Execution cost in cycles (from native measurement).
    pub cost: u64,
    deps: DepRange,
    spec_deps: DepRange,
}

/// The shape of a per-iteration chain ([`TaskGraph::chain`]): every
/// iteration is one task per stage, in stage order, and each task after
/// the first of its iteration waits on the one before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainShape<const S: usize> {
    /// `carried[s]`: stage `s`'s task also waits on stage `s`'s task of
    /// the previous iteration (a serial stage).
    pub carried: [bool; S],
    /// The stage whose tasks carry an iteration's speculated dependences.
    pub speculated: usize,
}

/// One iteration of a per-iteration chain ([`TaskGraph::chain`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink<const S: usize> {
    /// The cost of the iteration's task in each stage.
    pub costs: [u64; S],
    /// The earlier iteration whose speculated-stage task this one's truly
    /// depended on: a violated speculated dependence, listed first.
    pub violated_on: Option<u64>,
    /// Whether this iteration's speculated-stage task speculated past the
    /// previous iteration's: a surviving speculated dependence, listed
    /// after the violated one.
    pub past_previous: bool,
}

/// The dynamic task graph of one parallelized loop execution.
///
/// Tasks are in lexicographic `(iter, stage)` order and dependences point
/// backwards in that order, so the simulator can schedule in a single
/// pass. Two paths build one: [`TaskGraph::add_task`] appends any task and
/// checks every rule as it goes, and [`TaskGraph::chain`] writes a whole
/// per-iteration chain — every graph a measured trace derives — from index
/// arithmetic. Both build the same graph from the same tasks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskGraph {
    stages: u8,
    tasks: Vec<Task>,
    dep_arena: Vec<TaskId>,
    spec_arena: Vec<SpecDep>,
    channels: Vec<(StageId, StageId)>,
}

impl TaskGraph {
    /// Creates an empty graph for a pipeline with `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(stages: u8) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        Self {
            stages,
            ..Self::default()
        }
    }

    /// A per-iteration chain of `links.len()` iterations, written in one
    /// pass: task `s` of iteration `i` is `TaskId(i·S + s)` and waits on
    /// task `s − 1` of its iteration, then — when `shape.carried[s]` — on
    /// task `s` of iteration `i − 1`; the `shape.speculated` task carries
    /// the link's violated dependence, then its surviving one on the
    /// previous iteration. The channels are the chain's `(s − 1, s)` pairs,
    /// known from the shape. The result equals what [`TaskGraph::add_task`]
    /// builds from the same tasks, arenas and channels included; only the
    /// checks the shape makes true by construction are skipped.
    ///
    /// `links` is walked twice: once to size the speculation arena, once
    /// to write.
    ///
    /// # Panics
    ///
    /// Panics if `S` is zero or above 255, if `shape.speculated` is out of
    /// range while a link speculates, or if a speculated dependence does
    /// not point at an earlier iteration.
    #[inline]
    pub fn chain<const S: usize, I>(shape: ChainShape<S>, links: I) -> Self
    where
        I: ExactSizeIterator<Item = ChainLink<S>> + Clone,
    {
        assert!(S > 0, "a pipeline needs at least one stage");
        let stages = u8::try_from(S).expect("a pipeline has at most 255 stages");
        let n = links.len();
        let spec_deps: usize = links
            .clone()
            .map(|l| usize::from(l.violated_on.is_some()) + usize::from(l.past_previous))
            .sum();
        let carried = shape.carried.iter().filter(|&&c| c).count();
        let deps = n * (S - 1) + n.saturating_sub(1) * carried;
        assert!(
            spec_deps == 0 || shape.speculated < S,
            "speculated stage {} out of range",
            shape.speculated
        );
        let mut tasks = Vec::with_capacity(n * S);
        let mut dep_arena = Vec::with_capacity(deps);
        // Each speculated task writes both of its candidate entries and
        // keeps those that exist, so no branch depends on the trace; the
        // one spare slot takes the last task's discarded entries.
        let unset = SpecDep {
            on: TaskId(0),
            violated: false,
        };
        let mut spec_arena = vec![unset; spec_deps + 1];
        let mut spec_len = 0;
        let stride = S as u32;
        for (i, link) in links.enumerate() {
            let base = i as u32 * stride;
            for s in 0..S {
                let id = base + s as u32;
                let dep_start = dep_arena.len() as u32;
                if s > 0 {
                    dep_arena.push(TaskId(id - 1));
                }
                if shape.carried[s] && i > 0 {
                    dep_arena.push(TaskId(id - stride));
                }
                let spec_start = spec_len as u32;
                if s == shape.speculated {
                    let producer = link.violated_on.unwrap_or(0);
                    assert!(
                        link.violated_on.is_none_or(|j| j < i as u64),
                        "speculated dependence on iteration {producer} must precede iteration {i}"
                    );
                    assert!(
                        i > 0 || !link.past_previous,
                        "speculated dependence of iteration 0 must precede it"
                    );
                    spec_arena[spec_len] = SpecDep {
                        on: TaskId(producer as u32 * stride + s as u32),
                        violated: true,
                    };
                    spec_len += usize::from(link.violated_on.is_some());
                    spec_arena[spec_len] = SpecDep {
                        on: TaskId(id.wrapping_sub(stride)),
                        violated: false,
                    };
                    spec_len += usize::from(link.past_previous);
                }
                tasks.push(Task {
                    stage: StageId(s as u8),
                    iter: i as u64,
                    cost: link.costs[s],
                    deps: DepRange {
                        start: dep_start,
                        len: dep_arena.len() as u32 - dep_start,
                    },
                    spec_deps: DepRange {
                        start: spec_start,
                        len: spec_len as u32 - spec_start,
                    },
                });
            }
        }
        spec_arena.truncate(spec_len);
        let channels = if n > 0 {
            (1..stages).map(|s| (StageId(s - 1), StageId(s))).collect()
        } else {
            Vec::new()
        };
        Self {
            stages,
            tasks,
            dep_arena,
            spec_arena,
            channels,
        }
    }

    /// The number of pipeline stages.
    pub fn stage_count(&self) -> u8 {
        self.stages
    }

    /// Adds a task and returns its id: the general, checked entry for a
    /// graph of any shape (hand-built graphs, tests). A graph that is a
    /// per-iteration chain is written faster by [`TaskGraph::chain`].
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range, if `(iter, stage)` does not
    /// follow the previous task in lexicographic order, or if any
    /// dependence points at a task that is not strictly earlier.
    pub fn add_task(
        &mut self,
        stage: u8,
        iter: u64,
        cost: u64,
        deps: &[TaskId],
        spec_deps: &[SpecDep],
    ) -> TaskId {
        assert!(stage < self.stages, "stage {stage} out of range");
        if let Some(last) = self.tasks.last() {
            let prev = (last.iter, last.stage.0);
            assert!(
                prev < (iter, stage),
                "tasks must be added in (iter, stage) order: {prev:?} then ({iter}, {stage})"
            );
        }
        let id = TaskId(self.tasks.len() as u32);
        for &d in deps {
            assert!(d.0 < id.0, "dependence {d} must precede task {id}");
            self.record_channel(d, StageId(stage));
        }
        for s in spec_deps {
            assert!(
                s.on.0 < id.0,
                "speculated dependence {} must precede task {id}",
                s.on
            );
            self.record_channel(s.on, StageId(stage));
        }
        let dep_range = DepRange {
            start: self.dep_arena.len() as u32,
            len: deps.len() as u32,
        };
        self.dep_arena.extend_from_slice(deps);
        let spec_range = DepRange {
            start: self.spec_arena.len() as u32,
            len: spec_deps.len() as u32,
        };
        self.spec_arena.extend_from_slice(spec_deps);
        self.tasks.push(Task {
            stage: StageId(stage),
            iter,
            cost,
            deps: dep_range,
            spec_deps: spec_range,
        });
        id
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0 as usize]
    }

    /// The synchronized dependences of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this graph.
    pub fn deps(&self, task: &Task) -> &[TaskId] {
        task.deps.slice(&self.dep_arena)
    }

    /// The speculated dependences of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this graph.
    pub fn spec_deps(&self, task: &Task) -> &[SpecDep] {
        task.spec_deps.slice(&self.spec_arena)
    }

    /// All tasks in `(iter, stage)` order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total cost of all tasks — the single-threaded execution time.
    pub fn serial_cycles(&self) -> u64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// The distinct cross-stage channels implied by the dependences, as
    /// `(producer stage, consumer stage)` pairs, in the order their first
    /// dependence (synchronized or speculated) was added. Each is recorded
    /// once, by [`TaskGraph::add_task`] or [`TaskGraph::chain`], so reading
    /// them scans nothing.
    pub fn channels(&self) -> &[(StageId, StageId)] {
        &self.channels
    }

    /// Records the channel from `producer`'s stage to `stage`, unless it
    /// stays within one stage or is known already.
    fn record_channel(&mut self, producer: TaskId, stage: StageId) {
        let channel = (self.task(producer).stage, stage);
        if channel.0 != stage && !self.channels.contains(&channel) {
            self.channels.push(channel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_accumulate_in_order() {
        let mut g = TaskGraph::new(3);
        let a = g.add_task(0, 0, 5, &[], &[]);
        let b = g.add_task(1, 0, 7, &[a], &[]);
        let _c = g.add_task(2, 0, 3, &[b], &[]);
        let a1 = g.add_task(0, 1, 5, &[a], &[]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.serial_cycles(), 20);
        assert_eq!(g.task(a1).iter, 1);
        assert_eq!(g.deps(g.task(a1)), &[a]);
        assert!(g.spec_deps(g.task(a1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "order")]
    fn out_of_order_tasks_are_rejected() {
        let mut g = TaskGraph::new(2);
        g.add_task(1, 0, 5, &[], &[]);
        g.add_task(0, 0, 5, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_dependences_are_rejected() {
        let mut g = TaskGraph::new(2);
        g.add_task(0, 0, 5, &[TaskId(5)], &[]);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_pipeline_is_rejected() {
        TaskGraph::new(0);
    }

    #[test]
    fn a_speculated_dependence_on_a_later_stage_records_a_backward_channel() {
        let mut g = TaskGraph::new(2);
        let a = g.add_task(0, 0, 5, &[], &[]);
        let b = g.add_task(1, 0, 7, &[a], &[]);
        let spec = SpecDep {
            on: b,
            violated: true,
        };
        g.add_task(0, 1, 3, &[a], &[spec]);
        assert_eq!(
            g.channels(),
            [(StageId(0), StageId(1)), (StageId(1), StageId(0))]
        );
    }

    #[test]
    fn channels_derive_from_dependences() {
        let mut g = TaskGraph::new(4);
        let a = g.add_task(0, 0, 1, &[], &[]);
        // The first dependence into stage 2 comes from stage 1, so 1 -> 2
        // is recorded before 0 -> 2, which the same task also has.
        let b = g.add_task(1, 0, 1, &[a], &[]);
        let c = g.add_task(2, 0, 1, &[b, a], &[]);
        // 1 -> 3 is reached only through a speculated dependence (never
        // violated), and it is recorded after the synchronized 2 -> 3.
        let spec = |on| SpecDep {
            on,
            violated: false,
        };
        g.add_task(3, 0, 1, &[c], &[spec(b)]);
        // Same-stage dependences, synchronized or speculated, add nothing.
        let a1 = g.add_task(0, 1, 1, &[a], &[]);
        let b1 = g.add_task(1, 1, 1, &[a1, b], &[spec(b)]);
        g.add_task(2, 1, 1, &[b1, c], &[]);
        let channels = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)];
        let expected: Vec<_> = channels
            .iter()
            .map(|&(s, t)| (StageId(s), StageId(t)))
            .collect();
        assert_eq!(g.channels(), expected);
    }

    /// A three-stage chain (serial first and last stages, speculation in
    /// the middle) through `chain` and through `add_task`.
    fn chains(links: &[ChainLink<3>]) -> (TaskGraph, TaskGraph) {
        let direct = direct_chain(links);
        let mut checked = TaskGraph::new(3);
        for (i, link) in links.iter().enumerate() {
            let iter = i as u64;
            let id = |j: u64, s: u32| TaskId(3 * j as u32 + s);
            let carried = |s| iter.checked_sub(1).map(|p| id(p, s));
            let mut spec: Vec<SpecDep> = link
                .violated_on
                .map(|j| SpecDep {
                    on: id(j, 1),
                    violated: true,
                })
                .into_iter()
                .collect();
            if link.past_previous {
                spec.push(SpecDep {
                    on: id(iter - 1, 1),
                    violated: false,
                });
            }
            let a = checked.add_task(0, iter, link.costs[0], carried(0).as_slice(), &[]);
            let b = checked.add_task(1, iter, link.costs[1], &[a], &spec);
            let c_deps: Vec<TaskId> = std::iter::once(b).chain(carried(2)).collect();
            checked.add_task(2, iter, link.costs[2], &c_deps, &[]);
        }
        (direct, checked)
    }

    fn direct_chain(links: &[ChainLink<3>]) -> TaskGraph {
        let shape = ChainShape {
            carried: [true, false, true],
            speculated: 1,
        };
        TaskGraph::chain(shape, links.iter().copied())
    }

    fn link(violated_on: Option<u64>, past_previous: bool) -> ChainLink<3> {
        ChainLink {
            costs: [1, 10, 2],
            violated_on,
            past_previous,
        }
    }

    #[test]
    fn a_chain_is_the_graph_add_task_builds() {
        let links = [
            link(None, false),
            link(None, true),
            link(Some(0), true),
            link(Some(2), false),
            link(None, false),
        ];
        for n in 0..=links.len() {
            let (direct, checked) = chains(&links[..n]);
            assert_eq!(direct, checked, "{n} iterations");
        }
        let (direct, _) = chains(&links);
        assert_eq!(
            direct.channels(),
            [(StageId(0), StageId(1)), (StageId(1), StageId(2))]
        );
        assert_eq!(
            direct.spec_deps(direct.task(TaskId(7))),
            [
                SpecDep {
                    on: TaskId(1),
                    violated: true
                },
                SpecDep {
                    on: TaskId(4),
                    violated: false
                }
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn a_chain_rejects_a_speculated_dependence_on_its_own_iteration() {
        direct_chain(&[link(None, false), link(Some(1), false)]);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn a_chain_rejects_speculating_past_a_previous_iteration_it_does_not_have() {
        direct_chain(&[link(None, true)]);
    }

    #[test]
    fn empty_graph_reports_zero_serial_cycles() {
        let g = TaskGraph::new(1);
        assert!(g.is_empty());
        assert_eq!(g.serial_cycles(), 0);
        assert!(g.channels().is_empty());
    }

    #[test]
    fn dep_arenas_share_flat_storage() {
        let mut g = TaskGraph::new(2);
        let a = g.add_task(0, 0, 1, &[], &[]);
        let b = g.add_task(1, 0, 1, &[a], &[]);
        let c = g.add_task(
            0,
            1,
            1,
            &[a, b],
            &[SpecDep {
                on: b,
                violated: true,
            }],
        );
        assert_eq!(g.deps(g.task(c)), &[a, b]);
        assert_eq!(g.spec_deps(g.task(c)).len(), 1);
        assert!(g.spec_deps(g.task(c))[0].violated);
        assert_eq!(g.deps(g.task(a)), &[] as &[TaskId]);
    }
}
