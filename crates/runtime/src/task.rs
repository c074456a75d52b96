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
/// per-task `Vec`s: graphs hold three contiguous allocations no matter
/// how many tasks they contain, which keeps a live graph from
/// fragmenting the heap under the executor's allocation-heavy bodies.
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

/// The dynamic task graph of one parallelized loop execution.
///
/// Tasks must be added in lexicographic `(iter, stage)` order and
/// dependences must point backwards in that order; [`TaskGraph::add_task`]
/// enforces this so the simulator can schedule in a single pass.
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
        Self::with_capacity(stages, 0, 0, 0)
    }

    /// [`TaskGraph::new`] with room reserved for `tasks` tasks carrying
    /// `deps` synchronized and `spec_deps` speculated dependences in
    /// total: a builder that knows its sizes never regrows an arena.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn with_capacity(stages: u8, tasks: usize, deps: usize, spec_deps: usize) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        Self {
            stages,
            tasks: Vec::with_capacity(tasks),
            dep_arena: Vec::with_capacity(deps),
            spec_arena: Vec::with_capacity(spec_deps),
            channels: Vec::new(),
        }
    }

    /// The number of pipeline stages.
    pub fn stage_count(&self) -> u8 {
        self.stages
    }

    /// Adds a task and returns its id.
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
    /// once, by [`TaskGraph::add_task`], so reading them scans nothing.
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
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_pipeline_is_rejected_with_a_reserve_too() {
        TaskGraph::with_capacity(0, 8, 8, 8);
    }

    #[test]
    fn a_reserved_graph_is_the_graph_it_would_have_grown_into() {
        let fill = |mut g: TaskGraph| {
            let a = g.add_task(0, 0, 5, &[], &[]);
            let b = g.add_task(1, 0, 7, &[a], &[]);
            let spec = SpecDep {
                on: b,
                violated: true,
            };
            g.add_task(0, 1, 3, &[a], &[spec]);
            g
        };
        // Too little room is only a reserve, not a limit; the channels
        // recorded on the way are the same either way.
        for (tasks, deps, specs) in [(3, 2, 1), (0, 0, 0), (1, 0, 0)] {
            let reserved = fill(TaskGraph::with_capacity(2, tasks, deps, specs));
            assert_eq!(reserved, fill(TaskGraph::new(2)));
            assert_eq!(
                reserved.channels(),
                [(StageId(0), StageId(1)), (StageId(1), StageId(0))]
            );
        }
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
