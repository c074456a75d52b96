//! The performance simulator.

use crate::exec::{JobId, TimeUnit, Timeline, TraceEvent, TraceEventKind};
use crate::plan::{ExecutionPlan, StageAssignment};
use crate::task::{TaskGraph, TaskId};
use std::error::Error;
use std::fmt;

/// Machine model parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cores.
    pub cores: usize,
    /// Cycles to move a value between cores through a queue.
    pub comm_latency: u64,
    /// Entries per core-to-core queue (the paper models 32).
    pub queue_capacity: usize,
    /// Number of queues available (the paper models 256).
    pub num_queues: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cores: 4,
            comm_latency: 50,
            queue_capacity: 32,
            num_queues: 256,
        }
    }
}

impl SimConfig {
    /// A config with `cores` cores and default queue parameters.
    pub fn with_cores(cores: usize) -> Self {
        Self {
            cores,
            ..Self::default()
        }
    }
}

/// Why a simulation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The plan references more cores than the machine has.
    NotEnoughCores {
        /// Cores the plan needs.
        required: usize,
        /// Cores the machine has.
        available: usize,
    },
    /// The plan's stage count does not match the task graph's.
    StageMismatch {
        /// Stages in the plan.
        plan: u8,
        /// Stages in the graph.
        graph: u8,
    },
    /// The dependence structure needs more queues than the machine has.
    TooManyChannels {
        /// Queues required.
        required: usize,
        /// Queues available.
        available: usize,
    },
    /// A parallel or round-robin stage has an empty core pool (possible
    /// via a raw enum literal; the constructors reject it).
    EmptyStagePool {
        /// The stage with no cores.
        stage: u8,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotEnoughCores {
                required,
                available,
            } => {
                write!(
                    f,
                    "plan requires {required} cores but machine has {available}"
                )
            }
            SimError::StageMismatch { plan, graph } => {
                write!(f, "plan has {plan} stages but task graph has {graph}")
            }
            SimError::TooManyChannels {
                required,
                available,
            } => {
                write!(
                    f,
                    "dependences require {required} queues but machine has {available}"
                )
            }
            SimError::EmptyStagePool { stage } => {
                write!(f, "stage {stage} has an empty core pool")
            }
        }
    }
}

impl Error for SimError {}

/// Occupancy statistics for one stage-to-stage channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelStat {
    /// Producer stage.
    pub producer: u8,
    /// Consumer stage.
    pub consumer: u8,
    /// Maximum entries simultaneously in flight (enqueued at producer
    /// finish, dequeued at consumer start).
    pub max_occupancy: usize,
}

/// Where and when one task executed (see [`SimResult::placements`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskPlacement {
    /// The task.
    pub task: crate::task::TaskId,
    /// The core it ran on.
    pub core: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle.
    pub end: u64,
}

/// The outcome of one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Parallel execution time in cycles.
    pub makespan: u64,
    /// Single-threaded execution time (sum of task costs).
    pub serial_cycles: u64,
    /// Busy cycles per core.
    pub core_busy: Vec<u64>,
    /// Number of tasks executed: always the graph's length, since every
    /// task runs once. No crate reads it; the field stays only because
    /// `benchmark/src/plansim.rs` does.
    pub tasks_executed: usize,
    /// Cycles tasks were delayed waiting for queue space (backpressure).
    pub queue_stall_cycles: u64,
    /// Speculated dependences that manifested and serialized execution.
    pub violations: u64,
    /// Speculated dependences that were successfully broken.
    pub speculations_survived: u64,
    /// Per-channel peak queue occupancy.
    pub channel_stats: Vec<ChannelStat>,
    /// Each task's placement — which core ran it and when — in task
    /// order: the schedule itself, for validation
    /// ([`check_schedule`](crate::check_schedule)) and
    /// [`SimResult::timeline`], which the Gantt view draws.
    pub placements: Vec<TaskPlacement>,
}

impl SimResult {
    /// Speedup of the parallel execution over single-threaded execution.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.makespan as f64
        }
    }

    /// Average fraction of core time spent executing tasks.
    pub fn utilization(&self) -> f64 {
        let cores = self.core_busy.len().max(1) as u64;
        if self.makespan == 0 {
            0.0
        } else {
            let busy: u64 = self.core_busy.iter().sum();
            busy as f64 / (self.makespan * cores) as f64
        }
    }

    /// Renders the simulated schedule of `graph` (the graph this result
    /// was simulated from) in the native executor's trace-event schema: a
    /// [`Timeline`] with [`TimeUnit::Cycles`] timestamps, directly
    /// diffable against [`NativeReport::timeline`](crate::NativeReport::timeline)
    /// (the differential suite checks both agree on commit order).
    ///
    /// Each placement becomes a dispatch/complete pair on its core; the
    /// commit frontier advances in task order at the running maximum of
    /// finish cycles (the earliest cycle by which every earlier task
    /// has also finished — the in-order commit rule); tasks carrying
    /// speculated dependences get the same `SpecDecision` instants the
    /// native frontier emits. Queue push/pop events are absent: the
    /// simulator models queues analytically (backpressure delays
    /// starts), so there are no discrete queue transfers to record —
    /// [`Timeline::validate`] treats queue-event-free timelines as
    /// legal.
    ///
    /// The simulator serializes a *violated* speculation instead of
    /// replaying it, so its timeline shows one committing attempt per
    /// task (attempt 0) where the native timeline shows a squashed
    /// attempt 0 and a committing attempt 1; commit order — the
    /// sequential program order — is identical on both sides.
    ///
    /// The paper's model presumes versioned-memory hardware, so the
    /// simulated timeline also carries the substrate's event twins:
    /// a `VersionOpen` at each task's dispatch, a `VersionReads` at its
    /// completion (one tracked read per speculated dependence, the
    /// surviving ones counted as eager forwards), a `VersionConflict`
    /// at the frontier for every manifested dependence, and a
    /// `VersionCommit` at every commit — the same four instants a
    /// native job with a substrate ([`JobSpec::mem`](crate::JobSpec::mem))
    /// records from real conflict detection.
    pub fn timeline(&self, graph: &TaskGraph) -> Timeline {
        let placements = &self.placements;
        let mut exec_events: Vec<TraceEvent> = Vec::with_capacity(placements.len() * 2);
        for p in placements {
            let task = graph.task(p.task);
            exec_events.push(TraceEvent {
                ts: p.start,
                job: JobId::SOLO,
                kind: TraceEventKind::Dispatch {
                    core: p.core,
                    stage: task.stage.0,
                    task: p.task.0,
                    attempt: 0,
                },
            });
            exec_events.push(TraceEvent {
                ts: p.start,
                job: JobId::SOLO,
                kind: TraceEventKind::VersionOpen {
                    stage: task.stage.0,
                    task: p.task.0,
                    attempt: 0,
                },
            });
            if !graph.spec_deps(task).is_empty() {
                // The modelled version tracks one read per speculated
                // dependence; the ones that did not manifest were
                // satisfied by eager forwarding.
                let survived = graph.spec_deps(task).iter().filter(|d| !d.violated).count() as u64;
                exec_events.push(TraceEvent {
                    ts: p.end,
                    job: JobId::SOLO,
                    kind: TraceEventKind::VersionReads {
                        stage: task.stage.0,
                        task: p.task.0,
                        attempt: 0,
                        reads: graph.spec_deps(task).len() as u64,
                        forwards: survived,
                    },
                });
            }
            exec_events.push(TraceEvent {
                ts: p.end,
                job: JobId::SOLO,
                kind: TraceEventKind::Complete {
                    core: p.core,
                    stage: task.stage.0,
                    task: p.task.0,
                    attempt: 0,
                    panicked: false,
                    stalled: false,
                },
            });
        }
        // Frontier events, in task order: task i commits once it and
        // every earlier task have finished.
        let mut frontier_events: Vec<TraceEvent> = Vec::with_capacity(placements.len());
        let mut frontier = 0u64;
        for (idx, p) in placements.iter().enumerate() {
            frontier = frontier.max(p.end);
            let task = graph.task(TaskId(idx as u32));
            if !graph.spec_deps(task).is_empty() {
                let violated = graph.spec_deps(task).iter().filter(|d| d.violated).count() as u32;
                frontier_events.push(TraceEvent {
                    ts: frontier,
                    job: JobId::SOLO,
                    kind: TraceEventKind::SpecDecision {
                        task: idx as u32,
                        violated,
                        survived: graph.spec_deps(task).len() as u32 - violated,
                    },
                });
                for dep in graph.spec_deps(task).iter().filter(|d| d.violated) {
                    frontier_events.push(TraceEvent {
                        ts: frontier,
                        job: JobId::SOLO,
                        kind: TraceEventKind::VersionConflict {
                            stage: task.stage.0,
                            task: idx as u32,
                            by: dep.on.0,
                        },
                    });
                }
            }
            frontier_events.push(TraceEvent {
                ts: frontier,
                job: JobId::SOLO,
                kind: TraceEventKind::VersionCommit {
                    stage: task.stage.0,
                    task: idx as u32,
                    // The analytic model carries no write counts; the
                    // twin records the commit instant, not a volume.
                    writes: 0,
                },
            });
            frontier_events.push(TraceEvent {
                ts: frontier,
                job: JobId::SOLO,
                kind: TraceEventKind::Commit {
                    task: idx as u32,
                    attempt: 0,
                },
            });
        }
        Timeline::stitch(
            TimeUnit::Cycles,
            graph.stage_count(),
            vec![exec_events, frontier_events],
        )
    }
}

/// `(iter, start, end)` of one scheduled task, in its stage's list.
type Span = (u64, u64, u64);

/// The span of iteration `iter` in `list` (ascending in `iter`), searched
/// from `*from`, which is left at the first span not before `iter`.
fn seek(list: &[Span], from: &mut usize, iter: u64) -> Option<Span> {
    while list.get(*from).is_some_and(|span| span.0 < iter) {
        *from += 1;
    }
    list.get(*from).copied().filter(|span| span.0 == iter)
}

/// The list-scheduling performance simulator.
///
/// Tasks are scheduled in `(iter, stage)` order. A task becomes ready when
/// its synchronized dependences — plus any *violated* speculated
/// dependences — have finished (cross-core edges pay
/// [`SimConfig::comm_latency`]) and its output queues have space; it then
/// runs on its stage's core (serial stages) or on the least-loaded core of
/// its stage's pool (parallel stages, matching the dynamic assignment of
/// paper §3.2).
///
/// The pass relies on the order [`TaskGraph::add_task`] enforces — strictly
/// ascending `(iter, stage)`: each stage's tasks arrive ascending in `iter`,
/// so the iteration a producer looks back at for queue space only moves
/// forward and one cursor per channel finds it, whatever gaps the numbering
/// has (DESIGN.md, "The simulator").
#[derive(Clone, Debug, Default)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given machine model.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// The machine model in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates `graph` under `plan`.
    ///
    /// # Errors
    ///
    /// See [`SimError`] for the validation failures.
    pub fn run(&self, graph: &TaskGraph, plan: &ExecutionPlan) -> Result<SimResult, SimError> {
        let shape = crate::diag::PlanShape::of(plan);
        shape.check_against(graph.stage_count())?;
        if shape.cores_required > self.config.cores {
            return Err(SimError::NotEnoughCores {
                required: shape.cores_required,
                available: self.config.cores,
            });
        }
        // One queue per (producer core, consumer stage) pair is the upper
        // bound the hardware must provide; we conservatively count
        // channel-pairs × max pool size.
        let channels = graph.channels();
        let queues_needed: usize = channels
            .iter()
            .map(|(s, t)| plan.stage(s.0).cores().len() * plan.stage(t.0).cores().len())
            .sum();
        if queues_needed > self.config.num_queues {
            return Err(SimError::TooManyChannels {
                required: queues_needed,
                available: self.config.num_queues,
            });
        }

        let n = graph.len();
        let mut stage_len = vec![0usize; graph.stage_count() as usize];
        for task in graph.tasks() {
            stage_len[task.stage.0 as usize] += 1;
        }
        // by_stage[s] = stage s's spans as scheduled, ascending in `iter`;
        // cursor[c] = how far channel c's look-backs have read its consumer's.
        let mut by_stage: Vec<_> = stage_len
            .iter()
            .map(|&l| Vec::<Span>::with_capacity(l))
            .collect();
        let mut cursor = vec![0usize; channels.len()];
        let lat = self.config.comm_latency;
        let mut core_avail = vec![0u64; self.config.cores];
        let mut core_busy = vec![0u64; self.config.cores];
        let mut queue_stall = 0u64;
        let mut violations = 0u64;
        let mut survived = 0u64;
        let mut placements: Vec<TaskPlacement> = Vec::with_capacity(n);

        for (idx, task) in graph.tasks().iter().enumerate() {
            // Pick the core.
            let core = match plan.stage(task.stage.0) {
                StageAssignment::Serial { core } => *core,
                StageAssignment::Parallel { cores } => {
                    // Least work enqueued = earliest available. The
                    // empty-pool case was rejected up front
                    // (`SimError::EmptyStagePool`), so the fallback arm
                    // is unreachable rather than a panic site.
                    cores
                        .iter()
                        .min_by_key(|c| core_avail[**c])
                        .copied()
                        .unwrap_or(0)
                }
                StageAssignment::RoundRobin { cores } => cores[(task.iter as usize) % cores.len()],
            };
            // Effective dependences: synchronized + violated speculative.
            let arrival = |d: TaskId| {
                let p = &placements[d.0 as usize];
                p.end + if p.core == core { 0 } else { lat }
            };
            let synchronized = graph.deps(task).iter().map(|&d| arrival(d));
            let mut dep_ready = synchronized.max().unwrap_or(0);
            for s in graph.spec_deps(task) {
                if s.violated {
                    violations += 1;
                    dep_ready = dep_ready.max(arrival(s.on));
                } else {
                    survived += 1;
                }
            }
            // Backpressure: the producer of iteration i cannot run ahead
            // of its consumers by more than the queue capacity.
            let mut queue_ready = 0u64;
            if let Some(target) = task.iter.checked_sub(self.config.queue_capacity as u64) {
                // Channels are a handful (`TaskGraph::channels` scans them
                // per dependence), so no per-stage index of them is kept.
                for (c, (s, t)) in channels.iter().enumerate() {
                    if *s == task.stage {
                        let slot = seek(&by_stage[t.0 as usize], &mut cursor[c], target);
                        queue_ready = queue_ready.max(slot.map_or(0, |span| span.1));
                    }
                }
            }
            let unconstrained = dep_ready.max(core_avail[core]);
            if queue_ready > unconstrained {
                queue_stall += queue_ready - unconstrained;
            }
            let start = unconstrained.max(queue_ready);
            let end = start + task.cost;
            core_avail[core] = end;
            core_busy[core] += task.cost;
            by_stage[task.stage.0 as usize].push((task.iter, start, end));
            placements.push(TaskPlacement {
                task: TaskId(idx as u32),
                core,
                start,
                end,
            });
        }

        // Post-hoc channel occupancy: an entry lives from the producer's
        // finish to the consumer's start, for every iteration both stages ran.
        let longest = stage_len.iter().copied().max().unwrap_or(0);
        let mut enqueues: Vec<u64> = Vec::with_capacity(longest);
        let mut dequeues: Vec<u64> = Vec::with_capacity(longest);
        let mut channel_stats = Vec::with_capacity(channels.len());
        for (s, t) in &channels {
            enqueues.clear();
            dequeues.clear();
            let mut from = 0;
            for &(iter, _, end) in &by_stage[s.0 as usize] {
                if let Some((_, start, _)) = seek(&by_stage[t.0 as usize], &mut from, iter) {
                    enqueues.push(end);
                    dequeues.push(start);
                }
            }
            // A serial stage's column is already in order.
            for column in [&mut enqueues, &mut dequeues] {
                if !column.is_sorted() {
                    column.sort_unstable();
                }
            }
            // Dequeues before enqueues at equal timestamps.
            let mut freed = 0;
            let mut max_occupancy = 0;
            for (filled, &at) in enqueues.iter().enumerate() {
                while dequeues.get(freed).is_some_and(|&d| d <= at) {
                    freed += 1;
                }
                max_occupancy = max_occupancy.max((filled + 1).saturating_sub(freed));
            }
            channel_stats.push(ChannelStat {
                producer: s.0,
                consumer: t.0,
                max_occupancy,
            });
        }

        Ok(SimResult {
            makespan: placements.iter().map(|p| p.end).max().unwrap_or(0),
            serial_cycles: graph.serial_cycles(),
            core_busy,
            tasks_executed: n,
            queue_stall_cycles: queue_stall,
            violations,
            speculations_survived: survived,
            channel_stats,
            placements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{SpecDep, TaskId};

    fn three_phase_graph(iters: u64, a: u64, b: u64, c: u64) -> TaskGraph {
        let mut g = TaskGraph::new(3);
        let mut prev_a: Option<TaskId> = None;
        let mut prev_c: Option<TaskId> = None;
        for i in 0..iters {
            let deps_a: Vec<TaskId> = prev_a.into_iter().collect();
            let ta = g.add_task(0, i, a, &deps_a, &[]);
            let tb = g.add_task(1, i, b, &[ta], &[]);
            let deps_c: Vec<TaskId> = [Some(tb), prev_c].into_iter().flatten().collect();
            let tc = g.add_task(2, i, c, &deps_c, &[]);
            prev_a = Some(ta);
            prev_c = Some(tc);
        }
        g
    }

    #[test]
    fn serial_machine_gets_no_speedup() {
        let g = three_phase_graph(50, 10, 100, 10);
        let plan = ExecutionPlan::three_phase(1);
        let sim = Simulator::new(SimConfig {
            cores: 1,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &plan).unwrap();
        assert_eq!(r.makespan, g.serial_cycles());
        assert!((r.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_stage_scales_with_cores() {
        let g = three_phase_graph(200, 1, 100, 1);
        let sim8 = Simulator::new(SimConfig {
            cores: 8,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let sim16 = Simulator::new(SimConfig {
            cores: 16,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r8 = sim8.run(&g, &ExecutionPlan::three_phase(8)).unwrap();
        let r16 = sim16.run(&g, &ExecutionPlan::three_phase(16)).unwrap();
        assert!(r8.speedup() > 4.0, "8-core speedup {}", r8.speedup());
        assert!(r16.speedup() > r8.speedup() * 1.5);
    }

    #[test]
    fn violated_speculation_serializes() {
        // TLS-style: every iteration speculates on the previous one.
        let make = |violated: bool| {
            let mut g = TaskGraph::new(1);
            let mut prev: Option<TaskId> = None;
            for i in 0..64 {
                let spec: Vec<SpecDep> = prev
                    .into_iter()
                    .map(|on| SpecDep { on, violated })
                    .collect();
                prev = Some(g.add_task(0, i, 100, &[], &spec));
            }
            g
        };
        let sim = Simulator::new(SimConfig {
            cores: 8,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let plan = ExecutionPlan::tls(8);
        let ok = sim.run(&make(false), &plan).unwrap();
        let bad = sim.run(&make(true), &plan).unwrap();
        assert!(
            ok.speedup() > 7.0,
            "clean speculation speedup {}",
            ok.speedup()
        );
        assert!(
            (bad.speedup() - 1.0).abs() < 0.05,
            "violated speedup {}",
            bad.speedup()
        );
        assert_eq!(bad.violations, 63);
        assert_eq!(ok.speculations_survived, 63);
    }

    #[test]
    fn queue_capacity_limits_runahead() {
        // Fast producer, slow consumer: the producer must stall once the
        // queue fills.
        let mut g = TaskGraph::new(2);
        for i in 0..100 {
            let p = g.add_task(0, i, 1, &[], &[]);
            g.add_task(1, i, 100, &[p], &[]);
        }
        let cfg = SimConfig {
            cores: 2,
            comm_latency: 0,
            queue_capacity: 4,
            ..SimConfig::default()
        };
        let sim = Simulator::new(cfg);
        let plan = ExecutionPlan::new(vec![StageAssignment::serial(0), StageAssignment::serial(1)]);
        let r = sim.run(&g, &plan).unwrap();
        assert!(r.queue_stall_cycles > 0);
        // With unbounded queues there would be no stall.
        let wide = SimConfig {
            queue_capacity: 1000,
            ..cfg
        };
        let r2 = Simulator::new(wide).run(&g, &plan).unwrap();
        assert_eq!(r2.queue_stall_cycles, 0);
        assert!(r2.makespan <= r.makespan);
    }

    /// A cost-1 producer on core 0 feeding a cost-100 consumer on core 1,
    /// zero latency: the producer stage runs at `iters`, the consumer
    /// stage at those of them `consumes` keeps. Returns the producers'
    /// starts and the whole result.
    fn look_back(
        iters: &[u64],
        consumes: impl Fn(u64) -> bool,
        cap: usize,
    ) -> (Vec<u64>, SimResult) {
        let mut g = TaskGraph::new(2);
        for &i in iters {
            let p = g.add_task(0, i, 1, &[], &[]);
            if consumes(i) {
                g.add_task(1, i, 100, &[p], &[]);
            }
        }
        let cfg = SimConfig {
            cores: 2,
            comm_latency: 0,
            queue_capacity: cap,
            ..SimConfig::default()
        };
        let plan = ExecutionPlan::new(vec![StageAssignment::serial(0), StageAssignment::serial(1)]);
        let r = Simulator::new(cfg).run(&g, &plan).unwrap();
        let produced = r.placements.iter().filter(|p| g.task(p.task).stage.0 == 0);
        (produced.map(|p| p.start).collect(), r)
    }

    #[test]
    fn look_back_lands_only_on_an_exact_iteration() {
        // Capacity at or past the iteration count: no target exists.
        let (starts, r) = look_back(&[0, 1, 2, 3], |_| true, 4);
        assert_eq!(starts, [0, 1, 2, 3]);
        assert_eq!(r.queue_stall_cycles, 0);
        // Entries 1, 2, 3 wait for a consumer still busy with entry 0.
        assert_eq!(r.channel_stats[0].max_occupancy, 3);
        // Gaps in the numbering: at capacity 1 only 6 finds its `iter - 1`
        // (5, whose consumer starts at 101); 5 and 200 look back at
        // iterations nobody ran.
        let (starts, r) = look_back(&[0, 5, 6, 200], |_| true, 1);
        assert_eq!(starts, [0, 1, 101, 102]);
        assert_eq!(r.queue_stall_cycles, 99);
        assert_eq!(r.channel_stats[0].max_occupancy, 2);
        // A consumer stage that skips odd iterations: 2 and 4 look back
        // at none of its tasks, 3 and 5 at the ones that started at 101
        // and 201.
        let (starts, r) = look_back(&[0, 1, 2, 3, 4, 5], |i| i % 2 == 0, 1);
        assert_eq!(starts, [0, 1, 2, 101, 102, 201]);
        assert_eq!(r.queue_stall_cycles, 98 + 98);
    }

    #[test]
    fn queue_capacity_zero_looks_back_at_the_producers_own_iteration() {
        // Downstream, that consumer has not been scheduled yet: nothing
        // constrains, however slow the consumer.
        let (starts, r) = look_back(&[0, 1, 2, 3], |_| true, 0);
        assert_eq!(starts, [0, 1, 2, 3]);
        assert_eq!(r.queue_stall_cycles, 0);
        // A channel that points *backwards* (stage 1 feeds the next
        // iteration's stage 0) is the one place capacity 0 binds: stage
        // 0 of the same iteration has started, and that start is the
        // bound — the rule is "a task at exactly `iter - k`", not `k > 0`.
        let build = || {
            let mut g = TaskGraph::new(2);
            let mut fed: Option<TaskId> = None;
            for i in 0..3 {
                g.add_task(0, i, 10, fed.as_slice(), &[]);
                fed = Some(g.add_task(1, i, 1, &[], &[]));
            }
            g
        };
        let plan = ExecutionPlan::new(vec![StageAssignment::serial(0), StageAssignment::serial(1)]);
        let starts_at = |cap: usize| {
            let cfg = SimConfig {
                cores: 2,
                comm_latency: 0,
                queue_capacity: cap,
                ..SimConfig::default()
            };
            let r = Simulator::new(cfg).run(&build(), &plan).unwrap();
            let fed = r.placements.iter().skip(1).step_by(2);
            (
                fed.map(|p| p.start).collect::<Vec<_>>(),
                r.queue_stall_cycles,
            )
        };
        assert_eq!(starts_at(0), (vec![0, 10, 20], 18));
        assert_eq!(starts_at(1), (vec![0, 1, 10], 8));
    }

    #[test]
    fn occupancy_sorts_a_parallel_producers_finishes_and_dequeues_first_on_a_tie() {
        // Two producer cores: iteration 0 costs 100 and finishes last;
        // 1, 2, 3 cost 1 each and finish at 1, 2, 3 on the other core.
        let mut g = TaskGraph::new(2);
        for (i, cost) in [100, 1, 1, 1].into_iter().enumerate() {
            let p = g.add_task(0, i as u64, cost, &[], &[]);
            g.add_task(1, i as u64, 10, &[p], &[]);
        }
        let plan = ExecutionPlan::new(vec![
            StageAssignment::parallel(vec![0, 1]),
            StageAssignment::serial(2),
        ]);
        let cfg = SimConfig {
            cores: 3,
            comm_latency: 0,
            ..SimConfig::default()
        };
        let r = Simulator::new(cfg).run(&g, &plan).unwrap();
        let spans: Vec<_> = r.placements.iter().map(|p| (p.start, p.end)).collect();
        let producers: Vec<_> = spans.iter().step_by(2).copied().collect();
        let consumers: Vec<_> = spans.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(producers, [(0, 100), (0, 1), (1, 2), (2, 3)]);
        assert_eq!(consumers, [(100, 110), (110, 120), (120, 130), (130, 140)]);
        // Entries 1, 2, 3 are queued when entry 0 arrives at cycle 100,
        // the cycle its consumer takes it: the dequeue counts first, so
        // the peak is 3, not 4.
        assert_eq!(r.channel_stats[0].max_occupancy, 3);
    }

    #[test]
    fn comm_latency_slows_cross_core_pipelines() {
        let g = three_phase_graph(50, 10, 10, 10);
        let plan = ExecutionPlan::three_phase(4);
        let fast = Simulator::new(SimConfig {
            cores: 4,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let slow = Simulator::new(SimConfig {
            cores: 4,
            comm_latency: 500,
            ..SimConfig::default()
        });
        let rf = fast.run(&g, &plan).unwrap();
        let rs = slow.run(&g, &plan).unwrap();
        assert!(rs.makespan > rf.makespan);
    }

    #[test]
    fn plan_validation_errors() {
        let g = three_phase_graph(2, 1, 1, 1);
        let sim = Simulator::new(SimConfig::with_cores(2));
        assert_eq!(
            sim.run(&g, &ExecutionPlan::three_phase(8)),
            Err(SimError::NotEnoughCores {
                required: 8,
                available: 2
            })
        );
        assert_eq!(
            sim.run(&g, &ExecutionPlan::tls(2)),
            Err(SimError::StageMismatch { plan: 1, graph: 3 })
        );
        let tiny = Simulator::new(SimConfig {
            num_queues: 1,
            ..SimConfig::with_cores(3)
        });
        assert!(matches!(
            tiny.run(&g, &ExecutionPlan::three_phase(3)),
            Err(SimError::TooManyChannels { .. })
        ));
    }

    #[test]
    fn empty_stage_pool_is_an_error_not_a_panic() {
        // The constructors forbid empty pools, but a raw enum literal
        // can carry one; the simulator must reject it typed-ly.
        let g = three_phase_graph(2, 1, 1, 1);
        let raw = ExecutionPlan::new(vec![
            StageAssignment::serial(0),
            StageAssignment::Parallel { cores: vec![] },
            StageAssignment::serial(1),
        ]);
        let sim = Simulator::new(SimConfig::with_cores(4));
        assert_eq!(
            sim.run(&g, &raw),
            Err(SimError::EmptyStagePool { stage: 1 })
        );
        let rr = ExecutionPlan::new(vec![
            StageAssignment::serial(0),
            StageAssignment::RoundRobin { cores: vec![] },
            StageAssignment::serial(1),
        ]);
        assert_eq!(sim.run(&g, &rr), Err(SimError::EmptyStagePool { stage: 1 }));
    }

    #[test]
    fn utilization_and_core_busy_are_consistent() {
        let g = three_phase_graph(100, 5, 50, 5);
        let sim = Simulator::new(SimConfig {
            cores: 6,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &ExecutionPlan::three_phase(6)).unwrap();
        let busy: u64 = r.core_busy.iter().sum();
        assert_eq!(busy, g.serial_cycles());
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    #[test]
    fn channel_occupancy_respects_queue_capacity() {
        // Fast producer, slow consumer: occupancy should climb exactly to
        // the configured capacity and stop there.
        let mut g = TaskGraph::new(2);
        for i in 0..200 {
            let p = g.add_task(0, i, 1, &[], &[]);
            g.add_task(1, i, 50, &[p], &[]);
        }
        let cfg = SimConfig {
            cores: 2,
            comm_latency: 0,
            queue_capacity: 8,
            ..SimConfig::default()
        };
        let plan = ExecutionPlan::new(vec![StageAssignment::serial(0), StageAssignment::serial(1)]);
        let r = Simulator::new(cfg).run(&g, &plan).unwrap();
        assert_eq!(r.channel_stats.len(), 1);
        let ch = r.channel_stats[0];
        assert_eq!((ch.producer, ch.consumer), (0, 1));
        assert!(
            ch.max_occupancy <= 8 + 1,
            "occupancy {} exceeds capacity",
            ch.max_occupancy
        );
        assert!(
            ch.max_occupancy >= 7,
            "occupancy {} never filled",
            ch.max_occupancy
        );
    }

    #[test]
    fn traced_placements_are_consistent_with_the_schedule() {
        let g = three_phase_graph(50, 5, 40, 5);
        let sim = Simulator::new(SimConfig {
            cores: 6,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &ExecutionPlan::three_phase(6)).unwrap();
        let placements = &r.placements;
        assert_eq!(placements.len(), g.len());
        // End times bound the makespan; costs match; no core overlaps.
        assert_eq!(placements.iter().map(|p| p.end).max().unwrap(), r.makespan);
        for p in placements {
            assert_eq!(p.end - p.start, g.task(p.task).cost);
            assert!(p.core < 6);
        }
        let mut by_core: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 6];
        for p in placements {
            by_core[p.core].push((p.start, p.end));
        }
        for spans in &mut by_core {
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "core executes one task at a time");
            }
        }
    }

    #[test]
    fn timeline_emits_the_native_event_schema() {
        let g = three_phase_graph(30, 5, 40, 5);
        let sim = Simulator::new(SimConfig {
            cores: 4,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &ExecutionPlan::three_phase(4)).unwrap();
        let timeline = r.timeline(&g);
        timeline
            .validate()
            .expect("simulated traces are well-formed");
        assert_eq!(timeline.unit(), TimeUnit::Cycles);
        assert_eq!(timeline.stage_count(), 3);
        // One commit per task, in sequential order, ending at/after the
        // last finish cycle.
        let order = timeline.commit_order();
        assert_eq!(order.len(), g.len());
        assert!(order.iter().enumerate().all(|(i, t)| t.0 as usize == i));
        assert_eq!(timeline.span(), r.makespan);
        // Stage metrics recover the simulated service times exactly.
        let metrics = timeline.stage_metrics();
        assert_eq!(metrics[0].service.p50, 5);
        assert_eq!(metrics[1].service.p50, 40);
        assert_eq!(metrics[1].attempts, 30);
        assert!(metrics.iter().all(|m| m.queue_wait.is_empty()));
        // The export is loadable Chrome-trace JSON (cycles as µs).
        let json = timeline.to_chrome_json(&["A".into(), "B".into(), "C".into()]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn empty_graph_simulates_to_zero() {
        let g = TaskGraph::new(3);
        let sim = Simulator::new(SimConfig::with_cores(4));
        let r = sim.run(&g, &ExecutionPlan::three_phase(4)).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.speedup(), 1.0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn dynamic_assignment_beats_round_robin_on_variable_tasks() {
        let mut g = TaskGraph::new(3);
        let mut prev_a: Option<TaskId> = None;
        let mut prev_c: Option<TaskId> = None;
        let mut state = 99u64;
        for i in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Adversarial periodicity: the heavy task recurs at the pool
            // size, so round-robin pins every one to the same core while
            // least-loaded spreads them.
            let cost = if i % 6 == 0 { 2000 } else { 50 + state % 100 };
            let deps_a: Vec<TaskId> = prev_a.into_iter().collect();
            let ta = g.add_task(0, i, 1, &deps_a, &[]);
            let tb = g.add_task(1, i, cost, &[ta], &[]);
            let deps_c: Vec<TaskId> = [Some(tb), prev_c].into_iter().flatten().collect();
            prev_c = Some(g.add_task(2, i, 1, &deps_c, &[]));
            prev_a = Some(ta);
        }
        let sim = Simulator::new(SimConfig {
            cores: 8,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let dynamic = sim.run(&g, &ExecutionPlan::three_phase(8)).unwrap();
        let rr = sim.run(&g, &ExecutionPlan::three_phase_static(8)).unwrap();
        assert!(
            dynamic.makespan < rr.makespan,
            "least-loaded {} vs round-robin {}",
            dynamic.makespan,
            rr.makespan
        );
    }

    #[test]
    fn dynamic_assignment_balances_variable_tasks() {
        // Highly variable phase-B costs (like crafty's subtree searches):
        // dynamic least-loaded assignment should still fill cores well.
        let mut g = TaskGraph::new(3);
        let mut prev_a: Option<TaskId> = None;
        let mut prev_c: Option<TaskId> = None;
        let mut state = 12345u64;
        for i in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cost = 10 + state % 200;
            let deps_a: Vec<TaskId> = prev_a.into_iter().collect();
            let ta = g.add_task(0, i, 1, &deps_a, &[]);
            let tb = g.add_task(1, i, cost, &[ta], &[]);
            let deps_c: Vec<TaskId> = [Some(tb), prev_c].into_iter().flatten().collect();
            prev_c = Some(g.add_task(2, i, 1, &deps_c, &[]));
            prev_a = Some(ta);
        }
        let sim = Simulator::new(SimConfig {
            cores: 10,
            comm_latency: 0,
            ..SimConfig::default()
        });
        let r = sim.run(&g, &ExecutionPlan::three_phase(10)).unwrap();
        assert!(r.speedup() > 6.0, "speedup {}", r.speedup());
    }
}
