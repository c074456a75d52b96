//! Independent schedule validation.
//!
//! [`check_schedule`] re-verifies a traced simulation against every
//! constraint the machine model imposes, using none of the simulator's
//! own bookkeeping — a second implementation that keeps the scheduler
//! honest (and gives downstream users a way to validate hand-written
//! schedules).

use crate::diag::{Diagnostic, PlanShape};
use crate::plan::{ExecutionPlan, StageAssignment};
use crate::sim::{SimConfig, SimError, TaskPlacement};
use crate::task::TaskGraph;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// A constraint violated by a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// The plan's stage count does not match the graph's, so placements
    /// cannot even be checked against stage pools.
    PlanMismatch {
        /// Stages in the plan.
        plan: u8,
        /// Stages in the graph.
        graph: u8,
    },
    /// A parallel or round-robin stage has an empty core pool, so no
    /// placement in that stage can be legal.
    EmptyStagePool {
        /// The stage with no cores.
        stage: u8,
    },
    /// A placement references a task the graph does not contain.
    UnknownTask {
        /// The out-of-range task index.
        task: u32,
    },
    /// Not every task was placed exactly once.
    WrongTaskCount {
        /// Placements provided.
        got: usize,
        /// Tasks in the graph.
        expected: usize,
    },
    /// A task ran on a core its stage may not use.
    CoreOutsidePool {
        /// Offending task index.
        task: u32,
    },
    /// A task's span does not match its cost.
    WrongDuration {
        /// Offending task index.
        task: u32,
    },
    /// Two tasks overlapped on one core.
    CoreOverlap {
        /// The core.
        core: usize,
    },
    /// A dependence (or violated speculation) was not respected.
    DependenceViolated {
        /// Consumer task index.
        task: u32,
        /// Producer task index.
        dep: u32,
    },
    /// A serial stage executed out of iteration order.
    SerialOrderBroken {
        /// The stage.
        stage: u8,
    },
    /// A producer overran its output queue's capacity.
    QueueOverrun {
        /// Producer stage.
        producer: u8,
        /// Consumer stage.
        consumer: u8,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::PlanMismatch { plan, graph } => {
                write!(f, "plan has {plan} stages but the graph has {graph}")
            }
            ScheduleViolation::EmptyStagePool { stage } => {
                write!(f, "stage {stage} has an empty core pool")
            }
            ScheduleViolation::UnknownTask { task } => {
                write!(f, "placement references unknown task {task}")
            }
            ScheduleViolation::WrongTaskCount { got, expected } => {
                write!(
                    f,
                    "schedule places {got} tasks but the graph has {expected}"
                )
            }
            ScheduleViolation::CoreOutsidePool { task } => {
                write!(f, "task {task} ran outside its stage's core pool")
            }
            ScheduleViolation::WrongDuration { task } => {
                write!(f, "task {task} span does not equal its cost")
            }
            ScheduleViolation::CoreOverlap { core } => {
                write!(f, "core {core} ran two tasks at once")
            }
            ScheduleViolation::DependenceViolated { task, dep } => {
                write!(f, "task {task} started before dependence {dep} arrived")
            }
            ScheduleViolation::SerialOrderBroken { stage } => {
                write!(f, "serial stage {stage} executed out of iteration order")
            }
            ScheduleViolation::QueueOverrun { producer, consumer } => {
                write!(
                    f,
                    "channel {producer}->{consumer} exceeded its queue capacity"
                )
            }
        }
    }
}

impl Error for ScheduleViolation {}

impl ScheduleViolation {
    /// The stable diagnostic code for this violation.
    pub fn code(&self) -> &'static str {
        match self {
            ScheduleViolation::PlanMismatch { .. } => "SPR010",
            ScheduleViolation::EmptyStagePool { .. } => "SPR011",
            ScheduleViolation::UnknownTask { .. } => "SPR012",
            ScheduleViolation::WrongTaskCount { .. } => "SPR013",
            ScheduleViolation::CoreOutsidePool { .. } => "SPR014",
            ScheduleViolation::WrongDuration { .. } => "SPR015",
            ScheduleViolation::CoreOverlap { .. } => "SPR016",
            ScheduleViolation::DependenceViolated { .. } => "SPR017",
            ScheduleViolation::SerialOrderBroken { .. } => "SPR018",
            ScheduleViolation::QueueOverrun { .. } => "SPR019",
        }
    }

    /// This violation as a deny-level [`Diagnostic`] (the shared type
    /// the static lint also renders with).
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::deny(self.code(), self.to_string())
    }
}

/// Checks `placements` against every machine constraint; returns all
/// violations found (empty means the schedule is valid).
pub fn check_schedule(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &SimConfig,
    placements: &[TaskPlacement],
) -> Vec<ScheduleViolation> {
    let mut violations = Vec::new();
    // Shape first (shared with the simulator, the native executor, and
    // the static lint): placements cannot be checked against stage
    // pools the plan does not coherently define.
    match PlanShape::of(plan).check_against(graph.stage_count()) {
        Ok(()) => {}
        Err(SimError::EmptyStagePool { stage }) => {
            violations.push(ScheduleViolation::EmptyStagePool { stage });
            return violations;
        }
        Err(_) => {
            violations.push(ScheduleViolation::PlanMismatch {
                plan: plan.stage_count(),
                graph: graph.stage_count(),
            });
            return violations;
        }
    }
    if placements.len() != graph.len() {
        violations.push(ScheduleViolation::WrongTaskCount {
            got: placements.len(),
            expected: graph.len(),
        });
        return violations;
    }
    let mut slots: Vec<Option<&TaskPlacement>> = vec![None; graph.len()];
    for p in placements {
        match slots.get_mut(p.task.0 as usize) {
            Some(slot) => *slot = Some(p),
            None => {
                violations.push(ScheduleViolation::UnknownTask { task: p.task.0 });
                return violations;
            }
        }
    }
    // Resolving the options here (rather than indexing under an
    // `expect` later) keeps the checker panic-free on any input.
    let by_task: Vec<&TaskPlacement> = match slots.into_iter().collect() {
        Some(v) => v,
        None => {
            violations.push(ScheduleViolation::WrongTaskCount {
                got: placements.len(),
                expected: graph.len(),
            });
            return violations;
        }
    };
    let place = |i: u32| by_task[i as usize];

    // Per-task: duration, pool membership, dependences.
    for (idx, task) in graph.tasks().iter().enumerate() {
        let p = place(idx as u32);
        // `checked_sub`: a placement with end < start is malformed
        // input, not a reason to underflow-panic.
        if p.end.checked_sub(p.start) != Some(task.cost) {
            violations.push(ScheduleViolation::WrongDuration { task: idx as u32 });
        }
        let pool = plan.stage(task.stage.0).cores();
        if !pool.contains(&p.core) {
            violations.push(ScheduleViolation::CoreOutsidePool { task: idx as u32 });
        }
        let mut deps: Vec<u32> = graph.deps(task).iter().map(|d| d.0).collect();
        deps.extend(
            graph
                .spec_deps(task)
                .iter()
                .filter(|s| s.violated)
                .map(|s| s.on.0),
        );
        for d in deps {
            let dp = place(d);
            let lat = if dp.core == p.core {
                0
            } else {
                config.comm_latency
            };
            if p.start < dp.end + lat {
                violations.push(ScheduleViolation::DependenceViolated {
                    task: idx as u32,
                    dep: d,
                });
            }
        }
    }

    // Per-core: no overlap, reported in ascending core order.
    let mut by_core: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for p in placements {
        by_core.entry(p.core).or_default().push((p.start, p.end));
    }
    for (core, spans) in by_core.iter_mut() {
        spans.sort_unstable();
        if spans.windows(2).any(|w| w[0].1 > w[1].0) {
            violations.push(ScheduleViolation::CoreOverlap { core: *core });
        }
    }

    // Serial stages run in iteration order.
    for stage in 0..graph.stage_count() {
        if !matches!(plan.stage(stage), StageAssignment::Serial { .. }) {
            continue;
        }
        let mut last_end = 0u64;
        let mut ordered = true;
        for (idx, task) in graph.tasks().iter().enumerate() {
            if task.stage.0 != stage {
                continue;
            }
            let p = place(idx as u32);
            if p.start < last_end {
                ordered = false;
            }
            last_end = last_end.max(p.end);
        }
        if !ordered {
            violations.push(ScheduleViolation::SerialOrderBroken { stage });
        }
    }

    // Queue capacity: producer iteration i must not start before the
    // consumer of iteration i - capacity started (its slot frees then).
    let mut start_of: HashMap<(u8, u64), u64> = HashMap::new();
    for (idx, task) in graph.tasks().iter().enumerate() {
        start_of.insert((task.stage.0, task.iter), place(idx as u32).start);
    }
    for &(s, t) in graph.channels() {
        let k = config.queue_capacity as u64;
        let mut overrun = false;
        for task in graph.tasks() {
            if task.stage != s || task.iter < k {
                continue;
            }
            if let (Some(&p_start), Some(&c_start)) = (
                start_of.get(&(s.0, task.iter)),
                start_of.get(&(t.0, task.iter - k)),
            ) {
                if p_start < c_start {
                    overrun = true;
                }
            }
        }
        if overrun {
            violations.push(ScheduleViolation::QueueOverrun {
                producer: s.0,
                consumer: t.0,
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::task::{SpecDep, TaskId};

    fn graph() -> TaskGraph {
        let mut g = TaskGraph::new(3);
        let mut prev_a: Option<TaskId> = None;
        let mut prev_c: Option<TaskId> = None;
        for i in 0..40 {
            let deps_a: Vec<TaskId> = prev_a.into_iter().collect();
            let ta = g.add_task(0, i, 3, &deps_a, &[]);
            let spec: Vec<SpecDep> = prev_a
                .map(|_| SpecDep {
                    on: ta,
                    violated: false,
                })
                .into_iter()
                .collect();
            let _ = spec;
            let tb = g.add_task(1, i, 25 + (i % 7) * 4, &[ta], &[]);
            let deps_c: Vec<TaskId> = [Some(tb), prev_c].into_iter().flatten().collect();
            prev_c = Some(g.add_task(2, i, 2, &deps_c, &[]));
            prev_a = Some(ta);
        }
        g
    }

    #[test]
    fn simulator_schedules_pass_the_independent_checker() {
        let g = graph();
        for cores in [2usize, 4, 8] {
            for (lat, cap) in [(0u64, 32usize), (25, 4), (100, 1)] {
                let cfg = SimConfig {
                    cores,
                    comm_latency: lat,
                    queue_capacity: cap,
                    ..SimConfig::default()
                };
                let plan = ExecutionPlan::three_phase(cores);
                let placements = Simulator::new(cfg)
                    .run(&g, &plan)
                    .expect("valid plan")
                    .placements;
                let violations = check_schedule(&g, &plan, &cfg, &placements);
                assert!(
                    violations.is_empty(),
                    "cores={cores} lat={lat} cap={cap}: {violations:?}"
                );
            }
        }
    }

    #[test]
    fn checker_catches_a_tampered_schedule() {
        let g = graph();
        let cfg = SimConfig {
            cores: 4,
            comm_latency: 10,
            ..SimConfig::default()
        };
        let plan = ExecutionPlan::three_phase(4);
        let mut placements = Simulator::new(cfg)
            .run(&g, &plan)
            .expect("valid")
            .placements;
        // Move a phase-B task to time zero: dependences break.
        let victim = placements
            .iter()
            .position(|p| g.task(p.task).stage.0 == 1 && p.start > 0)
            .expect("a late B task exists");
        let dur = placements[victim].end - placements[victim].start;
        placements[victim].start = 0;
        placements[victim].end = dur;
        let violations = check_schedule(&g, &plan, &cfg, &placements);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::DependenceViolated { .. })));
    }

    #[test]
    fn checker_catches_wrong_core_pools() {
        let g = graph();
        let cfg = SimConfig {
            cores: 4,
            comm_latency: 0,
            ..SimConfig::default()
        };
        let plan = ExecutionPlan::three_phase(4);
        let mut placements = Simulator::new(cfg)
            .run(&g, &plan)
            .expect("valid")
            .placements;
        // Put a phase-A task on a phase-B core.
        let victim = placements
            .iter()
            .position(|p| g.task(p.task).stage.0 == 0)
            .expect("a phase-A task exists");
        placements[victim].core = 2;
        let violations = check_schedule(&g, &plan, &cfg, &placements);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::CoreOutsidePool { .. })));
    }

    #[test]
    fn checker_catches_missing_tasks() {
        let g = graph();
        let cfg = SimConfig {
            cores: 4,
            ..SimConfig::default()
        };
        let plan = ExecutionPlan::three_phase(4);
        let mut placements = Simulator::new(cfg)
            .run(&g, &plan)
            .expect("valid")
            .placements;
        placements.pop();
        let violations = check_schedule(&g, &plan, &cfg, &placements);
        assert!(matches!(
            violations[0],
            ScheduleViolation::WrongTaskCount { .. }
        ));
    }

    #[test]
    fn overlapped_cores_are_reported_in_ascending_order() {
        // Four independent tasks, two stacked on each core at cycle 0.
        let mut g = TaskGraph::new(1);
        for i in 0..4 {
            g.add_task(0, i, 5, &[], &[]);
        }
        let placements: Vec<TaskPlacement> = (0..4u32)
            .map(|i| TaskPlacement {
                task: TaskId(i),
                core: (i / 2) as usize,
                start: 0,
                end: 5,
            })
            .collect();
        let plan = ExecutionPlan::tls(2);
        let cfg = SimConfig::with_cores(2);
        // Every call builds its own map, and a hash map draws fresh keys
        // each time: an order that depends on them shows within a few
        // calls.
        for _ in 0..32 {
            assert_eq!(
                check_schedule(&g, &plan, &cfg, &placements),
                vec![
                    ScheduleViolation::CoreOverlap { core: 0 },
                    ScheduleViolation::CoreOverlap { core: 1 },
                ]
            );
        }
    }

    #[test]
    fn violation_messages_are_prose() {
        let v = ScheduleViolation::CoreOverlap { core: 3 };
        assert!(v.to_string().contains("core 3"));
    }

    #[test]
    fn violations_lower_to_shared_diagnostics() {
        let v = ScheduleViolation::PlanMismatch { plan: 1, graph: 3 };
        let d = v.to_diagnostic();
        assert_eq!(d.code(), "SPR010");
        assert!(d.is_deny());
        assert!(d.render().starts_with("error[SPR010]:"));
        // Every variant has a distinct stable code.
        let codes = [
            ScheduleViolation::PlanMismatch { plan: 0, graph: 0 }.code(),
            ScheduleViolation::EmptyStagePool { stage: 0 }.code(),
            ScheduleViolation::UnknownTask { task: 0 }.code(),
            ScheduleViolation::WrongTaskCount {
                got: 0,
                expected: 0,
            }
            .code(),
            ScheduleViolation::CoreOutsidePool { task: 0 }.code(),
            ScheduleViolation::WrongDuration { task: 0 }.code(),
            ScheduleViolation::CoreOverlap { core: 0 }.code(),
            ScheduleViolation::DependenceViolated { task: 0, dep: 0 }.code(),
            ScheduleViolation::SerialOrderBroken { stage: 0 }.code(),
            ScheduleViolation::QueueOverrun {
                producer: 0,
                consumer: 0,
            }
            .code(),
        ];
        let unique: std::collections::BTreeSet<_> = codes.iter().collect();
        assert_eq!(unique.len(), codes.len());
    }

    #[test]
    fn checker_rejects_empty_stage_pools_before_placement_checks() {
        let g = graph();
        let cfg = SimConfig::with_cores(4);
        let plan = ExecutionPlan::new(vec![
            StageAssignment::serial(0),
            StageAssignment::Parallel { cores: vec![] },
            StageAssignment::serial(1),
        ]);
        let violations = check_schedule(&g, &plan, &cfg, &[]);
        assert_eq!(
            violations,
            vec![ScheduleViolation::EmptyStagePool { stage: 1 }]
        );
    }

    #[test]
    fn checker_rejects_plan_graph_stage_mismatch_without_panicking() {
        let g = graph(); // 3 stages
        let cfg = SimConfig::with_cores(4);
        let plan = crate::plan::ExecutionPlan::tls(4); // 1 stage
        let violations = check_schedule(&g, &plan, &cfg, &[]);
        assert_eq!(
            violations,
            vec![ScheduleViolation::PlanMismatch { plan: 1, graph: 3 }]
        );
    }

    #[test]
    fn checker_reports_out_of_range_and_duplicate_tasks_without_panicking() {
        let g = graph();
        let cfg = SimConfig::with_cores(4);
        let plan = ExecutionPlan::three_phase(4);
        let mut placements = Simulator::new(cfg)
            .run(&g, &plan)
            .expect("valid")
            .placements;
        // Point one placement at a task beyond the graph.
        placements[0].task = TaskId(10_000);
        let violations = check_schedule(&g, &plan, &cfg, &placements);
        assert_eq!(
            violations,
            vec![ScheduleViolation::UnknownTask { task: 10_000 }]
        );
        // Duplicate an existing task instead: some slot is left empty.
        placements[0].task = placements[1].task;
        let violations = check_schedule(&g, &plan, &cfg, &placements);
        assert!(matches!(
            violations[0],
            ScheduleViolation::WrongTaskCount { .. }
        ));
    }

    #[test]
    fn checker_flags_inverted_spans_instead_of_underflowing() {
        let g = graph();
        let cfg = SimConfig::with_cores(4);
        let plan = ExecutionPlan::three_phase(4);
        let mut placements = Simulator::new(cfg)
            .run(&g, &plan)
            .expect("valid")
            .placements;
        // end < start: must report WrongDuration, not panic on u64
        // subtraction.
        let victim = placements
            .iter()
            .position(|p| p.start > 0)
            .expect("a late task exists");
        let (s, e) = (placements[victim].start, placements[victim].end);
        placements[victim].start = e;
        placements[victim].end = s;
        let violations = check_schedule(&g, &plan, &cfg, &placements);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::WrongDuration { .. })));
    }
}
