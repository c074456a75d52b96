//! The search space: candidate plans and the mutations that walk it.
//!
//! A [`Candidate`] is one point of the tuning space — every knob the
//! stack already exposes, bundled: which task graph runs (three-phase
//! DSWP pipeline vs the single-stage TLS racing plan), how wide the
//! replicated pool is, whether placement is dynamic least-loaded or
//! static round-robin, the stage-queue capacity, the speculation
//! governor posture, and which producer stages keep their speculated
//! dependences. Mutations move one axis at a time
//! ([`Candidate::mutate`]); every mutated candidate is gated through
//! the `seqpar-lint` plan-shape check before the evaluator spends
//! budget on it
//! ([`TuneInput::lint_candidate`](super::TuneInput::lint_candidate)).

use crate::lint::{check_plan_shape, LintReport, StagePlan};
use seqpar_runtime::{
    ConflictProfile, ExecutionPlan, GovernorConfig, SpecDep, StageAssignment, TaskGraph,
};

/// Which task graph a candidate executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// The paper's three-phase DSWP pipeline (serial A, replicated B,
    /// serial C).
    Dswp,
    /// The single-stage TLS plan: iterations race under versioned
    /// memory.
    Tls,
}

impl GraphKind {
    /// The artifact-schema string for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            GraphKind::Dswp => "dswp",
            GraphKind::Tls => "tls",
        }
    }

    /// Parses the artifact-schema string.
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no graph kind.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dswp" => Ok(GraphKind::Dswp),
            "tls" => Ok(GraphKind::Tls),
            other => Err(format!("unknown graph kind {other:?}")),
        }
    }
}

/// The speculation-governor axis of a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GovernorChoice {
    /// No governor: the raw executor races at full runahead.
    Off,
    /// Derive the knobs from the workload's static conflict profile at
    /// the candidate's replication width
    /// ([`GovernorConfig::preset_for`]).
    Preset,
    /// An explicit maximum speculation window, other knobs default.
    Window(u32),
}

impl GovernorChoice {
    /// Resolves the choice to a concrete configuration, given the
    /// loop's unscaled conflict profile and the candidate's replication
    /// width. `Off` resolves to `None`.
    pub fn resolve(
        self,
        profile: Option<&ConflictProfile>,
        replication: usize,
    ) -> Option<GovernorConfig> {
        match self {
            GovernorChoice::Off => None,
            GovernorChoice::Preset => Some(
                profile
                    .map(|p| GovernorConfig::preset_for(&p.scaled(replication)))
                    .unwrap_or_default(),
            ),
            GovernorChoice::Window(w) => Some(GovernorConfig::default().with_window(w)),
        }
    }

    /// The effective maximum window this choice starts from, for the
    /// evaluator's issue-throttle term. `None` means unthrottled.
    pub fn window_cap(self, profile: Option<&ConflictProfile>, replication: usize) -> Option<u32> {
        self.resolve(profile, replication).map(|g| g.window.max(1))
    }
}

/// The queue-capacity ladder mutations climb (entries per stage queue).
pub const QUEUE_LADDER: &[usize] = &[8, 16, 32, 64, 128, 256];

/// The explicit governor windows the governor axis cycles through.
pub const WINDOW_LADDER: &[u32] = &[1, 2, 4, 8, 16, 32, 64];

/// One point of the tuning space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Which task graph (and therefore plan shape) runs.
    pub kind: GraphKind,
    /// Workers in the replicated pool: the single TLS stage's width, or
    /// phase B's width for DSWP (total cores = `width + 2` there).
    pub width: usize,
    /// Static round-robin placement instead of dynamic least-loaded.
    pub round_robin: bool,
    /// Entries per stage input queue (simulated and native).
    pub queue_capacity: usize,
    /// Speculation governor posture.
    pub governor: GovernorChoice,
    /// Per-producer-stage speculation mask: bit `s` keeps the
    /// speculated dependences whose producer task is in stage `s`;
    /// a cleared bit converts them to synchronized dependences.
    pub spec_mask: u8,
}

/// The mutation axes of the space, one per knob family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Merge the pipeline to TLS or split back to DSWP (stage
    /// split/merge).
    Graph,
    /// Grow the replicated pool by one worker.
    WidthUp,
    /// Shrink the replicated pool by one worker.
    WidthDown,
    /// Flip dynamic least-loaded vs static round-robin placement.
    Placement,
    /// Double the stage-queue capacity (wraps down from the top rung).
    Queue,
    /// Cycle the governor posture (off → preset → explicit windows).
    Governor,
    /// Toggle one producer stage's speculation bit.
    Speculation,
}

/// Every axis, in the order the random walk draws from.
pub const AXES: &[Axis] = &[
    Axis::Graph,
    Axis::WidthUp,
    Axis::WidthDown,
    Axis::Placement,
    Axis::Queue,
    Axis::Governor,
    Axis::Speculation,
];

impl Candidate {
    /// The default (untuned) candidate for a `threads`-core budget: the
    /// preset-governed TLS plan at the full width — the baseline every
    /// search starts from and every native validation compares
    /// against.
    pub fn default_for(threads: usize) -> Self {
        Self {
            kind: GraphKind::Tls,
            width: threads.max(1),
            round_robin: false,
            queue_capacity: 32,
            governor: GovernorChoice::Preset,
            spec_mask: u8::MAX,
        }
    }

    /// The widest replicated pool a `threads`-core budget allows for
    /// this candidate's graph kind (DSWP spends two cores on the serial
    /// phases once the budget allows it).
    fn max_width(kind: GraphKind, threads: usize) -> usize {
        match kind {
            GraphKind::Tls => threads.max(1),
            GraphKind::Dswp => threads.saturating_sub(2).max(1),
        }
    }

    /// Materializes the candidate's execution plan. Serial stages stay
    /// single-core (the lint warns on anything else), the replicated
    /// pool takes `width` consecutive cores.
    pub fn plan(&self) -> ExecutionPlan {
        let pool = |cores: Vec<usize>| {
            if self.round_robin {
                StageAssignment::round_robin(cores)
            } else {
                StageAssignment::parallel(cores)
            }
        };
        match self.kind {
            GraphKind::Tls => ExecutionPlan::new(vec![pool((0..self.width.max(1)).collect())]),
            GraphKind::Dswp => ExecutionPlan::new(vec![
                StageAssignment::serial(0),
                pool((1..=self.width.max(1)).collect()),
                StageAssignment::serial(self.width.max(1) + 1),
            ]),
        }
    }

    /// The plan's structural fingerprint — the shape key top-K
    /// selection dedups on, and the stamp key artifacts are stored
    /// under once the plan passes the lint.
    pub fn shape_key(&self) -> u64 {
        self.plan().fingerprint()
    }

    /// Applies one mutation along `axis`, staying inside the
    /// `threads`-core budget. Returns `None` when the axis cannot move
    /// from the current point (already at a bound, or the budget is too
    /// small for the other graph kind) — the driver then redraws.
    ///
    /// `lane` picks among an axis's discrete options (the driver feeds
    /// it from the seeded RNG), so a given `(candidate, axis, lane)`
    /// triple is fully deterministic.
    pub fn mutate(&self, axis: Axis, lane: u64, threads: usize) -> Option<Self> {
        let mut next = *self;
        match axis {
            Axis::Graph => {
                next.kind = match self.kind {
                    GraphKind::Tls if threads >= 3 => GraphKind::Dswp,
                    GraphKind::Tls => return None,
                    GraphKind::Dswp => GraphKind::Tls,
                };
                next.width = next.width.min(Self::max_width(next.kind, threads));
            }
            Axis::WidthUp => {
                if self.width >= Self::max_width(self.kind, threads) {
                    return None;
                }
                next.width = self.width + 1;
            }
            Axis::WidthDown => {
                if self.width <= 1 {
                    return None;
                }
                next.width = self.width - 1;
            }
            Axis::Placement => next.round_robin = !self.round_robin,
            Axis::Queue => {
                let at = QUEUE_LADDER
                    .iter()
                    .position(|&q| q >= self.queue_capacity)
                    .unwrap_or(QUEUE_LADDER.len() - 1);
                next.queue_capacity = QUEUE_LADDER[(at + 1) % QUEUE_LADDER.len()];
            }
            Axis::Governor => {
                // The posture ring: Off, Preset, then the window ladder.
                let ring_len = 2 + WINDOW_LADDER.len() as u64;
                let at = match self.governor {
                    GovernorChoice::Off => 0,
                    GovernorChoice::Preset => 1,
                    GovernorChoice::Window(w) => {
                        2 + WINDOW_LADDER.iter().position(|&x| x == w).unwrap_or(0) as u64
                    }
                };
                // Jump by a lane-derived non-zero stride so successive
                // draws explore the ring instead of oscillating.
                let to = (at + 1 + lane % (ring_len - 1)) % ring_len;
                next.governor = match to {
                    0 => GovernorChoice::Off,
                    1 => GovernorChoice::Preset,
                    i => GovernorChoice::Window(WINDOW_LADDER[(i - 2) as usize]),
                };
            }
            Axis::Speculation => {
                let stages = match self.kind {
                    GraphKind::Tls => 1,
                    GraphKind::Dswp => 3,
                };
                next.spec_mask = self.spec_mask ^ (1 << (lane % stages));
            }
        }
        (next != *self).then_some(next)
    }
}

/// Everything the tuner needs about one workload, assembled by the
/// bench glue (the analysis crate cannot depend on the workloads crate,
/// so the graphs and the partition audit arrive prebuilt).
#[derive(Clone, Debug)]
pub struct TuneInput {
    /// Display name (SPEC id) for artifacts and logs.
    pub workload: String,
    /// The three-phase DSWP task graph of the recorded trace.
    pub dswp_graph: TaskGraph,
    /// The single-stage TLS task graph of the same trace.
    pub tls_graph: TaskGraph,
    /// The partitioner's three-phase stage view, for shape-checking
    /// DSWP candidates.
    pub pipeline_stages: StagePlan,
    /// The collapsed single-replicated-stage view, for shape-checking
    /// TLS candidates.
    pub tls_stages: StagePlan,
    /// The partition-level `seqpar-lint` findings, computed once and
    /// merged into every candidate's report.
    pub partition_report: LintReport,
    /// The loop's static conflict profile at replication 1, if the
    /// audit pass produced one.
    pub conflict_profile: Option<ConflictProfile>,
}

impl TuneInput {
    /// The task graph a candidate of `kind` executes, with its
    /// speculation mask applied: speculated dependences whose producer
    /// stage bit is cleared become synchronized dependences (the
    /// stage-split/merge and per-dependence speculation axes both
    /// reduce to graph rewrites).
    pub fn graph_for(&self, kind: GraphKind, spec_mask: u8) -> TaskGraph {
        let graph = match kind {
            GraphKind::Dswp => &self.dswp_graph,
            GraphKind::Tls => &self.tls_graph,
        };
        if spec_mask == u8::MAX {
            return graph.clone();
        }
        let mut out = TaskGraph::new(graph.stage_count());
        for task in graph.tasks() {
            let mut deps: Vec<_> = graph.deps(task).to_vec();
            let mut specs: Vec<SpecDep> = Vec::new();
            for s in graph.spec_deps(task) {
                let producer_stage = graph.task(s.on).stage.0;
                if spec_mask & (1 << producer_stage.min(7)) != 0 {
                    specs.push(*s);
                } else {
                    deps.push(s.on);
                }
            }
            out.add_task(task.stage.0, task.iter, task.cost, &deps, &specs);
        }
        out
    }

    /// Gates one candidate through the `seqpar-lint` soundness check:
    /// the stored partition findings merged with the plan-shape audit
    /// of the candidate's materialized plan against the matching stage
    /// view. A candidate is searchable only when the merged report is
    /// clean at deny level.
    pub fn lint_candidate(&self, candidate: &Candidate) -> LintReport {
        let plan = candidate.plan();
        let stages = match candidate.kind {
            GraphKind::Dswp => &self.pipeline_stages,
            GraphKind::Tls => &self.tls_stages,
        };
        let mut report = self.partition_report.clone();
        report.merge(check_plan_shape(stages, &plan));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::StageKind;

    fn tiny_input() -> TuneInput {
        let mut dswp = TaskGraph::new(3);
        let mut tls = TaskGraph::new(1);
        let mut prev_b = None;
        for i in 0..8u64 {
            let a = dswp.add_task(0, i, 2, &[], &[]);
            let spec: Vec<SpecDep> = prev_b
                .map(|on| {
                    vec![SpecDep {
                        on,
                        violated: i % 4 == 0,
                    }]
                })
                .unwrap_or_default();
            let b = dswp.add_task(1, i, 10, &[a], &spec);
            dswp.add_task(2, i, 1, &[b], &[]);
            prev_b = Some(b);

            let spec_tls: Vec<SpecDep> = if i > 0 {
                vec![SpecDep {
                    on: seqpar_runtime::TaskId(i as u32 - 1),
                    violated: i % 4 == 0,
                }]
            } else {
                Vec::new()
            };
            tls.add_task(0, i, 13, &[], &spec_tls);
        }
        TuneInput {
            workload: "test".to_string(),
            dswp_graph: dswp,
            tls_graph: tls,
            pipeline_stages: StagePlan::three_phase(vec![]),
            tls_stages: StagePlan::new(vec![], vec![StageKind::Replicated]),
            partition_report: LintReport::default(),
            conflict_profile: None,
        }
    }

    #[test]
    fn default_candidate_is_the_harness_baseline() {
        let c = Candidate::default_for(8);
        assert_eq!(c.kind, GraphKind::Tls);
        assert_eq!(c.plan(), seqpar_runtime::ExecutionPlan::tls(8));
        assert_eq!(c.governor, GovernorChoice::Preset);
        assert_eq!(c.spec_mask, u8::MAX);
    }

    #[test]
    fn mutations_respect_the_core_budget() {
        let c = Candidate::default_for(8);
        // Width cannot grow past the budget.
        assert!(c.mutate(Axis::WidthUp, 0, 8).is_none());
        let narrower = c.mutate(Axis::WidthDown, 0, 8).unwrap();
        assert_eq!(narrower.width, 7);
        // Graph merge/split keeps DSWP pools inside `threads - 2`.
        let dswp = c.mutate(Axis::Graph, 0, 8).unwrap();
        assert_eq!(dswp.kind, GraphKind::Dswp);
        assert!(dswp.width <= 6);
        assert!(dswp.plan().cores_required() <= 8);
        // A two-core budget cannot host the three-phase pipeline.
        assert!(Candidate::default_for(2)
            .mutate(Axis::Graph, 0, 2)
            .is_none());
    }

    #[test]
    fn every_axis_mutation_changes_the_candidate() {
        let c = Candidate::default_for(4);
        for &axis in AXES {
            for lane in 0..4 {
                if let Some(next) = c.mutate(axis, lane, 4) {
                    assert_ne!(next, c, "{axis:?} lane {lane} produced a no-op");
                }
            }
        }
    }

    #[test]
    fn spec_mask_rewrites_speculation_into_synchronization() {
        let input = tiny_input();
        let kept = input.graph_for(GraphKind::Dswp, u8::MAX);
        let stripped = input.graph_for(GraphKind::Dswp, 0b101); // clear stage-1 producers
        let spec_count =
            |g: &TaskGraph| -> usize { g.tasks().iter().map(|t| g.spec_deps(t).len()).sum() };
        assert!(spec_count(&kept) > 0);
        assert_eq!(spec_count(&stripped), 0, "B->B speculations synchronized");
        // Serial cycles (total work) are untouched by the rewrite.
        assert_eq!(kept.serial_cycles(), stripped.serial_cycles());
    }

    #[test]
    fn lint_gate_passes_matching_shapes_and_denies_mismatches() {
        let input = tiny_input();
        let tls = Candidate::default_for(4);
        assert!(input.lint_candidate(&tls).is_clean());
        let dswp = tls.mutate(Axis::Graph, 0, 4).unwrap();
        assert!(input.lint_candidate(&dswp).is_clean());
        // Force a mismatch: a DSWP-kind candidate whose plan is checked
        // against the three-stage view but materializes one stage.
        let mut bad = dswp;
        bad.kind = GraphKind::Tls; // plan() now emits one stage...
        let mut report = input.partition_report.clone();
        report.merge(check_plan_shape(&input.pipeline_stages, &bad.plan()));
        assert!(!report.is_clean(), "shape mismatch is a deny");
    }
}
