//! The search space: candidate plans and the mutations that walk it.
//!
//! A [`Candidate`] is one point of the tuning space — the four knobs
//! the native machine can tell apart, bundled: which task graph runs
//! (three-phase DSWP pipeline vs the single-stage TLS racing plan), how
//! wide the replicated pool is, whether placement is dynamic
//! least-loaded or static round-robin, and the stage-queue capacity.
//! Mutations move one axis at a time ([`Candidate::mutate`]), and each
//! axis has exactly one neighbour; every mutated candidate is gated
//! through the `seqpar-lint` plan-shape check before the evaluator
//! spends budget on it
//! ([`TuneInput::lint_candidate`](super::TuneInput::lint_candidate)).

use crate::lint::{check_plan_shape, LintReport, StagePlan};
use seqpar_runtime::{ConflictProfile, ExecutionPlan, StageAssignment, TaskGraph};

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

/// The queue-capacity ladder mutations climb (entries per stage queue).
pub const QUEUE_LADDER: &[usize] = &[8, 16, 32, 64, 128, 256];

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
}

/// Every axis, in the order the descent scores a point's neighbours.
pub const AXES: &[Axis] = &[
    Axis::Graph,
    Axis::WidthUp,
    Axis::WidthDown,
    Axis::Placement,
    Axis::Queue,
];

impl Candidate {
    /// The default (untuned) candidate for a `threads`-core budget: the
    /// TLS plan at the full width — the baseline every search starts
    /// from and every native validation compares against.
    pub fn default_for(threads: usize) -> Self {
        Self {
            kind: GraphKind::Tls,
            width: threads.max(1),
            round_robin: false,
            queue_capacity: 32,
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

    /// The candidate's stage assignments, the one construction both
    /// the searched plan ([`Candidate::plan`]) and the lint-stamped
    /// plan native validation mints are built from. Serial stages stay
    /// single-core (the lint warns on anything else), the replicated
    /// pool takes `width` consecutive cores.
    pub fn stage_assignments(&self) -> Vec<StageAssignment> {
        let width = self.width.max(1);
        let pool = |cores: Vec<usize>| {
            if self.round_robin {
                StageAssignment::round_robin(cores)
            } else {
                StageAssignment::parallel(cores)
            }
        };
        match self.kind {
            GraphKind::Tls => vec![pool((0..width).collect())],
            GraphKind::Dswp => vec![
                StageAssignment::serial(0),
                pool((1..=width).collect()),
                StageAssignment::serial(width + 1),
            ],
        }
    }

    /// Materializes the candidate's execution plan.
    pub fn plan(&self) -> ExecutionPlan {
        ExecutionPlan::new(self.stage_assignments())
    }

    /// The plan's structural fingerprint — the shape key top-K
    /// selection dedups on, and the stamp key artifacts are stored
    /// under once the plan passes the lint.
    pub fn shape_key(&self) -> u64 {
        self.plan().fingerprint()
    }

    /// The candidate's one neighbour along `axis`, inside the
    /// `threads`-core budget. Returns `None` when the axis cannot move
    /// from the current point (already at a bound, or the budget is too
    /// small for the other graph kind).
    pub fn mutate(&self, axis: Axis, threads: usize) -> Option<Self> {
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
    /// The task graph a candidate of `kind` executes.
    pub fn graph_for(&self, kind: GraphKind) -> &TaskGraph {
        match kind {
            GraphKind::Dswp => &self.dswp_graph,
            GraphKind::Tls => &self.tls_graph,
        }
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
        for i in 0..8u64 {
            let a = dswp.add_task(0, i, 2, &[], &[]);
            let b = dswp.add_task(1, i, 10, &[a], &[]);
            dswp.add_task(2, i, 1, &[b], &[]);
            tls.add_task(0, i, 13, &[], &[]);
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
        assert_eq!((c.round_robin, c.queue_capacity), (false, 32));
    }

    #[test]
    fn mutations_respect_the_core_budget() {
        let c = Candidate::default_for(8);
        // Width cannot grow past the budget.
        assert!(c.mutate(Axis::WidthUp, 8).is_none());
        let narrower = c.mutate(Axis::WidthDown, 8).unwrap();
        assert_eq!(narrower.width, 7);
        // Graph merge/split keeps DSWP pools inside `threads - 2`.
        let dswp = c.mutate(Axis::Graph, 8).unwrap();
        assert_eq!(dswp.kind, GraphKind::Dswp);
        assert!(dswp.width <= 6);
        assert!(dswp.plan().cores_required() <= 8);
        // A two-core budget cannot host the three-phase pipeline.
        assert!(Candidate::default_for(2).mutate(Axis::Graph, 2).is_none());
    }

    #[test]
    fn every_axis_mutation_changes_the_candidate() {
        let c = Candidate::default_for(4);
        for &axis in AXES {
            if let Some(next) = c.mutate(axis, 4) {
                assert_ne!(next, c, "{axis:?} produced a no-op");
            }
        }
    }

    #[test]
    fn lint_gate_passes_matching_shapes_and_denies_mismatches() {
        let input = tiny_input();
        let tls = Candidate::default_for(4);
        assert!(input.lint_candidate(&tls).is_clean());
        let dswp = tls.mutate(Axis::Graph, 4).unwrap();
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
