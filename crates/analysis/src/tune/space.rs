//! The search space: every plan the tuner can tell apart.
//!
//! A [`Candidate`] is one point of the tuning space — the two knobs the
//! paper's compiler picks per loop (§3.2): which plan shape runs
//! (three-phase DSWP pipeline vs the single-stage TLS racing plan) and
//! how wide its replicated pool is. [`Candidate::space`] lists every
//! candidate a core budget allows; each is gated through the
//! `seqpar-lint` plan-shape check before the evaluator spends budget on
//! it ([`TuneInput::lint_candidate`]).

use crate::lint::{check_plan_shape, LintReport, StagePlan};
use seqpar_runtime::{ConflictProfile, ExecutionPlan, TaskGraph};

/// Which plan shape runs a loop, and with it which task graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// The paper's three-phase DSWP pipeline (§3.2): serial A,
    /// replicated B, serial C.
    Dswp,
    /// The single-stage TLS plan: iterations race under versioned
    /// memory.
    Tls,
}

impl PlanKind {
    /// The name artifacts and command lines use for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanKind::Dswp => "dswp",
            PlanKind::Tls => "tls",
        }
    }

    /// Parses [`PlanKind::as_str`]'s names.
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no plan kind.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dswp" => Ok(PlanKind::Dswp),
            "tls" => Ok(PlanKind::Tls),
            other => Err(format!("unknown plan kind {other:?}")),
        }
    }

    /// The plan of this kind on `cores` cores:
    /// [`ExecutionPlan::three_phase`] for DSWP, [`ExecutionPlan::tls`]
    /// for TLS.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn plan(self, cores: usize) -> ExecutionPlan {
        match self {
            PlanKind::Dswp => ExecutionPlan::three_phase(cores),
            PlanKind::Tls => ExecutionPlan::tls(cores),
        }
    }
}

/// One point of the tuning space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Which plan shape (and therefore task graph) runs.
    pub kind: PlanKind,
    /// Workers in the replicated pool: the single TLS stage's width, or
    /// phase B's width for DSWP (total cores = `width + 2` there).
    pub width: usize,
}

impl Candidate {
    /// The default (untuned) candidate for a `threads`-core budget: the
    /// TLS plan at the full width — the baseline every search scores
    /// first and every native validation compares against.
    pub fn default_for(threads: usize) -> Self {
        Self {
            kind: PlanKind::Tls,
            width: threads.max(1),
        }
    }

    /// Every candidate a `threads`-core budget allows, in the order the
    /// search scores them: the baseline, then narrower TLS pools, then —
    /// once the budget leaves room for the two serial phases, at three
    /// cores — DSWP from the widest phase B to the narrowest.
    pub fn space(threads: usize) -> Vec<Self> {
        let tls = (1..=threads.max(1)).rev().map(|width| Self {
            kind: PlanKind::Tls,
            width,
        });
        let dswp = (1..=threads.saturating_sub(2)).rev().map(|width| Self {
            kind: PlanKind::Dswp,
            width,
        });
        tls.chain(dswp).collect()
    }

    /// Materializes the candidate's execution plan: the searched plan,
    /// and the one whose stages native validation mints lint-stamped.
    pub fn plan(&self) -> ExecutionPlan {
        match self.kind {
            PlanKind::Tls => self.kind.plan(self.width),
            PlanKind::Dswp => self.kind.plan(self.width + 2),
        }
    }

    /// The plan's structural fingerprint — the stamp key artifacts are
    /// stored under once the plan passes the lint.
    pub fn shape_key(&self) -> u64 {
        self.plan().fingerprint()
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
    pub fn graph_for(&self, kind: PlanKind) -> &TaskGraph {
        match kind {
            PlanKind::Dswp => &self.dswp_graph,
            PlanKind::Tls => &self.tls_graph,
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
            PlanKind::Dswp => &self.pipeline_stages,
            PlanKind::Tls => &self.tls_stages,
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
        assert_eq!(c.kind, PlanKind::Tls);
        assert_eq!(c.plan(), ExecutionPlan::tls(8));
        assert_eq!(Candidate::space(8)[0], c, "the baseline leads the space");
    }

    #[test]
    fn space_has_every_shape_within_the_core_budget() {
        for t in 1..=9usize {
            let space = Candidate::space(t);
            let shapes: std::collections::BTreeSet<u64> =
                space.iter().map(Candidate::shape_key).collect();
            assert_eq!(shapes.len(), t + t.saturating_sub(2), "threads {t}");
            assert_eq!(space.len(), shapes.len(), "threads {t}");
            for c in &space {
                assert!(c.width >= 1);
                assert!(c.plan().cores_required() <= t, "{c:?} at {t}");
                // A budget below three cores cannot host the pipeline.
                assert!(t >= 3 || c.kind == PlanKind::Tls, "{c:?} at {t}");
            }
        }
    }

    #[test]
    fn lint_gate_passes_matching_shapes_and_denies_mismatches() {
        let input = tiny_input();
        for c in Candidate::space(4) {
            assert!(input.lint_candidate(&c).is_clean(), "{c:?}");
        }
        // Force a mismatch: a one-stage plan checked against the
        // three-stage view.
        let tls = Candidate::default_for(4);
        let mut report = input.partition_report.clone();
        report.merge(check_plan_shape(&input.pipeline_stages, &tls.plan()));
        assert!(!report.is_clean(), "shape mismatch is a deny");
    }
}
