//! The search space: every plan the tuner can tell apart and the native
//! executor runs.
//!
//! A [`Candidate`] is one point of the tuning space: how wide the
//! single-stage TLS plan's replicated pool is. The native executor runs
//! one stage, so the paper's three-phase DSWP pipeline is no candidate:
//! it stays the simulator's ([`PlanKind::Dswp`]).
//! [`Candidate::space`] lists every width a core budget allows, and the
//! search scores each of them once.

use crate::lint::{LintReport, StagePlan};
use seqpar_runtime::{ConflictProfile, ExecutionPlan, TaskGraph};

/// Which plan shape the simulator runs a loop under, and with it which
/// task graph.
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

/// One point of the tuning space: the TLS plan at one width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Workers in the single TLS stage's replicated pool.
    pub width: usize,
}

impl Candidate {
    /// The default (untuned) candidate for a `threads`-core budget: the
    /// TLS plan at the full width — the baseline every search scores
    /// first and every native validation compares against.
    pub fn default_for(threads: usize) -> Self {
        Self {
            width: threads.max(1),
        }
    }

    /// Every candidate a `threads`-core budget allows, in the order the
    /// search scores them: the baseline, then narrower pools down to
    /// one seat.
    pub fn space(threads: usize) -> Vec<Self> {
        (1..=threads.max(1))
            .rev()
            .map(|width| Self { width })
            .collect()
    }

    /// Materializes the candidate's execution plan: the searched plan,
    /// and the one whose stages native validation mints lint-stamped.
    pub fn plan(&self) -> ExecutionPlan {
        ExecutionPlan::tls(self.width)
    }

    /// The plan's structural fingerprint — the stamp key artifacts are
    /// stored under once the plan passes the lint.
    pub fn shape_key(&self) -> u64 {
        self.plan().fingerprint()
    }
}

/// Everything the tuner needs about one workload, assembled by the
/// bench glue (the analysis crate cannot depend on the workloads crate,
/// so the graph and the partition audit arrive prebuilt).
#[derive(Clone, Debug)]
pub struct TuneInput {
    /// Display name (SPEC id) for artifacts and logs.
    pub workload: String,
    /// The three-phase DSWP task graph of the recorded trace. The tuner
    /// reads none of it; the field stays only because
    /// `benchmark/src/plansim.rs` builds a `TuneInput` literal.
    pub dswp_graph: TaskGraph,
    /// The single-stage TLS task graph of the same trace: what every
    /// candidate runs.
    pub tls_graph: TaskGraph,
    /// The partitioner's three-phase stage view. Unread, and kept for
    /// the same literal as `dswp_graph`.
    pub pipeline_stages: StagePlan,
    /// The collapsed single-replicated-stage view. Unread, and kept for
    /// the same literal as `dswp_graph`.
    pub tls_stages: StagePlan,
    /// The partition-level `seqpar-lint` findings: a deny among them
    /// refuses the whole search.
    pub partition_report: LintReport,
    /// The loop's static conflict profile at replication 1, if the
    /// audit pass produced one.
    pub conflict_profile: Option<ConflictProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_candidate_is_the_harness_baseline() {
        let c = Candidate::default_for(8);
        assert_eq!(c.plan(), ExecutionPlan::tls(8));
        assert_eq!(Candidate::space(8)[0], c, "the baseline leads the space");
    }

    #[test]
    fn space_has_every_shape_within_the_core_budget() {
        for t in 1..=9usize {
            let space = Candidate::space(t);
            let shapes: std::collections::BTreeSet<u64> =
                space.iter().map(Candidate::shape_key).collect();
            assert_eq!(shapes.len(), t, "threads {t}");
            assert_eq!(space.len(), shapes.len(), "threads {t}");
            for c in &space {
                assert!(c.width >= 1);
                assert!(c.plan().cores_required() <= t, "{c:?} at {t}");
                // Every candidate is a plan the native executor runs.
                assert_eq!(c.plan().stage_count(), 1, "{c:?} at {t}");
            }
        }
    }
}
