//! Shared diagnostics: severities, rendered findings, and the
//! [`PlanShape`] check.
//!
//! Static tooling (the `seqpar-lint` checkers in `seqpar-analysis`) and
//! dynamic validation ([`crate::validate`], the simulator, the native
//! executor) all reject ill-formed plan/graph pairs. This module holds
//! the one vocabulary they share, so a finding renders the same way
//! whether it was produced before the first thread spawned or after a
//! traced run:
//!
//! * [`Severity`] — deny (must not run) vs warn (runs, but suspicious);
//! * [`Diagnostic`] — a stable code, a message, an optional origin, and
//!   notes, rendered rustc-style by [`Diagnostic::render`];
//! * [`PlanShape`] — the structural summary of an [`ExecutionPlan`]
//!   checked against a task graph's stage count. The simulator, the
//!   native executor, [`crate::validate::check_schedule`], and the
//!   static lint all call [`PlanShape::check_against`] instead of
//!   re-deriving the stage-count and empty-pool rules.

use crate::plan::{ExecutionPlan, StageAssignment};
use crate::sim::SimError;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not unsound: execution may proceed.
    Warn,
    /// Unsound: the plan must not be executed.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => f.write_str("warning"),
            Severity::Deny => f.write_str("error"),
        }
    }
}

/// One rendered finding with a stable code.
///
/// The code namespaces are `SP00xx` (static lint, deny), `SP01xx`
/// (static lint, warn), and `SPR0xx` (runtime validation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    code: &'static str,
    severity: Severity,
    message: String,
    origin: Option<String>,
    notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a deny-level diagnostic.
    pub fn deny(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Deny,
            message: message.into(),
            origin: None,
            notes: Vec::new(),
        }
    }

    /// Creates a warn-level diagnostic.
    pub fn warn(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warn,
            ..Self::deny(code, message)
        }
    }

    /// Attaches the program location the finding points at (builder
    /// style).
    #[must_use]
    pub fn with_origin(mut self, origin: impl Into<String>) -> Self {
        self.origin = Some(origin.into());
        self
    }

    /// Appends an explanatory note (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// The stable diagnostic code (e.g. `SP0001`).
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The severity.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Whether this diagnostic forbids execution.
    pub fn is_deny(&self) -> bool {
        self.severity == Severity::Deny
    }

    /// The one-line message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The location the finding points at, if known.
    pub fn origin(&self) -> Option<&str> {
        self.origin.as_deref()
    }

    /// The explanatory notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Renders the diagnostic rustc-style:
    ///
    /// ```text
    /// error[SP0001]: dependence flows backward from stage 2 to stage 0
    ///   --> deflate: node 4 = call compress ("compress")
    ///    = note: carried memory dependence, covered by no speculation
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(origin) = &self.origin {
            out.push_str("\n  --> ");
            out.push_str(origin);
        }
        for note in &self.notes {
            out.push_str("\n   = note: ");
            out.push_str(note);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The structural summary of an execution plan: stage count, empty
/// pools, and the cores it needs.
///
/// This is the single implementation of the "does this plan even fit
/// that graph" rules that the simulator, the native executor, the
/// schedule validator, and the static lint previously would each
/// restate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanShape {
    /// Number of stages in the plan.
    pub stages: u8,
    /// The first stage with an empty core pool, if any (possible via
    /// a raw enum literal; the constructors reject it).
    pub empty_stage: Option<u8>,
    /// Cores the plan requires (highest index + 1).
    pub cores_required: usize,
    /// Per-stage flag: `true` when the stage's pool holds more than one
    /// core (a replicated stage).
    pub multi_core: Vec<bool>,
}

impl PlanShape {
    /// Summarizes `plan`.
    pub fn of(plan: &ExecutionPlan) -> Self {
        let multi_core = (0..plan.stage_count())
            .map(|s| match plan.stage(s) {
                StageAssignment::Serial { .. } => false,
                StageAssignment::Parallel { cores } | StageAssignment::RoundRobin { cores } => {
                    cores.len() > 1
                }
            })
            .collect();
        Self {
            stages: plan.stage_count(),
            empty_stage: plan.first_empty_stage(),
            cores_required: plan.cores_required(),
            multi_core,
        }
    }

    /// Checks the shape against a task graph (or partition) with
    /// `graph_stages` stages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyStagePool`] if any stage has an empty
    /// core pool, then [`SimError::StageMismatch`] if the stage counts
    /// disagree — the same order the executors report them in.
    pub fn check_against(&self, graph_stages: u8) -> Result<(), SimError> {
        if let Some(stage) = self.empty_stage {
            return Err(SimError::EmptyStagePool { stage });
        }
        if self.stages != graph_stages {
            return Err(SimError::StageMismatch {
                plan: self.stages,
                graph: graph_stages,
            });
        }
        Ok(())
    }
}

impl SimError {
    /// The stable diagnostic code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::NotEnoughCores { .. } => "SPR001",
            SimError::StageMismatch { .. } => "SPR002",
            SimError::TooManyChannels { .. } => "SPR003",
            SimError::EmptyStagePool { .. } => "SPR004",
        }
    }

    /// This error as a deny-level [`Diagnostic`].
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::deny(self.code(), self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rustc_style() {
        let d = Diagnostic::deny("SP0001", "dependence flows backward")
            .with_origin("deflate: node 4")
            .with_note("carried memory dependence");
        let r = d.render();
        assert!(r.starts_with("error[SP0001]: dependence flows backward"));
        assert!(r.contains("\n  --> deflate: node 4"));
        assert!(r.contains("\n   = note: carried memory dependence"));
        assert!(d.is_deny());
    }

    #[test]
    fn warnings_render_as_warnings() {
        let d = Diagnostic::warn("SP0101", "misspeculation rate is high");
        assert!(d.render().starts_with("warning[SP0101]:"));
        assert!(!d.is_deny());
        assert_eq!(d.severity(), Severity::Warn);
    }

    #[test]
    fn severity_orders_deny_above_warn() {
        assert!(Severity::Deny > Severity::Warn);
    }

    #[test]
    fn shape_accepts_matching_plan() {
        let shape = PlanShape::of(&ExecutionPlan::three_phase(8));
        assert_eq!(shape.stages, 3);
        assert_eq!(shape.empty_stage, None);
        assert_eq!(shape.cores_required, 8);
        assert_eq!(shape.multi_core, vec![false, true, false]);
        assert_eq!(shape.check_against(3), Ok(()));
    }

    #[test]
    fn shape_rejects_stage_mismatch() {
        let shape = PlanShape::of(&ExecutionPlan::tls(4));
        assert_eq!(
            shape.check_against(3),
            Err(SimError::StageMismatch { plan: 1, graph: 3 })
        );
    }

    #[test]
    fn shape_reports_empty_pools_first() {
        let plan = ExecutionPlan::new(vec![
            StageAssignment::serial(0),
            StageAssignment::Parallel { cores: vec![] },
        ]);
        let shape = PlanShape::of(&plan);
        // Even with a stage-count mismatch, the empty pool wins.
        assert_eq!(
            shape.check_against(3),
            Err(SimError::EmptyStagePool { stage: 1 })
        );
    }

    #[test]
    fn sim_errors_lower_to_diagnostics() {
        let e = SimError::StageMismatch { plan: 1, graph: 3 };
        let d = e.to_diagnostic();
        assert_eq!(d.code(), "SPR002");
        assert!(d.is_deny());
        assert!(d.message().contains("1 stages"));
    }
}
