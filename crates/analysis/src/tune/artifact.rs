//! Reproducible plan artifacts: the JSON files `seqpar-tune` writes.
//!
//! A winning plan is only useful if a later session (or CI) can reload
//! it, re-check it, and re-run it. The artifact records everything the
//! search's outcome depends on — the budget, the core budget, every
//! candidate knob, and the plan's structural fingerprint (the
//! same FNV-1a value the lint stamp carries) — plus the simulator
//! scores and, when the bench glue validated natively, the measured
//! wall clocks. Loading re-derives the candidate from the knobs and
//! refuses an artifact whose recorded fingerprint disagrees with the
//! rebuilt plan, so a hand-edited file cannot smuggle an unaudited
//! shape past the loader. `AUTOTUNING.md` documents the schema
//! field-by-field.
//!
//! Fingerprints are stored as hex *strings*: the reader parses numbers
//! as `f64`, which silently rounds integers above 2^53, and a rounded
//! fingerprint would fail the integrity check.

use super::search::{ScoredCandidate, TuneResult};
use super::space::{Candidate, PlanKind};
use seqpar_runtime::json::{self, Value};
use std::fmt::Write as _;

/// Version tag of the artifact schema; bump on breaking field changes.
pub const ARTIFACT_SCHEMA_VERSION: u64 = 4;

/// Native validation figures attached by the bench glue after it
/// re-runs the winner and the untuned default on real threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NativeValidation {
    /// Median wall clock of the tuned plan, milliseconds.
    pub tuned_wall_ms: f64,
    /// Median wall clock of the untuned (full-width TLS) default,
    /// milliseconds.
    pub default_wall_ms: f64,
    /// `default_wall_ms / tuned_wall_ms` — above 1.0 means the tuned
    /// plan wins.
    pub speedup_vs_default: f64,
}

/// One tuned plan, ready to persist or reload.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanArtifact {
    /// The workload the plan was tuned for.
    pub workload: String,
    /// Evaluation budget of the search.
    pub budget: u64,
    /// Core budget the plan fits in.
    pub threads: u64,
    /// Structural fingerprint of the plan (equals the lint stamp once
    /// the plan is re-linted through `plan_custom`).
    pub fingerprint: u64,
    /// The winning candidate's knobs.
    pub candidate: Candidate,
    /// The winner's evaluator cost.
    pub sim_cost: f64,
    /// The winner's simulated makespan, virtual cycles.
    pub sim_makespan: u64,
    /// The untuned baseline's evaluator cost, for the recorded margin.
    pub baseline_cost: f64,
    /// Native validation figures, when the glue measured them.
    pub native: Option<NativeValidation>,
}

impl PlanArtifact {
    /// Builds the artifact for a finished search's winner.
    pub fn from_result(result: &TuneResult, winner: &ScoredCandidate) -> Self {
        Self {
            workload: result.workload.clone(),
            budget: result.config.budget as u64,
            threads: result.config.threads as u64,
            fingerprint: winner.candidate.shape_key(),
            candidate: winner.candidate,
            sim_cost: winner.score.cost,
            sim_makespan: winner.score.makespan,
            baseline_cost: result.baseline.score.cost,
            // The analysis crate never measures wall clocks; the bench
            // glue fills this in after native validation.
            native: None,
        }
    }

    /// Renders to the versioned JSON schema (stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let c = &self.candidate;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {ARTIFACT_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"budget\": {},", self.budget);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"fingerprint\": \"{:#x}\",", self.fingerprint);
        let _ = writeln!(out, "  \"graph\": \"{}\",", c.kind.as_str());
        let _ = writeln!(out, "  \"width\": {},", c.width);
        let _ = writeln!(out, "  \"plan\": {},", c.plan().stages_to_json());
        let _ = writeln!(out, "  \"sim_cost\": {},", self.sim_cost);
        let _ = writeln!(out, "  \"sim_makespan\": {},", self.sim_makespan);
        match &self.native {
            None => {
                let _ = writeln!(out, "  \"baseline_cost\": {},", self.baseline_cost);
                let _ = writeln!(out, "  \"native\": null");
            }
            Some(n) => {
                let _ = writeln!(out, "  \"baseline_cost\": {},", self.baseline_cost);
                let _ = writeln!(out, "  \"native\": {{");
                let _ = writeln!(out, "    \"tuned_wall_ms\": {},", n.tuned_wall_ms);
                let _ = writeln!(out, "    \"default_wall_ms\": {},", n.default_wall_ms);
                let _ = writeln!(out, "    \"speedup_vs_default\": {}", n.speedup_vs_default);
                let _ = writeln!(out, "  }}");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Parses and integrity-checks an artifact.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing or mistyped field, an unknown schema
    /// version, or a recorded fingerprint that disagrees with the plan
    /// rebuilt from the knobs all fail with a description.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| format!("artifact parse error: {e}"))?;
        let obj = root.as_object().ok_or("artifact root is not an object")?;

        let version = req_u64(obj_get(obj, "schema_version")?)?;
        if version != ARTIFACT_SCHEMA_VERSION {
            return Err(format!(
                "unknown artifact schema_version {version} (expected {ARTIFACT_SCHEMA_VERSION})"
            ));
        }
        let workload = req_str(obj_get(obj, "workload")?)?.to_string();
        let budget = req_u64(obj_get(obj, "budget")?)?;
        let threads = req_u64(obj_get(obj, "threads")?)?;
        let fingerprint = req_hex(obj_get(obj, "fingerprint")?)?;
        let kind = PlanKind::parse(req_str(obj_get(obj, "graph")?)?)?;
        let width = req_u64(obj_get(obj, "width")?)? as usize;
        let sim_cost = req_f64(obj_get(obj, "sim_cost")?)?;
        let sim_makespan = req_u64(obj_get(obj, "sim_makespan")?)?;
        let baseline_cost = req_f64(obj_get(obj, "baseline_cost")?)?;

        let candidate = Candidate { kind, width };
        if candidate.shape_key() != fingerprint {
            return Err(format!(
                "artifact fingerprint {fingerprint:#x} does not match the plan rebuilt from its knobs ({:#x}) — refusing a tampered artifact",
                candidate.shape_key()
            ));
        }
        // The embedded plan array must also round-trip to the same shape.
        let plan_value = obj_get(obj, "plan")?;
        let embedded = seqpar_runtime::ExecutionPlan::from_json_value(plan_value)
            .map_err(|e| format!("embedded plan invalid: {e}"))?;
        if embedded.fingerprint() != fingerprint {
            return Err("embedded plan stages disagree with the candidate knobs".to_string());
        }

        let native = match obj.get("native") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let n = v.as_object().ok_or("native is not an object")?;
                Some(NativeValidation {
                    tuned_wall_ms: req_f64(obj_get(n, "tuned_wall_ms")?)?,
                    default_wall_ms: req_f64(obj_get(n, "default_wall_ms")?)?,
                    speedup_vs_default: req_f64(obj_get(n, "speedup_vs_default")?)?,
                })
            }
        };

        Ok(Self {
            workload,
            budget,
            threads,
            fingerprint,
            candidate,
            sim_cost,
            sim_makespan,
            baseline_cost,
            native,
        })
    }
}

type Obj = std::collections::BTreeMap<String, Value>;

fn obj_get<'a>(obj: &'a Obj, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_str(v: &Value) -> Result<&str, String> {
    v.as_str()
        .ok_or_else(|| format!("expected string, got {v:?}"))
}

fn req_f64(v: &Value) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("expected number, got {v:?}"))
}

fn req_u64(v: &Value) -> Result<u64, String> {
    let f = req_f64(v)?;
    if f < 0.0 || f.fract() != 0.0 || f > 2f64.powi(53) {
        return Err(format!("expected a non-negative integer, got {f}"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(f as u64)
}

/// Parses a `"0x..."` hex string (u64 values too wide for the f64-based
/// number reader).
fn req_hex(v: &Value) -> Result<u64, String> {
    let s = req_str(v)?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected 0x-prefixed hex string, got {s:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex value {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::super::search::{tune, TuneConfig};
    use super::super::space::TuneInput;
    use super::*;
    use crate::lint::{LintReport, StageKind, StagePlan};
    use seqpar_runtime::TaskGraph;

    fn input() -> TuneInput {
        let mut dswp = TaskGraph::new(3);
        let mut tls = TaskGraph::new(1);
        for i in 0..16 {
            let a = dswp.add_task(0, i, 2, &[], &[]);
            let b = dswp.add_task(1, i, 12, &[a], &[]);
            dswp.add_task(2, i, 1, &[b], &[]);
            tls.add_task(0, i, 15, &[], &[]);
        }
        TuneInput {
            workload: "artifact-test".to_string(),
            dswp_graph: dswp,
            tls_graph: tls,
            pipeline_stages: StagePlan::three_phase(vec![]),
            tls_stages: StagePlan::new(vec![], vec![StageKind::Replicated]),
            partition_report: LintReport::default(),
            conflict_profile: None,
        }
    }

    #[test]
    fn artifact_round_trips() {
        let input = input();
        let result = tune(
            &input,
            &TuneConfig {
                budget: 16,
                threads: 4,
                top_k: 2,
            },
        )
        .unwrap();
        let mut artifact = PlanArtifact::from_result(&result, &result.best);
        artifact.native = Some(NativeValidation {
            tuned_wall_ms: 1.25,
            default_wall_ms: 2.5,
            speedup_vs_default: 2.0,
        });
        let text = artifact.to_json();
        let back = PlanArtifact::from_json(&text).unwrap();
        assert_eq!(back, artifact);
        assert!(text.contains("\"schema_version\": 4,"), "{text}");
    }

    #[test]
    fn loader_refuses_tampered_fingerprints() {
        let input = input();
        let result = tune(&input, &TuneConfig::default()).unwrap();
        let artifact = PlanArtifact::from_result(&result, &result.best);
        let text = artifact.to_json();
        let tampered = text.replace(
            &format!("{:#x}", artifact.fingerprint),
            "0xdeadbeefdeadbeef",
        );
        let err = PlanArtifact::from_json(&tampered).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn loader_refuses_inconsistent_knobs() {
        let input = input();
        let result = tune(&input, &TuneConfig::default()).unwrap();
        let artifact = PlanArtifact::from_result(&result, &result.best);
        // Edit the width by hand without re-fingerprinting.
        let text = artifact.to_json();
        let width = format!("\"width\": {},", artifact.candidate.width);
        assert!(text.contains(&width), "{text}");
        let edited = text.replace(
            &width,
            &format!("\"width\": {},", artifact.candidate.width + 1),
        );
        let err = PlanArtifact::from_json(&edited).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn loader_reports_schema_and_field_errors() {
        assert!(PlanArtifact::from_json("[]")
            .unwrap_err()
            .contains("not an object"));
        assert!(PlanArtifact::from_json("{\"schema_version\": 99}")
            .unwrap_err()
            .contains("unknown artifact schema_version"));
        // Version 3 (the schema that still carried a placement and a
        // queue capacity) is refused by version before any field is read.
        assert_eq!(
            PlanArtifact::from_json("{\"schema_version\": 3}").unwrap_err(),
            "unknown artifact schema_version 3 (expected 4)"
        );
        assert!(PlanArtifact::from_json("{}")
            .unwrap_err()
            .contains("missing field"));
    }
}
