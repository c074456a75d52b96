//! Reproducible plan artifacts: the JSON files `seqpar-tune` writes.
//!
//! An artifact is the search's answer: the simulator's cheapest row
//! (`TuneResult::best`), the same bytes whether or not the rows also ran
//! natively, so every process that tunes the same workload at the same
//! core budget writes the same file. It records the core budget, the
//! candidate's one knob, the plan's structural fingerprint (the same
//! FNV-1a value the lint stamp carries) and the simulator scores; no
//! wall clock enters it. Loading re-derives the candidate from the knobs
//! and refuses an artifact whose recorded fingerprint disagrees with the
//! rebuilt plan, so a hand-edited file cannot smuggle an unaudited
//! shape past the loader. `AUTOTUNING.md` documents the schema
//! field-by-field.
//!
//! Fingerprints are stored as hex *strings*: the reader parses numbers
//! as `f64`, which silently rounds integers above 2^53, and a rounded
//! fingerprint would fail the integrity check.

use super::search::TuneResult;
use super::space::Candidate;
use seqpar_runtime::json::{self, Value};
use std::fmt::Write as _;

/// Version tag of the artifact schema; bump on breaking field changes.
pub const ARTIFACT_SCHEMA_VERSION: u64 = 6;

/// One tuned plan, ready to persist or reload.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanArtifact {
    /// The workload the plan was tuned for.
    pub workload: String,
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
}

impl PlanArtifact {
    /// Builds the artifact for a finished search's winner, its cheapest
    /// row.
    pub fn from_result(result: &TuneResult) -> Self {
        let winner = &result.best;
        Self {
            workload: result.workload.clone(),
            threads: result.config.threads as u64,
            fingerprint: winner.candidate.shape_key(),
            candidate: winner.candidate,
            sim_cost: winner.score.cost,
            sim_makespan: winner.score.makespan,
            baseline_cost: result.baseline.score.cost,
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
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"fingerprint\": \"{:#x}\",", self.fingerprint);
        let _ = writeln!(out, "  \"width\": {},", c.width);
        let _ = writeln!(out, "  \"plan\": {},", c.plan().stages_to_json());
        let _ = writeln!(out, "  \"sim_cost\": {},", self.sim_cost);
        let _ = writeln!(out, "  \"sim_makespan\": {},", self.sim_makespan);
        let _ = writeln!(out, "  \"baseline_cost\": {}", self.baseline_cost);
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
        let threads = req_u64(obj_get(obj, "threads")?)?;
        let fingerprint = req_hex(obj_get(obj, "fingerprint")?)?;
        let width = req_u64(obj_get(obj, "width")?)? as usize;
        let sim_cost = req_f64(obj_get(obj, "sim_cost")?)?;
        let sim_makespan = req_u64(obj_get(obj, "sim_makespan")?)?;
        let baseline_cost = req_f64(obj_get(obj, "baseline_cost")?)?;

        let candidate = Candidate { width };
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

        Ok(Self {
            workload,
            threads,
            fingerprint,
            candidate,
            sim_cost,
            sim_makespan,
            baseline_cost,
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
        let config = TuneConfig {
            threads: 4,
            ..TuneConfig::default()
        };
        let result = tune(&input, &config).unwrap();
        let artifact = PlanArtifact::from_result(&result);
        let text = artifact.to_json();
        let back = PlanArtifact::from_json(&text).unwrap();
        assert_eq!(back, artifact);
        assert!(text.contains("\"schema_version\": 6,"), "{text}");
        assert!(!text.contains("native"), "{text}");
    }

    #[test]
    fn loader_refuses_tampered_fingerprints() {
        let input = input();
        let result = tune(&input, &TuneConfig::default()).unwrap();
        let artifact = PlanArtifact::from_result(&result);
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
        let artifact = PlanArtifact::from_result(&result);
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

    /// A three-phase plan, which schema 4 could carry while the tuner
    /// searched DSWP, is one the native executor refuses: a schema-4
    /// artifact is refused by its version, and a schema-6 one whose
    /// embedded plan was edited to three phases by its fingerprint.
    #[test]
    fn loader_refuses_a_dswp_artifact() {
        let result = tune(&input(), &TuneConfig::default()).unwrap();
        let artifact = PlanArtifact::from_result(&result);
        let text = artifact.to_json();
        let v4 = text.replace("\"schema_version\": 6,", "\"schema_version\": 4,");
        let v4 = v4.replace("\"width\":", "\"graph\": \"dswp\",\n  \"width\":");
        assert_eq!(
            PlanArtifact::from_json(&v4).unwrap_err(),
            "unknown artifact schema_version 4 (expected 6)"
        );
        let plan = artifact.candidate.plan().stages_to_json();
        let dswp = seqpar_runtime::ExecutionPlan::three_phase(8).stages_to_json();
        assert!(text.contains(&plan), "{text}");
        let err = PlanArtifact::from_json(&text.replace(&plan, &dswp)).unwrap_err();
        assert!(err.contains("embedded plan stages disagree"), "{err}");
    }

    /// Schema 5 carried a `native` block: the walls of whichever row won
    /// a wall-clock race, so two runs of one search could write two
    /// different plans. Such a file is refused by its version.
    #[test]
    fn loader_refuses_a_schema_5_artifact_with_a_native_block() {
        let result = tune(&input(), &TuneConfig::default()).unwrap();
        let text = PlanArtifact::from_result(&result).to_json();
        let baseline = format!("\"baseline_cost\": {}\n", result.baseline.score.cost);
        assert!(text.contains(&baseline), "{text}");
        let v5 = text
            .replace("\"schema_version\": 6,", "\"schema_version\": 5,")
            .replace(
                &baseline,
                &format!(
                    "{},\n  \"native\": {{\"tuned_wall_ms\": 1.25, \"default_wall_ms\": 2.5, \"speedup_vs_default\": 2.0}}\n",
                    baseline.trim_end()
                ),
            );
        assert!(seqpar_runtime::json::parse(&v5).is_ok(), "{v5}");
        assert_eq!(
            PlanArtifact::from_json(&v5).unwrap_err(),
            "unknown artifact schema_version 5 (expected 6)"
        );
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
            "unknown artifact schema_version 3 (expected 6)"
        );
        assert!(PlanArtifact::from_json("{}")
            .unwrap_err()
            .contains("missing field"));
    }
}
