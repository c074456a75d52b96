//! Schema-versioned performance snapshots — the `BENCH_<pr>.json`
//! trajectory (see `BENCHMARKS.md` for the schema and regeneration
//! instructions).
//!
//! A snapshot records, per workload, the sequential oracle's wall time
//! and one point per thread count of a conflict-driven native run on
//! [`ConcurrentVersionedMemory`](seqpar_specmem::ConcurrentVersionedMemory):
//! wall-clock milliseconds, speedup vs sequential, and the substrate
//! counters (eager forwards, conflict squashes, elided silent stores,
//! commits) plus the executor's squash count. Wall times vary run to
//! run; the schema and the counters' invariants (speedup finite and
//! positive, commits > 0) are what [`validate`] pins for CI.

use crate::json;
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecutionPlan, GovernorConfig, GovernorStats,
};
use seqpar_workloads::{workload_by_name, InputSize, Workload};

/// Version stamped into every snapshot; bump when fields change shape.
pub const SCHEMA_VERSION: u64 = 1;

/// How a measurement governs speculation.
#[derive(Clone, Copy, Debug)]
pub enum GovernorMode {
    /// Governor off: the raw executor (the pre-governor behavior).
    Off,
    /// One fixed configuration for every workload and thread count —
    /// e.g. [`GovernorConfig::default`]'s cold-start AIMD knobs.
    Fixed(GovernorConfig),
    /// Derive each point's governor from the workload's static
    /// conflict profile via [`GovernorConfig::preset_for`], skipping
    /// the cold-start probe the fixed AIMD knobs pay for.
    Preset,
}

impl GovernorMode {
    /// Resolves the mode to a concrete configuration for one workload
    /// at one thread count. `Preset` re-parallelizes the workload's IR
    /// model so the plan's [`ConflictProfile`] (already scaled to this
    /// replication width) seeds the governor; a workload whose plan
    /// carries no profile falls back to the default knobs rather than
    /// running ungoverned.
    ///
    /// [`ConflictProfile`]: seqpar_runtime::ConflictProfile
    fn resolve(self, w: &dyn Workload, threads: usize) -> Option<GovernorConfig> {
        match self {
            Self::Off => None,
            Self::Fixed(g) => Some(g),
            Self::Preset => {
                let model = w.ir_model();
                let preset = seqpar::Parallelizer::new(&model.program)
                    .profile(model.profile.clone())
                    .allow_unsound(true)
                    .parallelize_outermost(model.func)
                    .ok()
                    .and_then(|result| {
                        result
                            .plan(threads.max(3))
                            .conflict_profile()
                            .map(GovernorConfig::preset_for)
                    });
                Some(preset.unwrap_or_default())
            }
        }
    }
}

/// One thread count's measurement of one workload.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotPoint {
    /// Worker threads the TLS plan ran.
    pub threads: usize,
    /// Wall-clock milliseconds of the native run.
    pub wall_ms: f64,
    /// Native wall-clock speedup over the sequential oracle run.
    pub speedup: f64,
    /// Reads served by eager forwarding from uncommitted buffers.
    pub forwards: u64,
    /// Conflict violations detected by the substrate (== squashes on a
    /// fault-free run).
    pub conflicts: u64,
    /// Writes elided as silent stores (read-set bets).
    pub silent: u64,
    /// Versions committed by the substrate.
    pub commits: u64,
    /// Frontier squashes the executor performed.
    pub squashes: u64,
    /// The speculation governor's decision counters when the run was
    /// governed; `None` when it was off. Serialized as additive
    /// `gov_*` point fields so older snapshots keep validating.
    pub governor: Option<GovernorStats>,
}

/// The autotuned-plan measurement attached to a workload snapshot by a
/// `--tuned` run: the winning plan's native wall clock next to the
/// untuned default's, plus the search provenance (seed, budget,
/// fingerprint) that makes the number reproducible. Serialized as an
/// additive `tuned` object so older snapshots keep validating.
#[derive(Clone, Copy, Debug)]
pub struct TunedPoint {
    /// Core budget the tuner searched under.
    pub threads: usize,
    /// Median wall-clock milliseconds of the tuned plan.
    pub wall_ms: f64,
    /// Tuned wall-clock speedup over the sequential oracle.
    pub speedup: f64,
    /// Median wall-clock milliseconds of the untuned default plan,
    /// measured in the same interleaved rounds.
    pub default_wall_ms: f64,
    /// `default_wall_ms / wall_ms` — above 1.0 means tuning won.
    pub speedup_vs_default: f64,
    /// Structural fingerprint of the winning plan (its lint-stamp key).
    pub fingerprint: u64,
    /// Seed of the search that found it.
    pub seed: u64,
    /// Evaluation budget of the search.
    pub budget: u64,
    /// Whether the tuned plan strictly beat the default natively.
    pub beats_default: bool,
}

impl TunedPoint {
    /// Packages a validated tuning outcome for the snapshot, computing
    /// the sequential-relative speedup against the snapshot's own
    /// median oracle wall time.
    pub fn from_outcome(outcome: &crate::tune::TunedOutcome, sequential_wall_ms: f64) -> Self {
        let native = outcome
            .artifact
            .native
            .expect("validated outcomes carry native figures");
        Self {
            threads: outcome.result.config.threads,
            wall_ms: native.tuned_wall_ms,
            speedup: sequential_wall_ms / native.tuned_wall_ms,
            default_wall_ms: native.default_wall_ms,
            speedup_vs_default: native.speedup_vs_default,
            fingerprint: outcome.artifact.fingerprint,
            seed: outcome.result.config.seed,
            budget: outcome.result.config.budget as u64,
            beats_default: outcome.delta.beats_baseline(),
        }
    }
}

/// One workload's measurements across the thread sweep.
#[derive(Clone, Debug)]
pub struct WorkloadSnapshot {
    /// Benchmark SPEC id (e.g. `164.gzip`).
    pub spec_id: String,
    /// Wall-clock milliseconds of the sequential oracle run.
    pub sequential_wall_ms: f64,
    /// One point per requested thread count, ascending.
    pub points: Vec<SnapshotPoint>,
    /// The autotuned-plan measurement, when the snapshot was taken
    /// with `--tuned`. `None` keeps the document byte-compatible with
    /// pre-tuning snapshots.
    pub tuned: Option<TunedPoint>,
}

/// Interleaved repetitions per measurement (sequential and every thread
/// point). The recorded wall time is the per-quantity median, so a
/// scheduler hiccup or a lazy-page warm-up in any single run cannot
/// skew a speedup — on shared/virtualized hardware back-to-back runs of
/// the same binary routinely differ by double-digit percentages. Five
/// reps (up from three) keep the median stable even when the host
/// serializes an oversubscribed thread sweep bimodally.
const MEASURE_REPS: usize = 5;

/// Measures one workload: a sequential oracle run plus one
/// conflict-driven TLS run per thread count, each checked byte-identical
/// to the oracle before its numbers are recorded.
///
/// All quantities are measured `MEASURE_REPS` (3) times in interleaved
/// rounds (sequential, then each thread count, repeat) and reported at
/// their median wall time, so slow drift in machine load biases every
/// quantity equally instead of whichever was measured last. The
/// substrate counters come from the median-wall run of each point.
///
/// Every native run goes through a persistent [`Engine`] — one per
/// thread count, sized to exactly `t` pool workers so "t threads"
/// still bounds real parallelism — spawned **and warmed outside the
/// timed region**. Earlier harness revisions (snapshots `BENCH_6`
/// through `BENCH_9`) spawned a fresh scoped pool inside every timed
/// run, so those wall clocks include per-run thread-spawn cost; see
/// `BENCHMARKS.md` for how that skews cross-snapshot comparison.
///
/// # Panics
///
/// Panics if `id` names no workload or a run's committed output
/// diverges from the sequential oracle — a snapshot of a broken run
/// would poison the trajectory.
pub fn measure_workload(
    id: &str,
    size: InputSize,
    threads: &[usize],
    governor: GovernorMode,
) -> WorkloadSnapshot {
    let w = workload_by_name(id).unwrap_or_else(|| panic!("unknown workload {id}"));
    let job = w.versioned_job(size);
    // Resolve the governor once per thread count, outside the timed
    // region: `Preset` re-runs the static analysis, which must not be
    // billed to the native wall clock it exists to improve.
    let governors: Vec<Option<GovernorConfig>> = threads
        .iter()
        .map(|&t| governor.resolve(w.as_ref(), t))
        .collect();
    // One persistent engine per thread count, reused across all
    // repetitions, with the pool spawned before any clock starts —
    // cold-start thread-spawn cost never reaches a recorded wall time.
    let engines: Vec<Engine> = threads
        .iter()
        .map(|&t| {
            let e = Engine::new(EngineConfig::with_workers(t));
            e.warm();
            e
        })
        .collect();
    let mut seq_walls = Vec::with_capacity(MEASURE_REPS);
    let mut runs: Vec<Vec<SnapshotPoint>> = vec![Vec::with_capacity(MEASURE_REPS); threads.len()];
    let mut expected = None;
    for _rep in 0..MEASURE_REPS {
        let seq = job.sequential();
        seq_walls.push(seq.wall.as_secs_f64() * 1e3);
        let expected = expected.get_or_insert(seq.output);
        for (ti, &t) in threads.iter().enumerate() {
            let mut config = ExecConfig::default();
            if let Some(g) = governors[ti] {
                config = config.with_governor(g);
            }
            let report = engines[ti]
                .run(&job.job_spec(&ExecutionPlan::tls(t), config).0)
                .expect("plan matches graph");
            assert_eq!(
                &report.output, expected,
                "{id}: native output diverged from sequential at {t} threads"
            );
            let mem = report.mem.expect("versioned runs report memory stats");
            runs[ti].push(SnapshotPoint {
                threads: t,
                wall_ms: report.wall.as_secs_f64() * 1e3,
                speedup: 0.0, // filled in against the median sequential wall
                forwards: mem.forwards,
                conflicts: mem.violations,
                silent: mem.silent_stores,
                commits: mem.commits,
                squashes: report.squashes,
                governor: report.governor,
            });
        }
    }
    let median = |walls: &mut Vec<f64>| -> f64 {
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    };
    let seq_wall_ms = median(&mut seq_walls);
    let points = runs
        .into_iter()
        .map(|mut reps| {
            reps.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
            let mut point = reps.swap_remove(reps.len() / 2);
            point.speedup = seq_wall_ms / point.wall_ms;
            point
        })
        .collect();
    WorkloadSnapshot {
        spec_id: w.meta().spec_id.to_string(),
        sequential_wall_ms: seq_wall_ms,
        points,
        tuned: None,
    }
}

/// Runs the autotuner for one workload and attaches the natively
/// validated winner to its snapshot — the `--tuned` measurement. The
/// tuning search is deterministic in `config`; the attached wall
/// clocks are medians of interleaved repetitions, like every other
/// number in the snapshot.
///
/// # Panics
///
/// Panics if the workload's partition is unsound (nothing in the suite
/// is) or a tuned run breaks sequential semantics.
pub fn attach_tuned(
    snapshot: &mut WorkloadSnapshot,
    size: InputSize,
    config: &seqpar_analysis::tune::TuneConfig,
) {
    let w = workload_by_name(&snapshot.spec_id)
        .unwrap_or_else(|| panic!("unknown workload {}", snapshot.spec_id));
    let outcome = crate::tune::tune_workload(w.as_ref(), size, config)
        .unwrap_or_else(|e| panic!("{}: tuning failed: {e}", snapshot.spec_id));
    snapshot.tuned = Some(TunedPoint::from_outcome(
        &outcome,
        snapshot.sequential_wall_ms,
    ));
}

/// Serializes a snapshot set to the `BENCH_<pr>.json` document.
pub fn to_json(pr: u64, size: InputSize, snapshots: &[WorkloadSnapshot]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"pr\": {pr},\n"));
    out.push_str(&format!("  \"input_size\": \"{size}\",\n"));
    out.push_str("  \"workloads\": [\n");
    for (wi, w) in snapshots.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"spec_id\": \"{}\",\n", w.spec_id));
        out.push_str(&format!(
            "      \"sequential_wall_ms\": {:.4},\n",
            w.sequential_wall_ms
        ));
        out.push_str("      \"points\": [\n");
        for (pi, p) in w.points.iter().enumerate() {
            let gov = p.governor.map_or(String::new(), |g| {
                format!(
                    ", \"gov_shrinks\": {}, \"gov_grows\": {}, \"gov_degrades\": {}, \
                     \"gov_backoffs\": {}, \"gov_degraded_commits\": {}, \
                     \"gov_final_window\": {}",
                    g.shrinks, g.grows, g.degrades, g.backoffs, g.degraded_commits, g.final_window
                )
            });
            out.push_str(&format!(
                "        {{\"threads\": {}, \"wall_ms\": {:.4}, \"speedup\": {:.4}, \
                 \"forwards\": {}, \"conflicts\": {}, \"silent\": {}, \
                 \"commits\": {}, \"squashes\": {}{}}}{}\n",
                p.threads,
                p.wall_ms,
                p.speedup,
                p.forwards,
                p.conflicts,
                p.silent,
                p.commits,
                p.squashes,
                gov,
                if pi + 1 < w.points.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]");
        if let Some(t) = &w.tuned {
            // Fingerprint and seed are hex strings: the f64-based
            // reader would silently round u64 values above 2^53.
            out.push_str(&format!(
                ",\n      \"tuned\": {{\"threads\": {}, \"wall_ms\": {:.4}, \
                 \"speedup\": {:.4}, \"default_wall_ms\": {:.4}, \
                 \"speedup_vs_default\": {:.4}, \"fingerprint\": \"{:#x}\", \
                 \"seed\": \"{:#x}\", \"budget\": {}, \"beats_default\": {}}}",
                t.threads,
                t.wall_ms,
                t.speedup,
                t.default_wall_ms,
                t.speedup_vs_default,
                t.fingerprint,
                t.seed,
                t.budget,
                t.beats_default,
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "    }}{}\n",
            if wi + 1 < snapshots.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Per-point fields [`validate`] requires on every snapshot point.
const POINT_FIELDS: &[&str] = &[
    "threads",
    "wall_ms",
    "speedup",
    "forwards",
    "conflicts",
    "silent",
    "commits",
    "squashes",
];

/// Validates a `BENCH_<pr>.json` document: parses it, checks the schema
/// version and every required field, and rejects degenerate
/// measurements (non-finite or non-positive speedups, zero commits) —
/// the checks the CI `bench-snapshot` job gates on.
///
/// # Errors
///
/// Returns a description of the first defect found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc
        .get("schema_version")
        .and_then(json::Value::as_f64)
        .ok_or("missing schema_version")?;
    if schema != SCHEMA_VERSION as f64 {
        return Err(format!("schema_version {schema} != {SCHEMA_VERSION}"));
    }
    doc.get("pr")
        .and_then(json::Value::as_f64)
        .ok_or("missing pr")?;
    doc.get("input_size")
        .and_then(json::Value::as_str)
        .ok_or("missing input_size")?;
    let workloads = doc
        .get("workloads")
        .and_then(json::Value::as_array)
        .ok_or("missing workloads array")?;
    if workloads.is_empty() {
        return Err("workloads array is empty".to_string());
    }
    for w in workloads {
        let id = w
            .get("spec_id")
            .and_then(json::Value::as_str)
            .ok_or("workload missing spec_id")?;
        let seq = w
            .get("sequential_wall_ms")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{id}: missing sequential_wall_ms"))?;
        if !seq.is_finite() || seq <= 0.0 {
            return Err(format!("{id}: degenerate sequential_wall_ms {seq}"));
        }
        let points = w
            .get("points")
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("{id}: missing points array"))?;
        if points.is_empty() {
            return Err(format!("{id}: points array is empty"));
        }
        for p in points {
            for field in POINT_FIELDS {
                p.get(field)
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("{id}: point missing {field}"))?;
            }
            let speedup = p
                .get("speedup")
                .and_then(json::Value::as_f64)
                .expect("checked");
            if !speedup.is_finite() || speedup <= 0.0 {
                return Err(format!("{id}: degenerate speedup {speedup}"));
            }
            let commits = p
                .get("commits")
                .and_then(json::Value::as_f64)
                .expect("checked");
            if commits <= 0.0 {
                return Err(format!("{id}: substrate committed nothing"));
            }
        }
        if let Some(t) = w.get("tuned") {
            validate_tuned(id, t)?;
        }
    }
    Ok(())
}

/// Validates one workload's additive `tuned` object: every field
/// present and well-typed, wall clocks positive, the speedup ratio
/// consistent with the recorded walls, and the provenance fields
/// (fingerprint, seed) parseable as `0x` hex strings.
fn validate_tuned(id: &str, t: &json::Value) -> Result<(), String> {
    if matches!(t, json::Value::Null) {
        return Ok(());
    }
    for field in [
        "threads",
        "wall_ms",
        "speedup",
        "default_wall_ms",
        "speedup_vs_default",
        "budget",
    ] {
        let v = t
            .get(field)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{id}: tuned point missing {field}"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{id}: degenerate tuned {field} {v}"));
        }
    }
    for field in ["fingerprint", "seed"] {
        let s = t
            .get(field)
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("{id}: tuned point missing {field}"))?;
        let digits = s
            .strip_prefix("0x")
            .ok_or_else(|| format!("{id}: tuned {field} is not a 0x hex string: {s:?}"))?;
        u64::from_str_radix(digits, 16)
            .map_err(|e| format!("{id}: bad tuned {field} {s:?}: {e}"))?;
    }
    match t.get("beats_default") {
        Some(json::Value::Bool(_)) => {}
        other => {
            return Err(format!(
                "{id}: tuned beats_default must be a bool, got {other:?}"
            ))
        }
    }
    let wall = t
        .get("wall_ms")
        .and_then(json::Value::as_f64)
        .expect("checked");
    let default_wall = t
        .get("default_wall_ms")
        .and_then(json::Value::as_f64)
        .expect("checked");
    let ratio = t
        .get("speedup_vs_default")
        .and_then(json::Value::as_f64)
        .expect("checked");
    if wall > 0.0 && (ratio - default_wall / wall).abs() > 0.01 * ratio.max(1.0) {
        return Err(format!(
            "{id}: tuned speedup_vs_default {ratio} inconsistent with walls {default_wall}/{wall}"
        ));
    }
    Ok(())
}

/// Compares a freshly measured snapshot against a committed baseline:
/// for every workload present in both, the `threads`-point speedup may
/// not drop more than `tolerance` (a fraction, e.g. `0.10`) below the
/// baseline's. This is the CI perf gate — it catches a governor or
/// executor change that quietly trades one workload's throughput for
/// another's.
///
/// Workloads only in the baseline are an error (coverage must never
/// shrink); workloads only in the current snapshot are fine (coverage
/// may grow). Both documents must pass [`validate`] first.
///
/// # Errors
///
/// Returns a description of every regressing workload, joined with
/// `; `, or the first structural defect found.
pub fn compare_gate(
    baseline: &str,
    current: &str,
    threads: usize,
    tolerance: f64,
) -> Result<(), String> {
    let point_speedup = |doc: &json::Value, id: &str| -> Option<f64> {
        doc.get("workloads")
            .and_then(json::Value::as_array)?
            .iter()
            .find(|w| w.get("spec_id").and_then(json::Value::as_str) == Some(id))?
            .get("points")
            .and_then(json::Value::as_array)?
            .iter()
            .find(|p| p.get("threads").and_then(json::Value::as_f64) == Some(threads as f64))?
            .get("speedup")
            .and_then(json::Value::as_f64)
    };
    validate(baseline).map_err(|e| format!("baseline snapshot invalid: {e}"))?;
    validate(current).map_err(|e| format!("current snapshot invalid: {e}"))?;
    let base = json::parse(baseline).expect("validated");
    let cur = json::parse(current).expect("validated");
    let ids: Vec<String> = base
        .get("workloads")
        .and_then(json::Value::as_array)
        .expect("validated")
        .iter()
        .filter_map(|w| w.get("spec_id").and_then(json::Value::as_str))
        .map(str::to_string)
        .collect();
    let mut failures = Vec::new();
    for id in &ids {
        let Some(was) = point_speedup(&base, id) else {
            // The baseline has no point at this thread count — nothing
            // to gate for this workload.
            continue;
        };
        let Some(now) = point_speedup(&cur, id) else {
            failures.push(format!("{id}: missing from the current snapshot"));
            continue;
        };
        let floor = was * (1.0 - tolerance);
        if now < floor {
            failures.push(format!(
                "{id}: {threads}-thread speedup {now:.4} fell below {floor:.4} \
                 (baseline {was:.4} - {:.0}%)",
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WorkloadSnapshot> {
        vec![WorkloadSnapshot {
            spec_id: "164.gzip".to_string(),
            sequential_wall_ms: 12.5,
            points: vec![SnapshotPoint {
                threads: 4,
                wall_ms: 4.2,
                speedup: 2.97,
                forwards: 10,
                conflicts: 1,
                silent: 3,
                commits: 20,
                squashes: 1,
                governor: None,
            }],
            tuned: None,
        }]
    }

    fn sample_tuned() -> TunedPoint {
        TunedPoint {
            threads: 8,
            wall_ms: 3.1,
            speedup: 4.03,
            default_wall_ms: 4.2,
            speedup_vs_default: 4.2 / 3.1,
            fingerprint: 0xfedc_ba98_7654_3210,
            seed: 0x5eed,
            budget: 48,
            beats_default: true,
        }
    }

    #[test]
    fn roundtrip_serializes_and_validates() {
        let text = to_json(6, InputSize::Test, &sample());
        validate(&text).expect("well-formed snapshot");
        let doc = json::parse(&text).expect("parses");
        assert_eq!(
            doc.get("schema_version").and_then(json::Value::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("pr").and_then(json::Value::as_f64), Some(6.0));
        let w = &doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()[0];
        assert_eq!(
            w.get("spec_id").and_then(json::Value::as_str),
            Some("164.gzip")
        );
        let p = &w.get("points").and_then(json::Value::as_array).unwrap()[0];
        assert_eq!(p.get("forwards").and_then(json::Value::as_f64), Some(10.0));
    }

    #[test]
    fn validate_rejects_missing_fields_and_bad_speedups() {
        assert!(validate("{}").is_err(), "missing everything");
        assert!(validate("not json").is_err());

        let mut snaps = sample();
        snaps[0].points[0].speedup = 0.0;
        let zero = to_json(6, InputSize::Test, &snaps);
        assert!(
            validate(&zero).unwrap_err().contains("degenerate speedup"),
            "zero speedup must be rejected"
        );

        snaps[0].points[0].speedup = f64::NAN;
        let nan = to_json(6, InputSize::Test, &snaps);
        assert!(
            validate(&nan).is_err(),
            "NaN speedup must be rejected (unparsable or degenerate)"
        );

        let missing = to_json(6, InputSize::Test, &sample()).replace("\"squashes\"", "\"sqashes\"");
        assert!(
            validate(&missing).unwrap_err().contains("missing squashes"),
            "missing point field must be named in the error"
        );
    }

    #[test]
    fn measure_workload_produces_validating_snapshot() {
        let snap = measure_workload("164.gzip", InputSize::Test, &[1, 2], GovernorMode::Off);
        assert_eq!(snap.points.len(), 2);
        assert!(snap.points.iter().all(|p| p.governor.is_none()));
        let text = to_json(6, InputSize::Test, &[snap]);
        validate(&text).expect("measured snapshot validates");
    }

    #[test]
    fn governed_measurement_adds_additive_fields_and_still_validates() {
        let snap = measure_workload(
            "164.gzip",
            InputSize::Test,
            &[2],
            GovernorMode::Fixed(GovernorConfig::default()),
        );
        assert!(snap.points[0].governor.is_some(), "governed run has stats");
        let text = to_json(7, InputSize::Test, &[snap]);
        assert!(text.contains("gov_final_window"), "gov_* fields serialized");
        validate(&text).expect("governed snapshot validates under the old schema");
    }

    #[test]
    fn preset_measurement_is_governed_and_validates() {
        // vpr's plan carries a hot conflict profile, so `Preset` must
        // resolve to a real governed run (stats present) whose output
        // the harness already byte-checked against sequential.
        let snap = measure_workload("175.vpr", InputSize::Test, &[2], GovernorMode::Preset);
        assert!(
            snap.points[0].governor.is_some(),
            "preset-governed run has stats"
        );
        let text = to_json(8, InputSize::Test, &[snap]);
        validate(&text).expect("preset snapshot validates");
    }

    #[test]
    fn tuned_point_serializes_additively_and_validates() {
        let mut snaps = sample();
        snaps[0].tuned = Some(sample_tuned());
        let text = to_json(9, InputSize::Test, &snaps);
        validate(&text).expect("tuned snapshot validates");
        // Additive: the hex provenance fields survive the f64 reader.
        let doc = json::parse(&text).expect("parses");
        let w = &doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()[0];
        let t = w.get("tuned").expect("tuned object present");
        assert_eq!(
            t.get("fingerprint").and_then(json::Value::as_str),
            Some("0xfedcba9876543210")
        );
        assert_eq!(t.get("seed").and_then(json::Value::as_str), Some("0x5eed"));

        // A snapshot without the field still validates (old schema).
        validate(&to_json(9, InputSize::Test, &sample())).expect("untuned still validates");

        // Inconsistent walls vs ratio are rejected.
        let mut bad = sample();
        bad[0].tuned = Some(TunedPoint {
            speedup_vs_default: 9.9,
            ..sample_tuned()
        });
        let err = validate(&to_json(9, InputSize::Test, &bad)).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");

        // A mangled hex fingerprint is rejected.
        let mangled = text.replace("0xfedcba9876543210", "not-hex");
        let err = validate(&mangled).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn attach_tuned_fills_a_consistent_point() {
        let mut snap = measure_workload("164.gzip", InputSize::Test, &[2], GovernorMode::Preset);
        let config = seqpar_analysis::tune::TuneConfig {
            seed: 0xabc,
            budget: 10,
            threads: 2,
            top_k: 2,
        };
        attach_tuned(&mut snap, InputSize::Test, &config);
        let t = snap.tuned.expect("attached");
        assert_eq!(t.threads, 2);
        assert_eq!(t.seed, 0xabc);
        assert!(t.wall_ms > 0.0 && t.default_wall_ms > 0.0);
        assert!((t.speedup - snap.sequential_wall_ms / t.wall_ms).abs() < 1e-9);
        validate(&to_json(9, InputSize::Test, &[snap])).expect("validates with tuned point");
    }

    #[test]
    fn compare_gate_passes_within_tolerance_and_names_regressions() {
        let baseline = to_json(6, InputSize::Test, &sample());
        let mut snaps = sample();
        snaps[0].points[0].speedup = 2.97 * 0.95; // -5%: inside a 10% gate
        let ok = to_json(7, InputSize::Test, &snaps);
        compare_gate(&baseline, &ok, 4, 0.10).expect("5% drop passes a 10% gate");

        snaps[0].points[0].speedup = 2.97 * 0.85; // -15%: outside
        let bad = to_json(7, InputSize::Test, &snaps);
        let err = compare_gate(&baseline, &bad, 4, 0.10).unwrap_err();
        assert!(err.contains("164.gzip"), "regression names the workload");

        // A workload disappearing from the current snapshot fails too.
        let mut renamed = sample();
        renamed[0].spec_id = "999.other".to_string();
        let shrunk = to_json(7, InputSize::Test, &renamed);
        let err = compare_gate(&baseline, &shrunk, 4, 0.10).unwrap_err();
        assert!(err.contains("missing from the current snapshot"));

        // No baseline point at the gated thread count: nothing to gate.
        compare_gate(&baseline, &bad, 8, 0.10).expect("ungated thread count passes");
    }
}
