//! The metric catalogue: every name the benchmark may print, with its
//! unit, its direction and (end to end) the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` is this
//! catalogue written out (`--manifest` prints it; a test holds the
//! committed file to it).

use crate::ladder::{rung_names, RUNGS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const KERNELS: [&str; 11] = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "perlbmk", "gap", "vortex", "bzip2", "twolf",
];

pub const SPEC_GOVERNED: &str = "spec-governed";
pub const SPEC_PIPELINED: &str = "spec-pipelined";
pub const LADDER_PIPELINED: &str = "ladder-pipelined";
pub const PLAN_SIM: &str = "plan-sim";

/// The three workloads that run the native executor.
pub const NATIVE_WORKLOADS: [&str; 3] = [SPEC_GOVERNED, SPEC_PIPELINED, LADDER_PIPELINED];

/// How long one run measures when the driver passes `run_seconds`; the
/// per-workload round counts are sized for it.
pub const RUN_SECONDS: u64 = 15;

/// Workload name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        SPEC_GOVERNED,
        "11 SPEC kernels at train size under the default governor: the inline path every earlier snapshot measured",
    ),
    (
        SPEC_PIPELINED,
        "the same kernels ungoverned: every task crosses dispatch, channel, worker, commit and the versioned memory",
    ),
    (
        LADDER_PIPELINED,
        "seeded spin loops at four grains, clean and carried: handoff and commit cost alone, specmem nearly idle",
    ),
    (
        PLAN_SIM,
        "compile, lint, simulate and tune all 11 kernels: the native executor does none of the work",
    ),
];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
        bound: None,
    }
}

/// End-to-end metrics. Every workload reports every one of them, so each
/// is defined for the toolchain workload as well as the native ones (see
/// the README's table); tracing is off when they are measured.
pub fn end_to_end() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, higher, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, higher)
    };
    vec![
        e2e("tasks_per_s", "1/s", true, 0.25),
        e2e("speedup_geomean", "x", true, 0.25),
        e2e("round_ms", "ms", false, 0.25),
        e2e("peak_rss_mb", "MiB", false, 0.25),
        e2e("setup_s", "s", false, 0.25),
    ]
}

/// Per-layer metrics, measured by the traced run. A metric that belongs
/// to another workload is printed as 0: the contract wants every name on
/// every traced run, and no workload can afford to run the other three.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("host.nproc", "count", true),
        def("host.workers", "count", true),
        def("host.parallel_capacity", "x", true),
        def("run.failed_share", "ratio", false),
        def("workloads.build_jobs_ms", "ms", false),
        def("workloads.trace_ms", "ms", false),
    ];
    let per = |m: &mut Vec<MetricDef>, prefix: &str, names: &[String], unit, higher| {
        m.extend(
            names
                .iter()
                .map(|n| def(format!("{prefix}.{n}"), unit, higher)),
        );
    };
    let kernels: Vec<String> = KERNELS.iter().map(ToString::to_string).collect();
    let rungs = rung_names();
    let clean: Vec<String> = RUNGS.iter().map(|r| format!("{}.clean", r.name)).collect();
    let native: Vec<String> = NATIVE_WORKLOADS.iter().map(ToString::to_string).collect();
    let pipelined = &native[1..];

    per(&mut m, "workloads.body_ns_per_task", &kernels, "ns", false);
    per(&mut m, "exec.speedup.governed", &kernels, "x", true);
    per(&mut m, "exec.speedup.pipelined", &kernels, "x", true);
    m.push(def(
        format!("exec.pipelined_fraction.{SPEC_GOVERNED}"),
        "ratio",
        true,
    ));
    m.push(def("exec.inline_ns_per_task", "ns", false));
    m.push(def("exec.handoff_ns_per_task", "ns", false));
    per(&mut m, "exec.overhead_ns_per_task", &rungs, "ns", false);
    per(&mut m, "exec.worker_utilization", &native, "ratio", true);
    per(&mut m, "exec.useful_attempt_ratio", &native, "ratio", true);
    m.push(def("exec.fallback_runs", "count", false));
    m.push(def("exec.watchdog_trips", "count", false));
    per(&mut m, "exec.speedup_at_nproc", &clean, "x", true);
    per(&mut m, "exec.service_us_p50", pipelined, "us", false);
    per(&mut m, "exec.queue_wait_us_p50", pipelined, "us", false);
    per(&mut m, "exec.commit_latency_us_p50", pipelined, "us", false);
    per(&mut m, "exec.commit_latency_us_p99", pipelined, "us", false);
    per(&mut m, "exec.trace_overhead_pct", &native, "%", false);
    for counter in ["degrades", "reprobes", "shrinks", "grows", "backoffs"] {
        m.push(def(format!("governor.{counter}"), "count", false));
    }
    per(&mut m, "governor.regret", &clean, "x", false);
    for counter in [
        "reads",
        "forwards",
        "silent_stores",
        "violations",
        "rollbacks",
    ] {
        m.push(def(format!("specmem.{counter}"), "count", false));
    }
    m.push(def("specmem.forward_ratio", "ratio", true));
    m.push(def("specmem.violation_ratio", "ratio", false));
    for op in [
        "begin_ns",
        "read_ns",
        "forwarded_read_ns",
        "write_ns",
        "silent_write_ns",
        "commit_check_ns",
        "try_commit_ns",
        "commit_batch16_ns_per_version",
        "rollback_ns",
        "inline_cycle_ns",
    ] {
        m.push(def(format!("specmem.{op}"), "ns", false));
    }
    for op in [
        "channel_uncontended_ns",
        "channel_roundtrip_ns",
        "channel_roundtrip_p99_ns",
    ] {
        m.push(def(format!("crossbeam.{op}"), "ns", false));
    }
    per(&mut m, "sim.speedup_32c", &kernels, "x", true);
    m.push(def("sim.host_ns_per_task", "ns", false));
    m.push(def("plan.compile_ms", "ms", false));
    m.push(def("ir.build_model_ms", "ms", false));
    m.push(def("core.parallelize_ms", "ms", false));
    m.push(def("analysis.lint_ms", "ms", false));
    m.push(def("core.speculated_deps", "count", false));
    m.push(def("analysis.lint_findings", "count", false));
    m.push(def("analysis.tune_search_ms", "ms", false));
    m.push(def("analysis.tune_evals_per_s", "1/s", true));
    m
}

/// Whether `name` is one of the oversubscribed `*_at_nproc` numbers,
/// which are printed for context and may never be gated on.
pub fn is_oversubscribed_metric(name: &str) -> bool {
    name.contains("_at_nproc")
}

/// What one run measured, by metric name.
pub type Measured = BTreeMap<String, f64>;

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `defs` in order.
///
/// # Errors
///
/// Names a measured metric the catalogue does not list (a typo in the
/// harness), or an end-to-end metric that was not measured.
pub fn result_line(
    defs: &[MetricDef],
    measured: &Measured,
    attempted: u64,
    failed: u64,
    zero_fill: bool,
) -> Result<String, String> {
    if let Some(stray) = measured
        .keys()
        .find(|k| !defs.iter().any(|d| &d.name == *k))
    {
        return Err(format!("measured metric `{stray}` is not in the catalogue"));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        attempted.max(1)
    );
    for (i, d) in defs.iter().enumerate() {
        let value = match measured.get(&d.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric `{}` is not finite: {v}", d.name)),
            None if zero_fill => 0.0,
            None => return Err(format!("metric `{}` was not measured", d.name)),
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        )
        .expect("write to string");
    }
    out.push_str("}}");
    Ok(out)
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn manifest() -> String {
    let better = |d: &MetricDef| {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}").expect("write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let sep = if i + 1 == e2e.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            better(d),
            d.bound.expect("end-to-end metrics carry a bound")
        )
        .expect("write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let sep = if i + 1 == layers.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            better(d)
        )
        .expect("write");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_bench::json;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        all.extend(per_layer().into_iter().map(|d| d.name));
        all.extend(WORKLOADS.iter().map(|(n, _)| (*n).to_string()));
        for name in &all {
            assert!(valid_name(name), "bad metric name `{name}`");
        }
        let unique: std::collections::BTreeSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn kernel_names_match_the_suite() {
        let suite: Vec<&str> = seqpar_workloads::all_workloads()
            .iter()
            .map(|w| w.meta().name)
            .collect();
        assert_eq!(suite, KERNELS);
    }

    /// The committed `BENCHMARK.json` lists exactly the metrics the
    /// harness emits, with the same units, directions and bounds.
    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `--manifest > BENCHMARK.json`"
        );
        let value = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&String> = value.as_object().expect("object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(text.len() <= 64 * 1024);
        let names = |key: &str| -> Vec<String> {
            value
                .get(key)
                .and_then(json::Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let listed = |defs: Vec<MetricDef>| defs.into_iter().map(|d| d.name).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), listed(end_to_end()));
        assert_eq!(names("per_layer"), listed(per_layer()));
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = end_to_end();
        let mut measured = Measured::new();
        for d in &defs {
            measured.insert(d.name.clone(), 1.5);
        }
        let line = result_line(&defs, &measured, 10, 0, false).expect("complete");
        let value = json::parse(&line).expect("result line parses");
        let keys: Vec<&String> = value.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(value.get("correct"), Some(&json::Value::Bool(true)));
        let metrics = value
            .get("metrics")
            .and_then(json::Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), defs.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(json::Value::as_str),
            Some("s")
        );

        measured.remove("setup_s");
        assert!(result_line(&defs, &measured, 10, 0, false).is_err());
        measured.insert("setup_s".into(), 1.0);
        measured.insert("typo_metric".into(), 1.0);
        assert!(result_line(&defs, &measured, 10, 0, false).is_err());
    }

    #[test]
    fn per_layer_lines_zero_fill_other_workloads_metrics() {
        let defs = per_layer();
        let mut measured = Measured::new();
        measured.insert("host.nproc".into(), 2.0);
        let line = result_line(&defs, &measured, 1, 1, true).expect("zero filled");
        let value = json::parse(&line).expect("parses");
        assert_eq!(value.get("correct"), Some(&json::Value::Bool(false)));
        let metrics = value
            .get("metrics")
            .and_then(json::Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), defs.len());
        assert_eq!(
            metrics["host.nproc"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            metrics["sim.speedup_32c.gzip"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn at_nproc_numbers_are_recognised_as_ungateable() {
        assert!(is_oversubscribed_metric("exec.speedup_at_nproc.g64.clean"));
        assert!(!is_oversubscribed_metric("speedup_geomean"));
        assert!(end_to_end()
            .iter()
            .all(|d| !is_oversubscribed_metric(&d.name)));
    }
}
