//! Feedback-directed plan autotuner CLI.
//!
//! Usage:
//!
//! ```text
//! seqpar-tune [164.gzip ... | all] [--threads N]
//!     [--size test|train|ref] [--out-dir DIR] [--no-native]
//! seqpar-tune --check FILE...
//! ```
//!
//! Tuning mode scores each named workload's plan space — the TLS plan
//! at every width the core budget allows, each once
//! (`seqpar_analysis::tune`) — re-validates every row natively
//! (byte-identical output against the sequential oracle, median wall
//! clock of interleaved repetitions), prints the table with each row's
//! sim cost beside its native wall and the natively fastest row as the
//! winner, and — with `--out-dir` — persists each winner as a
//! reproducible plan artifact named `<spec_id>.plan.json`, keyed by the
//! plan's lint-stamp fingerprint. Re-running with the same thread
//! count replays the identical table.
//!
//! `--no-native` skips native validation (simulator scores only, the
//! cheapest row wins, no wall clocks in the artifact) — useful for
//! quick looks at the search itself.
//!
//! `--check` mode loads each named plan-artifact file through the
//! schema- and integrity-checking loader and fails on the first
//! malformed, mistyped, or fingerprint-tampered artifact — the CI
//! `tune-smoke` job runs it over every artifact it just produced.

use seqpar_analysis::tune::{PlanArtifact, TuneConfig};
use seqpar_bench::tune::{render_outcome, render_search, TunableWorkload};
use seqpar_workloads::{all_workloads, workload_by_name, InputSize, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = TuneConfig::default();
    let mut size = InputSize::Test;
    let mut out_dir: Option<String> = None;
    let mut native = true;
    let mut check_files: Vec<String> = Vec::new();
    let mut checking = false;
    let mut targets: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--check" => checking = true,
            "--no-native" => native = false,
            "--threads" => config.threads = parse_count(iter.next(), "--threads"),
            "--size" => {
                size = match iter.next().map(String::as_str) {
                    Some("test") => InputSize::Test,
                    Some("train") => InputSize::Train,
                    Some("ref") => InputSize::Ref,
                    other => die(&format!("unknown size {other:?} (use test|train|ref)")),
                }
            }
            "--out-dir" => {
                out_dir = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--out-dir needs a directory"))
                        .clone(),
                );
            }
            other if checking => check_files.push(other.to_string()),
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => targets.push(other.to_string()),
        }
    }

    if checking {
        if check_files.is_empty() {
            die("--check needs at least one artifact file");
        }
        check(&check_files);
        return;
    }

    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let workloads = all_workloads();
    let selected: Vec<&dyn Workload> = if targets.iter().any(|t| t == "all") {
        workloads.iter().map(std::convert::AsRef::as_ref).collect()
    } else {
        targets
            .iter()
            .map(|t| {
                workload_by_name(t)
                    .map(|_| {
                        workloads
                            .iter()
                            .find(|w| w.meta().spec_id == t.as_str())
                            .expect("just resolved")
                            .as_ref()
                    })
                    .unwrap_or_else(|| {
                        die(&format!("unknown benchmark {t} (use a SPEC id or all)"))
                    })
            })
            .collect()
    };

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
    }
    println!("seqpar-tune: threads {}, size {size}\n", config.threads);
    let mut beat = 0usize;
    for w in &selected {
        let tunable = TunableWorkload::prepare(*w, size);
        let result = match tunable.tune(&config) {
            Ok(r) => r,
            Err(e) => {
                // An unsound partition is a per-workload verdict, not a
                // driver failure: report it and move on.
                println!("## {}: {e}\n", w.meta().spec_id);
                continue;
            }
        };
        let artifact = if native {
            let outcome = tunable.validate_native(result);
            print!("{}", render_outcome(&outcome));
            println!();
            if outcome.delta.beats_baseline() {
                beat += 1;
            }
            outcome.artifact
        } else {
            println!("{}", render_search(&result));
            PlanArtifact::from_result(&result, &result.best)
        };
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.plan.json", artifact.workload);
            std::fs::write(&path, artifact.to_json())
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("wrote {path}");
        }
    }
    if native {
        println!(
            "\n{beat}/{} workload(s): tuned plan beat the default natively",
            selected.len()
        );
    }
}

/// `--check` mode: every file must load through the integrity-checking
/// artifact parser.
fn check(files: &[String]) {
    let mut failed = false;
    for f in files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{f}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        match PlanArtifact::from_json(&text) {
            Ok(a) => println!(
                "{f}: ok ({}, fingerprint {:#x}, native {})",
                a.workload,
                a.fingerprint,
                if a.native.is_some() {
                    "validated"
                } else {
                    "absent"
                }
            ),
            Err(e) => {
                eprintln!("{f}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn parse_count(arg: Option<&String>, flag: &str) -> usize {
    let s = arg.unwrap_or_else(|| die(&format!("{flag} needs a value")));
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs a count, got {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
