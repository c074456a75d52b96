//! Feedback-directed plan autotuner CLI.
//!
//! Usage:
//!
//! ```text
//! seqpar-tune [164.gzip ... | all] [--threads N]
//!     [--size test|train|ref] [--no-native]
//! ```
//!
//! It scores each named workload's plan space — the TLS plan at every
//! width the core budget allows, each once (`seqpar_analysis::tune`) —
//! and names the cheapest row the winner. It runs every row natively
//! through the native table's instrument (`seqpar_bench::native`:
//! rotated repeats against the sequential loop, every run byte-checked)
//! and prints the table with each row's sim cost beside its sequential
//! ÷ native ratio, median `[IQR]`, and the kernel's capacity
//! certificate. The printed table is the only output: re-running with
//! the same thread count prints the same rows and winner.
//!
//! `--no-native` skips the native runs; the rows' costs and the winner
//! are the same.

use seqpar_analysis::tune::TuneConfig;
use seqpar_bench::tune::{render, TunableWorkload};
use seqpar_workloads::{all_workloads, workload_by_name, InputSize, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = TuneConfig::default();
    let mut size = InputSize::Test;
    let mut native = true;
    let mut targets: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
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
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => targets.push(other.to_string()),
        }
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

    println!("seqpar-tune: threads {}, size {size}\n", config.threads);
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
        let kernel = native.then(|| tunable.run_native(&result));
        println!("{}", render(&result, kernel.as_ref()));
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
