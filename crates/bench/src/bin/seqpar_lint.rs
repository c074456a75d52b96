//! `seqpar-lint`: static partition-soundness checker for the workload suite.
//!
//! Usage:
//!
//! ```text
//! seqpar-lint [--cores N] [164.gzip ... | all]
//! seqpar-lint --explain SPxxxx
//! ```
//!
//! `--explain` prints the rationale and fix-it guidance for a
//! registered code (or, given `all`, for every code) and exits.
//!
//! Each target's IR model is parallelized through the library pipeline
//! (with `allow_unsound`, so findings are reported instead of refused)
//! and the full lint battery runs over the result: forward-flow
//! soundness, the replicated-stage race detector, the `Commutative`
//! audit, the Y-branch legality audit, and the plan-shape check of the
//! `--cores`-way execution plan. Rendered diagnostics are printed per
//! finding; a markdown summary table (suitable for `tee -a
//! "$GITHUB_STEP_SUMMARY"`) closes the run.
//!
//! Exit status is 1 when any deny-level finding exists, 0 otherwise —
//! warnings alone do not fail the run.

use seqpar_analysis::LintCode;
use seqpar_bench::{lint_workload, render_lint_table, LintOutcome};
use seqpar_workloads::{all_workloads, Workload};

/// Prints the rationale and fix-it text for one code.
fn explain(code: LintCode) {
    println!(
        "{} ({} level)\n\n{}\n",
        code.as_str(),
        match code.severity() {
            seqpar_runtime::Severity::Deny => "deny",
            seqpar_runtime::Severity::Warn => "warn",
        },
        code.explain()
    );
}

/// The `--cores` argument: any width of one or more, since the plan the
/// lint audits is `tls(cores)` and there is no `tls(0)`.
fn parse_cores(arg: Option<&str>) -> Result<usize, String> {
    let s = arg.ok_or("--cores needs a value")?;
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--cores needs an integer >= 1, got {s}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cores = 8usize;
    let mut targets = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--explain" => {
                match iter.next().map(String::as_str) {
                    Some("all") => LintCode::ALL.iter().for_each(|&c| explain(c)),
                    Some(s) => match LintCode::parse(s) {
                        Some(code) => explain(code),
                        None => {
                            eprintln!(
                                "unknown code {s}; registered codes: {}",
                                LintCode::ALL
                                    .iter()
                                    .map(|c| c.as_str())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            );
                            std::process::exit(2);
                        }
                    },
                    None => {
                        eprintln!("--explain needs a code (SPxxxx) or all");
                        std::process::exit(2);
                    }
                }
                return;
            }
            "--cores" => {
                cores = parse_cores(iter.next().map(String::as_str)).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let workloads = all_workloads();
    let mut selected: Vec<&dyn Workload> = Vec::new();
    for t in &targets {
        if t == "all" {
            selected = workloads.iter().map(std::convert::AsRef::as_ref).collect();
            break;
        }
        match workloads.iter().find(|w| w.meta().spec_id == t.as_str()) {
            Some(w) => selected.push(w.as_ref()),
            None => {
                eprintln!("unknown benchmark {t} (use a SPEC id like 164.gzip, or all)");
                std::process::exit(2);
            }
        }
    }

    println!(
        "## seqpar-lint: plan soundness over {} workload(s), {cores} cores\n",
        selected.len()
    );
    let mut outcomes: Vec<LintOutcome> = Vec::new();
    for w in selected {
        let outcome = lint_workload(w, cores);
        if !outcome.report.entries().is_empty() {
            println!("### {}\n", outcome.spec_id);
            print!("{}", outcome.report.render());
            println!();
        }
        outcomes.push(outcome);
    }
    print!("{}", render_lint_table(&outcomes));

    if outcomes.iter().any(|o| !o.report.is_clean()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cores;

    #[test]
    fn cores_accepts_every_width_the_native_table_runs() {
        for (arg, cores) in [("1", 1), ("2", 2), ("8", 8)] {
            assert_eq!(parse_cores(Some(arg)), Ok(cores));
        }
        for arg in ["0", "x"] {
            assert_eq!(
                parse_cores(Some(arg)),
                Err(format!("--cores needs an integer >= 1, got {arg}"))
            );
        }
        assert!(parse_cores(None).is_err());
    }
}
