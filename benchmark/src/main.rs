//! The repository's benchmark. See `README.md` in this directory for the
//! workloads, the metrics and how to read the output.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object the driver
//! reads; everything above it is the human-readable report.

mod host;
mod ladder;
mod metrics;
mod native;
mod plansim;
mod probes;
mod spans;
mod stats;

use host::Host;
use metrics::{Measured, MetricDef, RUN_SECONDS, WORKLOADS};
use seqpar_runtime::{Engine, EngineConfig};
use spans::Recorder;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `--workers N`: override `W`. Refused when `N + 1 > nproc`.
    workers: Option<usize>,
    selfcheck: bool,
    manifest: bool,
    /// `--gate <metric>` (repeatable): the metrics `--selfcheck` compares.
    gate: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        workers: None,
        selfcheck: false,
        manifest: false,
        gate: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--workers" => args.workers = Some(number(value()?)? as usize),
            "--gate" => args.gate.push(value()?),
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.manifest && !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// The flattery guard: refuses a worker count the host has no cores
/// for, and refuses to gate on an oversubscribed number.
fn guard(args: &Args, nproc: usize) -> Result<usize, String> {
    let e2e = metrics::end_to_end();
    for name in &args.gate {
        if metrics::is_oversubscribed_metric(name) {
            return Err(format!(
                "`{name}` is measured with one thread more than the host has cores \
                 (oversubscribed); it is printed for context and cannot be gated on"
            ));
        }
        if !e2e.iter().any(|d| &d.name == name) {
            return Err(format!(
                "`{name}` is not an end-to-end metric; only those carry a bound"
            ));
        }
    }
    match args.workers {
        Some(w) if w == 0 || w + 1 > nproc => Err(format!(
            "--workers {w}: W + 1 supervising caller = {} runnable threads on {nproc} cores; \
             a wall-clock number measured that way would not be the pipeline's",
            w + 1
        )),
        Some(w) => Ok(w),
        None => Ok(host::default_workers(nproc)),
    }
}

/// Rounds for a run of `seconds`: the workload's fixed count at
/// `RUN_SECONDS`, scaled. Never adaptive — parent and change must
/// measure the same amount of work. A traced run does half as many: each
/// of its rounds also runs every job once more with tracing on.
fn rounds_for(per_run: u64, args: &Args) -> u64 {
    let rounds = (per_run * args.seconds).div_ceil(RUN_SECONDS);
    if args.trace { rounds / 2 } else { rounds }.max(2)
}

/// What one run produced.
struct Outcome {
    rounds: u64,
    measured: Measured,
    attempted: u64,
    failed: u64,
    report: Vec<String>,
}

fn header(args: &Args, host: &Host, rounds: u64) -> Vec<String> {
    vec![
        format!(
            "workload {}  trace {}  seed {}  seconds {}  rounds {rounds}  setup_reps {}  size {}",
            args.workload,
            u8::from(args.trace),
            args.seed,
            args.seconds,
            if args.trace { 1 } else { SETUP_REPS },
            native::SIZE,
        ),
        format!(
            "host nproc {}  workers W {}  parallel_capacity {:.3}  oversubscribed {}  git_rev {}",
            host.nproc,
            host.workers,
            host.parallel_capacity,
            host.oversubscribed(),
            host.git_rev
        ),
    ]
}

/// What every traced run reports whatever its workload: the host block
/// and the layer probes.
fn host_and_probes(
    host: &Host,
    engine: &Engine,
    seed: u64,
    out: &mut Measured,
    report: &mut Vec<String>,
) {
    out.insert("host.nproc".into(), host.nproc as f64);
    out.insert("host.workers".into(), host.workers as f64);
    out.insert("host.parallel_capacity".into(), host.parallel_capacity);
    let probes = probes::run_all(probes::Scale::FULL, engine, host.workers, seed);
    probes.write_into(out);
    report.extend(probes.lines());
}

/// Runs `set_up` `reps` times, returning the last set-up and the median
/// time of all of them.
fn timed_set_up<T>(reps: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first, as a fresh process would start.
        drop(last.take());
        let started = Instant::now();
        last = Some(set_up());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

fn run_native(kind: native::Kind, args: &Args, host: &Host, rec: &Recorder) -> Outcome {
    let rounds = rounds_for(kind.rounds_per_run(), args);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup, setup_s) = timed_set_up(reps, || native::set_up(kind, args.seed, host, rec));
    let mut samples = native::measure(kind, &setup, host, rounds, args.seed, rec);

    let mut measured = Measured::new();
    let mut report = header(args, host, rounds);
    report.push(format!(
        "{:<14} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8} {:>12}",
        "job", "tasks", "seq best", "native best", "p25", "median", "p75", "speedup", "overhead ns"
    ));
    for r in samples.rows(&setup) {
        report.push(format!(
            "{:<14} {:>7} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>8.3} {:>12.0}",
            r.name,
            r.tasks,
            r.seq_ms,
            r.native_ms,
            r.native_p25_ms,
            r.native_median_ms,
            r.native_p75_ms,
            r.speedup,
            r.overhead_ns_per_task
        ));
    }
    report.extend(samples.round_lines(&setup));
    if args.trace {
        samples.per_layer(&setup, &mut measured);
        if kind == native::Kind::Ladder {
            native::ladder_extras(&setup, &mut samples, host, rec, &mut measured);
            report.push(
                "exec.speedup_at_nproc.* below are oversubscribed: tls(nproc) plus the supervisor"
                    .into(),
            );
        }
        host_and_probes(host, &setup.engine, args.seed, &mut measured, &mut report);
    } else {
        samples.end_to_end(&setup, &mut measured);
        measured.insert("setup_s".into(), setup_s);
    }
    Outcome {
        rounds,
        measured,
        attempted: samples.attempted,
        failed: samples.failed,
        report,
    }
}

fn run_plan_sim(args: &Args, host: &Host, rec: &Recorder) -> Result<Outcome, String> {
    let rounds = rounds_for(plansim::ROUNDS_PER_RUN, args);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (reference, setup_s) = timed_set_up(reps, || plansim::set_up(rec));
    let samples = plansim::measure(reference?, rounds, rec);

    let mut measured = Measured::new();
    let mut report = header(args, host, rounds);
    report.extend(samples.lines());
    if args.trace {
        samples.per_layer(&mut measured);
        let engine = Engine::new(EngineConfig::with_workers(host.workers));
        engine.warm();
        host_and_probes(host, &engine, args.seed, &mut measured, &mut report);
    } else {
        samples.end_to_end(&mut measured)?;
        measured.insert("setup_s".into(), setup_s);
    }
    Ok(Outcome {
        rounds,
        measured,
        attempted: samples.attempted,
        failed: samples.failed,
        report,
    })
}

/// One run of one workload, end to end (`--trace 0`) or traced.
fn run_once(args: &Args, host: &Host) -> Result<(Outcome, Vec<spans::Span>), String> {
    let rec = Recorder::new(args.trace);
    let mut outcome = match native::Kind::from_name(&args.workload) {
        Some(kind) => run_native(kind, args, host, &rec),
        None => run_plan_sim(args, host, &rec)?,
    };
    if args.trace {
        let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.measured.insert("run.failed_share".into(), share);
    } else {
        outcome
            .measured
            .insert("peak_rss_mb".into(), host::peak_rss_mb());
    }
    Ok((outcome, rec.into_spans()))
}

fn metric_lines(defs: &[MetricDef], measured: &Measured) -> Vec<String> {
    defs.iter()
        .filter_map(|d| {
            let v = measured.get(&d.name)?;
            let note = if metrics::is_oversubscribed_metric(&d.name) {
                "  (oversubscribed)"
            } else {
                ""
            };
            Some(format!("{:<48} {v:>16.4} {}{note}", d.name, d.unit))
        })
        .collect()
}

/// Writes `benchmark/out/trace-<workload>.json`: the host block, every
/// measured per-layer metric, per-name self times and the spans.
fn write_trace(
    args: &Args,
    host: &Host,
    outcome: &Outcome,
    spans: &[spans::Span],
) -> Result<String, String> {
    let dir = "benchmark/out";
    let path = format!("{dir}/trace-{}.json", args.workload);
    let mut out = String::from("{\n\"schema\": 1,\n");
    writeln!(
        out,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"rounds\": {}, \"size\": \"{}\", \"unit\": \"ns\",",
        args.workload, args.seed, args.seconds, outcome.rounds, native::SIZE
    )
    .expect("write to string");
    writeln!(
        out,
        "\"host\": {{\"nproc\": {}, \"workers\": {}, \"parallel_capacity\": {}, \"oversubscribed\": {}, \"git_rev\": \"{}\"}},",
        host.nproc, host.workers, host.parallel_capacity, host.oversubscribed(), host.git_rev
    )
    .expect("write to string");
    out.push_str("\"metrics\": {");
    for (i, (name, value)) in outcome.measured.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{name}\": {value}").expect("write to string");
    }
    out.push_str("},\n");
    out.push_str(&spans::spans_json(spans));
    out.push_str("\n}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// `--selfcheck`: two short end-to-end sets of the same commit must
/// agree, metric by metric, within each metric's bound.
fn selfcheck(args: &Args, host: &Host) -> Result<(), String> {
    let gated: Vec<MetricDef> = metrics::end_to_end()
        .into_iter()
        .filter(|d| args.gate.is_empty() || args.gate.contains(&d.name))
        .collect();
    let (first, _) = run_once(args, host)?;
    let (second, _) = run_once(args, host)?;
    if first.failed + second.failed > 0 {
        return Err(format!(
            "selfcheck: {} checked runs failed",
            first.failed + second.failed
        ));
    }
    let mut disagreements = Vec::new();
    for d in &gated {
        let (a, b) = (first.measured[&d.name], second.measured[&d.name]);
        let gap = (a - b).abs() / a.min(b);
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        let verdict = if gap <= bound { "ok" } else { "DISAGREE" };
        println!(
            "selfcheck {:<18} {a:>14.4} {b:>14.4} {}  gap {:.2}%  bound {:.0}%  {verdict}",
            d.name,
            d.unit,
            gap * 100.0,
            bound * 100.0
        );
        if gap > bound {
            disagreements.push(d.name.clone());
        }
    }
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "selfcheck: two sets of the same commit disagree on {}",
            disagreements.join(", ")
        ))
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    if args.manifest {
        print!("{}", metrics::manifest());
        return Ok(());
    }
    let workers = guard(&args, host::nproc())?;
    let host = host::probe(workers);
    if args.selfcheck {
        return selfcheck(&args, &host);
    }
    let (outcome, spans) = run_once(&args, &host)?;
    let (defs, zero_fill) = if args.trace {
        (metrics::per_layer(), true)
    } else {
        (metrics::end_to_end(), false)
    };
    // Build the result line first: a harness bug must not print a report
    // that looks like a result.
    let result = metrics::result_line(
        &defs,
        &outcome.measured,
        outcome.attempted,
        outcome.failed,
        zero_fill,
    )?;
    for line in &outcome.report {
        println!("{line}");
    }
    for line in metric_lines(&defs, &outcome.measured) {
        println!("{line}");
    }
    if args.trace {
        let path = write_trace(&args, &host, &outcome, &spans)?;
        println!("spans: {} written to {path}", spans.len());
    }
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(gate: &[&str], workers: Option<usize>, seconds: u64, trace: bool) -> Args {
        Args {
            workload: metrics::PLAN_SIM.to_string(),
            seed: 1,
            seconds,
            trace,
            workers,
            selfcheck: false,
            manifest: false,
            gate: gate.iter().map(ToString::to_string).collect(),
        }
    }

    #[test]
    fn the_guard_refuses_to_flatter() {
        assert_eq!(guard(&args(&[], None, 15, false), 2), Ok(1));
        assert_eq!(guard(&args(&[], None, 15, false), 8), Ok(7));
        assert_eq!(guard(&args(&[], Some(3), 15, false), 4), Ok(3));
        // One more runnable thread than cores: not the pipeline's wall clock.
        assert!(guard(&args(&[], Some(2), 15, false), 2).is_err());
        assert!(guard(&args(&[], Some(0), 15, false), 2).is_err());
        // Oversubscribed numbers are context, never a gate; nor is any
        // other per-layer metric.
        assert!(guard(
            &args(&["exec.speedup_at_nproc.g64.clean"], None, 15, false),
            2
        )
        .is_err());
        assert!(guard(&args(&["exec.handoff_ns_per_task"], None, 15, false), 2).is_err());
        assert_eq!(
            guard(&args(&["speedup_geomean", "setup_s"], None, 15, false), 2),
            Ok(1)
        );
    }

    #[test]
    fn round_counts_are_fixed_by_seconds_alone() {
        assert_eq!(rounds_for(8, &args(&[], None, 15, false)), 8);
        assert_eq!(rounds_for(8, &args(&[], None, 30, false)), 16);
        assert_eq!(rounds_for(9, &args(&[], None, 5, false)), 3);
        assert_eq!(rounds_for(8, &args(&[], None, 1, false)), 2);
        assert_eq!(rounds_for(9, &args(&[], None, 15, true)), 4);
    }
}
