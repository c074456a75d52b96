//! The native table: every kernel on real OS threads under the TLS and
//! the three-phase plan at one and two seats, each run ungoverned and
//! governed against repeated runs of its own sequential loop, every
//! output byte-checked, and the two-seat rows certified by the host's
//! measured capacity.
//!
//! A row's engine has a worker per distinct core of its plan but one
//! ([`EngineConfig::for_plan`]), and [`Engine::new`] spawns at least one.
//! So a `three_phase(1)` row, whose three stages share core 0, still runs
//! on two threads, the caller and that worker: it is no one-core reading.

use crate::{geomean, misspec_rate, simulate_graph, PlanKind};
use seqpar_runtime::{Engine, EngineConfig, ExecConfig, FaultPlan, GovernorConfig};
use seqpar_workloads::{InputSize, VersionedJob, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The widths every plan kind runs at.
pub const NATIVE_WIDTHS: [usize; 2] = [1, 2];

/// Alternated repeats behind each row's medians.
pub const NATIVE_REPEATS: usize = 7;

/// The capacity both readings around a kernel must reach for its
/// two-seat rows to count as two cores' work.
pub const CERTIFIED_CAPACITY: f64 = 1.8;

/// The kernels whose chunks compute from their own inputs rather than
/// restore state their sequential pass recorded: the footer's geomean
/// is over these at `tls(2)`.
pub const CLEAN_KERNELS: [&str; 5] = [
    "164.gzip",
    "176.gcc",
    "186.crafty",
    "197.parser",
    "256.bzip2",
];

/// The median and interquartile range of a series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The middle value.
    pub median: f64,
    /// The third quartile minus the first.
    pub iqr: f64,
}

impl Spread {
    /// The spread of `xs`, quartiles interpolated linearly.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Self {
        let mut xs = xs.to_vec();
        xs.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (xs.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        };
        Self {
            median: at(0.5),
            iqr: at(0.75) - at(0.25),
        }
    }
}

/// One plan at one width: what [`NATIVE_REPEATS`] alternated repeats of
/// the sequential loop, an ungoverned and a governed run read.
#[derive(Clone, Debug)]
pub struct NativeRow {
    /// TLS or three-phase.
    pub kind: PlanKind,
    /// Seats the plan is built for.
    pub width: usize,
    /// Iterations per task ([`VersionedJob::grain`]).
    pub k: usize,
    /// Median wall of the repeated sequential runs, in milliseconds.
    pub baseline_ms: f64,
    /// Sequential ÷ ungoverned wall, per repeat (above 1 is faster).
    pub ungoverned: Spread,
    /// Sequential ÷ governed wall, per repeat.
    pub governed: Spread,
    /// Squashes ÷ committed tasks over every native run of the row.
    pub squash_ratio: f64,
    /// Misspeculation the simulator reads on the graph the runs executed.
    pub sim_misspec: f64,
    /// Worker panics recovered over the row's native runs.
    pub recovered: u64,
}

/// One kernel's rows and what frames them.
#[derive(Clone, Debug)]
pub struct NativeKernel {
    /// Benchmark SPEC id.
    pub spec_id: String,
    /// Wall of building the job, in milliseconds.
    pub build_ms: f64,
    /// Wall of the job's first sequential run, the pass that records its
    /// trace, in milliseconds.
    pub first_run_ms: f64,
    /// [`parallel_capacity`] before and after the kernel's rows.
    pub capacity: [f64; 2],
    /// One row per plan kind and width.
    pub rows: Vec<NativeRow>,
}

impl NativeKernel {
    /// Whether both capacity readings reach [`CERTIFIED_CAPACITY`].
    pub fn certified(&self) -> bool {
        self.capacity.iter().all(|&c| c >= CERTIFIED_CAPACITY)
    }
}

/// Runs one workload's rows: TLS then three-phase at each of
/// [`NATIVE_WIDTHS`], between two capacity readings. `fault_seed` arms
/// [`FaultPlan::seeded`] on every native run.
///
/// # Panics
///
/// Panics if any run's output differs from the job's first sequential
/// run: a wall of an execution that broke sequential semantics is no
/// reading.
pub fn native_kernel(w: &dyn Workload, size: InputSize, fault_seed: Option<u64>) -> NativeKernel {
    let before = parallel_capacity();
    let started = Instant::now();
    let job = w.versioned_job(size);
    let build_ms = ms(started.elapsed());
    let started = Instant::now();
    let oracle = job.sequential().output;
    let first_run_ms = ms(started.elapsed());
    let config = match fault_seed {
        Some(seed) => ExecConfig::default().with_faults(FaultPlan::seeded(seed)),
        None => ExecConfig::default(),
    };
    let rows = [PlanKind::Tls, PlanKind::Dswp]
        .into_iter()
        .flat_map(|kind| NATIVE_WIDTHS.map(|width| (kind, width)))
        .map(|(kind, width)| native_row(w.meta().spec_id, &job, &oracle, kind, width, &config))
        .collect();
    NativeKernel {
        spec_id: w.meta().spec_id.to_string(),
        build_ms,
        first_run_ms,
        capacity: [before, parallel_capacity()],
        rows,
    }
}

/// One row on a warmed engine sized to the plan (two threads for a
/// `three_phase(1)` row; see the module doc). Repeat `r` runs the
/// sequential loop, the ungoverned and the governed run in an order
/// rotated by `r`, so no column always runs first.
fn native_row(
    spec_id: &str,
    job: &VersionedJob,
    oracle: &[u8],
    kind: PlanKind,
    width: usize,
    config: &ExecConfig,
) -> NativeRow {
    let plan = kind.plan(width);
    let engine = Engine::new(EngineConfig::for_plan(&plan));
    engine.warm();
    let configs = [
        config.clone(),
        config.clone().with_governor(GovernorConfig::default()),
    ];
    let (mut baseline, mut ratios) = (Vec::new(), [Vec::new(), Vec::new()]);
    let (mut squashes, mut tasks, mut recovered) = (0, 0, 0);
    let mut graph = None;
    for r in 0..NATIVE_REPEATS {
        let (mut seq, mut native) = (0.0, [0.0; 2]);
        for slot in (0..3).map(|i| (i + r) % 3) {
            if slot == 0 {
                let run = job.sequential();
                assert_eq!(
                    run.output, oracle,
                    "{spec_id}: the sequential loop does not repeat"
                );
                seq = run.wall.as_secs_f64();
                continue;
            }
            let (spec, _mem) = job.job_spec(&plan, configs[slot - 1].clone());
            let report = engine
                .run(&spec)
                .expect("plan matches machine and faults are recoverable");
            assert_eq!(
                report.output,
                oracle,
                "{spec_id}: native output diverged from sequential under {}",
                plan_name(kind, width)
            );
            native[slot - 1] = report.wall.as_secs_f64();
            squashes += report.squashes;
            tasks += report.tasks_committed;
            recovered += report.recovery.panics_recovered;
            graph.get_or_insert(spec.graph);
        }
        baseline.push(seq);
        for (ratio, wall) in ratios.iter_mut().zip(native) {
            ratio.push(seq / wall);
        }
    }
    let graph = graph.expect("a row runs natively");
    NativeRow {
        kind,
        width,
        k: job.grain(&plan),
        baseline_ms: 1e3 * Spread::of(&baseline).median,
        ungoverned: Spread::of(&ratios[0]),
        governed: Spread::of(&ratios[1]),
        squash_ratio: squashes as f64 / tasks.max(1) as f64,
        sim_misspec: misspec_rate(&simulate_graph(&graph, width, kind)),
        recovered,
    }
}

/// The `ExecutionPlan` constructor call a row runs, e.g. `tls(2)`.
fn plan_name(kind: PlanKind, width: usize) -> String {
    match kind {
        PlanKind::Tls => format!("tls({width})"),
        PlanKind::Dswp => format!("three_phase({width})"),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders kernels' rows as one table. A two-seat row reads `shared
/// core` unless its kernel is [`certified`](NativeKernel::certified),
/// and the footer's geomean counts the certified `tls(2)` rows of
/// [`CLEAN_KERNELS`] only.
pub fn render_native_table(kernels: &[NativeKernel]) -> String {
    let mut out = format!(
        "{:<14}{:<16}{:>5}{:>10}{:>16}{:>16}{:>8}{:>13}{:>10}{:>10}{:>11}  certificate\n",
        "kernel",
        "plan",
        "k",
        "seq(ms)",
        "ungoverned",
        "governed",
        "squash",
        "sim-misspec",
        "build(ms)",
        "first(ms)",
        "recovered",
    );
    let spread = |s: Spread| format!("{:.2} [{:.2}]", s.median, s.iqr);
    let mut clean = Vec::new();
    for kernel in kernels {
        let readings = format!("{:.2}/{:.2}", kernel.capacity[0], kernel.capacity[1]);
        for row in &kernel.rows {
            let plan = plan_name(row.kind, row.width);
            let certificate = match (row.width, kernel.certified()) {
                (1, _) => "-".to_string(),
                (_, true) => format!("certified {readings}"),
                (_, false) => format!("shared core {readings}"),
            };
            out.push_str(&format!(
                "{:<14}{plan:<16}{:>5}{:>10.2}{:>16}{:>16}{:>8.3}{:>13.3}{:>10.2}{:>10.2}{:>11}  {certificate}\n",
                kernel.spec_id,
                row.k,
                row.baseline_ms,
                spread(row.ungoverned),
                spread(row.governed),
                row.squash_ratio,
                row.sim_misspec,
                kernel.build_ms,
                kernel.first_run_ms,
                row.recovered,
            ));
            if kernel.certified()
                && row.kind == PlanKind::Tls
                && row.width == 2
                && CLEAN_KERNELS.contains(&kernel.spec_id.as_str())
            {
                clean.push(row);
            }
        }
    }
    if clean.is_empty() {
        out.push_str("no certified tls(2) row of a clean kernel: no two-core result\n");
    } else {
        out.push_str(&format!(
            "geomean over {} of {} clean kernels at tls(2), certified rows only: ungoverned {:.2}, governed {:.2}\n",
            clean.len(),
            CLEAN_KERNELS.len(),
            geomean(clean.iter().map(|r| r.ungoverned.median)),
            geomean(clean.iter().map(|r| r.governed.median)),
        ));
    }
    let runs: usize = kernels
        .iter()
        .map(|k| 2 * NATIVE_REPEATS * k.rows.len())
        .sum();
    out.push_str(&format!(
        "{runs} native runs, each byte-identical to the sequential loop\n"
    ));
    out
}

/// Throughput of two spinning threads ÷ that of one, the one read
/// before and after the pair so that drift between the windows does not
/// read as capacity: ~2 on two free cores, ~1 when the second core is
/// not really there. The benchmark's host probe reads it the same way.
pub fn parallel_capacity() -> f64 {
    let window = Duration::from_millis(50);
    let before = spin_throughput(1, window);
    let two = spin_throughput(2, window);
    let after = spin_throughput(1, window);
    two / ((before + after) / 2.0).max(1.0)
}

/// Spins on `threads` threads for about `window` and returns rounds per
/// second, summed over the threads.
fn spin_throughput(threads: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let (total, elapsed): (u64, Duration) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, barrier) = (&stop, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                        }
                        n += 1;
                    }
                    std::hint::black_box(x);
                    n
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        while started.elapsed() < window {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        // This thread may wake late when the spinners hold every core, so
        // divide by the time that really passed, not by `window`.
        let elapsed = started.elapsed();
        let total = handles
            .into_iter()
            .map(|h| h.join().expect("spin thread"))
            .sum();
        (total, elapsed)
    });
    total as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kind: PlanKind, width: usize, median: f64) -> NativeRow {
        let spread = Spread { median, iqr: 0.1 };
        NativeRow {
            kind,
            width,
            k: 1,
            baseline_ms: 10.0,
            ungoverned: spread,
            governed: spread,
            squash_ratio: 0.0,
            sim_misspec: 0.0,
            recovered: 0,
        }
    }

    fn kernel(spec_id: &str, capacity: [f64; 2], tls2: f64) -> NativeKernel {
        NativeKernel {
            spec_id: spec_id.to_string(),
            build_ms: 1.0,
            first_run_ms: 10.0,
            capacity,
            rows: vec![row(PlanKind::Tls, 1, 0.9), row(PlanKind::Tls, 2, tls2)],
        }
    }

    #[test]
    fn spread_is_the_median_and_interquartile_range() {
        assert_eq!(
            Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]),
            Spread {
                median: 3.0,
                iqr: 2.0
            }
        );
        assert_eq!(Spread::of(&[2.0]).iqr, 0.0);
    }

    #[test]
    fn only_certified_two_seat_rows_enter_the_geomean() {
        let kernels = [
            kernel("164.gzip", [1.9, 1.85], 1.6),
            kernel("176.gcc", [1.95, 1.79], 1.0),
            kernel("197.parser", [1.2, 1.9], 1.0),
            // Certified but not clean: printed, not averaged.
            kernel("255.vortex", [1.9, 1.9], 0.3),
        ];
        let table = render_native_table(&kernels);
        let line = |id: &str, plan: &str| {
            table
                .lines()
                .find(|l| l.starts_with(id) && l.contains(plan))
                .unwrap_or_else(|| panic!("no {id} {plan} row in\n{table}"))
        };
        assert!(line("164.gzip", "tls(2)").ends_with("certified 1.90/1.85"));
        assert!(line("176.gcc", "tls(2)").ends_with("shared core 1.95/1.79"));
        assert!(line("197.parser", "tls(2)").ends_with("shared core 1.20/1.90"));
        assert!(line("176.gcc", "tls(1)").ends_with("  -"));
        assert!(
            table.contains("geomean over 1 of 5 clean kernels at tls(2), certified rows only: ungoverned 1.60, governed 1.60"),
            "{table}"
        );
        assert!(table.contains("112 native runs"), "{table}");

        let shared = render_native_table(&kernels[1..3]);
        assert!(shared.contains("no two-core result"), "{shared}");
    }

    /// A run whose bytes differ from the oracle panics, so a kernel that
    /// returns its rows ran every one of them byte-identical.
    #[test]
    fn a_kernel_reads_one_checked_row_per_plan_and_width() {
        let w = seqpar_workloads::workload_by_name("197.parser").expect("parser exists");
        let kernel = native_kernel(w.as_ref(), InputSize::Test, None);
        let plans: Vec<_> = kernel.rows.iter().map(|r| (r.kind, r.width)).collect();
        assert_eq!(
            plans,
            [
                (PlanKind::Tls, 1),
                (PlanKind::Tls, 2),
                (PlanKind::Dswp, 1),
                (PlanKind::Dswp, 2)
            ]
        );
        assert!(kernel.rows.iter().all(|r| r.k >= 1));
        let table = render_native_table(&[kernel]);
        let rows = table.lines().filter(|l| l.starts_with("197.parser"));
        assert_eq!(rows.count(), 4, "{table}");
        assert!(
            table.contains("56 native runs, each byte-identical"),
            "{table}"
        );
    }
}
