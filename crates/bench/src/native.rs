//! The one native instrument: a kernel's plans on real OS threads, each
//! run against repeated runs of its own sequential loop, every output
//! byte-checked, and the kernel's two-seat rows certified by the host's
//! measured capacity. The native table runs the TLS plan at one and two
//! seats; `seqpar-tune` runs every row of its table through the same
//! code. The native executor runs one stage; the three-phase plan is the
//! simulator's (EXPERIMENTS.md "The native executor runs one stage" has
//! the last table that ran it natively).
//!
//! A row's engine has a worker per seat of its plan but one
//! ([`EngineConfig::for_plan`]), and [`Engine::new`] spawns at least one.

use crate::{geomean, misspec_rate, simulate_graph, PlanKind};
use seqpar_runtime::{Engine, EngineConfig, ExecConfig, ExecutionPlan, FaultPlan};
use seqpar_workloads::{InputSize, VersionedJob, Workload};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Once};
use std::time::{Duration, Instant};

/// The widths the native table runs the TLS plan at.
pub const NATIVE_WIDTHS: [usize; 2] = [1, 2];

/// Alternated repeats behind each row's medians.
pub const NATIVE_REPEATS: usize = 7;

/// The capacity both readings around a kernel must reach for its
/// two-seat rows to count as two cores' work.
pub const CERTIFIED_CAPACITY: f64 = 1.8;

/// How far a capacity reading may sit above what the pair of spinning
/// threads can use of the host before it reads as a slow one-thread
/// reference rather than as capacity.
pub const CAPACITY_SLACK: f64 = 0.05;

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

impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} [{:.2}]", self.median, self.iqr)
    }
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

/// One plan: what [`NATIVE_REPEATS`] alternated repeats of the
/// sequential loop and a native run read.
#[derive(Clone, Debug)]
pub struct NativeRow {
    /// Seats the plan is built for ([`ExecutionPlan::cores_required`]).
    pub width: usize,
    /// Iterations per task ([`VersionedJob::grain`]).
    pub k: usize,
    /// Median wall of the repeated sequential runs, in milliseconds.
    pub baseline_ms: f64,
    /// Sequential ÷ native wall, per repeat (above 1 is faster).
    pub native: Spread,
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
    /// CPUs the host exposed while the kernel ran.
    pub cpus: usize,
    /// One row per plan, in the order the plans were given.
    pub rows: Vec<NativeRow>,
}

impl NativeKernel {
    /// Whether both capacity readings [`certify`](certifies) two cores.
    pub fn certified(&self) -> bool {
        self.capacity.iter().all(|&c| certifies(c, self.cpus))
    }

    /// The two readings, named by whether they certify:
    /// `certified a/b` or `shared core a/b`.
    pub fn certificate(&self) -> String {
        let verdict = if self.certified() {
            "certified"
        } else {
            "shared core"
        };
        format!("{verdict} {:.2}/{:.2}", self.capacity[0], self.capacity[1])
    }
}

/// Whether one [`parallel_capacity`] reading on a host of `cpus` CPUs
/// shows two free cores: at least [`CERTIFIED_CAPACITY`], and at most
/// what the two spinning threads can use of the host (two CPUs, or
/// fewer on a smaller host) plus [`CAPACITY_SLACK`]. A reading above
/// that ceiling is a one-thread reference that ran slow.
pub fn certifies(reading: f64, cpus: usize) -> bool {
    let ceiling = cpus.min(2) as f64 + CAPACITY_SLACK;
    (CERTIFIED_CAPACITY..=ceiling).contains(&reading)
}

/// Runs one workload's `plans`, a row each in their order, between two
/// capacity readings. `fault_seed` arms [`FaultPlan::seeded`] on every
/// native run.
///
/// # Panics
///
/// Panics if any run's output differs from the job's first sequential
/// run: a wall of an execution that broke sequential semantics is no
/// reading.
pub fn native_kernel(
    w: &dyn Workload,
    size: InputSize,
    plans: &[ExecutionPlan],
    fault_seed: Option<u64>,
) -> NativeKernel {
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
    let rows = plans
        .iter()
        .map(|plan| native_row(w.meta().spec_id, &job, &oracle, plan, &config))
        .collect();
    NativeKernel {
        spec_id: w.meta().spec_id.to_string(),
        build_ms,
        first_run_ms,
        capacity: [before, parallel_capacity()],
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        rows,
    }
}

/// One row on a warmed engine sized to the plan. Repeat `r` runs the
/// sequential loop and the native run in an order rotated by `r`, so
/// neither always runs first.
fn native_row(
    spec_id: &str,
    job: &VersionedJob,
    oracle: &[u8],
    plan: &ExecutionPlan,
    config: &ExecConfig,
) -> NativeRow {
    let width = plan.cores_required();
    let engine = Engine::new(EngineConfig::for_plan(plan));
    engine.warm();
    let (mut baseline, mut ratios) = (Vec::new(), Vec::new());
    let (mut squashes, mut tasks, mut recovered) = (0, 0, 0);
    for r in 0..NATIVE_REPEATS {
        let (mut seq, mut native) = (0.0, 0.0);
        for slot in (0..2).map(|i| (i + r) % 2) {
            if slot == 0 {
                let run = job.sequential();
                assert_eq!(
                    run.output, oracle,
                    "{spec_id}: the sequential loop does not repeat"
                );
                seq = run.wall.as_secs_f64();
                continue;
            }
            let (spec, _mem) = job.job_spec(plan, config.clone());
            let report = engine
                .run(&spec)
                .expect("plan matches machine and faults are recoverable");
            assert_eq!(
                report.output, oracle,
                "{spec_id}: native output diverged from sequential under tls({width})"
            );
            native = report.wall.as_secs_f64();
            squashes += report.squashes;
            tasks += report.tasks_committed;
            recovered += report.recovery.panics_recovered;
        }
        baseline.push(seq);
        ratios.push(seq / native);
    }
    // The graph the runs executed: the job's grain is its first clock's.
    let graph = job.graph(plan);
    NativeRow {
        width,
        k: job.grain(plan),
        baseline_ms: 1e3 * Spread::of(&baseline).median,
        native: Spread::of(&ratios),
        squash_ratio: squashes as f64 / tasks.max(1) as f64,
        sim_misspec: misspec_rate(&simulate_graph(&graph, width, PlanKind::Tls)),
        recovered,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders kernels' rows as one table. A two-seat row carries its
/// kernel's [`certificate`](NativeKernel::certificate), and the footer's
/// geomean counts the certified `tls(2)` rows of [`CLEAN_KERNELS`] only.
pub fn render_native_table(kernels: &[NativeKernel]) -> String {
    let mut out = format!(
        "{:<14}{:<16}{:>5}{:>10}{:>16}{:>8}{:>13}{:>10}{:>10}{:>11}  certificate\n",
        "kernel",
        "plan",
        "k",
        "seq(ms)",
        "native",
        "squash",
        "sim-misspec",
        "build(ms)",
        "first(ms)",
        "recovered",
    );
    let mut clean = Vec::new();
    for kernel in kernels {
        for row in &kernel.rows {
            let plan = format!("tls({})", row.width);
            let certificate = match row.width {
                1 => "-".to_string(),
                _ => kernel.certificate(),
            };
            out.push_str(&format!(
                "{:<14}{plan:<16}{:>5}{:>10.2}{:>16}{:>8.3}{:>13.3}{:>10.2}{:>10.2}{:>11}  {certificate}\n",
                kernel.spec_id,
                row.k,
                row.baseline_ms,
                row.native.to_string(),
                row.squash_ratio,
                row.sim_misspec,
                kernel.build_ms,
                kernel.first_run_ms,
                row.recovered,
            ));
            if kernel.certified()
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
            "geomean over {} of {} clean kernels at tls(2), certified rows only: {:.2}\n",
            clean.len(),
            CLEAN_KERNELS.len(),
            geomean(clean.iter().map(|r| r.native.median)),
        ));
    }
    let runs: usize = kernels.iter().map(|k| NATIVE_REPEATS * k.rows.len()).sum();
    out.push_str(&format!(
        "{runs} native runs, each byte-identical to the sequential loop\n"
    ));
    out
}

/// Throughput of two spinning threads ÷ that of one: ~2 on two free
/// cores, ~1 when the second core is not really there. The one-thread
/// reference is the best one-thread spin this process has read, the two
/// around the pair included, so one slow window cannot read as extra
/// capacity. A process's first reading spins one more one-thread window
/// first, so that its reference, too, is the best of three.
pub fn parallel_capacity() -> f64 {
    static WARM_UP: Once = Once::new();
    let window = Duration::from_millis(50);
    WARM_UP.call_once(|| {
        best_one_thread(spin_throughput(1, window));
    });
    best_one_thread(spin_throughput(1, window));
    let two = spin_throughput(2, window);
    let one = best_one_thread(spin_throughput(1, window));
    two / one.max(1.0)
}

/// Folds a one-thread `reading` into the best this process has read and
/// returns that best. A statistic that publishes nothing else, so
/// `Relaxed`; non-negative floats order as their bits do.
fn best_one_thread(reading: f64) -> f64 {
    static BEST: AtomicU64 = AtomicU64::new(0);
    f64::from_bits(BEST.fetch_max(reading.to_bits(), Ordering::Relaxed)).max(reading)
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

    fn row(width: usize, median: f64) -> NativeRow {
        let spread = Spread { median, iqr: 0.1 };
        NativeRow {
            width,
            k: 1,
            baseline_ms: 10.0,
            native: spread,
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
            cpus: 2,
            rows: vec![row(1, 0.9), row(2, tls2)],
        }
    }

    #[test]
    fn a_certificate_reads_between_the_floor_and_the_host() {
        assert!(!certifies(2.43, 2), "above two CPUs");
        assert!(certifies(1.95, 2));
        assert!(!certifies(1.7, 2), "below the floor");
        assert!(certifies(2.04, 2) && !certifies(2.06, 2));
        // Two spinning threads use at most two CPUs of a larger host,
        // and one CPU never certifies two.
        assert!(!certifies(2.43, 8));
        assert!(!certifies(1.95, 1));
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
            // A reading above the host's two CPUs fails, too.
            kernel("186.crafty", [1.9, 2.43], 1.2),
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
        assert!(line("186.crafty", "tls(2)").ends_with("shared core 1.90/2.43"));
        assert!(line("176.gcc", "tls(1)").ends_with("  -"));
        assert!(
            table.contains(
                "geomean over 1 of 5 clean kernels at tls(2), certified rows only: 1.60\n"
            ),
            "{table}"
        );
        assert!(table.contains("70 native runs"), "{table}");

        let shared = render_native_table(&kernels[1..4]);
        assert!(shared.contains("no two-core result"), "{shared}");
    }

    /// A run whose bytes differ from the oracle panics, so a kernel that
    /// returns its rows ran every one of them byte-identical.
    #[test]
    fn a_kernel_reads_one_checked_row_per_plan_and_width() {
        let w = seqpar_workloads::workload_by_name("197.parser").expect("parser exists");
        let plans = NATIVE_WIDTHS.map(|width| PlanKind::Tls.plan(width));
        let kernel = native_kernel(w.as_ref(), InputSize::Test, &plans, None);
        let widths: Vec<_> = kernel.rows.iter().map(|r| r.width).collect();
        assert_eq!(widths, [1, 2]);
        assert!(kernel.rows.iter().all(|r| r.k >= 1));
        let table = render_native_table(&[kernel]);
        let rows: Vec<_> = table
            .lines()
            .filter(|l| l.starts_with("197.parser"))
            .collect();
        assert_eq!(rows.len(), 2, "{table}");
        assert!(
            rows[0].contains("tls(1)") && rows[1].contains("tls(2)"),
            "{table}"
        );
        assert!(
            table.contains("14 native runs, each byte-identical"),
            "{table}"
        );
    }
}
