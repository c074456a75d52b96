//! Shared workload infrastructure: work metering, deterministic
//! randomness, input sizing, and the [`Workload`] trait.

use crate::meta::WorkloadMeta;
use crate::native::{KernelLoop, VersionedJob};
use seqpar::{IterationRecord, IterationTrace};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{FuncId, Program};
use std::fmt;

/// Input scale, mirroring SPEC's `test` / `train` / `ref` sets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Smallest inputs: seconds of work, used by unit tests.
    Test,
    /// Medium inputs, used by integration tests and quick sweeps.
    #[default]
    Train,
    /// Full-size inputs, used by the figure-regeneration harness.
    Ref,
}

impl InputSize {
    /// A scale factor applied to input-size parameters: 1, 4, 16.
    pub fn factor(self) -> u64 {
        match self {
            InputSize::Test => 1,
            InputSize::Train => 4,
            InputSize::Ref => 16,
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputSize::Test => f.write_str("test"),
            InputSize::Train => f.write_str("train"),
            InputSize::Ref => f.write_str("ref"),
        }
    }
}

/// A work-unit counter, the stand-in for the paper's hardware performance
/// counters (§3.1).
///
/// Kernels call [`WorkMeter::add`] as they execute real operations; the
/// accumulated count becomes the task's cost in simulator cycles. Because
/// the counts come from the operations the kernel genuinely performs, the
/// *relative* task costs — and their variance, which drives load-balance
/// effects — are faithful even though the absolute unit is arbitrary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkMeter {
    cycles: u64,
}

impl WorkMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues `n` work units.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.cycles += n;
    }

    /// The accumulated count.
    pub fn total(&self) -> u64 {
        self.cycles
    }

    /// Returns the accumulated count and resets the meter — used at phase
    /// boundaries to split one iteration's work into A/B/C costs.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.cycles)
    }
}

/// A small, fast, reproducible PRNG (xorshift64*).
///
/// Workload inputs must be bit-identical across runs and platforms so the
/// experiment harness is deterministic; this generator is fully specified
/// here rather than borrowed from a crate whose stream might change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed.max(1) }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A random boolean that is true with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The IR-side model of a workload's hot loop: the program, the function
/// containing the loop, and the profile a profiling run would produce.
#[derive(Debug)]
pub struct IrModel {
    /// The whole-program model.
    pub program: Program,
    /// The function containing the parallelized loop.
    pub func: FuncId,
    /// Profile data for the loop.
    pub profile: LoopProfile,
}

/// One SPEC CINT2000-style benchmark kernel.
pub trait Workload: fmt::Debug {
    /// Static information about the benchmark (Table 1 row).
    fn meta(&self) -> WorkloadMeta;

    /// The hot loop at `size`, described once: its state before
    /// iteration 0, one step that runs an iteration on live state, what a
    /// restore point keeps, and the rule that records each step. Building
    /// it generates the inputs and runs no iteration.
    fn kernel(&self, size: InputSize) -> KernelLoop;

    /// Runs the kernel on the given input size and returns the measured
    /// iteration trace of the parallelized loop: one pass of
    /// [`Workload::kernel`], keeping no output and no restore point.
    fn trace(&self, size: InputSize) -> IterationTrace {
        self.kernel(size).trace()
    }

    /// The IR model of the hot loop for the compiler pipeline.
    fn ir_model(&self) -> IrModel;

    /// The kernel packaged for real-thread execution: the same steps as
    /// [`Workload::trace`], with every iteration re-executable on worker
    /// threads inside a version of a
    /// [`ConcurrentVersionedMemory`](seqpar_specmem::ConcurrentVersionedMemory)
    /// and its checksum tail folded at commit. Building it runs no
    /// iteration: its first [`sequential`](VersionedJob::sequential) run
    /// is the one pass that also records its trace, and the first plan
    /// with two or more seats keeps its restore points.
    /// This is the one native packaging: benchmarks and figures run its
    /// [`job_spec`](VersionedJob::job_spec) on an
    /// [`Engine`](seqpar_runtime::Engine), and the differential tests
    /// derive their deterministic replay from the same spec.
    fn versioned_job(&self, size: InputSize) -> VersionedJob {
        VersionedJob::recording(self.kernel(size))
    }
}

/// Human-readable stage names for a plan with `stage_count` stages —
/// the labels `seqpar-trace` and the Chrome-trace exporter attach to
/// pipeline stages.
///
/// Every workload in the suite runs either the three-phase DSWP
/// decomposition (A reads, a replicated B transforms, C writes) or the
/// single-stage TLS graph, so those two shapes get their paper names;
/// any other width falls back to generic `stage N` labels.
///
/// ```
/// let labels = seqpar_workloads::stage_labels(3);
/// assert_eq!(labels[1], "B (transform)");
/// assert_eq!(seqpar_workloads::stage_labels(1), vec!["TLS".to_string()]);
/// ```
pub fn stage_labels(stage_count: u8) -> Vec<String> {
    match stage_count {
        1 => vec!["TLS".to_string()],
        3 => vec![
            "A (read)".to_string(),
            "B (transform)".to_string(),
            "C (write)".to_string(),
        ],
        n => (0..n).map(|s| format!("stage {s}")).collect(),
    }
}

/// What the annealers' record rule remembers: for every move in order,
/// the nets it touched if it was accepted.
pub(crate) type History = Vec<Option<Vec<u32>>>;

/// The annealers' conflict window (vpr, twolf): how many in-flight
/// earlier moves a speculative move can collide with (bounded by
/// machine width).
const WINDOW: usize = 32;

/// The annealers' record rule (vpr, twolf): a move depends on the
/// latest *accepted* move among the last [`WINDOW`] that touched one of
/// the nets in `touched`, or that ran at most two moves before it —
/// every accepted move updates the global cost the next ones read, so
/// misspeculation tracks the acceptance rate. This move joins `recent`.
pub(crate) fn annealer_record(
    recent: &mut History,
    accepted: bool,
    touched: Vec<u32>,
    work: u64,
) -> IterationRecord {
    let i = recent.len();
    let mut record = IterationRecord::new(1, work, 1);
    record.misspec_on = (i.saturating_sub(WINDOW)..i)
        .rev()
        .find(|&j| {
            recent[j]
                .as_ref()
                .is_some_and(|nets| nets.iter().any(|n| touched.contains(n)) || j + 2 >= i)
        })
        .map(|j| j as u64);
    recent.push(accepted.then_some(touched));
    record
}

/// FNV-1a, the digest tests take of a kernel's committed output.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Folds more bytes into a running FNV-1a-style hash — the loop-carried
/// accumulator form the versioned workloads thread through memory
/// (seeded with 0, the value an unwritten [`Addr`](seqpar_specmem::Addr)
/// reads, rather than the FNV offset basis).
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Generates `len` bytes of English-like text, deterministic in `seed`.
///
/// Compression workloads need realistically compressible input: this
/// produces word-shaped tokens from a Zipf-ish vocabulary with spaces and
/// punctuation, compressing to roughly half its size under LZ77.
pub fn synthetic_text(len: usize, seed: u64) -> Vec<u8> {
    const VOCAB: &[&str] = &[
        "the",
        "of",
        "and",
        "to",
        "in",
        "a",
        "is",
        "that",
        "for",
        "it",
        "was",
        "on",
        "are",
        "with",
        "as",
        "be",
        "at",
        "one",
        "have",
        "this",
        "from",
        "or",
        "had",
        "by",
        "word",
        "but",
        "what",
        "some",
        "we",
        "can",
        "out",
        "other",
        "were",
        "all",
        "there",
        "when",
        "up",
        "use",
        "your",
        "how",
        "said",
        "an",
        "each",
        "she",
        "which",
        "their",
        "time",
        "processor",
        "memory",
        "thread",
        "pipeline",
        "compiler",
        "speculative",
        "parallel",
    ];
    let mut rng = Prng::new(seed);
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        // Zipf-ish: square the uniform draw to favour early words.
        let u = rng.unit();
        let idx = ((u * u) * VOCAB.len() as f64) as usize;
        out.extend_from_slice(VOCAB[idx.min(VOCAB.len() - 1)].as_bytes());
        match rng.below(16) {
            0 => out.extend_from_slice(b". "),
            1 => out.extend_from_slice(b", "),
            _ => out.push(b' '),
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_takes() {
        let mut m = WorkMeter::new();
        m.add(5);
        m.add(7);
        assert_eq!(m.total(), 12);
        assert_eq!(m.take(), 12);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn prng_is_deterministic_and_seed_sensitive() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        let mut c = Prng::new(43);
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn prng_below_respects_bound() {
        let mut r = Prng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn prng_unit_is_in_range_and_roughly_uniform() {
        let mut r = Prng::new(9);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let mut r = Prng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn fnv1a_distinguishes_inputs() {
        assert_ne!(fnv1a(*b"hello"), fnv1a(*b"hellp"));
        assert_eq!(fnv1a(*b"x"), fnv1a(*b"x"));
    }

    #[test]
    fn synthetic_text_is_deterministic_and_sized() {
        let a = synthetic_text(1000, 1);
        let b = synthetic_text(1000, 1);
        let c = synthetic_text(1000, 2);
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Text-ish: mostly lowercase letters and spaces.
        let letters = a
            .iter()
            .filter(|b| b.is_ascii_lowercase() || **b == b' ')
            .count();
        assert!(letters as f64 / a.len() as f64 > 0.9);
    }

    #[test]
    fn input_size_factors_scale_up() {
        assert!(InputSize::Test.factor() < InputSize::Train.factor());
        assert!(InputSize::Train.factor() < InputSize::Ref.factor());
        assert_eq!(InputSize::default(), InputSize::Train);
    }
}
