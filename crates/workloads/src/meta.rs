//! Static per-benchmark information — the rows of the paper's Table 1.

use seqpar::Technique;

/// One row of Table 1: the loop parallelized, its share of execution
/// time, the source lines the programmer changed (total, and within the
/// augmented sequential model only), and the techniques required.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadMeta {
    /// SPEC identifier, e.g. `"164.gzip"`.
    pub spec_id: &'static str,
    /// Short name, e.g. `"gzip"`.
    pub name: &'static str,
    /// The loop(s) parallelized, as `function (file:lines)`.
    pub loops: &'static [&'static str],
    /// Approximate share of execution time spent in the loop(s), percent.
    pub exec_time_pct: u32,
    /// Source lines changed by the programmer, total.
    pub lines_changed_all: u32,
    /// Source lines changed within the augmented sequential model
    /// (Y-branch / Commutative annotations only).
    pub lines_changed_model: u32,
    /// Techniques the parallelization required.
    pub techniques: &'static [Technique],
    /// Best speedup reported by the paper (Table 2).
    pub paper_speedup: f64,
    /// Thread count at which the paper's best speedup occurred (Table 2).
    pub paper_threads: u32,
}

impl WorkloadMeta {
    /// The paper's "Moore's Law" reference speedup for `threads` cores:
    /// 1.4× per doubling of cores (Table 2).
    pub fn moore_speedup(threads: u32) -> f64 {
        1.4f64.powf((threads.max(1) as f64).log2())
    }

    /// The paper's ratio column: achieved speedup over the Moore's-law
    /// reference at the same thread count.
    pub fn paper_ratio(&self) -> f64 {
        self.paper_speedup / Self::moore_speedup(self.paper_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moore_speedup_is_1_4_per_doubling() {
        assert!((WorkloadMeta::moore_speedup(1) - 1.0).abs() < 1e-12);
        assert!((WorkloadMeta::moore_speedup(2) - 1.4).abs() < 1e-12);
        assert!((WorkloadMeta::moore_speedup(4) - 1.96).abs() < 1e-12);
        // Paper Table 2 gives 5.38 for 32 threads.
        assert!((WorkloadMeta::moore_speedup(32) - 5.378).abs() < 0.01);
        // And 3.71 for 15 threads (non-power-of-two).
        assert!((WorkloadMeta::moore_speedup(15) - 3.71).abs() < 0.03);
    }

    #[test]
    fn ratio_matches_paper_for_gzip() {
        let m = WorkloadMeta {
            spec_id: "164.gzip",
            name: "gzip",
            loops: &[],
            exec_time_pct: 100,
            lines_changed_all: 26,
            lines_changed_model: 2,
            techniques: &[],
            paper_speedup: 29.91,
            paper_threads: 32,
        };
        assert!((m.paper_ratio() - 5.56).abs() < 0.01);
    }
}
