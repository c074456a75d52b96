//! Reporting which techniques a parallelization required (paper Table 1).

use std::fmt;

/// A technique from the paper's toolbox (the "Techniques Required" column
/// of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Technique {
    /// Decoupled software pipelining (always present).
    Dswp,
    /// TLS-style versioned memory for privatization/speculation.
    TlsMemory,
    /// Alias speculation.
    AliasSpeculation,
    /// Value speculation.
    ValueSpeculation,
    /// Control speculation.
    ControlSpeculation,
    /// Silent-store speculation.
    SilentStoreSpeculation,
    /// The *Commutative* annotation.
    Commutative,
    /// The *Y-branch* annotation.
    YBranch,
    /// Nested (multi-loop or unrolled-recursion) parallelization.
    Nested,
    /// Reduction expansion (privatized partial results).
    ReductionExpansion,
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Technique::Dswp => "DSWP",
            Technique::TlsMemory => "TLS Memory",
            Technique::AliasSpeculation => "Alias Speculation",
            Technique::ValueSpeculation => "Value Speculation",
            Technique::ControlSpeculation => "Control Speculation",
            Technique::SilentStoreSpeculation => "Silent Store Speculation",
            Technique::Commutative => "Commutative",
            Technique::YBranch => "Y-branch",
            Technique::Nested => "Nested",
            Technique::ReductionExpansion => "Reduction Expansion",
        };
        f.write_str(s)
    }
}

/// Summary of one loop's parallelization.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelizationReport {
    /// Name of the function containing the loop.
    pub function: String,
    /// Techniques required, sorted and deduplicated.
    pub techniques: Vec<Technique>,
    /// Per-stage weight of one iteration (A, B, C).
    pub stage_weights: [u64; 3],
    /// Expected per-iteration misspeculation probability.
    pub expected_misspec: f64,
    /// Dependence edges removed by annotations.
    pub annotation_edges_removed: usize,
    /// Dependence edges removed by speculation.
    pub speculated_edges: usize,
}

impl ParallelizationReport {
    /// Fraction of one iteration's weight in the parallel stage.
    pub fn parallel_fraction(&self) -> f64 {
        let total: u64 = self.stage_weights.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.stage_weights[1] as f64 / total as f64
        }
    }

    /// Whether `technique` was required.
    pub fn uses(&self, technique: Technique) -> bool {
        self.techniques.contains(&technique)
    }

    /// An upper bound on pipeline speedup with unlimited cores, from the
    /// stage balance: the serial stages and misspeculated iterations
    /// bound throughput.
    pub fn ideal_speedup_bound(&self) -> f64 {
        let total: u64 = self.stage_weights.iter().sum();
        let serial_per_iter = self.stage_weights[0].max(self.stage_weights[2]) as f64
            + self.expected_misspec * self.stage_weights[1] as f64;
        if serial_per_iter == 0.0 {
            f64::INFINITY
        } else {
            total as f64 / serial_per_iter
        }
    }
}

impl fmt::Display for ParallelizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let techniques: Vec<String> = self.techniques.iter().map(Technique::to_string).collect();
        write!(
            f,
            "{}: A={} B={} C={} (parallel {:.0}%), misspec {:.2}%, techniques: {}",
            self.function,
            self.stage_weights[0],
            self.stage_weights[1],
            self.stage_weights[2],
            self.parallel_fraction() * 100.0,
            self.expected_misspec * 100.0,
            techniques.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ParallelizationReport {
        ParallelizationReport {
            function: "uloop".into(),
            techniques: vec![Technique::Dswp, Technique::Commutative],
            stage_weights: [10, 80, 10],
            expected_misspec: 0.05,
            annotation_edges_removed: 2,
            speculated_edges: 3,
        }
    }

    #[test]
    fn parallel_fraction_from_weights() {
        assert!((report().parallel_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn uses_checks_membership() {
        let r = report();
        assert!(r.uses(Technique::Commutative));
        assert!(!r.uses(Technique::YBranch));
    }

    #[test]
    fn ideal_speedup_bound_accounts_for_serial_stages_and_misspec() {
        let r = report();
        // serial/iter = max(10,10) + 0.05*80 = 14; total = 100.
        assert!((r.ideal_speedup_bound() - 100.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn fully_parallel_report_is_unbounded() {
        let r = ParallelizationReport {
            stage_weights: [0, 100, 0],
            expected_misspec: 0.0,
            ..report()
        };
        assert!(r.ideal_speedup_bound().is_infinite());
    }

    #[test]
    fn display_mentions_techniques() {
        let s = report().to_string();
        assert!(s.contains("Commutative"), "{s}");
        assert!(s.contains("uloop"), "{s}");
    }

    #[test]
    fn zero_weight_report_has_zero_fraction() {
        let r = ParallelizationReport {
            stage_weights: [0, 0, 0],
            ..report()
        };
        assert_eq!(r.parallel_fraction(), 0.0);
    }
}
