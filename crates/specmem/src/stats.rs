//! Counters reported by the versioned memory model.

use std::fmt;

/// Operation counters accumulated by a
/// [`ConcurrentVersionedMemory`](crate::ConcurrentVersionedMemory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Versions opened.
    pub begins: u64,
    /// Speculative reads.
    pub reads: u64,
    /// Speculative writes (including silent ones).
    pub writes: u64,
    /// Reads satisfied by eagerly forwarding an *uncommitted* store from
    /// an earlier active version (paper §2.1: forwarding avoids the
    /// misspeculation a committed-state-only read would suffer).
    pub forwards: u64,
    /// Writes elided because the stored value was already visible.
    pub silent_stores: u64,
    /// Later versions squashed by conflicting writes or rollbacks.
    pub violations: u64,
    /// Versions committed.
    pub commits: u64,
    /// Versions rolled back.
    pub rollbacks: u64,
}

impl MemStats {
    /// Fraction of writes that were silent, or `0.0` with no writes.
    pub fn silent_ratio(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.silent_stores as f64 / self.writes as f64
        }
    }

    /// Fraction of opened versions that were squashed, or `0.0`.
    pub fn violation_ratio(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            self.violations as f64 / self.begins as f64
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "begins={} reads={} writes={} forwards={} silent={} violations={} commits={} rollbacks={}",
            self.begins,
            self.reads,
            self.writes,
            self.forwards,
            self.silent_stores,
            self.violations,
            self.commits,
            self.rollbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = MemStats::default();
        assert_eq!(s.silent_ratio(), 0.0);
        assert_eq!(s.violation_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute_fractions() {
        let s = MemStats {
            writes: 4,
            silent_stores: 1,
            begins: 10,
            violations: 5,
            ..Default::default()
        };
        assert_eq!(s.silent_ratio(), 0.25);
        assert_eq!(s.violation_ratio(), 0.5);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!MemStats::default().to_string().is_empty());
    }
}
