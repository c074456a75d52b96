//! Profile data that refines static dependences.
//!
//! The paper's methodology (§3.1) runs a memory-profiling pass before
//! simulation and informs the simulator of the dynamic dependences that
//! *actually* occurred; speculation is then modelled as serialization only
//! when a speculated dependence manifests. These types carry that
//! information: per-edge manifestation frequencies, branch bias, and
//! value stability.

use seqpar_ir::{Function, InstId, ValueId};
use std::collections::HashMap;

/// Observed manifestation frequency of memory-dependence edges.
///
/// `freq(src, dst)` is the fraction of loop iterations in which the
/// dynamic dependence from `src` to `dst` actually occurred. Static
/// may-alias edges absent from the profile take [`MemProfile::default_freq`].
#[derive(Clone, Debug, PartialEq)]
pub struct MemProfile {
    entries: HashMap<(InstId, InstId), f64>,
    /// Frequency assumed for profiled-but-unrecorded edges.
    pub default_freq: f64,
}

impl Default for MemProfile {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            default_freq: 0.0,
        }
    }
}

impl MemProfile {
    /// Creates an empty profile where unobserved edges default to `0.0`
    /// (never manifested).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the dependence `src -> dst` manifested in `freq` of
    /// iterations.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is outside `0.0..=1.0`.
    pub fn record(&mut self, src: InstId, dst: InstId, freq: f64) {
        assert!(
            (0.0..=1.0).contains(&freq),
            "frequency must be in [0,1], got {freq}"
        );
        self.entries.insert((src, dst), freq);
    }

    /// Records a frequency keyed by the diagnostic labels of the involved
    /// instructions (convenience for workload models).
    ///
    /// # Panics
    ///
    /// Panics if either label is missing from `func`.
    pub fn record_by_label(&mut self, func: &Function, src: &str, dst: &str, freq: f64) {
        let find = |label: &str| {
            func.inst_ids()
                .find(|i| func.inst(*i).label.as_deref() == Some(label))
                .unwrap_or_else(|| panic!("no instruction labelled {label:?}"))
        };
        self.record(find(src), find(dst), freq);
    }

    /// The manifestation frequency of `src -> dst`.
    pub fn freq(&self, src: InstId, dst: InstId) -> f64 {
        self.entries
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_freq)
    }

    /// Whether any edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Observed taken-probability of conditional branches, keyed by the block
/// whose terminator branches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BranchProfile {
    entries: HashMap<seqpar_ir::BlockId, f64>,
}

impl BranchProfile {
    /// Creates an empty branch profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the branch terminating `block` takes its true path
    /// with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn record(&mut self, block: seqpar_ir::BlockId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        self.entries.insert(block, p);
    }

    /// The taken probability of the branch in `block`, if profiled.
    pub fn taken_prob(&self, block: seqpar_ir::BlockId) -> Option<f64> {
        self.entries.get(&block).copied()
    }

    /// Whether the branch is strongly biased (taken or not-taken with
    /// probability at least `bias`).
    pub fn is_biased(&self, block: seqpar_ir::BlockId, bias: f64) -> bool {
        self.taken_prob(block)
            .map(|p| p >= bias || p <= 1.0 - bias)
            .unwrap_or(false)
    }
}

/// Observed cross-iteration stability of values: the fraction of
/// iterations in which a value equals its previous-iteration value.
///
/// This is what nominates value-speculation candidates — e.g. 253.perlbmk's
/// `PL_stack_sp` having the same value at every `NEXTSTATE` (§4.1.3), or
/// 186.crafty's search state restored by `UnMakeMove` (§4.3.1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValueProfile {
    entries: HashMap<ValueId, f64>,
}

impl ValueProfile {
    /// Creates an empty value profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `value` is iteration-stable with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn record(&mut self, value: ValueId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        self.entries.insert(value, p);
    }

    /// The stability of `value`, if profiled.
    pub fn stability(&self, value: ValueId) -> Option<f64> {
        self.entries.get(&value).copied()
    }
}

/// All profile information about one loop, as produced by a profiling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopProfile {
    /// Memory-dependence manifestation frequencies.
    pub memory: MemProfile,
    /// Branch bias.
    pub branches: BranchProfile,
    /// Value stability.
    pub values: ValueProfile,
    /// Average iterations per invocation of the loop.
    pub trip_count: u64,
}

impl LoopProfile {
    /// Creates an empty profile with the given trip count.
    pub fn with_trip_count(trip_count: u64) -> Self {
        Self {
            trip_count,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_ir::{BlockId, FunctionBuilder};

    #[test]
    fn mem_profile_defaults_unrecorded_edges() {
        let mut p = MemProfile::new();
        p.record(InstId::new(1), InstId::new(2), 0.25);
        assert_eq!(p.freq(InstId::new(1), InstId::new(2)), 0.25);
        assert_eq!(p.freq(InstId::new(2), InstId::new(1)), 0.0);
        let with_default = MemProfile {
            default_freq: 1.0,
            ..MemProfile::new()
        };
        assert_eq!(with_default.freq(InstId::new(9), InstId::new(9)), 1.0);
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn mem_profile_rejects_bad_frequency() {
        MemProfile::new().record(InstId::new(0), InstId::new(1), 1.5);
    }

    #[test]
    fn record_by_label_resolves_instructions() {
        let mut b = FunctionBuilder::new("f");
        let _ = b.const_(1);
        b.label_last("producer");
        let _ = b.const_(2);
        b.label_last("consumer");
        b.ret(None);
        let f = b.into_function();
        let mut p = MemProfile::new();
        p.record_by_label(&f, "producer", "consumer", 0.5);
        assert_eq!(p.freq(InstId::new(0), InstId::new(1)), 0.5);
    }

    #[test]
    fn branch_bias_classification() {
        let mut p = BranchProfile::new();
        p.record(BlockId::new(0), 0.999);
        p.record(BlockId::new(1), 0.5);
        assert!(p.is_biased(BlockId::new(0), 0.95));
        assert!(!p.is_biased(BlockId::new(1), 0.95));
        assert!(!p.is_biased(BlockId::new(7), 0.95));
    }

    #[test]
    fn value_stability_round_trips() {
        let mut p = ValueProfile::new();
        p.record(ValueId::new(3), 0.97);
        assert_eq!(p.stability(ValueId::new(3)), Some(0.97));
        assert_eq!(p.stability(ValueId::new(4)), None);
    }
}
