//! Static conflict-density profiles.
//!
//! The audit pass in `seqpar-analysis` predicts, *before anything
//! runs*, how often concurrent iterations of a parallelized loop will
//! conflict on shared memory: for every address region (abstract
//! object) with a loop-carried write that no exemption (commutativity,
//! reduction privatization, Y-branch reset) removes, it records the
//! profile-observed manifestation frequency of the carried write at
//! iteration distance one. The [`ConflictProfile`] aggregates those
//! regions into a per-iteration conflict probability, scaled by the
//! replication factor the plan gives the parallel stage.
//!
//! The profile lives in this crate, below both `seqpar-analysis`, whose
//! audit pass computes it, and `seqpar`, whose parallelized loop keeps
//! it at replication 1. No plan carries it, and the executor never reads
//! it: the lint table prices it for a plan's widest pool, and the tuner
//! prices each candidate's conflict probes from it.

/// One address region's predicted contribution to conflicts.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionConflict {
    /// Display name of the abstract object (global or allocation site).
    pub region: String,
    /// Profile-observed frequency of the region's loop-carried write
    /// manifesting at iteration distance one (`1.0` = every iteration).
    pub carried_freq: f64,
    /// How many loop-resident accesses touch the region.
    pub accesses: usize,
}

/// The static conflict-density estimate for one parallelized loop.
///
/// Densities are expressed in permille (conflicts per thousand
/// committed iterations).
///
/// ```
/// use seqpar_runtime::{ConflictProfile, RegionConflict};
///
/// // One hot accumulator whose carried write manifests on 20% of
/// // adjacent iteration pairs, observed over a 100-trip loop.
/// let profile = ConflictProfile::new(
///     vec![RegionConflict {
///         region: "acc".to_string(),
///         carried_freq: 0.2,
///         accesses: 2,
///     }],
///     100,
/// );
/// assert_eq!(profile.density_permille(), 200);
/// assert_eq!(profile.hottest().unwrap().region, "acc");
///
/// // Six iterations in flight give each carried write five concurrent
/// // neighbours to collide with: 1 - (1 - 0.2)^5 ≈ 67%.
/// let wide = profile.scaled(6);
/// assert_eq!(wide.density_permille(), 672);
/// assert!(!wide.is_quiet());
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ConflictProfile {
    /// Per-region estimates, densest first.
    pub regions: Vec<RegionConflict>,
    /// The replication factor the estimate was scaled for: how many
    /// iterations run concurrently in the replicated stage. `1` for an
    /// unscaled (per-adjacent-pair) estimate.
    pub replication: usize,
    /// Profiled trip count of the loop, when known (`0` = unknown).
    pub trip_count: u64,
}

impl ConflictProfile {
    /// Builds a profile from per-region estimates (any order; sorted
    /// densest first here) at replication factor 1.
    pub fn new(mut regions: Vec<RegionConflict>, trip_count: u64) -> Self {
        regions.sort_by(|a, b| {
            b.carried_freq
                .partial_cmp(&a.carried_freq)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.region.cmp(&b.region))
        });
        Self {
            regions,
            replication: 1,
            trip_count,
        }
    }

    /// The profile re-scaled for `replication` concurrent iterations.
    ///
    /// With `k` iterations in flight, a carried write at distance one
    /// conflicts with any of up to `k - 1` concurrent neighbours; the
    /// per-iteration conflict probability for an independent-manifest
    /// model is `1 - (1 - f)^(k-1)`.
    pub fn scaled(&self, replication: usize) -> Self {
        Self {
            regions: self.regions.clone(),
            replication: replication.max(1),
            trip_count: self.trip_count,
        }
    }

    /// The predicted per-iteration conflict probability across all
    /// regions, in permille, at this profile's replication factor.
    ///
    /// Independent-manifest model: an iteration survives conflict-free
    /// only if every region's carried write stays silent against every
    /// concurrent neighbour.
    pub fn density_permille(&self) -> u32 {
        let neighbours = self.replication.saturating_sub(1).max(1) as f64;
        let mut survive = 1.0f64;
        for r in &self.regions {
            let f = r.carried_freq.clamp(0.0, 1.0);
            survive *= (1.0 - f).powf(neighbours);
        }
        let density = 1.0 - survive;
        // f64 in [0, 1000]: the cast is exact enough and in range.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (density * 1000.0).round().min(1000.0) as u32
        }
    }

    /// Whether the estimate found no conflict-carrying region at all.
    pub fn is_quiet(&self) -> bool {
        self.regions.is_empty()
    }

    /// The densest region, if any.
    pub fn hottest(&self) -> Option<&RegionConflict> {
        self.regions.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(name: &str, freq: f64) -> RegionConflict {
        RegionConflict {
            region: name.to_string(),
            carried_freq: freq,
            accesses: 2,
        }
    }

    #[test]
    fn regions_sort_densest_first() {
        let p = ConflictProfile::new(vec![region("cold", 0.05), region("hot", 0.9)], 100);
        assert_eq!(p.hottest().unwrap().region, "hot");
    }

    #[test]
    fn quiet_profile_has_zero_density() {
        let p = ConflictProfile::new(vec![], 100);
        assert!(p.is_quiet());
        assert_eq!(p.density_permille(), 0);
        assert_eq!(p.scaled(8).density_permille(), 0);
    }

    #[test]
    fn density_grows_with_replication() {
        let p = ConflictProfile::new(vec![region("acc", 0.2)], 100);
        let d1 = p.density_permille();
        let d4 = p.scaled(4).density_permille();
        let d8 = p.scaled(8).density_permille();
        assert_eq!(d1, 200);
        assert!(d1 < d4 && d4 < d8, "{d1} {d4} {d8}");
        assert!(d8 <= 1000);
    }

    #[test]
    fn certain_conflict_saturates_at_1000() {
        let p = ConflictProfile::new(vec![region("acc", 1.0)], 10).scaled(8);
        assert_eq!(p.density_permille(), 1000);
    }

    #[test]
    fn scaling_preserves_regions_and_trip_count() {
        let p = ConflictProfile::new(vec![region("acc", 0.25)], 64).scaled(4);
        assert_eq!(p.replication, 4);
        assert_eq!(p.trip_count, 64);
        assert_eq!(p.regions.len(), 1);
        // Scaling by zero clamps to one concurrent iteration.
        assert_eq!(p.scaled(0).replication, 1);
    }
}
