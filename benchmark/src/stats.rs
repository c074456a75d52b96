//! Order statistics for the harness: every reported timing is a median
//! with its quartiles and sample count, and the layer probes add the
//! minimum and the median absolute deviation.

/// Median, quartiles, extremes and spread of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

/// The `q`-quantile of `sorted` by linear interpolation between the two
/// nearest ranks (the "inclusive" method: `q = 0` is the minimum and
/// `q = 1` the maximum).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The smallest sample: the harness's estimate of a wall time on a quiet
/// host. Interference from other tenants only ever adds time, and on the
/// shared two-core sandbox it comes in bursts of seconds that move a
/// median by tens of percent and the minimum hardly at all.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best(samples: &[f64]) -> f64 {
    samples
        .iter()
        .copied()
        .reduce(f64::min)
        .expect("best of an empty sample set")
}

/// Summarises `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let med = quantile_sorted(&s, 0.5);
    let deviations: Vec<f64> = s.iter().map(|x| (x - med).abs()).collect();
    Summary {
        n: s.len(),
        min: s[0],
        p25: quantile_sorted(&s, 0.25),
        median: med,
        p75: quantile_sorted(&s, 0.75),
        max: s[s.len() - 1],
        mad: median(&deviations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            (s.min, s.p25, s.median, s.p75, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.p25, s.median, s.p75), (17.5, 25.0, 32.5));
        assert_eq!(s.n, 4);
    }

    #[test]
    fn mad_ignores_a_single_outlier() {
        // Deviations from the median 3 are 2,1,0,1,997: their median is 1.
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 1000.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0);
    }
}
