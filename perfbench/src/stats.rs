//! Order statistics over timing samples.

/// A timing distribution reduced to the figures the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Number of samples the percentiles were taken over.
    pub n: usize,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between the two closest ranks (the "inclusive" definition: the minimum
/// is q = 0 and the maximum q = 1).  `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median, 90th percentile and sample count.
pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        p50: quantile(samples, 0.5),
        p90: quantile(samples, 0.9),
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks_and_count_samples() {
        let samples: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(
            s,
            Summary {
                p50: 6.0,
                p90: 10.0,
                n: 11
            }
        );
        // Even count: the median sits halfway between the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[10.0, 20.0], 0.9), 19.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(summarize(&[]).n, 0);
    }
}
