//! Order statistics for benchmark samples.
//!
//! Timings are reported as a median plus a tail percentile, and a tail
//! percentile is only meaningful with enough samples beyond it:
//! [`Samples::tail`] refuses (returns `None`) unless at least
//! [`MIN_BEYOND`] samples lie strictly above the reported rank.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` into a sample set.
    ///
    /// # Panics
    ///
    /// Panics on NaN: a NaN timing is a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median, or 0 for an empty set.
    pub fn median(&self) -> f64 {
        median(&self.sorted)
    }

    /// Zero-based nearest-rank index of the `p`-th percentile
    /// (`0 < p <= 100`) among `n` samples.
    fn rank(n: usize, p: f64) -> usize {
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
    }

    /// The `p`-th percentile by nearest rank, provided at least
    /// [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let idx = Self::rank(n, p);
        (n - 1 - idx >= MIN_BEYOND).then(|| self.sorted[idx])
    }

    /// The highest of p99, p95, p90, p75 that [`Self::tail`] supports,
    /// with its value.
    pub fn highest_tail(&self) -> Option<(f64, f64)> {
        [99.0, 95.0, 90.0, 75.0].into_iter().find_map(|p| self.tail(p).map(|v| (p, v)))
    }
}

/// Median of a slice (mean of the two middle samples for even counts), or
/// 0 when empty — layers a workload never touches report 0.
pub fn median(values: &[f64]) -> f64 {
    hyperdrive_types::stats::median(values).unwrap_or(0.0)
}

/// Arithmetic mean of a slice, or 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    hyperdrive_types::stats::mean(values).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|v| v as f64).collect())
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!((mean(&[1.0, 2.0, 6.0]), mean(&[])), (3.0, 0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190: exactly ten samples beyond.
        assert_eq!(ramp(200).tail(95.0), Some(190.0));
        // One sample fewer leaves nine beyond the reported rank.
        assert_eq!(ramp(199).tail(95.0), None);
        // p50 of 21 samples is rank 11: ten beyond; of 20, rank 10: ten beyond.
        assert_eq!(ramp(21).tail(50.0), Some(11.0));
        assert_eq!(ramp(19).tail(50.0), None);
        assert_eq!(Samples::default().tail(50.0), None);
    }

    #[test]
    fn picker_takes_the_highest_supported_percentile() {
        assert_eq!(ramp(1000).highest_tail(), Some((99.0, 990.0)));
        assert_eq!(ramp(500).highest_tail(), Some((95.0, 475.0)));
        assert_eq!(ramp(100).highest_tail(), Some((90.0, 90.0)));
        assert_eq!(ramp(40).highest_tail(), Some((75.0, 30.0)));
        assert_eq!(ramp(39).highest_tail(), None);
    }
}
