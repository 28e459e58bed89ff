//! Small statistics toolbox used across the workspace.
//!
//! Keeping these few routines in-house avoids extra dependencies: the only
//! distribution machinery HyperDrive needs is the standard normal CDF (for
//! posterior-predictive probabilities), Gaussian sampling (Box–Muller), and
//! order statistics (percentiles, box-plot summaries).

use rand::Rng;

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population variance. Returns `None` for an empty slice.
pub fn variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn std_dev(values: &[f64]) -> Option<f64> {
    variance(values).map(f64::sqrt)
}

/// Linear-interpolation percentile, `q` in `[0, 1]`. Returns `None` for an
/// empty slice or a `q` outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("stats inputs must not be NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Five-number summary for box plots: min, first quartile, median, third
/// quartile, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxPlot {
    /// Computes the summary. Returns `None` for an empty slice.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        Some(BoxPlot {
            min: percentile(values, 0.0)?,
            q1: percentile(values, 0.25)?,
            median: percentile(values, 0.5)?,
            q3: percentile(values, 0.75)?,
            max: percentile(values, 1.0)?,
        })
    }

    /// The interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The full spread `max - min` (the paper reports "difference between
    /// minimum and maximum training times").
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Empirical CDF: returns `(sorted value, cumulative fraction)` pairs.
pub fn ecdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("stats inputs must not be NaN"));
    let n = sorted.len() as f64;
    sorted.into_iter().enumerate().map(|(i, v)| (v, (i + 1) as f64 / n)).collect()
}

/// Error function via the Abramowitz & Stegun 7.1.26 rational approximation
/// (max absolute error 1.5e-7, ample for posterior probabilities).
pub fn erf(x: f64) -> f64 {
    erf_with_exp(x, (-x * x).exp())
}

/// [`erf`] with its one transcendental, `exp(-x²)`, supplied by the
/// caller — so a batched caller can take it from its own kernel (the
/// posterior-query sweep uses the host-independent vectorized `vmath`
/// one) and still share this polynomial.
#[inline]
pub fn erf_with_exp(x: f64, exp_neg_x2: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * exp_neg_x2;
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Draws one sample from `N(mean, std^2)` by the Box–Muller transform.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    if std == 0.0 {
        return mean;
    }
    // Box–Muller: u1 in (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

/// Draws one sample from `LogNormal(mu, sigma)` (parameters of the
/// underlying normal). Used by the suspend-latency and snapshot-size models.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    sample_normal(rng, mu, sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_variance_basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), Some(2.5));
        assert_eq!(variance(&v), Some(1.25));
        assert!((std_dev(&v).unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(median(&v), Some(25.0));
        assert_eq!(percentile(&v, 0.25), Some(17.5));
        assert_eq!(percentile(&v, 1.1), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn box_plot_summary() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        let b = BoxPlot::from_values(&v).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 100.0);
        assert_eq!(b.range(), 99.0);
        assert!(b.iqr() > 0.0);
        assert!(BoxPlot::from_values(&[]).is_none());
    }

    #[test]
    fn ecdf_reaches_one() {
        let pts = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn erf_matches_known_values() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..20_000).map(|_| sample_normal(&mut rng, 3.0, 2.0)).collect();
        let m = mean(&samples).unwrap();
        let s = std_dev(&samples).unwrap();
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert!((s - 2.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn zero_std_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(sample_normal(&mut rng, 1.5, 0.0), 1.5);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(sample_lognormal(&mut rng, -1.0, 1.0) > 0.0);
        }
    }
}
