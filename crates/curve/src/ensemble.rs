//! The combined curve model and its log-posterior.
//!
//! Following Domhan et al., the predicted mean curve is a weighted
//! combination of the 11 parametric families plus Gaussian observation
//! noise:
//!
//! ```text
//! f(x) = sum_k w_k * f_k(x; theta_k),     y_obs(x) ~ N(f(x), sigma^2)
//! ```
//!
//! Weights are constrained non-negative and normalized to sum to one when
//! evaluated, which keeps the combined prediction on the same `[0, 1]` scale
//! as each family. The prior additionally encodes two pieces of domain
//! structure from the original model: learning curves *increase* toward
//! their asymptote (the mean at the prediction horizon must not fall below
//! the mean at the last observation), and normalized performance cannot
//! exceed 1 at the horizon.

use crate::models::{total_family_params, ALL_FAMILIES};

/// Index of the noise parameter sigma in the flattened parameter vector.
pub const SIGMA_INDEX: usize = 11;

/// Start offset of each family's parameter block inside the flattened
/// parameter vector, in [`ALL_FAMILIES`] order. Families never change at
/// runtime, so every access indexes through this table instead of summing
/// `param_count()` (a unit test pins the table against the counts).
pub const FAMILY_OFFSETS: [usize; 11] = [12, 15, 19, 21, 24, 28, 32, 36, 40, 42, 45];

/// Total dimensionality of the flattened parameter vector:
/// 11 weights + 1 sigma + 36 family parameters = 48.
pub fn dimension() -> usize {
    11 + 1 + total_family_params()
}

/// Bounds for sigma, the observation-noise standard deviation (normalized
/// performance units).
pub const SIGMA_BOUNDS: (f64, f64) = (1e-4, 0.30);

/// Minimum allowed weight sum before normalization (guards the degenerate
/// all-zero-weights corner).
pub(crate) const MIN_WEIGHT_SUM: f64 = 1e-3;

/// Slack allowed for a non-increasing extrapolation before the prior
/// rejects it.
pub(crate) const MONOTONE_SLACK: f64 = 0.02;

/// Headroom above 1.0 allowed at the horizon (accounts for observation
/// noise in normalized metrics).
pub(crate) const CEILING: f64 = 1.0 + 1e-6;

/// A view over a flattened parameter vector, offering structured access.
#[derive(Debug, Clone, Copy)]
pub struct ParamView<'a> {
    theta: &'a [f64],
}

impl<'a> ParamView<'a> {
    /// Wraps a flattened parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len() != dimension()`.
    pub fn new(theta: &'a [f64]) -> Self {
        assert_eq!(theta.len(), dimension(), "parameter vector has wrong length");
        ParamView { theta }
    }

    /// The 11 ensemble weights (not yet normalized).
    pub fn weights(&self) -> &'a [f64] {
        &self.theta[..11]
    }

    /// The observation-noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.theta[SIGMA_INDEX]
    }

    /// The parameters of family `k` (index into [`ALL_FAMILIES`]).
    pub fn family_params(&self, k: usize) -> &'a [f64] {
        let offset = FAMILY_OFFSETS[k];
        &self.theta[offset..offset + ALL_FAMILIES[k].param_count()]
    }

    /// Evaluates the weighted-combination mean curve at epoch `x`.
    /// Returns NaN when weights degenerate or any active family diverges.
    pub fn mean(&self, x: f64) -> f64 {
        let w = self.weights();
        let wsum: f64 = w.iter().sum();
        if wsum < MIN_WEIGHT_SUM || wsum.is_nan() {
            return f64::NAN;
        }
        let mut acc = 0.0;
        for (k, family) in ALL_FAMILIES.iter().enumerate() {
            if w[k] <= 0.0 {
                continue;
            }
            let v = family.eval(x, self.family_params(k));
            if !v.is_finite() {
                return f64::NAN;
            }
            acc += w[k] * v;
        }
        acc / wsum
    }
}

/// Returns `true` when `theta` lies inside the prior box (weights in
/// `[0, 1]`, sigma in bounds, every family's parameters inside its box).
pub fn in_prior_box(theta: &[f64]) -> bool {
    let view = ParamView::new(theta);
    if !view.weights().iter().all(|w| w.is_finite() && (0.0..=1.0).contains(w)) {
        return false;
    }
    if view.weights().iter().sum::<f64>() < MIN_WEIGHT_SUM {
        return false;
    }
    let sigma = view.sigma();
    if !(sigma.is_finite() && sigma >= SIGMA_BOUNDS.0 && sigma <= SIGMA_BOUNDS.1) {
        return false;
    }
    ALL_FAMILIES.iter().enumerate().all(|(k, family)| family.in_bounds(view.family_params(k)))
}

/// Log-posterior of `theta` given observations `obs` (pairs of epoch index
/// and normalized performance) and a prediction `horizon` (largest epoch we
/// will extrapolate to).
///
/// Returns `f64::NEG_INFINITY` for parameter vectors outside the prior
/// support (out of box, degenerate weights, non-finite means, decreasing or
/// above-ceiling extrapolations).
pub fn log_posterior(theta: &[f64], obs: &[(f64, f64)], horizon: f64) -> f64 {
    if !in_prior_box(theta) {
        return f64::NEG_INFINITY;
    }
    let view = ParamView::new(theta);
    let sigma = view.sigma();

    let last_x = obs.last().map_or(1.0, |&(x, _)| x);
    let mean_last = view.mean(last_x);
    let mean_horizon = view.mean(horizon.max(last_x));
    if !mean_last.is_finite() || !mean_horizon.is_finite() {
        return f64::NEG_INFINITY;
    }
    // Prior structure: curves increase toward the horizon and stay <= 1.
    if mean_horizon < mean_last - MONOTONE_SLACK || mean_horizon > CEILING {
        return f64::NEG_INFINITY;
    }

    // Gaussian log-likelihood.
    let mut loglik = 0.0;
    let inv2s2 = 1.0 / (2.0 * sigma * sigma);
    let norm = -(sigma.ln()) - 0.5 * (2.0 * std::f64::consts::PI).ln();
    for &(x, y) in obs {
        let m = view.mean(x);
        if !m.is_finite() {
            return f64::NEG_INFINITY;
        }
        let r = y - m;
        loglik += norm - r * r * inv2s2;
    }
    // Jeffreys-style prior on sigma: p(sigma) ~ 1/sigma.
    loglik -= sigma.ln();
    loglik
}

/// Flattened per-parameter prior-box bounds in theta layout (weights,
/// sigma, then family parameters), for the branchless membership test.
fn prior_box_lo_hi() -> &'static (Vec<f64>, Vec<f64>) {
    static BOUNDS: std::sync::OnceLock<(Vec<f64>, Vec<f64>)> = std::sync::OnceLock::new();
    BOUNDS.get_or_init(|| {
        let d = dimension();
        let mut lo = vec![f64::NAN; d];
        let mut hi = vec![f64::NAN; d];
        for k in 0..11 {
            lo[k] = 0.0;
            hi[k] = 1.0;
        }
        lo[SIGMA_INDEX] = SIGMA_BOUNDS.0;
        hi[SIGMA_INDEX] = SIGMA_BOUNDS.1;
        for (k, family) in ALL_FAMILIES.iter().enumerate() {
            let off = FAMILY_OFFSETS[k];
            for (j, (l, h)) in family.bounds().iter().enumerate() {
                lo[off + j] = *l;
                hi[off + j] = *h;
            }
        }
        assert!(lo.iter().chain(hi.iter()).all(|b| b.is_finite()), "theta layout has gaps");
        (lo, hi)
    })
}

/// Prior-box membership specialized for the hot path: the same predicate
/// as [`in_prior_box`], evaluated branchlessly against the flattened
/// bounds table so the 48 comparisons vectorize. Out-of-range, infinite,
/// and NaN parameters all fail their range comparison, so dropping the
/// explicit finiteness tests and the short-circuiting cannot change the
/// resulting boolean.
// The negated comparison is load-bearing: `!(sum < MIN)` accepts a NaN
// sum (matching the reference predicate's short-circuit shape), while the
// "readable" `sum >= MIN` would reject it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
pub(crate) fn in_prior_box_fast(theta: &[f64]) -> bool {
    let (lo, hi) = prior_box_lo_hi();
    debug_assert_eq!(theta.len(), lo.len());
    let mut ok = true;
    for ((&p, &l), &h) in theta.iter().zip(lo).zip(hi) {
        ok &= p >= l && p <= h;
    }
    // `sum < MIN` is false for a NaN sum, exactly like the reference
    // predicate — a NaN weight already failed its range comparison above.
    ok && !(theta[..11].iter().sum::<f64>() < MIN_WEIGHT_SUM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelFamily;

    /// Builds a theta that puts all weight on pow3 with the given params.
    fn pow3_only(c: f64, a: f64, alpha: f64, sigma: f64) -> Vec<f64> {
        let mut theta = default_theta();
        for w in theta[..11].iter_mut() {
            *w = 0.0;
        }
        theta[0] = 1.0; // pow3 weight
        theta[SIGMA_INDEX] = sigma;
        theta[12] = c;
        theta[13] = a;
        theta[14] = alpha;
        theta
    }

    /// A theta at every family's default parameters with uniform weights.
    fn default_theta() -> Vec<f64> {
        let mut theta = Vec::with_capacity(dimension());
        theta.extend(std::iter::repeat_n(1.0 / 11.0, 11));
        theta.push(0.05);
        for f in ALL_FAMILIES {
            theta.extend(f.default_params());
        }
        theta
    }

    #[test]
    fn dimension_is_48() {
        assert_eq!(dimension(), 48);
        assert_eq!(default_theta().len(), 48);
    }

    #[test]
    fn param_view_slices_families_correctly() {
        let theta = default_theta();
        let view = ParamView::new(&theta);
        for (k, f) in ALL_FAMILIES.iter().enumerate() {
            assert_eq!(view.family_params(k), f.default_params().as_slice(), "{}", f.name());
        }
    }

    #[test]
    fn single_family_mean_matches_family_eval() {
        let theta = pow3_only(0.8, 0.5, 1.0, 0.05);
        let view = ParamView::new(&theta);
        for x in [1.0, 5.0, 50.0] {
            let expected = ModelFamily::Pow3.eval(x, &[0.8, 0.5, 1.0]);
            assert!((view.mean(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn default_theta_is_in_prior() {
        assert!(in_prior_box(&default_theta()));
    }

    #[test]
    fn family_offsets_match_param_counts() {
        let mut offset = SIGMA_INDEX + 1;
        for (k, f) in ALL_FAMILIES.iter().enumerate() {
            assert_eq!(FAMILY_OFFSETS[k], offset, "{}", f.name());
            offset += f.param_count();
        }
        assert_eq!(offset, dimension());
    }

    #[test]
    fn out_of_box_is_rejected() {
        let mut theta = default_theta();
        theta[SIGMA_INDEX] = 10.0;
        assert!(!in_prior_box(&theta));
        let mut theta2 = default_theta();
        theta2[0] = -0.5;
        assert!(!in_prior_box(&theta2));
        let mut theta3 = default_theta();
        for w in theta3[..11].iter_mut() {
            *w = 0.0;
        }
        assert!(!in_prior_box(&theta3));
    }

    #[test]
    fn posterior_prefers_good_fit() {
        // Observations generated by pow3(c=0.8, a=0.7, alpha=1).
        let obs: Vec<(f64, f64)> =
            (1..=20).map(|x| (x as f64, 0.8 - 0.7 * (x as f64).powf(-1.0))).collect();
        let good = pow3_only(0.8, 0.7, 1.0, 0.05);
        let bad = pow3_only(0.3, 0.2, 0.5, 0.05);
        let lg = log_posterior(&good, &obs, 100.0);
        let lb = log_posterior(&bad, &obs, 100.0);
        assert!(lg.is_finite());
        assert!(lg > lb, "good {lg} should beat bad {lb}");
    }

    #[test]
    fn decreasing_extrapolation_is_rejected() {
        // pow3 with negative 'a' decreases: c - a x^-alpha with a < 0 grows…
        // instead build a curve whose horizon mean falls below the last
        // observation by violating monotonicity: vapor pressure with c=0
        // and strongly negative a is flat; use weights to craft a falling
        // curve is hard within boxes, so test the ceiling instead: Hill3
        // ymax = 1.3 exceeds 1.0 at large horizon.
        let mut theta = default_theta();
        for w in theta[..11].iter_mut() {
            *w = 0.0;
        }
        theta[10] = 1.0; // hill3 weight
        let off = 12 + total_family_params() - 3;
        theta[off] = 1.3; // ymax above ceiling
        theta[off + 1] = 2.0;
        theta[off + 2] = 5.0;
        let obs = [(1.0, 0.2), (2.0, 0.5)];
        assert_eq!(log_posterior(&theta, &obs, 10_000.0), f64::NEG_INFINITY);
    }

    #[test]
    fn tighter_noise_scores_higher_on_perfect_fit() {
        let obs: Vec<(f64, f64)> =
            (1..=10).map(|x| (x as f64, 0.8 - 0.7 * (x as f64).powf(-1.0))).collect();
        let tight = pow3_only(0.8, 0.7, 1.0, 0.01);
        let loose = pow3_only(0.8, 0.7, 1.0, 0.2);
        assert!(
            log_posterior(&tight, &obs, 50.0) > log_posterior(&loose, &obs, 50.0),
            "tight noise should win on perfect fit"
        );
    }
}
