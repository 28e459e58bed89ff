//! Structure-of-arrays likelihood evaluation on the [`crate::vmath`]
//! kernels: the per-family stages the fused arena ([`crate::batch`])
//! sweeps for every fit and every posterior query, and the scalar per-lane
//! / per-proposal references it is pinned against.
//!
//! The model's definition ([`crate::ensemble::log_posterior`]) pays 8
//! scalar `powf` + 4 `exp` + 1 `ln` per grid point through libm. This
//! module regroups the same per-family formulas so all grid points of one
//! family are evaluated per call: powers are decomposed as
//! `x^p = exp(p * ln x)` against the memoized `ln x` columns of
//! [`FastGrid`], and the resulting exponentials run through the batched,
//! SIMD-dispatched [`crate::vmath::vexp`]/[`crate::vmath::vln`].
//!
//! Numerics contract (see DESIGN.md §9):
//!
//! - The fast path is **not** bit-identical to the libm definition — it
//!   uses different (more accurate than ±1e-12) kernel approximations and a
//!   different factoring of the same formulas. The root suite's
//!   `likelihood_oracle` test holds the fused posterior to the definition
//!   over real fitted draws and their jittered neighbours: the same
//!   support (finite vs −∞) on every row, finite values within 1e-9
//!   relative.
//! - It **is** deterministic: every transcendental routes through `vmath`
//!   kernels that produce identical bit patterns on every host and backend,
//!   so fast-path results are reproducible across machines, thread counts
//!   (the `FitService` guarantees), and SIMD capabilities.
//! - The scalar single-point evaluator ([`family_value_at`]) performs the
//!   identical operations in the identical order as a lane of the batched
//!   stages (`family_fill` → kernel → `family_mid` → kernel → post),
//!   and the vmath kernels are bitwise scalar ≡ vector per lane — so it is
//!   the per-lane reference of everything the arena computes.
//! - Batching happens one level up: [`crate::batch`] concatenates the
//!   per-(slot, family) columns built by the stages here into one
//!   signature-grouped arena, so a sampler half-sweep, a Nelder–Mead round
//!   or a chunk of queried draws costs four kernel calls.
//!   [`PosteriorEvalFast`] is the one-proposal, all-scalar form of the
//!   same arithmetic — no fit runs it; it is the bitwise reference every
//!   fused posterior slot is tested against.

use crate::ensemble::{
    dimension, in_prior_box_fast, CEILING, FAMILY_OFFSETS, MIN_WEIGHT_SUM, MONOTONE_SLACK,
    SIGMA_INDEX,
};
use crate::models::{ModelFamily, ALL_FAMILIES};
use crate::vmath::{exp_s, ln_s, pow_s};

/// `ln(2π)`, hardcoded so the Gaussian normalization constant does not
/// depend on the host libm.
const LN_2PI: f64 = 1.8378770664093453;

/// Structure-of-arrays epoch grid: `x`, `ln x`, `ln(x + 1)` and
/// `ln(x + 2)` memoized per point, laid out one column per basis term so
/// the batched kernels can sweep them. Logs are computed by [`ln_s`] (not
/// libm) to keep the fast path host-independent end to end.
#[derive(Debug, Default)]
pub struct FastGrid {
    /// Epoch indices `x`.
    pub(crate) xs: Vec<f64>,
    /// `ln x` per point.
    pub(crate) ln_xs: Vec<f64>,
    /// `ln (x + 1)` per point.
    pub(crate) ln_x1s: Vec<f64>,
    /// `ln (x + 2)` per point.
    pub(crate) ln_x2s: Vec<f64>,
}

impl FastGrid {
    /// An empty grid.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes all points, retaining capacity.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ln_xs.clear();
        self.ln_x1s.clear();
        self.ln_x2s.clear();
    }

    /// Appends epoch `x`, memoizing its log columns through the vmath
    /// scalar kernel.
    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
        self.ln_xs.push(ln_s(x));
        self.ln_x1s.push(ln_s(x + 1.0));
        self.ln_x2s.push(ln_s(x + 2.0));
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the grid holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The parameter-only hoisted term of `family` in the fast factoring:
/// `b` itself for log power (consumed as `ln e^b`), `ln κ` for
/// Weibull/MMF, `κ^η` for Hill3, `0.0` otherwise. All through vmath
/// scalar kernels.
#[inline]
pub fn fast_hoist(family: ModelFamily, fp: &[f64]) -> f64 {
    match family {
        ModelFamily::LogPower => fp[1],
        ModelFamily::Weibull | ModelFamily::Mmf => ln_s(fp[2]),
        ModelFamily::Hill3 => pow_s(fp[2], fp[1]),
        _ => 0.0,
    }
}

/// Evaluates `family` at grid point `i` with the vmath scalar kernels:
/// `fp` is the family's parameter block and `hoist` its [`fast_hoist`].
/// The per-lane definition of the fast factoring — the fused arena
/// ([`crate::batch`]) performs the identical operations in the identical
/// order for that lane, batched.
#[inline]
pub fn family_value_at(
    family: ModelFamily,
    fp: &[f64],
    hoist: f64,
    grid: &FastGrid,
    i: usize,
) -> f64 {
    match family {
        ModelFamily::Pow3 => {
            let (c, a, alpha) = (fp[0], fp[1], fp[2]);
            c - a * exp_s(-alpha * grid.ln_xs[i])
        }
        ModelFamily::Pow4 => {
            let (c, a, b, alpha) = (fp[0], fp[1], fp[2], fp[3]);
            c - exp_s(-alpha * ln_s(a * grid.xs[i] + b))
        }
        ModelFamily::LogLogLinear => {
            let (a, b) = (fp[0], fp[1]);
            ln_s(a * grid.ln_x1s[i] + b)
        }
        ModelFamily::LogPower => {
            let (a, c) = (fp[0], fp[2]);
            a / (1.0 + exp_s(c * (grid.ln_xs[i] - hoist)))
        }
        ModelFamily::Weibull => {
            let (alpha, beta, delta) = (fp[0], fp[1], fp[3]);
            alpha - (alpha - beta) * exp_s(-exp_s(delta * (hoist + grid.ln_xs[i])))
        }
        ModelFamily::Mmf => {
            let (alpha, beta, delta) = (fp[0], fp[1], fp[3]);
            alpha - (alpha - beta) / (1.0 + exp_s(delta * (hoist + grid.ln_xs[i])))
        }
        ModelFamily::Janoschek => {
            let (alpha, beta, kappa, delta) = (fp[0], fp[1], fp[2], fp[3]);
            alpha - (alpha - beta) * exp_s(-kappa * exp_s(delta * grid.ln_xs[i]))
        }
        ModelFamily::Exp4 => {
            let (c, a, alpha, b) = (fp[0], fp[1], fp[2], fp[3]);
            c - exp_s(-a * exp_s(alpha * grid.ln_xs[i]) + b)
        }
        ModelFamily::Ilog2 => {
            let (c, a) = (fp[0], fp[1]);
            c - a / grid.ln_x2s[i]
        }
        ModelFamily::VaporPressure => {
            let (a, b, c) = (fp[0], fp[1], fp[2]);
            exp_s(a + b / grid.xs[i] + c * grid.ln_xs[i])
        }
        ModelFamily::Hill3 => {
            let (ymax, eta) = (fp[0], fp[1]);
            let xe = exp_s(eta * grid.ln_xs[i]);
            ymax * xe / (hoist + xe)
        }
    }
}

/// Stage 1 of the fast factoring: the elementwise pre-kernel fill of the
/// first `out.len()` grid points.
#[inline(always)]
pub(crate) fn family_fill(
    family: ModelFamily,
    fp: &[f64],
    hoist: f64,
    grid: &FastGrid,
    out: &mut [f64],
) {
    let n = out.len();
    match family {
        ModelFamily::Pow3 => {
            let alpha = fp[2];
            for (v, lx) in out.iter_mut().zip(&grid.ln_xs[..n]) {
                *v = -alpha * lx;
            }
        }
        ModelFamily::Pow4 => {
            let (a, b) = (fp[1], fp[2]);
            for (v, x) in out.iter_mut().zip(&grid.xs[..n]) {
                *v = a * x + b;
            }
        }
        ModelFamily::LogLogLinear => {
            let (a, b) = (fp[0], fp[1]);
            for (v, lx1) in out.iter_mut().zip(&grid.ln_x1s[..n]) {
                *v = a * lx1 + b;
            }
        }
        ModelFamily::LogPower => {
            let c = fp[2];
            for (v, lx) in out.iter_mut().zip(&grid.ln_xs[..n]) {
                *v = c * (lx - hoist);
            }
        }
        ModelFamily::Weibull | ModelFamily::Mmf => {
            let delta = fp[3];
            for (v, lx) in out.iter_mut().zip(&grid.ln_xs[..n]) {
                *v = delta * (hoist + lx);
            }
        }
        ModelFamily::Janoschek => {
            let delta = fp[3];
            for (v, lx) in out.iter_mut().zip(&grid.ln_xs[..n]) {
                *v = delta * lx;
            }
        }
        ModelFamily::Exp4 => {
            let alpha = fp[2];
            for (v, lx) in out.iter_mut().zip(&grid.ln_xs[..n]) {
                *v = alpha * lx;
            }
        }
        ModelFamily::Ilog2 => {
            let (c, a) = (fp[0], fp[1]);
            for (v, lx2) in out.iter_mut().zip(&grid.ln_x2s[..n]) {
                *v = c - a / lx2;
            }
        }
        ModelFamily::VaporPressure => {
            let (a, b, c) = (fp[0], fp[1], fp[2]);
            for ((v, x), lx) in out.iter_mut().zip(&grid.xs[..n]).zip(&grid.ln_xs[..n]) {
                *v = a + b / x + c * lx;
            }
        }
        ModelFamily::Hill3 => {
            let eta = fp[1];
            for (v, lx) in out.iter_mut().zip(&grid.ln_xs[..n]) {
                *v = eta * lx;
            }
        }
    }
}

/// Stage 2 of the fast factoring: the elementwise transform between the
/// two kernel passes of the families that have two (`ln` then `exp`, or
/// `exp` twice). A no-op for every other family.
#[inline(always)]
pub(crate) fn family_mid(family: ModelFamily, fp: &[f64], out: &mut [f64]) {
    match family {
        ModelFamily::Pow4 => {
            let alpha = fp[3];
            for v in out.iter_mut() {
                *v *= -alpha;
            }
        }
        ModelFamily::Weibull => {
            for v in out.iter_mut() {
                *v = -*v;
            }
        }
        ModelFamily::Janoschek => {
            let kappa = fp[2];
            for v in out.iter_mut() {
                *v *= -kappa;
            }
        }
        ModelFamily::Exp4 => {
            let (a, b) = (fp[1], fp[3]);
            for v in out.iter_mut() {
                *v = -a * *v + b;
            }
        }
        _ => {}
    }
}

/// The weighted-combination mean at grid point `i` through the scalar fast
/// kernels (same accumulation order as the arena's reductions).
#[inline]
fn fast_mean_at(theta: &[f64], grid: &FastGrid, i: usize, hoists: &[f64; 11], wsum: f64) -> f64 {
    let w = &theta[..11];
    let mut acc = 0.0;
    for (k, &family) in ALL_FAMILIES.iter().enumerate() {
        let wk = w[k];
        if wk <= 0.0 {
            continue;
        }
        let off = FAMILY_OFFSETS[k];
        let fp = &theta[off..off + family.param_count()];
        acc += wk * family_value_at(family, fp, hoists[k], grid, i);
    }
    acc / wsum
}

/// Allocation-free scalar evaluator for the log-posterior of **one**
/// proposal: the bitwise reference of [`crate::batch::FusedPosterior`]
/// (which is what fits run). Same prior structure, same rejection
/// semantics as [`crate::ensemble::log_posterior`], but every
/// transcendental goes through the [`crate::vmath`] scalar kernels.
#[derive(Debug)]
pub struct PosteriorEvalFast<'a> {
    grid: &'a FastGrid,
    ys: &'a [f64],
    means: &'a mut [f64],
}

impl<'a> PosteriorEvalFast<'a> {
    /// Wraps a memoized SoA grid. `grid` must hold one point per
    /// observation followed by the horizon point `max(horizon, last_x)`;
    /// `ys` the observed values; `means` a scratch slice of at least
    /// `ys.len()` elements.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are inconsistent or there are no observations.
    pub fn new(grid: &'a FastGrid, ys: &'a [f64], means: &'a mut [f64]) -> Self {
        assert!(!ys.is_empty(), "need at least one observation");
        assert_eq!(grid.len(), ys.len() + 1, "grid must be observations + horizon");
        assert!(means.len() >= ys.len(), "mean buffer must cover observations");
        PosteriorEvalFast { grid, ys, means }
    }

    /// The log-posterior of `theta` over the memoized grid: the same prior
    /// support and Gaussian likelihood as the reference
    /// [`crate::ensemble::log_posterior`], evaluated through the vmath
    /// kernels. Deterministic across hosts and backends, but *not* bitwise
    /// equal to the reference (see the module docs).
    pub fn log_posterior(&mut self, theta: &[f64]) -> f64 {
        debug_assert_eq!(theta.len(), dimension());
        if !in_prior_box_fast(theta) {
            return f64::NEG_INFINITY;
        }
        let n = self.ys.len();
        let wsum: f64 = theta[..11].iter().sum();
        if wsum < MIN_WEIGHT_SUM {
            return f64::NEG_INFINITY;
        }
        let hoists: [f64; 11] = std::array::from_fn(|k| {
            let off = FAMILY_OFFSETS[k];
            fast_hoist(ALL_FAMILIES[k], &theta[off..off + ALL_FAMILIES[k].param_count()])
        });

        // Prior structure: reject decreasing or above-ceiling extrapolations.
        let mean_horizon = fast_mean_at(theta, self.grid, n, &hoists, wsum);
        for (i, m) in self.means[..n].iter_mut().enumerate() {
            *m = fast_mean_at(theta, self.grid, i, &hoists, wsum);
        }
        let mean_last = self.means[n - 1];
        if !mean_last.is_finite() || !mean_horizon.is_finite() {
            return f64::NEG_INFINITY;
        }
        if mean_horizon < mean_last - MONOTONE_SLACK || mean_horizon > CEILING {
            return f64::NEG_INFINITY;
        }
        gaussian_loglik(self.ys, &self.means[..n], theta[SIGMA_INDEX])
    }
}

/// The Gaussian log-likelihood tail of the fast posterior: per-observation
/// normal terms accumulated in observation order, plus the `-ln σ` sigma
/// prior. Shared verbatim by the per-proposal reference and the fused
/// evaluator so their accumulation order cannot diverge.
#[inline]
pub(crate) fn gaussian_loglik(ys: &[f64], means: &[f64], sigma: f64) -> f64 {
    let mut loglik = 0.0;
    let sln = ln_s(sigma);
    let inv2s2 = 1.0 / (2.0 * sigma * sigma);
    let norm = -sln - 0.5 * LN_2PI;
    for (y, m) in ys.iter().zip(means.iter()) {
        if !m.is_finite() {
            return f64::NEG_INFINITY;
        }
        let r = y - m;
        loglik += norm - r * r * inv2s2;
    }
    loglik -= sln;
    loglik
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{log_posterior, SIGMA_INDEX};

    fn default_theta() -> Vec<f64> {
        let mut theta = Vec::with_capacity(dimension());
        theta.extend(std::iter::repeat_n(1.0 / 11.0, 11));
        theta.push(0.05);
        for f in ALL_FAMILIES {
            theta.extend(f.default_params());
        }
        theta
    }

    fn grid_from(obs: &[(f64, f64)], horizon: f64) -> (FastGrid, Vec<f64>) {
        let mut grid = FastGrid::new();
        let mut ys = Vec::new();
        for &(x, y) in obs {
            grid.push(x);
            ys.push(y);
        }
        let last_x = obs.last().map_or(1.0, |&(x, _)| x);
        grid.push(horizon.max(last_x));
        (grid, ys)
    }

    /// The fast posterior is a different factoring, so it only needs to
    /// agree with the reference to kernel accuracy — but support decisions
    /// (±inf vs finite) must match exactly on clearly-in/out vectors.
    #[test]
    fn fast_posterior_tracks_reference() {
        let obs: Vec<(f64, f64)> =
            (1..=20).map(|x| (x as f64, 0.8 - 0.7 * (x as f64).powf(-1.0))).collect();
        let (grid, ys) = grid_from(&obs, 100.0);
        let mut means = vec![0.0; ys.len()];
        let mut eval = PosteriorEvalFast::new(&grid, &ys, &mut means);

        let theta = default_theta();
        let fast = eval.log_posterior(&theta);
        let reference = log_posterior(&theta, &obs, 100.0);
        assert!(fast.is_finite() && reference.is_finite());
        assert!(
            (fast - reference).abs() <= 1e-9 * (1.0 + reference.abs()),
            "fast {fast} vs reference {reference}"
        );

        let mut out_of_box = default_theta();
        out_of_box[SIGMA_INDEX] = 10.0;
        assert_eq!(eval.log_posterior(&out_of_box), f64::NEG_INFINITY);
    }

    #[test]
    fn fast_grid_matches_libm_logs_to_kernel_accuracy() {
        let xs = [1.0, 2.0, 17.0, 400.0];
        let mut grid = FastGrid::new();
        for x in xs {
            grid.push(x);
        }
        let close = |fast: f64, libm: f64| (fast - libm).abs() <= 1e-13 * (1.0 + libm.abs());
        for (i, x) in xs.into_iter().enumerate() {
            assert!(close(grid.ln_xs[i], x.ln()), "ln {x}");
            assert!(close(grid.ln_x1s[i], (x + 1.0).ln()), "ln({x} + 1)");
            assert!(close(grid.ln_x2s[i], (x + 2.0).ln()), "ln({x} + 2)");
        }
    }
}
