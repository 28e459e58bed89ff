//! Per-family least-squares initialization.
//!
//! Before MCMC starts, each of the 11 families is fitted to the observed
//! curve prefix by Nelder–Mead least squares (with penalty outside the prior
//! box). Walkers are then initialized around the fitted parameters with
//! weights biased toward families that fit well. Starting the ensemble near
//! the posterior mode is what makes the reduced §5.2 sample counts viable.
//!
//! Every fit runs [`fit_families`]: all starts of all families advance in
//! lockstep ([`NmScratch`]) and each round is one batch call on a
//! [`CurveObjective`]. The runs are independent, so another thread that
//! draws the same starts ([`InitHalf::drawn`]) can run the [`OFFERED`]
//! families' runs: the fit claims that half through a [`ShareInit`] hook
//! and runs it merged with its own when nobody else holds it; the default
//! hook, [`Decline`], always does. [`fit_family`] / [`fit_all_families`] are the libm
//! oracle — one `minimize` per start, one point at a time — kept as the
//! executable definition the lockstep init is tested against (over a
//! test-local libm objective built from [`ModelFamily::eval`]).

use rand::Rng;

use crate::ensemble::{dimension, SIGMA_BOUNDS, SIGMA_INDEX};
use crate::models::{ModelFamily, ALL_FAMILIES};
use crate::nelder_mead::{minimize, NelderMeadOptions, NmScratch, MAX_DIM};

/// Result of fitting a single family.
#[derive(Debug, Clone)]
pub struct FamilyFit {
    /// The fitted family.
    pub family: ModelFamily,
    /// Fitted parameters, clamped inside the prior box.
    pub params: Vec<f64>,
    /// Mean squared error of the fit over the observations.
    pub mse: f64,
}

/// Clamps `params` inside `family`'s prior box (with a hair of margin so
/// clamped values are strictly inside).
pub(crate) fn clamp_into_box(family: ModelFamily, params: &mut [f64]) {
    for (p, (lo, hi)) in params.iter_mut().zip(family.bounds()) {
        let width = hi - lo;
        let margin = width * 1e-6;
        if !p.is_finite() {
            *p = (lo + hi) / 2.0;
        } else {
            *p = p.clamp(lo + margin, hi - margin);
        }
    }
}

/// Fits one family to observations by penalized least squares.
pub fn fit_family<R: Rng + ?Sized>(
    family: ModelFamily,
    obs: &[(f64, f64)],
    rng: &mut R,
) -> FamilyFit {
    let bounds = family.bounds();
    let objective = |params: &[f64]| -> f64 {
        let Some(penalty) = box_penalty(family, params) else { return f64::INFINITY };
        let mut clamped: Vec<f64> = params.to_vec();
        clamp_into_box(family, &mut clamped);
        let mut sse = 0.0;
        for &(x, y) in obs {
            let m = family.eval(x, &clamped);
            if !m.is_finite() {
                return f64::INFINITY;
            }
            sse += (y - m) * (y - m);
        }
        sse / obs.len().max(1) as f64 + penalty
    };

    // Multi-start: the default start plus a couple of random points in the
    // box. Curve-family objectives are cheap, so a few restarts are free.
    let mut starts = vec![family.default_params().to_vec()];
    for _ in 0..2 {
        starts.push(bounds.iter().map(|(lo, hi)| rng.gen_range(*lo..*hi)).collect::<Vec<f64>>());
    }

    let mut best: Option<(Vec<f64>, f64)> = None;
    for start in starts {
        let (x, fx) = minimize(&objective, &start, init_options());
        if best.as_ref().is_none_or(|(_, bf)| fx < *bf) {
            best = Some((x, fx));
        }
    }
    let (mut params, _) = best.expect("at least one start");
    clamp_into_box(family, &mut params);
    let mse = {
        let mut sse = 0.0;
        for &(x, y) in obs {
            let m = family.eval(x, &params);
            sse += (y - m) * (y - m);
        }
        sse / obs.len().max(1) as f64
    };
    FamilyFit { family, params, mse }
}

/// Fits all 11 families.
pub fn fit_all_families<R: Rng + ?Sized>(obs: &[(f64, f64)], rng: &mut R) -> Vec<FamilyFit> {
    ALL_FAMILIES.iter().map(|&f| fit_family(f, obs, rng)).collect()
}

/// The quadratic penalty of `params` outside `family`'s prior box, which
/// keeps the simplex pointed home; `None` when a parameter is not finite
/// (the objective is then `+inf`).
#[inline]
pub(crate) fn box_penalty(family: ModelFamily, params: &[f64]) -> Option<f64> {
    let mut penalty = 0.0;
    for (p, (lo, hi)) in params.iter().zip(family.bounds()) {
        if !p.is_finite() {
            return None;
        }
        if *p < *lo {
            penalty += (lo - p) * (lo - p) * 100.0;
        } else if *p > *hi {
            penalty += (p - hi) * (p - hi) * 100.0;
        }
    }
    Some(penalty)
}

/// What one fit asks of a curve's likelihood: the log-posterior the
/// sampler scores, and the penalized least squares (with its residual MSE)
/// the Nelder–Mead initialization minimizes — each a *batch* evaluation, so
/// an implementation is free to score a whole round together. Fits run the
/// fused arena ([`crate::FusedPosterior`]); tests substitute their own
/// objective through this trait (a libm one, to hold [`fit_families`] to
/// [`fit_all_families`]).
pub trait CurveObjective {
    /// Writes the log-posterior of each `dimension()`-long row of `thetas`
    /// to the matching element of `out` (the batch-evaluator signature
    /// [`crate::mcmc::sample_into`] takes).
    fn log_posteriors(&mut self, thetas: &[f64], out: &mut [f64]);

    /// Writes the penalized least-squares objective of each posted point
    /// to the matching element of `out` (the round signature
    /// [`NmScratch::minimize_all`] takes): point `i` is family
    /// `ALL_FAMILIES[families[i]]` at the first `param_count()` values of
    /// row `i` of `points` ([`MAX_DIM`] values per row).
    fn least_squares(&mut self, families: &[usize], points: &[f64], out: &mut [f64]);

    /// Residual MSE of in-box `params` over the observations.
    fn mse(&self, family: ModelFamily, params: &[f64]) -> f64;
}

/// The families ([`ALL_FAMILIES`] indices) whose runs another thread may
/// claim from [`fit_families`]: Pow3, Pow4, Weibull, MMF and Ilog2,
/// measured at ≈ 47 % of the init's cost, so the fitting thread keeps the
/// larger half.
pub const OFFERED: [usize; 5] = [0, 1, 4, 5, 8];

const OFFERED_RUNS: usize = 3 * OFFERED.len();

fn init_options() -> NelderMeadOptions {
    NelderMeadOptions { max_evals: 300, ..Default::default() }
}

/// A run's best point (zero beyond its family's parameters) and value.
type Best = ([f64; MAX_DIM], f64);

/// The offered half of one fit's init: the [`OFFERED`] families' starts as
/// the fit draws them (three each) and, once minimized, each run's best.
/// Whoever minimizes it over an objective on the same curve gets the same
/// bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct InitHalf {
    starts: [[f64; MAX_DIM]; OFFERED_RUNS],
    best: [Best; OFFERED_RUNS],
}

impl InitHalf {
    /// Draws every family's three starts from `rng` in [`fit_all_families`]'
    /// order, hands the kept families' to `keep`, and returns the offered
    /// half: what [`fit_families`] draws from the same RNG state.
    pub fn drawn<R: Rng + ?Sized>(rng: &mut R, mut keep: impl FnMut(usize, &[f64])) -> Self {
        let mut half = InitHalf::default();
        let mut offered = half.starts.iter_mut();
        for (k, &family) in ALL_FAMILIES.iter().enumerate() {
            let bounds = family.bounds();
            let mut start = [0.0; MAX_DIM];
            start[..bounds.len()].copy_from_slice(family.default_params());
            for draw in 0..3 {
                if draw > 0 {
                    let random = start.iter_mut().zip(bounds);
                    random.for_each(|(s, (lo, hi))| *s = rng.gen_range(*lo..*hi));
                }
                if OFFERED.contains(&k) {
                    *offered.next().expect("three runs per offered family") = start;
                } else {
                    keep(k, &start[..bounds.len()]);
                }
            }
        }
        half
    }

    /// Minimizes the half's runs over `objective` on `nm`, in a lockstep
    /// batch of their own.
    pub fn minimize(&mut self, objective: &mut impl CurveObjective, nm: &mut NmScratch) {
        nm.begin(init_options());
        self.push_runs(nm);
        nm.minimize_all(|families, points, out| objective.least_squares(families, points, out));
        self.take_bests(nm, 0);
    }

    fn push_runs(&self, nm: &mut NmScratch) {
        for (run, start) in self.starts.iter().enumerate() {
            let k = OFFERED[run / 3];
            nm.push_start(k, &start[..ALL_FAMILIES[k].param_count()]);
        }
    }

    /// Reads the half's bests from `nm`, where its runs begin at `first`.
    fn take_bests(&mut self, nm: &NmScratch, first: usize) {
        for (run, best) in self.best.iter_mut().enumerate() {
            *best = best_of(nm, first + run);
        }
    }
}

fn best_of(nm: &NmScratch, run: usize) -> Best {
    let (x, f) = nm.best(run);
    let mut point = [0.0; MAX_DIM];
    point[..x.len()].copy_from_slice(x);
    (point, f)
}

/// Who runs the offered half of a fit's init ([`fit_families`]): the fit
/// claims it once its starts are drawn, and runs it merged with its own
/// runs, or — lost to a thread holding the same starts
/// ([`InitHalf::drawn`]) — collects that thread's bests after its own.
/// Same bits either way. The provided `claim` always wins.
pub trait ShareInit {
    /// Claims the half for the fitting thread; `false` when another thread
    /// holds it.
    fn claim(&mut self) -> bool {
        true
    }

    /// After a lost claim: the holder's bests in `half`, waiting for them
    /// if it is still running. Never called after a won claim.
    fn collect(&mut self, _half: &mut InitHalf) {
        unreachable!("a won claim collects nothing")
    }
}

/// Shares nothing: the fitting thread runs both halves, in one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decline;

impl ShareInit for Decline {}

/// Fits all 11 families by lockstep Nelder–Mead ([`NmScratch`]): every
/// start of every family is drawn up front, the [`OFFERED`] families' runs
/// are claimed through `share`, and each round of the simplex runs is one
/// `objective.least_squares` call.
///
/// This is [`fit_all_families`]' schedule — per family the default start
/// plus two random points in the box, drawn in the same RNG order (the
/// runs themselves consume none), 300 evaluations each, the first-best of
/// the three kept — so over an objective with [`fit_family`]'s arithmetic
/// the fits are bitwise the oracle's, whoever runs the offered half.
pub fn fit_families<R: Rng + ?Sized>(
    objective: &mut impl CurveObjective,
    rng: &mut R,
    nm: &mut NmScratch,
    share: &mut impl ShareInit,
) -> Vec<FamilyFit> {
    // Multi-start: the default start plus a couple of random points in the
    // box. Curve-family objectives are cheap, so a few restarts are free.
    nm.begin(init_options());
    let mut half = InitHalf::drawn(rng, |k, start| nm.push_start(k, start));
    let merged = share.claim();
    if merged {
        // Held here: the offered runs share the kept runs' rounds.
        half.push_runs(nm);
    }
    nm.minimize_all(|families, points, out| objective.least_squares(families, points, out));
    // Every run's best, three per family in `ALL_FAMILIES` order.
    let mut best = [Best::default(); 3 * ALL_FAMILIES.len()];
    let kept = best.chunks_exact_mut(3).enumerate().filter(|(k, _)| !OFFERED.contains(k));
    for (own, run) in kept.flat_map(|(_, runs)| runs).enumerate() {
        *run = best_of(nm, own);
    }
    if merged {
        half.take_bests(nm, 3 * ALL_FAMILIES.len() - OFFERED_RUNS);
    } else {
        share.collect(&mut half);
    }
    for (run, result) in OFFERED.iter().flat_map(|&k| 3 * k..3 * k + 3).zip(half.best) {
        best[run] = result;
    }
    ALL_FAMILIES
        .iter()
        .zip(best.chunks_exact(3))
        .map(|(&family, runs)| {
            let pick = runs[1..].iter().fold(&runs[0], |a, b| if b.1 < a.1 { b } else { a });
            let mut params = pick.0[..family.param_count()].to_vec();
            clamp_into_box(family, &mut params);
            let mse = objective.mse(family, &params);
            FamilyFit { family, params, mse }
        })
        .collect()
}

/// Builds `n_walkers` initial positions for the ensemble sampler from the
/// per-family fits: parameters jittered around the fits, weights biased
/// toward well-fitting families, sigma near the best fit's residual scale.
pub fn build_initial_walkers<R: Rng + ?Sized>(
    fits: &[FamilyFit],
    n_walkers: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    assert_eq!(fits.len(), ALL_FAMILIES.len(), "need one fit per family");
    let dim = dimension();

    let best_mse = fits.iter().map(|f| f.mse).fold(f64::INFINITY, f64::min);
    let sigma0 = best_mse.sqrt().clamp(SIGMA_BOUNDS.0 * 2.0, SIGMA_BOUNDS.1 * 0.8);

    // Weight seeds favoring low-MSE families.
    let raw_weights: Vec<f64> = fits.iter().map(|f| 1.0 / (f.mse + 1e-4)).collect();
    let wmax = raw_weights.iter().cloned().fold(f64::MIN, f64::max);

    (0..n_walkers)
        .map(|_| {
            let mut theta = vec![0.0; dim];
            for (k, rw) in raw_weights.iter().enumerate() {
                let base = (rw / wmax).clamp(0.02, 1.0);
                let jitter = rng.gen_range(0.5..1.5);
                theta[k] = (base * jitter).clamp(1e-3, 1.0);
            }
            theta[SIGMA_INDEX] = (sigma0 * rng.gen_range(0.5..2.0))
                .clamp(SIGMA_BOUNDS.0 * 1.01, SIGMA_BOUNDS.1 * 0.99);
            let mut offset = SIGMA_INDEX + 1;
            for fit in fits {
                let bounds = fit.family.bounds();
                let asymptote = fit.family.asymptote_param_index();
                for (j, p) in fit.params.iter().enumerate() {
                    let (lo, hi) = bounds[j];
                    let width = hi - lo;
                    let jittered = p + rng.gen_range(-0.02..0.02) * width;
                    let mut v = jittered.clamp(lo + width * 1e-6, hi - width * 1e-6);
                    // Keep asymptotes strictly below the ceiling so the
                    // posterior's y(horizon) <= 1 prior does not reject the
                    // whole initial ensemble for near-ceiling curves.
                    if asymptote == Some(j) {
                        v = v.min(0.985);
                    }
                    theta[offset + j] = v;
                }
                offset += fit.family.param_count();
            }
            theta
        })
        .collect()
}

/// Builds `n_walkers` positions from each family's *default* parameters
/// (jittered), ignoring the data. Used as a fallback initialization when
/// every least-squares-based walker lands outside the prior support — the
/// defaults always satisfy the growth and ceiling priors, and burn-in
/// carries the ensemble toward the data.
pub fn build_default_walkers<R: Rng + ?Sized>(n_walkers: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let dim = dimension();
    (0..n_walkers)
        .map(|_| {
            let mut theta = vec![0.0; dim];
            for w in theta[..11].iter_mut() {
                *w = rng.gen_range(0.05..1.0);
            }
            theta[SIGMA_INDEX] = rng.gen_range(SIGMA_BOUNDS.0 * 2.0..SIGMA_BOUNDS.1 * 0.9);
            let mut offset = SIGMA_INDEX + 1;
            for family in ALL_FAMILIES {
                let bounds = family.bounds();
                for (j, p) in family.default_params().iter().enumerate() {
                    let (lo, hi) = bounds[j];
                    let width = hi - lo;
                    let jittered = p + rng.gen_range(-0.03..0.03) * width;
                    theta[offset + j] = jittered.clamp(lo + width * 1e-6, hi - width * 1e-6);
                }
                offset += family.param_count();
            }
            theta
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::in_prior_box;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pow3_obs(n: usize) -> Vec<(f64, f64)> {
        (1..=n).map(|x| (x as f64, 0.75 - 0.6 * (x as f64).powf(-0.8))).collect()
    }

    #[test]
    fn fit_recovers_generating_family_shape() {
        let obs = pow3_obs(30);
        let mut rng = StdRng::seed_from_u64(7);
        let fit = fit_family(ModelFamily::Pow3, &obs, &mut rng);
        assert!(fit.mse < 1e-3, "mse {}", fit.mse);
        assert!(ModelFamily::Pow3.in_bounds(&fit.params));
    }

    #[test]
    fn all_family_fits_are_in_bounds() {
        let obs = pow3_obs(20);
        let mut rng = StdRng::seed_from_u64(11);
        for fit in fit_all_families(&obs, &mut rng) {
            assert!(
                fit.family.in_bounds(&fit.params),
                "{} out of bounds: {:?}",
                fit.family.name(),
                fit.params
            );
            assert!(fit.mse.is_finite());
        }
    }

    #[test]
    fn flexible_families_fit_well() {
        // The saturating-growth families should track a pow3-generated curve.
        let obs = pow3_obs(30);
        let mut rng = StdRng::seed_from_u64(13);
        for family in [ModelFamily::Weibull, ModelFamily::Mmf, ModelFamily::Janoschek] {
            let fit = fit_family(family, &obs, &mut rng);
            assert!(fit.mse < 5e-3, "{} mse {}", family.name(), fit.mse);
        }
    }

    #[test]
    fn walkers_start_inside_prior() {
        let obs = pow3_obs(15);
        let mut rng = StdRng::seed_from_u64(3);
        let fits = fit_all_families(&obs, &mut rng);
        let walkers = build_initial_walkers(&fits, 64, &mut rng);
        assert_eq!(walkers.len(), 64);
        let inside = walkers.iter().filter(|w| in_prior_box(w)).count();
        assert_eq!(inside, 64, "all walkers must start in the prior box");
    }

    #[test]
    fn walkers_are_distinct() {
        let obs = pow3_obs(15);
        let mut rng = StdRng::seed_from_u64(5);
        let fits = fit_all_families(&obs, &mut rng);
        let walkers = build_initial_walkers(&fits, 16, &mut rng);
        for i in 0..walkers.len() {
            for j in (i + 1)..walkers.len() {
                assert_ne!(walkers[i], walkers[j], "walkers {i} and {j} identical");
            }
        }
    }

    #[test]
    fn clamping_handles_nan() {
        let mut p = vec![f64::NAN, 0.5, 0.5];
        clamp_into_box(ModelFamily::Pow3, &mut p);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(ModelFamily::Pow3.in_bounds(&p));
    }
}

#[cfg(test)]
mod recovery_tests {
    //! Fit-recovery: each family fitted to data generated by itself must
    //! reach near-zero error — the initialization quality the reduced §5.2
    //! sample counts depend on.

    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generating parameters chosen inside each family's box to produce a
    /// plausible learning curve.
    fn generating_params(family: ModelFamily) -> Vec<f64> {
        match family {
            ModelFamily::Pow3 => vec![0.75, 0.6, 0.9],
            ModelFamily::Pow4 => vec![0.7, 0.3, 1.2, 0.8],
            ModelFamily::LogLogLinear => vec![0.25, 1.15],
            ModelFamily::LogPower => vec![0.7, 1.5, -1.2],
            ModelFamily::Weibull => vec![0.72, 0.12, 0.08, 1.1],
            ModelFamily::Mmf => vec![0.68, 0.1, 0.07, 1.3],
            ModelFamily::Janoschek => vec![0.7, 0.12, 0.06, 1.0],
            ModelFamily::Exp4 => vec![0.75, 0.08, 0.9, 0.1],
            ModelFamily::Ilog2 => vec![0.85, 0.9],
            ModelFamily::VaporPressure => vec![-0.5, -1.2, 0.04],
            ModelFamily::Hill3 => vec![0.7, 1.4, 15.0],
        }
    }

    #[test]
    fn every_family_recovers_its_own_curves() {
        for family in ALL_FAMILIES {
            let params = generating_params(family);
            assert!(family.in_bounds(&params), "{} generating params", family.name());
            let obs: Vec<(f64, f64)> =
                (1..=25).map(|x| (x as f64, family.eval(x as f64, &params))).collect();
            let mut rng = StdRng::seed_from_u64(7);
            let fit = fit_family(family, &obs, &mut rng);
            assert!(
                fit.mse < 2e-4,
                "{} failed to recover its own curve: mse {}",
                family.name(),
                fit.mse
            );
        }
    }

    #[test]
    fn recovery_is_robust_to_observation_noise() {
        use hyperdrive_types::stats;
        for family in [ModelFamily::Weibull, ModelFamily::Pow3, ModelFamily::Mmf] {
            let params = generating_params(family);
            let mut rng = StdRng::seed_from_u64(13);
            let obs: Vec<(f64, f64)> = (1..=30)
                .map(|x| {
                    let y =
                        family.eval(x as f64, &params) + stats::sample_normal(&mut rng, 0.0, 0.01);
                    (x as f64, y)
                })
                .collect();
            let fit = fit_family(family, &obs, &mut rng);
            // Residual MSE should approach the injected noise variance.
            assert!(fit.mse < 5e-4, "{} noisy recovery mse {}", family.name(), fit.mse);
        }
    }
}
