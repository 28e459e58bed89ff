//! The one likelihood every fit runs — the fused batched-kernel posterior
//! (`FusedPosterior`) — against the model's definition,
//! `ensemble::log_posterior` (libm, one point at a time).
//!
//! The fused posterior is a different factoring through different kernels,
//! so it is held to the definition within a tolerance rather than bit for
//! bit: on the draws real fits keep and on jittered neighbours of them,
//! both kernel backends must make the same support decision (finite vs
//! −∞) as the definition on every row, and agree with its finite values to
//! 1e-9 relative. The fused posterior is in turn bitwise its scalar
//! per-proposal reference (`PosteriorEvalFast`) under both backends, for
//! arbitrary curves and proposal mixes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive::curve::ensemble::{self, dimension, FAMILY_OFFSETS, SIGMA_BOUNDS, SIGMA_INDEX};
use hyperdrive::curve::fastpath::{FastGrid, PosteriorEvalFast};
use hyperdrive::curve::vmath::Backend;
use hyperdrive::curve::{
    CurveObjective, CurvePredictor, FitScratch, FusedPosterior, FusedScratch, PredictorConfig,
    ALL_FAMILIES,
};
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::{LearningCurve, MetricKind, SimTime};

/// The horizon every fit below extrapolates to.
const HORIZON: u32 = 120;

/// The first `len` epochs of one sampled configuration of `workload`.
fn prefix(workload: &dyn Workload, kind: MetricKind, seed: u64, len: u32) -> LearningCurve {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = workload.profile(&workload.space().sample(&mut rng), seed);
    let mut curve = LearningCurve::new(kind);
    for e in 1..=len {
        curve.push(e, SimTime::from_mins(f64::from(e)), profile.value_at(e));
    }
    curve
}

/// The epoch grid (observations, then the horizon) and observed values
/// of `curve`, as a fit lays them out.
fn grid_of(curve: &LearningCurve, horizon: f64) -> (FastGrid, Vec<f64>) {
    let mut grid = FastGrid::new();
    let mut ys = Vec::new();
    for p in curve.points() {
        grid.push(f64::from(p.epoch));
        ys.push(p.value);
    }
    grid.push(horizon);
    (grid, ys)
}

/// 12 CIFAR and 12 Lunar Lander prefixes of 6–28 epochs, each fitted at
/// `PredictorConfig::fast()`: every kept draw and a ±5 %-jittered
/// neighbour of it, scored by the fused posterior under both backends and
/// by the definition.
#[test]
fn the_fused_posterior_matches_the_definition_on_fitted_draws() {
    let mut jitter = StdRng::seed_from_u64(30);
    let (mut rows, mut finite, mut worst) = (0usize, 0usize, 0.0f64);
    for i in 0..24u64 {
        let len = 6 + 2 * (i % 12) as u32;
        let curve = if i < 12 {
            prefix(&CifarWorkload::new(), MetricKind::Accuracy, 500 + i, len)
        } else {
            prefix(&LunarWorkload::new(), MetricKind::Reward, 700 + i, len)
        };
        let posterior = CurvePredictor::new(PredictorConfig::fast().with_seed(i))
            .fit(&curve, HORIZON)
            .expect("a workload prefix fits");
        let mut thetas = Vec::new();
        for draw in posterior.draws() {
            thetas.extend_from_slice(draw);
            thetas.extend(draw.iter().map(|v| v * (1.0 + jitter.gen_range(-0.05..0.05))));
        }
        let obs: Vec<(f64, f64)> =
            curve.points().iter().map(|p| (f64::from(p.epoch), p.value)).collect();
        let (grid, ys) = grid_of(&curve, f64::from(HORIZON));
        let n = thetas.len() / dimension();
        let mut scored = [vec![0.0; n], vec![0.0; n]];
        for (backend, out) in [Backend::Scalar, Backend::Simd].into_iter().zip(&mut scored) {
            let mut scratch = FusedScratch::default();
            FusedPosterior::new(&grid, &ys, &mut scratch, backend).log_posteriors(&thetas, out);
        }
        for (r, theta) in thetas.chunks_exact(dimension()).enumerate() {
            let want = ensemble::log_posterior(theta, &obs, f64::from(HORIZON));
            assert!(!want.is_nan(), "curve {i} row {r}: the definition returned NaN");
            for (backend, out) in ["scalar", "simd"].into_iter().zip(&scored) {
                let got = out[r];
                assert_eq!(
                    got.is_finite(),
                    want.is_finite(),
                    "curve {i} row {r} ({backend}): support flipped, fused {got} vs {want}"
                );
                if want.is_finite() {
                    let rel = (got - want).abs() / want.abs();
                    assert!(rel <= 1e-9, "curve {i} row {r} ({backend}): {got} vs {want}");
                    worst = worst.max(rel);
                    finite += 1;
                } else {
                    assert_eq!(got, f64::NEG_INFINITY, "curve {i} row {r} ({backend})");
                }
                rows += 1;
            }
        }
    }
    eprintln!("{rows} rows, {finite} finite, worst relative error {worst:e}");
    assert_eq!(rows, 24 * 2 * 2 * PredictorConfig::fast().max_draws);
    assert!(finite > 0 && finite < rows, "the jitter must reach both sides of the support");
}

/// A Domhan-style curve saturating at `limit`.
fn synthetic_curve(limit: f64, rate: f64, n: u32) -> LearningCurve {
    let mut c = LearningCurve::new(MetricKind::Accuracy);
    for e in 1..=n {
        let x = f64::from(e);
        c.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.05) * x.powf(-rate));
    }
    c
}

/// A parameter vector drawn inside the prior box, then (by `kind`)
/// left alone, stripped of some family weights, starved of weight
/// mass, or pushed out of the box on one coordinate.
fn random_theta(rng: &mut StdRng, kind: u32) -> Vec<f64> {
    let mut theta = vec![0.0; dimension()];
    for w in &mut theta[..11] {
        *w = rng.gen_range(0.0..1.0);
    }
    theta[SIGMA_INDEX] = rng.gen_range(SIGMA_BOUNDS.0..SIGMA_BOUNDS.1);
    for (k, family) in ALL_FAMILIES.iter().enumerate() {
        for (j, (lo, hi)) in family.bounds().iter().enumerate() {
            theta[FAMILY_OFFSETS[k] + j] = rng.gen_range(*lo..*hi);
        }
    }
    match kind % 4 {
        1 => {
            for w in &mut theta[..11] {
                if rng.gen_range(0..3) == 0 {
                    *w = 0.0;
                }
            }
        }
        2 => {
            for w in &mut theta[..11] {
                *w *= 1e-5;
            }
        }
        3 => {
            let i = rng.gen_range(0..theta.len());
            theta[i] = if rng.gen_range(0..4) == 0 { f64::NAN } else { theta[i] + 1e3 };
        }
        _ => {}
    }
    theta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary curves and arbitrary mixes of proposals sharing a
    /// sweep — in the box, with zero-weight families, below the
    /// weight-mass floor, out of the box, NaN — every output of the fused
    /// evaluator is bitwise the per-proposal posterior, under **both** the
    /// scalar and the SIMD kernel backends explicitly; and whole fits
    /// through it agree bitwise between the backends.
    #[test]
    fn batched_fit_equals_per_curve_under_both_backends(
        seed in 0u64..u64::MAX,
        shape in (0.3f64..0.9, 0.3f64..1.2, 4u32..31),
        slots in 1usize..140,
    ) {
        let (limit, rate, n) = shape;
        let curve = synthetic_curve(limit, rate, n);
        let (grid, ys) = grid_of(&curve, 120.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let thetas: Vec<Vec<f64>> =
            (0..slots).map(|s| random_theta(&mut rng, s as u32)).collect();
        let flat = thetas.concat();
        let mut finite = 0;
        for backend in [Backend::Scalar, Backend::Simd] {
            let mut scratch = FusedScratch::default();
            let mut fused = vec![0.0; slots];
            FusedPosterior::new(&grid, &ys, &mut scratch, backend)
                .log_posteriors(&flat, &mut fused);
            let mut means = vec![0.0; ys.len()];
            let mut reference = PosteriorEvalFast::new(&grid, &ys, &mut means);
            for (s, theta) in thetas.iter().enumerate() {
                let want = reference.log_posterior(theta);
                prop_assert_eq!(
                    fused[s].to_bits(),
                    want.to_bits(),
                    "slot {} of {} diverged under {:?}: {} vs {}",
                    s, slots, backend, fused[s], want
                );
                finite += usize::from(want.is_finite());
                prop_assert!(s % 4 < 2 || !want.is_finite(), "slot {} must be rejected", s);
            }
        }
        prop_assert!(slots < 8 || finite > 0, "no slot ever passed the gates");

        if n >= 6 {
            let predictor = CurvePredictor::new(PredictorConfig::test().with_seed(seed));
            let mut scratch = FitScratch::new();
            let a = predictor
                .fit_with_backend(&curve, 60, &mut scratch, Backend::Scalar)
                .expect("clean curves fit");
            let b = predictor
                .fit_with_backend(&curve, 60, &mut scratch, Backend::Simd)
                .expect("clean curves fit");
            prop_assert_eq!(a.draws(), b.draws(), "whole fits diverged between backends");
            prop_assert_eq!(a.acceptance_rate().to_bits(), b.acceptance_rate().to_bits());
        }
    }
}
