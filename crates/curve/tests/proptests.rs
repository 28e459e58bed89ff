//! Property tests on the curve-model substrate: numerical robustness over
//! the entire prior support.

use proptest::prelude::*;

use hyperdrive_curve::ensemble::{self, dimension, SIGMA_BOUNDS, SIGMA_INDEX};
use hyperdrive_curve::models::ALL_FAMILIES;
use hyperdrive_curve::{CurvePredictor, PredictorConfig};
use hyperdrive_types::{LearningCurve, MetricKind, SimTime};

/// Strategy: one parameter vector inside every family's prior box.
fn theta_in_box() -> impl Strategy<Value = Vec<f64>> {
    let mut parts: Vec<BoxedStrategy<f64>> = Vec::with_capacity(dimension());
    for _ in 0..11 {
        parts.push((0.001f64..=1.0).boxed()); // weights
    }
    parts.push((SIGMA_BOUNDS.0..=SIGMA_BOUNDS.1).boxed()); // sigma
    for family in ALL_FAMILIES {
        for (lo, hi) in family.bounds() {
            // Stay strictly inside to dodge boundary rounding.
            let w = hi - lo;
            parts.push((lo + w * 1e-9..=hi - w * 1e-9).boxed());
        }
    }
    parts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every family evaluates to a finite, sanely bounded value anywhere
    /// inside its prior box over the training horizon.
    #[test]
    fn family_evals_are_finite_in_box(theta in theta_in_box(), x in 1.0f64..500.0) {
        let view = ensemble::ParamView::new(&theta);
        for (k, family) in ALL_FAMILIES.iter().enumerate() {
            let y = family.eval(x, view.family_params(k));
            prop_assert!(y.is_finite(), "{} diverged at x={x}: {y}", family.name());
            prop_assert!(y.abs() < 1e4, "{} wild at x={x}: {y}", family.name());
        }
    }

    /// The combined mean is finite inside the box, and the log-posterior
    /// is never NaN (finite or -inf).
    #[test]
    fn log_posterior_is_never_nan(
        theta in theta_in_box(),
        values in proptest::collection::vec(0.0f64..=1.0, 4..20),
    ) {
        prop_assert!(ensemble::in_prior_box(&theta));
        let obs: Vec<(f64, f64)> =
            values.iter().enumerate().map(|(i, v)| (i as f64 + 1.0, *v)).collect();
        let lp = ensemble::log_posterior(&theta, &obs, 200.0);
        prop_assert!(!lp.is_nan(), "log-posterior NaN");
        let view = ensemble::ParamView::new(&theta);
        let m = view.mean(10.0);
        prop_assert!(!m.is_nan() || lp == f64::NEG_INFINITY);
    }

    /// Vectors outside the box are rejected.
    #[test]
    fn out_of_box_is_rejected(mut theta in theta_in_box(), idx in 0usize..48) {
        theta[idx] = 1e9;
        prop_assert!(!ensemble::in_prior_box(&theta));
        prop_assert_eq!(
            ensemble::log_posterior(&theta, &[(1.0, 0.5)], 100.0),
            f64::NEG_INFINITY
        );
    }

    /// The fitted posterior's probabilities are proper and monotone in the
    /// target for arbitrary monotone curves.
    #[test]
    fn posterior_probabilities_are_proper(
        limit in 0.2f64..0.9,
        rate in 0.3f64..1.2,
        n in 6u32..16,
    ) {
        let mut curve = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            curve.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.1) * x.powf(-rate));
        }
        let posterior = CurvePredictor::new(PredictorConfig::test().with_seed(1))
            .fit(&curve, 100)
            .expect("fit succeeds on clean curves");
        let mut last = f64::INFINITY;
        for target in [0.05, 0.3, 0.6, 0.95] {
            let p = posterior.prob_at_least(100, target);
            prop_assert!((0.0..=1.0).contains(&p), "p={p}");
            prop_assert!(p <= last + 1e-9, "monotone in target");
            last = p;
        }
        let e = posterior.expected(100);
        prop_assert!(e.is_finite() && (-0.5..=1.5).contains(&e), "expected {e}");
        prop_assert!(posterior.prediction_std(100) >= 0.0);
    }
}

#[test]
fn sigma_index_is_consistent() {
    assert_eq!(SIGMA_INDEX, 11);
    assert_eq!(dimension(), 48);
}

mod hot_path_equivalence {
    use super::*;
    use hyperdrive_curve::ensemble::PosteriorEval;
    use hyperdrive_curve::models::GridPoint;
    use hyperdrive_curve::FitScratch;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The scratch-buffer likelihood path ([`PosteriorEval`], with
        /// memoized grid transcendentals and hoisted parameter terms) is
        /// bit-identical to the reference [`ensemble::log_posterior`] for
        /// arbitrary parameter vectors, observation sets, and horizons —
        /// including reused-buffer evaluation, which is how the MCMC loop
        /// drives it.
        #[test]
        fn scratch_likelihood_is_bitwise_identical_to_reference(
            thetas in proptest::collection::vec(theta_in_box(), 1..4),
            values in proptest::collection::vec(0.0f64..=1.0, 2..20),
            horizon in 1.0f64..500.0,
        ) {
            let obs: Vec<(f64, f64)> =
                values.iter().enumerate().map(|(i, v)| (i as f64 + 1.0, *v)).collect();
            let last_x = obs.last().unwrap().0;
            let mut pts: Vec<GridPoint> = obs.iter().map(|&(x, _)| GridPoint::new(x)).collect();
            pts.push(GridPoint::new(horizon.max(last_x)));
            let ys: Vec<f64> = obs.iter().map(|&(_, y)| y).collect();
            let mut means = vec![0.0; ys.len()];
            let mut eval = PosteriorEval::new(&pts, &ys, &mut means);
            for theta in &thetas {
                let reference = ensemble::log_posterior(theta, &obs, horizon.max(last_x));
                let optimized = eval.log_posterior(theta);
                prop_assert_eq!(
                    optimized.to_bits(),
                    reference.to_bits(),
                    "optimized {} != reference {}",
                    optimized,
                    reference
                );
            }
        }

        /// The optimized libm fit (`with_fast_math(false)`: scratch buffers,
        /// memoized grid, in-place Nelder–Mead and sampler) returns
        /// **bit-identical** posteriors to the retained reference path for
        /// arbitrary curve shapes and seeds — including back-to-back fits
        /// through one reused scratch.
        #[test]
        fn optimized_fit_is_bitwise_identical_to_reference(
            seed in 0u64..u64::MAX,
            shapes in proptest::collection::vec((0.2f64..0.9, 0.3f64..1.2, 6u32..14), 1..3),
        ) {
            let mut scratch = FitScratch::new();
            for (i, (limit, rate, n)) in shapes.iter().enumerate() {
                let mut curve = LearningCurve::new(MetricKind::Accuracy);
                for e in 1..=*n {
                    let x = f64::from(e);
                    curve.push(
                        e,
                        SimTime::from_secs(60.0 * x),
                        limit - (limit - 0.1) * x.powf(-rate),
                    );
                }
                let predictor = CurvePredictor::new(
                    PredictorConfig::test()
                        .with_fast_math(false)
                        .with_seed(seed.wrapping_add(i as u64)),
                );
                let reference = predictor.fit_reference(&curve, 100);
                let optimized = predictor.fit_with(&curve, 100, &mut scratch);
                match (&optimized, &reference) {
                    (Ok(o), Ok(r)) => {
                        prop_assert_eq!(o.draws(), r.draws());
                        prop_assert_eq!(o.acceptance_rate().to_bits(), r.acceptance_rate().to_bits());
                        prop_assert_eq!(o.expected(100).to_bits(), r.expected(100).to_bits());
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => prop_assert!(
                        false,
                        "optimized ok={} but reference ok={}",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

mod fused_evaluator {
    use super::*;
    use hyperdrive_curve::ensemble::{dimension, FAMILY_OFFSETS, SIGMA_BOUNDS, SIGMA_INDEX};
    use hyperdrive_curve::fastpath::{FastGrid, PosteriorEvalFast};
    use hyperdrive_curve::vmath::Backend;
    use hyperdrive_curve::{
        CurveObjective, FitScratch, FusedPosterior, FusedScratch, ALL_FAMILIES,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        /// sweep — in the box,
        /// with zero-weight families, below the weight-mass floor, out of
        /// the box, NaN — every output of the fused evaluator is bitwise
        /// the per-proposal `fast_math` posterior, under **both** the
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
            let mut grid = FastGrid::new();
            let mut ys = Vec::new();
            for p in curve.points() {
                grid.push(f64::from(p.epoch));
                ys.push(p.value);
            }
            grid.push(120.0);
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
}

mod service_equivalence {
    use super::*;
    use hyperdrive_curve::{sequential_fit, FitRequest, FitService};
    use hyperdrive_types::JobId;

    fn synthetic_curve(limit: f64, rate: f64, n: u32) -> LearningCurve {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            c.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.05) * x.powf(-rate));
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The pooled service is observationally equal to the sequential
        /// reference: for arbitrary experiment seeds and curve shapes,
        /// every posterior's draws match bit-for-bit at both 1 and 4
        /// workers. This is the determinism contract the scheduler's
        /// byte-identical traces rest on.
        #[test]
        fn parallel_service_equals_sequential_reference(
            seed in 0u64..u64::MAX,
            shapes in proptest::collection::vec((0.3f64..0.9, 0.3f64..1.2, 6u32..12), 1..5),
        ) {
            let config = PredictorConfig::test();
            let requests: Vec<FitRequest> = shapes
                .iter()
                .enumerate()
                .map(|(j, (limit, rate, n))| FitRequest {
                    job: JobId::new(j as u64),
                    curve: synthetic_curve(*limit, *rate, *n),
                    horizon: 60,
                    query: None,
                })
                .collect();
            for threads in [1usize, 4] {
                let service = FitService::new(config, seed, threads);
                let outcomes = service.fit_batch(&requests);
                for (r, o) in requests.iter().zip(&outcomes) {
                    prop_assert!(!o.cached, "fresh service must cold-fit");
                    let reference = sequential_fit(config, seed, r);
                    match (&o.result, &reference) {
                        (Ok(pooled), Ok(seq)) => {
                            prop_assert_eq!(pooled.draws(), seq.draws());
                            prop_assert_eq!(
                                pooled.expected(60).to_bits(),
                                seq.expected(60).to_bits()
                            );
                        }
                        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                        (a, b) => prop_assert!(
                            false,
                            "pooled ok={} but sequential ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ),
                    }
                }
            }
        }

        /// A cache hit is indistinguishable from the cold fit it memoized:
        /// identical draws, identical derived statistics.
        #[test]
        fn cache_hit_equals_cold_fit(
            seed in 0u64..u64::MAX,
            limit in 0.3f64..0.9,
            rate in 0.3f64..1.2,
            n in 6u32..12,
        ) {
            let config = PredictorConfig::test();
            let request = FitRequest {
                job: JobId::new(0),
                curve: synthetic_curve(limit, rate, n),
                horizon: 60,
                query: None,
            };
            let service = FitService::new(config, seed, 2);
            let cold = service.fit_batch(std::slice::from_ref(&request));
            let warm = service.fit_batch(std::slice::from_ref(&request));
            prop_assert!(!cold[0].cached);
            prop_assert!(warm[0].cached);
            let c = cold[0].result.as_ref().expect("cold fit succeeds");
            let w = warm[0].result.as_ref().expect("warm fit succeeds");
            prop_assert_eq!(c.draws(), w.draws());
            prop_assert_eq!(c.expected(60).to_bits(), w.expected(60).to_bits());
            prop_assert_eq!(c.prob_at_least(60, 0.5).to_bits(), w.prob_at_least(60, 0.5).to_bits());
        }

        /// The shared content-addressed layer's guarantee: a shared-cache
        /// hit in a *different service instance* (fresh per-run cache,
        /// arbitrary seed and curve shape, any worker count) is bitwise
        /// the posterior the cold sequential reference produces, and the
        /// hit is reported `cached: false` so callers price it like the
        /// fit it replaced.
        #[test]
        fn shared_cache_hit_equals_cold_fit_bitwise(
            seed in 0u64..u64::MAX,
            shapes in proptest::collection::vec((0.3f64..0.9, 0.3f64..1.2, 6u32..12), 1..4),
        ) {
            let config = PredictorConfig::test();
            let requests: Vec<FitRequest> = shapes
                .iter()
                .enumerate()
                .map(|(j, (limit, rate, n))| FitRequest {
                    job: JobId::new(j as u64),
                    curve: synthetic_curve(*limit, *rate, *n),
                    horizon: 60,
                    query: None,
                })
                .collect();
            let cache = hyperdrive_curve::SharedFitCache::in_memory();
            let writer = FitService::with_shared_cache(config, seed, 1, Some(cache.clone()));
            writer.fit_batch(&requests);
            for threads in [1usize, 4] {
                let reader =
                    FitService::with_shared_cache(config, seed, threads, Some(cache.clone()));
                let outcomes = reader.fit_batch(&requests);
                let stats = reader.stats();
                prop_assert_eq!(stats.fits, 0, "a warmed replay must execute no fits");
                prop_assert_eq!(stats.shared_hits, requests.len() as u64);
                for (r, o) in requests.iter().zip(&outcomes) {
                    prop_assert!(!o.cached, "shared hits must look like fresh fits");
                    let reference = sequential_fit(config, seed, r).expect("reference fits");
                    let hit = o.result.as_ref().expect("shared hit is a posterior");
                    prop_assert_eq!(hit.draws(), reference.draws());
                    prop_assert_eq!(hit.expected(60).to_bits(), reference.expected(60).to_bits());
                    prop_assert_eq!(
                        hit.acceptance_rate().to_bits(),
                        reference.acceptance_rate().to_bits()
                    );
                }
            }
        }
    }
}
