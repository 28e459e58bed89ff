//! Property tests on the curve-model substrate: numerical robustness over
//! the entire prior support.

use proptest::prelude::*;

use hyperdrive_curve::ensemble::{self, dimension, SIGMA_BOUNDS, SIGMA_INDEX};
use hyperdrive_curve::models::ALL_FAMILIES;
use hyperdrive_curve::{CurvePredictor, FitPool, PredictorConfig};
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
                let service = FitService::new(config, seed, FitPool::new(threads), None);
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
            let service = FitService::new(config, seed, FitPool::new(2), None);
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
            let writer = FitService::new(config, seed, FitPool::new(1), Some(cache.clone()));
            writer.fit_batch(&requests);
            for threads in [1usize, 4] {
                let reader =
                    FitService::new(config, seed, FitPool::new(threads), Some(cache.clone()));
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
