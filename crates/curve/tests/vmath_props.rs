//! Property tests for the vectorized likelihood kernel: accuracy of the
//! batched transcendental kernels against libm over the predictor's
//! operand ranges, bit-identity of the forced-scalar and dispatched
//! backends on arbitrary bit patterns, and end-to-end determinism of the
//! fit built on them (fresh-scratch refits and the pooled service at
//! several worker counts).

use proptest::prelude::*;

use hyperdrive_curve::vmath::{self, Backend};
use hyperdrive_curve::{
    sequential_fit, CurvePredictor, FitRequest, FitScratch, FitService, PredictorConfig,
};
use hyperdrive_types::{JobId, LearningCurve, MetricKind, SimTime};

fn rel_err(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        got.abs()
    } else {
        ((got - want) / want).abs()
    }
}

fn synthetic_curve(limit: f64, rate: f64, n: u32) -> LearningCurve {
    let mut c = LearningCurve::new(MetricKind::Accuracy);
    for e in 1..=n {
        let x = f64::from(e);
        c.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.1) * x.powf(-rate));
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched exp tracks libm to 1e-13 relative over the full clamp-free
    /// argument range.
    #[test]
    fn vexp_matches_libm(xs in proptest::collection::vec(-700.0f64..700.0, 1..96)) {
        let mut buf = xs.clone();
        vmath::vexp(&mut buf);
        for (&x, &got) in xs.iter().zip(&buf) {
            prop_assert!(rel_err(got, x.exp()) <= 1e-13, "exp({x}) = {got} vs {}", x.exp());
        }
    }

    /// Batched ln tracks libm to 1e-13 relative over a log-uniform span
    /// covering every magnitude the predictor feeds it.
    #[test]
    fn vln_matches_libm(
        parts in proptest::collection::vec((0.1f64..10.0, -12i32..12), 1..96),
    ) {
        let xs: Vec<f64> = parts.iter().map(|&(m, e)| m * 10f64.powi(e)).collect();
        let mut buf = xs.clone();
        vmath::vln(&mut buf);
        for (&x, &got) in xs.iter().zip(&buf) {
            prop_assert!(rel_err(got, x.ln()) <= 1e-13, "ln({x}) = {got} vs {}", x.ln());
        }
    }

    /// Batched pow (exp of y·ln) composes to within 1e-12 of libm powf over
    /// the predictor's base/exponent ranges.
    #[test]
    fn vpow_matches_libm(
        xs in proptest::collection::vec(0.01f64..200.0, 1..96),
        y in -6.0f64..6.0,
    ) {
        let mut buf = xs.clone();
        vmath::vpow(&mut buf, y);
        for (&x, &got) in xs.iter().zip(&buf) {
            prop_assert!(
                rel_err(got, x.powf(y)) <= 1e-12,
                "pow({x}, {y}) = {got} vs {}",
                x.powf(y)
            );
        }
    }

    /// The forced-scalar loop and the dispatch target produce identical bit
    /// patterns on *arbitrary* `f64` bit patterns — NaNs, infinities,
    /// subnormals, negatives included.
    #[test]
    fn backends_are_bit_identical_on_arbitrary_bits(
        bits in proptest::collection::vec(0u64..u64::MAX, 1..128),
        y in -8.0f64..8.0,
    ) {
        let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        for (name, run) in [
            ("vexp", &(|backend, buf: &mut [f64]| vmath::vexp_with(backend, buf))
                as &dyn Fn(Backend, &mut [f64])),
            ("vln", &|backend, buf: &mut [f64]| vmath::vln_with(backend, buf)),
            ("vpow", &|backend, buf: &mut [f64]| vmath::vpow_with(backend, buf, y)),
        ] {
            let mut scalar = vals.clone();
            let mut simd = vals.clone();
            run(Backend::Scalar, &mut scalar);
            run(Backend::Simd, &mut simd);
            for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
                prop_assert_eq!(
                    s.to_bits(),
                    v.to_bits(),
                    "{}: lane {} diverged on input {:e}",
                    name,
                    i,
                    vals[i]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fast fitting path is deterministic: refitting the same curve
    /// through a fresh scratch reproduces the posterior bit for bit, and
    /// stays distinct from the reference path only in value, never in
    /// shape (same draw count, both finite).
    #[test]
    fn fast_fit_is_deterministic(
        seed in 0u64..u64::MAX,
        limit in 0.2f64..0.9,
        rate in 0.3f64..1.2,
        n in 6u32..14,
    ) {
        let curve = synthetic_curve(limit, rate, n);
        let fast = CurvePredictor::new(PredictorConfig::test().with_seed(seed));
        let mut s1 = FitScratch::new();
        let mut s2 = FitScratch::new();
        let a = fast.fit_with(&curve, 100, &mut s1);
        let b = fast.fit_with(&curve, 100, &mut s2);
        match (&a, &b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.draws(), b.draws());
                prop_assert_eq!(a.expected(100).to_bits(), b.expected(100).to_bits());
                prop_assert_eq!(
                    a.acceptance_rate().to_bits(),
                    b.acceptance_rate().to_bits()
                );
            }
            (Err(x), Err(y)) => prop_assert_eq!(x.to_string(), y.to_string()),
            (x, y) => prop_assert!(false, "first ok={} second ok={}", x.is_ok(), y.is_ok()),
        }
    }

    /// The pooled service on the fast path is observationally equal to the
    /// sequential fast fit at 1 and 4 workers: the batched kernels cannot
    /// leak worker scheduling into results.
    #[test]
    fn fast_service_is_thread_invariant(
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
}
