//! Property tests for the draw-major posterior-query kernel
//! (`CurvePosterior::prob_at_least_many`) and the remaining-time estimate
//! built on it.
//!
//! The kernel evaluates every draw's mean curve through the batched
//! `vmath` kernels; the oracle here is the plain definition — one libm
//! `ParamView::mean` and one `stats::normal_cdf` per epoch per draw — so
//! agreement pins both the regrouping (draw-major, family-major lanes) and
//! the kernel approximations on the posteriors the scheduler actually
//! queries: fitted CIFAR accuracy curves and Lunar Lander reward curves.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hyperdrive::curve::ensemble::{dimension, ParamView, FAMILY_OFFSETS};
use hyperdrive::curve::vmath::Backend;
use hyperdrive::curve::{CurvePosterior, CurvePredictor, Draws, PredictorConfig, QUERY_LANES};
use hyperdrive::pop::{estimate_remaining_time, ErtEstimate};
use hyperdrive::types::stats;
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::{LearningCurve, MetricKind, SimTime};

/// Fits a posterior on the first `prefix` epochs of one sampled
/// configuration of `workload`.
fn fitted(workload: &dyn Workload, kind: MetricKind, seed: u64, prefix: u32) -> CurvePosterior {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = workload.profile(&workload.space().sample(&mut rng), seed);
    let mut curve = LearningCurve::new(kind);
    for e in 1..=prefix {
        curve.push(e, SimTime::from_mins(f64::from(e)), profile.value_at(e));
    }
    CurvePredictor::new(PredictorConfig::test().with_seed(seed))
        .fit(&curve, workload.max_epochs())
        .expect("a workload prefix fits")
}

fn cifar_posterior(seed: u64, prefix: u32) -> CurvePosterior {
    fitted(&CifarWorkload::new(), MetricKind::Accuracy, seed, prefix)
}

fn lunar_posterior(seed: u64, prefix: u32) -> CurvePosterior {
    fitted(&LunarWorkload::new(), MetricKind::Reward, seed, prefix)
}

/// Eq. 1 by its definition: libm mean curve and libm normal CDF, one
/// epoch and one draw at a time, skipping draws whose mean is not finite.
fn oracle_prob_at_least(draws: Draws<'_>, epoch: u32, target: f64) -> f64 {
    let x = f64::from(epoch);
    let (mut total, mut count) = (0.0, 0usize);
    for theta in draws {
        let view = ParamView::new(theta);
        let m = view.mean(x);
        if m.is_finite() {
            total += stats::normal_cdf((m - target) / view.sigma());
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// A strided grid of future epochs, like the remaining-time estimate's.
fn future_epochs(posterior: &CurvePosterior, n: usize, step: u32) -> Vec<u32> {
    (1..=n as u32).map(|i| posterior.last_epoch() + i * step).collect()
}

fn query(posterior: &CurvePosterior, epochs: &[u32], target: f64) -> Vec<f64> {
    let mut out = vec![0.0; epochs.len()];
    posterior.prob_at_least_many(epochs, target, &mut out);
    out
}

/// A target the posterior is undecided about: its own expected value
/// `ahead` epochs out, shifted by `offset`. (Against a fixed target most
/// fitted posteriors answer exactly 0 or 1 at every epoch, which would
/// make every comparison below vacuous.)
fn contested_target(posterior: &CurvePosterior, ahead: u32, offset: f64) -> f64 {
    posterior.expected(posterior.last_epoch() + ahead) + offset
}

/// The three kernel properties on one posterior: oracle agreement,
/// batch-of-one ≡ lane-of-many, and backend invariance.
fn check_kernel(posterior: &CurvePosterior, offset: f64) -> Result<(), TestCaseError> {
    let epochs = future_epochs(posterior, 60, 2);
    let target = contested_target(posterior, 60, offset);
    let many = query(posterior, &epochs, target);
    prop_assert!(
        many.iter().any(|p| (0.01..0.99).contains(p)),
        "target {target} is not contested: {many:?}"
    );
    for backend in [Backend::Scalar, Backend::Simd] {
        let mut out = vec![0.0; epochs.len()];
        posterior.prob_at_least_many_with(backend, &epochs, target, &mut out);
        for (lane, (a, b)) in many.iter().zip(&out).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "lane {} under {:?}", lane, backend);
        }
    }
    for (lane, (&epoch, &p)) in epochs.iter().zip(&many).enumerate() {
        let oracle = oracle_prob_at_least(posterior.draws(), epoch, target);
        prop_assert!(
            (p - oracle).abs() <= 1e-9,
            "lane {lane} epoch {epoch}: kernel {p} vs oracle {oracle}"
        );
        let one = posterior.prob_at_least(epoch, target);
        prop_assert_eq!(one.to_bits(), p.to_bits(), "batch-of-one differs at lane {}", lane);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kernel_matches_the_libm_oracle_on_cifar_posteriors(
        seed in 0u64..10_000,
        prefix in 6u32..30,
        offset in -0.03f64..0.03,
    ) {
        check_kernel(&cifar_posterior(seed, prefix), offset)?;
    }

    #[test]
    fn kernel_matches_the_libm_oracle_on_lunar_posteriors(
        seed in 0u64..10_000,
        prefix in 10u32..60,
        offset in -0.03f64..0.03,
    ) {
        check_kernel(&lunar_posterior(seed, prefix), offset)?;
    }

    /// `estimate_remaining_time` is the old per-epoch loop with the
    /// queries hoisted into one kernel call: stride, bucket midpoints,
    /// monotone clamp, and budget truncation all unchanged.
    #[test]
    fn remaining_time_matches_the_per_epoch_reference_loop(
        seed in 0u64..10_000,
        every_epoch in 0u32..96,
        strided in 96u32..5_000,
        offset in -0.03f64..0.03,
        budget_epochs in 1.0f64..400.0,
    ) {
        let posterior = cifar_posterior(seed, 12);
        let target = contested_target(&posterior, 40, offset);
        let epoch = SimTime::from_secs(90.0);
        let budget = SimTime::from_secs(90.0 * budget_epochs);
        // Below 96 future epochs the stride is 1; above, it grows.
        for max_future in [every_epoch, strided] {
            let got = estimate_remaining_time(&posterior, target, max_future, epoch, budget);
            let want = reference_remaining_time(&posterior, target, max_future, epoch, budget);
            prop_assert!((got.confidence - want.confidence).abs() <= 1e-9);
            prop_assert!(
                (got.expected_remaining_epochs - want.expected_remaining_epochs).abs() <= 1e-9
            );
            prop_assert_eq!(got.truncated, want.truncated);
            prop_assert_eq!(got.ert, want.ert);
        }
    }
}

/// The remaining-time estimate as it was before the query kernel: one
/// `prob_at_least` per strided future epoch, stopping at the budget.
fn reference_remaining_time(
    posterior: &CurvePosterior,
    target: f64,
    max_future_epochs: u32,
    epoch_duration: SimTime,
    remaining_budget: SimTime,
) -> ErtEstimate {
    let now_epoch = posterior.last_epoch();
    let (mut prev_cdf, mut expected_epochs, mut confidence) = (0.0f64, 0.0, 0.0);
    let mut truncated = false;
    let step = (max_future_epochs / 48).max(1);
    let mut prev_m: u32 = 0;
    while prev_m < max_future_epochs {
        let m = (prev_m + step).min(max_future_epochs);
        let cdf = posterior.prob_at_least(now_epoch + m, target).clamp(0.0, 1.0);
        let pm = (cdf - prev_cdf).max(0.0);
        prev_cdf = prev_cdf.max(cdf);
        expected_epochs += (f64::from(prev_m) + f64::from(m) + 1.0) / 2.0 * pm;
        confidence += pm;
        prev_m = m;
        if SimTime::from_secs(expected_epochs * epoch_duration.as_secs()) > remaining_budget {
            truncated = true;
            break;
        }
    }
    let ert = if truncated {
        remaining_budget
    } else {
        SimTime::from_secs(expected_epochs * epoch_duration.as_secs()).min(remaining_budget)
    };
    ErtEstimate {
        expected_remaining_epochs: expected_epochs,
        ert,
        confidence: confidence.clamp(0.0, 1.0),
        truncated,
    }
}

#[test]
fn remaining_time_of_zero_future_epochs_is_zero() {
    let posterior = cifar_posterior(3, 12);
    let est = estimate_remaining_time(
        &posterior,
        0.5,
        0,
        SimTime::from_secs(60.0),
        SimTime::from_hours(5.0),
    );
    assert_eq!(est.confidence, 0.0);
    assert_eq!(est.expected_remaining_epochs, 0.0);
    assert_eq!(est.ert, SimTime::ZERO);
    assert!(!est.truncated);
}

/// Queries longer than one sweep's lane capacity run in chunks; every
/// lane must still be the batch-of-one bit for bit.
#[test]
fn queries_longer_than_one_sweep_are_chunked_lane_exactly() {
    let posterior = cifar_posterior(5, 15);
    let epochs = future_epochs(&posterior, 2 * QUERY_LANES + 7, 1);
    let target = contested_target(&posterior, 60, 0.0);
    let many = query(&posterior, &epochs, target);
    for (&epoch, p) in epochs.iter().zip(&many) {
        assert_eq!(posterior.prob_at_least(epoch, target).to_bits(), p.to_bits(), "epoch {epoch}");
    }
}

/// Rebuilds `posterior` with `extra` draws interleaved among its own.
fn with_extra_draws(posterior: &CurvePosterior, extra: &[Vec<f64>]) -> CurvePosterior {
    let mut draws: Vec<&[f64]> = posterior.draws().iter().collect();
    for (i, d) in extra.iter().enumerate() {
        draws.insert((i * 37) % draws.len(), d);
    }
    CurvePosterior::from_parts(
        draws.concat(),
        posterior.last_epoch(),
        posterior.horizon(),
        posterior.acceptance_rate(),
        false,
    )
    .expect("whole rows")
}

/// A draw with a degenerate weight sum, or whose active family diverges
/// at every epoch, contributes to neither the numerator nor the count:
/// the doctored posterior answers exactly like the clean one.
#[test]
fn degenerate_draws_are_excluded_from_numerator_and_count() {
    let posterior = cifar_posterior(9, 14);
    let template = posterior.draws()[0].to_vec();
    assert_eq!(template.len(), dimension());

    let mut zero_weights = template.clone();
    zero_weights[..11].fill(0.0);
    let mut nan_weight = template.clone();
    nan_weight[3] = f64::NAN;
    // An active family (vapor pressure) with a NaN parameter is NaN at
    // every epoch. (Overflow is no such case: `vmath`'s exp saturates at
    // e^709 where libm returns inf — unreachable inside the prior box.)
    let mut diverging = template.clone();
    diverging[9] = 0.5;
    diverging[FAMILY_OFFSETS[9]] = f64::NAN;

    let doctored = with_extra_draws(&posterior, &[zero_weights, nan_weight, diverging.clone()]);
    assert_eq!(doctored.n_draws(), posterior.n_draws() + 3);
    let epochs = future_epochs(&posterior, 40, 3);
    let target = contested_target(&posterior, 60, 0.0);
    let clean = query(&posterior, &epochs, target);
    let dirty = query(&doctored, &epochs, target);
    assert!(clean.iter().any(|p| (0.01..0.99).contains(p)), "uncontested: {clean:?}");
    for (lane, (c, d)) in clean.iter().zip(&dirty).enumerate() {
        assert_eq!(c.to_bits(), d.to_bits(), "lane {lane}: an excluded draw leaked in");
    }

    let hopeless = CurvePosterior::from_parts(diverging, 10, 100, 0.5, false).expect("one row");
    assert_eq!(query(&hopeless, &[20, 50], 0.6), vec![0.0, 0.0], "no usable draw → 0");
}

/// A family that diverges at *some* epochs only drops its draw from those
/// lanes alone. Pow4 `c − (a·x + b)^−α` with `b < 0` is NaN while
/// `a·x + b < 0` and finite after, under libm `powf` and `vmath` alike.
#[test]
fn a_draw_diverging_at_some_epochs_is_skipped_per_lane() {
    let posterior = cifar_posterior(11, 14);
    let mut partial = posterior.draws()[1].to_vec();
    partial[1] = 0.4; // pow4 weight
    let off = FAMILY_OFFSETS[1];
    partial[off + 1] = 1.0; // a
    partial[off + 2] = -40.0; // b: negative base up to epoch 40
    let view = ParamView::new(&partial);
    assert!(view.mean(30.0).is_nan() && view.mean(60.0).is_finite(), "test premise");

    let doctored = with_extra_draws(&posterior, &[partial]);
    let epochs: Vec<u32> = (20..80).step_by(3).collect();
    let target = contested_target(&posterior, 40, 0.0);
    let got = query(&doctored, &epochs, target);
    for (&epoch, p) in epochs.iter().zip(&got) {
        let oracle = oracle_prob_at_least(doctored.draws(), epoch, target);
        assert!((p - oracle).abs() <= 1e-9, "epoch {epoch}: kernel {p} vs oracle {oracle}");
    }
}
