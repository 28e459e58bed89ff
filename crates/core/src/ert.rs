//! Expected-remaining-time estimation (§3.1.1).
//!
//! Given a job's curve posterior, POP computes the probability mass
//! function over *which future epoch* first reaches the target:
//!
//! ```text
//! p_1 = P(y(1) ≥ y_target)
//! p_m = P(y(m) ≥ y_target) − P(y(m−1) ≥ y_target)
//! x_i = Σ m · p_m                      (expected remaining epochs, Eq. 2)
//! ERT_i = x_i · Epoch_i                (expected remaining time, Eq. 3)
//! p    = Σ p_m                         (prediction confidence)
//! ```
//!
//! Summation stops once the accumulated expected remaining time exceeds
//! the remaining experiment budget `Tmax − Tpass` ("we stop summing
//! further for p_m and set ERT_i = Tmax − Tpass since the search algorithm
//! will not run further"), which is why the confidence sum may be below 1.

use hyperdrive_curve::{CurvePosterior, ExceedanceQuery, QUERY_LANES};
use hyperdrive_types::SimTime;

/// The output of one expected-remaining-time estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErtEstimate {
    /// Expected number of remaining epochs `x_i` (Eq. 2), accumulated up
    /// to the truncation point.
    pub expected_remaining_epochs: f64,
    /// Expected remaining time `ERT_i` (Eq. 3), capped at the remaining
    /// budget.
    pub ert: SimTime,
    /// Prediction confidence `p = Σ p_m ∈ [0, 1]`.
    pub confidence: f64,
    /// True if the sum was truncated by the budget cap.
    pub truncated: bool,
}

/// Estimates the expected remaining time for a job to reach `target`.
///
/// * `posterior` — curve posterior fitted on the job's observed history
///   (its `last_epoch` anchors the future epochs `m = 1, 2, …`).
/// * `target` — the target performance `y_target`.
/// * `max_future_epochs` — `M_i = (Tmax − Tpass) / Epoch_i`, additionally
///   capped by the job's own epoch budget.
/// * `epoch_duration` — the measured mean epoch duration `Epoch_i`.
/// * `remaining_budget` — `Tmax − Tpass`.
///
/// [`ert_query`], one sweep of the posterior's draws, [`ert_from_exceedance`];
/// a caller whose fit answers the query while it samples
/// (`FitRequest::query`) calls the two halves itself.
///
/// # Panics
///
/// Panics if `epoch_duration` is not positive.
pub fn estimate_remaining_time(
    posterior: &CurvePosterior,
    target: f64,
    max_future_epochs: u32,
    epoch_duration: SimTime,
    remaining_budget: SimTime,
) -> ErtEstimate {
    let query = ert_query(posterior.last_epoch(), max_future_epochs, target);
    let mut cdfs = [0.0f64; QUERY_LANES];
    let cdfs = &mut cdfs[..query.epochs().len()];
    posterior.prob_at_least_many(query.epochs(), target, cdfs);
    ert_from_exceedance(&query, posterior.last_epoch(), cdfs, epoch_duration, remaining_budget)
}

/// The posterior query behind one estimate: which future epochs of a job
/// now at `now_epoch` to ask `P(y ≥ target)` at.
///
/// Posterior queries cost O(draws × families) per epoch; querying every
/// single future epoch would dominate POP's per-boundary cost. A strided
/// grid of 48–95 query epochs (`M / step` for `step = M / 48`, rounded up)
/// with bucket-midpoint mass assignment approximates Eq. 2 to well under
/// an epoch of error, and fits one sweep of the query kernel.
#[must_use]
pub fn ert_query(now_epoch: u32, max_future_epochs: u32, target: f64) -> ExceedanceQuery {
    let step = (max_future_epochs / 48).max(1);
    let mut epochs = [0u32; QUERY_LANES];
    let mut lanes = 0;
    let mut m: u32 = 0;
    while m < max_future_epochs {
        m = (m + step).min(max_future_epochs);
        debug_assert!(lanes < QUERY_LANES, "stride yields at most 95 query epochs");
        epochs[lanes] = now_epoch + m;
        lanes += 1;
    }
    ExceedanceQuery::new(&epochs[..lanes], target)
}

/// The estimate from the answer to [`ert_query`]: `exceedance[i]` is
/// `P(y ≥ target)` at the query's `i`-th epoch, `now_epoch` the epoch the
/// query was built at. Panics if `epoch_duration` is not positive.
pub fn ert_from_exceedance(
    query: &ExceedanceQuery,
    now_epoch: u32,
    exceedance: &[f64],
    epoch_duration: SimTime,
    remaining_budget: SimTime,
) -> ErtEstimate {
    assert!(
        epoch_duration > SimTime::ZERO,
        "epoch duration must be positive, got {epoch_duration}"
    );
    let mut prev_cdf: f64 = 0.0;
    let mut expected_epochs = 0.0;
    let mut confidence = 0.0;
    let mut truncated = false;
    let mut prev_m: u32 = 0;
    for (&epoch, &cdf) in query.epochs().iter().zip(exceedance) {
        let m = epoch - now_epoch;
        let cdf = cdf.clamp(0.0, 1.0);
        // First-passage mass landing in (prev_m, m]. The posterior is not
        // exactly monotone in m (Monte Carlo noise), so negative
        // increments clamp to zero and the running CDF is kept monotone.
        let pm = (cdf - prev_cdf).max(0.0);
        prev_cdf = prev_cdf.max(cdf);
        let bucket_mid = (f64::from(prev_m) + f64::from(m) + 1.0) / 2.0;
        expected_epochs += bucket_mid * pm;
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

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_curve::{CurvePredictor, PredictorConfig};
    use hyperdrive_types::{LearningCurve, MetricKind};

    fn posterior_for(f: impl Fn(f64) -> f64, n: u32, horizon: u32) -> CurvePosterior {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            c.push(e, SimTime::from_secs(60.0 * x), f(x));
        }
        CurvePredictor::new(PredictorConfig::test().with_seed(5)).fit(&c, horizon).unwrap()
    }

    #[test]
    fn strong_learner_has_high_confidence_and_finite_ert() {
        // Heading to ~0.85; target 0.6 is clearly reachable.
        let posterior = posterior_for(|x| 0.85 - 0.75 * x.powf(-0.8), 15, 200);
        let est = estimate_remaining_time(
            &posterior,
            0.60,
            120,
            SimTime::from_secs(60.0),
            SimTime::from_hours(10.0),
        );
        assert!(est.confidence > 0.6, "confidence {}", est.confidence);
        assert!(est.ert > SimTime::ZERO);
        assert!(est.ert < SimTime::from_hours(10.0));
        assert!(!est.truncated);
    }

    #[test]
    fn hopeless_job_has_low_confidence() {
        // Saturating at ~0.3; target 0.77 unreachable.
        let posterior = posterior_for(|x| 0.30 - 0.20 * x.powf(-0.8), 15, 200);
        let est = estimate_remaining_time(
            &posterior,
            0.77,
            120,
            SimTime::from_secs(60.0),
            SimTime::from_hours(10.0),
        );
        assert!(est.confidence < 0.3, "confidence {}", est.confidence);
    }

    #[test]
    fn confidence_ordering_matches_job_quality() {
        let strong = posterior_for(|x| 0.85 - 0.75 * x.powf(-0.8), 15, 200);
        let weak = posterior_for(|x| 0.45 - 0.35 * x.powf(-0.8), 15, 200);
        let budget = SimTime::from_hours(10.0);
        let dur = SimTime::from_secs(60.0);
        let cs = estimate_remaining_time(&strong, 0.6, 120, dur, budget).confidence;
        let cw = estimate_remaining_time(&weak, 0.6, 120, dur, budget).confidence;
        assert!(cs > cw, "strong {cs} should beat weak {cw}");
    }

    #[test]
    fn tight_budget_truncates_and_caps_ert() {
        // A slow learner against a tiny remaining budget: the sum stops and
        // ERT pins to the budget.
        let posterior = posterior_for(|x| 0.80 - 0.75 * x.powf(-0.35), 12, 400);
        let budget = SimTime::from_mins(5.0); // five epochs' worth
        let est = estimate_remaining_time(&posterior, 0.78, 300, SimTime::from_secs(60.0), budget);
        assert!(est.ert <= budget);
        if est.truncated {
            assert_eq!(est.ert, budget);
            assert!(est.confidence < 1.0);
        }
    }

    #[test]
    fn confidence_is_a_probability() {
        let posterior = posterior_for(|x| 0.6 - 0.5 / x, 10, 150);
        for target in [0.1, 0.5, 0.9] {
            let est = estimate_remaining_time(
                &posterior,
                target,
                100,
                SimTime::from_secs(60.0),
                SimTime::from_hours(5.0),
            );
            assert!((0.0..=1.0).contains(&est.confidence));
            assert!(est.expected_remaining_epochs >= 0.0);
        }
    }

    #[test]
    fn zero_future_epochs_gives_zero_confidence() {
        let posterior = posterior_for(|x| 0.6 - 0.5 / x, 10, 150);
        let est = estimate_remaining_time(
            &posterior,
            0.5,
            0,
            SimTime::from_secs(60.0),
            SimTime::from_hours(5.0),
        );
        assert_eq!(est.confidence, 0.0);
        assert_eq!(est.expected_remaining_epochs, 0.0);
    }

    #[test]
    #[should_panic(expected = "epoch duration must be positive")]
    fn zero_epoch_duration_panics() {
        let posterior = posterior_for(|x| 0.6 - 0.5 / x, 10, 150);
        let _ =
            estimate_remaining_time(&posterior, 0.5, 10, SimTime::ZERO, SimTime::from_hours(5.0));
    }
}
