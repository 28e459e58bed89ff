//! The posterior-query client of the fused arena against the scalar
//! definition: every lane of every query is bitwise what one
//! `family_value_at` per (draw, family, epoch) and one scalar `erf` term
//! per (draw, epoch) give, under both kernel backends, across the lane
//! chunk seam (96) and both draw chunk seams (64), whatever degenerate
//! draws share the sweep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive::curve::ensemble::{dimension, FAMILY_OFFSETS, SIGMA_BOUNDS, SIGMA_INDEX};
use hyperdrive::curve::fastpath::{family_value_at, fast_hoist, FastGrid};
use hyperdrive::curve::vmath::{self, Backend};
use hyperdrive::curve::{CurvePosterior, ALL_FAMILIES, QUERY_LANES};
use hyperdrive::types::stats;

/// The weight mass below which a draw is skipped whole
/// (`ensemble::MIN_WEIGHT_SUM`).
const MIN_WEIGHT_SUM: f64 = 1e-3;
/// `|u|` at which the query saturates its `erf` argument.
const ERF_SATURATION: f64 = 6.0;

/// One draw inside the prior box with a random subset of families active.
fn random_draw(rng: &mut StdRng) -> Vec<f64> {
    let mut theta = vec![0.0; dimension()];
    for w in &mut theta[..11] {
        *w = if rng.gen_range(0..3) == 0 { 0.0 } else { rng.gen_range(0.01..1.0) };
    }
    theta[rng.gen_range(0..11)] = 0.5; // at least one active family
    theta[SIGMA_INDEX] = rng.gen_range(SIGMA_BOUNDS.0..SIGMA_BOUNDS.1);
    for (k, family) in ALL_FAMILIES.iter().enumerate() {
        for (j, (lo, hi)) in family.bounds().iter().enumerate() {
            theta[FAMILY_OFFSETS[k] + j] = rng.gen_range(*lo..*hi);
        }
    }
    theta
}

/// `n` draws, a handful of them degenerate: all weights zero, weight mass
/// under the floor, a NaN weight, and an active family with a NaN
/// parameter (NaN at every lane).
fn posterior(n: usize, seed: u64) -> CurvePosterior {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * dimension());
    for i in 0..n {
        let mut theta = random_draw(&mut rng);
        match (i + 1) % 17 {
            3 => theta[..11].fill(0.0),
            7 => theta[..11].iter_mut().for_each(|w| *w *= 1e-6),
            11 => theta[rng.gen_range(0..11)] = f64::NAN,
            13 => {
                theta[9] = 0.4;
                theta[FAMILY_OFFSETS[9]] = f64::NAN;
            }
            _ => {}
        }
        flat.extend(theta);
    }
    CurvePosterior::from_parts(flat, 10, 300, 0.4).expect("whole rows")
}

/// Each draw's `(sigma, mean curve)` by the scalar definition, degenerate
/// draws omitted: `Σ w_k · family_value_at / Σ w` over the positive-weight
/// families in ascending order.
fn reference_means(posterior: &CurvePosterior, epochs: &[u32]) -> Vec<(f64, Vec<f64>)> {
    let mut grid = FastGrid::new();
    for &e in epochs {
        grid.push(f64::from(e));
    }
    let mut out = Vec::new();
    for theta in posterior.draws() {
        let wsum: f64 = theta[..11].iter().sum();
        if wsum < MIN_WEIGHT_SUM || wsum.is_nan() {
            continue;
        }
        let means = (0..epochs.len())
            .map(|lane| {
                let mut acc = 0.0;
                for (k, &family) in ALL_FAMILIES.iter().enumerate() {
                    if theta[k] > 0.0 {
                        let fp = &theta[FAMILY_OFFSETS[k]..][..family.param_count()];
                        let hoist = fast_hoist(family, fp);
                        acc += theta[k] * family_value_at(family, fp, hoist, &grid, lane);
                    }
                }
                acc / wsum
            })
            .collect();
        out.push((theta[SIGMA_INDEX], means));
    }
    out
}

/// `(expected, prediction_std, prob_at_least)` per epoch from the
/// reference means: Eq. 1's exceedance with the scalar `vmath` exp, and
/// Welford moments, over the lanes where the mean is finite.
fn reference_summary(posterior: &CurvePosterior, epochs: &[u32], target: f64) -> Vec<[f64; 3]> {
    let draws = reference_means(posterior, epochs);
    (0..epochs.len())
        .map(|lane| {
            let (mut total, mut count, mut mean, mut m2) = (0.0, 0.0, 0.0, 0.0);
            for (sigma, means) in &draws {
                let m = means[lane];
                if !m.is_finite() {
                    continue;
                }
                let u = ((m - target) / sigma / std::f64::consts::SQRT_2)
                    .clamp(-ERF_SATURATION, ERF_SATURATION);
                total += 0.5 * (1.0 + stats::erf_with_exp(u, vmath::exp_s(-u * u)));
                count += 1.0;
                let d = m - mean;
                mean += d / count;
                m2 += d * (m - mean);
            }
            if count == 0.0 {
                [f64::NAN, f64::NAN, 0.0]
            } else {
                [mean, (m2 / count).sqrt(), total / count]
            }
        })
        .collect()
}

fn assert_bits(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:e} vs {want:e}");
}

#[test]
fn every_query_lane_is_bitwise_the_scalar_reference() {
    for (d, n_draws) in [1usize, 63, 64, 65, 400].into_iter().enumerate() {
        let posterior = posterior(n_draws, 50 + d as u64);
        for n_lanes in [1usize, 7, 95, 96, 97, 200] {
            // Epoch 0 (NaN memoized logs: every log-based family is NaN
            // there) leads every multi-lane query.
            let epochs: Vec<u32> =
                (0..n_lanes as u32).map(|i| if n_lanes > 1 { 3 * i } else { 40 }).collect();
            let target = 0.55;
            let want = reference_summary(&posterior, &epochs, target);
            let what = |lane: usize, stat: &str| {
                format!("{stat} at lane {lane} of {n_lanes}, {n_draws} draws")
            };

            for backend in [Backend::Scalar, Backend::Simd] {
                let mut probs = vec![0.0; n_lanes];
                posterior.prob_at_least_many_with(backend, &epochs, target, &mut probs);
                for (lane, p) in probs.iter().enumerate() {
                    assert_bits(*p, want[lane][2], &what(lane, &format!("{backend:?} prob")));
                }
            }
            let mut probs = vec![0.0; n_lanes];
            posterior.prob_at_least_many(&epochs, target, &mut probs);
            let mut summary = vec![(0.0, 0.0, 0.0); n_lanes];
            posterior.summary_many(&epochs, target, &mut summary);
            for lane in 0..n_lanes {
                assert_bits(probs[lane], want[lane][2], &what(lane, "prob"));
                assert_bits(summary[lane].0, want[lane][0], &what(lane, "expected"));
                assert_bits(summary[lane].1, want[lane][1], &what(lane, "std"));
                assert_bits(summary[lane].2, want[lane][2], &what(lane, "summary prob"));
            }
            // The single-epoch forms are the batch-of-one: bitwise the
            // matching lane of the larger batch.
            for lane in (0..n_lanes).step_by(n_lanes.div_ceil(5)) {
                let e = epochs[lane];
                assert_bits(posterior.prob_at_least(e, target), probs[lane], &what(lane, "one"));
                assert_bits(posterior.expected(e), summary[lane].0, &what(lane, "expected one"));
                assert_bits(posterior.prediction_std(e), summary[lane].1, &what(lane, "std one"));
            }
            if n_draws >= 63 && n_lanes > 1 {
                assert!(
                    probs[1..].iter().any(|p| (0.01..0.99).contains(p)),
                    "target is not contested: {probs:?}"
                );
            }
        }
    }
}

/// The degenerate draws are excluded, not zero-weighted: a posterior made
/// only of them answers 0 with NaN moments, and adding them to a clean
/// posterior changes no lane.
#[test]
fn degenerate_draws_change_no_lane() {
    let mut rng = StdRng::seed_from_u64(9);
    let clean: Vec<Vec<f64>> = (0..70).map(|_| random_draw(&mut rng)).collect();
    let mut thin = clean[0].clone();
    thin[..11].iter_mut().for_each(|w| *w *= 1e-6);
    let mut nan_weight = clean[1].clone();
    nan_weight[4] = f64::NAN;
    let mut dirty = clean.clone();
    dirty.insert(64, thin.clone());
    dirty.insert(10, nan_weight.clone());
    let build = |draws: &[Vec<f64>]| {
        CurvePosterior::from_parts(draws.concat(), 10, 300, 0.4).expect("whole rows")
    };
    let (clean, dirty, hopeless) = (build(&clean), build(&dirty), build(&[thin, nan_weight]));
    let epochs: Vec<u32> = (1..=QUERY_LANES as u32 + 5).collect();
    let mut a = vec![(0.0, 0.0, 0.0); epochs.len()];
    let mut b = a.clone();
    let mut c = a.clone();
    clean.summary_many(&epochs, 0.5, &mut a);
    dirty.summary_many(&epochs, 0.5, &mut b);
    hopeless.summary_many(&epochs, 0.5, &mut c);
    for (lane, ((a, b), c)) in a.iter().zip(&b).zip(&c).enumerate() {
        assert_bits(a.0, b.0, &format!("expected at lane {lane}"));
        assert_bits(a.1, b.1, &format!("std at lane {lane}"));
        assert_bits(a.2, b.2, &format!("prob at lane {lane}"));
        assert!(c.0.is_nan() && c.1.is_nan() && c.2 == 0.0, "no usable draw at lane {lane}");
    }
}
