//! Affine-invariant ensemble MCMC (Goodman & Weare stretch move).
//!
//! This is the same sampler family as the `emcee` package used by the
//! reference implementation of the learning-curve model
//! (pylearningcurvepredictor). §5.2 of the paper runs it with
//! `nwalkers = 100` and reduces `nsamples` from 2500 to 700 as an
//! optimization; both operating points are presets in
//! [`crate::PredictorConfig`].
//!
//! The implementation uses the standard two-half ("red-black") update: the
//! ensemble is split in two, and each half is moved by stretching toward
//! walkers sampled from the *other* half, which keeps the update valid.
//!
//! # The RNG schedule is a contract
//!
//! Within a half every proposal depends only on the frozen complementary
//! half, so — like `emcee` — a half-sweep proposes and scores the whole
//! half at once. Per half-sweep the samplers (a) draw `(j, u)` for every
//! walker of the half in walker order and write all proposals into one
//! flat `k × dim` buffer, (b) make **one** call to the batch evaluator
//! `FnMut(&[f64] /* k proposals */, &mut [f64] /* k log-probabilities */)`,
//! (c) accept or reject in walker order, drawing the accept uniform only
//! when `lp.is_finite() && log_accept >= 0` does not already decide. Every
//! fit in the repo (sequential or pooled) runs this one schedule through
//! [`sample_into`], and the reference [`sample`] runs it too; changing it
//! changes every posterior, so it is pinned by
//! `half_sweep_draws_every_proposal_before_any_accept_draw` below and by
//! the golden traces.

use rand::Rng;

use crate::batch::MAX_SLOTS;

/// Options for an ensemble-sampler run.
#[derive(Debug, Clone, Copy)]
pub struct SamplerOptions {
    /// Number of steps each walker takes (total likelihood evaluations are
    /// `walkers * steps`).
    pub steps: usize,
    /// Leading fraction of steps discarded as burn-in.
    pub burn_in_frac: f64,
    /// Keep every `thin`-th post-burn-in ensemble snapshot.
    pub thin: usize,
    /// Stretch-move scale parameter `a` (standard value 2.0).
    pub stretch: f64,
}

impl Default for SamplerOptions {
    fn default() -> Self {
        SamplerOptions { steps: 700, burn_in_frac: 0.3, thin: 2, stretch: 2.0 }
    }
}

/// Result of a sampler run.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Retained posterior draws (flattened across walkers and steps).
    pub draws: Vec<Vec<f64>>,
    /// Log-probabilities of the retained draws.
    pub log_probs: Vec<f64>,
    /// Fraction of proposed moves accepted.
    pub acceptance_rate: f64,
}

impl Chain {
    /// The draw with the highest log-probability (MAP estimate among
    /// retained draws).
    pub fn map_draw(&self) -> Option<&[f64]> {
        let mut best: Option<usize> = None;
        for (i, lp) in self.log_probs.iter().enumerate() {
            if best.is_none_or(|b| *lp > self.log_probs[b]) {
                best = Some(i);
            }
        }
        best.map(|i| self.draws[i].as_slice())
    }
}

/// Adapts a one-position log-probability into the batch evaluator the
/// samplers take, scoring a half's proposals one after another (what the
/// tests drive [`sample`] with; fits fuse a half's proposals instead, see
/// [`crate::batch`]).
pub fn score_each<F>(dim: usize, mut log_prob: F) -> impl FnMut(&[f64], &mut [f64])
where
    F: FnMut(&[f64]) -> f64,
{
    move |thetas, out| {
        for (theta, lp) in thetas.chunks_exact(dim).zip(out.iter_mut()) {
            *lp = log_prob(theta);
        }
    }
}

/// `z ~ g(z) ∝ 1/sqrt(z)` on `[1/a, a]` from a uniform `u`.
#[inline]
fn stretch_factor(u: f64, a: f64) -> f64 {
    let s = u * (a.sqrt() - 1.0 / a.sqrt()) + 1.0 / a.sqrt();
    s * s
}

/// Runs the stretch-move ensemble sampler (the allocating reference of
/// [`sample_into`]; same schedule, see the module docs).
///
/// `log_probs` scores a flat batch of positions (see [`score_each`] for a
/// one-at-a-time adapter). `init` supplies one starting position per
/// walker; every position must have finite log-probability (the caller is
/// responsible for initializing inside the prior support — see
/// [`crate::fit`]).
///
/// # Panics
///
/// Panics if fewer than 4 walkers are supplied, walkers have inconsistent
/// dimensions, or no initial position has finite log-probability.
pub fn sample<F, R>(
    mut log_probs: F,
    init: Vec<Vec<f64>>,
    opts: SamplerOptions,
    rng: &mut R,
) -> Chain
where
    F: FnMut(&[f64], &mut [f64]),
    R: Rng + ?Sized,
{
    let n_walkers = init.len();
    assert!(n_walkers >= 4, "need at least 4 walkers, got {n_walkers}");
    let dim = init[0].len();
    assert!(init.iter().all(|w| w.len() == dim), "walkers must share dimension");

    let mut positions = init;
    let mut lps = vec![0.0; n_walkers];
    log_probs(&positions.concat(), &mut lps);
    assert!(
        lps.iter().any(|lp| lp.is_finite()),
        "no initial walker position has finite log-probability"
    );
    // Walkers that start at -inf are snapped to the best initial position so
    // the ensemble does not carry dead weight.
    let best0 = (0..n_walkers)
        .max_by(|&a, &b| lps[a].partial_cmp(&lps[b]).expect("log probs comparable"))
        .expect("non-empty ensemble");
    let (best_pos, best_lp) = (positions[best0].clone(), lps[best0]);
    for i in 0..n_walkers {
        if !lps[i].is_finite() {
            positions[i] = best_pos.clone();
            lps[i] = best_lp;
        }
    }

    let burn_in = ((opts.steps as f64) * opts.burn_in_frac).floor() as usize;
    let thin = opts.thin.max(1);
    let a = opts.stretch.max(1.0 + 1e-6);

    let mut draws = Vec::new();
    let mut draw_lps = Vec::new();
    let mut accepted = 0usize;
    let mut proposed = 0usize;

    let half = n_walkers / 2;
    for step in 0..opts.steps {
        // Update each half by stretching toward the complementary half.
        for (start, end, comp_start, comp_end) in
            [(0, half, half, n_walkers), (half, n_walkers, 0, half)]
        {
            let mut zs = Vec::with_capacity(end - start);
            let mut proposals = Vec::with_capacity((end - start) * dim);
            for i in start..end {
                let j = rng.gen_range(comp_start..comp_end);
                let z = stretch_factor(rng.gen(), a);
                zs.push(z);
                for (&vj, &vi) in positions[j].iter().zip(&positions[i]) {
                    proposals.push(vj + z * (vi - vj));
                }
            }
            let mut lp_new = vec![0.0; end - start];
            log_probs(&proposals, &mut lp_new);
            for (slot, i) in (start..end).enumerate() {
                proposed += 1;
                let log_accept = (dim as f64 - 1.0) * zs[slot].ln() + lp_new[slot] - lps[i];
                if lp_new[slot].is_finite() && log_accept >= 0.0
                    || rng.gen::<f64>().ln() < log_accept
                {
                    positions[i] = proposals[slot * dim..(slot + 1) * dim].to_vec();
                    lps[i] = lp_new[slot];
                    accepted += 1;
                }
            }
        }
        if step >= burn_in && (step - burn_in).is_multiple_of(thin) {
            for i in 0..n_walkers {
                draws.push(positions[i].clone());
                draw_lps.push(lps[i]);
            }
        }
    }

    Chain {
        draws,
        log_probs: draw_lps,
        acceptance_rate: if proposed == 0 { 0.0 } else { accepted as f64 / proposed as f64 },
    }
}

/// Reusable buffers for [`sample_into`]. Sized on first use and reused
/// across fits, so steady-state sampling performs zero heap allocations —
/// including for the kept draws, which live flattened in `draws`.
#[derive(Debug, Default)]
pub struct McmcScratch {
    /// Current walker positions, flattened `n_walkers × dim`.
    positions: Vec<f64>,
    /// Current per-walker log-probabilities.
    lps: Vec<f64>,
    /// One half-sweep's proposals, flattened `k × dim`.
    proposals: Vec<f64>,
    /// The stretch factor `z` behind each proposal of the half.
    zs: Vec<f64>,
    /// The half's proposal log-probabilities, as scored by the evaluator.
    lp_new: Vec<f64>,
    /// Kept draws, flattened `n_kept × dim`: at most `max_draws` rows.
    draws: Vec<f64>,
}

impl McmcScratch {
    /// The draws the last [`sample_into`] run kept, row-major in draw order.
    #[must_use]
    pub fn kept(&self) -> &[f64] {
        &self.draws
    }
}

/// Allocation-free variant of [`sample`]: identical proposal arithmetic,
/// RNG call sequence and accept/reject logic, with walker state, the half's
/// proposals and the kept draws living in `scratch`, every buffer sized up
/// front. Returns the acceptance rate; the draws are [`McmcScratch::kept`].
///
/// Of the `total` rows [`sample`] retains, this keeps only the uniform
/// subsample a posterior answers queries from — row `⌊i · total / kept⌋`
/// for `i < kept = min(total, max_draws)`, a schedule known before the
/// first step — bitwise the rows of [`sample`] at those indices. `on_chunk`
/// receives each completed run of [`MAX_SLOTS`] kept rows (one arena sweep
/// of the query kernel) in draw order, as soon as the step that made them
/// final has finished; a trailing partial run is only in `kept`.
///
/// # Panics
///
/// Same contract as [`sample`]: at least 4 walkers of equal dimension, at
/// least one with finite log-probability.
pub fn sample_into<F, R, C>(
    mut log_probs: F,
    init: &[Vec<f64>],
    opts: SamplerOptions,
    max_draws: usize,
    rng: &mut R,
    s: &mut McmcScratch,
    mut on_chunk: C,
) -> f64
where
    F: FnMut(&[f64], &mut [f64]),
    R: Rng + ?Sized,
    C: FnMut(&[f64]),
{
    let n_walkers = init.len();
    assert!(n_walkers >= 4, "need at least 4 walkers, got {n_walkers}");
    let dim = init[0].len();
    assert!(init.iter().all(|w| w.len() == dim), "walkers must share dimension");

    s.positions.clear();
    s.positions.reserve(n_walkers * dim);
    for w in init {
        s.positions.extend_from_slice(w);
    }
    s.lps.clear();
    s.lps.resize(n_walkers, 0.0);
    log_probs(&s.positions, &mut s.lps);
    assert!(
        s.lps.iter().any(|lp| lp.is_finite()),
        "no initial walker position has finite log-probability"
    );
    // Walkers that start at -inf are snapped to the best initial position so
    // the ensemble does not carry dead weight.
    let lps = &s.lps;
    let best0 = (0..n_walkers)
        .max_by(|&a, &b| lps[a].partial_cmp(&lps[b]).expect("log probs comparable"))
        .expect("non-empty ensemble");
    let best_lp = s.lps[best0];
    for i in 0..n_walkers {
        if !s.lps[i].is_finite() {
            s.positions.copy_within(best0 * dim..(best0 + 1) * dim, i * dim);
            s.lps[i] = best_lp;
        }
    }

    let burn_in = ((opts.steps as f64) * opts.burn_in_frac).floor() as usize;
    let thin = opts.thin.max(1);
    let a = opts.stretch.max(1.0 + 1e-6);

    // Exact retention schedule: one snapshot per post-burn-in step that
    // lands on the thinning stride, subsampled at a stride that is exactly
    // 1 when nothing is dropped.
    let retained_steps =
        if opts.steps > burn_in { (opts.steps - burn_in).div_ceil(thin) } else { 0 };
    let total = retained_steps * n_walkers;
    let kept = total.min(max_draws);
    let stride = total as f64 / kept as f64;
    s.draws.clear();
    s.draws.reserve(kept * dim);
    // Rows kept so far, rows already handed to `on_chunk`, and the index
    // among retained rows of the snapshot being taken.
    let (mut n_kept, mut flushed, mut snapshot_row) = (0usize, 0usize, 0usize);

    let half = n_walkers / 2;
    let k_max = n_walkers - half;
    s.proposals.clear();
    s.proposals.resize(k_max * dim, 0.0);
    s.zs.clear();
    s.zs.resize(k_max, 0.0);
    s.lp_new.clear();
    s.lp_new.resize(k_max, 0.0);

    let mut accepted = 0usize;
    let mut proposed = 0usize;

    for step in 0..opts.steps {
        // Update each half by stretching toward the complementary half.
        for (start, end, comp_start, comp_end) in
            [(0, half, half, n_walkers), (half, n_walkers, 0, half)]
        {
            let k = end - start;
            for (slot, i) in (start..end).enumerate() {
                let j = rng.gen_range(comp_start..comp_end);
                let z = stretch_factor(rng.gen(), a);
                s.zs[slot] = z;
                let pj = &s.positions[j * dim..(j + 1) * dim];
                let pi = &s.positions[i * dim..(i + 1) * dim];
                let proposal = &mut s.proposals[slot * dim..(slot + 1) * dim];
                for ((p, &vj), &vi) in proposal.iter_mut().zip(pj).zip(pi) {
                    *p = vj + z * (vi - vj);
                }
            }
            log_probs(&s.proposals[..k * dim], &mut s.lp_new[..k]);
            for (slot, i) in (start..end).enumerate() {
                let lp_new = s.lp_new[slot];
                proposed += 1;
                let log_accept = (dim as f64 - 1.0) * s.zs[slot].ln() + lp_new - s.lps[i];
                if lp_new.is_finite() && log_accept >= 0.0 || rng.gen::<f64>().ln() < log_accept {
                    s.positions[i * dim..(i + 1) * dim]
                        .copy_from_slice(&s.proposals[slot * dim..(slot + 1) * dim]);
                    s.lps[i] = lp_new;
                    accepted += 1;
                }
            }
        }
        if step >= burn_in && (step - burn_in).is_multiple_of(thin) {
            // Of this snapshot's rows, keep the ones the subsample names.
            while n_kept < kept {
                let row = (n_kept as f64 * stride) as usize;
                if row >= snapshot_row + n_walkers {
                    break;
                }
                let w = row - snapshot_row;
                s.draws.extend_from_slice(&s.positions[w * dim..(w + 1) * dim]);
                n_kept += 1;
            }
            snapshot_row += n_walkers;
            while n_kept - flushed >= MAX_SLOTS {
                on_chunk(&s.draws[flushed * dim..(flushed + MAX_SLOTS) * dim]);
                flushed += MAX_SLOTS;
            }
        }
    }

    if proposed == 0 {
        0.0
    } else {
        accepted as f64 / proposed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_types::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Standard normal in `dim` dimensions.
    fn gaussian_lp(x: &[f64]) -> f64 {
        -0.5 * x.iter().map(|v| v * v).sum::<f64>()
    }

    fn init_walkers(rng: &mut StdRng, n: usize, dim: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n).map(|_| (0..dim).map(|_| stats::sample_normal(rng, 0.0, spread)).collect()).collect()
    }

    #[test]
    fn recovers_gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        let init = init_walkers(&mut rng, 32, 3, 0.5);
        let chain = sample(
            score_each(3, gaussian_lp),
            init,
            SamplerOptions { steps: 600, burn_in_frac: 0.4, thin: 1, stretch: 2.0 },
            &mut rng,
        );
        assert!(chain.acceptance_rate > 0.2 && chain.acceptance_rate < 0.9);
        for d in 0..3 {
            let vals: Vec<f64> = chain.draws.iter().map(|w| w[d]).collect();
            let m = stats::mean(&vals).unwrap();
            let s = stats::std_dev(&vals).unwrap();
            assert!(m.abs() < 0.15, "dim {d} mean {m}");
            assert!((s - 1.0).abs() < 0.2, "dim {d} std {s}");
        }
    }

    #[test]
    fn handles_bounded_support() {
        // Uniform on [0, 1]: -inf outside.
        let lp = |x: &[f64]| {
            if (0.0..=1.0).contains(&x[0]) {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(3);
        let init: Vec<Vec<f64>> = (0..16).map(|i| vec![0.3 + 0.4 * (i as f64 / 15.0)]).collect();
        let chain = sample(
            score_each(1, lp),
            init,
            SamplerOptions { steps: 500, burn_in_frac: 0.3, thin: 1, stretch: 2.0 },
            &mut rng,
        );
        assert!(chain.draws.iter().all(|w| (0.0..=1.0).contains(&w[0])));
        let vals: Vec<f64> = chain.draws.iter().map(|w| w[0]).collect();
        let m = stats::mean(&vals).unwrap();
        assert!((m - 0.5).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn dead_walkers_are_revived() {
        let lp = |x: &[f64]| {
            if x[0].abs() < 5.0 {
                -x[0] * x[0]
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(9);
        // Half the walkers start outside the support.
        let init: Vec<Vec<f64>> =
            (0..8).map(|i| if i % 2 == 0 { vec![100.0] } else { vec![0.1 * i as f64] }).collect();
        let chain = sample(score_each(1, lp), init, SamplerOptions::default(), &mut rng);
        assert!(chain.draws.iter().all(|w| w[0].abs() < 5.0));
    }

    #[test]
    fn map_draw_is_best() {
        let mut rng = StdRng::seed_from_u64(21);
        let init = init_walkers(&mut rng, 16, 2, 1.0);
        let chain = sample(score_each(2, gaussian_lp), init, SamplerOptions::default(), &mut rng);
        let map = chain.map_draw().unwrap();
        let map_lp = gaussian_lp(map);
        assert!(chain.log_probs.iter().all(|lp| *lp <= map_lp + 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least 4 walkers")]
    fn too_few_walkers_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let init = vec![vec![0.0]; 2];
        let _ = sample(score_each(1, gaussian_lp), init, SamplerOptions::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "finite log-probability")]
    fn all_dead_initialization_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let lp = |_: &[f64]| f64::NEG_INFINITY;
        let _ = sample(score_each(1, lp), vec![vec![0.0]; 8], SamplerOptions::default(), &mut rng);
    }

    /// The kept rows are bitwise the rows of [`sample`] the uniform
    /// subsample names — retain everything, then take row `⌊i · stride⌋` —
    /// and the chunks handed out are the whole `MAX_SLOTS`-row runs of them,
    /// in order. Covers zero retained steps, one kept row, both sides of
    /// the chunk seam, and `max_draws` above the retained total (stride 1).
    #[test]
    fn sample_into_keeps_exactly_the_subsample_of_sample() {
        let mut scratch = McmcScratch::default();
        for (steps, burn_in_frac, thin, max_draws) in [
            (40, 0.3, 2, 100),
            (24, 0.5, 1, 63),
            (24, 0.5, 1, 64),
            (24, 0.5, 1, 65),
            (24, 0.5, 1, 129),
            (7, 0.9, 3, 1),
            (7, 0.9, 3, 1000),
            (5, 1.0, 1, 10),
        ] {
            let opts = SamplerOptions { steps, burn_in_frac, thin, stretch: 2.0 };
            let mut rng_a = StdRng::seed_from_u64(23);
            let init = init_walkers(&mut rng_a, 16, 3, 0.5);
            let reference = sample(score_each(3, gaussian_lp), init.clone(), opts, &mut rng_a);
            let total = reference.draws.len();
            let kept = total.min(max_draws);
            let stride = total as f64 / kept as f64;
            let expected: Vec<f64> = (0..kept)
                .flat_map(|i| reference.draws[(i as f64 * stride) as usize].iter().copied())
                .collect();

            let mut rng_b = StdRng::seed_from_u64(23);
            let init_b = init_walkers(&mut rng_b, 16, 3, 0.5);
            let mut streamed = Vec::new();
            let acceptance = sample_into(
                score_each(3, gaussian_lp),
                &init_b,
                opts,
                max_draws,
                &mut rng_b,
                &mut scratch,
                |rows| {
                    assert_eq!(rows.len(), MAX_SLOTS * 3, "chunks are whole runs");
                    streamed.extend_from_slice(rows);
                },
            );

            assert_eq!(scratch.kept(), expected.as_slice(), "kept rows diverged");
            assert_eq!(streamed.as_slice(), &expected[..kept / MAX_SLOTS * MAX_SLOTS * 3]);
            assert_eq!(reference.acceptance_rate.to_bits(), acceptance.to_bits());
        }
    }

    #[test]
    fn sample_into_revives_dead_walkers() {
        let lp = |x: &[f64]| {
            if x[0].abs() < 5.0 {
                -x[0] * x[0]
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(9);
        let init: Vec<Vec<f64>> =
            (0..8).map(|i| if i % 2 == 0 { vec![100.0] } else { vec![0.1 * i as f64] }).collect();
        let mut scratch = McmcScratch::default();
        let opts = SamplerOptions::default();
        sample_into(score_each(1, lp), &init, opts, usize::MAX, &mut rng, &mut scratch, |_| {});
        assert!(!scratch.kept().is_empty());
        assert!(scratch.kept().iter().all(|x| x.abs() < 5.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = init_walkers(&mut rng, 16, 2, 0.5);
            sample(score_each(2, gaussian_lp), init, SamplerOptions::default(), &mut rng).draws
        };
        assert_eq!(run(5), run(5));
    }

    /// The schedule contract, replayed from a clone of the RNG: the
    /// proposals a half's single evaluator call receives are exactly the
    /// ones `(j, u)` drawn for every walker in walker order produce —
    /// before any accept uniform of that half — and the accept uniform is
    /// drawn only for walkers the `finite && log_accept >= 0` shortcut does
    /// not decide. Even slots score `-inf` (uniform drawn, rejected), odd
    /// slots score ever higher (accepted without a uniform), so a drifted
    /// interleaving desynchronizes the replay within one half-sweep.
    #[test]
    fn half_sweep_draws_every_proposal_before_any_accept_draw() {
        let (n, dim, steps) = (8, 3, 5);
        let opts = SamplerOptions { steps, burn_in_frac: 0.0, thin: 1, stretch: 2.0 };
        let mut rng = StdRng::seed_from_u64(31);
        let init = init_walkers(&mut rng, n, dim, 0.5);

        let mut replay = rng.clone();
        let mut model: Vec<f64> = init.concat();
        let mut pending: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut calls = 0usize;
        let half = n / 2;
        let evaluator = |thetas: &[f64], out: &mut [f64]| {
            if calls == 0 {
                assert_eq!(thetas, model.as_slice(), "the first call scores the whole ensemble");
                out.fill(0.0);
                calls += 1;
                return;
            }
            // Accept phase of the previous half, in walker order.
            for (slot, (i, proposal)) in pending.drain(..).enumerate() {
                if slot % 2 == 0 {
                    let _: f64 = replay.gen();
                } else {
                    model[i * dim..(i + 1) * dim].copy_from_slice(&proposal);
                }
            }
            let (start, comp) = if calls % 2 == 1 { (0, half..n) } else { (half, 0..half) };
            assert_eq!(out.len(), half, "one call per half");
            for slot in 0..half {
                let i = start + slot;
                let j = replay.gen_range(comp.clone());
                let z = stretch_factor(replay.gen(), 2.0);
                let expected: Vec<f64> = (0..dim)
                    .map(|d| model[j * dim + d] + z * (model[i * dim + d] - model[j * dim + d]))
                    .collect();
                assert_eq!(&thetas[slot * dim..(slot + 1) * dim], expected.as_slice());
                out[slot] = if slot % 2 == 0 { f64::NEG_INFINITY } else { 1e6 * calls as f64 };
                pending.push((i, expected));
            }
            calls += 1;
        };
        let mut scratch = McmcScratch::default();
        let acceptance = sample_into(evaluator, &init, opts, 0, &mut rng, &mut scratch, |_| {});
        assert_eq!(calls, 1 + 2 * steps);
        assert_eq!(acceptance, 0.5);
    }
}
