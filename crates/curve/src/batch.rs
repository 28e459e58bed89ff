//! Cross-curve batched fitting: fit several `fast_math` curves in one
//! lockstep MCMC sweep whose likelihood columns are fused across curves.
//!
//! POP's boundary step fits every active curve, and each fit runs the same
//! sampler schedule (same walker count, same step count — only the seed,
//! the observations, and the horizon differ). [`fit_curves_batched`]
//! exploits that: it advances all curves' ensembles in lockstep, and at
//! each proposal round evaluates every curve's proposal in **one**
//! family-major structure-of-arrays sweep — the per-curve, per-family grid
//! columns are concatenated into a shared arena grouped by kernel
//! signature ([`crate::fastpath::Sig`]), so a whole round costs at most
//! four [`crate::vmath`] kernel calls instead of dozens of short scalar
//! and per-curve vector calls.
//!
//! Determinism / bit-identity contract (see DESIGN.md §12):
//!
//! - Each curve keeps its **own** RNG stream (seeded exactly like the
//!   unbatched path) and its own walker state; the lockstep schedule
//!   preserves every curve's RNG call order exactly, so the draws a curve
//!   consumes are the same bits it would consume alone.
//! - The vmath kernels are elementwise maps whose per-lane results do not
//!   depend on buffer position or length (scalar ≡ SIMD per lane,
//!   property-test-pinned), so fusing curve columns into one buffer
//!   cannot change any lane.
//! - Per-curve accumulation (weighted family means, Gaussian likelihood)
//!   runs in exactly the order of the unbatched
//!   [`crate::fastpath::fast_log_posterior`]: ascending family index,
//!   then the observation loop. Floating-point addition order is
//!   preserved, so every log-posterior — and therefore every accept
//!   decision, every draw, every posterior — is bitwise identical to the
//!   unbatched `fast_math` fit.
//!
//! The equivalence is pinned three ways: unit tests here, the
//! `batch_equivalence` proptests, and golden traces asserting batched
//! scheduling runs are byte-identical to unbatched ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive_types::{Error, LearningCurve, Result};

use crate::ensemble::{dimension, in_prior_box_fast, FAMILY_OFFSETS, SIGMA_INDEX};
use crate::ensemble::{CEILING, MIN_WEIGHT_SUM, MONOTONE_SLACK};
use crate::fastpath::{
    family_fill, family_mid, fast_log_posterior, gaussian_loglik, FastGrid, Sig,
};
use crate::fit::{build_default_walkers, build_initial_walkers, fit_all_families_fast};
use crate::mcmc::FlatChain;
use crate::models::{ModelFamily, ALL_FAMILIES};
use crate::predictor::{
    collect_posterior, thinned_obs, CurvePosterior, CurvePredictor, PredictorConfig,
};
use crate::scratch::FitScratch;
use crate::vmath::{self, vexp_with, vln_with, Backend};

/// One curve's fit request within a cross-curve batch.
#[derive(Debug, Clone)]
pub struct BatchFitItem {
    /// The partial learning curve to fit.
    pub curve: LearningCurve,
    /// Extrapolation horizon; must exceed the last observed epoch.
    pub horizon: u32,
    /// Per-fit RNG seed (the [`crate::FitService`] derives one per
    /// (job, epochs-observed) pair; standalone callers pick their own).
    pub seed: u64,
}

/// Kernel-signature groups in arena order, with the family indices of each
/// group in ascending order. The arena is laid out `[Ln][LnExp][ExpExp]
/// [Exp][None]` so that `vln` covers `Ln ∪ LnExp` and the first `vexp`
/// covers `LnExp ∪ ExpExp ∪ Exp` as single contiguous ranges. Pinned
/// against [`family_sig`] by a unit test.
const SIG_GROUPS: [(Sig, &[usize]); 5] = [
    (Sig::Ln, &[2]),               // LogLogLinear
    (Sig::LnExp, &[1]),            // Pow4
    (Sig::ExpExp, &[4, 6, 7]),     // Weibull, Janoschek, Exp4
    (Sig::Exp, &[0, 3, 5, 9, 10]), // Pow3, LogPower, Mmf, VaporPressure, Hill3
    (Sig::None, &[8]),             // Ilog2
];

/// Sentinel for "family inactive this round" in a slot's segment table.
const NO_SEG: usize = usize::MAX;

/// Per-curve state for one member of a lockstep batch: the curve's grid
/// and observations, its private RNG stream, its walker ensemble, and its
/// retained draws — the batch-resident equivalent of what
/// [`crate::mcmc::McmcScratch`] holds for an unbatched fit.
#[derive(Debug)]
struct CurveSlot {
    grid: FastGrid,
    ys: Vec<f64>,
    means: Vec<f64>,
    t: Vec<f64>,
    rng: StdRng,
    positions: Vec<f64>,
    lps: Vec<f64>,
    proposal: Vec<f64>,
    draws: Vec<f64>,
    draw_lps: Vec<f64>,
    accepted: usize,
    proposed: usize,
    last_epoch: u32,
    horizon: u32,
    // Per-round transients.
    hoists: [f64; 11],
    wsum: f64,
    z: f64,
    lp_new: f64,
    seg_off: [usize; 11],
}

impl CurveSlot {
    fn new() -> Self {
        CurveSlot {
            grid: FastGrid::new(),
            ys: Vec::new(),
            means: Vec::new(),
            t: Vec::new(),
            rng: StdRng::seed_from_u64(0),
            positions: Vec::new(),
            lps: Vec::new(),
            proposal: Vec::new(),
            draws: Vec::new(),
            draw_lps: Vec::new(),
            accepted: 0,
            proposed: 0,
            last_epoch: 0,
            horizon: 0,
            hoists: [0.0; 11],
            wsum: 0.0,
            z: 0.0,
            lp_new: 0.0,
            seg_off: [NO_SEG; 11],
        }
    }

    /// Clears per-fit state, retaining buffer capacity, and reseeds the
    /// slot's RNG stream exactly as the unbatched path would.
    fn reset(&mut self, seed: u64, last_epoch: u32, horizon: u32) {
        self.grid.clear();
        self.ys.clear();
        self.means.clear();
        self.t.clear();
        self.rng = StdRng::seed_from_u64(seed);
        self.positions.clear();
        self.lps.clear();
        self.proposal.clear();
        self.draws.clear();
        self.draw_lps.clear();
        self.accepted = 0;
        self.proposed = 0;
        self.last_epoch = last_epoch;
        self.horizon = horizon;
    }
}

/// Reusable arena and slot storage for cross-curve batched fitting. Lives
/// inside [`FitScratch`]; buffers grow to the batch high-water mark on
/// first use and are retained, so steady-state lockstep sampling performs
/// zero heap allocations per MCMC step (counting-allocator-pinned by the
/// `batch_fit` bench).
#[derive(Debug, Default)]
pub struct BatchScratch {
    slots: Vec<CurveSlot>,
    /// Concatenated per-(slot, family) value lanes, grouped by [`Sig`].
    /// Grown to the batch high-water mark and never shrunk; lanes beyond
    /// the current round's layout are stale and never read.
    buf: Vec<f64>,
    /// One round's concatenated hoist arguments (the `ln`/`pow` of family
    /// parameters that [`crate::fastpath::fast_hoist`] computes with
    /// scalar kernels), batched through the vector kernels instead.
    hbuf: Vec<f64>,
    /// Slot indices advancing in lockstep.
    live: Vec<usize>,
    /// Slots whose proposal passed the scalar gates this round.
    gate: Vec<usize>,
}

/// Fits every item of a batch, returning one result per item in order.
///
/// With `fast_math` enabled and at least two items, the curves advance in
/// one lockstep MCMC sweep with likelihood columns fused across curves;
/// every per-curve result is **bitwise identical** to what
/// [`CurvePredictor::fit_with`] would return for that item alone (same
/// seed, no warm source). Otherwise each item takes the per-curve path
/// directly. Invalid items (too few observations, non-future horizon)
/// yield the same [`Error::CurveFit`] values as the per-curve path and do
/// not perturb their batch siblings.
pub fn fit_curves_batched(
    config: &PredictorConfig,
    items: &[BatchFitItem],
    scratch: &mut FitScratch,
) -> Vec<Result<CurvePosterior>> {
    fit_curves_batched_with(config, items, scratch, vmath::active_backend())
}

/// [`fit_curves_batched`] against an explicit kernel backend (the public
/// wrapper passes the dispatched one). Exposed so the equivalence test
/// harness can pin `batched ≡ unbatched` bitwise under *both* backends in
/// one process, regardless of what the CPU dispatch would pick.
pub fn fit_curves_batched_with(
    config: &PredictorConfig,
    items: &[BatchFitItem],
    scratch: &mut FitScratch,
    backend: Backend,
) -> Vec<Result<CurvePosterior>> {
    if !config.fast_math || items.len() < 2 {
        let predictor_for = |seed: u64| CurvePredictor::new(config.with_seed(seed));
        return items
            .iter()
            .map(|it| predictor_for(it.seed).fit_with(&it.curve, it.horizon, None, scratch))
            .collect();
    }

    let n_walkers = config.walkers;
    assert!(n_walkers >= 4, "need at least 4 walkers, got {n_walkers}");
    let dim = dimension();
    let steps = config.steps;
    let burn_in = ((steps as f64) * config.burn_in_frac).floor() as usize;
    let thin = config.thin.max(1);
    // The unbatched path always samples with stretch 2.0.
    let a = 2.0f64;
    let retained_steps = if steps > burn_in { (steps - burn_in).div_ceil(thin) } else { 0 };

    let FitScratch { nm, fam, batch, .. } = scratch;
    while batch.slots.len() < items.len() {
        batch.slots.push(CurveSlot::new());
    }
    batch.live.clear();
    let mut results: Vec<Option<Result<CurvePosterior>>> = items.iter().map(|_| None).collect();

    // Phase 1 — per-curve setup, sequential and RNG-order-identical to the
    // unbatched path: validation, observation thinning, SoA grid, family
    // least squares, walker initialization, and the sampler preamble.
    for (idx, item) in items.iter().enumerate() {
        let n = item.curve.len();
        if n < config.min_observations {
            results[idx] = Some(Err(Error::CurveFit(format!(
                "need at least {} observations, got {n}",
                config.min_observations
            ))));
            continue;
        }
        let last_epoch = item.curve.last_epoch().expect("non-empty curve");
        if item.horizon <= last_epoch {
            results[idx] = Some(Err(Error::CurveFit(format!(
                "horizon {} must exceed last observed epoch {last_epoch}",
                item.horizon
            ))));
            continue;
        }
        let obs = thinned_obs(config, &item.curve);
        let horizon_f = f64::from(item.horizon);
        let last_x = obs.last().map_or(1.0, |&(x, _)| x);

        let slot = &mut batch.slots[idx];
        slot.reset(item.seed, last_epoch, item.horizon);
        for &(x, y) in &obs {
            slot.grid.push(x);
            slot.ys.push(y);
        }
        slot.grid.push(horizon_f.max(last_x));
        slot.means.resize(slot.ys.len(), 0.0);
        slot.t.resize(slot.ys.len(), 0.0);

        let CurveSlot {
            grid, ys, means, t, rng, positions, lps, proposal, draws, draw_lps, ..
        } = slot;
        let fits = fit_all_families_fast(grid, ys, rng, nm, fam, backend);
        let mut init = build_initial_walkers(&fits, n_walkers, rng);
        let mut any_finite = |init: &[Vec<f64>]| {
            init.iter().any(|w| fast_log_posterior(grid, ys, means, t, backend, w).is_finite())
        };
        if !any_finite(&init) {
            init = build_default_walkers(n_walkers, rng);
        }
        if !any_finite(&init) {
            results[idx] = Some(Err(Error::CurveFit("no valid initialization found".into())));
            continue;
        }

        // Sampler preamble (mirrors `sample_into`): score the ensemble,
        // snap dead walkers to the best start, reserve the exact retained
        // draw storage so the lockstep loop never allocates.
        positions.reserve(n_walkers * dim);
        lps.reserve(n_walkers);
        for w in &init {
            debug_assert_eq!(w.len(), dim, "walkers must share dimension");
            positions.extend_from_slice(w);
            lps.push(fast_log_posterior(grid, ys, means, t, backend, w));
        }
        assert!(
            lps.iter().any(|lp| lp.is_finite()),
            "no initial walker position has finite log-probability"
        );
        let best0 = (0..n_walkers)
            .max_by(|&x, &y| lps[x].partial_cmp(&lps[y]).expect("log probs comparable"))
            .expect("non-empty ensemble");
        let best_lp = lps[best0];
        for (i, lp) in lps.iter_mut().enumerate() {
            if !lp.is_finite() {
                positions.copy_within(best0 * dim..(best0 + 1) * dim, i * dim);
                *lp = best_lp;
            }
        }
        draws.reserve(retained_steps * n_walkers * dim);
        draw_lps.reserve(retained_steps * n_walkers);
        proposal.resize(dim, 0.0);
        batch.live.push(idx);
    }

    // Phase 2 — lockstep stretch moves.
    let params = LockstepParams { steps, burn_in, thin, dim, n_walkers, a };
    lockstep(batch, backend, &params);

    // Phase 3 — per-curve posterior collection through the same subsampler
    // as the unbatched path.
    for &s in &batch.live {
        let slot = &batch.slots[s];
        let acceptance_rate =
            if slot.proposed == 0 { 0.0 } else { slot.accepted as f64 / slot.proposed as f64 };
        let chain = FlatChain::from_raw(&slot.draws, &slot.draw_lps, dim, acceptance_rate);
        results[s] = Some(collect_posterior(config, &chain, slot.last_epoch, slot.horizon, false));
    }
    results.into_iter().map(|r| r.expect("every batch item resolved")).collect()
}

/// Sampler-schedule constants threaded through the lockstep loop.
struct LockstepParams {
    steps: usize,
    burn_in: usize,
    thin: usize,
    dim: usize,
    n_walkers: usize,
    a: f64,
}

/// Phase 2 of [`fit_curves_batched_with`]: the lockstep stretch-move loop,
/// dispatched once per batch to a SIMD-feature compilation tier
/// ([`vmath::simd_tier`]). The round's helper loops — proposal lerp,
/// prior-box compares, arena fills, the fused post/accumulation — then
/// autovectorize at the same width as the kernel slices. Every tier
/// compiles the exact same per-lane arithmetic, and autovectorization
/// never reassociates floating point, so the tier choice cannot change
/// bits (pinned by the bitwise equivalence tests and golden traces).
fn lockstep(batch: &mut BatchScratch, backend: Backend, p: &LockstepParams) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: tiers above baseline are only reported by simd_tier()
        // when the CPU supports the corresponding feature set.
        match vmath::simd_tier() {
            2 => return unsafe { lockstep_avx512(batch, backend, p) },
            1 => return unsafe { lockstep_avx2(batch, backend, p) },
            _ => {}
        }
    }
    lockstep_impl(batch, backend, p)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lockstep_avx2(batch: &mut BatchScratch, backend: Backend, p: &LockstepParams) {
    lockstep_impl(batch, backend, p)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx512vl")]
unsafe fn lockstep_avx512(batch: &mut BatchScratch, backend: Backend, p: &LockstepParams) {
    lockstep_impl(batch, backend, p)
}

/// Per (step, half, walker index), every live curve draws its proposal
/// from its own RNG stream, all proposals are evaluated in one fused
/// sweep, then each curve applies its own accept/reject — consuming RNG
/// draws in exactly the unbatched order. `#[inline(always)]` so each
/// [`lockstep`] tier compiles its own fully-featured copy.
#[inline(always)]
fn lockstep_impl(batch: &mut BatchScratch, backend: Backend, p: &LockstepParams) {
    let &LockstepParams { steps, burn_in, thin, dim, n_walkers, a } = p;
    let half = n_walkers / 2;
    let spread = a.sqrt() - 1.0 / a.sqrt();
    let low = 1.0 / a.sqrt();
    for step in 0..steps {
        for (start, end, comp_start, comp_end) in
            [(0, half, half, n_walkers), (half, n_walkers, 0, half)]
        {
            for i in start..end {
                for &s in &batch.live {
                    let slot = &mut batch.slots[s];
                    let j = slot.rng.gen_range(comp_start..comp_end);
                    let u: f64 = slot.rng.gen();
                    let z = {
                        let sq = u * spread + low;
                        sq * sq
                    };
                    slot.z = z;
                    let CurveSlot { positions, proposal, .. } = slot;
                    let pj = &positions[j * dim..(j + 1) * dim];
                    let pi = &positions[i * dim..(i + 1) * dim];
                    for ((p, &vj), &vi) in proposal.iter_mut().zip(pj).zip(pi) {
                        *p = vj + z * (vi - vj);
                    }
                }
                fused_round(batch, backend);
                for &s in &batch.live {
                    let slot = &mut batch.slots[s];
                    slot.proposed += 1;
                    let log_accept = (dim as f64 - 1.0) * slot.z.ln() + slot.lp_new - slot.lps[i];
                    if slot.lp_new.is_finite() && log_accept >= 0.0
                        || slot.rng.gen::<f64>().ln() < log_accept
                    {
                        slot.positions[i * dim..(i + 1) * dim].copy_from_slice(&slot.proposal);
                        slot.lps[i] = slot.lp_new;
                        slot.accepted += 1;
                    }
                }
            }
        }
        if step >= burn_in && (step - burn_in).is_multiple_of(thin) {
            for &s in &batch.live {
                let slot = &mut batch.slots[s];
                slot.draws.extend_from_slice(&slot.positions);
                slot.draw_lps.extend_from_slice(&slot.lps);
            }
        }
    }
}

/// Family indices with nontrivial parameter hoists (see
/// [`crate::fastpath::fast_hoist`]): LogPower copies a parameter, Weibull
/// and Mmf take `ln` of one, Hill3 raises one to a power. Pinned against
/// [`ALL_FAMILIES`] by a unit test.
const LOGPOWER_K: usize = 3;
const WEIBULL_K: usize = 4;
const MMF_K: usize = 5;
const HILL3_K: usize = 10;

/// Evaluates every live slot's proposal in one fused sweep, leaving the
/// log-posterior in each slot's `lp_new`. Bitwise-identical per slot to
/// [`fast_log_posterior`] on that slot's proposal. `#[inline(always)]`:
/// compiled into each [`lockstep`] tier.
#[inline(always)]
fn fused_round(batch: &mut BatchScratch, backend: Backend) {
    let BatchScratch { slots, buf, hbuf, live, gate } = batch;

    // Stage 0 — scalar gates: prior box and weight mass.
    gate.clear();
    for &s in live.iter() {
        let slot = &mut slots[s];
        if !in_prior_box_fast(&slot.proposal) {
            slot.lp_new = f64::NEG_INFINITY;
            continue;
        }
        let wsum: f64 = slot.proposal[..11].iter().sum();
        if wsum < MIN_WEIGHT_SUM {
            slot.lp_new = f64::NEG_INFINITY;
            continue;
        }
        slot.wsum = wsum;
        slot.hoists = [0.0; 11];
        if slot.proposal[LOGPOWER_K] > 0.0 {
            slot.hoists[LOGPOWER_K] = slot.proposal[FAMILY_OFFSETS[LOGPOWER_K] + 1];
        }
        gate.push(s);
    }
    if gate.is_empty() {
        return;
    }

    // Batched parameter hoists: where the unbatched gate calls scalar
    // `ln_s` / `pow_s` per curve, the gated slots' hoist arguments are
    // concatenated as `[Weibull ln][Mmf ln][Hill3 pow]` lanes and pushed
    // through the same vector kernels. `pow(x, y)` decomposes into the
    // identical `exp(y · ln x)` lane sequence, so every hoist is
    // bit-identical to [`crate::fastpath::fast_hoist`]. Each push/consume
    // walk visits `gate` in the same order, so lanes and slots stay
    // matched without an index table.
    hbuf.clear();
    for &s in gate.iter() {
        let slot = &slots[s];
        if slot.proposal[WEIBULL_K] > 0.0 {
            hbuf.push(slot.proposal[FAMILY_OFFSETS[WEIBULL_K] + 2]);
        }
    }
    let w_end = hbuf.len();
    for &s in gate.iter() {
        let slot = &slots[s];
        if slot.proposal[MMF_K] > 0.0 {
            hbuf.push(slot.proposal[FAMILY_OFFSETS[MMF_K] + 2]);
        }
    }
    let m_end = hbuf.len();
    for &s in gate.iter() {
        let slot = &slots[s];
        if slot.proposal[HILL3_K] > 0.0 {
            hbuf.push(slot.proposal[FAMILY_OFFSETS[HILL3_K] + 2]);
        }
    }
    vln_with(backend, hbuf);
    let mut i = m_end;
    for &s in gate.iter() {
        let slot = &slots[s];
        if slot.proposal[HILL3_K] > 0.0 {
            // `pow(x, y) = exp(y * ln x)`; f64 multiplication is bitwise
            // commutative, so the assign form matches the scalar kernel.
            hbuf[i] *= slot.proposal[FAMILY_OFFSETS[HILL3_K] + 1];
            i += 1;
        }
    }
    vexp_with(backend, &mut hbuf[m_end..]);
    let (mut iw, mut im, mut ih) = (0, w_end, m_end);
    for &s in gate.iter() {
        let slot = &mut slots[s];
        if slot.proposal[WEIBULL_K] > 0.0 {
            slot.hoists[WEIBULL_K] = hbuf[iw];
            iw += 1;
        }
        if slot.proposal[MMF_K] > 0.0 {
            slot.hoists[MMF_K] = hbuf[im];
            im += 1;
        }
        if slot.proposal[HILL3_K] > 0.0 {
            slot.hoists[HILL3_K] = hbuf[ih];
            ih += 1;
        }
    }

    // Stage 1 — one fused pass over every gated slot's *full* grid span
    // (all observations plus the horizon lane). The unbatched path splits
    // this into a scalar two-point tail gate and a later batched main
    // sweep; since the kernels are elementwise, computing all lanes at
    // once yields bit-identical values for both uses, and the tail gate
    // rejects so rarely after the scalar gates that the occasional wasted
    // main-span fill costs less than building the arena twice.
    fused_pass(slots, gate, buf, backend);

    // Stage 2 — per slot, one walk over its active families: each
    // family's post transform is applied on-read while accumulating both
    // the two-point tail sums (monotone/ceiling gate) and the per-
    // observation weighted means, in exactly the unbatched order
    // (ascending family index, then observation order). The means are
    // computed before the tail gate is known and simply discarded on
    // reject — the gate rejects so rarely after the scalar gates that one
    // fused walk beats two.
    for &s in gate.iter() {
        let slot = &mut slots[s];
        let CurveSlot { ys, means, proposal, hoists, seg_off, wsum, lp_new, .. } = slot;
        let n = ys.len();
        let m = n - 1;
        for o in means[..m].iter_mut() {
            *o = 0.0;
        }
        let mut acc_last = 0.0;
        let mut acc_hor = 0.0;
        for (k, &family) in ALL_FAMILIES.iter().enumerate() {
            let off = seg_off[k];
            if off == NO_SEG {
                continue;
            }
            let fpo = FAMILY_OFFSETS[k];
            family_acc(
                family,
                &proposal[fpo..fpo + family.param_count()],
                hoists[k],
                proposal[k],
                &buf[off..off + n + 1],
                &mut means[..m],
                &mut acc_last,
                &mut acc_hor,
            );
        }
        let mean_last = acc_last / *wsum;
        let mean_horizon = acc_hor / *wsum;
        if !mean_last.is_finite() || !mean_horizon.is_finite() {
            *lp_new = f64::NEG_INFINITY;
            continue;
        }
        if mean_horizon < mean_last - MONOTONE_SLACK || mean_horizon > CEILING {
            *lp_new = f64::NEG_INFINITY;
            continue;
        }
        for o in means[..m].iter_mut() {
            *o /= *wsum;
        }
        // The tail accumulation ran the identical operation sequence for
        // the last observation — reuse it (mirrors the unbatched path).
        means[m] = mean_last;
        *lp_new = gaussian_loglik(ys, &means[..n], proposal[SIGMA_INDEX]);
    }
}

/// Applies `family`'s post transform lane-by-lane **on read** while
/// accumulating one family's contribution to a slot's weighted sums: the
/// per-observation means over lanes `0..n-1` and the two-point tail gate
/// over lanes `n-1` (last observation) and `n` (horizon). Per lane the
/// arithmetic — post transform, then multiply by the family weight, then
/// add — is exactly what [`crate::fastpath::family_post`] followed by the
/// split accumulations performed, and every lane is consumed exactly
/// once, so fusing the post pass into the accumulation is bitwise-neutral
/// while saving a full read-modify-write sweep over the arena.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn family_acc(
    family: ModelFamily,
    fp: &[f64],
    hoist: f64,
    wk: f64,
    seg: &[f64],
    means: &mut [f64],
    acc_last: &mut f64,
    acc_hor: &mut f64,
) {
    let n = seg.len() - 1;
    macro_rules! acc_with {
        ($post:expr) => {{
            let post = $post;
            for (o, &v) in means.iter_mut().zip(&seg[..n - 1]) {
                *o += wk * post(v);
            }
            *acc_last += wk * post(seg[n - 1]);
            *acc_hor += wk * post(seg[n]);
        }};
    }
    match family {
        ModelFamily::Pow3 => {
            let (c, a) = (fp[0], fp[1]);
            acc_with!(|v: f64| c - a * v)
        }
        ModelFamily::Pow4 | ModelFamily::Exp4 => {
            let c = fp[0];
            acc_with!(|v: f64| c - v)
        }
        ModelFamily::LogPower => {
            let a = fp[0];
            acc_with!(|v: f64| a / (1.0 + v))
        }
        ModelFamily::Weibull | ModelFamily::Janoschek => {
            let (alpha, beta) = (fp[0], fp[1]);
            acc_with!(|v: f64| alpha - (alpha - beta) * v)
        }
        ModelFamily::Mmf => {
            let (alpha, beta) = (fp[0], fp[1]);
            acc_with!(|v: f64| alpha - (alpha - beta) / (1.0 + v))
        }
        ModelFamily::Hill3 => {
            let ymax = fp[0];
            acc_with!(|v: f64| ymax * v / (hoist + v))
        }
        ModelFamily::LogLogLinear | ModelFamily::Ilog2 | ModelFamily::VaporPressure => {
            acc_with!(|v: f64| v)
        }
    }
}

/// Builds the signature-grouped arena over the full grid span (every
/// observation plus the horizon lane) of the given slots and runs the
/// shared kernel passes over it, leaving **raw kernel outputs** in `buf`
/// at the offsets recorded in each slot's `seg_off` (`NO_SEG` for
/// zero-weight families); the per-family post transform is applied
/// on-read by [`family_acc`]. Lane values are bit-identical to the
/// pre-post stage of [`crate::fastpath::family_values`] on each
/// (slot, family) column.
///
/// The arena is built family-major within each signature group: the
/// per-family dispatch is loop-invariant across slots, segments are
/// claimed by bumping a running offset into a pre-sized buffer (no
/// per-segment allocation or zero-fill), and the mid/post passes re-walk
/// the same (family, slot) order through `seg_off` instead of a segment
/// list.
#[inline(always)]
fn fused_pass(slots: &mut [CurveSlot], active: &[usize], buf: &mut Vec<f64>, backend: Backend) {
    // Upper bound on this round's lane count; the buffer grows to the
    // batch high-water mark once and is then reused as-is (stale lanes
    // beyond the layout are never read).
    let mut need = 0usize;
    for &s in active.iter() {
        need += ALL_FAMILIES.len() * (slots[s].ys.len() + 1);
    }
    if buf.len() < need {
        buf.resize(need, 0.0);
    }

    // Lane boundaries after each signature group, so the kernel passes can
    // address `Ln ∪ LnExp` and `LnExp ∪ ExpExp ∪ Exp` as contiguous
    // ranges.
    let mut off = 0usize;
    let mut lane_end = [0usize; 6];
    for (g, (_, ks)) in SIG_GROUPS.iter().enumerate() {
        for &k in ks.iter() {
            let family = ALL_FAMILIES[k];
            let fpo = FAMILY_OFFSETS[k];
            let pc = family.param_count();
            for &s in active.iter() {
                let slot = &mut slots[s];
                if slot.proposal[k] <= 0.0 {
                    slot.seg_off[k] = NO_SEG;
                    continue;
                }
                let len = slot.ys.len() + 1;
                family_fill(
                    family,
                    &slot.proposal[fpo..fpo + pc],
                    slot.hoists[k],
                    &slot.grid,
                    0,
                    &mut buf[off..off + len],
                );
                slot.seg_off[k] = off;
                off += len;
            }
        }
        lane_end[g + 1] = off;
    }

    let run_mid = |slots: &[CurveSlot], buf: &mut [f64], ks: &[usize]| {
        for &k in ks.iter() {
            let family = ALL_FAMILIES[k];
            let fpo = FAMILY_OFFSETS[k];
            let pc = family.param_count();
            for &s in active.iter() {
                let slot = &slots[s];
                let off = slot.seg_off[k];
                if off == NO_SEG {
                    continue;
                }
                let len = slot.ys.len() + 1;
                family_mid(family, &slot.proposal[fpo..fpo + pc], &mut buf[off..off + len]);
            }
        }
    };

    // Arena layout [Ln][LnExp][ExpExp][Exp][None]:
    //   vln  over Ln ∪ LnExp      (the only ln pass)
    //   mid  over LnExp
    //   vexp over LnExp ∪ ExpExp ∪ Exp  (LnExp's 2nd, ExpExp's 1st, Exp's only)
    //   mid  over ExpExp
    //   vexp over ExpExp          (its 2nd pass)
    // (post is fused into the accumulation — see [`family_acc`])
    vln_with(backend, &mut buf[..lane_end[2]]);
    run_mid(slots, buf, SIG_GROUPS[1].1);
    vexp_with(backend, &mut buf[lane_end[1]..lane_end[4]]);
    run_mid(slots, buf, SIG_GROUPS[2].1);
    vexp_with(backend, &mut buf[lane_end[2]..lane_end[3]]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::family_sig;
    use hyperdrive_types::{MetricKind, SimTime};

    fn synthetic_curve(limit: f64, rate: f64, n: u32) -> LearningCurve {
        let mut curve = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            curve.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.05) * x.powf(-rate));
        }
        curve
    }

    fn mixed_items() -> Vec<BatchFitItem> {
        vec![
            BatchFitItem { curve: synthetic_curve(0.85, 0.9, 9), horizon: 60, seed: 101 },
            BatchFitItem { curve: synthetic_curve(0.60, 0.4, 14), horizon: 90, seed: 202 },
            BatchFitItem { curve: synthetic_curve(0.75, 1.1, 6), horizon: 40, seed: 303 },
            // Too short: must error exactly like the per-curve path.
            BatchFitItem { curve: synthetic_curve(0.70, 0.7, 2), horizon: 40, seed: 404 },
            BatchFitItem { curve: synthetic_curve(0.92, 0.6, 11), horizon: 30, seed: 505 },
            // Non-future horizon: must error exactly like the per-curve path.
            BatchFitItem { curve: synthetic_curve(0.66, 0.8, 12), horizon: 12, seed: 606 },
        ]
    }

    fn assert_results_bitwise_equal(
        batched: &[Result<CurvePosterior>],
        unbatched: &[Result<CurvePosterior>],
    ) {
        assert_eq!(batched.len(), unbatched.len());
        for (i, (b, u)) in batched.iter().zip(unbatched).enumerate() {
            match (b, u) {
                (Ok(b), Ok(u)) => {
                    assert_eq!(b.n_draws(), u.n_draws(), "item {i}: draw count");
                    for (d, (bd, ud)) in b.draws().iter().zip(u.draws()).enumerate() {
                        let bb: Vec<u64> = bd.iter().map(|v| v.to_bits()).collect();
                        let ub: Vec<u64> = ud.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bb, ub, "item {i}: draw {d} diverged");
                    }
                    assert_eq!(
                        b.acceptance_rate().to_bits(),
                        u.acceptance_rate().to_bits(),
                        "item {i}: acceptance rate"
                    );
                    assert_eq!(b.last_epoch(), u.last_epoch(), "item {i}: last epoch");
                    assert_eq!(b.horizon(), u.horizon(), "item {i}: horizon");
                    assert_eq!(b.warm_started(), u.warm_started(), "item {i}: warm flag");
                }
                (Err(b), Err(u)) => assert_eq!(b.to_string(), u.to_string(), "item {i}: error"),
                _ => panic!("item {i}: batched Ok/Err disagrees with unbatched"),
            }
        }
    }

    #[test]
    fn sig_groups_match_family_sig() {
        let mut seen = Vec::new();
        for (sig, ks) in SIG_GROUPS {
            for &k in ks {
                assert_eq!(family_sig(ALL_FAMILIES[k]), sig, "family {k} misgrouped");
                seen.push(k);
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, (0..ALL_FAMILIES.len()).collect::<Vec<_>>());
        // Within each group, ascending order (the arena build visits them
        // in-order so the per-slot accumulation can walk k ascending).
        for (_, ks) in SIG_GROUPS {
            assert!(ks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn hoist_family_indices_match_all_families() {
        assert_eq!(ALL_FAMILIES[LOGPOWER_K], ModelFamily::LogPower);
        assert_eq!(ALL_FAMILIES[WEIBULL_K], ModelFamily::Weibull);
        assert_eq!(ALL_FAMILIES[MMF_K], ModelFamily::Mmf);
        assert_eq!(ALL_FAMILIES[HILL3_K], ModelFamily::Hill3);
    }

    #[test]
    fn batched_fit_is_bitwise_identical_to_unbatched() {
        let config = PredictorConfig::test().with_fast_math(true);
        let items = mixed_items();

        let mut scratch = FitScratch::default();
        let unbatched: Vec<_> = items
            .iter()
            .map(|it| {
                CurvePredictor::new(config.with_seed(it.seed)).fit_with(
                    &it.curve,
                    it.horizon,
                    None,
                    &mut scratch,
                )
            })
            .collect();

        for backend in [Backend::Scalar, Backend::Simd] {
            let mut scratch = FitScratch::default();
            let batched = fit_curves_batched_with(&config, &items, &mut scratch, backend);
            assert_results_bitwise_equal(&batched, &unbatched);
        }
    }

    #[test]
    fn batched_fit_reuses_scratch_across_batches() {
        let config = PredictorConfig::test().with_fast_math(true);
        let items = mixed_items();
        let mut scratch = FitScratch::default();
        let first = fit_curves_batched(&config, &items, &mut scratch);
        // A second batch through the same (now warm) scratch, in a
        // different order, must see no state leak from the first.
        let mut rev: Vec<_> = items.to_vec();
        rev.reverse();
        let second = fit_curves_batched(&config, &rev, &mut scratch);
        let mut second_fwd: Vec<_> = second;
        second_fwd.reverse();
        assert_results_bitwise_equal(&second_fwd, &first);
    }

    #[test]
    fn non_fast_math_batches_fall_back_to_per_curve() {
        let config = PredictorConfig::test().with_fast_math(false);
        let items = mixed_items();
        let mut scratch = FitScratch::default();
        let batched = fit_curves_batched(&config, &items, &mut scratch);
        let mut scratch = FitScratch::default();
        let unbatched: Vec<_> = items
            .iter()
            .map(|it| {
                CurvePredictor::new(config.with_seed(it.seed)).fit_with(
                    &it.curve,
                    it.horizon,
                    None,
                    &mut scratch,
                )
            })
            .collect();
        assert_results_bitwise_equal(&batched, &unbatched);
    }

    #[test]
    fn single_item_batch_matches_per_curve() {
        let config = PredictorConfig::test().with_fast_math(true);
        let items =
            vec![BatchFitItem { curve: synthetic_curve(0.8, 0.8, 10), horizon: 50, seed: 9 }];
        let mut scratch = FitScratch::default();
        let batched = fit_curves_batched(&config, &items, &mut scratch);
        let mut scratch = FitScratch::default();
        let unbatched: Vec<_> = items
            .iter()
            .map(|it| {
                CurvePredictor::new(config.with_seed(it.seed)).fit_with(
                    &it.curve,
                    it.horizon,
                    None,
                    &mut scratch,
                )
            })
            .collect();
        assert_results_bitwise_equal(&batched, &unbatched);
    }
}
