//! Half-ensemble fusion: score every proposal of a red–black half-sweep
//! in one signature-grouped kernel sweep.
//!
//! The sampler ([`crate::mcmc`]) proposes a whole half-ensemble before it
//! scores any of it, so the `k` proposals of a half are independent
//! evaluations of the same posterior over the same curve. [`FusedPosterior`]
//! is the batch evaluator that exploits it: a *slot* is one proposal, the
//! curve's grid and observations are held once, and the per-(slot, family)
//! grid columns are concatenated into one arena grouped by kernel
//! signature ([`crate::fastpath::Sig`]) — so a half-sweep costs four
//! [`crate::vmath`] kernel calls over `k × active families × (n_obs + 1)`
//! lanes instead of `k × 15` short ones. The same evaluator scores the
//! initial ensemble and the warm path's rescoring of the previous
//! posterior's draws; a batch of one is the same code.
//!
//! Bit-identity contract (see DESIGN.md §12): every output is bitwise
//! [`fast_log_posterior`](crate::fastpath::fast_log_posterior) of its
//! slot, under both backends.
//!
//! - The vmath kernels are elementwise maps whose per-lane results do not
//!   depend on buffer position or length (scalar ≡ SIMD per lane,
//!   property-test-pinned), so fusing slot columns into one buffer cannot
//!   change any lane.
//! - Per-slot accumulation (weighted family means, Gaussian likelihood)
//!   runs in exactly the reference's order: ascending family index, then
//!   the observation loop. Floating-point addition order is preserved.
//! - The reference's scalar two-point tail gate and its later main sweep
//!   read lanes of the same elementwise kernels, so computing all lanes at
//!   once yields the same bits for both uses.
//!
//! Pinned by the unit tests here and the `fused_evaluator` proptests.

use crate::ensemble::{dimension, in_prior_box_fast, FAMILY_OFFSETS, SIGMA_INDEX};
use crate::ensemble::{CEILING, MIN_WEIGHT_SUM, MONOTONE_SLACK};
use crate::fastpath::{family_fill, family_mid, gaussian_loglik, FastGrid, Sig};
use crate::models::{ModelFamily, ALL_FAMILIES};
use crate::vmath::{self, vexp_with, vln_with, Backend};

/// Kernel-signature groups in arena order, with the family indices of each
/// group in ascending order. The arena is laid out `[Ln][LnExp][ExpExp]
/// [Exp][None]` so that `vln` covers `Ln ∪ LnExp` and the first `vexp`
/// covers `LnExp ∪ ExpExp ∪ Exp` as single contiguous ranges. Pinned
/// against [`crate::fastpath::family_sig`] by a unit test.
const SIG_GROUPS: [(Sig, &[usize]); 5] = [
    (Sig::Ln, &[2]),               // LogLogLinear
    (Sig::LnExp, &[1]),            // Pow4
    (Sig::ExpExp, &[4, 6, 7]),     // Weibull, Janoschek, Exp4
    (Sig::Exp, &[0, 3, 5, 9, 10]), // Pow3, LogPower, Mmf, VaporPressure, Hill3
    (Sig::None, &[8]),             // Ilog2
];

/// Sentinel for "family inactive" in a slot's segment table.
const NO_SEG: usize = usize::MAX;

/// Slots scored per arena sweep; longer batches (the warm path rescoring
/// a whole previous posterior) run in chunks of this many, which bounds
/// the arena at `MAX_SLOTS × 11 × (n_obs + 1)` lanes whatever the caller
/// passes. Sized to hold a default half-ensemble (50 walkers) in one sweep.
const MAX_SLOTS: usize = 64;

/// One slot's per-sweep transients.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hoists: [f64; 11],
    wsum: f64,
    seg_off: [usize; 11],
}

/// Reusable working memory of [`FusedPosterior`]. Lives inside
/// [`crate::FitScratch`]; the buffers grow to their high-water mark on
/// first use and are retained, so steady-state sampling performs zero heap
/// allocations per MCMC step (counting-allocator-pinned by the `fit_simd`
/// and `fit_hotpath` benches).
#[derive(Debug, Default)]
pub struct FusedScratch {
    slots: Vec<Slot>,
    /// Concatenated per-(slot, family) value lanes, grouped by [`Sig`].
    /// Lanes beyond the current sweep's layout are stale and never read.
    buf: Vec<f64>,
    /// One sweep's concatenated hoist arguments (the `ln`/`pow` of family
    /// parameters that [`crate::fastpath::fast_hoist`] computes with
    /// scalar kernels), batched through the vector kernels instead.
    hbuf: Vec<f64>,
    /// Slots whose proposal passed the scalar gates this sweep.
    gate: Vec<usize>,
    /// Per-observation mean accumulator of the slot being reduced.
    means: Vec<f64>,
}

/// The `fast_math` batch evaluator: the log-posterior of `k` parameter
/// vectors over one curve per call (see the module docs).
#[derive(Debug)]
pub struct FusedPosterior<'a> {
    grid: &'a FastGrid,
    ys: &'a [f64],
    scratch: &'a mut FusedScratch,
    backend: Backend,
}

impl<'a> FusedPosterior<'a> {
    /// Wraps a memoized SoA grid. `grid` must hold one point per
    /// observation followed by the horizon point `max(horizon, last_x)`;
    /// `ys` the observed values.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are inconsistent or there are no observations.
    pub fn new(
        grid: &'a FastGrid,
        ys: &'a [f64],
        scratch: &'a mut FusedScratch,
        backend: Backend,
    ) -> Self {
        assert!(!ys.is_empty(), "need at least one observation");
        assert_eq!(grid.len(), ys.len() + 1, "grid must be observations + horizon");
        scratch.means.clear();
        scratch.means.resize(ys.len(), 0.0);
        FusedPosterior { grid, ys, scratch, backend }
    }

    /// Writes the log-posterior of each `dimension()`-long row of `thetas`
    /// to the matching element of `out`: the batch-evaluator signature
    /// [`crate::mcmc::sample_into`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `thetas` is not `out.len()` rows long.
    pub fn log_posteriors(&mut self, thetas: &[f64], out: &mut [f64]) {
        let dim = dimension();
        assert_eq!(thetas.len(), out.len() * dim, "one output per parameter row");
        for (thetas, out) in thetas.chunks(MAX_SLOTS * dim).zip(out.chunks_mut(MAX_SLOTS)) {
            self.sweep(thetas, out);
        }
    }

    /// One arena sweep, dispatched to a SIMD-feature compilation tier
    /// ([`vmath::simd_tier`]) so the helper loops — prior-box compares,
    /// arena fills, the fused post/accumulation — autovectorize at the
    /// same width as the kernel slices. Every tier compiles the exact same
    /// per-lane arithmetic, and autovectorization never reassociates
    /// floating point, so the tier choice cannot change bits.
    fn sweep(&mut self, thetas: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: tiers above baseline are only reported by simd_tier()
            // when the CPU supports the corresponding feature set.
            match vmath::simd_tier() {
                2 => return unsafe { sweep_avx512(self, thetas, out) },
                1 => return unsafe { sweep_avx2(self, thetas, out) },
                _ => {}
            }
        }
        sweep_impl(self, thetas, out)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(eval: &mut FusedPosterior<'_>, thetas: &[f64], out: &mut [f64]) {
    sweep_impl(eval, thetas, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx512vl")]
unsafe fn sweep_avx512(eval: &mut FusedPosterior<'_>, thetas: &[f64], out: &mut [f64]) {
    sweep_impl(eval, thetas, out)
}

/// Family indices with nontrivial parameter hoists (see
/// [`crate::fastpath::fast_hoist`]): LogPower copies a parameter, Weibull
/// and Mmf take `ln` of one, Hill3 raises one to a power. Pinned against
/// [`ALL_FAMILIES`] by a unit test.
const LOGPOWER_K: usize = 3;
const WEIBULL_K: usize = 4;
const MMF_K: usize = 5;
const HILL3_K: usize = 10;

/// Scores up to [`MAX_SLOTS`] rows in one fused sweep. `#[inline(always)]`
/// so each [`FusedPosterior::sweep`] tier compiles its own copy.
#[inline(always)]
fn sweep_impl(eval: &mut FusedPosterior<'_>, thetas: &[f64], out: &mut [f64]) {
    let FusedPosterior { grid, ys, scratch, backend } = eval;
    let (grid, ys, backend) = (*grid, *ys, *backend);
    let FusedScratch { slots, buf, hbuf, gate, means } = &mut **scratch;
    let dim = dimension();
    let theta = |s: usize| &thetas[s * dim..(s + 1) * dim];
    if slots.len() < out.len() {
        slots.resize(out.len(), Slot { hoists: [0.0; 11], wsum: 0.0, seg_off: [NO_SEG; 11] });
    }

    // Stage 0 — scalar gates: prior box and weight mass.
    gate.clear();
    for (s, lp) in out.iter_mut().enumerate() {
        let theta = theta(s);
        *lp = f64::NEG_INFINITY;
        if !in_prior_box_fast(theta) {
            continue;
        }
        let wsum: f64 = theta[..11].iter().sum();
        if wsum < MIN_WEIGHT_SUM {
            continue;
        }
        let slot = &mut slots[s];
        slot.wsum = wsum;
        slot.hoists = [0.0; 11];
        if theta[LOGPOWER_K] > 0.0 {
            slot.hoists[LOGPOWER_K] = theta[FAMILY_OFFSETS[LOGPOWER_K] + 1];
        }
        gate.push(s);
    }
    if gate.is_empty() {
        return;
    }

    // Batched parameter hoists: where the reference calls scalar `ln_s` /
    // `pow_s` per proposal, the gated slots' hoist arguments are
    // concatenated as `[Weibull ln][Mmf ln][Hill3 pow]` lanes and pushed
    // through the same vector kernels. `pow(x, y)` decomposes into the
    // identical `exp(y · ln x)` lane sequence, so every hoist is
    // bit-identical to [`crate::fastpath::fast_hoist`]. Each push/consume
    // walk visits `gate` in the same order, so lanes and slots stay
    // matched without an index table.
    hbuf.clear();
    for &s in gate.iter() {
        if theta(s)[WEIBULL_K] > 0.0 {
            hbuf.push(theta(s)[FAMILY_OFFSETS[WEIBULL_K] + 2]);
        }
    }
    let w_end = hbuf.len();
    for &s in gate.iter() {
        if theta(s)[MMF_K] > 0.0 {
            hbuf.push(theta(s)[FAMILY_OFFSETS[MMF_K] + 2]);
        }
    }
    let m_end = hbuf.len();
    for &s in gate.iter() {
        if theta(s)[HILL3_K] > 0.0 {
            hbuf.push(theta(s)[FAMILY_OFFSETS[HILL3_K] + 2]);
        }
    }
    vln_with(backend, hbuf);
    let mut i = m_end;
    for &s in gate.iter() {
        if theta(s)[HILL3_K] > 0.0 {
            // `pow(x, y) = exp(y * ln x)`; f64 multiplication is bitwise
            // commutative, so the assign form matches the scalar kernel.
            hbuf[i] *= theta(s)[FAMILY_OFFSETS[HILL3_K] + 1];
            i += 1;
        }
    }
    vexp_with(backend, &mut hbuf[m_end..]);
    let (mut iw, mut im, mut ih) = (0, w_end, m_end);
    for &s in gate.iter() {
        let (theta, slot) = (theta(s), &mut slots[s]);
        if theta[WEIBULL_K] > 0.0 {
            slot.hoists[WEIBULL_K] = hbuf[iw];
            iw += 1;
        }
        if theta[MMF_K] > 0.0 {
            slot.hoists[MMF_K] = hbuf[im];
            im += 1;
        }
        if theta[HILL3_K] > 0.0 {
            slot.hoists[HILL3_K] = hbuf[ih];
            ih += 1;
        }
    }

    // Stage 1 — one fused pass over every gated slot's *full* grid span
    // (all observations plus the horizon lane). The reference splits this
    // into a scalar two-point tail gate and a later batched main sweep;
    // the tail gate rejects so rarely after the scalar gates that the
    // occasional wasted main-span fill costs less than building the arena
    // twice.
    fused_pass(grid, thetas, slots, gate, buf, backend);

    // Stage 2 — per slot, one walk over its active families: each
    // family's post transform is applied on-read while accumulating both
    // the two-point tail sums (monotone/ceiling gate) and the per-
    // observation weighted means, in exactly the reference order
    // (ascending family index, then observation order). The means are
    // computed before the tail gate is known and simply discarded on
    // reject.
    let n = ys.len();
    let m = n - 1;
    for &s in gate.iter() {
        let (theta, slot) = (theta(s), &slots[s]);
        for o in means[..m].iter_mut() {
            *o = 0.0;
        }
        let mut acc_last = 0.0;
        let mut acc_hor = 0.0;
        for (k, &family) in ALL_FAMILIES.iter().enumerate() {
            let off = slot.seg_off[k];
            if off == NO_SEG {
                continue;
            }
            let fpo = FAMILY_OFFSETS[k];
            family_acc(
                family,
                &theta[fpo..fpo + family.param_count()],
                slot.hoists[k],
                theta[k],
                &buf[off..off + n + 1],
                &mut means[..m],
                &mut acc_last,
                &mut acc_hor,
            );
        }
        let mean_last = acc_last / slot.wsum;
        let mean_horizon = acc_hor / slot.wsum;
        if !mean_last.is_finite() || !mean_horizon.is_finite() {
            continue;
        }
        if mean_horizon < mean_last - MONOTONE_SLACK || mean_horizon > CEILING {
            continue;
        }
        for o in means[..m].iter_mut() {
            *o /= slot.wsum;
        }
        // The tail accumulation ran the identical operation sequence for
        // the last observation — reuse it (mirrors the reference).
        means[m] = mean_last;
        out[s] = gaussian_loglik(ys, &means[..n], theta[SIGMA_INDEX]);
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
/// observation plus the horizon lane) of the gated slots and runs the
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
/// per-segment allocation or zero-fill), and the mid passes re-walk the
/// same (family, slot) order through `seg_off` instead of a segment list.
#[inline(always)]
fn fused_pass(
    grid: &FastGrid,
    thetas: &[f64],
    slots: &mut [Slot],
    gate: &[usize],
    buf: &mut Vec<f64>,
    backend: Backend,
) {
    let dim = dimension();
    let len = grid.len();
    // Upper bound on this sweep's lane count; the buffer grows to the
    // high-water mark once and is then reused as-is.
    let need = gate.len() * ALL_FAMILIES.len() * len;
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
            for &s in gate.iter() {
                let theta = &thetas[s * dim..(s + 1) * dim];
                let slot = &mut slots[s];
                if theta[k] <= 0.0 {
                    slot.seg_off[k] = NO_SEG;
                    continue;
                }
                let fp = &theta[fpo..fpo + pc];
                family_fill(family, fp, slot.hoists[k], grid, 0, &mut buf[off..off + len]);
                slot.seg_off[k] = off;
                off += len;
            }
        }
        lane_end[g + 1] = off;
    }

    let run_mid = |buf: &mut [f64], ks: &[usize]| {
        for &k in ks.iter() {
            let family = ALL_FAMILIES[k];
            let fpo = FAMILY_OFFSETS[k];
            let pc = family.param_count();
            for &s in gate.iter() {
                let off = slots[s].seg_off[k];
                if off == NO_SEG {
                    continue;
                }
                let fp = &thetas[s * dim + fpo..s * dim + fpo + pc];
                family_mid(family, fp, &mut buf[off..off + len]);
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
    run_mid(buf, SIG_GROUPS[1].1);
    vexp_with(backend, &mut buf[lane_end[1]..lane_end[4]]);
    run_mid(buf, SIG_GROUPS[2].1);
    vexp_with(backend, &mut buf[lane_end[2]..lane_end[3]]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::{family_sig, fast_log_posterior};

    fn default_theta() -> Vec<f64> {
        let mut theta = vec![1.0 / 11.0; 11];
        theta.push(0.05);
        for f in ALL_FAMILIES {
            theta.extend(f.default_params());
        }
        theta
    }

    /// All weight on family `k`, with `params` as its parameter block.
    fn only_family(k: usize, params: &[f64]) -> Vec<f64> {
        let mut theta = default_theta();
        theta[..11].fill(0.0);
        theta[k] = 1.0;
        theta[FAMILY_OFFSETS[k]..FAMILY_OFFSETS[k] + params.len()].copy_from_slice(params);
        theta
    }

    fn grid_from(xs: &[f64], horizon: f64) -> (FastGrid, Vec<f64>) {
        let mut grid = FastGrid::new();
        let mut ys = Vec::new();
        for &x in xs {
            grid.push(x);
            ys.push(0.8 - 0.7 * x.max(1.0).powf(-0.9));
        }
        grid.push(horizon);
        (grid, ys)
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

    /// Whatever mix of slots shares a sweep, each output is bitwise the
    /// per-proposal (unbatched) reference — through every gate, under
    /// both backends, and across the `MAX_SLOTS` chunk seam.
    #[test]
    fn batched_fit_is_bitwise_identical_to_unbatched() {
        let base = default_theta();
        let mut out_of_box = base.clone();
        out_of_box[SIGMA_INDEX] = 10.0;
        let mut nan_param = base.clone();
        nan_param[FAMILY_OFFSETS[0]] = f64::NAN;
        let mut zero_weights = base.clone();
        for k in [1, 4, 8, 10] {
            zero_weights[k] = 0.0;
        }
        let mut thin_mass = base.clone();
        thin_mass[..11].fill(MIN_WEIGHT_SUM / 20.0);
        // Weibull falling from 0.9 toward 0.1: the monotone gate rejects.
        let decreasing = only_family(WEIBULL_K, &[0.1, 0.9, 0.01, 1.0]);
        // Pow3 saturating at 1.3: the ceiling gate rejects.
        let above_ceiling = only_family(0, &[1.3, 0.1, 1.0]);
        let mut steep = base.clone();
        steep[FAMILY_OFFSETS[HILL3_K] + 1] = 5.5;
        let cases = [
            ("base", &base, true),
            ("out of box", &out_of_box, false),
            ("NaN parameter", &nan_param, false),
            ("zero-weight families", &zero_weights, true),
            ("sub-MIN_WEIGHT_SUM", &thin_mass, false),
            ("decreasing tail", &decreasing, false),
            ("above ceiling", &above_ceiling, false),
            ("steep Hill3", &steep, true),
        ];

        let xs: Vec<f64> = (1..=17).map(f64::from).collect();
        // An epoch-0 grid point has NaN memoized logs: every proposal hits
        // the non-finite-lane exit of the likelihood loop instead.
        let mut xs_nan = xs.clone();
        xs_nan[3] = 0.0;
        for (xs, any_finite) in [(&xs, true), (&xs_nan, false)] {
            let (grid, ys) = grid_from(xs, 120.0);
            let (mut means, mut t) = (vec![0.0; ys.len()], vec![0.0; ys.len()]);
            // 8 cases × 9 repeats = 72 slots: one full chunk and a partial one.
            let thetas: Vec<f64> =
                (0..9).flat_map(|_| cases.iter().flat_map(|c| c.1.iter().copied())).collect();
            for backend in [Backend::Scalar, Backend::Simd] {
                let mut scratch = FusedScratch::default();
                let mut out = vec![0.0; 9 * cases.len()];
                FusedPosterior::new(&grid, &ys, &mut scratch, backend)
                    .log_posteriors(&thetas, &mut out);
                for (s, lp) in out.iter().enumerate() {
                    let (name, theta, finite) = cases[s % cases.len()];
                    let want = fast_log_posterior(&grid, &ys, &mut means, &mut t, backend, theta);
                    assert_eq!(lp.to_bits(), want.to_bits(), "{name} (slot {s}, {backend:?})");
                    assert_eq!(lp.is_finite(), finite && any_finite, "{name}: wrong gate");
                }
            }
        }
    }

    #[test]
    fn a_batch_of_one_and_a_reused_scratch_score_the_same() {
        let (grid, ys) = grid_from(&(1..=9).map(f64::from).collect::<Vec<_>>(), 60.0);
        let mut scratch = FusedScratch::default();
        let theta = default_theta();
        let mut first = [0.0];
        FusedPosterior::new(&grid, &ys, &mut scratch, Backend::Scalar)
            .log_posteriors(&theta, &mut first);
        // A wider sweep over a longer curve dirties every buffer…
        let (grid2, ys2) = grid_from(&(1..=25).map(f64::from).collect::<Vec<_>>(), 90.0);
        let wide: Vec<f64> = (0..40).flat_map(|_| theta.iter().copied()).collect();
        let mut out = vec![0.0; 40];
        FusedPosterior::new(&grid2, &ys2, &mut scratch, Backend::Scalar)
            .log_posteriors(&wide, &mut out);
        assert!(out.iter().all(|lp| lp.to_bits() == out[0].to_bits()));
        // …and the first curve still scores the same through it.
        let mut again = [0.0];
        FusedPosterior::new(&grid, &ys, &mut scratch, Backend::Scalar)
            .log_posteriors(&theta, &mut again);
        assert!(first[0].is_finite());
        assert_eq!(first[0].to_bits(), again[0].to_bits());
    }
}
