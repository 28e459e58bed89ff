//! The fused arena: every curve-family evaluation of a default fit or
//! query, grouped by kernel signature and swept by shared kernel calls.
//!
//! A *segment* is one family evaluated at one parameter block over the
//! lanes of one grid. Segments are laid out family-major, grouped by the
//! kernel passes a family needs — `[Ln][LnExp][ExpExp][Exp][None]` — so
//! that however many segments a sweep holds, it costs four
//! [`crate::vmath`] kernel calls (plus two for the batched parameter
//! hoists): fill → kernel → mid → kernel, with each family's post
//! transform applied on read by whoever reduces the lanes. Three clients
//! share it, each a different answer to "what is a slot and how are its
//! segments reduced":
//!
//! - **Posterior** ([`CurveObjective::log_posteriors`]): a slot is one
//!   sampler proposal, its segments the active families over the
//!   observations plus the horizon lane, reduced to weighted means, the
//!   tail gate and the Gaussian likelihood. The sampler
//!   ([`crate::mcmc`]) proposes a whole half-ensemble before it scores
//!   any of it, so a half-sweep is one call; the same call scores the
//!   initial ensemble.
//! - **Least squares** ([`CurveObjective::least_squares`]): a slot is one
//!   point posted by the lockstep Nelder–Mead driver
//!   ([`crate::nelder_mead::NmScratch`]) — one family, one parameter
//!   block, clamped into the prior box — over the observation lanes,
//!   reduced to the penalized sum of squared residuals.
//! - **Query** (`sweep_draw_means`, under every [`crate::CurvePosterior`]
//!   query): a slot is one posterior draw, its segments the active
//!   families over the query epochs, reduced to the draw's weighted mean
//!   curve and handed to a visitor in draw order.
//!
//! Bit-identity contract (see DESIGN.md §12): every posterior output is
//! bitwise [`crate::fastpath::PosteriorEvalFast`] of its slot, every
//! least-squares output and every query mean bitwise what
//! the scalar [`family_value_at`] gives lane by lane, under both backends.
//!
//! - The vmath kernels are elementwise maps whose per-lane results do not
//!   depend on buffer position or length (scalar ≡ SIMD per lane,
//!   property-test-pinned), so fusing segments into one buffer cannot
//!   change any lane.
//! - Per-slot accumulation (weighted family means, Gaussian likelihood,
//!   squared residuals) runs in exactly the reference's order: ascending
//!   family index, then the lane loop. Floating-point addition order is
//!   preserved.
//! - The reference's scalar two-point tail gate and its later main sweep
//!   read lanes of the same elementwise kernels, so computing all lanes at
//!   once yields the same bits for both uses.
//!
//! Pinned by the unit tests here, the `fused_evaluator` proptests, and
//! `tests/lockstep_nm.rs` / `tests/fused_query.rs` at the workspace root.

use crate::ensemble::{dimension, in_prior_box_fast, FAMILY_OFFSETS, SIGMA_INDEX};
use crate::ensemble::{CEILING, MIN_WEIGHT_SUM, MONOTONE_SLACK};
use crate::fastpath::{family_fill, family_mid, family_value_at, fast_hoist};
use crate::fastpath::{gaussian_loglik, FastGrid};
use crate::fit::{box_penalty, clamp_into_box, CurveObjective};
use crate::models::{ModelFamily, ALL_FAMILIES};
use crate::nelder_mead::MAX_DIM;
use crate::vmath::{self, vexp_with, vln_with, Backend};

/// Kernel-signature groups in arena order — which batched `vln` / `vexp`
/// passes run between a family's fill, mid and post stages — with the
/// family indices of each group in ascending order. The arena is laid out
/// `[Ln][LnExp][ExpExp][Exp][None]` so that `vln` covers `Ln ∪ LnExp` and
/// the first `vexp` covers `LnExp ∪ ExpExp ∪ Exp` as single contiguous
/// ranges. A family in the wrong group would run the wrong kernel passes,
/// which the bitwise tests against [`family_value_at`] catch lane by lane.
const SIG_GROUPS: [&[usize]; 5] = [
    &[2],              // Ln: fill → vln. LogLogLinear
    &[1],              // LnExp: fill → vln → mid → vexp. Pow4
    &[4, 6, 7],        // ExpExp: fill → vexp → mid → vexp. Weibull, Janoschek, Exp4
    &[0, 3, 5, 9, 10], // Exp: fill → vexp. Pow3, LogPower, Mmf, VaporPressure, Hill3
    &[8],              // None: fill only. Ilog2
];

/// Family indices with nontrivial parameter hoists (see
/// [`crate::fastpath::fast_hoist`]): LogPower copies a parameter, Weibull
/// and Mmf take `ln` of one, Hill3 raises one to a power. Pinned against
/// [`ALL_FAMILIES`] by a unit test.
const LOGPOWER_K: usize = 3;
const WEIBULL_K: usize = 4;
const MMF_K: usize = 5;
const HILL3_K: usize = 10;

/// Sentinel for "family inactive" in a slot's segment table.
const NO_SEG: usize = usize::MAX;

/// Slots scored per arena sweep; longer batches (a query over every draw)
/// run in chunks of this many, which bounds the arena at
/// `MAX_SLOTS × 11 × lanes` whatever the caller passes. Sized to hold a
/// default half-ensemble (50 walkers) in one sweep. A fit streams its kept
/// draws in runs of this many ([`crate::mcmc::sample_into`]).
pub const MAX_SLOTS: usize = 64;

/// One arena segment: a family's parameter block (an offset into the
/// sweep's parameter matrix) and its parameter-only hoisted term. Its
/// lanes are `buf[i * lanes..(i + 1) * lanes]` for its index `i` in
/// [`Arena::segs`].
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    fp: usize,
    hoist: f64,
}

/// The signature-grouped lane buffer and its segment table.
#[derive(Debug, Default)]
struct Arena {
    /// Segments in arena order: family-major within each signature group.
    segs: Vec<Seg>,
    /// Each family's range of `segs`, by index into [`ALL_FAMILIES`].
    range: [(usize, usize); 11],
    /// Segment count up to the end of each signature group.
    group_end: [usize; 5],
    /// Segment lanes. Lanes beyond the current sweep's layout are stale
    /// and never read.
    buf: Vec<f64>,
    /// One sweep's concatenated hoist arguments (the `ln`/`pow` of family
    /// parameters that [`crate::fastpath::fast_hoist`] computes with
    /// scalar kernels), batched through the vector kernels instead.
    hbuf: Vec<f64>,
}

impl Arena {
    /// Lays out one segment per active (positive-weight) family of every
    /// gated row of `thetas`, recording each row's segment indices in its
    /// slot (`NO_SEG` for inactive families). Family-major, so the
    /// per-family dispatch of the passes below is loop-invariant across
    /// rows.
    #[inline(always)]
    fn layout_rows(&mut self, thetas: &[f64], gate: &[usize], slots: &mut [Slot]) {
        let dim = dimension();
        self.segs.clear();
        for (g, ks) in SIG_GROUPS.iter().enumerate() {
            for &k in ks.iter() {
                let first = self.segs.len();
                for &s in gate {
                    slots[s].seg[k] = if thetas[s * dim + k] > 0.0 {
                        self.segs.push(Seg { fp: s * dim + FAMILY_OFFSETS[k], hoist: 0.0 });
                        self.segs.len() - 1
                    } else {
                        NO_SEG
                    };
                }
                self.range[k] = (first, self.segs.len());
            }
            self.group_end[g] = self.segs.len();
        }
    }

    /// Runs the laid-out segments over the first `lanes` points of `grid`:
    /// batched parameter hoists, the per-family fill, and the shared
    /// kernel passes with the mid transforms between them — leaving **raw
    /// kernel outputs** in `buf` for the client to post-transform on read
    /// (`with_post!`). `params` is the matrix the segments' `fp` offsets
    /// index. Lane values are bit-identical to the pre-post stage of
    /// [`family_value_at`] on each segment.
    #[inline(always)]
    fn run(&mut self, grid: &FastGrid, lanes: usize, params: &[f64], backend: Backend) {
        let Arena { segs, range, group_end, buf, hbuf } = self;
        let of = |k: usize| range[k].0..range[k].1;

        // Where the reference calls scalar `ln_s` / `pow_s` per parameter
        // block, the hoist arguments are concatenated as `[Weibull ln]
        // [Mmf ln][Hill3 pow]` lanes and pushed through the same vector
        // kernels. `pow(x, y)` decomposes into the identical
        // `exp(y · ln x)` lane sequence, so every hoist is bit-identical
        // to [`fast_hoist`].
        for seg in &mut segs[of(LOGPOWER_K)] {
            seg.hoist = params[seg.fp + 1];
        }
        hbuf.clear();
        for k in [WEIBULL_K, MMF_K, HILL3_K] {
            hbuf.extend(segs[of(k)].iter().map(|seg| params[seg.fp + 2]));
        }
        vln_with(backend, hbuf);
        let pow_lanes = hbuf.len() - of(HILL3_K).len();
        for (h, seg) in hbuf[pow_lanes..].iter_mut().zip(&segs[of(HILL3_K)]) {
            // `pow(x, y) = exp(y * ln x)`; f64 multiplication is bitwise
            // commutative, so the assign form matches the scalar kernel.
            *h *= params[seg.fp + 1];
        }
        vexp_with(backend, &mut hbuf[pow_lanes..]);
        let mut hoists = hbuf.iter();
        for k in [WEIBULL_K, MMF_K, HILL3_K] {
            for (seg, h) in segs[of(k)].iter_mut().zip(&mut hoists) {
                seg.hoist = *h;
            }
        }

        // The buffer grows to the high-water mark once and is then reused
        // as-is (no per-sweep zero-fill).
        let need = segs.len() * lanes;
        if buf.len() < need {
            buf.resize(need, 0.0);
        }
        for (k, &family) in ALL_FAMILIES.iter().enumerate() {
            let pc = family.param_count();
            let lanes_of_k = buf[range[k].0 * lanes..range[k].1 * lanes].chunks_exact_mut(lanes);
            for (seg, out) in segs[of(k)].iter().zip(lanes_of_k) {
                family_fill(family, &params[seg.fp..seg.fp + pc], seg.hoist, grid, out);
            }
        }
        let mid = |buf: &mut [f64], ks: &[usize]| {
            for &k in ks {
                let family = ALL_FAMILIES[k];
                let pc = family.param_count();
                let lanes_of_k =
                    buf[range[k].0 * lanes..range[k].1 * lanes].chunks_exact_mut(lanes);
                for (seg, out) in segs[of(k)].iter().zip(lanes_of_k) {
                    family_mid(family, &params[seg.fp..seg.fp + pc], out);
                }
            }
        };

        // Arena layout [Ln][LnExp][ExpExp][Exp][None]:
        //   vln  over Ln ∪ LnExp      (the only ln pass)
        //   mid  over LnExp
        //   vexp over LnExp ∪ ExpExp ∪ Exp  (LnExp's 2nd, ExpExp's 1st, Exp's only)
        //   mid  over ExpExp
        //   vexp over ExpExp          (its 2nd pass)
        let end = |g: usize| group_end[g] * lanes;
        vln_with(backend, &mut buf[..end(1)]);
        mid(buf, SIG_GROUPS[1]);
        vexp_with(backend, &mut buf[end(0)..end(3)]);
        mid(buf, SIG_GROUPS[2]);
        vexp_with(backend, &mut buf[end(1)..end(2)]);
    }

    /// Segment `i`'s lanes and hoisted term.
    #[inline(always)]
    fn seg(&self, i: usize, lanes: usize) -> (&[f64], f64) {
        (&self.buf[i * lanes..(i + 1) * lanes], self.segs[i].hoist)
    }
}

/// Binds `$post` to `$family`'s post-kernel transform — the last stage of
/// the fast factoring, a pure per-lane map — and evaluates `$body` with
/// it, once per family shape so the transform inlines into whatever lane
/// loop the body runs. Applying it **on read** while reducing saves a
/// full read-modify-write sweep over the arena and is bitwise-neutral:
/// per lane the arithmetic is exactly what [`family_value_at`] ends with,
/// and every lane is consumed exactly once.
macro_rules! with_post {
    ($family:expr, $fp:expr, $hoist:expr, |$post:ident| $body:expr) => {{
        let (fp, hoist): (&[f64], f64) = ($fp, $hoist);
        match $family {
            ModelFamily::Pow3 => {
                let (c, a) = (fp[0], fp[1]);
                let $post = |v: f64| c - a * v;
                $body
            }
            ModelFamily::Pow4 | ModelFamily::Exp4 => {
                let c = fp[0];
                let $post = |v: f64| c - v;
                $body
            }
            ModelFamily::LogPower => {
                let a = fp[0];
                let $post = |v: f64| a / (1.0 + v);
                $body
            }
            ModelFamily::Weibull | ModelFamily::Janoschek => {
                let (alpha, beta) = (fp[0], fp[1]);
                let $post = |v: f64| alpha - (alpha - beta) * v;
                $body
            }
            ModelFamily::Mmf => {
                let (alpha, beta) = (fp[0], fp[1]);
                let $post = |v: f64| alpha - (alpha - beta) / (1.0 + v);
                $body
            }
            ModelFamily::Hill3 => {
                let ymax = fp[0];
                let $post = |v: f64| ymax * v / (hoist + v);
                $body
            }
            ModelFamily::LogLogLinear | ModelFamily::Ilog2 | ModelFamily::VaporPressure => {
                let $post = |v: f64| v;
                $body
            }
        }
    }};
}

/// Defines `$name` as `$imp` dispatched to a SIMD-feature compilation
/// tier ([`vmath::simd_tier`]), so the helper loops around the kernel
/// calls — gates, arena fills, post-on-read reductions — autovectorize at
/// the same width as the kernel slices. `$imp` must be `#[inline(always)]`
/// so each tier compiles its own copy. Every tier compiles the exact same
/// per-lane arithmetic, and autovectorization never reassociates floating
/// point, so the tier choice cannot change bits.
macro_rules! tiered {
    ($(#[$doc:meta])* $vis:vis fn $name:ident[$($gen:tt)*]($($arg:ident: $ty:ty),* $(,)?) => $imp:ident) => {
        $(#[$doc])*
        $vis fn $name<$($gen)*>($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2<$($gen)*>($($arg: $ty),*) {
                    $imp($($arg),*)
                }
                #[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx512vl")]
                unsafe fn avx512<$($gen)*>($($arg: $ty),*) {
                    $imp($($arg),*)
                }
                // SAFETY: tiers above baseline are only reported by
                // simd_tier() when the CPU supports the corresponding
                // feature set.
                match vmath::simd_tier() {
                    2 => return unsafe { avx512($($arg),*) },
                    1 => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
            }
            $imp($($arg),*)
        }
    };
}

/// One posterior or query slot's per-sweep transients.
#[derive(Debug, Clone, Copy)]
struct Slot {
    wsum: f64,
    /// Arena segment of each family, `NO_SEG` when its weight is not
    /// positive.
    seg: [usize; 11],
}

const NO_SLOT: Slot = Slot { wsum: 0.0, seg: [NO_SEG; 11] };

/// One least-squares slot: a point that passed the finiteness gate.
#[derive(Debug, Clone, Copy)]
struct LsSlot {
    /// Position in the caller's output.
    out: usize,
    /// Family index into [`ALL_FAMILIES`].
    k: usize,
    penalty: f64,
    seg: usize,
}

/// Reusable working memory of the arena's clients. Lives inside
/// [`crate::FitScratch`] (fits) and in a thread-local beside the query
/// grid (posterior queries); the buffers grow to their high-water mark on
/// first use and are retained, so steady-state sampling performs zero heap
/// allocations per MCMC step, per Nelder–Mead round and per query
/// (counting-allocator-pinned by `tests/alloc_steady_state.rs`).
#[derive(Debug, Default)]
pub struct FusedScratch {
    arena: Arena,
    slots: Vec<Slot>,
    /// Slots that passed the scalar gates this sweep.
    gate: Vec<usize>,
    /// Per-lane mean accumulator of the slot being reduced.
    means: Vec<f64>,
    ls: Vec<LsSlot>,
    /// The least-squares slots' parameter blocks, clamped into the box.
    clamped: Vec<f64>,
}

/// The batch evaluator of one curve every fit runs, as a [`CurveObjective`]:
/// the log-posterior of `k` parameter vectors, or the penalized
/// least-squares objective of `k` (family, parameters) points, per call
/// (see the module docs).
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
}

impl CurveObjective for FusedPosterior<'_> {
    /// # Panics
    ///
    /// Panics if `thetas` is not `out.len()` rows long.
    fn log_posteriors(&mut self, thetas: &[f64], out: &mut [f64]) {
        let dim = dimension();
        assert_eq!(thetas.len(), out.len() * dim, "one output per parameter row");
        for (thetas, out) in thetas.chunks(MAX_SLOTS * dim).zip(out.chunks_mut(MAX_SLOTS)) {
            sweep(self, thetas, out);
        }
    }

    /// Per point: a quadratic penalty outside the prior box, the
    /// parameters clamped into it, and the mean squared residual over the
    /// observations — `+inf` when a parameter or a lane is not finite.
    ///
    /// # Panics
    ///
    /// Panics if `points` or `out` is not one row, one element per family
    /// of `families`.
    fn least_squares(&mut self, families: &[usize], points: &[f64], out: &mut [f64]) {
        assert_eq!(families.len(), out.len(), "one output per posted point");
        assert_eq!(families.len() * MAX_DIM, points.len(), "one row per posted point");
        least_squares(self, families, points, out);
    }

    /// Through the scalar fast kernels.
    fn mse(&self, family: ModelFamily, params: &[f64]) -> f64 {
        let hoist = fast_hoist(family, params);
        let mut sse = 0.0;
        for (i, y) in self.ys.iter().enumerate() {
            let m = family_value_at(family, params, hoist, self.grid, i);
            sse += (y - m) * (y - m);
        }
        sse / self.ys.len().max(1) as f64
    }
}

tiered!(fn sweep[](eval: &mut FusedPosterior<'_>, thetas: &[f64], out: &mut [f64]) => sweep_impl);
tiered!(fn least_squares[](
    eval: &mut FusedPosterior<'_>,
    families: &[usize],
    points: &[f64],
    out: &mut [f64],
) => least_squares_impl);
tiered!(
    /// The per-draw sweep under every posterior query: evaluates the
    /// weighted-combination mean curve of each `dimension()`-long row of
    /// `draws` at every point of `grid` and hands `(sigma, means)` to `visit`,
    /// in draw order. A draw whose weight sum is degenerate is skipped whole;
    /// a lane where an active family diverged arrives non-finite, for the
    /// visitor to skip — the two cases where
    /// [`crate::ensemble::ParamView::mean`] is NaN. Per lane, bitwise the
    /// scalar reference: `Σ w_k · family_value_at` over the positive-weight
    /// families in ascending order, divided by the weight sum.
    pub(crate) fn sweep_draw_means[V: FnMut(f64, &[f64])](
        grid: &FastGrid,
        draws: &[f64],
        scratch: &mut FusedScratch,
        backend: Backend,
        visit: V,
    ) => sweep_draw_means_impl
);

/// Scores up to [`MAX_SLOTS`] rows in one fused sweep.
#[inline(always)]
fn sweep_impl(eval: &mut FusedPosterior<'_>, thetas: &[f64], out: &mut [f64]) {
    let FusedPosterior { grid, ys, scratch, backend } = eval;
    let (grid, ys, backend) = (*grid, *ys, *backend);
    scratch.slots.resize(MAX_SLOTS, NO_SLOT);
    let FusedScratch { arena, slots, gate, means, .. } = &mut **scratch;
    let dim = dimension();
    let theta = |s: usize| &thetas[s * dim..(s + 1) * dim];

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
        slots[s].wsum = wsum;
        gate.push(s);
    }
    if gate.is_empty() {
        return;
    }

    // Stage 1 — one arena pass over every gated slot's *full* grid span
    // (all observations plus the horizon lane). The reference splits this
    // into a scalar two-point tail gate and a later batched main sweep;
    // the tail gate rejects so rarely after the scalar gates that the
    // occasional wasted main-span fill costs less than building the arena
    // twice.
    let n = ys.len();
    arena.layout_rows(thetas, gate, slots);
    arena.run(grid, n + 1, thetas, backend);

    // Stage 2 — per slot, one walk over its active families: each
    // family's post transform is applied on-read while accumulating both
    // the two-point tail sums (monotone/ceiling gate) and the per-
    // observation weighted means, in exactly the reference order
    // (ascending family index, then observation order). The means are
    // computed before the tail gate is known and simply discarded on
    // reject.
    let m = n - 1;
    for &s in gate.iter() {
        let (theta, slot) = (theta(s), &slots[s]);
        means[..m].fill(0.0);
        let mut acc_last = 0.0;
        let mut acc_hor = 0.0;
        for (k, &family) in ALL_FAMILIES.iter().enumerate() {
            if slot.seg[k] == NO_SEG {
                continue;
            }
            let (seg, hoist) = arena.seg(slot.seg[k], n + 1);
            let fpo = FAMILY_OFFSETS[k];
            let wk = theta[k];
            with_post!(family, &theta[fpo..fpo + family.param_count()], hoist, |post| {
                for (o, &v) in means[..m].iter_mut().zip(seg) {
                    *o += wk * post(v);
                }
                acc_last += wk * post(seg[m]);
                acc_hor += wk * post(seg[n]);
            });
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

/// Scores one Nelder–Mead round ([`CurveObjective::least_squares`]).
/// Per point the arithmetic is the libm objective's
/// ([`crate::fit::fit_family`]) with the family evaluated through the fast
/// kernels: same penalty, same clamp, residuals accumulated in
/// observation order.
#[inline(always)]
fn least_squares_impl(
    eval: &mut FusedPosterior<'_>,
    families: &[usize],
    points: &[f64],
    out: &mut [f64],
) {
    let FusedPosterior { grid, ys, scratch, backend } = eval;
    let (grid, ys, backend) = (*grid, *ys, *backend);
    let FusedScratch { arena, ls, clamped, .. } = &mut **scratch;

    // Stage 0 — scalar gates and the clamp, counting slots per family.
    ls.clear();
    clamped.clear();
    clamped.extend_from_slice(points);
    let mut count = [0usize; 11];
    for (i, &k) in families.iter().enumerate() {
        let family = ALL_FAMILIES[k];
        let params = &mut clamped[i * MAX_DIM..][..family.param_count()];
        out[i] = f64::INFINITY;
        let Some(penalty) = box_penalty(family, params) else { continue };
        clamp_into_box(family, params);
        ls.push(LsSlot { out: i, k, penalty, seg: 0 });
        count[k] += 1;
    }
    if ls.is_empty() {
        return;
    }

    // Stage 1 — one segment per slot over the observation lanes, placed
    // family-major by a counting sort (posted points arrive in run order).
    let mut total = 0;
    for (g, ks) in SIG_GROUPS.iter().enumerate() {
        for &k in ks.iter() {
            arena.range[k] = (total, total);
            total += count[k];
        }
        arena.group_end[g] = total;
    }
    arena.segs.clear();
    arena.segs.resize(total, Seg::default());
    for slot in ls.iter_mut() {
        slot.seg = arena.range[slot.k].1;
        arena.range[slot.k].1 += 1;
        arena.segs[slot.seg].fp = slot.out * MAX_DIM;
    }
    let m = ys.len();
    arena.run(grid, m, clamped, backend);

    // Stage 2 — squared residuals, post on read, written back in place
    // (a pure per-lane map, so it vectorizes) …
    for slot in ls.iter() {
        let family = ALL_FAMILIES[slot.k];
        let fp = &clamped[slot.out * MAX_DIM..][..family.param_count()];
        let hoist = arena.segs[slot.seg].hoist;
        let seg = &mut arena.buf[slot.seg * m..(slot.seg + 1) * m];
        with_post!(family, fp, hoist, |post| {
            for (v, y) in seg.iter_mut().zip(ys) {
                let r = y - post(*v);
                *v = r * r;
            }
        });
    }
    // … then each slot's sum in observation order, four slots' addition
    // chains interleaved so their latencies overlap. A non-finite lane
    // makes its sum non-finite (and so does a sum that overflows, where
    // the reference's own result is `+inf` too), so the lane-by-lane
    // finiteness exit of the reference needs no lane-by-lane test.
    let lanes = |slot: &LsSlot| &arena.buf[slot.seg * m..(slot.seg + 1) * m];
    let mut finish = |slot: &LsSlot, sse: f64| {
        if sse.is_finite() {
            out[slot.out] = sse / m.max(1) as f64 + slot.penalty;
        }
    };
    let mut quads = ls.chunks_exact(4);
    for quad in &mut quads {
        let (a, b, c, d) = (lanes(&quad[0]), lanes(&quad[1]), lanes(&quad[2]), lanes(&quad[3]));
        let mut sse = [0.0f64; 4];
        for j in 0..m {
            sse[0] += a[j];
            sse[1] += b[j];
            sse[2] += c[j];
            sse[3] += d[j];
        }
        for (slot, sse) in quad.iter().zip(sse) {
            finish(slot, sse);
        }
    }
    for slot in quads.remainder() {
        let mut sse = 0.0;
        for r2 in lanes(slot) {
            sse += r2;
        }
        finish(slot, sse);
    }
}

#[inline(always)]
fn sweep_draw_means_impl<V: FnMut(f64, &[f64])>(
    grid: &FastGrid,
    draws: &[f64],
    scratch: &mut FusedScratch,
    backend: Backend,
    mut visit: V,
) {
    let dim = dimension();
    let n = grid.len();
    if n == 0 {
        return;
    }
    scratch.slots.resize(MAX_SLOTS, NO_SLOT);
    let FusedScratch { arena, slots, gate, means, .. } = scratch;
    means.clear();
    means.resize(n, 0.0);
    for draws in draws.chunks(MAX_SLOTS * dim) {
        // No prior-box gate here — a stored draw is queried as it is —
        // only the weight mass the mean divides by.
        gate.clear();
        for (s, theta) in draws.chunks_exact(dim).enumerate() {
            let wsum: f64 = theta[..11].iter().sum();
            if wsum < MIN_WEIGHT_SUM || wsum.is_nan() {
                continue;
            }
            slots[s].wsum = wsum;
            gate.push(s);
        }
        arena.layout_rows(draws, gate, slots);
        arena.run(grid, n, draws, backend);
        for &s in gate.iter() {
            let (theta, slot) = (&draws[s * dim..(s + 1) * dim], &slots[s]);
            means.fill(0.0);
            for (k, &family) in ALL_FAMILIES.iter().enumerate() {
                if slot.seg[k] == NO_SEG {
                    continue;
                }
                let (seg, hoist) = arena.seg(slot.seg[k], n);
                let fpo = FAMILY_OFFSETS[k];
                let wk = theta[k];
                with_post!(family, &theta[fpo..fpo + family.param_count()], hoist, |post| {
                    for (o, &v) in means.iter_mut().zip(seg) {
                        *o += wk * post(v);
                    }
                });
            }
            for o in means.iter_mut() {
                *o /= slot.wsum;
            }
            visit(theta[SIGMA_INDEX], means);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::PosteriorEvalFast;

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
    fn sig_groups_cover_every_family_once() {
        let mut seen: Vec<usize> = SIG_GROUPS.iter().flat_map(|ks| ks.iter().copied()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..ALL_FAMILIES.len()).collect::<Vec<_>>());
        // Within each group, ascending order (the arena build visits them
        // in-order so the per-slot accumulation can walk k ascending).
        for ks in SIG_GROUPS {
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
            let mut means = vec![0.0; ys.len()];
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
                    let want = PosteriorEvalFast::new(&grid, &ys, &mut means).log_posterior(theta);
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
