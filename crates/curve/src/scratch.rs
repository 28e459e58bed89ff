//! Reusable per-fit working memory.
//!
//! One [`FitScratch`] holds every buffer a fit needs: the memoized epoch
//! grid and observed values, the lockstep Nelder–Mead runs, the MCMC
//! walker/draw storage, and the fused evaluator's lane arena. A long-lived
//! owner (a [`crate::FitService`] worker thread, a benchmark loop)
//! constructs one and threads it through every fit; after the first fit
//! sizes the buffers, subsequent fits of similar shape perform **zero heap
//! allocations per MCMC step and per Nelder–Mead round** — the property
//! the `fit_simd` bench pins with a counting allocator.

use crate::batch::FusedScratch;
use crate::fastpath::FastGrid;
use crate::mcmc::McmcScratch;
use crate::nelder_mead::NmScratch;

/// All reusable buffers for one in-flight curve fit. `Default` starts
/// empty; buffers grow on first use and are retained across fits.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// Observed values, parallel to `fast_grid` minus the horizon point.
    pub(crate) ys: Vec<f64>,
    /// The lockstep Nelder–Mead runs of the least-squares init.
    pub(crate) nm: NmScratch,
    /// Ensemble-sampler walker and draw storage.
    pub(crate) mcmc: McmcScratch,
    /// Structure-of-arrays epoch grid: one point per (possibly thinned)
    /// observation, then the horizon point `max(horizon, last_x)`, one
    /// column per memoized basis term.
    pub(crate) fast_grid: FastGrid,
    /// Slot transients and the signature-grouped lane arena of the fit's
    /// batch objective ([`crate::batch`]).
    pub(crate) fused: FusedScratch,
}

impl FitScratch {
    /// A fresh, empty scratch. Equivalent to `FitScratch::default()`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}
