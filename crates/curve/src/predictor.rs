//! The public prediction API: fit a posterior over future performance from
//! a partial learning curve.

use std::cell::RefCell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hyperdrive_types::{stats, Error, LearningCurve, Result};

use crate::batch::{self, FusedPosterior, FusedScratch};
use crate::ensemble::dimension;
use crate::fastpath::FastGrid;
use crate::fit;
use crate::fit::{
    build_initial_walkers, fit_families, CurveObjective, Decline, InitHalf, ShareInit,
};
use crate::mcmc::{sample_into, McmcScratch, SamplerOptions};
use crate::nelder_mead::NmScratch;
use crate::scratch::FitScratch;
use crate::vmath::{self, Backend};

/// Fidelity and determinism knobs for [`CurvePredictor`].
///
/// The `walkers`/`steps` pairs mirror the paper's §5.2 operating points:
/// the reference implementation defaults to `100 × 2500` (250k samples) and
/// HyperDrive reduces it to `100 × 700` (70k samples) for a >2× speedup
/// "without significant degradation". [`PredictorConfig::fast`] and
/// [`PredictorConfig::test`] trade further fidelity for speed and are used
/// by the experiment harness and unit tests respectively.
///
/// Every fit evaluates the likelihood through the SIMD-dispatched
/// [`crate::vmath`] kernels, one fused sweep per sampler half-ensemble
/// ([`crate::batch`]). Results are deterministic across hosts, SIMD
/// capabilities (the kernels are bit-identical scalar vs vectorized) and
/// fit-thread counts.
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// Number of ensemble walkers (`nwalkers`).
    pub walkers: usize,
    /// Steps per walker (`nsamples`).
    pub steps: usize,
    /// Fraction of steps discarded as burn-in.
    pub burn_in_frac: f64,
    /// Thinning interval on retained ensemble snapshots.
    pub thin: usize,
    /// Maximum number of posterior draws kept for queries (uniform
    /// subsample above this).
    pub max_draws: usize,
    /// Maximum observations used for fitting: longer curves are thinned
    /// by uniform striding (first and last points always kept). Bounds the
    /// per-fit likelihood cost, which is linear in observation count.
    pub max_obs: usize,
    /// RNG seed; fits are fully deterministic given the seed and curve.
    pub seed: u64,
    /// Minimum number of observations required before fitting.
    pub min_observations: usize,
}

impl PredictorConfig {
    /// The paper's HyperDrive operating point (§5.2): 100 walkers × 700
    /// samples = 70k likelihood evaluations.
    pub fn paper() -> Self {
        PredictorConfig {
            walkers: 100,
            steps: 700,
            burn_in_frac: 0.3,
            thin: 2,
            max_draws: 1000,
            max_obs: 60,
            seed: 0,
            min_observations: 4,
        }
    }

    /// The reference implementation's original operating point: 100 × 2500
    /// = 250k samples. Used by the `fit_frontier` bench to reproduce the
    /// §5.2 ">2× faster" claim.
    pub fn reference() -> Self {
        PredictorConfig { steps: 2500, ..Self::paper() }
    }

    /// The scheduling default (`PopConfig`, `EarlyTermConfig`, the server,
    /// the figure bins): 100 walkers × 30 steps, of which the last 18 sweeps
    /// yield 200 kept draws. Same walker count as [`Self::paper`] (the
    /// ensemble needs ≥ 2× dimension walkers to mix); initialization via
    /// per-family least squares carries the accuracy. The point is read off
    /// the committed fidelity frontier, `results/FRONTIER.json` (bench bin
    /// `fit_frontier`): against the 60-step / 400-draw default it replaced,
    /// it moves confidences and POP decisions less than re-seeding that
    /// default does, for half the sampling.
    pub fn fast() -> Self {
        PredictorConfig {
            steps: 30,
            burn_in_frac: 0.4,
            thin: 1,
            max_draws: 200,
            max_obs: 30,
            ..Self::paper()
        }
    }

    /// Minimal preset for unit tests.
    pub fn test() -> Self {
        PredictorConfig {
            steps: 24,
            burn_in_frac: 0.5,
            thin: 1,
            max_draws: 200,
            max_obs: 25,
            ..Self::paper()
        }
    }

    /// Returns this config with a different seed.
    pub fn with_seed(self, seed: u64) -> Self {
        PredictorConfig { seed, ..self }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Fits probabilistic learning-curve models to partial training histories.
///
/// # Example
///
/// ```
/// use hyperdrive_curve::{CurvePredictor, PredictorConfig};
/// use hyperdrive_types::{LearningCurve, MetricKind, SimTime};
///
/// let mut curve = LearningCurve::new(MetricKind::Accuracy);
/// for e in 1..=12u32 {
///     let x = e as f64;
///     curve.push(e, SimTime::from_secs(60.0 * x), 0.7 - 0.6 * x.powf(-0.9));
/// }
/// let predictor = CurvePredictor::new(PredictorConfig::test());
/// let posterior = predictor.fit(&curve, 100)?;
/// // A curve saturating around 0.7 is unlikely to reach 0.95…
/// assert!(posterior.prob_at_least(100, 0.95) < 0.5);
/// // …and quite likely to stay above 0.4.
/// assert!(posterior.prob_at_least(100, 0.40) > 0.5);
/// # Ok::<(), hyperdrive_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CurvePredictor {
    config: PredictorConfig,
}

impl CurvePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: PredictorConfig) -> Self {
        CurvePredictor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// Fits the posterior to `curve`, extrapolating up to epoch `horizon`.
    ///
    /// Convenience wrapper over [`Self::fit_with`] with a fresh
    /// [`FitScratch`]; long-lived callers (the
    /// [`crate::FitService`] workers) hold a scratch across fits to make
    /// the inner loop allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CurveFit`] if the curve has fewer than
    /// `min_observations` points or the horizon does not exceed the last
    /// observed epoch.
    pub fn fit(&self, curve: &LearningCurve, horizon: u32) -> Result<CurvePosterior> {
        let mut scratch = FitScratch::default();
        self.fit_with(curve, horizon, &mut scratch)
    }

    /// Fits the posterior reusing `scratch` buffers. The sampler scores
    /// each half-ensemble through the fused batched-kernel evaluator
    /// ([`crate::batch`]): deterministic across hosts, backends, and
    /// thread counts.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::fit`].
    pub fn fit_with(
        &self,
        curve: &LearningCurve,
        horizon: u32,
        scratch: &mut FitScratch,
    ) -> Result<CurvePosterior> {
        self.fit_with_backend(curve, horizon, scratch, vmath::active_backend())
    }

    /// [`Self::fit_with`] against an explicit kernel backend. Exposed so tests can pin whole fits
    /// bitwise equal under *both* backends in one process, regardless of
    /// what the CPU dispatch would pick.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::fit`].
    pub fn fit_with_backend(
        &self,
        curve: &LearningCurve,
        horizon: u32,
        scratch: &mut FitScratch,
        backend: Backend,
    ) -> Result<CurvePosterior> {
        self.fit_streamed(curve, horizon, scratch, backend, &mut Decline, |_, _| {})
    }

    /// The fit under every entry point, handing the posterior's draws to
    /// `on_rows` while the sampler is still running: at each retained
    /// snapshot, the kept rows it made final, in draw order and in runs of
    /// at most [`batch::MAX_SLOTS`] rows, the run that completes them
    /// flagged ([`crate::mcmc::sample_into`]). The rows are all of the
    /// returned posterior's draws — whoever absorbs them into an
    /// [`Exceedance`] has nothing left for the posterior itself — and an
    /// attempt that then fails has handed out nothing. The init's offered
    /// half is claimed through `share`.
    pub(crate) fn fit_streamed(
        &self,
        curve: &LearningCurve,
        horizon: u32,
        scratch: &mut FitScratch,
        backend: Backend,
        share: &mut impl ShareInit,
        mut on_rows: impl FnMut(&[f64], bool),
    ) -> Result<CurvePosterior> {
        let FitScratch { ys, nm, mcmc, fast_grid, fused } = scratch;
        let last_epoch = self.fit_inputs(curve, horizon, ys, fast_grid)?;
        let mut objective = FusedPosterior::new(fast_grid, ys, fused, backend);
        let acceptance_rate = self.fit_on(&mut objective, nm, mcmc, share, &mut on_rows)?;
        // The sampler's row sink already took the `max_draws` subsample
        // that keeps queries cheap.
        if mcmc.kept().is_empty() {
            return Err(Error::CurveFit("sampler produced no draws".into()));
        }
        let draws = Arc::from(mcmc.kept());
        Ok(CurvePosterior { draws, last_epoch, horizon, acceptance_rate })
    }

    /// The offered half of the init of the fit of `curve` to `horizon` at
    /// this fidelity, minimized over an objective of its own on `scratch`.
    pub(crate) fn init_half(
        &self,
        curve: &LearningCurve,
        horizon: u32,
        scratch: &mut FitScratch,
        backend: Backend,
    ) -> Result<InitHalf> {
        let FitScratch { ys, nm, fast_grid, fused, .. } = scratch;
        self.fit_inputs(curve, horizon, ys, fast_grid)?;
        let mut half = InitHalf::drawn(&mut StdRng::seed_from_u64(self.config.seed), |_, _| {});
        half.minimize(&mut FusedPosterior::new(fast_grid, ys, fused, backend), nm);
        Ok(half)
    }

    /// The one fit schedule, over the batch objective that scores the
    /// sampler's proposals and the Nelder–Mead rounds: lockstep
    /// least-squares init → walkers → sampler. Leaves the kept draws in
    /// `mcmc` and returns the acceptance rate.
    fn fit_on(
        &self,
        objective: &mut impl CurveObjective,
        nm: &mut NmScratch,
        mcmc: &mut McmcScratch,
        share: &mut impl ShareInit,
        on_rows: &mut impl FnMut(&[f64], bool),
    ) -> Result<f64> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let fits = fit_families(objective, &mut rng, nm, share);
        let mut init = build_initial_walkers(&fits, self.config.walkers, &mut rng);
        // The growth/ceiling prior can reject every least-squares-derived
        // walker (e.g. a decreasing observed curve); fall back to
        // prior-safe default walkers rather than fail.
        if !any_finite(objective, &init) {
            init = fit::build_default_walkers(self.config.walkers, &mut rng);
        }
        if !any_finite(objective, &init) {
            return Err(Error::CurveFit("no valid initialization found".into()));
        }
        let log_probs = |thetas: &[f64], out: &mut [f64]| objective.log_posteriors(thetas, out);
        let (options, max_draws) = (self.sampler_options(), self.config.max_draws);
        Ok(sample_into(log_probs, &init, options, max_draws, &mut rng, mcmc, on_rows))
    }

    /// Checks the fit contract, returns the last observed epoch and lays
    /// out what the fit conditions on: the observed values in `ys` and, in
    /// `grid`, their epochs then the horizon point `max(horizon, last x)`.
    /// Long curves are strided down to `max_obs` points (first and last
    /// always kept) — likelihood cost is linear in observations, and a
    /// strided subsample preserves the trajectory shape. The grid memoizes
    /// every pure-x basis term once per fit (through vmath's logs, so the
    /// fit is host-independent end to end).
    fn fit_inputs(
        &self,
        curve: &LearningCurve,
        horizon: u32,
        ys: &mut Vec<f64>,
        grid: &mut FastGrid,
    ) -> Result<u32> {
        let n = curve.len();
        if n < self.config.min_observations {
            return Err(Error::CurveFit(format!(
                "need at least {} observations, got {n}",
                self.config.min_observations
            )));
        }
        let last_epoch = curve.last_epoch().expect("non-empty curve");
        if horizon <= last_epoch {
            return Err(Error::CurveFit(format!(
                "horizon {horizon} must exceed last observed epoch {last_epoch}"
            )));
        }
        let keep = self.config.max_obs.max(2);
        let stride = if n > keep { (n - 1) as f64 / (keep - 1) as f64 } else { 1.0 };
        ys.clear();
        grid.clear();
        let mut last_x = 1.0;
        for i in 0..n.min(keep) {
            let point = &curve.points()[(i as f64 * stride).round() as usize];
            last_x = f64::from(point.epoch);
            grid.push(last_x);
            ys.push(point.value);
        }
        grid.push(f64::from(horizon).max(last_x));
        Ok(last_epoch)
    }

    fn sampler_options(&self) -> SamplerOptions {
        SamplerOptions {
            steps: self.config.steps,
            burn_in_frac: self.config.burn_in_frac,
            thin: self.config.thin,
            stretch: 2.0,
        }
    }
}

/// Whether the objective gives any of `walkers` a finite log-probability,
/// scoring one walker per call and stopping at the first that has.
fn any_finite(objective: &mut impl CurveObjective, walkers: &[Vec<f64>]) -> bool {
    let mut lp = [0.0];
    walkers.iter().any(|w| {
        objective.log_posteriors(w, &mut lp);
        lp[0].is_finite()
    })
}

impl Default for CurvePredictor {
    fn default() -> Self {
        Self::new(PredictorConfig::default())
    }
}

/// A posterior's retained draws: a row-major matrix with one
/// `dimension()`-long parameter vector per row — the layout the query
/// arena ([`crate::batch`]) sweeps as stored. Iterates and indexes as rows;
/// compares like the slice it views.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draws<'a>(&'a [f64]);

impl<'a> Draws<'a> {
    /// Number of draws (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len() / dimension()
    }

    /// True when there are no draws.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The rows, in draw order.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, f64> {
        self.0.chunks_exact(dimension())
    }
}

impl std::ops::Index<usize> for Draws<'_> {
    type Output = [f64];

    fn index(&self, i: usize) -> &[f64] {
        let dim = dimension();
        &self.0[i * dim..(i + 1) * dim]
    }
}

impl<'a> IntoIterator for Draws<'a> {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Posterior over future performance given an observed curve prefix.
///
/// The draws are immutable once fitted and shared between clones: the
/// per-run cache, the shared layer and every outcome handed out hold the
/// one buffer the fit allocated, and a clone is a reference-count bump.
#[derive(Debug, Clone)]
pub struct CurvePosterior {
    /// Row-major draw matrix, `dimension()` values per draw.
    draws: Arc<[f64]>,
    last_epoch: u32,
    horizon: u32,
    acceptance_rate: f64,
}

impl CurvePosterior {
    /// Reassembles a posterior from its parts (the query-kernel suites
    /// build hand-made posteriors this way). `draws` is the row-major draw
    /// matrix; `None` unless it is whole `dimension()`-long rows (every
    /// query indexes a row by family offset). Nothing here re-derives or
    /// validates numerics: a posterior rebuilt from a fitted one's
    /// accessors answers every query bitwise as the original does.
    #[must_use]
    pub fn from_parts(
        draws: Vec<f64>,
        last_epoch: u32,
        horizon: u32,
        acceptance_rate: f64,
    ) -> Option<Self> {
        draws.len().is_multiple_of(dimension()).then(|| CurvePosterior {
            draws: draws.into(),
            last_epoch,
            horizon,
            acceptance_rate,
        })
    }

    /// Number of retained posterior draws.
    pub fn n_draws(&self) -> usize {
        self.draws().len()
    }

    /// The retained posterior parameter draws. Exposed so equivalence
    /// tests can assert *byte*-identity between fitting paths, not just
    /// agreement of summary statistics.
    pub fn draws(&self) -> Draws<'_> {
        Draws(&self.draws)
    }

    /// The draw matrix as stored, row after row.
    pub(crate) fn draw_matrix(&self) -> &[f64] {
        &self.draws
    }

    /// The last observed epoch the posterior conditions on.
    pub fn last_epoch(&self) -> u32 {
        self.last_epoch
    }

    /// The extrapolation horizon supplied at fit time.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The MCMC acceptance rate (diagnostic; healthy runs sit roughly in
    /// `[0.1, 0.9]`).
    pub fn acceptance_rate(&self) -> f64 {
        self.acceptance_rate
    }

    /// Expected (posterior-mean) performance at `epoch`.
    pub fn expected(&self, epoch: u32) -> f64 {
        self.moments_at(epoch).0
    }

    /// Standard deviation of the predicted mean curve at `epoch` across
    /// posterior draws — the paper's "prediction accuracy" (PA) diagnostic.
    pub fn prediction_std(&self, epoch: u32) -> f64 {
        self.moments_at(epoch).1
    }

    /// Posterior-predictive probability `P(y(epoch) >= target | y(1:n))`
    /// (Eq. 1 of the paper), marginalizing over model parameters and
    /// observation noise. The batch-of-one of
    /// [`Self::prob_at_least_many`]: bitwise the matching lane of any
    /// larger batch.
    pub fn prob_at_least(&self, epoch: u32, target: f64) -> f64 {
        let mut out = [0.0];
        self.prob_at_least_many(&[epoch], target, &mut out);
        out[0]
    }

    /// [`Self::prob_at_least`] at every epoch of `epochs` in one
    /// draw-major sweep, written to `out` (same length). Per draw the
    /// weight sum and the parameter-only family terms are resolved once
    /// and the mean curve is swept across all query epochs through the
    /// batched [`crate::vmath`] kernels; each lane then gains
    /// `Φ((m − target)/σ)` in draw order, skipping draws whose mean is not
    /// finite there. Host- and backend-independent (the only
    /// transcendentals are `vmath`'s).
    ///
    /// # Panics
    ///
    /// Panics if `epochs` and `out` differ in length.
    pub fn prob_at_least_many(&self, epochs: &[u32], target: f64, out: &mut [f64]) {
        self.prob_at_least_many_with(vmath::active_backend(), epochs, target, out);
    }

    /// [`Self::prob_at_least_many`] on an explicit [`Backend`], for tests
    /// pinning that the backends agree bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` and `out` differ in length.
    pub fn prob_at_least_many_with(
        &self,
        backend: Backend,
        epochs: &[u32],
        target: f64,
        out: &mut [f64],
    ) {
        assert_eq!(epochs.len(), out.len(), "one output slot per query epoch");
        for (epochs, out) in epochs.chunks(QUERY_LANES).zip(out.chunks_mut(QUERY_LANES)) {
            let mut mass = ExceedanceQuery::new(epochs, target).begin_on(backend);
            mass.absorb_rest(self);
            mass.finish(out);
        }
    }

    /// `(expected, prediction_std, prob_at_least)` at every epoch of
    /// `epochs`, written to `out` (same length), sharing one per-draw
    /// sweep of the mean curve between the three statistics.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` and `out` differ in length.
    pub fn summary_many(&self, epochs: &[u32], target: f64, out: &mut [(f64, f64, f64)]) {
        assert_eq!(epochs.len(), out.len(), "one output slot per query epoch");
        let backend = vmath::active_backend();
        for (epochs, out) in epochs.chunks(QUERY_LANES).zip(out.chunks_mut(QUERY_LANES)) {
            let mut mass = ExceedanceQuery::new(epochs, target).begin_on(backend);
            let mut moments = Moments::new();
            sweep_draw_means(backend, epochs, &self.draws, |sigma, means| {
                mass.add(sigma, means);
                moments.add(means);
            });
            for (lane, o) in out.iter_mut().enumerate() {
                let (e, s) = moments.get(lane);
                *o = (e, s, mass.prob(lane));
            }
        }
    }

    /// Convenience: `(expected, prediction_std, prob_at_least)` at one
    /// epoch — the batch-of-one of [`Self::summary_many`].
    pub fn summary_at(&self, epoch: u32, target: f64) -> (f64, f64, f64) {
        let mut out = [(0.0, 0.0, 0.0)];
        self.summary_many(&[epoch], target, &mut out);
        out[0]
    }

    /// `(expected, prediction_std)` at one epoch.
    fn moments_at(&self, epoch: u32) -> (f64, f64) {
        let mut moments = Moments::new();
        sweep_draw_means(vmath::active_backend(), &[epoch], &self.draws, |_, means| {
            moments.add(means);
        });
        moments.get(0)
    }
}

/// The per-draw sweep under every posterior query: the weighted-combination
/// mean curve of each `dimension()`-long row of `draws` at all `epochs` (at
/// most [`QUERY_LANES`]), handed to `visit` as `(sigma, means)` in draw
/// order — [`batch::sweep_draw_means`] over this thread's reused query grid
/// and arena, so a warmed-up query allocates nothing.
fn sweep_draw_means(
    backend: Backend,
    epochs: &[u32],
    draws: &[f64],
    visit: impl FnMut(f64, &[f64]),
) {
    let n = epochs.len();
    assert!(n <= QUERY_LANES, "query sweep holds {QUERY_LANES} lanes, got {n}");
    QUERY_SCRATCH.with_borrow_mut(|(grid, fused)| {
        grid.clear();
        for &e in epochs {
            grid.push(f64::from(e));
        }
        batch::sweep_draw_means(grid, draws, fused, backend, visit);
    });
}

thread_local! {
    /// The query grid and arena a thread's posterior queries reuse. (The
    /// query signatures take `&self` on posteriors shared across threads,
    /// so the storage cannot live in the posterior or be passed in.)
    static QUERY_SCRATCH: RefCell<(FastGrid, FusedScratch)> = RefCell::default();
}

/// Lanes (query epochs) one posterior-query sweep evaluates at a time;
/// longer queries run in chunks of this many. Sized so POP's
/// remaining-time estimate (at most 95 strided epochs) is a single sweep
/// over stack-resident lane buffers.
pub const QUERY_LANES: usize = 96;

/// `|u|` beyond which [`stats::erf_with_exp`] returns exactly ±1.
const ERF_SATURATION: f64 = 6.0;

/// The question a fit's caller will ask of its posterior:
/// `P(y(epoch) ≥ target | y(1:n))` (Eq. 1) at each of up to
/// [`QUERY_LANES`] epochs. A [`crate::FitRequest`] can carry one, and the
/// shared fit cache memoizes answers under it: equal queries of equal
/// posteriors have bitwise equal answers (a NaN target equals nothing, so
/// it is only ever recomputed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExceedanceQuery {
    epochs: [u32; QUERY_LANES],
    lanes: usize,
    target: f64,
}

impl ExceedanceQuery {
    /// The query for `epochs` (at most [`QUERY_LANES`], else it panics)
    /// against `target`.
    #[must_use]
    pub fn new(epochs: &[u32], target: f64) -> Self {
        let lanes = epochs.len();
        assert!(lanes <= QUERY_LANES, "a query holds {QUERY_LANES} lanes, got {lanes}");
        let mut padded = [0; QUERY_LANES];
        padded[..lanes].copy_from_slice(epochs);
        ExceedanceQuery { epochs: padded, lanes, target }
    }

    /// The query epochs, one per lane.
    #[must_use]
    pub fn epochs(&self) -> &[u32] {
        &self.epochs[..self.lanes]
    }

    /// The target performance.
    #[must_use]
    pub fn target(&self) -> f64 {
        self.target
    }

    /// An empty accumulator for this query.
    #[must_use]
    pub fn begin(&self) -> Exceedance {
        self.begin_on(vmath::active_backend())
    }
    fn begin_on(&self, backend: Backend) -> Exceedance {
        Exceedance {
            query: *self,
            backend,
            rows: 0,
            u: [0.0; QUERY_LANES],
            e: [0.0; QUERY_LANES],
            total: [0.0; QUERY_LANES],
            count: [0.0; QUERY_LANES],
        }
    }

    /// The per-lane probabilities over all of `posterior`'s draws.
    #[must_use]
    pub fn answer(&self, posterior: &CurvePosterior) -> Vec<f64> {
        let mut out = vec![0.0; self.lanes];
        posterior.prob_at_least_many(self.epochs(), self.target, &mut out);
        out
    }
}

/// The one accumulator of Eq. 1's exceedance probability: per lane of an
/// [`ExceedanceQuery`], `Φ((m − target)/σ)` summed over draws in the order
/// absorbed. In runs, as a fit streams them, or all at once are the same
/// additions in the same order, so bitwise the same result; every posterior
/// query (`prob_at_least*`, `summary_*`) is the absorb-everything case.
#[derive(Debug)]
pub struct Exceedance {
    query: ExceedanceQuery,
    backend: Backend,
    /// Draws absorbed so far.
    rows: usize,
    /// `(m − target) / σ / √2` per lane, the `erf` argument.
    u: [f64; QUERY_LANES],
    /// `exp(−u²)` per lane, batched through `vmath`.
    e: [f64; QUERY_LANES],
    total: [f64; QUERY_LANES],
    /// Draws counted per lane (a whole number, kept as `f64` so the
    /// accumulation loop is one lane type).
    count: [f64; QUERY_LANES],
}

impl Exceedance {
    /// Absorbs the next draws, `dimension()` values per row, in draw
    /// order: one query-arena sweep per [`batch::MAX_SLOTS`] rows.
    pub fn absorb(&mut self, rows: &[f64]) {
        let (query, backend) = (self.query, self.backend);
        sweep_draw_means(backend, query.epochs(), rows, |sigma, means| self.add(sigma, means));
        self.rows += rows.len() / dimension();
    }

    /// Absorbs the draws of `posterior` not yet seen: all of them when
    /// nothing streamed (a speculation adopted at the boundary), none when
    /// the fit that produced it streamed its rows.
    pub fn absorb_rest(&mut self, posterior: &CurvePosterior) {
        self.absorb(&posterior.draws[self.rows * dimension()..]);
    }

    /// Writes each lane's probability to `out`, one slot per query epoch
    /// (0 where no absorbed draw had a finite mean).
    pub fn finish(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.query.lanes, "one output slot per query epoch");
        for (lane, o) in out.iter_mut().enumerate() {
            *o = self.prob(lane);
        }
    }

    /// Adds one draw's `Φ((m − target)/σ)` to every lane whose mean is
    /// finite. `#[inline(always)]` so the lane loops compile inside the
    /// query sweep's SIMD tier.
    #[inline(always)]
    fn add(&mut self, sigma: f64, means: &[f64]) {
        let n = means.len();
        for ((u, e), m) in self.u.iter_mut().zip(self.e.iter_mut()).zip(means) {
            // Past |u| = 6 the A&S `erf` is exactly ±1 in f64 (its tail
            // term is under half an ulp of 1), so saturating there changes
            // no result — and keeps `exp(−u²)` clear of the 1e-308 floor
            // where every product with it would take a denormal assist.
            *u = ((m - self.query.target) / sigma / std::f64::consts::SQRT_2)
                .clamp(-ERF_SATURATION, ERF_SATURATION);
            *e = -*u * *u;
        }
        vmath::vexp_with(self.backend, &mut self.e[..n]);
        // Branch-free so it vectorizes: a non-finite lane computes a
        // (NaN) term like any other and the select drops it.
        let lanes = self.total.iter_mut().zip(self.count.iter_mut()).zip(&self.u).zip(&self.e);
        for ((((total, count), &u), &e), m) in lanes.zip(means) {
            let p = 0.5 * (1.0 + stats::erf_with_exp(u, e));
            let finite = m.is_finite();
            *total = if finite { *total + p } else { *total };
            *count += if finite { 1.0 } else { 0.0 };
        }
    }

    fn prob(&self, lane: usize) -> f64 {
        if self.count[lane] == 0.0 {
            0.0
        } else {
            self.total[lane] / self.count[lane]
        }
    }
}

/// Per-lane running mean and spread (Welford) of the predicted mean curve
/// across draws, over the lanes where it is finite.
struct Moments {
    count: [f64; QUERY_LANES],
    mean: [f64; QUERY_LANES],
    m2: [f64; QUERY_LANES],
}

impl Moments {
    fn new() -> Self {
        Moments { count: [0.0; QUERY_LANES], mean: [0.0; QUERY_LANES], m2: [0.0; QUERY_LANES] }
    }

    #[inline(always)]
    fn add(&mut self, means: &[f64]) {
        for (lane, &m) in means.iter().enumerate() {
            if m.is_finite() {
                self.count[lane] += 1.0;
                let d = m - self.mean[lane];
                self.mean[lane] += d / self.count[lane];
                self.m2[lane] += d * (m - self.mean[lane]);
            }
        }
    }

    /// `(mean, population standard deviation)` of `lane`; NaN when no
    /// draw was finite there.
    fn get(&self, lane: usize) -> (f64, f64) {
        if self.count[lane] == 0.0 {
            (f64::NAN, f64::NAN)
        } else {
            (self.mean[lane], (self.m2[lane] / self.count[lane]).sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_types::{MetricKind, SimTime};

    fn make_curve(n: u32, f: impl Fn(f64) -> f64) -> LearningCurve {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            c.push(e, SimTime::from_secs(60.0 * x), f(x));
        }
        c
    }

    fn predictor() -> CurvePredictor {
        CurvePredictor::new(PredictorConfig::test().with_seed(42))
    }

    #[test]
    fn rejects_short_curves_and_bad_horizons() {
        let p = predictor();
        let short = make_curve(2, |_| 0.5);
        assert!(matches!(p.fit(&short, 100), Err(Error::CurveFit(_))));
        let ok = make_curve(10, |x| 0.6 - 0.5 / x);
        assert!(matches!(p.fit(&ok, 10), Err(Error::CurveFit(_))));
        assert!(p.fit(&ok, 11).is_ok());
    }

    #[test]
    fn saturating_curve_predictions_are_calibrated() {
        // Curve saturating near 0.72.
        let curve = make_curve(15, |x| 0.72 - 0.62 * x.powf(-0.9));
        let posterior = predictor().fit(&curve, 120).unwrap();
        let p_low = posterior.prob_at_least(120, 0.30);
        let p_high = posterior.prob_at_least(120, 0.97);
        assert!(p_low > 0.7, "P(>=0.30) = {p_low}");
        assert!(p_high < 0.3, "P(>=0.97) = {p_high}");
        assert!(p_low > p_high);
    }

    #[test]
    fn prob_is_monotone_in_target() {
        let curve = make_curve(12, |x| 0.6 - 0.5 * x.powf(-0.8));
        let posterior = predictor().fit(&curve, 100).unwrap();
        let mut last = 1.0;
        for target in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let p = posterior.prob_at_least(100, target);
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= last + 1e-9, "P must fall as target rises");
            last = p;
        }
    }

    #[test]
    fn prob_is_nondecreasing_in_epoch_for_growth_curves() {
        let curve = make_curve(12, |x| 0.7 - 0.6 * x.powf(-0.7));
        let posterior = predictor().fit(&curve, 200).unwrap();
        let p50 = posterior.prob_at_least(50, 0.6);
        let p200 = posterior.prob_at_least(200, 0.6);
        // The prior enforces growth toward the horizon, so more epochs can
        // only help (up to Monte Carlo error).
        assert!(p200 >= p50 - 0.1, "p50={p50} p200={p200}");
    }

    #[test]
    fn flat_nonlearning_curve_cannot_reach_target() {
        let curve = make_curve(10, |_| 0.10);
        let posterior = predictor().fit(&curve, 120).unwrap();
        let p = posterior.prob_at_least(120, 0.77);
        assert!(p < 0.15, "flat 10% curve should not reach 77%: {p}");
    }

    #[test]
    fn expected_value_tracks_curve_level() {
        let curve = make_curve(15, |x| 0.65 - 0.55 * x.powf(-1.0));
        let posterior = predictor().fit(&curve, 150).unwrap();
        let e = posterior.expected(150);
        assert!((0.5..=0.9).contains(&e), "expected {e}");
        let pa = posterior.prediction_std(150);
        assert!(pa.is_finite() && pa >= 0.0);
    }

    #[test]
    fn summary_matches_individual_queries() {
        let curve = make_curve(12, |x| 0.6 - 0.5 * x.powf(-0.8));
        let posterior = predictor().fit(&curve, 100).unwrap();
        let (e, s, p) = posterior.summary_at(80, 0.5);
        assert!((e - posterior.expected(80)).abs() < 1e-9);
        assert!((s - posterior.prediction_std(80)).abs() < 1e-9);
        assert!((p - posterior.prob_at_least(80, 0.5)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let curve = make_curve(10, |x| 0.5 - 0.4 / x);
        let a = predictor().fit(&curve, 50).unwrap();
        let b = predictor().fit(&curve, 50).unwrap();
        assert_eq!(a.expected(50).to_bits(), b.expected(50).to_bits());
    }

    #[test]
    fn acceptance_rate_is_sane() {
        let curve = make_curve(15, |x| 0.7 - 0.6 * x.powf(-0.9));
        let posterior = predictor().fit(&curve, 100).unwrap();
        let ar = posterior.acceptance_rate();
        assert!(ar > 0.01 && ar < 0.99, "acceptance {ar}");
    }

    #[test]
    fn from_parts_takes_whole_rows_only() {
        let row = vec![0.5; dimension()];
        assert!(CurvePosterior::from_parts(row.repeat(2), 10, 100, 0.5).is_some());
        let ragged = row[1..].to_vec();
        assert!(CurvePosterior::from_parts(ragged, 10, 100, 0.5).is_none());
    }
}
