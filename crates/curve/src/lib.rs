//! Probabilistic learning-curve prediction.
//!
//! This crate is a from-scratch Rust implementation of the learning-curve
//! extrapolation model of Domhan, Springenberg & Hutter (IJCAI '15) — the
//! paper's reference \[11\] and the prediction substrate of both the POP
//! scheduling algorithm and the EarlyTerm baseline policy:
//!
//! * [`models`] — the 11 parametric curve families (vapor pressure,
//!   Weibull, Janoschek, …).
//! * [`ensemble`] — the weighted-combination model with Gaussian noise and
//!   its log-posterior (growth + ceiling priors).
//! * [`fit`] — per-family least-squares initialization, every start of
//!   every family advanced in lockstep by [`nelder_mead`]'s driver.
//! * [`mcmc`] — the affine-invariant ensemble sampler (Goodman–Weare
//!   stretch move), the same sampler family as `emcee` used by the
//!   reference implementation.
//! * [`predictor`] — the public API: [`CurvePredictor`] fits a
//!   [`CurvePosterior`] that answers `P(y(m) ≥ y | y(1:n))`, expected
//!   performance, and prediction spread.
//! * [`scratch`] — [`FitScratch`], the reusable per-fit working memory
//!   that makes fitting allocation-free per MCMC step.
//! * [`service`] — [`FitService`], the deterministic parallel fitting
//!   pool with per-`(config, epochs)` memoization (§5.2's systems
//!   optimizations as a reusable component); many services can share one
//!   [`FitPool`] of worker threads (the multi-tenant server's
//!   process-global pool). It is the one fit
//!   path: POP and EarlyTerm both fit through it.
//! * [`cache`] — [`SharedFitCache`], the in-memory content-addressed
//!   layer above the per-run memo: a value its owner builds and passes to
//!   every service that should share fits, keyed by [`CurveFingerprint`].
//! * [`vmath`] — batched `exp`/`ln`/`pow` kernels with bit-identical
//!   SIMD/scalar paths, and [`fastpath`] — the structure-of-arrays
//!   likelihood built on them (the one likelihood every fit runs; the
//!   libm [`ensemble::log_posterior`] is the definition tests hold it
//!   to), which [`CurvePosterior`]'s queries sweep as well.
//! * [`batch`] — the fused arena: a sampler half-sweep's proposals, a
//!   Nelder–Mead round's points or a chunk of queried draws, evaluated in
//!   one signature-grouped kernel sweep, bitwise the scalar [`fastpath`]
//!   definitions.
//!
//! # Example
//!
//! ```
//! use hyperdrive_curve::{CurvePredictor, PredictorConfig};
//! use hyperdrive_types::{LearningCurve, MetricKind, SimTime};
//!
//! // Ten epochs of a saturating accuracy curve.
//! let mut curve = LearningCurve::new(MetricKind::Accuracy);
//! for e in 1..=10u32 {
//!     let x = e as f64;
//!     curve.push(e, SimTime::from_mins(x), 0.65 - 0.55 * x.powf(-0.8));
//! }
//!
//! let predictor = CurvePredictor::new(PredictorConfig::test());
//! let posterior = predictor.fit(&curve, 120)?;
//! let p = posterior.prob_at_least(120, 0.77);
//! assert!((0.0..=1.0).contains(&p));
//! # Ok::<(), hyperdrive_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cache;
pub mod ensemble;
pub mod fastpath;
pub mod fit;
pub mod mcmc;
pub mod models;
pub mod nelder_mead;
pub mod predictor;
pub mod scratch;
pub mod service;
pub mod vmath;

pub use batch::{FusedPosterior, FusedScratch};
pub use cache::{
    fit_fingerprint, posterior_hash, CacheStatsSnapshot, CurveFingerprint, SharedFitCache,
};
pub use fit::CurveObjective;
pub use models::{ModelFamily, ALL_FAMILIES};
pub use predictor::{
    CurvePosterior, CurvePredictor, Draws, Exceedance, ExceedanceQuery, PredictorConfig,
    QUERY_LANES,
};
pub use scratch::FitScratch;
pub use service::{
    derive_fit_seed, sequential_fit, FitKey, FitOutcome, FitPool, FitPoolStats, FitRequest,
    FitService, FitStats, SpecStats,
};
