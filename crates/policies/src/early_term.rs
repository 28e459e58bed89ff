//! The EarlyTerm policy: Domhan et al.'s predictive termination criterion.
//!
//! §5.3: "The EarlyTerm policy is a parallel version of prior work [11]
//! that introduced the learning curve prediction model used in our POP
//! policy […]. The EarlyTerm policy implements the 'predictive termination
//! criterion' described in [11]. Model performance stats are sent to the
//! policy where it keeps track of the full history of performance across
//! each job, along with ŷ which is the global best model performance seen.
//! When OnIterationFinish is called the policy checks if the current
//! iteration (n) is on an evaluation boundary (b), if so it computes
//! `pval = P(y_m ≥ ŷ | y_1:n)` using its probabilistic model. If
//! `pval < δ` then the job is immediately terminated. The value of m is
//! set to the max epoch set for the training jobs. We use the same b value
//! of 30 and δ of 0.05 as [11]" (and the 2,000-iteration boundary for RL).
//!
//! EarlyTerm is the §2.2(b) ablation of POP: it *predicts* with the full
//! curve model but never computes confidence-weighted resource division —
//! every surviving job keeps equal resources, and nothing is suspended.

use std::collections::HashMap;
use std::sync::Arc;

use hyperdrive_curve::{
    fit_fingerprint, fit_prefetch_depth, fit_prefetch_forced, CurveFingerprint, CurvePredictor,
    FitPool, FitScratch, PredictorConfig, SharedFitCache, SpecFitHandle,
};
use hyperdrive_framework::{
    FitCacheSnapshot, JobDecision, JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy,
};
use hyperdrive_types::{JobId, LearningCurve};

/// Configuration for [`EarlyTermPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct EarlyTermConfig {
    /// Termination threshold δ on `P(y_m ≥ ŷ)`.
    pub delta: f64,
    /// Evaluation boundary `b` in epochs; `None` uses 30 (the paper's
    /// supervised value) capped to the workload boundary when that is
    /// larger (RL uses its native 2,000-iteration boundary).
    pub boundary: Option<u32>,
    /// Curve-model fidelity.
    pub predictor: PredictorConfig,
    /// Speculative ahead-of-boundary fit prefetch: boundary fits start on
    /// a worker pool when the boundary epoch is *issued* and are adopted
    /// at the decision if their fingerprint matches — changing when they
    /// compute, never what. `None` defers to `HYPERDRIVE_FIT_PREFETCH`
    /// (default off).
    pub fit_prefetch: Option<bool>,
    /// Base seed mixed into per-(job, epoch) prediction seeds.
    pub seed: u64,
}

impl Default for EarlyTermConfig {
    fn default() -> Self {
        EarlyTermConfig {
            delta: 0.05,
            boundary: None,
            predictor: PredictorConfig::fast(),
            fit_prefetch: None,
            seed: 0,
        }
    }
}

/// One in-flight speculative boundary fit: adopted at the boundary only
/// when the fingerprint recomputed from the *observed* curve matches, so
/// a fault-rolled-back or otherwise divergent curve falls back to the
/// demand fit and the decision cannot change.
#[derive(Debug)]
struct EtSpeculation {
    fingerprint: CurveFingerprint,
    handle: SpecFitHandle,
}

/// The predictive-termination baseline.
#[derive(Debug)]
pub struct EarlyTermPolicy {
    config: EarlyTermConfig,
    /// Ensemble fits executed by this policy instance (adopted
    /// speculations included — they are the same fits, started earlier).
    fits: u64,
    /// Predictions answered by the shared content-addressed fit cache
    /// (bitwise the fit each replaced, so decisions are unchanged).
    shared_hits: u64,
    shared: Option<Arc<SharedFitCache>>,
    /// Worker pool for speculative fits; `None` when prefetch is off (the
    /// demand path then fits inline exactly as before).
    pool: Option<Arc<FitPool>>,
    /// In-flight speculations by job, bounded by `prefetch_depth`.
    specs: HashMap<JobId, EtSpeculation>,
    prefetch_depth: usize,
    /// Working memory of the inline demand fits, reused across them.
    scratch: FitScratch,
}

impl EarlyTermPolicy {
    /// Creates the policy with the paper's parameters (δ = 0.05, b = 30 for
    /// supervised workloads).
    pub fn new() -> Self {
        Self::with_config(EarlyTermConfig::default())
    }

    /// Creates the policy with explicit configuration; every prediction
    /// fits cold.
    pub fn with_config(config: EarlyTermConfig) -> Self {
        Self::with_config_and_cache(config, None)
    }

    /// [`EarlyTermPolicy::with_config`] with a shared fit cache: policies
    /// handed the same cache reuse each other's fits (`None` = every
    /// prediction fits cold).
    pub fn with_config_and_cache(
        config: EarlyTermConfig,
        cache: Option<Arc<SharedFitCache>>,
    ) -> Self {
        let prefetch = config.fit_prefetch.unwrap_or_else(fit_prefetch_forced);
        EarlyTermPolicy {
            config,
            fits: 0,
            shared_hits: 0,
            shared: cache,
            pool: prefetch.then(|| FitPool::new(0)),
            specs: HashMap::new(),
            prefetch_depth: fit_prefetch_depth(),
            scratch: FitScratch::new(),
        }
    }

    /// Number of curve-model predictions produced so far (diagnostic):
    /// executed fits plus shared-cache answers. Invariant between a cold
    /// run and a replay against a warmed shared cache.
    pub fn predictions_made(&self) -> u64 {
        self.fits + self.shared_hits
    }

    /// Worker-pool telemetry for the speculative path; `None` when
    /// prefetch is off and every fit runs inline.
    pub fn pool_stats(&self) -> Option<hyperdrive_curve::FitPoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    fn boundary(&self, ctx: &dyn SchedulerContext) -> u32 {
        // §5.3: b = 30 from [11] for supervised learning; RL keeps its
        // native boundary (20 blocks = 2,000 iterations) since prior work
        // gives no guidance there.
        self.config.boundary.unwrap_or_else(|| ctx.eval_boundary().max(30)).max(1)
    }

    /// The policy's own per-(job, epoch) seed formula — predates the
    /// prefetch path and must not change, or every golden trace moves.
    fn prediction_seed(&self, job: JobId, epoch: u32) -> u64 {
        self.config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(job.raw() << 20)
            .wrapping_add(u64::from(epoch))
    }

    /// The boundary decision proper. `spec` is this job's in-flight
    /// speculation, taken on adoption; whatever the caller still holds
    /// afterwards is cancelled — including when a gate below (no
    /// incumbent, incumbent itself, curve missing, no future) skips the
    /// fit the speculation was betting on.
    fn predictive_decision(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
        spec: &mut Option<EtSpeculation>,
    ) -> JobDecision {
        let Some((best_job, y_hat)) = ctx.global_best() else {
            return JobDecision::Continue;
        };
        if best_job == event.job {
            // The incumbent best trivially satisfies P(y_m >= its own best).
            return JobDecision::Continue;
        }
        let Some(curve) = ctx.curve(event.job) else {
            return JobDecision::Continue;
        };
        let m = ctx.max_epochs();
        if m <= event.epoch {
            return JobDecision::Continue;
        }
        let seed = self.prediction_seed(event.job, event.epoch);
        // Consult the shared content-addressed layer first: EarlyTerm fits
        // cold (no warm source), so the fingerprint is just (prefix,
        // fidelity, derived seed, horizon) and a hit is bitwise the fit it
        // replaces — the decision below cannot tell the difference. The
        // same fingerprint validates a speculation before adoption.
        let fp = (self.shared.is_some() || spec.is_some())
            .then(|| fit_fingerprint(&curve, &self.config.predictor, seed, m, None));
        let shared_hit = match (&self.shared, fp) {
            (Some(cache), Some(fp)) => cache.get(&fp),
            _ => None,
        };
        let posterior = match shared_hit {
            Some(hit) => {
                self.shared_hits += 1;
                hit
            }
            None => {
                // Adopt a fingerprint-matching speculation: bitwise the
                // fit below, already computed (or computing) on the pool.
                let adopted = match spec.take() {
                    Some(s) if Some(s.fingerprint) == fp => s.handle.wait(),
                    other => {
                        *spec = other;
                        None
                    }
                };
                let result = adopted.unwrap_or_else(|| {
                    CurvePredictor::new(self.config.predictor.with_seed(seed)).fit_with(
                        &curve,
                        m,
                        None,
                        &mut self.scratch,
                    )
                });
                let Ok(posterior) = result else {
                    return JobDecision::Continue; // too little history: keep training
                };
                self.fits += 1;
                if let (Some(cache), Some(fp)) = (&self.shared, fp) {
                    cache.insert(fp, &posterior);
                }
                posterior
            }
        };
        let pval = posterior.prob_at_least(m, y_hat);
        if pval < self.config.delta {
            JobDecision::Terminate
        } else {
            JobDecision::Continue
        }
    }
}

impl Drop for EarlyTermPolicy {
    fn drop(&mut self) {
        // Unclaimed speculations would otherwise burn pool time after the
        // run has already ended.
        for spec in self.specs.values() {
            spec.handle.cancel();
        }
    }
}

impl Default for EarlyTermPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for EarlyTermPolicy {
    fn name(&self) -> &str {
        "earlyterm"
    }

    fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
        // With a shared layer attached, every prediction issues exactly one
        // lookup and every executed fit publishes its posterior.
        let layered = self.shared.is_some();
        Some(FitCacheSnapshot {
            fits: self.fits,
            local_hits: 0, // boundary events are unique per (job, epoch)
            shared_hits: self.shared_hits,
            batches: self.fits + self.shared_hits,
            shared_lookups: if layered { self.fits + self.shared_hits } else { 0 },
            shared_inserts: if layered { self.fits } else { 0 },
        })
    }

    fn prefetch_boundary(&self, default_boundary: u32) -> Option<u32> {
        // Mirrors `boundary()` with the workload's `b` passed in, since no
        // context exists at engine construction.
        self.pool
            .is_some()
            .then(|| self.config.boundary.unwrap_or_else(|| default_boundary.max(30)).max(1))
    }

    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        let Some(pool) = &self.pool else { return };
        let m = hint.max_epochs;
        // The global-best / incumbent gates cannot be evaluated ahead of
        // time (the incumbent may change while the epoch runs); when they
        // end up skipping the fit, the boundary cancels the speculation —
        // that is the waste the bench reports, never a wrong result.
        if m <= hint.epoch || hint.epoch == 0 || curve.last_epoch() != Some(hint.epoch - 1) {
            return;
        }
        let mut predicted = curve.clone();
        predicted.push(hint.epoch, hint.completion_time, hint.value);
        let seed = self.prediction_seed(hint.job, hint.epoch);
        let fp = fit_fingerprint(&predicted, &self.config.predictor, seed, m, None);
        // Stats-free probe: a published posterior means the boundary takes
        // the *counted* shared hit, so speculating would only burn a core.
        if self.shared.as_ref().is_some_and(|c| c.peek(&fp).is_some()) {
            return;
        }
        match self.specs.get(&hint.job) {
            Some(s) if s.fingerprint == fp => return, // already in flight
            Some(s) => s.handle.cancel(),             // superseded: replace below
            None if self.specs.len() >= self.prefetch_depth => return,
            None => {}
        }
        let handle =
            pool.speculate((hint.job, hint.epoch), self.config.predictor, predicted, m, seed);
        self.specs.insert(hint.job, EtSpeculation { fingerprint: fp, handle });
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        let b = self.boundary(ctx);
        if !event.epoch.is_multiple_of(b) {
            return JobDecision::Continue;
        }
        // This boundary consumes the job's speculation whether or not the
        // decision ends up fitting; anything unadopted is stale (the next
        // hint carries a new fingerprint) and is cancelled.
        let mut spec = self.specs.remove(&event.job);
        let decision = self.predictive_decision(event, ctx, &mut spec);
        if let Some(s) = spec {
            s.handle.cancel();
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_framework::testing::MockContext;
    use hyperdrive_types::{JobId, SimTime};

    fn event(job: u64, epoch: u32, value: f64) -> JobEvent {
        JobEvent { job: JobId::new(job), epoch, value, now: SimTime::from_mins(epoch as f64) }
    }

    fn policy() -> EarlyTermPolicy {
        EarlyTermPolicy::with_config(EarlyTermConfig {
            predictor: PredictorConfig::test(),
            ..Default::default()
        })
    }

    /// Saturating curve values: rises from 0.1 toward `limit`.
    fn saturating(limit: f64, n: usize) -> Vec<f64> {
        (1..=n).map(|x| limit - (limit - 0.1) * (x as f64).powf(-0.8)).collect()
    }

    #[test]
    fn hopeless_job_is_terminated() {
        let mut ctx = MockContext::new(2);
        // Incumbent at 0.8; candidate saturating toward ~0.3.
        ctx.push_curve(JobId::new(0), &saturating(0.82, 40), 60.0);
        ctx.push_curve(JobId::new(1), &saturating(0.30, 30), 60.0);
        let mut policy = policy();
        assert_eq!(
            policy.on_iteration_finish(&event(1, 30, 0.29), &mut ctx),
            JobDecision::Terminate
        );
        assert_eq!(policy.predictions_made(), 1);
    }

    #[test]
    fn promising_job_survives() {
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.5, 30), 60.0);
        // Candidate clearly heading past the incumbent.
        ctx.push_curve(JobId::new(1), &saturating(0.85, 30), 60.0);
        let mut policy = policy();
        assert_eq!(policy.on_iteration_finish(&event(1, 30, 0.8), &mut ctx), JobDecision::Continue);
    }

    #[test]
    fn waits_for_the_30_epoch_boundary() {
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.8, 20), 60.0);
        ctx.push_curve(JobId::new(1), [0.1; 20].as_ref(), 60.0);
        let mut policy = policy();
        // Epochs 10 and 20 are POP boundaries but not EarlyTerm boundaries.
        for epoch in [10, 20, 29] {
            assert_eq!(
                policy.on_iteration_finish(&event(1, epoch, 0.1), &mut ctx),
                JobDecision::Continue,
                "no decision before epoch 30"
            );
        }
        assert_eq!(policy.predictions_made(), 0);
    }

    #[test]
    fn incumbent_best_is_never_terminated() {
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.8, 30), 60.0);
        let mut policy = policy();
        assert_eq!(
            policy.on_iteration_finish(&event(0, 30, 0.78), &mut ctx),
            JobDecision::Continue
        );
    }

    #[test]
    fn shared_cache_replay_matches_cold_decisions_without_refitting() {
        let build_ctx = || {
            let mut ctx = MockContext::new(2);
            ctx.push_curve(JobId::new(0), &saturating(0.82, 40), 60.0);
            ctx.push_curve(JobId::new(1), &saturating(0.30, 30), 60.0);
            ctx
        };
        let cache = hyperdrive_curve::SharedFitCache::in_memory();
        let config = EarlyTermConfig { predictor: PredictorConfig::test(), ..Default::default() };
        let mut cold = EarlyTermPolicy::with_config_and_cache(config, Some(cache.clone()));
        let cold_decision = cold.on_iteration_finish(&event(1, 30, 0.29), &mut build_ctx());
        assert_eq!(cold.fit_cache_snapshot().unwrap().fits, 1);

        let mut replay = EarlyTermPolicy::with_config_and_cache(config, Some(cache));
        let replay_decision = replay.on_iteration_finish(&event(1, 30, 0.29), &mut build_ctx());
        assert_eq!(replay_decision, cold_decision, "a shared hit cannot move a decision");
        let snap = replay.fit_cache_snapshot().unwrap();
        assert_eq!((snap.fits, snap.shared_hits), (0, 1), "replay must not refit");
        assert_eq!(replay.predictions_made(), cold.predictions_made());
    }

    #[test]
    fn hinted_boundary_fit_is_adopted_and_decides_identically() {
        let values = saturating(0.30, 30);
        let mut policy = EarlyTermPolicy::with_config(EarlyTermConfig {
            predictor: PredictorConfig::test(),
            fit_prefetch: Some(true),
            ..Default::default()
        });
        // Epoch 30 of the hopeless candidate is in flight: 29 observed.
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.82, 40), 60.0);
        ctx.push_curve(JobId::new(1), &values[..29], 60.0);
        let curve = ctx.curve(JobId::new(1)).expect("curve");
        let hint = PrefetchHint {
            job: JobId::new(1),
            epoch: 30,
            completion_time: SimTime::from_mins(30.0),
            value: values[29],
            max_epochs: ctx.max_epochs(),
            tmax: ctx.tmax(),
        };
        policy.prefetch_hint(&hint, &curve);

        let mut boundary_ctx = MockContext::new(2);
        boundary_ctx.push_curve(JobId::new(0), &saturating(0.82, 40), 60.0);
        boundary_ctx.push_curve(JobId::new(1), &values, 60.0);
        let decision = policy.on_iteration_finish(&event(1, 30, values[29]), &mut boundary_ctx);
        assert_eq!(decision, JobDecision::Terminate, "same verdict as the inline fit");
        assert_eq!(policy.predictions_made(), 1, "the adopted speculation is the fit");
        let pool = policy.pool_stats().expect("prefetch spawns a pool");
        assert_eq!(pool.speculative_completions, 1);
        assert_eq!(pool.demand_completions, 0, "nothing was refit on demand");
    }

    #[test]
    fn stale_speculation_falls_back_to_the_demand_fit() {
        let values = saturating(0.30, 30);
        let mut policy = EarlyTermPolicy::with_config(EarlyTermConfig {
            predictor: PredictorConfig::test(),
            fit_prefetch: Some(true),
            ..Default::default()
        });
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.82, 40), 60.0);
        ctx.push_curve(JobId::new(1), &values[..29], 60.0);
        let curve = ctx.curve(JobId::new(1)).expect("curve");
        // Hint predicts a value the run then fails to reproduce (live-mode
        // divergence): the fingerprint cannot match at the boundary.
        let hint = PrefetchHint {
            job: JobId::new(1),
            epoch: 30,
            completion_time: SimTime::from_mins(30.0),
            value: 0.9,
            max_epochs: ctx.max_epochs(),
            tmax: ctx.tmax(),
        };
        policy.prefetch_hint(&hint, &curve);

        let mut boundary_ctx = MockContext::new(2);
        boundary_ctx.push_curve(JobId::new(0), &saturating(0.82, 40), 60.0);
        boundary_ctx.push_curve(JobId::new(1), &values, 60.0);
        let decision = policy.on_iteration_finish(&event(1, 30, values[29]), &mut boundary_ctx);
        assert_eq!(decision, JobDecision::Terminate, "the observed curve decides, not the hint");
        assert_eq!(policy.predictions_made(), 1, "exactly one counted fit, the demand one");
    }

    #[test]
    fn crashed_curve_is_terminated_unlike_bandit() {
        // A job that peaked at 0.62 then collapsed to ~0.5: Bandit keeps it
        // (jobBest*1.5 > 0.8); EarlyTerm's curve model sees the plateau.
        let mut crashed: Vec<f64> = saturating(0.62, 10);
        crashed.extend(std::iter::repeat_n(0.5, 20));
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
        ctx.push_curve(JobId::new(1), &crashed, 60.0);
        let mut policy = policy();
        assert_eq!(
            policy.on_iteration_finish(&event(1, 30, 0.5), &mut ctx),
            JobDecision::Terminate
        );
    }
}
