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
//!
//! Its boundary fit is one request to the same [`FitService`] POP fits
//! through: the service derives the seed, consults the shared layer, fits
//! and answers `P(y_m ≥ ŷ)` while the fit samples, and counts all of it in
//! its [`FitStats`](hyperdrive_curve::FitStats).

use std::sync::Arc;

use hyperdrive_curve::{
    ExceedanceQuery, FitPool, FitRequest, FitService, PredictorConfig, SharedFitCache,
};
use hyperdrive_framework::{
    FitCacheSnapshot, JobDecision, JobEvent, SchedulerContext, SchedulingPolicy,
};

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
    /// Experiment seed: the root of every per-(job, epoch) fit seed
    /// (`derive_fit_seed`, inside the service).
    pub seed: u64,
}

impl Default for EarlyTermConfig {
    fn default() -> Self {
        EarlyTermConfig { delta: 0.05, boundary: None, predictor: PredictorConfig::fast(), seed: 0 }
    }
}

/// The predictive-termination baseline.
#[derive(Debug)]
pub struct EarlyTermPolicy {
    config: EarlyTermConfig,
    /// One worker: a decision is exactly one request, so a wider pool
    /// would only idle.
    service: FitService,
}

impl EarlyTermPolicy {
    /// Creates the policy with explicit configuration (the paper's δ = 0.05
    /// and b = 30 for supervised workloads by default); every prediction
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
        let service = FitService::new(config.predictor, config.seed, FitPool::new(1), cache);
        EarlyTermPolicy { config, service }
    }

    /// Number of curve-model predictions produced so far (diagnostic):
    /// executed fits plus shared-cache answers. Invariant between a cold
    /// run and a replay against a warmed shared cache.
    pub fn predictions_made(&self) -> u64 {
        let s = self.service.stats();
        s.fits + s.shared_hits
    }

    fn boundary(&self, ctx: &dyn SchedulerContext) -> u32 {
        // §5.3: b = 30 from [11] for supervised learning; RL keeps its
        // native boundary (20 blocks = 2,000 iterations) since prior work
        // gives no guidance there.
        self.config.boundary.unwrap_or_else(|| ctx.eval_boundary().max(30)).max(1)
    }

    /// The boundary decision proper.
    fn predictive_decision(&self, event: &JobEvent, ctx: &mut dyn SchedulerContext) -> JobDecision {
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
        let query = Some(ExceedanceQuery::new(&[m], y_hat));
        let request = FitRequest { job: event.job, curve, horizon: m, query };
        let outcome = self.service.fit_batch(&[request]).pop().expect("one outcome per request");
        // Boundaries are unique per (job, epoch), so the per-run memo would
        // only grow; forgetting also makes a rolled-back job that reaches
        // this epoch again with another curve refit instead of hitting.
        self.service.forget(event.job);
        match outcome.exceedance {
            Some(pval) if pval[0] < self.config.delta => JobDecision::Terminate,
            // `None` is a fit error: too little history, keep training.
            _ => JobDecision::Continue,
        }
    }
}

impl SchedulingPolicy for EarlyTermPolicy {
    fn name(&self) -> &str {
        "earlyterm"
    }

    fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
        let s = self.service.stats();
        Some(FitCacheSnapshot {
            fits: s.fits,
            local_hits: s.cache_hits,
            shared_hits: s.shared_hits,
            batches: s.batches,
            shared_lookups: s.shared_lookups,
            shared_inserts: s.shared_inserts,
        })
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        if !event.epoch.is_multiple_of(self.boundary(ctx)) {
            return JobDecision::Continue;
        }
        self.predictive_decision(event, ctx)
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
