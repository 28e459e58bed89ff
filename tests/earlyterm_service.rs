//! EarlyTerm on the one fit path: its boundary fit is one `FitService`
//! request, so a shared-cache replay refits nothing and moves nothing (the
//! harness's EarlyTerm cache cell, `tests/harness`), its seed is the
//! service's `derive_fit_seed`, and a boundary asked twice with different
//! curves fits twice.

use hyperdrive::curve::{
    derive_fit_seed, sequential_fit, CurvePredictor, ExceedanceQuery, FitPool, FitRequest,
    FitService, PredictorConfig, SharedFitCache,
};
use hyperdrive::framework::testing::MockContext;
use hyperdrive::framework::{JobDecision, JobEvent, SchedulerContext, SchedulingPolicy};
use hyperdrive::policies::{EarlyTermConfig, EarlyTermPolicy};
use hyperdrive::{JobId, SimTime};

#[macro_use]
mod harness;

fn config(seed: u64) -> EarlyTermConfig {
    EarlyTermConfig { predictor: PredictorConfig::test(), seed, ..Default::default() }
}

cells! {
    a_warmed_cache_replays_earlyterm_runs_without_refitting: EarlyTerm, Cache;
}

fn event(job: u64, epoch: u32, value: f64) -> JobEvent {
    JobEvent { job: JobId::new(job), epoch, value, now: SimTime::from_mins(f64::from(epoch)) }
}

/// Saturating curve values: rises from 0.1 toward `limit`.
fn saturating(limit: f64, n: usize) -> Vec<f64> {
    (1..=n).map(|x| limit - (limit - 0.1) * (x as f64).powf(-0.8)).collect()
}

/// An incumbent at ≈0.744 and job 1 at epoch 30 saturating toward `limit`.
fn boundary(limit: f64) -> MockContext {
    let mut ctx = MockContext::new(2);
    ctx.push_curve(JobId::new(0), &saturating(0.78, 40), 60.0);
    ctx.push_curve(JobId::new(1), &saturating(limit, 30), 60.0);
    ctx
}

#[test]
fn the_verdict_is_the_reference_fit_at_the_services_seed() {
    let config = config(5);
    let (job, epoch) = (JobId::new(1), 30);
    let mut verdicts = Vec::new();
    // A hopeless candidate, two either side of δ (p ≈ 0.010 and 0.090 at
    // this seed) and a promising one (p ≈ 0.94).
    for limit in [0.70, 0.765, 0.767, 0.775] {
        let mut ctx = boundary(limit);
        let (_, y_hat) = ctx.global_best().expect("an incumbent");
        let m = ctx.max_epochs();
        let curve = ctx.curve(job).expect("the candidate's curve");
        let request = FitRequest { job, curve, horizon: m, query: None };

        // The reference: a lone fit at `derive_fit_seed`, asked directly.
        let seed = derive_fit_seed(config.seed, job.raw(), epoch);
        let reference = sequential_fit(config.predictor, config.seed, &request).unwrap();
        let direct =
            CurvePredictor::new(config.predictor.with_seed(seed)).fit(&request.curve, m).unwrap();
        assert_eq!(reference.draws(), direct.draws(), "sequential_fit seeds by derive_fit_seed");
        let pval = reference.prob_at_least(m, y_hat);

        let cache = SharedFitCache::in_memory();
        let mut policy = EarlyTermPolicy::with_config_and_cache(config, Some(cache.clone()));
        let verdict = policy.on_iteration_finish(&event(1, epoch, 0.0), &mut ctx);
        let expected =
            if pval < config.delta { JobDecision::Terminate } else { JobDecision::Continue };
        assert_eq!(verdict, expected, "limit {limit}: p = {pval}");
        verdicts.push(verdict);

        // A second service asked the same query hits the policy's fit and
        // its memoised answer: the policy's p-value, bitwise the reference.
        let probe = FitService::new(config.predictor, config.seed, FitPool::new(1), Some(cache));
        let query = Some(ExceedanceQuery::new(&[m], y_hat));
        let asked = probe.fit_batch(&[FitRequest { query, ..request }]).remove(0);
        let stats = probe.stats();
        assert_eq!((stats.fits, stats.shared_hits, stats.memo_hits), (0, 1, 1), "limit {limit}");
        assert_eq!(asked.exceedance.unwrap()[0].to_bits(), pval.to_bits(), "limit {limit}");
    }
    assert!(verdicts.contains(&JobDecision::Terminate), "no candidate was pruned: {verdicts:?}");
    assert!(verdicts.contains(&JobDecision::Continue), "every candidate was pruned: {verdicts:?}");
}

#[test]
fn one_boundary_asked_with_two_curves_fits_twice() {
    let mut policy = EarlyTermPolicy::with_config(config(5));
    // Job 1 reaches epoch 30 hopeless, is rolled back, and reaches epoch
    // 30 again on a curve heading past the incumbent.
    let hopeless = policy.on_iteration_finish(&event(1, 30, 0.0), &mut boundary(0.30));
    let promising = policy.on_iteration_finish(&event(1, 30, 0.0), &mut boundary(0.775));
    assert_eq!((hopeless, promising), (JobDecision::Terminate, JobDecision::Continue));
    let snap = policy.fit_cache_snapshot().unwrap();
    assert_eq!((snap.fits, snap.local_hits), (2, 0), "the second curve refits");
}
