//! A fit request that carries its caller's query: the answer the batch
//! accumulates while the fit samples is bitwise the finished posterior's
//! own (`prob_at_least_many`), the posterior is bitwise a query-less
//! fit's, the sampler's row sink keeps exactly the rows the old
//! retain-everything-then-subsample pass kept, the shared cache's memo
//! returns the bits the first study computed, and a fit that panics on a
//! pool worker is a typed error for its request instead of a hang.

use std::sync::mpsc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive::curve::batch::MAX_SLOTS;
use hyperdrive::curve::ensemble::dimension;
use hyperdrive::curve::mcmc::{sample, sample_into, score_each, McmcScratch, SamplerOptions};
use hyperdrive::curve::{
    sequential_fit, ExceedanceQuery, FitOutcome, FitPool, FitRequest, FitService, PredictorConfig,
    SharedFitCache, QUERY_LANES,
};
use hyperdrive::pop::ert_query;
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::{Error, JobId, LearningCurve, SimTime};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The first `prefix` epochs of one sampled configuration of `workload`,
/// and a target a little above where the curve stands.
fn workload_curve(workload: &dyn Workload, seed: u64, prefix: u32) -> (LearningCurve, f64) {
    let kind = workload.domain_knowledge().metric;
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = workload.profile(&workload.space().sample(&mut rng), seed);
    let mut curve = LearningCurve::new(kind);
    for e in 1..=prefix {
        curve.push(e, SimTime::from_mins(f64::from(e)), profile.value_at(e));
    }
    (curve, profile.value_at(prefix) + 0.05)
}

/// Case `n` of the sweep: a curve from one of the two generators, a
/// horizon, and a query grid — POP's own remaining-time grid for most, a
/// single epoch, a full 96-lane sweep and a two-lane grid for the rest.
fn case(n: u64) -> FitRequest {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ n);
    let cifar = CifarWorkload::new();
    let lunar = LunarWorkload::new();
    let workload: &dyn Workload = if n.is_multiple_of(2) { &cifar } else { &lunar };
    let prefix = rng.gen_range(6..30);
    let (curve, target) = workload_curve(workload, n, prefix);
    let max_future = rng.gen_range(1..workload.max_epochs() - prefix);
    let query = match n % 5 {
        0 => ExceedanceQuery::new(&[prefix + max_future], target),
        1 => {
            let epochs: Vec<u32> = (1..=QUERY_LANES as u32).map(|m| prefix + m).collect();
            ExceedanceQuery::new(&epochs, target)
        }
        2 => ExceedanceQuery::new(&[prefix + 1, prefix + max_future + 1], target - 0.1),
        _ => ert_query(prefix, max_future, target),
    };
    FitRequest { job: JobId::new(n), curve, horizon: prefix + max_future, query: Some(query) }
}

/// The two properties of one answered request: the streamed answer is the
/// returned posterior's own, lane for lane, and the posterior is the
/// query-less reference fit's, draw for draw.
fn check_outcome(config: PredictorConfig, seed: u64, request: &FitRequest, outcome: &FitOutcome) {
    let posterior = outcome.result.as_ref().expect("a workload prefix fits");
    let query = request.query.as_ref().expect("the case asks a query");
    let mut asked = vec![0.0; query.epochs().len()];
    posterior.prob_at_least_many(query.epochs(), query.target(), &mut asked);
    let answer = outcome.exceedance.as_ref().expect("a fitted request is answered");
    assert_eq!(bits(answer), bits(&asked), "job {:?}: streamed answer diverged", request.job);
    let plain = FitRequest { query: None, ..request.clone() };
    let reference = sequential_fit(config, seed, &plain).expect("reference fits");
    assert_eq!(
        posterior.draws(),
        reference.draws(),
        "job {:?}: a query changed the fit",
        request.job
    );
}

#[test]
fn streamed_answers_are_bitwise_the_finished_posteriors_own() {
    let config = PredictorConfig::test();
    let mut cases = 0u64;
    for (round, threads) in [1usize, 2, 4].into_iter().cycle().take(24).enumerate() {
        let service = FitService::with_shared_cache(config, 11, threads, None);
        // One boundary's batch of one, then a batch of eight whose fits
        // share the pool and interleave their rows on one reply channel.
        let alone = vec![case(cases)];
        let eight: Vec<FitRequest> = (1..=8).map(|i| case(cases + i)).collect();
        cases += 9;
        for batch in [alone, eight] {
            let outcomes = service.fit_batch(&batch);
            for (request, outcome) in batch.iter().zip(&outcomes) {
                assert!(!outcome.cached);
                check_outcome(config, 11, request, outcome);
            }
        }
        let stats = service.stats();
        assert_eq!((stats.fits, stats.streamed_fits), (9, 9), "round {round}");
        assert!(stats.query_overlap_nanos + stats.query_tail_nanos > 0);
    }
    assert!(cases >= 200, "{cases} cases");
}

/// Kept-row counts either side of both chunk seams: one row, 63 / 64 / 65
/// (no chunk, exactly one with nothing after it, one plus a one-row tail),
/// the default 400, and `max_draws` above what the sampler retains (stride
/// exactly 1: every retained row kept).
#[test]
fn every_kept_row_count_streams_the_same_answer() {
    let retained = {
        let c = PredictorConfig::test();
        (c.steps - (c.steps as f64 * c.burn_in_frac) as usize).div_ceil(c.thin) * c.walkers
    };
    for max_draws in [1, 63, 64, 65, 400, retained, retained + 1000] {
        let config = PredictorConfig { max_draws, ..PredictorConfig::test() };
        for threads in [1, 2] {
            let service = FitService::with_shared_cache(config, 5, threads, None);
            let batch: Vec<FitRequest> = (0..3).map(case).collect();
            let outcomes = service.fit_batch(&batch);
            for (request, outcome) in batch.iter().zip(&outcomes) {
                let n = outcome.result.as_ref().expect("fits").n_draws();
                assert_eq!(n, max_draws.min(retained), "max_draws {max_draws}");
                check_outcome(config, 5, request, outcome);
            }
        }
    }
}

/// Accumulators of different queries fed alternately, chunk by chunk, on
/// one thread — the order a batch's interleaved replies impose — share the
/// thread's query grid and arena and still each end at their own answer.
#[test]
fn interleaved_accumulators_do_not_disturb_each_other() {
    let config = PredictorConfig::test();
    let requests: Vec<FitRequest> = (40..44).map(case).collect();
    let posteriors: Vec<_> =
        requests.iter().map(|r| sequential_fit(config, 3, r).expect("fits")).collect();
    let mut masses: Vec<_> =
        requests.iter().map(|r| r.query.as_ref().expect("asks").begin()).collect();
    let rows: Vec<Vec<f64>> =
        posteriors.iter().map(|p| p.draws().iter().flatten().copied().collect()).collect();
    let chunk = MAX_SLOTS * dimension();
    for start in (0..rows[0].len()).step_by(chunk) {
        for (mass, rows) in masses.iter_mut().zip(&rows) {
            mass.absorb(&rows[start..(start + chunk).min(rows.len())]);
        }
    }
    for ((mass, request), posterior) in masses.iter().zip(&requests).zip(&posteriors) {
        let query = request.query.as_ref().expect("asks");
        let mut streamed = vec![0.0; query.epochs().len()];
        mass.finish(&mut streamed);
        assert_eq!(bits(&streamed), bits(&query.answer(posterior)));
    }
}

/// The sampler's row sink against the pass it replaced: retain every
/// post-burn-in snapshot, then take row `⌊i · total / kept⌋`.
#[test]
fn row_sink_keeps_what_retain_all_then_subsample_kept() {
    let lp = |x: &[f64]| -0.5 * x.iter().map(|v| v * v).sum::<f64>();
    let mut scratch = McmcScratch::default();
    for (steps, burn_in_frac, thin, max_draws) in [
        (60, 0.4, 1, 400),
        (24, 0.5, 1, 200),
        (40, 0.3, 2, 129),
        (40, 0.3, 3, 64),
        (9, 0.5, 2, 1),
        (9, 0.5, 2, 10_000),
        (12, 1.0, 1, 50), // burn-in swallows every step: nothing retained
        (0, 0.3, 1, 50),
    ] {
        let opts = SamplerOptions { steps, burn_in_frac, thin, stretch: 2.0 };
        let init = |rng: &mut StdRng| -> Vec<Vec<f64>> {
            (0..20).map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
        };
        let mut rng_a = StdRng::seed_from_u64(77);
        let walkers = init(&mut rng_a);
        let all = sample(score_each(4, lp), walkers, opts, &mut rng_a);
        let total = all.draws.len();
        let kept = total.min(max_draws);
        let stride = total as f64 / kept as f64;
        let expected: Vec<f64> = (0..kept)
            .flat_map(|i| all.draws[(i as f64 * stride) as usize].iter().copied())
            .collect();

        let mut rng_b = StdRng::seed_from_u64(77);
        let walkers = init(&mut rng_b);
        let mut streamed = Vec::new();
        let acceptance = sample_into(
            score_each(4, lp),
            &walkers,
            opts,
            max_draws,
            &mut rng_b,
            &mut scratch,
            |r| streamed.extend_from_slice(r),
        );
        assert_eq!(bits(scratch.kept()), bits(&expected), "steps {steps} thin {thin}");
        assert_eq!(acceptance.to_bits(), all.acceptance_rate.to_bits());
        // Streamed: the whole chunks, in order, and nothing else.
        assert_eq!(bits(&streamed), bits(&expected[..kept / MAX_SLOTS * MAX_SLOTS * 4]));
    }
}

#[test]
fn shared_memo_returns_the_first_studys_answer_and_misses_on_any_other_query() {
    let config = PredictorConfig::test();
    let asked = case(7);
    let query = asked.query.expect("asks");
    let plain = FitRequest { query: None, ..asked.clone() };
    let study = |cache: &std::sync::Arc<SharedFitCache>, request: &FitRequest| {
        let service = FitService::with_shared_cache(config, 21, 2, Some(cache.clone()));
        let outcome = service.fit_batch(std::slice::from_ref(request)).remove(0);
        (outcome, service.stats())
    };

    let cache = SharedFitCache::in_memory();
    let (original, writer) = study(&cache, &asked);
    assert_eq!((writer.fits, writer.streamed_fits, writer.memo_hits), (1, 1, 0));
    check_outcome(config, 21, &asked, &original);

    // The duplicate study: a shared hit, answered from the memo with the
    // original's bits and no kernel work of its own.
    let (duplicate, reader) = study(&cache, &asked);
    assert_eq!((reader.fits, reader.shared_hits, reader.memo_hits), (0, 1, 1));
    assert_eq!(reader.query_overlap_nanos + reader.query_tail_nanos, 0, "no sweep ran");
    assert!(!duplicate.cached, "a shared hit looks like a fresh fit");
    assert_eq!(
        bits(duplicate.exceedance.as_ref().expect("answered")),
        bits(original.exceedance.as_ref().expect("answered"))
    );
    check_outcome(config, 21, &asked, &duplicate);

    // Same fingerprint, another target or another grid: the posterior
    // hits, the memo misses, and the answer is asked of the posterior.
    let other_target = ExceedanceQuery::new(query.epochs(), query.target() + 0.01);
    let other_grid = ExceedanceQuery::new(&query.epochs()[..1], query.target());
    for other in [other_target, other_grid] {
        let request = FitRequest { query: Some(other), ..asked.clone() };
        let (outcome, stats) = study(&cache, &request);
        assert_eq!((stats.fits, stats.shared_hits, stats.memo_hits), (0, 1, 0));
        assert!(stats.query_tail_nanos > 0, "asked of the finished posterior");
        assert_eq!(stats.query_overlap_nanos, 0, "with no fit running to hide behind");
        check_outcome(config, 21, &request, &outcome);
    }

    // Carrying queries moved none of the shared layer's own counters.
    let quiet = SharedFitCache::in_memory();
    let (_, plain_writer) = study(&quiet, &plain);
    let (_, plain_reader) = study(&quiet, &plain);
    for (with, without) in [(writer, plain_writer), (reader, plain_reader)] {
        assert_eq!(
            (with.shared_hits, with.shared_lookups, with.shared_inserts),
            (without.shared_hits, without.shared_lookups, without.shared_inserts)
        );
    }
    assert_eq!((plain_writer.streamed_fits, plain_reader.memo_hits), (0, 0));
}

/// Runs `work` on its own thread and fails — instead of hanging the suite
/// — when it has not finished within a minute.
fn within_watchdog<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("fit_batch answered within the watchdog")
}

/// ROADMAP 5(e): a fit that panics on a pool worker used to leave its
/// `fit_batch` blocked forever and the pool one worker short.
#[test]
fn a_fit_that_panics_on_a_worker_is_a_typed_error_and_the_pool_keeps_serving() {
    let (curve, target) = workload_curve(&CifarWorkload::new(), 2, 12);
    let request = move |job: u64| FitRequest {
        job: JobId::new(job),
        curve: curve.clone(),
        horizon: 120,
        query: Some(ert_query(12, 108, target)),
    };
    // Two walkers cannot run a stretch move: the sampler asserts.
    let broken = PredictorConfig { walkers: 2, ..PredictorConfig::fast() };
    let pool = FitPool::new(1);

    let service = FitService::with_pool(broken, 1, pool.clone(), None);
    let first = request(0);
    let outcome = within_watchdog(move || service.fit_batch(&[first]).remove(0));
    match &outcome.result {
        Err(Error::CurveFit(why)) => {
            assert!(why.contains("fit panicked") && why.contains("at least 4 walkers"), "{why}")
        }
        other => panic!("expected a typed fit error, got {other:?}"),
    }
    assert!(outcome.exceedance.is_none());

    // The pool's only worker survived: a healthy study on the same pool is
    // served next, and a broken and a healthy service racing on it are
    // both answered.
    let healthy = PredictorConfig::test();
    let (broken_out, healthy_out) = within_watchdog(move || {
        let a = FitService::with_pool(broken, 2, pool.clone(), None);
        let b = FitService::with_pool(healthy, 2, pool, None);
        let (ra, rb) = (request(1), request(2));
        let racing = std::thread::spawn(move || a.fit_batch(&[ra]).remove(0));
        let served = b.fit_batch(std::slice::from_ref(&rb)).remove(0);
        check_outcome(healthy, 2, &rb, &served);
        (racing.join().expect("the broken study's thread returns"), served)
    });
    assert!(matches!(broken_out.result, Err(Error::CurveFit(_))));
    assert!(healthy_out.result.is_ok());
}
