//! The sampling budget of `PredictorConfig::fast()` (100 walkers × 30
//! steps, 200 kept draws — chosen by `results/FRONTIER.json`, see the
//! `fit_frontier` bench bin) against the default it replaced, which lives
//! on here as a literal: the streamed estimate is still bitwise the
//! finished posterior's at the new shape, POP studies reach their targets
//! when they did before, and no cache can serve a posterior of one budget
//! to a request for the other.

use hyperdrive::curve::batch::MAX_SLOTS;
use hyperdrive::curve::{
    derive_fit_seed, fit_fingerprint, FitPool, FitRequest, FitService, PredictorConfig,
    SharedFitCache,
};
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::{ert_query, PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::{JobId, LearningCurve, SimTime};

/// `fast()` as it stood until ISSUE 21: 100 walkers × 60 steps, 400 draws.
fn old_default() -> PredictorConfig {
    PredictorConfig { steps: 60, max_draws: 400, ..PredictorConfig::fast() }
}

/// A boundary request as POP sends it: configuration `n` of `workload`
/// observed for `obs` epochs, carrying the remaining-time query.
fn boundary_request(workload: &dyn Workload, n: u64, obs: u32) -> FitRequest {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(n);
    let profile = workload.profile(&workload.space().sample(&mut rng), n);
    let mut curve = LearningCurve::new(workload.domain_knowledge().metric);
    for e in 1..=obs {
        curve.push(e, SimTime::from_mins(f64::from(e)), profile.value_at(e));
    }
    let max_future = workload.max_epochs() - obs;
    FitRequest {
        job: JobId::new(n),
        curve,
        horizon: obs + max_future,
        query: Some(ert_query(obs, max_future, workload.default_target())),
    }
}

/// 18 retained sweeps × 100 walkers, every ninth row kept: 200 rows reach
/// the waiting batch as three full chunks while the fit samples and eight
/// rows after it — and the answer is the finished posterior's own, bit
/// for bit, whatever the pool width.
#[test]
fn the_fast_shape_streams_three_chunks_and_a_tail_bitwise() {
    let config = PredictorConfig::fast();
    let retained = (config.steps - (config.steps as f64 * config.burn_in_frac) as usize)
        .div_ceil(config.thin)
        * config.walkers;
    assert_eq!((retained, config.max_draws), (1800, 200));
    assert_eq!(config.max_draws, 3 * MAX_SLOTS + 8);

    let (cifar, lunar) = (CifarWorkload::new(), LunarWorkload::new());
    let batch: Vec<FitRequest> = (0..6)
        .map(|n| {
            if n % 2 == 0 {
                boundary_request(&cifar, n, 10)
            } else {
                boundary_request(&lunar, n, 40)
            }
        })
        .collect();
    let mut answers: Vec<Vec<Vec<u64>>> = Vec::new();
    for threads in [1, 2, 4] {
        let service = FitService::new(config, 13, FitPool::new(threads), None);
        let outcomes = service.fit_batch(&batch);
        let mut bits = Vec::new();
        for (request, outcome) in batch.iter().zip(&outcomes) {
            let posterior = outcome.result.as_ref().expect("a workload prefix fits");
            assert_eq!(posterior.n_draws(), 200);
            let query = request.query.as_ref().expect("asked");
            let mut asked = vec![0.0; query.epochs().len()];
            posterior.prob_at_least_many(query.epochs(), query.target(), &mut asked);
            let streamed = outcome.exceedance.as_ref().expect("a fitted request is answered");
            let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(as_bits(streamed), as_bits(&asked), "{threads} threads, {:?}", request.job);
            bits.push(as_bits(streamed));
        }
        assert_eq!(service.stats().streamed_fits, batch.len() as u64);
        answers.push(bits);
    }
    assert!(answers.iter().all(|a| *a == answers[0]), "pool width leaked into an answer");
}

/// One POP study of the repository benchmark's shape (`pop_cifar` /
/// `lunar_mix`) on hyperparameter set `set` under benchmark seed `seed`:
/// simulated hours to the target and epochs executed.
fn study(lunar: bool, set: u64, seed: u64, predictor: PredictorConfig, shift: u64) -> (f64, u64) {
    let noise_seed = set + 1000 * seed;
    let (experiment, machines, tmax_h) = if lunar {
        let w = LunarWorkload::new();
        (ExperimentWorkload::from_workload_with_noise(&w, 100, set, noise_seed), 15, 24.0)
    } else {
        let w = CifarWorkload::new();
        (ExperimentWorkload::from_workload_with_noise(&w, 100, set, noise_seed), 4, 48.0)
    };
    let spec = ExperimentSpec::new(machines)
        .with_tmax(SimTime::from_hours(tmax_h))
        .with_seed(noise_seed)
        .with_stop_on_target(true);
    let config = PopConfig { predictor, seed: noise_seed + shift, ..Default::default() };
    let mut pop = PopPolicy::new(config, FitPool::new(2), None);
    let result = run_sim(&mut pop, &experiment, spec);
    let reached = result
        .time_to_target
        .unwrap_or_else(|| panic!("set {set} seed {seed} (lunar: {lunar}) missed its target"));
    (reached.as_hours(), result.total_epochs)
}

/// The policy-level protocol over `studies` (`(lunar, set, seed)`): each
/// under the old budget, the new one, and the old one with `PopConfig.seed`
/// shifted (training noise held), one CSV row per study. Returns in how
/// many studies time-to-target moved `(with the budget, with the re-seed)`;
/// a study that misses its target under any of the three panics.
fn protocol(studies: impl IntoIterator<Item = (bool, u64, u64)>) -> (usize, usize) {
    let (mut by_budget, mut by_reseed) = (0, 0);
    println!("domain,set,seed,old_h,new_h,reseed_h,old_epochs,new_epochs,reseed_epochs");
    for (lunar, set, seed) in studies {
        let old = study(lunar, set, seed, old_default(), 0);
        let new = study(lunar, set, seed, PredictorConfig::fast(), 0);
        let reseeded = study(lunar, set, seed, old_default(), 1);
        by_budget += usize::from(new.0 != old.0);
        by_reseed += usize::from(reseeded.0 != old.0);
        println!(
            "{},{set},{seed},{:.6},{:.6},{:.6},{},{},{}",
            if lunar { "lunar" } else { "cifar" },
            old.0,
            new.0,
            reseeded.0,
            old.1,
            new.1,
            reseeded.1
        );
    }
    (by_budget, by_reseed)
}

/// At tier-1 size — the benchmark's first four CIFAR-10 and first two
/// LunarLander hyperparameter sets, benchmark seed 1 — halving the
/// sampling budget moves time-to-target in no more studies than
/// re-seeding the old budget's predictions does, and every study reaches
/// its target under both budgets.
#[test]
fn halving_the_budget_moves_fewer_studies_than_reseeding_does() {
    let studies = [(false, 2), (false, 3), (false, 4), (false, 5), (true, 2), (true, 3)];
    let (by_budget, by_reseed) = protocol(studies.map(|(lunar, set)| (lunar, set, 1)));
    assert!(by_budget <= by_reseed, "budget moved {by_budget} studies, re-seeding {by_reseed}");
}

/// The same at the benchmark's size, for EXPERIMENTS.md's policy-level
/// table: all eight CIFAR-10 and four LunarLander sets × seeds 1–10
/// (`cargo test --release --test sample_budget -- --ignored --nocapture`,
/// about two minutes).
#[test]
#[ignore = "120 studies x 3; run in release for the EXPERIMENTS.md table"]
fn halving_the_budget_at_benchmark_size() {
    for (lunar, sets) in [(false, 2..=9), (true, 2..=5)] {
        let studies = sets.flat_map(|set| (1..=10).map(move |seed| (lunar, set, seed)));
        let (by_budget, by_reseed) = protocol(studies);
        assert!(by_budget <= by_reseed, "budget moved {by_budget} studies, re-seeding {by_reseed}");
    }
}

/// Fingerprints hash the whole config: the two budgets never share a key,
/// so a shared cache written under one misses under the other.
#[test]
fn a_cache_holding_one_budgets_posterior_misses_for_the_other() {
    let request = boundary_request(&CifarWorkload::new(), 3, 20);
    let seed = derive_fit_seed(17, request.job.raw(), 20);
    let key = |config: &PredictorConfig| {
        fit_fingerprint(&request.curve, config, seed, request.horizon, None)
    };
    assert_ne!(key(&PredictorConfig::fast()), key(&old_default()));

    let cache = SharedFitCache::in_memory();
    let study = |config: PredictorConfig| {
        let service = FitService::new(config, 17, FitPool::new(1), Some(cache.clone()));
        let outcome = service.fit_batch(std::slice::from_ref(&request)).remove(0);
        (outcome.result.expect("fits").n_draws(), service.stats())
    };
    let (draws, writer) = study(old_default());
    assert_eq!((draws, writer.fits, writer.shared_inserts), (400, 1, 1));
    let (draws, other) = study(PredictorConfig::fast());
    assert_eq!((draws, other.fits, other.shared_hits), (200, 1, 0), "served the other budget");
    let (draws, again) = study(old_default());
    assert_eq!((draws, again.fits, again.shared_hits), (400, 0, 1), "the cache does hit its own");
}
