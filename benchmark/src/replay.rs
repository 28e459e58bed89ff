//! The replay stage of the traced pass: per-call costs of the `curve` and
//! `core` layers on the curves a run really fitted, and micro-probes of
//! `sim` and `framework` primitives at the workload's sizes. Everything
//! here calls public functions and times them from outside.

use std::hint::black_box;
use std::time::Instant;

use hyperdrive_core::{allocate_slots, estimate_remaining_time};
use hyperdrive_curve::ensemble::log_posterior;
use hyperdrive_curve::fit::fit_all_families;
use hyperdrive_curve::{fit_fingerprint, CurvePredictor, PredictorConfig, SharedFitCache};
use hyperdrive_framework::{JobSnapshot, ResourceManager};
use hyperdrive_sim::EventQueue;
use hyperdrive_types::{JobId, LearningCurve, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::policy::Capture;

/// Per-call samples from replaying captured fits.
#[derive(Debug, Default)]
pub struct Replay {
    /// `CurvePredictor::fit`, milliseconds.
    pub fit_ms: Vec<f64>,
    /// `fit::fit_all_families` (the Nelder–Mead initialization), ms.
    pub nm_init_ms: Vec<f64>,
    /// Fit minus initialization, milliseconds.
    pub mcmc_ms: Vec<f64>,
    /// `estimate_remaining_time` on the replayed posterior, milliseconds.
    pub ert_ms: Vec<f64>,
    /// One `CurvePosterior::prob_at_least`, microseconds.
    pub posterior_query_us: Vec<f64>,
    /// One `ensemble::log_posterior`, nanoseconds.
    pub loglik_ns: Vec<f64>,
    /// One `fit_fingerprint`, microseconds.
    pub fingerprint_us: Vec<f64>,
    /// One `SharedFitCache::get` hit, microseconds.
    pub cache_get_us: Vec<f64>,
    /// One `SharedFitCache::insert`, microseconds.
    pub cache_insert_us: Vec<f64>,
    /// The confidence each replayed remaining-time estimate came to.
    confidences: Vec<f64>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The observations a fit at `config` fidelity conditions on: the curve
/// thinned to `max_obs` points by the predictor's uniform stride.
fn fitted_obs(config: &PredictorConfig, curve: &LearningCurve) -> Vec<(f64, f64)> {
    let all: Vec<(f64, f64)> =
        curve.points().iter().map(|p| (f64::from(p.epoch), p.value)).collect();
    let keep = config.max_obs.max(2);
    if all.len() <= keep {
        return all;
    }
    let stride = (all.len() - 1) as f64 / (keep - 1) as f64;
    (0..keep).map(|i| all[(i as f64 * stride).round() as usize]).collect()
}

impl Replay {
    /// Replays `captures` at `config` fidelity and adds the samples.
    /// Called right after the unit that produced the captures, so a slow
    /// spell of the host weighs on the replay as it did on the run.
    pub fn add(&mut self, captures: &[Capture], config: PredictorConfig) {
        // A cache of the replay's own to probe, never one the run used.
        let cache = SharedFitCache::in_memory();
        for c in captures {
            let config = config.with_seed(c.fit_seed);
            let obs = fitted_obs(&config, &c.curve);

            let t = Instant::now();
            black_box(fit_all_families(&obs, &mut StdRng::seed_from_u64(c.fit_seed)));
            let init = ms(t);

            let t = Instant::now();
            let Ok(posterior) = CurvePredictor::new(config).fit(&c.curve, c.horizon) else {
                continue; // too little history: the policy's fit failed the same way
            };
            let fit = ms(t);
            self.fit_ms.push(fit);
            self.nm_init_ms.push(init);
            self.mcmc_ms.push((fit - init).max(0.0));

            let t = Instant::now();
            let est = estimate_remaining_time(
                &posterior,
                c.target,
                c.max_future,
                c.epoch_duration,
                c.budget,
            );
            self.ert_ms.push(ms(t));
            self.confidences.push(est.confidence);

            let queries = 8u32;
            let t = Instant::now();
            for q in 1..=queries {
                black_box(posterior.prob_at_least(c.horizon.saturating_sub(q), c.target));
            }
            self.posterior_query_us.push(ms(t) * 1e3 / f64::from(queries));

            let t = Instant::now();
            for theta in posterior.draws() {
                black_box(log_posterior(theta, &obs, f64::from(c.horizon)));
            }
            self.loglik_ns.push(ms(t) * 1e6 / posterior.n_draws().max(1) as f64);

            let t = Instant::now();
            let fp = fit_fingerprint(&c.curve, &config, c.fit_seed, c.horizon, None);
            self.fingerprint_us.push(ms(t) * 1e3);
            let t = Instant::now();
            cache.insert(fp, &posterior);
            self.cache_insert_us.push(ms(t) * 1e3);
            let t = Instant::now();
            black_box(cache.get(&fp));
            self.cache_get_us.push(ms(t) * 1e3);
        }
    }

    /// Microseconds per `allocate_slots` over one boundary's ranking of a
    /// full experiment: the replayed confidences cycled out to `jobs`.
    pub fn allocate_slots_us(&self, jobs: usize, slots: usize) -> Vec<f64> {
        if self.confidences.is_empty() {
            return Vec::new();
        }
        let all: Vec<f64> = self.confidences.iter().copied().cycle().take(jobs).collect();
        (0..32)
            .map(|_| {
                let t = Instant::now();
                black_box(allocate_slots(&all, slots, 1));
                ms(t) * 1e3
            })
            .collect()
    }
}

/// Nanoseconds per `EventQueue::pop` + `schedule` pair at a steady heap
/// size of `heap` events.
pub fn queue_pair_ns(heap: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(heap as u64);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(heap + 1);
    for i in 0..heap {
        queue.schedule(SimTime::from_secs(rng.gen_range(0.0..60.0)), i as u64);
    }
    let pairs = 400_000u32;
    let t = Instant::now();
    for _ in 0..pairs {
        let (at, e) = queue.pop().expect("heap stays full");
        queue.schedule(at + SimTime::from_secs(rng.gen_range(30.0..90.0)), black_box(e));
    }
    ms(t) * 1e6 / f64::from(pairs)
}

/// Nanoseconds per `reserve_idle_machine` + `release_machine` pair on a
/// half-allocated cluster of `machines`.
pub fn rm_pair_ns(machines: usize) -> f64 {
    let mut rm = ResourceManager::new(machines).expect("cluster is not empty");
    for _ in 0..machines / 2 {
        rm.reserve_idle_machine();
    }
    let pairs = 400_000u32;
    let t = Instant::now();
    for _ in 0..pairs {
        let m = rm.reserve_idle_machine().expect("half the cluster is idle");
        rm.release_machine(black_box(m)).expect("reserved machine releases");
    }
    ms(t) * 1e6 / f64::from(pairs)
}

/// Microseconds to `encode` and to `decode` a job snapshot of `history`
/// epochs padded to `bytes` (the engine's own physical padding cap
/// applies), as `(encode, decode)`. The encoded snapshots are kept, as the
/// AppStat DB keeps them, so every encode pays for fresh memory.
pub fn snapshot_codec_us(history: usize, bytes: usize) -> (f64, f64) {
    const ENGINE_PAD_CAP: usize = 4 * 1024 * 1024;
    let snapshot = JobSnapshot {
        job: JobId::new(1),
        epochs_done: history as u32,
        history: (0..history).map(|e| 0.5 - 0.4 / (e + 1) as f64).collect(),
    };
    let reps = 64u32;
    let t = Instant::now();
    let kept: Vec<Vec<u8>> =
        (0..reps).map(|_| snapshot.encode(bytes.min(ENGINE_PAD_CAP))).collect();
    let encode = ms(t) * 1e3 / f64::from(reps);
    let t = Instant::now();
    for encoded in &kept {
        black_box(JobSnapshot::decode(black_box(encoded)).expect("round trip"));
    }
    (encode, ms(t) * 1e3 / f64::from(reps))
}
