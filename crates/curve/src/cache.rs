//! Content-addressed fit cache.
//!
//! The per-run [`FitService`](crate::FitService) cache is keyed by
//! `(JobId, epochs observed)` and dies with its run, yet a server's tenants
//! re-submit the same study and a variant sweep re-runs the *same*
//! deterministic workload traces under different policy settings — so the
//! identical Domhan-style ensemble fit for a given curve prefix would be
//! recomputed once per run. This module adds the second, structural layer:
//! a [`CurveFingerprint`] that names a fit by *what is being computed*
//! rather than where, and an in-memory [`SharedFitCache`] mapping
//! fingerprints to posteriors. A cache is a value its owner builds and
//! hands to every service that should share it
//! ([`FitService::new`](crate::FitService::new));
//! nothing finds one ambiently and nothing of it outlives the process.
//!
//! # Why a hit is bitwise-identical by construction
//!
//! A fit is a pure function of exactly four things: the observed
//! `(epoch, value)` prefix (fit ignores wall-clock point times), the full
//! predictor fidelity, the derived per-fit RNG seed, and the extrapolation
//! horizon (the evaluation grid includes the horizon point).
//! [`fit_fingerprint`] hashes precisely that closure, so two requests with
//! equal fingerprints would execute byte-for-byte the same computation;
//! returning the memoized posterior is indistinguishable from re-running
//! it. The key additionally folds in the active [`vmath`] backend
//! discriminant: the backends are bit-identical by construction
//! (proptest-pinned), but the key stays conservative so a hit can never
//! even in principle cross kernel implementations. Entries live and die with one build of one
//! process, so no version salt is needed: a change to fit numerics cannot
//! meet a posterior computed before it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hyperdrive_types::{LearningCurve, MetricKind};

use crate::predictor::{CurvePosterior, ExceedanceQuery, PredictorConfig};
use crate::vmath;

/// Domain salts keeping the two hashes this module computes apart.
const FIT_SALT: u64 = 0x8536_42F5_4679_1D4B;
const POSTERIOR_SALT: u64 = 0xA076_1D64_78BD_642F;

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// A stable 128-bit structural hash naming one fit computation.
///
/// Equal fingerprints ⇒ bitwise-equal fit results (see the module docs for
/// the exact closure hashed). The width makes accidental collision
/// negligible (~2⁻⁶⁴ at a billion distinct fits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CurveFingerprint([u64; 2]);

impl std::fmt::Debug for CurveFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CurveFingerprint({:016x}{:016x})", self.0[0], self.0[1])
    }
}

/// splitmix64 finalizer: the same mixing core as [`crate::derive_fit_seed`].
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-lane incremental hasher over a stream of `u64` words. Each lane
/// mixes every word through distinct multiplier constants and the second
/// lane rotates between words, so the lanes observe the stream through
/// structurally different functions (no lane is a permutation of the
/// other).
struct Fp128 {
    a: u64,
    b: u64,
}

impl Fp128 {
    fn new(salt: u64) -> Self {
        Fp128 { a: mix64(salt ^ 0x243F_6A88_85A3_08D3), b: mix64(salt ^ 0x1319_8A2E_0370_7344) }
    }

    fn write_u64(&mut self, x: u64) {
        self.a = mix64(self.a ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.b = mix64(self.b.rotate_left(29) ^ x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    }

    fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    fn finish(self) -> CurveFingerprint {
        CurveFingerprint([
            mix64(self.a ^ self.b.rotate_left(32)),
            mix64(self.b.wrapping_add(self.a)),
        ])
    }
}

/// Discriminant for the metric kind.
fn metric_kind_code(kind: MetricKind) -> u64 {
    match kind {
        MetricKind::Accuracy => 0,
        MetricKind::Reward => 1,
        MetricKind::LowerIsBetter => 2,
    }
}

/// Content hash of a posterior: every field, the draws' bit patterns
/// included. `FitService::posterior_digest` folds it over a run's memoized
/// posteriors. Equal posteriors give equal hashes; a 64-bit hash can
/// collide.
///
/// The draws fold in four independent multiply-rotate lanes (word `i` into
/// lane `i % 4`), so the lanes' dependency chains overlap where one serial
/// mix per word would wait on the last; the lanes then go through the
/// fingerprint's `Fp128` finalizer beside the scalar fields and the
/// matrix's shape.
#[must_use]
pub fn posterior_hash(p: &CurvePosterior) -> u64 {
    let mut h = Fp128::new(POSTERIOR_SALT);
    h.write_u64(u64::from(p.last_epoch()));
    h.write_u64(u64::from(p.horizon()));
    h.write_f64(p.acceptance_rate());
    let draws = p.draw_matrix();
    h.write_u64(p.n_draws() as u64);
    h.write_u64(draws.len() as u64);
    let mut lanes = LANE_SEEDS;
    let mut words = draws.chunks_exact(LANE_SEEDS.len());
    for chunk in &mut words {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = lane_round(*lane, v.to_bits());
        }
    }
    for (lane, v) in lanes.iter_mut().zip(words.remainder()) {
        *lane = lane_round(*lane, v.to_bits());
    }
    for lane in lanes {
        h.write_u64(lane);
    }
    h.finish().0[0]
}

/// Starting values of [`posterior_hash`]'s four lanes (hex digits of π).
const LANE_SEEDS: [u64; 4] =
    [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];

/// One lane step: the xxHash64 round (multiply, rotate, multiply by two
/// odd primes), which spreads every input bit across the lane.
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .rotate_left(31)
        .wrapping_mul(0x9E37_79B1_85EB_CA87)
}

/// Computes the structural fingerprint of one fit.
///
/// Inputs are exactly the closure of
/// [`CurvePredictor::fit_with`](crate::CurvePredictor::fit_with): the
/// `(epoch, value)` prefix (point *times* are deliberately excluded — the
/// likelihood never reads them), the full `config` fidelity **except**
/// `config.seed` (superseded by `fit_seed`, the derived per-fit seed
/// actually installed before fitting), the extrapolation `horizon` (the
/// evaluation grid includes the horizon point), and the active vmath
/// backend every fit routes through. `config` is destructured field by
/// field, so a field added to [`PredictorConfig`] does not compile here
/// until it is hashed or skipped on purpose.
///
/// The fifth parameter is ignored: every fit runs cold, and in-tree
/// callers pass `None`. It stays only because the repository benchmark
/// calls this function with five arguments (ROADMAP 1(a) removes it).
#[must_use]
pub fn fit_fingerprint(
    curve: &LearningCurve,
    config: &PredictorConfig,
    fit_seed: u64,
    horizon: u32,
    _warm: Option<&CurvePosterior>,
) -> CurveFingerprint {
    let PredictorConfig {
        walkers,
        steps,
        burn_in_frac,
        thin,
        max_draws,
        max_obs,
        seed: _,
        min_observations,
    } = *config;
    let mut h = Fp128::new(FIT_SALT);
    h.write_u64(metric_kind_code(curve.kind()));
    h.write_u64(curve.len() as u64);
    for p in curve.points() {
        h.write_u64(u64::from(p.epoch));
        h.write_f64(p.value);
    }
    h.write_u64(walkers as u64);
    h.write_u64(steps as u64);
    h.write_f64(burn_in_frac);
    h.write_u64(thin as u64);
    h.write_u64(max_draws as u64);
    h.write_u64(max_obs as u64);
    h.write_u64(min_observations as u64);
    h.write_u64(match vmath::active_backend() {
        vmath::Backend::Scalar => 1,
        vmath::Backend::Simd => 2,
    });
    h.write_u64(fit_seed);
    h.write_u64(u64::from(horizon));
    h.finish()
}
// ---------------------------------------------------------------------------
// Shared cache
// ---------------------------------------------------------------------------

/// A cheap, uniform view of content-addressed cache activity — the three
/// numbers a server or bench bin needs to report a dedup rate without
/// poking cache internals. Produced per **cache** by
/// [`SharedFitCache::snapshot`] and per **study** by
/// `FitService::shared_snapshot` (the same shape, scoped to one service's
/// traffic), so the two compose: summing every study's snapshot recovers
/// the cache's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Shared-layer lookups issued.
    pub lookups: u64,
    /// Lookups answered from the shared layer (each one a fit that never
    /// ran).
    pub shared_hits: u64,
    /// Posteriors published to the shared layer.
    pub inserts: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of lookups answered from the shared layer (0 when idle):
    /// the dedup rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.shared_hits as f64 / self.lookups as f64
        }
    }
}

/// Answered queries kept per cached posterior: a study asks one query of a
/// fit (its remaining-time grid) and a duplicate study the same one, so a
/// handful covers re-submissions while bounding what a long-lived process
/// keeps beside each posterior.
const MEMO_PER_ENTRY: usize = 4;

/// One cached posterior with its answered queries, each beside the query
/// that asked. An answer is a pure function of (posterior, query), so it is
/// recomputed — bitwise the same — whenever it is not here.
type Entry = (CurvePosterior, Vec<(ExceedanceQuery, Vec<f64>)>);

/// An in-memory content-addressed posterior cache, shared by `Arc` among
/// every fit service its owner hands it to: the studies of one server, or
/// the variants of one sweep.
pub struct SharedFitCache {
    map: Mutex<HashMap<CurveFingerprint, Entry>>,
    stats: Mutex<CacheStatsSnapshot>,
}

impl std::fmt::Debug for SharedFitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFitCache")
            .field("entries", &self.len())
            .field("stats", &self.snapshot())
            .finish()
    }
}

impl SharedFitCache {
    /// An empty cache.
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Arc::new(SharedFitCache {
            map: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStatsSnapshot::default()),
        })
    }

    /// Looks up a fingerprint, counting a hit or miss.
    #[must_use]
    pub fn get(&self, fp: &CurveFingerprint) -> Option<CurvePosterior> {
        self.get_answered(fp, None).map(|(posterior, _)| posterior)
    }

    /// [`Self::get`], with the memoized answer to `query` if the study that
    /// fitted the posterior recorded one ([`Self::insert_answered`]): the
    /// bits that computation produced, which are the bits recomputing would.
    #[must_use]
    pub fn get_answered(
        &self,
        fp: &CurveFingerprint,
        query: Option<&ExceedanceQuery>,
    ) -> Option<(CurvePosterior, Option<Vec<f64>>)> {
        let found = self.map.lock().get(fp).map(|(posterior, answers)| {
            let answer = answers.iter().find(|(asked, _)| Some(asked) == query);
            (posterior.clone(), answer.map(|(_, a)| a.clone()))
        });
        let mut stats = self.stats.lock();
        stats.lookups += 1;
        stats.shared_hits += u64::from(found.is_some());
        found
    }

    /// Looks up a fingerprint **without** counting a hit or miss.
    ///
    /// Speculative prefetch probes use this to dedup against posteriors
    /// the cache already holds: a probe is bookkeeping, not a request, so
    /// it must not perturb the counted hit/miss stream — per-study
    /// snapshot sums over counted [`SharedFitCache::get`] calls are
    /// pinned by tests and must stay invariant under prefetch.
    #[must_use]
    pub fn peek(&self, fp: &CurveFingerprint) -> Option<CurvePosterior> {
        self.map.lock().get(fp).map(|(posterior, _)| posterior.clone())
    }

    /// Inserts a freshly computed posterior (first writer wins; equal
    /// fingerprints carry bitwise-equal posteriors, so a racing duplicate
    /// insert is idempotent and simply skipped).
    pub fn insert(&self, fp: CurveFingerprint, posterior: &CurvePosterior) {
        self.insert_answered(fp, posterior, None);
    }

    /// [`Self::insert`], keeping `answered` — a query and the answer the
    /// inserting study computed from `posterior` — beside it: first answer
    /// per query wins, at most `MEMO_PER_ENTRY` per posterior.
    pub fn insert_answered(
        &self,
        fp: CurveFingerprint,
        posterior: &CurvePosterior,
        answered: Option<(&ExceedanceQuery, &[f64])>,
    ) {
        let mut map = self.map.lock();
        let fresh = !map.contains_key(&fp);
        let (_, answers) = map.entry(fp).or_insert_with(|| (posterior.clone(), Vec::new()));
        if let Some((query, answer)) = answered {
            if answers.len() < MEMO_PER_ENTRY && answers.iter().all(|(q, _)| q != query) {
                answers.push((*query, answer.to_vec()));
            }
        }
        drop(map);
        if fresh {
            self.stats.lock().inserts += 1;
        }
    }

    /// This cache's cumulative activity (lookups, hits, inserts —
    /// everything a dedup-rate report needs).
    #[must_use]
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        *self.stats.lock()
    }

    /// Number of cached posteriors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when no posteriors are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::dimension;
    use hyperdrive_types::SimTime;

    fn curve(n: u32) -> LearningCurve {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            c.push(e, SimTime::from_secs(60.0 * x), 0.7 - 0.6 * x.powf(-0.8));
        }
        c
    }

    fn posterior(tag: u64) -> CurvePosterior {
        let draws = (0..4 * dimension()).map(|i| tag as f64 + i as f64 * 0.5).collect();
        CurvePosterior::from_parts(draws, 10, 100, 0.31).expect("whole rows")
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let cfg = PredictorConfig::test();
        let base = fit_fingerprint(&curve(10), &cfg, 42, 100, None);
        assert_eq!(base, fit_fingerprint(&curve(10), &cfg, 42, 100, None));
        assert_ne!(base, fit_fingerprint(&curve(11), &cfg, 42, 100, None), "longer prefix");
        assert_ne!(base, fit_fingerprint(&curve(10), &cfg, 43, 100, None), "different seed");
        assert_ne!(base, fit_fingerprint(&curve(10), &cfg, 42, 101, None), "different horizon");
    }

    #[test]
    fn fingerprint_ignores_point_times_and_config_seed() {
        let cfg = PredictorConfig::test();
        let mut shifted = LearningCurve::new(MetricKind::Accuracy);
        for p in curve(10).points() {
            shifted.push(p.epoch, SimTime::from_secs(p.time.as_secs() + 1234.5), p.value);
        }
        assert_eq!(
            fit_fingerprint(&curve(10), &cfg, 42, 100, None),
            fit_fingerprint(&shifted, &cfg, 42, 100, None),
            "the likelihood never reads wall-clock point times"
        );
        assert_eq!(
            fit_fingerprint(&curve(10), &cfg, 42, 100, None),
            fit_fingerprint(&curve(10), &cfg.with_seed(999), 42, 100, None),
            "config.seed is superseded by the derived fit seed"
        );
    }

    #[test]
    fn metric_kind_is_part_of_the_key() {
        let cfg = PredictorConfig::test();
        let mut reward = LearningCurve::new(MetricKind::Reward);
        for p in curve(10).points() {
            reward.push(p.epoch, p.time, p.value);
        }
        assert_ne!(
            fit_fingerprint(&curve(10), &cfg, 42, 100, None),
            fit_fingerprint(&reward, &cfg, 42, 100, None)
        );
    }

    /// Equal posteriors hash equal, a shared clone included; flipping one
    /// bit of a draw word in any lane, first row or last, or changing a
    /// scalar field or the row count moves the hash.
    #[test]
    fn posterior_hash_sees_every_draw_word_and_field() {
        let base = posterior(3);
        assert_eq!(posterior_hash(&base), posterior_hash(&base.clone()));
        assert_eq!(posterior_hash(&base), posterior_hash(&posterior(3)));
        let matrix = base.draw_matrix().to_vec();
        let rebuilt = |draws: Vec<f64>, rate: f64| {
            CurvePosterior::from_parts(draws, base.last_epoch(), base.horizon(), rate).unwrap()
        };
        let mut seen = vec![posterior_hash(&base)];
        for i in [0, 1, 2, 3, 4, matrix.len() - 2, matrix.len() - 1] {
            let mut draws = matrix.clone();
            draws[i] = f64::from_bits(draws[i].to_bits() ^ 1);
            seen.push(posterior_hash(&rebuilt(draws, base.acceptance_rate())));
        }
        seen.push(posterior_hash(&rebuilt(matrix.clone(), 0.32)));
        seen.push(posterior_hash(&rebuilt(matrix[..matrix.len() - dimension()].to_vec(), 0.31)));
        let distinct: std::collections::HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "{seen:x?}");
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = SharedFitCache::in_memory();
        let fp = fit_fingerprint(&curve(10), &PredictorConfig::test(), 1, 100, None);
        assert!(cache.get(&fp).is_none());
        cache.insert(fp, &posterior(3));
        let hit = cache.get(&fp).expect("cached");
        assert_eq!(hit.draws(), posterior(3).draws());
        let stats = cache.snapshot();
        assert_eq!((stats.lookups, stats.shared_hits, stats.inserts), (2, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_returns_entries_without_touching_counted_stats() {
        let cache = SharedFitCache::in_memory();
        let fp = fit_fingerprint(&curve(10), &PredictorConfig::test(), 1, 100, None);
        assert!(cache.peek(&fp).is_none());
        cache.insert(fp, &posterior(3));
        let hit = cache.peek(&fp).expect("cached");
        assert_eq!(hit.draws(), posterior(3).draws());
        let stats = cache.snapshot();
        assert_eq!((stats.lookups, stats.shared_hits), (0, 0), "peek must not count as a lookup");
    }
}
