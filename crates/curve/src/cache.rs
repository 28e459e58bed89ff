//! Content-addressed cross-run fit cache.
//!
//! The per-run [`FitService`](crate::FitService) cache is keyed by
//! `(JobId, epochs observed)` and dies with its run, yet the figure suite
//! deliberately re-runs the *same* deterministic workload traces under
//! different policies, cluster capacities, and arrival orders — so the
//! identical Domhan-style ensemble fit for a given curve prefix is
//! recomputed hundreds of times across bins. This module adds the second,
//! structural layer: a [`CurveFingerprint`] that names a fit by *what is
//! being computed* rather than where, and a process-wide (optionally
//! disk-backed) [`SharedFitCache`] mapping fingerprints to posteriors.
//!
//! # Why a hit is bitwise-identical by construction
//!
//! A fit is a pure function of exactly five things: the observed
//! `(epoch, value)` prefix (fit ignores wall-clock point times), the full
//! predictor fidelity, the derived per-fit RNG seed, the extrapolation
//! horizon (the evaluation grid includes the horizon point), and — for
//! warm starts — the warm-source posterior. [`fit_fingerprint`] hashes
//! precisely that closure, so two requests with equal fingerprints would
//! execute byte-for-byte the same computation; returning the memoized
//! posterior is indistinguishable from re-running it. `fast_math` fits
//! additionally fold in the active [`vmath`] backend discriminant: the
//! backends are bit-identical by construction (proptest-pinned), but the
//! key stays conservative so a hit can never even in principle cross
//! kernel implementations.
//!
//! # Invalidation
//!
//! [`FINGERPRINT_VERSION`] salts every fingerprint and is embedded in the
//! disk-shard header. Any change to fit numerics (`PredictorConfig`
//! semantics, vmath kernels, MCMC/Nelder–Mead code) or to the on-disk
//! layout must bump it; old entries then simply never match (memory) or
//! whole shards are skipped with a warning (disk). See DESIGN.md §10.
//!
//! # Disk store
//!
//! `HYPERDRIVE_FIT_CACHE=disk` persists entries under
//! `results/fitcache/` (override the directory with
//! `HYPERDRIVE_FIT_CACHE_DIR`, or relocate `results` itself with
//! `HYPERDRIVE_RESULTS`). Each process appends to its own
//! `shard-<pid>.bin` — concurrent figure bins never share a file handle —
//! with a versioned header and per-record checksums. Corrupt, truncated,
//! or wrong-version data is detected and skipped with a warning: the
//! cache can serve a *missing* posterior (forcing a recompute) but never a
//! wrong one.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use hyperdrive_types::{LearningCurve, MetricKind};

use crate::ensemble::dimension;
use crate::predictor::{CurvePosterior, ExceedanceQuery, PredictorConfig};
use crate::vmath;

/// Version salt folded into every fingerprint and embedded in disk-shard
/// headers. Bump on **any** change to fit numerics or cache layout.
/// Version 2: the sampler proposes and scores a half-ensemble at a time
/// (the RNG schedule in [`crate::mcmc`]), so every posterior differs from
/// a version-1 store's.
pub const FINGERPRINT_VERSION: u64 = 2;

/// Magic bytes opening every disk shard.
const SHARD_MAGIC: [u8; 4] = *b"HDFC";
/// On-disk layout version (independent of [`FINGERPRINT_VERSION`] so a
/// pure layout change can also invalidate).
const SHARD_FORMAT: u32 = 1;
/// Upper bound on a single record payload; anything larger is corruption.
const MAX_PAYLOAD: u32 = 64 << 20;
/// Upper bound on a decoded posterior's draw count (sanity, not policy).
const MAX_DRAWS: u32 = 1 << 20;

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

impl CurveFingerprint {
    /// The two 64-bit lanes (serialization order).
    #[must_use]
    pub fn lanes(&self) -> [u64; 2] {
        self.0
    }

    /// Rebuilds a fingerprint from its lanes (deserialization).
    #[must_use]
    pub fn from_lanes(lanes: [u64; 2]) -> Self {
        CurveFingerprint(lanes)
    }
}

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

/// Stable discriminant for the metric kind (enum order is not load-bearing
/// for the on-disk format, these codes are).
fn metric_kind_code(kind: MetricKind) -> u64 {
    match kind {
        MetricKind::Accuracy => 0,
        MetricKind::Reward => 1,
        MetricKind::LowerIsBetter => 2,
    }
}

/// Content hash of a posterior, used to fold a warm-start *source* into
/// the fingerprint of the fit it seeds. Covers every field a warm start
/// reads (draws bit patterns included), so two warm fits share a
/// fingerprint only when their seeds are byte-identical.
#[must_use]
pub fn posterior_hash(p: &CurvePosterior) -> u64 {
    let mut h = Fp128::new(FINGERPRINT_VERSION ^ 0xA076_1D64_78BD_642F);
    h.write_u64(u64::from(p.last_epoch()));
    h.write_u64(u64::from(p.horizon()));
    h.write_f64(p.acceptance_rate());
    h.write_u64(u64::from(p.warm_started()));
    h.write_u64(p.draws().len() as u64);
    for draw in p.draws() {
        h.write_u64(draw.len() as u64);
        for &v in draw {
            h.write_f64(v);
        }
    }
    h.finish().0[0]
}

/// Computes the structural fingerprint of one fit.
///
/// Inputs are exactly the closure of [`CurvePredictor::fit_with`]
/// (`crate::CurvePredictor`): the `(epoch, value)` prefix (point *times*
/// are deliberately excluded — the likelihood never reads them), the full
/// `config` fidelity **except** `config.seed` (superseded by `fit_seed`,
/// the derived per-fit seed actually installed before fitting), the
/// extrapolation `horizon` (the evaluation grid includes the horizon
/// point), the active vmath backend when `fast_math` routes through it,
/// and the content hash of the warm-start source, if any.
#[must_use]
pub fn fit_fingerprint(
    curve: &LearningCurve,
    config: &PredictorConfig,
    fit_seed: u64,
    horizon: u32,
    warm: Option<&CurvePosterior>,
) -> CurveFingerprint {
    let mut h = Fp128::new(FINGERPRINT_VERSION);
    h.write_u64(metric_kind_code(curve.kind()));
    h.write_u64(curve.len() as u64);
    for p in curve.points() {
        h.write_u64(u64::from(p.epoch));
        h.write_f64(p.value);
    }
    h.write_u64(config.walkers as u64);
    h.write_u64(config.steps as u64);
    h.write_f64(config.burn_in_frac);
    h.write_u64(config.thin as u64);
    h.write_u64(config.max_draws as u64);
    h.write_u64(config.max_obs as u64);
    h.write_u64(config.min_observations as u64);
    h.write_u64(u64::from(config.warm_start));
    h.write_u64(config.warm_steps as u64);
    h.write_u64(u64::from(config.fast_math));
    if config.fast_math {
        h.write_u64(match vmath::active_backend() {
            vmath::Backend::Scalar => 1,
            vmath::Backend::Simd => 2,
        });
    }
    h.write_u64(fit_seed);
    h.write_u64(u64::from(horizon));
    match warm {
        None => h.write_u64(0),
        Some(w) => {
            h.write_u64(1);
            h.write_u64(posterior_hash(w));
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Posterior codec (disk payloads)
// ---------------------------------------------------------------------------

fn encode_posterior(p: &CurvePosterior, out: &mut Vec<u8>) {
    out.extend_from_slice(&p.last_epoch().to_le_bytes());
    out.extend_from_slice(&p.horizon().to_le_bytes());
    out.extend_from_slice(&p.acceptance_rate().to_bits().to_le_bytes());
    out.push(u8::from(p.warm_started()));
    out.extend_from_slice(&(p.draws().len() as u32).to_le_bytes());
    for draw in p.draws() {
        out.extend_from_slice(&(draw.len() as u32).to_le_bytes());
        for &v in draw {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

fn decode_posterior(payload: &[u8]) -> Option<CurvePosterior> {
    let mut c = Cursor { bytes: payload, pos: 0 };
    let last_epoch = c.u32()?;
    let horizon = c.u32()?;
    let acceptance_rate = f64::from_bits(c.u64()?);
    let warm = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let n_draws = c.u32()?;
    if n_draws > MAX_DRAWS {
        return None;
    }
    // Each draw is framed as its own length then its values, and every
    // query indexes a draw by family offset: anything but `dimension()`
    // values per draw — ragged, short, long — is refused here rather than
    // panicking a policy thread at its first query. The exact-size check
    // comes first so a lying count cannot size the allocation.
    let dim = dimension();
    if payload.len() - c.pos != n_draws as usize * (4 + 8 * dim) {
        return None;
    }
    let mut draws = Vec::with_capacity(n_draws as usize * dim);
    for _ in 0..n_draws {
        if c.u32()? as usize != dim {
            return None;
        }
        for _ in 0..dim {
            draws.push(f64::from_bits(c.u64()?));
        }
    }
    CurvePosterior::from_parts(draws, last_epoch, horizon, acceptance_rate, warm)
}

/// Checksum covering a record's fingerprint and payload: the first lane of
/// the two-lane hash over the lanes, the length, and the payload bytes in
/// LE `u64` chunks (final chunk zero-padded).
fn record_checksum(fp: CurveFingerprint, payload: &[u8]) -> u64 {
    let mut h = Fp128::new(FINGERPRINT_VERSION ^ 0x8536_42F5_4679_1D4B);
    h.write_u64(fp.0[0]);
    h.write_u64(fp.0[1]);
    h.write_u64(payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
    h.finish().0[0]
}

// ---------------------------------------------------------------------------
// Shared cache
// ---------------------------------------------------------------------------

/// Cumulative counters for one [`SharedFitCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the caller then fits cold).
    pub misses: u64,
    /// Posteriors inserted by this process (each also appended to the
    /// disk shard when one is attached).
    pub inserts: u64,
    /// Entries loaded from disk shards at construction.
    pub disk_loaded: u64,
    /// Corrupt / truncated / wrong-version disk items skipped (with a
    /// warning) at construction.
    pub disk_skipped: u64,
}

impl SharedCacheStats {
    /// Total lookups served.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cheap, uniform view of content-addressed cache activity — the three
/// numbers a server or bench bin needs to report a dedup rate without
/// poking cache internals. Produced per **process** by
/// [`SharedFitCache::snapshot`] and per **study** by
/// `FitService::shared_snapshot` (the same shape, scoped to one service's
/// traffic), so the two compose: summing every study's snapshot recovers
/// the process totals.
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

struct ShardWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl ShardWriter {
    fn append(&mut self, fp: CurveFingerprint, payload: &[u8]) -> std::io::Result<()> {
        let mut rec = Vec::with_capacity(28 + payload.len() + 8);
        rec.extend_from_slice(&fp.0[0].to_le_bytes());
        rec.extend_from_slice(&fp.0[1].to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        rec.extend_from_slice(&record_checksum(fp, payload).to_le_bytes());
        // One write + flush per record: a crash mid-record truncates at
        // most the tail, which the loader detects and skips.
        self.file.write_all(&rec)?;
        self.file.flush()
    }
}

/// Answered queries kept per cached posterior: a study asks one query of a
/// fit (its remaining-time grid) and a duplicate study the same one, so a
/// handful covers re-submissions while bounding what a long-lived process
/// keeps beside each posterior.
const MEMO_PER_ENTRY: usize = 4;

/// One cached posterior with its answered queries, each beside the query
/// that asked. The answers are memory-only: a pure function of (posterior,
/// query), an answer is recomputed — bitwise the same — whenever it is not
/// here.
type Entry = (CurvePosterior, Vec<(ExceedanceQuery, Vec<f64>)>);

/// A process-wide content-addressed posterior cache, optionally persisted
/// to an append-only disk shard per process. Shared across every replicate
/// the bench harness runs (`Arc`-cloned into each `par_map` worker) and —
/// via the disk store — across sequential figure bins and repeated
/// `run_all_figures.sh` invocations.
pub struct SharedFitCache {
    map: Mutex<HashMap<CurveFingerprint, Entry>>,
    stats: Mutex<SharedCacheStats>,
    writer: Option<Mutex<ShardWriter>>,
}

impl std::fmt::Debug for SharedFitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFitCache")
            .field("entries", &self.len())
            .field("disk", &self.writer.as_ref().map(|w| w.lock().path.clone()))
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedFitCache {
    /// A purely in-memory cache.
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Arc::new(SharedFitCache {
            map: Mutex::new(HashMap::new()),
            stats: Mutex::new(SharedCacheStats::default()),
            writer: None,
        })
    }

    /// A disk-backed cache rooted at `dir`: loads every readable entry
    /// from existing shards (corruption skipped with a warning), then
    /// appends this process's inserts to its own `shard-<pid>.bin`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or the
    /// shard file cannot be opened; *reading* existing shards never
    /// errors (bad data degrades to a smaller cache).
    pub fn with_disk(dir: &Path) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(dir)?;
        let mut map = HashMap::new();
        let mut stats = SharedCacheStats::default();
        let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".bin"))
            })
            .collect();
        shards.sort(); // deterministic first-wins dedupe across shards
        for shard in &shards {
            load_shard(shard, &mut map, &mut stats);
        }
        let path = dir.join(format!("shard-{}.bin", std::process::id()));
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() == 0 {
            let mut header = Vec::with_capacity(16);
            header.extend_from_slice(&SHARD_MAGIC);
            header.extend_from_slice(&SHARD_FORMAT.to_le_bytes());
            header.extend_from_slice(&FINGERPRINT_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.flush()?;
        }
        Ok(Arc::new(SharedFitCache {
            map: Mutex::new(map),
            stats: Mutex::new(stats),
            writer: Some(Mutex::new(ShardWriter { file, path })),
        }))
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
        if found.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
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
    /// insert is idempotent and simply skipped). Appends to the disk
    /// shard when one is attached; a failed append degrades to
    /// memory-only with a warning.
    pub fn insert(&self, fp: CurveFingerprint, posterior: &CurvePosterior) {
        self.insert_answered(fp, posterior, None);
    }

    /// [`Self::insert`], keeping `answered` — a query and the answer the
    /// inserting study computed from `posterior` — beside it: first answer
    /// per query wins, at most `MEMO_PER_ENTRY` per posterior, and nothing
    /// of it reaches the disk shard.
    pub fn insert_answered(
        &self,
        fp: CurveFingerprint,
        posterior: &CurvePosterior,
        answered: Option<(&ExceedanceQuery, &[f64])>,
    ) {
        {
            let mut map = self.map.lock();
            let fresh = !map.contains_key(&fp);
            let (_, answers) = map.entry(fp).or_insert_with(|| (posterior.clone(), Vec::new()));
            if let Some((query, answer)) = answered {
                if answers.len() < MEMO_PER_ENTRY && answers.iter().all(|(q, _)| q != query) {
                    answers.push((*query, answer.to_vec()));
                }
            }
            if !fresh {
                return;
            }
        }
        self.stats.lock().inserts += 1;
        if let Some(writer) = &self.writer {
            let mut payload = Vec::new();
            encode_posterior(posterior, &mut payload);
            let mut w = writer.lock();
            if let Err(e) = w.append(fp, &payload) {
                eprintln!("fitcache: append to {:?} failed ({e}); entry stays memory-only", w.path);
            }
        }
    }

    /// True when inserts are persisted to a disk shard.
    #[must_use]
    pub fn is_disk_backed(&self) -> bool {
        self.writer.is_some()
    }

    /// The process-wide cache activity as a [`CacheStatsSnapshot`]
    /// (lookups, hits, inserts — everything a dedup-rate report needs).
    #[must_use]
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let s = self.stats();
        CacheStatsSnapshot { lookups: s.lookups(), shared_hits: s.hits, inserts: s.inserts }
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

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> SharedCacheStats {
        *self.stats.lock()
    }
}

/// Loads one shard into `map`, skipping unreadable data with a warning.
/// First writer wins on duplicate fingerprints (entries are bitwise
/// interchangeable anyway). Never panics and never yields a posterior
/// whose bytes were not exactly what some process wrote: every record is
/// checksummed over fingerprint *and* payload.
fn load_shard(
    path: &Path,
    map: &mut HashMap<CurveFingerprint, Entry>,
    stats: &mut SharedCacheStats,
) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("fitcache: cannot read shard {path:?} ({e}); skipping");
            stats.disk_skipped += 1;
            return;
        }
    };
    let mut c = Cursor { bytes: &bytes, pos: 0 };
    let ok_header = c.take(4).map(|m| m == SHARD_MAGIC).unwrap_or(false)
        && c.u32() == Some(SHARD_FORMAT)
        && c.u64() == Some(FINGERPRINT_VERSION);
    if !ok_header {
        eprintln!("fitcache: shard {path:?} has a missing or wrong-version header; skipping file");
        stats.disk_skipped += 1;
        return;
    }
    while c.pos < bytes.len() {
        let record = (|| {
            let fp = CurveFingerprint([c.u64()?, c.u64()?]);
            let len = c.u32()?;
            if len > MAX_PAYLOAD {
                return None;
            }
            let payload = c.take(len as usize)?;
            let checksum = c.u64()?;
            (checksum == record_checksum(fp, payload)).then_some((fp, payload))
        })();
        match record.map(|(fp, payload)| (fp, decode_posterior(payload))) {
            Some((fp, Some(posterior))) => {
                stats.disk_loaded += 1;
                map.entry(fp).or_insert((posterior, Vec::new()));
            }
            Some((_, None)) => {
                // The framing held (the checksum matched) but the payload
                // is not a posterior this build can query: skip the one
                // record, which leaves its fingerprint a miss.
                eprintln!(
                    "fitcache: shard {path:?} holds a malformed posterior before byte {}; \
                     skipping the record",
                    c.pos
                );
                stats.disk_skipped += 1;
            }
            None => {
                // Framing is unreliable past the first bad record
                // (truncation, bit flip, partial write): stop here.
                eprintln!(
                    "fitcache: shard {path:?} is corrupt or truncated at byte {}; \
                     skipping the rest of the file",
                    c.pos
                );
                stats.disk_skipped += 1;
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mode selection & the process-global cache
// ---------------------------------------------------------------------------

/// Which shared-cache layer a process runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No shared layer: every run fits its own curves (the per-run
    /// `FitService` cache still applies).
    Off,
    /// Process-wide in-memory cache shared across runs and replicates.
    Mem,
    /// [`CacheMode::Mem`] plus the append-only disk store, shared across
    /// processes and invocations.
    Disk,
}

impl CacheMode {
    /// Short lowercase name (matches the `HYPERDRIVE_FIT_CACHE` values).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Mem => "mem",
            CacheMode::Disk => "disk",
        }
    }
}

/// Parses `HYPERDRIVE_FIT_CACHE`. Unset ⇒ `None` (caller picks its
/// default: `Off` for libraries/tests, `Mem` for the bench harness).
/// Unrecognized values warn and fall back to `Off` — never panic in a
/// figure bin over a typo.
#[must_use]
pub fn cache_mode_from_env() -> Option<CacheMode> {
    let raw = std::env::var("HYPERDRIVE_FIT_CACHE").ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" | "" => Some(CacheMode::Off),
        "mem" | "memory" => Some(CacheMode::Mem),
        "disk" => Some(CacheMode::Disk),
        other => {
            eprintln!("fitcache: unrecognized HYPERDRIVE_FIT_CACHE={other:?}; treating as off");
            Some(CacheMode::Off)
        }
    }
}

/// The disk-store directory: `HYPERDRIVE_FIT_CACHE_DIR`, else
/// `fitcache/` under the results root (`HYPERDRIVE_RESULTS` or
/// `./results`).
#[must_use]
pub fn default_disk_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HYPERDRIVE_FIT_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    let results = std::env::var("HYPERDRIVE_RESULTS").unwrap_or_else(|_| "results".into());
    Path::new(&results).join("fitcache")
}

/// Builds the cache for a mode. A disk store that cannot be opened warns
/// and degrades to in-memory rather than failing the run.
#[must_use]
pub fn cache_for_mode(mode: CacheMode) -> Option<Arc<SharedFitCache>> {
    match mode {
        CacheMode::Off => None,
        CacheMode::Mem => Some(SharedFitCache::in_memory()),
        CacheMode::Disk => match SharedFitCache::with_disk(&default_disk_dir()) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!(
                    "fitcache: disk store at {:?} unavailable ({e}); using in-memory cache",
                    default_disk_dir()
                );
                Some(SharedFitCache::in_memory())
            }
        },
    }
}

static GLOBAL: OnceLock<Option<Arc<SharedFitCache>>> = OnceLock::new();

/// Installs the process-global shared cache consulted by
/// `FitService::new`. Returns `false` if the global was already resolved
/// (first resolution wins — by an earlier install or by the first
/// service construction reading the environment).
pub fn install_global_fit_cache(cache: Option<Arc<SharedFitCache>>) -> bool {
    GLOBAL.set(cache).is_ok()
}

/// The process-global shared cache, resolving it on first use from
/// `HYPERDRIVE_FIT_CACHE` (default **off**: plain library users and unit
/// tests see unchanged behaviour; the bench harness installs a `Mem`
/// default explicitly before any service exists).
#[must_use]
pub fn global_fit_cache() -> Option<Arc<SharedFitCache>> {
    GLOBAL.get_or_init(|| cache_for_mode(cache_mode_from_env().unwrap_or(CacheMode::Off))).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        CurvePosterior::from_parts(draws, 10, 100, 0.31, tag.is_multiple_of(2)).expect("whole rows")
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let cfg = PredictorConfig::test();
        let base = fit_fingerprint(&curve(10), &cfg, 42, 100, None);
        assert_eq!(base, fit_fingerprint(&curve(10), &cfg, 42, 100, None));
        assert_ne!(base, fit_fingerprint(&curve(11), &cfg, 42, 100, None), "longer prefix");
        assert_ne!(base, fit_fingerprint(&curve(10), &cfg, 43, 100, None), "different seed");
        assert_ne!(base, fit_fingerprint(&curve(10), &cfg, 42, 101, None), "different horizon");
        let mut other_cfg = cfg;
        other_cfg.walkers += 1;
        assert_ne!(base, fit_fingerprint(&curve(10), &other_cfg, 42, 100, None), "config");
        let warm = posterior(1);
        let warmed = fit_fingerprint(&curve(10), &cfg, 42, 100, Some(&warm));
        assert_ne!(base, warmed, "warm source must change the key");
        assert_ne!(
            warmed,
            fit_fingerprint(&curve(10), &cfg, 42, 100, Some(&posterior(2))),
            "different warm sources must not collide"
        );
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

    #[test]
    fn posterior_codec_roundtrips_bitwise() {
        for tag in 0..3 {
            let p = posterior(tag);
            let mut payload = Vec::new();
            encode_posterior(&p, &mut payload);
            let d = decode_posterior(&payload).expect("decodes");
            assert_eq!(d.draws(), p.draws());
            assert_eq!(d.last_epoch(), p.last_epoch());
            assert_eq!(d.horizon(), p.horizon());
            assert_eq!(d.acceptance_rate().to_bits(), p.acceptance_rate().to_bits());
            assert_eq!(d.warm_started(), p.warm_started());
        }
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = SharedFitCache::in_memory();
        let fp = fit_fingerprint(&curve(10), &PredictorConfig::test(), 1, 100, None);
        assert!(cache.get(&fp).is_none());
        cache.insert(fp, &posterior(3));
        let hit = cache.get(&fp).expect("cached");
        assert_eq!(hit.draws(), posterior(3).draws());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
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
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "peek must not count as a lookup");
        assert_eq!(cache.snapshot().lookups, 0);
    }

    #[test]
    fn disk_cache_roundtrips_across_instances() {
        let dir = std::env::temp_dir().join(format!("hdfc-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = fit_fingerprint(&curve(10), &PredictorConfig::test(), 7, 100, None);
        {
            let cache = SharedFitCache::with_disk(&dir).expect("open disk cache");
            cache.insert(fp, &posterior(5));
        }
        let reloaded = SharedFitCache::with_disk(&dir).expect("reopen disk cache");
        assert_eq!(reloaded.stats().disk_loaded, 1);
        assert_eq!(reloaded.stats().disk_skipped, 0);
        let hit = reloaded.get(&fp).expect("persisted entry");
        assert_eq!(hit.draws(), posterior(5).draws());
        assert_eq!(hit.acceptance_rate().to_bits(), posterior(5).acceptance_rate().to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_wrong_version_shards_are_skipped_not_trusted() {
        let dir = std::env::temp_dir().join(format!("hdfc-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = fit_fingerprint(&curve(10), &PredictorConfig::test(), 9, 100, None);
        {
            let cache = SharedFitCache::with_disk(&dir).expect("open disk cache");
            cache.insert(fp, &posterior(6));
        }
        let shard = dir.join(format!("shard-{}.bin", std::process::id()));
        let mut bytes = std::fs::read(&shard).expect("shard exists");

        // Bit-flip inside the payload: record checksum must catch it.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&shard, &flipped).expect("rewrite shard");
        let c = SharedFitCache::with_disk(&dir).expect("open over corrupt shard");
        assert_eq!(c.stats().disk_loaded, 0, "corrupt record must not load");
        assert!(c.stats().disk_skipped >= 1);
        drop(c);

        // Truncation mid-record: detected, skipped, no panic.
        std::fs::write(&shard, &bytes[..bytes.len() - 5]).expect("truncate shard");
        let c = SharedFitCache::with_disk(&dir).expect("open over truncated shard");
        assert_eq!(c.stats().disk_loaded, 0);
        assert!(c.stats().disk_skipped >= 1);
        drop(c);

        // A shard written under the previous fingerprint version (an
        // older sampler schedule's posteriors), otherwise intact: the
        // whole file is skipped, and its entry is never served.
        bytes[8..16].copy_from_slice(&(FINGERPRINT_VERSION - 1).to_le_bytes());
        std::fs::write(&shard, &bytes).expect("rewrite shard");
        let c = SharedFitCache::with_disk(&dir).expect("open over previous-version shard");
        assert_eq!(c.stats().disk_loaded, 0);
        assert!(c.stats().disk_skipped >= 1);
        assert!(c.get(&fp).is_none(), "a stale-version posterior must never be served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hostile input: a record whose framing and checksum are valid but
    /// whose payload holds one short draw (total length preserved by a
    /// long one) is skipped — its fingerprint stays a miss — and the
    /// records around it still load.
    #[test]
    fn a_checksummed_record_with_a_short_draw_is_skipped_never_served() {
        let dir = std::env::temp_dir().join(format!("hdfc-ragged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PredictorConfig::test();
        let fps = [7, 8, 9].map(|seed| fit_fingerprint(&curve(10), &cfg, seed, 100, None));
        {
            let cache = SharedFitCache::with_disk(&dir).expect("open disk cache");
            cache.insert(fps[0], &posterior(1));
            // The hostile record, appended the way `insert` appends: draw
            // 0 one value short, draw 1 one value long.
            let mut payload = Vec::new();
            encode_posterior(&posterior(2), &mut payload);
            let dim = dimension();
            let first = 4 + 4 + 8 + 1 + 4; // header fields, then draw 0's length
            let second = first + 4 + 8 * dim;
            payload[first..first + 4].copy_from_slice(&(dim as u32 - 1).to_le_bytes());
            payload[second - 8..second - 4].copy_from_slice(&(dim as u32 + 1).to_le_bytes());
            assert!(decode_posterior(&payload).is_none(), "ragged draws must not decode");
            let writer = cache.writer.as_ref().expect("disk-backed");
            writer.lock().append(fps[1], &payload).expect("append");
            cache.insert(fps[2], &posterior(3));
        }
        let reloaded = SharedFitCache::with_disk(&dir).expect("reopen disk cache");
        assert_eq!(reloaded.stats().disk_loaded, 2, "the records around it load");
        assert_eq!(reloaded.stats().disk_skipped, 1);
        assert!(reloaded.get(&fps[1]).is_none(), "a malformed posterior is never served");
        assert_eq!(reloaded.get(&fps[0]).expect("before").draws(), posterior(1).draws());
        assert_eq!(reloaded.get(&fps[2]).expect("after").draws(), posterior(3).draws());

        // Uniformly wrong-length draws (a differently-dimensioned model)
        // and a draw count the payload cannot hold fail the same way.
        let mut short = Vec::new();
        encode_posterior(&posterior(4), &mut short);
        let mut lying = short.clone();
        lying[17..21].copy_from_slice(&MAX_DRAWS.to_le_bytes());
        assert!(decode_posterior(&lying).is_none());
        let three: Vec<u8> = [10u32.to_le_bytes(), 100u32.to_le_bytes()]
            .concat()
            .into_iter()
            .chain(0.5f64.to_bits().to_le_bytes())
            .chain([0u8])
            .chain(1u32.to_le_bytes())
            .chain(3u32.to_le_bytes())
            .chain([1.0f64, 2.0, 3.0].iter().flat_map(|v| v.to_bits().to_le_bytes()))
            .collect();
        assert!(decode_posterior(&three).is_none());
        assert!(CurvePosterior::from_parts(vec![1.0, 2.0, 3.0], 10, 100, 0.5, false).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_mode_names_roundtrip() {
        assert_eq!(CacheMode::Off.name(), "off");
        assert_eq!(CacheMode::Mem.name(), "mem");
        assert_eq!(CacheMode::Disk.name(), "disk");
        assert!(cache_for_mode(CacheMode::Off).is_none());
        assert!(cache_for_mode(CacheMode::Mem).is_some());
    }
}
