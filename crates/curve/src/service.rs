//! The deterministic parallel curve-fitting service.
//!
//! §5.2 describes two systems tricks around the expensive MCMC fit:
//! *distributed curve prediction* ("we push the learning curve prediction
//! to the Node Agents" with per-job history tracking) and *overlapping
//! training and prediction*. [`FitService`] provides both in-process: a
//! fixed-size pool of worker threads fed over a crossbeam channel fits all
//! pending configurations' ensembles concurrently, and completed posteriors
//! are memoized per `(config, epochs observed)` so an unchanged curve is
//! never re-fit.
//!
//! It is the repo's one boundary-fit path. POP sends a batch per boundary;
//! EarlyTerm sends one request with its single-epoch query and then
//! [`forget`](FitService::forget)s the job, so every fit either policy
//! makes is seeded, shared, streamed and counted ([`FitStats`]) here.
//!
//! # Determinism
//!
//! Every fit's RNG seed is derived from
//! `(experiment seed, config id, last observed epoch)` by
//! [`derive_fit_seed`] — never from worker identity, completion order, or
//! wall-clock time. A batch therefore returns **byte-identical** posteriors
//! whatever the worker count: `FitService::new(cfg, seed, 1)` and
//! `FitService::new(cfg, seed, 8)` are observationally the same service,
//! only faster. [`sequential_fit`] is the single-threaded reference
//! definition each pooled fit must reproduce bit-for-bit; the crate's
//! property tests pin the equivalence.
//!
//! # Cache keying
//!
//! Results are keyed by `(job, last observed epoch)` only — not by the
//! extrapolation horizon. The scheduler derives the horizon from the
//! remaining time budget at the moment a curve prefix *first* needs a fit,
//! and reuses that posterior for as long as the prefix is unchanged, so one
//! `(config, epochs)` pair maps to exactly one fit per experiment. Callers
//! that want a different horizon for the same prefix must
//! [`forget`](FitService::forget) the job first.
//!
//! # The shared content-addressed layer
//!
//! Above the per-run `(job, epochs)` cache sits an optional
//! [`SharedFitCache`] keyed by [`CurveFingerprint`] (see [`crate::cache`]):
//! when a request misses the per-run cache, its structural fingerprint —
//! curve prefix, full fidelity, derived seed, horizon — is looked up
//! there before any worker fits. A shared hit is bitwise the
//! posterior a cold fit would have produced, so it is reported with
//! `cached: false` and folded into the per-run cache *after* the enqueue
//! scan, exactly like a fresh fit: callers (including the `FitCostModel`
//! virtual pricing in `hyperdrive-core`, which prices only `!cached`
//! outcomes) cannot distinguish a shared hit from the fit it replaced,
//! which keeps scheduling traces byte-identical with or without the layer.
//! A service shares exactly the cache its constructor is handed
//! ([`FitService::with_shared_cache`], [`FitService::with_pool`]);
//! [`FitService::new`] shares nothing.
//!
//! # Sharing one worker pool across services
//!
//! The worker threads live in a [`FitPool`], separable from the service:
//! [`FitService::with_pool`] binds a new service (its own per-run cache,
//! experiment seed, fidelity, and stats) to an *existing* pool, so a
//! multi-tenant process can run thousands of concurrent studies over one
//! fixed set of fit threads instead of spawning a pool per study. Every
//! request carries its service's [`PredictorConfig`], so heterogeneous
//! studies share workers safely. Pool sharing cannot perturb results:
//! seeds are derived per request ([`derive_fit_seed`]), `fit_batch`
//! blocks until exactly its own replies arrive, and workers hold no
//! state beyond reusable scratch buffers — so a study's outcomes are
//! byte-identical whether its service owns the pool or shares it.
//!
//! # Answering the caller's query while the fit samples
//!
//! A [`FitRequest`] may carry the [`ExceedanceQuery`] its caller will ask
//! of the posterior (POP's remaining-time grid). At every retained sampler
//! snapshot the worker sends the kept draws that snapshot made final (in
//! runs of at most [`crate::batch::MAX_SLOTS`]) down the batch's reply
//! channel, and `fit_batch` — blocked waiting anyway — absorbs them into an
//! [`Exceedance`]. Only the last snapshot's rows (≈11 of POP's 200) are
//! left to absorb once the sampler ends, and nothing comes with the
//! posterior. Per key, rows arrive in draw order, so
//! [`FitOutcome::exceedance`] is bitwise the finished posterior's own
//! answer; requests resolved any other way ask the finished posterior. A
//! query never changes what is fitted, cached, fingerprinted or counted.
//!
//! # The waiting caller runs half of each fit's init
//!
//! Each demand fit's worker offers the [`crate::fit::OFFERED`] families'
//! Nelder–Mead runs to the `fit_batch` blocked on it — POP's or EarlyTerm's
//! simulation thread, a server shard, the live scheduler — and minimizes
//! the rest. The caller claims the half with one atomic swap and runs it on
//! a thread-local [`FitScratch`]; a half nobody claimed the worker takes
//! back, so it only waits on a half already running. Each run is the same
//! bits on any thread (`tests/lockstep_nm.rs`); a panic in the caller's
//! half is the fit's [`Error::CurveFit`]. [`FitStats::halves_helped`]
//! counts the sharing, which the boundary stall ([`FitPoolStats::stall_secs`])
//! includes.
//!
//! # A full server fits on its shards
//!
//! Handing a fit to a worker pays off only while the worker has a core the
//! caller would not use. A multi-tenant server marks each study it runs on
//! its shared pool with a [`PoolOccupant`]; once at least as many studies
//! occupy the pool as it has workers, and at least two, every core already
//! has a study's thread to run, so `fit_batch` fits its fresh requests
//! itself, one after another, instead of queueing them. Such a fit is the
//! same `run_fit` a worker runs, on the caller's init-half scratch, with
//! its whole init kept ([`Decline`]) and its kept rows absorbed into the
//! request's [`Exceedance`] as the sampler hands them out: no messages, no
//! row buffers, no offered half. Everything after the fit — shared-layer
//! publication with the answer, the per-run cache, [`FitStats`],
//! speculation adoption — is the pooled path's, and the bits are the same
//! on any thread, so nothing a caller sees changes but the time.
//! [`FitPoolStats::caller_fits`] counts these fits. A pool no study
//! occupies — every private pool, and a server running one study — keeps
//! the hand-off, so a lone study still splits each fit's init with a
//! worker.
//!
//! # Speculative ahead-of-boundary prefetch
//!
//! The scheduler only *consumes* posteriors at evaluation boundaries, so
//! without prefetch every fit is a synchronous burst at the boundary
//! while the pool idles in between. [`FitService::prefetch_fit`] lets the
//! engine enqueue the fit for an epoch *the moment the epoch is issued*:
//! the seed and [`CurveFingerprint`] are resolved at enqueue time —
//! exactly the resolution `fit_batch` would perform at the boundary — and
//! the result is parked on a private channel, **not** in any cache. At
//! the boundary, `fit_batch` adopts a speculation only on an exact
//! fingerprint match (anything else is counted waste and refit on
//! demand), so prefetch changes *when* a fit computes, never
//! *what* it computes. At most 32 speculations are in flight per
//! service, and a speculation is cancelled when its job is
//! [`forget`](FitService::forget)-ten, so prefetch can never starve
//! demand fits by more than 32 queued entries on the shared FIFO.
//! Prefetch is a per-study opt-in (`PopConfig::fit_prefetch` in
//! `hyperdrive-core`); no environment variable turns it on.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Instant;

use crossbeam_channel::{unbounded, Receiver, RecvError, Sender};
use parking_lot::Mutex;

use hyperdrive_types::{Error, JobId, LearningCurve, Result};

use crate::cache::{
    fit_fingerprint, posterior_hash, CacheStatsSnapshot, CurveFingerprint, SharedFitCache,
};
use crate::fit::{Decline, InitHalf, ShareInit};
use crate::predictor::{
    CurvePosterior, CurvePredictor, Exceedance, ExceedanceQuery, PredictorConfig,
};
use crate::scratch::FitScratch;
use crate::vmath;

/// Key identifying one fit: the job and the last observed epoch the fit
/// conditions on.
pub type FitKey = (JobId, u32);

/// Derives the RNG seed for one fit from the experiment seed, the
/// configuration (job) id, and the last observed epoch.
///
/// This is the single seed-splitting authority for the whole repo: both the
/// pooled and the sequential fitting paths call it, which is what makes the
/// parallel service byte-identical to serial fitting. The mixing is
/// splitmix64-style so structurally close inputs (`job` vs `job + 1`,
/// `epoch` vs `epoch + 1`) land on statistically unrelated streams.
#[must_use]
pub fn derive_fit_seed(experiment_seed: u64, config: u64, epoch: u32) -> u64 {
    let mut z = experiment_seed
        .wrapping_add(config.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(epoch).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bound on in-flight speculations per service: a demand fit arriving at
/// a boundary waits behind at most this many queued speculations on the
/// pool's FIFO.
const PREFETCH_DEPTH: usize = 32;

/// Resolves the worker-thread count: an explicit non-zero request wins,
/// otherwise `HYPERDRIVE_FIT_THREADS`, otherwise one thread per core.
#[must_use]
pub fn resolve_fit_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("HYPERDRIVE_FIT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(2)
}

/// One curve-fitting request: fit `curve` for configuration `job`,
/// extrapolating to `horizon`.
#[derive(Debug, Clone)]
pub struct FitRequest {
    /// The configuration whose curve this is.
    pub job: JobId,
    /// The observed curve prefix to condition on.
    pub curve: LearningCurve,
    /// Extrapolation horizon (must exceed the last observed epoch).
    pub horizon: u32,
    /// What the caller will ask of the posterior, if it already knows:
    /// answered while the fit samples, into [`FitOutcome::exceedance`].
    pub query: Option<ExceedanceQuery>,
}

/// The outcome of one request within a batch.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// The fitted posterior (or the deterministic fit error).
    pub result: Result<CurvePosterior>,
    /// True if the result came from the fit cache rather than a fresh fit.
    pub cached: bool,
    /// The answer to the request's `query` — bitwise `prob_at_least_many`
    /// on `result`'s posterior. `Some` iff a query was asked of an `Ok`.
    pub exceedance: Option<Vec<f64>>,
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Requests answered from the `(config, epochs)` cache.
    pub cache_hits: u64,
    /// Fresh ensemble fits executed for this service: by a pool worker,
    /// or by the caller itself on a full pool (module docs).
    pub fits: u64,
    /// Always 0: every fit runs cold. Kept only because the repository
    /// benchmark reads it; removed with ROADMAP 1(a).
    pub warm_fits: u64,
    /// Requests answered from the shared content-addressed layer instead
    /// of executing a fit (counted once per distinct key per batch, like
    /// `fits`; **not** a subset of `fits` — a shared hit executes
    /// nothing). `fits + shared_hits` is therefore invariant between a
    /// cold run and a replay against a warmed shared cache.
    pub shared_hits: u64,
    /// `fit_batch` calls served.
    pub batches: u64,
    /// Always equal to `fits`: every fit is scored by the fused
    /// half-ensemble evaluator ([`crate::batch`]). Kept only because the
    /// repository benchmark reads it; removed with ROADMAP 1(a).
    pub batched_fits: u64,
    /// Lookups this service issued against the shared content-addressed
    /// layer (zero when no layer is attached). `shared_hits / shared_lookups`
    /// is this service's dedup rate against fits other runs (or other
    /// studies in the same process) already executed.
    pub shared_lookups: u64,
    /// Successful posteriors this service published to the shared layer
    /// (fit errors are never published).
    pub shared_inserts: u64,
    /// Fits (subset of `fits`) that streamed their kept draws to the
    /// waiting `fit_batch` because the request carried a query.
    pub streamed_fits: u64,
    /// Runs of kept draws those fits streamed: one per retained sampler
    /// snapshot that kept a draw, more where a snapshot kept over
    /// [`crate::batch::MAX_SLOTS`].
    pub streamed_runs: u64,
    /// Nanoseconds of query work `fit_batch` began while a demand fit of
    /// its batch was still sampling on a worker: hidden inside the wait.
    /// Counts pooled fits only: a fit the caller runs itself absorbs its
    /// rows between its own sampler steps, hidden behind nothing, and is
    /// in neither this nor `query_tail_nanos`.
    pub query_overlap_nanos: u64,
    /// Nanoseconds of query work begun with no such fit left sampling —
    /// from the last pooled fit's final run on: the part of the estimate
    /// still on the critical path.
    pub query_tail_nanos: u64,
    /// Queries answered from the shared layer's memo beside a shared hit.
    pub memo_hits: u64,
    /// Init halves ([`crate::fit::OFFERED`]) demand fits offered the
    /// waiting `fit_batch`: one per fit that reached its init.
    pub halves_offered: u64,
    /// Offered halves `fit_batch` ran itself; workers took the rest back.
    pub halves_helped: u64,
    /// Nanoseconds `fit_batch` spent running them.
    pub help_nanos: u64,
}

impl FitStats {
    /// Fraction of requests answered from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.fits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Cumulative speculation counters for one service. `wasted()` —
/// speculations whose result was never adopted — is the price of
/// prefetching; the hit rate is what it bought.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Speculative fits enqueued on the pool.
    pub speculated: u64,
    /// Speculations adopted at a boundary on an exact fingerprint match.
    pub adopted: u64,
    /// Speculations cancelled (job forgotten or superseded) before
    /// collection.
    pub cancelled: u64,
    /// Speculations whose fingerprint no longer matched at collection
    /// time (horizon or curve drifted); refit on demand.
    pub mismatched: u64,
}

impl SpecStats {
    /// Speculations that computed (or will compute) without their result
    /// being used.
    #[must_use]
    pub fn wasted(&self) -> u64 {
        self.speculated.saturating_sub(self.adopted)
    }

    /// Fraction of speculations adopted at a boundary (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.speculated == 0 {
            0.0
        } else {
            self.adopted as f64 / self.speculated as f64
        }
    }
}

/// A point-in-time view of the worker pool: queue pressure, busy/idle
/// worker time, demand vs speculative completions, and the boundary
/// stall distribution (wall-clock spent blocked inside `fit_batch`,
/// which is exactly the submit→posterior-ready latency of a boundary
/// decision). Telemetry only — none of these numbers feed scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitPoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Messages currently queued (sent but not yet picked up).
    pub queue_depth: u64,
    /// Demand fits completed by the workers.
    pub demand_completions: u64,
    /// Demand fits their `fit_batch` callers ran themselves because the
    /// pool was full (see the module docs); not in `demand_completions`,
    /// `busy_secs` or `idle_fraction`.
    pub caller_fits: u64,
    /// Speculative fits completed.
    pub speculative_completions: u64,
    /// Speculative fits skipped by a worker because they were cancelled
    /// before compute started.
    pub speculative_skipped: u64,
    /// Total worker seconds spent fitting (caller-run fits excluded, so
    /// `idle_fraction` stays a fraction of the workers' time).
    pub busy_secs: f64,
    /// Wall-clock seconds since the pool spawned.
    pub uptime_secs: f64,
    /// `fit_batch` calls timed into the stall histogram.
    pub stall_events: u64,
    /// Total wall-clock seconds callers spent in `fit_batch`, including
    /// the time they ran offered init halves ([`FitStats::help_nanos`])
    /// and whole fits on a full pool ([`FitPoolStats::caller_fits`]).
    pub stall_secs: f64,
    /// Median per-call boundary stall, in milliseconds (log-bucket upper
    /// bound).
    pub stall_p50_ms: f64,
    /// 99th-percentile per-call boundary stall, in milliseconds.
    pub stall_p99_ms: f64,
}

impl FitPoolStats {
    /// Fraction of total worker capacity (threads x uptime) spent idle.
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        let capacity = self.uptime_secs * self.threads as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (1.0 - self.busy_secs / capacity).clamp(0.0, 1.0)
    }
}

/// Lock-free pool counters, shared between the workers and `stats()`
/// readers. The stall histogram buckets per-call `fit_batch` wall time
/// by `ilog2(nanos)` — fixed size, so recording never allocates.
struct PoolTelemetry {
    queued: AtomicU64,
    demand_fits: AtomicU64,
    caller_fits: AtomicU64,
    spec_fits: AtomicU64,
    spec_skipped: AtomicU64,
    busy_nanos: AtomicU64,
    stall_events: AtomicU64,
    stall_nanos: AtomicU64,
    stall_buckets: [AtomicU64; 64],
}

impl Default for PoolTelemetry {
    fn default() -> Self {
        PoolTelemetry {
            queued: AtomicU64::new(0),
            demand_fits: AtomicU64::new(0),
            caller_fits: AtomicU64::new(0),
            spec_fits: AtomicU64::new(0),
            spec_skipped: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            stall_events: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
            stall_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl PoolTelemetry {
    fn record_stall(&self, nanos: u64) {
        self.stall_events.fetch_add(1, Ordering::Relaxed);
        self.stall_nanos.fetch_add(nanos, Ordering::Relaxed);
        let bucket = (nanos.max(1).ilog2() as usize).min(63);
        self.stall_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The upper bound (in ms) of the bucket holding the `q`-quantile
    /// stall, or 0 when nothing was recorded.
    fn stall_quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> =
            self.stall_buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (i + 1).min(63)) as f64 / 1e6;
            }
        }
        (1u64 << 63) as f64 / 1e6
    }
}

/// What a demand fit sends the `fit_batch` waiting for it. One worker runs
/// a key's whole fit and a channel keeps each sender's order, so per key
/// the messages arrive as sent: the init half, rows in draw order, then
/// the result.
enum FitReply {
    /// The fit's offered init half, for the caller to claim and run.
    Help(FitKey, Arc<HelpTask>),
    /// The fit's next kept draws — a retained snapshot's, at most
    /// [`crate::batch::MAX_SLOTS`] of them — in a buffer that returns to
    /// the pool's spare list once absorbed.
    Rows(FitKey, Vec<f64>),
    /// The result; an `Ok` posterior of a streamed fit is exactly the rows
    /// sent before.
    Done(FitKey, Result<CurvePosterior>),
}

thread_local! {
    /// The scratch a `fit_batch` caller runs offered halves on, and whole
    /// fits on a full pool.
    static HELP_SCRATCH: RefCell<FitScratch> = RefCell::new(FitScratch::default());
}

/// A caller's results for an offered half, or what it panicked with.
type Helped = std::thread::Result<InitHalf>;

/// One demand fit's offered init half. Whichever of the waiting caller and
/// the worker sets `taken` first runs it, so the worker only ever waits on
/// a half that is already running.
struct HelpTask {
    taken: AtomicBool,
    starts: InitHalf,
    /// The caller's results, for the worker. A lock and a condition
    /// variable allocate nothing, so a fit allocates the same whoever runs
    /// its half.
    done: std::sync::Mutex<Option<Helped>>,
    answered: Condvar,
}

impl HelpTask {
    /// Runs the half of the `config` fit of `curve` to `horizon` on this
    /// thread's [`HELP_SCRATCH`] unless the worker took it back, returning
    /// the nanoseconds it took. A panic goes to the worker to re-raise, and
    /// this thread gets a fresh scratch.
    fn help(&self, config: PredictorConfig, curve: &LearningCurve, horizon: u32) -> Option<u64> {
        if self.taken.swap(true, Ordering::AcqRel) {
            return None;
        }
        let t = Instant::now();
        let mut half = self.starts;
        let run = AssertUnwindSafe(|| {
            HELP_SCRATCH.with_borrow_mut(|scratch| {
                #[cfg(test)]
                if tests::PANIC_WHEN_HELPING.get() == curve.len() {
                    panic!("injected panic");
                }
                let backend = vmath::active_backend();
                CurvePredictor::new(config)
                    .minimize_offered(curve, horizon, &mut half, scratch, backend)
                    .expect("the offering fit passed the same checks");
            });
        });
        let helped = catch_unwind(run).map(|()| half);
        if helped.is_err() {
            HELP_SCRATCH.with_borrow_mut(|scratch| *scratch = FitScratch::default());
        }
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(helped);
        self.answered.notify_one();
        Some(t.elapsed().as_nanos() as u64)
    }
}

/// A demand fit's [`ShareInit`]: offers the init half to the batch waiting
/// for the fit, down its reply channel.
struct Offer<'a> {
    key: FitKey,
    reply: &'a Sender<FitReply>,
    task: Option<Arc<HelpTask>>,
}

impl ShareInit for Offer<'_> {
    fn offer(&mut self, half: &InitHalf) -> bool {
        let task = self.task.insert(Arc::new(HelpTask {
            taken: AtomicBool::new(false),
            starts: *half,
            done: std::sync::Mutex::new(None),
            answered: Condvar::new(),
        }));
        self.reply.send(FitReply::Help(self.key, Arc::clone(task))).is_ok()
    }

    fn collect(&mut self, half: &mut InitHalf) -> bool {
        let task = self.task.take().expect("collected after an accepted offer");
        if !task.taken.swap(true, Ordering::AcqRel) {
            return false;
        }
        // The caller is running it, and always answers.
        let done = task.done.lock().unwrap_or_else(PoisonError::into_inner);
        let wait = task.answered.wait_while(done, |d| d.is_none());
        match wait.unwrap_or_else(PoisonError::into_inner).take().expect("answered") {
            Ok(helped) => *half = helped,
            Err(panic) => std::panic::resume_unwind(panic),
        }
        true
    }
}

enum WorkerMsg {
    Fit {
        key: FitKey,
        /// The requesting service's fidelity, at the fit's derived seed:
        /// the pool is shared across services (studies), so each request
        /// names its own config rather than the pool fixing one at spawn
        /// time.
        config: PredictorConfig,
        curve: LearningCurve,
        horizon: u32,
        /// Whether the batch absorbs kept rows while the fit runs.
        stream: bool,
        /// The batch's count of demand fits that have stopped sampling: a
        /// fit counts itself as it hands out its final kept rows, or when
        /// it ends having handed out none (an error or a panic).
        finished: Arc<AtomicUsize>,
        reply: Sender<FitReply>,
    },
    /// A speculative ahead-of-boundary fit: identical inputs to `Fit`
    /// (seed resolved at enqueue), plus a cancellation flag checked before
    /// compute starts. The worker drops the reply
    /// silently when cancelled — the receiver side was already discarded.
    SpecFit {
        key: FitKey,
        config: PredictorConfig,
        curve: LearningCurve,
        horizon: u32,
        cancelled: Arc<AtomicBool>,
        reply: Sender<(FitKey, Result<CurvePosterior>)>,
    },
    Shutdown,
}

/// A fixed-size pool of fit worker threads, separable from any one
/// [`FitService`] so many services (e.g. concurrent studies in a
/// multi-tenant server) can share one set of threads. Work reaches it only
/// through a service, which resolves each request's [`PredictorConfig`]
/// and derived seed; workers hold no cross-request state beyond reusable
/// scratch buffers, so sharing the pool cannot perturb any service's
/// results.
pub struct FitPool {
    tx: Sender<WorkerMsg>,
    workers: Vec<std::thread::JoinHandle<()>>,
    telemetry: Arc<PoolTelemetry>,
    /// Buffers of absorbed [`FitReply::Rows`] for workers to refill: a
    /// warmed-up pool streams without allocating.
    spare_chunks: Arc<Mutex<Vec<Vec<f64>>>>,
    /// Studies holding a [`PoolOccupant`].
    occupants: AtomicUsize,
    started: Instant,
}

/// One study running on a shared [`FitPool`], counted from
/// [`FitPool::occupy`] until this guard drops. With as many occupants as
/// workers (and at least two), the studies' `fit_batch` calls fit on their
/// own threads (see the module docs).
#[derive(Debug)]
pub struct PoolOccupant<'a>(&'a FitPool);

impl Drop for PoolOccupant<'_> {
    fn drop(&mut self) {
        self.0.occupants.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for FitPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitPool").field("threads", &self.workers.len()).finish_non_exhaustive()
    }
}

impl FitPool {
    /// Spawns a pool with `threads` workers (`0` = environment / hardware
    /// default, see [`resolve_fit_threads`]). The pool shuts its workers
    /// down when the last `Arc` clone drops.
    #[must_use]
    pub fn new(threads: usize) -> Arc<Self> {
        let threads = resolve_fit_threads(threads);
        let telemetry = Arc::new(PoolTelemetry::default());
        let spare_chunks = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = unbounded();
        let workers = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                let telemetry = Arc::clone(&telemetry);
                let spare_chunks = Arc::clone(&spare_chunks);
                std::thread::spawn(move || worker_loop(&rx, &telemetry, &spare_chunks))
            })
            .collect();
        Arc::new(FitPool {
            tx,
            workers,
            telemetry,
            spare_chunks,
            occupants: AtomicUsize::new(0),
            started: Instant::now(),
        })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Counts one study as running on this pool until the guard drops.
    #[must_use = "the study occupies the pool only while the guard lives"]
    pub fn occupy(&self) -> PoolOccupant<'_> {
        self.occupants.fetch_add(1, Ordering::Relaxed);
        PoolOccupant(self)
    }

    /// Studies occupying the pool now.
    #[must_use]
    pub fn occupants(&self) -> usize {
        self.occupants.load(Ordering::Relaxed)
    }

    /// Whether every worker has a study of its own behind it, and there
    /// are at least two: a `fit_batch` then fits on its caller.
    fn is_full(&self) -> bool {
        self.occupants() >= self.threads().max(2)
    }

    /// A point-in-time snapshot of the pool's telemetry counters.
    #[must_use]
    pub fn stats(&self) -> FitPoolStats {
        let t = &self.telemetry;
        FitPoolStats {
            threads: self.workers.len(),
            queue_depth: t.queued.load(Ordering::Relaxed),
            demand_completions: t.demand_fits.load(Ordering::Relaxed),
            caller_fits: t.caller_fits.load(Ordering::Relaxed),
            speculative_completions: t.spec_fits.load(Ordering::Relaxed),
            speculative_skipped: t.spec_skipped.load(Ordering::Relaxed),
            busy_secs: t.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            stall_events: t.stall_events.load(Ordering::Relaxed),
            stall_secs: t.stall_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            stall_p50_ms: t.stall_quantile_ms(0.50),
            stall_p99_ms: t.stall_quantile_ms(0.99),
        }
    }

    fn send(&self, msg: WorkerMsg) {
        self.telemetry.queued.fetch_add(1, Ordering::Relaxed);
        // Workers contain a panicking fit and return only on `Shutdown`,
        // which `Drop` alone sends.
        self.tx.send(msg).expect("workers outlive the pool handle");
    }
}

impl Drop for FitPool {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.tx.send(WorkerMsg::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One in-flight speculative fit. The result arrives on `reply`; nothing
/// lands in any cache until (and unless) a boundary adopts it, which
/// keeps `posterior_digest` and per-run cache evolution byte-identical to
/// a prefetch-off run.
struct Speculation {
    fingerprint: CurveFingerprint,
    cancelled: Arc<AtomicBool>,
    reply: Receiver<(FitKey, Result<CurvePosterior>)>,
}

struct Shared {
    cache: Mutex<HashMap<FitKey, Result<CurvePosterior>>>,
    stats: Mutex<FitStats>,
    speculations: Mutex<HashMap<FitKey, Speculation>>,
    spec_stats: Mutex<SpecStats>,
}

/// A fixed-size worker pool fitting curve ensembles concurrently and
/// deterministically (see the module docs).
pub struct FitService {
    config: PredictorConfig,
    experiment_seed: u64,
    shared: Arc<Shared>,
    shared_layer: Option<Arc<SharedFitCache>>,
    pool: Arc<FitPool>,
    prefetch_depth: usize,
}

impl std::fmt::Debug for FitService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitService")
            .field("threads", &self.pool.threads())
            .field("cached", &self.cache_len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl FitService {
    /// Starts a service with `threads` workers (`0` = environment /
    /// hardware default, see [`resolve_fit_threads`]) using `config`
    /// fidelity. `experiment_seed` is the root of every per-fit seed.
    /// The service shares its fits with no other.
    pub fn new(config: PredictorConfig, experiment_seed: u64, threads: usize) -> Self {
        Self::with_shared_cache(config, experiment_seed, threads, None)
    }

    /// [`FitService::new`] with a shared content-addressed layer: every
    /// service handed the same cache reuses the others' fits (`None` =
    /// this service never shares fits across runs).
    pub fn with_shared_cache(
        config: PredictorConfig,
        experiment_seed: u64,
        threads: usize,
        shared_layer: Option<Arc<SharedFitCache>>,
    ) -> Self {
        Self::with_pool(config, experiment_seed, FitPool::new(threads), shared_layer)
    }

    /// Binds a new service to an **existing** worker pool instead of
    /// spawning its own: the per-run cache, experiment seed, fidelity, and
    /// stats are all fresh and private, only the threads are shared. This
    /// is how a multi-tenant process runs many concurrent studies over one
    /// fixed-size pool. Results are byte-identical to a service owning its
    /// own pool of any width (see the module docs).
    pub fn with_pool(
        config: PredictorConfig,
        experiment_seed: u64,
        pool: Arc<FitPool>,
        shared_layer: Option<Arc<SharedFitCache>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(FitStats::default()),
            speculations: Mutex::new(HashMap::new()),
            spec_stats: Mutex::new(SpecStats::default()),
        });
        FitService {
            config,
            experiment_seed,
            shared,
            shared_layer,
            pool,
            prefetch_depth: PREFETCH_DEPTH,
        }
    }

    /// Lowers the in-flight speculation bound, so a test can reach it.
    #[cfg(test)]
    fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The worker pool this service submits to (shared or private).
    pub fn pool(&self) -> &Arc<FitPool> {
        &self.pool
    }

    /// The predictor fidelity the pool fits with.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// Speculatively enqueues the fit for `(job, curve.last_epoch())` so
    /// a later `fit_batch` for the same request can *collect* the result
    /// instead of computing it at the boundary. Returns `true` when a
    /// speculation was actually enqueued.
    ///
    /// Seed and [`CurveFingerprint`] are resolved here, at enqueue time,
    /// exactly as `fit_batch` would resolve them; the boundary adopts the
    /// speculation only if its own resolution matches bit for bit, so a
    /// speculation can never change what a fit computes. Dedups against the per-run cache, in-flight speculations
    /// for the same key, and the shared content-addressed layer (via the
    /// stats-free [`SharedFitCache::peek`], so counted dedup accounting
    /// stays invariant under prefetch). Skipped while 32 speculations are
    /// in flight.
    pub fn prefetch_fit(&self, job: JobId, curve: &LearningCurve, horizon: u32) -> bool {
        let Some(last_epoch) = curve.last_epoch() else {
            return false;
        };
        let key = (job, last_epoch);
        if self.shared.cache.lock().contains_key(&key) {
            return false;
        }
        let seed = derive_fit_seed(self.experiment_seed, job.raw(), last_epoch);
        let fp = fit_fingerprint(curve, &self.config, seed, horizon, None);
        if let Some(layer) = &self.shared_layer {
            if layer.peek(&fp).is_some() {
                // The boundary will take a counted shared hit; computing
                // the fit again would be pure waste.
                return false;
            }
        }
        let mut superseded = None;
        {
            let mut specs = self.shared.speculations.lock();
            match specs.get(&key) {
                Some(existing) if existing.fingerprint == fp => return false,
                Some(_) => {
                    // Same key, different resolution (horizon drifted
                    // since enqueue): the old speculation can never be
                    // adopted — cancel and replace it.
                    superseded = specs.remove(&key);
                }
                None if specs.len() >= self.prefetch_depth => return false,
                None => {}
            }
            let cancelled = Arc::new(AtomicBool::new(false));
            let (reply_tx, reply_rx) = unbounded();
            self.pool.send(WorkerMsg::SpecFit {
                key,
                config: self.config.with_seed(seed),
                curve: curve.clone(),
                horizon,
                cancelled: Arc::clone(&cancelled),
                reply: reply_tx,
            });
            specs.insert(key, Speculation { fingerprint: fp, cancelled, reply: reply_rx });
        }
        {
            let mut stats = self.shared.spec_stats.lock();
            stats.speculated += 1;
            if superseded.is_some() {
                stats.cancelled += 1;
            }
        }
        if let Some(old) = superseded {
            old.cancelled.store(true, Ordering::Relaxed);
        }
        true
    }

    /// Cumulative speculation counters (enqueued / adopted / cancelled /
    /// mismatched).
    pub fn spec_stats(&self) -> SpecStats {
        *self.shared.spec_stats.lock()
    }

    /// The worker pool's telemetry snapshot (see [`FitPoolStats`]).
    pub fn pool_stats(&self) -> FitPoolStats {
        self.pool.stats()
    }

    /// Fits every request in `requests`, returning outcomes in request
    /// order. Cached prefixes are answered without refitting; the rest run
    /// concurrently on the pool, and the call blocks until all complete —
    /// answering each request's `query`, while it waits, from the kept
    /// draws its fit streams back. On a full pool the rest run here, one
    /// after another, instead (see the module docs).
    ///
    /// Duplicate `(job, last epoch)` keys within one batch are fitted once
    /// and share the result. A fit that panics, or whose worker vanishes,
    /// is an [`Error::CurveFit`] outcome for its key, never a block.
    pub fn fit_batch(&self, requests: &[FitRequest]) -> Vec<FitOutcome> {
        let stall_timer = Instant::now();
        // Every worker has a study behind it: a hand-off would only move
        // the fit to another thread of the same cores.
        let on_caller = self.pool.is_full();
        // Snapshot once: when no speculation is in flight the whole
        // adoption path (including fingerprinting without a shared
        // layer) is skipped and the scan is exactly the pre-prefetch
        // code path.
        let spec_active = !self.shared.speculations.lock().is_empty();
        let mut out: Vec<Option<FitOutcome>> = vec![None; requests.len()];
        // Indices waiting on each in-flight key, in submission order.
        let mut waiting: HashMap<FitKey, Vec<usize>> = HashMap::new();
        // Fingerprint of each enqueued key, so the collection loop can
        // publish the fresh posterior to the shared layer.
        let mut enqueued_fp: HashMap<FitKey, CurveFingerprint> = HashMap::new();
        // Keys this batch resolved from the shared layer. Their per-run
        // cache insertion is deferred until after the enqueue scan, where a
        // fresh fit's result lands too, so a later duplicate in the batch
        // shares the resolution (`cached: false`) just as a `waiting`
        // duplicate shares a fit.
        let mut shared_found: HashMap<FitKey, CurvePosterior> = HashMap::new();
        // The accumulator of each in-flight key whose first request asks a
        // query: the fit's rows as they arrive, the rest with the result.
        let mut streams: HashMap<FitKey, Exceedance> = HashMap::new();
        // The reply channel and the count of fits finished on workers, made
        // when the first fit goes to a worker: a batch that fits here, or
        // is answered wholly from caches, allocates neither.
        let mut to_workers: Option<(Sender<FitReply>, Receiver<FitReply>, Arc<AtomicUsize>)> = None;
        // Fits sent to the pool, and those this caller runs itself.
        let mut enqueued = 0usize;
        let mut on_here: Vec<(FitKey, PredictorConfig)> = Vec::new();
        let mut hits = 0u64;
        let mut shared_hits = 0u64;
        let mut shared_lookups = 0u64;
        let mut streamed_fits = 0u64;
        let mut streamed_runs = 0u64;
        let mut memo_hits = 0u64;
        // Offered init halves: [received, run here], and the nanoseconds.
        let mut halves = [0u64; 2];
        let mut help_nanos = 0u64;
        // Speculations this batch adopts (exact fingerprint match):
        // collected after all demand fits are enqueued, handled exactly
        // like a fresh fit's reply.
        let mut adopted_specs: Vec<(FitKey, Speculation)> = Vec::new();
        let mut spec_mismatched = 0u64;

        let resolved = |result, cached, exceedance| FitOutcome { result, cached, exceedance };
        for (i, req) in requests.iter().enumerate() {
            let Some(last_epoch) = req.curve.last_epoch() else {
                let empty = Error::CurveFit("cannot fit an empty curve".into());
                out[i] = Some(resolved(Err(empty), false, None));
                continue;
            };
            let key = (req.job, last_epoch);
            if let Some(hit) = self.shared.cache.lock().get(&key) {
                hits += 1;
                out[i] = Some(resolved(hit.clone(), true, None));
                continue;
            }
            if let Some(p) = shared_found.get(&key) {
                // A sibling request already resolved this key from the
                // shared layer; share that resolution exactly like
                // `waiting` duplicates share one fit.
                out[i] = Some(resolved(Ok(p.clone()), false, None));
                continue;
            }
            match waiting.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let seed = derive_fit_seed(self.experiment_seed, req.job.raw(), last_epoch);
                    // The fingerprint is needed by the shared layer and by
                    // speculation adoption; skip hashing when neither is
                    // in play.
                    let fp = (self.shared_layer.is_some() || spec_active).then(|| {
                        fit_fingerprint(&req.curve, &self.config, seed, req.horizon, None)
                    });
                    if let Some(layer) = &self.shared_layer {
                        let fp = fp.expect("fingerprint computed when a layer is attached");
                        shared_lookups += 1;
                        if let Some((p, answer)) = layer.get_answered(&fp, req.query.as_ref()) {
                            // Bitwise the posterior this fit would have
                            // produced (and the answer asking it would);
                            // reported as `cached: false` so the outcome is
                            // indistinguishable from running it.
                            shared_hits += 1;
                            memo_hits += u64::from(answer.is_some());
                            out[i] = Some(resolved(Ok(p.clone()), false, answer));
                            shared_found.insert(key, p);
                            if spec_active {
                                // A sibling study published this fit since
                                // the speculation enqueued: the counted
                                // shared hit wins, the speculation is waste.
                                if let Some(spec) = self.shared.speculations.lock().remove(&key) {
                                    spec.cancelled.store(true, Ordering::Relaxed);
                                    spec_mismatched += 1;
                                }
                            }
                            continue;
                        }
                        enqueued_fp.insert(key, fp);
                    }
                    e.insert(vec![i]);
                    if let Some(query) = &req.query {
                        streams.insert(key, query.begin());
                    }
                    if spec_active {
                        if let Some(spec) = self.shared.speculations.lock().remove(&key) {
                            let fp = fp.expect("fingerprint computed while speculating");
                            if spec.fingerprint == fp {
                                // Exact match: the speculative fit IS this
                                // demand fit — adopt its (possibly still
                                // computing) result in the collection loop.
                                adopted_specs.push((key, spec));
                                continue;
                            }
                            // Resolution drifted since enqueue (horizon
                            // changed): the speculation must not be used.
                            // Cancel it and fit on demand.
                            spec.cancelled.store(true, Ordering::Relaxed);
                            spec_mismatched += 1;
                        }
                    }
                    let config = self.config.with_seed(seed);
                    if on_caller {
                        on_here.push((key, config));
                    } else {
                        let (reply, _, finished) = to_workers.get_or_insert_with(|| {
                            let (tx, rx) = unbounded();
                            (tx, rx, Arc::new(AtomicUsize::new(0)))
                        });
                        self.pool.send(WorkerMsg::Fit {
                            key,
                            config,
                            curve: req.curve.clone(),
                            horizon: req.horizon,
                            stream: req.query.is_some(),
                            finished: Arc::clone(finished),
                            reply: reply.clone(),
                        });
                        enqueued += 1;
                    }
                    streamed_fits += u64::from(req.query.is_some());
                }
            }
        }
        // Only workers hold senders now: should they vanish, `recv` below
        // disconnects instead of blocking.
        let (reply_rx, finished) = to_workers.map(|(_, rx, finished)| (rx, finished)).unzip();

        // Shared-layer hits become visible to *future* batches only, just
        // like fresh fits.
        if !shared_found.is_empty() {
            let mut cache = self.shared.cache.lock();
            for (key, p) in &shared_found {
                cache.insert(*key, Ok(p.clone()));
            }
        }

        let mut shared_inserts = 0u64;
        let (spec_adopted, caller_fits) = (adopted_specs.len(), on_here.len());
        // Nanoseconds of query work by whether a demand fit was still
        // sampling when it began: [critical path, hidden behind the fit].
        let mut query_nanos = [0u64; 2];
        let mut timed = |work: &mut dyn FnMut()| {
            let hidden = finished.as_ref().is_some_and(|f| f.load(Ordering::Acquire) < enqueued);
            let t = Instant::now();
            work();
            query_nanos[usize::from(hidden)] += t.elapsed().as_nanos() as u64;
        };
        let vanished = || Error::CurveFit("fit worker vanished before replying".into());
        // Adopted speculations and fits run here resolve exactly like fresh
        // replies: same shared-layer publication, same per-run cache
        // insertion, same `cached: false` outcome — a caller (or a trace
        // byte-compare) cannot tell them from the pooled demand fit they
        // replaced. Every waiting key is one of the three.
        let mut adopted = adopted_specs.into_iter();
        let mut on_here = on_here.into_iter();
        while !waiting.is_empty() {
            // Whether a worker sampled the fit, so its query work is timed.
            let mut pooled = true;
            let (key, result) = if let Some((key, spec)) = adopted.next() {
                (key, spec.reply.recv().map_or_else(|_| Err(vanished()), |(_, result)| result))
            } else if let Some((key, config)) = on_here.next() {
                let req = &requests[waiting[&key][0]];
                let mut mass = streams.get_mut(&key);
                let absorb = |rows: &[f64], _| {
                    if let Some(mass) = mass.as_deref_mut() {
                        mass.absorb(rows);
                        streamed_runs += 1;
                    }
                };
                let result = HELP_SCRATCH.with_borrow_mut(|scratch| {
                    run_fit(scratch, config, &req.curve, req.horizon, &mut Decline, absorb)
                });
                pooled = false;
                (key, result)
            } else {
                match reply_rx.as_ref().map_or(Err(RecvError), Receiver::recv) {
                    Ok(FitReply::Help(key, task)) => {
                        let req = &requests[waiting[&key][0]];
                        halves[0] += 1;
                        if let Some(nanos) = task.help(self.config, &req.curve, req.horizon) {
                            halves[1] += 1;
                            help_nanos += nanos;
                        }
                        continue;
                    }
                    Ok(FitReply::Rows(key, rows)) => {
                        let mass = streams.get_mut(&key).expect("only asked fits stream");
                        streamed_runs += 1;
                        timed(&mut || mass.absorb(&rows));
                        self.pool.spare_chunks.lock().push(rows);
                        continue;
                    }
                    Ok(FitReply::Done(key, result)) => (key, result),
                    // The adopted keys resolved first, so what still waits
                    // is the demand fits whose producers are gone.
                    Err(_) => (*waiting.keys().next().expect("non-empty"), Err(vanished())),
                }
            };
            let indices = waiting.remove(&key).expect("one reply per waiting key");
            // The first request's answer: what was streamed (for an adopted
            // speculation, nothing: all its rows come with the posterior),
            // kept beside the posterior in the shared layer. An error drops
            // whatever was absorbed.
            let first = requests[indices[0]].query.as_ref();
            let answer = match (streams.remove(&key), first, &result) {
                (Some(mut mass), Some(query), Ok(p)) => {
                    let mut answer = vec![0.0; query.epochs().len()];
                    let mut rest = || {
                        mass.absorb_rest(p);
                        mass.finish(&mut answer);
                    };
                    if pooled {
                        timed(&mut rest);
                    } else {
                        rest();
                    }
                    Some(answer)
                }
                _ => None,
            };
            if let (Some(layer), Some(fp), Ok(p)) =
                (self.shared_layer.as_ref(), enqueued_fp.get(&key), &result)
            {
                layer.insert_answered(*fp, p, first.zip(answer.as_deref()));
                shared_inserts += 1;
            }
            self.shared.cache.lock().insert(key, result.clone());
            for &i in &indices {
                let shared =
                    answer.as_ref().filter(|_| requests[i].query.as_ref() == first).cloned();
                out[i] = Some(resolved(result.clone(), false, shared));
            }
        }

        // Whoever still lacks its answer — a cache hit, a second query on
        // one key — asks the finished posterior.
        for (req, outcome) in requests.iter().zip(&mut out) {
            let outcome = outcome.as_mut().expect("every request answered");
            if let (Some(query), Ok(p), None) = (&req.query, &outcome.result, &outcome.exceedance) {
                timed(&mut || outcome.exceedance = Some(query.answer(p)));
            }
        }

        {
            let mut stats = self.shared.stats.lock();
            stats.cache_hits += hits;
            let fits = (enqueued + caller_fits + spec_adopted) as u64;
            stats.fits += fits;
            stats.shared_hits += shared_hits;
            stats.batches += 1;
            stats.batched_fits += fits;
            stats.shared_lookups += shared_lookups;
            stats.shared_inserts += shared_inserts;
            stats.streamed_fits += streamed_fits;
            stats.streamed_runs += streamed_runs;
            stats.query_tail_nanos += query_nanos[0];
            stats.query_overlap_nanos += query_nanos[1];
            stats.memo_hits += memo_hits;
            stats.halves_offered += halves[0];
            stats.halves_helped += halves[1];
            stats.help_nanos += help_nanos;
        }
        if caller_fits > 0 {
            self.pool.telemetry.caller_fits.fetch_add(caller_fits as u64, Ordering::Relaxed);
        }
        if spec_adopted > 0 || spec_mismatched > 0 {
            let mut spec = self.shared.spec_stats.lock();
            spec.adopted += spec_adopted as u64;
            spec.mismatched += spec_mismatched;
        }
        self.pool.telemetry.record_stall(stall_timer.elapsed().as_nanos() as u64);
        out.into_iter().map(|o| o.expect("every request answered")).collect()
    }

    /// The cached posterior for `(job, epoch)`, if one exists.
    pub fn cached(&self, job: JobId, epoch: u32) -> Option<Result<CurvePosterior>> {
        self.shared.cache.lock().get(&(job, epoch)).cloned()
    }

    /// Number of memoized fits.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().len()
    }

    /// Cumulative hit/fit counters.
    pub fn stats(&self) -> FitStats {
        *self.shared.stats.lock()
    }

    /// This service's (per-study) view of the shared content-addressed
    /// layer as a cheap [`CacheStatsSnapshot`]: lookups it issued, hits it
    /// received, posteriors it published. All zero when no layer is
    /// attached. The whole cache's counterpart is
    /// [`SharedFitCache::snapshot`].
    pub fn shared_snapshot(&self) -> CacheStatsSnapshot {
        let s = self.stats();
        CacheStatsSnapshot {
            lookups: s.shared_lookups,
            shared_hits: s.shared_hits,
            inserts: s.shared_inserts,
        }
    }

    /// An order-independent digest over every memoized posterior (sorted
    /// by `(job, epoch)`, folding each posterior's structural hash): two
    /// runs of the same study that produced byte-identical posteriors have
    /// equal digests, and a 64-bit digest can collide. Fit errors fold in
    /// as a fixed marker. Compare digests only within one build.
    pub fn posterior_digest(&self) -> u64 {
        let cache = self.shared.cache.lock();
        let mut keys: Vec<FitKey> = cache.keys().copied().collect();
        keys.sort_unstable();
        let mut acc: u64 = 0x243F_6A88_85A3_08D3; // pi, as a fixed basis
        for key in keys {
            let h = match &cache[&key] {
                Ok(p) => posterior_hash(p),
                Err(_) => 0x0005_DEEC_E66D,
            };
            acc = derive_fit_seed(acc ^ h, key.0.raw(), key.1);
        }
        acc
    }

    /// The shared content-addressed layer this service consults, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedFitCache>> {
        self.shared_layer.as_ref()
    }

    /// Drops cached results for a job (e.g. after termination), and
    /// cancels any in-flight speculations for it — a dead job's
    /// speculative fits are abandoned, not collected.
    pub fn forget(&self, job: JobId) {
        self.shared.cache.lock().retain(|(j, _), _| *j != job);
        let mut dropped = 0u64;
        self.shared.speculations.lock().retain(|(j, _), spec| {
            if *j == job {
                spec.cancelled.store(true, Ordering::Relaxed);
                dropped += 1;
                false
            } else {
                true
            }
        });
        if dropped > 0 {
            self.shared.spec_stats.lock().cancelled += dropped;
        }
    }
}

impl Drop for FitService {
    fn drop(&mut self) {
        // Abandon whatever is still speculating so pool workers shared
        // with other services don't burn time on results nobody will
        // collect.
        for spec in self.shared.speculations.lock().values() {
            spec.cancelled.store(true, Ordering::Relaxed);
        }
    }
}

/// One fit on a worker thread, contained: a panic inside it — or in its
/// init half on the caller that ran it — becomes its request's
/// [`Error::CurveFit`] and the worker keeps serving, on a fresh scratch.
fn run_fit(
    scratch: &mut FitScratch,
    config: PredictorConfig,
    curve: &LearningCurve,
    horizon: u32,
    share: &mut impl ShareInit,
    on_rows: impl FnMut(&[f64], bool),
) -> Result<CurvePosterior> {
    let (predictor, backend) = (CurvePredictor::new(config), vmath::active_backend());
    let fit = AssertUnwindSafe(|| {
        predictor.fit_streamed(curve, horizon, scratch, backend, share, on_rows)
    });
    catch_unwind(fit).unwrap_or_else(|panic| {
        *scratch = FitScratch::default();
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        Err(Error::CurveFit(format!("fit panicked: {what}")))
    })
}

fn worker_loop(
    rx: &Receiver<WorkerMsg>,
    telemetry: &PoolTelemetry,
    spare_chunks: &Mutex<Vec<Vec<f64>>>,
) {
    // One scratch per worker thread, reused across every fit this worker
    // performs: after the first fit sizes the buffers, the MCMC inner loop
    // runs allocation-free.
    let mut scratch = FitScratch::default();
    while let Ok(msg) = rx.recv() {
        if !matches!(msg, WorkerMsg::Shutdown) {
            telemetry.queued.fetch_sub(1, Ordering::Relaxed);
        }
        match msg {
            WorkerMsg::Fit { key, config, curve, horizon, stream, finished, reply } => {
                let t = Instant::now();
                let mut share = Offer { key, reply: &reply, task: None };
                let mut sampled = false;
                let on_rows = |rows: &[f64], last: bool| {
                    // Counted before the final run is sent, so the caller
                    // times absorbing it as the tail it is.
                    if last {
                        sampled = true;
                        finished.fetch_add(1, Ordering::Release);
                    }
                    if stream {
                        let mut chunk = spare_chunks.lock().pop().unwrap_or_default();
                        chunk.clear();
                        chunk.extend_from_slice(rows);
                        let _ = reply.send(FitReply::Rows(key, chunk));
                    }
                };
                let result = run_fit(&mut scratch, config, &curve, horizon, &mut share, on_rows);
                telemetry.busy_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                telemetry.demand_fits.fetch_add(1, Ordering::Relaxed);
                if !sampled {
                    finished.fetch_add(1, Ordering::Release);
                }
                // The batch owner can only be gone if it panicked itself;
                // nothing useful to do then.
                let _ = reply.send(FitReply::Done(key, result));
            }
            WorkerMsg::SpecFit { key, config, curve, horizon, cancelled, reply } => {
                if cancelled.load(Ordering::Relaxed) {
                    telemetry.spec_skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let t = Instant::now();
                let result =
                    run_fit(&mut scratch, config, &curve, horizon, &mut Decline, |_, _| {});
                telemetry.busy_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                telemetry.spec_fits.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send((key, result));
            }
            WorkerMsg::Shutdown => return,
        }
    }
}

/// The single-threaded reference definition of one fit: what any
/// [`FitService`] worker must reproduce bit-for-bit for the same request.
///
/// # Errors
///
/// Propagates [`Error::CurveFit`] for empty/short curves and non-future
/// horizons, exactly as the pooled path does.
pub fn sequential_fit(
    config: PredictorConfig,
    experiment_seed: u64,
    req: &FitRequest,
) -> Result<CurvePosterior> {
    let last_epoch = req
        .curve
        .last_epoch()
        .ok_or_else(|| Error::CurveFit("cannot fit an empty curve".into()))?;
    let seed = derive_fit_seed(experiment_seed, req.job.raw(), last_epoch);
    CurvePredictor::new(config.with_seed(seed)).fit(&req.curve, req.horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MAX_SLOTS;
    use hyperdrive_types::{MetricKind, SimTime};

    thread_local! {
        /// Makes the offered halves this thread runs panic on curves this
        /// many observations long.
        pub(super) static PANIC_WHEN_HELPING: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn curve(n: u32) -> LearningCurve {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=n {
            let x = f64::from(e);
            c.push(e, SimTime::from_secs(60.0 * x), 0.7 - 0.6 * x.powf(-0.8));
        }
        c
    }

    fn req(job: u64, n: u32) -> FitRequest {
        FitRequest { job: JobId::new(job), curve: curve(n), horizon: 100, query: None }
    }

    #[test]
    fn batch_results_match_sequential_reference_bitwise() {
        let config = PredictorConfig::test();
        for threads in [1, 4] {
            let service = FitService::new(config, 7, threads);
            let requests: Vec<FitRequest> = (0..6).map(|j| req(j, 10 + j as u32)).collect();
            let outcomes = service.fit_batch(&requests);
            for (r, o) in requests.iter().zip(&outcomes) {
                let reference = sequential_fit(config, 7, r).expect("reference fits");
                let pooled = o.result.as_ref().expect("pooled fit succeeds");
                assert!(!o.cached);
                assert_eq!(
                    pooled.expected(100).to_bits(),
                    reference.expected(100).to_bits(),
                    "thread-count-dependent result at {threads} threads"
                );
                assert_eq!(pooled.draws(), reference.draws());
            }
        }
    }

    #[test]
    fn cache_answers_repeat_batches_without_refitting() {
        let service = FitService::new(PredictorConfig::test(), 3, 2);
        let requests = vec![req(0, 10), req(1, 12)];
        let cold = service.fit_batch(&requests);
        let repeat = service.fit_batch(&requests);
        assert!(cold.iter().all(|o| !o.cached));
        assert!(repeat.iter().all(|o| o.cached));
        for (c, w) in cold.iter().zip(&repeat) {
            assert_eq!(
                c.result.as_ref().unwrap().draws(),
                w.result.as_ref().unwrap().draws(),
                "cache must return the identical posterior"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.fits, 2);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.batches, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_keys_in_one_batch_fit_once() {
        let service = FitService::new(PredictorConfig::test(), 11, 3);
        let requests = vec![req(5, 10), req(5, 10), req(5, 10)];
        let outcomes = service.fit_batch(&requests);
        assert_eq!(service.stats().fits, 1, "one fit shared by all duplicates");
        let first = outcomes[0].result.as_ref().unwrap();
        for o in &outcomes[1..] {
            assert_eq!(o.result.as_ref().unwrap().draws(), first.draws());
        }
    }

    #[test]
    fn grown_curve_is_a_cache_miss() {
        let service = FitService::new(PredictorConfig::test(), 1, 2);
        service.fit_batch(&[req(0, 10)]);
        let outcomes = service.fit_batch(&[req(0, 14)]);
        assert!(!outcomes[0].cached, "new observations demand a new fit");
        assert_eq!(service.cache_len(), 2, "both prefixes stay memoized");
    }

    #[test]
    fn forget_clears_only_that_job() {
        let service = FitService::new(PredictorConfig::test(), 1, 2);
        service.fit_batch(&[req(0, 10), req(1, 10)]);
        service.forget(JobId::new(0));
        assert!(service.cached(JobId::new(0), 10).is_none());
        assert!(service.cached(JobId::new(1), 10).is_some());
    }

    #[test]
    fn empty_curves_error_without_poisoning_the_batch() {
        let service = FitService::new(PredictorConfig::test(), 1, 2);
        let empty = FitRequest {
            job: JobId::new(9),
            curve: LearningCurve::new(MetricKind::Accuracy),
            horizon: 100,
            query: None,
        };
        let outcomes = service.fit_batch(&[empty, req(1, 10)]);
        assert!(outcomes[0].result.is_err());
        assert!(outcomes[1].result.is_ok());
    }

    #[test]
    fn seed_derivation_separates_neighbouring_inputs() {
        let base = derive_fit_seed(0, 0, 0);
        assert_ne!(base, derive_fit_seed(1, 0, 0));
        assert_ne!(base, derive_fit_seed(0, 1, 0));
        assert_ne!(base, derive_fit_seed(0, 0, 1));
        assert_ne!(derive_fit_seed(0, 1, 0), derive_fit_seed(0, 0, 1));
        assert_eq!(derive_fit_seed(42, 3, 20), derive_fit_seed(42, 3, 20));
    }

    #[test]
    fn explicit_thread_request_beats_environment() {
        assert_eq!(resolve_fit_threads(3), 3);
        assert!(resolve_fit_threads(0) >= 1);
    }

    #[test]
    fn large_batches_complete_on_small_pools() {
        let service = FitService::new(PredictorConfig::test(), 5, 2);
        let requests: Vec<FitRequest> = (0..16).map(|j| req(j, 10)).collect();
        let outcomes = service.fit_batch(&requests);
        assert_eq!(outcomes.len(), 16);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_eq!(service.stats().fits, 16);
    }

    #[test]
    fn shared_hit_is_bitwise_identical_and_reported_uncached() {
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        let writer = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        let cold = writer.fit_batch(&[req(0, 10)]);
        assert_eq!(writer.stats().fits, 1);
        assert_eq!(cache.len(), 1);

        // A *different service instance* (fresh per-run cache) replaying
        // the same request: answered from the shared layer, no fit
        // executed, outcome indistinguishable from a cold fit.
        let reader = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        let replay = reader.fit_batch(&[req(0, 10)]);
        let stats = reader.stats();
        assert_eq!((stats.fits, stats.shared_hits, stats.cache_hits), (0, 1, 0));
        assert!(!replay[0].cached, "a shared hit must look like a fresh fit to callers");
        assert_eq!(
            replay[0].result.as_ref().unwrap().draws(),
            cold[0].result.as_ref().unwrap().draws(),
            "shared hit must be bitwise the cold posterior"
        );
        let reference = sequential_fit(config, 7, &req(0, 10)).expect("reference fits");
        assert_eq!(replay[0].result.as_ref().unwrap().draws(), reference.draws());
    }

    #[test]
    fn shared_hit_lands_in_the_per_run_cache_for_later_batches() {
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        FitService::with_shared_cache(config, 7, 2, Some(cache.clone())).fit_batch(&[req(0, 10)]);
        let reader = FitService::with_shared_cache(config, 7, 2, Some(cache));
        assert!(!reader.fit_batch(&[req(0, 10)])[0].cached);
        assert!(reader.fit_batch(&[req(0, 10)])[0].cached, "second batch hits the per-run cache");
        assert_eq!(reader.stats().shared_hits, 1, "the shared layer was consulted only once");
    }

    #[test]
    fn shared_duplicates_within_one_batch_resolve_once() {
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        FitService::with_shared_cache(config, 7, 2, Some(cache.clone())).fit_batch(&[req(5, 10)]);
        let reader = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        let outcomes = reader.fit_batch(&[req(5, 10), req(5, 10), req(5, 10)]);
        let stats = reader.stats();
        assert_eq!((stats.fits, stats.shared_hits), (0, 1));
        assert!(outcomes.iter().all(|o| !o.cached));
        let first = outcomes[0].result.as_ref().unwrap();
        for o in &outcomes[1..] {
            assert_eq!(o.result.as_ref().unwrap().draws(), first.draws());
        }
        assert_eq!(cache.snapshot().shared_hits, 1, "one lookup served all three duplicates");
    }

    #[test]
    fn different_experiment_seeds_never_share_fits() {
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        let a = FitService::with_shared_cache(config, 1, 2, Some(cache.clone()));
        a.fit_batch(&[req(0, 10)]);
        let b = FitService::with_shared_cache(config, 2, 2, Some(cache.clone()));
        b.fit_batch(&[req(0, 10)]);
        assert_eq!(b.stats().fits, 1, "different derived seed ⇒ different fingerprint");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn fit_errors_are_not_published_to_the_shared_layer() {
        // One observation < min_observations: a deterministic fit error.
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        let service = FitService::with_shared_cache(config, 1, 2, Some(cache.clone()));
        let short = FitRequest { job: JobId::new(0), curve: curve(1), horizon: 100, query: None };
        assert!(service.fit_batch(&[short])[0].result.is_err());
        assert!(cache.is_empty(), "errors recompute; only posteriors are shared");
    }

    #[test]
    fn batched_service_matches_unbatched_service_bitwise() {
        // A boundary's cold fits are independent `Fit` messages, so
        // however the pool spreads them each is bitwise the fit a lone
        // caller runs — and every fit counts as scored by the fused
        // evaluator.
        let config = PredictorConfig::test();
        let requests: Vec<FitRequest> = (0..6).map(|j| req(j, 8 + j as u32 % 3)).collect();
        for threads in [1, 4] {
            let service = FitService::new(config, 7, threads);
            let outcomes = service.fit_batch(&requests);
            let stats = service.stats();
            assert_eq!((stats.fits, stats.batched_fits), (6, 6), "at {threads} threads");
            for (o, r) in outcomes.iter().zip(&requests) {
                let alone = sequential_fit(config, 7, r).unwrap();
                assert_eq!(
                    o.result.as_ref().unwrap().draws(),
                    alone.draws(),
                    "a pooled fit must be bitwise the lone fit at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batched_errors_surface_per_item() {
        let service = FitService::new(PredictorConfig::test(), 7, 2);
        let short = FitRequest { job: JobId::new(8), curve: curve(1), horizon: 100, query: None };
        let outcomes = service.fit_batch(&[req(0, 10), short, req(1, 12)]);
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[1].result.is_err(), "short curve errors inside the batch");
        assert!(outcomes[2].result.is_ok());
    }

    /// One reply channel carrying a fit that panics (two walkers cannot
    /// run a stretch move) and a healthy one — what a batch would see if
    /// one of its requests hit a bug: both keys are answered, the first
    /// with a typed error, and the sole worker lives to run the second,
    /// streaming every kept row in one run per retained snapshot (`test()`
    /// keeps ≈17 of each snapshot's 100), so its `Done` leaves nothing to
    /// absorb. The worker counts the healthy fit finished before it sends
    /// the final run, so absorbing that run is timed as tail.
    #[test]
    fn a_panicking_and_a_healthy_fit_on_one_channel_are_both_answered() {
        let pool = FitPool::new(1);
        let (reply_tx, reply_rx) = unbounded();
        let finished = Arc::new(AtomicUsize::new(0));
        let broken = PredictorConfig { walkers: 2, ..PredictorConfig::test() };
        for (job, config) in [(0, broken), (1, PredictorConfig::test())] {
            pool.send(WorkerMsg::Fit {
                key: (JobId::new(job), 12),
                config: config.with_seed(3),
                curve: curve(12),
                horizon: 100,
                stream: true,
                finished: Arc::clone(&finished),
                reply: reply_tx.clone(),
            });
        }
        drop(reply_tx);
        let mut done = Vec::new();
        let (mut rows, mut runs, mut finished_at_last_run) = ([0usize; 2], [0usize; 2], 0);
        let dim = crate::ensemble::dimension();
        // The watchdog: a lost reply fails here instead of hanging.
        while let Ok(msg) = reply_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            match msg {
                FitReply::Rows((job, _), chunk) => {
                    assert!(!chunk.is_empty() && chunk.len() <= MAX_SLOTS * dim);
                    rows[job.raw() as usize] += chunk.len();
                    runs[job.raw() as usize] += 1;
                    finished_at_last_run = finished.load(Ordering::Acquire);
                }
                FitReply::Done((job, _), result) => done.push((job.raw(), result)),
                // Left unclaimed: the worker takes the half back.
                FitReply::Help(..) => {}
            }
        }
        assert_eq!(done.len(), 2, "both keys answered before the senders dropped");
        assert_eq!(finished.load(Ordering::Acquire), 2, "a contained panic still finishes");
        assert!(matches!(&done[0], (0, Err(Error::CurveFit(why))) if why.contains("fit panicked")));
        let healthy = done[1].1.as_ref().expect("the worker survived to fit the second request");
        assert_eq!(rows[0], 0, "a fit that never sampled streamed nothing");
        assert_eq!(rows[1], healthy.n_draws() * dim, "every kept row streamed");
        let config = PredictorConfig::test();
        let retained = config.steps - (config.steps as f64 * config.burn_in_frac) as usize;
        assert_eq!(runs[1], retained, "one run per retained snapshot");
        assert_eq!(finished_at_last_run, 2, "counted finished before its final run");
    }

    #[test]
    fn services_sharing_one_pool_match_pool_owning_services_bitwise() {
        // Two services with different seeds and a heterogeneous config mix
        // (different sampler lengths) share one 2-thread pool; each must
        // reproduce exactly what its own-pool twin computes, because every
        // request carries its own config and derived seed.
        let pool = FitPool::new(2);
        let long = PredictorConfig { steps: 30, ..PredictorConfig::test() };
        let short = PredictorConfig::test();
        let a = FitService::with_pool(long, 7, Arc::clone(&pool), None);
        let b = FitService::with_pool(short, 21, Arc::clone(&pool), None);
        let requests: Vec<FitRequest> = (0..4).map(|j| req(j, 10 + j as u32)).collect();
        let out_a = a.fit_batch(&requests);
        let out_b = b.fit_batch(&requests);
        let own_a = FitService::new(long, 7, 2).fit_batch(&requests);
        let own_b = FitService::new(short, 21, 2).fit_batch(&requests);
        for ((shared, own), r) in out_a.iter().zip(&own_a).zip(&requests) {
            assert_eq!(
                shared.result.as_ref().unwrap().draws(),
                own.result.as_ref().unwrap().draws(),
                "pool sharing changed a fit for job {:?}",
                r.job
            );
        }
        for (shared, own) in out_b.iter().zip(&own_b) {
            assert_eq!(
                shared.result.as_ref().unwrap().draws(),
                own.result.as_ref().unwrap().draws(),
                "pool sharing leaked config between services"
            );
        }
        assert_eq!(a.threads(), 2);
        assert_eq!(a.pool().threads(), b.pool().threads());
    }

    #[test]
    fn pool_outlives_services_and_shuts_down_cleanly() {
        let pool = FitPool::new(1);
        for seed in 0..3 {
            let service = FitService::with_pool(PredictorConfig::test(), seed, pool.clone(), None);
            assert!(service.fit_batch(&[req(seed, 10)])[0].result.is_ok());
        }
        // Dropping every service left the pool alive and reusable.
        let last = FitService::with_pool(PredictorConfig::test(), 9, pool, None);
        assert!(last.fit_batch(&[req(9, 10)])[0].result.is_ok());
    }

    #[test]
    fn shared_snapshot_reports_per_service_dedup() {
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        let writer = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        writer.fit_batch(&[req(0, 10), req(1, 10)]);
        let ws = writer.shared_snapshot();
        assert_eq!((ws.lookups, ws.shared_hits, ws.inserts), (2, 0, 2));
        assert!(ws.hit_rate().abs() < 1e-12);

        let reader = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        reader.fit_batch(&[req(0, 10), req(1, 10), req(2, 10)]);
        let rs = reader.shared_snapshot();
        assert_eq!((rs.lookups, rs.shared_hits, rs.inserts), (3, 2, 1));
        assert!((rs.hit_rate() - 2.0 / 3.0).abs() < 1e-12);

        // The per-study snapshots sum to the cache's own snapshot.
        let total = cache.snapshot();
        assert_eq!(total.lookups, ws.lookups + rs.lookups);
        assert_eq!(total.shared_hits, ws.shared_hits + rs.shared_hits);
        assert_eq!(total.inserts, ws.inserts + rs.inserts);
    }

    #[test]
    fn snapshot_is_all_zero_without_a_shared_layer() {
        let service = FitService::new(PredictorConfig::test(), 3, 1);
        service.fit_batch(&[req(0, 10)]);
        assert_eq!(service.shared_snapshot(), CacheStatsSnapshot::default());
    }

    #[test]
    fn posterior_digest_pins_run_equivalence() {
        let config = PredictorConfig::test();
        let digest = |threads: usize, seed: u64| {
            let service = FitService::new(config, seed, threads);
            service.fit_batch(&(0..3).map(|j| req(j, 10)).collect::<Vec<_>>());
            service.posterior_digest()
        };
        assert_eq!(digest(1, 7), digest(4, 7), "digest must be worker-count invariant");
        assert_ne!(digest(1, 7), digest(1, 8), "different seeds fit different posteriors");
        let empty = FitService::new(config, 7, 1);
        assert_ne!(digest(1, 7), empty.posterior_digest());
    }

    #[test]
    fn adopted_speculations_are_bitwise_the_demand_fits() {
        let config = PredictorConfig::test();
        for threads in [1, 4] {
            let service = FitService::new(config, 7, threads);
            let requests: Vec<FitRequest> = (0..4).map(|j| req(j, 10 + j as u32)).collect();
            for r in &requests {
                assert!(service.prefetch_fit(r.job, &r.curve, r.horizon));
            }
            let outcomes = service.fit_batch(&requests);
            let spec = service.spec_stats();
            assert_eq!((spec.speculated, spec.adopted, spec.mismatched), (4, 4, 0));
            assert_eq!(spec.wasted(), 0);
            let stats = service.stats();
            assert_eq!(stats.fits, 4, "adopted speculations count as the fits they replaced");
            for (r, o) in requests.iter().zip(&outcomes) {
                assert!(!o.cached, "an adopted speculation must look like a fresh fit");
                let reference = sequential_fit(config, 7, r).expect("reference fits");
                assert_eq!(
                    o.result.as_ref().expect("adopted fit succeeds").draws(),
                    reference.draws(),
                    "speculative fit diverged from the demand fit at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn prefetch_dedups_cached_inflight_and_bounded_work() {
        let service = FitService::new(PredictorConfig::test(), 7, 2).with_prefetch_depth(2);
        let r0 = req(0, 10);
        let r1 = req(1, 10);
        let r2 = req(2, 10);
        assert!(service.prefetch_fit(r0.job, &r0.curve, r0.horizon));
        assert!(
            !service.prefetch_fit(r0.job, &r0.curve, r0.horizon),
            "identical in-flight speculation must dedup"
        );
        assert!(service.prefetch_fit(r1.job, &r1.curve, r1.horizon));
        assert!(
            !service.prefetch_fit(r2.job, &r2.curve, r2.horizon),
            "depth bound must refuse further speculation"
        );
        let outcomes = service.fit_batch(&[r0.clone(), r1, r2]);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let spec = service.spec_stats();
        assert_eq!((spec.speculated, spec.adopted), (2, 2));
        assert!(
            !service.prefetch_fit(r0.job, &r0.curve, r0.horizon),
            "a per-run-cached key must not speculate"
        );
    }

    #[test]
    fn mismatched_speculation_is_cancelled_and_refit_on_demand() {
        let config = PredictorConfig::test();
        let service = FitService::new(config, 7, 2);
        let r = req(3, 12);
        assert!(service.prefetch_fit(r.job, &r.curve, 60), "speculate at a stale horizon");
        let demand = FitRequest { horizon: 100, ..r.clone() };
        let outcomes = service.fit_batch(std::slice::from_ref(&demand));
        let spec = service.spec_stats();
        assert_eq!((spec.adopted, spec.mismatched), (0, 1));
        let reference = sequential_fit(config, 7, &demand).expect("reference fits");
        assert_eq!(
            outcomes[0].result.as_ref().unwrap().draws(),
            reference.draws(),
            "a mismatched speculation must never leak into the demand result"
        );
    }

    #[test]
    fn forget_cancels_that_jobs_speculations() {
        let service = FitService::new(PredictorConfig::test(), 7, 2);
        let r0 = req(0, 10);
        let r1 = req(1, 10);
        assert!(service.prefetch_fit(r0.job, &r0.curve, r0.horizon));
        assert!(service.prefetch_fit(r1.job, &r1.curve, r1.horizon));
        service.forget(JobId::new(0));
        assert_eq!(service.spec_stats().cancelled, 1);
        let outcomes = service.fit_batch(&[r0, r1]);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let spec = service.spec_stats();
        assert_eq!(spec.adopted, 1, "only the surviving speculation is adopted");
        assert_eq!(service.stats().fits, 2, "the forgotten job refits on demand");
    }

    #[test]
    fn prefetch_probes_do_not_perturb_counted_shared_stats() {
        let config = PredictorConfig::test();
        let cache = SharedFitCache::in_memory();
        let writer = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        writer.fit_batch(&[req(0, 10)]);
        let counted_before = cache.snapshot();

        let reader = FitService::with_shared_cache(config, 7, 2, Some(cache.clone()));
        let r = req(0, 10);
        assert!(
            !reader.prefetch_fit(r.job, &r.curve, r.horizon),
            "a shared-layer hit must not be re-speculated"
        );
        let counted_after = cache.snapshot();
        assert_eq!(
            counted_before, counted_after,
            "speculative probes must be invisible to counted dedup accounting"
        );
        // The boundary still takes its counted shared hit as usual.
        let replay = reader.fit_batch(&[r]);
        assert!(!replay[0].cached);
        assert_eq!(reader.stats().shared_hits, 1);
        assert_eq!(cache.snapshot().shared_hits, counted_after.shared_hits + 1);
    }

    #[test]
    fn pool_stats_report_demand_and_speculative_completions() {
        let service = FitService::new(PredictorConfig::test(), 7, 2);
        let r0 = req(0, 10);
        let r1 = req(1, 10);
        assert!(service.prefetch_fit(r0.job, &r0.curve, r0.horizon));
        service.fit_batch(&[r0, r1]);
        let pool = service.pool_stats();
        assert_eq!(pool.threads, 2);
        assert_eq!(pool.speculative_completions, 1);
        assert_eq!(pool.demand_completions, 1);
        assert!(pool.stall_events >= 1);
        assert!(pool.stall_secs > 0.0);
        assert!(pool.stall_p99_ms >= pool.stall_p50_ms);
        assert!(pool.busy_secs > 0.0);
        assert!(pool.uptime_secs > 0.0);
        assert!((0.0..=1.0).contains(&pool.idle_fraction()));
    }

    /// Requests with POP's query at three curve lengths, one job each.
    fn asked(jobs: std::ops::Range<u64>) -> Vec<FitRequest> {
        let query = ExceedanceQuery::new(&[40, 70, 100], 0.6);
        jobs.map(|j| FitRequest { query: Some(query), ..req(j, 9 + j as u32 % 3) }).collect()
    }

    /// A 2-worker pool two studies occupy is full: the batch fits on its
    /// caller, bitwise the reference, answers each query bitwise as the
    /// posterior would, and counts and publishes exactly what the pooled
    /// path does — but offers no half and sends no worker anything.
    #[test]
    fn a_full_pool_fits_on_the_caller_as_the_pooled_path_would() {
        let config = PredictorConfig::test();
        let requests = asked(0..4);
        let pool = FitPool::new(2);
        let (_a, _b) = (pool.occupy(), pool.occupy());
        assert_eq!(pool.occupants(), 2);
        let cache = SharedFitCache::in_memory();
        let service = FitService::with_pool(config, 7, Arc::clone(&pool), Some(cache.clone()));
        let outcomes = service.fit_batch(&requests);
        for (r, o) in requests.iter().zip(&outcomes) {
            let posterior = o.result.as_ref().expect("fit succeeds");
            assert!(!o.cached);
            assert_eq!(posterior.draws(), sequential_fit(config, 7, r).unwrap().draws());
            let want = r.query.unwrap().answer(posterior);
            let got = o.exceedance.as_ref().expect("the query was answered");
            assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        }

        let lone = FitService::with_shared_cache(config, 7, 2, Some(SharedFitCache::in_memory()));
        lone.fit_batch(&requests);
        let (here, there) = (service.stats(), lone.stats());
        assert_eq!((here.fits, here.streamed_fits, here.shared_inserts), (4, 4, 4));
        assert_eq!(
            (here.fits, here.streamed_fits, here.streamed_runs, here.shared_inserts),
            (there.fits, there.streamed_fits, there.streamed_runs, there.shared_inserts),
        );
        assert_eq!(here.halves_offered, 0, "a caller-run fit keeps its whole init");
        assert!(there.halves_offered > 0);
        let stats = pool.stats();
        assert_eq!((stats.caller_fits, stats.demand_completions), (4, 0));
        assert!(stats.busy_secs.abs() < f64::EPSILON, "no worker fitted");
        // Published with its answer: a twin study takes memoized hits.
        let twin = FitService::with_pool(config, 7, Arc::clone(&pool), Some(cache));
        let again = twin.fit_batch(&requests);
        assert_eq!((twin.stats().shared_hits, twin.stats().memo_hits), (4, 4));
        for (o, a) in outcomes.iter().zip(&again) {
            assert_eq!(o.exceedance, a.exceedance);
        }
        assert_eq!(service.posterior_digest(), lone.posterior_digest());
    }

    /// A fit that panics on a full pool's caller is its key's typed error,
    /// and the caller's fresh scratch fits the next request bitwise.
    #[test]
    fn a_panic_in_a_caller_run_fit_is_that_keys_error() {
        let pool = FitPool::new(1);
        let (_a, _b) = (pool.occupy(), pool.occupy());
        let broken = PredictorConfig { walkers: 2, ..PredictorConfig::test() };
        let service = FitService::with_pool(broken, 7, Arc::clone(&pool), None);
        match &service.fit_batch(&[req(0, 10)])[0].result {
            Err(Error::CurveFit(why)) => assert!(why.contains("fit panicked"), "{why}"),
            other => panic!("expected a typed fit error, got {other:?}"),
        }
        let config = PredictorConfig::test();
        let healthy = FitService::with_pool(config, 7, Arc::clone(&pool), None);
        let out = healthy.fit_batch(&[req(1, 12)]).remove(0);
        assert_eq!(
            out.result.unwrap().draws(),
            sequential_fit(config, 7, &req(1, 12)).unwrap().draws()
        );
        assert_eq!(pool.stats().caller_fits, 2);
    }

    /// A pool fewer studies occupy than it has workers, or one study alone,
    /// keeps the hand-off: halves are offered and rows streamed.
    #[test]
    fn a_pool_short_of_occupants_hands_fits_to_its_workers() {
        let config = PredictorConfig::test();
        for (threads, occupants) in [(2, 0), (2, 1), (1, 1), (4, 3)] {
            let pool = FitPool::new(threads);
            let _held: Vec<_> = (0..occupants).map(|_| pool.occupy()).collect();
            let service = FitService::with_pool(config, 7, Arc::clone(&pool), None);
            service.fit_batch(&asked(0..3));
            let stats = service.stats();
            let at = format!("{threads} workers, {occupants} occupants");
            assert_eq!(stats.halves_offered, 3, "{at}");
            assert!(stats.streamed_runs >= 3, "{at}");
            assert_eq!((pool.stats().caller_fits, pool.stats().demand_completions), (0, 3), "{at}");
        }
        let pool = FitPool::new(1);
        let guards = (pool.occupy(), pool.occupy());
        drop(guards);
        assert_eq!(pool.occupants(), 0, "a dropped guard releases its count");
    }

    /// The half the waiting caller runs panics: that key alone is a typed
    /// error, the batch answers its other key, and the pool and the
    /// caller's fresh scratch serve the next fits bitwise.
    #[test]
    fn a_panic_in_the_callers_half_is_that_keys_error_and_nothing_else() {
        let config = PredictorConfig::test();
        let service = FitService::new(config, 7, 1);
        PANIC_WHEN_HELPING.set(10);
        // Whether the caller or the worker runs a half is a race; with one
        // worker and an idle caller, the caller almost always wins it.
        let (mut job, mut outcomes) = (0, Vec::new());
        while outcomes.first().is_none_or(|o: &FitOutcome| o.result.is_ok()) {
            assert!(job < 40, "the caller never claimed a half of a 10-epoch fit");
            outcomes = service.fit_batch(&[req(job, 10), req(job + 1, 12)]);
            job += 2;
        }
        PANIC_WHEN_HELPING.set(0);
        match &outcomes[0].result {
            Err(Error::CurveFit(why)) => {
                assert!(why.contains("fit panicked: injected panic"), "{why}");
            }
            other => panic!("expected a typed fit error, got {other:?}"),
        }
        let healthy = sequential_fit(config, 7, &req(job - 1, 12)).unwrap();
        assert_eq!(outcomes[1].result.as_ref().unwrap().draws(), healthy.draws());

        let helped = service.stats().halves_helped;
        for next in job..job + 40 {
            let r = req(next, 10);
            let out = service.fit_batch(std::slice::from_ref(&r)).remove(0);
            assert_eq!(out.result.unwrap().draws(), sequential_fit(config, 7, &r).unwrap().draws());
            if service.stats().halves_helped > helped {
                return;
            }
        }
        panic!("the caller never ran a half again");
    }
}
