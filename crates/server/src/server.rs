//! The admission front door: quotas, one bounded admission queue,
//! backpressure.
//!
//! A [`Server`] owns a pool of shard workers, one [`FitPool`] for all of
//! them, and (optionally) one [`SharedFitCache`] it hands to every study.
//! A shard worker occupies the fit pool while it runs a study, so a full
//! server fits on its shard threads (see the crate docs).
//! Tenants submit [`StudySpec`]s; admission checks the tenant's in-flight
//! quota and tries a non-blocking push into the one bounded queue every
//! worker pulls from, so a study starts on the first idle worker. A full
//! queue or an exhausted quota rejects with a `retry_after` hint instead
//! of queueing unboundedly — heavy traffic degrades into explicit
//! backpressure, never into unbounded memory growth.
//!
//! Studies are hermetic (each carries its own workload, policy, and seed),
//! so which worker runs a study can never change its trace — only *when*
//! it runs. Cross-study sharing happens exclusively below the policy, in
//! the content-addressed fit cache, whose hits are bitwise the fits they
//! replace. A study that panics is answered with a [`StudyFailed`]; its
//! worker and its tenant's quota slot survive it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use hyperdrive_curve::{CacheStatsSnapshot, FitPool, SharedFitCache};
use parking_lot::Mutex;

use crate::study::{run_study, StudyId, StudyOutcome, StudySpec};

/// Server sizing and admission limits.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of shard workers (each runs one study at a time).
    pub shards: usize,
    /// Fit worker threads in the pool every study shares (`0` = the
    /// `HYPERDRIVE_FIT_THREADS` / available-parallelism default). While
    /// at least this many studies run, and at least two, each fits on its
    /// own shard thread instead and the pool's workers sit idle (see the
    /// crate docs).
    pub fit_threads: usize,
    /// Bounded depth of the one admission queue all shard workers pull
    /// from (studies waiting beyond those executing). `0` means a study is
    /// accepted only while some worker is parked in `recv`.
    pub queue_capacity: usize,
    /// Maximum in-flight (queued + running) studies per tenant.
    pub tenant_quota: usize,
    /// The `retry_after` hint attached to saturation/quota rejections.
    pub retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            fit_threads: 0,
            queue_capacity: 256,
            tenant_quota: 256,
            retry_after: Duration::from_millis(50),
        }
    }
}

/// Why a study was not admitted.
#[derive(Debug)]
pub enum AdmissionError {
    /// The tenant already has `quota` studies in flight. The spec is
    /// returned so the caller can resubmit without cloning.
    QuotaExhausted {
        /// The rejected spec.
        spec: Box<StudySpec>,
        /// The tenant's in-flight count at rejection time.
        in_flight: usize,
        /// The configured per-tenant quota.
        quota: usize,
        /// When to retry.
        retry_after: Duration,
    },
    /// The admission queue holds
    /// [`queue_capacity`](ServerConfig::queue_capacity) waiting studies.
    Saturated {
        /// The rejected spec.
        spec: Box<StudySpec>,
        /// When to retry.
        retry_after: Duration,
    },
    /// The server is shutting down and admits nothing.
    ShuttingDown(Box<StudySpec>),
}

impl AdmissionError {
    /// The backoff hint, if the rejection is retryable.
    #[must_use]
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            AdmissionError::QuotaExhausted { retry_after, .. }
            | AdmissionError::Saturated { retry_after, .. } => Some(*retry_after),
            AdmissionError::ShuttingDown(_) => None,
        }
    }

    /// Recovers the rejected spec for resubmission.
    #[must_use]
    pub fn into_spec(self) -> StudySpec {
        match self {
            AdmissionError::QuotaExhausted { spec, .. }
            | AdmissionError::Saturated { spec, .. }
            | AdmissionError::ShuttingDown(spec) => *spec,
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QuotaExhausted { spec, in_flight, quota, retry_after } => write!(
                f,
                "tenant {:?} quota exhausted ({in_flight}/{quota} in flight); retry after {:?}",
                spec.tenant, retry_after
            ),
            AdmissionError::Saturated { retry_after, .. } => {
                write!(f, "admission queue full; retry after {retry_after:?}")
            }
            AdmissionError::ShuttingDown(_) => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An admitted study that panicked instead of producing an outcome.
#[derive(Debug)]
pub struct StudyFailed {
    /// The server-assigned id of the study.
    pub id: StudyId,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for StudyFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "study {} panicked: {}", self.id, self.message)
    }
}

impl std::error::Error for StudyFailed {}

/// A handle to one admitted study, redeemable once whichever shard worker
/// took it from the admission queue has answered.
#[derive(Debug)]
pub struct StudyTicket {
    /// The server-assigned study id.
    pub id: StudyId,
    rx: Receiver<Result<StudyOutcome, StudyFailed>>,
}

impl StudyTicket {
    /// Blocks until the study finishes or fails.
    ///
    /// # Errors
    ///
    /// [`StudyFailed`] with the panic message if the study panicked (a
    /// spec the engine refuses, such as zero machines or zero jobs).
    pub fn try_wait(self) -> Result<StudyOutcome, StudyFailed> {
        self.rx.recv().expect("a shard worker answers every admitted study")
    }

    /// Blocks until the study finishes.
    ///
    /// # Panics
    ///
    /// Panics if the study panicked; [`try_wait`](Self::try_wait) returns
    /// that as an error instead.
    #[must_use]
    pub fn wait(self) -> StudyOutcome {
        self.try_wait().expect("the admitted study completes")
    }
}

/// One queued study.
struct StudyJob {
    id: StudyId,
    spec: StudySpec,
    submitted: Instant,
    reply: Sender<Result<StudyOutcome, StudyFailed>>,
}

/// Per-tenant in-flight accounting, shared by admission and shard workers.
type TenantLoads = Arc<Mutex<HashMap<String, usize>>>;

/// The multi-tenant study server.
///
/// Dropping the server closes admission and joins every shard worker;
/// studies already admitted run to completion first, and their
/// [`StudyTicket`]s remain redeemable afterwards.
pub struct Server {
    config: ServerConfig,
    queue: Sender<StudyJob>,
    workers: Vec<std::thread::JoinHandle<()>>,
    pool: Arc<FitPool>,
    cache: Option<Arc<SharedFitCache>>,
    tenants: TenantLoads,
    next_id: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("shards", &self.workers.len())
            .field("shared_cache", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server with a fresh in-memory shared fit cache.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Self::with_cache(config, Some(SharedFitCache::in_memory()))
    }

    /// Starts a server against an explicit shared fit cache (`None`
    /// disables cross-study dedup; every study fits cold).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    #[must_use]
    pub fn with_cache(config: ServerConfig, cache: Option<Arc<SharedFitCache>>) -> Self {
        assert!(config.shards > 0, "a server needs at least one shard");
        let pool = FitPool::new(config.fit_threads);
        let tenants: TenantLoads = Arc::new(Mutex::new(HashMap::new()));
        let (queue, rx) = bounded::<StudyJob>(config.queue_capacity);
        let workers = (0..config.shards)
            .map(|_| {
                let rx = rx.clone();
                let pool = Arc::clone(&pool);
                let cache = cache.clone();
                let tenants = Arc::clone(&tenants);
                std::thread::spawn(move || shard_loop(&rx, &pool, cache, &tenants))
            })
            .collect();
        Server {
            config,
            queue,
            workers,
            pool,
            cache,
            tenants,
            next_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Charges one in-flight slot to `tenant`, or reports the load that
    /// blocked it.
    fn try_charge(&self, tenant: &str) -> Result<(), usize> {
        let mut loads = self.tenants.lock();
        let slot = loads.entry(tenant.to_string()).or_insert(0);
        if *slot >= self.config.tenant_quota {
            return Err(*slot);
        }
        *slot += 1;
        Ok(())
    }

    fn release(tenants: &TenantLoads, tenant: &str) {
        let mut loads = tenants.lock();
        if let Some(slot) = loads.get_mut(tenant) {
            *slot = slot.saturating_sub(1);
            if *slot == 0 {
                loads.remove(tenant);
            }
        }
    }

    /// Admits a study without blocking: quota check, then a bounded push
    /// into the admission queue.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QuotaExhausted`] when the tenant is at quota,
    /// [`AdmissionError::Saturated`] when the admission queue is full.
    /// Both return the spec and a `retry_after` hint.
    pub fn submit(&self, spec: StudySpec) -> Result<StudyTicket, AdmissionError> {
        if let Err(in_flight) = self.try_charge(&spec.tenant) {
            return Err(AdmissionError::QuotaExhausted {
                spec: Box::new(spec),
                in_flight,
                quota: self.config.tenant_quota,
                retry_after: self.config.retry_after,
            });
        }
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (reply, rx) = unbounded();
        let job = StudyJob { id, spec, submitted: Instant::now(), reply };
        match self.queue.try_send(job) {
            Ok(()) => Ok(StudyTicket { id, rx }),
            Err(TrySendError::Full(job)) => {
                Self::release(&self.tenants, &job.spec.tenant);
                Err(AdmissionError::Saturated {
                    spec: Box::new(job.spec),
                    retry_after: self.config.retry_after,
                })
            }
            Err(TrySendError::Disconnected(job)) => {
                Self::release(&self.tenants, &job.spec.tenant);
                Err(AdmissionError::ShuttingDown(Box::new(job.spec)))
            }
        }
    }

    /// Admits a study, blocking on a full admission queue instead of
    /// rejecting. Quota rejections still fail fast — a blocked submit
    /// holding a quota slot would deadlock the tenant against itself.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QuotaExhausted`] or
    /// [`AdmissionError::ShuttingDown`].
    pub fn submit_blocking(&self, spec: StudySpec) -> Result<StudyTicket, AdmissionError> {
        if let Err(in_flight) = self.try_charge(&spec.tenant) {
            return Err(AdmissionError::QuotaExhausted {
                spec: Box::new(spec),
                in_flight,
                quota: self.config.tenant_quota,
                retry_after: self.config.retry_after,
            });
        }
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (reply, rx) = unbounded();
        let job = StudyJob { id, spec, submitted: Instant::now(), reply };
        match self.queue.send(job) {
            Ok(()) => Ok(StudyTicket { id, rx }),
            Err(crossbeam_channel::SendError(job)) => {
                Self::release(&self.tenants, &job.spec.tenant);
                Err(AdmissionError::ShuttingDown(Box::new(job.spec)))
            }
        }
    }

    /// The number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The fit pool every admitted study shares; its
    /// [`stats`](FitPool::stats) count the fits studies ran on their own
    /// shard threads as `caller_fits`.
    #[must_use]
    pub fn pool(&self) -> &Arc<FitPool> {
        &self.pool
    }

    /// The shared content-addressed fit cache, if cross-study dedup is on.
    #[must_use]
    pub fn shared_cache(&self) -> Option<&Arc<SharedFitCache>> {
        self.cache.as_ref()
    }

    /// Process-wide shared-cache counters (per-study snapshots in each
    /// [`StudyOutcome`] sum to exactly this).
    #[must_use]
    pub fn cache_snapshot(&self) -> CacheStatsSnapshot {
        self.cache.as_ref().map(|c| c.snapshot()).unwrap_or_default()
    }

    /// A tenant's current in-flight study count.
    #[must_use]
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.tenants.lock().get(tenant).copied().unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Closing the queue (swapping in a sender whose receiver is gone)
        // ends every worker's recv loop once the queue drains; admitted
        // studies finish and their tickets stay valid.
        self.queue = bounded(0).0;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One shard worker: take the next study from the admission queue, run it
/// on the shared pool/cache, release the tenant slot, deliver the outcome
/// — or, if the study panicked, a [`StudyFailed`], and carry on.
fn shard_loop(
    rx: &Receiver<StudyJob>,
    pool: &Arc<FitPool>,
    cache: Option<Arc<SharedFitCache>>,
    tenants: &TenantLoads,
) {
    while let Ok(mut job) = rx.recv() {
        let queue_latency = job.submitted.elapsed();
        // No study speculates here: a speculative fit burns pool time
        // every other tenant shares. Pinned here, not in `run_study`, so
        // the standalone path keeps the spec's choice; speculation never
        // changes a trace, so neither does the pin.
        job.spec.policy.fit_prefetch = Some(false);
        // Unwind safety: the study's own state dies with the unwind, and
        // the pool and cache it shares are reached only through their
        // synchronised APIs (a cache entry is published whole or not at
        // all), so the next study sees them intact.
        let run = AssertUnwindSafe(|| {
            run_study(&job.spec, job.id, Some(Arc::clone(pool)), cache.clone(), queue_latency)
        });
        // Counted on the pool while it runs: once the running studies
        // fill the pool, each fits on this thread instead of handing off.
        let occupant = pool.occupy();
        let answer = catch_unwind(run);
        drop(occupant);
        let answer = answer.map_err(|panic| StudyFailed {
            id: job.id,
            message: panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "no message".to_string()),
        });
        // Release before replying so a waiter that resubmits immediately
        // sees its freed quota slot.
        Server::release(tenants, &job.spec.tenant);
        let _ = job.reply.send(answer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::run_study_standalone;
    use hyperdrive_core::PopConfig;
    use hyperdrive_curve::{PredictorConfig, SpecStats};
    use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
    use hyperdrive_types::SimTime;
    use hyperdrive_workload::CifarWorkload;

    fn study(tenant: &str, seed: u64) -> StudySpec {
        let workload = CifarWorkload::new().with_max_epochs(20);
        StudySpec {
            tenant: tenant.to_string(),
            workload: ExperimentWorkload::from_workload(&workload, 4, seed),
            spec: ExperimentSpec::new(2)
                .with_stop_on_target(false)
                .with_tmax(SimTime::from_hours(24.0)),
            policy: PopConfig {
                predictor: PredictorConfig::test(),
                fit_threads: 1,
                ..Default::default()
            },
            seed,
        }
    }

    #[test]
    fn server_outcomes_match_standalone_and_duplicates_dedup() {
        let server = Server::new(ServerConfig { shards: 2, fit_threads: 2, ..Default::default() });
        // Three studies; the third duplicates the first (same workload
        // seed + study seed, different tenant) so its fits resolve from
        // the shared cache. It is submitted only after its twin finishes
        // — concurrent twins still trace identically, but whether any
        // given fit hits would depend on worker timing.
        let specs = [study("alice", 7), study("bob", 11), study("carol", 7)];
        let first_wave: Vec<_> =
            specs[..2].iter().map(|s| server.submit(s.clone()).expect("admitted")).collect();
        let mut outcomes: Vec<_> = first_wave.into_iter().map(StudyTicket::wait).collect();
        outcomes.push(server.submit(specs[2].clone()).expect("admitted").wait());

        for (spec, outcome) in specs.iter().zip(&outcomes) {
            let reference = run_study_standalone(spec);
            assert_eq!(outcome.trace, reference.trace, "server trace diverged from standalone");
            assert_eq!(outcome.posterior_digest, reference.posterior_digest);
            assert_eq!(outcome.predictions, reference.predictions);
        }
        // The duplicate ran second (admission order): every posterior it
        // needed was already published by its twin.
        let dup = outcomes.iter().find(|o| o.tenant == "carol").expect("carol completed");
        assert!(dup.shared_cache.shared_hits > 0, "duplicate study never hit the shared cache");
        // Per-study snapshots sum to the process totals.
        let total: u64 = outcomes.iter().map(|o| o.shared_cache.lookups).sum();
        assert_eq!(total, server.cache_snapshot().lookups);
        let hits: u64 = outcomes.iter().map(|o| o.shared_cache.shared_hits).sum();
        assert_eq!(hits, server.cache_snapshot().shared_hits);
    }

    #[test]
    fn quota_rejects_and_releases_on_completion() {
        let server = Server::new(ServerConfig {
            shards: 1,
            fit_threads: 1,
            tenant_quota: 1,
            ..Default::default()
        });
        let first = server.submit(study("alice", 1)).expect("first study admitted");
        let err = server.submit(study("alice", 2)).expect_err("quota of 1 rejects the second");
        match &err {
            AdmissionError::QuotaExhausted { in_flight, quota, .. } => {
                assert_eq!((*in_flight, *quota), (1, 1));
            }
            other => panic!("expected QuotaExhausted, got {other:?}"),
        }
        assert!(err.retry_after().is_some(), "quota rejection must carry a backoff hint");
        // A different tenant is unaffected.
        let bob = server.submit(study("bob", 2)).expect("other tenants have their own quota");
        // Completion frees the slot: the same spec resubmits cleanly.
        let _ = first.wait();
        let retry = server.submit(err.into_spec()).expect("slot freed after completion");
        let _ = retry.wait();
        let _ = bob.wait();
        assert_eq!(server.tenant_in_flight("alice"), 0);
        assert_eq!(server.tenant_in_flight("bob"), 0);
    }

    #[test]
    fn saturated_shard_rejects_with_retry_hint() {
        // One shard, queue depth 1: the worker takes the first study, the
        // second occupies the only slot, the third must bounce (studies
        // run for milliseconds; submits are microseconds apart).
        let server = Server::new(ServerConfig {
            shards: 1,
            fit_threads: 1,
            queue_capacity: 1,
            retry_after: Duration::from_millis(7),
            ..Default::default()
        });
        let mut tickets = Vec::new();
        let mut rejection = None;
        for seed in 0..8 {
            match server.submit(study("alice", seed)) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejection = Some(e);
                    break;
                }
            }
        }
        let err = rejection.expect("a depth-1 queue must saturate within 8 instant submits");
        match &err {
            AdmissionError::Saturated { retry_after, .. } => {
                assert_eq!(*retry_after, Duration::from_millis(7));
            }
            other => panic!("expected Saturated, got {other:?}"),
        }
        // The rejected study's quota slot was rolled back: in-flight can
        // never exceed the number of admitted (still-unfinished) studies.
        assert!(server.tenant_in_flight("alice") <= tickets.len());
        // ...and a blocking resubmit eventually gets through.
        let blocked = server.submit_blocking(err.into_spec()).expect("blocking submit admits");
        for t in tickets {
            let _ = t.wait();
        }
        let _ = blocked.wait();
        assert_eq!(server.tenant_in_flight("alice"), 0);
    }

    #[test]
    fn studies_never_speculate_on_the_server() {
        let server = Server::new(ServerConfig { shards: 1, fit_threads: 2, ..Default::default() });
        let mut spec = study("alice", 5);
        spec.policy.fit_prefetch = Some(true);
        let outcome = server.submit(spec.clone()).expect("admitted").wait();
        assert_eq!(outcome.spec_stats, SpecStats::default(), "a server study speculated");
        // The standalone run does speculate; the trace and the posteriors
        // cannot tell.
        let reference = run_study_standalone(&spec);
        assert_eq!(outcome.trace, reference.trace);
        assert_eq!(outcome.posterior_digest, reference.posterior_digest);
    }

    #[test]
    fn dropping_the_server_completes_admitted_studies() {
        let server = Server::new(ServerConfig { shards: 2, fit_threads: 1, ..Default::default() });
        let tickets: Vec<_> =
            (0..3).map(|seed| server.submit(study("alice", seed)).expect("admitted")).collect();
        drop(server); // joins workers; queues drain first
        for t in tickets {
            let outcome = t.wait();
            assert!(outcome.total_epochs > 0, "admitted study must have run");
        }
    }

    #[test]
    fn cache_off_still_matches_standalone() {
        let server = Server::with_cache(
            ServerConfig { shards: 2, fit_threads: 2, ..Default::default() },
            None,
        );
        let spec = study("alice", 3);
        let outcome = server.submit(spec.clone()).expect("admitted").wait();
        let reference = run_study_standalone(&spec);
        assert_eq!(outcome.trace, reference.trace);
        assert_eq!(outcome.posterior_digest, reference.posterior_digest);
        assert_eq!(outcome.shared_cache, CacheStatsSnapshot::default());
    }
}
