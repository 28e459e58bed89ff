//! The POP scheduling policy (§3, §5.3).
//!
//! At every evaluation boundary `b` of a job, POP:
//!
//! 1. applies the model-owner **kill threshold** (§2.1): a job still at or
//!    below known non-learning performance after a warmup number of
//!    evaluations is Poor and terminated;
//! 2. fits the probabilistic learning-curve model and computes the job's
//!    expected remaining time and **prediction confidence** `p` (§3.1.1);
//! 3. terminates jobs whose confidence falls below the lower bound
//!    (§5.3: "if it is less than 0.05 we terminate it");
//! 4. recomputes the **dynamic threshold** `p*` and promising-slot count
//!    from the confidences of all active jobs (§3.2), labels every active
//!    job with its priority, and classifies the current job;
//! 5. **Promising** jobs keep their machine; **Opportunistic** jobs are
//!    suspended at the boundary when other work is waiting ("if the job is
//!    opportunistic we suspend it and start a new job"), implementing
//!    round-robin sharing of the opportunistic pool.

use std::collections::HashMap;
use std::fmt::Write as _;

use hyperdrive_curve::{FitRequest, FitService, PredictorConfig};
use hyperdrive_framework::{
    ExperimentResult, JobDecision, JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy,
};
use hyperdrive_types::{JobId, LearningCurve, SimTime};

use crate::allocation::{allocate_slots, AllocationPoint};
use crate::ert::{ert_from_exceedance, ert_query};

/// How POP applies the §2.1 early-kill domain knowledge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KillRule {
    /// Use the workload's [`hyperdrive_types::DomainKnowledge`] threshold
    /// and warmup.
    DomainDefault,
    /// Use an explicit threshold/warmup pair.
    Custom {
        /// Normalized performance at or below which a job is Poor.
        threshold: f64,
        /// Evaluation boundaries to wait before applying the threshold.
        warmup_evals: u32,
    },
    /// Never kill on the threshold (ablation).
    Disabled,
}

/// Deterministic virtual-time model of curve-fitting overhead.
///
/// The simulator has no business measuring wall-clock — that would make
/// virtual timelines depend on host load and physical worker count. This
/// model instead prices each fit from its likelihood-evaluation count and
/// schedules the batch onto `modeled_workers` *virtual* workers (greedy
/// least-loaded assignment, in request order), charging the resulting
/// makespan to the decision. `modeled_workers` is a model parameter,
/// deliberately decoupled from the physical `fit_threads` pool size, so
/// results stay byte-identical across physical thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitCostModel {
    /// Modeled seconds per 1000 ensemble likelihood evaluations.
    pub secs_per_kiloeval: f64,
    /// Virtual worker count the batch is scheduled onto.
    pub modeled_workers: usize,
    /// Modeled throughput multiplier of the batched-kernel likelihood,
    /// dividing every fit's price (every fit runs it). `1.0` prices a fit
    /// at `secs_per_kiloeval` as written. Must be positive.
    pub fast_math_speedup: f64,
    /// Modeled throughput multiplier of the fused half-ensemble
    /// evaluator, dividing every fit's price together with
    /// `fast_math_speedup` (every fit is a fused fit). `1.0` prices it like
    /// per-proposal scoring. Must be positive.
    pub batch_fit_speedup: f64,
}

impl FitCostModel {
    /// Modeled cost (seconds) of one fit at `config` fidelity over
    /// `n_obs` observations.
    #[must_use]
    pub fn fit_secs(&self, config: &PredictorConfig, n_obs: usize) -> f64 {
        let evals = config.walkers * config.steps * n_obs.clamp(1, config.max_obs);
        let kiloeval_secs =
            self.secs_per_kiloeval / self.fast_math_speedup / self.batch_fit_speedup;
        evals as f64 / 1000.0 * kiloeval_secs
    }

    /// Makespan of scheduling `costs` (in request order) onto the modeled
    /// workers: each fit goes to the least-loaded worker, and the batch
    /// takes as long as the busiest worker. With one modeled worker this
    /// degenerates to the serial sum.
    #[must_use]
    pub fn makespan_secs(&self, costs: &[f64]) -> f64 {
        let workers = self.modeled_workers.max(1);
        let mut load = vec![0.0f64; workers];
        for c in costs {
            let min = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
                .map(|(i, _)| i)
                .expect("at least one worker");
            load[min] += c;
        }
        load.into_iter().fold(0.0, f64::max)
    }
}

/// Configuration for [`PopPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct PopConfig {
    /// Curve-model fidelity.
    pub predictor: PredictorConfig,
    /// Dedicated slots per promising configuration (`k`; 1 for sequential
    /// training).
    pub k: usize,
    /// Confidence lower bound below which a job is terminated (§5.3:
    /// 0.05).
    pub lower_bound_confidence: f64,
    /// Early-kill rule.
    pub kill_rule: KillRule,
    /// Evaluation boundary override; `None` uses the workload's `b`.
    pub boundary: Option<u32>,
    /// Ablation: replace the dynamic `p*` with a static threshold
    /// (§2.2c's strawman).
    pub static_threshold: Option<f64>,
    /// Physical worker threads for the parallel fit service (0 =
    /// `HYPERDRIVE_FIT_THREADS`, falling back to one per core). Results
    /// are byte-identical whatever this is set to; it only changes how
    /// fast they arrive.
    pub fit_threads: usize,
    /// Optional virtual-time accounting of prediction overhead: when set,
    /// each boundary decision reports the modeled makespan of its fit
    /// batch, which the engine charges to the decided job.
    pub fit_cost: Option<FitCostModel>,
    /// Speculative ahead-of-boundary fit prefetch: the engine hints each
    /// boundary epoch at *issue* time and the fit service computes the
    /// boundary fit while the epoch runs, so the decision collects an
    /// already-finished posterior instead of launching it synchronously.
    /// Prefetch changes *when* fits compute, never *what* they compute —
    /// traces stay byte-identical (see `FitService::prefetch_fit`).
    /// Off unless `Some(true)`: `None` and `Some(false)` both mean off, in
    /// every environment. `hyperdrive-server` runs every study with it
    /// off, whatever its spec says.
    pub fit_prefetch: Option<bool>,
    /// Base seed for prediction determinism.
    pub seed: u64,
}

impl Default for PopConfig {
    fn default() -> Self {
        PopConfig {
            predictor: PredictorConfig::fast(),
            k: 1,
            lower_bound_confidence: 0.05,
            kill_rule: KillRule::DomainDefault,
            boundary: None,
            static_threshold: None,
            fit_threads: 0,
            fit_cost: None,
            fit_prefetch: None,
            seed: 0,
        }
    }
}

/// POP's latest assessment of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobAssessment {
    /// Prediction confidence `p`.
    pub confidence: f64,
    /// Expected remaining time to target.
    pub ert: SimTime,
    /// Epoch at which the assessment was made.
    pub epoch: u32,
}

/// One recorded allocation decision, for the Fig. 4 reproduction.
#[derive(Debug, Clone)]
pub struct AllocationSnapshot {
    /// When the decision was taken.
    pub now: SimTime,
    /// Active (non-terminated) jobs at the time.
    pub active_jobs: usize,
    /// Jobs classified promising.
    pub promising_jobs: usize,
    /// Jobs currently occupying machines.
    pub running_jobs: usize,
    /// Of the running jobs, how many are classified promising — the
    /// numerator of Fig. 4c's "ratio of promising slots".
    pub promising_running: usize,
    /// The dynamic threshold `p*` in force.
    pub p_threshold: f64,
    /// Slots granted to the promising pool.
    pub promising_slots: usize,
    /// The full desired/deserved curve.
    pub curve: Vec<AllocationPoint>,
}

/// The POP scheduling policy.
#[derive(Debug)]
pub struct PopPolicy {
    config: PopConfig,
    assessments: HashMap<JobId, JobAssessment>,
    timeline: Vec<AllocationSnapshot>,
    /// The deterministic parallel fit pool; all curve predictions flow
    /// through it so unchanged prefixes are never re-fit.
    service: FitService,
    /// Modeled prediction overhead accrued since the engine last drained
    /// it via `take_decision_overhead` (zero unless `fit_cost` is set).
    pending_overhead: SimTime,
    /// Step-4 ranking scratch, reused across boundary decisions: one pass
    /// over the active jobs fills `confidences` (for `allocate_slots`) and
    /// `ranked` together, and the promising set is rebuilt in place — so
    /// boundary classification allocates nothing once the vectors have
    /// warmed to the active-job count.
    confidences: Vec<f64>,
    ranked: Vec<(JobId, f64)>,
    promising: Vec<JobId>,
}

impl PopPolicy {
    /// Creates POP with default (paper §5.3) parameters and fast predictor
    /// fidelity.
    pub fn new() -> Self {
        Self::with_config(PopConfig::default())
    }

    /// Creates POP with explicit configuration; its fits are shared with
    /// no other policy.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the lower bound is outside `[0, 1]`.
    pub fn with_config(config: PopConfig) -> Self {
        let service = FitService::new(config.predictor, config.seed, config.fit_threads);
        Self::with_service(config, service)
    }

    /// [`PopPolicy::with_config`] with a shared content-addressed fit
    /// cache: every policy handed the same cache reuses the others' fits
    /// (`None` = never share fits across runs). `PopConfig` stays `Copy`,
    /// so the handle is a separate argument rather than a field.
    ///
    /// # Panics
    ///
    /// As [`PopPolicy::with_config`].
    pub fn with_config_and_cache(
        config: PopConfig,
        cache: Option<std::sync::Arc<hyperdrive_curve::SharedFitCache>>,
    ) -> Self {
        let service =
            FitService::with_shared_cache(config.predictor, config.seed, config.fit_threads, cache);
        Self::with_service(config, service)
    }

    /// [`PopPolicy::with_config`] fitting through an **existing**
    /// [`FitPool`](hyperdrive_curve::FitPool) instead of spawning one:
    /// `config.fit_threads` is ignored and the pool's width applies. This
    /// is the multi-tenant server's constructor — every study's policy
    /// binds to one process-global pool (and optionally one shared
    /// content-addressed cache), and because per-fit seeds derive from
    /// `config.seed` alone, the resulting traces are byte-identical to
    /// [`PopPolicy::with_config`] at any pool width.
    ///
    /// # Panics
    ///
    /// As [`PopPolicy::with_config`].
    pub fn with_config_pooled(
        config: PopConfig,
        pool: std::sync::Arc<hyperdrive_curve::FitPool>,
        cache: Option<std::sync::Arc<hyperdrive_curve::SharedFitCache>>,
    ) -> Self {
        let service = FitService::with_pool(config.predictor, config.seed, pool, cache);
        Self::with_service(config, service)
    }

    fn with_service(config: PopConfig, service: FitService) -> Self {
        assert!(config.k > 0, "k must be positive");
        assert!(
            (0.0..=1.0).contains(&config.lower_bound_confidence),
            "lower bound must be a probability"
        );
        PopPolicy {
            config,
            assessments: HashMap::new(),
            timeline: Vec::new(),
            service,
            pending_overhead: SimTime::ZERO,
            confidences: Vec::new(),
            ranked: Vec::new(),
            promising: Vec::new(),
        }
    }

    /// The allocation decisions recorded so far (Fig. 4 instrumentation).
    pub fn timeline(&self) -> &[AllocationSnapshot] {
        &self.timeline
    }

    /// Renders the canonical decision trace of a run this policy scheduled:
    /// the event log as CSV, one `decision,…` line per [`timeline`]
    /// snapshot, and a final `end,…` line. These are the bytes the golden
    /// traces and the server's byte-identity contract compare.
    ///
    /// [`timeline`]: PopPolicy::timeline
    pub fn render_trace(&self, result: &ExperimentResult) -> String {
        let mut out = result.signature().csv;
        out.push_str("decision,now_s,active,promising,running,promising_running,p_star,slots\n");
        for s in &self.timeline {
            writeln!(
                out,
                "decision,{:.3},{},{},{},{},{:.6},{}",
                s.now.as_secs(),
                s.active_jobs,
                s.promising_jobs,
                s.running_jobs,
                s.promising_running,
                s.p_threshold,
                s.promising_slots,
            )
            .expect("string write");
        }
        writeln!(
            out,
            "end,{:.3},total_epochs={},terminated_early={}",
            result.end_time.as_secs(),
            result.total_epochs,
            result.terminated_early(),
        )
        .expect("string write");
        out
    }

    /// Number of curve-model predictions produced (diagnostic; §5.2
    /// overhead accounting): executed fits plus requests the shared
    /// content-addressed layer answered in a fit's stead. Per-run cache
    /// hits are not predictions. The sum is invariant between a cold run
    /// and the same run replayed against a warmed shared cache.
    pub fn predictions_made(&self) -> u64 {
        let s = self.service.stats();
        s.fits + s.shared_hits
    }

    /// Cumulative fit-service counters (fits, cache hits, batches).
    pub fn fit_stats(&self) -> hyperdrive_curve::FitStats {
        self.service.stats()
    }

    /// This policy's per-study view of the shared content-addressed fit
    /// cache (lookups, hits, inserts); all zero when no layer is attached.
    pub fn shared_cache_snapshot(&self) -> hyperdrive_curve::CacheStatsSnapshot {
        self.service.shared_snapshot()
    }

    /// Speculation counters (speculated / adopted / cancelled /
    /// mismatched); all zero unless fit prefetch is enabled.
    pub fn spec_stats(&self) -> hyperdrive_curve::SpecStats {
        self.service.spec_stats()
    }

    /// Worker-pool occupancy and boundary-stall telemetry from this
    /// policy's fit service.
    pub fn pool_stats(&self) -> hyperdrive_curve::FitPoolStats {
        self.service.pool_stats()
    }

    /// An order-independent digest over every posterior this policy has
    /// memoized: two runs of the same experiment produced byte-identical
    /// posteriors iff their digests match (the server's equivalence tests
    /// compare this alongside the event trace).
    pub fn posterior_digest(&self) -> u64 {
        self.service.posterior_digest()
    }

    /// POP's latest assessment of a job, if it has one.
    pub fn assessment(&self, job: JobId) -> Option<&JobAssessment> {
        self.assessments.get(&job)
    }

    /// Drops all state for a terminated job.
    fn forget(&mut self, job: JobId) {
        self.assessments.remove(&job);
        self.service.forget(job);
    }

    /// Refreshes assessments for every active job whose fit point advanced,
    /// fitting all stale curve prefixes as one parallel batch. The event
    /// job's fit point is its just-finished epoch; other jobs are fitted at
    /// their most recent evaluation boundary, so between boundaries their
    /// `(config, epochs)` entry is a cache hit and nothing re-fits.
    fn refresh_assessments(&mut self, event: &JobEvent, b: u32, ctx: &mut dyn SchedulerContext) {
        let budget = ctx.tmax().saturating_sub(event.now);
        if budget <= SimTime::ZERO {
            return; // Tmax imminent; the engine stops anyway.
        }
        let max_epochs = ctx.max_epochs();
        let target = ctx.target();

        struct Meta {
            job: JobId,
            fit_epoch: u32,
            now_epoch: u32,
            epoch_duration: SimTime,
        }
        let mut requests: Vec<FitRequest> = Vec::new();
        let mut meta: Vec<Meta> = Vec::new();
        for (job, curve) in ctx.active_curves() {
            let Some(last_epoch) = curve.last_epoch() else { continue };
            // Fit points sit on evaluation boundaries; the reporting job is
            // exactly at one (the caller checked).
            let fit_epoch =
                if job == event.job { event.epoch } else { last_epoch - last_epoch % b };
            if fit_epoch == 0 {
                continue;
            }
            if self.assessments.get(&job).is_some_and(|a| a.epoch >= fit_epoch) {
                continue; // prefix unchanged since the last assessment
            }
            let prefix = if fit_epoch == last_epoch { curve } else { curve.prefix(fit_epoch) };
            let epoch_duration = prefix.mean_epoch_duration().unwrap_or_else(|| {
                SimTime::from_secs(event.now.as_secs() / f64::from(fit_epoch.max(1)))
            });
            if epoch_duration <= SimTime::ZERO {
                continue;
            }
            let m_budget = (budget.as_secs() / epoch_duration.as_secs()).floor() as u32;
            let max_future = m_budget.min(max_epochs.saturating_sub(fit_epoch));
            if max_future < 1 {
                continue;
            }
            // The request carries the remaining-time query, so the estimate
            // accumulates while the fit is still sampling. Future epochs
            // count from the posterior's anchor, the prefix's last epoch.
            let now_epoch = prefix.last_epoch().unwrap_or(fit_epoch);
            let query = ert_query(now_epoch, max_future, target);
            requests.push(FitRequest {
                job,
                curve: prefix,
                horizon: fit_epoch + max_future,
                query: Some(query),
            });
            meta.push(Meta { job, fit_epoch, now_epoch, epoch_duration });
        }
        if requests.is_empty() {
            return;
        }

        let outcomes = self.service.fit_batch(&requests);

        // Virtual-time accounting: price the batch's *fresh* fits and
        // charge their modeled parallel makespan to this decision.
        if let Some(model) = &self.config.fit_cost {
            let costs: Vec<f64> = requests
                .iter()
                .zip(&outcomes)
                .filter(|(_, o)| !o.cached)
                .map(|(r, _)| model.fit_secs(&self.config.predictor, r.curve.len()))
                .collect();
            self.pending_overhead += SimTime::from_secs(model.makespan_secs(&costs));
        }

        for ((m, request), outcome) in meta.iter().zip(&requests).zip(&outcomes) {
            if let (Some(query), Some(exceedance)) = (&request.query, &outcome.exceedance) {
                let est =
                    ert_from_exceedance(query, m.now_epoch, exceedance, m.epoch_duration, budget);
                self.assessments.insert(
                    m.job,
                    JobAssessment { confidence: est.confidence, ert: est.ert, epoch: m.fit_epoch },
                );
            }
        }
    }

    fn kill_params(&self, ctx: &dyn SchedulerContext) -> Option<(f64, u32)> {
        match self.config.kill_rule {
            KillRule::DomainDefault => {
                let dk = ctx.domain();
                Some((dk.kill_threshold, dk.kill_warmup_evals))
            }
            KillRule::Custom { threshold, warmup_evals } => Some((threshold, warmup_evals)),
            KillRule::Disabled => None,
        }
    }
}

impl Default for PopPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for PopPolicy {
    fn name(&self) -> &str {
        "pop"
    }

    fn fit_cache_snapshot(&self) -> Option<hyperdrive_framework::FitCacheSnapshot> {
        let s = self.service.stats();
        Some(hyperdrive_framework::FitCacheSnapshot {
            fits: s.fits,
            local_hits: s.cache_hits,
            shared_hits: s.shared_hits,
            batches: s.batches,
            shared_lookups: s.shared_lookups,
            shared_inserts: s.shared_inserts,
        })
    }

    fn take_decision_overhead(&mut self) -> SimTime {
        std::mem::replace(&mut self.pending_overhead, SimTime::ZERO)
    }

    fn prefetch_boundary(&self, default_boundary: u32) -> Option<u32> {
        let enabled = self.config.fit_prefetch == Some(true);
        enabled.then(|| self.config.boundary.unwrap_or(default_boundary).max(1))
    }

    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        // Mirror of `refresh_assessments` for the hinted job, evaluated on
        // the curve as it will look when the in-flight epoch lands — same
        // budget arithmetic, same fallback epoch duration, same horizon —
        // so the speculative fit's fingerprint matches the boundary's
        // demand fit exactly and is adopted rather than recomputed.
        let budget = hint.tmax.saturating_sub(hint.completion_time);
        if budget <= SimTime::ZERO {
            return; // Tmax imminent; the boundary never fits either.
        }
        if hint.epoch == 0 || curve.last_epoch() != Some(hint.epoch - 1) {
            return; // curve out of step with the hint (rollback mid-turn)
        }
        let mut predicted = curve.clone();
        predicted.push(hint.epoch, hint.completion_time, hint.value);
        let epoch_duration = predicted.mean_epoch_duration().unwrap_or_else(|| {
            SimTime::from_secs(hint.completion_time.as_secs() / f64::from(hint.epoch.max(1)))
        });
        if epoch_duration <= SimTime::ZERO {
            return;
        }
        let m_budget = (budget.as_secs() / epoch_duration.as_secs()).floor() as u32;
        let max_future = m_budget.min(hint.max_epochs.saturating_sub(hint.epoch));
        if max_future < 1 {
            return;
        }
        self.service.prefetch_fit(hint.job, &predicted, hint.epoch + max_future);
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        let b = self.config.boundary.unwrap_or_else(|| ctx.eval_boundary()).max(1);
        if !event.epoch.is_multiple_of(b) {
            return JobDecision::Continue;
        }
        let evals = event.epoch / b;
        let Some(curve) = ctx.curve(event.job) else {
            return JobDecision::Continue;
        };

        // Step 1: domain-knowledge kill threshold (Poor, not learning).
        if let Some((threshold, warmup)) = self.kill_params(ctx) {
            if evals >= warmup && curve.best().is_some_and(|best| best <= threshold) {
                self.forget(event.job);
                return JobDecision::Terminate;
            }
        }

        // Step 2: probabilistic assessment — one parallel fit batch
        // refreshing every active job whose curve prefix grew past a
        // boundary, the reporting job included.
        self.refresh_assessments(event, b, ctx);

        // Step 3: prune jobs unlikely to ever reach the target.
        if let Some(a) = self.assessments.get(&event.job) {
            if a.epoch == event.epoch
                && a.confidence < self.config.lower_bound_confidence
                && evals >= 2
            {
                self.forget(event.job);
                return JobDecision::Terminate;
            }
        }

        // Step 4: dynamic classification across all active jobs. One pass
        // fills the confidence column (for `allocate_slots`) and the
        // ranking scratch together, so confidences are never re-collected.
        let active = ctx.active_jobs();
        let n_active = active.len();
        self.confidences.clear();
        self.ranked.clear();
        for &j in active {
            let c = self.assessments.get(&j).map_or(0.0, |a| a.confidence);
            self.confidences.push(c);
            self.ranked.push((j, c));
        }
        let alloc = allocate_slots(&self.confidences, ctx.total_slots(), self.config.k);
        let (p_threshold, promising_cap) = match self.config.static_threshold {
            Some(t) => (t, ctx.total_slots()),
            None => (alloc.p_threshold, alloc.promising_slots),
        };

        // Rank active jobs by confidence and take the top `promising_cap`
        // among those meeting the threshold. The comparator is a total
        // order (unique job-id tiebreak), so the unstable sort yields
        // exactly the stable sort's result without its temporary buffer.
        self.ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("confidences are probabilities").then(a.0.cmp(&b.0))
        });
        self.promising.clear();
        self.promising.extend(
            self.ranked
                .iter()
                .filter(|(_, c)| *c >= p_threshold)
                .take(promising_cap)
                .map(|(j, _)| *j),
        );

        // Step 5: priority labels — promising jobs carry their confidence,
        // opportunistic jobs share priority zero (round-robin FIFO).
        for (job, confidence) in &self.ranked {
            let priority = if self.promising.contains(job) { *confidence } else { 0.0 };
            ctx.label_job(*job, priority);
        }

        let running = ctx.running_jobs();
        let promising_running = running.iter().filter(|j| self.promising.contains(j)).count();
        let running_jobs = running.len();
        self.timeline.push(AllocationSnapshot {
            now: event.now,
            active_jobs: n_active,
            promising_jobs: self.promising.len(),
            running_jobs,
            promising_running,
            p_threshold,
            promising_slots: promising_cap.min(self.promising.len()),
            curve: alloc.curve,
        });

        if self.promising.contains(&event.job) {
            JobDecision::Continue
        } else if ctx.idle_job_count() > 0 {
            // Opportunistic: yield the machine to the next waiting job.
            JobDecision::Suspend
        } else {
            // Nobody is waiting; suspension would only waste snapshot cost.
            JobDecision::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_framework::testing::MockContext;

    fn event(job: u64, epoch: u32, value: f64) -> JobEvent {
        JobEvent { job: JobId::new(job), epoch, value, now: SimTime::from_mins(f64::from(epoch)) }
    }

    fn pop() -> PopPolicy {
        PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            ..Default::default()
        })
    }

    /// Saturating curve rising from 0.1 toward `limit`.
    fn saturating(limit: f64, n: usize) -> Vec<f64> {
        (1..=n).map(|x| limit - (limit - 0.1) * (x as f64).powf(-0.8)).collect()
    }

    #[test]
    fn ignores_non_boundary_epochs() {
        let mut ctx = MockContext::new(4);
        let mut policy = pop();
        for epoch in [1, 9, 11, 15, 21] {
            assert_eq!(
                policy.on_iteration_finish(&event(0, epoch, 0.1), &mut ctx),
                JobDecision::Continue
            );
        }
        assert_eq!(policy.predictions_made(), 0);
    }

    #[test]
    fn kill_threshold_terminates_non_learners() {
        // Disable the confidence prune so the test isolates the §2.1 kill
        // threshold (CIFAR-10 knowledge: kill at <= 0.15 after 3 evals).
        let make_policy = || {
            PopPolicy::with_config(PopConfig {
                predictor: PredictorConfig::test(),
                lower_bound_confidence: 0.0,
                ..Default::default()
            })
        };
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &vec![0.10; 30], 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = make_policy();
        assert_eq!(
            policy.on_iteration_finish(&event(0, 20, 0.1), &mut ctx),
            JobDecision::Continue,
            "within warmup (2 evals < 3)"
        );
        assert_eq!(
            policy.on_iteration_finish(&event(0, 30, 0.1), &mut ctx),
            JobDecision::Terminate,
            "past warmup and below kill threshold"
        );
    }

    #[test]
    fn confidence_prune_also_catches_flat_curves() {
        // With the default lower bound, a flat 10% curve dies at the second
        // boundary via p < 0.05 — even before the kill-threshold warmup.
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &[0.10; 20], 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = pop();
        assert_eq!(
            policy.on_iteration_finish(&event(0, 20, 0.1), &mut ctx),
            JobDecision::Terminate
        );
    }

    #[test]
    fn kill_rule_can_be_disabled() {
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &vec![0.10; 30], 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            kill_rule: KillRule::Disabled,
            lower_bound_confidence: 0.0, // isolate the kill-rule effect
            ..Default::default()
        });
        assert_eq!(policy.on_iteration_finish(&event(0, 30, 0.1), &mut ctx), JobDecision::Continue);
    }

    #[test]
    fn low_confidence_job_is_pruned() {
        let mut ctx = MockContext::new(4);
        // Learning (escapes the kill threshold) but saturating far below
        // the 0.77 target.
        ctx.push_curve(JobId::new(0), &saturating(0.30, 30), 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = pop();
        assert_eq!(
            policy.on_iteration_finish(&event(0, 30, 0.29), &mut ctx),
            JobDecision::Terminate,
            "p < 0.05 prune"
        );
        assert!(policy.predictions_made() > 0);
    }

    #[test]
    fn promising_job_continues_and_is_labelled() {
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
        ctx.active = vec![JobId::new(0)];
        ctx.idle_jobs = vec![JobId::new(1)];
        let mut policy = pop();
        let decision = policy.on_iteration_finish(&event(0, 30, 0.8), &mut ctx);
        assert_eq!(decision, JobDecision::Continue);
        let a = policy.assessment(JobId::new(0)).expect("assessed");
        assert!(a.confidence > 0.5, "confidence {}", a.confidence);
        let label = ctx.labels.iter().find(|(j, _)| *j == JobId::new(0)).expect("labelled");
        assert!(label.1 > 0.0, "promising jobs carry their confidence as priority");
    }

    #[test]
    fn opportunistic_job_suspends_only_when_work_waits() {
        // Pin the threshold above any achievable confidence so the strong
        // job is classified opportunistic, isolating the suspend decision.
        let setup = |idle: Vec<JobId>| -> (MockContext, PopPolicy) {
            let mut ctx = MockContext::new(2);
            ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
            ctx.active = vec![JobId::new(0)];
            ctx.idle_jobs = idle;
            let policy = PopPolicy::with_config(PopConfig {
                predictor: PredictorConfig::test(),
                static_threshold: Some(1.5),
                ..Default::default()
            });
            (ctx, policy)
        };
        let (mut ctx, mut policy) = setup(vec![JobId::new(3)]);
        assert_eq!(
            policy.on_iteration_finish(&event(0, 30, 0.8), &mut ctx),
            JobDecision::Suspend,
            "opportunistic with waiting work"
        );
        let (mut ctx2, mut policy2) = setup(Vec::new());
        assert_eq!(
            policy2.on_iteration_finish(&event(0, 30, 0.8), &mut ctx2),
            JobDecision::Continue,
            "no waiting work: keep the machine busy"
        );
    }

    #[test]
    fn strong_jobs_beat_weak_jobs_in_confidence_ranking() {
        let mut ctx = MockContext::new(2);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
        ctx.push_curve(JobId::new(1), &saturating(0.60, 30), 60.0);
        ctx.active = vec![JobId::new(0), JobId::new(1)];
        let mut policy = pop();
        policy.on_iteration_finish(&event(0, 30, 0.8), &mut ctx);
        policy.on_iteration_finish(&event(1, 30, 0.55), &mut ctx);
        let strong = policy.assessment(JobId::new(0)).map(|a| a.confidence).unwrap_or(0.0);
        // The weak job may already have been pruned (p < 0.05); if it
        // survives, it must rank below the strong one.
        if let Some(weak) = policy.assessment(JobId::new(1)) {
            assert!(strong > weak.confidence);
        }
        assert!(strong > 0.3, "strong confidence {strong}");
    }

    #[test]
    fn timeline_records_snapshots() {
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = pop();
        policy.on_iteration_finish(&event(0, 30, 0.8), &mut ctx);
        assert_eq!(policy.timeline().len(), 1);
        let snap = &policy.timeline()[0];
        assert_eq!(snap.active_jobs, 1);
        assert!(snap.promising_jobs <= 1);
    }

    #[test]
    fn static_threshold_ablation_bypasses_dynamic_p_star() {
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
        ctx.active = vec![JobId::new(0)];
        ctx.idle_jobs = vec![JobId::new(1)];
        // Impossible static threshold (confidence clamps at 1.0, so use a
        // value above 1): nothing is ever promising.
        let mut policy = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            static_threshold: Some(1.5),
            ..Default::default()
        });
        assert_eq!(
            policy.on_iteration_finish(&event(0, 30, 0.8), &mut ctx),
            JobDecision::Suspend,
            "with an unreachable static threshold every job is opportunistic"
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = PopPolicy::with_config(PopConfig { k: 0, ..Default::default() });
    }

    #[test]
    fn fit_cost_prices_evals_and_clamps_observations() {
        let model = FitCostModel {
            secs_per_kiloeval: 2.0,
            modeled_workers: 1,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        };
        let config = PredictorConfig::test();
        let base = model.fit_secs(&config, 1);
        assert!(base > 0.0);
        // Cost grows with observations up to the predictor's max_obs cap.
        assert!(model.fit_secs(&config, 5) > base);
        assert_eq!(
            model.fit_secs(&config, config.max_obs),
            model.fit_secs(&config, config.max_obs + 50),
            "observations beyond max_obs are subsampled, not paid for"
        );
        // The price is per likelihood evaluation, so a preset that halves
        // its steps halves its virtual-time overhead with no constant of
        // its own to recalibrate.
        let doubled = PredictorConfig { steps: 2 * config.steps, ..config };
        assert_eq!(model.fit_secs(&doubled, 10), 2.0 * model.fit_secs(&config, 10));
    }

    #[test]
    fn both_speedups_divide_every_fit_price() {
        let config = PredictorConfig::test();
        let model = |fast_math_speedup, batch_fit_speedup| FitCostModel {
            secs_per_kiloeval: 2.0,
            modeled_workers: 1,
            fast_math_speedup,
            batch_fit_speedup,
        };
        let kiloevals = (config.walkers * config.steps * 5) as f64 / 1000.0;
        assert_eq!(model(1.0, 1.0).fit_secs(&config, 5), kiloevals * 2.0);
        assert_eq!(model(3.0, 1.0).fit_secs(&config, 5), kiloevals * (2.0 / 3.0));
        assert_eq!(model(1.0, 4.0).fit_secs(&config, 5), kiloevals * 0.5);
        assert_eq!(
            model(3.0, 2.0).fit_secs(&config, 5),
            kiloevals * (2.0 / 3.0 / 2.0),
            "both divisors price every fit, together"
        );
    }

    #[test]
    fn makespan_overlaps_fits_across_modeled_workers() {
        let costs = [3.0, 3.0, 3.0, 3.0];
        let serial = FitCostModel {
            secs_per_kiloeval: 1.0,
            modeled_workers: 1,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        };
        let quad = FitCostModel {
            secs_per_kiloeval: 1.0,
            modeled_workers: 4,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        };
        assert_eq!(serial.makespan_secs(&costs), 12.0, "one worker pays the sum");
        assert_eq!(quad.makespan_secs(&costs), 3.0, "four workers fully overlap");
        // Uneven batch: greedy least-loaded puts {5} alone and {3, 2} together.
        let uneven = FitCostModel {
            secs_per_kiloeval: 1.0,
            modeled_workers: 2,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        };
        assert_eq!(uneven.makespan_secs(&[5.0, 3.0, 2.0]), 5.0);
        assert_eq!(serial.makespan_secs(&[]), 0.0, "all-cached batches are free");
    }

    #[test]
    fn prefetch_boundary_follows_config_not_environment() {
        let pop_with = |fit_prefetch, boundary| {
            PopPolicy::with_config(PopConfig {
                predictor: PredictorConfig::test(),
                fit_prefetch,
                boundary,
                ..Default::default()
            })
        };
        assert_eq!(pop_with(None, None).prefetch_boundary(10), None);
        assert_eq!(pop_with(Some(false), None).prefetch_boundary(10), None);
        assert_eq!(pop_with(Some(true), None).prefetch_boundary(10), Some(10));
        assert_eq!(pop_with(Some(true), Some(7)).prefetch_boundary(10), Some(7));
        assert_eq!(pop_with(Some(true), Some(0)).prefetch_boundary(0), Some(1));
    }

    #[test]
    fn hinted_boundary_fit_is_adopted_not_recomputed() {
        let mut ctx = MockContext::new(4);
        let values = saturating(0.85, 30);
        // The policy sees 29 observed epochs while epoch 30 is in flight.
        ctx.push_curve(JobId::new(0), &values[..29], 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            fit_prefetch: Some(true),
            ..Default::default()
        });
        let curve = ctx.curve(JobId::new(0)).expect("curve");
        let hint = PrefetchHint {
            job: JobId::new(0),
            epoch: 30,
            completion_time: SimTime::from_mins(30.0),
            value: values[29],
            max_epochs: ctx.max_epochs(),
            tmax: ctx.tmax(),
        };
        policy.prefetch_hint(&hint, &curve);
        assert_eq!(policy.spec_stats().speculated, 1);

        // The epoch lands; the boundary decision collects the speculation.
        let mut boundary_ctx = MockContext::new(4);
        boundary_ctx.push_curve(JobId::new(0), &values, 60.0);
        boundary_ctx.active = vec![JobId::new(0)];
        let decision = policy.on_iteration_finish(&event(0, 30, values[29]), &mut boundary_ctx);
        let spec = policy.spec_stats();
        assert_eq!((spec.adopted, spec.mismatched), (1, 0), "horizon math matched");
        assert_eq!(policy.fit_stats().fits, 1, "adopted fits still count as fits");

        // Byte-equivalence with the prefetch-off policy: same decision,
        // same assessment, same posterior digest.
        let mut plain = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            fit_prefetch: Some(false),
            ..Default::default()
        });
        let mut plain_ctx = MockContext::new(4);
        plain_ctx.push_curve(JobId::new(0), &values, 60.0);
        plain_ctx.active = vec![JobId::new(0)];
        assert_eq!(plain.on_iteration_finish(&event(0, 30, values[29]), &mut plain_ctx), decision);
        assert_eq!(
            policy.assessment(JobId::new(0)).map(|a| (a.confidence, a.ert)),
            plain.assessment(JobId::new(0)).map(|a| (a.confidence, a.ert)),
        );
        assert_eq!(policy.posterior_digest(), plain.posterior_digest());
    }

    #[test]
    fn out_of_step_hints_are_dropped() {
        let mut policy = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            fit_prefetch: Some(true),
            ..Default::default()
        });
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 20), 60.0);
        let curve = ctx.curve(JobId::new(0)).expect("curve");
        let hint = |epoch, completion: SimTime, tmax| PrefetchHint {
            job: JobId::new(0),
            epoch,
            completion_time: completion,
            value: 0.5,
            max_epochs: 120,
            tmax,
        };
        // A rollback between issue and drain leaves the curve behind the
        // hinted epoch; past Tmax the boundary never fits either.
        policy
            .prefetch_hint(&hint(30, SimTime::from_mins(30.0), SimTime::from_hours(12.0)), &curve);
        policy
            .prefetch_hint(&hint(21, SimTime::from_hours(13.0), SimTime::from_hours(12.0)), &curve);
        // At the final epoch no future remains to predict into.
        policy.prefetch_hint(
            &PrefetchHint {
                max_epochs: 21,
                ..hint(21, SimTime::from_mins(21.0), SimTime::from_hours(12.0))
            },
            &curve,
        );
        assert_eq!(policy.spec_stats().speculated, 0);
    }

    #[test]
    fn overhead_is_drained_not_accumulated() {
        let mut ctx = MockContext::new(4);
        ctx.push_curve(JobId::new(0), &saturating(0.85, 30), 60.0);
        ctx.active = vec![JobId::new(0)];
        let mut policy = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            fit_cost: Some(FitCostModel {
                secs_per_kiloeval: 1.0,
                modeled_workers: 1,
                fast_math_speedup: 1.0,
                batch_fit_speedup: 1.0,
            }),
            ..Default::default()
        });
        policy.on_iteration_finish(&event(0, 30, 0.8), &mut ctx);
        let first = policy.take_decision_overhead();
        assert!(first > SimTime::ZERO, "fresh fit was priced");
        assert_eq!(policy.take_decision_overhead(), SimTime::ZERO, "drain resets the meter");
    }
}
