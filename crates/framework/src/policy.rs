//! The Scheduling Algorithm Policy (SAP) interface.
//!
//! §4.2: "A user-provided Scheduling Algorithm Policy is written in an
//! imperative style using the following three HyperDrive up-call events:
//! `AllocateJobs()`, `ApplicationStat(jobEvent)`,
//! `OnIterationFinish(jobEvent)`." The up-calls receive a
//! [`SchedulerContext`] exposing the Job Manager / Resource Manager /
//! AppStat DB state a policy may consult plus the actions it may take
//! (starting idle jobs, labelling priorities). `OnIterationFinish` returns
//! a [`JobDecision`] — continue, suspend, or terminate — for the job that
//! finished the iteration.
//!
//! The [`DefaultPolicy`] here is the paper's Default SAP: "simply greedily
//! allocates idle jobs to idle machines" and ignores statistics.

use hyperdrive_types::{DomainKnowledge, JobId, LearningCurve, SimTime};

/// An application statistic delivered to a policy: one job finished one
/// training iteration (epoch) with the given measured performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobEvent {
    /// The reporting job.
    pub job: JobId,
    /// 1-based epoch the job just finished.
    pub epoch: u32,
    /// Normalized performance measured at this epoch.
    pub value: f64,
    /// Experiment time of the report.
    pub now: SimTime,
}

/// Advance notice that a job will complete an epoch visible at the next
/// evaluation boundary, delivered to
/// [`SchedulingPolicy::prefetch_hint`] the moment the epoch command is
/// *issued* — before the epoch runs — so a policy can speculatively
/// start the curve fit it will want at the boundary.
///
/// `completion_time` and `value` are the engine's predictions of the
/// observation the boundary will see (exact in simulation and replay;
/// best-effort live — a wrong prediction produces a fingerprint mismatch
/// at the boundary and a demand refit, never a wrong result). `tmax` and
/// `max_epochs` carry the context a hint handler needs for horizon math,
/// since no [`SchedulerContext`] is available outside an up-call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchHint {
    /// The job whose epoch was issued.
    pub job: JobId,
    /// The 1-based epoch that will have completed at the boundary.
    pub epoch: u32,
    /// Predicted experiment time of the epoch's completion.
    pub completion_time: SimTime,
    /// Predicted performance value at `epoch`.
    pub value: f64,
    /// The workload's maximum epochs (see
    /// [`SchedulerContext::max_epochs`]).
    pub max_epochs: u32,
    /// The experiment's `Tmax` (see [`SchedulerContext::tmax`]).
    pub tmax: SimTime,
}

/// A policy's verdict for a job that just finished an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobDecision {
    /// Keep training on the same machine.
    #[default]
    Continue,
    /// Snapshot state and return the job to the idle queue, freeing its
    /// machine.
    Suspend,
    /// Kill the job permanently.
    Terminate,
}

/// The state a policy can observe and the actions it can take during an
/// up-call.
///
/// Implemented by both the discrete-event simulator and the live executor,
/// so the same policy object runs unchanged on either.
pub trait SchedulerContext {
    /// Current experiment time.
    fn now(&self) -> SimTime;

    /// The user's maximum experiment duration `Tmax`.
    fn tmax(&self) -> SimTime;

    /// The target performance `ytarget` (normalized).
    fn target(&self) -> f64;

    /// Total number of slots `S` in the cluster.
    fn total_slots(&self) -> usize;

    /// Number of currently idle slots.
    fn idle_slots(&self) -> usize;

    /// Model-owner domain knowledge for the running workload.
    fn domain(&self) -> &DomainKnowledge;

    /// Maximum epochs any job of this workload trains.
    fn max_epochs(&self) -> u32;

    /// The workload's evaluation boundary `b`.
    fn eval_boundary(&self) -> u32;

    /// Jobs that are not terminated or completed (running, suspending, or
    /// idle), sorted by job id. Borrowed from the context's maintained
    /// index — listing is free; callers that need ownership copy
    /// explicitly with `.to_vec()`.
    fn active_jobs(&self) -> &[JobId];

    /// Jobs currently executing on a machine, sorted by job id. Borrowed
    /// from the context's maintained index, like
    /// [`active_jobs`](Self::active_jobs).
    fn running_jobs(&self) -> &[JobId];

    /// Number of jobs waiting in the idle queue.
    fn idle_job_count(&self) -> usize;

    /// The observed learning curve of a job (`None` before its first
    /// report).
    fn curve(&self, job: JobId) -> Option<LearningCurve>;

    /// The observed secondary-metric history of a job (§9's additional
    /// metrics, e.g. sparsity). `None` for workloads without a secondary
    /// metric. The default returns `None`, so single-metric contexts need
    /// not implement it.
    fn secondary_curve(&self, job: JobId) -> Option<LearningCurve> {
        let _ = job;
        None
    }

    /// Epochs a job has completed.
    fn epochs_done(&self, job: JobId) -> u32;

    /// Best observed performance across all jobs, with its owner.
    fn global_best(&self) -> Option<(JobId, f64)>;

    /// Labels a job with a scheduling priority (the JM's `labelJob`).
    fn label_job(&mut self, job: JobId, priority: f64);

    /// Starts (or resumes) the highest-priority idle job on an idle
    /// machine. Returns the started job, or `None` if no machine or no
    /// idle job is available.
    fn start_next_idle_job(&mut self) -> Option<JobId>;

    /// Requests that the whole experiment stop after the current up-call —
    /// §9's "user-defined global termination criteria through HyperDrive's
    /// SAP API". The default is a no-op for contexts that cannot stop.
    fn request_stop(&mut self) {}
}

/// A scheduling algorithm policy: the three up-calls of §4.2.
pub trait SchedulingPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Up-call on detection of idle resources. The default greedily fills
    /// every idle machine from the idle queue.
    fn allocate_jobs(&mut self, ctx: &mut dyn SchedulerContext) {
        while ctx.idle_slots() > 0 && ctx.start_next_idle_job().is_some() {}
    }

    /// Up-call on receipt of an application statistic. The default ignores
    /// it.
    fn application_stat(&mut self, event: &JobEvent, ctx: &mut dyn SchedulerContext) {
        let _ = (event, ctx);
    }

    /// Up-call when a job finishes a training iteration; decides the job's
    /// fate. The default continues unconditionally.
    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        let _ = (event, ctx);
        JobDecision::Continue
    }

    /// Drains the *modeled* computation cost of the decisions made since
    /// the last drain. The engine calls this after each
    /// [`on_iteration_finish`](Self::on_iteration_finish) and charges the
    /// returned time to the decided job (delaying its next epoch or its
    /// suspend), so prediction overhead shows up on the virtual clock.
    ///
    /// Implementations must return a *modeled* cost — a deterministic
    /// function of scheduler state, never a wall-clock measurement — or
    /// virtual timelines stop being reproducible. The default reports
    /// zero (decisions are free).
    fn take_decision_overhead(&mut self) -> SimTime {
        SimTime::ZERO
    }

    /// The evaluation boundary (in epochs) at which this policy wants
    /// speculative fit-prefetch hints, or `None` when prefetching is off
    /// (the default). The engine snapshots this once at construction and
    /// then calls [`prefetch_hint`](Self::prefetch_hint) whenever it
    /// issues an epoch `e` with `e % boundary == 0` that will still be
    /// scheduler-visible (`e < max_epochs`). `default_boundary` is the
    /// workload's evaluation boundary, passed in because no
    /// [`SchedulerContext`] exists at construction time; policies that
    /// resolve their boundary from the workload use it as the fallback.
    fn prefetch_boundary(&self, default_boundary: u32) -> Option<u32> {
        let _ = default_boundary;
        None
    }

    /// Advance notice that `hint.job` will complete `hint.epoch` — a
    /// boundary-visible epoch — at `hint.completion_time`, with `curve`
    /// the job's currently observed curve (epochs `1..hint.epoch`).
    /// Policies overlap fitting with event processing by enqueuing the
    /// boundary fit here. Purely speculative: a hint must never change
    /// any decision, only move compute earlier. The default ignores it.
    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        let _ = (hint, curve);
    }

    /// A snapshot of the policy's curve-fit cache counters, filled into
    /// [`ExperimentResult::fit_cache`](crate::ExperimentResult) when the
    /// run finalizes so harnesses can aggregate fit/hit statistics
    /// without reaching into policy internals. Diagnostics only — never
    /// an input to scheduling. The default (`None`) is for policies that
    /// fit no curves.
    fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
        None
    }
}

/// Point-in-time curve-fit cache counters reported by a policy through
/// [`SchedulingPolicy::fit_cache_snapshot`]. Mirrors the fit-service
/// stats: `fits` executed, per-run (`local`) cache hits, and hits served
/// by the process-wide content-addressed layer. `fits + shared_hits` is
/// invariant between a cold run and a shared-cache replay of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitCacheSnapshot {
    /// Fresh ensemble fits executed.
    pub fits: u64,
    /// Requests answered by the per-run `(job, epochs)` cache.
    pub local_hits: u64,
    /// Requests answered by the shared content-addressed cache.
    pub shared_hits: u64,
    /// Fit batches served.
    pub batches: u64,
    /// Lookups issued against the shared content-addressed layer (zero
    /// when none is attached). `shared_hits / shared_lookups` is this
    /// run's dedup rate against fits other runs or co-resident studies
    /// already executed — what the multi-tenant server reports per study.
    pub shared_lookups: u64,
    /// Posteriors this run published to the shared layer.
    pub shared_inserts: u64,
}

/// The paper's Default SAP: greedy allocation, run to completion (§4.2,
/// §6.1 baseline 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultPolicy;

impl DefaultPolicy {
    /// Creates the default policy.
    pub fn new() -> Self {
        DefaultPolicy
    }
}

impl SchedulingPolicy for DefaultPolicy {
    fn name(&self) -> &str {
        "default"
    }
}

pub mod testing {
    //! A scripted [`SchedulerContext`] for unit-testing policies without an
    //! executor, used by the policy crates' test suites, and
    //! [`ChaosPolicy`], which fuzzes the engine.

    use std::collections::HashMap;

    use super::*;
    use hyperdrive_types::MetricKind;

    /// Minimal in-memory context for policy unit tests. All fields are
    /// public so tests can script arbitrary cluster states.
    #[derive(Debug)]
    #[allow(missing_docs)]
    pub struct MockContext {
        pub now: SimTime,
        pub tmax: SimTime,
        pub target: f64,
        pub total_slots: usize,
        pub idle_slots: usize,
        pub domain: DomainKnowledge,
        pub max_epochs: u32,
        pub eval_boundary: u32,
        pub active: Vec<JobId>,
        pub running: Vec<JobId>,
        pub idle_jobs: Vec<JobId>,
        pub curves: HashMap<JobId, LearningCurve>,
        pub secondary_curves: HashMap<JobId, LearningCurve>,
        pub labels: Vec<(JobId, f64)>,
        pub started: Vec<JobId>,
        pub stop_requested: bool,
    }

    impl MockContext {
        /// Creates a context for a cluster of `slots` machines with
        /// CIFAR-10 domain knowledge and no jobs.
        pub fn new(slots: usize) -> Self {
            MockContext {
                now: SimTime::ZERO,
                tmax: SimTime::from_hours(12.0),
                target: 0.77,
                total_slots: slots,
                idle_slots: slots,
                domain: DomainKnowledge::cifar10(),
                max_epochs: 120,
                eval_boundary: 10,
                active: Vec::new(),
                running: Vec::new(),
                idle_jobs: Vec::new(),
                curves: HashMap::new(),
                secondary_curves: HashMap::new(),
                labels: Vec::new(),
                started: Vec::new(),
                stop_requested: false,
            }
        }

        /// Installs an observed curve for `job` with one value per epoch,
        /// spaced `epoch_secs` apart.
        pub fn push_curve(&mut self, job: JobId, values: &[f64], epoch_secs: f64) {
            let mut c = LearningCurve::new(MetricKind::Accuracy);
            for (i, v) in values.iter().enumerate() {
                c.push(i as u32 + 1, SimTime::from_secs(epoch_secs * (i as f64 + 1.0)), *v);
            }
            self.curves.insert(job, c);
        }
    }

    impl SchedulerContext for MockContext {
        fn now(&self) -> SimTime {
            self.now
        }
        fn tmax(&self) -> SimTime {
            self.tmax
        }
        fn target(&self) -> f64 {
            self.target
        }
        fn total_slots(&self) -> usize {
            self.total_slots
        }
        fn idle_slots(&self) -> usize {
            self.idle_slots
        }
        fn domain(&self) -> &DomainKnowledge {
            &self.domain
        }
        fn max_epochs(&self) -> u32 {
            self.max_epochs
        }
        fn eval_boundary(&self) -> u32 {
            self.eval_boundary
        }
        fn active_jobs(&self) -> &[JobId] {
            &self.active
        }
        fn running_jobs(&self) -> &[JobId] {
            &self.running
        }
        fn idle_job_count(&self) -> usize {
            self.idle_jobs.len()
        }
        fn curve(&self, job: JobId) -> Option<LearningCurve> {
            self.curves.get(&job).cloned()
        }
        fn secondary_curve(&self, job: JobId) -> Option<LearningCurve> {
            self.secondary_curves.get(&job).cloned()
        }
        fn epochs_done(&self, job: JobId) -> u32 {
            self.curves.get(&job).and_then(|c| c.last_epoch()).unwrap_or(0)
        }
        fn global_best(&self) -> Option<(JobId, f64)> {
            self.curves
                .iter()
                .filter_map(|(id, c)| c.best().map(|b| (*id, b)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        }
        fn label_job(&mut self, job: JobId, priority: f64) {
            self.labels.push((job, priority));
        }
        fn start_next_idle_job(&mut self) -> Option<JobId> {
            if self.idle_slots == 0 {
                return None;
            }
            let job = if self.idle_jobs.is_empty() {
                return None;
            } else {
                self.idle_jobs.remove(0)
            };
            self.idle_slots -= 1;
            self.running.push(job);
            self.started.push(job);
            Some(job)
        }
        fn request_stop(&mut self) {
            self.stop_requested = true;
        }
    }

    /// Pseudo-random continue / suspend / terminate decisions at every
    /// epoch: a fuzzer for the engine's state machine.
    #[derive(Debug)]
    pub struct ChaosPolicy(u64);

    impl ChaosPolicy {
        /// A chaos policy whose decisions are drawn from `seed`.
        pub fn new(seed: u64) -> Self {
            ChaosPolicy(seed.wrapping_mul(2_654_435_761).max(1))
        }
    }

    impl SchedulingPolicy for ChaosPolicy {
        fn name(&self) -> &str {
            "chaos"
        }

        fn on_iteration_finish(
            &mut self,
            _: &JobEvent,
            _: &mut dyn SchedulerContext,
        ) -> JobDecision {
            // xorshift64*
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
            match self.0 % 10 {
                0..=6 => JobDecision::Continue,
                7 | 8 => JobDecision::Suspend,
                _ => JobDecision::Terminate,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::MockContext;
    use super::*;

    #[test]
    fn default_policy_fills_all_idle_machines() {
        let mut ctx = MockContext::new(3);
        ctx.idle_jobs = (0..5).map(JobId::new).collect();
        let mut policy = DefaultPolicy::new();
        policy.allocate_jobs(&mut ctx);
        assert_eq!(ctx.started.len(), 3, "one job per idle machine");
        assert_eq!(ctx.idle_slots, 0);
    }

    #[test]
    fn default_policy_stops_when_jobs_run_out() {
        let mut ctx = MockContext::new(4);
        ctx.idle_jobs = vec![JobId::new(0)];
        let mut policy = DefaultPolicy::new();
        policy.allocate_jobs(&mut ctx);
        assert_eq!(ctx.started, vec![JobId::new(0)]);
        assert_eq!(ctx.idle_slots, 3);
    }

    #[test]
    fn default_policy_always_continues() {
        let mut ctx = MockContext::new(1);
        let mut policy = DefaultPolicy::new();
        let event =
            JobEvent { job: JobId::new(0), epoch: 10, value: 0.01, now: SimTime::from_mins(10.0) };
        assert_eq!(policy.on_iteration_finish(&event, &mut ctx), JobDecision::Continue);
    }

    #[test]
    fn decision_default_is_continue() {
        assert_eq!(JobDecision::default(), JobDecision::Continue);
    }
}
