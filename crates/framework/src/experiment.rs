//! Experiment specification and results.
//!
//! The Experiment Runner (§4.2 ➀) specifies the policy, the hyperparameter
//! generation technique, the model to run, and the total number of
//! machines. Here that splits into an [`ExperimentWorkload`] (the fixed set
//! of configurations with their hidden ground-truth profiles — the paper
//! fixes 100 configurations from a seeded random generator so every policy
//! sees the same set) and an [`ExperimentSpec`] (cluster size, `Tmax`,
//! stopping behaviour). Executors produce an [`ExperimentResult`].

use hyperdrive_types::{ConfigId, Configuration, DomainKnowledge, JobId, Result, SimTime};
use hyperdrive_workload::{JobProfile, SuspendModel, TraceSet, Workload};

use crate::appstat::SuspendEvent;
use crate::events::EventLog;
use crate::generator::{HyperparameterGenerator, RandomGenerator};

/// One job of an experiment: a configuration plus its hidden ground truth.
#[derive(Debug, Clone)]
pub struct ExperimentJob {
    /// Job identifier (position in the schedule order).
    pub job: JobId,
    /// Identifier assigned by the hyperparameter generator.
    pub config_id: ConfigId,
    /// The hyperparameter values.
    pub config: Configuration,
    /// Ground-truth execution profile (revealed incrementally by
    /// executors; never visible to policies).
    pub profile: JobProfile,
}

/// A fixed, replayable set of configurations for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentWorkload {
    /// Workload name (for reports).
    pub name: String,
    /// Model-owner domain knowledge.
    pub domain: DomainKnowledge,
    /// Evaluation boundary `b`.
    pub eval_boundary: u32,
    /// Epoch cap for every job.
    pub max_epochs: u32,
    /// Normalized target performance.
    pub target: f64,
    /// Suspend/resume cost model.
    pub suspend: SuspendModel,
    /// The jobs in schedule order.
    pub jobs: Vec<ExperimentJob>,
}

impl ExperimentWorkload {
    /// Builds an experiment from `n` random configurations of a workload
    /// (the paper's setup: same random generator, same seed across
    /// policies).
    pub fn from_workload(workload: &dyn Workload, n: usize, seed: u64) -> Self {
        Self::from_workload_with_noise(workload, n, seed, seed)
    }

    /// Like [`ExperimentWorkload::from_workload`], but decouples the
    /// configuration-sampling seed from the training-noise seed. The
    /// paper's repeated experiments (§6.1) keep the *same* hyperparameter
    /// set ("the same random search Hyperparameter Generator with the same
    /// initial random seed") while run-to-run training non-determinism
    /// varies — exactly `config_seed` fixed, `noise_seed` varying.
    pub fn from_workload_with_noise(
        workload: &dyn Workload,
        n: usize,
        config_seed: u64,
        noise_seed: u64,
    ) -> Self {
        let mut generator = RandomGenerator::new(workload.space().clone(), config_seed);
        Self::from_generator(workload, &mut generator, n, noise_seed)
            .expect("random generator never exhausts")
    }

    /// Builds an experiment by drawing `n` configurations from an
    /// arbitrary generator.
    ///
    /// # Errors
    ///
    /// Propagates generator exhaustion.
    pub fn from_generator(
        workload: &dyn Workload,
        generator: &mut dyn HyperparameterGenerator,
        n: usize,
        seed: u64,
    ) -> Result<Self> {
        let mut jobs = Vec::with_capacity(n);
        for i in 0..n {
            let (config_id, config) = generator.create_job()?;
            let profile = workload.profile(&config, seed.wrapping_add(i as u64));
            jobs.push(ExperimentJob { job: JobId::new(i as u64), config_id, config, profile });
        }
        Ok(ExperimentWorkload {
            name: workload.name().to_string(),
            domain: workload.domain_knowledge(),
            eval_boundary: workload.eval_boundary(),
            max_epochs: workload.max_epochs(),
            target: workload.default_target(),
            suspend: workload.suspend_model(),
            jobs,
        })
    }

    /// Builds an experiment by replaying recorded traces (the §7
    /// trace-driven simulator input).
    pub fn from_traces(
        traces: &TraceSet,
        domain: DomainKnowledge,
        eval_boundary: u32,
        target: f64,
        suspend: SuspendModel,
    ) -> Self {
        let max_epochs = traces.traces.iter().map(|t| t.values.len() as u32).max().unwrap_or(0);
        let jobs = traces
            .traces
            .iter()
            .enumerate()
            .map(|(i, t)| ExperimentJob {
                job: JobId::new(i as u64),
                config_id: ConfigId::new(u64::from(t.config_index)),
                config: Configuration::new(),
                profile: t.to_profile(),
            })
            .collect();
        ExperimentWorkload {
            name: traces.workload_name.clone(),
            domain,
            eval_boundary,
            max_epochs,
            target,
            suspend,
            jobs,
        }
    }

    /// Returns a copy with a different target performance.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = target;
        self
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the experiment has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Looks up a job's profile.
    ///
    /// # Panics
    ///
    /// Panics if the job id is out of range.
    pub fn profile(&self, job: JobId) -> &JobProfile {
        &self.jobs[job.raw() as usize].profile
    }
}

/// Cluster size, time budget, and stopping behaviour for one run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Number of machines (slots) `S`.
    pub machines: usize,
    /// The user's maximum experiment time `Tmax`.
    pub tmax: SimTime,
    /// Stop as soon as a job reaches the target (the paper's primary
    /// objective: minimize time-to-target). When false, the experiment
    /// runs until all jobs finish or `Tmax`.
    pub stop_on_target: bool,
    /// §9's dynamic-target mode: instead of stopping at the target, raise
    /// it by this increment each time it is reached (recording a
    /// [`TargetMilestone`]) and keep searching until the target exceeds
    /// 1.0, all jobs finish, or `Tmax`. Overrides `stop_on_target` while
    /// targets remain reachable.
    pub dynamic_target_increment: Option<f64>,
    /// Seed for executor-level randomness (suspend-cost sampling).
    pub seed: u64,
}

impl ExperimentSpec {
    /// A spec with the given machine count, 24h `Tmax`, stop-on-target.
    pub fn new(machines: usize) -> Self {
        ExperimentSpec {
            machines,
            tmax: SimTime::from_hours(24.0),
            stop_on_target: true,
            dynamic_target_increment: None,
            seed: 0,
        }
    }

    /// Sets `Tmax`.
    pub fn with_tmax(mut self, tmax: SimTime) -> Self {
        self.tmax = tmax;
        self
    }

    /// Sets the executor seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets whether the experiment stops at the first job reaching target.
    pub fn with_stop_on_target(mut self, stop: bool) -> Self {
        self.stop_on_target = stop;
        self
    }

    /// Enables §9's dynamic-target mode with the given increment.
    ///
    /// # Panics
    ///
    /// Panics if the increment is not positive and finite.
    pub fn with_dynamic_target(mut self, increment: f64) -> Self {
        assert!(
            increment.is_finite() && increment > 0.0,
            "dynamic-target increment must be positive"
        );
        self.dynamic_target_increment = Some(increment);
        self
    }
}

/// One dynamic-target achievement (§9's "gradually increasing the target
/// once it is reached").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetMilestone {
    /// The target that was reached.
    pub target: f64,
    /// When it was reached.
    pub time: SimTime,
    /// The job that reached it.
    pub job: JobId,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEnd {
    /// Ran to its epoch cap.
    Completed,
    /// Terminated early by the policy.
    Terminated,
    /// Still live (running, suspended, or queued) when the experiment
    /// stopped.
    Unfinished,
    /// Interrupted by faults until its retry budget ran out.
    Failed,
}

/// Per-job accounting at experiment end.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Epochs it completed.
    pub epochs: u32,
    /// Machine time it consumed (epochs + suspend/resume latencies).
    pub busy_time: SimTime,
    /// Best performance it reached (NaN if it never reported).
    pub best_value: f64,
    /// How it ended.
    pub end: JobEnd,
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Policy that produced this result.
    pub policy: String,
    /// Time at which some job reached the target, if any.
    pub time_to_target: Option<SimTime>,
    /// The job that reached the target.
    pub winner: Option<JobId>,
    /// Experiment end time.
    pub end_time: SimTime,
    /// Per-job accounting.
    pub outcomes: Vec<JobOutcome>,
    /// Every suspend event with sampled costs.
    pub suspend_events: Vec<SuspendEvent>,
    /// Targets reached in dynamic-target mode, in achievement order. In
    /// plain stop-on-target mode this holds at most the single final
    /// target.
    pub milestones: Vec<TargetMilestone>,
    /// The full scheduler event log (starts, suspends, terminations,
    /// completions, milestones) for Gantt/utilization analysis.
    pub events: EventLog,
    /// Total epochs executed across all jobs. Epochs rolled back by faults
    /// and re-run count every time they executed, so
    /// `total_epochs == Σ outcomes[].epochs + faults.lost_epochs`
    /// (epochs in flight when a fault struck were never recorded and appear
    /// in neither term).
    pub total_epochs: u64,
    /// High-water mark of modelled snapshot storage (§6.2.3, Fig. 10): the
    /// most the AppStat DB ever held, summing the sampled size of every
    /// snapshot a job could still resume from. Zero for suspend-free runs.
    pub peak_snapshot_bytes: u64,
    /// Fault-injection accounting; all-zero for fault-free runs.
    pub faults: crate::fault::FaultStats,
    /// The policy's curve-fit cache counters at run end
    /// ([`SchedulingPolicy::fit_cache_snapshot`](crate::SchedulingPolicy));
    /// `None` for policies that fit no curves. Diagnostics only — the
    /// counters never feed back into scheduling, so traces stay identical
    /// whatever they read.
    pub fit_cache: Option<crate::policy::FitCacheSnapshot>,
}

impl ExperimentResult {
    /// True if the target was reached within `Tmax`.
    pub fn reached_target(&self) -> bool {
        self.time_to_target.is_some()
    }

    /// Job execution durations in minutes (Fig. 6's metric) for jobs that
    /// ran at all.
    pub fn job_durations_mins(&self) -> Vec<f64> {
        self.outcomes.iter().filter(|o| o.epochs > 0).map(|o| o.busy_time.as_mins()).collect()
    }

    /// Number of jobs the policy terminated early.
    pub fn terminated_early(&self) -> usize {
        self.outcomes.iter().filter(|o| o.end == JobEnd::Terminated).count()
    }

    /// Number of jobs that exhausted their fault-retry budget.
    pub fn failed_jobs(&self) -> usize {
        self.outcomes.iter().filter(|o| o.end == JobEnd::Failed).count()
    }

    /// Everything that must match for two runs to count as the same run.
    pub fn signature(&self) -> RunSignature {
        let mut csv = Vec::new();
        self.events.write_csv(&mut csv).expect("writing to a Vec cannot fail");
        RunSignature {
            csv: String::from_utf8(csv).expect("the event log is utf-8"),
            end_time: self.end_time,
            total_epochs: self.total_epochs,
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_workload::CifarWorkload;

    #[test]
    fn from_workload_builds_jobs() {
        let w = CifarWorkload::new().with_max_epochs(10);
        let ew = ExperimentWorkload::from_workload(&w, 5, 42);
        assert_eq!(ew.len(), 5);
        assert_eq!(ew.max_epochs, 10);
        assert_eq!(ew.eval_boundary, 10);
        assert_eq!(ew.target, 0.77);
        for (i, j) in ew.jobs.iter().enumerate() {
            assert_eq!(j.job, JobId::new(i as u64));
            assert_eq!(j.profile.max_epochs(), 10);
        }
    }

    #[test]
    fn same_seed_same_configs() {
        let w = CifarWorkload::new().with_max_epochs(5);
        let a = ExperimentWorkload::from_workload(&w, 3, 9);
        let b = ExperimentWorkload::from_workload(&w, 3, 9);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.profile, y.profile);
        }
    }

    #[test]
    fn from_traces_replays() {
        let w = CifarWorkload::new().with_max_epochs(8);
        let traces = TraceSet::generate(&w, 4, 3);
        let ew = ExperimentWorkload::from_traces(
            &traces,
            w.domain_knowledge(),
            10,
            0.77,
            SuspendModel::supervised_snapshot(),
        );
        assert_eq!(ew.len(), 4);
        assert_eq!(ew.max_epochs, 8);
        // Replayed profiles match the original truth.
        let direct = ExperimentWorkload::from_workload(&w, 4, 3);
        for (a, b) in ew.jobs.iter().zip(&direct.jobs) {
            assert_eq!(a.profile.max_epochs(), b.profile.max_epochs());
            let da = a.profile.value_at(5);
            let db = b.profile.value_at(5);
            assert!((da - db).abs() < 1e-5, "{da} vs {db}");
        }
    }

    #[test]
    fn spec_builder_chain() {
        let spec = ExperimentSpec::new(4)
            .with_tmax(SimTime::from_hours(2.0))
            .with_seed(5)
            .with_stop_on_target(false);
        assert_eq!(spec.machines, 4);
        assert_eq!(spec.tmax, SimTime::from_hours(2.0));
        assert_eq!(spec.seed, 5);
        assert!(!spec.stop_on_target);
    }

    #[test]
    fn result_helpers() {
        let result = ExperimentResult {
            policy: "test".into(),
            time_to_target: Some(SimTime::from_mins(30.0)),
            winner: Some(JobId::new(2)),
            end_time: SimTime::from_mins(30.0),
            outcomes: vec![
                JobOutcome {
                    job: JobId::new(0),
                    epochs: 0,
                    busy_time: SimTime::ZERO,
                    best_value: f64::NAN,
                    end: JobEnd::Unfinished,
                },
                JobOutcome {
                    job: JobId::new(1),
                    epochs: 10,
                    busy_time: SimTime::from_mins(10.0),
                    best_value: 0.1,
                    end: JobEnd::Terminated,
                },
            ],
            suspend_events: vec![],
            milestones: vec![],
            events: EventLog::new(),
            total_epochs: 10,
            peak_snapshot_bytes: 0,
            faults: crate::fault::FaultStats::default(),
            fit_cache: None,
        };
        assert!(result.reached_target());
        assert_eq!(result.job_durations_mins(), vec![10.0]);
        assert_eq!(result.terminated_early(), 1);
    }
}

/// What makes two runs the same run ([`ExperimentResult::signature`]): the
/// event log as CSV, the end time, the epochs executed and the fault
/// counters. Journaling, resuming, fit threads, fit caching and fit
/// prefetch must all leave it unmoved.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSignature {
    /// The event log, as [`EventLog::write_csv`] writes it.
    pub csv: String,
    /// The run's end time.
    pub end_time: SimTime,
    /// Epochs executed, re-runs included.
    pub total_epochs: u64,
    /// The fault counters.
    pub faults: crate::fault::FaultStats,
}
