//! The AppStat DB's curves against a policy's own record of what it was told.
//!
//! The DB keeps one completion time per epoch and reads each value from the
//! workload's rows, building a `LearningCurve` only when one is asked for.
//! A recording policy rebuilds every job's curve from the
//! `application_stat` events it receives (when an epoch number repeats —
//! a rollback after a fault — it first cuts its copy back to the epoch
//! before it) and, at every up-call, holds the context to that copy:
//! `curve` and `secondary_curve` of every active job, `global_best` against
//! a scan of the copies, and the curve a prefetch hint carries. The runs
//! cover crashes, stalls, failed suspends and corrupted snapshots, a
//! suspend/resume churn, and the LSTM workload's secondary metric.

use std::collections::BTreeMap;

use hyperdrive::framework::{
    ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultConfig, FaultPlan, JobDecision,
    JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy,
};
use hyperdrive::sim::Simulation;
use hyperdrive::types::{JobId, LearningCurve, MetricKind};
use hyperdrive::workload::{CifarWorkload, LstmWorkload};
use hyperdrive::SimTime;

/// Suspends each job every `suspend_every` epochs while others wait, kills
/// every fifth job at epoch 7, and checks the context against its copies.
struct Recorder {
    suspend_every: u32,
    kind: MetricKind,
    /// Each job's secondary series, read from the workload up front.
    secondary: Vec<Option<Vec<f64>>>,
    curves: BTreeMap<JobId, LearningCurve>,
    secondary_curves: BTreeMap<JobId, LearningCurve>,
    checks: u64,
    hints: u64,
    empty_hints: u64,
}

impl Recorder {
    fn new(workload: &ExperimentWorkload, suspend_every: u32) -> Self {
        Recorder {
            suspend_every,
            kind: workload.domain.metric,
            secondary: workload
                .jobs
                .iter()
                .map(|j| j.profile.secondary_values().map(<[f64]>::to_vec))
                .collect(),
            curves: BTreeMap::new(),
            secondary_curves: BTreeMap::new(),
            checks: 0,
            hints: 0,
            empty_hints: 0,
        }
    }

    /// The copy of `job`'s curve as the context should show it with `done`
    /// epochs counted by the Job Manager: a rollback the copy has not seen
    /// re-run yet cuts it back.
    fn expected(
        copies: &BTreeMap<JobId, LearningCurve>,
        job: JobId,
        done: u32,
    ) -> Option<LearningCurve> {
        let copy = copies.get(&job)?;
        let kept = copy.prefix(done);
        assert_eq!(kept.len(), done as usize, "{job}: the copy holds every counted epoch");
        Some(kept)
    }

    fn check(&mut self, ctx: &dyn SchedulerContext) {
        self.checks += 1;
        for &job in ctx.active_jobs() {
            let done = ctx.epochs_done(job);
            assert_eq!(ctx.curve(job), Self::expected(&self.curves, job, done), "{job} curve");
            assert_eq!(
                ctx.secondary_curve(job),
                Self::expected(&self.secondary_curves, job, done),
                "{job} secondary curve"
            );
        }
        // Ascending job id, and the last of equal maxima.
        let scan = self
            .curves
            .iter()
            .filter_map(|(&job, c)| c.prefix(ctx.epochs_done(job)).best().map(|b| (job, b)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        assert_eq!(ctx.global_best(), scan);
    }

    fn record(&mut self, event: &JobEvent) {
        let append = |copy: &mut LearningCurve, value: f64| {
            if copy.last_epoch().is_some_and(|last| last >= event.epoch) {
                copy.truncate_to_epoch(event.epoch - 1);
            }
            copy.push(event.epoch, event.now, value);
        };
        let empty = LearningCurve::new(self.kind);
        append(self.curves.entry(event.job).or_insert_with(|| empty.clone()), event.value);
        if let Some(series) = &self.secondary[event.job.raw() as usize] {
            let copy = self.secondary_curves.entry(event.job).or_insert(empty);
            append(copy, series[event.epoch as usize - 1]);
        }
    }
}

impl SchedulingPolicy for Recorder {
    fn name(&self) -> &str {
        "curve-recorder"
    }

    fn allocate_jobs(&mut self, ctx: &mut dyn SchedulerContext) {
        self.check(ctx);
        while ctx.idle_slots() > 0 && ctx.start_next_idle_job().is_some() {}
        self.check(ctx);
    }

    fn application_stat(&mut self, event: &JobEvent, ctx: &mut dyn SchedulerContext) {
        self.record(event);
        self.check(ctx);
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        self.check(ctx);
        if event.epoch == 7 && event.job.raw().is_multiple_of(5) {
            JobDecision::Terminate
        } else if event.epoch.is_multiple_of(self.suspend_every) && ctx.idle_job_count() > 0 {
            JobDecision::Suspend
        } else {
            JobDecision::Continue
        }
    }

    /// A hint for every issued epoch that has a successor.
    fn prefetch_boundary(&self, _default: u32) -> Option<u32> {
        Some(1)
    }

    /// Delivered after the turn that issued `hint.epoch`: the curve holds
    /// the epochs before it, and a job that never reported gets no hint.
    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        self.hints += 1;
        self.empty_hints += u64::from(curve.is_empty());
        let copy = self.curves.get(&hint.job).expect("a hinted job has reported");
        assert_eq!(*curve, copy.prefix(hint.epoch - 1), "{} hint curve", hint.job);
    }
}

/// Runs the recorder and checks each outcome's `best_value` against its copy.
fn run(
    workload: &ExperimentWorkload,
    machines: usize,
    suspend_every: u32,
    plan: &FaultPlan,
) -> (ExperimentResult, Recorder) {
    let mut recorder = Recorder::new(workload, suspend_every);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_seed(5);
    let result = Simulation::with_faults(&mut recorder, workload, spec, plan).run();
    for outcome in &result.outcomes {
        let best = recorder.curves.get(&outcome.job).and_then(|c| c.prefix(outcome.epochs).best());
        assert_eq!(
            outcome.best_value.to_bits(),
            best.unwrap_or(f64::NAN).to_bits(),
            "{}",
            outcome.job
        );
    }
    assert!(recorder.checks > 500, "{} checks", recorder.checks);
    (result, recorder)
}

#[test]
fn curves_are_the_recorded_events_under_faults_churn_and_a_secondary_metric() {
    // Crashes, stalls, failed suspends and corrupted snapshots.
    let ew = ExperimentWorkload::from_workload(&CifarWorkload::new().with_max_epochs(24), 20, 3);
    let mut config = FaultConfig::with_intensity(9, SimTime::from_hours(6.0), 20.0);
    config.suspend_fail_prob = 0.2;
    config.snapshot_corrupt_prob = 0.3;
    let plan = FaultPlan::generate(5, &config);
    let (result, recorder) = run(&ew, 5, 3, &plan);
    let faults = result.faults;
    assert!(faults.machine_crashes > 0 && faults.agent_stalls > 0, "{faults:?}");
    assert!(faults.suspend_failures > 0 && faults.snapshot_corruptions > 0, "{faults:?}");
    assert!(faults.lost_epochs > 0, "{faults:?}");
    // A restart from scratch reads an empty curve, not none: each corrupted
    // snapshot's restart hints epoch 1 with one.
    assert!(recorder.empty_hints >= faults.snapshot_corruptions, "{} empty", recorder.empty_hints);

    // Fault-free suspend/resume churn.
    let ew = ExperimentWorkload::from_workload(&CifarWorkload::new().with_max_epochs(30), 24, 8);
    let (result, recorder) = run(&ew, 6, 2, &FaultPlan::none());
    assert!(result.suspend_events.len() > 100, "{} suspends", result.suspend_events.len());
    assert!(recorder.hints > 100 && recorder.empty_hints == 0, "{} hints", recorder.hints);

    // The LSTM workload's secondary metric, under faults.
    let ew = ExperimentWorkload::from_workload(&LstmWorkload::new().with_max_epochs(20), 12, 4);
    assert!(ew.jobs.iter().all(|j| j.profile.secondary_values().is_some()));
    let plan =
        FaultPlan::generate(4, &FaultConfig::with_intensity(2, SimTime::from_hours(24.0), 10.0));
    let (result, recorder) = run(&ew, 4, 4, &plan);
    assert!(result.faults.interruptions > 0, "{:?}", result.faults);
    assert_eq!(recorder.secondary_curves.len(), ew.len());
}
