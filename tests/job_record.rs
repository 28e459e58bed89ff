//! The per-job record, at the tier-1 level. The Job Manager keeps one
//! record per job — state, epoch count, the token of the command in
//! flight, the machine time charged — and the engine reads a job's ground
//! truth as rows of `(duration, value)`. Whatever the layout, three things
//! must hold: busy time is exactly what was charged, in the order it was
//! charged; a completion report whose token is absent or different is
//! dropped with the state untouched; and the accounting survives a job
//! being suspended, resumed, interrupted and retried.

use hyperdrive::framework::{
    Command, DefaultPolicy, EngineEvent, EngineInput, ExperimentEngine, ExperimentResult,
    ExperimentSpec, ExperimentWorkload, FaultPlan, JobDecision, JobEnd, JobEvent, Journal,
    RetryPolicy, SchedulerContext, SchedulerEvent, SchedulingPolicy,
};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

fn experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
    let w = CifarWorkload::new().with_max_epochs(epochs);
    ExperimentWorkload::from_workload(&w, n, seed)
}

/// A one-machine executor: at most one command is ever in flight, so
/// "complete whatever the last batch issued" is the whole event loop.
struct OneMachine<'w, 'p> {
    engine: ExperimentEngine<'w, 'p>,
    now: SimTime,
    /// Every batch the engine produced for an input that was not a
    /// deliberately stale report.
    batches: Vec<Vec<Command>>,
}

impl<'w, 'p> OneMachine<'w, 'p> {
    fn new(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        plan: &FaultPlan,
    ) -> Self {
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let engine =
            ExperimentEngine::with_journal(policy, workload, spec, plan, Journal::disabled());
        OneMachine { engine, now: SimTime::ZERO, batches: Vec::new() }
    }

    fn deliver(&mut self, input: EngineInput, now: SimTime) -> Vec<Command> {
        self.now = self.now.max(now);
        let mut out = Vec::new();
        self.engine.deliver(input, self.now, &mut out);
        self.batches.push(out.clone());
        out
    }

    /// Delivers a report the engine must drop: nothing may come back.
    fn deliver_stale(&mut self, event: EngineEvent, why: &str) {
        let mut out = Vec::new();
        self.engine.deliver(EngineInput::Event(event), self.now, &mut out);
        assert_eq!(out, Vec::new(), "{why}: a dropped report issues nothing");
    }

    /// The completion report of the one command in `batch`, due when the
    /// command's time has elapsed.
    fn completion_of(&mut self, batch: &[Command]) -> Option<EngineEvent> {
        match *batch.first()? {
            Command::RunEpoch { job, duration, token, .. } => {
                self.now += duration;
                Some(EngineEvent::EpochDone { job, token })
            }
            Command::Suspend { job, latency, token, .. } => {
                self.now += latency;
                Some(EngineEvent::SuspendDone { job, token })
            }
            Command::Stop => None,
        }
    }

    fn finish(self) -> (Vec<Vec<Command>>, ExperimentResult) {
        (self.batches, self.engine.into_result(self.now))
    }
}

#[test]
fn busy_time_is_the_durations_summed_in_epoch_order() {
    let epochs = 9;
    let ew = experiment(12, epochs, 3);
    let mut policy = DefaultPolicy::new();
    let spec = ExperimentSpec::new(5).with_stop_on_target(false);
    let result = run_sim(&mut policy, &ew, spec);
    assert_eq!(result.outcomes.len(), ew.len());
    for outcome in &result.outcomes {
        let profile = ew.profile(outcome.job);
        assert_eq!(outcome.end, JobEnd::Completed);
        assert_eq!(outcome.epochs, profile.max_epochs());
        assert_eq!(outcome.epochs, epochs);
        let charged = profile.epoch_durations().fold(0.0, |sum, d| sum + d.as_secs());
        assert_eq!(
            outcome.busy_time.as_secs().to_bits(),
            charged.to_bits(),
            "job {}: busy time is not the profile's durations in epoch order",
            outcome.job
        );
    }
    assert_eq!(result.total_epochs, ew.len() as u64 * u64::from(epochs));
}

/// Two jobs on one machine under `DefaultPolicy`: the machine crashes
/// under the first epoch and recovers, then both jobs run to their cap.
/// With `stale`, the run is salted with every kind of report the engine
/// must drop.
fn crash_then_run(ew: &ExperimentWorkload, stale: bool) -> (Vec<Vec<Command>>, ExperimentResult) {
    let mut policy = DefaultPolicy::new();
    let mut exec = OneMachine::new(&mut policy, ew, &FaultPlan::none());
    let batch = exec.deliver(EngineInput::Start, SimTime::ZERO);
    let Command::RunEpoch { job: victim, machine, duration, token: superseded, .. } = batch[0]
    else {
        panic!("expected the first epoch, got {batch:?}");
    };
    let batch = exec.deliver(EngineInput::MachineCrash(machine), SimTime::from_secs(1.0));
    assert_eq!(batch, Vec::new(), "the only machine is dead");
    if stale {
        // The crashed machine's report still arrives, when it was due.
        exec.now = duration;
        exec.deliver_stale(
            EngineEvent::EpochDone { job: victim, token: superseded },
            "superseded token",
        );
    }
    let mut batch = exec.deliver(EngineInput::MachineRecovery(machine), SimTime::from_secs(600.0));
    let mut last_report = Vec::new();
    while let Some(event) = exec.completion_of(&batch) {
        batch = exec.deliver(EngineInput::Event(event), exec.now);
        if stale {
            exec.deliver_stale(event, "the same report twice");
        }
        last_report.retain(|e: &EngineEvent| job_of(e) != job_of(&event));
        last_report.push(event);
    }
    assert_eq!(exec.engine.active_job_count(), 0, "every job ran to its cap");
    if stale {
        for event in last_report {
            exec.deliver_stale(event, "report for a completed job");
        }
    }
    exec.finish()
}

fn job_of(event: &EngineEvent) -> hyperdrive::JobId {
    match *event {
        EngineEvent::EpochDone { job, .. } | EngineEvent::SuspendDone { job, .. } => job,
    }
}

#[test]
fn stale_reports_are_dropped_with_the_state_untouched() {
    let ew = experiment(2, 4, 11);
    let (clean_batches, clean) = crash_then_run(&ew, false);
    let (salted_batches, salted) = crash_then_run(&ew, true);
    // Same tokens, same durations, same order: nothing a dropped report
    // touched fed into a later command.
    assert_eq!(salted_batches, clean_batches);
    assert_eq!(salted.signature(), clean.signature());
    assert_eq!(salted.total_epochs, 2 * 4, "the crashed epoch never completed, so none re-ran");
    assert_eq!(salted.faults.interruptions, 1);
    for (s, c) in salted.outcomes.iter().zip(&clean.outcomes) {
        assert_eq!(s.end, JobEnd::Completed);
        assert_eq!((s.job, s.epochs, s.end), (c.job, c.epochs, c.end));
        assert_eq!(s.busy_time.as_secs().to_bits(), c.busy_time.as_secs().to_bits());
    }
}

/// Suspends the job once, at `at`; otherwise continues.
struct SuspendAt {
    at: u32,
    done: bool,
}

impl SchedulingPolicy for SuspendAt {
    fn name(&self) -> &str {
        "suspend-at"
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        _ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        if event.epoch == self.at && !self.done {
            self.done = true;
            JobDecision::Suspend
        } else {
            JobDecision::Continue
        }
    }
}

#[test]
fn busy_time_survives_suspend_resume_interrupt_and_retry() {
    let epochs = 6;
    let ew = experiment(1, epochs, 23);
    let job = ew.jobs[0].job;
    let mut plan = FaultPlan::none();
    plan.retry = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
    let mut policy = SuspendAt { at: 2, done: false };
    let mut exec = OneMachine::new(&mut policy, &ew, &plan);

    let mut batch = exec.deliver(EngineInput::Start, SimTime::ZERO);
    let mut stalled = false;
    while let Some(event) = exec.completion_of(&batch) {
        if let Command::RunEpoch { machine, epoch: 4, .. } = batch[0] {
            if !stalled {
                // Epoch 4 is in flight on the resumed job: its agent
                // wedges, the job rolls back to its snapshot at epoch 2.
                stalled = true;
                batch = exec.deliver(EngineInput::AgentStall(machine), exec.now);
                exec.deliver_stale(event, "report of the stalled agent");
                continue;
            }
        }
        batch = exec.deliver(EngineInput::Event(event), exec.now);
    }
    let (batches, result) = exec.finish();

    // The sequence really happened: one suspend, a resume from its
    // snapshot, one interruption that lost epoch 3, a retried resume.
    assert_eq!(result.suspend_events.len(), 1);
    assert_eq!(result.faults.agent_stalls, 1);
    assert_eq!(result.faults.interruptions, 1);
    assert_eq!(result.faults.lost_epochs, 1);
    let resumes = result
        .events
        .events()
        .iter()
        .filter(|e| matches!(e, SchedulerEvent::Started { resumed: true, .. }))
        .count();
    assert_eq!(resumes, 2, "resumed after the suspend and again after the stall");
    assert_eq!(result.outcomes[0].end, JobEnd::Completed);
    assert_eq!(result.outcomes[0].epochs, epochs);

    // Busy time is every duration and latency the job was charged — the
    // resume latencies and the retry backoff ride inside the durations —
    // added in issue order.
    let mut charged = 0.0;
    let mut retried_epoch_3 = Vec::new();
    for cmd in batches.iter().flatten() {
        match *cmd {
            Command::RunEpoch { job: j, epoch, duration, .. } => {
                assert_eq!(j, job);
                charged += duration.as_secs();
                if epoch == 3 {
                    retried_epoch_3.push(duration);
                }
            }
            Command::Suspend { job: j, latency, .. } => {
                assert_eq!(j, job);
                charged += latency.as_secs();
            }
            Command::Stop => {}
        }
    }
    assert_eq!(result.outcomes[0].busy_time.as_secs().to_bits(), f64::to_bits(charged));
    let bare = ew.profile(job).epoch_duration(3);
    assert_eq!(retried_epoch_3.len(), 2, "epoch 3 ran twice");
    assert!(retried_epoch_3.iter().all(|d| *d > bare), "both runs paid a resume latency");
    assert!(
        result.outcomes[0].busy_time > ew.profile(job).total_duration(),
        "overheads are charged on top of the profile"
    );
}
