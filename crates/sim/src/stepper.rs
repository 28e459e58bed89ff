//! [`Simulation`]: the one loop ([`Driver`]) over the virtual-time source
//! (the crate docs say how everything else hangs off it).

use hyperdrive_framework::{
    Command, Driver, EngineEvent, EngineInput, ExperimentEngine, ExperimentResult, ExperimentSpec,
    ExperimentWorkload, FaultKind, FaultPlan, InputSource, Journal, RecoveredJournal,
    SchedulingPolicy,
};
use hyperdrive_types::{Result, SimTime};

use crate::faults::ReplyFaults;
use crate::queue::EventQueue;

/// The virtual-time [`InputSource`]: one `(time, EngineInput)` queue of
/// reports, timed faults and stall detections, filled through the
/// [reply-fault filter](crate::faults).
struct SimSource {
    queue: EventQueue<EngineInput>,
    reply_faults: ReplyFaults,
}

impl InputSource for SimSource {
    #[inline]
    fn next_input(&mut self) -> Option<(SimTime, EngineInput)> {
        self.queue.pop()
    }

    #[inline]
    fn route(&mut self, now: SimTime, cmds: &[Command]) {
        for (machine, due, event) in cmds.iter().filter_map(|c| c.report(now)) {
            let (at, input) = self.reply_faults.route(machine, due, event);
            self.queue.schedule(at, input);
        }
    }
}

/// A completion report that one [`Simulation::step`] delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The event that was delivered to the engine.
    pub event: EngineEvent,
    /// The virtual time at which it occurred.
    pub time: SimTime,
}

/// A resumable, inspectable discrete-event simulation of one experiment:
/// the one loop ([`Driver`]) over the virtual-time source.
///
/// # Example
///
/// ```
/// use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
/// use hyperdrive_sim::Simulation;
/// use hyperdrive_workload::CifarWorkload;
///
/// let workload = CifarWorkload::new().with_max_epochs(3);
/// let experiment = ExperimentWorkload::from_workload(&workload, 4, 1);
/// let mut policy = DefaultPolicy::new();
/// let mut sim = Simulation::new(
///     &mut policy,
///     &experiment,
///     ExperimentSpec::new(2).with_stop_on_target(false),
/// );
/// let mut steps: u64 = 0;
/// while sim.step().is_some() {
///     steps += 1;
/// }
/// let result = sim.finish();
/// assert_eq!(u64::from(steps), result.total_epochs);
/// ```
pub struct Simulation<'w, 'p> {
    driver: Driver<'w, 'p, SimSource>,
}

impl<'w, 'p> Simulation<'w, 'p> {
    /// Sets up a fault-free simulation and schedules the initial job
    /// starts. Journals nothing.
    pub fn new(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
    ) -> Self {
        Self::with_faults(policy, workload, spec, &FaultPlan::none())
    }

    /// Like [`new`](Self::new), injecting the faults scheduled in `plan`:
    /// every interrupted job is rolled back to its last snapshot and
    /// re-run (capped by the plan's retry policy), and crashed machines
    /// rejoin the cluster at their scheduled recovery times.
    /// [`FaultKind::EngineCrash`] events are not honoured here — see
    /// [`run_sim_with_recovery`](crate::run_sim_with_recovery).
    pub fn with_faults(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
    ) -> Self {
        let engine = ExperimentEngine::with_fault_injection(policy, workload, spec, plan);
        Self::start(engine, workload.len(), plan)
    }

    /// Like [`with_faults`](Self::with_faults), recording every input to
    /// the write-ahead `journal` for [`resume`](Self::resume).
    /// Journaling is pure output: the trace is byte-identical with any
    /// journal, including [`Journal::disabled`].
    pub fn with_journal(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        journal: Journal,
    ) -> Self {
        let engine = ExperimentEngine::with_journal(policy, workload, spec, plan, journal);
        Self::start(engine, workload.len(), plan)
    }

    /// Rebuilds the simulation a dead process left behind: steps a fresh
    /// one through the journaled prefix — the deterministic queue
    /// regenerates the very inputs the dead process consumed, and the
    /// journal verifies each of them, and every record they produce, byte
    /// for byte — and hands it back ready to continue. The completed trace
    /// is byte-identical to an uninterrupted run.
    ///
    /// `policy` must be a *fresh* instance of the same policy the dead
    /// process ran: replay drives it through every historical up-call,
    /// rebuilding its internal state alongside the engine's.
    ///
    /// # Errors
    ///
    /// [`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged)
    /// if replay regenerates different inputs or records than the journal
    /// holds (wrong policy, workload, spec, or plan).
    pub fn resume(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        recovered: RecoveredJournal,
    ) -> Result<Self> {
        let RecoveredJournal { journal, inputs, .. } = recovered;
        let sim = Self::with_journal(policy, workload, spec, plan, journal.clone());
        Ok(Simulation { driver: sim.driver.replay(&journal, inputs.len() as u64)? })
    }

    /// Schedules the plan's timed machine faults and delivers `Start`:
    /// construction includes the initial `AllocateJobs` up-call.
    fn start(engine: ExperimentEngine<'w, 'p>, jobs: usize, plan: &FaultPlan) -> Self {
        let mut queue = EventQueue::with_capacity(queue_capacity(jobs, plan));
        for event in &plan.events {
            let input = match event.kind {
                FaultKind::MachineCrash => EngineInput::MachineCrash(event.machine),
                FaultKind::MachineRecover => EngineInput::MachineRecovery(event.machine),
                // Stalls and delays act on reports (`ReplyFaults`); engine
                // crashes kill the whole simulation from outside.
                FaultKind::AgentStall { .. }
                | FaultKind::ReplyDelay { .. }
                | FaultKind::EngineCrash { .. } => continue,
            };
            queue.schedule(event.at, input);
        }
        let source = SimSource { queue, reply_faults: ReplyFaults::from_plan(plan) };
        Simulation { driver: Driver::start(engine, source) }
    }

    /// Pops the next input, delivers it, and schedules the reports of the
    /// commands it produced ([`Driver::step_input`]).
    pub fn step_input(&mut self) -> Option<(SimTime, EngineInput)> {
        self.driver.step_input()
    }

    /// Processes inputs up to and including the next completion report.
    /// In a fault-free simulation that is exactly one input; fault inputs
    /// on the way are delivered and skipped over (use
    /// [`step_input`](Self::step_input) to see them). Returns `None` once
    /// the experiment is over.
    pub fn step(&mut self) -> Option<StepOutcome> {
        loop {
            if let (time, EngineInput::Event(event)) = self.step_input()? {
                return Some(StepOutcome { event, time });
            }
        }
    }

    /// Runs until the virtual clock reaches `until` (or the experiment
    /// stops), returning the number of inputs processed.
    pub fn run_until(&mut self, until: SimTime) -> usize {
        let mut processed = 0;
        while self.driver.source().queue.peek_time().is_some_and(|t| t <= until)
            && self.step_input().is_some()
        {
            processed += 1;
        }
        processed
    }

    /// [`Driver::run_to_input`]: the coordinate of a simulated kill.
    pub fn run_to_input(&mut self, position: u64) {
        self.driver.run_to_input(position);
    }

    /// [`Driver::inputs_delivered`]: the journal position.
    pub fn inputs_delivered(&self) -> u64 {
        self.driver.inputs_delivered()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.driver.now()
    }

    /// Number of events waiting in the future-event queue.
    pub fn pending_events(&self) -> usize {
        self.driver.source().queue.len()
    }

    /// True once the experiment has stopped.
    pub fn stopped(&self) -> bool {
        self.driver.stopping() || self.driver.source().queue.is_empty()
    }

    /// Runs the experiment to its end and produces the result.
    pub fn run(self) -> ExperimentResult {
        self.driver.run()
    }

    /// Produces the experiment result, sealing the journal.
    pub fn finish(self) -> ExperimentResult {
        self.driver.finish()
    }
}

/// Heap pre-size. The queue may grow past it; the point is that it never
/// does in the runs whose allocation count is pinned.
///
/// Without faults each job holds at most one outstanding command (RunEpoch
/// *or* Suspend, never both) and no token ever goes stale, so at most one
/// future event per job is queued; one spare slot keeps a full cluster's simultaneous batch
/// from landing exactly on capacity. Under faults every interruption can
/// also orphan a stale-token event that lingers until its due time, and a
/// job is interrupted at most `max_retries + 1` times before it fails — so
/// up to `max_retries + 2` queued events per job — plus one slot per timed
/// fault in the plan. `max_retries` is caller-supplied and may be
/// `u32::MAX`, so the product saturates and is capped.
fn queue_capacity(jobs: usize, plan: &FaultPlan) -> usize {
    const MAX_PRESIZE: usize = 1 << 20;
    if plan.is_empty() {
        return jobs + 1;
    }
    let per_job = (plan.retry.max_retries as usize).saturating_add(2);
    let worst_case = jobs.saturating_mul(per_job).saturating_add(plan.events.len() + 1);
    worst_case.min(MAX_PRESIZE.max(jobs + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_framework::{DefaultPolicy, RetryPolicy};
    use hyperdrive_workload::CifarWorkload;

    fn experiment(n: usize, epochs: u32) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, 3)
    }

    #[test]
    fn events_arrive_in_time_order() {
        let ew = experiment(5, 4);
        let mut policy = DefaultPolicy::new();
        let mut sim =
            Simulation::new(&mut policy, &ew, ExperimentSpec::new(2).with_stop_on_target(false));
        let mut last = SimTime::ZERO;
        while let Some(step) = sim.step() {
            assert!(step.time >= last, "time went backwards");
            last = step.time;
            assert_eq!(sim.now(), step.time);
        }
        assert!(sim.stopped());
    }

    #[test]
    fn run_until_respects_the_clock() {
        let ew = experiment(4, 10);
        let mut policy = DefaultPolicy::new();
        let mut sim =
            Simulation::new(&mut policy, &ew, ExperimentSpec::new(2).with_stop_on_target(false));
        let horizon = SimTime::from_mins(10.0);
        sim.run_until(horizon);
        assert!(sim.now() <= horizon);
        // Remaining events are all beyond the horizon.
        assert!(sim.pending_events() > 0);
        // Continue to completion.
        while sim.step().is_some() {}
        let result = sim.finish();
        assert_eq!(result.total_epochs, 4 * 10);
    }

    #[test]
    fn stop_on_target_halts_stepping() {
        let ew = experiment(4, 20).with_target(0.05);
        let mut policy = DefaultPolicy::new();
        let mut sim = Simulation::new(&mut policy, &ew, ExperimentSpec::new(2));
        while sim.step().is_some() {}
        let result = sim.finish();
        assert!(result.reached_target());
    }

    #[test]
    fn queue_presize_saturates_and_is_capped() {
        let mut plan = FaultPlan::none();
        assert_eq!(queue_capacity(10, &plan), 11, "empty plan: one event per job");
        plan.suspend_fail_prob = 0.5;
        assert_eq!(queue_capacity(10, &plan), 10 * 5 + 1, "default retries: max_retries + 2 each");
        plan.retry = RetryPolicy { max_retries: u32::MAX, ..RetryPolicy::default() };
        assert_eq!(queue_capacity(10, &plan), 1 << 20);
        assert_eq!(queue_capacity(3 << 20, &plan), (3 << 20) + 1, "never below jobs + 1");
    }
}
