//! Reply faults: agent stalls and reply delays on the simulated wire.
//!
//! A [`FaultPlan`](hyperdrive_framework::FaultPlan)'s timed machine
//! crashes and recoveries are ordinary entries on the
//! [`Simulation`](crate::Simulation)'s future-event queue. The other two
//! timed kinds act on completion *reports* instead, so they are a filter on
//! the one place reports are scheduled: an agent stall swallows the next
//! report from its machine (the engine learns of the loss only when the
//! detection timeout fires), and a reply delay postpones a report without
//! losing it. Probabilistic faults (suspend failure, snapshot corruption)
//! are evaluated inside the engine from the plan's seeded RNG stream.
//!
//! A plan without stalls or delays builds empty tables and every report
//! passes straight through: with
//! [`FaultPlan::none`](hyperdrive_framework::FaultPlan::none) the
//! fault-capable simulation *is* the plain one.

use std::collections::{HashMap, VecDeque};

use hyperdrive_framework::{EngineEvent, EngineInput, FaultKind, FaultPlan};
use hyperdrive_types::{MachineId, SimTime};

/// Per machine: `(fault time, latency)` in time order. The next report due
/// at or after the fault time is hit.
type Pending = HashMap<MachineId, VecDeque<(SimTime, SimTime)>>;

/// Pending stall/delay faults, consumed in time order as reports pass
/// through them.
pub(crate) struct ReplyFaults {
    /// Latency = how long after the lost report's due time the scheduler
    /// notices.
    stalls: Pending,
    /// Latency = how much later the report arrives.
    delays: Pending,
}

impl ReplyFaults {
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        let mut stalls = Pending::new();
        let mut delays = Pending::new();
        for event in &plan.events {
            match event.kind {
                FaultKind::AgentStall { detection } => {
                    stalls.entry(event.machine).or_default().push_back((event.at, detection));
                }
                FaultKind::ReplyDelay { delay } => {
                    delays.entry(event.machine).or_default().push_back((event.at, delay));
                }
                FaultKind::MachineCrash
                | FaultKind::MachineRecover
                | FaultKind::EngineCrash { .. } => {}
            }
        }
        ReplyFaults { stalls, delays }
    }

    /// Routes the report of `event`, due at `due` from `machine`: what
    /// reaches the scheduler, and when. A stall swallows the report (only
    /// the watchdog's detection arrives), a delay postpones it, and
    /// otherwise it arrives on time.
    pub(crate) fn route(
        &mut self,
        machine: MachineId,
        due: SimTime,
        event: EngineEvent,
    ) -> (SimTime, EngineInput) {
        if self.stalls.is_empty() && self.delays.is_empty() {
            // The plan had neither (every fault-free run): skip the lookups.
            return (due, EngineInput::Event(event));
        }
        if let Some(detection) = take_due(&mut self.stalls, machine, due) {
            return (due + detection, EngineInput::AgentStall(machine));
        }
        match take_due(&mut self.delays, machine, due) {
            Some(delay) => (due + delay, EngineInput::Event(event)),
            None => (due, EngineInput::Event(event)),
        }
    }
}

/// Pops `machine`'s next pending fault if it strikes a report due at `due`,
/// returning its latency.
fn take_due(pending: &mut Pending, machine: MachineId, due: SimTime) -> Option<SimTime> {
    let queue = pending.get_mut(&machine)?;
    let &(at, latency) = queue.front()?;
    (at <= due).then(|| {
        queue.pop_front();
        latency
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_sim, Simulation};
    use hyperdrive_framework::{
        check_trace, DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload,
        FaultConfig, FaultPlan, JobEnd, RetryPolicy,
    };
    use hyperdrive_types::SimTime;
    use hyperdrive_workload::CifarWorkload;

    fn experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, seed)
    }

    /// Holds a finished run to `check_trace`'s laws (epoch accounting,
    /// crash/recovery books, failed jobs, ...).
    fn assert_laws(result: &ExperimentResult, ew: &ExperimentWorkload, spec: &ExperimentSpec) {
        if let Err(violation) = check_trace(result, ew, spec) {
            panic!("{violation}");
        }
    }

    #[test]
    fn crashes_recover_and_all_jobs_finish() {
        let ew = experiment(8, 6, 5);
        let spec = ExperimentSpec::new(3).with_stop_on_target(false).with_seed(5);
        let plan = FaultPlan::generate(
            3,
            &FaultConfig::with_intensity(17, SimTime::from_hours(12.0), 20.0),
        );
        assert!(!plan.is_empty(), "intensity 20 must inject faults");
        let mut policy = DefaultPolicy::new();
        let result = Simulation::with_faults(&mut policy, &ew, spec, &plan).run();
        assert!(result.faults.interruptions > 0, "faults actually struck");
        // The run may finish before the last scheduled recoveries fire;
        // the books must still balance (`check_trace`, below).
        assert!(
            result
                .outcomes
                .iter()
                .all(|o| matches!(o.end, JobEnd::Completed | JobEnd::Terminated | JobEnd::Failed)),
            "no job left dangling: {:?}",
            result.outcomes.iter().map(|o| o.end).collect::<Vec<_>>()
        );
        assert_laws(&result, &ew, &spec);
    }

    #[test]
    fn zero_retries_fail_jobs_instead_of_hanging() {
        let ew = experiment(4, 6, 2);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(2);
        let mut config = FaultConfig::with_intensity(8, SimTime::from_hours(12.0), 30.0);
        config.retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let plan = FaultPlan::generate(2, &config);
        let mut policy = DefaultPolicy::new();
        let result = Simulation::with_faults(&mut policy, &ew, spec, &plan).run();
        assert!(result.faults.failed_jobs > 0, "first interruption fails a job");
        assert_laws(&result, &ew, &spec);
    }

    #[test]
    fn delayed_replies_lose_no_work() {
        let ew = experiment(4, 4, 3);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(3);
        let mut config = FaultConfig::with_intensity(5, SimTime::from_hours(12.0), 10.0);
        // Delays only: no crashes, stalls, or probabilistic faults.
        config.crash_rate_per_hour = 0.0;
        config.stall_rate_per_hour = 0.0;
        config.suspend_fail_prob = 0.0;
        config.snapshot_corrupt_prob = 0.0;
        let plan = FaultPlan::generate(2, &config);
        assert!(!plan.is_empty());
        let mut policy = DefaultPolicy::new();
        let faulty = Simulation::with_faults(&mut policy, &ew, spec, &plan).run();
        let mut baseline_policy = DefaultPolicy::new();
        let baseline = run_sim(&mut baseline_policy, &ew, spec);
        assert_eq!(faulty.faults.lost_epochs, 0, "delays lose nothing");
        assert_eq!(faulty.total_epochs, baseline.total_epochs);
        assert!(faulty.end_time >= baseline.end_time, "late reports can only lengthen the run");
        assert_laws(&faulty, &ew, &spec);
    }

    #[test]
    fn unbounded_retries_run_to_completion() {
        // `max_retries: u32::MAX` is legal; the queue pre-size must not
        // multiply it out (terabytes) before the first event.
        let ew = experiment(6, 4, 4);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(4);
        let mut config = FaultConfig::with_intensity(21, SimTime::from_hours(12.0), 20.0);
        config.retry = RetryPolicy { max_retries: u32::MAX, ..RetryPolicy::default() };
        let plan = FaultPlan::generate(2, &config);
        assert!(!plan.is_empty());
        let mut policy = DefaultPolicy::new();
        let result = Simulation::with_faults(&mut policy, &ew, spec, &plan).run();
        assert!(result.faults.interruptions > 0, "faults actually struck");
        assert_eq!(result.failed_jobs(), 0, "no retry budget to exhaust");
        assert!(result.outcomes.iter().all(|o| o.end == JobEnd::Completed));
        assert_laws(&result, &ew, &spec);
    }
}
