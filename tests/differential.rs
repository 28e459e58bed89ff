//! The differential table: every (mode, group) cell of the harness in
//! `tests/harness/mod.rs` that no earlier test's name carries, and one
//! planted violation per law family that `check_trace` must catch.

use hyperdrive::framework::testing::ChaosPolicy;
use hyperdrive::framework::{
    check_trace, EventLog, ExperimentResult, ExperimentSpec, ExperimentWorkload, SchedulerEvent,
    TraceViolation,
};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::{JobId, MachineId};

#[macro_use]
mod harness;

cells! {
    rerun_bandit: Bandit, Rerun;
    rerun_pop: Pop, Rerun;
    rerun_earlyterm: EarlyTerm, Rerun;
    threads_pop: Pop, Threads;
    cache_pop: Pop, Cache;
    journaled_bandit: Bandit, Journaled;
    journaled_chaos: Chaos, Journaled;
    journaled_pop: Pop, Journaled;
    journaled_earlyterm: EarlyTerm, Journaled;
    killed_bandit: Bandit, Killed { prefetch: false };
    killed_earlyterm: EarlyTerm, Killed { prefetch: false };
    server_pop: Pop, Server;
}

// `check_trace` bites: each test plants one violation in a valid run and
// gets that violation back, typed.

/// `check_trace` on a chaos run to completion on 2 machines — one with a
/// suspend and a termination — after `plant` edits its result and log.
fn planted(plant: impl FnOnce(&mut ExperimentResult, &mut Vec<SchedulerEvent>)) -> TraceViolation {
    let ew = ExperimentWorkload::from_workload(&CifarWorkload::new().with_max_epochs(8), 6, 3);
    let spec = ExperimentSpec::new(2).with_stop_on_target(false);
    let mut result = (1..64)
        .map(|seed| run_sim(&mut ChaosPolicy::new(seed), &ew, spec))
        .find(|r| {
            let has = |f: fn(&SchedulerEvent) -> bool| r.events.events().iter().any(f);
            has(|e| matches!(e, SchedulerEvent::Suspended { .. }))
                && has(|e| matches!(e, SchedulerEvent::Terminated { .. }))
        })
        .expect("a chaos seed both suspends and terminates");
    assert_eq!(check_trace(&result, &ew, &spec), Ok(()), "the unplanted run is valid");
    let mut events = result.events.events().to_vec();
    plant(&mut result, &mut events);
    result.events = EventLog::new();
    events.into_iter().for_each(|e| result.events.record(e));
    check_trace(&result, &ew, &spec).expect_err("the planted violation is caught")
}

/// The first event `pick` matches: its index, job and machine.
fn find(events: &[SchedulerEvent], pick: fn(&SchedulerEvent) -> bool) -> (usize, JobId, MachineId) {
    let i = events.iter().position(pick).expect("the run has one");
    match events[i] {
        SchedulerEvent::Started { job, machine, .. }
        | SchedulerEvent::Suspended { job, machine, .. }
        | SchedulerEvent::Terminated { job, machine, .. } => (i, job, machine),
        _ => unreachable!("only job-on-machine events are looked up"),
    }
}

#[test]
fn a_double_booked_machine_is_a_violation() {
    let mut booked = None;
    let violation = planted(|_, events| {
        let (_, _, machine) = find(events, |e| matches!(e, SchedulerEvent::Started { .. }));
        let (job, time) = (JobId::new(5), events[0].time()); // job 5 starts last
        events.insert(1, SchedulerEvent::Started { job, machine, time, resumed: false });
        booked = Some(machine);
    });
    assert!(
        matches!(violation, TraceViolation::DoubleBooked { index: 1, machine, .. } if Some(machine) == booked),
        "{violation:?}"
    );
}

#[test]
fn a_start_after_termination_is_a_violation() {
    let mut killed = None;
    let violation = planted(|result, events| {
        let (_, job, machine) = find(events, |e| matches!(e, SchedulerEvent::Terminated { .. }));
        let time = result.end_time;
        events.push(SchedulerEvent::Started { job, machine, time, resumed: true });
        killed = Some(job);
    });
    assert!(
        matches!(violation, TraceViolation::AfterTerminal { job, .. } if Some(job) == killed),
        "{violation:?}"
    );
}

#[test]
fn a_dropped_suspend_is_a_violation() {
    let mut dropped = None;
    let violation = planted(|_, events| {
        let (i, job, _) = find(events, |e| matches!(e, SchedulerEvent::Suspended { .. }));
        events.remove(i);
        dropped = Some(job);
    });
    assert!(
        matches!(violation, TraceViolation::SuspendMismatch { job, .. } if Some(job) == dropped),
        "{violation:?}"
    );
}

#[test]
fn epochs_past_the_cap_are_a_violation() {
    let violation = planted(|result, _| result.outcomes[0].epochs = 9);
    let (job, epochs, cap) = (JobId::new(0), 9, 8);
    assert_eq!(violation, TraceViolation::EpochsOverCap { job, epochs, cap });
}

#[test]
fn epoch_accounting_off_by_one_is_a_violation() {
    let violation = planted(|result, _| result.total_epochs += 1);
    assert!(matches!(violation, TraceViolation::EpochAccounting { .. }), "{violation:?}");
}
