//! Trace validation: the laws every finished run obeys, whoever produced it.
//!
//! [`check_trace`] holds an [`ExperimentResult`] to the conservation laws
//! of the engine — independently of the policy that scheduled it and of the
//! input source (simulator, live agents, a hand-driven engine) that fed it:
//!
//! * one job per machine at a time, nothing on a dead machine, and nothing
//!   after a job's terminal event;
//! * `epochs ≤ cap` for every job, and `Completed` ⇒ `epochs == cap`;
//! * every `Suspended` closes a span its job held, and the suspend
//!   telemetry agrees with the log;
//! * a job never holds its machine for less time than it was charged
//!   (`busy_time`), so `Σ busy_time ≤ machines × end_time` for every job a
//!   fault did not cut short;
//! * `total_epochs == Σ epochs + lost_epochs`;
//! * the crash/recovery books balance, and `failed_jobs` agrees with the
//!   outcomes and the log;
//! * `peak_snapshot_bytes` lies between the largest suspend's snapshot and
//!   the sum of every job's largest one.
//!
//! [`ExperimentEngine::into_result`](crate::ExperimentEngine::into_result)
//! calls it in debug builds, so every result any debug test produces is
//! checked; release builds compile the call out.

use std::fmt;

use hyperdrive_types::{JobId, MachineId, SimTime};

use crate::events::SchedulerEvent;
use crate::experiment::{ExperimentResult, ExperimentSpec, ExperimentWorkload, JobEnd};

/// The first law a result breaks. `index` is the offending event's position
/// in the log; `job` and `machine` are the ones the law concerns.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // each variant's doc names its fields
pub enum TraceViolation {
    /// `outcomes` outcomes for `jobs` jobs: not one per job, in job order.
    Outcomes { jobs: usize, outcomes: usize },
    /// `job` ran `epochs` epochs, more than its profile's `cap`.
    EpochsOverCap { job: JobId, epochs: u32, cap: u32 },
    /// `job` reported `Completed` at `epochs` of its `cap`.
    CompletedShort { job: JobId, epochs: u32, cap: u32 },
    /// `total_epochs` (`total`) is not `surviving` (`Σ epochs`) + `lost`.
    EpochAccounting { total: u64, surviving: u64, lost: u64 },
    /// A fault counter disagrees with the log or another counter: `law`.
    FaultBooks { law: &'static str },
    /// `faults.failed_jobs` (`counted`), the `Failed` outcomes and the
    /// `Failed` events (`logged`) disagree.
    FailedJobs { counted: u64, outcomes: u64, logged: u64 },
    /// `job`'s suspend requests (`requested`, from `suspend_events`) are not
    /// its `Suspended` events (`completed`) plus those an interruption cut
    /// short or the run's end left in flight.
    SuspendMismatch { job: JobId, requested: u64, completed: u64 },
    /// `peak_snapshot_bytes` (`peak`) lies outside `lower..=upper`: the
    /// largest snapshot and the sum of every job's largest.
    SnapshotPeak { peak: u64, lower: u64, upper: u64 },
    /// An event earlier than the one before it, or later than the end.
    EventTime { index: usize },
    /// An event naming a job or machine outside the run.
    UnknownId { index: usize },
    /// `job` started on `machine` while `occupant` held it.
    DoubleBooked { machine: MachineId, job: JobId, occupant: JobId, index: usize },
    /// `job` started while it already held a machine.
    StartedTwice { job: JobId, index: usize },
    /// `machine` was used or crashed while dead, or recovered while alive.
    DeadMachine { machine: MachineId, index: usize },
    /// An event for `job` after its terminal event.
    AfterTerminal { job: JobId, index: usize },
    /// `job` left (suspended from, ended on, was interrupted off, or failed
    /// off) a machine it did not hold.
    NotRunning { job: JobId, index: usize },
    /// `job`'s outcome `end` disagrees with its terminal event in the log.
    EndMismatch { job: JobId, end: JobEnd },
    /// `job` was charged `busy` seconds but held machines `held` seconds.
    BusyTime { job: JobId, busy: f64, held: f64 },
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for TraceViolation {}

/// Where a job is, as the log tells it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seat {
    /// Not on a machine: queued, suspended, or knocked off by a fault.
    Off,
    /// Holding a machine since a time.
    On(MachineId, SimTime),
    /// After its terminal event.
    Ended(JobEnd),
}

/// Checks a finished run against the laws in the [module docs](self).
///
/// # Errors
///
/// The first [`TraceViolation`] found.
pub fn check_trace(
    result: &ExperimentResult,
    workload: &ExperimentWorkload,
    spec: &ExperimentSpec,
) -> Result<(), TraceViolation> {
    let jobs = workload.len();
    let in_order = result.outcomes.iter().enumerate().all(|(i, o)| o.job.raw() == i as u64);
    if result.outcomes.len() != jobs || !in_order {
        return Err(TraceViolation::Outcomes { jobs, outcomes: result.outcomes.len() });
    }
    for (o, j) in result.outcomes.iter().zip(&workload.jobs) {
        let cap = j.profile.max_epochs();
        if o.epochs > cap {
            return Err(TraceViolation::EpochsOverCap { job: o.job, epochs: o.epochs, cap });
        }
        if o.end == JobEnd::Completed && o.epochs != cap {
            return Err(TraceViolation::CompletedShort { job: o.job, epochs: o.epochs, cap });
        }
    }
    let surviving: u64 = result.outcomes.iter().map(|o| u64::from(o.epochs)).sum();
    let faults = &result.faults;
    if result.total_epochs != surviving + faults.lost_epochs {
        return Err(TraceViolation::EpochAccounting {
            total: result.total_epochs,
            surviving,
            lost: faults.lost_epochs,
        });
    }

    // Per-job and per-kind counts from the log.
    let mut completed = vec![0u64; jobs];
    let mut interrupted = vec![0u64; jobs];
    let mut open = vec![false; jobs];
    let (mut crashes, mut recoveries, mut interruptions) = (0u64, 0u64, 0u64);
    let (mut logged_lost, mut corruptions, mut failed) = (0u64, 0u64, 0u64);
    for event in result.events.events() {
        let bump = |counts: &mut [u64], job: JobId| {
            if let Some(c) = counts.get_mut(job.raw() as usize) {
                *c += 1;
            }
        };
        let mut set_open = |job: JobId, on: bool| {
            if let Some(o) = open.get_mut(job.raw() as usize) {
                *o = on;
            }
        };
        match *event {
            SchedulerEvent::Started { job, .. } => set_open(job, true),
            SchedulerEvent::Terminated { job, .. } | SchedulerEvent::Completed { job, .. } => {
                set_open(job, false)
            }
            SchedulerEvent::Suspended { job, .. } => {
                set_open(job, false);
                bump(&mut completed, job);
            }
            SchedulerEvent::Interrupted { job, lost_epochs, .. } => {
                set_open(job, false);
                bump(&mut interrupted, job);
                interruptions += 1;
                logged_lost += u64::from(lost_epochs);
            }
            SchedulerEvent::MachineCrashed { .. } => crashes += 1,
            SchedulerEvent::MachineRecovered { .. } => recoveries += 1,
            SchedulerEvent::SnapshotCorrupted { .. } => corruptions += 1,
            SchedulerEvent::Failed { .. } => failed += 1,
            _ => {}
        }
    }
    let books: [(bool, &'static str); 7] = [
        (faults.machine_crashes == crashes, "machine_crashes != crash events"),
        (faults.machine_recoveries == recoveries, "machine_recoveries != recovery events"),
        (
            recoveries <= crashes && faults.dead_machines_at_end == crashes - recoveries,
            "dead_machines_at_end != crashes - recoveries",
        ),
        (faults.interruptions == interruptions, "interruptions != interrupted events"),
        (
            faults.agent_stalls + faults.suspend_failures <= interruptions,
            "a stall or failed suspend interrupted nothing",
        ),
        (faults.snapshot_corruptions == corruptions, "snapshot_corruptions != corrupted events"),
        (
            faults.lost_epochs >= logged_lost
                && (corruptions > 0 || faults.lost_epochs == logged_lost),
            "lost_epochs != epochs the interruptions rolled back",
        ),
    ];
    if let Some(&(_, law)) = books.iter().find(|(holds, _)| !holds) {
        return Err(TraceViolation::FaultBooks { law });
    }
    let failed_outcomes = result.outcomes.iter().filter(|o| o.end == JobEnd::Failed).count() as u64;
    if faults.failed_jobs != failed_outcomes || failed != failed_outcomes {
        return Err(TraceViolation::FailedJobs {
            counted: faults.failed_jobs,
            outcomes: failed_outcomes,
            logged: failed,
        });
    }

    // Suspend telemetry against the log, and snapshot storage against both.
    let mut requested = vec![0u64; jobs];
    let mut largest = vec![0u64; jobs];
    for e in &result.suspend_events {
        let Some(r) = requested.get_mut(e.job.raw() as usize) else {
            // A request for a job outside the run: nothing can match it.
            return Err(TraceViolation::SuspendMismatch { job: e.job, requested: 1, completed: 0 });
        };
        *r += 1;
        let size = &mut largest[e.job.raw() as usize];
        *size = (*size).max(e.cost.snapshot_bytes);
    }
    for (j, o) in result.outcomes.iter().enumerate() {
        let in_flight = u64::from(open[j]);
        if requested[j] < completed[j] || requested[j] > completed[j] + interrupted[j] + in_flight {
            return Err(TraceViolation::SuspendMismatch {
                job: o.job,
                requested: requested[j],
                completed: completed[j],
            });
        }
    }
    let (lower, upper) = (largest.iter().copied().max().unwrap_or(0), largest.iter().sum());
    if !(lower..=upper).contains(&result.peak_snapshot_bytes) {
        return Err(TraceViolation::SnapshotPeak {
            peak: result.peak_snapshot_bytes,
            lower,
            upper,
        });
    }

    // The sweep: who holds which machine, event by event.
    let mut seats = vec![Seat::Off; jobs];
    let mut held = vec![0.0f64; jobs];
    let mut occupant: Vec<Option<JobId>> = vec![None; spec.machines];
    let mut dead = vec![false; spec.machines];
    let mut last = SimTime::ZERO;
    for (index, event) in result.events.events().iter().enumerate() {
        let time = event.time();
        if time < last || time > result.end_time {
            return Err(TraceViolation::EventTime { index });
        }
        last = time;
        let (job, machine) = match *event {
            SchedulerEvent::Started { job, machine, .. }
            | SchedulerEvent::Suspended { job, machine, .. }
            | SchedulerEvent::Terminated { job, machine, .. }
            | SchedulerEvent::Completed { job, machine, .. }
            | SchedulerEvent::Interrupted { job, machine, .. } => (Some(job), Some(machine)),
            SchedulerEvent::TargetReached { job, .. }
            | SchedulerEvent::SnapshotCorrupted { job, .. }
            | SchedulerEvent::Failed { job, .. } => (Some(job), None),
            SchedulerEvent::MachineCrashed { machine, .. }
            | SchedulerEvent::MachineRecovered { machine, .. } => (None, Some(machine)),
        };
        let j = job.map(|j| j.raw() as usize);
        let m = machine.map(|m| m.raw() as usize);
        if j.is_some_and(|j| j >= jobs) || m.is_some_and(|m| m >= spec.machines) {
            return Err(TraceViolation::UnknownId { index });
        }
        if let (Some(job), Some(j)) = (job, j) {
            if matches!(seats[j], Seat::Ended(_)) {
                return Err(TraceViolation::AfterTerminal { job, index });
            }
        }
        match *event {
            SchedulerEvent::Started { job, machine, .. } => {
                let (j, m) = (job.raw() as usize, machine.raw() as usize);
                if matches!(seats[j], Seat::On(..)) {
                    return Err(TraceViolation::StartedTwice { job, index });
                }
                if dead[m] {
                    return Err(TraceViolation::DeadMachine { machine, index });
                }
                if let Some(occupant) = occupant[m] {
                    return Err(TraceViolation::DoubleBooked { machine, job, occupant, index });
                }
                occupant[m] = Some(job);
                seats[j] = Seat::On(machine, time);
            }
            SchedulerEvent::Suspended { job, machine, .. }
            | SchedulerEvent::Terminated { job, machine, .. }
            | SchedulerEvent::Completed { job, machine, .. }
            | SchedulerEvent::Interrupted { job, machine, .. } => {
                let j = job.raw() as usize;
                let Seat::On(on, since) = seats[j] else {
                    return Err(TraceViolation::NotRunning { job, index });
                };
                if on != machine {
                    return Err(TraceViolation::NotRunning { job, index });
                }
                occupant[machine.raw() as usize] = None;
                held[j] += (time - since).as_secs();
                seats[j] = match event {
                    SchedulerEvent::Terminated { .. } => Seat::Ended(JobEnd::Terminated),
                    SchedulerEvent::Completed { .. } => Seat::Ended(JobEnd::Completed),
                    _ => Seat::Off,
                };
            }
            SchedulerEvent::Failed { job, .. } => {
                let j = job.raw() as usize;
                if seats[j] != Seat::Off {
                    return Err(TraceViolation::NotRunning { job, index });
                }
                seats[j] = Seat::Ended(JobEnd::Failed);
            }
            SchedulerEvent::MachineCrashed { machine, .. } => {
                let m = machine.raw() as usize;
                if dead[m] {
                    return Err(TraceViolation::DeadMachine { machine, index });
                }
                dead[m] = true;
            }
            SchedulerEvent::MachineRecovered { machine, .. } => {
                let m = machine.raw() as usize;
                if !dead[m] {
                    return Err(TraceViolation::DeadMachine { machine, index });
                }
                dead[m] = false;
            }
            SchedulerEvent::TargetReached { .. } | SchedulerEvent::SnapshotCorrupted { .. } => {}
        }
    }

    // Per job: the end agrees with the log, and the machine time charged
    // is no more than the time held.
    let slack = 1e-9 * result.end_time.as_secs().max(1.0);
    for (j, o) in result.outcomes.iter().enumerate() {
        let logged_end = match seats[j] {
            Seat::Ended(end) => end,
            Seat::Off | Seat::On(..) => JobEnd::Unfinished,
        };
        if o.end != logged_end {
            return Err(TraceViolation::EndMismatch { job: o.job, end: o.end });
        }
        let busy = o.busy_time.as_secs();
        if !open[j] && interrupted[j] == 0 && busy > held[j] + slack {
            return Err(TraceViolation::BusyTime { job: o.job, busy, held: held[j] });
        }
    }
    Ok(())
}
