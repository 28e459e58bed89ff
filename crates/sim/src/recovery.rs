//! Kill-anywhere recovery harnesses over journaled simulations.
//!
//! A simulated process kill needs no machinery of its own: build a
//! [`Simulation`] with an explicit journal, step it until it has consumed
//! `k` inputs ([`Simulation::run_to_input`]), and drop it — no seal, no
//! result, exactly what a killed scheduler process leaves behind.
//! [`Simulation::resume`] is the other half. The two harnesses here chain
//! those calls: [`run_sim_with_recovery`] honours the
//! [`FaultKind::EngineCrash`] events of a fault plan, and
//! [`kill_at_every_event`] proves recovery byte-identical by crashing at
//! *every* journal position.

use hyperdrive_framework::{
    run_meta, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultKind, FaultPlan, Journal,
    SchedulingPolicy,
};
use hyperdrive_types::Result;

use crate::Simulation;

/// Runs an experiment whose fault plan may contain
/// [`FaultKind::EngineCrash`] events: the in-process scheduler is killed
/// at each crash position and recovered from its journal, chaining through
/// as many crashes as the plan schedules.
///
/// `make_policy` must build a fresh instance of the same policy each time
/// it is called — one per process lifetime (initial run plus one per
/// recovery).
///
/// # Errors
///
/// [`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged) if
/// any recovery leg disagrees with the journal (non-deterministic policy).
pub fn run_sim_with_recovery<F>(
    mut make_policy: F,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
) -> Result<ExperimentResult>
where
    F: FnMut() -> Box<dyn SchedulingPolicy>,
{
    let mut crashes: Vec<u64> = plan
        .events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::EngineCrash { at_event } => Some(at_event),
            _ => None,
        })
        .collect();
    crashes.sort_unstable();

    let mut policy = make_policy();
    let mut journal = Journal::in_memory(run_meta(policy.name(), workload, &spec, plan));
    let mut sim = Simulation::with_journal(policy.as_mut(), workload, spec, plan, journal.clone());
    for at_event in crashes {
        sim.run_to_input(at_event);
        if sim.inputs_delivered() < at_event {
            break; // the run ended before this crash (or any later one)
        }
        drop(sim); // the kill: nothing sealed, no result
        let recovered = journal.reopen()?;
        // The next kill recovers from what *this* leg appends.
        journal = recovered.journal.clone();
        policy = make_policy();
        sim = Simulation::resume(policy.as_mut(), workload, spec, plan, recovered)?;
    }
    Ok(sim.run())
}

/// What [`kill_at_every_event`] measured.
#[derive(Debug)]
pub struct KillAnywhereReport {
    /// Journal inputs in the uninterrupted run — the number of crash
    /// positions exercised.
    pub positions: u64,
    /// Positions whose recovered trace was byte-identical to the
    /// uninterrupted run.
    pub passes: u64,
    /// Human-readable descriptions of every failing position (empty on a
    /// clean sweep).
    pub failures: Vec<String>,
}

/// The everything-proof: runs the experiment once uninterrupted, then — for
/// every journal position `k` — reruns it with a simulated process kill at
/// `k`, recovers from the journal with a fresh policy, and compares the
/// completed run's [`signature`](ExperimentResult::signature) against the
/// uninterrupted run's.
///
/// # Errors
///
/// Propagates journal reopen errors; per-position mismatches and recovery
/// failures are collected in the report instead.
pub fn kill_at_every_event<F>(
    mut make_policy: F,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
) -> Result<KillAnywhereReport>
where
    F: FnMut() -> Box<dyn SchedulingPolicy>,
{
    let mut baseline_policy = make_policy();
    let meta = run_meta(baseline_policy.name(), workload, &spec, plan);
    let mut sim = Simulation::with_journal(
        baseline_policy.as_mut(),
        workload,
        spec,
        plan,
        Journal::in_memory(meta),
    );
    while sim.step_input().is_some() {}
    let positions = sim.inputs_delivered();
    let baseline = sim.finish().signature();
    drop(baseline_policy);

    let mut passes = 0;
    let mut failures = Vec::new();
    for k in 1..=positions {
        let journal = Journal::in_memory(meta);
        let mut victim = make_policy();
        Simulation::with_journal(victim.as_mut(), workload, spec, plan, journal.clone())
            .run_to_input(k);
        drop(victim);
        let mut fresh = make_policy();
        let resumed = Simulation::resume(fresh.as_mut(), workload, spec, plan, journal.reopen()?);
        match resumed.map(Simulation::run) {
            Ok(result) if result.signature() == baseline => passes += 1,
            Ok(_) => failures
                .push(format!("position {k}: recovered trace differs from the uninterrupted run")),
            Err(e) => failures.push(format!("position {k}: recovery failed: {e}")),
        }
    }
    Ok(KillAnywhereReport { positions, passes, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    use hyperdrive_framework::{DefaultPolicy, FaultConfig, FaultEvent};
    use hyperdrive_types::{Error, MachineId, SimTime};
    use hyperdrive_workload::CifarWorkload;

    fn experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, seed)
    }

    fn default_policy() -> Box<dyn SchedulingPolicy> {
        Box::new(DefaultPolicy::new())
    }

    fn fault_plan(seed: u64, intensity: f64) -> FaultPlan {
        FaultPlan::generate(
            2,
            &FaultConfig::with_intensity(seed, SimTime::from_hours(8.0), intensity),
        )
    }

    #[test]
    fn kill_at_every_event_with_default_policy_under_faults() {
        let ew = experiment(4, 3, 7);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(7);
        let plan = fault_plan(11, 12.0);
        assert!(!plan.is_empty(), "plan must inject faults");
        let report = kill_at_every_event(default_policy, &ew, spec, &plan).unwrap();
        assert!(report.positions > 0);
        assert_eq!(report.failures, Vec::<String>::new());
        assert_eq!(report.passes, report.positions);
    }

    #[test]
    fn engine_crash_events_in_a_plan_recover_transparently() {
        // EngineCrash events kill and recover the scheduler mid-run; the
        // completed trace must match a run without the process crashes.
        let ew = experiment(5, 4, 19);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(19);
        let mut plan = fault_plan(23, 8.0);
        for at_event in [3, 9, 20] {
            plan.events.push(FaultEvent {
                at: SimTime::ZERO,
                machine: MachineId::new(0),
                kind: FaultKind::EngineCrash { at_event },
            });
        }
        let mut p_baseline = DefaultPolicy::new();
        let baseline = Simulation::with_faults(&mut p_baseline, &ew, spec, &plan).run();
        let recovered = run_sim_with_recovery(default_policy, &ew, spec, &plan).unwrap();
        assert_eq!(baseline.signature(), recovered.signature());
    }

    #[test]
    fn resuming_with_wrong_parameters_is_a_typed_divergence() {
        let ew = experiment(4, 3, 5);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(5);
        let plan = FaultPlan::none();
        let mut policy = DefaultPolicy::new();
        let journal = Journal::in_memory(run_meta(policy.name(), &ew, &spec, &plan));
        let mut victim = Simulation::with_journal(&mut policy, &ew, spec, &plan, journal.clone());
        victim.run_to_input(6);
        assert_eq!(victim.inputs_delivered(), 6, "crash fired");
        drop(victim);
        // Resume against a different workload seed: replay regenerates
        // different records and must fail loudly, not silently corrupt.
        let wrong = experiment(4, 3, 6);
        let recovered = journal.reopen().unwrap();
        let mut fresh = DefaultPolicy::new();
        let err = Simulation::resume(&mut fresh, &wrong, spec, &plan, recovered).err().unwrap();
        assert!(
            matches!(err, Error::JournalDiverged { .. }),
            "expected JournalDiverged, got {err:?}"
        );
    }
}
