//! The one simulation loop under faults, at the tier-1 level: stepping a
//! fault-built, journaled [`Simulation`] input by input is the one-call
//! unjournaled run, fault inputs are visible as steps, lost work is
//! accounted for, and a kill at any journal position recovers
//! byte-identically — under faults with `DefaultPolicy`, and with POP on a
//! shared fit cache.

use std::collections::VecDeque;

use hyperdrive::curve::{PredictorConfig, SharedFitCache};
use hyperdrive::framework::{
    run_meta, Command, DefaultPolicy, Driver, EngineEvent, EngineInput, ExperimentEngine,
    ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultConfig, FaultPlan, FaultStats,
    InputSource, JobEnd, Journal, SchedulingPolicy,
};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::{kill_at_every_event, Simulation};
use hyperdrive::workload::CifarWorkload;
use hyperdrive::{Error, SimTime};

fn experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
    let w = CifarWorkload::new().with_max_epochs(epochs);
    ExperimentWorkload::from_workload(&w, n, seed)
}

fn fault_plan(machines: usize, seed: u64, intensity: f64) -> FaultPlan {
    let config = FaultConfig::with_intensity(seed, SimTime::from_hours(12.0), intensity);
    let plan = FaultPlan::generate(machines, &config);
    assert!(!plan.is_empty(), "intensity {intensity} must inject faults");
    plan
}

fn signature(result: &ExperimentResult) -> (Vec<u8>, SimTime, FaultStats) {
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).unwrap();
    (csv, result.end_time, result.faults)
}

#[test]
fn stepping_a_faulty_simulation_is_the_one_call_run() {
    let ew = experiment(8, 6, 5);
    let spec = ExperimentSpec::new(3).with_stop_on_target(false).with_seed(5);
    let plan = fault_plan(3, 17, 20.0);

    let mut p1 = DefaultPolicy::new();
    let direct = Simulation::with_faults(&mut p1, &ew, spec, &plan).run();

    // Stepped *and* journaled: neither may show in the trace.
    let mut p2 = DefaultPolicy::new();
    let journal = Journal::in_memory(run_meta(p2.name(), &ew, &spec, &plan));
    let mut sim = Simulation::with_journal(&mut p2, &ew, spec, &plan, journal.clone());
    let (mut completions, mut fault_inputs) = (0u64, 0u64);
    let mut last = SimTime::ZERO;
    while let Some((time, input)) = sim.step_input() {
        assert!(time >= last, "time went backwards");
        assert_eq!(sim.now(), time);
        last = time;
        match input {
            EngineInput::Start => panic!("Start is delivered by the constructor"),
            EngineInput::Event(_) => completions += 1,
            EngineInput::MachineCrash(_)
            | EngineInput::MachineRecovery(_)
            | EngineInput::AgentStall(_) => fault_inputs += 1,
        }
    }
    assert_eq!(sim.inputs_delivered(), 1 + completions + fault_inputs);
    let stepped = sim.finish();
    assert!(journal.is_sealed(), "finish seals the journal");
    assert_eq!(journal.inputs_appended(), 1 + completions + fault_inputs, "one record per input");

    assert_eq!(signature(&direct), signature(&stepped));
    let faults = stepped.faults;
    assert!(faults.interruptions > 0, "faults actually struck");
    assert!(fault_inputs > 0, "fault inputs surface as steps");
    assert!(
        fault_inputs >= faults.machine_crashes + faults.machine_recoveries + faults.agent_stalls,
        "every fault the engine acted on surfaced as a step: {fault_inputs} steps vs {faults:?}"
    );
    assert!(completions >= stepped.total_epochs, "every executed epoch was a completion step");
    // Every executed epoch either survives in its job's final count or
    // was rolled back by a fault and re-run.
    let surviving: u64 = stepped.outcomes.iter().map(|o| u64::from(o.epochs)).sum();
    assert_eq!(stepped.total_epochs, surviving + faults.lost_epochs);
}

#[test]
fn kill_at_every_event_under_faults_with_default_policy() {
    let ew = experiment(4, 3, 7);
    let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(7);
    let plan = fault_plan(2, 11, 12.0);
    let make = || -> Box<dyn SchedulingPolicy> { Box::new(DefaultPolicy::new()) };
    let report = kill_at_every_event(make, &ew, spec, &plan).unwrap();
    assert!(report.positions > 0);
    assert_eq!(report.failures, Vec::<String>::new());
    assert_eq!(report.passes, report.positions);
}

#[test]
fn kill_at_every_event_with_pop_policy_and_shared_cache() {
    // POP on two fit threads with a shared fit cache: the most stateful
    // policy configuration there is. A fresh policy per recovery plus
    // replay must still land byte-identical.
    let ew = experiment(4, 4, 13);
    let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(13);
    let plan = FaultPlan::none();
    let cache = SharedFitCache::in_memory();
    let make = move || -> Box<dyn SchedulingPolicy> {
        let config = PopConfig {
            predictor: PredictorConfig::test(),
            fit_threads: 2,
            ..PopConfig::default()
        };
        Box::new(PopPolicy::with_config_and_cache(config, Some(cache.clone())))
    };
    let report = kill_at_every_event(make, &ew, spec, &plan).unwrap();
    assert!(report.positions > 0);
    assert_eq!(report.failures, Vec::<String>::new());
    assert_eq!(report.passes, report.positions);
}

/// An input source that hands out a fixed script and keeps every command
/// batch it is given.
struct Script {
    inputs: VecDeque<(SimTime, EngineInput)>,
    batches: Vec<Vec<Command>>,
}

impl Script {
    fn new(inputs: impl IntoIterator<Item = (SimTime, EngineInput)>) -> Self {
        Script { inputs: inputs.into_iter().collect(), batches: Vec::new() }
    }
}

impl InputSource for Script {
    fn next_input(&mut self) -> Option<(SimTime, EngineInput)> {
        self.inputs.pop_front()
    }
    fn route(&mut self, _now: SimTime, cmds: &[Command]) {
        self.batches.push(cmds.to_vec());
    }
}

#[test]
fn a_journaled_prefix_with_a_stall_and_a_stale_report_resumes_on_the_one_loop() {
    let w = CifarWorkload::new().with_max_epochs(4);
    let ew = ExperimentWorkload::from_workload(&w, 2, 7);
    let spec = ExperimentSpec::new(1).with_stop_on_target(false);
    let plan = FaultPlan::none();
    let engine =
        |policy, spec, journal| ExperimentEngine::with_journal(policy, &ew, spec, &plan, journal);

    // The first epoch the run issues.
    let mut probe = DefaultPolicy::new();
    let start = Driver::start(engine(&mut probe, spec, Journal::disabled()), Script::new([]));
    let Command::RunEpoch { job, machine, duration, token, .. } = start.source().batches[0][0]
    else {
        panic!("expected RunEpoch");
    };
    drop(start);

    // Its machine stalls, its report then arrives stale, and the process
    // is killed: three inputs journaled, nothing sealed.
    let mut policy = DefaultPolicy::new();
    let journal = Journal::in_memory(run_meta(policy.name(), &ew, &spec, &plan));
    let stale = EngineInput::Event(EngineEvent::EpochDone { job, token });
    let script = Script::new([
        (SimTime::from_secs(1.0), EngineInput::AgentStall(machine)),
        (duration, stale),
    ]);
    let mut victim = Driver::start(engine(&mut policy, spec, journal.clone()), script);
    victim.run_to_input(3);
    assert_eq!(victim.inputs_delivered(), 3);
    drop(victim);

    let recovered = journal.reopen().unwrap();
    assert_eq!(recovered.inputs.len(), 3);
    assert!(!recovered.sealed);
    // The resumed run hands the journaled inputs back, then a crash of
    // the only machine.
    let mut tail: Vec<_> = recovered.inputs[1..].to_vec();
    tail.push((duration, EngineInput::MachineCrash(machine)));
    let mut fresh = DefaultPolicy::new();
    let mut resumed =
        Driver::start(engine(&mut fresh, spec, recovered.journal.clone()), Script::new(tail))
            .replay(&recovered.journal, 3)
            .unwrap();
    assert_eq!((resumed.inputs_delivered(), resumed.now()), (3, duration));
    assert!(!resumed.stopping());
    // The stall returned the machine to the pool, which took up an idle job
    // under a new token; the stale report changed nothing.
    assert!(
        matches!(resumed.source().batches[1][..], [Command::RunEpoch { machine: m, token: t, .. }] if m == machine && t != token)
    );
    assert!(resumed.source().batches[2].is_empty());
    assert!(resumed.step_input().is_some());
    assert!(resumed.source().batches[3].is_empty(), "the only machine is dead, nothing can start");
    let result = resumed.finish();
    assert_eq!((result.faults.agent_stalls, result.faults.machine_crashes), (1, 1));
    assert!(result.outcomes.iter().all(|o| o.end == JobEnd::Unfinished), "both jobs still wait");

    // A different spec regenerates different records: typed divergence.
    let recovered = journal.reopen().unwrap();
    let mut other = DefaultPolicy::new();
    let wrong = ExperimentSpec::new(2).with_stop_on_target(false);
    let script = Script::new(recovered.inputs[1..].to_vec());
    let err = Driver::start(engine(&mut other, wrong, recovered.journal.clone()), script)
        .replay(&recovered.journal, 3)
        .err()
        .expect("replay under the wrong spec diverges");
    assert!(matches!(err, Error::JournalDiverged { .. }), "got {err:?}");
}
