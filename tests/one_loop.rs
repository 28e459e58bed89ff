//! The one simulation loop, at the tier-1 level: a scripted input source
//! drives the framework's `Driver` through a journaled prefix with a
//! stall and a stale report, and the prefix resumes on the one loop.
//! Three cells of the differential harness (`tests/harness`) keep their
//! names here: stepping a journaled simulation is the one-call run, and a
//! kill at seed-drawn journal positions recovers byte-identically — under
//! faults with `DefaultPolicy`, and with POP on a shared fit cache.

use std::collections::VecDeque;

use hyperdrive::framework::{
    run_meta, Command, DefaultPolicy, Driver, EngineEvent, EngineInput, ExperimentEngine,
    ExperimentSpec, ExperimentWorkload, FaultPlan, InputSource, JobEnd, Journal, SchedulingPolicy,
};
use hyperdrive::workload::CifarWorkload;
use hyperdrive::{Error, SimTime};

#[macro_use]
mod harness;

cells! {
    stepping_a_faulty_simulation_is_the_one_call_run: Default, Journaled;
    kill_at_every_event_under_faults_with_default_policy: Default, Killed { prefetch: false };
    kill_at_every_event_with_pop_policy_and_shared_cache: Pop, Killed { prefetch: false };
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
