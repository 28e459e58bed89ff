//! Kill-anywhere on the live executor: a journaled [`LiveRun`] killed at
//! any input, or drained by its shutdown flag, resumes from its journal to
//! a valid result. Live runs are nondeterministic, so the check is
//! validity — every job completed, the killed run's history kept, and
//! `check_trace`'s laws (which `into_result` runs in debug builds) — not
//! byte identity with an uninterrupted run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hyperdrive::framework::{
    run_meta, DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultPlan,
    JobEnd, Journal, LiveFaultPlan, LiveRun, RecoveredJournal, SchedulingPolicy,
};
use hyperdrive::workload::CifarWorkload;
use hyperdrive::Error;

const JOBS: usize = 4;
const EPOCHS: u32 = 6;
/// 60 s epochs at 60 000× last about a millisecond.
const SCALE: f64 = 60_000.0;

fn experiment(epochs: u32, seed: u64) -> ExperimentWorkload {
    let w = CifarWorkload::new().with_max_epochs(epochs);
    ExperimentWorkload::from_workload(&w, JOBS, seed)
}

fn spec() -> ExperimentSpec {
    ExperimentSpec::new(2).with_stop_on_target(false)
}

fn journal(ew: &ExperimentWorkload) -> Journal {
    Journal::in_memory(run_meta(DefaultPolicy::new().name(), ew, &spec(), &FaultPlan::none()))
}

/// Resumes with `fresh`, a new policy instance: one per process lifetime.
fn resume<'a>(
    fresh: &'a mut DefaultPolicy,
    ew: &'a ExperimentWorkload,
    recovered: RecoveredJournal,
) -> hyperdrive::Result<LiveRun<'a, 'a>> {
    LiveRun::resume(fresh, ew, spec(), SCALE, &LiveFaultPlan::default(), recovered)
}

/// Every job ran all its epochs (the rest of a valid result is
/// `check_trace`'s, which `into_result` runs in every debug build).
fn assert_complete(result: &ExperimentResult, epochs: u32) {
    assert!(
        result.outcomes.iter().all(|o| o.end == JobEnd::Completed && o.epochs == epochs),
        "{:?}",
        result.outcomes.iter().map(|o| (o.end, o.epochs)).collect::<Vec<_>>()
    );
}

#[test]
fn an_uninterrupted_run_delivers_start_and_one_report_per_epoch() {
    let ew = experiment(EPOCHS, 5);
    let mut policy = DefaultPolicy::new();
    let mut run = LiveRun::with_journal(
        &mut policy,
        &ew,
        spec(),
        SCALE,
        &LiveFaultPlan::default(),
        journal(&ew),
    );
    while run.step_input().is_some() {}
    assert_eq!(run.inputs_delivered(), 1 + (JOBS as u64) * u64::from(EPOCHS));
    assert_complete(&run.finish(), EPOCHS);
}

#[test]
fn a_run_killed_at_any_input_resumes_to_a_valid_result() {
    let ew = experiment(EPOCHS, 5);
    for k in [1, 12, 24] {
        let journal = journal(&ew);
        let mut policy = DefaultPolicy::new();
        let mut victim = LiveRun::with_journal(
            &mut policy,
            &ew,
            spec(),
            SCALE,
            &LiveFaultPlan::default(),
            journal.clone(),
        );
        victim.run_to_input(k);
        assert_eq!(victim.inputs_delivered(), k, "the kill fired");
        drop(victim); // killed: no seal, no result
        assert!(!journal.is_sealed());

        // A resume that stops right after the replay reproduces the killed
        // run's log: the journal verified every record it regenerated.
        let mut fresh = DefaultPolicy::new();
        let killed = resume(&mut fresh, &ew, journal.reopen().unwrap()).unwrap().finish();
        let mut fresh = DefaultPolicy::new();
        let resumed = resume(&mut fresh, &ew, journal.reopen().unwrap()).unwrap();
        assert_eq!(resumed.inputs_delivered(), k);
        let result = resumed.run();
        assert_complete(&result, EPOCHS);
        let (before, after) = (killed.events.events(), result.events.events());
        assert!(after.starts_with(before), "k = {k}: the resumed log extends the killed run's");
        assert!(after.len() > before.len(), "k = {k}: the resumed run did more");
    }
}

#[test]
fn a_run_drained_by_its_shutdown_flag_resumes_to_completion() {
    // The in-process analogue of SIGTERM: flip the plan's shutdown flag
    // mid-run and check the run seals the journal, drains the agents, and
    // returns a partial result — then resume it to the end.
    let epochs = 60;
    let ew = experiment(epochs, 5);
    let journal = journal(&ew);
    let flag = Arc::new(AtomicBool::new(false));
    let plan = LiveFaultPlan { shutdown: Some(flag.clone()), ..LiveFaultPlan::default() };
    let stopper = std::thread::spawn({
        let flag = flag.clone();
        move || {
            std::thread::sleep(Duration::from_millis(40));
            flag.store(true, Ordering::SeqCst);
        }
    });
    // 240 epochs across 2 machines is ~120 ms of work, so the 40 ms
    // shutdown lands mid-run.
    let mut policy = DefaultPolicy::new();
    let partial =
        LiveRun::with_journal(&mut policy, &ew, spec(), SCALE, &plan, journal.clone()).run();
    stopper.join().unwrap();
    assert!(journal.is_sealed(), "shutdown sealed the journal");
    assert!(
        partial.total_epochs < JOBS as u64 * u64::from(epochs),
        "run ended early ({} epochs), not exhaustively",
        partial.total_epochs
    );
    let recovered = journal.reopen().unwrap();
    assert!(recovered.sealed, "recovery sees the run was cleanly interrupted");
    assert!(!recovered.inputs.is_empty(), "journal holds the consumed inputs");

    let mut fresh = DefaultPolicy::new();
    let result = resume(&mut fresh, &ew, recovered).unwrap().run();
    assert_complete(&result, epochs);
    assert!(result.events.events().starts_with(partial.events.events()));
}

#[test]
fn resuming_against_a_different_workload_is_a_typed_divergence() {
    let ew = experiment(EPOCHS, 5);
    let journal = journal(&ew);
    let mut policy = DefaultPolicy::new();
    let mut victim = LiveRun::with_journal(
        &mut policy,
        &ew,
        spec(),
        SCALE,
        &LiveFaultPlan::default(),
        journal.clone(),
    );
    victim.run_to_input(12);
    drop(victim);
    // Another seed passes the run fingerprint (name, sizes, spec) but
    // regenerates different records.
    let wrong = experiment(EPOCHS, 6);
    let mut fresh = DefaultPolicy::new();
    let err = resume(&mut fresh, &wrong, journal.reopen().unwrap()).err().expect("replay diverges");
    assert!(matches!(err, Error::JournalDiverged { .. }), "got {err:?}");
}
