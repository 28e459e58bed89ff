//! Live-vs-simulator agreement (the Fig. 12a property at test scale): the
//! same policy on the same experiment must produce closely matching
//! virtual end times on both executors.

use hyperdrive::curve::{FitPool, PredictorConfig};
use hyperdrive::framework::{run_live, DefaultPolicy, ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{CifarWorkload, LunarWorkload};
use hyperdrive::SimTime;

#[test]
fn default_policy_agrees_across_executors() {
    let workload = CifarWorkload::new().with_max_epochs(5);
    let experiment = ExperimentWorkload::from_workload(&workload, 8, 21);
    let spec = ExperimentSpec::new(3).with_stop_on_target(false);

    let mut sim_policy = DefaultPolicy::new();
    let sim = run_sim(&mut sim_policy, &experiment, spec);
    // At 600× a 20 ms stall of the scheduler thread is 12 virtual seconds,
    // ≈1.6 % of the 12.6-minute run, so host load alone does not reach the
    // bound below.
    let mut live_policy = DefaultPolicy::new();
    let live = run_live(&mut live_policy, &experiment, spec, 600.0);

    assert_eq!(sim.total_epochs, live.total_epochs);
    // Generous bound: on a loaded single-core machine sleep overshoot can
    // stretch the live run; the Fig. 12a binary measures the tight case.
    let err = (sim.end_time.as_secs() - live.end_time.as_secs()).abs() / sim.end_time.as_secs();
    assert!(err < 0.15, "sim {} vs live {} ({err:.3})", sim.end_time, live.end_time);
}

#[test]
fn pop_agrees_across_executors_on_time_to_target() {
    // A modest RL experiment where POP reaches the solved condition. The
    // live executor's deadline-based node agents keep training time exact
    // even while the scheduler computes predictions, so agreement should
    // be well within the paper's 13% validation bound.
    let workload = LunarWorkload::new().with_max_blocks(80);
    let experiment = ExperimentWorkload::from_workload(&workload, 20, 5);
    let spec = ExperimentSpec::new(6).with_tmax(SimTime::from_hours(12.0)).with_seed(5);
    let config = PopConfig { predictor: PredictorConfig::test(), ..Default::default() };

    let mut sim_policy = PopPolicy::new(config, FitPool::new(0), None);
    let sim = run_sim(&mut sim_policy, &experiment, spec);
    // The live leg at 1 and at 4 fit threads, side by side: a narrower
    // pool only slows the scheduler's wall clock, which must not show in
    // virtual time.
    let experiment = &experiment;
    let lives = std::thread::scope(|scope| {
        [1, 4]
            .map(|fit_threads| {
                scope.spawn(move || {
                    let mut live_policy = PopPolicy::new(config, FitPool::new(fit_threads), None);
                    (fit_threads, run_live(&mut live_policy, experiment, spec, 300.0))
                })
            })
            .map(|leg| leg.join().expect("the live leg finished"))
    });

    let sim_t = sim.time_to_target.unwrap_or(sim.end_time).as_mins();
    for (fit_threads, live) in lives {
        let live_t = live.time_to_target.unwrap_or(live.end_time).as_mins();
        let err = (sim_t - live_t).abs() / sim_t.max(1e-9);
        assert!(
            err < 0.25,
            "sim {sim_t:.1}min vs live {live_t:.1}min at {fit_threads} fit threads ({err:.3})"
        );
    }
}

#[test]
fn live_executor_handles_single_machine_cluster() {
    let workload = CifarWorkload::new().with_max_epochs(3);
    let experiment = ExperimentWorkload::from_workload(&workload, 3, 1);
    let spec = ExperimentSpec::new(1).with_stop_on_target(false);
    let mut policy = DefaultPolicy::new();
    let result = run_live(&mut policy, &experiment, spec, 60_000.0);
    assert_eq!(result.total_epochs, 9);
}

#[test]
fn live_executor_survives_many_machines_and_few_jobs() {
    let workload = CifarWorkload::new().with_max_epochs(2);
    let experiment = ExperimentWorkload::from_workload(&workload, 2, 1);
    let spec = ExperimentSpec::new(16).with_stop_on_target(false);
    let mut policy = DefaultPolicy::new();
    let result = run_live(&mut policy, &experiment, spec, 60_000.0);
    assert_eq!(result.total_epochs, 4);
}
