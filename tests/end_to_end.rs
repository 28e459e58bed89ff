//! End-to-end integration: workload → framework → policy → result, across
//! both learning domains and all scheduling policies.

use hyperdrive::curve::{FitPool, PredictorConfig};
use hyperdrive::framework::{
    DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, JobEnd, SchedulingPolicy,
};
use hyperdrive::policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy, HyperbandPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::SimTime;

fn pop() -> PopPolicy {
    pop_at(0)
}

fn pop_at(fit_threads: usize) -> PopPolicy {
    PopPolicy::new(
        PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
        FitPool::new(fit_threads),
        None,
    )
}

/// POP at 1 and at 4 fit threads, held to the same run; returns the
/// 1-thread run and its policy. For the workloads no harness study runs,
/// so that their fit-pool width is an input, not the host's core count.
fn pop_at_one_and_four(
    experiment: &ExperimentWorkload,
    spec: ExperimentSpec,
) -> (ExperimentResult, PopPolicy) {
    let [one, four] = [1, 4].map(|fit_threads| {
        let mut p = pop_at(fit_threads);
        (run_sim(&mut p, experiment, spec), p)
    });
    let run = |(result, p): &(ExperimentResult, PopPolicy)| {
        (p.render_trace(result), p.posterior_digest(), p.predictions_made())
    };
    assert_eq!(run(&one), run(&four), "4 fit threads moved the run");
    one
}

fn early_term() -> EarlyTermPolicy {
    EarlyTermPolicy::with_config(EarlyTermConfig {
        predictor: PredictorConfig::test(),
        ..Default::default()
    })
}

#[test]
fn all_policies_complete_a_supervised_experiment() {
    let workload = CifarWorkload::new().with_max_epochs(50);
    let experiment = ExperimentWorkload::from_workload(&workload, 20, 3);
    let spec =
        ExperimentSpec::new(4).with_tmax(SimTime::from_hours(48.0)).with_stop_on_target(false);

    let mut policies: Vec<Box<dyn SchedulingPolicy>> = vec![
        Box::new(pop()),
        Box::new(BanditPolicy::new()),
        Box::new(early_term()),
        Box::new(HyperbandPolicy::new()),
        Box::new(DefaultPolicy::new()),
    ];
    for policy in policies.iter_mut() {
        let result = run_sim(policy.as_mut(), &experiment, spec);
        assert!(result.total_epochs > 0, "{} did nothing", result.policy);
        assert_eq!(result.outcomes.len(), 20);
        // No job may exceed its epoch cap.
        for o in &result.outcomes {
            assert!(o.epochs <= 50, "{}: job {} ran {} epochs", result.policy, o.job, o.epochs);
        }
        // Everything ends in a definite state when running to completion
        // with a generous Tmax.
        assert!(
            result.outcomes.iter().all(|o| matches!(o.end, JobEnd::Completed | JobEnd::Terminated)),
            "{} left unfinished jobs",
            result.policy
        );
    }
}

#[test]
fn pruning_policies_do_less_work_than_default() {
    let workload = CifarWorkload::new().with_max_epochs(60);
    let experiment = ExperimentWorkload::from_workload(&workload, 24, 9);
    let spec =
        ExperimentSpec::new(4).with_tmax(SimTime::from_hours(60.0)).with_stop_on_target(false);

    let mut default = DefaultPolicy::new();
    let baseline = run_sim(&mut default, &experiment, spec).total_epochs;

    for (name, mut policy) in [
        ("pop", Box::new(pop()) as Box<dyn SchedulingPolicy>),
        ("bandit", Box::new(BanditPolicy::new())),
        ("hyperband", Box::new(HyperbandPolicy::new())),
    ] {
        let epochs = run_sim(policy.as_mut(), &experiment, spec).total_epochs;
        assert!(epochs < baseline, "{name}: {epochs} !< default {baseline}");
    }
}

#[test]
fn pop_beats_default_to_the_target_across_seeds() {
    // Over several experiment draws where a winner exists late in FIFO
    // order, POP's pruning + prioritization reaches the target no slower
    // than Default on average (typically several times faster).
    let workload = CifarWorkload::new();
    let mut pop_total = 0.0;
    let mut default_total = 0.0;
    let mut compared = 0;
    for seed in [2u64, 3, 17, 19] {
        let experiment = ExperimentWorkload::from_workload(&workload, 24, seed);
        if !experiment.jobs.iter().any(|j| j.profile.best_value() >= experiment.target) {
            continue;
        }
        let spec = ExperimentSpec::new(4).with_tmax(SimTime::from_hours(48.0));
        let mut p = pop();
        let pop_result = run_sim(&mut p, &experiment, spec);
        let mut d = DefaultPolicy::new();
        let default_result = run_sim(&mut d, &experiment, spec);
        if let (Some(tp), Some(td)) = (pop_result.time_to_target, default_result.time_to_target) {
            pop_total += tp.as_hours();
            default_total += td.as_hours();
            compared += 1;
        }
    }
    assert!(compared >= 2, "need at least two comparable seeds");
    assert!(
        pop_total < default_total,
        "POP total {pop_total:.2}h should beat Default total {default_total:.2}h"
    );
}

#[test]
fn reinforcement_learning_end_to_end() {
    let workload = LunarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 40, 5);
    let spec = ExperimentSpec::new(8).with_tmax(SimTime::from_hours(24.0));

    let mut p = pop();
    let result = run_sim(&mut p, &experiment, spec);
    // Seed 5 contains solvers; POP must find one.
    assert!(result.reached_target(), "POP should solve LunarLander");
    // The solved condition is a *sustained* mean: the winner's observed
    // curve must actually satisfy it, not merely touch the target once.
    let winner = result.winner.expect("winner on success");
    let profile = experiment.profile(winner);
    let solved = workload.domain_knowledge().solved.expect("lunar defines solved");
    assert!(
        profile.values().any(|v| v >= solved.target),
        "winner's profile reaches the solved value"
    );
}

#[test]
fn suspend_events_only_occur_for_suspending_policies() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    let experiment = ExperimentWorkload::from_workload(&workload, 16, 3);
    let spec =
        ExperimentSpec::new(2).with_tmax(SimTime::from_hours(48.0)).with_stop_on_target(false);

    let mut d = DefaultPolicy::new();
    let default_result = run_sim(&mut d, &experiment, spec);
    assert!(default_result.suspend_events.is_empty(), "default never suspends");

    let mut p = pop();
    let pop_result = run_sim(&mut p, &experiment, spec);
    assert!(!pop_result.suspend_events.is_empty(), "POP round-robins opportunistic jobs");
    for e in &pop_result.suspend_events {
        assert!(e.cost.latency > SimTime::ZERO);
        assert!(e.cost.snapshot_bytes > 0);
    }
}

#[test]
fn tmax_bounds_every_policy() {
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 30, 1);
    let tmax = SimTime::from_hours(1.0);
    let spec = ExperimentSpec::new(2).with_tmax(tmax).with_stop_on_target(false);
    for mut policy in [
        Box::new(pop()) as Box<dyn SchedulingPolicy>,
        Box::new(BanditPolicy::new()),
        Box::new(DefaultPolicy::new()),
    ] {
        let result = run_sim(policy.as_mut(), &experiment, spec);
        // The run stops at the first event past Tmax; in-flight epochs may
        // overshoot by at most one epoch duration plus suspend latency.
        assert!(
            result.end_time <= tmax + SimTime::from_mins(5.0),
            "{} ran to {}",
            result.policy,
            result.end_time
        );
    }
}

#[test]
fn lstm_workload_runs_through_the_full_stack() {
    // The LowerIsBetter metric path + secondary-metric recording through
    // the engine and AppStat DB.
    use hyperdrive::workload::LstmWorkload;
    let workload = LstmWorkload::new().with_max_epochs(20);
    let experiment = ExperimentWorkload::from_workload(&workload, 12, 12)
        .with_target(LstmWorkload::normalize_perplexity(200.0));
    let spec = ExperimentSpec::new(4).with_tmax(SimTime::from_hours(48.0));
    let (result, _) = pop_at_one_and_four(&experiment, spec);
    assert!(result.total_epochs > 0);
    if let Some(winner) = result.winner {
        let ppl = LstmWorkload::denormalize_perplexity(experiment.profile(winner).best_value());
        assert!(ppl <= 200.0, "winner perplexity {ppl}");
    }
}

#[test]
fn imagenet_workload_runs_through_the_full_stack() {
    use hyperdrive::workload::ImagenetWorkload;
    let workload = ImagenetWorkload::new().with_max_epochs(20);
    let experiment = ExperimentWorkload::from_workload(&workload, 10, 6);
    let spec = ExperimentSpec::new(3)
        .with_tmax(SimTime::from_hours(24.0 * 20.0))
        .with_stop_on_target(false);
    let (result, p) = pop_at_one_and_four(&experiment, spec);
    // Hours-long epochs: total busy time lands in machine-days territory.
    let busy_days: f64 = result.outcomes.iter().map(|o| o.busy_time.as_hours() / 24.0).sum();
    assert!(busy_days > 1.0, "imagenet jobs consume machine-days: {busy_days}");
    assert!(p.predictions_made() > 0, "predictions happen at the 5-epoch boundary");
}
