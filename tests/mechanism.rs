//! Mechanism tests: the *reasons* the paper gives for each policy's
//! behaviour must be reproducible from our implementation, not just the
//! aggregate numbers.

use hyperdrive::curve::{CurvePredictor, FitPool, PredictorConfig};
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload, JobEnd};
use hyperdrive::policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{CifarWorkload, LunarBehavior, LunarWorkload, Workload};
use hyperdrive::{LearningCurve, MetricKind, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// §6.3's central mechanism: Bandit's best-ever-performance heuristic
/// cannot terminate learning-crash jobs, while curve-model policies can —
/// so Bandit wastes far more epochs on crashed configurations.
#[test]
fn bandit_wastes_epochs_on_learning_crashes() {
    let workload = LunarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 50, 5);
    // Identify the crash-behaviour jobs from ground truth (policies never
    // see this; we use it only to audit where epochs went).
    let crashed: Vec<bool> = (0..50u64)
        .map(|i| {
            let config = &experiment.jobs[i as usize].config;
            workload.behavior(config) == LunarBehavior::LearningCrash
        })
        .collect();
    assert!(crashed.iter().filter(|c| **c).count() >= 5, "seed provides crashers");

    let spec =
        ExperimentSpec::new(8).with_tmax(SimTime::from_hours(24.0)).with_stop_on_target(false);

    let crashed_epochs = |result: &hyperdrive::framework::ExperimentResult| -> u64 {
        result
            .outcomes
            .iter()
            .filter(|o| crashed[o.job.raw() as usize])
            .map(|o| u64::from(o.epochs))
            .sum()
    };

    let mut bandit = BanditPolicy::new();
    let bandit_result = run_sim(&mut bandit, &experiment, spec);
    let mut et = EarlyTermPolicy::with_config(EarlyTermConfig {
        predictor: PredictorConfig::test(),
        ..Default::default()
    });
    let et_result = run_sim(&mut et, &experiment, spec);

    let bandit_waste = crashed_epochs(&bandit_result);
    let et_waste = crashed_epochs(&et_result);
    assert!(
        et_waste < bandit_waste,
        "curve prediction should cut crashed-job epochs: earlyterm {et_waste} vs bandit {bandit_waste}"
    );

    // And the reason: among crashed jobs that ran to the horizon, Bandit
    // terminated fewer than EarlyTerm did.
    let terminated_crashers = |r: &hyperdrive::framework::ExperimentResult| {
        r.outcomes
            .iter()
            .filter(|o| crashed[o.job.raw() as usize] && o.end == JobEnd::Terminated)
            .count()
    };
    assert!(terminated_crashers(&et_result) > terminated_crashers(&bandit_result));
}

/// §2.2(a): instantaneous performance misclassifies *every* overtaking
/// pair by construction; the curve model, fitted on the same prefix,
/// recovers the correct ranking for a substantial share of them and
/// shifts the predicted gap in the right direction on average.
#[test]
fn curve_model_predicts_overtakes_that_instantaneous_comparison_misses() {
    let workload = CifarWorkload::new();
    let mut rng = StdRng::seed_from_u64(2024);
    let profiles: Vec<_> =
        (0..60).map(|i| workload.profile(&workload.space().sample(&mut rng), 100 + i)).collect();

    // Collect distinct overtake pairs (A ahead at epoch 20, B wins
    // finally).
    let mut pairs = Vec::new();
    for (ia, a) in profiles.iter().enumerate() {
        for (ib, b) in profiles.iter().enumerate() {
            if ia != ib
                && a.value_at(20) > b.value_at(20) + 0.08
                && b.final_value() > a.final_value() + 0.08
                && b.final_value() > 0.5
            {
                pairs.push((a, b));
                if pairs.len() >= 10 {
                    break;
                }
            }
        }
        if pairs.len() >= 10 {
            break;
        }
    }
    assert!(pairs.len() >= 3, "need several overtake pairs, found {}", pairs.len());

    let prefix = |p: &hyperdrive::workload::JobProfile| {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for e in 1..=20 {
            c.push(e, SimTime::from_mins(f64::from(e)), p.value_at(e));
        }
        c
    };
    let predictor = CurvePredictor::new(PredictorConfig::fast().with_seed(3));

    let mut correct = 0usize;
    let mut predicted_gaps = Vec::new();
    let mut instantaneous_gaps = Vec::new();
    for (a, b) in &pairs {
        // Instantaneous comparison at epoch 20 picks A — wrong by
        // construction.
        assert!(a.value_at(20) > b.value_at(20));
        instantaneous_gaps.push(b.value_at(20) - a.value_at(20));
        let post_a = predictor.fit(&prefix(a), 120).unwrap();
        let post_b = predictor.fit(&prefix(b), 120).unwrap();
        let gap = post_b.expected(120) - post_a.expected(120);
        predicted_gaps.push(gap);
        if gap > 0.0 {
            correct += 1;
        }
    }
    let mean_pred = hyperdrive::types::stats::mean(&predicted_gaps).unwrap();
    let mean_inst = hyperdrive::types::stats::mean(&instantaneous_gaps).unwrap();
    assert!(
        mean_pred > mean_inst + 0.03,
        "model should shift the B-A gap toward the truth: predicted {mean_pred:.3} vs instantaneous {mean_inst:.3}"
    );
    assert!(
        correct * 3 >= pairs.len(),
        "model should rank at least a third of overtakes correctly: {correct}/{}",
        pairs.len()
    );
}

/// §2.1: POP's kill threshold removes non-learners within a few
/// evaluation boundaries, long before their 120-epoch horizon.
#[test]
fn pop_kills_non_learners_early() {
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 30, 7);
    let non_learners: Vec<u64> = experiment
        .jobs
        .iter()
        .filter(|j| j.profile.best_value() <= 0.15)
        .map(|j| j.job.raw())
        .collect();
    assert!(non_learners.len() >= 5, "seed provides non-learners");

    let spec =
        ExperimentSpec::new(4).with_tmax(SimTime::from_hours(48.0)).with_stop_on_target(false);
    let mut pop = PopPolicy::new(
        PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
        FitPool::new(0),
        None,
    );
    let result = run_sim(&mut pop, &experiment, spec);

    for o in &result.outcomes {
        if non_learners.contains(&o.job.raw()) {
            assert_eq!(o.end, JobEnd::Terminated, "non-learner {} survived", o.job);
            assert!(
                o.epochs <= 30,
                "non-learner {} ran {} epochs before termination",
                o.job,
                o.epochs
            );
        }
    }
}

/// §3.2 over a whole run: POP's exploitation share grows as confidence
/// accumulates (Fig. 4c's rising promising/active ratio).
#[test]
fn pop_exploitation_share_rises_over_time() {
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 40, 2);
    let spec =
        ExperimentSpec::new(8).with_tmax(SimTime::from_hours(48.0)).with_stop_on_target(false);
    let mut pop = PopPolicy::new(
        PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
        FitPool::new(0),
        None,
    );
    run_sim(&mut pop, &experiment, spec);
    let timeline = pop.timeline();
    assert!(timeline.len() >= 10, "enough allocation decisions");

    let ratio = |snaps: &[hyperdrive::pop::AllocationSnapshot]| -> f64 {
        let rs: Vec<f64> = snaps
            .iter()
            .filter(|s| s.running_jobs > 0)
            .map(|s| s.promising_running as f64 / s.running_jobs as f64)
            .collect();
        hyperdrive::types::stats::mean(&rs).unwrap_or(0.0)
    };
    let early = ratio(&timeline[..timeline.len() / 3]);
    let late = ratio(&timeline[timeline.len() * 2 / 3..]);
    assert!(late > early, "exploitation share should rise: early {early:.3} vs late {late:.3}");
}
