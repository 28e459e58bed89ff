//! Figure 3: predicted vs measured validation-accuracy curves of multiple
//! configurations, with predictions refreshed over time (snapshots at the
//! 10th and 30th epoch, then the final measured curves).
//!
//! The paper's point: at epoch 10 there is little trajectory information
//! and predictions carry wide uncertainty (so all configurations are
//! opportunistic); by epoch 30 confident separations emerge.

use hyperdrive_bench::{print_table, quick_mode, write_csv};
use hyperdrive_curve::{CurvePredictor, PredictorConfig};
use hyperdrive_types::{LearningCurve, MetricKind, SimTime};
use hyperdrive_workload::{CifarWorkload, JobProfile, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn curve_prefix(profile: &JobProfile, upto: u32) -> LearningCurve {
    let mut c = LearningCurve::new(MetricKind::Accuracy);
    let mut elapsed = 0.0;
    for e in 1..=upto.min(profile.max_epochs()) {
        elapsed += profile.epoch_duration(e).as_secs();
        c.push(e, SimTime::from_secs(elapsed), profile.value_at(e));
    }
    c
}

fn main() {
    let workload = CifarWorkload::new();
    let mut rng = StdRng::seed_from_u64(33);

    // Select a handful of learner configurations with diverse outcomes.
    let mut profiles: Vec<JobProfile> = Vec::new();
    let mut attempts = 0;
    while profiles.len() < 5 && attempts < 500 {
        let p = workload.profile(&workload.space().sample(&mut rng), 900 + attempts);
        attempts += 1;
        let f = p.final_value();
        if f > 0.25 && profiles.iter().all(|q| (q.final_value() - f).abs() > 0.06) {
            profiles.push(p);
        }
    }

    let fidelity = if quick_mode() { PredictorConfig::test() } else { PredictorConfig::paper() };
    let predictor = CurvePredictor::new(fidelity.with_seed(9));
    let horizon = profiles[0].max_epochs();

    let mut rows = Vec::new();
    let mut summary_rows = Vec::new();
    for snapshot in [10u32, 30] {
        for (i, p) in profiles.iter().enumerate() {
            let posterior =
                predictor.fit(&curve_prefix(p, snapshot), horizon).expect("prediction fits");
            let grid: Vec<u32> = (snapshot..=horizon).step_by(5).collect();
            let mut predicted = vec![(0.0, 0.0, 0.0); grid.len()];
            posterior.summary_many(&grid, 0.77, &mut predicted);
            for (&e, (expected, std, _)) in grid.iter().zip(&predicted) {
                rows.push(format!(
                    "{i},{snapshot},{e},{expected:.4},{std:.4},{:.4}",
                    p.value_at(e)
                ));
            }
            let (exp_final, std_final, _) = posterior.summary_at(horizon, 0.77);
            summary_rows.push(vec![
                format!("config {i} @ epoch {snapshot}"),
                format!("{exp_final:.3}"),
                format!("{std_final:.3}"),
                format!("{:.3}", p.final_value()),
            ]);
        }
    }
    let path = write_csv(
        "fig03_prediction_over_time.csv",
        "config,snapshot_epoch,epoch,expected,std,measured",
        rows,
    );

    // The paper's qualitative claim: uncertainty shrinks with history.
    let avg_std = |snapshot: u32| -> f64 {
        let stds: Vec<f64> = summary_rows
            .iter()
            .filter(|r| r[0].ends_with(&format!("epoch {snapshot}")))
            .map(|r| r[2].parse::<f64>().expect("formatted above"))
            .collect();
        hyperdrive_types::stats::mean(&stds).unwrap_or(f64::NAN)
    };

    print_table(
        "Figure 3: prediction snapshots (predicted final accuracy)",
        &["config@snapshot", "expected", "std (PA)", "measured final"],
        &summary_rows,
    );
    println!(
        "\nmean prediction std: epoch 10 = {:.4}, epoch 30 = {:.4} (paper: confidence grows with history)",
        avg_std(10),
        avg_std(30)
    );
    println!("series written to {}", path.display());
}
