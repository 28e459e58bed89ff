//! The §1 motivation at scale: hyperparameter exploration over
//! ImageNet22k-class jobs ("up to ten days to train to convergence using
//! 62 machines"). At hours-per-epoch cost, early termination converts
//! directly into machine-days saved.

use hyperdrive_bench::{par_map, print_table, quick_mode, write_csv, PolicyKind};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::ImagenetWorkload;

fn main() {
    // 62 machines is the paper's Project-Adam cluster; with ~5% of random
    // configurations reaching the target, a 62-machine first batch almost
    // always contains a winner and every policy is winner-training-bound.
    // The default 16-machine sweep is the contended regime where
    // scheduling decides the bill; pass --machines 62 for the full-cluster
    // variant.
    let machines: usize = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--machines")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--machines takes a count"))
            .unwrap_or(16)
    };
    let (n_configs, fidelity) =
        if quick_mode() { (30, PredictorConfig::test()) } else { (120, PredictorConfig::fast()) };
    let workload = ImagenetWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, n_configs, 6);
    // A month-long budget: even that cannot run 120 ten-day jobs on 62
    // machines exhaustively.
    let spec = ExperimentSpec::new(machines).with_tmax(SimTime::from_hours(24.0 * 30.0));

    // One seeded, independent simulation per policy; par_map keeps output
    // order, so the CSV is byte-identical to the old sequential loop.
    let policy_set =
        [PolicyKind::Pop, PolicyKind::Bandit, PolicyKind::Hyperband, PolicyKind::Default];
    let results = par_map(&policy_set, |policy_kind| {
        let mut policy = policy_kind.build(fidelity, 6);
        let result = run_sim(policy.as_mut(), &experiment, spec);
        let machine_days: f64 = result.outcomes.iter().map(|o| o.busy_time.as_hours() / 24.0).sum();
        let ttt = result.time_to_target.map(|t| t.as_hours() / 24.0);
        (ttt, machine_days, result.terminated_early())
    });
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (policy_kind, &(ttt, machine_days, terminated)) in policy_set.iter().zip(&results) {
        rows.push(vec![
            policy_kind.label().to_string(),
            ttt.map_or("-".into(), |d| format!("{d:.1}")),
            format!("{machine_days:.0}"),
            terminated.to_string(),
        ]);
        csv_rows.push(format!(
            "{},{},{machine_days:.2},{terminated}",
            policy_kind.label(),
            ttt.map_or("NaN".into(), |d| format!("{d:.3}")),
        ));
    }
    write_csv("scale_imagenet.csv", "policy,time_to_target_days,machine_days,terminated", csv_rows);

    print_table(
        &format!(
            "ImageNet22k-scale exploration ({n_configs} configs, {machines} machines, target 30% top-1)"
        ),
        &["policy", "time-to-target (days)", "machine-days used", "terminated"],
        &rows,
    );
    println!("\npaper §1: at this scale exhaustive search is simply not practical —");
    println!("the machine-days column is the bill each policy runs up before finding the target");
}
