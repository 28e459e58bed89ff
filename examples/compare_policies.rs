//! Compare POP against the paper's baselines (Default, Bandit, EarlyTerm)
//! and the Hyperband extension on one CIFAR-10 exploration.
//!
//! ```sh
//! cargo run --release --example compare_policies
//! ```

use hyperdrive::curve::{FitPool, PredictorConfig};
use hyperdrive::framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload, SchedulingPolicy};
use hyperdrive::policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy, HyperbandPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

fn main() {
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 60, 2);
    let spec = ExperimentSpec::new(4).with_tmax(SimTime::from_hours(48.0));

    // The same experiment (identical configurations and training noise)
    // under every policy.
    let mut policies: Vec<Box<dyn SchedulingPolicy>> = vec![
        Box::new(PopPolicy::new(
            PopConfig { predictor: PredictorConfig::fast(), ..Default::default() },
            FitPool::new(0),
            None,
        )),
        Box::new(BanditPolicy::new()),
        Box::new(EarlyTermPolicy::with_config(EarlyTermConfig::default())),
        Box::new(HyperbandPolicy::new()),
        Box::new(DefaultPolicy::new()),
    ];

    println!("{:<12} {:>14} {:>10} {:>12}", "policy", "time-to-77%", "epochs", "terminated");
    for policy in policies.iter_mut() {
        let result = run_sim(policy.as_mut(), &experiment, spec);
        let time = result
            .time_to_target
            .map_or("not reached".to_string(), |t| format!("{:.2}h", t.as_hours()));
        println!(
            "{:<12} {:>14} {:>10} {:>12}",
            result.policy,
            time,
            result.total_epochs,
            result.terminated_early()
        );
    }
    println!("\n(identical 60-configuration experiment, 4 machines; lower time and fewer epochs are better)");
}
