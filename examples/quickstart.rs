//! Quickstart: explore CIFAR-10 hyperparameters with POP on the
//! discrete-event simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hyperdrive::curve::FitPool;
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

fn main() {
    // The synthetic CIFAR-10 workload: 14 hyperparameters, ~120 one-minute
    // epochs per configuration, target accuracy 77%.
    let workload = CifarWorkload::new();

    // 50 random configurations — the same fixed set every policy would
    // see — on a 4-machine cluster with a 24-hour budget.
    let experiment = ExperimentWorkload::from_workload(&workload, 50, 42);
    let spec = ExperimentSpec::new(4).with_tmax(SimTime::from_hours(24.0));

    // POP with default paper parameters (kill threshold from domain
    // knowledge, confidence lower bound 0.05, dynamic p* threshold).
    let mut pop = PopPolicy::new(PopConfig::default(), FitPool::new(0), None);
    let result = run_sim(&mut pop, &experiment, spec);

    match result.time_to_target {
        Some(t) => {
            let winner = result.winner.expect("a winner accompanies time-to-target");
            println!(
                "reached {:.0}% accuracy in {t} (winner: {winner})",
                experiment.target * 100.0
            );
        }
        None => println!("no configuration reached the target within Tmax"),
    }
    println!(
        "epochs executed: {} | jobs terminated early: {} | suspensions: {}",
        result.total_epochs,
        result.terminated_early(),
        result.suspend_events.len()
    );
    println!("curve-model fits performed by POP: {}", pop.predictions_made());
}
