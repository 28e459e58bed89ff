//! Dynamic target adjustment (§9 of the paper): instead of stopping at a
//! fixed `ytarget`, raise the target each time it is reached and record
//! the milestones — useful when a good target is unknown a priori.
//!
//! ```sh
//! cargo run --release --example dynamic_target
//! ```

use hyperdrive::curve::FitPool;
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

fn main() {
    let workload = CifarWorkload::new();
    // Start from a modest 40% accuracy target and raise it by 5 points
    // every time a configuration reaches it.
    let experiment = ExperimentWorkload::from_workload(&workload, 60, 2).with_target(0.40);
    let spec =
        ExperimentSpec::new(4).with_tmax(SimTime::from_hours(24.0)).with_dynamic_target(0.05);

    let mut pop = PopPolicy::new(PopConfig::default(), FitPool::new(0), None);
    let result = run_sim(&mut pop, &experiment, spec);

    println!("{:>8} {:>12} {:>8}", "target", "reached at", "by job");
    for m in &result.milestones {
        println!(
            "{:>7.0}% {:>11.2}h {:>8}",
            m.target * 100.0,
            m.time.as_hours(),
            m.job.to_string()
        );
    }
    match result.milestones.last() {
        Some(last) => println!(
            "\nhighest target achieved: {:.0}% after {:.2}h ({} milestones)",
            last.target * 100.0,
            last.time.as_hours(),
            result.milestones.len()
        ),
        None => println!("\nno target reached within Tmax"),
    }
}
