//! Driving the discrete-event simulator one input at a time with
//! [`hyperdrive::sim::Simulation`] — the same loop `run_sim` runs to the
//! end in one call. Here it is built with a fault plan, stepped on a fixed
//! inspection cadence, and the fault inputs (machine crashes, recoveries,
//! stall detections) are printed as they surface between completions.
//!
//! ```sh
//! cargo run --release --example step_through
//! ```

use hyperdrive::curve::FitPool;
use hyperdrive::framework::{
    EngineInput, ExperimentSpec, ExperimentWorkload, FaultConfig, FaultPlan,
};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::Simulation;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

fn main() {
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, 30, 2);
    let spec = ExperimentSpec::new(4).with_tmax(SimTime::from_hours(24.0));
    let plan = FaultPlan::generate(4, &FaultConfig::with_intensity(7, spec.tmax, 2.0));

    let mut pop = PopPolicy::new(PopConfig::default(), FitPool::new(0), None);
    // `Simulation::new` is the fault-free constructor; an empty plan here
    // would be exactly that run.
    let mut sim = Simulation::with_faults(&mut pop, &experiment, spec, &plan);

    println!("{:>10} {:>10} {:>12}", "time", "inputs", "pending");
    let mut horizon = SimTime::from_mins(15.0);
    while !sim.stopped() {
        while sim.now() <= horizon {
            match sim.step_input() {
                Some((_, EngineInput::Event(_))) => {}
                Some((time, fault)) => println!("{:>10} {fault:?}", format!("{time}")),
                None => break,
            }
        }
        println!(
            "{:>10} {:>10} {:>12}",
            format!("{}", sim.now()),
            sim.inputs_delivered(),
            sim.pending_events()
        );
        horizon += SimTime::from_mins(15.0);
    }
    let result = sim.finish();
    println!(
        "\nfinished: target {} | {} epochs ({} lost to faults) | {} scheduler events",
        result.time_to_target.map_or("not reached".into(), |t| format!("reached in {t}")),
        result.total_epochs,
        result.faults.lost_epochs,
        result.events.len()
    );
}
