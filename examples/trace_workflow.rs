//! The §7 trace workflow: record traces from (simulated) live runs, save
//! them to disk, permute configuration orders, and replay them through the
//! discrete-event simulator — the pipeline behind all of the paper's
//! sensitivity analyses.
//!
//! ```sh
//! cargo run --release --example trace_workflow
//! ```

use hyperdrive::curve::FitPool;
use hyperdrive::framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{CifarWorkload, TraceSet, Workload};
use hyperdrive::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = CifarWorkload::new();

    // 1. Trace Generator: collect a replayable workload.
    let traces = TraceSet::generate(&workload, 40, 7);
    let path = std::env::temp_dir().join("hyperdrive-example-traces.csv");
    traces.write_to_path(&path)?;
    println!("recorded {} traces to {}", traces.len(), path.display());

    // 2. Reload and replay under two policies and three configuration
    //    orders.
    let loaded = TraceSet::read_from_path(&path)?;
    let spec = ExperimentSpec::new(4).with_tmax(SimTime::from_hours(48.0));

    println!("\n{:>8} {:>10} {:>14}", "order", "policy", "time-to-77%");
    for order_seed in 0..3u64 {
        let permuted = loaded.permuted(order_seed);
        let experiment = ExperimentWorkload::from_traces(
            &permuted,
            workload.domain_knowledge(),
            workload.eval_boundary(),
            workload.default_target(),
            workload.suspend_model(),
        );
        let mut pop = PopPolicy::new(PopConfig::default(), FitPool::new(0), None);
        let pop_result = run_sim(&mut pop, &experiment, spec);
        let mut default = DefaultPolicy::new();
        let default_result = run_sim(&mut default, &experiment, spec);
        for result in [pop_result, default_result] {
            println!(
                "{:>8} {:>10} {:>14}",
                order_seed,
                result.policy,
                result
                    .time_to_target
                    .map_or("not reached".into(), |t| format!("{:.2}h", t.as_hours()))
            );
        }
    }
    println!("\n(POP's time varies far less across orders — the Fig. 12c result)");
    std::fs::remove_file(&path).ok();
    Ok(())
}
