//! Figure 12a: simulator validation — time-to-target on the live
//! (threaded) executor vs the discrete-event simulator for each policy,
//! LunarLander on 15 machines.
//!
//! Paper result: "compared to the live system results, the max error of
//! simulation is only 13%".

use hyperdrive_bench::{print_table, quick_mode, write_csv, PolicyKind};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{run_live, ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::LunarWorkload;

fn main() {
    // The paper repeats each live experiment 5 times (§6.1) and compares
    // means; simulation error is "well below the error bar of live system
    // results".
    // The time scale is chosen so that real curve-fit CPU stays well under
    // the scaled experiment duration — otherwise prediction contention (a
    // real effect, but one the paper's node-agent offloading bounds)
    // dominates the comparison. Both executors run the same fidelity, so
    // the comparison is apples-to-apples.
    let (n_configs, time_scale, fidelity, repeats) = if quick_mode() {
        (30, 300.0, PredictorConfig::test(), 2)
    } else {
        (100, 120.0, PredictorConfig::test(), 5)
    };
    let workload = LunarWorkload::new();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut max_error = 0.0f64;
    for policy_kind in PolicyKind::figure_set() {
        let mut live_times = Vec::new();
        let mut sim_times = Vec::new();
        for r in 0..repeats {
            let noise_seed = 5 + 1_000 * (r as u64 + 1);
            let experiment =
                ExperimentWorkload::from_workload_with_noise(&workload, n_configs, 5, noise_seed);
            let spec =
                ExperimentSpec::new(15).with_tmax(SimTime::from_hours(24.0)).with_seed(noise_seed);
            let mut sim_policy = policy_kind.build(fidelity, noise_seed);
            let sim = run_sim(sim_policy.as_mut(), &experiment, spec);
            sim_times.push(sim.time_to_target.unwrap_or(sim.end_time).as_mins());
            let mut live_policy = policy_kind.build(fidelity, noise_seed);
            let live = run_live(live_policy.as_mut(), &experiment, spec, time_scale);
            live_times.push(live.time_to_target.unwrap_or(live.end_time).as_mins());
        }
        let live_mean = hyperdrive_types::stats::mean(&live_times).unwrap();
        let sim_mean = hyperdrive_types::stats::mean(&sim_times).unwrap();
        let live_spread = live_times.iter().cloned().fold(f64::MIN, f64::max)
            - live_times.iter().cloned().fold(f64::MAX, f64::min);
        let error = (sim_mean - live_mean).abs() / live_mean;
        max_error = max_error.max(error);
        rows.push(vec![
            policy_kind.label().to_string(),
            format!("{live_mean:.1}"),
            format!("{live_spread:.1}"),
            format!("{sim_mean:.1}"),
            format!("{:.1}%", error * 100.0),
        ]);
        csv_rows.push(format!(
            "{},{live_mean:.2},{live_spread:.2},{sim_mean:.2},{error:.4}",
            policy_kind.label()
        ));
    }
    write_csv(
        "fig12a_sim_validation.csv",
        "policy,live_mean_min,live_spread_min,sim_mean_min,rel_error",
        csv_rows,
    );

    print_table(
        &format!("Figure 12a: simulator validation (LunarLander, 15 machines, {repeats} repeats)"),
        &["policy", "live mean (min)", "live spread", "sim mean (min)", "error"],
        &rows,
    );
    println!("\nmax simulation error: {:.1}% (paper: max 13%)", max_error * 100.0);
}
