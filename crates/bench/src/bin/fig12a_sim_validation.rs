//! Figure 12a: simulator validation — time-to-target on the live
//! (threaded) executor vs the discrete-event simulator for each policy,
//! LunarLander on 15 machines.
//!
//! Paper result: "compared to the live system results, the max error of
//! simulation is only 13%". The bin records that as the scorecard claim
//! `fig12a.max_sim_error` and exits non-zero when our max error exceeds it.

use hyperdrive_bench::{
    par_map, print_table, quick_mode, record_claims, write_csv, Claim, PolicyKind,
};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{run_live, ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::LunarWorkload;

/// The paper's max simulation error.
const PAPER_MAX_ERROR: f64 = 0.13;

fn main() {
    // The paper repeats each live experiment 5 times (§6.1) and compares
    // means; simulation error is "well below the error bar of live system
    // results".
    // The time scale is chosen so that real curve-fit CPU stays well under
    // the scaled experiment duration — otherwise prediction contention (a
    // real effect, but one the paper's node-agent offloading bounds)
    // dominates the comparison. The claim, not the wall clock, bounds it:
    // quick mode reads ≈0.6 % at 600× and ≈1.3 % at 1 200×. Both executors
    // run the same fidelity, so the comparison is apples-to-apples.
    let (n_configs, time_scale, fidelity, repeats) = if quick_mode() {
        (30, 600.0, PredictorConfig::test(), 2)
    } else {
        (100, 120.0, PredictorConfig::test(), 5)
    };
    let workload = LunarWorkload::new();
    let policies = PolicyKind::figure_set();
    // One leg per policy × repeat, keyed by its training-noise seed.
    let legs: Vec<(PolicyKind, u64)> = policies
        .iter()
        .flat_map(|&kind| (0..repeats).map(move |r| (kind, 5 + 1_000 * (r as u64 + 1))))
        .collect();
    let leg = |&(kind, noise_seed): &(PolicyKind, u64), live: bool| {
        let experiment =
            ExperimentWorkload::from_workload_with_noise(&workload, n_configs, 5, noise_seed);
        let spec =
            ExperimentSpec::new(15).with_tmax(SimTime::from_hours(24.0)).with_seed(noise_seed);
        let mut policy = kind.build(fidelity, noise_seed);
        let result = if live {
            run_live(policy.as_mut(), &experiment, spec, time_scale)
        } else {
            run_sim(policy.as_mut(), &experiment, spec)
        };
        result.time_to_target.unwrap_or(result.end_time).as_mins()
    };
    // The simulated legs first, on the CPU-sized pool, so they do not
    // compete with the live legs' schedulers. The live legs sleep through
    // their scaled epochs: each gets a thread of its own and all run at
    // once, where a CPU-sized pool would serialise them.
    let sim_times = par_map(&legs, |l| leg(l, false));
    let live_times: Vec<f64> = std::thread::scope(|scope| {
        let leg = &leg;
        let runs: Vec<_> = legs.iter().map(|l| scope.spawn(move || leg(l, true))).collect();
        runs.into_iter().map(|run| run.join().expect("live leg panicked")).collect()
    });

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut max_error = 0.0f64;
    for ((kind, live), sim) in
        policies.iter().zip(live_times.chunks(repeats)).zip(sim_times.chunks(repeats))
    {
        let live_mean = hyperdrive_types::stats::mean(live).unwrap();
        let sim_mean = hyperdrive_types::stats::mean(sim).unwrap();
        let live_spread = live.iter().cloned().fold(f64::MIN, f64::max)
            - live.iter().cloned().fold(f64::MAX, f64::min);
        let error = (sim_mean - live_mean).abs() / live_mean;
        max_error = max_error.max(error);
        rows.push(vec![
            kind.label().to_string(),
            format!("{live_mean:.1}"),
            format!("{live_spread:.1}"),
            format!("{sim_mean:.1}"),
            format!("{:.1}%", error * 100.0),
        ]);
        csv_rows.push(format!(
            "{},{live_mean:.2},{live_spread:.2},{sim_mean:.2},{error:.4}",
            kind.label()
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
    println!(
        "\nmax simulation error: {:.1}% (paper: max {:.0}%)",
        max_error * 100.0,
        PAPER_MAX_ERROR * 100.0
    );
    record_claims(
        "fig12a_sim_validation",
        &[Claim::at_most("fig12a.max_sim_error", PAPER_MAX_ERROR, max_error, 0.0)],
    );
    if max_error > PAPER_MAX_ERROR {
        eprintln!("fig12a: max simulation error exceeds the paper's");
        std::process::exit(1);
    }
}
