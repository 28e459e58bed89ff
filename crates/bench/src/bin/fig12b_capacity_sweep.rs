//! Figure 12b: sensitivity to resource capacity — trace-driven simulation
//! of the time to reach the CIFAR-10 target for 4/8/16/32 machines under
//! every policy.
//!
//! Pass `--domain rl` to run the §7.3 reinforcement-learning variant (the
//! paper reports "similar results" and omits the figure). Pass
//! `--extended` to grow the capacity grid past the paper's 32 machines up
//! to 10k (the O(1) event-loop work makes the large points cheap); the
//! default grid and its CSV stay byte-identical.
//!
//! Paper observations: time-to-target improves with more machines for all
//! policies; POP always wins, with a growing margin at larger capacities.

use hyperdrive_bench::{par_map, print_table, quick_mode, write_csv, PolicyKind};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::{CifarWorkload, LunarWorkload, TraceSet, Workload};

fn main() {
    let rl = std::env::args().any(|a| a == "--domain") && std::env::args().any(|a| a == "rl");
    let extended = std::env::args().any(|a| a == "--extended");
    let n_configs = if quick_mode() { 30 } else { 100 };
    let fidelity = if quick_mode() { PredictorConfig::test() } else { PredictorConfig::fast() };

    // §7.2: traces are collected once from (simulated) live runs, then
    // replayed under every policy and capacity.
    let workload: Box<dyn Workload> =
        if rl { Box::new(LunarWorkload::new()) } else { Box::new(CifarWorkload::new()) };
    let traces = TraceSet::generate(workload.as_ref(), n_configs, 7);
    let experiment = ExperimentWorkload::from_traces(
        &traces,
        workload.domain_knowledge(),
        workload.eval_boundary(),
        workload.default_target(),
        workload.suspend_model(),
    );

    // The paper's grid tops out at 32 machines; `--extended` rides the O(1)
    // event loop out to 10k to show the capacity trend keeps its shape.
    let capacities: &[usize] =
        if extended { &[4, 8, 16, 32, 256, 2048, 10_000] } else { &[4, 8, 16, 32] };
    let policies = PolicyKind::headline();
    // The capacity × policy grid is embarrassingly parallel and each run is
    // seeded; par_map returns results in task order so the CSV bytes are
    // identical to the old sequential loop.
    let tasks: Vec<(usize, PolicyKind)> = capacities
        .iter()
        .flat_map(|&machines| policies.iter().map(move |&p| (machines, p)))
        .collect();
    let times = par_map(&tasks, |&(machines, policy_kind)| {
        let spec = ExperimentSpec::new(machines).with_tmax(SimTime::from_hours(48.0)).with_seed(3);
        let mut policy = policy_kind.build(fidelity, 3);
        run_sim(policy.as_mut(), &experiment, spec).time_to_target.map(|t| t.as_hours())
    });
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (chunk, ts) in tasks.chunks(policies.len()).zip(times.chunks(policies.len())) {
        let machines = chunk[0].0;
        let mut row = vec![machines.to_string()];
        for (&(_, policy_kind), &t) in chunk.iter().zip(ts) {
            row.push(t.map_or("-".into(), |h| format!("{h:.2}")));
            csv_rows.push(format!(
                "{machines},{},{}",
                policy_kind.label(),
                t.map_or("NaN".into(), |h| format!("{h:.4}"))
            ));
        }
        rows.push(row);
    }
    // Extended runs land in their own CSV so the default figure-12b bytes
    // never depend on which sweep ran last.
    write_csv(
        match (rl, extended) {
            (true, false) => "fig12b_capacity_sweep_rl.csv",
            (true, true) => "fig12b_capacity_sweep_rl_extended.csv",
            (false, false) => "fig12b_capacity_sweep.csv",
            (false, true) => "fig12b_capacity_sweep_extended.csv",
        },
        "machines,policy,hours",
        csv_rows,
    );

    print_table(
        &format!(
            "Figure 12b: time-to-target (hours) vs cluster capacity ({})",
            if rl { "LunarLander" } else { "CIFAR-10" }
        ),
        &["machines", "POP", "Bandit", "EarlyTerm", "Default"],
        &rows,
    );
    println!("\npaper: all policies improve with machines; POP always fastest, margin grows");
}
