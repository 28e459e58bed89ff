//! Exports the scheduler event log and Gantt timeline of one POP CIFAR-10
//! exploration, plus per-machine utilization — the operational view behind
//! Figures 4/6 (where the paper's time went).

use hyperdrive_bench::{print_table, quick_mode, results_dir, PolicyKind};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

fn main() {
    let n_configs = if quick_mode() { 20 } else { 60 };
    let machines = 4;
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, n_configs, 2);
    let spec = ExperimentSpec::new(machines).with_tmax(SimTime::from_hours(24.0));
    let fidelity = if quick_mode() { PredictorConfig::test() } else { PredictorConfig::fast() };

    let mut rows = Vec::new();
    for policy_kind in [PolicyKind::Pop, PolicyKind::Default] {
        let mut policy = policy_kind.build(fidelity, 2);
        let result = run_sim(policy.as_mut(), &experiment, spec);

        let label = policy_kind.label().to_lowercase();
        let events_path = results_dir().join(format!("gantt_events_{label}.csv"));
        let file = std::fs::File::create(&events_path).expect("results dir writable");
        result.events.write_csv(file).expect("csv written");

        let segments = result.events.gantt(result.end_time);
        let gantt_path = results_dir().join(format!("gantt_segments_{label}.csv"));
        let mut w = std::io::BufWriter::new(
            std::fs::File::create(&gantt_path).expect("results dir writable"),
        );
        use std::io::Write;
        writeln!(w, "job,machine,start_min,end_min,resumed").expect("csv written");
        for s in &segments {
            writeln!(
                w,
                "{},{},{:.2},{:.2},{}",
                s.job.raw(),
                s.machine.raw(),
                s.start.as_mins(),
                s.end.as_mins(),
                s.resumed
            )
            .expect("csv written");
        }
        w.flush().expect("csv flushed");

        let util = result.events.machine_utilization(machines, result.end_time);
        let mean_util = hyperdrive_types::stats::mean(&util).unwrap_or(0.0);
        rows.push(vec![
            policy_kind.label().to_string(),
            result.time_to_target.map_or("-".into(), |t| format!("{:.2}h", t.as_hours())),
            segments.len().to_string(),
            result.events.len().to_string(),
            format!("{:.1}%", mean_util * 100.0),
        ]);
        println!("wrote {} and {}", events_path.display(), gantt_path.display());
    }

    print_table(
        "Scheduler timeline export (CIFAR-10, 4 machines)",
        &["policy", "time-to-target", "gantt segments", "events", "mean utilization"],
        &rows,
    );
}
