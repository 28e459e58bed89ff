//! Figure 4: allocation of resources over an experiment's lifetime.
//!
//! (a) early in the run (low confidences) the desired/deserved crossing is
//! low — few or no promising slots; (b) late in the run the crossing moves
//! right and exploitation dominates; (c) the ratio of promising to active
//! jobs rises over the experiment's lifetime.
//!
//! With `--static <p>` the dynamic `p*` is replaced by a static threshold
//! (the §2.2c ablation DESIGN.md calls out).

use hyperdrive_bench::{print_table, quick_mode, write_csv};
use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{FitPool, PredictorConfig};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

fn main() {
    let static_threshold: Option<f64> = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--static")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--static takes a probability"))
    };

    let n_configs = if quick_mode() { 30 } else { 100 };
    let machines = 4; // the paper's private-cluster size
    let workload = CifarWorkload::new();
    let experiment = ExperimentWorkload::from_workload(&workload, n_configs, 7);
    // A realistic (tight-ish) Tmax matters here: as the remaining budget
    // Tmax − Tpass shrinks, mid-tier configurations' confidence to reach
    // the target in time collapses, POP prunes them, and the
    // promising/active ratio climbs (the Fig. 4c dynamic). An effectively
    // unbounded Tmax would leave the opportunistic pool full forever.
    // The paper's Fig. 4 instruments a real time-to-target run: the share
    // of promising slots climbs until the winner crosses the target.
    let spec = ExperimentSpec::new(machines).with_tmax(SimTime::from_hours(4.0));

    let fidelity = if quick_mode() { PredictorConfig::test() } else { PredictorConfig::fast() };
    let mut pop = PopPolicy::new(
        PopConfig { predictor: fidelity, static_threshold, ..Default::default() },
        FitPool::new(0),
        None,
    );
    let result = run_sim(&mut pop, &experiment, spec);

    let timeline = pop.timeline();
    assert!(!timeline.is_empty(), "POP recorded allocation snapshots");

    // (a)/(b): earliest snapshot with any curve points ~20 min in, and a
    // late snapshot ~2/3 through the run.
    let early = timeline
        .iter()
        .find(|s| s.now >= SimTime::from_mins(20.0) && !s.curve.is_empty())
        .unwrap_or(&timeline[0]);
    let late_t = SimTime::from_secs(result.end_time.as_secs() * 0.66);
    let late = timeline
        .iter()
        .rev()
        .find(|s| s.now <= late_t && !s.curve.is_empty())
        .unwrap_or(&timeline[timeline.len() - 1]);

    for (name, snap) in [("fig04a_early_slots.csv", early), ("fig04b_late_slots.csv", late)] {
        write_csv(
            name,
            "p,desired_slots,deserved_slots,effective_slots",
            snap.curve.iter().map(|pt| {
                format!("{:.4},{:.3},{:.3},{:.3}", pt.p, pt.desired, pt.deserved, pt.effective)
            }),
        );
    }

    // (c): share of occupied slots running promising jobs, over time.
    write_csv(
        "fig04c_promising_ratio.csv",
        "time_min,promising_running,running_jobs,ratio",
        timeline.iter().map(|s| {
            let ratio = if s.running_jobs == 0 {
                0.0
            } else {
                s.promising_running as f64 / s.running_jobs as f64
            };
            format!(
                "{:.2},{},{},{:.4}",
                s.now.as_mins(),
                s.promising_running,
                s.running_jobs,
                ratio
            )
        }),
    );

    let first_third = &timeline[..timeline.len() / 3];
    let last_third = &timeline[timeline.len() * 2 / 3..];
    let ratio_of = |snaps: &[hyperdrive_core::AllocationSnapshot]| -> f64 {
        let rs: Vec<f64> = snaps
            .iter()
            .filter(|s| s.running_jobs > 0)
            .map(|s| s.promising_running as f64 / s.running_jobs as f64)
            .collect();
        hyperdrive_types::stats::mean(&rs).unwrap_or(0.0)
    };

    print_table(
        &format!(
            "Figure 4: POP resource allocation ({} configs, {machines} machines{})",
            n_configs,
            static_threshold.map_or(String::new(), |t| format!(", static threshold {t}"))
        ),
        &["metric", "measured", "paper"],
        &[
            vec![
                "early snapshot time / p*".into(),
                format!("{} / {:.3}", early.now, early.p_threshold),
                "~20min: small p*, few promising".into(),
            ],
            vec!["early promising slots".into(), early.promising_slots.to_string(), "low".into()],
            vec![
                "late snapshot time / p*".into(),
                format!("{} / {:.3}", late.now, late.p_threshold),
                "~2h: high p*".into(),
            ],
            vec!["late promising slots".into(), late.promising_slots.to_string(), "high".into()],
            vec![
                "promising slot share, early third".into(),
                format!("{:.3}", ratio_of(first_third)),
                "near 0".into(),
            ],
            vec![
                "promising slot share, last third".into(),
                format!("{:.3}", ratio_of(last_third)),
                "rises toward ~0.8".into(),
            ],
            vec!["allocation decisions recorded".into(), timeline.len().to_string(), "-".into()],
        ],
    );
}
