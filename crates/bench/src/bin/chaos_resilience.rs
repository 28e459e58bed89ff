//! Chaos benchmark: every scheduling policy under an escalating fault
//! barrage.
//!
//! For each policy in the paper's comparison set and each fault intensity
//! (none / low / high), the binary runs seeded fault plans against the
//! simulator twice per repeat: once racing to the accuracy target
//! (measuring time-to-target inflation versus the fault-free baseline)
//! and once to completion (measuring work lost to rollbacks and checking
//! that every job reaches a terminal state). Rate 0 must reproduce the
//! fault-free run *exactly* — same clock, same epochs — which this binary
//! asserts rather than assumes.
//!
//! Policies never see the fault machinery directly: crashes surface to a
//! SAP only as a shrunken machine pool and re-queued jobs, so POP and the
//! baselines degrade gracefully or not at all on their own merits.

use std::io::Write as _;

use hyperdrive_bench::{par_map, print_table, quick_mode, results_dir, write_csv, PolicyKind};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{
    check_trace, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultConfig, FaultEvent,
    FaultKind, FaultPlan, JobEnd,
};
use hyperdrive_sim::{run_sim, run_sim_with_recovery, Simulation};
use hyperdrive_types::{MachineId, SimTime};
use hyperdrive_workload::CifarWorkload;

struct Scale {
    n_configs: usize,
    machines: usize,
    repeats: usize,
}

fn scale() -> Scale {
    if quick_mode() {
        Scale { n_configs: 15, machines: 3, repeats: 2 }
    } else {
        Scale { n_configs: 40, machines: 4, repeats: 3 }
    }
}

/// Checks one faulted run against `check_trace`'s laws. Runs that stop at
/// the target (or `Tmax`) legitimately leave jobs unfinished, so the
/// every-job-terminal check applies only to `ran_to_completion` runs.
fn check_run(
    result: &ExperimentResult,
    ew: &ExperimentWorkload,
    spec: &ExperimentSpec,
    ran_to_completion: bool,
    label: &str,
) {
    if let Err(violation) = check_trace(result, ew, spec) {
        panic!("{label}: {violation}");
    }
    if ran_to_completion {
        for o in &result.outcomes {
            assert!(
                matches!(o.end, JobEnd::Completed | JobEnd::Terminated | JobEnd::Failed),
                "{label}: job {:?} ended {:?} — not a terminal state",
                o.job,
                o.end
            );
        }
    }
}

fn main() {
    let s = scale();
    let intensities: [(f64, &str); 3] = [(0.0, "none"), (2.0, "low"), (10.0, "high")];
    let horizon = SimTime::from_hours(24.0);
    let workload = CifarWorkload::new();
    let fidelity = if quick_mode() { PredictorConfig::test() } else { PredictorConfig::fast() };

    let policies = PolicyKind::headline();

    // Fault-free baselines, one per (policy, repeat), for inflation ratios
    // and the exact rate-0 reproduction check. Every run is seeded and
    // independent; par_map returns them in task order.
    let base_tasks: Vec<(usize, usize)> =
        (0..policies.len()).flat_map(|p| (0..s.repeats).map(move |repeat| (p, repeat))).collect();
    let baselines: Vec<ExperimentResult> = par_map(&base_tasks, |&(p, repeat)| {
        let noise_seed = 7u64.wrapping_add(1_000 * (repeat as u64 + 1));
        let ew =
            ExperimentWorkload::from_workload_with_noise(&workload, s.n_configs, 7, noise_seed);
        let spec = ExperimentSpec::new(s.machines).with_tmax(horizon).with_seed(noise_seed);
        let mut policy = policies[p].build(fidelity, noise_seed);
        run_sim(policy.as_mut(), &ew, spec)
    });
    let baseline = |p: usize, repeat: usize| &baselines[p * s.repeats + repeat];

    // The faulted grid: each (policy, intensity, repeat) cell runs the
    // target race and the run-to-completion audit.
    let fault_tasks: Vec<(usize, usize, usize)> = (0..policies.len())
        .flat_map(|p| {
            (0..intensities.len())
                .flat_map(move |ii| (0..s.repeats).map(move |repeat| (p, ii, repeat)))
        })
        .collect();
    let fault_runs: Vec<(Option<SimTime>, ExperimentResult)> =
        par_map(&fault_tasks, |&(p, ii, repeat)| {
            let kind = policies[p];
            let (intensity, rate_label) = intensities[ii];
            let noise_seed = 7u64.wrapping_add(1_000 * (repeat as u64 + 1));
            let fault_seed = 31u64.wrapping_add(repeat as u64);
            let ew =
                ExperimentWorkload::from_workload_with_noise(&workload, s.n_configs, 7, noise_seed);
            let plan = FaultPlan::generate(
                s.machines,
                &FaultConfig::with_intensity(fault_seed, horizon, intensity),
            );

            // Race to the target: time-to-target inflation.
            let spec = ExperimentSpec::new(s.machines).with_tmax(horizon).with_seed(noise_seed);
            let mut policy = kind.build(fidelity, noise_seed);
            let result = Simulation::with_faults(policy.as_mut(), &ew, spec, &plan).run();
            check_run(
                &result,
                &ew,
                &spec,
                false,
                &format!("{} {} target", kind.label(), rate_label),
            );
            if intensity == 0.0 {
                let base = baseline(p, repeat);
                assert_eq!(
                    result.end_time, base.end_time,
                    "rate 0 must reproduce the fault-free clock exactly"
                );
                assert_eq!(result.total_epochs, base.total_epochs);
                assert_eq!(result.time_to_target, base.time_to_target);
            }

            // Run everything to completion: work-lost accounting.
            // The generous Tmax guarantees the run ends by finishing
            // its jobs, not by exhausting the clock (faults are still
            // confined to the first `horizon` hours).
            let spec = ExperimentSpec::new(s.machines)
                .with_tmax(SimTime::from_hours(1_000.0))
                .with_seed(noise_seed)
                .with_stop_on_target(false);
            let mut policy = kind.build(fidelity, noise_seed);
            let full = Simulation::with_faults(policy.as_mut(), &ew, spec, &plan).run();
            check_run(
                &full,
                &ew,
                &spec,
                true,
                &format!("{} {} completion", kind.label(), rate_label),
            );
            (result.time_to_target, full)
        });

    let mut csv_rows: Vec<String> = Vec::new();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    let mut json_cells: Vec<String> = Vec::new();
    let mut cells = fault_runs.iter();
    for (p, kind) in policies.iter().enumerate() {
        for &(intensity, rate_label) in &intensities {
            let mut ttt_hours: Vec<f64> = Vec::new();
            let mut inflations: Vec<f64> = Vec::new();
            let mut lost_epochs: u64 = 0;
            let mut total_epochs: u64 = 0;
            let mut crashes: u64 = 0;
            let mut recoveries: u64 = 0;
            let mut stalls: u64 = 0;
            let mut retries: u64 = 0;
            let mut suspend_failures: u64 = 0;
            let mut snapshot_corruptions: u64 = 0;
            let mut failed: u64 = 0;
            let mut misses = 0usize;
            let mut injected = (0usize, 0usize, 0usize); // crashes, stalls, delays

            for repeat in 0..s.repeats {
                let (ttt, full) = cells.next().expect("one cell per task");
                // The plan is deterministic: recompute it to report what
                // was *injected* next to what was *observed*.
                let fault_seed = 31u64.wrapping_add(repeat as u64);
                let plan = FaultPlan::generate(
                    s.machines,
                    &FaultConfig::with_intensity(fault_seed, horizon, intensity),
                );
                for e in &plan.events {
                    match e.kind {
                        FaultKind::MachineCrash => injected.0 += 1,
                        FaultKind::AgentStall { .. } => injected.1 += 1,
                        FaultKind::ReplyDelay { .. } => injected.2 += 1,
                        FaultKind::MachineRecover | FaultKind::EngineCrash { .. } => {}
                    }
                }
                recoveries += full.faults.machine_recoveries;
                retries += full.faults.interruptions;
                suspend_failures += full.faults.suspend_failures;
                snapshot_corruptions += full.faults.snapshot_corruptions;
                match (*ttt, baseline(p, repeat).time_to_target) {
                    (Some(t), Some(b)) if b > SimTime::ZERO => {
                        ttt_hours.push(t.as_hours());
                        inflations.push(t.as_secs() / b.as_secs());
                    }
                    (Some(t), _) => ttt_hours.push(t.as_hours()),
                    (None, _) => misses += 1,
                }
                lost_epochs += full.faults.lost_epochs;
                total_epochs += full.total_epochs;
                crashes += full.faults.machine_crashes;
                stalls += full.faults.agent_stalls;
                failed += full.faults.failed_jobs;

                // Missing values use the repo-wide `NaN` convention (see
                // `crates/bench/src/report.rs`).
                csv_rows.push(format!(
                    "{},{},{},{},{},{},{},{},{}",
                    kind.label(),
                    rate_label,
                    repeat,
                    ttt.map_or_else(|| "NaN".into(), |t| format!("{:.4}", t.as_hours())),
                    full.faults.lost_epochs,
                    full.total_epochs,
                    full.faults.machine_crashes,
                    full.faults.agent_stalls,
                    full.faults.failed_jobs,
                ));
            }

            let mean = |v: &[f64]| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            let work_lost_pct = if total_epochs > 0 {
                100.0 * lost_epochs as f64 / total_epochs as f64
            } else {
                0.0
            };
            let ttt_mean = mean(&ttt_hours);
            json_cells.push(format!(
                "{{\"policy\": \"{}\", \"rate\": \"{rate_label}\", \
                 \"injected\": {{\"crashes\": {}, \"stalls\": {}, \"delays\": {}}}, \
                 \"observed\": {{\"crashes\": {crashes}, \"recoveries\": {recoveries}, \
                 \"stalls\": {stalls}, \"retries\": {retries}, \
                 \"suspend_failures\": {suspend_failures}, \
                 \"snapshot_corruptions\": {snapshot_corruptions}, \
                 \"failed_jobs\": {failed}}}, \"lost_epochs\": {lost_epochs}, \
                 \"total_epochs\": {total_epochs}, \"work_lost_pct\": {work_lost_pct:.3}, \
                 \"ttt_mean_hours\": {}, \"target_misses\": {misses}}}",
                kind.label(),
                injected.0,
                injected.1,
                injected.2,
                if ttt_mean.is_nan() { "null".into() } else { format!("{ttt_mean:.4}") },
            ));
            table_rows.push(vec![
                kind.label().to_string(),
                rate_label.to_string(),
                if ttt_hours.is_empty() { "-".into() } else { format!("{:.2}", mean(&ttt_hours)) },
                if inflations.is_empty() {
                    "-".into()
                } else {
                    format!("{:.2}x", mean(&inflations))
                },
                format!("{work_lost_pct:.1}%"),
                crashes.to_string(),
                stalls.to_string(),
                failed.to_string(),
                misses.to_string(),
            ]);
        }
    }

    // Process-level chaos: kill and recover the scheduler itself at fixed
    // journal positions, under the high-intensity machine-fault plan, for
    // every policy. The recovered trace must be byte-identical to the
    // same run without the process crashes.
    let crash_positions: [u64; 3] = [5, 17, 41];
    let engine_crash_tasks: Vec<usize> = (0..policies.len()).collect();
    let engine_crash_cells: Vec<String> = par_map(&engine_crash_tasks, |&p| {
        let kind = policies[p];
        let noise_seed = 7u64.wrapping_add(1_000);
        let ew =
            ExperimentWorkload::from_workload_with_noise(&workload, s.n_configs, 7, noise_seed);
        let spec = ExperimentSpec::new(s.machines).with_tmax(horizon).with_seed(noise_seed);
        let mut plan =
            FaultPlan::generate(s.machines, &FaultConfig::with_intensity(31, horizon, 10.0));
        for &at_event in &crash_positions {
            plan.events.push(FaultEvent {
                at: SimTime::ZERO,
                machine: MachineId::new(0),
                kind: FaultKind::EngineCrash { at_event },
            });
        }
        let mut baseline_policy = kind.build(fidelity, noise_seed);
        let baseline = Simulation::with_faults(baseline_policy.as_mut(), &ew, spec, &plan).run();
        let recovered =
            run_sim_with_recovery(|| kind.build(fidelity, noise_seed), &ew, spec, &plan)
                .expect("recovery replays cleanly");
        assert!(
            baseline.signature() == recovered.signature(),
            "{}: EngineCrash recovery diverged from the uninterrupted run",
            kind.label()
        );
        format!(
            "{{\"policy\": \"{}\", \"crash_positions\": [5, 17, 41], \
             \"byte_identical\": true, \"total_epochs\": {}}}",
            kind.label(),
            recovered.total_epochs,
        )
    });

    write_csv(
        "chaos_resilience.csv",
        "policy,rate,repeat,ttt_hours,lost_epochs,total_epochs,crashes,stalls,failed_jobs",
        csv_rows,
    );
    let path = results_dir().join("BENCH_chaos.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        "{{\n  \"bench\": \"chaos_resilience\",\n  \"repeats\": {},\n  \
         \"cells\": [\n    {}\n  ],\n  \"engine_crash\": [\n    {}\n  ]\n}}\n",
        s.repeats,
        json_cells.join(",\n    "),
        engine_crash_cells.join(",\n    "),
    )
    .expect("json write");
    println!("wrote {}", path.display());
    print_table(
        "Chaos resilience: time-to-target and work lost under fault injection",
        &[
            "policy",
            "rate",
            "ttt (h)",
            "inflation",
            "work lost",
            "crashes",
            "stalls",
            "failed",
            "missed",
        ],
        &table_rows,
    );
    println!("\nAll runs terminated cleanly; rate-0 runs matched fault-free execution exactly.");
}
