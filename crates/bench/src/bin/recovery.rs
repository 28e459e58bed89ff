//! Crash-consistency benchmark: write-ahead-journal overhead on the
//! fig07-style POP run, recovery latency as a function of journal length,
//! and the kill-at-every-event sweep at 1 and 4 fit threads. Emits
//! `BENCH_recovery.json` into the results directory and fails loudly if
//! journal overhead reaches 5% or any crash position does not recover
//! byte-identically.

use std::io::Write as _;
use std::time::Instant;

use hyperdrive_bench::{print_table, quick_mode, results_dir};
use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{FitPool, PredictorConfig};
use hyperdrive_framework::{
    run_meta, DefaultPolicy, ExperimentSpec, ExperimentWorkload, FaultConfig, FaultPlan, Journal,
    SchedulingPolicy,
};
use hyperdrive_sim::{kill_at_every_event, run_sim, Simulation};
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

struct Scale {
    n_configs: usize,
    machines: usize,
    repeats: usize,
    kill_configs: usize,
    kill_epochs: u32,
}

fn scale() -> Scale {
    if quick_mode() {
        Scale { n_configs: 12, machines: 3, repeats: 3, kill_configs: 4, kill_epochs: 3 }
    } else {
        Scale { n_configs: 30, machines: 4, repeats: 5, kill_configs: 5, kill_epochs: 4 }
    }
}

/// POP evaluating every `boundary` epochs (`None`: the workload's `b`).
fn pop_policy(boundary: Option<u32>, fit_threads: usize, seed: u64) -> Box<dyn SchedulingPolicy> {
    Box::new(PopPolicy::new(
        PopConfig { predictor: PredictorConfig::test(), boundary, seed, ..Default::default() },
        FitPool::new(fit_threads),
        None,
    ))
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

type PolicyFactory = Box<dyn FnMut() -> Box<dyn SchedulingPolicy>>;

fn main() {
    let s = scale();
    let workload = CifarWorkload::new();
    let seed = 7u64;
    let ew = ExperimentWorkload::from_workload(&workload, s.n_configs, seed);
    let spec = ExperimentSpec::new(s.machines).with_tmax(SimTime::from_hours(48.0)).with_seed(seed);
    let plan = FaultPlan::none();

    // --- Journal overhead on the fig07-style run ------------------------
    // Interleaved repeats, best-of timing on each side (journaling cost is
    // deterministic; best-of discards scheduler noise), byte-identical
    // trace check on every pair.
    let wal_path =
        std::env::temp_dir().join(format!("hyperdrive-bench-recovery-{}.wal", std::process::id()));
    let mut plain_secs = Vec::with_capacity(s.repeats);
    let mut journaled_secs = Vec::with_capacity(s.repeats);
    let mut inputs = 0u64;
    let mut journal_bytes = 0u64;
    for _ in 0..s.repeats {
        let mut policy = pop_policy(None, 1, seed);
        let meta = run_meta(policy.name(), &ew, &spec, &plan);
        let t = Instant::now();
        let plain =
            Simulation::with_journal(policy.as_mut(), &ew, spec, &plan, Journal::disabled()).run();
        plain_secs.push(t.elapsed().as_secs_f64());

        let _ = std::fs::remove_file(&wal_path);
        let journal = Journal::create(&wal_path, meta).expect("temp journal creatable");
        let mut policy = pop_policy(None, 1, seed);
        let t = Instant::now();
        let mut journaled = Simulation::with_journal(policy.as_mut(), &ew, spec, &plan, journal);
        while journaled.step_input().is_some() {}
        inputs = journaled.inputs_delivered();
        let full = journaled.finish();
        journaled_secs.push(t.elapsed().as_secs_f64());

        assert_eq!(
            plain.signature(),
            full.signature(),
            "journaling must be pure output: the same run"
        );
        journal_bytes = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    }
    let plain_best = min_of(&plain_secs);
    let journaled_best = min_of(&journaled_secs);
    let overhead_pct = 100.0 * (journaled_best - plain_best).max(0.0) / plain_best.max(1e-9);
    assert!(
        overhead_pct < 5.0,
        "journal overhead {overhead_pct:.2}% breaches the 5% budget \
         (plain {plain_best:.4}s, journaled {journaled_best:.4}s)"
    );

    // --- Recovery latency vs journal length -----------------------------
    // Crash the journaled run at a ladder of positions and time the path a
    // user runs: reopen (decode + verify frames), then `Simulation::resume`
    // regenerating the prefix and verifying it against the journal.
    let mut latency_rows: Vec<(u64, f64)> = Vec::new();
    for frac in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let k = ((inputs as f64 * frac) as u64).max(1);
        let mut policy = pop_policy(None, 1, seed);
        let meta = run_meta(policy.name(), &ew, &spec, &plan);
        let journal = Journal::in_memory(meta);
        let mut victim =
            Simulation::with_journal(policy.as_mut(), &ew, spec, &plan, journal.clone());
        victim.run_to_input(k);
        assert_eq!(victim.inputs_delivered(), k, "crash at {k} fired");
        drop(victim);
        drop(policy);
        let mut fresh = pop_policy(None, 1, seed);
        let t = Instant::now();
        let recovered = journal.reopen().expect("journal reopens");
        let resumed = Simulation::resume(fresh.as_mut(), &ew, spec, &plan, recovered)
            .expect("replay verifies");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(resumed.inputs_delivered(), k, "recovery replayed the journaled prefix");
        latency_rows.push((k, secs));
    }

    // --- Kill-at-every-event sweep --------------------------------------
    // Small sims, every crash position, byte-identity required. POP runs
    // at 1 and 4 fit threads (pool width must not leak into the trace),
    // evaluating every 2 epochs: at CIFAR's own b = 10 these short jobs
    // would never reach a boundary, so no crash could land beside a fit.
    // Default runs under an active machine-fault plan.
    let kill_ew = {
        let w = CifarWorkload::new().with_max_epochs(s.kill_epochs);
        ExperimentWorkload::from_workload(&w, s.kill_configs, 13)
    };
    let kill_spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(13);
    let fault_plan =
        FaultPlan::generate(2, &FaultConfig::with_intensity(11, SimTime::from_hours(8.0), 10.0));
    let mut kill_rows: Vec<(String, usize, u64, u64, usize)> = Vec::new();
    let sweeps: Vec<(String, usize, FaultPlan, PolicyFactory)> = vec![
        (
            "Default+faults".into(),
            1,
            fault_plan,
            Box::new(|| Box::new(DefaultPolicy::new()) as Box<dyn SchedulingPolicy>),
        ),
        ("POP".into(), 1, FaultPlan::none(), Box::new(|| pop_policy(Some(2), 1, 13))),
        ("POP".into(), 4, FaultPlan::none(), Box::new(|| pop_policy(Some(2), 4, 13))),
    ];
    let mut uninterrupted = pop_policy(Some(2), 1, 13);
    let fitted =
        run_sim(uninterrupted.as_mut(), &kill_ew, kill_spec).fit_cache.map_or(0, |f| f.fits);
    assert!(fitted > 0, "the POP sweeps' uninterrupted run never fit a curve");
    for (label, fit_threads, sweep_plan, make) in sweeps {
        let report = kill_at_every_event(make, &kill_ew, kill_spec, &sweep_plan)
            .expect("kill-anywhere harness runs");
        assert!(
            report.failures.is_empty(),
            "{label} (fit_threads {fit_threads}): {:?}",
            report.failures
        );
        kill_rows.push((label, fit_threads, report.positions, report.passes, 0));
    }

    // --- Report ----------------------------------------------------------
    print_table(
        "journal overhead (fig07-style POP run)",
        &["configs", "machines", "inputs", "bytes", "plain_s", "journaled_s", "overhead"],
        &[vec![
            s.n_configs.to_string(),
            s.machines.to_string(),
            inputs.to_string(),
            journal_bytes.to_string(),
            format!("{plain_best:.4}"),
            format!("{journaled_best:.4}"),
            format!("{overhead_pct:.2}%"),
        ]],
    );
    print_table(
        "recovery latency vs journal length",
        &["replayed inputs", "recover_s"],
        &latency_rows
            .iter()
            .map(|&(k, secs)| vec![k.to_string(), format!("{secs:.4}")])
            .collect::<Vec<_>>(),
    );
    print_table(
        "kill-at-every-event",
        &["policy", "fit_threads", "positions", "passes", "failures"],
        &kill_rows
            .iter()
            .map(|(label, ft, pos, pass, fail)| {
                vec![
                    label.clone(),
                    ft.to_string(),
                    pos.to_string(),
                    pass.to_string(),
                    fail.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let latency_json = latency_rows
        .iter()
        .map(|&(k, secs)| format!("{{\"inputs\": {k}, \"secs\": {secs:.6}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let kill_json = kill_rows
        .iter()
        .map(|(label, ft, pos, pass, fail)| {
            format!(
                "{{\"policy\": \"{label}\", \"fit_threads\": {ft}, \"positions\": {pos}, \
                 \"passes\": {pass}, \"failures\": {fail}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let path = results_dir().join("BENCH_recovery.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        "{{\n  \"bench\": \"recovery\",\n  \"overhead\": {{\"configs\": {}, \
         \"machines\": {}, \"repeats\": {}, \"inputs\": {inputs}, \
         \"journal_bytes\": {journal_bytes}, \"plain_secs\": {plain_best:.6}, \
         \"journaled_secs\": {journaled_best:.6}, \"overhead_pct\": {overhead_pct:.3}, \
         \"budget_pct\": 5.0}},\n  \"recovery_latency\": [{latency_json}],\n  \
         \"kill_anywhere\": [{kill_json}]\n}}\n",
        s.n_configs, s.machines, s.repeats,
    )
    .expect("json write");
    let _ = std::fs::remove_file(&wal_path);
    println!("wrote {}", path.display());
    println!(
        "\nJournal overhead {overhead_pct:.2}% (<5%); every crash position recovered \
         byte-identically."
    );
}
