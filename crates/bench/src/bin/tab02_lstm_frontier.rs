//! §9 "Ongoing Work": the LSTM group-lasso λ trade-off and multi-metric
//! exploration with a user-defined global termination criterion.
//!
//! Two parts:
//!
//! 1. a λ sweep over a fixed well-tuned configuration, printing the
//!    sparsity/perplexity frontier (the paper's "trade-off between
//!    sparsity and model perplexity");
//! 2. a full exploration with POP wrapped in a global criterion
//!    (perplexity ≤ 150 AND sparsity ≥ 35%), reporting the "significantly
//!    reduced training time" vs exploring without the criterion.

use hyperdrive_bench::{par_map, print_table, quick_mode, write_csv};
use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{FitPool, PredictorConfig};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_policies::GlobalCriterionPolicy;
use hyperdrive_sim::run_sim;
use hyperdrive_types::{ParamValue, SimTime};
use hyperdrive_workload::{LstmWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let workload = LstmWorkload::new();

    // Part 1: λ frontier on a healthy base configuration.
    let mut rng = StdRng::seed_from_u64(1);
    let mut base = workload.space().sample(&mut rng);
    base.set("learning_rate", ParamValue::Float(1.0));
    base.set("dropout", ParamValue::Float(0.5));
    base.set("hidden_size", ParamValue::Int(650));
    base.set("num_layers", ParamValue::Int(2));
    base.set("seq_len", ParamValue::Int(35));
    base.set("grad_clip", ParamValue::Float(5.0));

    let exponents = [-6.0f64, -5.0, -4.5, -4.0, -3.6, -3.2, -2.8, -2.4, -2.0];
    let frontier = par_map(&exponents, |&exp| {
        let mut c = base.clone();
        c.set("lambda", ParamValue::Float(10f64.powf(exp)));
        let (_, ppl, sparsity) = workload.outcome(&c);
        (exp, ppl, sparsity)
    });
    let mut frontier_rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &(exp, ppl, sparsity) in &frontier {
        frontier_rows.push(vec![
            format!("1e{exp:.1}"),
            format!("{ppl:.1}"),
            format!("{:.0}%", sparsity * 100.0),
        ]);
        csv_rows.push(format!("{},{ppl:.3},{sparsity:.4}", 10f64.powf(exp)));
    }
    write_csv("tab02_lstm_frontier.csv", "lambda,perplexity,sparsity", csv_rows);
    print_table(
        "Section 9: group-lasso lambda frontier (fixed base configuration)",
        &["lambda", "final perplexity", "sparsity"],
        &frontier_rows,
    );

    // Part 2: exploration with vs without the global criterion.
    let n_configs = if quick_mode() { 40 } else { 150 };
    let fidelity = if quick_mode() { PredictorConfig::test() } else { PredictorConfig::fast() };
    let experiment = ExperimentWorkload::from_workload(&workload, n_configs, 12)
        .with_target(LstmWorkload::normalize_perplexity(150.0));
    let spec =
        ExperimentSpec::new(8).with_tmax(SimTime::from_hours(48.0)).with_stop_on_target(false);

    let ppl_bound = LstmWorkload::normalize_perplexity(150.0);
    let mut with_criterion = GlobalCriterionPolicy::new(
        PopPolicy::new(
            PopConfig { predictor: fidelity, ..Default::default() },
            FitPool::new(0),
            None,
        ),
        move |view| {
            view.primary.last_value().is_some_and(|v| v >= ppl_bound)
                && view.secondary.and_then(|s| s.last_value()).is_some_and(|s| s >= 0.35)
        },
    );
    // The with/without-criterion runs are independent deterministic sims;
    // overlap them (the criterion policy stays owned here so
    // `satisfied_by` works below).
    let (stopped, exhaustive) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut without = PopPolicy::new(
                PopConfig { predictor: fidelity, ..Default::default() },
                FitPool::new(0),
                None,
            );
            run_sim(&mut without, &experiment, spec)
        });
        let stopped = run_sim(&mut with_criterion, &experiment, spec);
        (stopped, handle.join().expect("exhaustive sim finished"))
    });

    let mut rows = vec![
        vec![
            "with global criterion".into(),
            format!("{}", stopped.end_time),
            stopped.total_epochs.to_string(),
        ],
        vec![
            "without (run all)".into(),
            format!("{}", exhaustive.end_time),
            exhaustive.total_epochs.to_string(),
        ],
    ];
    if let Some((job, epoch, time)) = with_criterion.satisfied_by() {
        let profile = experiment.profile(job);
        rows.push(vec![
            "criterion satisfied by".into(),
            format!("{job} @ epoch {epoch} ({time})"),
            format!(
                "ppl {:.1}, sparsity {:.0}%",
                LstmWorkload::denormalize_perplexity(profile.value_at(epoch)),
                profile.secondary_at(epoch).unwrap_or(0.0) * 100.0
            ),
        ]);
    }
    print_table(
        &format!("Section 9: multi-metric exploration ({n_configs} configs, 8 machines)"),
        &["run", "experiment time", "epochs"],
        &rows,
    );
    let speedup = exhaustive.end_time.as_secs() / stopped.end_time.as_secs().max(1.0);
    println!(
        "\nglobal termination criterion cut exploration time by {speedup:.1}x (paper: \"significantly reduced training times\")"
    );
}
