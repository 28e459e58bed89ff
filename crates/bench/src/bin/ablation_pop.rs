//! Ablation study of POP's design choices (DESIGN.md §4):
//!
//! * dynamic `p*` threshold vs static thresholds (§2.2c);
//! * the §2.1 kill-threshold domain knowledge on/off;
//! * the p < 0.05 confidence prune on/off;
//! * curve-model fidelity (§5.2's reduced MCMC samples);
//! * `k` dedicated slots per promising configuration.
//!
//! On a lucky configuration order every reasonable policy is
//! winner-training-bound, so (like Fig. 12c) each variant runs over many
//! random configuration orders on a small cluster: classification quality
//! shows up in the median and the unlucky tail.
//!
//! The variants replay the same traces and agree on most decisions, so most
//! of their fits are the same fits: the bin builds one [`SharedFitCache`]
//! and hands it to every policy (a hit is bitwise the fit it replaces, so
//! the tables do not depend on it).

use std::sync::Arc;

use hyperdrive_bench::{par_map, print_table, quick_mode, write_csv, HARNESS_FIT_THREADS};
use hyperdrive_core::{KillRule, PopConfig, PopPolicy};
use hyperdrive_curve::{FitPool, PredictorConfig, SharedFitCache};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::{stats, SimTime};
use hyperdrive_workload::{CifarWorkload, TraceSet, Workload};

/// Runs every variant over every configuration order (`experiments[order]`)
/// on 5 machines and returns `(time to target in hours, epochs executed)`
/// per run, variant-major. The grid is parallel; results return in task
/// order.
fn sweep(
    variants: &[(&str, PopConfig)],
    experiments: &[ExperimentWorkload],
    cache: Option<&Arc<SharedFitCache>>,
) -> Vec<(Option<f64>, f64)> {
    let tasks: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|v| (0..experiments.len()).map(move |order| (v, order)))
        .collect();
    par_map(&tasks, |&(v, order)| {
        let seed = order as u64;
        let spec = ExperimentSpec::new(5).with_tmax(SimTime::from_hours(48.0)).with_seed(seed);
        let config = PopConfig { seed, ..variants[v].1 };
        let mut policy = PopPolicy::new(config, FitPool::new(HARNESS_FIT_THREADS), cache.cloned());
        let result = run_sim(&mut policy, &experiments[order], spec);
        (result.time_to_target.map(|t| t.as_hours()), result.total_epochs as f64)
    })
}

/// One experiment per configuration order: `traces` permuted by the order's
/// index.
fn permuted_experiments(
    workload: &CifarWorkload,
    traces: &TraceSet,
    n_orders: usize,
) -> Vec<ExperimentWorkload> {
    (0..n_orders as u64)
        .map(|order| {
            ExperimentWorkload::from_traces(
                &traces.permuted(order),
                workload.domain_knowledge(),
                workload.eval_boundary(),
                workload.default_target(),
                workload.suspend_model(),
            )
        })
        .collect()
}

fn main() {
    let (n_configs, n_orders, fidelity) = if quick_mode() {
        (30, 4, PredictorConfig::test())
    } else {
        (100, 12, PredictorConfig::fast())
    };
    let workload = CifarWorkload::new();
    let traces = TraceSet::generate(&workload, n_configs, 7);

    let variants: Vec<(&str, PopConfig)> = vec![
        ("POP (full)", PopConfig { predictor: fidelity, ..Default::default() }),
        (
            "static p*=0.2",
            PopConfig { predictor: fidelity, static_threshold: Some(0.2), ..Default::default() },
        ),
        (
            "static p*=0.5",
            PopConfig { predictor: fidelity, static_threshold: Some(0.5), ..Default::default() },
        ),
        (
            "static p*=0.9",
            PopConfig { predictor: fidelity, static_threshold: Some(0.9), ..Default::default() },
        ),
        (
            "no kill threshold",
            PopConfig { predictor: fidelity, kill_rule: KillRule::Disabled, ..Default::default() },
        ),
        (
            "no confidence prune",
            PopConfig { predictor: fidelity, lower_bound_confidence: 0.0, ..Default::default() },
        ),
        ("k=2 slots", PopConfig { predictor: fidelity, k: 2, ..Default::default() }),
        (
            "test-fidelity MCMC",
            PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
        ),
    ];

    // The permuted experiments are shared read-only across every variant;
    // build each once instead of once per variant.
    let experiments = permuted_experiments(&workload, &traces, n_orders);
    let cache = SharedFitCache::in_memory();
    let outcomes = sweep(&variants, &experiments, Some(&cache));

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for ((name, _), chunk) in variants.iter().zip(outcomes.chunks(n_orders)) {
        let mut times = Vec::new();
        let mut epochs = Vec::new();
        let mut failures = 0usize;
        for (time, total_epochs) in chunk {
            match time {
                Some(t) => times.push(*t),
                None => failures += 1,
            }
            epochs.push(*total_epochs);
        }
        let median = stats::median(&times);
        let worst = times.iter().cloned().fold(f64::NAN, f64::max);
        let mean_e = stats::mean(&epochs).unwrap_or(f64::NAN);
        rows.push(vec![
            name.to_string(),
            median.map_or("-".into(), |t| format!("{t:.2}")),
            if worst.is_nan() { "-".into() } else { format!("{worst:.2}") },
            format!("{mean_e:.0}"),
            failures.to_string(),
        ]);
        csv_rows.push(format!(
            "{name},{},{},{mean_e:.1},{failures}",
            median.map_or("NaN".into(), |t| format!("{t:.4}")),
            if worst.is_nan() { "NaN".into() } else { format!("{worst:.4}") },
        ));
    }
    write_csv(
        "ablation_pop.csv",
        "variant,median_hours,worst_hours,mean_epochs,failures",
        csv_rows,
    );

    print_table(
        &format!(
            "POP ablations over {n_orders} configuration orders ({n_configs} configs, 5 machines)"
        ),
        &["variant", "median ttt (h)", "worst ttt (h)", "mean epochs", "failed"],
        &rows,
    );
    println!("\nnote: in stop-on-target runs the opportunistic round-robin rarely revisits a");
    println!("job before the winner emerges, so the kill/prune components barely fire; the");
    println!("over-strict static threshold (p*=0.9) is the variant that costs time here.");

    // Part 2: waste accounting in a budget-bound exhaustive run, where the
    // early-termination components do fire. POP's round-robin only
    // revisits a job once the queue wraps around, so this part uses fewer
    // configurations and a budget spanning many rounds.
    let waste_traces = TraceSet::generate(&workload, if quick_mode() { 20 } else { 40 }, 7);
    let experiment = ExperimentWorkload::from_traces(
        &waste_traces,
        workload.domain_knowledge(),
        workload.eval_boundary(),
        workload.default_target(),
        workload.suspend_model(),
    );
    // Ground truth for auditing where epochs went (policies never see it).
    let non_learner: Vec<bool> =
        experiment.jobs.iter().map(|j| j.profile.best_value() <= 0.15).collect();
    let spec = ExperimentSpec::new(5)
        .with_tmax(SimTime::from_hours(12.0))
        .with_stop_on_target(false)
        .with_seed(1);
    let waste_variants = [
        ("POP (full)", PopConfig { predictor: fidelity, ..Default::default() }),
        (
            "no kill threshold",
            PopConfig { predictor: fidelity, kill_rule: KillRule::Disabled, ..Default::default() },
        ),
        (
            "no confidence prune",
            PopConfig { predictor: fidelity, lower_bound_confidence: 0.0, ..Default::default() },
        ),
        (
            "neither",
            PopConfig {
                predictor: fidelity,
                kill_rule: KillRule::Disabled,
                lower_bound_confidence: 0.0,
                ..Default::default()
            },
        ),
    ];
    let waste_rows = par_map(&waste_variants, |(name, config)| {
        let config = PopConfig { seed: 1, ..*config };
        let pool = FitPool::new(HARNESS_FIT_THREADS);
        let mut policy = PopPolicy::new(config, pool, Some(cache.clone()));
        let result = run_sim(&mut policy, &experiment, spec);
        let wasted: u64 = result
            .outcomes
            .iter()
            .filter(|o| non_learner[o.job.raw() as usize])
            .map(|o| u64::from(o.epochs))
            .sum();
        vec![
            name.to_string(),
            wasted.to_string(),
            result.terminated_early().to_string(),
            result.total_epochs.to_string(),
        ]
    });
    print_table(
        "Early-termination ablation: epochs wasted on non-learners (12h budget, run-all)",
        &["variant", "non-learner epochs", "terminated", "total epochs"],
        &waste_rows,
    );
    println!("\nexpected: removing the kill threshold and the p < 0.05 prune inflates the");
    println!("epochs burned on configurations that never escape random accuracy");
    // Only the lookups: which of two tasks needing one fit at once hits
    // the cache is a thread race (ROADMAP 9's single-flight work).
    println!("\nshared fits: {} lookups", cache.snapshot().lookups);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared cache is pure speed: the sweep's outcomes are the same
    /// with it and without it, and the variants do share fits.
    #[test]
    fn sweep_outcomes_do_not_depend_on_the_shared_cache() {
        let fidelity = PredictorConfig::test();
        let workload = CifarWorkload::new();
        let traces = TraceSet::generate(&workload, 12, 7);
        let experiments = permuted_experiments(&workload, &traces, 2);
        let variants = [
            ("POP (full)", PopConfig { predictor: fidelity, ..Default::default() }),
            (
                "static p*=0.5",
                PopConfig {
                    predictor: fidelity,
                    static_threshold: Some(0.5),
                    ..Default::default()
                },
            ),
            (
                "no confidence prune",
                PopConfig {
                    predictor: fidelity,
                    lower_bound_confidence: 0.0,
                    ..Default::default()
                },
            ),
        ];
        let alone = sweep(&variants, &experiments, None);
        let cache = SharedFitCache::in_memory();
        let shared = sweep(&variants, &experiments, Some(&cache));
        assert_eq!(alone, shared);
        assert!(alone.iter().any(|(time, _)| time.is_some()), "no run reached the target");
        let stats = cache.snapshot();
        assert!(stats.shared_hits > 0, "the variants shared no fit: {stats:?}");
    }
}
