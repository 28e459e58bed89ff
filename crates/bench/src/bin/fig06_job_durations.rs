//! Figure 6: distribution of job execution durations under POP, Bandit,
//! and EarlyTerm on the supervised workload.
//!
//! Paper observations: POP spends considerably less time across all jobs;
//! Bandit and EarlyTerm spend ≥30 minutes on ~15% of jobs where POP does
//! so on only ~5%.

use hyperdrive_bench::{
    print_table, quick_mode, run_comparison, write_csv, ComparisonSettings, PolicyKind,
};
use hyperdrive_types::stats;
use hyperdrive_workload::CifarWorkload;

fn main() {
    // fig07's configuration set (see the note on its seed there).
    let mut settings = ComparisonSettings::cifar_paper(0);
    settings.repeats = if quick_mode() { 1 } else { 3 };
    if quick_mode() {
        settings = settings.quick();
    }
    let workload = CifarWorkload::new();
    let policies = PolicyKind::figure_set();
    let runs = run_comparison(&workload, settings, &policies);

    let mut table_rows = Vec::new();
    for policy in policies {
        let durations: Vec<f64> = runs
            .iter()
            .filter(|r| r.policy == policy)
            .flat_map(|r| r.result.job_durations_mins())
            .collect();
        let cdf = stats::ecdf(&durations);
        write_csv(
            &format!("fig06_job_durations_{}.csv", policy.label().to_lowercase()),
            "duration_min,cdf",
            cdf.iter().map(|(v, f)| format!("{v:.3},{f:.4}")),
        );
        let over30 =
            durations.iter().filter(|d| **d >= 30.0).count() as f64 / durations.len() as f64;
        table_rows.push(vec![
            policy.label().to_string(),
            durations.len().to_string(),
            format!("{:.1}", stats::median(&durations).unwrap_or(f64::NAN)),
            format!("{:.1}", stats::percentile(&durations, 0.9).unwrap_or(f64::NAN)),
            format!("{:.1}%", over30 * 100.0),
        ]);
    }

    print_table(
        "Figure 6: job execution duration distribution (CIFAR-10)",
        &["policy", "jobs", "median (min)", "p90 (min)", ">=30min jobs"],
        &table_rows,
    );
    println!("\npaper: POP spends >=30min on ~5% of jobs, Bandit/EarlyTerm on ~15%");
}
