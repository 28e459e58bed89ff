//! Figure 7 (and the headline §1/§6.2.2 claims): time to reach the 77%
//! validation-accuracy target on CIFAR-10, box plots over 10 repeats.
//!
//! Paper numbers: POP mean 2.8 h, Bandit 4.5 h (POP 1.6× faster),
//! EarlyTerm 6.1 h (POP 2.1× faster); POP's min–max spread is ~2× smaller,
//! and even POP's worst run beats the baselines' best. Against basic
//! run-to-completion search (Default), the paper's abstract claims up to
//! 6.7× speedup.

use hyperdrive_bench::{
    print_table, quick_mode, record_claims, run_comparison, summarize, write_csv, Claim,
    ComparisonSettings, PolicyKind,
};
use hyperdrive_workload::CifarWorkload;

fn main() {
    // Config seed 0 is the smallest whose first target-reaching
    // configuration lies beyond the initial 4-machine batch in every repeat
    // (position 17 or 21 of 100, by the repeat's training noise) — the
    // regime where scheduling matters; fig06 and tab01 share it.
    let mut settings = ComparisonSettings::cifar_paper(0);
    if quick_mode() {
        settings = settings.quick();
    }
    let workload = CifarWorkload::new();
    let policies = PolicyKind::headline();
    let runs = run_comparison(&workload, settings, &policies);
    let summaries = summarize(&runs, &policies);

    write_csv(
        "fig07_time_to_target_cifar.csv",
        "policy,repeat,hours",
        runs.iter().filter_map(|r| {
            r.result
                .time_to_target
                .map(|t| format!("{},{},{:.4}", r.policy.label(), r.repeat, t.as_hours()))
        }),
    );

    let mut rows = Vec::new();
    for s in &summaries {
        match &s.box_plot {
            Some(b) => rows.push(vec![
                s.policy.label().to_string(),
                format!("{:.2}", s.mean_hours().unwrap_or(f64::NAN)),
                format!("{:.2}", b.min),
                format!("{:.2}", b.q1),
                format!("{:.2}", b.median),
                format!("{:.2}", b.q3),
                format!("{:.2}", b.max),
                format!("{:.2}", b.range()),
                s.failures.to_string(),
            ]),
            None => rows.push(vec![
                s.policy.label().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                s.failures.to_string(),
            ]),
        }
    }
    print_table(
        "Figure 7: time to reach 77% accuracy (hours, CIFAR-10)",
        &["policy", "mean", "min", "q1", "median", "q3", "max", "range", "failed"],
        &rows,
    );

    // Mean time-to-target of each baseline over POP's; NaN (a regressed
    // claim) when either side never reached the target.
    let mean_of =
        |p: PolicyKind| summaries.iter().find(|s| s.policy == p).and_then(|s| s.mean_hours());
    let speedup = |baseline: PolicyKind| {
        mean_of(baseline).zip(mean_of(PolicyKind::Pop)).map_or(f64::NAN, |(b, pop)| b / pop)
    };
    let (bandit, et, default) =
        (speedup(PolicyKind::Bandit), speedup(PolicyKind::EarlyTerm), speedup(PolicyKind::Default));
    print_table(
        "Speedups (mean time ratios)",
        &["comparison", "measured", "paper"],
        &[
            vec!["POP vs Bandit".into(), format!("{bandit:.2}x"), "1.6x".into()],
            vec!["POP vs EarlyTerm".into(), format!("{et:.2}x"), "2.1x".into()],
            vec![
                "POP vs Default (random search)".into(),
                format!("{default:.2}x"),
                "up to 6.7x".into(),
            ],
        ],
    );
    record_claims(
        "fig07_time_to_target_cifar",
        &[
            // Over the repeats in which Bandit reaches the target at all
            // (EXPERIMENTS.md Known deviations 1).
            Claim::at_least("fig7.pop_vs_bandit", 1.6, bandit, 0.25),
            Claim::at_least("fig7.pop_vs_earlyterm", 2.1, et, 0.25),
            // The paper's figure is its best case ("up to"), ours a mean.
            Claim::at_least("fig7.pop_vs_default", 6.7, default, 0.35),
        ],
    );
}
