//! Figure 9: time to reach the LunarLander solved condition (average
//! reward 200 over 100 consecutive trials), 5 repeats on 15 machines.
//!
//! Paper numbers: POP's median time-to-target is 2.07× faster than Bandit
//! and 1.26× faster than EarlyTerm; POP's min–max variation is 9.7×
//! smaller than Bandit's and 3.5× smaller than EarlyTerm's.

use hyperdrive_bench::{
    print_table, quick_mode, record_claims, run_comparison, summarize, write_csv, Claim,
    ComparisonSettings, PolicyKind, PolicySummary,
};
use hyperdrive_workload::LunarWorkload;

fn main() {
    // Config seed 0 is the smallest whose first solver lies beyond the
    // initial 15-machine batch — the regime where scheduling matters: it
    // draws solvers at positions 15, 44, 83 and 95 of 100 in every repeat.
    let mut settings = ComparisonSettings::lunar_paper(0);
    if quick_mode() {
        settings = settings.quick();
    }
    let workload = LunarWorkload::new();
    let policies = PolicyKind::figure_set();
    let runs = run_comparison(&workload, settings, &policies);
    let summaries = summarize(&runs, &policies);

    write_csv(
        "fig09_time_to_target_lunar.csv",
        "policy,repeat,minutes",
        runs.iter().filter_map(|r| {
            r.result
                .time_to_target
                .map(|t| format!("{},{},{:.2}", r.policy.label(), r.repeat, t.as_mins()))
        }),
    );

    let mut rows = Vec::new();
    for s in &summaries {
        match &s.box_plot {
            Some(b) => rows.push(vec![
                s.policy.label().to_string(),
                format!("{:.0}", b.min * 60.0),
                format!("{:.0}", b.median * 60.0),
                format!("{:.0}", b.max * 60.0),
                format!("{:.0}", b.range() * 60.0),
                s.failures.to_string(),
            ]),
            None => rows.push(vec![
                s.policy.label().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                s.failures.to_string(),
            ]),
        }
    }
    print_table(
        "Figure 9: time to reach solved reward (minutes, LunarLander)",
        &["policy", "min", "median", "max", "range", "failed"],
        &rows,
    );

    let find = |p: PolicyKind| summaries.iter().find(|s| s.policy == p);
    // A baseline's median time-to-target, or its min–max spread, over
    // POP's; NaN (a regressed claim) when either side is missing.
    let over_pop = |baseline: PolicyKind, of: &dyn Fn(&PolicySummary) -> Option<f64>| {
        let value = |p: PolicyKind| find(p).and_then(of);
        value(baseline).zip(value(PolicyKind::Pop)).map_or(f64::NAN, |(b, pop)| b / pop)
    };
    let median = |s: &PolicySummary| s.median_hours();
    let spread = |s: &PolicySummary| s.box_plot.as_ref().map(|b| b.range());
    let (bandit, et) =
        (over_pop(PolicyKind::Bandit, &median), over_pop(PolicyKind::EarlyTerm, &median));
    print_table(
        "Ratios",
        &["comparison", "measured", "paper"],
        &[
            vec!["POP median speedup vs Bandit".into(), format!("{bandit:.2}x"), "2.07x".into()],
            vec!["POP median speedup vs EarlyTerm".into(), format!("{et:.2}x"), "1.26x".into()],
            vec![
                "Bandit/POP min-max variation".into(),
                format!("{:.1}x", over_pop(PolicyKind::Bandit, &spread)),
                "9.7x".into(),
            ],
            vec![
                "EarlyTerm/POP min-max variation".into(),
                format!("{:.1}x", over_pop(PolicyKind::EarlyTerm, &spread)),
                "3.5x".into(),
            ],
        ],
    );
    // Fig. 9 has no Default arm; the paper states these two medians.
    record_claims(
        "fig09_time_to_target_lunar",
        &[
            Claim::at_least("fig9.pop_vs_bandit", 2.07, bandit, 0.25),
            Claim::at_least("fig9.pop_vs_earlyterm", 1.26, et, 0.25),
        ],
    );
}
