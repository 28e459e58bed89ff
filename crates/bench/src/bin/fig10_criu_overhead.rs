//! Figure 10: suspend-latency and snapshot-size distributions for the
//! LunarLander (CRIU whole-process snapshot) workload.
//!
//! Paper observations: snapshot size does not exceed 43.75 MB; latency
//! does not exceed 22.36 s — "considerably small compared with job
//! training time".

use hyperdrive_bench::{
    print_table, quick_mode, run_comparison, write_csv, ComparisonSettings, PolicyKind,
};
use hyperdrive_types::stats;
use hyperdrive_workload::LunarWorkload;

fn main() {
    let mut settings = ComparisonSettings::lunar_paper(5);
    settings.repeats = if quick_mode() { 1 } else { 3 };
    if quick_mode() {
        settings = settings.quick();
    }
    let workload = LunarWorkload::new();
    let runs = run_comparison(&workload, settings, &[PolicyKind::Pop]);

    let latencies_s: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.result.suspend_events.iter())
        .map(|e| e.cost.latency.as_secs())
        .collect();
    let sizes_mb: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.result.suspend_events.iter())
        .map(|e| e.cost.snapshot_bytes as f64 / (1024.0 * 1024.0))
        .collect();
    assert!(!latencies_s.is_empty(), "POP suspends opportunistic RL jobs");
    // What the AppStat DB had to hold at once: the largest sum, over any
    // run, of the snapshots its jobs could still resume from.
    let peak_bytes = runs.iter().map(|r| r.result.peak_snapshot_bytes).max().unwrap_or(0);
    let peak_storage_mb = peak_bytes as f64 / (1024.0 * 1024.0);

    write_csv(
        "fig10_suspend_latency_cdf.csv",
        "latency_s,cdf",
        stats::ecdf(&latencies_s).iter().map(|(v, f)| format!("{v:.3},{f:.4}")),
    );
    write_csv(
        "fig10_snapshot_size_cdf.csv",
        "size_mb,cdf",
        stats::ecdf(&sizes_mb).iter().map(|(v, f)| format!("{v:.3},{f:.4}")),
    );

    print_table(
        &format!("Figure 10: CRIU suspend overhead ({} events)", latencies_s.len()),
        &["metric", "measured", "paper"],
        &[
            vec![
                "latency max".into(),
                format!("{:.2} s", stats::percentile(&latencies_s, 1.0).unwrap()),
                "22.36 s".into(),
            ],
            vec![
                "latency median".into(),
                format!("{:.2} s", stats::median(&latencies_s).unwrap()),
                "-".into(),
            ],
            vec![
                "snapshot size max".into(),
                format!("{:.2} MB", stats::percentile(&sizes_mb, 1.0).unwrap()),
                "43.75 MB".into(),
            ],
            vec![
                "snapshot size median".into(),
                format!("{:.2} MB", stats::median(&sizes_mb).unwrap()),
                "-".into(),
            ],
            vec![
                "snapshot storage peak (one run)".into(),
                format!("{peak_storage_mb:.2} MB"),
                "-".into(),
            ],
        ],
    );
}
