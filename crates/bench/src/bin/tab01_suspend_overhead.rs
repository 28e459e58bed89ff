//! §6.2.3 scheduling-overhead study: suspend latency and model-state size
//! observed by the scheduler while POP explores the supervised workload.
//!
//! Paper numbers: suspend latency mean 157.69 ms (σ = 72 ms, p95 = 219 ms,
//! max 1.12 s); model-state size mean 357.67 KB (σ = 122.46 KB,
//! p95 = 685.26 KB, max 686.06 KB); overhead negligible end-to-end.

use hyperdrive_bench::{print_table, quick_mode, run_comparison, ComparisonSettings, PolicyKind};
use hyperdrive_types::stats;
use hyperdrive_workload::CifarWorkload;

fn main() {
    // fig07's configuration set (see the note on its seed there).
    let mut settings = ComparisonSettings::cifar_paper(0);
    settings.repeats = if quick_mode() { 1 } else { 5 };
    if quick_mode() {
        settings = settings.quick();
    }
    let workload = CifarWorkload::new();
    let runs = run_comparison(&workload, settings, &[PolicyKind::Pop]);

    let latencies_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.result.suspend_events.iter())
        .map(|e| e.cost.latency.as_secs() * 1000.0)
        .collect();
    let sizes_kb: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.result.suspend_events.iter())
        .map(|e| e.cost.snapshot_bytes as f64 / 1024.0)
        .collect();
    assert!(!latencies_ms.is_empty(), "POP suspends opportunistic jobs");

    let describe = |v: &[f64]| -> (f64, f64, f64, f64) {
        (
            stats::mean(v).unwrap(),
            stats::std_dev(v).unwrap(),
            stats::percentile(v, 0.95).unwrap(),
            stats::percentile(v, 1.0).unwrap(),
        )
    };
    let (lm, ls, l95, lmax) = describe(&latencies_ms);
    let (sm, ss, s95, smax) = describe(&sizes_kb);

    print_table(
        &format!(
            "Section 6.2.3: suspend overhead under POP ({} suspend events)",
            latencies_ms.len()
        ),
        &["metric", "measured", "paper"],
        &[
            vec!["latency mean".into(), format!("{lm:.2} ms"), "157.69 ms".into()],
            vec!["latency std".into(), format!("{ls:.2} ms"), "72 ms".into()],
            vec!["latency p95".into(), format!("{l95:.2} ms"), "219 ms".into()],
            vec!["latency max".into(), format!("{lmax:.2} ms"), "1120 ms".into()],
            vec!["state size mean".into(), format!("{sm:.2} KB"), "357.67 KB".into()],
            vec!["state size std".into(), format!("{ss:.2} KB"), "122.46 KB".into()],
            vec!["state size p95".into(), format!("{s95:.2} KB"), "685.26 KB".into()],
            vec!["state size max".into(), format!("{smax:.2} KB"), "686.06 KB".into()],
        ],
    );

    // Overhead relative to training time — the paper's "negligible" claim.
    let total_suspend_hours: f64 = latencies_ms.iter().sum::<f64>() / 1000.0 / 3600.0;
    let total_busy_hours: f64 =
        runs.iter().flat_map(|r| r.result.outcomes.iter()).map(|o| o.busy_time.as_hours()).sum();
    println!(
        "\ntotal suspend latency {total_suspend_hours:.4} h over {total_busy_hours:.1} h of training ({:.4}%) — paper: negligible",
        100.0 * total_suspend_hours / total_busy_hours
    );
}
