//! Benchmarks speculative ahead-of-boundary fit prefetching
//! (`fit_prefetch`): the same POP schedule is simulated with prefetch off
//! and forced on, at 1 and 4 fit threads. Reports the boundary-stall
//! distribution before/after (wall-clock callers spent blocked in
//! `fit_batch`, i.e. submit→posterior-ready latency), speculation hit and
//! waste rates, pool idle fraction, and a byte-compare of all four event
//! logs — prefetch must change *when* fits compute, never *what* they
//! compute. Emits `BENCH_fit_prefetch.json` into the results directory;
//! CI greps it for `"determinism_mismatch": false`.
//!
//! The ≥3× stall-reduction target only has meaning when speculative
//! workers can actually overlap the event loop, so it is asserted only in
//! full mode on hosts with at least 4 cores; elsewhere a WARN line is
//! printed and the determinism checks still gate the run.

use std::io::Write as _;
use std::time::Instant;

use hyperdrive_bench::{print_table, quick_mode, results_dir};
use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{FitPoolStats, PredictorConfig, SpecStats};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

/// One simulated cell of the off/on × threads grid.
struct Case {
    label: String,
    event_log: Vec<u8>,
    posterior_digest: u64,
    spec: SpecStats,
    pool: FitPoolStats,
    wall_secs: f64,
}

/// Runs the fig07-style CIFAR schedule once. Each case gets a private fit
/// pool and an explicit `None` shared cache, so its stall numbers measure
/// real fits rather than cross-case cache hits.
fn run_case(prefetch: bool, fit_threads: usize, n_configs: usize, epochs: u32) -> Case {
    let w = CifarWorkload::new().with_max_epochs(epochs);
    let ew = ExperimentWorkload::from_workload(&w, n_configs, 5);
    let spec =
        ExperimentSpec::new(4).with_stop_on_target(false).with_tmax(SimTime::from_hours(48.0));
    let mut pop = PopPolicy::with_config_and_cache(
        PopConfig {
            predictor: PredictorConfig::test(),
            fit_threads,
            fit_prefetch: Some(prefetch),
            seed: 5,
            ..Default::default()
        },
        None,
    );
    let t = Instant::now();
    let r = run_sim(&mut pop, &ew, spec);
    let wall_secs = t.elapsed().as_secs_f64();
    let pool = pop.pool_stats();
    let mut event_log = Vec::new();
    r.events.write_csv(&mut event_log).expect("event log serializes");
    Case {
        label: format!("{}@{fit_threads}", if prefetch { "on" } else { "off" }),
        event_log,
        posterior_digest: pop.posterior_digest(),
        spec: pop.spec_stats(),
        pool,
        wall_secs,
    }
}

fn main() {
    let quick = quick_mode();
    let (n_configs, epochs) = if quick { (8, 20) } else { (30, 40) };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let suite_start = Instant::now();
    let cases: Vec<Case> = [(false, 1), (true, 1), (false, 4), (true, 4)]
        .into_iter()
        .map(|(prefetch, threads)| run_case(prefetch, threads, n_configs, epochs))
        .collect();
    let suite_secs = suite_start.elapsed().as_secs_f64();

    // ---- Determinism: all four event logs and posterior digests must be
    // byte-identical — prefetch and pool width change only the schedule of
    // fit computation.
    let mut determinism_mismatch = false;
    for case in &cases[1..] {
        if case.event_log != cases[0].event_log {
            eprintln!(
                "DETERMINISM MISMATCH: event log {} diverged from {}",
                case.label, cases[0].label
            );
            determinism_mismatch = true;
        }
        if case.posterior_digest != cases[0].posterior_digest {
            eprintln!(
                "DETERMINISM MISMATCH: posterior digest {} diverged from {}",
                case.label, cases[0].label
            );
            determinism_mismatch = true;
        }
    }
    // Non-vacuity: the prefetch-on cells must actually speculate and adopt.
    for case in &cases {
        let on = case.label.starts_with("on");
        assert_eq!(
            on,
            case.spec.speculated > 0,
            "{}: speculation engaged = {:?}",
            case.label,
            case.spec
        );
        if on {
            assert!(case.spec.adopted > 0, "{}: nothing adopted ({:?})", case.label, case.spec);
        }
    }

    // ---- Boundary-stall reduction, per thread width: total wall-clock
    // callers spent blocked in `fit_batch` with prefetch off vs on.
    let stall_of =
        |label: &str| -> &Case { cases.iter().find(|c| c.label == label).expect("case ran") };
    let reduction = |threads: usize| -> f64 {
        let off = stall_of(&format!("off@{threads}")).pool.stall_secs;
        let on = stall_of(&format!("on@{threads}")).pool.stall_secs;
        off / on.max(1e-9)
    };
    let reduction_1 = reduction(1);
    let reduction_4 = reduction(4);
    let gated = !quick && host_cores >= 4;
    if gated {
        assert!(
            reduction_4 >= 3.0,
            "boundary stall reduced only {reduction_4:.2}x at 4 fit threads (target >= 3x)"
        );
    } else {
        println!(
            "WARN: stall-reduction target not asserted (quick={quick}, host_cores={host_cores}); \
             measured {reduction_1:.2}x @1, {reduction_4:.2}x @4"
        );
    }

    print_table(
        "speculative fit prefetch (CIFAR schedule)",
        &[
            "case",
            "stall_s",
            "stalls",
            "p99_ms",
            "idle",
            "speculated",
            "adopted",
            "wasted",
            "hit_rate",
            "wall_s",
        ],
        &cases
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    format!("{:.3}", c.pool.stall_secs),
                    c.pool.stall_events.to_string(),
                    format!("{:.2}", c.pool.stall_p99_ms),
                    format!("{:.3}", c.pool.idle_fraction()),
                    c.spec.speculated.to_string(),
                    c.spec.adopted.to_string(),
                    c.spec.wasted().to_string(),
                    format!("{:.3}", c.spec.hit_rate()),
                    format!("{:.2}", c.wall_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("boundary-stall reduction: {reduction_1:.2}x @1 thread, {reduction_4:.2}x @4 threads");

    let case_json = cases
        .iter()
        .map(|c| {
            format!(
                "    {{ \"case\": \"{}\", \"stall_secs\": {:.6}, \"stall_events\": {}, \
                 \"stall_p50_ms\": {:.4}, \"stall_p99_ms\": {:.4}, \"idle_fraction\": {:.4}, \
                 \"speculated\": {}, \"adopted\": {}, \"mismatched\": {}, \"wasted\": {}, \
                 \"hit_rate\": {:.4}, \"wall_secs\": {:.3} }}",
                c.label,
                c.pool.stall_secs,
                c.pool.stall_events,
                c.pool.stall_p50_ms,
                c.pool.stall_p99_ms,
                c.pool.idle_fraction(),
                c.spec.speculated,
                c.spec.adopted,
                c.spec.mismatched,
                c.spec.wasted(),
                c.spec.hit_rate(),
                c.wall_secs,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let path = results_dir().join("BENCH_fit_prefetch.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        r#"{{
  "configs": {n_configs},
  "max_epochs": {epochs},
  "quick": {quick},
  "host_cores": {host_cores},
  "cases": [
{case_json}
  ],
  "stall_reduction_1_thread": {reduction_1:.4},
  "stall_reduction_4_threads": {reduction_4:.4},
  "stall_reduction_asserted": {gated},
  "suite_wall_secs": {suite_secs:.3},
  "event_logs_byte_identical": {logs_ok},
  "determinism_mismatch": {determinism_mismatch}
}}
"#,
        logs_ok = !determinism_mismatch,
    )
    .expect("json write");
    println!("wrote {}", path.display());
    assert!(!determinism_mismatch, "prefetch diverged from the synchronous path");
}
