//! Virtual-time accounting of prediction overhead.
//!
//! §5.2 motivates overlapping training and prediction because curve fits
//! are expensive. The simulator prices that expense with POP's
//! [`FitCostModel`]: each boundary decision charges the modeled makespan
//! of its fit batch to the decided job's virtual clock. These tests pin
//! the model's contract — the charge shows up on the clock, scheduling
//! decisions stay put, and *physical* fit-thread counts remain invisible.

use hyperdrive_core::{FitCostModel, PopConfig, PopPolicy};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

fn run(fit_cost: Option<FitCostModel>, fit_threads: usize) -> (SimTime, u64, usize, Vec<u8>) {
    let w = CifarWorkload::new().with_max_epochs(40);
    let ew = ExperimentWorkload::from_workload(&w, 8, 5);
    // Tmax far beyond the run length: the remaining budget never binds the
    // extrapolation horizon, so overhead shifts *times* without changing
    // *decisions* and the epoch counts below can be compared exactly.
    let spec =
        ExperimentSpec::new(2).with_stop_on_target(false).with_tmax(SimTime::from_hours(200.0));
    let mut pop = PopPolicy::with_config(PopConfig {
        predictor: PredictorConfig::test(),
        fit_threads,
        fit_cost,
        ..Default::default()
    });
    let r = run_sim(&mut pop, &ew, spec);
    let mut csv = Vec::new();
    r.events.write_csv(&mut csv).expect("event log serializes");
    (r.end_time, r.total_epochs, r.terminated_early(), csv)
}

const COST: f64 = 0.8; // modeled seconds per kiloeval: hefty enough to see

#[test]
fn modeled_overhead_extends_the_virtual_clock() {
    let free = run(None, 2);
    let serial = run(
        Some(FitCostModel {
            secs_per_kiloeval: COST,
            modeled_workers: 1,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        }),
        2,
    );
    assert!(serial.0 > free.0, "charged fits must lengthen the run: {} vs {}", serial.0, free.0);
    assert_eq!(
        (serial.1, serial.2),
        (free.1, free.2),
        "pricing fits must not change what gets scheduled or killed"
    );
}

#[test]
fn overhead_scales_with_modeled_cost() {
    let cheap = run(
        Some(FitCostModel {
            secs_per_kiloeval: COST,
            modeled_workers: 1,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        }),
        2,
    );
    let dear = run(
        Some(FitCostModel {
            secs_per_kiloeval: 2.0 * COST,
            modeled_workers: 1,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        }),
        2,
    );
    assert!(
        dear.0 > cheap.0,
        "doubling the per-eval price must lengthen the run: {} vs {}",
        dear.0,
        cheap.0
    );
    assert_eq!((cheap.1, cheap.2), (dear.1, dear.2), "only times move, not decisions");
}

#[test]
fn fused_speedup_discounts_every_fit() {
    // Every fit runs the fused half-ensemble evaluator on the batched
    // kernels, so `batch_fit_speedup` and `fast_math_speedup` both divide
    // every fit's price: the two multiply, and a discount moved from one
    // to the other prices the same timeline.
    let model = |fast_math_speedup, batch_fit_speedup| {
        Some(FitCostModel {
            secs_per_kiloeval: COST,
            modeled_workers: 1,
            fast_math_speedup,
            batch_fit_speedup,
        })
    };
    let plain = run(model(1.0, 1.0), 2);
    let fused = run(model(1.0, 2.0), 2);
    assert!(fused.0 < plain.0, "the discount must shorten the run: {} vs {}", fused.0, plain.0);
    assert_eq!((plain.1, plain.2), (fused.1, fused.2), "only times move, not decisions");
    assert_eq!(fused, run(model(2.0, 1.0), 2));
}

#[test]
fn modeled_workers_never_lengthen_the_run() {
    // In steady state the cache keeps batches down to one fresh fit (only
    // the reporting job's prefix advanced), so extra modeled workers often
    // change nothing — but they must never make a batch *slower*. The
    // multi-fit makespan math itself is pinned by FitCostModel's unit
    // tests in hyperdrive-core.
    let serial = run(
        Some(FitCostModel {
            secs_per_kiloeval: COST,
            modeled_workers: 1,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        }),
        2,
    );
    let pooled = run(
        Some(FitCostModel {
            secs_per_kiloeval: COST,
            modeled_workers: 4,
            fast_math_speedup: 1.0,
            batch_fit_speedup: 1.0,
        }),
        2,
    );
    assert!(
        pooled.0 <= serial.0,
        "modeled workers lengthened the run: {} vs {}",
        pooled.0,
        serial.0
    );
    assert_eq!((serial.1, serial.2), (pooled.1, pooled.2), "only times move, not decisions");
}

#[test]
fn modeled_cost_is_invariant_to_physical_thread_count() {
    // The whole point of splitting `modeled_workers` from `fit_threads`:
    // the virtual timeline is a function of the model, never of how many
    // OS threads actually ran the fits.
    let model = Some(FitCostModel {
        secs_per_kiloeval: COST,
        modeled_workers: 2,
        fast_math_speedup: 1.0,
        batch_fit_speedup: 1.0,
    });
    assert_eq!(run(model, 1), run(model, 4));
}

#[test]
fn shared_fit_cache_is_invisible_to_the_virtual_timeline() {
    // The shared content-addressed cache reports its hits as `cached:
    // false`, so FitCostModel prices a replayed batch exactly like the
    // cold batch it memoized: end times, epochs, kills, and the full
    // event log must be byte-identical with the cache absent, freshly
    // attached, or fully warmed — even though the warmed run executes
    // zero fits.
    let run_with = |cache: Option<std::sync::Arc<hyperdrive_curve::SharedFitCache>>| {
        let w = CifarWorkload::new().with_max_epochs(40);
        let ew = ExperimentWorkload::from_workload(&w, 8, 5);
        let spec =
            ExperimentSpec::new(2).with_stop_on_target(false).with_tmax(SimTime::from_hours(200.0));
        let mut pop = PopPolicy::with_config_and_cache(
            PopConfig {
                predictor: PredictorConfig::test(),
                fit_threads: 2,
                fit_cost: Some(FitCostModel {
                    secs_per_kiloeval: COST,
                    modeled_workers: 2,
                    fast_math_speedup: 1.0,
                    batch_fit_speedup: 1.0,
                }),
                ..Default::default()
            },
            cache,
        );
        let r = run_sim(&mut pop, &ew, spec);
        let mut csv = Vec::new();
        r.events.write_csv(&mut csv).expect("event log serializes");
        (r.end_time, r.total_epochs, r.terminated_early(), csv, r.fit_cache)
    };

    let cache = hyperdrive_curve::SharedFitCache::in_memory();
    let uncached = run_with(None);
    let cold = run_with(Some(cache.clone()));
    let warmed = run_with(Some(cache));
    assert_eq!(
        (&uncached.0, &uncached.1, &uncached.2, &uncached.3),
        (&cold.0, &cold.1, &cold.2, &cold.3),
        "attaching the cache must not move the timeline"
    );
    assert_eq!(
        (&cold.0, &cold.1, &cold.2, &cold.3),
        (&warmed.0, &warmed.1, &warmed.2, &warmed.3),
        "a fully warmed replay must be byte-identical"
    );

    let cold_snap = cold.4.expect("POP reports fit-cache counters");
    let warm_snap = warmed.4.expect("POP reports fit-cache counters");
    assert!(cold_snap.fits > 0, "the cold run actually fit curves");
    assert_eq!(warm_snap.fits, 0, "the warmed replay must not fit anything");
    assert_eq!(
        warm_snap.shared_hits,
        cold_snap.fits + cold_snap.shared_hits,
        "every prediction in the replay came from the shared cache"
    );
}
