//! Speculative fit-prefetch equivalence: prefetch changes *when* a fit
//! computes, never *what* it computes.
//!
//! The proptest sweeps the full configuration cube — prefetch on/off ×
//! fit threads {1, 4} × shared cache {off, mem}, every cell fitting with
//! `PredictorConfig::test()` — and asserts every cell renders
//! byte-identical event logs and identical posterior digests. A companion
//! test proves the sweep is non-vacuous
//! (speculations actually fire and get adopted), and a kill-at-every-event
//! run shows crash recovery stays byte-identical with prefetch enabled.

use proptest::prelude::*;

use hyperdrive::curve::{PredictorConfig, SharedFitCache, SpecStats};
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload, SchedulingPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::{kill_at_every_event, run_sim};
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

/// One cell of the configuration cube.
#[derive(Debug, Clone, Copy)]
struct Cell {
    prefetch: bool,
    fit_threads: usize,
    mem_cache: bool,
}

/// Every combination the determinism contract must hold across.
fn cube() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(8);
    for &prefetch in &[false, true] {
        for &fit_threads in &[1usize, 4] {
            for &mem_cache in &[false, true] {
                cells.push(Cell { prefetch, fit_threads, mem_cache });
            }
        }
    }
    cells
}

fn workload(n_jobs: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
    let w = CifarWorkload::new().with_max_epochs(epochs);
    ExperimentWorkload::from_workload(&w, n_jobs, seed)
}

fn policy_for(cell: Cell, seed: u64, cache: Option<std::sync::Arc<SharedFitCache>>) -> PopPolicy {
    let config = PopConfig {
        predictor: PredictorConfig::test(),
        boundary: Some(2),
        fit_threads: cell.fit_threads,
        // Explicit override: the CI suite runs with HYPERDRIVE_FIT_PREFETCH
        // forced on, and this cube must pin both halves regardless.
        fit_prefetch: Some(cell.prefetch),
        seed,
        ..PopConfig::default()
    };
    match cache {
        Some(cache) => PopPolicy::with_config_and_cache(config, Some(cache)),
        None => PopPolicy::with_config(config),
    }
}

/// Runs one cell and returns (event-log bytes, posterior digest,
/// predictions made, speculation counters).
fn run_cell(cell: Cell, n_jobs: usize, epochs: u32, seed: u64) -> (Vec<u8>, u64, u64, SpecStats) {
    let ew = workload(n_jobs, epochs, seed);
    let spec = ExperimentSpec::new(2)
        .with_tmax(SimTime::from_hours(100.0))
        .with_stop_on_target(false)
        .with_seed(seed);
    let cache = cell.mem_cache.then(SharedFitCache::in_memory);
    let mut pop = policy_for(cell, seed, cache);
    let result = run_sim(&mut pop, &ew, spec);
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("writing to a Vec cannot fail");
    (csv, pop.posterior_digest(), pop.predictions_made(), pop.spec_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full cube agrees byte-for-byte: prefetch, thread count, and
    /// shared caching each change only the execution schedule of fits,
    /// never the rendered run.
    #[test]
    fn prefetch_cube_is_byte_identical(
        seed in 0u64..200,
        n_jobs in 3usize..6,
    ) {
        let baseline = Cell { prefetch: false, fit_threads: 1, mem_cache: false };
        let (csv0, digest0, preds0, _) = run_cell(baseline, n_jobs, 8, seed);
        prop_assert!(preds0 > 0, "boundaries must actually fire");
        for cell in cube() {
            let (csv, digest, preds, spec) = run_cell(cell, n_jobs, 8, seed);
            prop_assert_eq!(&csv, &csv0, "event log diverged for {:?}", cell);
            prop_assert_eq!(digest, digest0, "posterior digest diverged for {:?}", cell);
            prop_assert_eq!(preds, preds0, "prediction count diverged for {:?}", cell);
            if !cell.prefetch {
                prop_assert_eq!(spec.speculated, 0, "prefetch off must not speculate");
            }
        }
    }
}

/// The cube is non-vacuous: on a deterministic case, prefetch-on cells
/// really speculate and adopt, rather than silently falling back to
/// demand fits.
#[test]
fn prefetch_cells_actually_speculate() {
    for fit_threads in [1usize, 4] {
        let cell = Cell { prefetch: true, fit_threads, mem_cache: false };
        let (_, _, _, spec) = run_cell(cell, 5, 8, 42);
        assert!(spec.speculated > 0, "no speculation at {fit_threads} fit threads");
        assert!(spec.adopted > 0, "no adoption at {fit_threads} fit threads");
    }
}

/// Kill-anywhere recovery with prefetch enabled: crashing after every
/// journaled input and replaying through a fresh prefetching policy must
/// reproduce the uninterrupted trace byte-for-byte. Hints are never
/// journaled — replay re-derives them from the same issue-time state.
#[test]
fn kill_at_every_event_with_prefetch_enabled() {
    let ew = workload(4, 6, 17);
    let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(17);
    let plan = hyperdrive::framework::FaultPlan::none();
    let cache = SharedFitCache::in_memory();
    let make = move || -> Box<dyn SchedulingPolicy> {
        let config = PopConfig {
            predictor: PredictorConfig::test(),
            boundary: Some(2),
            fit_threads: 2,
            fit_prefetch: Some(true),
            ..PopConfig::default()
        };
        Box::new(PopPolicy::with_config_and_cache(config, Some(cache.clone())))
    };
    let report = kill_at_every_event(make, &ew, spec, &plan).unwrap();
    assert!(report.positions > 0);
    assert_eq!(report.failures, Vec::<String>::new());
    assert_eq!(report.passes, report.positions);
}
