//! Benchmarks cross-curve batched fitting (`batch_fit`): wall-clock of one
//! boundary-step batch fitted through the fused lockstep path vs the
//! per-curve `fast_math` path, an in-bench bitwise comparison of the two
//! paths' posteriors, a byte-compare of full simulator event logs with
//! batching off vs forced on at 1 and 4 fit threads, and a
//! steps-invariance allocation pin on the lockstep inner loop. Emits
//! `BENCH_batch_fit.json` into the results directory; CI greps it for
//! `"determinism_mismatch": false`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hyperdrive_bench::{print_table, quick_mode, results_dir};
use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{
    derive_fit_seed, fit_curves_batched, BatchFitItem, CurvePosterior, CurvePredictor, FitScratch,
    PredictorConfig,
};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::{LearningCurve, MetricKind, SimTime};
use hyperdrive_workload::{CifarWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts heap allocation events (alloc + realloc) for the lockstep-loop
/// allocation pin.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Observed boundary-step prefixes of real CIFAR surface configurations:
/// the curve set a POP evaluation boundary hands the fit service at once.
fn boundary_curves(n: usize, epochs: u32) -> Vec<LearningCurve> {
    let workload = CifarWorkload::new();
    let mut rng = StdRng::seed_from_u64(1);
    (0..n)
        .map(|i| {
            let config = workload.space().sample(&mut rng);
            let profile = workload.profile(&config, 100 + i as u64);
            let mut curve = LearningCurve::new(MetricKind::Accuracy);
            let mut elapsed = 0.0;
            for e in 1..=epochs.min(profile.max_epochs()) {
                elapsed += profile.epoch_duration(e).as_secs();
                curve.push(e, SimTime::from_secs(elapsed), profile.value_at(e));
            }
            curve
        })
        .collect()
}

fn items_for(curves: &[LearningCurve], horizon: u32) -> Vec<BatchFitItem> {
    curves
        .iter()
        .enumerate()
        .map(|(j, c)| BatchFitItem {
            curve: c.clone(),
            horizon,
            seed: derive_fit_seed(7, j as u64, c.last_epoch().expect("non-empty curve")),
        })
        .collect()
}

/// One full simulator run rendered as its event-log CSV bytes.
fn sim_event_log(batch_fit: bool, fit_threads: usize) -> (Vec<u8>, u64) {
    let w = CifarWorkload::new().with_max_epochs(40);
    let ew = ExperimentWorkload::from_workload(&w, 8, 5);
    let spec =
        ExperimentSpec::new(2).with_stop_on_target(false).with_tmax(SimTime::from_hours(48.0));
    let mut pop = PopPolicy::with_config(PopConfig {
        predictor: PredictorConfig::test().with_fast_math(true).with_batch_fit(batch_fit),
        fit_threads,
        seed: 5,
        ..Default::default()
    });
    let r = run_sim(&mut pop, &ew, spec);
    hyperdrive_bench::record_pool_stats(&pop.pool_stats());
    let mut csv = Vec::new();
    r.events.write_csv(&mut csv).expect("event log serializes");
    (csv, pop.fit_stats().batched_fits)
}

fn main() {
    let quick = quick_mode();
    let n_curves = if quick { 6 } else { 12 };
    let reps = if quick { 2 } else { 6 };
    // Full mode times the paper-fidelity sampler schedule, where a fit is
    // dominated by the MCMC rounds the batched path fuses; quick mode
    // keeps the short test schedule as a smoke check.
    let config =
        if quick { PredictorConfig::test() } else { PredictorConfig::paper() }.with_fast_math(true);
    let horizon = 120u32;
    let boundary_epoch = 10u32;
    let curves = boundary_curves(n_curves, boundary_epoch);
    let items = items_for(&curves, horizon);

    // ---- Per-curve vs batched wall clock on one boundary batch,
    // interleaved per repetition with the per-path total taken as the
    // minimum so load drift cannot skew the ratio. The per-curve loop is
    // exactly what one FitService worker did before batching: fit_with per
    // item against a warmed scratch.
    let unbatched = config.with_batch_fit(false);
    let per_curve = |scratch: &mut FitScratch| -> Vec<CurvePosterior> {
        items
            .iter()
            .map(|it| {
                CurvePredictor::new(unbatched.with_seed(it.seed))
                    .fit_with(&it.curve, it.horizon, None, scratch)
                    .expect("fit ok")
            })
            .collect()
    };
    let batched = |scratch: &mut FitScratch| -> Vec<CurvePosterior> {
        fit_curves_batched(&config, &items, scratch)
            .into_iter()
            .map(|r| r.expect("fit ok"))
            .collect()
    };
    let mut scratch_u = FitScratch::new();
    let mut scratch_b = FitScratch::new();
    // Untimed warm-up sizes both scratches and faults code in; the results
    // double as the determinism comparison below.
    let unbatched_ref = per_curve(&mut scratch_u);
    let batched_ref = batched(&mut scratch_b);

    let mut determinism_mismatch = false;
    for (i, (u, b)) in unbatched_ref.iter().zip(&batched_ref).enumerate() {
        let same = u.draws().len() == b.draws().len()
            && u.draws().iter().zip(b.draws()).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(a, c)| a.to_bits() == c.to_bits())
            })
            && u.acceptance_rate().to_bits() == b.acceptance_rate().to_bits();
        if !same {
            eprintln!("DETERMINISM MISMATCH: curve {i} diverged between batched and per-curve");
            determinism_mismatch = true;
        }
    }

    let mut unbatched_secs = f64::INFINITY;
    let mut batched_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let u = per_curve(&mut scratch_u);
        unbatched_secs = unbatched_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let b = batched(&mut scratch_b);
        batched_secs = batched_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(u.len(), b.len());
    }
    let unbatched_ms = unbatched_secs * 1e3 / n_curves as f64;
    let batched_ms = batched_secs * 1e3 / n_curves as f64;
    let speedup = unbatched_secs / batched_secs.max(1e-12);

    // ---- Steps-invariance allocation pin: fitting the same batch with a
    // doubled MCMC step schedule must cost the *same number* of heap
    // allocation events once the scratch is warm — every per-step buffer
    // lives in the arena, so only the per-batch setup and the (max_draws-
    // capped) posterior extraction allocate.
    let pin_config = PredictorConfig::test().with_fast_math(true);
    let mut long_config = pin_config;
    long_config.steps *= 2;
    let pin_items = items_for(&curves, horizon);
    let mut alloc_deltas = [0u64; 2];
    for (slot, cfg) in [pin_config, long_config].iter().enumerate() {
        let mut scratch = FitScratch::new();
        let _ = fit_curves_batched(cfg, &pin_items, &mut scratch);
        let before = alloc_events();
        let _ = fit_curves_batched(cfg, &pin_items, &mut scratch);
        alloc_deltas[slot] = alloc_events() - before;
    }
    assert_eq!(
        alloc_deltas[0], alloc_deltas[1],
        "lockstep inner loop allocated: doubling steps changed the event count"
    );

    // ---- End-to-end determinism: full simulator event logs must be
    // byte-identical with batching off or forced on, at 1 and 4 fit
    // threads.
    let (log_off_1, _) = sim_event_log(false, 1);
    let (log_on_1, on_batched_1) = sim_event_log(true, 1);
    let (log_on_4, on_batched_4) = sim_event_log(true, 4);
    let (log_off_4, _) = sim_event_log(false, 4);
    assert!(on_batched_1 > 0, "the batched sim run never exercised the batched path");
    assert_eq!(on_batched_1, on_batched_4, "batched_fits leaked the worker count");
    for (name, log) in [("on@1", &log_on_1), ("on@4", &log_on_4), ("off@4", &log_off_4)] {
        if log != &log_off_1 {
            eprintln!("DETERMINISM MISMATCH: event log {name} diverged from off@1");
            determinism_mismatch = true;
        }
    }

    print_table(
        "cross-curve batched fitting (boundary batch)",
        &[
            "curves",
            "epoch",
            "unbatched_ms/fit",
            "batched_ms/fit",
            "speedup",
            "alloc_events",
            "sim_batched_fits",
            "mismatch",
        ],
        &[vec![
            n_curves.to_string(),
            boundary_epoch.to_string(),
            format!("{unbatched_ms:.2}"),
            format!("{batched_ms:.2}"),
            format!("{speedup:.2}x"),
            alloc_deltas[0].to_string(),
            on_batched_1.to_string(),
            determinism_mismatch.to_string(),
        ]],
    );

    let path = results_dir().join("BENCH_batch_fit.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        r#"{{
  "curves": {n_curves},
  "boundary_epoch": {boundary_epoch},
  "quick": {quick},
  "timing": "interleaved, min over {reps} repetitions",
  "per_fit_unbatched_ms": {unbatched_ms:.4},
  "per_fit_batched_ms": {batched_ms:.4},
  "batched_speedup": {speedup:.3},
  "bitwise_identical_posteriors": {bitwise},
  "alloc_events_per_batch": {allocs},
  "alloc_events_steps_invariant": true,
  "sim_batched_fits": {on_batched_1},
  "sim_event_logs_byte_identical": {logs_ok},
  "determinism_mismatch": {determinism_mismatch},
  {fit_cache_fragment},
  {fit_pool_fragment}
}}
"#,
        bitwise = !determinism_mismatch,
        allocs = alloc_deltas[0],
        logs_ok = log_off_1 == log_on_1 && log_off_1 == log_on_4 && log_off_1 == log_off_4,
        fit_cache_fragment = hyperdrive_bench::fit_cache_json(),
        fit_pool_fragment = hyperdrive_bench::fit_pool_json(),
    )
    .expect("json write");
    println!("wrote {}", path.display());
    assert!(!determinism_mismatch, "batched fitting diverged from the per-curve path");
}
