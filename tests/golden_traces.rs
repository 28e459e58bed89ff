//! Golden-trace regression tests for POP scheduling decisions.
//!
//! Two canonical experiments — a CIFAR accuracy surface and a Lunar Lander
//! reward surface — run under POP in the simulator, and their complete
//! scheduling traces (every start/resume, suspend, kill, completion, plus
//! the per-boundary classification snapshots) are compared **byte for
//! byte** against committed golden files, at both 1 and 4 fit-service
//! worker threads. One file per workload pins the cold trace under every
//! fit mode — the libm oracle, `fast_math`, and the default
//! `fast_math` + `batch_fit` — because the three agree byte for byte;
//! warm starts change numerics on purpose and keep their own files.
//!
//! These traces lock in the whole deterministic stack at once: curve-fit
//! seed derivation, fit caching, batch request ordering, slot allocation,
//! and engine event ordering. Any change that moves a single decision or
//! reorders a single event shows up as a diff here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! HYPERDRIVE_UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{PredictorConfig, SharedFitCache};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::{CifarWorkload, LunarWorkload, Workload};

/// Runs one canonical experiment and renders its full decision trace.
/// Every caller names its fit mode (warm-start, fast-math, batch-fit)
/// explicitly, so no test silently follows `PredictorConfig`'s defaults.
#[allow(clippy::too_many_arguments)]
fn trace_with(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
    warm_start: bool,
    fast_math: bool,
    batch_fit: bool,
) -> String {
    trace_cached(
        workload,
        configs,
        seed,
        machines,
        tmax,
        fit_threads,
        warm_start,
        fast_math,
        batch_fit,
        None,
    )
    .0
}

/// [`trace_with`] with speculative fit prefetch forced on (the engine
/// hints boundary epochs at issue time and the policy fits them ahead).
#[allow(clippy::too_many_arguments)]
fn trace_prefetched(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
    warm_start: bool,
    fast_math: bool,
    batch_fit: bool,
) -> String {
    let ew = ExperimentWorkload::from_workload(workload, configs, seed);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
    let config = PopConfig {
        predictor: PredictorConfig::test()
            .with_warm_start(warm_start)
            .with_fast_math(fast_math)
            .with_batch_fit(batch_fit),
        fit_threads,
        seed,
        fit_prefetch: Some(true),
        ..Default::default()
    };
    let mut pop = PopPolicy::with_config(config);
    let result = run_sim(&mut pop, &ew, spec);
    assert!(
        pop.spec_stats().speculated > 0,
        "prefetch never engaged — the equivalence assertion would be vacuous"
    );

    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("event log serializes");
    let mut out = String::from_utf8(csv).expect("csv is utf-8");
    out.push_str("decision,now_s,active,promising,running,promising_running,p_star,slots\n");
    for s in pop.timeline() {
        writeln!(
            out,
            "decision,{:.3},{},{},{},{},{:.6},{}",
            s.now.as_secs(),
            s.active_jobs,
            s.promising_jobs,
            s.running_jobs,
            s.promising_running,
            s.p_threshold,
            s.promising_slots,
        )
        .expect("string write");
    }
    writeln!(
        out,
        "end,{:.3},total_epochs={},terminated_early={}",
        result.end_time.as_secs(),
        result.total_epochs,
        result.terminated_early(),
    )
    .expect("string write");
    out
}

/// [`trace_with`] against an explicit shared content-addressed fit cache
/// (`None` = the default process-global resolution). Also returns the
/// policy's `predictions_made` counter so callers can pin that caching
/// changes *where posteriors come from*, never *how many are consumed*.
#[allow(clippy::too_many_arguments)]
fn trace_cached(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
    warm_start: bool,
    fast_math: bool,
    batch_fit: bool,
    cache: Option<Arc<SharedFitCache>>,
) -> (String, u64) {
    let ew = ExperimentWorkload::from_workload(workload, configs, seed);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
    let config = PopConfig {
        predictor: PredictorConfig::test()
            .with_warm_start(warm_start)
            .with_fast_math(fast_math)
            .with_batch_fit(batch_fit),
        fit_threads,
        seed,
        ..Default::default()
    };
    let mut pop = match cache {
        Some(c) => PopPolicy::with_config_and_cache(config, Some(c)),
        None => PopPolicy::with_config(config),
    };
    let result = run_sim(&mut pop, &ew, spec);

    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("event log serializes");
    let mut out = String::from_utf8(csv).expect("csv is utf-8");
    out.push_str("decision,now_s,active,promising,running,promising_running,p_star,slots\n");
    for s in pop.timeline() {
        writeln!(
            out,
            "decision,{:.3},{},{},{},{},{:.6},{}",
            s.now.as_secs(),
            s.active_jobs,
            s.promising_jobs,
            s.running_jobs,
            s.promising_running,
            s.p_threshold,
            s.promising_slots,
        )
        .expect("string write");
    }
    writeln!(
        out,
        "end,{:.3},total_epochs={},terminated_early={}",
        result.end_time.as_secs(),
        result.total_epochs,
        result.terminated_early(),
    )
    .expect("string write");
    (out, pop.predictions_made())
}

fn golden_path(name: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect()
}

fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); generate it with \
             HYPERDRIVE_UPDATE_GOLDEN=1 cargo test --test golden_traces"
        )
    })
}

/// Asserts thread-count invariance, then compares against the committed
/// golden file (or rewrites it under `HYPERDRIVE_UPDATE_GOLDEN=1`; the
/// modes sharing a file all write it — they must agree, and the next
/// plain run fails if they did not).
fn check_golden(name: &str, build: impl Fn(usize) -> String) {
    let single = build(1);
    let quad = build(4);
    assert_eq!(single, quad, "{name}: fit-pool width leaked into the scheduling trace");

    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path(name), &single).expect("write golden file");
        return;
    }
    assert_eq!(
        single,
        read_golden(name),
        "{name}: trace diverged from the committed golden; if the behaviour \
         change is intentional, regenerate with HYPERDRIVE_UPDATE_GOLDEN=1"
    );
}

/// The canonical CIFAR experiment under one fit mode.
fn cifar_golden(name: &str, warm_start: bool, fast_math: bool, batch_fit: bool) {
    let workload = CifarWorkload::new().with_max_epochs(40);
    let tmax = SimTime::from_hours(48.0);
    check_golden(name, |threads| {
        trace_with(&workload, 12, 7, 4, tmax, threads, warm_start, fast_math, batch_fit)
    });
}

/// The canonical Lunar Lander experiment under one fit mode.
fn lunar_golden(name: &str, warm_start: bool, fast_math: bool, batch_fit: bool) {
    let workload = LunarWorkload::new().with_max_blocks(60);
    let tmax = SimTime::from_hours(200.0);
    check_golden(name, |threads| {
        trace_with(&workload, 10, 11, 3, tmax, threads, warm_start, fast_math, batch_fit)
    });
}

// One committed cold trace per workload, replayed under all three fit
// modes × {1, 4} fit threads. The vectorized likelihood (`fast_math`)
// evaluates the same model through batched kernels with a different
// (deterministic) floating-point factoring, and cross-curve batching
// (`batch_fit`) is a bitwise-invisible rearrangement of that path; neither
// moves a byte of the scheduling trace, regardless of `HYPERDRIVE_VMATH`
// (the backends are bit-identical). The modes stay separate `#[test]`s so
// they run in parallel and a divergence names the mode that moved.

#[test]
fn cifar_surface_trace_is_golden() {
    cifar_golden("cifar_trace.csv", false, false, false); // libm oracle
}

#[test]
fn cifar_surface_fast_trace_is_golden() {
    cifar_golden("cifar_trace.csv", false, true, false);
}

#[test]
fn cifar_surface_batch_trace_is_golden() {
    cifar_golden("cifar_trace.csv", false, true, true); // the default fit
}

#[test]
fn lunar_surface_trace_is_golden() {
    lunar_golden("lunar_trace.csv", false, false, false); // libm oracle
}

#[test]
fn lunar_surface_fast_trace_is_golden() {
    lunar_golden("lunar_trace.csv", false, true, false);
}

#[test]
fn lunar_surface_batch_trace_is_golden() {
    lunar_golden("lunar_trace.csv", false, true, true); // the default fit
}

// Warm-started posteriors change the numerics on purpose (shorter,
// seeded chains), so the warm path gets its *own* golden traces — also
// locked at 1 and 4 fit threads, pinning that the warm source resolution
// never depends on worker scheduling.

#[test]
fn cifar_surface_warm_trace_is_golden() {
    cifar_golden("cifar_warm_trace.csv", true, false, false);
}

#[test]
fn lunar_surface_warm_trace_is_golden() {
    lunar_golden("lunar_warm_trace.csv", true, false, false);
}

// fast_math composes with warm start: warm refits rescore previous draws
// and reseed family fits through the batched kernels. The combination is
// its own numeric regime, so it is pinned separately too.

#[test]
fn cifar_surface_fast_warm_trace_is_golden() {
    cifar_golden("cifar_fast_warm_trace.csv", true, true, false);
}

#[test]
fn lunar_surface_fast_warm_trace_is_golden() {
    lunar_golden("lunar_fast_warm_trace.csv", true, true, false);
}

// Replaying the libm and warm goldens with `batch_fit` on proves the flag
// is inert there: warm-started refits and non-fast-math fits bypass the
// lockstep path by design, so all six traces must come out byte-for-byte
// unchanged. (The cold fast-math fits batching does capture are the
// `_batch_trace_is_golden` tests above.)

#[test]
fn existing_goldens_are_untouched_by_batch_fit() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool);
    let cases: [Case; 6] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false),
        ("cifar_fast_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_fast_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let golden = read_golden(name);
        let replay = trace_with(w, configs, seed, machines, tmax, 1, warm, fast, true);
        assert_eq!(
            replay, golden,
            "{name}: batch_fit=on moved the trace (warm={warm} fast={fast})"
        );
    }
}

// Speculative fit prefetch is the same kind of claim as batch_fit —
// bitwise invisible, pure overlap — so every existing golden is replayed
// with prefetch forced on, at BOTH 1 and 4 fit threads (overlap only pays
// off with spare workers, and worker count must never leak into traces).

#[test]
fn existing_goldens_are_untouched_by_fit_prefetch() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool, bool);
    let cases: [Case; 8] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false, false),
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true, false),
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false, false),
        ("lunar_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast, batch) in cases {
        let golden = read_golden(name);
        for threads in [1, 4] {
            let replay =
                trace_prefetched(w, configs, seed, machines, tmax, threads, warm, fast, batch);
            assert_eq!(
                replay, golden,
                "{name}: fit_prefetch=on moved the trace at {threads} fit threads"
            );
        }
    }
}

// The shared content-addressed fit cache must be *pure speed*: every one
// of the eight (workload, fit mode) cases has to match its golden whether fits
// run cold (the tests above), replay from a warmed in-memory cache, or
// replay from a pre-populated disk store — at 1 and 4 fit threads. This
// is the end-to-end pin on the fingerprint closure: if the key missed
// anything the scheduler can see, a stale posterior would move a decision
// and diff against the committed golden here.

#[test]
fn golden_traces_are_invariant_under_shared_fit_cache_modes() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool);
    let cases: [Case; 8] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false),
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true),
        ("cifar_fast_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true),
        ("lunar_fast_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, true),
    ];
    let disk_root =
        std::env::temp_dir().join(format!("hyperdrive-golden-fitcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_root);
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let golden = read_golden(name);

        // Cold run populating a fresh disk-backed cache at 1 thread, then
        // a warmed replay at 4 threads served from the same cache object.
        let dir = disk_root.join(format!("{name}-warm{warm}-fast{fast}"));
        let writer = SharedFitCache::with_disk(&dir).expect("open disk-backed fit cache");
        let (cold, cold_preds) = trace_cached(
            w,
            configs,
            seed,
            machines,
            tmax,
            1,
            warm,
            fast,
            false,
            Some(writer.clone()),
        );
        assert_eq!(cold, golden, "{name}: attaching the fit cache changed the cold trace");
        assert!(cold_preds > 0, "{name}: the cold run never consumed a prediction");
        let (replay, replay_preds) = trace_cached(
            w,
            configs,
            seed,
            machines,
            tmax,
            4,
            warm,
            fast,
            false,
            Some(writer.clone()),
        );
        assert_eq!(replay, golden, "{name}: warmed in-memory replay diverged");
        assert!(writer.stats().hits > 0, "{name}: the warmed replay never hit the cache");
        // Shared-cache hits report `cached: false` so the policy consumes
        // exactly as many predictions as the cold run it replays — a
        // replay that consumed fewer would mean a hit short-circuited a
        // decision the scheduler was supposed to price.
        assert_eq!(
            replay_preds, cold_preds,
            "{name}: the warmed replay consumed a different number of predictions"
        );

        // Fresh process-like reload: a new cache object sees only what the
        // shard files preserved, and the replay must still match.
        let reader = SharedFitCache::with_disk(&dir).expect("reopen disk-backed fit cache");
        assert!(reader.stats().disk_loaded > 0, "{name}: nothing was reloaded from disk");
        let (from_disk, disk_preds) = trace_cached(
            w,
            configs,
            seed,
            machines,
            tmax,
            1,
            warm,
            fast,
            false,
            Some(reader.clone()),
        );
        assert_eq!(from_disk, golden, "{name}: pre-populated disk replay diverged");
        assert!(reader.stats().hits > 0, "{name}: the disk replay never hit the cache");
        assert_eq!(
            disk_preds, cold_preds,
            "{name}: the disk replay consumed a different number of predictions"
        );
    }
    let _ = std::fs::remove_dir_all(&disk_root);
}
