//! Golden-trace regression tests for POP scheduling decisions.
//!
//! Two canonical experiments — a CIFAR accuracy surface and a Lunar Lander
//! reward surface — run under POP in the simulator, and their complete
//! scheduling traces (every start/resume, suspend, kill, completion, plus
//! the per-boundary classification snapshots) are compared **byte for
//! byte** against committed golden files, at both 1 and 4 fit-service
//! worker threads. One file per workload pins the cold trace under both
//! likelihoods — the libm oracle and the default fused `fast_math` fit —
//! because they agree byte for byte. Warm starts change numerics on
//! purpose and are pinned as their own modes; a mode gets its own file
//! only where its trace differs from an existing one (today: CIFAR warm,
//! shared by libm-warm and fast-warm; every Lunar mode reproduces the cold
//! Lunar trace). If a change ever splits modes that share a file, the
//! regenerated file flaps between them and the next plain run fails: give
//! the split mode its own file name then.
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
use hyperdrive_framework::{
    run_meta, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultPlan, Journal,
    SchedulingPolicy,
};
use hyperdrive_sim::{run_sim, Simulation};
use hyperdrive_types::SimTime;
use hyperdrive_workload::{CifarWorkload, LunarWorkload, Workload};

/// Runs one canonical experiment and renders its full decision trace.
/// Every caller names its fit mode (warm-start, fast-math) explicitly, so
/// no test silently follows `PredictorConfig`'s defaults.
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
) -> String {
    trace_cached(workload, configs, seed, machines, tmax, fit_threads, warm_start, fast_math, None)
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
) -> String {
    let ew = ExperimentWorkload::from_workload(workload, configs, seed);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
    let config = PopConfig {
        predictor: PredictorConfig::test().with_warm_start(warm_start).with_fast_math(fast_math),
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
    render(&result, &pop)
}

/// A run's full decision trace: the event log, POP's per-boundary
/// classification snapshots, and the run's end.
fn render(result: &ExperimentResult, pop: &PopPolicy) -> String {
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

/// [`trace_with`] against a shared content-addressed fit cache (`None` =
/// the policy shares nothing). Also returns the
/// finished policy, whose `predictions_made` counter lets callers pin
/// that caching changes *where posteriors come from*, never *how many are
/// consumed*, and whose fit counters say which evaluator ran.
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
    cache: Option<Arc<SharedFitCache>>,
) -> (String, PopPolicy) {
    let ew = ExperimentWorkload::from_workload(workload, configs, seed);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
    let config = PopConfig {
        predictor: PredictorConfig::test().with_warm_start(warm_start).with_fast_math(fast_math),
        fit_threads,
        seed,
        ..Default::default()
    };
    let mut pop = match cache {
        Some(c) => PopPolicy::with_config_and_cache(config, Some(c)),
        None => PopPolicy::with_config(config),
    };
    let result = run_sim(&mut pop, &ew, spec);
    (render(&result, &pop), pop)
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
fn cifar_golden(name: &str, warm_start: bool, fast_math: bool) {
    let workload = CifarWorkload::new().with_max_epochs(40);
    let tmax = SimTime::from_hours(48.0);
    check_golden(name, |threads| {
        trace_with(&workload, 12, 7, 4, tmax, threads, warm_start, fast_math)
    });
}

/// The canonical Lunar Lander experiment under one fit mode.
fn lunar_golden(name: &str, warm_start: bool, fast_math: bool) {
    let workload = LunarWorkload::new().with_max_blocks(60);
    let tmax = SimTime::from_hours(200.0);
    check_golden(name, |threads| {
        trace_with(&workload, 10, 11, 3, tmax, threads, warm_start, fast_math)
    });
}

// One committed cold trace per workload, replayed under both likelihoods
// × {1, 4} fit threads. The vectorized likelihood (`fast_math`) evaluates
// the same model through fused batched kernels with a different
// (deterministic) floating-point factoring; it does not move a byte of
// the scheduling trace, regardless of `HYPERDRIVE_VMATH` (the backends are
// bit-identical). The modes stay separate `#[test]`s so they run in
// parallel and a divergence names the mode that moved.

#[test]
fn cifar_surface_trace_is_golden() {
    cifar_golden("cifar_trace.csv", false, false); // libm oracle
}

#[test]
fn cifar_surface_fast_trace_is_golden() {
    cifar_golden("cifar_trace.csv", false, true);
}

#[test]
fn lunar_surface_trace_is_golden() {
    lunar_golden("lunar_trace.csv", false, false); // libm oracle
}

#[test]
fn lunar_surface_fast_trace_is_golden() {
    lunar_golden("lunar_trace.csv", false, true);
}

/// A boundary's fits are independent pool messages, so the *default*
/// `PredictorConfig` — no mode named — reproduces the golden however 1 or
/// 4 workers spread them, with every fit scored by the fused
/// half-ensemble evaluator (`batched_fits == fits`).
fn default_fit_golden(
    name: &str,
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
) {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-mode tests own regeneration
    }
    let golden = read_golden(name);
    let defaults = PredictorConfig::test();
    for threads in [1, 4] {
        let (trace, pop) = trace_cached(
            workload,
            configs,
            seed,
            machines,
            tmax,
            threads,
            defaults.warm_start,
            defaults.fast_math,
            None,
        );
        assert_eq!(trace, golden, "{name}: the default fit diverged at {threads} fit threads");
        let stats = pop.fit_stats();
        assert!(stats.fits > 0, "{name}: the run never fit a curve");
        assert_eq!(stats.batched_fits, stats.fits, "{name}: a fit bypassed the fused evaluator");
    }
}

#[test]
fn cifar_surface_batch_trace_is_golden() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    default_fit_golden("cifar_trace.csv", &workload, 12, 7, 4, SimTime::from_hours(48.0));
}

#[test]
fn lunar_surface_batch_trace_is_golden() {
    let workload = LunarWorkload::new().with_max_blocks(60);
    default_fit_golden("lunar_trace.csv", &workload, 10, 11, 3, SimTime::from_hours(200.0));
}

// Warm-started posteriors change the numerics on purpose (shorter,
// seeded chains), so the warm path is pinned as its own mode — also
// locked at 1 and 4 fit threads, pinning that the warm source resolution
// never depends on worker scheduling. On CIFAR that moves decisions (its
// own file); on Lunar it does not (the cold file).

#[test]
fn cifar_surface_warm_trace_is_golden() {
    cifar_golden("cifar_warm_trace.csv", true, false);
}

#[test]
fn lunar_surface_warm_trace_is_golden() {
    lunar_golden("lunar_trace.csv", true, false);
}

// fast_math composes with warm start: warm refits rescore previous draws
// and reseed family fits through the batched kernels. The combination is
// its own numeric regime, pinned separately — and reproduces the libm-warm
// traces byte for byte.

#[test]
fn cifar_surface_fast_warm_trace_is_golden() {
    cifar_golden("cifar_warm_trace.csv", true, true);
}

#[test]
fn lunar_surface_fast_warm_trace_is_golden() {
    lunar_golden("lunar_trace.csv", true, true);
}

// The per-mode tests above pin fit-pool widths 1 and 4. A boundary's fits
// — cold, warm, libm or fused — are all independent pool messages, so
// every mode's golden must also survive the uneven spreads of a 2- and a
// 3-worker pool.

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
    let cases: [Case; 8] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false),
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, true, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let golden = read_golden(name);
        for threads in [2, 3] {
            let replay = trace_with(w, configs, seed, machines, tmax, threads, warm, fast);
            assert_eq!(
                replay, golden,
                "{name}: a {threads}-worker spread moved the trace (warm={warm} fast={fast})"
            );
        }
    }
}

// Speculative fit prefetch claims to be bitwise invisible, pure overlap —
// so every existing golden is replayed
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
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool);
    let cases: [Case; 6] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false),
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let golden = read_golden(name);
        for threads in [1, 4] {
            let replay = trace_prefetched(w, configs, seed, machines, tmax, threads, warm, fast);
            assert_eq!(
                replay, golden,
                "{name}: fit_prefetch=on moved the trace at {threads} fit threads"
            );
        }
    }
}

// The shared content-addressed fit cache must be *pure speed*: every one
// of the eight (workload, fit mode) cases has to match its golden whether fits
// run cold (the tests above), run cold with a cache attached, or replay
// from the cache that run warmed — at 1 and 4 fit threads. This is the
// end-to-end pin on the fingerprint closure: if the key missed
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
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, true, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let golden = read_golden(name);

        // Cold run populating a fresh cache at 1 thread, then a warmed
        // replay at 4 threads served from the same cache.
        let cache = SharedFitCache::in_memory();
        let (cold, cold_pop) =
            trace_cached(w, configs, seed, machines, tmax, 1, warm, fast, Some(cache.clone()));
        assert_eq!(cold, golden, "{name}: attaching the fit cache changed the cold trace");
        let cold_preds = cold_pop.predictions_made();
        assert!(cold_preds > 0, "{name}: the cold run never consumed a prediction");
        let (replay, replay_pop) =
            trace_cached(w, configs, seed, machines, tmax, 4, warm, fast, Some(cache.clone()));
        assert_eq!(replay, golden, "{name}: warmed replay diverged");
        assert!(cache.snapshot().shared_hits > 0, "{name}: the warmed replay never hit the cache");
        // Shared-cache hits report `cached: false` so the policy consumes
        // exactly as many predictions as the cold run it replays — a
        // replay that consumed fewer would mean a hit short-circuited a
        // decision the scheduler was supposed to price.
        assert_eq!(
            replay_pop.predictions_made(),
            cold_preds,
            "{name}: the warmed replay consumed a different number of predictions"
        );
    }
}

// Journaling is pure output: a journaled run renders its golden byte for
// byte, and so does a run killed halfway through its inputs and resumed
// from the journal on a fresh policy — at 1 and 4 fit threads.

#[test]
fn journaling_is_pure_output() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool);
    let cases: [Case; 3] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false),
    ];
    let plan = FaultPlan::none();
    for (name, w, configs, seed, machines, tmax, warm) in cases {
        let golden = read_golden(name);
        let ew = ExperimentWorkload::from_workload(w, configs, seed);
        let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
        for threads in [1, 4] {
            let pop = || {
                let predictor = PredictorConfig::test().with_warm_start(warm);
                PopPolicy::with_config(PopConfig {
                    predictor,
                    fit_threads: threads,
                    seed,
                    ..Default::default()
                })
            };
            let mut whole = pop();
            let meta = run_meta(whole.name(), &ew, &spec, &plan);
            let journal = Journal::in_memory(meta);
            let result =
                Simulation::with_journal(&mut whole, &ew, spec, &plan, journal.clone()).run();
            assert_eq!(render(&result, &whole), golden, "{name}: journaled at {threads} threads");
            assert!(journal.is_sealed(), "{name}: the finished run sealed its journal");

            let half = journal.inputs_appended() / 2;
            let mut victim = pop();
            let journal = Journal::in_memory(meta);
            let mut killed =
                Simulation::with_journal(&mut victim, &ew, spec, &plan, journal.clone());
            killed.run_to_input(half);
            drop(killed);
            let recovered = journal.reopen().expect("an in-memory journal reopens");
            assert_eq!(recovered.inputs.len() as u64, half);
            let mut fresh = pop();
            let result = Simulation::resume(&mut fresh, &ew, spec, &plan, recovered)
                .expect("the prefix replays")
                .run();
            assert_eq!(render(&result, &fresh), golden, "{name}: resumed at {threads} threads");
        }
    }
}

/// The command line journals as a path: a second `run --journal` on a
/// sealed journal resumes it to the same report, and a journal written
/// under another seed is refused.
#[test]
fn cli_run_resumes_its_journal_and_refuses_another_runs() {
    let path = std::env::temp_dir().join(format!("hyperdrive-cli-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let run = |seed: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hyperdrive"))
            .args(["run", "--policy", "bandit", "--configs", "12", "--machines", "3"])
            .args(["--seed", seed, "--journal"])
            .arg(&path)
            .output()
            .expect("the hyperdrive binary runs")
    };
    let first = run("42");
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    assert!(path.exists(), "--journal created the file");
    let second = run("42");
    assert!(second.status.success(), "{}", String::from_utf8_lossy(&second.stderr));
    assert_eq!(String::from_utf8_lossy(&second.stdout), String::from_utf8_lossy(&first.stdout));
    let other = run("43");
    assert!(!other.status.success(), "a journal of another run must be refused");
    assert!(String::from_utf8_lossy(&other.stderr).contains("--journal"));
    let _ = std::fs::remove_file(&path);
}
