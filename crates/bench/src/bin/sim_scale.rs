//! Capacity-scaling bench for the discrete-event spine: events/sec and
//! heap allocations per event as the cluster grows from 32 to 50k
//! machines, per policy. Emits `BENCH_sim_scale.json` into the results
//! directory. (The pre-optimization event loop this was once measured
//! against — 11.7× slower at 10k machines — is retired; its last reading
//! is archived in the committed `results/BENCH_sim_scale.json`.)
//!
//! Two properties ride along and are hard-asserted:
//!
//! * **Zero allocations per steady-state event** under the default policy
//!   at every cluster size.
//! * **Machine-count invariance** — with `jobs <= machines` under the
//!   default policy, the trace is independent of cluster size (the
//!   lowest-numbered-idle-machine contract), so a fixed-seed 16-job smoke
//!   study hashes identically at 32 and 2048 machines.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::Hasher;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hyperdrive_bench::{harness_fit_threads, print_table, quick_mode, results_dir};
use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{
    DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, SchedulingPolicy,
};
use hyperdrive_sim::Simulation;
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

/// Counts heap allocation events (alloc + realloc) so the bench can pin
/// the zero-allocations-per-event property of the steady-state loop.
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

/// Epoch cap for the scaling runs: small enough that 50k machines stays a
/// few hundred thousand events, large enough that steady state dominates.
const EPOCHS: u32 = 8;

/// Order-insensitive-to-nothing trace digest: hashes every scheduler
/// event in order plus the headline outcome fields. `DefaultHasher` uses
/// fixed keys, so the digest is stable across processes.
fn trace_hash(result: &ExperimentResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for e in result.events.events() {
        h.write(format!("{e:?}").as_bytes());
    }
    h.write_u64(result.total_epochs);
    h.write_u64(result.events.events().len() as u64);
    h.write(format!("{:?} {:?}", result.time_to_target, result.end_time).as_bytes());
    h.finish()
}

/// The scaling-run spec: `jobs = 2 * machines` (the second wave keeps the
/// reserve/release churn going once the cluster fills).
fn scale_spec(machines: usize) -> (ExperimentWorkload, ExperimentSpec) {
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let ew = ExperimentWorkload::from_workload(&w, 2 * machines, 11);
    let spec = ExperimentSpec::new(machines)
        .with_tmax(SimTime::from_hours(1.0e6))
        .with_seed(7)
        .with_stop_on_target(false);
    (ew, spec)
}

/// One timed scaling run, driven step by step so the event count is exact. Returns
/// `(events, wall_secs, trace_hash)`.
fn timed_run(policy: &mut dyn SchedulingPolicy, machines: usize) -> (u64, f64, u64) {
    let (ew, spec) = scale_spec(machines);
    let mut sim = Simulation::new(policy, &ew, spec);
    let t = Instant::now();
    let mut events = 0u64;
    while sim.step().is_some() {
        events += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    (events, secs, trace_hash(&sim.finish()))
}

/// Best-of-`reps` wrapper around [`timed_run`]: wall time is the minimum
/// (load drift cannot inflate it); events and trace hash are asserted
/// identical across repetitions.
fn timed_best(
    mut make: impl FnMut() -> Box<dyn SchedulingPolicy>,
    machines: usize,
    reps: usize,
) -> (u64, f64, u64) {
    let mut best = (0u64, f64::INFINITY, 0u64);
    for rep in 0..reps {
        let mut policy = make();
        let (events, secs, hash) = timed_run(policy.as_mut(), machines);
        if rep > 0 {
            assert_eq!((events, hash), (best.0, best.2), "repetition diverged");
        }
        best = (events, secs.min(best.1), hash);
    }
    best
}

/// Allocations per steady-state event at a given cluster size: jobs ==
/// machines so every job starts at t=0 and the warmup stretch covers each
/// job's first `record_stat` (which sizes its curve). Default policy —
/// the bare engine+stepper path the O(1) claim is about.
fn steady_state_allocs(machines: usize) -> (u64, u64) {
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let ew = ExperimentWorkload::from_workload(&w, machines, 11);
    let spec = ExperimentSpec::new(machines)
        .with_tmax(SimTime::from_hours(1.0e6))
        .with_seed(7)
        .with_stop_on_target(false);
    let mut policy = DefaultPolicy::new();
    let mut sim = Simulation::new(&mut policy, &ew, spec);
    for _ in 0..2 * machines {
        sim.step().expect("workload outlasts warmup");
    }
    let before = alloc_events();
    let mut measured = 0u64;
    while sim.step().is_some() {
        measured += 1;
    }
    (alloc_events() - before, measured)
}

/// Fixed-seed 16-job smoke study for the machine-count-invariance check.
fn invariance_hash(machines: usize) -> u64 {
    let w = CifarWorkload::new().with_max_epochs(12);
    let ew = ExperimentWorkload::from_workload(&w, 16, 5);
    let spec = ExperimentSpec::new(machines)
        .with_tmax(SimTime::from_hours(1.0e6))
        .with_seed(3)
        .with_stop_on_target(false);
    let mut policy = DefaultPolicy::new();
    let mut sim = Simulation::new(&mut policy, &ew, spec);
    while sim.step().is_some() {}
    trace_hash(&sim.finish())
}

struct Row {
    policy: &'static str,
    machines: usize,
    events: u64,
    secs: f64,
    events_per_sec: f64,
    /// `Some` only for default-policy rows (POP's fit work would dominate
    /// the measurement and boundary fits allocate by design).
    allocs_per_event: Option<f64>,
    alloc_events_measured: Option<u64>,
}

fn main() {
    // The alloc pin is about the engine loop itself; the journal is pure
    // output but its appends allocate, so measure without one.
    std::env::remove_var("HYPERDRIVE_JOURNAL");
    let quick = quick_mode();

    let default_grid: &[usize] =
        if quick { &[32, 256, 2048] } else { &[32, 256, 2048, 10_000, 50_000] };
    // POP's per-boundary fit work scales with jobs, so its grid stops
    // earlier; the free-set and command-buffer claims are policy-agnostic
    // and the default-policy grid carries the 10k/50k points.
    let pop_grid: &[usize] = if quick { &[32, 256] } else { &[32, 256, 2048] };
    let reps = if quick { 2 } else { 3 };
    let mut rows = Vec::new();
    let mut zero_alloc = true;
    for &machines in default_grid {
        let (events, secs, _) = timed_best(|| Box::new(DefaultPolicy::new()), machines, reps);
        let (allocs, measured) = steady_state_allocs(machines);
        zero_alloc &= allocs == 0;
        rows.push(Row {
            policy: "default",
            machines,
            events,
            secs,
            events_per_sec: events as f64 / secs.max(1e-12),
            allocs_per_event: Some(allocs as f64 / measured.max(1) as f64),
            alloc_events_measured: Some(measured),
        });
    }
    for &machines in pop_grid {
        // One repetition: POP's boundary fits dominate its wall time and
        // the fit cache would answer later repetitions anyway.
        let (events, secs, _) = timed_best(
            || {
                Box::new(PopPolicy::with_config(PopConfig {
                    predictor: PredictorConfig::test(),
                    boundary: Some(4),
                    fit_threads: harness_fit_threads(),
                    ..Default::default()
                }))
            },
            machines,
            1,
        );
        rows.push(Row {
            policy: "pop",
            machines,
            events,
            secs,
            events_per_sec: events as f64 / secs.max(1e-12),
            allocs_per_event: None,
            alloc_events_measured: None,
        });
    }
    assert!(zero_alloc, "steady-state sim loop allocated");

    // ---- Machine-count invariance: same study, two cluster sizes, one
    // trace. POP is excluded by construction (its slot budget is
    // `alive_count`, which depends on cluster size).
    let h32 = invariance_hash(32);
    let h2048 = invariance_hash(2048);
    let invariant = h32 == h2048;
    assert!(invariant, "default-policy trace changed with cluster size: {h32:x} vs {h2048:x}");

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                r.machines.to_string(),
                r.events.to_string(),
                format!("{:.3}", r.secs),
                format!("{:.0}", r.events_per_sec),
                r.allocs_per_event.map_or("-".into(), |a| format!("{a:.4}")),
            ]
        })
        .collect();
    print_table(
        "sim_scale: event-loop throughput vs cluster capacity",
        &["policy", "machines", "events", "secs", "events/sec", "allocs/event"],
        &table,
    );
    println!("\nmachine-count invariance (32 vs 2048 machines): {invariant}");

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"    {{"policy": "{}", "machines": {}, "events": {}, "secs": {:.4}, "events_per_sec": {:.1}, "allocs_per_event": {}, "alloc_events_measured": {}}}"#,
                r.policy,
                r.machines,
                r.events,
                r.secs,
                r.events_per_sec,
                r.allocs_per_event.map_or("null".into(), |a| format!("{a:.6}")),
                r.alloc_events_measured.map_or("null".into(), |m| m.to_string()),
            )
        })
        .collect();
    let path = results_dir().join("BENCH_sim_scale.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        r#"{{
  "quick": {quick},
  "epochs_per_job": {EPOCHS},
  "jobs_per_machine": 2,
  "rows": [
{rows}
  ],
  "machine_invariant_hash_match": {invariant},
  "steady_state_zero_alloc": {zero_alloc}
}}
"#,
        rows = json_rows.join(",\n"),
    )
    .expect("json write");
    println!("wrote {}", path.display());
}
