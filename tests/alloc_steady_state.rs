//! Counting-allocator pin for the discrete-event spine: once every job has
//! started and recorded its first statistic, stepping the simulator
//! performs **zero heap allocations per event** — the non-fit analogue of
//! the existing 0-allocs/MCMC-step pin on the fit hot path.
//!
//! The pin runs the steady-state loop three ways: under the default FIFO
//! policy, and under full POP with its fit service at 1 and at 4 worker
//! threads (the policy's boundary is pushed past the epoch cap so the loop
//! stays on the non-fit path — boundary fits allocate by design and have
//! their own benches). Every reservation in the chain is exercised: the
//! engine's pre-sized command buffer, event log, curve maps, and
//! outstanding-token table; the stepper's pre-sized future-event heap; and
//! the O(log n) ResourceManager free-set, which never allocates after
//! construction.
//!
//! A fourth arm drives the other half of the spine — suspend, snapshot,
//! resume — and pins it in allocated bytes per event (see
//! `churn_path_allocations`).
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{
    DefaultPolicy, EngineEvent, ExperimentSpec, ExperimentWorkload, JobDecision, JobEvent,
    SchedulerContext, SchedulerEvent, SchedulingPolicy,
};
use hyperdrive_sim::Simulation;
use hyperdrive_workload::CifarWorkload;

/// Counts allocation events (alloc + realloc) and the bytes they newly
/// asked for (a realloc counts its growth), process-wide.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
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

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

const JOBS: usize = 8;
const EPOCHS: u32 = 50;

/// Blocks until every other thread of this process is asleep in the
/// kernel. A fit-pool worker allocates while it starts up and inside its
/// first blocking `recv` (the channel's per-thread context), and on a busy
/// host it can be scheduled that late that those allocations land inside
/// a measured stretch of the process-wide counter. A thread that was
/// created but has not run yet is runnable (`R`), never sleeping (`S`);
/// once all are `S` the workers are parked on their queue and stay there,
/// because the measured stretch sends them nothing. Off Linux there is no
/// `/proc` to ask and this returns at once.
fn wait_until_other_threads_are_parked() {
    let Ok(me) = std::fs::read_link("/proc/thread-self") else { return };
    let me = me.file_name().expect("/proc/thread-self names a task").to_owned();
    let all_parked = || {
        std::fs::read_dir("/proc/self/task").expect("a process lists its tasks").all(|task| {
            let task = task.expect("task entry readable");
            // A task can exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { return true };
            // `pid (comm) state ...`: the state follows the last `)`.
            task.file_name() == me || stat.rsplit(')').next().is_some_and(|s| s.starts_with(" S"))
        })
    };
    // Two sightings in a row: a thread caught asleep on a lock another
    // thread held for an instant is runnable again by the second.
    while !(all_parked() && all_parked()) {
        std::thread::yield_now();
    }
}

/// Drives one full-cluster run (jobs == machines, so every job starts at
/// t=0 and steady state begins after the first wave of epoch completions)
/// and returns `(alloc_events, events_measured)` over the post-warmup
/// stretch.
fn steady_state_allocs(policy: &mut dyn SchedulingPolicy) -> (u64, u64) {
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let ew = ExperimentWorkload::from_workload(&w, JOBS, 11);
    let spec = ExperimentSpec::new(JOBS).with_seed(7).with_stop_on_target(false);
    let mut sim = Simulation::new(policy, &ew, spec);
    // Warmup: the first two epochs of every job cover each job's first
    // `record_stat` (which creates its pre-sized curve) and warm the
    // reusable command buffer to the largest batch.
    for _ in 0..2 * JOBS {
        sim.step().expect("workload outlasts warmup");
    }
    wait_until_other_threads_are_parked();
    let before = alloc_events();
    let mut measured = 0u64;
    while sim.step().is_some() {
        measured += 1;
    }
    (alloc_events() - before, measured)
}

/// The churn rule: suspend a job at every 5th epoch while idle jobs wait.
struct ChurnPolicy;

impl SchedulingPolicy for ChurnPolicy {
    fn name(&self) -> &str {
        "churn"
    }
    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        if event.epoch.is_multiple_of(5) && ctx.idle_job_count() > 0 {
            JobDecision::Suspend
        } else {
            JobDecision::Continue
        }
    }
}

/// The suspend → snapshot → resume path, with twice as many jobs as
/// machines so every machine is always contended. Unlike the
/// reserve/release arms this path appends to the run's telemetry (one
/// `SuspendEvent` and two log records per cycle), so it is pinned in
/// allocated bytes per event rather than at zero events; the snapshot
/// store's own claim is pinned separately: once a job owns a snapshot
/// buffer, suspending it again and resuming it allocate nothing.
fn churn_path_allocations() {
    const CHURN_JOBS: usize = 2 * JOBS;
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let ew = ExperimentWorkload::from_workload(&w, CHURN_JOBS, 11);
    let spec = ExperimentSpec::new(JOBS).with_seed(7).with_stop_on_target(false);
    let mut policy = ChurnPolicy;
    let mut sim = Simulation::new(&mut policy, &ew, spec);
    // Warmup: two run-5-epochs-then-suspend cycles per job, so every job
    // has started, created its curve and taken its first snapshot.
    for _ in 0..12 * CHURN_JOBS {
        sim.step().expect("workload outlasts warmup");
    }
    let warm_until = sim.now();
    let mut steps = Vec::with_capacity(2 * CHURN_JOBS * EPOCHS as usize);
    let bytes_before = alloc_bytes();
    let mut last = alloc_events();
    while let Some(step) = sim.step() {
        let now = alloc_events();
        steps.push((step, now - last));
        last = now;
    }
    let bytes = alloc_bytes() - bytes_before;
    let result = sim.finish();

    let suspended_at =
        |job, time| result.suspend_events.iter().any(|s| s.job == job && s.requested_at == time);
    let warmed =
        |job| result.suspend_events.iter().any(|s| s.job == job && s.requested_at <= warm_until);
    assert!(ew.jobs.iter().all(|j| warmed(j.job)), "warmup covers every job's first suspend");
    assert!(steps.len() > CHURN_JOBS * EPOCHS as usize / 2, "measured {} events", steps.len());
    let per_event = bytes as f64 / steps.len() as f64;
    assert!(per_event <= 64.0, "churn: {per_event:.1} allocated bytes/event");

    // The steps that suspended a job again or resumed one. The only
    // allocation such a step may see is a telemetry vector doubling under
    // it, which can happen at most log2(len) times in a whole run — so all
    // but that many must be allocation-free. (Encoding into a fresh buffer
    // would make every one of them allocate.)
    let resumed_at: Vec<_> = result
        .events
        .events()
        .iter()
        .filter_map(|e| match e {
            SchedulerEvent::Started { time, resumed: true, .. } => Some(*time),
            _ => None,
        })
        .collect();
    let snapshot_steps: Vec<u64> = steps
        .iter()
        .filter(|(step, _)| {
            matches!(step.event, EngineEvent::EpochDone { job, .. } if suspended_at(job, step.time))
                || resumed_at.contains(&step.time)
        })
        .map(|&(_, allocs)| allocs)
        .collect();
    let doublings = |len: usize| (usize::BITS - len.leading_zeros()) as usize;
    let telemetry_growth = doublings(result.suspend_events.len()) + doublings(result.events.len());
    let allocating = snapshot_steps.iter().filter(|&&allocs| allocs > 0).count();
    assert!(snapshot_steps.len() >= 10 * telemetry_growth, "{} steps", snapshot_steps.len());
    assert!(
        allocating <= telemetry_growth,
        "churn: {allocating} of {} re-suspend/resume steps allocated",
        snapshot_steps.len()
    );
}

#[test]
fn steady_state_event_loop_is_allocation_free() {
    // The default FIFO policy: the bare engine + stepper path.
    let mut default_policy = DefaultPolicy::new();
    let (allocs, events) = steady_state_allocs(&mut default_policy);
    assert!(events > u64::from(EPOCHS), "measured a real steady-state stretch ({events} events)");
    assert_eq!(allocs, 0, "default policy: {allocs} allocs over {events} steady-state events");

    // Full POP with a live fit service at 1 and 4 worker threads. The
    // boundary sits past the epoch cap so no fit point is ever reached:
    // this is the per-event policy path (early boundary check, decision
    // plumbing, allocate_jobs) with the whole fit stack instantiated.
    for fit_threads in [1usize, 4] {
        let mut pop = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            boundary: Some(u32::MAX),
            fit_threads,
            ..Default::default()
        });
        let (allocs, events) = steady_state_allocs(&mut pop);
        assert!(events > u64::from(EPOCHS), "measured a real stretch ({events} events)");
        assert_eq!(
            allocs, 0,
            "POP ({fit_threads} fit threads): {allocs} allocs over {events} steady-state events"
        );
    }

    churn_path_allocations();
}
