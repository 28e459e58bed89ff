//! Counting-allocator pins for the discrete-event spine and the fit path.
//! From the first epoch report after `Start` on — each job's first recorded
//! statistic included — stepping the simulator performs **zero heap
//! allocations per event**.
//!
//! The pin runs the steady-state loop three ways: under the default FIFO
//! policy, and under full POP with its fit service at 1 and at 4 worker
//! threads (the policy's boundary is pushed past the epoch cap so the loop
//! stays on the non-fit path — a boundary fit allocates its result by
//! design, and the fit arms below pin the rest). Every reservation in the
//! chain is exercised: the engine's pre-sized command buffer, event log,
//! AppStat DB time array, and outstanding-token table; the stepper's pre-sized
//! future-event heap; and the O(log n) ResourceManager free-set, which
//! never allocates after construction.
//!
//! A fourth arm drives the other half of the spine — suspend, snapshot,
//! resume — and pins it in allocated bytes per event (see
//! `churn_path_allocations`).
//!
//! The fit arms pin the fit path at zero allocations once its buffers are
//! sized: per MCMC run, per lockstep Nelder–Mead init, per boundary query
//! (`fit_path_allocations`), and per streamed run of kept rows of a
//! `fit_batch` that carries its query (`streamed_chunk_allocations`) —
//! handed to a worker, or run on the caller of a full pool, where the
//! batch allocates exactly the fit's own allocations and a fixed
//! bookkeeping count.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hyperdrive_core::{ert_query, estimate_remaining_time, PopConfig, PopPolicy};
use hyperdrive_curve::batch::MAX_SLOTS;
use hyperdrive_curve::fastpath::FastGrid;
use hyperdrive_curve::fit::{build_initial_walkers, fit_families, Decline};
use hyperdrive_curve::mcmc::{sample_into, McmcScratch, SamplerOptions};
use hyperdrive_curve::nelder_mead::{NelderMeadOptions, NmScratch};
use hyperdrive_curve::vmath;
use hyperdrive_curve::{
    CurveObjective, CurvePredictor, ExceedanceQuery, FitPool, FitRequest, FitScratch, FitService,
    FusedPosterior, FusedScratch, PredictorConfig, ALL_FAMILIES,
};
use hyperdrive_framework::{
    DefaultPolicy, EngineEvent, ExperimentSpec, ExperimentWorkload, JobDecision, JobEvent,
    SchedulerContext, SchedulerEvent, SchedulingPolicy,
};
use hyperdrive_sim::Simulation;
use hyperdrive_types::{JobId, LearningCurve, MetricKind, SimTime};
use hyperdrive_workload::{CifarWorkload, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts allocation events (alloc + realloc) and the bytes they newly
/// asked for (a realloc counts its growth), process-wide, and the events
/// of each thread on their own.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator never allocates.
    static THREAD_ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
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

fn thread_alloc_events() -> u64 {
    THREAD_ALLOC_EVENTS.with(Cell::get)
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
    // Warmup: one epoch report. `Start` filled the engine's pre-sized
    // command buffer with the largest batch and swapped it into the
    // driver; this first report gives the other buffer its capacity. Every
    // other job's first report — its first `record_stat` — is measured.
    sim.step().expect("workload outlasts warmup");
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
    // has started and taken its first snapshot.
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

const HORIZON: u32 = 120;

/// A CIFAR configuration's curve observed for its first 20 epochs.
fn cifar_curve() -> LearningCurve {
    let workload = CifarWorkload::new();
    let config = workload.space().sample(&mut StdRng::seed_from_u64(1));
    let profile = workload.profile(&config, 100);
    let mut curve = LearningCurve::new(MetricKind::Accuracy);
    let mut elapsed = 0.0;
    for e in 1..=20 {
        elapsed += profile.epoch_duration(e).as_secs();
        curve.push(e, SimTime::from_secs(elapsed), profile.value_at(e));
    }
    curve
}

/// Runs `pass` twice and returns the allocations this thread made in the
/// second: the first sizes every buffer the pass reuses. Both passes must
/// return the same.
fn warm_then_count<T: PartialEq + Debug>(mut pass: impl FnMut() -> T) -> u64 {
    let warm = pass();
    let before = thread_alloc_events();
    let counted = pass();
    let allocs = thread_alloc_events() - before;
    assert_eq!(warm, counted, "a repeated pass changed its result");
    allocs
}

/// The three stages of a fit, each on this thread with the buffers its
/// owner reuses: the sampler (`sample_into` on the fused posterior, exactly
/// as `fit_with` drives it), the lockstep Nelder–Mead init (the fit's 33
/// starts through `minimize_all` and the arena's least-squares objective),
/// and a boundary decision's queries on a fitted posterior (POP's
/// remaining-time estimate, EarlyTerm's single-epoch probability). Once
/// its buffers are sized, each allocates nothing.
fn fit_path_allocations() {
    let config = PredictorConfig::test();
    let curve = cifar_curve();
    let mut grid = FastGrid::new();
    for p in curve.points() {
        grid.push(f64::from(p.epoch));
    }
    grid.push(f64::from(HORIZON));
    let ys: Vec<f64> = curve.points().iter().map(|p| p.value).collect();
    let (mut nm, mut fused) = (NmScratch::default(), FusedScratch::default());
    let mut eval = FusedPosterior::new(&grid, &ys, &mut fused, vmath::active_backend());
    let mut rng = StdRng::seed_from_u64(7);
    let fits = fit_families(&mut eval, &mut rng, &mut nm, &mut Decline);
    let init = build_initial_walkers(&fits, config.walkers, &mut rng);

    let opts = SamplerOptions {
        steps: config.steps,
        burn_in_frac: config.burn_in_frac,
        thin: config.thin,
        stretch: 2.0,
    };
    let mut mcmc = McmcScratch::default();
    let allocs = warm_then_count(|| {
        let score = |t: &[f64], lp: &mut [f64]| eval.log_posteriors(t, lp);
        let mut rng = StdRng::seed_from_u64(11);
        sample_into(score, &init, opts, config.max_draws, &mut rng, &mut mcmc, |_, _| {}).to_bits()
    });
    let proposals = config.steps * config.walkers;
    assert_eq!(allocs, 0, "MCMC: {allocs} allocs over {proposals} proposals");

    let starts: Vec<(usize, Vec<f64>)> = ALL_FAMILIES
        .iter()
        .enumerate()
        .flat_map(|(k, family)| {
            let random = |rng: &mut StdRng| -> Vec<f64> {
                family.bounds().iter().map(|(lo, hi)| rng.gen_range(*lo..*hi)).collect()
            };
            [(k, family.default_params().to_vec()), (k, random(&mut rng)), (k, random(&mut rng))]
        })
        .collect();
    let allocs = warm_then_count(|| {
        nm.begin(NelderMeadOptions { max_evals: 300, ..Default::default() });
        for (k, x0) in &starts {
            nm.push_start(*k, x0);
        }
        nm.minimize_all(|families, points, out| eval.least_squares(families, points, out));
        (0..starts.len()).map(|run| nm.evals(run)).sum::<usize>()
    });
    assert_eq!(allocs, 0, "Nelder–Mead: {allocs} allocs over a {}-start init", starts.len());

    let posterior = CurvePredictor::new(config.with_seed(7)).fit(&curve, HORIZON).expect("fit ok");
    let allocs = warm_then_count(|| {
        let est = estimate_remaining_time(
            &posterior,
            0.77,
            HORIZON - posterior.last_epoch(),
            SimTime::from_secs(60.0),
            SimTime::from_hours(5.0),
        );
        (est.confidence + posterior.prob_at_least(HORIZON, 0.77)).to_bits()
    });
    assert_eq!(allocs, 0, "queries: {allocs} allocs for one estimate and one probability");
}

const WARM_BATCHES: u64 = 3;
const COUNTED_BATCHES: u64 = 10;

/// Fits `curve` as a fresh job per one-request batch on a one-worker
/// service at `config`, and returns the fewest allocations a counted batch
/// made on this thread (the caller) and on every other (the worker), and
/// the runs of kept rows each fit streamed. `on_caller` binds a second
/// service to the pool, which makes it full: the batch then fits on this
/// thread.
///
/// Counting per thread separates the two ways a batch's allocations vary
/// with timing. The worker's vary only by growth that happens once: a row
/// buffer the pool has no spare for because the caller has not absorbed
/// an earlier run yet (at most one per run of a fit, since every
/// buffer is back before the batch returns) and its scratch the first time
/// it runs an init half the caller left. That is fewer events than counted
/// batches, so some batch has none, and the minimum is exact. The
/// caller's vary by the same kind of growth and, in every batch, by one
/// allocation: the batch's reply channel takes a waker slot the first time
/// the caller parks on it, and whether it ever parks depends on how far
/// the worker has run ahead. So its minimum is exact to within that one
/// slot. A caller-run batch races nothing; its minimum only skips the
/// batches in which the per-run cache grew.
fn streamed_batch_allocs(
    curve: &LearningCurve,
    config: PredictorConfig,
    query: Option<ExceedanceQuery>,
    on_caller: bool,
) -> (u64, u64, u64) {
    let pool = FitPool::new(1);
    let _other = on_caller.then(|| FitService::new(config, 8, Arc::clone(&pool), None));
    let service = FitService::new(config, 7, Arc::clone(&pool), None);
    let (mut caller, mut worker) = (u64::MAX, u64::MAX);
    for job in 0..WARM_BATCHES + COUNTED_BATCHES {
        let request =
            FitRequest { job: JobId::new(job), curve: curve.clone(), horizon: HORIZON, query };
        let handed_off = pool.stats().demand_completions;
        let (all_before, mine_before) = (alloc_events(), thread_alloc_events());
        let outcome = service.fit_batch(&[request]).remove(0);
        let mine = thread_alloc_events() - mine_before;
        let others = alloc_events() - all_before - mine;
        assert_eq!(outcome.exceedance.is_some(), query.is_some());
        assert_eq!(outcome.result.expect("fit ok").n_draws(), config.max_draws);
        // A handed-off fit the caller took back before the worker woke ran
        // whole on this thread: not the split this counts.
        let worker_ran = pool.stats().demand_completions > handed_off;
        if job >= WARM_BATCHES && worker_ran != on_caller {
            caller = caller.min(mine);
            worker = worker.min(others);
        }
    }
    assert!(caller < u64::MAX, "no counted batch split its fit with the worker");
    let stats = service.stats();
    let streamed = if query.is_some() { WARM_BATCHES + COUNTED_BATCHES } else { 0 };
    assert_eq!(stats.streamed_fits, streamed);
    let fits_here = if on_caller { WARM_BATCHES + COUNTED_BATCHES } else { 0 };
    assert_eq!(pool.stats().caller_fits, fits_here);
    (caller, worker, stats.streamed_runs / streamed.max(1))
}

/// A fit that carries its query streams each retained snapshot's kept
/// rows to the waiting `fit_batch` in a row buffer the pool recycles, so a
/// longer stream allocates nothing more. The two streams keep the same 64
/// draws and differ only in how many snapshots they retain: every 12th of
/// the 12 post-burn-in steps (one snapshot, one run) or every 2nd (six
/// snapshots, six runs). They allocate the same on the worker, and on the
/// caller to within the reply channel's waker slot. Streaming costs the
/// worker nothing over a query-less fit, and the caller at most the
/// accumulator, its map entry and the answer vector (plus that slot).
///
/// On a full pool the same batches fit on the caller, and no other thread
/// allocates. There a fit allocates exactly what it allocates alone on a
/// warmed scratch — its init's walkers and its posterior's one draws
/// buffer, which the per-run cache and the outcome share rather than copy
/// — and the batch adds its fixed bookkeeping, [`CALLER_RUN_BATCH`]. Six
/// absorbed runs cost exactly what one does, and the query costs what it
/// costs the pooled caller.
fn streamed_chunk_allocations() {
    let curve = cifar_curve();
    let query = ert_query(20, HORIZON - 20, 0.77);
    let every = |thin| PredictorConfig { thin, max_draws: MAX_SLOTS, ..PredictorConfig::test() };
    let batches =
        |thin, query, on_caller| streamed_batch_allocs(&curve, every(thin), query, on_caller);
    let (one_caller, one_worker, one_runs) = batches(12, Some(query), false);
    let (six_caller, six_worker, six_runs) = batches(2, Some(query), false);
    let (plain_caller, plain_worker, _) = batches(2, None, false);
    assert_eq!((one_runs, six_runs), (1, 6), "runs streamed per fit");
    assert_eq!(six_worker, one_worker, "worker: six streamed runs vs one");
    assert_eq!(six_worker, plain_worker, "worker: six streamed runs vs a query-less fit");
    assert!(six_caller <= one_caller + 1, "caller: six runs {six_caller} vs one {one_caller}");
    assert!(
        six_caller <= plain_caller + 4,
        "caller: streamed {six_caller} vs query-less {plain_caller}"
    );

    let (one_here, one_elsewhere, one_runs) = batches(12, Some(query), true);
    let (six_here, six_elsewhere, six_runs) = batches(2, Some(query), true);
    let (plain_here, plain_elsewhere, _) = batches(2, None, true);
    assert_eq!((one_runs, six_runs), (1, 6), "runs absorbed per caller-run fit");
    assert_eq!((one_elsewhere, six_elsewhere, plain_elsewhere), (0, 0, 0), "a worker allocated");
    let mut scratch = FitScratch::default();
    let predictor = CurvePredictor::new(every(2).with_seed(3));
    let alone = warm_then_count(|| {
        let backend = vmath::active_backend();
        let posterior = predictor.fit_with_backend(&curve, HORIZON, &mut scratch, backend);
        posterior.expect("fit ok").acceptance_rate().to_bits()
    });
    assert_eq!(plain_here, alone + CALLER_RUN_BATCH, "caller-run: {plain_here} vs alone {alone}");
    assert_eq!(six_here, one_here, "caller-run: six absorbed runs vs one");
    assert_eq!(six_here - plain_here, one_caller - plain_caller, "caller-run: the query's cost");
    assert!(
        plain_here <= plain_caller + plain_worker,
        "caller-run {plain_here} vs handed off {plain_caller} + {plain_worker}"
    );
}

/// What a one-request batch that fits on its caller allocates besides the
/// fit: the outcome slots (which the returned outcomes reuse), the waiting
/// map and the key's index list, and the list of fresh fits. No reply
/// channel, no finished counter and no claim slots: those are made only
/// for a fit handed to the pool.
const CALLER_RUN_BATCH: u64 = 4;

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
        let mut pop = PopPolicy::new(
            PopConfig {
                predictor: PredictorConfig::test(),
                boundary: Some(u32::MAX),
                ..Default::default()
            },
            FitPool::new(fit_threads),
            None,
        );
        let (allocs, events) = steady_state_allocs(&mut pop);
        assert!(events > u64::from(EPOCHS), "measured a real stretch ({events} events)");
        assert_eq!(
            allocs, 0,
            "POP ({fit_threads} fit threads): {allocs} allocs over {events} steady-state events"
        );
    }

    churn_path_allocations();
    fit_path_allocations();
    streamed_chunk_allocations();
}
