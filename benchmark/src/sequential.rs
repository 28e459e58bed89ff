//! The four workloads that run simulated experiments one after another:
//! `pop_cifar`, `lunar_mix`, `spine_default` and `spine_churn`.
//!
//! A *unit* is one experiment run under each of the workload's policies.
//! Units cycle through a fixed list of hyperparameter sets; `--seed`
//! drives training noise and the executor and policy seeds, the way the
//! paper repeats an experiment (§6.1: same configurations, fresh training
//! noise). Unit `i` and unit `i + cycle` are therefore the same
//! experiment, which is what lets a time-bounded run report medians over
//! units that do not depend on how many units fitted into the time.

use std::time::{Duration, Instant};

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload, SchedulingPolicy};
use hyperdrive_policies::{EarlyTermConfig, EarlyTermPolicy};
use hyperdrive_types::SimTime;
use hyperdrive_workload::{CifarWorkload, LunarWorkload, Workload};

use crate::host::{cpu_seconds, peak_rss_mb};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::policy::{Capture, ChurnPolicy, Probe, TracedPolicy, CORE, POLICIES};
use crate::replay::{queue_pair_ns, rm_pair_ns, snapshot_codec_us, Replay};
use crate::report::{write_trace, Checks, Outcome};
use crate::simrun::{drive_plain, drive_stepped, SimRun};
use crate::spans::{Span, Totals, NO_PARENT};
use crate::stats::{mean, median, Samples};
use crate::RunArgs;

/// Times set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// A policy a unit runs its experiment under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `PopPolicy` at `PopConfig::default()`.
    Pop,
    /// `EarlyTermPolicy` at `EarlyTermConfig::default()`.
    EarlyTerm,
    /// The framework's `DefaultPolicy`.
    Default,
    /// The benchmark's [`ChurnPolicy`].
    Churn,
}

/// The fixed shape of one sequential workload.
#[derive(Debug)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Generator seeds of the hyperparameter sets one cycle runs through.
    pub config_sets: &'static [u64],
    /// LunarLander rather than CIFAR-10 curves.
    pub lunar: bool,
    /// Configurations per experiment.
    pub jobs: usize,
    /// Cluster size.
    pub machines: usize,
    /// `Tmax` in simulated hours.
    pub tmax_h: f64,
    /// Stop at the first job reaching the target.
    pub stop_on_target: bool,
    /// Policies each unit runs, in order, on the same experiment.
    pub policies: &'static [PolicyKind],
    /// Steps between two recorded steps in the traced pass: 1 where steps
    /// are dominated by fits, sparse where a step is half a microsecond.
    pub trace_stride: u64,
}

/// Fig. 7's POP arm: 100 CIFAR-10 configurations on 4 machines, 48 h.
pub const POP_CIFAR: Shape = Shape {
    name: "pop_cifar",
    // Set 1 is skipped only because its study alone takes 2 s, and unit 0
    // runs four times per invocation (three set-ups, then timed).
    config_sets: &[2, 3, 4, 5, 6, 7, 8, 9],
    lunar: false,
    jobs: 100,
    machines: 4,
    tmax_h: 48.0,
    stop_on_target: true,
    policies: &[PolicyKind::Pop],
    trace_stride: 1,
};

/// Fig. 9's setting under both curve-model policies: 100 LunarLander
/// configurations on 15 machines, 24 h.
pub const LUNAR_MIX: Shape = Shape {
    name: "lunar_mix",
    config_sets: &[2, 3, 4, 5],
    lunar: true,
    jobs: 100,
    machines: 15,
    tmax_h: 24.0,
    stop_on_target: true,
    policies: &[PolicyKind::Pop, PolicyKind::EarlyTerm],
    trace_stride: 1,
};

/// Hours no spine run reaches: the spine workloads drain every job.
const NO_TMAX_H: f64 = 1.0e6;

/// The reserve/release half of the spine at 10 000 machines.
pub const SPINE_DEFAULT: Shape = Shape {
    name: "spine_default",
    config_sets: &[1],
    lunar: false,
    jobs: 20_000,
    machines: 10_000,
    tmax_h: NO_TMAX_H,
    stop_on_target: false,
    policies: &[PolicyKind::Default],
    trace_stride: 128,
};

/// The suspend/resume/terminate half of the spine at 1 000 machines.
pub const SPINE_CHURN: Shape = Shape {
    name: "spine_churn",
    config_sets: &[1],
    lunar: false,
    jobs: 2_000,
    machines: 1_000,
    tmax_h: NO_TMAX_H,
    stop_on_target: false,
    policies: &[PolicyKind::Churn],
    trace_stride: 32,
};

impl Shape {
    /// Whether units make boundary decisions with the curve model.
    fn fits_curves(&self) -> bool {
        self.policies.iter().any(|p| matches!(p, PolicyKind::Pop | PolicyKind::EarlyTerm))
    }

    /// Epochs a job of this workload trains if never stopped.
    fn max_epochs(&self) -> u32 {
        if self.lunar {
            LunarWorkload::new().max_epochs()
        } else {
            CifarWorkload::new().max_epochs()
        }
    }

    /// The seed of everything but the hyperparameter set for `unit`.
    fn noise_seed(&self, seed: u64, unit: usize) -> u64 {
        self.config_sets[unit % self.config_sets.len()] + 1000 * seed
    }

    /// Generates unit `unit`'s experiment from `seed`.
    fn generate(&self, seed: u64, unit: usize) -> (ExperimentWorkload, ExperimentSpec) {
        let config_seed = self.config_sets[unit % self.config_sets.len()];
        let noise_seed = self.noise_seed(seed, unit);
        let experiment = if self.lunar {
            let w = LunarWorkload::new();
            ExperimentWorkload::from_workload_with_noise(&w, self.jobs, config_seed, noise_seed)
        } else {
            let w = CifarWorkload::new();
            ExperimentWorkload::from_workload_with_noise(&w, self.jobs, config_seed, noise_seed)
        };
        let spec = ExperimentSpec::new(self.machines)
            .with_tmax(SimTime::from_hours(self.tmax_h))
            .with_seed(noise_seed)
            .with_stop_on_target(self.stop_on_target);
        (experiment, spec)
    }
}

/// Counters read from a policy's public accessors after its run.
#[derive(Debug, Clone, Copy, Default)]
struct FitLayer {
    fits: u64,
    batches: u64,
    local_hits: u64,
    shared_hits: u64,
    shared_lookups: u64,
    shared_inserts: u64,
    batched_fits: u64,
    warm_fits: u64,
    spec_speculated: u64,
    spec_adopted: u64,
    earlyterm_fits: u64,
    pool_busy_s: f64,
    pool_stall_s: f64,
    /// Worker threads × pool uptime, summed over policies.
    pool_capacity_s: f64,
}

impl FitLayer {
    fn of_pop(pop: &PopPolicy) -> Self {
        let (fit, spec, pool) = (pop.fit_stats(), pop.spec_stats(), pop.pool_stats());
        FitLayer {
            fits: fit.fits,
            batches: fit.batches,
            local_hits: fit.cache_hits,
            shared_hits: fit.shared_hits,
            shared_lookups: fit.shared_lookups,
            shared_inserts: fit.shared_inserts,
            batched_fits: fit.batched_fits,
            warm_fits: fit.warm_fits,
            spec_speculated: spec.speculated,
            spec_adopted: spec.adopted,
            earlyterm_fits: 0,
            pool_busy_s: pool.busy_secs,
            pool_stall_s: pool.stall_secs,
            pool_capacity_s: pool.uptime_secs * pool.threads as f64,
        }
    }
}

/// One policy's run within a unit.
#[derive(Debug)]
struct PolicyRun {
    kind: PolicyKind,
    run: SimRun,
    layer: FitLayer,
    spans: Vec<Span>,
    captures: Vec<Capture>,
}

fn run_policy(
    shape: &Shape,
    kind: PolicyKind,
    experiment: &ExperimentWorkload,
    spec: ExperimentSpec,
    seed: u64,
    unit: usize,
    traced: bool,
) -> PolicyRun {
    let probe = Probe::new(unit as u32);
    let stride = traced.then_some(shape.trace_stride);
    let rule = |policy: &mut dyn SchedulingPolicy| {
        if traced {
            drive_stepped(policy, &probe, stride, experiment, spec)
        } else {
            drive_plain(policy, experiment, spec)
        }
    };
    let (run, layer) = match kind {
        PolicyKind::Pop => {
            let pop = PopPolicy::with_config(PopConfig { seed, ..Default::default() });
            let mut wrapped = TracedPolicy::new(pop, probe.clone(), &CORE, traced, seed);
            let run = drive_stepped(&mut wrapped, &probe, stride, experiment, spec);
            (run, FitLayer::of_pop(&wrapped.into_inner()))
        }
        PolicyKind::EarlyTerm => {
            let et = EarlyTermPolicy::with_config(EarlyTermConfig { seed, ..Default::default() });
            let mut wrapped = TracedPolicy::new(et, probe.clone(), &POLICIES, traced, seed);
            let run = drive_stepped(&mut wrapped, &probe, stride, experiment, spec);
            let fits = run.fit.map_or(0, |f| f.fits);
            (run, FitLayer { fits, earlyterm_fits: fits, ..Default::default() })
        }
        // The rule policies make no model decisions to flag, so their
        // timed pass runs bare through `run_sim`. Their traced pass records
        // sampled steps but no up-call spans: five spans inside a step of
        // half a microsecond would triple it, and these policies' up-calls
        // are framework work done through the context anyway.
        PolicyKind::Default => (rule(&mut DefaultPolicy::new()), FitLayer::default()),
        PolicyKind::Churn => (rule(&mut ChurnPolicy::new(seed)), FitLayer::default()),
    };
    let spans = probe.tracer().take();
    PolicyRun { kind, run, layer, spans, captures: probe.take_captures() }
}

/// One unit: the experiment run under every policy of the shape.
#[derive(Debug)]
struct Unit {
    runs: Vec<PolicyRun>,
}

impl Unit {
    fn run(
        shape: &Shape,
        inputs: &(ExperimentWorkload, ExperimentSpec),
        seed: u64,
        unit: usize,
        traced: bool,
    ) -> Unit {
        let noise_seed = shape.noise_seed(seed, unit);
        let runs = shape
            .policies
            .iter()
            .map(|&kind| run_policy(shape, kind, &inputs.0, inputs.1, noise_seed, unit, traced))
            .collect();
        Unit { runs }
    }

    fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.run.wall_s).sum()
    }

    fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.run.events).sum()
    }

    /// One digest over every policy's run.
    fn hash(&self) -> u64 {
        self.runs.iter().fold(0, |h, r| h.rotate_left(17) ^ r.run.hash)
    }

    /// Simulated hours until the unit's first policy stopped (POP on the
    /// study workloads).
    fn stop_h(&self) -> f64 {
        self.runs[0].run.stop_h
    }

    fn decisions(&self) -> usize {
        self.runs.iter().map(|r| r.run.decision_ms.len()).sum()
    }

    /// Built-in checks on one timed unit.
    fn check(&self, shape: &Shape, unit: usize, checks: &mut Checks) {
        for r in &self.runs {
            checks.expect(r.run.epochs_consistent, || {
                format!("unit {unit} {:?}: total_epochs != sum of job epochs", r.kind)
            });
            if !shape.stop_on_target && r.kind == PolicyKind::Default {
                let want = shape.jobs as u64 * u64::from(shape.max_epochs());
                checks.expect(r.run.total_epochs == want, || {
                    format!("unit {unit}: {} epochs, expected {want}", r.run.total_epochs)
                });
            }
            if r.kind == PolicyKind::Pop {
                checks.expect(r.run.reached, || format!("unit {unit}: POP missed the target"));
            }
        }
    }
}

/// Runs one sequential workload for `args.seconds`.
pub fn run(shape: &Shape, args: &RunArgs) -> Outcome {
    let cycle = shape.config_sets.len();
    let mut checks = Checks::default();

    // Set-up: generate unit 0's inputs and run it once, untimed, so page
    // faults, lazy statics and allocator growth are paid before timing.
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs: Vec<Option<(ExperimentWorkload, ExperimentSpec)>> = vec![None; cycle];
    let mut warm_hash = 0;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let generated = shape.generate(args.seed, 0);
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        warm_hash = Unit::run(shape, &generated, args.seed, 0, false).hash();
        setup_s.push(t.elapsed().as_secs_f64());
        inputs[0] = Some(generated);
    }

    // Timed units, at least one full cycle, until the time is up. The
    // traced pass runs every unit twice, untraced then traced, so tracing
    // overhead is a paired comparison on identical inputs.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let cpu_before = cpu_seconds();
    let mut units: Vec<Unit> = Vec::new();
    let mut traced: Vec<Unit> = Vec::new();
    let mut replayed = Replay::default();
    while units.len() < cycle || start.elapsed() < budget {
        let i = units.len();
        let slot = &mut inputs[i % cycle];
        let generated = slot.get_or_insert_with(|| shape.generate(args.seed, i));
        let unit = Unit::run(shape, generated, args.seed, i, false);
        unit.check(shape, i, &mut checks);
        if i == 0 {
            checks.expect(unit.hash() == warm_hash, || {
                "unit 0: timed run differs from its warm-up run".to_string()
            });
        }
        if args.trace {
            let twin = Unit::run(shape, generated, args.seed, i, true);
            checks.expect(twin.hash() == unit.hash(), || {
                format!("unit {i}: traced run differs from the untraced run")
            });
            for r in &twin.runs {
                replayed.add(&r.captures, PopConfig::default().predictor);
            }
            traced.push(twin);
        }
        units.push(unit);
    }
    let cpu_s = cpu_seconds() - cpu_before;

    let mut notes = vec![
        format!("units {} (cycle {cycle}), decisions {}", units.len(), {
            units.iter().map(Unit::decisions).sum::<usize>()
        }),
        format!("nproc {}", std::thread::available_parallelism().map_or(1, |n| n.get())),
    ];
    let metrics = if args.trace {
        per_layer(shape, args, &units, &traced, &replayed, &generate_ms, &mut notes)
    } else {
        end_to_end(shape, &units, &setup_s, cpu_s, &mut notes)
    };
    Outcome { checks, metrics, notes }
}

fn end_to_end(
    shape: &Shape,
    units: &[Unit],
    setup_s: &[f64],
    cpu_s: f64,
    notes: &mut Vec<String>,
) -> MetricSet {
    let n = units.len();
    let mut m = MetricSet::zeroed(END_TO_END);
    m.set("setup_s", median(setup_s), setup_s.len());
    let per_unit = |f: &dyn Fn(&Unit) -> f64| -> Vec<f64> { units.iter().map(f).collect() };
    m.set("events_per_s", median(&per_unit(&|u| u.events() as f64 / u.wall_s())), n);
    // The operation a user waits for: a boundary decision where the policy
    // consults the curve model, a whole simulation where it never does.
    let latency = if shape.fits_curves() {
        Samples::new(
            units
                .iter()
                .flat_map(|u| &u.runs)
                .flat_map(|r| r.run.decision_ms.iter().copied())
                .collect(),
        )
    } else {
        Samples::new(per_unit(&|u| u.wall_s() * 1e3))
    };
    m.set("latency_ms_p50", latency.median(), latency.n());
    if let Some((p, v)) = latency.highest_tail() {
        notes.push(format!("latency_ms_p{p} {v:.4} (n {})", latency.n()));
    }
    // Process CPU time over the whole timed loop, all threads, per event.
    let events: u64 = units.iter().map(Unit::events).sum();
    m.set("cpu_us_per_event", cpu_s * 1e6 / events as f64, n);
    notes.push(format!("process high-water mark {:.1} MB", peak_rss_mb()));
    m
}

/// Durations of every span called `name` in `units`, in nanoseconds.
fn durations_ns(units: &[Unit], name: &str) -> Vec<f64> {
    units
        .iter()
        .flat_map(|u| &u.runs)
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

fn per_layer(
    shape: &Shape,
    args: &RunArgs,
    units: &[Unit],
    traced: &[Unit],
    replayed: &Replay,
    generate_ms: &[f64],
    notes: &mut Vec<String>,
) -> MetricSet {
    let cycle = shape.config_sets.len();
    let mut m = MetricSet::zeroed(PER_LAYER);

    // Counts and summed times cover the first cycle, which every run
    // completes, so they describe a fixed amount of work; percentiles use
    // every unit that ran.
    let first = &traced[..cycle];
    let first_runs = || first.iter().flat_map(|u| &u.runs);
    let all_runs = || traced.iter().flat_map(|u| &u.runs);
    let mut totals = Totals::default();
    for r in first_runs() {
        totals.add_unit(&r.spans);
    }
    // Fit-layer counters and seconds, summed over the first cycle.
    let count =
        |f: &dyn Fn(&FitLayer) -> u64| first_runs().map(|r| f(&r.layer)).sum::<u64>() as f64;
    let fit_secs = |f: &dyn Fn(&FitLayer) -> f64| first_runs().map(|r| f(&r.layer)).sum::<f64>();
    let secs = |ns: u64| ns as f64 / 1e9;
    let traced_wall: f64 = first.iter().map(Unit::wall_s).sum();
    let sum = |f: &dyn Fn(&PolicyRun) -> u64| -> f64 { first_runs().map(f).sum::<u64>() as f64 };
    let pop_only = |f: &dyn Fn(&SimRun) -> u64| -> f64 {
        first_runs().filter(|r| r.kind == PolicyKind::Pop).map(|r| f(&r.run)).sum::<u64>() as f64
    };

    // sim + framework: the spine. A recorded step is slower than an
    // unrecorded one by what recording costs (about 0.2 µs where the
    // recorder is cold between sparse samples); the difference between
    // the mean recorded step and the mean of all steps estimates that
    // cost, and the step percentiles are reported net of it.
    let recorded: Vec<f64> = all_runs()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name.starts_with("sim.step"))
        .map(|s| s.dur_ns() as f64)
        .collect();
    let mean_step_ns = all_runs().map(|r| r.run.loop_s).sum::<f64>() * 1e9
        / all_runs().map(|r| r.run.steps).sum::<u64>() as f64;
    let recording_ns = (mean(&recorded) - mean_step_ns).max(0.0);
    notes.push(format!("recording cost per recorded step {recording_ns:.0} ns"));
    m.set("sim.events", sum(&|r| r.run.events), cycle);
    let plain = Samples::new(durations_ns(traced, "sim.step"));
    m.set("sim.step_ns_p50", (plain.median() - recording_ns).max(0.0), plain.n());
    m.set("sim.queue_pair_ns", queue_pair_ns(shape.machines), 1);
    // Time in the stepping loop that no up-call span covers.
    let upcalls = totals.prefixed("core.").total_ns + totals.prefixed("policies.").total_ns;
    let loop_s: f64 = first_runs().map(|r| r.run.loop_s).sum();
    m.set("framework.engine_self_s", loop_s - secs(upcalls), sum(&|r| r.run.steps) as usize);
    let new = Samples::new(durations_ns(traced, "framework.engine_new"));
    m.set("framework.engine_new_ms", new.median() / 1e6, new.n());
    let finish = Samples::new(durations_ns(traced, "framework.finish"));
    m.set("framework.finish_ms", finish.median() / 1e6, finish.n());
    let csv: Vec<f64> = all_runs().map(|r| r.run.csv_ms).collect();
    m.set("framework.event_log_csv_ms", median(&csv), csv.len());
    let susp = Samples::new(durations_ns(traced, "sim.step.suspend_done"));
    if susp.n() > 0 {
        let net = (susp.median() - recording_ns).max(0.0);
        m.set("framework.suspend_step_us_p50", net / 1e3, susp.n());
    }
    let suspends = sum(&|r| r.run.suspends);
    m.set("framework.suspends", suspends, cycle);
    m.set("framework.terminations", sum(&|r| r.run.terminations), cycle);
    if suspends > 0.0 {
        let mean_bytes = sum(&|r| r.run.snapshot_bytes) / suspends;
        let history = shape.max_epochs() as usize / 2;
        let (encode, decode) = snapshot_codec_us(history, mean_bytes as usize);
        m.set("framework.snapshot_encode_us", encode, 64);
        m.set("framework.snapshot_decode_us", decode, 64);
        notes.push(format!("mean sampled snapshot {:.0} bytes", mean_bytes));
    }
    m.set("framework.rm_pair_ns", rm_pair_ns(10_000), 1);

    // core + curve + policies: the decision.
    let predictor = PopConfig::default().predictor;
    let core_upcalls = totals.prefixed("core.");
    let fit_ms = Samples::new(replayed.fit_ms.clone());
    let ert_ms = Samples::new(replayed.ert_ms.clone());
    m.set("core.upcall_s", secs(core_upcalls.total_ns), core_upcalls.count as usize);
    // Every prediction the policy consumed cost it one remaining-time
    // estimate; the replayed mean stands in for the ones not replayed.
    let pop_predictions = count(&|l| l.fits - l.earlyterm_fits + l.shared_hits);
    let ert_s = mean(&replayed.ert_ms) * pop_predictions / 1e3;
    let pool_stall_s = fit_secs(&|l| l.pool_stall_s);
    let core_self = secs(core_upcalls.total_ns) - pool_stall_s - ert_s;
    m.set("core.self_s", core_self.max(0.0), core_upcalls.count as usize);
    m.set("core.decisions", count(&|l| l.batches), cycle);
    let pop_twins =
        || units.iter().flat_map(|u| &u.runs).filter(|r| r.kind == PolicyKind::Pop).map(|r| &r.run);
    let pop_wall: f64 = pop_twins().map(|r| r.wall_s).sum();
    let decision_ms =
        Samples::new(pop_twins().flat_map(|r| r.decision_ms.iter().copied()).collect());
    if pop_wall > 0.0 {
        m.set("core.decisions_per_s", decision_ms.n() as f64 / pop_wall, decision_ms.n());
    }
    m.set("core.decision_ms_p50", decision_ms.median(), decision_ms.n());
    match decision_ms.tail(95.0) {
        Some(p95) => m.set("core.decision_ms_p95", p95, decision_ms.n()),
        None if decision_ms.n() > 0 => {
            notes.push(format!("core.decision_ms_p95 withheld: n {} too small", decision_ms.n()));
        }
        None => {}
    }
    if shape.policies.contains(&PolicyKind::Pop) {
        // Simulated, so it repeats exactly for a seed however fast the
        // host: the guard on what a numerics change does to scheduling.
        let hours: Vec<f64> = first.iter().map(Unit::stop_h).collect();
        m.set("core.time_to_target_h", median(&hours), cycle);
    }
    m.set("core.suspend_decisions", pop_only(&|r| r.suspends), cycle);
    m.set("core.terminate_decisions", pop_only(&|r| r.terminations), cycle);
    m.set("core.ert_ms_p50", ert_ms.median(), ert_ms.n());
    let allocate = replayed.allocate_slots_us(shape.jobs, shape.machines);
    m.set("core.allocate_slots_us", median(&allocate), allocate.len());

    m.set("curve.fits", count(&|l| l.fits), cycle);
    m.set("curve.batches", count(&|l| l.batches), cycle);
    m.set("curve.local_hits", count(&|l| l.local_hits), cycle);
    m.set("curve.shared_hits", count(&|l| l.shared_hits), cycle);
    m.set("curve.shared_lookups", count(&|l| l.shared_lookups), cycle);
    m.set("curve.shared_inserts", count(&|l| l.shared_inserts), cycle);
    let lookups = count(&|l| l.shared_lookups);
    if lookups > 0.0 {
        m.set("curve.shared_hit_rate", count(&|l| l.shared_hits) / lookups, lookups as usize);
    }
    m.set("curve.batched_fits", count(&|l| l.batched_fits), cycle);
    m.set("curve.warm_fits", count(&|l| l.warm_fits), cycle);
    m.set("curve.spec_speculated", count(&|l| l.spec_speculated), cycle);
    m.set("curve.spec_adopted", count(&|l| l.spec_adopted), cycle);
    let pool_busy_s = fit_secs(&|l| l.pool_busy_s);
    m.set("curve.pool_busy_s", pool_busy_s, cycle);
    m.set("curve.pool_stall_s", pool_stall_s, cycle);
    let pool_capacity_s = fit_secs(&|l| l.pool_capacity_s);
    if pool_capacity_s > 0.0 {
        m.set("curve.pool_idle_frac", (1.0 - pool_busy_s / pool_capacity_s).clamp(0.0, 1.0), cycle);
    }
    m.set("curve.fit_ms_p50", fit_ms.median(), fit_ms.n());
    match fit_ms.tail(95.0) {
        Some(p95) => m.set("curve.fit_ms_p95", p95, fit_ms.n()),
        None => {
            if let Some((p, v)) = fit_ms.highest_tail() {
                notes.push(format!("curve.fit_ms_p95 withheld: n {}; p{p} {v:.3}", fit_ms.n()));
            }
        }
    }
    m.set("curve.nm_init_ms_p50", median(&replayed.nm_init_ms), replayed.nm_init_ms.len());
    m.set("curve.mcmc_ms_p50", median(&replayed.mcmc_ms), replayed.mcmc_ms.len());
    m.set("curve.loglik_ns", median(&replayed.loglik_ns), replayed.loglik_ns.len());
    if shape.fits_curves() {
        // Computed, not counted: one likelihood evaluation per walker per
        // step, plus one per walker to score the initial ensemble.
        let evals = predictor.walkers * (predictor.steps + 1);
        m.set("curve.loglik_evals_per_fit", evals as f64, 1);
    }
    let q = &replayed.posterior_query_us;
    m.set("curve.posterior_query_us", median(q), q.len());
    m.set("curve.fingerprint_us", median(&replayed.fingerprint_us), replayed.fingerprint_us.len());
    m.set("curve.cache_get_us", median(&replayed.cache_get_us), replayed.cache_get_us.len());
    let ins = &replayed.cache_insert_us;
    m.set("curve.cache_insert_us", median(ins), ins.len());
    let et_upcalls = totals.prefixed("policies.");
    m.set("policies.earlyterm_upcall_s", secs(et_upcalls.total_ns), et_upcalls.count as usize);
    m.set("policies.earlyterm_fits", count(&|l| l.earlyterm_fits), cycle);
    m.set("workload.generate_ms", median(generate_ms), generate_ms.len());

    // bench: the measurement itself.
    m.set("bench.traced_wall_s", traced_wall, cycle);
    let ratios: Vec<f64> = traced.iter().zip(units).map(|(t, u)| t.wall_s() / u.wall_s()).collect();
    m.set("bench.trace_overhead_frac", median(&ratios) - 1.0, ratios.len());
    // Wall time outside engine construction, the stepping loop and
    // `finish`.
    let bracketed = |r: &PolicyRun| -> f64 {
        let outside_loop = |s: &&Span| s.parent == NO_PARENT && !s.name.starts_with("sim.");
        r.run.loop_s
            + r.spans.iter().filter(outside_loop).map(|s| s.dur_ns() as f64 / 1e9).sum::<f64>()
    };
    let attributed: f64 = first_runs().map(bracketed).sum();
    m.set("bench.unattributed_frac", (1.0 - attributed / traced_wall).max(0.0), cycle);
    // Replayed fits, scaled up to every fit of every traced unit, against
    // the time the pools' workers report having been busy; EarlyTerm fits
    // inline, so its up-call time stands in for a pool's busy time.
    let all_fits: u64 = all_runs().map(|r| r.layer.fits).sum();
    let busy_s: f64 = all_runs().map(|r| r.layer.pool_busy_s).sum();
    let inline_s: f64 = durations_ns(traced, POLICIES.finish).iter().sum::<f64>() / 1e9;
    if all_fits > 0 {
        let replay_s = mean(&replayed.fit_ms) * all_fits as f64 / 1e3;
        m.set("bench.replay_fit_ratio", replay_s / (busy_s + inline_s), fit_ms.n());
    }
    m.set("bench.peak_rss_mb", peak_rss_mb(), 1);

    // The first traced unit's spans, one policy's after another's, with
    // parent indices shifted to the joined list.
    let mut first_spans: Vec<Span> = Vec::new();
    for r in &traced[0].runs {
        let base = first_spans.len() as u32;
        first_spans.extend(r.spans.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + base },
            ..*s
        }));
    }
    match write_trace(shape.name, &args.host_json, &totals, &first_spans, &m) {
        Ok(path) => notes.push(format!("trace written to {}", path.display())),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
    m
}
