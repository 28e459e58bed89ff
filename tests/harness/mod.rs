//! The differential harness: every way of running a study, against one
//! reference run, through `check_trace`.
//!
//! A fixed seed family of studies — CIFAR and Lunar workloads under
//! Default, Bandit, a chaos policy, POP and EarlyTerm, some under fault
//! plans, plus the two golden studies — runs under every [`Mode`] that
//! applies to its [`Group`]. Every case must reproduce the study's
//! reference run (the plain simulation at one fit thread, fit prefetch
//! pinned off) — and a golden study the committed file — and pass
//! `check_trace`; every study whose policy fits asserts `fits > 0`.
//!
//! A cell is one (mode, group) pair and one `#[test]` calling [`cell`], so
//! a failure names its cell and the test threads spread the cost. Most
//! cells live in `tests/differential.rs`; a cell that took over an earlier
//! test keeps that test's name and file, so the root test list only grows.

// Each test binary that includes this module calls some of it.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use hyperdrive::curve::{FitPool, PredictorConfig, SharedFitCache, SpecStats};
use hyperdrive::framework::testing::ChaosPolicy;
use hyperdrive::framework::{
    check_trace, run_meta, DefaultPolicy, EngineInput, ExperimentResult, ExperimentSpec,
    ExperimentWorkload, FaultConfig, FaultPlan, FitCacheSnapshot, Journal, RunSignature,
    SchedulingPolicy,
};
use hyperdrive::policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::Simulation;
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::SimTime;
use hyperdrive_server::{
    derive_study_seed, Server, ServerConfig, StudySpec, STREAM_EXECUTOR, STREAM_POLICY,
};

/// One `#[test]` per cell: `name: Group, Mode, ...;` runs each listed
/// [`Mode`]'s cell of that group.
macro_rules! cells {
    ($($name:ident: $group:ident $(, $mode:expr)+;)*) => {$(
        #[test]
        fn $name() {
            use harness::Mode::*;
            $(harness::cell($mode, harness::Group::$group);)+
        }
    )*};
}

/// A family of studies that share a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Default,
    Bandit,
    /// `hyperdrive_framework::testing::ChaosPolicy`.
    Chaos,
    /// POP at boundary 2, against a target most jobs can reach.
    Pop,
    /// EarlyTerm at boundary 3.
    EarlyTerm,
    /// The two golden POP studies, also held to `tests/golden/*.csv`.
    Golden,
}

/// One way of running a study.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// The reference run again.
    Rerun,
    /// At 2, 3 and 4 fit threads.
    Threads,
    /// Against a cold shared fit cache, then replayed from it at 4 fit
    /// threads: the replay refits nothing the cold run published.
    Cache,
    /// Fit prefetch on, at each of these fit-thread counts; the cell must
    /// speculate and adopt.
    Prefetch(&'static [usize]),
    /// Stepped input by input into a journal.
    Journaled,
    /// Killed at seed-drawn journal positions and resumed on a fresh
    /// policy (for the fitting groups: 2 fit threads, one shared cache
    /// across the kills, prefetch as given).
    Killed { prefetch: bool },
    /// Through `hyperdrive-server` at 1, 2 and 4 shards: every fault-free
    /// study submitted at once, then every twin under another tenant at
    /// once, which the cache must serve. A lone shard hands its fits to
    /// the pool; more shards fill it and fit on their own threads.
    Server,
}

/// One study of the seed family.
pub struct Study {
    /// Names the study in every failure.
    pub label: String,
    group: Group,
    workload: ExperimentWorkload,
    spec: ExperimentSpec,
    plan: FaultPlan,
    /// The study seed; the server derives the policy and executor seeds.
    seed: u64,
    policy_seed: u64,
    boundary: Option<u32>,
    golden: Option<&'static str>,
}

/// The knobs a mode turns.
#[derive(Clone)]
struct Knobs {
    fit_threads: usize,
    cache: Option<Arc<SharedFitCache>>,
    prefetch: bool,
}

/// The reference: one fit thread, nothing shared, prefetch pinned off.
const REFERENCE: Knobs = Knobs { fit_threads: 1, cache: None, prefetch: false };

/// One finished case; everything but `fits` and `spec` must match.
struct Case {
    signature: RunSignature,
    /// POP's rendered trace, posterior digest and predictions consumed.
    trace: Option<String>,
    digest: Option<u64>,
    predictions: Option<u64>,
    fits: FitCacheSnapshot,
    spec: SpecStats,
}

/// A policy a study built.
enum Built {
    Pop(Box<PopPolicy>),
    EarlyTerm(EarlyTermPolicy),
    Other(Box<dyn SchedulingPolicy>),
}

impl Built {
    fn policy(&mut self) -> &mut dyn SchedulingPolicy {
        match self {
            Built::Pop(p) => p.as_mut(),
            Built::EarlyTerm(p) => p,
            Built::Other(p) => p.as_mut(),
        }
    }
}

/// splitmix64: the seed family's one source of shapes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `lo..=hi` drawn from `r`.
fn pick(r: &mut u64, lo: u64, hi: u64) -> u64 {
    *r = mix(*r);
    lo + *r % (hi - lo + 1)
}

impl Study {
    /// The canonical golden study behind `tests/golden/<name>`.
    pub fn golden(name: &'static str) -> Study {
        let (workload, configs, seed, machines, hours): (Box<dyn Workload>, _, _, _, _) = match name
        {
            "cifar_trace.csv" => {
                (Box::new(CifarWorkload::new().with_max_epochs(40)), 12, 7, 4, 48.0)
            }
            "lunar_trace.csv" => {
                (Box::new(LunarWorkload::new().with_max_blocks(60)), 10, 11, 3, 200.0)
            }
            other => panic!("no golden study {other}"),
        };
        Study {
            label: format!("golden {name}"),
            group: Group::Golden,
            workload: ExperimentWorkload::from_workload(workload.as_ref(), configs, seed),
            spec: ExperimentSpec::new(machines)
                .with_stop_on_target(false)
                .with_tmax(SimTime::from_hours(hours)),
            plan: FaultPlan::none(),
            seed,
            policy_seed: seed,
            boundary: None,
            golden: Some(name),
        }
    }

    /// Study `index` of a group's seed family.
    fn drawn(group: Group, index: u64) -> Study {
        let seed = mix(group as u64 * 1_000 + index);
        let mut r = seed;
        let (jobs, machines, epochs, faulty, boundary) = match group {
            Group::Pop => (
                pick(&mut r, 3, 5),
                pick(&mut r, 2, 3),
                pick(&mut r, 8, 10),
                index % 4 == 3,
                Some(2),
            ),
            Group::EarlyTerm => {
                (pick(&mut r, 3, 5), 2, pick(&mut r, 8, 10), index % 3 == 2, Some(3))
            }
            _ => (pick(&mut r, 2, 7), pick(&mut r, 1, 3), pick(&mut r, 3, 8), index % 3 == 1, None),
        };
        let cifar = index.is_multiple_of(2);
        let w: Box<dyn Workload> = if cifar {
            Box::new(CifarWorkload::new().with_max_epochs(epochs as u32))
        } else {
            Box::new(LunarWorkload::new().with_max_blocks(epochs as u32))
        };
        let mut workload = ExperimentWorkload::from_workload(w.as_ref(), jobs as usize, seed);
        if group == Group::Pop {
            // A target most jobs can reach, so POP's confidences leave 0 and
            // its decisions hang on the fits (at the workload's own target
            // these short jobs all sit at p = 0 and no fit moves a byte).
            let mut bests: Vec<f64> =
                workload.jobs.iter().map(|j| j.profile.best_value()).collect();
            bests.sort_by(f64::total_cmp);
            workload.target = bests[bests.len() / 3];
        }
        let machines = machines as usize;
        let plan = if faulty {
            let intensity = pick(&mut r, 10, 30) as f64;
            let config =
                FaultConfig::with_intensity(mix(seed), SimTime::from_hours(2.0), intensity);
            FaultPlan::generate(machines, &config)
        } else {
            FaultPlan::none()
        };
        let kind = if cifar { "cifar" } else { "lunar" };
        let faults = if faulty { ", faults" } else { "" };
        Study {
            label: format!(
                "{group:?} #{index} ({kind}, {jobs} jobs × {epochs} on {machines}{faults})"
            ),
            group,
            workload,
            spec: ExperimentSpec::new(machines)
                .with_stop_on_target(false)
                .with_tmax(SimTime::from_hours(100.0))
                .with_seed(derive_study_seed(seed, STREAM_EXECUTOR)),
            plan,
            seed,
            policy_seed: derive_study_seed(seed, STREAM_POLICY),
            boundary,
            golden: None,
        }
    }

    fn fits(&self) -> bool {
        matches!(self.group, Group::Pop | Group::EarlyTerm | Group::Golden)
    }

    fn build(&self, knobs: &Knobs) -> Built {
        let cache = knobs.cache.clone();
        match self.group {
            Group::Default => Built::Other(Box::new(DefaultPolicy::new())),
            Group::Bandit => Built::Other(Box::new(BanditPolicy::new())),
            Group::Chaos => Built::Other(Box::new(ChaosPolicy::new(self.policy_seed))),
            Group::Pop | Group::Golden => Built::Pop(Box::new(PopPolicy::new(
                self.pop_config(knobs),
                FitPool::new(knobs.fit_threads),
                cache,
            ))),
            Group::EarlyTerm => Built::EarlyTerm(EarlyTermPolicy::with_config_and_cache(
                EarlyTermConfig {
                    predictor: PredictorConfig::test(),
                    boundary: self.boundary,
                    seed: self.policy_seed,
                    ..Default::default()
                },
                cache,
            )),
        }
    }

    fn pop_config(&self, knobs: &Knobs) -> PopConfig {
        PopConfig {
            predictor: PredictorConfig::test(),
            boundary: self.boundary,
            fit_prefetch: Some(knobs.prefetch),
            seed: self.policy_seed,
            ..Default::default()
        }
    }

    /// Checks a finished run's laws and renders it.
    fn finish(&self, policy: &Built, result: &ExperimentResult) -> Case {
        if let Err(violation) = check_trace(result, &self.workload, &self.spec) {
            panic!("{}: {violation}", self.label);
        }
        let (trace, digest, predictions, spec) = match policy {
            Built::Pop(p) => (
                Some(p.render_trace(result)),
                Some(p.posterior_digest()),
                Some(p.predictions_made()),
                p.spec_stats(),
            ),
            Built::EarlyTerm(p) => (None, None, Some(p.predictions_made()), SpecStats::default()),
            Built::Other(_) => (None, None, None, SpecStats::default()),
        };
        let fits = result.fit_cache.unwrap_or_default();
        Case { signature: result.signature(), trace, digest, predictions, fits, spec }
    }

    fn run(&self, knobs: &Knobs) -> Case {
        let mut policy = self.build(knobs);
        let result =
            Simulation::with_faults(policy.policy(), &self.workload, self.spec, &self.plan).run();
        self.finish(&policy, &result)
    }

    /// The plain run at `fit_threads`: the golden owners' rendering.
    pub fn trace_at(&self, fit_threads: usize) -> String {
        let knobs = Knobs { fit_threads, ..REFERENCE };
        self.run(&knobs).trace.expect("a golden study runs POP")
    }

    /// A simulation of `policy` journaling into `journal`.
    fn journaled_sim<'a>(&'a self, policy: &'a mut Built, journal: &Journal) -> Simulation<'a, 'a> {
        let (w, spec, plan) = (&self.workload, self.spec, &self.plan);
        Simulation::with_journal(policy.policy(), w, spec, plan, journal.clone())
    }

    fn journal(&self, policy: &mut Built) -> Journal {
        Journal::in_memory(run_meta(policy.policy().name(), &self.workload, &self.spec, &self.plan))
    }

    /// The reference stepped input by input into a journal — every input a
    /// step, time never going back, one record per input — and how many
    /// inputs it took.
    fn journaled(&self) -> (Case, u64) {
        let mut policy = self.build(&REFERENCE);
        let journal = self.journal(&mut policy);
        let mut sim = self.journaled_sim(&mut policy, &journal);
        let (mut last, mut completions, mut faults) = (SimTime::ZERO, 0u64, 0u64);
        while let Some((time, input)) = sim.step_input() {
            assert!(time >= last && sim.now() == time, "{}: time went backwards", self.label);
            last = time;
            match input {
                EngineInput::Start => panic!("{}: Start is the constructor's", self.label),
                EngineInput::Event(_) => completions += 1,
                _ => faults += 1,
            }
        }
        let inputs = sim.inputs_delivered();
        let result = sim.finish();
        let (label, f) = (&self.label, result.faults);
        assert_eq!(inputs, 1 + completions + faults, "{label}: an input skipped a step");
        assert!(journal.is_sealed(), "{label}: finish seals the journal");
        assert_eq!(journal.inputs_appended(), inputs, "{label}: one record per input");
        let acted = f.machine_crashes + f.machine_recoveries + f.agent_stalls;
        assert!(faults >= acted, "{label}: a fault the engine acted on was never a step");
        assert!(completions >= result.total_epochs, "{label}: an epoch was never a step");
        (self.finish(&policy, &result), inputs)
    }

    /// Killed after journal input `k`, resumed on a fresh policy.
    fn killed_at(&self, k: u64, knobs: &Knobs) -> Case {
        let mut victim = self.build(knobs);
        let journal = self.journal(&mut victim);
        let mut sim = self.journaled_sim(&mut victim, &journal);
        sim.run_to_input(k);
        assert_eq!(sim.inputs_delivered(), k, "{}: the kill at {k} fired", self.label);
        drop(sim); // the kill: nothing sealed, no result
        let recovered = journal.reopen().expect("an in-memory journal reopens");
        assert_eq!(recovered.inputs.len() as u64, k, "{}: the journal kept the prefix", self.label);
        let mut fresh = self.build(knobs);
        let result =
            Simulation::resume(fresh.policy(), &self.workload, self.spec, &self.plan, recovered)
                .unwrap_or_else(|e| panic!("{}: resume after input {k}: {e}", self.label))
                .run();
        self.finish(&fresh, &result)
    }

    /// The reference case, computed once per process.
    fn reference(&self) -> Arc<Case> {
        type Slot = Arc<OnceLock<Arc<Case>>>;
        static REFERENCES: Mutex<Option<HashMap<String, Slot>>> = Mutex::new(None);
        let mut slots = REFERENCES.lock().unwrap();
        let slot = slots.get_or_insert_default().entry(self.label.clone()).or_default().clone();
        drop(slots);
        slot.get_or_init(|| {
            let case = self.run(&REFERENCE);
            let label = &self.label;
            assert!(!self.fits() || case.fits.fits > 0, "{label}: the reference never fit");
            if let (Group::Pop, Some(trace)) = (self.group, &case.trace) {
                // A fit POP can act on prices a decision (a finite p*). The
                // Lunar golden never does: its p* is `inf` throughout.
                let priced = trace.lines().filter_map(|l| l.strip_prefix("decision,")).any(|l| {
                    l.split(',')
                        .nth(5)
                        .and_then(|p| p.parse::<f64>().ok())
                        .is_some_and(f64::is_finite)
                });
                assert!(priced, "{label}: no decision was priced by a fitted curve");
            }
            if let Some(name) = self.golden {
                let (golden, trace) = (read_golden(name), case.trace.as_deref().unwrap_or(""));
                assert!(trace == golden, "{label}: {}", first_difference(&golden, trace));
            }
            Arc::new(case)
        })
        .clone()
    }

    /// Asserts `case` reproduces `want`; `how` names the case.
    fn same(&self, want: &Case, case: &Case, how: &str) {
        let label = &self.label;
        let (w, c) = (&want.signature.csv, &case.signature.csv);
        assert!(w == c, "{label} {how}: event log {}", first_difference(w, c));
        assert_eq!(want.signature, case.signature, "{label} {how}: run signature");
        if let (Some(w), Some(c)) = (&want.trace, &case.trace) {
            assert!(w == c, "{label} {how}: trace {}", first_difference(w, c));
        }
        assert_eq!(want.digest, case.digest, "{label} {how}: posterior digest");
        assert_eq!(want.predictions, case.predictions, "{label} {how}: predictions consumed");
    }
}

/// Where two renderings first part.
fn first_difference(want: &str, have: &str) -> String {
    match want.lines().zip(have.lines()).enumerate().find(|(_, (w, h))| w != h) {
        Some((i, (w, h))) => format!("differs at line {}: expected `{w}`, got `{h}`", i + 1),
        None => {
            format!("{} lines expected, {} rendered", want.lines().count(), have.lines().count())
        }
    }
}

/// The committed golden file `tests/golden/<name>`.
pub fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); generate it with \
             HYPERDRIVE_UPDATE_GOLDEN=1 cargo test --test golden_traces"
        )
    })
}

/// Where `tests/golden/<name>` lives.
pub fn golden_path(name: &str) -> std::path::PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect()
}

/// True while the golden owners regenerate their files: the golden cells
/// have nothing committed to compare against and stand aside.
pub fn regenerating() -> bool {
    std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok()
}

/// A group's seed family.
fn family(group: Group) -> Vec<Study> {
    let studies = match group {
        Group::Golden => {
            return vec![Study::golden("cifar_trace.csv"), Study::golden("lunar_trace.csv")];
        }
        Group::Pop => 6,
        Group::EarlyTerm => 6,
        _ => 12,
    };
    (0..studies).map(|i| Study::drawn(group, i)).collect()
}

/// `count` distinct journal positions in `1..=inputs` drawn from `seed`
/// (all of them when there are no more).
fn positions(inputs: u64, count: u64, seed: u64) -> BTreeSet<u64> {
    let mut r = seed;
    let mut drawn: BTreeSet<u64> = (1..=inputs).filter(|_| inputs <= count).collect();
    while (drawn.len() as u64) < count.min(inputs) {
        drawn.insert(pick(&mut r, 1, inputs));
    }
    drawn
}

/// Runs one (mode, group) cell and returns how many cases it ran.
pub fn cell(mode: Mode, group: Group) -> u64 {
    if group == Group::Golden && regenerating() {
        return 0; // the owner tests regenerate the files
    }
    let studies = family(group);
    if let Mode::Server = mode {
        return server_cell(&studies);
    }
    let (mut cases, mut spec, mut struck) = (0u64, SpecStats::default(), false);
    for study in &studies {
        let want = study.reference();
        struck |= want.signature.faults.interruptions > 0;
        let mut check = |case: Case, how: &str| {
            study.same(&want, &case, how);
            spec.speculated += case.spec.speculated;
            spec.adopted += case.spec.adopted;
            cases += 1;
            case.fits
        };
        match mode {
            Mode::Rerun => {
                check(study.run(&REFERENCE), "rerun");
            }
            Mode::Threads => {
                for fit_threads in [2, 3, 4] {
                    let knobs = Knobs { fit_threads, ..REFERENCE };
                    check(study.run(&knobs), &format!("at {fit_threads} fit threads"));
                }
            }
            Mode::Cache => {
                let cold = Knobs { cache: Some(SharedFitCache::in_memory()), ..REFERENCE };
                let first = check(study.run(&cold), "against a cold shared cache");
                let warm = Knobs { fit_threads: 4, ..cold };
                let replay = check(study.run(&warm), "replayed from the warmed cache");
                // A fit that errored publishes nothing, so only those refit.
                let label = &study.label;
                assert_eq!(replay.fits, first.fits - first.shared_inserts, "{label}: refitted");
                assert!(replay.shared_hits > 0, "{label}: the warmed replay never hit");
            }
            Mode::Prefetch(threads) => {
                for &fit_threads in threads {
                    let knobs = Knobs { fit_threads, prefetch: true, ..REFERENCE };
                    check(study.run(&knobs), &format!("prefetching at {fit_threads} fit threads"));
                }
            }
            Mode::Journaled => {
                check(study.journaled().0, "stepped and journaled");
            }
            Mode::Killed { prefetch } => {
                let (journaled, inputs) = study.journaled();
                check(journaled, "stepped and journaled");
                let cache = Some(SharedFitCache::in_memory());
                let (kills, knobs) = match group {
                    Group::Golden => (2, Knobs { fit_threads: 2, cache, prefetch }),
                    Group::Pop | Group::EarlyTerm => (4, Knobs { fit_threads: 2, cache, prefetch }),
                    _ => (24, REFERENCE),
                };
                for k in positions(inputs, kills, mix(study.seed)) {
                    check(
                        study.killed_at(k, &knobs),
                        &format!("killed after input {k} of {inputs}"),
                    );
                }
            }
            Mode::Server => unreachable!("returned above"),
        }
    }
    if let Mode::Prefetch(_) = mode {
        assert!(spec.speculated > 0 && spec.adopted > 0, "prefetch never engaged: {spec:?}");
    }
    let faulty = studies.iter().any(|s| !s.plan.is_empty());
    assert!(struck || !faulty, "{mode:?} × {group:?}: no fault plan struck");
    println!("{mode:?} × {group:?}: {cases} cases over {} studies", studies.len());
    cases
}

/// Every fault-free study through a server at 1, 2 and 4 shards: all the
/// originals submitted at once and run concurrently, then all their twins
/// under another tenant, which read what the originals published.
fn server_cell(studies: &[Study]) -> u64 {
    let fault_free: Vec<&Study> = studies.iter().filter(|s| s.plan.is_empty()).collect();
    let mut cases = 0;
    for shards in [1, 2, 4] {
        let server = Server::new(ServerConfig { shards, fit_threads: 2, ..Default::default() });
        for tenant in ["original", "twin"] {
            let tickets: Vec<_> = fault_free
                .iter()
                .map(|study| {
                    let spec = StudySpec {
                        tenant: tenant.to_string(),
                        workload: study.workload.clone(),
                        spec: study.spec,
                        policy: study.pop_config(&REFERENCE),
                        seed: study.seed,
                    };
                    server.submit(spec).expect("the study is admitted")
                })
                .collect();
            for (study, ticket) in fault_free.iter().zip(tickets) {
                let how = format!("{tenant} through the server at {shards} shards");
                let want = study.reference();
                let outcome = ticket.wait();
                let (label, trace) = (&study.label, want.trace.as_deref().unwrap_or(""));
                let diff = first_difference(trace, &outcome.trace);
                assert!(outcome.trace == trace, "{label} {how}: {diff}");
                assert_eq!(Some(outcome.posterior_digest), want.digest, "{label} {how}: digest");
                assert_eq!(Some(outcome.predictions), want.predictions, "{label} {how}");
                cases += 1;
            }
        }
        assert!(server.cache_snapshot().shared_hits > 0, "no twin hit at {shards} shards");
        // Both fit modes ran: a lone shard hands its fits to the 2-worker
        // pool; two or four shards running at once fill it and fit on
        // their own threads.
        let caller_fits = server.pool().stats().caller_fits;
        if shards == 1 {
            assert_eq!(caller_fits, 0, "a lone shard fitted on its own thread");
        } else {
            assert!(caller_fits > 0, "no shard fitted on its own thread at {shards} shards");
        }
    }
    println!("Server × {:?}: {cases} cases over {} studies", studies[0].group, studies.len());
    cases
}
