//! Shared experiment plumbing: policy construction and repeated
//! time-to-target comparisons.

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{FitPool, PredictorConfig};
use hyperdrive_framework::{
    DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, SchedulingPolicy,
};
use hyperdrive_policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy, HyperbandPolicy};
use hyperdrive_sim::run_sim;
use hyperdrive_types::stats::BoxPlot;
use hyperdrive_types::SimTime;
use hyperdrive_workload::Workload;

use crate::par_map;

/// The policies evaluated throughout the paper, plus the Hyperband
/// extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// POP (the paper's contribution).
    Pop,
    /// TuPAQ-style Bandit.
    Bandit,
    /// Predictive termination (Domhan et al.).
    EarlyTerm,
    /// Greedy run-to-completion.
    Default,
    /// Asynchronous successive halving (extension).
    Hyperband,
}

/// Fit-pool width of every POP instance a [`par_map`] task builds: each
/// gets a `FitPool::new(HARNESS_FIT_THREADS)` of its own.
///
/// [`par_map`] already parallelizes a grid with one worker per hardware
/// thread. A `FitPool::new(0)` per task would give *each* task its own
/// hardware-sized fit pool — O(cores²) threads on a big host, which
/// oversubscribes the machine and slows the sweep down. Each simulation
/// is deterministic regardless of pool width, so a grid caps its
/// per-task pools at one thread and keeps the parallelism at the task
/// level where it scales cleanly.
pub const HARNESS_FIT_THREADS: usize = 1;

impl PolicyKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Pop => "POP",
            PolicyKind::Bandit => "Bandit",
            PolicyKind::EarlyTerm => "EarlyTerm",
            PolicyKind::Default => "Default",
            PolicyKind::Hyperband => "Hyperband",
        }
    }

    /// The §6.1 comparison set: POP against the three baselines.
    pub fn headline() -> [PolicyKind; 4] {
        [PolicyKind::Pop, PolicyKind::Bandit, PolicyKind::EarlyTerm, PolicyKind::Default]
    }

    /// The §6.2/§6.3 figure set (Default omitted, as in Figs. 6/7/9).
    pub fn figure_set() -> [PolicyKind; 3] {
        [PolicyKind::Pop, PolicyKind::Bandit, PolicyKind::EarlyTerm]
    }

    /// Builds a fresh policy instance. `fidelity` sets the curve-model
    /// cost for the predictive policies; `seed` keeps prediction noise
    /// reproducible per run.
    pub fn build(self, fidelity: PredictorConfig, seed: u64) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Pop => Box::new(PopPolicy::new(
                PopConfig { predictor: fidelity, seed, ..Default::default() },
                FitPool::new(HARNESS_FIT_THREADS),
                None,
            )),
            PolicyKind::Bandit => Box::new(BanditPolicy::new()),
            PolicyKind::EarlyTerm => Box::new(EarlyTermPolicy::with_config(EarlyTermConfig {
                predictor: fidelity,
                seed,
                ..Default::default()
            })),
            PolicyKind::Default => Box::new(DefaultPolicy::new()),
            PolicyKind::Hyperband => Box::new(HyperbandPolicy::new()),
        }
    }
}

/// One simulated run within a comparison.
#[derive(Debug)]
pub struct ComparisonRun {
    /// Which policy produced it.
    pub policy: PolicyKind,
    /// Repeat index (selects the training-noise seed).
    pub repeat: usize,
    /// The full experiment result.
    pub result: ExperimentResult,
}

/// Box-plot summary of a policy's time-to-target across repeats.
#[derive(Debug)]
pub struct PolicySummary {
    /// The policy.
    pub policy: PolicyKind,
    /// Times-to-target in hours, one per successful repeat.
    pub times_hours: Vec<f64>,
    /// Five-number summary of `times_hours` (if any repeat succeeded).
    pub box_plot: Option<BoxPlot>,
    /// Repeats that never reached the target within `Tmax`.
    pub failures: usize,
}

impl PolicySummary {
    /// Mean time-to-target in hours.
    pub fn mean_hours(&self) -> Option<f64> {
        hyperdrive_types::stats::mean(&self.times_hours)
    }

    /// Median time-to-target in hours.
    pub fn median_hours(&self) -> Option<f64> {
        hyperdrive_types::stats::median(&self.times_hours)
    }
}

/// Settings for a repeated comparison.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonSettings {
    /// Configurations per experiment (paper: 100).
    pub n_configs: usize,
    /// Machines (paper: 4 supervised / 15 RL).
    pub machines: usize,
    /// Repeats (paper: 10 supervised / 5 RL).
    pub repeats: usize,
    /// Seed fixing the hyperparameter set.
    pub config_seed: u64,
    /// Experiment time budget.
    pub tmax: SimTime,
    /// Curve-model fidelity for predictive policies.
    pub fidelity: PredictorConfig,
}

impl ComparisonSettings {
    /// The paper's supervised-learning setup (§6.1/§6.2): 100 configs, 4
    /// machines, 10 repeats.
    pub fn cifar_paper(config_seed: u64) -> Self {
        ComparisonSettings {
            n_configs: 100,
            machines: 4,
            repeats: 10,
            config_seed,
            tmax: SimTime::from_hours(48.0),
            fidelity: PredictorConfig::fast(),
        }
    }

    /// The paper's reinforcement-learning setup (§6.3): 100 configs, 15
    /// machines, 5 repeats.
    pub fn lunar_paper(config_seed: u64) -> Self {
        ComparisonSettings {
            n_configs: 100,
            machines: 15,
            repeats: 5,
            config_seed,
            tmax: SimTime::from_hours(24.0),
            fidelity: PredictorConfig::fast(),
        }
    }

    /// Shrinks the setup for smoke runs (`HYPERDRIVE_QUICK`).
    pub fn quick(mut self) -> Self {
        self.n_configs = self.n_configs.min(30);
        self.repeats = self.repeats.min(2);
        self.fidelity = PredictorConfig::test();
        self
    }
}

/// The training-noise seed of one repeat of a comparison.
fn noise_seed(config_seed: u64, repeat: usize) -> u64 {
    config_seed.wrapping_add(1_000 * (repeat as u64 + 1))
}

/// Runs `repeats` simulated experiments per policy, keeping the
/// configuration set fixed and varying training noise per repeat (§6.1's
/// non-determinism protocol).
///
/// The `repeats × policies` grid runs on [`par_map`] (each simulation is
/// single-threaded and deterministic, so parallelism across runs changes
/// nothing but wall time); results come back in a fixed order.
pub fn run_comparison(
    workload: &dyn Workload,
    settings: ComparisonSettings,
    policies: &[PolicyKind],
) -> Vec<ComparisonRun> {
    // Pre-build the per-repeat experiments once; they are shared read-only.
    let experiments: Vec<(u64, ExperimentWorkload)> = (0..settings.repeats)
        .map(|repeat| {
            let noise_seed = noise_seed(settings.config_seed, repeat);
            let experiment = ExperimentWorkload::from_workload_with_noise(
                workload,
                settings.n_configs,
                settings.config_seed,
                noise_seed,
            );
            (noise_seed, experiment)
        })
        .collect();

    let tasks: Vec<(usize, PolicyKind)> = (0..settings.repeats)
        .flat_map(|repeat| policies.iter().map(move |p| (repeat, *p)))
        .collect();
    par_map(&tasks, |&(repeat, policy_kind)| {
        let (noise_seed, ref experiment) = experiments[repeat];
        let spec =
            ExperimentSpec::new(settings.machines).with_tmax(settings.tmax).with_seed(noise_seed);
        let mut policy = policy_kind.build(settings.fidelity, noise_seed);
        let result = run_sim(policy.as_mut(), experiment, spec);
        ComparisonRun { policy: policy_kind, repeat, result }
    })
}

/// Summarizes time-to-target per policy.
pub fn summarize(runs: &[ComparisonRun], policies: &[PolicyKind]) -> Vec<PolicySummary> {
    policies
        .iter()
        .map(|&policy| {
            let times_hours: Vec<f64> = runs
                .iter()
                .filter(|r| r.policy == policy)
                .filter_map(|r| r.result.time_to_target.map(|t| t.as_hours()))
                .collect();
            let failures = runs
                .iter()
                .filter(|r| r.policy == policy && r.result.time_to_target.is_none())
                .count();
            PolicySummary {
                policy,
                box_plot: BoxPlot::from_values(&times_hours),
                times_hours,
                failures,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_workload::CifarWorkload;

    #[test]
    fn policies_build_and_label() {
        for kind in PolicyKind::headline().into_iter().chain([PolicyKind::Hyperband]) {
            let p = kind.build(PredictorConfig::test(), 1);
            assert!(!p.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn comparison_runs_and_summarizes() {
        let w = CifarWorkload::new().with_max_epochs(30);
        let settings = ComparisonSettings {
            n_configs: 8,
            machines: 2,
            repeats: 2,
            config_seed: 2,
            tmax: SimTime::from_hours(48.0),
            fidelity: PredictorConfig::test(),
        };
        let policies = [PolicyKind::Default, PolicyKind::Bandit];
        let runs = run_comparison(&w, settings, &policies);
        assert_eq!(runs.len(), 4);
        let summaries = summarize(&runs, &policies);
        assert_eq!(summaries.len(), 2);
        for s in &summaries {
            assert_eq!(s.times_hours.len() + s.failures, settings.repeats);
        }
    }

    /// The time-to-target figures compare schedulers, so their config seed
    /// (0 for fig06 / fig07 / tab01 on CIFAR-10 and for fig09 on
    /// LunarLander) must not hand every policy a winner in its first batch,
    /// where run-to-completion is optimal: in every repeat the first
    /// configuration that reaches the target sits beyond the machines.
    #[test]
    fn figure_seeds_put_the_first_winner_beyond_the_initial_batch() {
        use hyperdrive_workload::LunarWorkload;
        let cases: [(&dyn Workload, ComparisonSettings); 2] = [
            (&CifarWorkload::new(), ComparisonSettings::cifar_paper(0)),
            (&LunarWorkload::new(), ComparisonSettings::lunar_paper(0)),
        ];
        for (workload, s) in cases {
            for repeat in 0..s.repeats {
                let experiment = ExperimentWorkload::from_workload_with_noise(
                    workload,
                    s.n_configs,
                    s.config_seed,
                    noise_seed(s.config_seed, repeat),
                );
                let first = experiment
                    .jobs
                    .iter()
                    .position(|j| j.profile.best_value() >= experiment.target)
                    .expect("some configuration reaches the target");
                assert!(
                    first >= s.machines,
                    "{} repeat {repeat}: first winner at position {first} of the initial {}",
                    workload.name(),
                    s.machines
                );
            }
        }
    }

    #[test]
    fn repeats_vary_only_noise() {
        let w = CifarWorkload::new().with_max_epochs(10);
        let a = ExperimentWorkload::from_workload_with_noise(&w, 4, 7, 100);
        let b = ExperimentWorkload::from_workload_with_noise(&w, 4, 7, 200);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.config, y.config, "same configuration set");
            assert_ne!(x.profile, y.profile, "different training noise");
        }
    }
}
