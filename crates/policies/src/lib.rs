//! Baseline scheduling policies (§5.3 and §8 of the paper).
//!
//! * [`BanditPolicy`] — TuPAQ's action-elimination strategy: compare each
//!   job's best-ever performance against the global best.
//! * [`EarlyTermPolicy`] — Domhan et al.'s predictive termination
//!   criterion: terminate when the curve model says the job is unlikely to
//!   beat the incumbent.
//! * [`HyperbandPolicy`] — asynchronous successive halving, the related-
//!   work extension used for ablations.
//!
//! The Default SAP lives in `hyperdrive-framework`
//! ([`hyperdrive_framework::DefaultPolicy`]); POP — the paper's
//! contribution — lives in `hyperdrive-core`.
//!
//! # Example
//!
//! ```
//! use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
//! use hyperdrive_policies::BanditPolicy;
//! use hyperdrive_sim::run_sim;
//! use hyperdrive_workload::CifarWorkload;
//!
//! let workload = CifarWorkload::new().with_max_epochs(20);
//! let experiment = ExperimentWorkload::from_workload(&workload, 10, 1);
//! let mut policy = BanditPolicy::new();
//! let result = run_sim(&mut policy, &experiment, ExperimentSpec::new(4));
//! assert_eq!(result.policy, "bandit");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bandit;
mod early_term;
mod global_criterion;
mod hyperband;

pub use bandit::{BanditConfig, BanditPolicy};
pub use early_term::{EarlyTermConfig, EarlyTermPolicy};
pub use global_criterion::{Criterion, CriterionView, GlobalCriterionPolicy};
pub use hyperband::{HyperbandConfig, HyperbandPolicy};

#[cfg(test)]
mod integration {
    use super::*;
    use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
    use hyperdrive_sim::run_sim;
    use hyperdrive_workload::CifarWorkload;

    fn experiment(epochs: u32) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, 20, 77)
    }

    #[test]
    fn bandit_terminates_non_learners_and_saves_epochs() {
        let ew = experiment(40);
        let spec = ExperimentSpec::new(4).with_stop_on_target(false);
        let mut bandit = BanditPolicy::new();
        let with_bandit = run_sim(&mut bandit, &ew, spec);
        let mut default = DefaultPolicy::new();
        let with_default = run_sim(&mut default, &ew, spec);
        assert!(with_bandit.terminated_early() > 0, "bandit must prune something");
        assert!(
            with_bandit.total_epochs < with_default.total_epochs,
            "pruning must save work: {} vs {}",
            with_bandit.total_epochs,
            with_default.total_epochs
        );
    }

    #[test]
    fn hyperband_prunes_aggressively() {
        let ew = experiment(40);
        let spec = ExperimentSpec::new(4).with_stop_on_target(false);
        let mut hb = HyperbandPolicy::new();
        let result = run_sim(&mut hb, &ew, spec);
        // With eta=3, roughly two thirds of jobs die at the first rung.
        assert!(
            result.terminated_early() >= ew.len() / 2,
            "only {} of {} terminated",
            result.terminated_early(),
            ew.len()
        );
    }

    #[test]
    fn early_term_prunes_hopeless_jobs_in_simulation() {
        let ew = experiment(60);
        let spec = ExperimentSpec::new(4).with_stop_on_target(false);
        let mut et = EarlyTermPolicy::with_config(EarlyTermConfig::default());
        let result = run_sim(&mut et, &ew, spec);
        assert!(result.terminated_early() > 0, "earlyterm must prune something");
        // Jobs can only be killed at epoch 30+, so every terminated job
        // has at least 30 epochs.
        for o in &result.outcomes {
            if o.end == hyperdrive_framework::JobEnd::Terminated {
                assert!(o.epochs >= 30);
            }
        }
    }
}
