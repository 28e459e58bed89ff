//! Synthetic training workloads for HyperDrive.
//!
//! The paper evaluates on live Caffe/CIFAR-10 (supervised) and
//! Keras-Theano/LunarLander (reinforcement learning) training. This crate
//! provides the drop-in substitutes used throughout the reproduction:
//! response-surface generators that map hyperparameter configurations to
//! complete learning-curve [`JobProfile`]s, calibrated to the population
//! statistics the paper reports (see DESIGN.md §1 for the substitution
//! argument), plus suspend/snapshot cost models and the §7 trace machinery.
//!
//! Scheduling policies only ever observe `(epoch, time, value)` streams —
//! the profile is revealed incrementally by executors exactly as real
//! training would be.
//!
//! # Example
//!
//! ```
//! use hyperdrive_workload::{CifarWorkload, TraceSet, Workload};
//!
//! let workload = CifarWorkload::new();
//! let traces = TraceSet::generate(&workload, 10, 42);
//! assert_eq!(traces.len(), 10);
//! // Fig 12c: permute the configuration order deterministically.
//! let reordered = traces.permuted(7);
//! assert_eq!(reordered.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cifar;
mod imagenet;
mod lstm;
mod lunar;
mod profile;
mod spaces;
mod suspend;
mod trace;

pub use cifar::CifarWorkload;
pub use imagenet::{imagenet_space, ImagenetWorkload};
pub use lstm::{lstm_space, LstmWorkload, PPL_RANGE};
pub use lunar::{LunarBehavior, LunarWorkload};
pub use profile::{EpochRow, JobProfile};
pub use spaces::{cifar10_space, lunar_lander_space};
pub use suspend::{SuspendCost, SuspendModel};
pub use trace::{JobTrace, TraceSet};

use hyperdrive_types::{Configuration, DomainKnowledge, HyperParamSpace};

/// A synthetic training workload: maps hyperparameter configurations to
/// ground-truth execution profiles.
///
/// Implementations must be deterministic in `(config, seed)` so that
/// experiments are reproducible and the live/sim executors replay the same
/// underlying truth.
pub trait Workload: Send + Sync {
    /// Short workload name (used in trace files and reports).
    fn name(&self) -> &str;

    /// Model-owner domain knowledge (§2.1) for this workload.
    fn domain_knowledge(&self) -> DomainKnowledge;

    /// The hyperparameter search space.
    fn space(&self) -> &HyperParamSpace;

    /// Maximum epochs a job trains if never terminated.
    fn max_epochs(&self) -> u32;

    /// The evaluation boundary `b` (§5.3): policies make decisions every
    /// `b` epochs.
    fn eval_boundary(&self) -> u32;

    /// The default target performance for time-to-target experiments
    /// (normalized).
    fn default_target(&self) -> f64;

    /// Suspend/resume cost model for jobs of this workload.
    fn suspend_model(&self) -> SuspendModel;

    /// The ground-truth profile of `config` under `seed` (which controls
    /// training noise, not the configuration itself).
    fn profile(&self, config: &Configuration, seed: u64) -> JobProfile;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_object_safe() {
        let workloads: Vec<Box<dyn Workload>> =
            vec![Box::new(CifarWorkload::new()), Box::new(LunarWorkload::new())];
        for w in &workloads {
            assert!(!w.name().is_empty());
            assert!(w.max_epochs() > 0);
            assert!(w.eval_boundary() > 0);
            assert!((0.0..=1.0).contains(&w.default_target()));
        }
    }

    #[test]
    fn boundaries_match_paper_section_5_3() {
        assert_eq!(CifarWorkload::new().eval_boundary(), 10);
        // b = 2,000 iterations; one epoch is a 100-episode block.
        assert_eq!(LunarWorkload::new().eval_boundary(), 20);
    }
}
