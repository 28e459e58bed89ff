//! POP: the paper's scheduling algorithm (Promising / Opportunistic /
//! Poor).
//!
//! POP "infuses probabilistic model-based configuration classification
//! with dynamic scheduling and early termination to jointly optimize
//! quality and cost" (§1). This crate implements it in three layers:
//!
//! * [`ert`] — expected-remaining-time estimation from a curve posterior
//!   (§3.1.1, Eqs. 2–3): the first-passage probability mass `p_m`, the
//!   expected remaining epochs, and the prediction confidence `p = Σ p_m`
//!   with the `Tmax − Tpass` truncation rule.
//! * [`allocation`] — the infused classification & scheduling computation
//!   (§3.2): `S_desired(p)`, `S_deserved(p)`, `S_effective(p)`, and the
//!   dynamic threshold `p* = argmax_p S_effective(p)`.
//! * [`pop`] — [`PopPolicy`], the Scheduling Algorithm Policy wiring it
//!   all into HyperDrive's up-calls: kill thresholds for Poor jobs,
//!   confidence pruning, priority labelling, and boundary suspension of
//!   opportunistic jobs.
//!
//! # Example
//!
//! ```no_run
//! use hyperdrive_core::{PopConfig, PopPolicy};
//! use hyperdrive_curve::FitPool;
//! use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
//! use hyperdrive_sim::run_sim;
//! use hyperdrive_workload::CifarWorkload;
//!
//! let workload = CifarWorkload::new();
//! let experiment = ExperimentWorkload::from_workload(&workload, 100, 42);
//! let mut pop = PopPolicy::new(PopConfig::default(), FitPool::new(0), None);
//! let result = run_sim(&mut pop, &experiment, ExperimentSpec::new(4));
//! println!("time to 77% accuracy: {:?}", result.time_to_target);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocation;
pub mod ert;
pub mod pop;

pub use allocation::{allocate_slots, AllocationPoint, SlotAllocation};
pub use ert::{ert_from_exceedance, ert_query, estimate_remaining_time, ErtEstimate};
pub use pop::{AllocationSnapshot, FitCostModel, KillRule, PopConfig, PopPolicy};

#[cfg(test)]
mod integration {
    use super::*;
    use hyperdrive_curve::{FitPool, PredictorConfig};
    use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
    use hyperdrive_sim::run_sim;
    use hyperdrive_workload::CifarWorkload;

    #[test]
    fn pop_prunes_and_saves_work_in_simulation() {
        let w = CifarWorkload::new().with_max_epochs(60);
        let ew = ExperimentWorkload::from_workload(&w, 16, 4242);
        let spec = ExperimentSpec::new(4).with_stop_on_target(false);

        let mut pop = PopPolicy::new(
            PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
            FitPool::new(0),
            None,
        );
        let with_pop = run_sim(&mut pop, &ew, spec);

        let mut default = DefaultPolicy::new();
        let with_default = run_sim(&mut default, &ew, spec);

        assert!(with_pop.terminated_early() > 0, "POP must prune poor configs");
        assert!(
            with_pop.total_epochs < with_default.total_epochs,
            "POP must save epochs: {} vs {}",
            with_pop.total_epochs,
            with_default.total_epochs
        );
        assert!(pop.predictions_made() > 0);
        assert!(!pop.timeline().is_empty(), "instrumentation recorded");
    }

    #[test]
    fn pop_reaches_target_within_budget() {
        let w = CifarWorkload::new().with_max_epochs(120);
        // Seed 4: exactly one of the 24 configurations reaches 77%.
        let ew = ExperimentWorkload::from_workload(&w, 24, 4);
        let spec = ExperimentSpec::new(4).with_tmax(hyperdrive_types::SimTime::from_hours(24.0));

        let mut pop = PopPolicy::new(
            PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
            FitPool::new(0),
            None,
        );
        let pop_result = run_sim(&mut pop, &ew, spec);
        assert!(pop_result.reached_target(), "POP found the target config");

        let mut default = DefaultPolicy::new();
        let default_result = run_sim(&mut default, &ew, spec);
        if default_result.reached_target() {
            // POP should not be slower than naive FIFO on this workload.
            let pop_t = pop_result.time_to_target.unwrap();
            let def_t = default_result.time_to_target.unwrap();
            assert!(
                pop_t.as_secs() <= def_t.as_secs() * 1.5,
                "POP {pop_t} should be competitive with Default {def_t}"
            );
        }
    }
}
