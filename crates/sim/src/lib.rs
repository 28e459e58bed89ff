//! Trace-driven discrete-event simulation of HyperDrive experiments.
//!
//! §7.1 of the paper: "Simulator Engine is a trace-driven discrete event
//! simulator that accurately emulates the execution process of HyperDrive,
//! i.e., the order of configurations and the resource management logic",
//! with a "Pluggable Scheduling Policy". This crate is that engine: it
//! drives the same [`ExperimentEngine`](hyperdrive_framework::ExperimentEngine)
//! (and therefore the same Resource Manager / Job Manager / SAP up-calls)
//! as the live executor, but elapses commands on a virtual clock, making
//! runs deterministic and thousands of times faster than wall-clock
//! execution.
//!
//! There is one loop, the framework's `Driver`, and [`Simulation`] runs it
//! over a virtual-time source: one `(time, seq)`-ordered queue of engine
//! inputs, popped, delivered, and refilled from the commands each delivery
//! produces. The live executor is the same loop over a wall-clock source.
//! Fault injection, journaling and crash recovery are
//! ways of *building* a `Simulation` ([`Simulation::with_faults`],
//! [`Simulation::with_journal`], [`Simulation::resume`]); [`run_sim`] is
//! `Simulation::new(..).run()`.
//!
//! Feed it synthetic workloads (`ExperimentWorkload::from_workload`) or
//! recorded traces (`ExperimentWorkload::from_traces`) — the latter is the
//! paper's configuration for all of §7's sensitivity analyses.
//!
//! # Example
//!
//! ```
//! use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
//! use hyperdrive_sim::run_sim;
//! use hyperdrive_workload::CifarWorkload;
//!
//! let workload = CifarWorkload::new().with_max_epochs(5);
//! let experiment = ExperimentWorkload::from_workload(&workload, 8, 42);
//! let mut policy = DefaultPolicy::new();
//! let result = run_sim(&mut policy, &experiment, ExperimentSpec::new(4));
//! assert!(result.end_time > hyperdrive_types::SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod faults;
mod queue;
mod recovery;
mod stepper;

pub use queue::EventQueue;
pub use recovery::{kill_at_every_event, run_sim_with_recovery, KillAnywhereReport};
pub use stepper::{Simulation, StepOutcome};

use hyperdrive_framework::{
    ExperimentResult, ExperimentSpec, ExperimentWorkload, SchedulingPolicy,
};

/// Runs one experiment to completion on the virtual clock.
///
/// Identical semantics to [`hyperdrive_framework::run_live`] up to event
/// ordering: the simulator resolves simultaneous completions
/// deterministically (schedule order), while the live executor resolves
/// them by thread timing. Fig 12a quantifies the resulting gap.
pub fn run_sim(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
) -> ExperimentResult {
    Simulation::new(policy, workload, spec).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_framework::{DefaultPolicy, JobEnd};
    use hyperdrive_types::SimTime;
    use hyperdrive_workload::{CifarWorkload, LunarWorkload, TraceSet, Workload};

    fn cifar_experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, seed)
    }

    #[test]
    fn default_policy_runs_everything() {
        let ew = cifar_experiment(6, 4, 1);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let result = run_sim(&mut policy, &ew, spec);
        assert_eq!(result.total_epochs, 6 * 4);
        assert!(result.outcomes.iter().all(|o| o.end == JobEnd::Completed));
        // With 2 machines and 6 jobs of ~4 minutes the experiment spans
        // roughly 12 job-minutes of work per machine.
        assert!(result.end_time > SimTime::from_mins(8.0));
    }

    #[test]
    fn stops_at_target() {
        let ew = cifar_experiment(6, 20, 1).with_target(0.05);
        let mut policy = DefaultPolicy::new();
        let result = run_sim(&mut policy, &ew, ExperimentSpec::new(2));
        assert!(result.reached_target());
        assert!(result.time_to_target.unwrap() <= result.end_time);
        assert!(result.total_epochs < 120, "stopped before exhaustive execution");
    }

    #[test]
    fn respects_tmax() {
        let ew = cifar_experiment(4, 500, 1);
        let mut policy = DefaultPolicy::new();
        let spec =
            ExperimentSpec::new(1).with_tmax(SimTime::from_mins(10.0)).with_stop_on_target(false);
        let result = run_sim(&mut policy, &ew, spec);
        assert!(!result.reached_target() || result.time_to_target.unwrap() <= spec.tmax);
        assert!(result.end_time >= SimTime::from_mins(10.0));
        assert!(result.end_time < SimTime::from_mins(15.0), "stops promptly after Tmax");
    }

    #[test]
    fn trace_replay_matches_direct_generation() {
        // §7.1: traces collected from runs replay identically.
        let w = CifarWorkload::new().with_max_epochs(6);
        let traces = TraceSet::generate(&w, 5, 11);
        let from_traces = ExperimentWorkload::from_traces(
            &traces,
            w.domain_knowledge(),
            w.eval_boundary(),
            0.77,
            w.suspend_model(),
        );
        let direct = ExperimentWorkload::from_workload(&w, 5, 11);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let mut p1 = DefaultPolicy::new();
        let r1 = run_sim(&mut p1, &from_traces, spec);
        let mut p2 = DefaultPolicy::new();
        let r2 = run_sim(&mut p2, &direct, spec);
        assert_eq!(r1.total_epochs, r2.total_epochs);
        assert!((r1.end_time.as_secs() - r2.end_time.as_secs()).abs() < 1e-6);
    }

    #[test]
    fn lunar_workload_runs() {
        let w = LunarWorkload::new().with_max_blocks(10);
        let ew = ExperimentWorkload::from_workload(&w, 5, 2);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(3).with_stop_on_target(false);
        let result = run_sim(&mut policy, &ew, spec);
        assert_eq!(result.total_epochs, 50);
    }
}
