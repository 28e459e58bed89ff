//! Cross-crate property tests: invariants that must hold for arbitrary
//! experiment shapes and policy behaviours. Three cells of the
//! differential harness (`tests/harness`) keep their names here: the chaos
//! policy's studies rerun and killed-and-resumed (every case through
//! `check_trace`), and the Default policy's reruns.

use proptest::prelude::*;

use hyperdrive::framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

#[macro_use]
mod harness;

cells! {
    engine_invariants_hold_under_chaos: Chaos, Rerun;
    event_log_invariants_hold_under_chaos: Chaos, Killed { prefetch: false };
    simulation_is_reproducible: Default, Rerun;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Growing the cluster past the job count changes nothing: with jobs ≤
    /// machines under `DefaultPolicy` every job starts at once on the
    /// lowest-numbered idle machine, so a fixed-seed trace is the same
    /// bytes at 32 and at 2 048 machines.
    #[test]
    fn default_trace_is_invariant_under_spare_machines(n_jobs in 1usize..=32, seed in 0u64..500) {
        let workload = CifarWorkload::new().with_max_epochs(12);
        let experiment = ExperimentWorkload::from_workload(&workload, n_jobs, seed);
        let [small, large] = [32, 2048].map(|machines| {
            let spec = ExperimentSpec::new(machines)
                .with_tmax(SimTime::from_hours(1.0e6))
                .with_stop_on_target(false)
                .with_seed(seed);
            let result = run_sim(&mut DefaultPolicy::new(), &experiment, spec);
            (result.signature(), result.time_to_target)
        });
        prop_assert_eq!(small, large);
    }



    /// Stop-on-target halts no later than run-to-completion, and the
    /// winner really met the target.
    #[test]
    fn stop_on_target_is_sound(seed in 0u64..200, target in 0.05f64..0.6) {
        let workload = CifarWorkload::new().with_max_epochs(15);
        let experiment =
            ExperimentWorkload::from_workload(&workload, 8, seed).with_target(target);
        let stopping = ExperimentSpec::new(2).with_seed(seed);
        let exhaustive = stopping.with_stop_on_target(false);

        let mut p1 = DefaultPolicy::new();
        let stopped = run_sim(&mut p1, &experiment, stopping);
        let mut p2 = DefaultPolicy::new();
        let full = run_sim(&mut p2, &experiment, exhaustive);

        prop_assert!(stopped.end_time <= full.end_time + SimTime::from_secs(1.0));
        prop_assert_eq!(full.peak_snapshot_bytes, 0, "no suspends, no snapshot storage");
        if let (Some(t), Some(winner)) = (stopped.time_to_target, stopped.winner) {
            prop_assert!(t <= stopped.end_time);
            let best = experiment.profile(winner).best_value();
            prop_assert!(best >= target, "winner best {best} >= target {target}");
        }
    }
}
