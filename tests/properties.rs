//! Cross-crate property tests: invariants that must hold for arbitrary
//! experiment shapes and policy behaviours.

use proptest::prelude::*;

use hyperdrive::framework::{
    DefaultPolicy, ExperimentSpec, ExperimentWorkload, JobDecision, JobEnd, JobEvent,
    SchedulerContext, SchedulingPolicy,
};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;

/// A policy that makes pseudo-random decisions at every epoch — a fuzzer
/// for the engine's state machine.
struct ChaosPolicy {
    state: u64,
}

impl ChaosPolicy {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.state
    }
}

impl SchedulingPolicy for ChaosPolicy {
    fn name(&self) -> &str {
        "chaos"
    }

    fn on_iteration_finish(
        &mut self,
        _event: &JobEvent,
        _ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        match self.next() % 10 {
            0..=6 => JobDecision::Continue,
            7 | 8 => JobDecision::Suspend,
            _ => JobDecision::Terminate,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine never loses or double-counts work under arbitrary
    /// decision sequences, cluster shapes, and experiment sizes.
    #[test]
    fn engine_invariants_hold_under_chaos(
        n_jobs in 1usize..12,
        machines in 1usize..6,
        epochs in 2u32..12,
        seed in 0u64..1_000,
    ) {
        let workload = CifarWorkload::new().with_max_epochs(epochs);
        let experiment = ExperimentWorkload::from_workload(&workload, n_jobs, seed);
        let spec = ExperimentSpec::new(machines)
            .with_tmax(SimTime::from_hours(100.0))
            .with_stop_on_target(false)
            .with_seed(seed);
        let mut policy = ChaosPolicy { state: seed.wrapping_mul(2654435761).max(1) };
        let result = run_sim(&mut policy, &experiment, spec);

        prop_assert_eq!(result.outcomes.len(), n_jobs);
        let epoch_sum: u64 = result.outcomes.iter().map(|o| u64::from(o.epochs)).sum();
        prop_assert_eq!(epoch_sum, result.total_epochs, "epoch accounting consistent");
        for o in &result.outcomes {
            prop_assert!(o.epochs <= epochs, "no job exceeds its cap");
            if o.epochs > 0 {
                prop_assert!(o.busy_time > SimTime::ZERO);
                prop_assert!(o.best_value.is_finite());
            }
            // A completed job ran all its epochs.
            if o.end == JobEnd::Completed {
                prop_assert_eq!(o.epochs, epochs);
            }
        }
        // Suspensions recorded match what the chaos policy could cause.
        for e in &result.suspend_events {
            prop_assert!(e.requested_at <= result.end_time);
            prop_assert!(e.cost.latency > SimTime::ZERO);
        }
        // Snapshot storage holds at most one snapshot per job at a time, so
        // its high-water mark is bounded by every job's largest one.
        let mut largest = std::collections::BTreeMap::new();
        for e in &result.suspend_events {
            let size = largest.entry(e.job).or_insert(0u64);
            *size = (*size).max(e.cost.snapshot_bytes);
        }
        prop_assert!(result.peak_snapshot_bytes <= largest.values().sum::<u64>());
        prop_assert_eq!(result.peak_snapshot_bytes == 0, result.suspend_events.is_empty());
    }

    /// Determinism: identical seeds give bit-identical results.
    #[test]
    fn simulation_is_reproducible(seed in 0u64..500) {
        let workload = CifarWorkload::new().with_max_epochs(8);
        let experiment = ExperimentWorkload::from_workload(&workload, 6, seed);
        let spec = ExperimentSpec::new(3).with_stop_on_target(false).with_seed(seed);
        let mut p1 = ChaosPolicy { state: seed.max(1) };
        let r1 = run_sim(&mut p1, &experiment, spec);
        let mut p2 = ChaosPolicy { state: seed.max(1) };
        let r2 = run_sim(&mut p2, &experiment, spec);
        prop_assert_eq!(r1.end_time, r2.end_time);
        prop_assert_eq!(r1.total_epochs, r2.total_epochs);
        prop_assert_eq!(r1.suspend_events.len(), r2.suspend_events.len());
    }

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
            let mut log = Vec::new();
            result.events.write_csv(&mut log).expect("event log serializes");
            (log, result.total_epochs, result.end_time, result.time_to_target)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Event-log invariants under chaotic scheduling: per-machine Gantt
    /// segments never overlap, utilization stays in [0, 1], and every
    /// recorded event carries a timestamp within the experiment window.
    #[test]
    fn event_log_invariants_hold_under_chaos(
        n_jobs in 2usize..10,
        machines in 1usize..5,
        seed in 0u64..500,
    ) {
        let workload = CifarWorkload::new().with_max_epochs(8);
        let experiment = ExperimentWorkload::from_workload(&workload, n_jobs, seed);
        let spec = ExperimentSpec::new(machines)
            .with_tmax(SimTime::from_hours(100.0))
            .with_stop_on_target(false)
            .with_seed(seed);
        let mut policy = ChaosPolicy { state: seed.wrapping_mul(99991).max(1) };
        let result = run_sim(&mut policy, &experiment, spec);

        let segments = result.events.gantt(result.end_time);
        // Per-machine, segments sorted by start must not overlap.
        for m in 0..machines {
            let mut spans: Vec<_> = segments
                .iter()
                .filter(|s| s.machine.raw() as usize == m)
                .collect();
            spans.sort_by_key(|a| a.start);
            for w in spans.windows(2) {
                prop_assert!(
                    w[0].end <= w[1].start + SimTime::from_secs(1e-6),
                    "machine {m}: overlapping spans {:?} and {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        for u in result.events.machine_utilization(machines, result.end_time) {
            prop_assert!((0.0..=1.0).contains(&u));
        }
        for e in result.events.events() {
            prop_assert!(e.time() <= result.end_time + SimTime::from_secs(1e-6));
        }
        // Every suspension recorded in telemetry has a log event.
        let suspends_in_log = result
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, hyperdrive::framework::SchedulerEvent::Suspended { .. }))
            .count();
        prop_assert_eq!(suspends_in_log, result.suspend_events.len());
    }
}
