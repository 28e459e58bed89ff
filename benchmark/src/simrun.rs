//! Drives one simulated experiment and measures it from outside.

use std::hash::Hasher;
use std::time::Instant;

use hyperdrive_framework::{
    EngineEvent, ExperimentResult, ExperimentSpec, ExperimentWorkload, FitCacheSnapshot,
    SchedulingPolicy,
};
use hyperdrive_sim::{run_sim, Simulation};

use crate::policy::Probe;

/// What one driven experiment produced and cost.
#[derive(Debug, Clone, Default)]
pub struct SimRun {
    /// Wall seconds from engine construction to the finished result.
    pub wall_s: f64,
    /// Simulated events processed: epochs completed plus suspends.
    pub events: u64,
    /// Digest of the event log and headline outcome.
    pub hash: u64,
    /// `total_epochs == Σ outcomes.epochs`.
    pub epochs_consistent: bool,
    /// Total epochs executed.
    pub total_epochs: u64,
    /// Whether some job reached the target.
    pub reached: bool,
    /// Simulated hours at which the experiment stopped: the time to
    /// target when one was reached, else the end time.
    pub stop_h: f64,
    /// Suspend decisions taken.
    pub suspends: u64,
    /// Jobs the policy terminated early.
    pub terminations: u64,
    /// Summed sampled snapshot sizes of all suspends, in bytes.
    pub snapshot_bytes: u64,
    /// The policy's fit counters at the end of the run.
    pub fit: Option<FitCacheSnapshot>,
    /// Wall milliseconds of each step in which the policy's fit-batch
    /// counter advanced (untraced stepped runs only).
    pub decision_ms: Vec<f64>,
    /// Wall milliseconds to serialize the event log as CSV, measured after
    /// the run.
    pub csv_ms: f64,
    /// Wall seconds of the stepping loop alone (stepped runs only).
    pub loop_s: f64,
    /// Steps the loop made.
    pub steps: u64,
}

/// Finishes a [`SimRun`] from the experiment's result; everything here is
/// outside the unit's wall time.
fn summarize(result: &ExperimentResult, wall_s: f64, decision_ms: Vec<f64>) -> SimRun {
    let t = Instant::now();
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("writing to memory cannot fail");
    let csv_ms = t.elapsed().as_secs_f64() * 1e3;
    // `DefaultHasher::new()` has fixed keys, and digests are only ever
    // compared within one process.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(&csv);
    h.write_u64(result.total_epochs);
    h.write_u64(result.end_time.as_secs().to_bits());
    h.write_u64(result.time_to_target.map_or(u64::MAX, |t| t.as_secs().to_bits()));
    SimRun {
        wall_s,
        events: result.total_epochs + result.suspend_events.len() as u64,
        hash: h.finish(),
        epochs_consistent: result.total_epochs
            == result.outcomes.iter().map(|o| u64::from(o.epochs)).sum::<u64>(),
        total_epochs: result.total_epochs,
        reached: result.reached_target(),
        stop_h: result.time_to_target.unwrap_or(result.end_time).as_hours(),
        suspends: result.suspend_events.len() as u64,
        terminations: result.terminated_early() as u64,
        snapshot_bytes: result.suspend_events.iter().map(|e| e.cost.snapshot_bytes).sum(),
        fit: result.fit_cache,
        decision_ms,
        csv_ms,
        loop_s: 0.0,
        steps: 0,
    }
}

/// `run_sim` with no observation at all: the spine workloads' timed pass.
pub fn drive_plain(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
) -> SimRun {
    let start = Instant::now();
    let result = run_sim(policy, workload, spec);
    summarize(&result, start.elapsed().as_secs_f64(), Vec::new())
}

/// Steps the experiment event by event. A policy wrapped in a
/// [`TracedPolicy`](crate::policy::TracedPolicy) reports through `probe`;
/// a bare one leaves the probe's batch counter at zero and nests no spans
/// under the steps.
///
/// With `stride: None` (untraced) the loop takes one timestamp per step
/// and records the wall time of each step in which the policy consulted
/// the curve model — the latency a live machine idles for. With
/// `stride: Some(n)` (traced) it takes no per-step timestamps and instead
/// records spans around every `n`-th step and the up-calls inside it.
pub fn drive_stepped(
    policy: &mut dyn SchedulingPolicy,
    probe: &Probe,
    stride: Option<u64>,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
) -> SimRun {
    let traced = stride.is_some();
    let start = Instant::now();
    // The constructor's initial `allocate_jobs` up-call nests under
    // `framework.engine_new`.
    probe.set_live(traced);
    let new_span = traced.then(|| probe.tracer().enter("framework.engine_new"));
    let mut sim = Simulation::new(policy, workload, spec);
    if let Some(id) = new_span {
        probe.tracer().exit(id);
    }

    let mut decision_ms = Vec::new();
    let mut seen_batches = 0;
    let mut steps = 0u64;
    let loop_start = Instant::now();
    let mut prev = loop_start;
    loop {
        let sampled = stride.is_some_and(|s| steps.is_multiple_of(s));
        probe.set_live(sampled);
        let span = sampled.then(|| probe.tracer().enter("sim.step"));
        let outcome = sim.step();
        let decided = probe.batches() != seen_batches;
        if let Some(id) = span {
            let mut tracer = probe.tracer();
            tracer.exit(id);
            match outcome {
                // The call that found the experiment over did no work.
                None => tracer.rename(id, "sim.drained"),
                Some(_) if decided => tracer.rename(id, "sim.step.decision"),
                Some(o) if matches!(o.event, EngineEvent::SuspendDone { .. }) => {
                    tracer.rename(id, "sim.step.suspend_done");
                }
                Some(_) => {}
            }
        }
        if outcome.is_none() {
            break;
        }
        if !traced {
            let now = Instant::now();
            if decided {
                decision_ms.push((now - prev).as_secs_f64() * 1e3);
            }
            prev = now;
        }
        if decided {
            seen_batches = probe.batches();
        }
        steps += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    probe.set_live(traced);
    let finish_span = traced.then(|| probe.tracer().enter("framework.finish"));
    let result = sim.finish();
    if let Some(id) = finish_span {
        probe.tracer().exit(id);
    }
    probe.set_live(false);
    SimRun { loop_s, steps, ..summarize(&result, start.elapsed().as_secs_f64(), decision_ms) }
}
