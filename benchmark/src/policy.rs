//! Benchmark-local scheduling policies: the forwarding wrapper that
//! observes a policy from outside, and the rule-based `ChurnPolicy` that
//! drives the suspend/resume/terminate half of the spine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hyperdrive_curve::derive_fit_seed;
use hyperdrive_framework::{
    FitCacheSnapshot, JobDecision, JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy,
};
use hyperdrive_types::{JobId, LearningCurve, SimTime};

use crate::spans::Tracer;

/// Every `CAPTURE_STRIDE`-th boundary decision has its fitted curve
/// captured for the replay stage.
pub const CAPTURE_STRIDE: u64 = 4;

/// A curve the wrapped policy fitted, with what is needed to fit it again
/// and to query the posterior the way the policy did.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The observed prefix the boundary decision fitted.
    pub curve: LearningCurve,
    /// The seed the fit service derives for this `(job, epoch)`.
    pub fit_seed: u64,
    /// Extrapolation horizon of the fit.
    pub horizon: u32,
    /// Future epochs the remaining-time estimate sums over.
    pub max_future: u32,
    /// Mean epoch duration of the prefix.
    pub epoch_duration: SimTime,
    /// `Tmax` minus the decision time.
    pub budget: SimTime,
    /// The experiment's target.
    pub target: f64,
}

/// State shared between a [`TracedPolicy`] and the loop stepping the
/// simulation that borrows it.
#[derive(Debug)]
pub struct Probe {
    /// The wrapped policy's fit-batch count after its latest decision.
    batches: AtomicU64,
    /// Whether the step now running records spans.
    live: AtomicBool,
    tracer: Mutex<Tracer>,
    captures: Mutex<Vec<Capture>>,
}

impl Probe {
    /// A fresh probe for timed unit `study`.
    pub fn new(study: u32) -> Arc<Self> {
        Arc::new(Probe {
            batches: AtomicU64::new(0),
            live: AtomicBool::new(false),
            tracer: Mutex::new(Tracer::new(study)),
            captures: Mutex::new(Vec::new()),
        })
    }

    /// Fit batches the wrapped policy had served after its latest
    /// decision; a step during which this advances is a boundary decision.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Switches span recording for the policy's up-calls on or off.
    pub fn set_live(&self, live: bool) {
        self.live.store(live, Ordering::Relaxed);
    }

    /// The span recorder.
    pub fn tracer(&self) -> MutexGuard<'_, Tracer> {
        self.tracer.lock().expect("no tracer user panics while holding the lock")
    }

    /// Takes the curves captured so far.
    pub fn take_captures(&self) -> Vec<Capture> {
        std::mem::take(&mut *self.captures.lock().expect("capture pushes never panic"))
    }
}

/// Span names for the five up-calls that do work, prefixed with the layer
/// the wrapped policy lives in.
#[derive(Debug)]
pub struct UpcallNames {
    stat: &'static str,
    /// Name of the `on_iteration_finish` span.
    pub finish: &'static str,
    allocate: &'static str,
    overhead: &'static str,
    hint: &'static str,
}

macro_rules! upcall_names {
    ($layer:literal) => {
        UpcallNames {
            stat: concat!($layer, ".application_stat"),
            finish: concat!($layer, ".on_iteration_finish"),
            allocate: concat!($layer, ".allocate_jobs"),
            overhead: concat!($layer, ".take_decision_overhead"),
            hint: concat!($layer, ".prefetch_hint"),
        }
    };
}

/// Names for `hyperdrive_core::PopPolicy`.
pub const CORE: UpcallNames = upcall_names!("core");
/// Names for `hyperdrive_policies::EarlyTermPolicy`.
pub const POLICIES: UpcallNames = upcall_names!("policies");

/// Forwards all eight [`SchedulingPolicy`] methods to `inner` and reports
/// what it sees through a [`Probe`], because the simulation holds the
/// policy borrow for the whole run.
///
/// Untraced it takes no timestamps: it only publishes the policy's
/// fit-batch counter after each decision, so the stepping loop can tell a
/// boundary decision from an ordinary step. Traced it also records a span
/// around every up-call and captures a 1-in-[`CAPTURE_STRIDE`] sample of
/// the curves the policy fitted.
#[derive(Debug)]
pub struct TracedPolicy<P> {
    inner: P,
    probe: Arc<Probe>,
    names: &'static UpcallNames,
    traced: bool,
    /// Root of the policy's per-fit seeds (its configured `seed`).
    seed_root: u64,
    seen_batches: u64,
    decisions: u64,
}

impl<P: SchedulingPolicy> TracedPolicy<P> {
    /// Wraps `inner`. `seed_root` is the seed the policy was configured
    /// with, from which the captured fits' seeds are derived.
    pub fn new(
        inner: P,
        probe: Arc<Probe>,
        names: &'static UpcallNames,
        traced: bool,
        seed_root: u64,
    ) -> Self {
        TracedPolicy { inner, probe, names, traced, seed_root, seen_batches: 0, decisions: 0 }
    }

    /// Gives the policy back, for its public counters.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn enter(&self, name: &'static str) -> Option<u32> {
        (self.traced && self.probe.live.load(Ordering::Relaxed))
            .then(|| self.probe.tracer().enter(name))
    }

    fn exit(&self, span: Option<u32>) {
        if let Some(id) = span {
            self.probe.tracer().exit(id);
        }
    }

    /// The boundary fit of `event.job`, reconstructed with the arithmetic
    /// of `PopPolicy::refresh_assessments` (EarlyTerm's horizon, the epoch
    /// cap, is what the same arithmetic yields under a roomy `Tmax`).
    fn capture(&self, event: &JobEvent, ctx: &dyn SchedulerContext) -> Option<Capture> {
        let curve = ctx.curve(event.job)?;
        let budget = ctx.tmax().saturating_sub(event.now);
        let epoch_duration = curve.mean_epoch_duration().unwrap_or_else(|| {
            SimTime::from_secs(event.now.as_secs() / f64::from(event.epoch.max(1)))
        });
        if budget <= SimTime::ZERO || epoch_duration <= SimTime::ZERO {
            return None;
        }
        let by_budget = (budget.as_secs() / epoch_duration.as_secs()).floor() as u32;
        let max_future = by_budget.min(ctx.max_epochs().saturating_sub(event.epoch));
        (max_future >= 1).then(|| Capture {
            curve,
            fit_seed: derive_fit_seed(self.seed_root, event.job.raw(), event.epoch),
            horizon: event.epoch + max_future,
            max_future,
            epoch_duration,
            budget,
            target: ctx.target(),
        })
    }
}

impl<P: SchedulingPolicy> SchedulingPolicy for TracedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate_jobs(&mut self, ctx: &mut dyn SchedulerContext) {
        let span = self.enter(self.names.allocate);
        self.inner.allocate_jobs(ctx);
        self.exit(span);
    }

    fn application_stat(&mut self, event: &JobEvent, ctx: &mut dyn SchedulerContext) {
        let span = self.enter(self.names.stat);
        self.inner.application_stat(event, ctx);
        self.exit(span);
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        let span = self.enter(self.names.finish);
        let decision = self.inner.on_iteration_finish(event, ctx);
        self.exit(span);
        let batches = self.inner.fit_cache_snapshot().map_or(0, |s| s.batches);
        if batches != self.seen_batches {
            self.seen_batches = batches;
            self.probe.batches.store(batches, Ordering::Relaxed);
            if self.traced {
                if self.decisions.is_multiple_of(CAPTURE_STRIDE) {
                    if let Some(c) = self.capture(event, ctx) {
                        self.probe.captures.lock().expect("capture pushes never panic").push(c);
                    }
                }
                self.decisions += 1;
            }
        }
        decision
    }

    fn take_decision_overhead(&mut self) -> SimTime {
        let span = self.enter(self.names.overhead);
        let overhead = self.inner.take_decision_overhead();
        self.exit(span);
        overhead
    }

    fn prefetch_boundary(&self, default_boundary: u32) -> Option<u32> {
        self.inner.prefetch_boundary(default_boundary)
    }

    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        let span = self.enter(self.names.hint);
        self.inner.prefetch_hint(hint, curve);
        self.exit(span);
    }

    fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
        self.inner.fit_cache_snapshot()
    }
}

/// A deterministic rule policy that exercises the half of the spine
/// `DefaultPolicy` never reaches: at every 10th epoch of a job it labels
/// the job with a hashed priority in `0..8`, terminates the job if it is
/// in a hashed quarter of all jobs and has reached epoch 20, and otherwise
/// suspends it whenever idle jobs are waiting for a machine.
#[derive(Debug, Clone, Copy)]
pub struct ChurnPolicy {
    seed: u64,
}

impl ChurnPolicy {
    /// Epochs between two decisions on one job.
    pub const BOUNDARY: u32 = 10;

    /// A churn policy whose hashes are keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        ChurnPolicy { seed }
    }

    /// A hash of `(seed, job, epoch)`: the library's seed splitter, used
    /// here for nothing but its mixing.
    fn hash(&self, job: JobId, epoch: u32) -> u64 {
        derive_fit_seed(self.seed, job.raw(), epoch)
    }
}

impl SchedulingPolicy for ChurnPolicy {
    fn name(&self) -> &str {
        "churn"
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        if !event.epoch.is_multiple_of(Self::BOUNDARY) {
            return JobDecision::Continue;
        }
        ctx.label_job(event.job, (self.hash(event.job, event.epoch) % 8) as f64);
        if event.epoch >= 20 && self.hash(event.job, 0).is_multiple_of(4) {
            JobDecision::Terminate
        } else if ctx.idle_job_count() > 0 {
            JobDecision::Suspend
        } else {
            JobDecision::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_core::{PopConfig, PopPolicy};
    use hyperdrive_curve::PredictorConfig;
    use hyperdrive_framework::{ExperimentResult, ExperimentSpec, ExperimentWorkload};
    use hyperdrive_sim::run_sim;
    use hyperdrive_workload::CifarWorkload;

    fn experiment(jobs: usize, epochs: u32) -> ExperimentWorkload {
        ExperimentWorkload::from_workload(&CifarWorkload::new().with_max_epochs(epochs), jobs, 5)
    }

    /// Everything a run emits, as bytes.
    fn rendered(result: &ExperimentResult) -> Vec<u8> {
        let mut out = Vec::new();
        result.events.write_csv(&mut out).expect("writing to memory cannot fail");
        out.extend(format!("{:?} {:?}", result.end_time, result.time_to_target).into_bytes());
        out.extend(result.total_epochs.to_le_bytes());
        out
    }

    #[test]
    fn churn_policy_is_deterministic_and_churns() {
        let ew = experiment(24, 40);
        let spec = ExperimentSpec::new(8).with_stop_on_target(false).with_seed(3);
        let a = run_sim(&mut ChurnPolicy::new(9), &ew, spec);
        let b = run_sim(&mut ChurnPolicy::new(9), &ew, spec);
        assert_eq!(rendered(&a), rendered(&b));
        assert!(!a.suspend_events.is_empty(), "idle jobs waited, so some job was suspended");
        assert!(a.terminated_early() > 0, "a quarter of the jobs is terminated at epoch 20");
        assert!(a.terminated_early() < ew.len(), "but not all of them");
        let other = run_sim(&mut ChurnPolicy::new(10), &ew, spec);
        assert_ne!(rendered(&a), rendered(&other), "the seed keys the hashes");
    }

    fn pop(prefetch: bool) -> PopPolicy {
        PopPolicy::with_config_and_cache(
            PopConfig {
                predictor: PredictorConfig::test(),
                fit_prefetch: Some(prefetch),
                fit_cost: Some(hyperdrive_core::FitCostModel {
                    secs_per_kiloeval: 0.01,
                    modeled_workers: 2,
                    fast_math_speedup: 1.0,
                    batch_fit_speedup: 1.0,
                }),
                seed: 11,
                ..Default::default()
            },
            None,
        )
    }

    #[test]
    fn wrapped_run_is_byte_identical_to_the_unwrapped_run() {
        // Prefetch on and a fit-cost model set, so that `prefetch_boundary`,
        // `prefetch_hint` and `take_decision_overhead` all carry weight: a
        // wrapper that dropped any of them would change the trace.
        let ew = experiment(10, 40);
        let spec = ExperimentSpec::new(3).with_stop_on_target(false).with_seed(2);
        let mut bare = pop(true);
        let expected = run_sim(&mut bare, &ew, spec);
        assert!(bare.spec_stats().speculated > 0 && bare.fit_stats().fits > 0);

        for traced in [false, true] {
            let probe = Probe::new(0);
            probe.set_live(true);
            let mut wrapped = TracedPolicy::new(pop(true), probe.clone(), &CORE, traced, 11);
            let result = run_sim(&mut wrapped, &ew, spec);
            assert_eq!(rendered(&result), rendered(&expected), "traced: {traced}");
            assert_eq!(result.policy, "pop");
            assert_eq!(result.fit_cache, expected.fit_cache);
            assert_eq!(probe.batches(), expected.fit_cache.expect("POP fits").batches);
            let inner = wrapped.into_inner();
            assert_eq!(inner.spec_stats().speculated, bare.spec_stats().speculated);

            let spans = probe.tracer().take();
            let captures = probe.take_captures();
            if traced {
                for name in [CORE.stat, CORE.finish, CORE.allocate, CORE.overhead, CORE.hint] {
                    assert!(spans.iter().any(|s| s.name == name), "no span named {name}");
                }
                let decisions = inner.fit_stats().batches;
                assert_eq!(captures.len() as u64, decisions.div_ceil(CAPTURE_STRIDE));
                assert!(captures.iter().all(|c| c.horizon > c.curve.last_epoch().unwrap()));
            } else {
                assert!(spans.is_empty() && captures.is_empty(), "untraced records nothing");
            }
        }
    }

    /// Counts the calls to each of the eight trait methods.
    #[derive(Debug, Default)]
    struct Spy {
        calls: [AtomicU64; 8],
    }

    impl Spy {
        fn hit(&self, method: usize) {
            self.calls[method].fetch_add(1, Ordering::Relaxed);
        }

        fn counts(&self) -> Vec<u64> {
            self.calls.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        }
    }

    impl SchedulingPolicy for Spy {
        fn name(&self) -> &str {
            self.hit(0);
            "spy"
        }
        fn allocate_jobs(&mut self, ctx: &mut dyn SchedulerContext) {
            self.hit(1);
            while ctx.idle_slots() > 0 && ctx.start_next_idle_job().is_some() {}
        }
        fn application_stat(&mut self, _: &JobEvent, _: &mut dyn SchedulerContext) {
            self.hit(2);
        }
        fn on_iteration_finish(
            &mut self,
            _: &JobEvent,
            _: &mut dyn SchedulerContext,
        ) -> JobDecision {
            self.hit(3);
            JobDecision::Continue
        }
        fn take_decision_overhead(&mut self) -> SimTime {
            self.hit(4);
            SimTime::ZERO
        }
        fn prefetch_boundary(&self, _: u32) -> Option<u32> {
            self.hit(5);
            Some(5)
        }
        fn prefetch_hint(&mut self, _: &PrefetchHint, _: &LearningCurve) {
            self.hit(6);
        }
        fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
            self.hit(7);
            None
        }
    }

    #[test]
    fn all_eight_methods_reach_the_wrapped_policy() {
        let ew = experiment(4, 12);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let mut bare = Spy::default();
        run_sim(&mut bare, &ew, spec);
        assert!(bare.counts().iter().all(|c| *c > 0), "the engine calls every method");

        let mut wrapped = TracedPolicy::new(Spy::default(), Probe::new(0), &CORE, false, 0);
        run_sim(&mut wrapped, &ew, spec);
        let mut seen = wrapped.into_inner().counts();
        // The wrapper itself reads the fit counters after every decision.
        seen[7] -= seen[3];
        assert_eq!(seen, bare.counts());
    }
}
