//! The live executor: real threads, real (scaled) time.
//!
//! One node-agent thread runs per machine, mirroring the paper's §4.2 Node
//! Agent daemon: it receives job-execution requests from the scheduler,
//! performs the work (here: sleeping the scaled epoch duration in place of
//! GPU training), and reports application statistics back over a channel
//! (standing in for GRPC). [`LiveSource`] owns the agents and is the
//! wall-clock input source of the one loop; [`LiveRun`] is that loop.
//!
//! The source guards every outstanding request with a heartbeat watchdog:
//! if an agent's report does not arrive within its deadline plus
//! [`LiveFaultPlan::watchdog_grace`], the agent is declared stalled, a
//! fresh agent thread replaces it, and the engine rolls the hosted job
//! back to its last snapshot ([`EngineInput::AgentStall`]).
//! [`LiveRun::with_faults`] exercises that path deliberately by wedging
//! chosen requests.
//!
//! Unlike the discrete-event simulator, this executor exhibits genuine
//! nondeterminism — thread scheduling and timer jitter reorder events —
//! which is precisely what the Fig. 12a simulator-validation experiment
//! compares against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};

use hyperdrive_types::{MachineId, Result, SimTime};

use crate::driver::{Driver, InputSource};
use crate::engine::{Command, EngineEvent, EngineInput, ExperimentEngine};
use crate::experiment::{ExperimentResult, ExperimentSpec, ExperimentWorkload};
use crate::fault::FaultPlan;
use crate::journal::{Journal, RecoveredJournal};
use crate::policy::SchedulingPolicy;

/// Set by the process-wide SIGTERM handler installed with
/// [`install_sigterm_handler`]; every live run polls it between events.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
}

/// Installs a process-wide SIGTERM handler that asks every in-flight live
/// run to shut down gracefully: the run notices within ~250 ms, seals its
/// write-ahead journal (marking the run interrupted, not complete), and
/// returns a partial result once its node-agent threads have drained. A
/// later process can resume from the sealed journal ([`LiveRun::resume`]).
///
/// Idempotent; a no-op on non-Unix targets.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }
}

/// Fault instructions for the live executor.
///
/// Unlike the simulator's virtual-time [`FaultPlan`], live faults are
/// expressed against the observable request stream: "swallow the nth
/// request sent to machine m". A wedged request never produces a report,
/// so the scheduler's watchdog must detect and repair the stall — the
/// live analogue of a hung node agent.
#[derive(Debug, Clone)]
pub struct LiveFaultPlan {
    /// `(machine index, nth request to that machine, 1-based)` pairs to
    /// swallow. The agent accepts the request and then goes silent.
    pub wedge_requests: Vec<(u64, u32)>,
    /// Extra wall-clock slack past a request's deadline before the
    /// watchdog declares the agent stalled. Must comfortably exceed
    /// ordinary sleep overshoot at the chosen time scale.
    pub watchdog_grace: Duration,
    /// Per-run graceful-shutdown flag: when it flips to `true` the run
    /// seals its journal, drains the agents, and returns a partial result
    /// — the in-process analogue of SIGTERM (which sets a process-wide
    /// flag every run also polls; see [`install_sigterm_handler`]).
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl Default for LiveFaultPlan {
    fn default() -> Self {
        LiveFaultPlan {
            wedge_requests: Vec::new(),
            watchdog_grace: Duration::from_secs(1),
            shutdown: None,
        }
    }
}

/// A request to a node agent: report `event` once the wall clock reaches
/// `deadline` — the triggering input's virtual time plus the work's
/// duration, so scheduler stalls (curve-model fits) overlap training as in
/// the paper's §5.2 — unless `wedge`d. Work that reaches its agent late
/// completes at once: that residue is genuine contention.
#[derive(Debug, Clone, Copy)]
struct Work {
    event: EngineEvent,
    deadline: Instant,
    wedge: bool,
}

/// A report from a node agent: the event, and when the work completed.
type Report = (EngineEvent, Instant);

/// Starts a node-agent thread, which works through its requests until
/// their channel closes, and returns that channel.
fn spawn_agent(reports: Sender<Report>, threads: &mut Vec<JoinHandle<()>>) -> Sender<Work> {
    let (requests, rx) = unbounded::<Work>();
    threads.push(std::thread::spawn(move || {
        while let Ok(work) = rx.recv() {
            std::thread::sleep(work.deadline.saturating_duration_since(Instant::now()));
            // A wedged request never reports: the watchdog has to notice.
            if !work.wedge && reports.send((work.event, Instant::now())).is_err() {
                return; // the scheduler is gone
            }
        }
    }));
    requests
}

/// The wall-clock input source: one node agent per machine, the
/// per-machine in-flight table and its watchdog, and the stamping of
/// reports in virtual time. Dropping it closes every agent's request
/// channel and joins every agent thread.
pub struct LiveSource {
    agents: Vec<Sender<Work>>,
    /// Every agent thread spawned, replaced ones included.
    threads: Vec<JoinHandle<()>>,
    reports_tx: Sender<Report>,
    reports: Receiver<Report>,
    /// Per machine: its one outstanding request, and whether it was sent.
    inflight: Vec<Option<(Work, bool)>>,
    /// Requests issued per machine so far (drives wedge matching).
    issued: Vec<u32>,
    plan: LiveFaultPlan,
    /// Sealed as incomplete when a shutdown is requested.
    journal: Journal,
    /// A resumed run's journaled inputs, handed out before any report.
    replay: std::vec::IntoIter<(SimTime, EngineInput)>,
    /// The wall-clock instant of virtual time `origin`: zero, or where a
    /// resumed run's journal ends.
    started: Instant,
    origin: SimTime,
    time_scale: f64,
    /// Time of the last input handed out: reports arrive out of
    /// completion order, and none is stamped earlier.
    last: SimTime,
}

impl LiveSource {
    fn new(
        machines: usize,
        time_scale: f64,
        plan: &LiveFaultPlan,
        journal: Journal,
        replay: Vec<(SimTime, EngineInput)>,
    ) -> Self {
        assert!(time_scale > 0.0 && time_scale.is_finite(), "time_scale must be positive");
        let (reports_tx, reports) = unbounded();
        let mut threads = Vec::new();
        let agents = (0..machines).map(|_| spawn_agent(reports_tx.clone(), &mut threads)).collect();
        let origin = replay.last().map_or(SimTime::ZERO, |&(t, _)| t);
        let mut replay = replay.into_iter();
        replay.next(); // `Start`, which the driver delivers itself
        LiveSource {
            agents,
            threads,
            reports_tx,
            reports,
            inflight: vec![None; machines],
            issued: vec![0; machines],
            plan: plan.clone(),
            journal,
            replay,
            started: Instant::now(),
            origin,
            time_scale,
            last: origin,
        }
    }

    fn deadline(&self, at: SimTime) -> Instant {
        self.started
            + Duration::from_secs_f64(at.saturating_sub(self.origin).as_secs() / self.time_scale)
    }

    fn stamp(&mut self, wall: Instant) -> SimTime {
        let elapsed = wall.saturating_duration_since(self.started).as_secs_f64();
        self.last = self.last.max(self.origin + SimTime::from_secs(elapsed * self.time_scale));
        self.last
    }

    /// Clears the request `event` reports on. A stale report — from an
    /// agent replaced after a stall — matches none; the engine drops it by
    /// token.
    fn complete(&mut self, event: EngineEvent) {
        let slot = self.inflight.iter_mut().find(|f| f.is_some_and(|(w, _)| w.event == event));
        if let Some(slot) = slot {
            *slot = None;
        }
    }

    /// Declares `machine`'s agent stalled: its work is lost and a fresh
    /// agent replaces it. Closing the old agent's channel lets it exit if
    /// it ever wakes.
    fn stall(&mut self, machine: usize, wall: Instant) -> (SimTime, EngineInput) {
        self.inflight[machine] = None;
        self.agents[machine] = spawn_agent(self.reports_tx.clone(), &mut self.threads);
        (self.stamp(wall), EngineInput::AgentStall(MachineId::new(machine as u64)))
    }
}

impl InputSource for LiveSource {
    fn next_input(&mut self) -> Option<(SimTime, EngineInput)> {
        // A resumed run first hands back its journal's inputs, which a wall
        // clock cannot regenerate; `route` meanwhile records the work they
        // issue without sending it.
        if let Some((now, input)) = self.replay.next() {
            match input {
                EngineInput::Event(event) => self.complete(event),
                // Checked: a journal of another spec may name any machine.
                EngineInput::AgentStall(m) => {
                    if let Some(slot) = self.inflight.get_mut(m.raw() as usize) {
                        *slot = None;
                    }
                }
                _ => {}
            }
            self.last = now;
            return Some((now, input));
        }
        // Send what the last input issued (after a replay: everything still
        // in flight, to fresh agents).
        for machine in 0..self.inflight.len() {
            let Some((work, false)) = self.inflight[machine] else { continue };
            self.inflight[machine] = Some((work, true));
            if self.agents[machine].send(work).is_err() {
                // The agent died: restart it and treat the work as stalled.
                return Some(self.stall(machine, Instant::now()));
            }
        }
        loop {
            let shutdown = self.plan.shutdown.as_ref().is_some_and(|f| f.load(Ordering::Relaxed));
            if shutdown || SIGTERM_RECEIVED.load(Ordering::Relaxed) {
                // Sealed before the agents drain: the result is partial, and
                // the journal is what a later process resumes from.
                self.journal.seal(self.last, false);
                return None;
            }
            // The watchdog runs before every receive, so a backlog of
            // reports cannot postpone a stall detection. Nothing in
            // flight: nothing more can arrive.
            let wall = Instant::now();
            let (due, machine) = self
                .inflight
                .iter()
                .enumerate()
                .filter_map(|(m, f)| Some((f.as_ref()?.0.deadline + self.plan.watchdog_grace, m)))
                .min()?;
            if due <= wall {
                return Some(self.stall(machine, wall));
            }
            // Capped so a shutdown request is noticed promptly.
            let wait = (due - wall).min(Duration::from_millis(250));
            if let Ok((event, completed_at)) = self.reports.recv_timeout(wait) {
                self.complete(event);
                // Stamped when the agent completed the work, not when the
                // scheduler got around to its report.
                return Some((self.stamp(completed_at), EngineInput::Event(event)));
            }
        }
    }

    fn route(&mut self, now: SimTime, cmds: &[Command]) {
        for (machine, due, event) in cmds.iter().filter_map(|c| c.report(now)) {
            let m = machine.raw() as usize;
            self.issued[m] += 1;
            let wedge = self.plan.wedge_requests.contains(&(machine.raw(), self.issued[m]));
            self.inflight[m] = Some((Work { event, deadline: self.deadline(due), wedge }, false));
        }
    }
}

impl Drop for LiveSource {
    fn drop(&mut self) {
        // Every request channel closes first; each agent then finishes the
        // sleep it is in and exits.
        self.agents.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One experiment on the live executor: the one loop ([`Driver`]) over a
/// [`LiveSource`], built like the simulator's `Simulation`. Dropping it
/// unfinished (a kill) leaves its journal unsealed for
/// [`resume`](LiveRun::resume). `time_scale` is virtual seconds per
/// wall-clock second (at 600 a 60 s epoch sleeps 100 ms); reported times
/// are virtual, comparable with simulator output. Suspend failures and
/// snapshot corruption are simulator-only ([`FaultPlan::none`]). Every
/// constructor panics unless `time_scale` is positive and the spec has
/// machines.
pub type LiveRun<'w, 'p> = Driver<'w, 'p, LiveSource>;

impl<'w, 'p> LiveRun<'w, 'p> {
    /// Starts a fault-free live run that journals nothing.
    pub fn new(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        time_scale: f64,
    ) -> Self {
        Self::with_faults(policy, workload, spec, time_scale, &LiveFaultPlan::default())
    }

    /// Like [`new`](Self::new), wedging the requests `plan` names: the
    /// watchdog restarts each agent `watchdog_grace` past its deadline, and
    /// the interrupted job reruns from its last snapshot.
    pub fn with_faults(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        time_scale: f64,
        plan: &LiveFaultPlan,
    ) -> Self {
        Self::with_journal(policy, workload, spec, time_scale, plan, Journal::disabled())
    }

    /// Like [`with_faults`](Self::with_faults), recording every input to
    /// the write-ahead `journal` for [`resume`](Self::resume).
    pub fn with_journal(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        time_scale: f64,
        plan: &LiveFaultPlan,
        journal: Journal,
    ) -> Self {
        let none = FaultPlan::none();
        let engine = ExperimentEngine::with_journal(policy, workload, spec, &none, journal.clone());
        Driver::start(engine, LiveSource::new(spec.machines, time_scale, plan, journal, Vec::new()))
    }

    /// Rebuilds the live run a killed or drained process left behind: a
    /// fresh engine (and *fresh* `policy`) steps through the journaled
    /// inputs, which the journal verifies, then whatever was in flight goes
    /// to fresh agents on a clock carrying on from the last input. The
    /// result is a valid continuation; live runs are not deterministic.
    ///
    /// # Errors
    ///
    /// [`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged)
    /// if replay regenerates different records than the journal holds.
    pub fn resume(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        time_scale: f64,
        plan: &LiveFaultPlan,
        recovered: RecoveredJournal,
    ) -> Result<Self> {
        let RecoveredJournal { journal, inputs, .. } = recovered;
        let replayed = inputs.len() as u64;
        let none = FaultPlan::none();
        let engine = ExperimentEngine::with_journal(policy, workload, spec, &none, journal.clone());
        let source = LiveSource::new(spec.machines, time_scale, plan, journal.clone(), inputs);
        Driver::start(engine, source).replay(&journal, replayed)
    }
}

/// Runs one experiment on the live executor: `LiveRun::new(..).run()`,
/// the twin of the simulator's `run_sim`.
///
/// # Panics
///
/// Panics if `time_scale` is not positive or the spec has no machines.
pub fn run_live(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    time_scale: f64,
) -> ExperimentResult {
    LiveRun::new(policy, workload, spec, time_scale).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::SchedulerEvent;
    use crate::policy::DefaultPolicy;
    use hyperdrive_types::SimTime;
    use hyperdrive_workload::CifarWorkload;

    #[test]
    fn live_default_runs_to_completion() {
        let w = CifarWorkload::new().with_max_epochs(3);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 4, 5);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        // 60s epochs at 60000x -> ~1ms each.
        let result = run_live(&mut policy, &ew, spec, 60_000.0);
        assert_eq!(result.total_epochs, 4 * 3);
        assert!(result.outcomes.iter().all(|o| o.end == crate::experiment::JobEnd::Completed));
    }

    #[test]
    fn live_stops_on_target() {
        let w = CifarWorkload::new().with_max_epochs(50);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 4, 5).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let result = run_live(&mut policy, &ew, ExperimentSpec::new(2), 60_000.0);
        assert!(result.reached_target());
        assert!(result.total_epochs < 200, "stopped early, not exhaustively");
    }

    #[test]
    fn live_respects_tmax() {
        let w = CifarWorkload::new().with_max_epochs(1000);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 2, 5);
        let mut policy = DefaultPolicy::new();
        let spec =
            ExperimentSpec::new(1).with_tmax(SimTime::from_secs(180.0)).with_stop_on_target(false);
        let result = run_live(&mut policy, &ew, spec, 60_000.0);
        assert!(result.end_time >= SimTime::from_secs(180.0));
        assert!(result.total_epochs < 50, "Tmax bounded the run");
    }

    #[test]
    fn live_suspend_resume_path_works() {
        // A policy that suspends at every epoch forces the full live
        // suspend machinery: snapshot deadline, SuspendDone reply, resume
        // with restored state on a (possibly different) machine.
        struct SuspendEverything;
        impl crate::policy::SchedulingPolicy for SuspendEverything {
            fn name(&self) -> &str {
                "suspend-everything"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &crate::policy::JobEvent,
                ctx: &mut dyn crate::policy::SchedulerContext,
            ) -> crate::policy::JobDecision {
                if ctx.idle_job_count() > 0 {
                    crate::policy::JobDecision::Suspend
                } else {
                    crate::policy::JobDecision::Continue
                }
            }
        }
        let w = CifarWorkload::new().with_max_epochs(3);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 4, 5);
        let mut policy = SuspendEverything;
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let result = run_live(&mut policy, &ew, spec, 60_000.0);
        assert_eq!(result.total_epochs, 12, "all epochs complete across suspensions");
        assert!(!result.suspend_events.is_empty(), "suspensions really happened");
        let resumes = result
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SchedulerEvent::Started { resumed: true, .. }))
            .count();
        assert!(resumes > 0, "suspended jobs resumed");
    }

    #[test]
    fn virtual_time_tracks_epoch_durations() {
        let w = CifarWorkload::new().with_max_epochs(2);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 1, 5);
        let expected: f64 = ew.jobs[0].profile.epoch_durations().map(|d| d.as_secs()).sum();
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let result = run_live(&mut policy, &ew, spec, 60_000.0);
        // Wall time converts back to roughly the profile's virtual length
        // (sleep overshoot only makes it longer).
        assert!(result.end_time.as_secs() >= expected * 0.9);
        assert!(result.end_time.as_secs() <= expected * 3.0 + 60.0);
    }

    #[test]
    fn wedged_agent_is_detected_and_job_reruns() {
        let w = CifarWorkload::new().with_max_epochs(2);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 4, 5);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let plan = LiveFaultPlan {
            // Swallow the second request ever sent to machine 0.
            wedge_requests: vec![(0, 2)],
            watchdog_grace: Duration::from_millis(100),
            ..LiveFaultPlan::default()
        };
        let result = LiveRun::with_faults(&mut policy, &ew, spec, 60_000.0, &plan).run();
        assert_eq!(result.faults.agent_stalls, 1, "the wedge was detected");
        assert!(
            result.outcomes.iter().all(|o| o.end == crate::experiment::JobEnd::Completed),
            "interrupted work re-ran to completion: {:?}",
            result.outcomes.iter().map(|o| o.end).collect::<Vec<_>>()
        );
        // Epoch accounting is `check_trace`'s, inside `into_result`.
    }

    #[test]
    fn sigterm_handler_installs_without_error() {
        // Can't deliver a real SIGTERM inside the test harness without
        // killing the other tests, but installation itself must be safe
        // and idempotent.
        install_sigterm_handler();
        install_sigterm_handler();
    }

    #[test]
    fn stalled_job_resumes_from_last_snapshot() {
        // One job, one machine; the policy snapshots after epoch 1, then
        // the resumed epoch-2 request is wedged. Detection must restore
        // the job from the snapshot: zero epochs lost, resumed start.
        struct SuspendOnce {
            suspended: bool,
        }
        impl crate::policy::SchedulingPolicy for SuspendOnce {
            fn name(&self) -> &str {
                "suspend-once"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &crate::policy::JobEvent,
                _ctx: &mut dyn crate::policy::SchedulerContext,
            ) -> crate::policy::JobDecision {
                if self.suspended {
                    crate::policy::JobDecision::Continue
                } else {
                    self.suspended = true;
                    crate::policy::JobDecision::Suspend
                }
            }
        }
        let w = CifarWorkload::new().with_max_epochs(4);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 1, 5);
        let mut policy = SuspendOnce { suspended: false };
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let plan = LiveFaultPlan {
            // Request 1 = epoch 1, request 2 = suspend, request 3 = the
            // resumed epoch 2 — wedge that one.
            wedge_requests: vec![(0, 3)],
            watchdog_grace: Duration::from_millis(100),
            ..LiveFaultPlan::default()
        };
        let result = LiveRun::with_faults(&mut policy, &ew, spec, 60_000.0, &plan).run();
        assert_eq!(result.faults.agent_stalls, 1);
        assert_eq!(
            result.faults.lost_epochs, 0,
            "epoch 2 was in flight, not complete; the snapshot preserved epoch 1"
        );
        assert_eq!(result.outcomes[0].end, crate::experiment::JobEnd::Completed);
        assert_eq!(result.outcomes[0].epochs, 4);
        let resumed_starts = result
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SchedulerEvent::Started { resumed: true, .. }))
            .count();
        assert!(
            resumed_starts >= 2,
            "resume after suspend and again after the stall, got {resumed_starts}"
        );
    }
}
