//! The live executor: real threads, real (scaled) time.
//!
//! One node-agent thread runs per machine, mirroring the paper's §4.2 Node
//! Agent daemon: it receives job-execution requests from the scheduler,
//! performs the work (here: sleeping the scaled epoch duration in place of
//! GPU training), and reports application statistics back over a channel
//! (standing in for GRPC). The scheduler thread multiplexes agent reports
//! into the shared [`ExperimentEngine`].
//!
//! The scheduler guards every outstanding request with a heartbeat
//! watchdog: if an agent's report does not arrive within its deadline plus
//! [`LiveFaultPlan::watchdog_grace`], the agent is declared stalled, a
//! fresh agent thread replaces it, and the engine rolls the hosted job
//! back to its last snapshot ([`EngineInput::AgentStall`]).
//! [`run_live_with_faults`] exercises that path deliberately by wedging
//! chosen requests.
//!
//! Unlike the discrete-event simulator, this executor exhibits genuine
//! nondeterminism — thread scheduling and timer jitter reorder events —
//! which is precisely what the Fig. 12a simulator-validation experiment
//! compares against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use hyperdrive_types::{JobId, MachineId, SimTime};

use crate::engine::{Command, EngineEvent, EngineInput, ExperimentEngine};
use crate::experiment::{ExperimentResult, ExperimentSpec, ExperimentWorkload};
use crate::fault::FaultPlan;
use crate::journal::Journal;
use crate::policy::SchedulingPolicy;

/// Set by the process-wide SIGTERM handler installed with
/// [`install_sigterm_handler`]; every live run polls it between events.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
}

/// Installs a process-wide SIGTERM handler that asks every in-flight live
/// run to shut down gracefully: the scheduler loop notices within ~250 ms,
/// seals its write-ahead journal (marking the run interrupted, not
/// complete), broadcasts shutdown to the node agents, and drains their
/// threads before returning a partial result. A later process can resume
/// from the sealed journal.
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
    /// Per-run graceful-shutdown flag: when it flips to `true` the
    /// scheduler loop seals the journal, drains the agents, and returns a
    /// partial result — the in-process analogue of SIGTERM (which sets a
    /// process-wide flag every run also polls; see
    /// [`install_sigterm_handler`]).
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

/// A request from the scheduler to a node agent. Work completes at an
/// absolute wall-clock deadline computed from the triggering event's
/// virtual time plus the work's virtual duration — so scheduler stalls
/// (e.g. curve-model fits) do not serialize with training, mirroring the
/// paper's §5.2 "overlap training and prediction" design. A dispatch that
/// arrives after its deadline completes immediately: that residue is the
/// genuine contention the live executor measures.
#[derive(Debug, Clone, Copy)]
enum AgentRequest {
    /// Train one epoch until `deadline`, then report (unless wedged).
    RunEpoch { job: JobId, deadline: Instant, token: u64, wedge: bool },
    /// Capture job state until `deadline`, then report (unless wedged).
    Suspend { job: JobId, deadline: Instant, token: u64, wedge: bool },
    /// Exit the agent loop.
    Shutdown,
}

/// A report from a node agent to the scheduler, stamped at completion.
#[derive(Debug, Clone, Copy)]
struct AgentReply {
    machine: usize,
    event: EngineEvent,
    completed_at: Instant,
}

/// Scheduler-side bookkeeping shared by dispatch and the watchdog.
struct LiveState {
    agent_txs: Vec<Sender<AgentRequest>>,
    /// Per machine: the token and wall deadline of its outstanding
    /// request. At most one request is in flight per machine.
    inflight: HashMap<usize, (u64, Instant)>,
    /// Requests sent per machine so far (drives wedge matching).
    sent: Vec<u32>,
    wedges: Vec<(u64, u32)>,
    /// Machines whose request channel failed mid-send; the caller repairs
    /// them exactly like watchdog-detected stalls.
    dead_sends: Vec<usize>,
    started: Instant,
    time_scale: f64,
}

impl LiveState {
    fn wall_deadline(&self, virtual_time: SimTime) -> Instant {
        self.started + Duration::from_secs_f64(virtual_time.as_secs() / self.time_scale)
    }

    fn virtual_time(&self, wall: Instant) -> SimTime {
        SimTime::from_secs(wall.duration_since(self.started).as_secs_f64() * self.time_scale)
    }

    fn is_wedged(&self, machine: usize, nth: u32) -> bool {
        self.wedges.iter().any(|&(m, n)| m == machine as u64 && n == nth)
    }

    /// Dispatches follow-up commands for an event that completed at
    /// virtual time `base`: each command's work finishes `duration` after
    /// the event that caused it, regardless of how long the scheduler
    /// spent deciding. Returns whether a `Stop` was seen; send failures
    /// land in `dead_sends` instead of panicking. Borrows the batch so the
    /// scheduler loop can reuse one command buffer for the whole run.
    fn dispatch(&mut self, cmds: &[Command], base: SimTime) -> bool {
        let mut stop = false;
        for cmd in cmds {
            let (machine, request, token, deadline) = match *cmd {
                Command::RunEpoch { job, machine, duration, token, .. } => {
                    let m = machine.raw() as usize;
                    self.sent[m] += 1;
                    let deadline = self.wall_deadline(base + duration);
                    let wedge = self.is_wedged(m, self.sent[m]);
                    (m, AgentRequest::RunEpoch { job, deadline, token, wedge }, token, deadline)
                }
                Command::Suspend { job, machine, latency, token } => {
                    let m = machine.raw() as usize;
                    self.sent[m] += 1;
                    let deadline = self.wall_deadline(base + latency);
                    let wedge = self.is_wedged(m, self.sent[m]);
                    (m, AgentRequest::Suspend { job, deadline, token, wedge }, token, deadline)
                }
                Command::Stop => {
                    stop = true;
                    continue;
                }
            };
            if self.agent_txs[machine].send(request).is_ok() {
                self.inflight.insert(machine, (token, deadline));
            } else {
                self.dead_sends.push(machine);
            }
        }
        stop
    }
}

/// Runs one experiment on the live (threaded) executor.
///
/// `time_scale` is virtual seconds per wall-clock second: with
/// `time_scale = 600.0`, a 60-second training epoch occupies its node-agent
/// thread for 100 ms of real time. Experiment timestamps are measured from
/// the wall clock and converted back to virtual time, so all reported
/// durations are comparable with simulator output.
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
    run_live_with_faults(policy, workload, spec, time_scale, &LiveFaultPlan::default())
}

/// Runs one experiment on the live executor while wedging the requests
/// named in `plan` (see [`LiveFaultPlan`]).
///
/// The watchdog detects each wedged request `watchdog_grace` past its
/// deadline, restarts the machine's node agent, and reschedules the
/// interrupted job from its last snapshot. Stale reports from replaced
/// agents are dropped by token. Engine-side probabilistic faults (suspend
/// failure, snapshot corruption) are off in live mode: the engine is
/// built with [`FaultPlan::none`] (default retry policy), and the live plan
/// covers only agent-level faults. Use the simulator for the rest.
///
/// # Panics
///
/// Panics if `time_scale` is not positive or the spec has no machines.
pub fn run_live_with_faults(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    time_scale: f64,
    plan: &LiveFaultPlan,
) -> ExperimentResult {
    run_live_inner(policy, workload, spec, time_scale, plan, None)
}

/// [`run_live_with_faults`] with an explicit write-ahead [`Journal`]
/// instead of the `HYPERDRIVE_JOURNAL` environment wiring. On SIGTERM (or
/// the plan's shutdown flag) the journal is sealed before the node agents
/// drain, so a later process can recover the run.
///
/// # Panics
///
/// Panics if `time_scale` is not positive or the spec has no machines.
pub fn run_live_journaled(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    time_scale: f64,
    plan: &LiveFaultPlan,
    journal: Journal,
) -> ExperimentResult {
    run_live_inner(policy, workload, spec, time_scale, plan, Some(journal))
}

fn run_live_inner(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    time_scale: f64,
    plan: &LiveFaultPlan,
    journal: Option<Journal>,
) -> ExperimentResult {
    assert!(time_scale > 0.0 && time_scale.is_finite(), "time_scale must be positive");
    let machines = spec.machines;
    assert!(machines > 0, "need at least one machine");
    let grace = plan.watchdog_grace;

    let (reply_tx, reply_rx): (Sender<AgentReply>, Receiver<AgentReply>) = unbounded();

    std::thread::scope(|scope| {
        let mut state = LiveState {
            agent_txs: Vec::with_capacity(machines),
            inflight: HashMap::new(),
            sent: vec![0; machines],
            wedges: plan.wedge_requests.clone(),
            dead_sends: Vec::new(),
            started: Instant::now(),
            time_scale,
        };
        for machine in 0..machines {
            state.agent_txs.push(spawn_agent(scope, machine, reply_tx.clone()));
        }

        let mut engine = match journal {
            Some(j) => {
                ExperimentEngine::with_journal(policy, workload, spec, &FaultPlan::none(), j)
            }
            None => {
                ExperimentEngine::with_fault_injection(policy, workload, spec, &FaultPlan::none())
            }
        };
        let mut last_now = SimTime::ZERO;
        let shutdown_requested = || {
            SIGTERM_RECEIVED.load(Ordering::Relaxed)
                || plan.shutdown.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
        };
        let mut interrupted = false;

        // One reusable command buffer for the whole run — the engine
        // writes each event's follow-up batch in place, mirroring the
        // simulator's allocation-free steady-state loop.
        let mut cmds: Vec<Command> = Vec::new();
        engine.deliver(EngineInput::Start, SimTime::ZERO, &mut cmds);
        let mut stopping = state.dispatch(&cmds, SimTime::ZERO);
        while !state.inflight.is_empty() && !stopping {
            if shutdown_requested() {
                interrupted = true;
                break;
            }
            // Repair machines whose channel died mid-dispatch: restart the
            // agent and treat the undeliverable work as a stall.
            while let Some(machine) = state.dead_sends.pop() {
                state.agent_txs[machine] = spawn_agent(scope, machine, reply_tx.clone());
                let now = state.virtual_time(Instant::now());
                last_now = last_now.max(now);
                let stall = EngineInput::AgentStall(MachineId::new(machine as u64));
                engine.deliver(stall, now, &mut cmds);
                stopping = state.dispatch(&cmds, now) || stopping || engine.stopped();
            }
            if state.inflight.is_empty() || stopping {
                break;
            }

            let next_watchdog = state
                .inflight
                .values()
                .map(|&(_, deadline)| deadline + grace)
                .min()
                .expect("inflight is non-empty");
            // Cap the wait so a shutdown request is noticed promptly even
            // with far-off watchdog deadlines.
            let wait = next_watchdog
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(250));
            match reply_rx.recv_timeout(wait) {
                Ok(reply) => {
                    // Events are stamped when the agent completed the
                    // work, not when the scheduler got around to
                    // processing the report.
                    let now = state.virtual_time(reply.completed_at);
                    last_now = last_now.max(now);
                    let token = match reply.event {
                        EngineEvent::EpochDone { token, .. }
                        | EngineEvent::SuspendDone { token, .. } => token,
                    };
                    if state.inflight.get(&reply.machine).map(|&(t, _)| t) == Some(token) {
                        state.inflight.remove(&reply.machine);
                    }
                    // Stale reports (from agents replaced after a stall)
                    // are dropped inside the engine by token mismatch.
                    engine.deliver(EngineInput::Event(reply.event), now, &mut cmds);
                    stopping = state.dispatch(&cmds, now) || engine.stopped();
                }
                Err(RecvTimeoutError::Timeout) => {
                    let wall_now = Instant::now();
                    let overdue: Vec<usize> = state
                        .inflight
                        .iter()
                        .filter(|&(_, &(_, deadline))| deadline + grace <= wall_now)
                        .map(|(&machine, _)| machine)
                        .collect();
                    for machine in overdue {
                        state.inflight.remove(&machine);
                        // The old agent may be wedged forever; dropping
                        // its sender lets it exit if it ever wakes.
                        state.agent_txs[machine] = spawn_agent(scope, machine, reply_tx.clone());
                        let now = state.virtual_time(wall_now);
                        last_now = last_now.max(now);
                        let stall = EngineInput::AgentStall(MachineId::new(machine as u64));
                        engine.deliver(stall, now, &mut cmds);
                        stopping = state.dispatch(&cmds, now) || stopping || engine.stopped();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break, // all agents gone
            }
        }

        if interrupted {
            // Seal first — the journal must hit disk before we start
            // tearing the process down — then drain the agents. The
            // result below is partial; the sealed (incomplete) journal is
            // what a successor process recovers from.
            engine.seal_journal();
        }
        for tx in &state.agent_txs {
            // Agents may have exited already if their channel dropped.
            let _ = tx.send(AgentRequest::Shutdown);
        }
        engine.into_result(last_now)
    })
}

/// Starts a node-agent thread for `machine`, returning its request channel.
fn spawn_agent<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    machine: usize,
    reply_tx: Sender<AgentReply>,
) -> Sender<AgentRequest> {
    let (tx, rx): (Sender<AgentRequest>, Receiver<AgentRequest>) = unbounded();
    scope.spawn(move || node_agent_loop(machine, rx, reply_tx));
    tx
}

fn node_agent_loop(machine: usize, rx: Receiver<AgentRequest>, reply_tx: Sender<AgentReply>) {
    let run = |deadline: Instant, event: EngineEvent, wedge: bool| -> bool {
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        if wedge {
            // The injected fault: work "completes" but the report is never
            // sent — the scheduler's watchdog has to notice.
            return true;
        }
        // A dispatch that arrived past its deadline completes now: the
        // overshoot is real scheduler-induced contention.
        reply_tx.send(AgentReply { machine, event, completed_at: Instant::now() }).is_ok()
    };
    while let Ok(req) = rx.recv() {
        let alive = match req {
            AgentRequest::RunEpoch { job, deadline, token, wedge } => {
                run(deadline, EngineEvent::EpochDone { job, token }, wedge)
            }
            AgentRequest::Suspend { job, deadline, token, wedge } => {
                run(deadline, EngineEvent::SuspendDone { job, token }, wedge)
            }
            AgentRequest::Shutdown => return,
        };
        if !alive {
            return; // scheduler gone
        }
    }
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
        let result = run_live_with_faults(&mut policy, &ew, spec, 60_000.0, &plan);
        assert_eq!(result.faults.agent_stalls, 1, "the wedge was detected");
        assert!(
            result.outcomes.iter().all(|o| o.end == crate::experiment::JobEnd::Completed),
            "interrupted work re-ran to completion: {:?}",
            result.outcomes.iter().map(|o| o.end).collect::<Vec<_>>()
        );
        let surviving: u64 = result.outcomes.iter().map(|o| u64::from(o.epochs)).sum();
        assert_eq!(surviving, 4 * 2, "every job still trained every epoch");
        assert_eq!(
            result.total_epochs,
            surviving + result.faults.lost_epochs,
            "lost-epoch accounting holds"
        );
    }

    #[test]
    fn shutdown_flag_seals_journal_and_stops_early() {
        // The in-process analogue of SIGTERM: flip the plan's shutdown
        // flag mid-run and check the loop seals the journal, drains the
        // agents, and returns a partial result.
        let w = CifarWorkload::new().with_max_epochs(60);
        let ew = crate::experiment::ExperimentWorkload::from_workload(&w, 4, 5);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let mut policy = DefaultPolicy::new();
        let meta = crate::journal::run_meta(policy.name(), &ew, &spec, &FaultPlan::none());
        let journal = Journal::in_memory(meta);
        let flag = Arc::new(AtomicBool::new(false));
        let plan = LiveFaultPlan { shutdown: Some(flag.clone()), ..LiveFaultPlan::default() };
        let stopper = std::thread::spawn({
            let flag = flag.clone();
            move || {
                std::thread::sleep(Duration::from_millis(40));
                flag.store(true, Ordering::SeqCst);
            }
        });
        // 60s epochs at 60000x -> ~1ms each; 240 epochs across 2 machines
        // is ~120 ms of work, so the 40 ms shutdown lands mid-run.
        let result = run_live_journaled(&mut policy, &ew, spec, 60_000.0, &plan, journal.clone());
        stopper.join().unwrap();
        assert!(journal.is_sealed(), "shutdown sealed the journal");
        assert!(
            result.total_epochs < 4 * 60,
            "run ended early ({} epochs), not exhaustively",
            result.total_epochs
        );
        let recovered = journal.reopen().unwrap();
        assert!(recovered.sealed, "recovery sees the run was cleanly interrupted");
        assert!(!recovered.inputs.is_empty(), "journal holds the consumed inputs");
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
        let result = run_live_with_faults(&mut policy, &ew, spec, 60_000.0, &plan);
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
