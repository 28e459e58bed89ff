//! The experiment engine: executor-independent scheduling logic.
//!
//! Both execution backends — the §7 discrete-event simulator
//! (`hyperdrive-sim`) and the thread-based live executor
//! ([`crate::live`]) — drive the same [`ExperimentEngine`] through the same
//! loop ([`Driver`](crate::Driver)). The engine owns
//! the Resource Manager, Job Manager, and AppStat DB, fires the SAP
//! up-calls, and translates policy decisions into abstract [`Command`]s
//! ("run epoch e of job j on machine m for duration d"). Executors differ
//! only in *how* commands elapse: the simulator advances a virtual clock;
//! the live executor hands them to node-agent threads that sleep scaled
//! wall-clock time.
//!
//! This mirrors the paper's architecture: the scheduler is oblivious to
//! where jobs physically run, and Node Agents are delay-and-report servers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive_types::{DomainKnowledge, JobId, LearningCurve, MachineId, SimTime};

use crate::appstat::{AppStatDb, SuspendEvent};
use crate::dense::DenseMap;
use crate::events::{EventLog, SchedulerEvent};
use crate::experiment::{
    ExperimentResult, ExperimentSpec, ExperimentWorkload, JobEnd, JobOutcome, TargetMilestone,
};
use crate::fault::{FaultPlan, FaultStats, RetryPolicy};
use crate::job_manager::{JobManager, JobState};
use crate::journal::Journal;
use crate::policy::{JobDecision, JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy};
use crate::resource::ResourceManager;
use crate::snapshot;

/// An instruction from the engine to the execution backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Execute one epoch of `job` on `machine`; report
    /// [`EngineEvent::EpochDone`] after `duration` (which includes any
    /// resume latency).
    RunEpoch {
        /// Job to train.
        job: JobId,
        /// Hosting machine.
        machine: MachineId,
        /// 1-based epoch to execute.
        epoch: u32,
        /// Wall/virtual time the epoch occupies the machine.
        duration: SimTime,
        /// Issue token; the completion event must echo it (see
        /// [`EngineEvent`]).
        token: u64,
    },
    /// Capture `job`'s state on `machine`; report
    /// [`EngineEvent::SuspendDone`] after `latency`.
    Suspend {
        /// Job being suspended.
        job: JobId,
        /// Machine performing the snapshot.
        machine: MachineId,
        /// Snapshot latency.
        latency: SimTime,
        /// Issue token; the completion event must echo it.
        token: u64,
    },
    /// The experiment is over; backends stop delivering events.
    Stop,
}

impl Command {
    /// For a work command issued at `now`: its machine, when its report is
    /// due, and that report (`None` for [`Command::Stop`]).
    #[inline]
    pub fn report(&self, now: SimTime) -> Option<(MachineId, SimTime, EngineEvent)> {
        match *self {
            Command::RunEpoch { job, machine, duration, token, .. } => {
                Some((machine, now + duration, EngineEvent::EpochDone { job, token }))
            }
            Command::Suspend { job, machine, latency, token } => {
                Some((machine, now + latency, EngineEvent::SuspendDone { job, token }))
            }
            Command::Stop => None,
        }
    }
}

/// A completion notification from the execution backend.
///
/// Every work [`Command`] carries a unique `token` that its completion must
/// echo. When a fault interrupts a job, the engine invalidates the
/// outstanding token, so a completion that arrives late (a reply from a
/// crashed machine's queue, a wedged agent finally answering) no longer
/// matches and is dropped instead of corrupting job state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A previously issued `RunEpoch` finished.
    EpochDone {
        /// The job whose epoch completed.
        job: JobId,
        /// Token echoed from the command.
        token: u64,
    },
    /// A previously issued `Suspend` finished; the job's state is stored.
    SuspendDone {
        /// The suspended job.
        job: JobId,
        /// Token echoed from the command.
        token: u64,
    },
}

/// One input delivered to the engine: everything an executor can tell it.
///
/// This is the single vocabulary shared by the executors (the simulator's
/// future-event queue holds `(SimTime, EngineInput)` pairs), the
/// write-ahead journal (which records exactly these, see
/// [`crate::journal`]) and recovery (which feeds them back). All of them go
/// through [`ExperimentEngine::deliver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineInput {
    /// The experiment begins: fires the initial `AllocateJobs` up-call.
    /// Always delivered first, at time zero.
    Start,
    /// A completion report from the execution backend. Stale reports —
    /// whose token no longer matches the job's outstanding command because
    /// a fault invalidated it — are dropped.
    Event(EngineEvent),
    /// A machine crashed: it goes dead, any hosted job is interrupted
    /// (rolled back to its last snapshot), and the policy gets a chance to
    /// reallocate. Crashing an already-dead machine is a no-op.
    MachineCrash(MachineId),
    /// A crashed machine returns to the idle pool, where the policy may
    /// immediately use it. Recovering an alive machine is a no-op.
    MachineRecovery(MachineId),
    /// A node-agent stall was detected: the report for the machine's
    /// in-flight work is lost, the hosted job is interrupted, and the
    /// machine — which survives, only its agent was restarted — returns
    /// to the pool. A stall on a machine hosting nothing is a no-op.
    AgentStall(MachineId),
}

/// Executor-independent experiment state; implements [`SchedulerContext`]
/// for policy up-calls.
struct EngineCore<'w> {
    workload: &'w ExperimentWorkload,
    spec: ExperimentSpec,
    rm: ResourceManager,
    jm: JobManager,
    /// Also holds each job's ground-truth rows, which the per-epoch path
    /// reads without going through `workload.jobs[job]`.
    db: AppStatDb<'w>,
    rng: StdRng,
    now: SimTime,
    pending: Vec<Command>,
    stopped: bool,
    time_to_target: Option<SimTime>,
    winner: Option<JobId>,
    current_target: f64,
    milestones: Vec<TargetMilestone>,
    total_epochs: u64,
    log: EventLog,
    /// Next issue token; strictly monotonic, never reused. The Job
    /// Manager holds each job's in-flight one.
    next_token: u64,
    /// RNG stream for probabilistic faults. Never touched while both
    /// probabilities are zero, so fault-free runs stay byte-identical to
    /// runs without the fault subsystem.
    fault_rng: StdRng,
    suspend_fail_prob: f64,
    snapshot_corrupt_prob: f64,
    retry: RetryPolicy,
    /// Interruptions suffered per job (counts against `retry.max_retries`).
    retries: DenseMap<u32>,
    /// Backoff penalty to charge the next start of an interrupted job.
    restart_penalty: DenseMap<SimTime>,
    stats: FaultStats,
    /// Write-ahead journal (no-op when disabled). Journaling is pure
    /// output: nothing the engine does depends on it, so journal-on runs
    /// stay byte-identical to journal-off runs.
    journal: Journal,
    /// Draws taken from `rng` so far — journaled as RNG checkpoints so
    /// replay verifies stream positions, not just outcomes.
    rng_draws: u64,
    /// Draws taken from `fault_rng` so far.
    fault_rng_draws: u64,
    /// The fault plan's seed; deterministic retry jitter derives from it.
    fault_seed: u64,
    /// Boundary at which the policy wants speculative fit-prefetch hints
    /// ([`SchedulingPolicy::prefetch_boundary`] snapshotted at
    /// construction); `None` — the default — disables hinting entirely.
    prefetch_boundary: Option<u32>,
    /// Hints buffered while a turn runs: `issue_epoch` fires inside
    /// [`SchedulerContext`] up-calls where the policy is borrowed, so
    /// the sink buffers `(job, epoch, completion, value)` and
    /// `finish_turn_into` drains it to the policy. Never journaled —
    /// prefetch is pure compute-ahead and must leave every journal and
    /// log record untouched.
    prefetch_hints: Vec<(JobId, u32, SimTime, f64)>,
}

impl EngineCore<'_> {
    /// Records a scheduler event in the log *and* the journal (as a
    /// verification record): every externally visible transition goes
    /// through here.
    fn record(&mut self, event: SchedulerEvent) {
        self.journal.transition(&event);
        self.log.record(event);
    }

    /// Charges `job` the `busy` time of the command being issued for it
    /// and returns the token its completion must echo.
    fn issue_token(&mut self, job: JobId, busy: SimTime) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.jm.issue(job, token, busy).expect("job registered");
        token
    }

    /// Issues epoch `epochs_done + 1` of `job` on `machine`, including
    /// `extra` latency (resume cost and/or retry backoff).
    fn issue_epoch(&mut self, job: JobId, machine: MachineId, epochs_done: u32, extra: SimTime) {
        let next_epoch = epochs_done + 1;
        let rows = self.db.rows(job);
        let duration = rows[epochs_done as usize].duration + extra;
        let token = self.issue_token(job, duration);
        self.pending.push(Command::RunEpoch { job, machine, epoch: next_epoch, duration, token });
        // Speculative prefetch hook: the epoch just issued will surface at
        // a decision boundary, so tell the policy *now* — its fit overlaps
        // with every event processed until the epoch completes. The
        // executor reports exactly `value_at(next_epoch)` at `now +
        // duration` (fault interruptions cancel the token, and `forget`
        // reaps any stale speculation), so the hint predicts the
        // observation the boundary fit would use. Epochs at `max_epochs`
        // complete the job instead of reaching `on_iteration_finish`.
        if let Some(b) = self.prefetch_boundary {
            if next_epoch.is_multiple_of(b) && (next_epoch as usize) < rows.len() {
                let value = rows[epochs_done as usize].value;
                self.prefetch_hints.push((job, next_epoch, self.now + duration, value));
            }
        }
    }

    /// Knocks `job` off `machine` after a fault: invalidates its in-flight
    /// command, rolls it back to its last snapshot (or scratch), and either
    /// re-queues it with a backoff penalty or — once its retry budget is
    /// exhausted — marks it failed. `release` returns the machine to the
    /// pool (stall / failed suspend); a crashed machine is already dead
    /// and must not be released.
    fn interrupt(&mut self, job: JobId, machine: MachineId, release: bool) {
        let epochs_done = self.jm.epochs_done(job).unwrap_or(0);
        let snapshot = self.db.snapshot_epochs(job);
        let rollback_to = snapshot.unwrap_or(0);
        let lost = epochs_done.saturating_sub(rollback_to);
        self.stats.interruptions += 1;
        self.stats.lost_epochs += u64::from(lost);
        self.record(SchedulerEvent::Interrupted {
            job,
            machine,
            time: self.now,
            lost_epochs: lost,
        });
        self.jm.interrupt_job(job, rollback_to, snapshot.is_some()).expect("live job interrupts");
        self.db.truncate_stats(job, rollback_to);
        if release {
            self.rm.release_machine(machine).expect("held machine releases");
        }
        let retries = self.retries.or_insert_with(job, || 0);
        *retries += 1;
        let attempt = *retries;
        if attempt > self.retry.max_retries {
            self.jm.fail_job(job).expect("interrupted job fails");
            self.record(SchedulerEvent::Failed { job, time: self.now });
            self.stats.failed_jobs += 1;
            self.restart_penalty.remove(job);
            self.db.release_snapshot(job);
        } else {
            // Deterministic jitter (derived from the fault seed and job,
            // no global RNG) de-synchronizes retry stampedes after a
            // correlated fault while keeping runs replayable.
            let penalty = self.retry.penalty_with_jitter(attempt, self.fault_seed, job.raw());
            self.restart_penalty.insert(job, penalty);
        }
    }

    fn stop(&mut self) {
        if !self.stopped {
            self.stopped = true;
            self.pending.push(Command::Stop);
        }
    }

    /// True once a job's observed history satisfies the experiment's goal
    /// at the *current* target: the workload's solved condition (sustained
    /// trailing mean over its window) if it has one, otherwise a plain
    /// threshold on the latest value.
    fn goal_reached(&self, job: JobId, value: f64) -> bool {
        match &self.workload.domain.solved {
            Some(cond) => {
                self.db.window_mean(job, cond.window).is_some_and(|m| m >= self.current_target)
            }
            None => value >= self.current_target,
        }
    }
}

impl SchedulerContext for EngineCore<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn tmax(&self) -> SimTime {
        self.spec.tmax
    }

    fn target(&self) -> f64 {
        self.current_target
    }

    fn total_slots(&self) -> usize {
        // Dead machines are invisible capacity: policies observe crashes
        // only as a shrunken cluster through this existing up-call.
        self.rm.alive_count()
    }

    fn idle_slots(&self) -> usize {
        self.rm.idle_count()
    }

    fn domain(&self) -> &DomainKnowledge {
        &self.workload.domain
    }

    fn max_epochs(&self) -> u32 {
        self.workload.max_epochs
    }

    fn eval_boundary(&self) -> u32 {
        self.workload.eval_boundary
    }

    fn active_jobs(&self) -> &[JobId] {
        self.jm.active_jobs()
    }

    fn running_jobs(&self) -> &[JobId] {
        self.jm.running_jobs()
    }

    fn idle_job_count(&self) -> usize {
        self.jm.idle_len()
    }

    fn curve(&self, job: JobId) -> Option<LearningCurve> {
        self.db.curve(job)
    }

    fn secondary_curve(&self, job: JobId) -> Option<LearningCurve> {
        self.db.secondary_curve(job)
    }

    fn epochs_done(&self, job: JobId) -> u32 {
        self.jm.epochs_done(job).unwrap_or(0)
    }

    fn global_best(&self) -> Option<(JobId, f64)> {
        self.db.global_best()
    }

    fn label_job(&mut self, job: JobId, priority: f64) {
        // Unknown jobs and NaN priorities are policy bugs; surface loudly.
        self.jm.label_job(job, priority).expect("label_job on live job");
    }

    fn start_next_idle_job(&mut self) -> Option<JobId> {
        if self.stopped {
            return None;
        }
        let job = self.jm.peek_idle_job()?;
        let machine = self.rm.reserve_idle_machine()?;
        let resumed = self.jm.start_job(job, machine).expect("idle job starts");
        let mut epochs_done = self.jm.epochs_done(job).expect("job registered");
        let mut extra = if resumed {
            // §5.1: resuming on any machine restores state from the
            // AppStat DB. Parse and verify the stored snapshot; a
            // snapshot that is missing, malformed, or inconsistent with
            // the Job Manager (fault injection corrupts payloads in
            // place) is discovered exactly here, and the job restarts
            // from scratch rather than crashing the scheduler.
            let valid = self
                .db
                .snapshot(job)
                .is_some_and(|bytes| snapshot::verify(bytes, job, epochs_done));
            if valid {
                self.rng_draws += 1;
                self.workload.suspend.sample_resume(&mut self.rng)
            } else {
                self.stats.snapshot_corruptions += 1;
                self.stats.lost_epochs += u64::from(epochs_done);
                self.record(SchedulerEvent::SnapshotCorrupted { job, time: self.now });
                epochs_done = 0;
                self.jm.reset_epochs(job, 0).expect("running job resets");
                self.db.truncate_stats(job, 0);
                self.db.release_snapshot(job);
                SimTime::ZERO
            }
        } else {
            SimTime::ZERO
        };
        if let Some(penalty) = self.restart_penalty.remove(job) {
            extra += penalty;
        }
        self.record(SchedulerEvent::Started { job, machine, time: self.now, resumed });
        self.issue_epoch(job, machine, epochs_done, extra);
        Some(job)
    }

    fn request_stop(&mut self) {
        self.stop();
    }
}

/// Drives one experiment: wires the workload, spec, and policy together
/// and exchanges [`Command`]s/[`EngineEvent`]s with an execution backend.
pub struct ExperimentEngine<'w, 'p> {
    core: EngineCore<'w>,
    policy: &'p mut dyn SchedulingPolicy,
}

impl<'w, 'p> ExperimentEngine<'w, 'p> {
    /// Creates an engine for one run.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no jobs or the spec has no machines.
    pub fn new(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
    ) -> Self {
        Self::with_fault_injection(policy, workload, spec, &FaultPlan::none())
    }

    /// Creates an engine whose probabilistic faults (suspend failure,
    /// snapshot corruption) and retry policy come from `plan`. Timed
    /// faults in the plan are the executor's responsibility — it delivers
    /// [`EngineInput::MachineCrash`] and friends when their times come.
    /// With [`FaultPlan::none`] this is exactly [`ExperimentEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics if the workload has no jobs or the spec has no machines.
    pub fn with_fault_injection(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
    ) -> Self {
        Self::with_journal(policy, workload, spec, plan, Journal::disabled())
    }

    /// Like [`with_fault_injection`](Self::with_fault_injection), but
    /// recording every input to the write-ahead `journal` (the only way an
    /// engine journals; [`Journal::disabled`] records nothing).
    pub fn with_journal(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        journal: Journal,
    ) -> Self {
        assert!(!workload.is_empty(), "experiment needs at least one job");
        assert!(spec.machines > 0, "experiment needs at least one machine");
        let mut jm = JobManager::new();
        for job in &workload.jobs {
            jm.add_job(job.job);
        }
        let n_jobs = workload.jobs.len();
        // Steady-state zero-alloc sizing: one command batch can start at
        // most min(jobs, machines) jobs, plus one Suspend and one Stop.
        let batch_cap = n_jobs.min(spec.machines) + 2;
        // Snapshotted once: the prefetch boundary is part of the policy's
        // configuration, not run state, so it cannot drift mid-run.
        let prefetch_boundary = policy.prefetch_boundary(workload.eval_boundary);
        ExperimentEngine {
            core: EngineCore {
                workload,
                spec,
                rm: ResourceManager::new(spec.machines).expect("non-empty cluster"),
                jm,
                // Job ids are positions in `workload.jobs` (the builders
                // number them densely from zero), which is how the DB
                // indexes its per-job state.
                db: AppStatDb::new(
                    workload.domain.metric,
                    workload.jobs.iter().map(|j| &j.profile),
                ),
                rng: StdRng::seed_from_u64(spec.seed ^ 0xE46),
                now: SimTime::ZERO,
                pending: Vec::with_capacity(batch_cap),
                stopped: false,
                time_to_target: None,
                winner: None,
                current_target: workload.target,
                milestones: Vec::new(),
                total_epochs: 0,
                // Suspend-free runs log ~2 events per job (Started +
                // Completed/Terminated); 4× covers fault churn without
                // mid-run growth in the common case.
                log: EventLog::with_capacity(4 * n_jobs),
                next_token: 0,
                fault_rng: StdRng::seed_from_u64(plan.seed ^ 0xFA11),
                suspend_fail_prob: plan.suspend_fail_prob,
                snapshot_corrupt_prob: plan.snapshot_corrupt_prob,
                retry: plan.retry,
                retries: DenseMap::new(),
                restart_penalty: DenseMap::new(),
                stats: FaultStats::default(),
                journal,
                rng_draws: 0,
                fault_rng_draws: 0,
                fault_seed: plan.seed,
                prefetch_boundary,
                // One hint per issued epoch at most — the same bound as
                // the command batch — so this never grows mid-run either.
                prefetch_hints: Vec::with_capacity(if prefetch_boundary.is_some() {
                    batch_cap
                } else {
                    0
                }),
            },
            policy,
        }
    }

    /// Delivers one input at executor time `now` and writes the follow-up
    /// command batch into `out` (cleared first) — the engine's only entry
    /// point, called by the one loop ([`Driver`](crate::Driver)) with the
    /// same buffer every time, so the steady-state event path allocates
    /// nothing.
    ///
    /// The input is journaled before any state changes (write-ahead),
    /// including no-op deliveries (after the run stopped, stale tokens,
    /// faults on machines they cannot affect), so journal positions
    /// correspond 1:1 to executor deliveries.
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (events for jobs in impossible
    /// states), which indicate an executor bug.
    pub fn deliver(&mut self, input: EngineInput, now: SimTime, out: &mut Vec<Command>) {
        self.core.journal.input(input, now);
        if !self.core.stopped {
            match input {
                EngineInput::Start => self.policy.allocate_jobs(&mut self.core),
                EngineInput::Event(event) => self.on_event(event, now),
                EngineInput::MachineCrash(machine) => self.on_machine_crash(machine, now),
                EngineInput::MachineRecovery(machine) => self.on_machine_recovery(machine, now),
                EngineInput::AgentStall(machine) => self.on_agent_stall(machine, now),
            }
        }
        self.finish_turn_into(out);
    }

    /// Drains the pending command batch into `out` (cleared first) and
    /// journals its digest plus an RNG checkpoint. Every delivery ends
    /// here, so each input record is followed by its transitions and
    /// exactly one commands/checkpoint pair. The drain swaps the two
    /// buffers, so nothing is copied and — executors passing the same
    /// `out` every call — both keep their warmed-up capacity.
    fn finish_turn_into(&mut self, out: &mut Vec<Command>) {
        self.core.journal.commands(&self.core.pending);
        self.core.journal.rng_checkpoint(self.core.rng_draws, self.core.fault_rng_draws);
        out.clear();
        std::mem::swap(out, &mut self.core.pending);
        self.drain_prefetch_hints();
    }

    /// Delivers hints buffered by `issue_epoch` to the policy. Runs after
    /// the journal records for the turn are written: hints carry no run
    /// state — they only let the policy start fits early — so they are
    /// invisible to the journal, the event log, and replay verification
    /// (replay re-fires them identically from the same issue points).
    fn drain_prefetch_hints(&mut self) {
        if self.core.prefetch_hints.is_empty() {
            return;
        }
        let max_epochs = self.core.workload.max_epochs;
        let tmax = self.core.spec.tmax;
        // Index loop instead of drain(): the policy up-call borrows
        // `self.policy` mutably while `self.core` stays readable, and the
        // buffer keeps its capacity for the next turn.
        for i in 0..self.core.prefetch_hints.len() {
            let (job, epoch, completion_time, value) = self.core.prefetch_hints[i];
            if let Some(curve) = self.core.db.curve(job) {
                let hint = PrefetchHint { job, epoch, completion_time, value, max_epochs, tmax };
                self.policy.prefetch_hint(&hint, &curve);
            }
        }
        self.core.prefetch_hints.clear();
    }

    /// §3.1.1: the search never runs past `Tmax`.
    fn stop_if_past_tmax(&mut self) {
        if self.core.now >= self.core.spec.tmax {
            self.core.stop();
        }
    }

    fn on_event(&mut self, event: EngineEvent, now: SimTime) {
        let (job, token) = match event {
            EngineEvent::EpochDone { job, token } | EngineEvent::SuspendDone { job, token } => {
                (job, token)
            }
        };
        if !self.core.jm.redeem(job, token) {
            return; // stale: a fault superseded this command
        }
        self.core.now = self.core.now.max(now);
        match event {
            EngineEvent::EpochDone { job, .. } => self.on_epoch_done(job),
            EngineEvent::SuspendDone { job, .. } => self.on_suspend_done(job),
        }
        self.stop_if_past_tmax();
    }

    fn on_machine_crash(&mut self, machine: MachineId, now: SimTime) {
        if self.core.rm.is_dead(machine) {
            return;
        }
        self.core.now = self.core.now.max(now);
        self.core.stats.machine_crashes += 1;
        self.core.record(SchedulerEvent::MachineCrashed { machine, time: self.core.now });
        let victim = self.job_on(machine);
        self.core.rm.mark_dead(machine).expect("alive machine crashes");
        if let Some(job) = victim {
            // The machine is dead: do not release it back to the pool.
            self.core.interrupt(job, machine, false);
        }
        self.policy.allocate_jobs(&mut self.core);
        self.stop_if_past_tmax();
    }

    fn on_machine_recovery(&mut self, machine: MachineId, now: SimTime) {
        if !self.core.rm.is_dead(machine) {
            return;
        }
        self.core.now = self.core.now.max(now);
        self.core.rm.mark_recovered(machine).expect("dead machine recovers");
        self.core.stats.machine_recoveries += 1;
        self.core.record(SchedulerEvent::MachineRecovered { machine, time: self.core.now });
        self.policy.allocate_jobs(&mut self.core);
    }

    fn on_agent_stall(&mut self, machine: MachineId, now: SimTime) {
        if self.core.rm.is_dead(machine) {
            return;
        }
        let Some(job) = self.job_on(machine) else {
            return;
        };
        self.core.now = self.core.now.max(now);
        self.core.stats.agent_stalls += 1;
        self.core.interrupt(job, machine, true);
        self.policy.allocate_jobs(&mut self.core);
        self.stop_if_past_tmax();
    }

    /// The job currently occupying `machine`, if any.
    fn job_on(&self, machine: MachineId) -> Option<JobId> {
        self.core
            .jm
            .active_jobs()
            .iter()
            .copied()
            .find(|j| self.core.jm.state(*j).ok().and_then(|s| s.machine()) == Some(machine))
    }

    /// Number of jobs still live (running, suspending, or queued).
    /// Executors use this to detect natural termination under faults.
    #[inline]
    pub fn active_job_count(&self) -> usize {
        self.core.jm.active_len()
    }

    fn on_epoch_done(&mut self, job: JobId) {
        let (epoch, machine) = self.core.jm.record_epoch(job).expect("epoch on running job");
        self.core.total_epochs += 1;
        let rows = self.core.db.rows(job);
        let value = rows[(epoch - 1) as usize].value;
        let now = self.core.now;
        self.core.db.record_stat(job, epoch, now);

        // Experiment-level goal check happens before policy up-calls: the
        // run is over the moment any job exhibits the target — unless
        // dynamic-target mode keeps raising the bar (§9).
        let goal_checked =
            self.core.spec.stop_on_target || self.core.spec.dynamic_target_increment.is_some();
        if goal_checked && self.core.goal_reached(job, value) {
            self.core.milestones.push(TargetMilestone {
                target: self.core.current_target,
                time: now,
                job,
            });
            self.core.record(SchedulerEvent::TargetReached {
                job,
                target: self.core.current_target,
                time: now,
            });
            if self.core.time_to_target.is_none() {
                self.core.time_to_target = Some(now);
                self.core.winner = Some(job);
            }
            match self.core.spec.dynamic_target_increment {
                Some(increment) => {
                    self.core.current_target += increment;
                    if self.core.current_target > 1.0 {
                        self.core.stop();
                        return;
                    }
                }
                None => {
                    self.core.stop();
                    return;
                }
            }
        }

        let event = JobEvent { job, epoch, value, now };
        self.policy.application_stat(&event, &mut self.core);

        if epoch as usize >= rows.len() {
            // Ran to its cap.
            self.core.jm.complete_job(job).expect("running job completes");
            self.core.rm.release_machine(machine).expect("held machine releases");
            self.core.db.release_snapshot(job);
            self.core.record(SchedulerEvent::Completed { job, machine, time: now });
        } else {
            let decision = self.policy.on_iteration_finish(&event, &mut self.core);
            // Modeled prediction cost of the decision (zero for policies
            // without a fit-cost model): the machine sits occupied while
            // the scheduler thinks, so the overhead delays whatever the
            // decision issues next.
            let overhead = self.policy.take_decision_overhead();
            match decision {
                JobDecision::Continue => {
                    self.core.issue_epoch(job, machine, epoch, overhead);
                }
                JobDecision::Suspend => {
                    // Injected suspend failure: the snapshot capture dies
                    // mid-flight, so no snapshot is stored and the job
                    // falls back to its previous one (or scratch).
                    let suspend_fails = self.core.suspend_fail_prob > 0.0 && {
                        self.core.fault_rng_draws += 1;
                        self.core.fault_rng.gen_range(0.0..1.0) < self.core.suspend_fail_prob
                    };
                    if suspend_fails {
                        self.core.stats.suspend_failures += 1;
                        self.core.interrupt(job, machine, true);
                    } else {
                        self.core.jm.begin_suspend(job).expect("running job suspends");
                        self.core.rng_draws += 1;
                        let mut cost =
                            self.core.workload.suspend.sample_suspend(&mut self.core.rng);
                        cost.latency += overhead;
                        self.core.db.record_suspend(SuspendEvent { job, requested_at: now, cost });
                        // Serialize the job's real training state (§5.1) beside
                        // its sampled framework/CRIU size; resume verifies it.
                        let bytes = self.core.db.store_snapshot(job, epoch, cost.snapshot_bytes);
                        // Injected corruption: flip the magic so the damage
                        // stays latent until a resume tries to parse it.
                        let corrupt = self.core.snapshot_corrupt_prob > 0.0 && {
                            self.core.fault_rng_draws += 1;
                            self.core.fault_rng.gen_range(0.0..1.0)
                                < self.core.snapshot_corrupt_prob
                        };
                        if corrupt {
                            bytes[0] ^= 0xFF;
                        }
                        let token = self.core.issue_token(job, cost.latency);
                        self.core.pending.push(Command::Suspend {
                            job,
                            machine,
                            latency: cost.latency,
                            token,
                        });
                    }
                }
                JobDecision::Terminate => {
                    let held = self.core.jm.terminate_job(job).expect("running job terminates");
                    let m = held.expect("running job holds a machine");
                    self.core.rm.release_machine(m).expect("held machine releases");
                    self.core.db.release_snapshot(job);
                    self.core.record(SchedulerEvent::Terminated { job, machine: m, time: now });
                }
            }
        }
        // Machines may have freed; let the policy allocate.
        self.policy.allocate_jobs(&mut self.core);
    }

    fn on_suspend_done(&mut self, job: JobId) {
        let machine = self.core.jm.finish_suspend(job).expect("suspending job finishes");
        self.core.rm.release_machine(machine).expect("held machine releases");
        self.core.record(SchedulerEvent::Suspended { job, machine, time: self.core.now });
        self.policy.allocate_jobs(&mut self.core);
    }

    /// True once the experiment has stopped (goal reached or `Tmax`).
    #[inline]
    pub fn stopped(&self) -> bool {
        self.core.stopped
    }

    /// Finalizes the run into a result at time `end_time`.
    pub fn into_result(self, end_time: SimTime) -> ExperimentResult {
        let mut core = self.core;
        core.journal.seal(end_time, true);
        core.stats.dead_machines_at_end = core.rm.dead_count() as u64;
        let outcomes = core
            .workload
            .jobs
            .iter()
            .map(|j| {
                let state = core.jm.state(j.job).expect("job registered");
                let end = match state {
                    JobState::Completed => JobEnd::Completed,
                    JobState::Terminated => JobEnd::Terminated,
                    JobState::Failed => JobEnd::Failed,
                    _ => JobEnd::Unfinished,
                };
                JobOutcome {
                    job: j.job,
                    epochs: core.jm.epochs_done(j.job).unwrap_or(0),
                    busy_time: core.jm.busy_time(j.job).expect("job registered"),
                    best_value: core.db.best(j.job).unwrap_or(f64::NAN),
                    end,
                }
            })
            .collect();
        let result = ExperimentResult {
            policy: self.policy.name().to_string(),
            fit_cache: self.policy.fit_cache_snapshot(),
            time_to_target: core.time_to_target,
            winner: core.winner,
            end_time,
            outcomes,
            suspend_events: core.db.suspend_events().to_vec(),
            milestones: core.milestones,
            events: core.log,
            total_epochs: core.total_epochs,
            peak_snapshot_bytes: core.db.peak_snapshot_bytes(),
            faults: core.stats,
        };
        #[cfg(debug_assertions)]
        if let Err(violation) = crate::check_trace(&result, core.workload, &core.spec) {
            panic!("{} broke a trace law: {violation}", result.policy);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DefaultPolicy;
    use hyperdrive_workload::CifarWorkload;

    fn tiny_workload(n: usize, epochs: u32) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, 7)
    }

    /// Delivers one input and returns the batch it produced.
    fn deliver(
        engine: &mut ExperimentEngine<'_, '_>,
        input: EngineInput,
        now: SimTime,
    ) -> Vec<Command> {
        let mut out = Vec::new();
        engine.deliver(input, now, &mut out);
        out
    }

    fn start(engine: &mut ExperimentEngine<'_, '_>) -> Vec<Command> {
        deliver(engine, EngineInput::Start, SimTime::ZERO)
    }

    fn handle(
        engine: &mut ExperimentEngine<'_, '_>,
        event: EngineEvent,
        now: SimTime,
    ) -> Vec<Command> {
        deliver(engine, EngineInput::Event(event), now)
    }

    #[test]
    fn start_fills_machines() {
        let ew = tiny_workload(5, 4);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(3));
        let cmds = start(&mut engine);
        let runs = cmds.iter().filter(|c| matches!(c, Command::RunEpoch { .. })).count();
        assert_eq!(runs, 3, "3 machines -> 3 initial epochs");
    }

    #[test]
    fn epoch_events_chain_until_completion() {
        let ew = tiny_workload(1, 3);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = start(&mut engine);
        let mut now = SimTime::ZERO;
        let mut epochs_seen = 0;
        while let Some(Command::RunEpoch { job, duration, token, .. }) = cmds.first().copied() {
            now += duration;
            cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, now);
            epochs_seen += 1;
            if epochs_seen > 10 {
                panic!("runaway");
            }
        }
        assert_eq!(epochs_seen, 3);
        let result = engine.into_result(now);
        assert_eq!(result.outcomes[0].end, JobEnd::Completed);
        assert_eq!(result.outcomes[0].epochs, 3);
        assert_eq!(result.total_epochs, 3);
        assert!(result.outcomes[0].busy_time > SimTime::ZERO);
    }

    #[test]
    fn tmax_stops_the_run() {
        let ew = tiny_workload(2, 100);
        let mut policy = DefaultPolicy::new();
        let spec =
            ExperimentSpec::new(1).with_tmax(SimTime::from_secs(1.0)).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        assert!(cmds.contains(&Command::Stop), "past Tmax the engine stops");
        assert!(engine.stopped());
    }

    #[test]
    fn target_stops_the_run_and_records_winner() {
        // Force a trivially reachable target.
        let ew = tiny_workload(2, 50).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(2));
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        assert!(cmds.contains(&Command::Stop));
        let result = engine.into_result(duration);
        assert!(result.reached_target());
        assert_eq!(result.winner, Some(job));
    }

    /// Scheduling decisions stay `Continue`; the policy only records the
    /// prefetch hints the engine delivers.
    #[derive(Default)]
    struct HintRecorder {
        boundary: Option<u32>,
        hints: Vec<(JobId, u32, SimTime, f64, usize)>,
    }
    impl SchedulingPolicy for HintRecorder {
        fn name(&self) -> &str {
            "hint-recorder"
        }
        fn prefetch_boundary(&self, _default: u32) -> Option<u32> {
            self.boundary
        }
        fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
            self.hints.push((hint.job, hint.epoch, hint.completion_time, hint.value, curve.len()));
        }
    }

    #[test]
    fn prefetch_hints_fire_at_boundary_epochs_before_they_complete() {
        let ew = tiny_workload(1, 6);
        let mut policy = HintRecorder { boundary: Some(2), ..Default::default() };
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = start(&mut engine);
        let mut now = SimTime::ZERO;
        let mut issued = Vec::new();
        while let Some(Command::RunEpoch { job, epoch, duration, token, .. }) =
            cmds.first().copied()
        {
            issued.push((epoch, now + duration));
            now += duration;
            cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, now);
        }
        drop(engine);
        // Epochs 2 and 4 hit the boundary; 6 == max_epochs completes the
        // job and never reaches a decision, so it must not be hinted.
        assert_eq!(issued.iter().map(|&(e, _)| e).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
        let epochs: Vec<u32> = policy.hints.iter().map(|&(_, e, ..)| e).collect();
        assert_eq!(epochs, vec![2, 4]);
        for &(job, epoch, completion, value, curve_len) in &policy.hints {
            // The hint predicts exactly what the executor will report: the
            // profile value at that epoch, at the scheduled finish time.
            let (_, scheduled) = issued[epoch as usize - 1];
            assert_eq!(completion, scheduled);
            assert_eq!(value, ew.profile(job).value_at(epoch));
            // Delivered while the epoch is in flight: the curve holds only
            // the epochs observed so far.
            assert_eq!(curve_len, epoch as usize - 1);
        }
    }

    #[test]
    fn no_prefetch_boundary_means_no_hints() {
        let ew = tiny_workload(2, 6);
        let mut policy = HintRecorder::default();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = start(&mut engine);
        let mut now = SimTime::ZERO;
        while let Some(Command::RunEpoch { job, duration, token, .. }) = cmds.first().copied() {
            now += duration;
            cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, now);
        }
        drop(engine);
        assert!(policy.hints.is_empty());
    }

    #[test]
    fn terminate_decision_frees_machine_for_next_job() {
        struct KillFirst;
        impl SchedulingPolicy for KillFirst {
            fn name(&self) -> &str {
                "kill-first"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                JobDecision::Terminate
            }
        }
        let ew = tiny_workload(3, 10);
        let mut policy = KillFirst;
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        // The killed job's machine immediately hosts the next idle job.
        assert!(matches!(cmds[0], Command::RunEpoch { job: j, .. } if j != job));
    }

    #[test]
    fn suspend_decision_issues_suspend_then_requeues() {
        struct SuspendAlways;
        impl SchedulingPolicy for SuspendAlways {
            fn name(&self) -> &str {
                "suspend-always"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                JobDecision::Suspend
            }
        }
        let ew = tiny_workload(2, 10);
        let mut policy = SuspendAlways;
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = start(&mut engine);
        let Command::RunEpoch { job: job0, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let mut now = duration;
        let cmds = handle(&mut engine, EngineEvent::EpochDone { job: job0, token }, now);
        let Command::Suspend { job, latency, token, .. } = cmds[0] else {
            panic!("expected Suspend, got {cmds:?}");
        };
        assert_eq!(job, job0);
        now += latency;
        let cmds = handle(&mut engine, EngineEvent::SuspendDone { job: job0, token }, now);
        // Machine freed; the *other* job (FIFO) starts next.
        let Command::RunEpoch { job: next, .. } = cmds[0] else {
            panic!("expected RunEpoch, got {cmds:?}");
        };
        assert_ne!(next, job0, "round-robin: suspended job goes to the back");
        let result = engine.into_result(now);
        assert_eq!(result.suspend_events.len(), 1);
        assert!(result.suspend_events[0].cost.latency > SimTime::ZERO);
    }

    #[test]
    fn dynamic_target_records_milestones_and_keeps_running() {
        // Every job exceeds a 0.01 target immediately; with a large
        // increment the target climbs past 1.0 after a few milestones.
        let ew = tiny_workload(2, 30).with_target(0.01);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_dynamic_target(0.02);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = start(&mut engine);
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while !cmds.iter().any(|c| matches!(c, Command::Stop)) {
            let Some(Command::RunEpoch { job, duration, token, .. }) = cmds.first().copied() else {
                break;
            };
            now += duration;
            cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, now);
            guard += 1;
            assert!(guard < 500, "runaway dynamic-target loop");
        }
        let result = engine.into_result(now);
        assert!(result.milestones.len() >= 2, "multiple targets reached");
        assert!(result.milestones[0].target < result.milestones[1].target);
        assert!(
            result.milestones.windows(2).all(|w| w[0].time <= w[1].time),
            "milestones in time order"
        );
        assert_eq!(
            result.time_to_target,
            Some(result.milestones[0].time),
            "time-to-target is the first milestone"
        );
    }

    #[test]
    fn plain_stop_records_single_milestone() {
        let ew = tiny_workload(2, 30).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(1));
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        let result = engine.into_result(duration);
        assert_eq!(result.milestones.len(), 1);
        assert!(result.reached_target());
    }

    #[test]
    fn events_after_stop_are_ignored() {
        let ew = tiny_workload(1, 5).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(1));
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        assert!(engine.stopped());
        let cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        assert!(cmds.is_empty());
    }

    #[test]
    fn stale_tokens_are_dropped() {
        let ew = tiny_workload(2, 10);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, machine, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        // A stall invalidates the in-flight token; the late reply from the
        // wedged agent must not be double-counted.
        let followups =
            deliver(&mut engine, EngineInput::AgentStall(machine), SimTime::from_secs(1.0));
        assert!(
            followups.iter().any(|c| matches!(c, Command::RunEpoch { job: j, .. } if *j == job)),
            "interrupted job reschedules, got {followups:?}"
        );
        let stale = handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        assert!(stale.is_empty(), "stale completion is dropped");
        let result = engine.into_result(duration);
        assert_eq!(result.faults.agent_stalls, 1);
        assert_eq!(result.faults.interruptions, 1);
        assert_eq!(result.faults.lost_epochs, 0, "no epoch had completed, so none were lost");
    }

    #[test]
    fn machine_crash_interrupts_and_recovery_restores_capacity() {
        let ew = tiny_workload(1, 10);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, machine, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        // Crash the only machine: the job is interrupted but nothing can
        // restart it until the machine recovers.
        let cmds =
            deliver(&mut engine, EngineInput::MachineCrash(machine), SimTime::from_secs(5.0));
        assert!(cmds.is_empty(), "no capacity left, got {cmds:?}");
        assert_eq!(engine.active_job_count(), 1, "job waits in the idle queue");
        // Double crash is a no-op.
        assert!(deliver(&mut engine, EngineInput::MachineCrash(machine), SimTime::from_secs(6.0))
            .is_empty());
        // Recovery restarts the job from scratch (no snapshot existed).
        let cmds =
            deliver(&mut engine, EngineInput::MachineRecovery(machine), SimTime::from_secs(60.0));
        assert!(
            cmds.iter()
                .any(|c| matches!(c, Command::RunEpoch { job: j, epoch: 1, .. } if *j == job)),
            "job restarts at epoch 1, got {cmds:?}"
        );
        let result = engine.into_result(SimTime::from_secs(60.0));
        assert_eq!(result.faults.machine_crashes, 1);
        assert_eq!(result.faults.machine_recoveries, 1);
        assert_eq!(result.faults.dead_machines_at_end, 0);
    }

    #[test]
    fn retry_exhaustion_fails_the_job() {
        let ew = tiny_workload(1, 10);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let cmds = start(&mut engine);
        let Command::RunEpoch { machine, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        // First stall: retry 1 of 1, job reschedules.
        let cmds = deliver(&mut engine, EngineInput::AgentStall(machine), SimTime::from_secs(1.0));
        assert!(cmds.iter().any(|c| matches!(c, Command::RunEpoch { .. })));
        // Second stall: budget exhausted, job fails, nothing reschedules.
        let cmds = deliver(&mut engine, EngineInput::AgentStall(machine), SimTime::from_secs(2.0));
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::RunEpoch { .. })),
            "failed job must not reschedule, got {cmds:?}"
        );
        assert_eq!(engine.active_job_count(), 0);
        let result = engine.into_result(SimTime::from_secs(2.0));
        assert_eq!(result.outcomes[0].end, JobEnd::Failed);
        assert_eq!(result.failed_jobs(), 1);
        assert_eq!(result.faults.failed_jobs, 1);
    }

    #[test]
    fn corrupted_snapshot_restarts_from_scratch() {
        struct SuspendOnce {
            suspended: bool,
        }
        impl SchedulingPolicy for SuspendOnce {
            fn name(&self) -> &str {
                "suspend-once"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                if self.suspended {
                    JobDecision::Continue
                } else {
                    self.suspended = true;
                    JobDecision::Suspend
                }
            }
        }
        let ew = tiny_workload(1, 5);
        let mut policy = SuspendOnce { suspended: false };
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.snapshot_corrupt_prob = 1.0; // every stored snapshot is damaged
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let mut cmds = start(&mut engine);
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(cmd) = cmds.first().copied() {
            let event = match cmd {
                Command::RunEpoch { job, duration, token, .. } => {
                    now += duration;
                    EngineEvent::EpochDone { job, token }
                }
                Command::Suspend { job, latency, token, .. } => {
                    now += latency;
                    EngineEvent::SuspendDone { job, token }
                }
                Command::Stop => break,
            };
            cmds = handle(&mut engine, event, now);
            guard += 1;
            assert!(guard < 50, "runaway");
        }
        let result = engine.into_result(now);
        assert_eq!(result.faults.snapshot_corruptions, 1);
        assert_eq!(result.faults.lost_epochs, 1, "the pre-suspend epoch re-ran");
        assert_eq!(result.outcomes[0].end, JobEnd::Completed, "job still finishes");
        assert_eq!(result.outcomes[0].epochs, 5);
        assert!(
            result
                .events
                .events()
                .iter()
                .any(|e| matches!(e, SchedulerEvent::SnapshotCorrupted { .. })),
            "corruption is logged"
        );
    }

    #[test]
    fn suspend_failure_rolls_back_without_snapshot() {
        struct SuspendAlways;
        impl SchedulingPolicy for SuspendAlways {
            fn name(&self) -> &str {
                "suspend-always"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                JobDecision::Suspend
            }
        }
        let ew = tiny_workload(1, 5);
        let mut policy = SuspendAlways;
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.suspend_fail_prob = 1.0; // every suspend dies mid-capture
        plan.retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let cmds = start(&mut engine);
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = handle(&mut engine, EngineEvent::EpochDone { job, token }, duration);
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::Suspend { .. })),
            "failed suspend issues no Suspend command, got {cmds:?}"
        );
        assert_eq!(engine.core.db.snapshot_storage_bytes(), 0, "nothing was stored");
        let result = engine.into_result(duration);
        assert_eq!(result.peak_snapshot_bytes, 0);
        assert!(result.suspend_events.is_empty());
        assert_eq!(result.faults.suspend_failures, 1);
        assert_eq!(result.outcomes[0].end, JobEnd::Failed, "zero retries allowed");
        assert_eq!(result.faults.lost_epochs, 1, "the completed epoch rolled back");
    }

    /// Decides by rule from the event and the number of idle jobs waiting.
    struct Rule<F>(F);
    impl<F: FnMut(&JobEvent, usize) -> JobDecision + Send> SchedulingPolicy for Rule<F> {
        fn name(&self) -> &str {
            "rule"
        }
        fn on_iteration_finish(
            &mut self,
            event: &JobEvent,
            ctx: &mut dyn SchedulerContext,
        ) -> JobDecision {
            (self.0)(event, ctx.idle_job_count())
        }
    }

    /// Completes the single in-flight command of a one-machine run.
    fn complete_only(
        engine: &mut ExperimentEngine<'_, '_>,
        cmds: &[Command],
        now: &mut SimTime,
    ) -> Vec<Command> {
        let event = match cmds[0] {
            Command::RunEpoch { job, duration, token, .. } => {
                *now += duration;
                EngineEvent::EpochDone { job, token }
            }
            Command::Suspend { job, latency, token, .. } => {
                *now += latency;
                EngineEvent::SuspendDone { job, token }
            }
            Command::Stop => panic!("run already stopped"),
        };
        handle(engine, event, *now)
    }

    #[test]
    fn corrupt_snapshot_is_released_when_discovered() {
        let ew = tiny_workload(1, 5);
        let mut policy =
            Rule(
                |e: &JobEvent, _| {
                    if e.epoch == 1 {
                        JobDecision::Suspend
                    } else {
                        JobDecision::Continue
                    }
                },
            );
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.snapshot_corrupt_prob = 1.0;
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let job = ew.jobs[0].job;
        let mut now = SimTime::ZERO;
        let cmds = start(&mut engine);
        let cmds = complete_only(&mut engine, &cmds, &mut now); // epoch 1 -> Suspend
        assert!(matches!(cmds[0], Command::Suspend { .. }));
        // The damage is latent: the DB holds the snapshot and accounts it.
        let sampled = engine.core.db.suspend_events()[0].cost.snapshot_bytes;
        assert_eq!(engine.core.db.snapshot_storage_bytes(), sampled);
        assert!(engine.core.db.snapshot(job).is_some());
        // SuspendDone frees the machine; the resume discovers the damage
        // and drops the bytes along with the believed epoch.
        let cmds = complete_only(&mut engine, &cmds, &mut now);
        assert!(matches!(cmds[0], Command::RunEpoch { epoch: 1, .. }), "restarts from scratch");
        assert_eq!(engine.core.stats.snapshot_corruptions, 1);
        assert_eq!(engine.core.db.snapshot_storage_bytes(), 0);
        assert!(engine.core.db.snapshot(job).is_none());
        assert_eq!(engine.into_result(now).peak_snapshot_bytes, sampled);
    }

    #[test]
    fn interrupted_job_keeps_its_snapshot_and_a_failed_one_releases_it() {
        let ew = tiny_workload(1, 10);
        let mut policy =
            Rule(
                |e: &JobEvent, _| {
                    if e.epoch == 2 {
                        JobDecision::Suspend
                    } else {
                        JobDecision::Continue
                    }
                },
            );
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let job = ew.jobs[0].job;
        let mut now = SimTime::ZERO;
        let mut cmds = start(&mut engine);
        // Epochs 1, 2, the suspend, then the resumed epoch 3.
        for _ in 0..4 {
            cmds = complete_only(&mut engine, &cmds, &mut now);
        }
        let Command::RunEpoch { machine, epoch: 4, .. } = cmds[0] else {
            panic!("expected epoch 4 in flight, got {cmds:?}");
        };
        let sampled = engine.core.db.suspend_events()[0].cost.snapshot_bytes;
        assert_eq!(engine.core.db.snapshot_storage_bytes(), sampled, "a live job keeps it");
        // First stall: within budget. The snapshot is exactly what the job
        // rolls back to, so it stays, and the restart resumes from it.
        let cmds = deliver(&mut engine, EngineInput::AgentStall(machine), now);
        assert!(matches!(cmds[0], Command::RunEpoch { epoch: 3, .. }), "resumes at 3: {cmds:?}");
        assert_eq!(engine.core.db.snapshot_storage_bytes(), sampled);
        assert!(snapshot::verify(engine.core.db.snapshot(job).unwrap(), job, 2));
        assert_eq!(engine.core.stats.snapshot_corruptions, 0);
        // Second stall: budget exhausted, the job fails and nothing can
        // resume from its snapshot any more.
        deliver(&mut engine, EngineInput::AgentStall(machine), now);
        assert_eq!(engine.core.stats.failed_jobs, 1);
        assert_eq!(engine.core.db.snapshot_storage_bytes(), 0);
        assert!(engine.core.db.snapshot(job).is_none());
    }

    #[test]
    fn snapshot_storage_is_bounded_by_jobs_that_can_still_resume() {
        // Churn: 6 jobs on 3 machines, suspended at every 2nd epoch while
        // idle jobs wait; every job whose id is a multiple of 3 is killed
        // at epoch 5, the rest run to their cap.
        let ew = tiny_workload(6, 8);
        let mut policy = Rule(|e: &JobEvent, idle: usize| {
            if e.epoch == 5 && e.job.raw().is_multiple_of(3) {
                JobDecision::Terminate
            } else if e.epoch.is_multiple_of(2) && idle > 0 {
                JobDecision::Suspend
            } else {
                JobDecision::Continue
            }
        });
        let spec = ExperimentSpec::new(3).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        // A minimal executor: completions fire in (time, issue) order.
        let mut queue: Vec<(SimTime, EngineEvent)> = Vec::new();
        let mut cmds = start(&mut engine);
        let mut now = SimTime::ZERO;
        loop {
            for cmd in &cmds {
                queue.push(match *cmd {
                    Command::RunEpoch { job, duration, token, .. } => {
                        (now + duration, EngineEvent::EpochDone { job, token })
                    }
                    Command::Suspend { job, latency, token, .. } => {
                        (now + latency, EngineEvent::SuspendDone { job, token })
                    }
                    Command::Stop => panic!("nothing stops this run"),
                });
            }
            let Some(next) = (0..queue.len()).min_by_key(|&i| queue[i].0) else {
                break;
            };
            let (time, event) = queue.remove(next);
            now = time;
            cmds = handle(&mut engine, event, now);

            // Held storage is exactly the latest sampled size of every job
            // holding a snapshot, all of which can still resume.
            let core = &engine.core;
            let mut latest = std::collections::BTreeMap::new();
            for e in core.db.suspend_events() {
                latest.insert(e.job, e.cost.snapshot_bytes);
            }
            let live = |job: &JobId| core.jm.active_jobs().contains(job);
            let holding: u64 =
                latest.iter().filter(|(j, _)| core.db.snapshot(**j).is_some()).map(|e| e.1).sum();
            let resumable: u64 = latest.iter().filter(|(j, _)| live(j)).map(|e| e.1).sum();
            assert_eq!(core.db.snapshot_storage_bytes(), holding);
            assert!(holding <= resumable, "a terminal job still holds a snapshot");
            assert!(core.db.peak_snapshot_bytes() >= holding);
        }
        assert_eq!(engine.active_job_count(), 0, "every job reached a terminal state");
        assert_eq!(engine.core.db.snapshot_storage_bytes(), 0);
        let result = engine.into_result(now);
        assert!(result.suspend_events.len() >= 6, "the run really churned");
        assert!(result.outcomes.iter().any(|o| o.end == JobEnd::Terminated));
        assert!(result.peak_snapshot_bytes > 0);
        let total: u64 = result.suspend_events.iter().map(|e| e.cost.snapshot_bytes).sum();
        assert!(result.peak_snapshot_bytes < total, "superseded snapshots are not summed");
    }
}
