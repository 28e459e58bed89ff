//! The Job Manager (JM).
//!
//! §4.2: the JM "provides the ability to start, resume, suspend, and
//! terminate jobs on specific machines obtained from the RM" and "keeps
//! track of each job's state based on the actions performed on it". It also
//! supports `labelJob(jobID, priority)`: "Priority ordering is especially
//! important when adding a suspended job to the list of idle jobs. If no
//! priority is given then idle jobs are ordered according to FIFO order."

use std::cell::OnceCell;
use std::collections::BTreeSet;

use hyperdrive_types::{Error, JobId, MachineId, Result, SimTime};

use crate::dense::DenseMap;

/// The lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Waiting in the idle queue (never started, or suspended and
    /// re-queued).
    Idle,
    /// Executing on a machine.
    Running(MachineId),
    /// A suspend request is in flight; state is being captured.
    Suspending(MachineId),
    /// Terminated early by policy decision.
    Terminated,
    /// Ran to its maximum epoch.
    Completed,
    /// Interrupted by faults until its retry budget ran out.
    Failed,
}

impl JobState {
    /// The machine the job occupies, if any.
    pub fn machine(&self) -> Option<MachineId> {
        match self {
            JobState::Running(m) | JobState::Suspending(m) => Some(*m),
            _ => None,
        }
    }
}

/// Everything the scheduler tracks per job, in one cache line: a
/// completion report reads the token, the state and the epoch count, and
/// the command issued next writes the token and the busy time back.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct JobEntry {
    state: JobState,
    /// Token of the job's in-flight command, if any. A completion whose
    /// token is not this one is stale (superseded by a fault).
    token: Option<u64>,
    /// Seconds of machine time charged to the job so far.
    busy_secs: f64,
    /// Priority label; idle ordering is (priority desc, arrival asc).
    priority: f64,
    /// Monotonic arrival counter for FIFO tie-breaking, refreshed whenever
    /// the job re-enters the idle queue.
    arrival: u64,
    /// Epochs completed so far (resume continues from here).
    epochs_done: u32,
    /// Whether the job has run before (a start after this is a resume).
    started_before: bool,
}

// A slot of the job map is exactly the line its entry is aligned to.
const _: () = assert!(std::mem::size_of::<Option<JobEntry>>() == 64);

/// Idle-queue ordering key: priority descending, then FIFO arrival, then
/// id — the same total order the listing slice exposes. Priorities are
/// never NaN ([`JobManager::label_job`] rejects them), so the comparison
/// is total.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IdleKey {
    priority: f64,
    arrival: u64,
    id: JobId,
}

impl Eq for IdleKey {}

impl PartialOrd for IdleKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IdleKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .priority
            .partial_cmp(&self.priority)
            .expect("priorities are never NaN")
            .then(self.arrival.cmp(&other.arrival))
            .then(self.id.cmp(&other.id))
    }
}

/// Tracks every job's state and orders the idle queue.
///
/// The three listing sets — idle, running, active — are ordered B-tree
/// sets, so every state transition is O(log n); the old eagerly-sorted
/// `Vec` indexes paid an O(n) memmove per transition, which dominated
/// wall-clock at 10k+ machines. The slice accessors policies iterate are
/// materialized lazily into per-set caches (invalidated on mutation), so
/// executors that never ask for a listing — the default-policy hot loop —
/// never pay for one, and repeated reads between transitions are free.
/// Ordering is unchanged: id-ascending for running/active, (priority
/// desc, arrival asc, id asc) for idle, so traces are byte-identical.
#[derive(Debug, Default)]
pub struct JobManager {
    jobs: DenseMap<JobEntry>,
    arrival_counter: u64,
    /// Idle jobs in queue order: priority desc, arrival asc, id asc.
    idle_queue: BTreeSet<IdleKey>,
    /// Running jobs ordered by id.
    running_set: BTreeSet<JobId>,
    /// Active (running, suspending, or idle) jobs ordered by id.
    active_set: BTreeSet<JobId>,
    idle_cache: OnceCell<Vec<JobId>>,
    running_cache: OnceCell<Vec<JobId>>,
    active_cache: OnceCell<Vec<JobId>>,
}

impl JobManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new job in the idle queue with default (zero) priority.
    ///
    /// # Panics
    ///
    /// Panics if the job id is already registered.
    pub fn add_job(&mut self, job: JobId) {
        let arrival = self.next_arrival();
        let prev = self.jobs.insert(
            job,
            JobEntry {
                state: JobState::Idle,
                token: None,
                busy_secs: 0.0,
                priority: 0.0,
                arrival,
                epochs_done: 0,
                started_before: false,
            },
        );
        assert!(prev.is_none(), "job {job} registered twice");
        self.add_active(job);
        self.enqueue_idle(job);
    }

    /// The idle-queue key for `job` as currently labeled. Valid only while
    /// the entry's priority and arrival match what was enqueued — every
    /// mutation that changes either dequeues first.
    fn idle_key(&self, job: JobId) -> IdleKey {
        let e = self.jobs.get(job).expect("idle job is registered");
        IdleKey { priority: e.priority, arrival: e.arrival, id: job }
    }

    /// Inserts `job` into the idle queue at its sorted position.
    fn enqueue_idle(&mut self, job: JobId) {
        let key = self.idle_key(job);
        self.idle_queue.insert(key);
        self.idle_cache.take();
    }

    /// Removes `job` from the idle queue (no-op if absent).
    fn dequeue_idle(&mut self, job: JobId) {
        let key = self.idle_key(job);
        if self.idle_queue.remove(&key) {
            self.idle_cache.take();
        }
    }

    fn add_running(&mut self, job: JobId) {
        self.running_set.insert(job);
        self.running_cache.take();
    }

    fn remove_running(&mut self, job: JobId) {
        if self.running_set.remove(&job) {
            self.running_cache.take();
        }
    }

    fn add_active(&mut self, job: JobId) {
        self.active_set.insert(job);
        self.active_cache.take();
    }

    fn remove_active(&mut self, job: JobId) {
        if self.active_set.remove(&job) {
            self.active_cache.take();
        }
    }

    fn next_arrival(&mut self) -> u64 {
        let a = self.arrival_counter;
        self.arrival_counter += 1;
        a
    }

    fn entry(&self, job: JobId) -> Result<&JobEntry> {
        self.jobs.get(job).ok_or(Error::UnknownJob(job.raw()))
    }

    fn entry_mut(&mut self, job: JobId) -> Result<&mut JobEntry> {
        self.jobs.get_mut(job).ok_or(Error::UnknownJob(job.raw()))
    }

    /// Current state of a job.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] for unregistered ids.
    pub fn state(&self, job: JobId) -> Result<JobState> {
        Ok(self.entry(job)?.state)
    }

    /// Number of epochs the job has completed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] for unregistered ids.
    pub fn epochs_done(&self, job: JobId) -> Result<u32> {
        Ok(self.entry(job)?.epochs_done)
    }

    /// Records completion of one more epoch. Returns the new epoch count
    /// and the machine the job runs on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] or [`Error::InvalidJobState`] if the
    /// job is not running.
    pub fn record_epoch(&mut self, job: JobId) -> Result<(u32, MachineId)> {
        let e = self.entry_mut(job)?;
        let JobState::Running(machine) = e.state else {
            return Err(Error::InvalidJobState {
                job: job.raw(),
                detail: "epoch recorded while not running".into(),
            });
        };
        e.epochs_done += 1;
        Ok((e.epochs_done, machine))
    }

    /// Records a command issued for `job`: the `token` its completion must
    /// echo, and the `busy` time the command occupies the job's machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] for unregistered ids.
    pub fn issue(&mut self, job: JobId, token: u64, busy: SimTime) -> Result<()> {
        let e = self.entry_mut(job)?;
        e.token = Some(token);
        e.busy_secs += busy.as_secs();
        Ok(())
    }

    /// Redeems a completion report carrying `token`. A stale report —
    /// token absent or different — returns `false` with state untouched;
    /// otherwise the job no longer has a command in flight.
    pub fn redeem(&mut self, job: JobId, token: u64) -> bool {
        match self.jobs.get_mut(job) {
            Some(e) if e.token == Some(token) => {
                e.token = None;
                true
            }
            _ => false,
        }
    }

    /// Machine time charged to the job so far.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] for unregistered ids.
    pub fn busy_time(&self, job: JobId) -> Result<SimTime> {
        Ok(SimTime::from_secs(self.entry(job)?.busy_secs))
    }

    /// The highest-priority idle job (`getIdleJob`), without removing it.
    /// Ordering: priority descending, then FIFO arrival.
    pub fn peek_idle_job(&self) -> Option<JobId> {
        self.idle_queue.first().map(|k| k.id)
    }

    /// All idle jobs in queue order, materialized lazily from the ordered
    /// set and cached until the next queue mutation.
    pub fn idle_jobs(&self) -> &[JobId] {
        self.idle_cache.get_or_init(|| self.idle_queue.iter().map(|k| k.id).collect())
    }

    /// Number of idle jobs, without materializing the listing.
    pub fn idle_len(&self) -> usize {
        self.idle_queue.len()
    }

    /// All running jobs, sorted by job id. The fixed order matters:
    /// policies iterate these lists when building batch fit requests, and
    /// hash-map iteration order would leak into scheduling decisions.
    /// Materialized lazily and cached until the next state transition.
    pub fn running_jobs(&self) -> &[JobId] {
        self.running_cache.get_or_init(|| self.running_set.iter().copied().collect())
    }

    /// All active jobs — running, suspending, or idle-but-not-finished —
    /// sorted by job id (see [`running_jobs`](Self::running_jobs) for why
    /// the order is fixed). The paper's "non-terminated" set used for the
    /// tail distribution. Materialized lazily and cached until the next
    /// state transition.
    pub fn active_jobs(&self) -> &[JobId] {
        self.active_cache.get_or_init(|| self.active_set.iter().copied().collect())
    }

    /// Number of active jobs, without materializing the listing.
    pub fn active_len(&self) -> usize {
        self.active_set.len()
    }

    /// Starts (or resumes) an idle job on a machine. Returns `true` if this
    /// is a resume of a previously-run job.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] unless the job is idle.
    pub fn start_job(&mut self, job: JobId, machine: MachineId) -> Result<bool> {
        let e = self.entry_mut(job)?;
        if e.state != JobState::Idle {
            return Err(Error::InvalidJobState {
                job: job.raw(),
                detail: format!("start while {:?}", e.state),
            });
        }
        e.state = JobState::Running(machine);
        let resumed = e.started_before;
        e.started_before = true;
        self.dequeue_idle(job);
        self.add_running(job);
        Ok(resumed)
    }

    /// Marks a running job as suspending (state capture in flight).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] unless the job is running.
    pub fn begin_suspend(&mut self, job: JobId) -> Result<MachineId> {
        let e = self.entry_mut(job)?;
        match e.state {
            JobState::Running(m) => {
                e.state = JobState::Suspending(m);
                self.remove_running(job);
                Ok(m)
            }
            other => Err(Error::InvalidJobState {
                job: job.raw(),
                detail: format!("suspend while {other:?}"),
            }),
        }
    }

    /// Completes a suspend: the job re-enters the idle queue (fresh FIFO
    /// position, keeping its priority label) and its machine is returned.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] unless the job is suspending.
    pub fn finish_suspend(&mut self, job: JobId) -> Result<MachineId> {
        let arrival = self.next_arrival();
        let e = self.entry_mut(job)?;
        match e.state {
            JobState::Suspending(m) => {
                e.state = JobState::Idle;
                e.arrival = arrival;
                self.enqueue_idle(job);
                Ok(m)
            }
            other => Err(Error::InvalidJobState {
                job: job.raw(),
                detail: format!("finish_suspend while {other:?}"),
            }),
        }
    }

    /// Terminates a job from any live state. Returns the machine it held,
    /// if any.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] if the job already finished.
    pub fn terminate_job(&mut self, job: JobId) -> Result<Option<MachineId>> {
        let e = self.entry_mut(job)?;
        match e.state {
            JobState::Terminated | JobState::Completed | JobState::Failed => {
                Err(Error::InvalidJobState {
                    job: job.raw(),
                    detail: "terminate after finish".into(),
                })
            }
            state => {
                e.state = JobState::Terminated;
                self.retire(job, state);
                Ok(state.machine())
            }
        }
    }

    /// Drops a finished job from the listing indexes, given its previous
    /// live state.
    fn retire(&mut self, job: JobId, was: JobState) {
        match was {
            JobState::Idle => self.dequeue_idle(job),
            JobState::Running(_) => self.remove_running(job),
            _ => {}
        }
        self.remove_active(job);
    }

    /// Marks a running job as completed (reached its max epoch). Returns
    /// the machine it held.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] unless the job is running.
    pub fn complete_job(&mut self, job: JobId) -> Result<MachineId> {
        let e = self.entry_mut(job)?;
        match e.state {
            JobState::Running(m) => {
                e.state = JobState::Completed;
                self.retire(job, JobState::Running(m));
                Ok(m)
            }
            other => Err(Error::InvalidJobState {
                job: job.raw(),
                detail: format!("complete while {other:?}"),
            }),
        }
    }

    /// Interrupts a job whose machine crashed, agent stalled, or suspend
    /// failed: its in-flight command is invalidated, and the job rolls
    /// back to `epochs` completed epochs (its last snapshot, or zero) and
    /// re-enters the idle queue with a fresh FIFO position.
    /// `has_snapshot` controls whether the next start counts as
    /// a resume (snapshot restore) or a fresh start. Returns the machine
    /// the job held.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] unless the job is running or
    /// suspending.
    pub fn interrupt_job(
        &mut self,
        job: JobId,
        epochs: u32,
        has_snapshot: bool,
    ) -> Result<MachineId> {
        let arrival = self.next_arrival();
        let e = self.entry_mut(job)?;
        match e.state {
            JobState::Running(m) | JobState::Suspending(m) => {
                let was_running = matches!(e.state, JobState::Running(_));
                e.state = JobState::Idle;
                e.token = None;
                e.arrival = arrival;
                e.epochs_done = epochs;
                e.started_before = has_snapshot;
                if was_running {
                    self.remove_running(job);
                }
                self.enqueue_idle(job);
                Ok(m)
            }
            other => Err(Error::InvalidJobState {
                job: job.raw(),
                detail: format!("interrupt while {other:?}"),
            }),
        }
    }

    /// Marks a job as `Failed` after its retry budget is exhausted. The
    /// job leaves the idle queue permanently. Returns the machine it held,
    /// if any.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] if the job already finished.
    pub fn fail_job(&mut self, job: JobId) -> Result<Option<MachineId>> {
        let e = self.entry_mut(job)?;
        match e.state {
            JobState::Terminated | JobState::Completed | JobState::Failed => {
                Err(Error::InvalidJobState { job: job.raw(), detail: "fail after finish".into() })
            }
            state => {
                e.state = JobState::Failed;
                self.retire(job, state);
                Ok(state.machine())
            }
        }
    }

    /// Rewinds a running job's completed-epoch counter (restart from
    /// scratch after a corrupted snapshot was discovered at resume time).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJobState`] unless the job is running.
    pub fn reset_epochs(&mut self, job: JobId, epochs: u32) -> Result<()> {
        let e = self.entry_mut(job)?;
        if !matches!(e.state, JobState::Running(_)) {
            return Err(Error::InvalidJobState {
                job: job.raw(),
                detail: "epoch reset while not running".into(),
            });
        }
        e.epochs_done = epochs;
        Ok(())
    }

    /// Labels a job with a scheduling priority (`labelJob`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] for unregistered ids or
    /// [`Error::InvalidParameter`] for NaN priorities.
    pub fn label_job(&mut self, job: JobId, priority: f64) -> Result<()> {
        if priority.is_nan() {
            return Err(Error::InvalidParameter("priority cannot be NaN".into()));
        }
        let idle = self.entry(job)?.state == JobState::Idle;
        // Re-labeling an idle job moves it to its new queue position. The
        // old queue key embeds the old priority, so dequeue before the
        // label changes.
        if idle {
            self.dequeue_idle(job);
        }
        self.entry_mut(job)?.priority = priority;
        if idle {
            self.enqueue_idle(job);
        }
        Ok(())
    }

    /// The job's current priority label.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] for unregistered ids.
    pub fn priority(&self, job: JobId) -> Result<f64> {
        Ok(self.entry(job)?.priority)
    }

    /// Total number of registered jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jm_with(n: u64) -> JobManager {
        let mut jm = JobManager::new();
        for i in 0..n {
            jm.add_job(JobId::new(i));
        }
        jm
    }

    #[test]
    fn idle_queue_is_fifo_without_priorities() {
        let jm = jm_with(3);
        assert_eq!(jm.peek_idle_job(), Some(JobId::new(0)));
        assert_eq!(jm.idle_jobs(), vec![JobId::new(0), JobId::new(1), JobId::new(2)]);
    }

    #[test]
    fn priority_overrides_fifo() {
        let mut jm = jm_with(3);
        jm.label_job(JobId::new(2), 0.9).unwrap();
        jm.label_job(JobId::new(1), 0.5).unwrap();
        assert_eq!(jm.idle_jobs(), vec![JobId::new(2), JobId::new(1), JobId::new(0)]);
    }

    #[test]
    fn suspend_requeues_at_back_of_equal_priority() {
        let mut jm = jm_with(3);
        let m = MachineId::new(0);
        jm.start_job(JobId::new(0), m).unwrap();
        jm.begin_suspend(JobId::new(0)).unwrap();
        jm.finish_suspend(JobId::new(0)).unwrap();
        // Job 0 now sits behind jobs 1 and 2 (round-robin behaviour).
        assert_eq!(jm.idle_jobs(), vec![JobId::new(1), JobId::new(2), JobId::new(0)]);
    }

    #[test]
    fn start_resume_distinction() {
        let mut jm = jm_with(1);
        let j = JobId::new(0);
        let m = MachineId::new(0);
        assert!(!jm.start_job(j, m).unwrap(), "first start is not a resume");
        jm.record_epoch(j).unwrap();
        jm.begin_suspend(j).unwrap();
        jm.finish_suspend(j).unwrap();
        assert!(jm.start_job(j, m).unwrap(), "second start is a resume");
        assert_eq!(jm.epochs_done(j).unwrap(), 1);
    }

    #[test]
    fn lifecycle_state_machine_is_enforced() {
        let mut jm = jm_with(2);
        let j = JobId::new(0);
        let m = MachineId::new(0);
        assert!(jm.begin_suspend(j).is_err(), "cannot suspend idle job");
        assert!(jm.record_epoch(j).is_err(), "cannot record epoch while idle");
        jm.start_job(j, m).unwrap();
        assert!(jm.start_job(j, m).is_err(), "cannot start running job");
        jm.complete_job(j).unwrap();
        assert!(jm.terminate_job(j).is_err(), "cannot terminate completed job");
        assert!(matches!(jm.state(j), Ok(JobState::Completed)));
    }

    #[test]
    fn terminate_returns_held_machine() {
        let mut jm = jm_with(1);
        let j = JobId::new(0);
        let m = MachineId::new(3);
        jm.start_job(j, m).unwrap();
        assert_eq!(jm.terminate_job(j).unwrap(), Some(m));
    }

    #[test]
    fn terminate_idle_returns_no_machine() {
        let mut jm = jm_with(1);
        assert_eq!(jm.terminate_job(JobId::new(0)).unwrap(), None);
    }

    #[test]
    fn active_jobs_excludes_finished() {
        let mut jm = jm_with(3);
        jm.start_job(JobId::new(0), MachineId::new(0)).unwrap();
        jm.complete_job(JobId::new(0)).unwrap();
        jm.terminate_job(JobId::new(1)).unwrap();
        assert_eq!(jm.active_jobs(), vec![JobId::new(2)]);
    }

    #[test]
    fn unknown_job_errors() {
        let mut jm = JobManager::new();
        assert!(matches!(jm.state(JobId::new(5)), Err(Error::UnknownJob(5))));
        assert!(jm.label_job(JobId::new(5), 1.0).is_err());
    }

    #[test]
    fn nan_priority_rejected() {
        let mut jm = jm_with(1);
        assert!(jm.label_job(JobId::new(0), f64::NAN).is_err());
    }

    #[test]
    fn interrupt_rolls_back_and_requeues() {
        let mut jm = jm_with(2);
        let j = JobId::new(0);
        let m = MachineId::new(0);
        jm.start_job(j, m).unwrap();
        for _ in 0..5 {
            jm.record_epoch(j).unwrap();
        }
        // Crash with a snapshot at epoch 3: roll back, resume later.
        assert_eq!(jm.interrupt_job(j, 3, true).unwrap(), m);
        assert_eq!(jm.state(j).unwrap(), JobState::Idle);
        assert_eq!(jm.epochs_done(j).unwrap(), 3);
        // Re-queued behind job 1 (fresh arrival).
        assert_eq!(jm.idle_jobs(), vec![JobId::new(1), j]);
        assert!(jm.start_job(j, m).unwrap(), "restart from snapshot is a resume");
    }

    #[test]
    fn interrupt_without_snapshot_is_fresh_start() {
        let mut jm = jm_with(1);
        let j = JobId::new(0);
        let m = MachineId::new(0);
        jm.start_job(j, m).unwrap();
        jm.record_epoch(j).unwrap();
        jm.interrupt_job(j, 0, false).unwrap();
        assert_eq!(jm.epochs_done(j).unwrap(), 0);
        assert!(!jm.start_job(j, m).unwrap(), "no snapshot: restart is fresh");
    }

    #[test]
    fn interrupt_requires_live_state() {
        let mut jm = jm_with(1);
        let j = JobId::new(0);
        assert!(jm.interrupt_job(j, 0, false).is_err(), "cannot interrupt idle job");
        jm.start_job(j, MachineId::new(0)).unwrap();
        jm.begin_suspend(j).unwrap();
        assert!(jm.interrupt_job(j, 0, false).is_ok(), "suspending jobs interrupt");
    }

    #[test]
    fn failed_jobs_leave_the_pool() {
        let mut jm = jm_with(2);
        let j = JobId::new(0);
        let m = MachineId::new(0);
        jm.start_job(j, m).unwrap();
        assert_eq!(jm.fail_job(j).unwrap(), Some(m));
        assert_eq!(jm.state(j).unwrap(), JobState::Failed);
        assert!(jm.fail_job(j).is_err(), "double fail rejected");
        assert!(jm.terminate_job(j).is_err(), "terminate after fail rejected");
        assert_eq!(jm.active_jobs(), vec![JobId::new(1)]);
        assert!(!jm.idle_jobs().contains(&j));
    }

    /// Exhaustively checks the maintained listing indexes against a
    /// from-scratch recomputation over the entries.
    fn assert_indexes_consistent(jm: &JobManager) {
        let mut idle: Vec<JobId> =
            jm.jobs.iter().filter(|(_, e)| e.state == JobState::Idle).map(|(id, _)| id).collect();
        idle.sort_by_key(|&a| jm.idle_key(a));
        assert_eq!(jm.idle_jobs(), idle, "idle index drifted");
        let mut running: Vec<JobId> = jm
            .jobs
            .iter()
            .filter(|(_, e)| matches!(e.state, JobState::Running(_)))
            .map(|(id, _)| id)
            .collect();
        running.sort_unstable();
        assert_eq!(jm.running_jobs(), running, "running index drifted");
        let mut active: Vec<JobId> = jm
            .jobs
            .iter()
            .filter(|(_, e)| {
                matches!(e.state, JobState::Running(_) | JobState::Suspending(_) | JobState::Idle)
            })
            .map(|(id, _)| id)
            .collect();
        active.sort_unstable();
        assert_eq!(jm.active_jobs(), active, "active index drifted");
    }

    #[test]
    fn listing_indexes_survive_every_transition() {
        let mut jm = jm_with(6);
        let m = MachineId::new(0);
        assert_indexes_consistent(&jm);
        jm.label_job(JobId::new(4), 0.8).unwrap();
        assert_indexes_consistent(&jm);
        jm.start_job(JobId::new(4), m).unwrap();
        assert_indexes_consistent(&jm);
        jm.begin_suspend(JobId::new(4)).unwrap();
        assert_indexes_consistent(&jm);
        jm.finish_suspend(JobId::new(4)).unwrap();
        assert_indexes_consistent(&jm);
        jm.start_job(JobId::new(0), MachineId::new(1)).unwrap();
        jm.record_epoch(JobId::new(0)).unwrap();
        jm.complete_job(JobId::new(0)).unwrap();
        assert_indexes_consistent(&jm);
        jm.start_job(JobId::new(1), MachineId::new(2)).unwrap();
        jm.interrupt_job(JobId::new(1), 0, false).unwrap();
        assert_indexes_consistent(&jm);
        jm.terminate_job(JobId::new(2)).unwrap();
        assert_indexes_consistent(&jm);
        jm.start_job(JobId::new(3), MachineId::new(3)).unwrap();
        jm.fail_job(JobId::new(3)).unwrap();
        assert_indexes_consistent(&jm);
        // Relabeling while running must not touch the idle queue; the new
        // priority applies once the job re-queues.
        jm.start_job(JobId::new(5), MachineId::new(4)).unwrap();
        jm.label_job(JobId::new(5), 0.9).unwrap();
        assert_indexes_consistent(&jm);
        jm.begin_suspend(JobId::new(5)).unwrap();
        jm.finish_suspend(JobId::new(5)).unwrap();
        assert_indexes_consistent(&jm);
        assert_eq!(jm.peek_idle_job(), Some(JobId::new(5)), "highest priority leads the queue");
    }

    #[test]
    fn a_token_is_redeemed_once_and_an_interrupt_voids_it() {
        let mut jm = jm_with(1);
        let j = JobId::new(0);
        let m = MachineId::new(2);
        assert!(!jm.redeem(j, 0), "nothing in flight yet");
        assert!(!jm.redeem(JobId::new(9), 0), "unknown job");
        jm.start_job(j, m).unwrap();
        jm.issue(j, 7, SimTime::from_secs(60.0)).unwrap();
        assert!(!jm.redeem(j, 6), "a different token is stale");
        assert!(jm.redeem(j, 7));
        assert!(!jm.redeem(j, 7), "the same report twice");
        assert_eq!(jm.record_epoch(j).unwrap(), (1, m));
        jm.issue(j, 8, SimTime::from_secs(1.5)).unwrap();
        jm.interrupt_job(j, 0, false).unwrap();
        assert!(!jm.redeem(j, 8), "the interrupt superseded it");
        // Charged time is kept: the machine was occupied either way.
        assert_eq!(jm.busy_time(j).unwrap(), SimTime::from_secs(61.5));
        assert!(jm.issue(JobId::new(9), 0, SimTime::ZERO).is_err());
    }

    #[test]
    fn reset_epochs_requires_running() {
        let mut jm = jm_with(1);
        let j = JobId::new(0);
        assert!(jm.reset_epochs(j, 0).is_err());
        jm.start_job(j, MachineId::new(0)).unwrap();
        jm.record_epoch(j).unwrap();
        jm.reset_epochs(j, 0).unwrap();
        assert_eq!(jm.epochs_done(j).unwrap(), 0);
    }
}
