//! The AppStat database.
//!
//! §4.2: "The application statistics database (AppStatDB) is used to store
//! and retrieve model-generated application statistics such as performance
//! stats (e.g., accuracy, reward), epoch duration, etc. In addition the
//! AppStatDB stores model state used to enable suspend and resume training
//! across machines."

use crate::dense::DenseMap;
use crate::snapshot;

use hyperdrive_types::{JobId, LearningCurve, MetricKind, SimTime};
use hyperdrive_workload::SuspendCost;

/// A suspend event as observed by the scheduler (for the §6.2.3 / Fig. 10
/// overhead studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspendEvent {
    /// The suspended job.
    pub job: JobId,
    /// When the suspend request was issued.
    pub requested_at: SimTime,
    /// Sampled latency and snapshot size.
    pub cost: SuspendCost,
}

/// A job's stored model state: the encoded training state, the epoch it was
/// taken at (damage to `bytes` shows only at resume) and its sampled size.
#[derive(Debug)]
struct StoredSnapshot {
    bytes: Vec<u8>,
    epochs_done: u32,
    modelled_bytes: u64,
}

/// Stores per-job performance history, model snapshots, and suspend-event
/// telemetry.
#[derive(Debug)]
pub struct AppStatDb {
    metric: MetricKind,
    curves: DenseMap<LearningCurve>,
    /// Secondary-metric history per job (§9: "additional metrics of
    /// concern", e.g. sparsity alongside perplexity).
    secondary_curves: DenseMap<LearningCurve>,
    /// Latest stored snapshot of each job that can still resume: its
    /// training state is really serialized; the framework/CRIU state the
    /// synthetic jobs lack is accounted as a size, not allocated.
    snapshots: DenseMap<StoredSnapshot>,
    /// Buffers of released snapshots, reused by later first suspends.
    spare_buffers: Vec<Vec<u8>>,
    /// Sum of `modelled_bytes` over `snapshots`, and its high-water mark.
    snapshot_bytes_held: u64,
    snapshot_bytes_peak: u64,
    suspend_events: Vec<SuspendEvent>,
    /// Capacity hint for newly created curves (the workload's epoch cap),
    /// so per-epoch recording never reallocates in steady state.
    epochs_hint: usize,
}

impl AppStatDb {
    /// Creates an empty database for the given metric kind.
    pub fn new(metric: MetricKind) -> Self {
        Self::with_capacity(metric, 0, 0)
    }

    /// Creates an empty database pre-sized for `jobs` jobs of up to
    /// `max_epochs` observations each: the per-job curve maps and every
    /// curve they hold are allocated once, so steady-state recording is
    /// allocation-free.
    pub fn with_capacity(metric: MetricKind, jobs: usize, max_epochs: usize) -> Self {
        AppStatDb {
            metric,
            curves: DenseMap::with_capacity(jobs),
            secondary_curves: DenseMap::with_capacity(jobs),
            snapshots: DenseMap::with_capacity(jobs),
            spare_buffers: Vec::new(),
            snapshot_bytes_held: 0,
            snapshot_bytes_peak: 0,
            suspend_events: Vec::new(),
            epochs_hint: max_epochs,
        }
    }

    /// Records one performance observation for a job.
    pub fn record_stat(&mut self, job: JobId, epoch: u32, time: SimTime, value: f64) {
        self.curves
            .or_insert_with(job, || LearningCurve::with_capacity(self.metric, self.epochs_hint))
            .push(epoch, time, value);
    }

    /// Records one secondary-metric observation for a job.
    pub fn record_secondary(&mut self, job: JobId, epoch: u32, time: SimTime, value: f64) {
        self.secondary_curves
            .or_insert_with(job, || LearningCurve::with_capacity(self.metric, self.epochs_hint))
            .push(epoch, time, value);
    }

    /// Borrowed view of a job's secondary-metric history, if any.
    pub fn secondary_curve_ref(&self, job: JobId) -> Option<&LearningCurve> {
        self.secondary_curves.get(job)
    }

    /// The observed learning curve of a job (empty curve if none yet).
    pub fn curve(&self, job: JobId) -> LearningCurve {
        self.curves.get(job).cloned().unwrap_or_else(|| LearningCurve::new(self.metric))
    }

    /// Borrowed view of a job's curve, if any observation exists.
    pub fn curve_ref(&self, job: JobId) -> Option<&LearningCurve> {
        self.curves.get(job)
    }

    /// Serializes `job`'s curve as its snapshot at `epochs_done`, standing
    /// for `modelled` bytes, into the buffer of the snapshot it supersedes
    /// (else a released one). Returns it for fault injection to damage.
    pub fn store_snapshot(&mut self, job: JobId, epochs_done: u32, modelled: u64) -> &mut [u8] {
        self.release_snapshot(job);
        let curve = self.curves.get(job).expect("a suspending job has recorded statistics");
        let capacity = snapshot::encoded_len(self.epochs_hint.max(curve.len()));
        let mut bytes = self.spare_buffers.pop().unwrap_or_else(|| Vec::with_capacity(capacity));
        snapshot::write(&mut bytes, job, epochs_done, curve.values());
        self.snapshot_bytes_held += modelled;
        self.snapshot_bytes_peak = self.snapshot_bytes_peak.max(self.snapshot_bytes_held);
        let stored = StoredSnapshot { bytes, epochs_done, modelled_bytes: modelled };
        &mut self.snapshots.or_insert_with(job, || stored).bytes
    }

    /// The stored snapshot for a job.
    pub fn snapshot(&self, job: JobId) -> Option<&[u8]> {
        self.snapshots.get(job).map(|s| s.bytes.as_slice())
    }

    /// The epochs `job`'s stored snapshot covers, if it has one.
    pub(crate) fn snapshot_epochs(&self, job: JobId) -> Option<u32> {
        self.snapshots.get(job).map(|s| s.epochs_done)
    }

    /// Drops `job`'s snapshot, if any (terminal state, proved corrupt, or
    /// superseded): nothing will resume from it. Its buffer is kept for reuse.
    pub(crate) fn release_snapshot(&mut self, job: JobId) {
        if let Some(stored) = self.snapshots.remove(job) {
            self.snapshot_bytes_held -= stored.modelled_bytes;
            self.spare_buffers.push(stored.bytes);
        }
    }

    /// Rolls a job's recorded history back to `keep_epoch` (crash
    /// recovery: re-run epochs are re-recorded, so the curve must not
    /// already contain them). Affects primary and secondary curves; the
    /// stored snapshot is left alone — it is exactly what the job resumes
    /// from.
    pub fn truncate_stats(&mut self, job: JobId, keep_epoch: u32) {
        if let Some(curve) = self.curves.get_mut(job) {
            curve.truncate_to_epoch(keep_epoch);
        }
        if let Some(curve) = self.secondary_curves.get_mut(job) {
            curve.truncate_to_epoch(keep_epoch);
        }
    }

    /// Records a completed suspend event.
    pub fn record_suspend(&mut self, event: SuspendEvent) {
        self.suspend_events.push(event);
    }

    /// All recorded suspend events.
    pub fn suspend_events(&self) -> &[SuspendEvent] {
        &self.suspend_events
    }

    /// Modelled storage: the summed sampled sizes of the snapshots now held.
    pub fn snapshot_storage_bytes(&self) -> u64 {
        self.snapshot_bytes_held
    }

    /// High-water mark of [`snapshot_storage_bytes`](Self::snapshot_storage_bytes).
    pub(crate) fn peak_snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes_peak
    }

    /// Best observed value across all jobs (the `globalBest` that Bandit
    /// tracks), with the owning job.
    pub fn global_best(&self) -> Option<(JobId, f64)> {
        self.curves
            .iter()
            .filter_map(|(id, c)| c.best().map(|b| (id, b)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("curve values are not NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::JobSnapshot;

    fn db() -> AppStatDb {
        AppStatDb::new(MetricKind::Accuracy)
    }

    #[test]
    fn stats_accumulate_into_curves() {
        let mut db = db();
        let j = JobId::new(1);
        db.record_stat(j, 1, SimTime::from_secs(60.0), 0.2);
        db.record_stat(j, 2, SimTime::from_secs(120.0), 0.4);
        let curve = db.curve(j);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve.best(), Some(0.4));
        assert!(db.curve(JobId::new(9)).is_empty());
    }

    #[test]
    fn secondary_stats_are_separate() {
        let mut db = db();
        let j = JobId::new(4);
        db.record_stat(j, 1, SimTime::from_secs(1.0), 0.5);
        db.record_secondary(j, 1, SimTime::from_secs(1.0), 0.05);
        assert_eq!(db.curve(j).len(), 1);
        assert_eq!(db.secondary_curve_ref(j).unwrap().last_value(), Some(0.05));
        assert!(db.secondary_curve_ref(JobId::new(9)).is_none());
    }

    #[test]
    fn snapshots_round_trip() {
        let mut db = db();
        let j = JobId::new(2);
        assert!(db.snapshot(j).is_none());
        db.record_stat(j, 1, SimTime::from_secs(60.0), 0.2);
        db.store_snapshot(j, 1, 3_000);
        let first = JobSnapshot::decode(db.snapshot(j).unwrap()).unwrap();
        assert_eq!(first, JobSnapshot { job: j, epochs_done: 1, history: vec![0.2] });
        // A newer snapshot supersedes the old one: state and size.
        db.record_stat(j, 2, SimTime::from_secs(120.0), 0.4);
        db.store_snapshot(j, 2, 1_000);
        assert_eq!(JobSnapshot::decode(db.snapshot(j).unwrap()).unwrap().history, vec![0.2, 0.4]);
        assert_eq!(db.snapshot_storage_bytes(), 1_000);
        assert_eq!(db.peak_snapshot_bytes(), 3_000);
    }

    #[test]
    fn snapshot_storage_is_accounted_and_buffers_are_recycled() {
        let mut db = AppStatDb::with_capacity(MetricKind::Accuracy, 3, 8);
        let [a, b, c] = [0, 1, 2].map(JobId::new);
        for e in 1..=3 {
            db.record_stat(a, e, SimTime::from_secs(f64::from(e)), 0.5);
        }
        db.record_stat(b, 1, SimTime::from_secs(1.0), 0.1);
        db.record_stat(c, 1, SimTime::from_secs(1.0), 0.7);
        // Modelled sizes are uncapped numbers, far beyond what is allocated.
        db.store_snapshot(a, 3, 40 << 20);
        db.store_snapshot(b, 1, 24 << 20);
        assert_eq!(db.snapshot_storage_bytes(), 64 << 20);
        let (a_buffer, b_buffer) =
            (db.snapshot(a).unwrap().as_ptr(), db.snapshot(b).unwrap().as_ptr());
        db.release_snapshot(a);
        db.release_snapshot(a); // idempotent
        assert!(db.snapshot(a).is_none());
        assert_eq!(db.snapshot_storage_bytes(), 24 << 20);
        // b's next suspend reuses its own buffer; the finished job's buffer
        // serves the next first suspend, with none of its old contents.
        db.store_snapshot(b, 1, 1 << 20);
        db.store_snapshot(c, 1, 2 << 20);
        assert_eq!(db.snapshot(b).unwrap().as_ptr(), b_buffer);
        assert_eq!(db.snapshot(c).unwrap().as_ptr(), a_buffer);
        assert!(snapshot::verify(db.snapshot(c).unwrap(), c, 1));
        assert_eq!(db.snapshot(c).unwrap().len(), snapshot::encoded_len(1));
        assert_eq!(db.snapshot_storage_bytes(), 3 << 20);
        assert_eq!(db.peak_snapshot_bytes(), 64 << 20);
    }

    #[test]
    fn global_best_across_jobs() {
        let mut db = db();
        db.record_stat(JobId::new(1), 1, SimTime::from_secs(1.0), 0.3);
        db.record_stat(JobId::new(2), 1, SimTime::from_secs(1.0), 0.7);
        db.record_stat(JobId::new(2), 2, SimTime::from_secs(2.0), 0.5);
        assert_eq!(db.global_best(), Some((JobId::new(2), 0.7)));
        assert_eq!(AppStatDb::new(MetricKind::Reward).global_best(), None);
    }

    #[test]
    fn truncate_stats_rolls_back_both_curves() {
        let mut db = db();
        let j = JobId::new(3);
        for e in 1..=4 {
            let t = SimTime::from_secs(f64::from(e) * 10.0);
            db.record_stat(j, e, t, 0.1 * f64::from(e));
            db.record_secondary(j, e, t, 0.01 * f64::from(e));
        }
        db.truncate_stats(j, 2);
        assert_eq!(db.curve(j).last_epoch(), Some(2));
        assert_eq!(db.secondary_curve_ref(j).unwrap().last_epoch(), Some(2));
        // Re-running epoch 3 records cleanly.
        db.record_stat(j, 3, SimTime::from_secs(99.0), 0.9);
        assert_eq!(db.curve(j).last_epoch(), Some(3));
        // Truncating a job with no history is a no-op.
        db.truncate_stats(JobId::new(9), 0);
    }

    #[test]
    fn suspend_events_are_logged() {
        let mut db = db();
        let cost = SuspendCost { latency: SimTime::from_secs(0.2), snapshot_bytes: 1024 };
        db.record_suspend(SuspendEvent {
            job: JobId::new(1),
            requested_at: SimTime::from_secs(100.0),
            cost,
        });
        assert_eq!(db.suspend_events().len(), 1);
        assert_eq!(db.suspend_events()[0].cost.snapshot_bytes, 1024);
    }
}
