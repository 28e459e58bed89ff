//! The AppStat database.
//!
//! §4.2: "The application statistics database (AppStatDB) is used to store
//! and retrieve model-generated application statistics such as performance
//! stats (e.g., accuracy, reward), epoch duration, etc. In addition the
//! AppStatDB stores model state used to enable suspend and resume training
//! across machines."

use crate::dense::DenseMap;
use crate::snapshot;

use hyperdrive_types::{CurvePoint, JobId, LearningCurve, MetricKind, SimTime};
use hyperdrive_workload::{EpochRow, JobProfile, SuspendCost};

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

/// `recorded` of a job that has never reported an epoch.
const UNRECORDED: u32 = u32::MAX;

/// Stores per-job performance history, model snapshots, and suspend-event
/// telemetry.
///
/// A job's history is its workload rows plus one completion time per
/// epoch: the value it reported for epoch `e` is `rows[e - 1].value` (the
/// executor reports exactly the profile), so only the times are stored,
/// in one job-major array sized at construction. Recorded epochs are
/// always `1..=n`, and `n` is all a rollback changes. A [`LearningCurve`]
/// is built only when one is asked for.
#[derive(Debug)]
pub struct AppStatDb<'w> {
    metric: MetricKind,
    /// Each job's ground-truth rows, indexed by raw job id.
    rows: Vec<&'w [EpochRow]>,
    /// Each job's secondary-metric series (§9: "additional metrics of
    /// concern", e.g. sparsity alongside perplexity), if its profile has
    /// one: recorded with the same epochs and times as the primary.
    secondary: Vec<Option<&'w [f64]>>,
    /// Completion time (seconds) of job `j`'s epoch `e` at
    /// `j * stride + e - 1`.
    times: Vec<f64>,
    /// The longest job's epoch count: the row length of `times`.
    stride: usize,
    /// Epochs recorded per job, or [`UNRECORDED`] before its first report.
    recorded: Vec<u32>,
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
}

impl<'w> AppStatDb<'w> {
    /// Creates an empty database over `profiles`, the `i`-th being job
    /// `i`'s. Every job's time slots are allocated here, once, so
    /// recording never allocates.
    pub fn new(metric: MetricKind, profiles: impl IntoIterator<Item = &'w JobProfile>) -> Self {
        let (rows, secondary): (Vec<_>, Vec<_>) =
            profiles.into_iter().map(|p| (p.rows(), p.secondary_values())).unzip();
        let stride = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        AppStatDb {
            metric,
            // Zeroed, so the pages are mapped lazily as jobs first write.
            times: vec![0.0; rows.len() * stride],
            recorded: vec![UNRECORDED; rows.len()],
            snapshots: DenseMap::with_capacity(rows.len()),
            rows,
            secondary,
            stride,
            spare_buffers: Vec::new(),
            snapshot_bytes_held: 0,
            snapshot_bytes_peak: 0,
            suspend_events: Vec::new(),
        }
    }

    /// `job`'s ground-truth rows: epoch `e`'s duration and reported value
    /// are `rows(job)[e - 1]`.
    #[inline]
    pub(crate) fn rows(&self, job: JobId) -> &'w [EpochRow] {
        self.rows[job.raw() as usize]
    }

    /// Records that `job` reported `epoch` at `time`.
    ///
    /// # Panics
    ///
    /// Panics unless `epoch` follows the last one recorded (or kept by
    /// [`truncate_stats`](Self::truncate_stats)) and is within the job's
    /// profile: a gap would leave an epoch without a time.
    #[inline]
    pub fn record_stat(&mut self, job: JobId, epoch: u32, time: SimTime) {
        let j = job.raw() as usize;
        let n = &mut self.recorded[j];
        assert_eq!(if *n == UNRECORDED { 1 } else { *n + 1 }, epoch, "{job}'s next epoch");
        self.times[j * self.stride..][..self.rows[j].len()][(epoch - 1) as usize] = time.as_secs();
        *n = epoch;
    }

    /// Epochs recorded for `job`; `None` if it never reported one.
    fn recorded(&self, job: JobId) -> Option<usize> {
        let n = self.recorded[job.raw() as usize];
        (n != UNRECORDED).then_some(n as usize)
    }

    /// The recorded prefix of `job`'s rows.
    fn observed(&self, job: JobId) -> Option<&'w [EpochRow]> {
        self.recorded(job).map(|n| &self.rows(job)[..n])
    }

    /// `job`'s history as a curve of `(epoch, time, series[epoch - 1])`.
    fn build(&self, job: JobId, series: impl Fn(usize) -> f64) -> Option<LearningCurve> {
        let n = self.recorded(job)?;
        let start = job.raw() as usize * self.stride;
        let points = self.times[start..start + n]
            .iter()
            .enumerate()
            .map(|(i, &t)| CurvePoint {
                epoch: i as u32 + 1,
                time: SimTime::from_secs(t),
                value: series(i),
            })
            .collect();
        Some(LearningCurve::from_points(self.metric, points))
    }

    /// The observed learning curve of a job: `None` before its first
    /// report, empty after a rollback to epoch 0.
    pub fn curve(&self, job: JobId) -> Option<LearningCurve> {
        let rows = self.rows(job);
        self.build(job, |i| rows[i].value)
    }

    /// The job's secondary-metric history, `None` also when its profile
    /// has no secondary metric.
    pub fn secondary_curve(&self, job: JobId) -> Option<LearningCurve> {
        let series = self.secondary[job.raw() as usize]?;
        self.build(job, |i| series[i])
    }

    /// Best (maximum) value `job` has reported: [`LearningCurve::best`] of
    /// its curve, `None` if it has reported nothing.
    pub(crate) fn best(&self, job: JobId) -> Option<f64> {
        self.observed(job)?.iter().map(|r| r.value).fold(None, |acc, v| match acc {
            Some(best) if best >= v => Some(best),
            _ => Some(v),
        })
    }

    /// Mean of `job`'s last `window` values ([`LearningCurve::trailing_mean`]
    /// of its curve), `None` until it has reported `window` epochs.
    pub(crate) fn window_mean(&self, job: JobId, window: usize) -> Option<f64> {
        let observed = self.observed(job)?;
        if window == 0 || observed.len() < window {
            return None;
        }
        let tail = &observed[observed.len() - window..];
        Some(tail.iter().map(|r| r.value).sum::<f64>() / tail.len() as f64)
    }

    /// Serializes `job`'s history as its snapshot at `epochs_done`,
    /// standing for `modelled` bytes, into the buffer of the snapshot it
    /// supersedes (else a released one). Returns it for fault injection to
    /// damage.
    pub fn store_snapshot(&mut self, job: JobId, epochs_done: u32, modelled: u64) -> &mut [u8] {
        self.release_snapshot(job);
        let history = self.observed(job).expect("a suspending job has recorded statistics");
        let capacity = snapshot::encoded_len(self.stride);
        let mut bytes = self.spare_buffers.pop().unwrap_or_else(|| Vec::with_capacity(capacity));
        snapshot::write(&mut bytes, job, epochs_done, history.iter().map(|r| r.value));
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
    /// recovery: re-run epochs are re-recorded, so the history must not
    /// already contain them), primary and secondary alike. A job that
    /// never reported stays unrecorded; the stored snapshot is left alone —
    /// it is exactly what the job resumes from.
    pub fn truncate_stats(&mut self, job: JobId, keep_epoch: u32) {
        let n = &mut self.recorded[job.raw() as usize];
        if *n != UNRECORDED {
            *n = (*n).min(keep_epoch);
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
    /// tracks), with the owning job: the last of equal maxima in job-id
    /// order.
    pub fn global_best(&self) -> Option<(JobId, f64)> {
        (0..self.rows.len() as u64)
            .map(JobId::new)
            .filter_map(|job| self.best(job).map(|b| (job, b)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("curve values are not NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::JobSnapshot;

    /// A profile of one-minute epochs reporting `values`.
    fn profile(values: &[f64]) -> JobProfile {
        JobProfile::new(vec![SimTime::from_secs(60.0); values.len()], values.to_vec())
    }

    fn db(profiles: &[JobProfile]) -> AppStatDb<'_> {
        AppStatDb::new(MetricKind::Accuracy, profiles)
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn stats_accumulate_into_curves() {
        let profiles = [profile(&[0.2, 0.4, 0.3]), profile(&[0.5])];
        let mut db = db(&profiles);
        let j = JobId::new(0);
        db.record_stat(j, 1, secs(60.0));
        db.record_stat(j, 2, secs(125.0));
        let mut expected = LearningCurve::new(MetricKind::Accuracy);
        expected.push(1, secs(60.0), 0.2);
        expected.push(2, secs(125.0), 0.4);
        assert_eq!(db.curve(j), Some(expected));
        assert_eq!(db.best(j), Some(0.4));
        assert_eq!(db.curve(JobId::new(1)), None);
        assert_eq!(db.best(JobId::new(1)), None);
    }

    #[test]
    fn secondary_stats_share_the_primary_epochs() {
        let profiles =
            [profile(&[0.5, 0.6]).with_secondary(vec![0.05, 0.07]), profile(&[0.1, 0.2])];
        let mut db = db(&profiles);
        let [j, plain] = [0, 1].map(JobId::new);
        assert_eq!(db.secondary_curve(j), None, "nothing recorded yet");
        db.record_stat(j, 1, secs(1.0));
        db.record_stat(plain, 1, secs(1.0));
        let secondary = db.secondary_curve(j).unwrap();
        assert_eq!(secondary.points(), &[CurvePoint { epoch: 1, time: secs(1.0), value: 0.05 }]);
        assert_eq!(db.curve(j).unwrap().last_value(), Some(0.5));
        assert_eq!(db.secondary_curve(plain), None, "no secondary metric");
    }

    #[test]
    fn snapshots_round_trip() {
        let profiles = [profile(&[0.2, 0.4, 0.1])];
        let mut db = db(&profiles);
        let j = JobId::new(0);
        assert!(db.snapshot(j).is_none());
        db.record_stat(j, 1, secs(60.0));
        db.store_snapshot(j, 1, 3_000);
        let first = JobSnapshot::decode(db.snapshot(j).unwrap()).unwrap();
        assert_eq!(first, JobSnapshot { job: j, epochs_done: 1, history: vec![0.2] });
        // A newer snapshot supersedes the old one: state and size.
        db.record_stat(j, 2, secs(120.0));
        db.store_snapshot(j, 2, 1_000);
        assert_eq!(JobSnapshot::decode(db.snapshot(j).unwrap()).unwrap().history, vec![0.2, 0.4]);
        assert_eq!(db.snapshot_storage_bytes(), 1_000);
        assert_eq!(db.peak_snapshot_bytes(), 3_000);
    }

    #[test]
    fn snapshot_storage_is_accounted_and_buffers_are_recycled() {
        let profiles = [profile(&[0.5; 8]), profile(&[0.1; 8]), profile(&[0.7; 8])];
        let mut db = db(&profiles);
        let [a, b, c] = [0, 1, 2].map(JobId::new);
        for e in 1..=3 {
            db.record_stat(a, e, secs(f64::from(e)));
        }
        db.record_stat(b, 1, secs(1.0));
        db.record_stat(c, 1, secs(1.0));
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
        let profiles = [profile(&[0.3]), profile(&[0.7, 0.5]), profile(&[0.7]), profile(&[0.9])];
        let mut db = db(&profiles);
        assert_eq!(db.global_best(), None);
        db.record_stat(JobId::new(0), 1, secs(1.0));
        db.record_stat(JobId::new(1), 1, secs(1.0));
        db.record_stat(JobId::new(1), 2, secs(2.0));
        assert_eq!(db.global_best(), Some((JobId::new(1), 0.7)));
        // Equal maxima: the highest job id wins. Unrecorded jobs count nothing.
        db.record_stat(JobId::new(2), 1, secs(2.0));
        assert_eq!(db.global_best(), Some((JobId::new(2), 0.7)));
    }

    #[test]
    fn truncate_stats_rolls_back_both_curves() {
        let values = [0.1, 0.2, 0.3, 0.4];
        let profiles = [profile(&values).with_secondary(vec![0.01, 0.02, 0.03, 0.04])];
        let mut db = db(&profiles);
        let j = JobId::new(0);
        for e in 1..=4 {
            db.record_stat(j, e, secs(f64::from(e) * 10.0));
        }
        db.truncate_stats(j, 2);
        assert_eq!(db.curve(j).unwrap().last_epoch(), Some(2));
        assert_eq!(db.secondary_curve(j).unwrap().last_epoch(), Some(2));
        assert_eq!(db.best(j), Some(0.2));
        assert_eq!(db.window_mean(j, 3), None, "fewer than the window left");
        // Re-running epoch 3 records cleanly, at its new time.
        db.record_stat(j, 3, secs(99.0));
        let curve = db.curve(j).unwrap();
        assert_eq!(curve.last_epoch(), Some(3));
        assert_eq!(curve.last_time(), Some(secs(99.0)));
        assert_eq!(db.window_mean(j, 3), curve.trailing_mean(3));
        // Truncating never lengthens the history.
        db.truncate_stats(j, 7);
        assert_eq!(db.curve(j).unwrap().len(), 3);
    }

    #[test]
    fn a_rollback_to_epoch_zero_is_an_empty_curve_and_no_report_is_none() {
        // A job restarted from scratch (its snapshot proved corrupt) has a
        // history that is empty; a job that never reported has none. The
        // engine's prefetch hints tell the two apart.
        let profiles = [profile(&[0.4, 0.6]).with_secondary(vec![0.1, 0.2]), profile(&[0.5])];
        let mut db = db(&profiles);
        let [restarted, never] = [0, 1].map(JobId::new);
        db.record_stat(restarted, 1, secs(60.0));
        db.truncate_stats(restarted, 0);
        db.truncate_stats(never, 0);
        assert_eq!(db.curve(restarted), Some(LearningCurve::new(MetricKind::Accuracy)));
        assert_eq!(db.secondary_curve(restarted), Some(LearningCurve::new(MetricKind::Accuracy)));
        assert_eq!(db.curve(never), None);
        assert_eq!(db.best(restarted), None);
        assert_eq!(db.global_best(), None);
        // The restart records epoch 1 again.
        db.record_stat(restarted, 1, secs(130.0));
        assert_eq!(db.curve(restarted).unwrap().points()[0].time, secs(130.0));
    }

    #[test]
    fn suspend_events_are_logged() {
        let profiles = [profile(&[0.5])];
        let mut db = db(&profiles);
        let cost = SuspendCost { latency: secs(0.2), snapshot_bytes: 1024 };
        db.record_suspend(SuspendEvent { job: JobId::new(0), requested_at: secs(100.0), cost });
        assert_eq!(db.suspend_events().len(), 1);
        assert_eq!(db.suspend_events()[0].cost.snapshot_bytes, 1024);
    }
}
