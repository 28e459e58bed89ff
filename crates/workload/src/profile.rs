//! Job profiles: the ground-truth execution a synthetic workload assigns to
//! one hyperparameter configuration.
//!
//! A [`JobProfile`] is what a real training run *would* produce if executed
//! to completion: the normalized performance measured at the end of every
//! epoch and each epoch's duration. Executors (live or simulated) reveal the
//! profile incrementally to scheduling policies — a policy never sees beyond
//! the epochs it has paid for, exactly as with real training.

use hyperdrive_types::SimTime;

/// One epoch of ground truth: how long it occupies a machine and the
/// normalized performance measured at its end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Duration of the epoch.
    pub duration: SimTime,
    /// Normalized performance at the end of the epoch.
    pub value: f64,
}

/// The complete (hidden) execution profile of one training job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// One row per epoch, in one allocation: a completed epoch `e` reads
    /// its value and the duration of epoch `e + 1`, which are adjacent.
    rows: Vec<EpochRow>,
    /// Optional secondary metric (e.g. model sparsity for the §9 LSTM
    /// group-lasso scenario), one value per epoch.
    secondary: Option<Vec<f64>>,
}

impl JobProfile {
    /// Creates a profile from per-epoch durations and normalized
    /// performance values.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths, are empty, or contain
    /// non-finite/negative durations or non-finite values.
    pub fn new(epoch_durations: Vec<SimTime>, values: Vec<f64>) -> Self {
        assert_eq!(
            epoch_durations.len(),
            values.len(),
            "durations and values must have equal length"
        );
        let rows = epoch_durations.into_iter().zip(values);
        Self::from_rows(rows.map(|(duration, value)| EpochRow { duration, value }).collect())
    }

    /// Creates a profile from rows written in epoch order (what the
    /// generators do, so no pair of vectors is built and zipped).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or contains non-finite/negative durations
    /// or non-finite values.
    pub fn from_rows(rows: Vec<EpochRow>) -> Self {
        assert!(!rows.is_empty(), "profile must contain at least one epoch");
        for d in rows.iter().map(|r| r.duration) {
            assert!(d.as_secs().is_finite() && d.as_secs() > 0.0, "bad epoch duration {d}");
        }
        for v in rows.iter().map(|r| r.value) {
            assert!(v.is_finite(), "bad profile value {v}");
        }
        JobProfile { rows, secondary: None }
    }

    /// Attaches a secondary metric series (§9's "additional metrics of
    /// concern", e.g. sparsity alongside perplexity).
    ///
    /// # Panics
    ///
    /// Panics if the series length differs from the epoch count or any
    /// value is non-finite.
    pub fn with_secondary(mut self, secondary: Vec<f64>) -> Self {
        assert_eq!(secondary.len(), self.rows.len(), "secondary series must cover every epoch");
        assert!(secondary.iter().all(|v| v.is_finite()), "bad secondary value");
        self.secondary = Some(secondary);
        self
    }

    /// Secondary metric at the 1-based `epoch`, if this profile carries
    /// one.
    pub fn secondary_at(&self, epoch: u32) -> Option<f64> {
        assert!(epoch >= 1 && epoch <= self.max_epochs(), "epoch {epoch} out of range");
        self.secondary.as_ref().map(|s| s[(epoch - 1) as usize])
    }

    /// The full secondary series, if present.
    pub fn secondary_values(&self) -> Option<&[f64]> {
        self.secondary.as_deref()
    }

    /// Total number of epochs this job would train for if never terminated.
    pub fn max_epochs(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Duration of the 1-based `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 or exceeds [`JobProfile::max_epochs`].
    pub fn epoch_duration(&self, epoch: u32) -> SimTime {
        assert!(epoch >= 1 && epoch <= self.max_epochs(), "epoch {epoch} out of range");
        self.rows[(epoch - 1) as usize].duration
    }

    /// Normalized performance at the end of the 1-based `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 or exceeds [`JobProfile::max_epochs`].
    pub fn value_at(&self, epoch: u32) -> f64 {
        assert!(epoch >= 1 && epoch <= self.max_epochs(), "epoch {epoch} out of range");
        self.rows[(epoch - 1) as usize].value
    }

    /// The per-epoch rows, epoch 1 first.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// All per-epoch values.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.rows.iter().map(|r| r.value)
    }

    /// All per-epoch durations.
    pub fn epoch_durations(&self) -> impl ExactSizeIterator<Item = SimTime> + '_ {
        self.rows.iter().map(|r| r.duration)
    }

    /// Performance after the final epoch.
    pub fn final_value(&self) -> f64 {
        self.rows.last().expect("profile is non-empty").value
    }

    /// Best performance over the whole profile.
    pub fn best_value(&self) -> f64 {
        self.values().fold(f64::NEG_INFINITY, f64::max)
    }

    /// First 1-based epoch at which performance reaches `target`, if any.
    pub fn first_epoch_reaching(&self, target: f64) -> Option<u32> {
        self.values().position(|v| v >= target).map(|i| i as u32 + 1)
    }

    /// Mean epoch duration across the profile.
    pub fn mean_epoch_duration(&self) -> SimTime {
        SimTime::from_secs(self.total_duration().as_secs() / self.rows.len() as f64)
    }

    /// Total training time if run to completion.
    pub fn total_duration(&self) -> SimTime {
        SimTime::from_secs(self.epoch_durations().map(|d| d.as_secs()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> JobProfile {
        JobProfile::new(
            vec![SimTime::from_secs(60.0), SimTime::from_secs(62.0), SimTime::from_secs(58.0)],
            vec![0.1, 0.4, 0.3],
        )
    }

    #[test]
    fn accessors() {
        let p = profile();
        assert_eq!(p.max_epochs(), 3);
        assert_eq!(p.value_at(2), 0.4);
        assert_eq!(p.epoch_duration(3).as_secs(), 58.0);
        assert_eq!(p.final_value(), 0.3);
        assert_eq!(p.best_value(), 0.4);
        assert!((p.mean_epoch_duration().as_secs() - 60.0).abs() < 1e-12);
        assert!((p.total_duration().as_secs() - 180.0).abs() < 1e-12);
    }

    #[test]
    fn first_epoch_reaching_finds_threshold() {
        let p = profile();
        assert_eq!(p.first_epoch_reaching(0.35), Some(2));
        assert_eq!(p.first_epoch_reaching(0.05), Some(1));
        assert_eq!(p.first_epoch_reaching(0.9), None);
    }

    #[test]
    fn secondary_series_round_trips() {
        let p = profile().with_secondary(vec![0.0, 0.2, 0.5]);
        assert_eq!(p.secondary_at(2), Some(0.2));
        assert_eq!(p.secondary_values(), Some(&[0.0, 0.2, 0.5][..]));
        assert_eq!(profile().secondary_at(1), None);
    }

    #[test]
    #[should_panic(expected = "cover every epoch")]
    fn short_secondary_panics() {
        let _ = profile().with_secondary(vec![0.1]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = JobProfile::new(vec![SimTime::from_secs(1.0)], vec![0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn epoch_zero_panics() {
        profile().value_at(0);
    }

    #[test]
    #[should_panic(expected = "bad epoch duration")]
    fn zero_duration_panics() {
        let _ = JobProfile::new(vec![SimTime::ZERO], vec![0.1]);
    }
}
