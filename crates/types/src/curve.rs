//! Learning curves: the per-job history of `(epoch, time, performance)`
//! observations that every scheduling decision in the paper consumes.

use crate::metric::MetricKind;
use crate::time::SimTime;

/// One observation on a learning curve: the model's task performance measured
/// at the end of a training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// 1-based epoch index at which the measurement was taken.
    pub epoch: u32,
    /// Experiment time of the measurement.
    pub time: SimTime,
    /// Measured (normalized) task performance, higher is better.
    pub value: f64,
}

/// The observed performance history of one training job.
///
/// Values are expected to be normalized to `[0, 1]` by the caller (see
/// [`crate::MetricNormalizer`]); the curve itself does not enforce bounds
/// because intermediate raw curves are also represented with this type.
///
/// # Example
///
/// ```
/// use hyperdrive_types::{LearningCurve, MetricKind, SimTime};
///
/// let mut curve = LearningCurve::new(MetricKind::Accuracy);
/// curve.push(1, SimTime::from_secs(60.0), 0.10);
/// curve.push(2, SimTime::from_secs(120.0), 0.35);
/// curve.push(3, SimTime::from_secs(180.0), 0.50);
/// assert_eq!(curve.best(), Some(0.50));
/// assert_eq!(curve.last_epoch(), Some(3));
/// let avg = curve.mean_epoch_duration().unwrap();
/// assert!((avg.as_secs() - 60.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LearningCurve {
    kind: MetricKind,
    points: Vec<CurvePoint>,
}

impl LearningCurve {
    /// Creates an empty curve for the given metric kind.
    pub fn new(kind: MetricKind) -> Self {
        LearningCurve { kind, points: Vec::new() }
    }

    /// Creates an empty curve with room for `capacity` observations, so a
    /// curve filled up to its job's epoch cap never reallocates (the
    /// engine's zero-alloc steady-state contract).
    pub fn with_capacity(kind: MetricKind, capacity: usize) -> Self {
        LearningCurve { kind, points: Vec::with_capacity(capacity) }
    }

    /// Creates a curve from pre-existing points.
    ///
    /// # Panics
    ///
    /// Panics if epochs are not strictly increasing.
    pub fn from_points(kind: MetricKind, points: Vec<CurvePoint>) -> Self {
        for w in points.windows(2) {
            assert!(
                w[0].epoch < w[1].epoch,
                "curve epochs must be strictly increasing: {} then {}",
                w[0].epoch,
                w[1].epoch
            );
        }
        LearningCurve { kind, points }
    }

    /// The metric kind this curve records.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not exceed the last recorded epoch, or if
    /// `value` is NaN.
    pub fn push(&mut self, epoch: u32, time: SimTime, value: f64) {
        assert!(!value.is_nan(), "curve values cannot be NaN");
        if let Some(last) = self.points.last() {
            assert!(
                epoch > last.epoch,
                "epoch {epoch} must exceed last recorded epoch {}",
                last.epoch
            );
        }
        self.points.push(CurvePoint { epoch, time, value });
    }

    /// All observations in epoch order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Discards every observation past `keep_epoch`, keeping the curve
    /// consistent with a job rolled back to that epoch (crash recovery
    /// re-runs the lost epochs and re-records them). `keep_epoch = 0`
    /// empties the curve.
    pub fn truncate_to_epoch(&mut self, keep_epoch: u32) {
        self.points.retain(|p| p.epoch <= keep_epoch);
    }

    /// The performance values, in epoch order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.value)
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Best (maximum) performance seen so far.
    pub fn best(&self) -> Option<f64> {
        self.values().fold(None, |acc, v| match acc {
            Some(best) if best >= v => Some(best),
            _ => Some(v),
        })
    }

    /// Most recent performance value.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// Most recent epoch index.
    pub fn last_epoch(&self) -> Option<u32> {
        self.points.last().map(|p| p.epoch)
    }

    /// Time of the most recent observation.
    pub fn last_time(&self) -> Option<SimTime> {
        self.points.last().map(|p| p.time)
    }

    /// Measured average epoch duration (`Epoch_i` in §3.1.1), derived from
    /// observation timestamps. Needs at least two observations; with exactly
    /// one observation whose epoch index is 1, its timestamp is used as a
    /// single-epoch estimate.
    pub fn mean_epoch_duration(&self) -> Option<SimTime> {
        match self.points.len() {
            0 => None,
            1 => {
                let p = self.points[0];
                if p.epoch >= 1 && p.time > SimTime::ZERO {
                    Some(SimTime::from_secs(p.time.as_secs() / f64::from(p.epoch)))
                } else {
                    None
                }
            }
            _ => {
                let first = self.points[0];
                let last = self.points[self.points.len() - 1];
                let epochs = f64::from(last.epoch - first.epoch);
                if epochs <= 0.0 {
                    return None;
                }
                let span = (last.time - first.time).as_secs();
                if span <= 0.0 {
                    return None;
                }
                Some(SimTime::from_secs(span / epochs))
            }
        }
    }

    /// Mean of the most recent `window` values, or of all values if fewer
    /// exist. Used by RL solved conditions ("average reward of 200 over 100
    /// consecutive trials").
    pub fn trailing_mean(&self, window: usize) -> Option<f64> {
        if self.points.is_empty() || window == 0 {
            return None;
        }
        let start = self.points.len().saturating_sub(window);
        let tail = &self.points[start..];
        Some(tail.iter().map(|p| p.value).sum::<f64>() / tail.len() as f64)
    }

    /// Returns a prefix of the curve containing observations up to and
    /// including `epoch`.
    pub fn prefix(&self, epoch: u32) -> LearningCurve {
        LearningCurve {
            kind: self.kind,
            points: self.points.iter().copied().filter(|p| p.epoch <= epoch).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LearningCurve {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        c.push(1, SimTime::from_secs(60.0), 0.10);
        c.push(2, SimTime::from_secs(120.0), 0.30);
        c.push(3, SimTime::from_secs(180.0), 0.25);
        c.push(4, SimTime::from_secs(240.0), 0.45);
        c
    }

    #[test]
    fn best_tracks_maximum_not_last() {
        let c = sample();
        assert_eq!(c.best(), Some(0.45));
        assert_eq!(c.last_value(), Some(0.45));
        let mut c2 = sample();
        c2.push(5, SimTime::from_secs(300.0), 0.20);
        assert_eq!(c2.best(), Some(0.45));
        assert_eq!(c2.last_value(), Some(0.20));
    }

    #[test]
    fn mean_epoch_duration_from_span() {
        let c = sample();
        let d = c.mean_epoch_duration().unwrap();
        assert!((d.as_secs() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn mean_epoch_duration_single_point() {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        c.push(2, SimTime::from_secs(100.0), 0.2);
        let d = c.mean_epoch_duration().unwrap();
        assert!((d.as_secs() - 50.0).abs() < 1e-9);
        assert!(LearningCurve::new(MetricKind::Accuracy).mean_epoch_duration().is_none());
    }

    #[test]
    fn trailing_mean_windows() {
        let c = sample();
        let m2 = c.trailing_mean(2).unwrap();
        assert!((m2 - 0.35).abs() < 1e-12);
        let all = c.trailing_mean(100).unwrap();
        assert!((all - 0.275).abs() < 1e-12);
        assert!(c.trailing_mean(0).is_none());
    }

    #[test]
    fn prefix_cuts_at_epoch() {
        let c = sample();
        let p = c.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.last_epoch(), Some(2));
        assert_eq!(c.prefix(0).len(), 0);
        assert_eq!(c.prefix(100).len(), 4);
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn non_increasing_epochs_panic() {
        let mut c = sample();
        c.push(4, SimTime::from_secs(999.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_values_panic() {
        let mut c = LearningCurve::new(MetricKind::Reward);
        c.push(1, SimTime::ZERO, f64::NAN);
    }

    #[test]
    fn from_points_validates_order() {
        let pts = vec![
            CurvePoint { epoch: 1, time: SimTime::from_secs(1.0), value: 0.1 },
            CurvePoint { epoch: 3, time: SimTime::from_secs(3.0), value: 0.2 },
        ];
        let c = LearningCurve::from_points(MetricKind::Accuracy, pts);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn truncate_to_epoch_rolls_back_and_allows_rerecording() {
        let mut c = sample();
        let before = c.len();
        c.truncate_to_epoch(2);
        assert!(c.len() < before);
        assert_eq!(c.last_epoch(), Some(2));
        // Re-running the lost epoch records cleanly.
        c.push(3, SimTime::from_secs(500.0), 0.9);
        assert_eq!(c.last_epoch(), Some(3));
        c.truncate_to_epoch(0);
        assert!(c.is_empty());
    }
}
