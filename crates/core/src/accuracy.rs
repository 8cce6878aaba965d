//! Prediction-accuracy measurement (paper Section 6.1).
//!
//! Accuracy compares, per domain per epoch, the number of instructions a
//! design *predicted* would commit at the chosen frequency against the
//! number that *actually* committed. It is power-model-agnostic: it scores
//! only the prediction mechanism.

/// Accuracy of one prediction: `1 - |pred - actual| / actual`, clamped to
/// `[0, 1]`. Epochs with no actual work are not scored.
pub fn prediction_accuracy(predicted: f64, actual: f64) -> Option<f64> {
    if actual <= 0.0 {
        return None;
    }
    Some((1.0 - (predicted - actual).abs() / actual).clamp(0.0, 1.0))
}

/// Streaming mean of per-epoch, per-domain prediction accuracies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccuracyMeter {
    sum: f64,
    count: u64,
}

impl AccuracyMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (predicted, actual) observation; no-op when the epoch
    /// did no work.
    pub fn observe(&mut self, predicted: f64, actual: f64) {
        if let Some(a) = prediction_accuracy(predicted, actual) {
            self.sum += a;
            self.count += 1;
        }
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &AccuracyMeter) {
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Mean accuracy in `[0, 1]`; `NaN` when nothing was observed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of scored observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        assert_eq!(prediction_accuracy(100.0, 100.0), Some(1.0));
    }

    #[test]
    fn relative_error_scoring() {
        assert!((prediction_accuracy(80.0, 100.0).unwrap() - 0.8).abs() < 1e-12);
        assert!((prediction_accuracy(120.0, 100.0).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn wildly_wrong_clamps_at_zero() {
        assert_eq!(prediction_accuracy(1000.0, 100.0), Some(0.0));
    }

    #[test]
    fn idle_epochs_not_scored() {
        assert_eq!(prediction_accuracy(50.0, 0.0), None);
        let mut m = AccuracyMeter::new();
        m.observe(50.0, 0.0);
        assert_eq!(m.count(), 0);
        assert!(m.mean().is_nan());
    }

    #[test]
    fn meter_averages_and_merges() {
        let mut a = AccuracyMeter::new();
        a.observe(100.0, 100.0); // 1.0
        a.observe(50.0, 100.0); // 0.5
        assert!((a.mean() - 0.75).abs() < 1e-12);
        let mut b = AccuracyMeter::new();
        b.observe(100.0, 100.0); // 1.0
        a.merge(&b);
        assert!((a.mean() - (2.5 / 3.0)).abs() < 1e-12);
        assert_eq!(a.count(), 3);
    }
}
