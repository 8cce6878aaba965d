//! The frequency-sensitivity metric (paper Section 3.2).
//!
//! Work done in a fixed-time epoch is measured as instructions committed;
//! over the paper's 1.3–2.2 GHz range the committed count is near-linear in
//! frequency (R² ≈ 0.82 in the paper), so each epoch is characterized by
//!
//! ```text
//! I(f) = I0 + S * f,        S = ΔInstructions / ΔFrequency
//! ```
//!
//! `S` is the *sensitivity*: high for compute-bound phases, near zero for
//! memory-bound phases. Sensitivity is commutative — a domain's sensitivity
//! is the sum of its CUs', and a CU's the sum of its wavefronts' — which is
//! what makes wavefront-level prediction aggregate soundly (Section 4.2).

use gpu_sim::time::Frequency;
use std::iter::Sum;
use std::ops::Add;

/// The linear epoch-performance model `I(f) = i0 + s * f_mhz`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinearModel {
    /// Frequency-independent instruction count (memory-bound work).
    pub i0: f64,
    /// Sensitivity: instructions per MHz.
    pub s: f64,
}

impl LinearModel {
    /// The all-zero model (an idle wavefront or CU).
    pub const ZERO: LinearModel = LinearModel { i0: 0.0, s: 0.0 };

    /// Builds the line through two (frequency, instructions) points.
    /// If the frequencies coincide the model is flat at `i1`.
    pub fn from_points(f1: Frequency, i1: f64, f2: Frequency, i2: f64) -> Self {
        let df = f2.mhz() as f64 - f1.mhz() as f64;
        if df.abs() < f64::EPSILON {
            return LinearModel { i0: i1, s: 0.0 };
        }
        let s = (i2 - i1) / df;
        LinearModel { i0: i1 - s * f1.mhz() as f64, s }
    }

    /// Predicted instructions at `f` (clamped at zero).
    pub fn predict(&self, f: Frequency) -> f64 {
        (self.i0 + self.s * f.mhz() as f64).max(0.0)
    }

    /// Scales the model by a constant factor.
    pub fn scaled(self, k: f64) -> Self {
        LinearModel { i0: self.i0 * k, s: self.s * k }
    }
}

/// Linear models ride in per-tenant predictor snapshots (the policy
/// server's eviction/restore path) — encoding is the bit-exact f64 pair.
impl snapshot::Snapshot for LinearModel {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let LinearModel { i0, s } = *self;
        w.put_f64(i0);
        w.put_f64(s);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(LinearModel { i0: r.take_f64()?, s: r.take_f64()? })
    }
}

impl Add for LinearModel {
    type Output = LinearModel;
    fn add(self, rhs: LinearModel) -> LinearModel {
        LinearModel { i0: self.i0 + rhs.i0, s: self.s + rhs.s }
    }
}

impl Sum for LinearModel {
    fn sum<I: Iterator<Item = LinearModel>>(iter: I) -> LinearModel {
        iter.fold(LinearModel::ZERO, |a, b| a + b)
    }
}

/// Ordinary least-squares line fit over `(f_mhz, instructions)` points.
/// Returns the fitted model and the coefficient of determination R².
///
/// R² is reported as 1.0 for degenerate inputs (fewer than two distinct
/// x-values or zero variance in y), matching "perfectly explained".
pub fn fit_line(points: &[(f64, f64)]) -> (LinearModel, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        let i0 = points.first().map(|&(_, y)| y).unwrap_or(0.0);
        return (LinearModel { i0, s: 0.0 }, 1.0);
    }
    let mean_x = points.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|&(x, _)| (x - mean_x) * (x - mean_x)).sum();
    let sxy: f64 = points.iter().map(|&(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let syy: f64 = points.iter().map(|&(_, y)| (y - mean_y) * (y - mean_y)).sum();
    if sxx < f64::EPSILON {
        return (LinearModel { i0: mean_y, s: 0.0 }, 1.0);
    }
    let s = sxy / sxx;
    let i0 = mean_y - s * mean_x;
    let r2 = if syy < f64::EPSILON { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    (LinearModel { i0, s }, r2)
}

/// The interval-style frequency-response model the CPU-derived estimators
/// produce (Section 2.3): the elapsed epoch at `f_obs` committed `i_obs`
/// instructions and spent a fraction `async_frac` of its time in
/// frequency-independent (memory) work.
///
/// The classic time-dilation identity `T(f) = T_async + T_core * f_obs/f`
/// then predicts the instruction *rate* at any other frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqResponse {
    /// Instructions committed in the elapsed epoch.
    pub i_obs: f64,
    /// Frequency the epoch ran at.
    pub f_obs: Frequency,
    /// Estimated asynchronous (frequency-independent) time fraction ∈ [0,1].
    pub async_frac: f64,
}

impl FreqResponse {
    /// A response that predicts no work at any frequency.
    pub fn zero(f_obs: Frequency) -> Self {
        FreqResponse { i_obs: 0.0, f_obs, async_frac: 1.0 }
    }

    /// Predicted instructions for an equal-length epoch at `f`.
    pub fn predict(&self, f: Frequency) -> f64 {
        let a = self.async_frac.clamp(0.0, 1.0);
        let core = 1.0 - a;
        let dilation = a + core * self.f_obs.mhz() as f64 / f.mhz() as f64;
        if dilation <= 0.0 {
            return 0.0;
        }
        (self.i_obs / dilation).max(0.0)
    }

    /// Linearizes the response over `[f_lo, f_hi]` into the paper's
    /// `I0 + S*f` form (what the PC table stores).
    pub fn linearize(&self, f_lo: Frequency, f_hi: Frequency) -> LinearModel {
        LinearModel::from_points(f_lo, self.predict(f_lo), f_hi, self.predict(f_hi))
    }
}

/// Average relative change between consecutive values of a series — the
/// paper's epoch-to-epoch variability metric (Figure 7). Changes are
/// normalized by the pairwise mean; empty/singleton series give 0.
pub fn avg_relative_change(series: &[f64]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for w in series.windows(2) {
        let denom = (w[0].abs() + w[1].abs()) / 2.0;
        if denom > 1e-12 {
            total += (w[1] - w[0]).abs() / denom;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(mhz: u32) -> Frequency {
        Frequency::from_mhz(mhz)
    }

    #[test]
    fn linear_model_through_points() {
        let m = LinearModel::from_points(f(1300), 1300.0, f(2200), 2200.0);
        assert!((m.s - 1.0).abs() < 1e-9);
        assert!(m.i0.abs() < 1e-6);
        assert!((m.predict(f(1700)) - 1700.0).abs() < 1e-6);
    }

    #[test]
    fn linear_model_clamps_negative() {
        let m = LinearModel { i0: -5000.0, s: 1.0 };
        assert_eq!(m.predict(f(1300)), 0.0);
    }

    #[test]
    fn models_are_commutative_under_sum() {
        let a = LinearModel { i0: 10.0, s: 0.5 };
        let b = LinearModel { i0: 20.0, s: 0.1 };
        let sum = a + b;
        let fq = f(1800);
        assert!((sum.predict(fq) - (a.predict(fq) + b.predict(fq))).abs() < 1e-9);
        let total: LinearModel = [a, b, LinearModel::ZERO].into_iter().sum();
        assert_eq!(total, sum);
    }

    #[test]
    fn fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> =
            (13..=22).map(|x| (x as f64 * 100.0, 40.0 + 0.75 * x as f64 * 100.0)).collect();
        let (m, r2) = fit_line(&pts);
        assert!((m.s - 0.75).abs() < 1e-9);
        assert!((m.i0 - 40.0).abs() < 1e-6);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_r2_penalizes_noise() {
        let pts = [(1300.0, 100.0), (1600.0, 900.0), (1900.0, 150.0), (2200.0, 1000.0)];
        let (_, r2) = fit_line(&pts);
        assert!(r2 < 0.9);
        assert!(r2 > 0.0);
    }

    #[test]
    fn fit_degenerate_inputs() {
        assert_eq!(fit_line(&[]).0, LinearModel::ZERO);
        let (m, r2) = fit_line(&[(1700.0, 55.0)]);
        assert_eq!(m.i0, 55.0);
        assert_eq!(r2, 1.0);
        let (m, _) = fit_line(&[(1700.0, 10.0), (1700.0, 20.0)]);
        assert_eq!(m.s, 0.0);
    }

    #[test]
    fn freq_response_pure_compute_scales_linearly() {
        let r = FreqResponse { i_obs: 1700.0, f_obs: f(1700), async_frac: 0.0 };
        assert!((r.predict(f(2200)) - 2200.0).abs() < 1e-6);
        assert!((r.predict(f(1300)) - 1300.0).abs() < 1e-6);
    }

    #[test]
    fn freq_response_pure_memory_is_flat() {
        let r = FreqResponse { i_obs: 500.0, f_obs: f(1700), async_frac: 1.0 };
        assert_eq!(r.predict(f(2200)), 500.0);
        assert_eq!(r.predict(f(1300)), 500.0);
    }

    #[test]
    fn freq_response_linearization_brackets() {
        let r = FreqResponse { i_obs: 1000.0, f_obs: f(1700), async_frac: 0.4 };
        let m = r.linearize(f(1300), f(2200));
        assert!((m.predict(f(1300)) - r.predict(f(1300))).abs() < 1e-6);
        assert!((m.predict(f(2200)) - r.predict(f(2200))).abs() < 1e-6);
        assert!(m.s > 0.0);
    }

    #[test]
    fn zero_response() {
        let r = FreqResponse::zero(f(1700));
        assert_eq!(r.predict(f(2200)), 0.0);
    }

    #[test]
    fn relative_change_metric() {
        assert_eq!(avg_relative_change(&[]), 0.0);
        assert_eq!(avg_relative_change(&[5.0]), 0.0);
        assert_eq!(avg_relative_change(&[5.0, 5.0, 5.0]), 0.0);
        // 10 -> 30: |20| / 20 = 1.0
        assert!((avg_relative_change(&[10.0, 30.0]) - 1.0).abs() < 1e-12);
        assert_eq!(avg_relative_change(&[0.0, 0.0]), 0.0);
    }
}
