//! Energy integration over a run and the ED^n P efficiency metrics.

use crate::model::PowerModel;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Femtos;

/// Accumulates energy over a run, epoch by epoch, and produces the final
/// efficiency metrics.
///
/// # Examples
///
/// ```
/// use power::energy::EnergyAccount;
/// use power::model::PowerModel;
/// let mut acct = EnergyAccount::new(PowerModel::default());
/// // ... acct.add_epoch(&stats) per epoch ...
/// let m = acct.finish(gpu_sim::time::Femtos::from_micros(10));
/// assert_eq!(m.delay_s, 1e-5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAccount {
    model: PowerModel,
    energy_j: f64,
    epochs: u64,
}

impl EnergyAccount {
    /// Creates an empty account using `model`.
    pub fn new(model: PowerModel) -> Self {
        EnergyAccount { model, energy_j: 0.0, epochs: 0 }
    }

    /// The power model in use.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Integrates one epoch's telemetry: every CU at its recorded frequency
    /// and activity, plus the uncore at its recorded DRAM traffic.
    pub fn add_epoch(&mut self, stats: &EpochStats) {
        let d = stats.duration;
        for cu in &stats.cus {
            self.energy_j += self.model.cu_energy_j(cu.freq, cu.committed, d);
        }
        self.energy_j += self.model.uncore_energy_j(stats.mem.dram_bytes, d);
        self.epochs += 1;
    }

    /// Adds an explicit energy amount (e.g. DVFS transition overhead).
    pub fn add_energy_j(&mut self, joules: f64) {
        self.energy_j += joules.max(0.0);
    }

    /// Total energy so far.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Number of epochs integrated.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Produces the final metrics given the application's completion time.
    pub fn finish(&self, delay: Femtos) -> RunMetrics {
        RunMetrics { energy_j: self.energy_j, delay_s: delay.as_secs_f64() }
    }
}

/// Final energy/delay metrics for one application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Total energy, joules.
    pub energy_j: f64,
    /// End-to-end execution time, seconds.
    pub delay_s: f64,
}

/// Run metrics ride in sweep resume journals; the floats are stored as
/// exact LE bit patterns, so a journal round trip is bit-identical.
impl snapshot::Snapshot for RunMetrics {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let RunMetrics { energy_j, delay_s } = *self;
        w.put_f64(energy_j);
        w.put_f64(delay_s);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(RunMetrics { energy_j: r.take_f64()?, delay_s: r.take_f64()? })
    }
}

impl RunMetrics {
    /// Energy–delay product (battery-oriented objective).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.delay_s
    }

    /// Energy–delay² product (server/performance-oriented objective).
    pub fn ed2p(&self) -> f64 {
        self.energy_j * self.delay_s * self.delay_s
    }

    /// General ED^n P.
    pub fn ednp(&self, n: i32) -> f64 {
        self.energy_j * self.delay_s.powi(n)
    }

    /// This run's ED²P relative to `baseline` (1.0 = equal, < 1.0 better).
    pub fn ed2p_vs(&self, baseline: &RunMetrics) -> f64 {
        self.ed2p() / baseline.ed2p()
    }

    /// This run's EDP relative to `baseline`.
    pub fn edp_vs(&self, baseline: &RunMetrics) -> f64 {
        self.edp() / baseline.edp()
    }

    /// Energy relative to `baseline`.
    pub fn energy_vs(&self, baseline: &RunMetrics) -> f64 {
        self.energy_j / baseline.energy_j
    }

    /// Performance loss relative to `baseline` (positive = slower).
    pub fn perf_loss_vs(&self, baseline: &RunMetrics) -> f64 {
        self.delay_s / baseline.delay_s - 1.0
    }
}

/// Geometric mean of a series of ratios (used for the paper's geomean
/// normalized EDP/ED²P plots). Returns `NaN` on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::mem::MemEpochStats;
    use gpu_sim::stats::CuEpochStats;
    use gpu_sim::time::Frequency;

    fn fake_epoch(freq_mhz: u32, busy_frac: f64, duration_us: u64) -> EpochStats {
        let duration = Femtos::from_micros(duration_us);
        let busy = Femtos((duration.as_fs() as f64 * busy_frac) as u64);
        EpochStats {
            start: Femtos::ZERO,
            duration,
            cus: vec![CuEpochStats {
                freq: Frequency::from_mhz(freq_mhz),
                issue_width: 1,
                committed: 1000,
                busy,
                mem_only: Femtos::ZERO,
                store_only: Femtos::ZERO,
                idle: Femtos::ZERO,
                store_stall: Femtos::ZERO,
                lead_time: Femtos::ZERO,
                l1_hits: 0,
                l1_misses: 0,
                active_wavefronts: 1,
                op_mix: Default::default(),
                wf: vec![],
            }],
            mem: MemEpochStats::default(),
            done: false,
        }
    }

    #[test]
    fn higher_frequency_epoch_costs_more_energy() {
        let mut lo = EnergyAccount::new(PowerModel::default());
        let mut hi = EnergyAccount::new(PowerModel::default());
        lo.add_epoch(&fake_epoch(1300, 0.8, 1));
        hi.add_epoch(&fake_epoch(2200, 0.8, 1));
        assert!(hi.energy_j() > lo.energy_j());
    }

    #[test]
    fn metrics_definitions() {
        let m = RunMetrics { energy_j: 2.0, delay_s: 3.0 };
        assert_eq!(m.edp(), 6.0);
        assert_eq!(m.ed2p(), 18.0);
        assert_eq!(m.ednp(1), m.edp());
        assert_eq!(m.ednp(2), m.ed2p());
    }

    #[test]
    fn normalization_against_baseline() {
        let base = RunMetrics { energy_j: 10.0, delay_s: 1.0 };
        let better = RunMetrics { energy_j: 8.0, delay_s: 1.0 };
        assert!(better.ed2p_vs(&base) < 1.0);
        assert!((better.energy_vs(&base) - 0.8).abs() < 1e-12);
        assert_eq!(better.perf_loss_vs(&base), 0.0);
        let slower = RunMetrics { energy_j: 10.0, delay_s: 1.1 };
        assert!((slower.perf_loss_vs(&base) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn transition_energy_added() {
        let mut a = EnergyAccount::new(PowerModel::default());
        a.add_energy_j(0.5);
        a.add_energy_j(-1.0); // ignored
        assert_eq!(a.energy_j(), 0.5);
    }
}
