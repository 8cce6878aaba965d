//! The GPU power model: per-CU dynamic + leakage power behind an IVR, plus
//! the fixed-frequency uncore (L2, fabric, DRAM).
//!
//! Substitutes the paper's in-house, hardware-validated model with a
//! first-order analytic model: per-CU dynamic power is *energy per
//! instruction* scaled by V² (`P_dyn = EPI₀ · (V/V₀)² · IPS`) — the
//! switched capacitance per operation (datapath, register file, L1 data
//! movement) is work-proportional, not time-proportional — plus a
//! clock-tree `C·V²·f` term and voltage-proportional leakage. Constants
//! are calibrated so a saturated 64-CU GPU at 2.2 GHz lands in a
//! Radeon VII-class ~300 W envelope.

use crate::vf::{IvrModel, VfCurve};
use gpu_sim::time::{Femtos, Frequency};

/// Parameters of the power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// The V(f) operating curve.
    pub vf: VfCurve,
    /// IVR conversion-efficiency model.
    pub ivr: IvrModel,
    /// Dynamic energy per committed instruction at `v0`, joules.
    pub epi_j: f64,
    /// Reference voltage for `epi_j`.
    pub v0: f64,
    /// Clock-tree/sequencing capacitance per CU, farads (`C·V²·f`).
    pub tree_c_f: f64,
    /// Per-CU leakage coefficient: `P_leak = leak_w_per_v · V` watts.
    pub leak_w_per_v: f64,
    /// Constant uncore power (L2 + fabric + DRAM background), watts.
    pub uncore_base_w: f64,
    /// Uncore power per GB/s of DRAM traffic, watts.
    pub uncore_w_per_gbps: f64,
}

impl PowerConfig {
    /// Scales the chip-level (uncore) constants to a GPU with `n_cus`
    /// compute units; the defaults describe the 64-CU evaluation platform.
    /// Use this for reduced-scale simulations so the CU/uncore power split
    /// stays representative.
    pub fn scaled_to(n_cus: usize) -> Self {
        let mut cfg = PowerConfig::default();
        let k = n_cus as f64 / 64.0;
        cfg.uncore_base_w *= k;
        cfg
    }
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            vf: VfCurve::default(),
            ivr: IvrModel::default(),
            epi_j: 0.32e-9,
            v0: 1.0,
            tree_c_f: 0.15e-9,
            leak_w_per_v: 0.42,
            uncore_base_w: 40.0,
            uncore_w_per_gbps: 0.04,
        }
    }
}

/// The power model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerModel {
    cfg: PowerConfig,
}

impl PowerModel {
    /// Creates a model from explicit parameters.
    pub fn new(cfg: PowerConfig) -> Self {
        PowerModel { cfg }
    }

    /// The parameters in effect.
    pub fn config(&self) -> &PowerConfig {
        &self.cfg
    }

    /// Supply voltage at `freq`.
    pub fn voltage(&self, freq: Frequency) -> f64 {
        self.cfg.vf.voltage(freq)
    }

    /// Power drawn *at the IVR input* by one CU running at `freq` and
    /// committing `ips` instructions per second.
    pub fn cu_power_w(&self, freq: Frequency, ips: f64) -> f64 {
        let v = self.voltage(freq);
        let v_ratio = v / self.cfg.v0;
        let dynamic = self.cfg.epi_j * v_ratio * v_ratio * ips.max(0.0);
        let tree = self.cfg.tree_c_f * v * v * freq.hz();
        let leak = self.cfg.leak_w_per_v * v;
        (dynamic + tree + leak) / self.cfg.ivr.efficiency(v)
    }

    /// Energy consumed by one CU over `duration` at `freq`, having
    /// committed `committed` instructions.
    pub fn cu_energy_j(&self, freq: Frequency, committed: u64, duration: Femtos) -> f64 {
        let secs = duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.cu_power_w(freq, committed as f64 / secs) * secs
    }

    /// Uncore power at a given DRAM bandwidth (GB/s).
    pub fn uncore_power_w(&self, dram_gbps: f64) -> f64 {
        self.cfg.uncore_base_w + self.cfg.uncore_w_per_gbps * dram_gbps.max(0.0)
    }

    /// Uncore energy over `duration` given `dram_bytes` transferred.
    pub fn uncore_energy_j(&self, dram_bytes: u64, duration: Femtos) -> f64 {
        let secs = duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let gbps = dram_bytes as f64 / secs / 1e9;
        self.uncore_power_w(gbps) * secs
    }

    /// The per-CU share of uncore base power for `n_cus` — used by local
    /// per-domain DVFS decisions so that slowing down still carries an
    /// energy cost for the rest of the chip.
    pub fn uncore_share_w(&self, n_cus: usize) -> f64 {
        self.cfg.uncore_base_w / n_cus.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq(mhz: u32) -> Frequency {
        Frequency::from_mhz(mhz)
    }

    /// Saturated 4-wide CU instruction rate at `mhz`.
    fn sat_ips(mhz: u32) -> f64 {
        mhz as f64 * 1e6 * 4.0
    }

    #[test]
    fn power_superlinear_with_frequency_at_saturation() {
        let m = PowerModel::default();
        let p_lo = m.cu_power_w(freq(1300), sat_ips(1300));
        let p_hi = m.cu_power_w(freq(2200), sat_ips(2200));
        let f_ratio = 2200.0 / 1300.0;
        assert!(
            p_hi / p_lo > f_ratio * 1.2,
            "expected superlinear growth (V^2 f): {} vs {}",
            p_hi / p_lo,
            f_ratio
        );
    }

    #[test]
    fn power_monotone_in_instruction_rate() {
        let m = PowerModel::default();
        let f = freq(1700);
        assert!(m.cu_power_w(f, 6e9) > m.cu_power_w(f, 3e9));
        assert!(m.cu_power_w(f, 3e9) > m.cu_power_w(f, 0.0));
    }

    #[test]
    fn idle_cu_still_burns_leakage_and_clock() {
        let m = PowerModel::default();
        assert!(m.cu_power_w(freq(1300), 0.0) > 0.3);
    }

    #[test]
    fn memory_bound_cu_saves_power_by_downclocking() {
        // Same instruction rate (memory-bound work is frequency
        // independent): the lower V/f state must cost meaningfully less.
        let m = PowerModel::default();
        let ips = 2e9;
        let hi = m.cu_power_w(freq(2200), ips);
        let lo = m.cu_power_w(freq(1300), ips);
        assert!(lo < 0.75 * hi, "downclocking should save >25%: {lo} vs {hi}");
    }

    #[test]
    fn full_gpu_envelope_is_plausible() {
        let m = PowerModel::default();
        let total = 64.0 * m.cu_power_w(freq(2200), sat_ips(2200)) + m.uncore_power_w(512.0);
        assert!(
            (200.0..420.0).contains(&total),
            "64-CU GPU at 2.2GHz should be a few hundred watts, got {total}"
        );
    }

    #[test]
    fn energy_proportional_to_work() {
        let m = PowerModel::default();
        // Twice the time at the same rate (twice the work) = twice the
        // energy.
        let e1 = m.cu_energy_j(freq(1700), 3000, Femtos::from_micros(1));
        let e2 = m.cu_energy_j(freq(1700), 6000, Femtos::from_micros(2));
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        assert_eq!(m.cu_energy_j(freq(1700), 100, Femtos::ZERO), 0.0);
    }

    #[test]
    fn uncore_energy_tracks_bandwidth() {
        let m = PowerModel::default();
        let d = Femtos::from_micros(1);
        let quiet = m.uncore_energy_j(0, d);
        let busy = m.uncore_energy_j(512_000, d); // 512 GB/s
        assert!(busy > quiet);
        assert_eq!(m.uncore_energy_j(1000, Femtos::ZERO), 0.0);
    }

    #[test]
    fn uncore_share_divides_base() {
        let m = PowerModel::default();
        let share = m.uncore_share_w(64);
        assert!((share - m.config().uncore_base_w / 64.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_config_shrinks_uncore_only() {
        let full = PowerConfig::default();
        let small = PowerConfig::scaled_to(16);
        assert!((small.uncore_base_w - full.uncore_base_w / 4.0).abs() < 1e-12);
        assert_eq!(small.epi_j, full.epi_j);
    }

    #[test]
    fn negative_rate_clamped() {
        let m = PowerModel::default();
        assert_eq!(m.cu_power_w(freq(1700), -5.0), m.cu_power_w(freq(1700), 0.0));
    }
}
