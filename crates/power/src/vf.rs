//! Voltage–frequency curve for the fine-grain V/f domains.

use gpu_sim::time::Frequency;

/// A linear V(f) operating curve over the DVFS range.
///
/// The paper's domains span 1.3–2.2 GHz; over such a narrow range a linear
/// voltage–frequency relationship is an excellent fit to published
/// Vega-class V/f tables. Frequencies outside the range clamp.
///
/// # Examples
///
/// ```
/// use power::vf::VfCurve;
/// use gpu_sim::time::Frequency;
/// let c = VfCurve::default();
/// assert!((c.voltage(Frequency::from_mhz(1300)) - 0.75).abs() < 1e-12);
/// assert!((c.voltage(Frequency::from_mhz(2200)) - 1.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfCurve {
    /// Lowest supported frequency (MHz).
    pub f_min_mhz: u32,
    /// Highest supported frequency (MHz).
    pub f_max_mhz: u32,
    /// Voltage at `f_min_mhz` (V).
    pub v_min: f64,
    /// Voltage at `f_max_mhz` (V).
    pub v_max: f64,
}

impl Default for VfCurve {
    /// 0.75 V @ 1.3 GHz → 1.05 V @ 2.2 GHz.
    fn default() -> Self {
        VfCurve { f_min_mhz: 1300, f_max_mhz: 2200, v_min: 0.75, v_max: 1.05 }
    }
}

impl VfCurve {
    /// Supply voltage required for `freq`, clamped to the curve's range.
    pub fn voltage(&self, freq: Frequency) -> f64 {
        let f = freq.mhz().clamp(self.f_min_mhz, self.f_max_mhz) as f64;
        let span = (self.f_max_mhz - self.f_min_mhz) as f64;
        if span <= 0.0 {
            return self.v_min;
        }
        self.v_min + (f - self.f_min_mhz as f64) / span * (self.v_max - self.v_min)
    }
}

/// Integrated-voltage-regulator conversion-efficiency model.
///
/// The paper's power model "accounts for the efficiency of IVRs at the
/// different voltage states"; published regulators fall into two regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IvrModel {
    /// Lossless conversion (upper bound; useful for ablation).
    Ideal,
    /// Switched-capacitor / buck regulator: high, mildly voltage-dependent
    /// efficiency `eta = eta0 + slope * (V - v_ref)`, clamped to (0, 1].
    Switched {
        /// Efficiency at `v_ref`.
        eta0: f64,
        /// Efficiency change per volt.
        slope: f64,
        /// Reference voltage for `eta0`.
        v_ref: f64,
    },
    /// Digital LDO: efficiency is essentially `V_out / V_in`.
    Ldo {
        /// Regulator input voltage.
        vin: f64,
    },
}

impl Default for IvrModel {
    /// A switched regulator: 88% at 0.75 V rising to ~96% at 1.05 V.
    fn default() -> Self {
        IvrModel::Switched { eta0: 0.88, slope: 0.2667, v_ref: 0.75 }
    }
}

impl IvrModel {
    /// Conversion efficiency at output voltage `v`, in (0, 1].
    pub fn efficiency(&self, v: f64) -> f64 {
        match *self {
            IvrModel::Ideal => 1.0,
            IvrModel::Switched { eta0, slope, v_ref } => {
                (eta0 + slope * (v - v_ref)).clamp(0.05, 1.0)
            }
            IvrModel::Ldo { vin } => (v / vin).clamp(0.05, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_is_monotone_in_frequency() {
        let c = VfCurve::default();
        let mut prev = 0.0;
        for mhz in (1300..=2200).step_by(100) {
            let v = c.voltage(Frequency::from_mhz(mhz));
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn voltage_clamps_outside_range() {
        let c = VfCurve::default();
        assert_eq!(c.voltage(Frequency::from_mhz(800)), c.v_min);
        assert_eq!(c.voltage(Frequency::from_mhz(3000)), c.v_max);
    }

    #[test]
    fn ivr_models_ordering() {
        let v = 0.9;
        let ideal = IvrModel::Ideal.efficiency(v);
        let sw = IvrModel::default().efficiency(v);
        let ldo = IvrModel::Ldo { vin: 1.15 }.efficiency(v);
        assert_eq!(ideal, 1.0);
        assert!(sw < ideal && sw > 0.85);
        assert!(ldo < sw, "LDO should be least efficient at low V");
    }

    #[test]
    fn ldo_efficiency_rises_with_voltage() {
        let ldo = IvrModel::Ldo { vin: 1.15 };
        assert!(ldo.efficiency(1.05) > ldo.efficiency(0.75));
    }

    #[test]
    fn efficiency_never_exceeds_one() {
        let ldo = IvrModel::Ldo { vin: 0.5 };
        assert_eq!(ldo.efficiency(1.0), 1.0);
    }
}
