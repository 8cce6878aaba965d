//! The property-oracle catalogue: differential invariants every scenario
//! must satisfy, whatever its instruction mix.
//!
//! These are the checks the fuzzer drives — each takes an arbitrary
//! [`App`] and decides, by running the simulator against itself in two
//! configurations that must agree, whether the stack's core guarantees
//! hold for that workload:
//!
//! 1. **Oracle energy monotonicity** — sampling the full V/f grid from one
//!    warmed-up state, per-epoch energy must rise with frequency: static
//!    power grows as `V²f` and committed work never decreases with clock
//!    speed, so a decreasing segment beyond tolerance means the oracle or
//!    the power model is broken.
//! 2. **Energy-accounting conservation** — a run split by a snapshot
//!    save/restore must produce the same per-epoch telemetry and the same
//!    per-epoch energies, *bit for bit*, as the uninterrupted run.
//! 3. **Snapshot round trip** — `save → load → save` must reproduce the
//!    byte string, and both simulators must then step identically.
//!
//! Violations are typed ([`PropertyViolation`]) and carry the scenario
//! name plus the disagreeing values, so a fuzz failure is actionable
//! without re-running anything.

use dvfs::states::FreqStates;
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::kernel::App;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Femtos;
use power::model::{PowerConfig, PowerModel};
use std::fmt;

/// Shared configuration for one scenario's property run.
#[derive(Debug, Clone)]
pub struct PropertyConfig {
    /// Simulated GPU (tiny by default: properties are about agreement, not
    /// scale).
    pub gpu: GpuConfig,
    /// V/f grid for the monotonicity check.
    pub states: FreqStates,
    /// Power model scaled to the GPU's CU count.
    pub power: PowerConfig,
    /// Epoch duration for every check.
    pub epoch: Femtos,
    /// Epochs run before sampling the V/f grid (past the launch ramp).
    pub warmup_epochs: u32,
    /// Total epochs in the split run.
    pub run_epochs: u32,
    /// Epoch index at which the conservation run snapshots and restores.
    pub split_at: u32,
    /// Allowed relative dip between *adjacent* states before monotonicity
    /// counts as violated (absorbs contention noise on tiny epochs); the
    /// grid endpoints must still be strictly ordered.
    pub adjacent_tolerance: f64,
}

impl Default for PropertyConfig {
    fn default() -> Self {
        let gpu = GpuConfig::tiny();
        PropertyConfig {
            power: PowerConfig::scaled_to(gpu.n_cus),
            gpu,
            states: FreqStates::paper(),
            epoch: Femtos::from_micros(1),
            warmup_epochs: 2,
            run_epochs: 6,
            split_at: 3,
            adjacent_tolerance: 0.05,
        }
    }
}

/// One failed invariant, carrying enough context to act on.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyViolation {
    /// Per-epoch energy fell with rising frequency beyond tolerance, or
    /// the grid endpoints were not strictly ordered.
    Monotonicity {
        /// Scenario (app) name.
        scenario: String,
        /// Lower frequency of the offending pair, MHz.
        lo_mhz: u32,
        /// Higher frequency of the offending pair, MHz.
        hi_mhz: u32,
        /// Epoch energy at the lower frequency, joules.
        lo_energy_j: f64,
        /// Epoch energy at the higher frequency, joules.
        hi_energy_j: f64,
    },
    /// The split run's telemetry or energy diverged from the
    /// uninterrupted run.
    Conservation {
        /// Scenario (app) name.
        scenario: String,
        /// First epoch (0-based) at which the runs disagree.
        epoch: u32,
        /// What disagreed (telemetry or energy bits).
        detail: String,
    },
    /// `save → load → save` failed, or the restored simulator diverged on
    /// the next epoch.
    SnapshotRoundtrip {
        /// Scenario (app) name.
        scenario: String,
        /// What went wrong.
        detail: String,
    },
}

impl PropertyViolation {
    /// The scenario (app) name the violation occurred in.
    pub fn scenario(&self) -> &str {
        match self {
            PropertyViolation::Monotonicity { scenario, .. }
            | PropertyViolation::Conservation { scenario, .. }
            | PropertyViolation::SnapshotRoundtrip { scenario, .. } => scenario,
        }
    }

    /// Short property name for reporting (`monotonicity`, …).
    pub fn property(&self) -> &'static str {
        match self {
            PropertyViolation::Monotonicity { .. } => "monotonicity",
            PropertyViolation::Conservation { .. } => "conservation",
            PropertyViolation::SnapshotRoundtrip { .. } => "snapshot-roundtrip",
        }
    }
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyViolation::Monotonicity {
                scenario,
                lo_mhz,
                hi_mhz,
                lo_energy_j,
                hi_energy_j,
            } => {
                write!(
                    f,
                    "{scenario}: epoch energy fell with frequency: {lo_energy_j:.6e} J @ {lo_mhz} MHz vs {hi_energy_j:.6e} J @ {hi_mhz} MHz"
                )
            }
            PropertyViolation::Conservation { scenario, epoch, detail } => {
                write!(f, "{scenario}: split run diverged at epoch {epoch}: {detail}")
            }
            PropertyViolation::SnapshotRoundtrip { scenario, detail } => {
                write!(f, "{scenario}: snapshot roundtrip failed: {detail}")
            }
        }
    }
}

/// Epoch energy under the configured power model: every CU at its recorded
/// frequency plus the uncore at its recorded DRAM traffic (the same
/// integration as `EnergyAccount::add_epoch`).
fn epoch_energy_j(model: &PowerModel, stats: &EpochStats) -> f64 {
    let cu: f64 =
        stats.cus.iter().map(|c| model.cu_energy_j(c.freq, c.committed, stats.duration)).sum();
    cu + model.uncore_energy_j(stats.mem.dram_bytes, stats.duration)
}

/// Property 1: per-epoch energy across the uniform V/f grid is monotone
/// (within `adjacent_tolerance` per step, strict across the endpoints).
pub fn check_monotonicity(app: &App, cfg: &PropertyConfig) -> Vec<PropertyViolation> {
    let model = PowerModel::new(cfg.power);
    let mut gpu = Gpu::new(cfg.gpu, app.clone());
    for _ in 0..cfg.warmup_epochs {
        gpu.run_epoch(cfg.epoch);
    }
    if gpu.is_done() {
        // Nothing left to sample; the property is vacuous for this
        // scenario (tiny apps can finish inside warmup).
        return Vec::new();
    }
    let samples = pcstall::oracle::sample_uniform(&gpu, cfg.epoch, &cfg.states);
    let energies: Vec<f64> = samples.iter().map(|s| epoch_energy_j(&model, s)).collect();
    let mut out = Vec::new();
    let grid = cfg.states.as_slice();
    for w in 0..energies.len().saturating_sub(1) {
        let (lo, hi) = (energies[w], energies[w + 1]);
        if hi < lo * (1.0 - cfg.adjacent_tolerance) {
            out.push(PropertyViolation::Monotonicity {
                scenario: app.name.clone(),
                lo_mhz: grid[w].mhz(),
                hi_mhz: grid[w + 1].mhz(),
                lo_energy_j: lo,
                hi_energy_j: hi,
            });
        }
    }
    if let (Some(&first), Some(&last)) = (energies.first(), energies.last()) {
        if last <= first {
            out.push(PropertyViolation::Monotonicity {
                scenario: app.name.clone(),
                lo_mhz: cfg.states.min().mhz(),
                hi_mhz: cfg.states.max().mhz(),
                lo_energy_j: first,
                hi_energy_j: last,
            });
        }
    }
    out
}

/// Property 2: a run interrupted by snapshot save/restore at `split_at`
/// conserves all telemetry and energy, bit for bit.
pub fn check_conservation(app: &App, cfg: &PropertyConfig) -> Vec<PropertyViolation> {
    let model = PowerModel::new(cfg.power);
    let mut straight = Gpu::new(cfg.gpu, app.clone());
    let mut split = Gpu::new(cfg.gpu, app.clone());
    let mut out = Vec::new();
    for epoch in 0..cfg.run_epochs {
        if epoch == cfg.split_at {
            let bytes = split.save_snapshot();
            split = match Gpu::load_snapshot(&bytes) {
                Ok(g) => g,
                Err(e) => {
                    out.push(PropertyViolation::Conservation {
                        scenario: app.name.clone(),
                        epoch,
                        detail: format!("mid-run snapshot failed to load: {e}"),
                    });
                    return out;
                }
            };
        }
        let a = straight.run_epoch(cfg.epoch);
        let b = split.run_epoch(cfg.epoch);
        if a != b {
            out.push(PropertyViolation::Conservation {
                scenario: app.name.clone(),
                epoch,
                detail: "epoch telemetry differs between straight and split runs".into(),
            });
            return out;
        }
        let (ea, eb) = (epoch_energy_j(&model, &a), epoch_energy_j(&model, &b));
        if ea.to_bits() != eb.to_bits() {
            out.push(PropertyViolation::Conservation {
                scenario: app.name.clone(),
                epoch,
                detail: format!("epoch energy bits differ: {ea:.17e} vs {eb:.17e}"),
            });
            return out;
        }
    }
    out
}

/// Property 3: `save → load → save` is byte-identical and the restored
/// simulator steps in lockstep with the original.
pub fn check_snapshot_roundtrip(app: &App, cfg: &PropertyConfig) -> Vec<PropertyViolation> {
    let mut gpu = Gpu::new(cfg.gpu, app.clone());
    for _ in 0..cfg.split_at {
        gpu.run_epoch(cfg.epoch);
    }
    let bytes = gpu.save_snapshot();
    let mut restored = match Gpu::load_snapshot(&bytes) {
        Ok(g) => g,
        Err(e) => {
            return vec![PropertyViolation::SnapshotRoundtrip {
                scenario: app.name.clone(),
                detail: format!("load failed: {e}"),
            }];
        }
    };
    if restored.save_snapshot() != bytes {
        return vec![PropertyViolation::SnapshotRoundtrip {
            scenario: app.name.clone(),
            detail: "save → load → save is not byte-identical".into(),
        }];
    }
    let a = gpu.run_epoch(cfg.epoch);
    let b = restored.run_epoch(cfg.epoch);
    if a != b {
        return vec![PropertyViolation::SnapshotRoundtrip {
            scenario: app.name.clone(),
            detail: "restored simulator diverged on the next epoch".into(),
        }];
    }
    Vec::new()
}

/// Runs the full catalogue against one scenario, concatenating every
/// violation (an empty vector is a pass).
pub fn check_all(app: &App, cfg: &PropertyConfig) -> Vec<PropertyViolation> {
    let mut out = check_monotonicity(app, cfg);
    out.extend(check_conservation(app, cfg));
    out.extend(check_snapshot_roundtrip(app, cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz;

    #[test]
    fn catalogue_passes_on_a_fuzzed_scenario() {
        let app = fuzz::generate(0x00D1CE, 0);
        let violations = check_all(&app, &PropertyConfig::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn violations_report_scenario_and_property() {
        let v = PropertyViolation::Monotonicity {
            scenario: "s".into(),
            lo_mhz: 1300,
            hi_mhz: 1400,
            lo_energy_j: 2.0,
            hi_energy_j: 1.0,
        };
        assert_eq!(v.scenario(), "s");
        assert_eq!(v.property(), "monotonicity");
        assert!(v.to_string().contains("1300"));
    }
}
