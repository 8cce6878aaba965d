//! Hierarchical power management (paper Section 5.4).
//!
//! The paper's hardware DVFS controller operates *inside* a commercial
//! hierarchical power-management scheme: a higher-level policy sets power
//! objectives at millisecond scales, "which then impact the internal
//! frequency range used by the hardware DVFS controller". This module
//! implements that higher level: a chip-wide power-cap manager that
//! periodically compares average power against a budget and widens or
//! narrows the V/f state range the fine-grain controller may use.

use crate::states::FreqStates;
use gpu_sim::time::Femtos;

/// Configuration of the chip-level power-cap manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCapConfig {
    /// Average-power budget in watts.
    pub budget_w: f64,
    /// Management interval (the paper's "millisecond scales"; scaled to
    /// simulation lengths here).
    pub interval: Femtos,
    /// Minimum number of states that must remain available to the
    /// fine-grain controller.
    pub min_states: usize,
    /// Hysteresis: the range is widened again only when average power
    /// falls below `budget_w * widen_below`.
    pub widen_below: f64,
}

impl PowerCapConfig {
    /// A manager enforcing `budget_w` with a 50 µs interval.
    pub fn new(budget_w: f64) -> Self {
        PowerCapConfig {
            budget_w,
            interval: Femtos::from_micros(50),
            min_states: 3,
            widen_below: 0.92,
        }
    }
}

/// What the manager did at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapAction {
    /// No interval boundary crossed or no change needed.
    None,
    /// Over budget: the highest allowed state was lowered.
    Narrowed,
    /// Comfortably under budget: the range was widened.
    Widened,
}

/// The chip-level power-cap manager.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCapManager {
    cfg: PowerCapConfig,
    full: FreqStates,
    /// Index of the highest currently allowed state.
    hi: usize,
    window_energy_j: f64,
    window_time: Femtos,
    narrowings: u64,
    widenings: u64,
}

impl PowerCapManager {
    /// Creates a manager over the full state set, initially unconstrained.
    ///
    /// # Panics
    ///
    /// Panics if `min_states` exceeds the state count or is zero.
    pub fn new(cfg: PowerCapConfig, states: FreqStates) -> Self {
        assert!(cfg.min_states >= 1, "need at least one allowed state");
        assert!(cfg.min_states <= states.len(), "min_states exceeds state count");
        let hi = states.len() - 1;
        PowerCapManager {
            cfg,
            full: states,
            hi,
            window_energy_j: 0.0,
            window_time: Femtos::ZERO,
            narrowings: 0,
            widenings: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PowerCapConfig {
        &self.cfg
    }

    /// The state range the fine-grain controller may currently use: the
    /// configured set with everything above the ceiling removed. Every
    /// returned state is a member of the full set, so index lookups
    /// against either set stay valid under any (possibly non-uniform)
    /// state grid.
    pub fn allowed(&self) -> FreqStates {
        self.full.prefix(self.hi + 1)
    }

    /// Feeds one epoch's chip energy; at interval boundaries compares
    /// average power to the budget and adjusts the allowed range.
    pub fn record_epoch(&mut self, energy_j: f64, duration: Femtos) -> CapAction {
        self.window_energy_j += energy_j.max(0.0);
        self.window_time += duration;
        if self.window_time < self.cfg.interval {
            return CapAction::None;
        }
        let avg_w = self.window_energy_j / self.window_time.as_secs_f64();
        self.window_energy_j = 0.0;
        self.window_time = Femtos::ZERO;
        if avg_w > self.cfg.budget_w && self.hi + 1 > self.cfg.min_states {
            self.hi -= 1;
            self.narrowings += 1;
            CapAction::Narrowed
        } else if avg_w < self.cfg.budget_w * self.cfg.widen_below && self.hi + 1 < self.full.len()
        {
            self.hi += 1;
            self.widenings += 1;
            CapAction::Widened
        } else {
            CapAction::None
        }
    }

    /// How often the range was narrowed.
    pub fn narrowings(&self) -> u64 {
        self.narrowings
    }

    /// How often the range was widened.
    pub fn widenings(&self) -> u64 {
        self.widenings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(budget: f64) -> PowerCapManager {
        PowerCapManager::new(PowerCapConfig::new(budget), FreqStates::paper())
    }

    #[test]
    fn starts_unconstrained() {
        let m = manager(100.0);
        assert_eq!(m.allowed().len(), 10);
        assert_eq!(m.allowed().max().mhz(), 2200);
    }

    #[test]
    fn narrows_when_over_budget() {
        let mut m = manager(50.0);
        // 100 W average over one interval: 100 W * 50 us = 5 mJ.
        let action = m.record_epoch(5e-3, Femtos::from_micros(50));
        assert_eq!(action, CapAction::Narrowed);
        assert_eq!(m.allowed().max().mhz(), 2100);
    }

    #[test]
    fn widens_when_comfortably_under() {
        let mut m = manager(50.0);
        m.record_epoch(5e-3, Femtos::from_micros(50)); // narrow once
        let action = m.record_epoch(1e-3, Femtos::from_micros(50)); // 20 W
        assert_eq!(action, CapAction::Widened);
        assert_eq!(m.allowed().max().mhz(), 2200);
    }

    #[test]
    fn respects_minimum_state_count() {
        let mut m = manager(1.0);
        for _ in 0..50 {
            m.record_epoch(1.0, Femtos::from_micros(50)); // way over budget
        }
        assert_eq!(m.allowed().len(), m.config().min_states);
        assert_eq!(m.allowed().min().mhz(), 1300);
    }

    #[test]
    fn allowed_stays_on_grid_for_custom_state_sets() {
        use gpu_sim::time::Frequency;
        let states = FreqStates::from_states(vec![
            Frequency::from_mhz(1000),
            Frequency::from_mhz(1150),
            Frequency::from_mhz(1333),
            Frequency::from_mhz(1633),
        ]);
        let mut m = PowerCapManager::new(PowerCapConfig::new(1.0), states.clone());
        m.record_epoch(1.0, Femtos::from_micros(50)); // narrow once
        let allowed = m.allowed();
        assert_eq!(allowed.len(), 3);
        for f in allowed.iter() {
            assert!(states.index_of(f).is_some(), "{} MHz off-grid", f.mhz());
        }
    }

    #[test]
    fn sub_interval_epochs_accumulate() {
        let mut m = manager(50.0);
        for _ in 0..49 {
            assert_eq!(m.record_epoch(1e-4, Femtos::from_micros(1)), CapAction::None);
        }
        // The 50th microsecond closes the window: 100 W average.
        assert_eq!(m.record_epoch(1e-4, Femtos::from_micros(1)), CapAction::Narrowed);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut m = manager(50.0);
        m.record_epoch(5e-3, Femtos::from_micros(50)); // narrow (100 W)
                                                       // 49 W: under budget but inside the hysteresis band -> no widen.
        assert_eq!(m.record_epoch(2.45e-3, Femtos::from_micros(50)), CapAction::None);
    }
}
