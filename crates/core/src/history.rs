//! Global phase-history-table predictor (paper Section 2.4).
//!
//! The paper contrasts PCSTALL with earlier CPU approaches that "use a
//! global phase history table to predict the variation across consecutive
//! time epochs" (Isci et al.; Bircher & John). This module implements that
//! family as an additional baseline: per domain, the recent sequence of
//! quantized sensitivity observations indexes a table whose entry predicts
//! the *next* epoch's performance model. It anticipates short repeating
//! patterns (A-B-A-B phases) that a pure last-value predictor always lags,
//! but unlike PCSTALL it has no insight into *why* behavior changes, so
//! aperiodic or wavefront-driven variation defeats it.

use crate::sensitivity::LinearModel;

/// Configuration of a global phase-history table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryConfig {
    /// Number of table entries (power of two).
    pub entries: usize,
    /// Quantization levels for each history element.
    pub levels: u32,
    /// History depth (how many recent epochs form the index).
    pub depth: usize,
}

impl Default for HistoryConfig {
    /// 256 entries indexed by the last 3 epochs quantized to 8 levels.
    fn default() -> Self {
        HistoryConfig { entries: 256, levels: 8, depth: 3 }
    }
}

/// A per-domain global phase-history table.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryTable {
    cfg: HistoryConfig,
    /// Recent quantized observations, most recent last.
    history: Vec<u32>,
    /// Running maximum observation (sets the quantization scale).
    scale: f64,
    entries: Vec<Option<LinearModel>>,
    /// Index the *previous* prediction-relevant history hashed to (the
    /// entry to update once the next observation arrives).
    pending: Option<usize>,
    hits: u64,
    misses: u64,
}

impl HistoryTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `depth` is zero.
    pub fn new(cfg: HistoryConfig) -> Self {
        assert!(cfg.entries.is_power_of_two(), "entries must be a power of two");
        assert!(cfg.depth > 0, "history depth must be non-zero");
        HistoryTable {
            cfg,
            history: Vec::new(),
            scale: 1.0,
            entries: vec![None; cfg.entries],
            pending: None,
            hits: 0,
            misses: 0,
        }
    }

    fn quantize(&self, value: f64) -> u32 {
        let v = (value / self.scale).clamp(0.0, 1.0);
        ((v * (self.cfg.levels - 1) as f64).round() as u32).min(self.cfg.levels - 1)
    }

    fn index(&self) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &q in &self.history {
            h ^= q as u64 + 1;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h as usize) & (self.cfg.entries - 1)
    }

    /// Records the elapsed epoch: `observed` is the domain's committed
    /// instruction count and `model` the performance model estimated for
    /// that epoch. Trains the entry the previous history pointed at, then
    /// shifts the observation into the history.
    pub fn observe(&mut self, observed: f64, model: LinearModel) {
        if let Some(idx) = self.pending.take() {
            let blended = match self.entries[idx] {
                Some(old) => LinearModel {
                    i0: 0.5 * old.i0 + 0.5 * model.i0,
                    s: 0.5 * old.s + 0.5 * model.s,
                },
                None => model,
            };
            self.entries[idx] = Some(blended);
        }
        self.scale = self.scale.max(observed.abs()).max(1.0);
        self.history.push(self.quantize(observed));
        if self.history.len() > self.cfg.depth {
            self.history.remove(0);
        }
        // Arm the entry that the *new* history indexes for the next epoch.
        if self.history.len() == self.cfg.depth {
            self.pending = Some(self.index());
        }
    }

    /// Predicts the next epoch's model from the current history, if the
    /// pattern has been seen before.
    pub fn predict(&mut self) -> Option<LinearModel> {
        if self.history.len() < self.cfg.depth {
            self.misses += 1;
            return None;
        }
        match self.entries[self.index()] {
            Some(m) => {
                self.hits += 1;
                Some(m)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Hit ratio over all predictions so far (1.0 when none attempted).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(i0: f64) -> LinearModel {
        LinearModel { i0, s: 0.0 }
    }

    #[test]
    fn learns_a_period_two_pattern() {
        let mut t = HistoryTable::new(HistoryConfig::default());
        // Alternate 100, 900, 100, 900 ... after warm-up the table should
        // predict the flip that a last-value predictor always misses.
        for k in 0..40 {
            let v = if k % 2 == 0 { 100.0 } else { 900.0 };
            t.observe(v, model(v));
        }
        // History ends ... 100, 900, 100 (k=39 observed 900? k even->100).
        // k = 39 -> 900 observed last. Next should be 100.
        let pred = t.predict().expect("pattern must be learned");
        assert!(
            (pred.i0 - 100.0).abs() < 150.0,
            "expected ~100 after the 900 phase, got {}",
            pred.i0
        );
    }

    #[test]
    fn cold_table_predicts_nothing() {
        let mut t = HistoryTable::new(HistoryConfig::default());
        assert!(t.predict().is_none());
        t.observe(5.0, model(5.0));
        assert!(t.predict().is_none(), "history shorter than depth");
    }

    #[test]
    fn hit_ratio_tracks_predictions() {
        let mut t = HistoryTable::new(HistoryConfig::default());
        for _ in 0..10 {
            t.observe(50.0, model(50.0));
        }
        let _ = t.predict();
        assert!(t.hit_ratio() > 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_panic() {
        let _ = HistoryTable::new(HistoryConfig { entries: 100, ..Default::default() });
    }

    #[test]
    fn scale_adapts_to_magnitude() {
        let mut t = HistoryTable::new(HistoryConfig::default());
        for k in 0..20 {
            t.observe(8000.0 + k as f64, model(8000.0));
        }
        // Large observations must not saturate quantization at level 0/1.
        assert!(t.scale >= 8000.0);
    }
}
