//! The PC-indexed sensitivity table (paper Figure 12).
//!
//! Wavefronts index a small direct-mapped table with their PC: at epoch end
//! each wavefront **updates** the entry for the PC its epoch *started* at
//! with its estimated sensitivity; at the next epoch boundary each resident
//! wavefront **looks up** the entry for its *current* (next) PC and the
//! per-wavefront predictions are summed into the domain's prediction.
//!
//! Tuning follows the paper: 128 entries and a 4-bit PC offset (4-byte
//! instructions ⇒ 4 instructions per entry, covering 512 instructions),
//! chosen because most GPU kernels are loops of a few hundred instructions.

use crate::sensitivity::LinearModel;
use gpu_sim::isa::Pc;

/// Geometry and storage options of a PC table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcTableConfig {
    /// Number of entries (power of two; paper: 128).
    pub entries: usize,
    /// Low PC bits ignored when indexing (paper: 4 ⇒ 16 B ⇒ 4 instrs).
    pub offset_bits: u32,
    /// Model the hardware's quantized (byte-scale) entry storage instead of
    /// full-precision values. Default off; enabled by the quantization
    /// ablation bench.
    pub quantize: bool,
    /// Exponential-averaging weight applied on updates:
    /// `entry = (1-α)·entry + α·new`. An entry shared by many wavefronts
    /// sees high per-wavefront variance at fine epochs (a wavefront's 1 µs
    /// commit count is bursty); averaging makes the entry converge to the
    /// population mean instead of the last writer, which is what the summed
    /// domain prediction needs. Default α = 1/32 (a 5-bit shift-and-add in
    /// hardware; the `ablation_table` bench sweeps it). `1.0` is plain
    /// overwrite.
    pub ewma_alpha: f64,
}

impl Default for PcTableConfig {
    fn default() -> Self {
        PcTableConfig { entries: 128, offset_bits: 4, quantize: false, ewma_alpha: 1.0 / 32.0 }
    }
}

/// Quantization scales for the hardware-faithful storage mode.
/// Sensitivity LSB ≈ 0.0005 instr/MHz covers per-wavefront sensitivities up
/// to ~0.128 in 8 bits; the intercept is stored as a biased byte in units
/// of 2 instructions.
const S_LSB: f64 = 0.0005;
const I0_LSB: f64 = 2.0;
const I0_BIAS: f64 = 128.0;

fn quantize(m: LinearModel) -> LinearModel {
    let s_q = (m.s / S_LSB).round().clamp(0.0, 255.0);
    let i_q = (m.i0 / I0_LSB + I0_BIAS).round().clamp(0.0, 255.0);
    LinearModel { s: s_q * S_LSB, i0: (i_q - I0_BIAS) * I0_LSB }
}

/// A direct-mapped PC-indexed sensitivity table.
///
/// # Examples
///
/// ```
/// use pcstall::pc_table::{PcTable, PcTableConfig};
/// use pcstall::sensitivity::LinearModel;
/// let mut t = PcTable::new(PcTableConfig::default());
/// t.update(0x40, LinearModel { i0: 10.0, s: 0.02 });
/// assert!(t.lookup(0x40).is_some());
/// assert!(t.lookup(0x4000).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcTable {
    cfg: PcTableConfig,
    entries: Vec<Option<LinearModel>>,
    hits: u64,
    misses: u64,
    updates: u64,
}

impl PcTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(cfg: PcTableConfig) -> Self {
        assert!(cfg.entries.is_power_of_two(), "entries must be a power of two");
        PcTable { cfg, entries: vec![None; cfg.entries], hits: 0, misses: 0, updates: 0 }
    }

    /// The configuration in effect.
    pub fn config(&self) -> PcTableConfig {
        self.cfg
    }

    /// The entry index for `pc`.
    #[inline]
    pub fn index(&self, pc: Pc) -> usize {
        ((pc >> self.cfg.offset_bits) as usize) & (self.cfg.entries - 1)
    }

    /// Stores `model` as the sensitivity of epochs starting at `pc`
    /// (update mechanism — off the critical path). Populated entries are
    /// blended with weight [`PcTableConfig::ewma_alpha`].
    pub fn update(&mut self, pc: Pc, model: LinearModel) {
        let idx = self.index(pc);
        self.update_at(idx, model);
    }

    /// Index for a (pc, class) pair: the class bit selects between the two
    /// halves of the table, disambiguating epochs that *enter* a PC blocked
    /// on memory from those that enter it runnable.
    #[inline]
    pub fn index_classed(&self, pc: Pc, class: bool) -> usize {
        (self.index(pc) + (class as usize) * self.cfg.entries / 2) & (self.cfg.entries - 1)
    }

    /// [`PcTable::update`] with a state-class bit.
    pub fn update_classed(&mut self, pc: Pc, class: bool, model: LinearModel) {
        let idx = self.index_classed(pc, class);
        self.update_at(idx, model);
    }

    /// [`PcTable::lookup`] with a state-class bit.
    pub fn lookup_classed(&mut self, pc: Pc, class: bool) -> Option<LinearModel> {
        let idx = self.index_classed(pc, class);
        match self.entries[idx] {
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

    fn update_at(&mut self, idx: usize, model: LinearModel) {
        let blended = match self.entries[idx] {
            Some(old) => {
                let a = self.cfg.ewma_alpha.clamp(0.0, 1.0);
                LinearModel {
                    i0: (1.0 - a) * old.i0 + a * model.i0,
                    s: (1.0 - a) * old.s + a * model.s,
                }
            }
            None => model,
        };
        self.entries[idx] = Some(if self.cfg.quantize { quantize(blended) } else { blended });
        self.updates += 1;
    }

    /// Retrieves the predicted model for an epoch starting at `pc`
    /// (lookup mechanism).
    pub fn lookup(&mut self, pc: Pc) -> Option<LinearModel> {
        let idx = self.index(pc);
        match self.entries[idx] {
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

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime update count.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Hit ratio over all lookups so far (1.0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of populated entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Clears contents and counters (e.g. at kernel boundaries if desired).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.hits = 0;
        self.misses = 0;
        self.updates = 0;
    }
}

impl snapshot::Snapshot for PcTableConfig {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let PcTableConfig { entries, offset_bits, quantize, ewma_alpha } = *self;
        w.put_usize(entries);
        w.put_u32(offset_bits);
        w.put_bool(quantize);
        w.put_f64(ewma_alpha);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(PcTableConfig {
            entries: r.take_usize()?,
            offset_bits: r.take_u32()?,
            quantize: r.take_bool()?,
            ewma_alpha: r.take_f64()?,
        })
    }
}

/// Bit-exact table state, including the hit/miss/update counters, so an
/// evicted tenant's predictor restores indistinguishable from one that
/// never left memory. Lives here because the fields are private by design.
impl snapshot::Snapshot for PcTable {
    fn encode(&self, w: &mut snapshot::Encoder) {
        self.cfg.encode(w);
        w.put_usize(self.entries.len());
        for entry in &self.entries {
            match entry {
                Some(m) => {
                    w.put_bool(true);
                    m.encode(w);
                }
                None => w.put_bool(false),
            }
        }
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.updates);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        let cfg = PcTableConfig::decode(r)?;
        let n = r.take_usize()?;
        if !cfg.entries.is_power_of_two() || n != cfg.entries {
            return Err(snapshot::SnapError::Invalid(format!(
                "pc table geometry: {n} entries for config of {}",
                cfg.entries
            )));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(if r.take_bool()? { Some(LinearModel::decode(r)?) } else { None });
        }
        Ok(PcTable {
            cfg,
            entries,
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            updates: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot::Snapshot as _;

    fn table() -> PcTable {
        PcTable::new(PcTableConfig::default())
    }

    #[test]
    fn update_then_lookup_round_trips() {
        let mut t = table();
        let m = LinearModel { i0: 12.5, s: 0.031 };
        t.update(0x80, m);
        assert_eq!(t.lookup(0x80), Some(m));
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn nearby_pcs_share_an_entry() {
        let mut t = table();
        let m = LinearModel { i0: 1.0, s: 0.01 };
        t.update(0x40, m);
        // 4-bit offset: PCs 0x40..0x4F (4 instructions) share the entry.
        assert_eq!(t.lookup(0x44), Some(m));
        assert_eq!(t.lookup(0x4f), Some(m));
        assert_eq!(t.lookup(0x50), None);
    }

    #[test]
    fn aliasing_wraps_at_capacity() {
        let t = table();
        // 128 entries x 16B = 2 KiB of PC space before aliasing.
        assert_eq!(t.index(0x0), t.index(0x800));
        assert_ne!(t.index(0x0), t.index(0x7f0));
    }

    #[test]
    fn hit_ratio_tracks_lookups() {
        let mut t = table();
        t.update(0, LinearModel::ZERO);
        t.lookup(0);
        t.lookup(0x100);
        assert!((t.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = table();
        t.update(0, LinearModel { i0: 1.0, s: 1.0 });
        t.lookup(0);
        t.clear();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.hits(), 0);
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn quantization_bounds_error() {
        let mut t = PcTable::new(PcTableConfig { quantize: true, ..Default::default() });
        let m = LinearModel { i0: 37.3, s: 0.0213 };
        t.update(0, m);
        let q = t.lookup(0).unwrap();
        assert!((q.s - m.s).abs() <= S_LSB / 2.0 + 1e-12);
        assert!((q.i0 - m.i0).abs() <= I0_LSB / 2.0 + 1e-12);
    }

    #[test]
    fn quantization_clamps_extremes() {
        let mut t = PcTable::new(PcTableConfig { quantize: true, ..Default::default() });
        t.update(0, LinearModel { i0: 1e6, s: 99.0 });
        let q = t.lookup(0).unwrap();
        assert!(q.s <= 255.0 * S_LSB + 1e-12);
        assert!(q.i0 <= 127.0 * I0_LSB + 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_panics() {
        let _ = PcTable::new(PcTableConfig { entries: 100, ..Default::default() });
    }

    #[test]
    fn snapshot_roundtrip_is_bit_exact() {
        let mut t = PcTable::new(PcTableConfig { quantize: true, ..Default::default() });
        for pc in (0..0x900).step_by(0x30) {
            t.update(pc as Pc, LinearModel { i0: pc as f64 * 0.37, s: 0.001 * (pc % 13) as f64 });
        }
        t.lookup(0x40);
        t.lookup(0x9990); // a miss, to exercise the counters
        let mut w = snapshot::Encoder::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = snapshot::Decoder::new(&bytes);
        let back = PcTable::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, t);
        assert_eq!(back.hits(), t.hits());
        assert_eq!(back.misses(), t.misses());
        // Re-encoding yields identical bytes.
        let mut w2 = snapshot::Encoder::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn snapshot_rejects_geometry_mismatch() {
        let t = table();
        let mut w = snapshot::Encoder::new();
        // Encode a config claiming 128 entries but only store 1.
        t.config().encode(&mut w);
        w.put_usize(1);
        w.put_bool(false);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = snapshot::Decoder::new(&bytes);
        assert!(PcTable::decode(&mut r).is_err());
    }

    #[test]
    fn offset_bits_zero_distinguishes_single_instructions() {
        let mut t = PcTable::new(PcTableConfig { offset_bits: 0, ..Default::default() });
        t.update(0x40, LinearModel { i0: 1.0, s: 0.0 });
        assert_eq!(t.lookup(0x44), None, "adjacent instruction must not alias");
    }
}
