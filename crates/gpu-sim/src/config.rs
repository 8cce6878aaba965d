//! Top-level GPU configuration.

use crate::cache::CacheConfig;
use crate::mem::MemConfig;

/// Configuration of the simulated GPU.
///
/// Defaults model the paper's evaluation platform: a 64-CU Vega-class GPU
/// with 40 wavefront slots per CU, 16 shared L2 banks at a fixed 1.6 GHz,
/// and per-CU V/f domains spanning 1.3–2.2 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of compute units.
    pub n_cus: usize,
    /// Wavefront slots per CU (Vega: 40).
    pub wf_slots: usize,
    /// Instructions the CU can issue per cycle (Vega: one per SIMD, 4).
    pub issue_width: usize,
    /// Per-CU L1 geometry.
    pub l1: CacheConfig,
    /// L1 hit latency in CU cycles (scales with the CU's frequency).
    pub l1_hit_cycles: u32,
    /// Shared memory-system configuration.
    pub mem: MemConfig,
    /// Initial frequency of every CU in MHz (paper baseline: 1.7 GHz).
    pub initial_freq_mhz: u32,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            n_cus: 64,
            wf_slots: 40,
            issue_width: 4,
            l1: CacheConfig::default(),
            l1_hit_cycles: 28,
            mem: MemConfig::default(),
            initial_freq_mhz: 1700,
        }
    }
}

impl GpuConfig {
    /// A reduced-scale configuration (16 CUs, 4 L2 banks, 4 channels) used
    /// by tests and quick benchmark runs. The qualitative behavior —
    /// contention, phase variability, PC repetition — is preserved.
    pub fn small() -> Self {
        GpuConfig {
            n_cus: 16,
            mem: MemConfig { l2_banks: 4, dram_channels: 4, ..MemConfig::default() },
            ..GpuConfig::default()
        }
    }

    /// A tiny configuration (4 CUs) for unit tests.
    pub fn tiny() -> Self {
        GpuConfig {
            n_cus: 4,
            wf_slots: 16,
            mem: MemConfig { l2_banks: 2, dram_channels: 2, ..MemConfig::default() },
            ..GpuConfig::default()
        }
    }
}

/// Decoding re-applies the invariants `Gpu::new` asserts on its config
/// (non-zero geometry) as typed errors.
impl snapshot::Snapshot for GpuConfig {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let GpuConfig { n_cus, wf_slots, issue_width, l1, l1_hit_cycles, mem, initial_freq_mhz } =
            *self;
        w.put_usize(n_cus);
        w.put_usize(wf_slots);
        w.put_usize(issue_width);
        l1.encode(w);
        w.put_u32(l1_hit_cycles);
        mem.encode(w);
        w.put_u32(initial_freq_mhz);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        let cfg = GpuConfig {
            n_cus: r.take_usize()?,
            wf_slots: r.take_usize()?,
            issue_width: r.take_usize()?,
            l1: CacheConfig::decode(r)?,
            l1_hit_cycles: r.take_u32()?,
            mem: MemConfig::decode(r)?,
            initial_freq_mhz: r.take_u32()?,
        };
        if cfg.n_cus == 0 {
            return Err(snapshot::SnapError::invalid("GpuConfig.n_cus must be non-zero"));
        }
        if cfg.wf_slots == 0 {
            return Err(snapshot::SnapError::invalid("GpuConfig.wf_slots must be non-zero"));
        }
        if cfg.initial_freq_mhz == 0 {
            return Err(snapshot::SnapError::invalid(
                "GpuConfig.initial_freq_mhz must be non-zero",
            ));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let c = GpuConfig::default();
        assert_eq!(c.n_cus, 64);
        assert_eq!(c.wf_slots, 40);
        assert_eq!(c.mem.l2_banks, 16);
        assert_eq!(c.mem.mem_freq_mhz, 1600);
        assert_eq!(c.initial_freq_mhz, 1700);
    }

    #[test]
    fn small_and_tiny_shrink() {
        assert!(GpuConfig::small().n_cus < GpuConfig::default().n_cus);
        assert!(GpuConfig::tiny().n_cus < GpuConfig::small().n_cus);
    }
}
