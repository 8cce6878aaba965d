//! Per-epoch telemetry exported by the simulator.
//!
//! These are the *only* signals available to the DVFS estimators: the
//! estimation models in `pcstall` consume `EpochStats` exactly as a hardware
//! implementation would consume performance counters.

use crate::isa::Pc;
use crate::mem::MemEpochStats;
use crate::time::{Femtos, Frequency};

/// Telemetry for one wavefront slot over one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfEpochStats {
    /// Whether a live wavefront occupied this slot during the epoch.
    pub present: bool,
    /// Wavefront unique id.
    pub uid: u64,
    /// Rank among this CU's live wavefronts by age (0 = oldest; the
    /// scheduler's highest priority).
    pub age_rank: u32,
    /// PC (byte address) at the start of the epoch — PC-table update key.
    pub start_pc: Pc,
    /// Whether the wavefront entered the epoch blocked on memory (PC-table
    /// class bit).
    pub start_blocked: bool,
    /// PC (byte address) at the end of the epoch — PC-table lookup key for
    /// the *next* epoch.
    pub end_pc: Pc,
    /// Kernel index the wavefront is executing.
    pub kernel_idx: u32,
    /// Instructions committed this epoch.
    pub committed: u32,
    /// `s_waitcnt` memory stall time.
    pub stall: Femtos,
    /// Barrier stall time.
    pub barrier_stall: Femtos,
    /// Time ready but not selected by the oldest-first scheduler.
    pub sched_wait: Femtos,
    /// Leading-load latency (loads issued with no other load in flight in
    /// this wavefront).
    pub lead_time: Femtos,
    /// Whether the wavefront retired during this epoch.
    pub finished: bool,
}

/// Instruction-class issue counts for one CU over one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Vector-ALU instructions.
    pub valu: u64,
    /// Scalar instructions.
    pub salu: u64,
    /// Vector loads.
    pub loads: u64,
    /// Vector stores.
    pub stores: u64,
    /// `s_waitcnt` instructions.
    pub waitcnt: u64,
    /// Loop back-edges.
    pub branches: u64,
}

impl OpMix {
    /// Total classified instructions.
    pub fn total(&self) -> u64 {
        self.valu + self.salu + self.loads + self.stores + self.waitcnt + self.branches
    }

    /// Fraction of instructions that are memory operations.
    pub fn memory_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / t as f64
        }
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &OpMix) -> OpMix {
        OpMix {
            valu: self.valu + other.valu,
            salu: self.salu + other.salu,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            waitcnt: self.waitcnt + other.waitcnt,
            branches: self.branches + other.branches,
        }
    }
}

impl snapshot::Snapshot for OpMix {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let OpMix { valu, salu, loads, stores, waitcnt, branches } = *self;
        w.put_u64(valu);
        w.put_u64(salu);
        w.put_u64(loads);
        w.put_u64(stores);
        w.put_u64(waitcnt);
        w.put_u64(branches);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(OpMix {
            valu: r.take_u64()?,
            salu: r.take_u64()?,
            loads: r.take_u64()?,
            stores: r.take_u64()?,
            waitcnt: r.take_u64()?,
            branches: r.take_u64()?,
        })
    }
}

/// Telemetry for one compute unit over one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuEpochStats {
    /// Operating frequency during the epoch.
    pub freq: Frequency,
    /// Issue slots per cycle (for activity computation).
    pub issue_width: u32,
    /// Total instructions committed by the CU.
    pub committed: u64,
    /// Time spent issuing instructions.
    pub busy: Femtos,
    /// Time with no issue but ≥ 1 load outstanding (exposed memory time —
    /// the critical-path signal).
    pub mem_only: Femtos,
    /// Time with no issue, no loads but ≥ 1 store outstanding (the CRISP
    /// store-stall signal).
    pub store_only: Femtos,
    /// Time with no issue and nothing outstanding.
    pub idle: Femtos,
    /// Portion of `s_waitcnt` stalls attributable to stores (CU total).
    pub store_stall: Femtos,
    /// CU-level leading-load latency (loads issued with no other load in
    /// flight anywhere in the CU).
    pub lead_time: Femtos,
    /// L1 hits this epoch.
    pub l1_hits: u64,
    /// L1 misses this epoch.
    pub l1_misses: u64,
    /// Number of live wavefronts at the end of the epoch.
    pub active_wavefronts: u32,
    /// Instruction-class issue counts.
    pub op_mix: OpMix,
    /// Per-slot wavefront telemetry.
    pub wf: Vec<WfEpochStats>,
}

impl CuEpochStats {
    /// An all-zero snapshot (1 MHz placeholder frequency) used to seed
    /// reusable collection buffers before [`crate::Gpu::run_epoch_into`]
    /// overwrites every field.
    pub fn zeroed() -> Self {
        CuEpochStats {
            freq: Frequency::from_mhz(1),
            issue_width: 0,
            committed: 0,
            busy: Femtos::ZERO,
            mem_only: Femtos::ZERO,
            store_only: Femtos::ZERO,
            idle: Femtos::ZERO,
            store_stall: Femtos::ZERO,
            lead_time: Femtos::ZERO,
            l1_hits: 0,
            l1_misses: 0,
            active_wavefronts: 0,
            op_mix: OpMix::default(),
            wf: Vec::new(),
        }
    }

    /// Instructions per CU-cycle over the epoch (uses the epoch duration).
    pub fn ipc(&self, epoch: Femtos) -> f64 {
        let cycles = self.freq.cycles_in(epoch);
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }

    /// Issue-slot activity factor in [0, 1] (drives dynamic power):
    /// committed instructions over available issue slots.
    pub fn activity(&self, epoch: Femtos) -> f64 {
        let slots = self.freq.cycles_in(epoch) * self.issue_width.max(1) as u64;
        if slots == 0 {
            return 0.0;
        }
        (self.committed as f64 / slots as f64).min(1.0)
    }
}

/// Telemetry for the whole GPU over one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch start time.
    pub start: Femtos,
    /// Epoch duration.
    pub duration: Femtos,
    /// Per-CU telemetry, indexed by CU id.
    pub cus: Vec<CuEpochStats>,
    /// Shared memory-system telemetry.
    pub mem: MemEpochStats,
    /// Whether the application had fully completed by the end of this epoch.
    pub done: bool,
}

impl EpochStats {
    /// An empty telemetry buffer suitable for repeated
    /// [`crate::Gpu::run_epoch_into`] calls: the per-CU and per-wavefront
    /// vectors grow on first use and are reused (no per-epoch allocation)
    /// afterwards.
    pub fn empty() -> Self {
        EpochStats {
            start: Femtos::ZERO,
            duration: Femtos::ZERO,
            cus: Vec::new(),
            mem: MemEpochStats::default(),
            done: false,
        }
    }

    /// Total instructions committed across a set of CUs (a V/f domain).
    pub fn committed_in(&self, cus: &[usize]) -> u64 {
        cus.iter().map(|&c| self.cus[c].committed).sum()
    }

    /// Total instructions committed across the GPU.
    pub fn committed_total(&self) -> u64 {
        self.cus.iter().map(|c| c.committed).sum()
    }

    /// Aggregate DRAM bandwidth in GB/s over this epoch.
    pub fn dram_gbps(&self) -> f64 {
        if self.duration == Femtos::ZERO {
            return 0.0;
        }
        self.mem.dram_bytes as f64 / self.duration.as_secs_f64() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cu_stats(committed: u64, freq_mhz: u32) -> CuEpochStats {
        CuEpochStats {
            freq: Frequency::from_mhz(freq_mhz),
            issue_width: 1,
            committed,
            busy: Femtos::ZERO,
            mem_only: Femtos::ZERO,
            store_only: Femtos::ZERO,
            idle: Femtos::ZERO,
            store_stall: Femtos::ZERO,
            lead_time: Femtos::ZERO,
            l1_hits: 0,
            l1_misses: 0,
            active_wavefronts: 0,
            op_mix: OpMix::default(),
            wf: Vec::new(),
        }
    }

    #[test]
    fn ipc_and_activity() {
        let mut s = cu_stats(500, 1000); // 1000 cycles in 1us at 1 GHz
        s.busy = Femtos::from_nanos(500);
        let epoch = Femtos::from_micros(1);
        assert!((s.ipc(epoch) - 0.5).abs() < 1e-12);
        // 500 committed over 1000 single-issue slots.
        assert!((s.activity(epoch) - 0.5).abs() < 1e-12);
        s.issue_width = 4;
        assert!((s.activity(epoch) - 0.125).abs() < 1e-12);
        assert_eq!(s.ipc(Femtos::ZERO), 0.0);
        assert_eq!(s.activity(Femtos::ZERO), 0.0);
    }

    #[test]
    fn domain_aggregation() {
        let e = EpochStats {
            start: Femtos::ZERO,
            duration: Femtos::from_micros(1),
            cus: vec![cu_stats(10, 1300), cu_stats(20, 1300), cu_stats(30, 1300)],
            mem: MemEpochStats::default(),
            done: false,
        };
        assert_eq!(e.committed_in(&[0, 2]), 40);
        assert_eq!(e.committed_total(), 60);
    }

    #[test]
    fn op_mix_accounting() {
        let a = OpMix { valu: 10, salu: 2, loads: 4, stores: 2, waitcnt: 3, branches: 1 };
        assert_eq!(a.total(), 22);
        assert!((a.memory_fraction() - 6.0 / 22.0).abs() < 1e-12);
        let b = a.merged(&a);
        assert_eq!(b.total(), 44);
        assert_eq!(OpMix::default().memory_fraction(), 0.0);
    }

    #[test]
    fn dram_bandwidth() {
        let mut e = EpochStats {
            start: Femtos::ZERO,
            duration: Femtos::from_micros(1),
            cus: vec![],
            mem: MemEpochStats::default(),
            done: false,
        };
        e.mem.dram_bytes = 512_000; // 512 kB in 1 us = 512 GB/s
        assert!((e.dram_gbps() - 512.0).abs() < 1e-9);
    }
}
