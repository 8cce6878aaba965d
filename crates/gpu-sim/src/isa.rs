//! Wavefront-level instruction set.
//!
//! The simulator models execution at wavefront granularity (the paper's unit
//! of prediction): each instruction is one wavefront-wide operation. Vector
//! memory operations are assumed coalesced to one cache-line access, which is
//! the granularity at which frequency sensitivity is determined.
//!
//! PCs are byte addresses with fixed 4-byte instructions, matching the
//! paper's PC-table tuning ("offset of 4 bits ≈ 4 instructions per entry").

/// Width of one encoded instruction in bytes. PC values advance by this.
pub const INSTRUCTION_BYTES: u32 = 4;

/// A program counter, as a byte address within a kernel's code object.
pub type Pc = u32;

/// Converts an instruction index to its PC byte address.
#[inline]
pub fn pc_of_index(index: usize) -> Pc {
    index as Pc * INSTRUCTION_BYTES
}

/// Converts a PC byte address back to an instruction index.
#[inline]
pub fn index_of_pc(pc: Pc) -> usize {
    (pc / INSTRUCTION_BYTES) as usize
}

/// Identifies an [`crate::kernel::AddressPattern`] in the kernel's pattern
/// table.
pub type PatternId = u16;

/// Identifies a loop's trip-count record in the kernel's loop table.
pub type LoopSlot = u8;

/// One wavefront-level operation.
///
/// Semantics follow a simplified GCN model: wavefronts execute in order;
/// memory operations are asynchronous and only [`Op::Waitcnt`] blocks on
/// their completion (the `s_waitcnt` stall the paper's STALL estimator
/// measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Vector ALU operation; the wavefront's next instruction issues after
    /// `lat` compute-unit cycles (models dependent-chain latency).
    Valu {
        /// Issue-to-issue latency in CU cycles (≥ 1).
        lat: u8,
    },
    /// Scalar ALU operation, single-cycle.
    Salu,
    /// Asynchronous vector load of one cache line, address given by the
    /// kernel's pattern table.
    Load {
        /// Which address pattern generates this load's addresses.
        pattern: PatternId,
    },
    /// Asynchronous vector store of one cache line.
    Store {
        /// Which address pattern generates this store's addresses.
        pattern: PatternId,
    },
    /// Blocks until at most `vm` loads and `st` stores remain outstanding.
    /// `u8::MAX` means "don't wait on this counter".
    Waitcnt {
        /// Maximum outstanding loads allowed to proceed.
        vm: u8,
        /// Maximum outstanding stores allowed to proceed.
        st: u8,
    },
    /// Workgroup-wide execution barrier.
    Barrier,
    /// Loop back-edge: jumps to `target` until the loop's trip count
    /// (tracked per wavefront in `slot`) is exhausted.
    Branch {
        /// PC (byte address) of the loop head.
        target: Pc,
        /// Index into the kernel's loop table.
        slot: LoopSlot,
    },
    /// Terminates the wavefront.
    EndKernel,
}

impl Op {
    /// Whether this op is a memory operation (load or store).
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Whether this op counts as a *committed* instruction for the paper's
    /// work metric. All architecturally executed ops count except the
    /// scheduling artifacts that do no work by themselves.
    #[inline]
    pub fn counts_as_committed(self) -> bool {
        !matches!(self, Op::Barrier | Op::EndKernel)
    }
}

/// Ops are stored as a one-byte variant tag plus operands; unknown tags
/// are rejected so a corrupted code object cannot decode.
impl snapshot::Snapshot for Op {
    fn encode(&self, w: &mut snapshot::Encoder) {
        match *self {
            Op::Valu { lat } => {
                w.put_u8(0);
                w.put_u8(lat);
            }
            Op::Salu => w.put_u8(1),
            Op::Load { pattern } => {
                w.put_u8(2);
                w.put_u16(pattern);
            }
            Op::Store { pattern } => {
                w.put_u8(3);
                w.put_u16(pattern);
            }
            Op::Waitcnt { vm, st } => {
                w.put_u8(4);
                w.put_u8(vm);
                w.put_u8(st);
            }
            Op::Barrier => w.put_u8(5),
            Op::Branch { target, slot } => {
                w.put_u8(6);
                w.put_u32(target);
                w.put_u8(slot);
            }
            Op::EndKernel => w.put_u8(7),
        }
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(match r.take_u8()? {
            0 => Op::Valu { lat: r.take_u8()? },
            1 => Op::Salu,
            2 => Op::Load { pattern: r.take_u16()? },
            3 => Op::Store { pattern: r.take_u16()? },
            4 => Op::Waitcnt { vm: r.take_u8()?, st: r.take_u8()? },
            5 => Op::Barrier,
            6 => Op::Branch { target: r.take_u32()?, slot: r.take_u8()? },
            7 => Op::EndKernel,
            t => return Err(snapshot::SnapError::invalid(format!("unknown Op tag {t}"))),
        })
    }
}

/// Convenience for "wait until all loads have returned".
pub const WAIT_ALL_LOADS: Op = Op::Waitcnt { vm: 0, st: u8::MAX };
/// Convenience for "wait until all stores have been acknowledged".
pub const WAIT_ALL_STORES: Op = Op::Waitcnt { vm: u8::MAX, st: 0 };

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_index_round_trip() {
        for i in [0usize, 1, 7, 100, 511] {
            assert_eq!(index_of_pc(pc_of_index(i)), i);
        }
        assert_eq!(pc_of_index(3), 12);
    }

    #[test]
    fn memory_classification() {
        assert!(Op::Load { pattern: 0 }.is_memory());
        assert!(Op::Store { pattern: 0 }.is_memory());
        assert!(!Op::Valu { lat: 1 }.is_memory());
        assert!(!WAIT_ALL_LOADS.is_memory());
    }

    #[test]
    fn committed_classification() {
        assert!(Op::Valu { lat: 4 }.counts_as_committed());
        assert!(Op::Load { pattern: 0 }.counts_as_committed());
        assert!(Op::Branch { target: 0, slot: 0 }.counts_as_committed());
        assert!(Op::Waitcnt { vm: 0, st: 0 }.counts_as_committed());
        assert!(!Op::Barrier.counts_as_committed());
        assert!(!Op::EndKernel.counts_as_committed());
    }
}
