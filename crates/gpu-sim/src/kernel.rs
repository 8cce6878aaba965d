//! Kernels, applications and deterministic address-stream generation.
//!
//! A [`Kernel`] is a code object (instruction array) plus dispatch geometry
//! and the tables that parameterize its memory behavior. An [`App`] is a
//! sequence of kernel launches (some paper workloads, e.g. `lulesh`, launch
//! dozens of distinct kernels).

use crate::isa::{pc_of_index, LoopSlot, Op, PatternId, Pc};
use crate::rng::{mix2, mix3};
use snapshot::{Decoder, Encoder, SnapError, Snapshot};

/// Cache-line size assumed throughout the memory hierarchy.
pub const LINE_BYTES: u64 = 64;

/// How a memory instruction generates addresses.
///
/// Addresses are pure functions of `(pattern, wavefront uid, dynamic memory
/// op counter, kernel seed)`, so forked simulations replay identical traffic.
/// All addresses are line-aligned (one coalesced line per wavefront op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressPattern {
    /// Sequential streaming through a large region, partitioned by
    /// wavefront: high spatial locality within a wavefront, little reuse.
    Stream {
        /// Region base address.
        base: u64,
        /// Region size in bytes (per-wavefront partitions wrap within it).
        region: u64,
    },
    /// Repeated accesses within a small per-wavefront tile (e.g. a GEMM
    /// LDS-staged tile): very high L1 reuse.
    Tile {
        /// Region base address.
        base: u64,
        /// Tile size in bytes per wavefront.
        tile: u64,
    },
    /// Uniform random lines within a region (e.g. `xsbench` cross-section
    /// lookups): latency-bound, cache-hostile when `region` is large.
    Random {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        region: u64,
    },
    /// All wavefronts walk the *same* sequence of lines (lookup tables /
    /// broadcast reads): misses once, then hits in L2 (and often L1).
    Shared {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        region: u64,
    },
    /// Fixed-stride walk per wavefront (column accesses, structured grids):
    /// spatial locality determined by `stride`.
    Strided {
        /// Region base address.
        base: u64,
        /// Stride between consecutive accesses, in bytes.
        stride: u64,
        /// Region size in bytes.
        region: u64,
    },
}

impl AddressPattern {
    /// Generates the line-aligned address for dynamic memory operation
    /// number `op_count` of wavefront `wf_uid`.
    pub fn address(&self, wf_uid: u64, op_count: u64, seed: u64) -> u64 {
        let lines = |region: u64| (region / LINE_BYTES).max(1);
        let addr = match *self {
            AddressPattern::Stream { base, region } => {
                let n = lines(region);
                // Partition the region among wavefronts; each streams
                // sequentially through its slice.
                let slice = (n / 64).max(1);
                let start = (mix2(wf_uid, seed) % n / slice) * slice;
                base + ((start + op_count) % n) * LINE_BYTES
            }
            AddressPattern::Tile { base, tile } => {
                let n = lines(tile);
                let tile_base = base + (wf_uid % 1024) * tile;
                tile_base + (op_count % n) * LINE_BYTES
            }
            AddressPattern::Random { base, region } => {
                let n = lines(region);
                base + (mix3(wf_uid, op_count, seed) % n) * LINE_BYTES
            }
            AddressPattern::Shared { base, region } => {
                let n = lines(region);
                base + (mix2(op_count, seed) % n) * LINE_BYTES
            }
            AddressPattern::Strided { base, stride, region } => {
                let n = lines(region);
                let step = (stride / LINE_BYTES).max(1);
                let start = mix2(wf_uid, seed) % n;
                base + ((start + op_count * step) % n) * LINE_BYTES
            }
        };
        addr & !(LINE_BYTES - 1)
    }
}

impl Snapshot for AddressPattern {
    fn encode(&self, w: &mut Encoder) {
        match *self {
            AddressPattern::Stream { base, region } => {
                w.put_u8(0);
                w.put_u64(base);
                w.put_u64(region);
            }
            AddressPattern::Tile { base, tile } => {
                w.put_u8(1);
                w.put_u64(base);
                w.put_u64(tile);
            }
            AddressPattern::Random { base, region } => {
                w.put_u8(2);
                w.put_u64(base);
                w.put_u64(region);
            }
            AddressPattern::Shared { base, region } => {
                w.put_u8(3);
                w.put_u64(base);
                w.put_u64(region);
            }
            AddressPattern::Strided { base, stride, region } => {
                w.put_u8(4);
                w.put_u64(base);
                w.put_u64(stride);
                w.put_u64(region);
            }
        }
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => AddressPattern::Stream { base: r.take_u64()?, region: r.take_u64()? },
            1 => AddressPattern::Tile { base: r.take_u64()?, tile: r.take_u64()? },
            2 => AddressPattern::Random { base: r.take_u64()?, region: r.take_u64()? },
            3 => AddressPattern::Shared { base: r.take_u64()?, region: r.take_u64()? },
            4 => AddressPattern::Strided {
                base: r.take_u64()?,
                stride: r.take_u64()?,
                region: r.take_u64()?,
            },
            t => return Err(SnapError::invalid(format!("unknown AddressPattern tag {t}"))),
        })
    }
}

/// Static description of one loop in a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInfo {
    /// Base trip count.
    pub trips: u16,
    /// Per-wavefront trip-count jitter: the effective trip count is
    /// `trips ± (hash % (jitter+1))`, modeling divergent control flow
    /// (e.g. `quickS` Monte-Carlo histories).
    pub jitter: u16,
}

impl LoopInfo {
    /// Effective trip count for a particular wavefront.
    pub fn effective_trips(&self, wf_uid: u64, slot: LoopSlot, seed: u64) -> u16 {
        if self.jitter == 0 {
            return self.trips.max(1);
        }
        let h = mix3(wf_uid, slot as u64, seed);
        let span = 2 * self.jitter as u64 + 1;
        let delta = (h % span) as i32 - self.jitter as i32;
        (self.trips as i32 + delta).max(1) as u16
    }
}

impl Snapshot for LoopInfo {
    fn encode(&self, w: &mut Encoder) {
        let LoopInfo { trips, jitter } = *self;
        w.put_u16(trips);
        w.put_u16(jitter);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(LoopInfo { trips: r.take_u16()?, jitter: r.take_u16()? })
    }
}

/// A compiled kernel: code object, loop/pattern tables and launch geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (diagnostics only).
    pub name: String,
    /// The instruction array; PCs are `4 * index`.
    pub code: Vec<Op>,
    /// Loop table, indexed by [`Op::Branch`]'s `slot`.
    pub loops: Vec<LoopInfo>,
    /// Address-pattern table, indexed by load/store `pattern` ids.
    pub patterns: Vec<AddressPattern>,
    /// Number of workgroups launched.
    pub workgroups: u32,
    /// Wavefronts per workgroup.
    pub wg_wavefronts: u8,
    /// Seed for this kernel's address streams and jitter.
    pub seed: u64,
}

impl Kernel {
    /// Validates internal consistency (branch targets, table indices).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed element found.
    pub fn validate(&self) -> Result<(), String> {
        if self.code.is_empty() {
            return Err(format!("kernel {}: empty code object", self.name));
        }
        if !matches!(self.code.last(), Some(Op::EndKernel)) {
            return Err(format!("kernel {}: code must end with EndKernel", self.name));
        }
        if self.workgroups == 0 || self.wg_wavefronts == 0 {
            return Err(format!("kernel {}: empty dispatch", self.name));
        }
        for (i, op) in self.code.iter().enumerate() {
            match *op {
                Op::Branch { target, slot } => {
                    let t = (target / 4) as usize;
                    if t >= self.code.len() {
                        return Err(format!(
                            "kernel {}: branch at {} targets out-of-range pc {}",
                            self.name, i, target
                        ));
                    }
                    if slot as usize >= self.loops.len() {
                        return Err(format!(
                            "kernel {}: branch at {} uses undefined loop slot {}",
                            self.name, i, slot
                        ));
                    }
                }
                Op::Load { pattern } | Op::Store { pattern }
                    if pattern as usize >= self.patterns.len() =>
                {
                    return Err(format!(
                        "kernel {}: memory op at {} uses undefined pattern {}",
                        self.name, i, pattern
                    ));
                }
                Op::Valu { lat: 0 } => {
                    return Err(format!("kernel {}: zero-latency VALU at {}", self.name, i));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Number of instructions in the code object.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the code object is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// Decoding runs [`Kernel::validate`] so a structurally well-formed but
/// semantically broken code object (dangling branch, missing pattern) is
/// rejected with a typed error instead of panicking mid-simulation.
impl Snapshot for Kernel {
    fn encode(&self, w: &mut Encoder) {
        let Kernel { name, code, loops, patterns, workgroups, wg_wavefronts, seed } = self;
        name.encode(w);
        code.encode(w);
        loops.encode(w);
        patterns.encode(w);
        w.put_u32(*workgroups);
        w.put_u8(*wg_wavefronts);
        w.put_u64(*seed);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let k = Kernel {
            name: String::decode(r)?,
            code: Vec::<Op>::decode(r)?,
            loops: Vec::<LoopInfo>::decode(r)?,
            patterns: Vec::<AddressPattern>::decode(r)?,
            workgroups: r.take_u32()?,
            wg_wavefronts: r.take_u8()?,
            seed: r.take_u64()?,
        };
        k.validate().map_err(SnapError::invalid)?;
        Ok(k)
    }
}

/// An application: a named sequence of kernel launches executed back to back
/// (with an implicit device-wide barrier between launches, as in HIP/CUDA
/// streams).
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    /// Application name, matching the paper's Table II where applicable.
    pub name: String,
    /// Kernels launched in order.
    pub kernels: Vec<Kernel>,
}

impl App {
    /// Creates an app after validating every kernel.
    ///
    /// # Errors
    ///
    /// Returns the first kernel validation failure.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> Result<Self, String> {
        let name = name.into();
        if kernels.is_empty() {
            return Err(format!("app {name}: no kernels"));
        }
        for k in &kernels {
            k.validate()?;
        }
        Ok(App { name, kernels })
    }

    /// Number of *unique* kernels (paper Table II reports this).
    pub fn unique_kernels(&self) -> usize {
        let mut names: Vec<&str> = self.kernels.iter().map(|k| k.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }
}

/// Decoding goes through [`App::new`] so every app-level invariant is
/// re-checked on restore.
impl Snapshot for App {
    fn encode(&self, w: &mut Encoder) {
        let App { name, kernels } = self;
        name.encode(w);
        kernels.encode(w);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let name = String::decode(r)?;
        let kernels = Vec::<Kernel>::decode(r)?;
        App::new(name, kernels).map_err(SnapError::invalid)
    }
}

/// Incremental builder for a [`Kernel`] code object.
///
/// # Examples
///
/// ```
/// use gpu_sim::kernel::{KernelBuilder, AddressPattern};
///
/// let mut b = KernelBuilder::new("saxpy", 64, 4, 1);
/// let src = b.pattern(AddressPattern::Stream { base: 0, region: 1 << 20 });
/// b.begin_loop(100, 0);
/// b.load(src);
/// b.wait_all_loads();
/// b.valu(4, 2);
/// b.end_loop();
/// let k = b.finish();
/// assert!(k.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    code: Vec<Op>,
    loops: Vec<LoopInfo>,
    patterns: Vec<AddressPattern>,
    open_loops: Vec<(usize, LoopSlot)>, // (head instruction index, slot)
    workgroups: u32,
    wg_wavefronts: u8,
    seed: u64,
}

impl KernelBuilder {
    /// Starts a kernel named `name` dispatching `workgroups` workgroups of
    /// `wg_wavefronts` wavefronts, seeded with `seed`.
    pub fn new(name: impl Into<String>, workgroups: u32, wg_wavefronts: u8, seed: u64) -> Self {
        KernelBuilder {
            name: name.into(),
            code: Vec::new(),
            loops: Vec::new(),
            patterns: Vec::new(),
            open_loops: Vec::new(),
            workgroups,
            wg_wavefronts,
            seed,
        }
    }

    /// Registers an address pattern, returning its id for `load`/`store`.
    pub fn pattern(&mut self, p: AddressPattern) -> PatternId {
        self.patterns.push(p);
        (self.patterns.len() - 1) as PatternId
    }

    /// Appends `count` VALU ops of latency `lat`.
    pub fn valu(&mut self, lat: u8, count: usize) -> &mut Self {
        for _ in 0..count {
            self.code.push(Op::Valu { lat: lat.max(1) });
        }
        self
    }

    /// Appends `count` scalar ops.
    pub fn salu(&mut self, count: usize) -> &mut Self {
        for _ in 0..count {
            self.code.push(Op::Salu);
        }
        self
    }

    /// Appends one load using pattern `p`.
    pub fn load(&mut self, p: PatternId) -> &mut Self {
        self.code.push(Op::Load { pattern: p });
        self
    }

    /// Appends one store using pattern `p`.
    pub fn store(&mut self, p: PatternId) -> &mut Self {
        self.code.push(Op::Store { pattern: p });
        self
    }

    /// Appends a waitcnt blocking until ≤ `vm` loads remain outstanding.
    pub fn waitcnt_vm(&mut self, vm: u8) -> &mut Self {
        self.code.push(Op::Waitcnt { vm, st: u8::MAX });
        self
    }

    /// Appends a waitcnt blocking until all loads have returned.
    pub fn wait_all_loads(&mut self) -> &mut Self {
        self.waitcnt_vm(0)
    }

    /// Appends a waitcnt blocking until ≤ `st` stores remain outstanding.
    pub fn waitcnt_st(&mut self, st: u8) -> &mut Self {
        self.code.push(Op::Waitcnt { vm: u8::MAX, st });
        self
    }

    /// Appends a workgroup barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.code.push(Op::Barrier);
        self
    }

    /// Opens a loop with `trips` base iterations and per-wavefront `jitter`.
    /// Must be closed with [`KernelBuilder::end_loop`].
    pub fn begin_loop(&mut self, trips: u16, jitter: u16) -> &mut Self {
        let slot = self.loops.len() as LoopSlot;
        self.loops.push(LoopInfo { trips, jitter });
        self.open_loops.push((self.code.len(), slot));
        self
    }

    /// Closes the innermost open loop, emitting its back-edge branch.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open.
    pub fn end_loop(&mut self) -> &mut Self {
        let (head, slot) = self.open_loops.pop().expect("end_loop without begin_loop");
        let target: Pc = pc_of_index(head);
        self.code.push(Op::Branch { target, slot });
        self
    }

    /// Finalizes the kernel, appending the terminating `EndKernel`.
    ///
    /// # Panics
    ///
    /// Panics if a loop was left open.
    pub fn finish(mut self) -> Kernel {
        assert!(
            self.open_loops.is_empty(),
            "kernel {}: {} unclosed loop(s)",
            self.name,
            self.open_loops.len()
        );
        self.code.push(Op::EndKernel);
        Kernel {
            name: self.name,
            code: self.code,
            loops: self.loops,
            patterns: self.patterns,
            workgroups: self.workgroups,
            wg_wavefronts: self.wg_wavefronts,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k", 4, 2, 42);
        let p = b.pattern(AddressPattern::Stream { base: 0, region: 1 << 16 });
        b.begin_loop(10, 0);
        b.load(p);
        b.wait_all_loads();
        b.valu(2, 3);
        b.end_loop();
        b.finish()
    }

    #[test]
    fn builder_produces_valid_kernel() {
        let k = small_kernel();
        assert!(k.validate().is_ok());
        assert_eq!(k.code.len(), 1 + 1 + 3 + 1 + 1); // load, wait, 3 valu, branch, end
        assert!(matches!(k.code.last(), Some(Op::EndKernel)));
    }

    #[test]
    fn branch_targets_loop_head() {
        let k = small_kernel();
        let branch = k.code.iter().find_map(|op| match *op {
            Op::Branch { target, slot } => Some((target, slot)),
            _ => None,
        });
        assert_eq!(branch, Some((0, 0)));
    }

    #[test]
    #[should_panic(expected = "unclosed loop")]
    fn unclosed_loop_panics() {
        let mut b = KernelBuilder::new("bad", 1, 1, 0);
        b.begin_loop(2, 0);
        b.valu(1, 1);
        let _ = b.finish();
    }

    #[test]
    fn validate_rejects_bad_branch() {
        let k = Kernel {
            name: "bad".into(),
            code: vec![Op::Branch { target: 400, slot: 0 }, Op::EndKernel],
            loops: vec![LoopInfo { trips: 1, jitter: 0 }],
            patterns: vec![],
            workgroups: 1,
            wg_wavefronts: 1,
            seed: 0,
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_pattern() {
        let k = Kernel {
            name: "bad".into(),
            code: vec![Op::Load { pattern: 3 }, Op::EndKernel],
            loops: vec![],
            patterns: vec![],
            workgroups: 1,
            wg_wavefronts: 1,
            seed: 0,
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn addresses_are_line_aligned_and_deterministic() {
        let pats = [
            AddressPattern::Stream { base: 0x1000, region: 1 << 20 },
            AddressPattern::Tile { base: 0x2000, tile: 4096 },
            AddressPattern::Random { base: 0x4000, region: 1 << 22 },
            AddressPattern::Shared { base: 0x8000, region: 1 << 18 },
            AddressPattern::Strided { base: 0, stride: 256, region: 1 << 20 },
        ];
        for p in pats {
            for op in 0..50u64 {
                let a1 = p.address(7, op, 99);
                let a2 = p.address(7, op, 99);
                assert_eq!(a1, a2, "{p:?} not deterministic");
                assert_eq!(a1 % LINE_BYTES, 0, "{p:?} not line aligned");
            }
        }
    }

    #[test]
    fn shared_pattern_identical_across_wavefronts() {
        let p = AddressPattern::Shared { base: 0, region: 1 << 16 };
        for op in 0..20u64 {
            assert_eq!(p.address(1, op, 5), p.address(2, op, 5));
        }
    }

    #[test]
    fn tile_pattern_reuses_small_set() {
        let p = AddressPattern::Tile { base: 0, tile: 512 }; // 8 lines
        let mut seen: Vec<u64> = (0..100).map(|op| p.address(3, op, 1)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() <= 8);
    }

    #[test]
    fn loop_jitter_varies_by_wavefront_but_stays_positive() {
        let li = LoopInfo { trips: 10, jitter: 4 };
        let trips: Vec<u16> = (0..32).map(|wf| li.effective_trips(wf, 0, 9)).collect();
        assert!(trips.iter().all(|&t| (6..=14).contains(&t)));
        assert!(trips.windows(2).any(|w| w[0] != w[1]), "jitter had no effect");
        let fixed = LoopInfo { trips: 5, jitter: 0 };
        assert_eq!(fixed.effective_trips(123, 0, 9), 5);
    }

    #[test]
    fn app_counts_unique_kernels() {
        let k = small_kernel();
        let mut k2 = small_kernel();
        k2.name = "k2".into();
        let app = App::new("test", vec![k.clone(), k2, k]).unwrap();
        assert_eq!(app.unique_kernels(), 2);
    }

    #[test]
    fn app_rejects_empty() {
        assert!(App::new("empty", vec![]).is_err());
    }
}
