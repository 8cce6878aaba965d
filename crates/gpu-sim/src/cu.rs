//! Compute-unit model: oldest-first wavefront scheduling, in-order issue,
//! `s_waitcnt` stall semantics, per-CU L1, and per-epoch telemetry.
//!
//! Each CU runs in its own clock domain (its V/f island); the frequency may
//! change between epochs, at which point the cycle grid re-anchors and a
//! transition stall is applied by the GPU top level.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::isa::{pc_of_index, Op, Pc};
use crate::kernel::Kernel;
use crate::mem::{LocalOnly, MemoryPort};
use crate::stats::{CuEpochStats, OpMix, WfEpochStats};
use crate::time::{Femtos, Frequency};
use crate::wavefront::Wavefront;
use serde::{Deserialize, Serialize};
use snapshot::{Decoder, Encoder, SnapError, Snapshot};

/// Sentinel "no scheduled cycle" time for fully idle CUs.
pub const IDLE: Femtos = Femtos(u64::MAX);

/// `wf_state` flag: the slot holds a dispatched, unretired wavefront.
const WF_ACTIVE: u8 = 1;
/// `wf_state` flag: the wavefront is blocked at a workgroup barrier.
const WF_BARRIER: u8 = 1 << 1;
/// `wf_state` flag: the wavefront has executed `EndKernel`.
const WF_FINISHED: u8 = 1 << 2;

/// Reusable scratch for [`Cu::collect_into`] and the per-step ready list:
/// buffers that would otherwise be allocated fresh for every CU step or
/// every epoch collection.
///
/// `Clone` intentionally produces an *empty* scratch: the buffers carry no
/// state between epochs, so oracle forks (`Gpu::clone`) skip copying them.
#[derive(Debug, Default)]
pub struct CollectScratch {
    rank: Vec<u32>,
    /// Ready-list scratch for [`Cu::step_with`] in the serial event loop.
    pub(crate) ready: Vec<u32>,
}

impl Clone for CollectScratch {
    fn clone(&self) -> Self {
        CollectScratch::default()
    }
}

/// Per-workgroup bookkeeping within a CU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct WgState {
    active: bool,
    /// Live (unfinished) member wavefronts.
    remaining: u8,
    /// Members currently blocked at the barrier.
    at_barrier: u8,
}

impl WgState {
    fn empty() -> Self {
        WgState { active: false, remaining: 0, at_barrier: 0 }
    }
}

impl Snapshot for WgState {
    fn encode(&self, w: &mut Encoder) {
        let WgState { active, remaining, at_barrier } = *self;
        w.put_bool(active);
        w.put_u8(remaining);
        w.put_u8(at_barrier);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(WgState { active: r.take_bool()?, remaining: r.take_u8()?, at_barrier: r.take_u8()? })
    }
}

/// What happened during one CU step, reported to the GPU top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepOutcome {
    /// Workgroups that completed in this step (multi-issue can retire the
    /// final wavefronts of several workgroups in one cycle).
    pub workgroups_done: u32,
}

/// What a CU's next scheduling step would touch, from the lane
/// scheduler's point of view (see [`Cu::classify_step`]). Ordered by how
/// much coordination the step needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum StepClass {
    /// Touches only this CU's own state (including L1 probe-hits).
    Local,
    /// Reaches the shared L2/DRAM system but cannot retire a workgroup.
    /// Executable inline during the merge phase below the frontier
    /// horizon (see [`Cu::advance_merge`]).
    Mem,
    /// Contains an `EndKernel`, which may retire a workgroup and trigger
    /// the GPU-level dispatcher. Always yields to the coordinator.
    Dispatch,
}

/// Why [`Cu::advance_local`] stopped advancing a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneStop {
    /// The next step (at this time) would touch shared state — the lane
    /// yields to the merge phase, which replays the step against the real
    /// memory system in global `(time, cu)` order.
    Yield(Femtos),
    /// The lane's next cycle is at or beyond the sub-window end.
    Parked,
    /// The CU went fully idle (`next_cycle == IDLE`).
    Idle,
}

/// Non-issue interval classification for estimator telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Gap {
    MemOnly,
    StoreOnly,
    Idle,
}

impl Snapshot for Gap {
    fn encode(&self, w: &mut Encoder) {
        w.put_u8(match self {
            Gap::MemOnly => 0,
            Gap::StoreOnly => 1,
            Gap::Idle => 2,
        });
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Gap::MemOnly,
            1 => Gap::StoreOnly,
            2 => Gap::Idle,
            t => return Err(SnapError::invalid(format!("unknown Gap tag {t}"))),
        })
    }
}

/// A single compute unit.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Cu {
    /// CU id (index within the GPU).
    pub id: usize,
    freq: Frequency,
    period: Femtos,
    /// Next scheduled cycle time ([`IDLE`] when nothing to do).
    pub next_cycle: Femtos,
    /// Cold per-slot payload (identity, outstanding memory ops, telemetry).
    slots: Vec<Wavefront>,
    // ---- hot per-slot scheduling state, struct-of-arrays ----
    // The per-cycle ready scan reads only these dense arrays (one byte of
    // flags, one wait time per slot), not the cold payload above.
    /// [`WF_ACTIVE`] | [`WF_BARRIER`] | [`WF_FINISHED`] flags per slot.
    wf_state: Vec<u8>,
    /// Earliest time each slot may issue its next instruction.
    wf_wait: Vec<Femtos>,
    /// Current instruction index per slot (PC is `4 *` this).
    wf_pc: Vec<u32>,
    /// Dispatch order; the scheduler picks the smallest age first
    /// ("oldest-first", the policy the paper attributes contention to).
    wf_age: Vec<u64>,
    /// Live slots (`WF_ACTIVE` set, `WF_FINISHED` clear) in `(age, slot)`
    /// order — the scheduler's arbitration order, maintained incrementally
    /// at dispatch and retirement so the ready scan never sorts.
    sched_order: Vec<u32>,
    /// Slots with `WF_ACTIVE` set (occupancy; the complement is free).
    n_active: u32,
    wgs: Vec<WgState>,
    l1: Cache,
    l1_hit_lat: u64,
    issue_width: usize,
    // ---- CU-wide outstanding tracking (for leading-load & gap classing).
    cu_pending_loads: Vec<Femtos>,
    cu_pending_stores: Vec<Femtos>,
    // ---- epoch accounting ----
    epoch_start: Femtos,
    accounted_until: Femtos,
    /// Classification of the in-flight non-issue gap (charged lazily when
    /// the gap ends or at the epoch boundary, so boundary-spanning gaps are
    /// attributed to the right epochs).
    gap_class: Gap,
    e_committed: u64,
    e_busy: Femtos,
    e_mem_only: Femtos,
    e_store_only: Femtos,
    e_idle: Femtos,
    e_store_stall: Femtos,
    e_lead: Femtos,
    e_op_mix: OpMix,
}

/// Manual `Clone` so `clone_from` refreshes an existing CU in place: the
/// wavefront-slot vector, the L1 tag array and the pending-op lists all
/// reuse the destination's allocations (see `gpu::Gpu`'s clone docs).
impl Clone for Cu {
    fn clone(&self) -> Self {
        Cu {
            id: self.id,
            freq: self.freq,
            period: self.period,
            next_cycle: self.next_cycle,
            slots: self.slots.clone(),
            wf_state: self.wf_state.clone(),
            wf_wait: self.wf_wait.clone(),
            wf_pc: self.wf_pc.clone(),
            wf_age: self.wf_age.clone(),
            sched_order: self.sched_order.clone(),
            n_active: self.n_active,
            wgs: self.wgs.clone(),
            l1: self.l1.clone(),
            l1_hit_lat: self.l1_hit_lat,
            issue_width: self.issue_width,
            cu_pending_loads: self.cu_pending_loads.clone(),
            cu_pending_stores: self.cu_pending_stores.clone(),
            epoch_start: self.epoch_start,
            accounted_until: self.accounted_until,
            gap_class: self.gap_class,
            e_committed: self.e_committed,
            e_busy: self.e_busy,
            e_mem_only: self.e_mem_only,
            e_store_only: self.e_store_only,
            e_idle: self.e_idle,
            e_store_stall: self.e_store_stall,
            e_lead: self.e_lead,
            e_op_mix: self.e_op_mix,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        // Exhaustive destructuring: adding a field without updating this
        // copy is a compile error, not a silent stale-state bug.
        let Cu {
            id,
            freq,
            period,
            next_cycle,
            slots,
            wf_state,
            wf_wait,
            wf_pc,
            wf_age,
            sched_order,
            n_active,
            wgs,
            l1,
            l1_hit_lat,
            issue_width,
            cu_pending_loads,
            cu_pending_stores,
            epoch_start,
            accounted_until,
            gap_class,
            e_committed,
            e_busy,
            e_mem_only,
            e_store_only,
            e_idle,
            e_store_stall,
            e_lead,
            e_op_mix,
        } = src;
        self.id = *id;
        self.freq = *freq;
        self.period = *period;
        self.next_cycle = *next_cycle;
        // Element-wise Wavefront::clone_from keeps each slot's vectors.
        self.slots.clone_from(slots);
        self.wf_state.clone_from(wf_state);
        self.wf_wait.clone_from(wf_wait);
        self.wf_pc.clone_from(wf_pc);
        self.wf_age.clone_from(wf_age);
        self.sched_order.clone_from(sched_order);
        self.n_active = *n_active;
        self.wgs.clone_from(wgs);
        self.l1.clone_from(l1);
        self.l1_hit_lat = *l1_hit_lat;
        self.issue_width = *issue_width;
        self.cu_pending_loads.clone_from(cu_pending_loads);
        self.cu_pending_stores.clone_from(cu_pending_stores);
        self.epoch_start = *epoch_start;
        self.accounted_until = *accounted_until;
        self.gap_class = *gap_class;
        self.e_committed = *e_committed;
        self.e_busy = *e_busy;
        self.e_mem_only = *e_mem_only;
        self.e_store_only = *e_store_only;
        self.e_idle = *e_idle;
        self.e_store_stall = *e_store_stall;
        self.e_lead = *e_lead;
        self.e_op_mix = *e_op_mix;
    }
}

/// Mirrors the manual `Clone` above (same exhaustive destructuring, same
/// field order). Decoding re-establishes the CU's internal invariants —
/// `period` must be the decoded frequency's period and the workgroup table
/// must pair the slot table — so a corrupted checkpoint cannot produce a CU
/// whose cycle grid disagrees with its clock.
///
/// The wavefront region is encoded **interleaved**: each slot's hot SoA
/// values (state flags, wait, PC, age) are written at the wire positions
/// the pre-SoA `Wavefront` struct used for them, so the snapshot format is
/// byte-identical to the AoS layout. `sched_order` and `n_active` are
/// derived from the decoded state, never serialized.
impl Snapshot for Cu {
    fn encode(&self, w: &mut Encoder) {
        let Cu {
            id,
            freq,
            period,
            next_cycle,
            slots,
            wf_state,
            wf_wait,
            wf_pc,
            wf_age,
            sched_order: _, // derived from wf_state/wf_age on decode
            n_active: _,    // derived from wf_state on decode
            wgs,
            l1,
            l1_hit_lat,
            issue_width,
            cu_pending_loads,
            cu_pending_stores,
            epoch_start,
            accounted_until,
            gap_class,
            e_committed,
            e_busy,
            e_mem_only,
            e_store_only,
            e_idle,
            e_store_stall,
            e_lead,
            e_op_mix,
        } = self;
        w.put_usize(*id);
        freq.encode(w);
        period.encode(w);
        next_cycle.encode(w);
        w.put_usize(slots.len());
        for (i, wf) in slots.iter().enumerate() {
            w.put_bool(wf_state[i] & WF_ACTIVE != 0);
            w.put_u64(wf.uid);
            w.put_u64(wf_age[i]);
            w.put_u8(wf.wg_local);
            w.put_u32(wf.kernel_idx);
            w.put_u32(wf_pc[i]);
            w.put_usize(wf.branch_iters.len());
            for &it in &wf.branch_iters {
                w.put_u16(it);
            }
            w.put_u64(wf.mem_counter);
            wf.pending_loads.encode(w);
            wf.pending_stores.encode(w);
            wf_wait[i].encode(w);
            wf.mem_blocked_until.encode(w);
            w.put_bool(wf_state[i] & WF_BARRIER != 0);
            wf.barrier_since.encode(w);
            w.put_bool(wf_state[i] & WF_FINISHED != 0);
            w.put_u32(wf.e_committed);
            wf.e_stall.encode(w);
            wf.e_barrier_stall.encode(w);
            wf.e_sched_wait.encode(w);
            wf.e_lead.encode(w);
            w.put_u32(wf.e_start_pc_index);
            w.put_bool(wf.e_start_blocked);
            w.put_bool(wf.e_present);
        }
        wgs.encode(w);
        l1.encode(w);
        w.put_u64(*l1_hit_lat);
        w.put_usize(*issue_width);
        cu_pending_loads.encode(w);
        cu_pending_stores.encode(w);
        epoch_start.encode(w);
        accounted_until.encode(w);
        gap_class.encode(w);
        w.put_u64(*e_committed);
        e_busy.encode(w);
        e_mem_only.encode(w);
        e_store_only.encode(w);
        e_idle.encode(w);
        e_store_stall.encode(w);
        e_lead.encode(w);
        e_op_mix.encode(w);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let id = r.take_usize()?;
        let freq = Frequency::decode(r)?;
        let period = Femtos::decode(r)?;
        let next_cycle = Femtos::decode(r)?;
        let n = r.take_len()?;
        let mut slots = Vec::with_capacity(n);
        let mut wf_state = Vec::with_capacity(n);
        let mut wf_wait = Vec::with_capacity(n);
        let mut wf_pc = Vec::with_capacity(n);
        let mut wf_age = Vec::with_capacity(n);
        for _ in 0..n {
            let mut state = 0u8;
            if r.take_bool()? {
                state |= WF_ACTIVE;
            }
            let uid = r.take_u64()?;
            wf_age.push(r.take_u64()?);
            let wg_local = r.take_u8()?;
            let kernel_idx = r.take_u32()?;
            wf_pc.push(r.take_u32()?);
            let branch_iters = {
                let n = r.take_len()?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.take_u16()?);
                }
                v
            };
            let mem_counter = r.take_u64()?;
            let pending_loads = Vec::<Femtos>::decode(r)?;
            let pending_stores = Vec::<Femtos>::decode(r)?;
            wf_wait.push(Femtos::decode(r)?);
            let mem_blocked_until = Femtos::decode(r)?;
            if r.take_bool()? {
                state |= WF_BARRIER;
            }
            let barrier_since = Femtos::decode(r)?;
            if r.take_bool()? {
                state |= WF_FINISHED;
            }
            wf_state.push(state);
            slots.push(Wavefront {
                uid,
                wg_local,
                kernel_idx,
                branch_iters,
                mem_counter,
                pending_loads,
                pending_stores,
                mem_blocked_until,
                barrier_since,
                e_committed: r.take_u32()?,
                e_stall: Femtos::decode(r)?,
                e_barrier_stall: Femtos::decode(r)?,
                e_sched_wait: Femtos::decode(r)?,
                e_lead: Femtos::decode(r)?,
                e_start_pc_index: r.take_u32()?,
                e_start_blocked: r.take_bool()?,
                e_present: r.take_bool()?,
            });
        }
        let mut sched_order: Vec<u32> = (0..n as u32)
            .filter(|&i| {
                let s = wf_state[i as usize];
                s & WF_ACTIVE != 0 && s & WF_FINISHED == 0
            })
            .collect();
        sched_order.sort_unstable_by_key(|&i| (wf_age[i as usize], i));
        let n_active = wf_state.iter().filter(|&&s| s & WF_ACTIVE != 0).count() as u32;
        let cu = Cu {
            id,
            freq,
            period,
            next_cycle,
            slots,
            wf_state,
            wf_wait,
            wf_pc,
            wf_age,
            sched_order,
            n_active,
            wgs: Vec::<WgState>::decode(r)?,
            l1: Cache::decode(r)?,
            l1_hit_lat: r.take_u64()?,
            issue_width: r.take_usize()?,
            cu_pending_loads: Vec::<Femtos>::decode(r)?,
            cu_pending_stores: Vec::<Femtos>::decode(r)?,
            epoch_start: Femtos::decode(r)?,
            accounted_until: Femtos::decode(r)?,
            gap_class: Gap::decode(r)?,
            e_committed: r.take_u64()?,
            e_busy: Femtos::decode(r)?,
            e_mem_only: Femtos::decode(r)?,
            e_store_only: Femtos::decode(r)?,
            e_idle: Femtos::decode(r)?,
            e_store_stall: Femtos::decode(r)?,
            e_lead: Femtos::decode(r)?,
            e_op_mix: OpMix::decode(r)?,
        };
        if cu.period != cu.freq.period() {
            return Err(SnapError::invalid(format!(
                "CU {} period {} does not match frequency {}",
                cu.id, cu.period, cu.freq
            )));
        }
        if cu.slots.len() != cu.wgs.len() {
            return Err(SnapError::invalid(format!(
                "CU {} has {} wavefront slots but {} workgroup slots",
                cu.id,
                cu.slots.len(),
                cu.wgs.len()
            )));
        }
        if cu.issue_width == 0 {
            return Err(SnapError::invalid(format!("CU {} issue_width must be non-zero", cu.id)));
        }
        for (i, wf) in cu.slots.iter().enumerate() {
            if cu.wf_state[i] & WF_ACTIVE != 0 && wf.wg_local as usize >= cu.wgs.len() {
                return Err(SnapError::invalid(format!(
                    "CU {} wavefront {} references workgroup slot {} of {}",
                    cu.id,
                    wf.uid,
                    wf.wg_local,
                    cu.wgs.len()
                )));
            }
        }
        Ok(cu)
    }
}

impl Cu {
    /// Creates an idle CU.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        let freq = Frequency::from_mhz(cfg.initial_freq_mhz);
        Cu {
            id,
            freq,
            period: freq.period(),
            next_cycle: IDLE,
            slots: (0..cfg.wf_slots).map(|_| Wavefront::empty()).collect(),
            wf_state: vec![0; cfg.wf_slots],
            wf_wait: vec![Femtos::ZERO; cfg.wf_slots],
            wf_pc: vec![0; cfg.wf_slots],
            wf_age: vec![0; cfg.wf_slots],
            sched_order: Vec::with_capacity(cfg.wf_slots),
            n_active: 0,
            wgs: vec![WgState::empty(); cfg.wf_slots],
            l1: Cache::new(cfg.l1),
            l1_hit_lat: cfg.l1_hit_cycles as u64,
            issue_width: cfg.issue_width.max(1),
            cu_pending_loads: Vec::new(),
            cu_pending_stores: Vec::new(),
            epoch_start: Femtos::ZERO,
            accounted_until: Femtos::ZERO,
            gap_class: Gap::Idle,
            e_committed: 0,
            e_busy: Femtos::ZERO,
            e_mem_only: Femtos::ZERO,
            e_store_only: Femtos::ZERO,
            e_idle: Femtos::ZERO,
            e_store_stall: Femtos::ZERO,
            e_lead: Femtos::ZERO,
            e_op_mix: OpMix::default(),
        }
    }

    /// Current operating frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// Current clock period.
    pub fn period(&self) -> Femtos {
        self.period
    }

    /// Changes the operating frequency (takes effect for subsequent cycles).
    pub fn set_frequency(&mut self, freq: Frequency) {
        self.freq = freq;
        self.period = freq.period();
    }

    /// Instructions committed since the last [`Cu::begin_epoch`]. Within a
    /// run that never crosses an epoch boundary this is monotone, which
    /// makes it the retired-instruction watermark for the liveness meter
    /// in [`crate::gpu::Gpu::run_metered`].
    pub fn epoch_committed(&self) -> u64 {
        self.e_committed
    }

    /// Whether any live wavefront is resident.
    pub fn has_work(&self) -> bool {
        !self.sched_order.is_empty()
    }

    /// Number of live wavefronts.
    pub fn live_wavefronts(&self) -> u32 {
        self.sched_order.len() as u32
    }

    /// Read-only view of the wavefront slots' cold state (used by
    /// predictors that read identity fields at epoch boundaries). The hot
    /// scheduling fields live in SoA arrays; see [`Cu::wf_pc`] and
    /// [`Cu::wf_is_live`].
    pub fn wavefronts(&self) -> &[Wavefront] {
        &self.slots
    }

    /// Slot `slot`'s current PC as a byte address.
    #[inline]
    pub fn wf_pc(&self, slot: usize) -> Pc {
        pc_of_index(self.wf_pc[slot] as usize)
    }

    /// Whether slot `slot` holds a live (dispatched, unfinished) wavefront.
    #[inline]
    pub fn wf_is_live(&self, slot: usize) -> bool {
        let s = self.wf_state[slot];
        s & WF_ACTIVE != 0 && s & WF_FINISHED == 0
    }

    /// Tries to dispatch a workgroup of `wg_size` wavefronts of kernel
    /// `kernel_idx` at time `now`. Returns `true` on success (enough free
    /// slots), `false` if the CU is full.
    pub fn try_dispatch_wg(
        &mut self,
        kernel: &Kernel,
        kernel_idx: u32,
        first_uid: u64,
        first_age: u64,
        now: Femtos,
    ) -> bool {
        let wg_size = kernel.wg_wavefronts as usize;
        if self.free_slots() < wg_size {
            return false;
        }
        let wg_local = self
            .wgs
            .iter()
            .position(|g| !g.active)
            .expect("free wavefront slots imply a free workgroup slot");
        self.wgs[wg_local] = WgState { active: true, remaining: wg_size as u8, at_barrier: 0 };
        let mut k = 0u64;
        for slot in 0..self.slots.len() {
            if k == wg_size as u64 {
                break;
            }
            if self.wf_state[slot] & WF_ACTIVE != 0 {
                continue;
            }
            let age = first_age + k;
            self.slots[slot].dispatch(
                first_uid + k,
                wg_local as u8,
                kernel_idx,
                kernel.loops.len(),
            );
            self.wf_state[slot] = WF_ACTIVE;
            self.wf_wait[slot] = now;
            self.wf_pc[slot] = 0;
            self.wf_age[slot] = age;
            // Dispatch ages are normally globally monotone, so this insert
            // is an append; binary search keeps arbitrary ages correct.
            let pos = self
                .sched_order
                .partition_point(|&s| (self.wf_age[s as usize], s) < (age, slot as u32));
            self.sched_order.insert(pos, slot as u32);
            self.n_active += 1;
            k += 1;
        }
        // Re-anchor the cycle grid at dispatch when the CU was idle or had
        // skipped ahead past `now`.
        if self.next_cycle == IDLE || self.next_cycle > now {
            self.next_cycle = now;
        }
        true
    }

    /// Executes one scheduling step at time `now` (which must equal
    /// `next_cycle`), advancing `next_cycle`. Allocates a fresh ready
    /// list; hot loops use [`Cu::step_with`] with reusable scratch.
    pub fn step<M: MemoryPort>(
        &mut self,
        now: Femtos,
        mem: &mut M,
        app_kernels: &[Kernel],
    ) -> StepOutcome {
        let mut ready = Vec::new();
        self.step_with(now, mem, app_kernels, &mut ready)
    }

    /// [`Cu::step`] with caller-owned ready-list scratch, so steady-state
    /// stepping never touches the allocator.
    pub(crate) fn step_with<M: MemoryPort>(
        &mut self,
        now: Femtos,
        mem: &mut M,
        app_kernels: &[Kernel],
        ready: &mut Vec<u32>,
    ) -> StepOutcome {
        let wake = self.collect_ready(now, ready);
        self.step_selected(now, mem, app_kernels, ready, wake)
    }

    /// Fills `ready` with the slots of wavefronts ready at `now`, in age
    /// order — the scheduler's arbitration input — and returns the earliest
    /// wait among the others not blocked at a barrier ([`IDLE`] if none):
    /// the wake-up [`Cu::step_selected`] skips to when nothing is ready.
    /// `sched_order` is already age-sorted, so this is one pass over two
    /// dense arrays with no sort. Split out of [`Cu::step`] so the lane
    /// scheduler can classify a step (local vs. global) and then execute
    /// it without re-collecting.
    fn collect_ready(&self, now: Femtos, ready: &mut Vec<u32>) -> Femtos {
        ready.clear();
        let mut wake = IDLE;
        for &slot in &self.sched_order {
            let i = slot as usize;
            if self.wf_state[i] & WF_BARRIER == 0 {
                let wait = self.wf_wait[i];
                if wait <= now {
                    ready.push(slot);
                } else {
                    wake = wake.min(wait);
                }
            }
        }
        wake
    }

    /// Classifies the step that would execute at `now` with arbitration
    /// input `ready`, from the lane scheduler's point of view.
    ///
    /// Ops are examined in the order [`Cu::step_selected`] issues them
    /// (oldest first, up to `issue_width`). An `EndKernel` may retire a
    /// workgroup and trigger GPU-level dispatch ([`StepClass::Dispatch`]);
    /// a `Store` always reaches shared memory, and a `Load` does exactly
    /// when it misses L1 ([`StepClass::Mem`]). The probe sequence mirrors
    /// execution: issued loads that *hit* only rotate L1 LRU recency —
    /// they never change residency ([`Cache::probe`] vs.
    /// [`Cache::access`]) — so while every earlier op was a local hit,
    /// probing against the pre-step tags gives the same hit/miss answers
    /// execution would. Once the class is `Mem` further probes are skipped
    /// (their answers could no longer affect it) and the scan continues
    /// only to detect `EndKernel`, which is an opcode property independent
    /// of cache state. The first global op taints the whole step (earlier
    /// local ops in the same cycle still execute with it at merge time,
    /// exactly as the serial loop would have).
    pub(crate) fn classify_step(&self, app_kernels: &[Kernel], ready: &[u32]) -> StepClass {
        let mut class = StepClass::Local;
        for &j in ready.iter().take(self.issue_width) {
            let j = j as usize;
            let wf = &self.slots[j];
            let kernel = &app_kernels[wf.kernel_idx as usize];
            match kernel.code[self.wf_pc[j] as usize] {
                Op::EndKernel => return StepClass::Dispatch,
                Op::Store { .. } => class = StepClass::Mem,
                Op::Load { pattern } if class == StepClass::Local => {
                    let addr = kernel.patterns[pattern as usize].address(
                        wf.uid,
                        wf.mem_counter,
                        kernel.seed,
                    );
                    if !self.l1.probe(addr) {
                        class = StepClass::Mem;
                    }
                }
                _ => {}
            }
        }
        class
    }

    /// Number of wavefront slots not currently occupied. Only a global
    /// (merged) `EndKernel` step can grow this, which is what makes the
    /// dispatch-vulnerability test in [`Cu::advance_local`] stable across
    /// a whole run of lane-local steps.
    pub(crate) fn free_slots(&self) -> usize {
        self.slots.len() - self.n_active as usize
    }

    /// Runs this lane forward through purely CU-local steps until it must
    /// synchronize: the next step needs shared state ([`LaneStop::Yield`]),
    /// the sub-window ends ([`LaneStop::Parked`]), or the CU drains
    /// ([`LaneStop::Idle`]). Only touches this CU's own state, so distinct
    /// lanes may run concurrently; `ready` is caller-owned scratch.
    ///
    /// `dispatch_slots` is the dispatch-vulnerability threshold: while
    /// workgroups of the current kernel remain undispatched, a CU with at
    /// least a workgroup's worth of free slots can receive a dispatch at
    /// *any* other lane's retirement time — a time this lane cannot see.
    /// Running ahead of the merge frontier would then be wrong (the serial
    /// loop re-anchors the CU to the dispatch time and lets the new
    /// wavefronts join arbitration immediately), so a vulnerable lane
    /// yields every step to the coordinator instead, which interleaves it
    /// at exactly the serial `(time, cu)` order. Free slots only grow at
    /// this CU's own merged `EndKernel` steps, so vulnerability cannot
    /// change mid-advance. Callers with no dispatch pending pass
    /// `usize::MAX` (immune).
    pub(crate) fn advance_local(
        &mut self,
        window_end: Femtos,
        app_kernels: &[Kernel],
        dispatch_slots: usize,
        ready: &mut Vec<u32>,
    ) -> LaneStop {
        let vulnerable = self.free_slots() >= dispatch_slots;
        loop {
            let t = self.next_cycle;
            if t == IDLE {
                return LaneStop::Idle;
            }
            if t >= window_end {
                return LaneStop::Parked;
            }
            if vulnerable {
                return LaneStop::Yield(t);
            }
            let wake = self.collect_ready(t, ready);
            if self.classify_step(app_kernels, ready) != StepClass::Local {
                return LaneStop::Yield(t);
            }
            let out = self.step_selected(t, &mut LocalOnly, app_kernels, ready, wake);
            debug_assert_eq!(out.workgroups_done, 0, "local step retired a workgroup");
        }
    }

    /// [`Cu::advance_local`] for the merge phase, where the coordinator
    /// owns the real memory system and the merge frontier gives this lane
    /// an exclusivity *horizon*: every other lane's next shared-state step
    /// is at or after `horizon` (it is the minimum over the pending-yield
    /// heap and the sub-window end). Two relaxations follow, both exactly
    /// order-preserving:
    ///
    /// - Strictly below `horizon`, [`StepClass::Mem`] steps execute inline
    ///   against the real `mem`: each such step is the globally minimal
    ///   remaining `(time, cu)` shared step, so this is precisely the
    ///   serial loop's order. A lane's `next_cycle` is strictly
    ///   increasing, so its own inline steps also replay in serial order.
    /// - Strictly below `horizon`, dispatch vulnerability is ignored:
    ///   dispatches originate only from merged `EndKernel` retirements,
    ///   which all occur at or after `horizon`, so none can land in the
    ///   interval this lane is running through.
    ///
    /// [`StepClass::Dispatch`] steps always yield — the coordinator must
    /// observe workgroup retirement to run the dispatcher. At or beyond
    /// `horizon` the Phase-A rules of [`Cu::advance_local`] apply
    /// unchanged.
    pub(crate) fn advance_merge<M: MemoryPort>(
        &mut self,
        horizon: Femtos,
        window_end: Femtos,
        mem: &mut M,
        app_kernels: &[Kernel],
        dispatch_slots: usize,
        ready: &mut Vec<u32>,
    ) -> LaneStop {
        loop {
            let t = self.next_cycle;
            if t == IDLE {
                return LaneStop::Idle;
            }
            if t >= window_end {
                return LaneStop::Parked;
            }
            let wake = self.collect_ready(t, ready);
            let class = self.classify_step(app_kernels, ready);
            if t >= horizon {
                // Other lanes' shared steps may interleave from here on:
                // fall back to the Phase-A rules (free slots only grow at
                // this CU's own merged EndKernel steps, so vulnerability
                // is stable across the local steps taken above).
                if self.free_slots() >= dispatch_slots || class != StepClass::Local {
                    return LaneStop::Yield(t);
                }
                let out = self.step_selected(t, &mut LocalOnly, app_kernels, ready, wake);
                debug_assert_eq!(out.workgroups_done, 0, "local step retired a workgroup");
            } else {
                if class == StepClass::Dispatch {
                    return LaneStop::Yield(t);
                }
                let out = self.step_selected(t, mem, app_kernels, ready, wake);
                debug_assert_eq!(out.workgroups_done, 0, "non-dispatch step retired a workgroup");
            }
        }
    }

    /// The body of [`Cu::step`] with the arbitration input and the
    /// not-ready wake-up precomputed by [`Cu::collect_ready`].
    fn step_selected<M: MemoryPort>(
        &mut self,
        now: Femtos,
        mem: &mut M,
        app_kernels: &[Kernel],
        ready: &[u32],
        wake: Femtos,
    ) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        if !ready.is_empty() {
            // Close any in-flight gap first.
            let gap = self.gap_class;
            self.account(gap, self.accounted_until, now);
            for &j in ready.iter().skip(self.issue_width) {
                self.slots[j as usize].e_sched_wait += self.period;
            }
            for &j in ready.iter().take(self.issue_width) {
                self.issue(j as usize, now, mem, app_kernels, &mut outcome);
            }
            self.add_busy(now, now + self.period);
            self.next_cycle = now + self.period;
        } else {
            // Nothing ready: skip ahead to the next wake-up. `sched_order`
            // holds exactly the live slots, and with none ready `wake` is
            // `IDLE` only if every one of them waits at a barrier.
            if self.sched_order.is_empty() {
                self.gap_class = Gap::Idle;
                self.next_cycle = IDLE;
                return outcome;
            }
            assert!(
                wake != IDLE,
                "CU {}: all live wavefronts blocked at a barrier (kernel deadlock)",
                self.id
            );
            debug_assert!(wake > now);
            // Classify now; charge when the gap ends (or at the epoch
            // boundary flush), so boundary-spanning gaps split correctly.
            self.gap_class = self.classify_gap(now);
            self.next_cycle = wake.align_up(now, self.period);
        }
        outcome
    }

    /// Charges any in-flight gap up to `until` — call at epoch boundaries
    /// before [`Cu::collect`] so accounting never spills across epochs.
    pub fn flush_accounting(&mut self, until: Femtos) {
        let gap = self.gap_class;
        self.account(gap, self.accounted_until, until);
    }

    fn classify_gap(&mut self, now: Femtos) -> Gap {
        self.cu_pending_loads.retain(|&t| t > now);
        if !self.cu_pending_loads.is_empty() {
            return Gap::MemOnly;
        }
        self.cu_pending_stores.retain(|&t| t > now);
        if !self.cu_pending_stores.is_empty() {
            Gap::StoreOnly
        } else {
            Gap::Idle
        }
    }

    fn add_busy(&mut self, from: Femtos, to: Femtos) {
        let s = from.max(self.accounted_until);
        if to > s {
            self.e_busy += to - s;
            self.accounted_until = to;
        }
    }

    fn account(&mut self, gap: Gap, from: Femtos, to: Femtos) {
        let s = from.max(self.accounted_until);
        if to > s {
            let d = to - s;
            match gap {
                Gap::MemOnly => self.e_mem_only += d,
                Gap::StoreOnly => self.e_store_only += d,
                Gap::Idle => self.e_idle += d,
            }
            self.accounted_until = to;
        }
    }

    fn issue<M: MemoryPort>(
        &mut self,
        slot: usize,
        now: Femtos,
        mem: &mut M,
        app_kernels: &[Kernel],
        outcome: &mut StepOutcome,
    ) {
        let period = self.period;
        let cu_id = self.id;
        let l1_lat = self.l1_hit_lat;
        let wf = &mut self.slots[slot];
        let kernel = &app_kernels[wf.kernel_idx as usize];
        let op = kernel.code[self.wf_pc[slot] as usize];
        if op.counts_as_committed() {
            wf.e_committed += 1;
            self.e_committed += 1;
        }
        match op {
            Op::Valu { .. } => self.e_op_mix.valu += 1,
            Op::Salu => self.e_op_mix.salu += 1,
            Op::Load { .. } => self.e_op_mix.loads += 1,
            Op::Store { .. } => self.e_op_mix.stores += 1,
            Op::Waitcnt { .. } => self.e_op_mix.waitcnt += 1,
            Op::Branch { .. } => self.e_op_mix.branches += 1,
            Op::Barrier | Op::EndKernel => {}
        }
        let wf = &mut self.slots[slot];
        match op {
            Op::Valu { lat } => {
                self.wf_wait[slot] = now + period * lat as u64;
                self.wf_pc[slot] += 1;
            }
            Op::Salu => {
                self.wf_wait[slot] = now + period;
                self.wf_pc[slot] += 1;
            }
            Op::Load { pattern } => {
                let addr =
                    kernel.patterns[pattern as usize].address(wf.uid, wf.mem_counter, kernel.seed);
                wf.mem_counter += 1;
                let hit = self.l1.access(addr);
                let complete = if hit {
                    now + period * l1_lat
                } else {
                    mem.load(cu_id, addr, now, period).complete_at
                };
                wf.drain_loads(now);
                if wf.pending_loads.is_empty() {
                    wf.e_lead += complete - now;
                }
                wf.pending_loads.push(complete);
                // CU-level leading-load tracking.
                self.cu_pending_loads.retain(|&t| t > now);
                if self.cu_pending_loads.is_empty() {
                    self.e_lead += complete - now;
                }
                self.cu_pending_loads.push(complete);
                self.wf_wait[slot] = now + period;
                self.wf_pc[slot] += 1;
            }
            Op::Store { pattern } => {
                let addr =
                    kernel.patterns[pattern as usize].address(wf.uid, wf.mem_counter, kernel.seed);
                wf.mem_counter += 1;
                let ack = mem.store(cu_id, addr, now, period).complete_at;
                wf.drain_stores(now);
                wf.pending_stores.push(ack);
                self.cu_pending_stores.retain(|&t| t > now);
                self.cu_pending_stores.push(ack);
                self.wf_wait[slot] = now + period;
                self.wf_pc[slot] += 1;
            }
            Op::Waitcnt { vm, st } => {
                wf.drain_loads(now);
                wf.drain_stores(now);
                let load_target =
                    if vm == u8::MAX { now } else { wf.loads_satisfied_at(now, vm as usize) };
                let store_target =
                    if st == u8::MAX { now } else { wf.stores_satisfied_at(now, st as usize) };
                let target = load_target.max(store_target);
                if target > now {
                    wf.e_stall += target - now;
                    wf.mem_blocked_until = target;
                    if store_target > load_target {
                        // Portion of the stall exposed purely by stores.
                        self.e_store_stall += store_target - load_target.max(now);
                    }
                }
                self.wf_wait[slot] = target.max(now + period);
                self.wf_pc[slot] += 1;
            }
            Op::Barrier => {
                self.wf_state[slot] |= WF_BARRIER;
                wf.barrier_since = now;
                self.wf_pc[slot] += 1;
                let wg_local = wf.wg_local as usize;
                self.wgs[wg_local].at_barrier += 1;
                self.maybe_release_barrier(wg_local, now);
            }
            Op::Branch { target, slot: lslot } => {
                let li = kernel.loops[lslot as usize];
                let trips = li.effective_trips(wf.uid, lslot, kernel.seed);
                let iters = &mut wf.branch_iters[lslot as usize];
                *iters += 1;
                if *iters < trips {
                    self.wf_pc[slot] = target / 4;
                } else {
                    *iters = 0;
                    self.wf_pc[slot] += 1;
                }
                self.wf_wait[slot] = now + period;
            }
            Op::EndKernel => {
                self.wf_state[slot] = (self.wf_state[slot] | WF_FINISHED) & !WF_ACTIVE;
                self.n_active -= 1;
                let pos = self
                    .sched_order
                    .iter()
                    .position(|&s| s == slot as u32)
                    .expect("retiring wavefront is live, so it is in sched_order");
                self.sched_order.remove(pos);
                let wg_local = wf.wg_local as usize;
                let wg = &mut self.wgs[wg_local];
                wg.remaining -= 1;
                if wg.remaining == 0 {
                    wg.active = false;
                    outcome.workgroups_done += 1;
                } else {
                    // A straggler finishing can complete a barrier.
                    self.maybe_release_barrier(wg_local, now);
                }
            }
        }
    }

    fn maybe_release_barrier(&mut self, wg_local: usize, now: Femtos) {
        let wg = self.wgs[wg_local];
        if wg.active && wg.remaining > 0 && wg.at_barrier == wg.remaining {
            let period = self.period;
            let epoch_start = self.epoch_start;
            for &s in &self.sched_order {
                let i = s as usize;
                if self.wf_state[i] & WF_BARRIER != 0 && self.slots[i].wg_local as usize == wg_local
                {
                    self.wf_state[i] &= !WF_BARRIER;
                    let wf = &mut self.slots[i];
                    wf.e_barrier_stall += now - wf.barrier_since.max(epoch_start);
                    self.wf_wait[i] = now + period;
                }
            }
            self.wgs[wg_local].at_barrier = 0;
        }
    }

    /// Resets per-epoch telemetry; call at every epoch boundary.
    pub fn begin_epoch(&mut self, epoch_start: Femtos) {
        self.epoch_start = epoch_start;
        self.e_committed = 0;
        self.e_busy = Femtos::ZERO;
        self.e_mem_only = Femtos::ZERO;
        self.e_store_only = Femtos::ZERO;
        self.e_idle = Femtos::ZERO;
        self.e_store_stall = Femtos::ZERO;
        self.e_lead = Femtos::ZERO;
        self.e_op_mix = OpMix::default();
        self.accounted_until = self.accounted_until.max(epoch_start);
        self.l1.reset_counters();
        for (i, wf) in self.slots.iter_mut().enumerate() {
            let s = self.wf_state[i];
            let live = s & WF_ACTIVE != 0 && s & WF_FINISHED == 0;
            wf.begin_epoch(epoch_start, self.wf_pc[i], live);
        }
    }

    /// Snapshots this epoch's telemetry. `epoch_end` clamps boundary-
    /// spanning stall attributions to this epoch's window.
    pub fn collect(&self, epoch_end: Femtos) -> CuEpochStats {
        let mut out = CuEpochStats::zeroed();
        self.collect_into(epoch_end, &mut out, &mut CollectScratch::default());
        out
    }

    /// Like [`Cu::collect`], but writes into an existing snapshot and
    /// sorting scratch so steady-state epoch collection allocates nothing.
    pub fn collect_into(
        &self,
        epoch_end: Femtos,
        out: &mut CuEpochStats,
        scratch: &mut CollectScratch,
    ) {
        // Age ranks among live wavefronts: `sched_order` is already the
        // live slots in age order, so ranking is a single pass, no sort.
        let CollectScratch { rank, ready: _ } = scratch;
        rank.clear();
        rank.resize(self.slots.len(), u32::MAX);
        for (r, &i) in self.sched_order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        out.freq = self.freq;
        out.issue_width = self.issue_width as u32;
        out.committed = self.e_committed;
        out.busy = self.e_busy;
        out.mem_only = self.e_mem_only;
        out.store_only = self.e_store_only;
        out.idle = self.e_idle;
        out.store_stall = self.e_store_stall;
        out.lead_time = self.e_lead;
        out.l1_hits = self.l1.hits();
        out.l1_misses = self.l1.misses();
        out.active_wavefronts = self.live_wavefronts();
        out.op_mix = self.e_op_mix;
        out.wf.truncate(self.slots.len());
        for (i, w) in self.slots.iter().enumerate() {
            let stats = WfEpochStats {
                present: w.e_present || w.e_committed > 0,
                uid: w.uid,
                age_rank: rank[i],
                start_pc: pc_of_index(w.e_start_pc_index as usize),
                start_blocked: w.e_start_blocked,
                end_pc: pc_of_index(self.wf_pc[i] as usize),
                kernel_idx: w.kernel_idx,
                committed: w.e_committed,
                // Remove any stall tail extending beyond this epoch (it is
                // re-charged to the next epoch by `begin_epoch`), then
                // clamp to the epoch window.
                stall: w
                    .e_stall
                    .saturating_sub(w.mem_blocked_until.saturating_sub(epoch_end))
                    .min(epoch_end.saturating_sub(self.epoch_start)),
                barrier_stall: w.e_barrier_stall,
                sched_wait: w.e_sched_wait,
                lead_time: w.e_lead,
                finished: self.wf_state[i] & WF_FINISHED != 0,
            };
            match out.wf.get_mut(i) {
                Some(slot) => *slot = stats,
                None => out.wf.push(stats),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AddressPattern, KernelBuilder};
    use crate::mem::{MemConfig, MemSystem};

    fn cfg() -> GpuConfig {
        GpuConfig { n_cus: 1, wf_slots: 8, ..GpuConfig::default() }
    }

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::default(), 1)
    }

    fn compute_kernel(wgs: u32, wg_wf: u8) -> Kernel {
        compute_kernel_trips(wgs, wg_wf, 4)
    }

    fn compute_kernel_trips(wgs: u32, wg_wf: u8, trips: u16) -> Kernel {
        let mut b = KernelBuilder::new("compute", wgs, wg_wf, 1);
        b.begin_loop(trips, 0);
        b.valu(1, 8);
        b.end_loop();
        b.finish()
    }

    #[test]
    fn dispatch_fills_slots() {
        let mut cu = Cu::new(0, &cfg());
        let k = compute_kernel(1, 4);
        assert!(cu.try_dispatch_wg(&k, 0, 0, 0, Femtos::ZERO));
        assert_eq!(cu.live_wavefronts(), 4);
        // Second wg of 4 fits in 8 slots; third does not.
        assert!(cu.try_dispatch_wg(&k, 0, 4, 4, Femtos::ZERO));
        assert!(!cu.try_dispatch_wg(&k, 0, 8, 8, Femtos::ZERO));
    }

    #[test]
    fn single_wavefront_executes_to_completion() {
        let mut cu = Cu::new(0, &cfg());
        let k = compute_kernel(1, 1);
        let kernels = vec![k];
        cu.try_dispatch_wg(&kernels[0], 0, 0, 0, Femtos::ZERO);
        cu.begin_epoch(Femtos::ZERO);
        let mut m = mem();
        let mut done = false;
        for _ in 0..1000 {
            if cu.next_cycle == IDLE {
                done = true;
                break;
            }
            let t = cu.next_cycle;
            let out = cu.step(t, &mut m, &kernels);
            if out.workgroups_done > 0 {
                done = true;
                break;
            }
        }
        assert!(done, "kernel never finished");
        // 4 iterations x (8 valu + 1 branch) committed.
        let s = cu.collect(Femtos::from_micros(1));
        assert_eq!(s.committed, 4 * 9);
    }

    #[test]
    fn oldest_first_scheduling_prefers_lower_age() {
        let mut single = cfg();
        single.issue_width = 1;
        let mut cu = Cu::new(0, &single);
        let k = compute_kernel(2, 1);
        let kernels = vec![k];
        cu.try_dispatch_wg(&kernels[0], 0, 0, 5, Femtos::ZERO); // age 5
        cu.try_dispatch_wg(&kernels[0], 0, 1, 2, Femtos::ZERO); // age 2 (older)
        cu.begin_epoch(Femtos::ZERO);
        let mut m = mem();
        let t = cu.next_cycle;
        cu.step(t, &mut m, &kernels);
        // The age-2 wavefront must have issued; age-5 charged sched wait
        // only if it was ready (it was).
        let s = cu.collect(Femtos::from_micros(1));
        let by_age: Vec<_> = s.wf.iter().filter(|w| w.present).collect();
        let younger = by_age.iter().find(|w| w.age_rank == 1).unwrap();
        let older = by_age.iter().find(|w| w.age_rank == 0).unwrap();
        assert_eq!(older.committed, 1);
        assert_eq!(younger.committed, 0);
        assert!(younger.sched_wait > Femtos::ZERO);
    }

    #[test]
    fn waitcnt_blocks_and_accumulates_stall() {
        let mut cu = Cu::new(0, &cfg());
        let mut b = KernelBuilder::new("ld", 1, 1, 7);
        let p = b.pattern(AddressPattern::Random { base: 0, region: 1 << 26 });
        b.load(p);
        b.wait_all_loads();
        b.valu(1, 1);
        let kernels = vec![b.finish()];
        cu.try_dispatch_wg(&kernels[0], 0, 0, 0, Femtos::ZERO);
        cu.begin_epoch(Femtos::ZERO);
        let mut m = mem();
        for _ in 0..100 {
            if cu.next_cycle == IDLE {
                break;
            }
            let t = cu.next_cycle;
            cu.step(t, &mut m, &kernels);
        }
        let s = cu.collect(Femtos::from_micros(1));
        let wf = s.wf.iter().find(|w| w.present || w.committed > 0).unwrap();
        assert!(wf.stall > Femtos::from_nanos(50), "expected a DRAM-scale stall, got {}", wf.stall);
        assert!(wf.lead_time > Femtos::ZERO);
        assert!(s.mem_only > Femtos::ZERO, "gap should be classified as memory time");
    }

    #[test]
    fn barrier_synchronizes_workgroup() {
        let mut cu = Cu::new(0, &cfg());
        let mut b = KernelBuilder::new("bar", 1, 2, 3);
        b.valu(1, 1);
        b.barrier();
        b.valu(1, 1);
        let kernels = vec![b.finish()];
        // Make wavefront 0 slower before the barrier by staggering dispatch
        // readiness: both dispatch together, but scheduler serializes; the
        // barrier must still release both.
        cu.try_dispatch_wg(&kernels[0], 0, 0, 0, Femtos::ZERO);
        cu.begin_epoch(Femtos::ZERO);
        let mut m = mem();
        let mut wg_done = false;
        for _ in 0..100 {
            if cu.next_cycle == IDLE {
                break;
            }
            let t = cu.next_cycle;
            if cu.step(t, &mut m, &kernels).workgroups_done > 0 {
                wg_done = true;
                break;
            }
        }
        assert!(wg_done, "barrier deadlocked the workgroup");
    }

    #[test]
    fn frequency_scales_compute_throughput() {
        let run = |mhz: u32| -> u64 {
            let mut cu = Cu::new(0, &cfg());
            cu.set_frequency(Frequency::from_mhz(mhz));
            // Enough work that the 1us window ends before the kernel does.
            let k = compute_kernel_trips(1, 4, 2000);
            let kernels = vec![k];
            cu.try_dispatch_wg(&kernels[0], 0, 0, 0, Femtos::ZERO);
            cu.begin_epoch(Femtos::ZERO);
            let mut m = mem();
            let end = Femtos::from_micros(1);
            while cu.next_cycle != IDLE && cu.next_cycle < end {
                let t = cu.next_cycle;
                cu.step(t, &mut m, &kernels);
            }
            cu.collect(Femtos::from_micros(1)).committed
        };
        let slow = run(1300);
        let fast = run(2200);
        // Pure compute: committed scales ~linearly with f (within a cycle).
        let ratio = fast as f64 / slow as f64;
        assert!((ratio - 2200.0 / 1300.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn busy_plus_gaps_cover_epoch_for_saturated_cu() {
        let mut cu = Cu::new(0, &cfg());
        let k = compute_kernel_trips(1, 4, 2000);
        let kernels = vec![k];
        cu.try_dispatch_wg(&kernels[0], 0, 0, 0, Femtos::ZERO);
        cu.begin_epoch(Femtos::ZERO);
        let mut m = mem();
        let end = Femtos::from_micros(1);
        while cu.next_cycle != IDLE && cu.next_cycle < end {
            let t = cu.next_cycle;
            cu.step(t, &mut m, &kernels);
        }
        let s = cu.collect(Femtos::from_micros(1));
        let covered = s.busy + s.mem_only + s.store_only + s.idle;
        // Saturated compute: busy should dominate and cover ~the epoch.
        assert!(covered.as_fs() as f64 >= 0.95 * end.as_fs() as f64, "covered {covered}");
        assert!(s.busy.as_fs() as f64 >= 0.9 * end.as_fs() as f64);
    }
}
