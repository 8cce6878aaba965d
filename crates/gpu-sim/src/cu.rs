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
use crate::mem::MemSystem;
use crate::stats::{CuEpochStats, OpMix, WfEpochStats};
use crate::time::{Femtos, Frequency};
use crate::wavefront::Wavefront;
use snapshot::{Decoder, Encoder, SnapError, Snapshot};

/// Sentinel "no scheduled cycle" time for fully idle CUs.
pub const IDLE: Femtos = Femtos(u64::MAX);

/// `wf_state` flag: the slot holds a dispatched, unretired wavefront.
const WF_ACTIVE: u8 = 1;
/// `wf_state` flag: the wavefront is blocked at a workgroup barrier.
const WF_BARRIER: u8 = 1 << 1;
/// `wf_state` flag: the wavefront has executed `EndKernel`.
const WF_FINISHED: u8 = 1 << 2;

/// Ready-set horizon in cycles: a wait set less than this far past the
/// issuing cycle keeps its wavefront in the per-step scan (`near`); a
/// longer one parks it in `far` until `far_min` comes due. Any split
/// gives the same ready list and wake-up; this only trades scan length
/// against how often `far` is swept.
const NEAR_CYCLES: u64 = 32;

/// Initial capacity of each CU-wide pending list: enough stale entries
/// between compactions that the sweep cost per push stays a small
/// constant, and enough room that steady-state epochs never grow it.
const PENDING_CAP: usize = 256;

/// A set of `sched_order` positions, one bit each, over as many 64-bit
/// words as the CU has wavefront slots. Inserting or removing a position
/// shifts every later one, mirroring `Vec::insert`/`Vec::remove` on
/// `sched_order`.
#[derive(Debug)]
struct PosBits(Vec<u64>);

impl Clone for PosBits {
    fn clone(&self) -> Self {
        PosBits(self.0.clone())
    }

    fn clone_from(&mut self, src: &Self) {
        self.0.clone_from(&src.0);
    }
}

impl PosBits {
    fn new(positions: usize) -> Self {
        PosBits(vec![0; positions.div_ceil(64).max(1)])
    }

    #[inline]
    fn set(&mut self, p: usize) {
        self.0[p / 64] |= 1 << (p % 64);
    }

    #[inline]
    fn clear(&mut self, p: usize) {
        self.0[p / 64] &= !(1 << (p % 64));
    }

    /// Opens a clear bit at `p`, moving every position `>= p` up by one.
    fn insert(&mut self, p: usize) {
        let (w, b) = (p / 64, p % 64);
        for i in (w + 1..self.0.len()).rev() {
            self.0[i] = (self.0[i] << 1) | (self.0[i - 1] >> 63);
        }
        let x = self.0[w];
        let low = (1u64 << b) - 1;
        self.0[w] = (x & low) | ((x & !low) << 1);
    }

    /// Drops bit `p`, moving every position `> p` down by one.
    fn remove(&mut self, p: usize) {
        let (w, b) = (p / 64, p % 64);
        let x = self.0[w];
        let low = (1u64 << b) - 1;
        self.0[w] = (x & low) | ((x >> 1) & !low);
        for i in w + 1..self.0.len() {
            self.0[i - 1] |= (self.0[i] & 1) << 63;
            self.0[i] >>= 1;
        }
    }
}

/// Completion times of the CU's outstanding loads (or stores), swept
/// lazily.
///
/// The CU only ever asks "is anything still pending after `now`?", and its
/// step times never decrease, so every entry at or before the latest sweep
/// time is dead for good. A sweep therefore just records its time;
/// answering it is `max > now`. The dead entries are dropped only when a
/// push finds the buffer out of spare capacity, and [`Cu`]'s snapshot
/// writes only the entries after the sweep time — exactly the list an
/// eager `retain(t > now)` at every sweep would hold, since every access
/// completes after the cycle that issues it, so every push lands strictly
/// after the sweep that precedes it.
#[derive(Debug)]
struct PendingList {
    buf: Vec<Femtos>,
    /// Time of the latest sweep (derived: zero after decode).
    swept_at: Femtos,
    /// Largest time ever pushed (derived from the entries on decode).
    max: Femtos,
    /// Tests only: the list as eager sweeping keeps it, the reference for
    /// [`PendingList::live`].
    #[cfg(test)]
    eager: Vec<Femtos>,
}

impl Clone for PendingList {
    fn clone(&self) -> Self {
        let mut out = PendingList::with_capacity(0);
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        self.buf.clone_from(&src.buf);
        self.swept_at = src.swept_at;
        self.max = src.max;
        #[cfg(test)]
        self.eager.clone_from(&src.eager);
    }
}

impl PendingList {
    fn with_capacity(cap: usize) -> Self {
        Self::from_entries(Vec::with_capacity(cap))
    }

    /// A list holding `buf`, none of it swept yet.
    fn from_entries(buf: Vec<Femtos>) -> Self {
        PendingList {
            max: buf.iter().copied().fold(Femtos::ZERO, Femtos::max),
            #[cfg(test)]
            eager: buf.clone(),
            buf,
            swept_at: Femtos::ZERO,
        }
    }

    /// Sweeps at `now` and reports whether anything completes after it.
    #[inline]
    fn sweep(&mut self, now: Femtos) -> bool {
        debug_assert!(now >= self.swept_at, "pending-list sweep went back in time");
        self.swept_at = now;
        #[cfg(test)]
        self.eager.retain(|&t| t > now);
        self.max > now
    }

    /// Records an operation completing at `t`.
    #[inline]
    fn push(&mut self, t: Femtos) {
        if self.buf.len() == self.buf.capacity() {
            let swept_at = self.swept_at;
            self.buf.retain(|&e| e > swept_at);
            // Keep at least half the buffer spare so compactions stay rare.
            if self.buf.len() * 2 > self.buf.capacity() {
                self.buf.reserve(self.buf.capacity());
            }
        }
        self.buf.push(t);
        self.max = self.max.max(t);
        #[cfg(test)]
        self.eager.push(t);
    }

    /// The entries still pending after the latest sweep, in push order.
    fn live(&self) -> impl Iterator<Item = Femtos> + '_ {
        self.buf.iter().copied().filter(move |&t| t > self.swept_at)
    }
}

/// Same bytes as the eagerly swept `Vec<Femtos>` it replaces.
impl Snapshot for PendingList {
    fn encode(&self, w: &mut Encoder) {
        w.put_usize(self.live().count());
        for t in self.live() {
            t.encode(w);
        }
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(PendingList::from_entries(Vec::<Femtos>::decode(r)?))
    }
}

/// Reusable scratch for [`Cu::collect_into`] and the per-step ready list:
/// buffers that would otherwise be allocated fresh for every CU step or
/// every epoch collection.
///
/// `Clone` intentionally produces an *empty* scratch: the buffers carry no
/// state between epochs, so oracle forks (`Gpu::clone`) skip copying them.
#[derive(Debug, Default)]
pub struct CollectScratch {
    rank: Vec<u32>,
    /// Ready-list scratch for [`Cu::run_ahead`] in the event loop.
    pub(crate) ready: Vec<u32>,
}

impl Clone for CollectScratch {
    fn clone(&self) -> Self {
        CollectScratch::default()
    }
}

/// Per-workgroup bookkeeping within a CU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Non-issue interval classification for estimator telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
///
/// No `PartialEq`: the ready set and the lazily swept pending lists are
/// derived caches whose raw contents may differ between CUs in the same
/// logical state (a decoded CU and its original, say). The snapshot bytes
/// are the equality that matters, and tests compare those.
#[derive(Debug)]
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
    // ---- the incremental ready set, indexed by `sched_order` position ----
    // Derived from the slot state (never serialized). Every live position
    // not at a barrier is in exactly one of `near` and `far`; only `near`
    // is scanned each step.
    /// Wait of the wavefront at each `sched_order` position ([`IDLE`] while
    /// it is at a barrier).
    ord_wait: Vec<Femtos>,
    /// Positions whose wait was set within [`NEAR_CYCLES`] of its cycle.
    near: PosBits,
    /// Positions waiting longer; none is ready before `far_min`.
    far: PosBits,
    /// Exact minimum wait over `far` ([`IDLE`] when empty).
    far_min: Femtos,
    /// Slots with `WF_ACTIVE` set (occupancy; the complement is free).
    n_active: u32,
    wgs: Vec<WgState>,
    l1: Cache,
    l1_hit_lat: u64,
    issue_width: usize,
    // ---- CU-wide outstanding tracking (for leading-load & gap classing).
    cu_pending_loads: PendingList,
    cu_pending_stores: PendingList,
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
            ord_wait: self.ord_wait.clone(),
            near: self.near.clone(),
            far: self.far.clone(),
            far_min: self.far_min,
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
            ord_wait,
            near,
            far,
            far_min,
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
        self.ord_wait.clone_from(ord_wait);
        self.near.clone_from(near);
        self.far.clone_from(far);
        self.far_min = *far_min;
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
/// byte-identical to the AoS layout. `sched_order`, `n_active` and the
/// ready set are derived from the decoded state, never serialized, and the
/// pending lists write only their live entries (see [`PendingList`]).
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
            ord_wait: _,    // the ready set: derived from the slot state
            near: _,
            far: _,
            far_min: _,
            n_active: _, // derived from wf_state on decode
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
        // Every waiting position starts in `far`; the first step moves the
        // due ones to `near`.
        let mut ord_wait = Vec::with_capacity(n);
        let mut far = PosBits::new(n);
        let mut far_min = IDLE;
        for (p, &i) in sched_order.iter().enumerate() {
            let i = i as usize;
            if wf_state[i] & WF_BARRIER != 0 {
                ord_wait.push(IDLE);
            } else {
                ord_wait.push(wf_wait[i]);
                far.set(p);
                far_min = far_min.min(wf_wait[i]);
            }
        }
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
            ord_wait,
            near: PosBits::new(n),
            far,
            far_min,
            n_active,
            wgs: Vec::<WgState>::decode(r)?,
            l1: Cache::decode(r)?,
            l1_hit_lat: r.take_u64()?,
            issue_width: r.take_usize()?,
            cu_pending_loads: PendingList::decode(r)?,
            cu_pending_stores: PendingList::decode(r)?,
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
            ord_wait: Vec::with_capacity(cfg.wf_slots),
            near: PosBits::new(cfg.wf_slots),
            far: PosBits::new(cfg.wf_slots),
            far_min: IDLE,
            n_active: 0,
            wgs: vec![WgState::empty(); cfg.wf_slots],
            l1: Cache::new(cfg.l1),
            l1_hit_lat: cfg.l1_hit_cycles as u64,
            issue_width: cfg.issue_width.max(1),
            cu_pending_loads: PendingList::with_capacity(PENDING_CAP),
            cu_pending_stores: PendingList::with_capacity(PENDING_CAP),
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

    /// Number of live wavefronts.
    pub fn live_wavefronts(&self) -> u32 {
        self.sched_order.len() as u32
    }

    /// Number of dispatched workgroups that have not yet retired.
    pub fn live_workgroups(&self) -> u32 {
        self.wgs.iter().filter(|g| g.active).count() as u32
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
            self.ord_wait.insert(pos, now);
            self.near.insert(pos);
            self.far.insert(pos);
            self.near.set(pos);
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
    /// list; the event loop steps through [`Cu::run_ahead`] with reusable
    /// scratch instead.
    pub fn step(
        &mut self,
        now: Femtos,
        mem: &mut MemSystem,
        app_kernels: &[Kernel],
    ) -> StepOutcome {
        let mut ready = Vec::new();
        let wake = self.collect_ready(now, &mut ready);
        self.step_selected(now, mem, app_kernels, &ready, wake)
    }

    /// Number of wavefront slots not occupied. Only this CU's own
    /// `EndKernel` steps grow it and only a dispatch shrinks it.
    fn free_slots(&self) -> usize {
        self.slots.len() - self.n_active as usize
    }

    /// Steps this CU from its `next_cycle`, which the caller has just taken
    /// as the event queue's minimum, for as long as doing so cannot change
    /// the order in which shared state is touched. `runner_up` is the
    /// earliest `(time, cu)` of every other CU; `dispatch_wg` is the
    /// workgroup size of the current kernel while it has undispatched
    /// workgroups (`None` otherwise). `ready` is caller-owned scratch.
    ///
    /// A step whose `(time, cu)` is at most `runner_up` runs whatever it
    /// issues: this CU is still the global minimum, exactly where the
    /// one-step-per-pop loop would step it. A later step runs only if it is
    /// CU-local — none of the wavefronts it would issue is at a `Load`,
    /// `Store` or `EndKernel` — and no other CU's retirement can dispatch
    /// into this one meanwhile (`dispatch_wg` is `None`, or fewer slots are
    /// free than a workgroup needs). Such a step reads and writes only this
    /// CU, so moving it ahead of other CUs' earlier steps changes nothing.
    ///
    /// Returns the time and outcome of the last step taken. It stops right
    /// after a step that retires a wavefront (the caller then runs the
    /// dispatcher at that time; a straggler that frees slots without
    /// finishing its workgroup can make the CU dispatch-vulnerable), once
    /// `next_cycle` reaches `end`, or before the first step that may not
    /// run ahead.
    pub(crate) fn run_ahead(
        &mut self,
        end: Femtos,
        runner_up: (Femtos, usize),
        dispatch_wg: Option<usize>,
        mem: &mut MemSystem,
        app_kernels: &[Kernel],
        ready: &mut Vec<u32>,
    ) -> (Femtos, StepOutcome) {
        let vulnerable = dispatch_wg.is_some_and(|wg| self.free_slots() >= wg);
        let mut now = self.next_cycle;
        let mut wake = self.collect_ready(now, ready);
        loop {
            let n_active = self.n_active;
            #[cfg(debug_assertions)]
            let mem_ops = (self.e_op_mix.loads, self.e_op_mix.stores);
            let outcome = self.step_selected(now, mem, app_kernels, ready, wake);
            #[cfg(debug_assertions)]
            {
                let shared = self.n_active != n_active
                    || mem_ops != (self.e_op_mix.loads, self.e_op_mix.stores);
                debug_assert!(
                    !shared || (now, self.id) < runner_up,
                    "CU {} touched shared state at {now} behind runner-up {runner_up:?}",
                    self.id
                );
            }
            if self.n_active != n_active || self.next_cycle >= end {
                return (now, outcome);
            }
            let last = now;
            now = self.next_cycle;
            let ahead = (now, self.id) > runner_up;
            if ahead && vulnerable {
                return (last, StepOutcome::default());
            }
            wake = self.collect_ready(now, ready);
            if ahead && self.issues_shared(ready, app_kernels) {
                return (last, StepOutcome::default());
            }
        }
    }

    /// Whether the step with arbitration input `ready` would issue a
    /// `Load`, `Store` or `EndKernel`: the ops that reach L2/DRAM or may
    /// retire a workgroup into the dispatcher.
    fn issues_shared(&self, ready: &[u32], app_kernels: &[Kernel]) -> bool {
        ready.iter().take(self.issue_width).any(|&p| {
            let slot = self.sched_order[p as usize] as usize;
            let kernel = &app_kernels[self.slots[slot].kernel_idx as usize];
            matches!(
                kernel.code[self.wf_pc[slot] as usize],
                Op::Load { .. } | Op::Store { .. } | Op::EndKernel
            )
        })
    }

    /// Fills `ready` with the `sched_order` positions of wavefronts ready
    /// at `now`, ascending (so in age order) — the scheduler's arbitration
    /// input — and returns the earliest wait among the others not blocked
    /// at a barrier ([`IDLE`] if none): the wake-up [`Cu::step_selected`]
    /// skips to when nothing is ready.
    ///
    /// Only `near` is scanned. Nothing in `far` is ready before `far_min`,
    /// and `far_min` is its exact minimum, so the result equals a walk of
    /// every live wavefront. Once `far_min` comes due, `far` is swept
    /// first and its entries now within the horizon move to `near`.
    fn collect_ready(&mut self, now: Femtos, ready: &mut Vec<u32>) -> Femtos {
        if now >= self.far_min {
            self.refill_near(now);
        }
        ready.clear();
        let mut wake = self.far_min;
        for (wi, &word) in self.near.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let wait = self.ord_wait[p];
                if wait <= now {
                    ready.push(p as u32);
                } else {
                    wake = wake.min(wait);
                }
            }
        }
        wake
    }

    /// Moves every `far` position whose wait falls within the horizon of
    /// `now` to `near`, and recomputes `far_min` over the rest.
    fn refill_near(&mut self, now: Femtos) {
        let horizon = now + self.period * NEAR_CYCLES;
        let mut far_min = IDLE;
        for wi in 0..self.far.0.len() {
            let mut bits = self.far.0[wi];
            let mut moved = 0u64;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let wait = self.ord_wait[wi * 64 + b as usize];
                if wait < horizon {
                    moved |= 1 << b;
                } else {
                    far_min = far_min.min(wait);
                }
            }
            self.far.0[wi] &= !moved;
            self.near.0[wi] |= moved;
        }
        self.far_min = far_min;
    }

    /// Sets the wait of the wavefront at position `pos` (slot `slot`), which
    /// has just issued at `now` and so is in `near`; a wait beyond the
    /// horizon parks it in `far`.
    #[inline]
    fn set_wait(&mut self, pos: usize, slot: usize, wait: Femtos, now: Femtos) {
        self.wf_wait[slot] = wait;
        self.ord_wait[pos] = wait;
        if wait >= now + self.period * NEAR_CYCLES {
            self.near.clear(pos);
            self.far.set(pos);
            self.far_min = self.far_min.min(wait);
        }
    }

    /// The body of [`Cu::step`] with the arbitration input and the
    /// not-ready wake-up precomputed by [`Cu::collect_ready`].
    fn step_selected(
        &mut self,
        now: Femtos,
        mem: &mut MemSystem,
        app_kernels: &[Kernel],
        ready: &[u32],
        wake: Femtos,
    ) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        if !ready.is_empty() {
            // Close any in-flight gap first.
            let gap = self.gap_class;
            self.account(gap, self.accounted_until, now);
            for &p in ready.iter().skip(self.issue_width) {
                self.slots[self.sched_order[p as usize] as usize].e_sched_wait += self.period;
            }
            // A retirement removes its position, so later ones move down.
            let mut retired = 0;
            for &p in ready.iter().take(self.issue_width) {
                if self.issue(p as usize - retired, now, mem, app_kernels, &mut outcome) {
                    retired += 1;
                }
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
        // The store list is swept only when no load is pending, as the
        // snapshot bytes of the store list depend on when it was swept.
        if self.cu_pending_loads.sweep(now) {
            Gap::MemOnly
        } else if self.cu_pending_stores.sweep(now) {
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

    /// Issues the next instruction of the wavefront at `sched_order`
    /// position `pos`; returns whether it retired (and so left
    /// `sched_order`).
    fn issue(
        &mut self,
        pos: usize,
        now: Femtos,
        mem: &mut MemSystem,
        app_kernels: &[Kernel],
        outcome: &mut StepOutcome,
    ) -> bool {
        let slot = self.sched_order[pos] as usize;
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
                self.set_wait(pos, slot, now + period * lat as u64, now);
                self.wf_pc[slot] += 1;
            }
            Op::Salu => {
                self.set_wait(pos, slot, now + period, now);
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
                if !self.cu_pending_loads.sweep(now) {
                    self.e_lead += complete - now;
                }
                self.cu_pending_loads.push(complete);
                self.set_wait(pos, slot, now + period, now);
                self.wf_pc[slot] += 1;
            }
            Op::Store { pattern } => {
                let addr =
                    kernel.patterns[pattern as usize].address(wf.uid, wf.mem_counter, kernel.seed);
                wf.mem_counter += 1;
                let ack = mem.store(cu_id, addr, now, period).complete_at;
                wf.drain_stores(now);
                wf.pending_stores.push(ack);
                self.cu_pending_stores.sweep(now);
                self.cu_pending_stores.push(ack);
                self.set_wait(pos, slot, now + period, now);
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
                self.set_wait(pos, slot, target.max(now + period), now);
                self.wf_pc[slot] += 1;
            }
            Op::Barrier => {
                self.wf_state[slot] |= WF_BARRIER;
                self.ord_wait[pos] = IDLE;
                self.near.clear(pos);
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
                self.set_wait(pos, slot, now + period, now);
            }
            Op::EndKernel => {
                self.wf_state[slot] = (self.wf_state[slot] | WF_FINISHED) & !WF_ACTIVE;
                self.n_active -= 1;
                self.sched_order.remove(pos);
                self.ord_wait.remove(pos);
                self.near.remove(pos);
                self.far.remove(pos);
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
                return true;
            }
        }
        false
    }

    fn maybe_release_barrier(&mut self, wg_local: usize, now: Femtos) {
        let wg = self.wgs[wg_local];
        if wg.active && wg.remaining > 0 && wg.at_barrier == wg.remaining {
            let period = self.period;
            let epoch_start = self.epoch_start;
            for (p, &s) in self.sched_order.iter().enumerate() {
                let i = s as usize;
                if self.wf_state[i] & WF_BARRIER != 0 && self.slots[i].wg_local as usize == wg_local
                {
                    self.wf_state[i] &= !WF_BARRIER;
                    let wf = &mut self.slots[i];
                    wf.e_barrier_stall += now - wf.barrier_since.max(epoch_start);
                    self.wf_wait[i] = now + period;
                    self.ord_wait[p] = now + period;
                    self.near.set(p);
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
    use crate::rng::SplitMix64;

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

    /// The ready scan the incremental ready set replaced: one walk of every
    /// live wavefront in age order. Returns slots (not positions) and the
    /// wake-up.
    fn reference_ready(cu: &Cu, now: Femtos) -> (Vec<u32>, Femtos) {
        let mut ready = Vec::new();
        let mut wake = IDLE;
        for &slot in &cu.sched_order {
            let i = slot as usize;
            if cu.wf_state[i] & WF_BARRIER == 0 {
                let wait = cu.wf_wait[i];
                if wait <= now {
                    ready.push(slot);
                } else {
                    wake = wake.min(wait);
                }
            }
        }
        (ready, wake)
    }

    /// A looping kernel of random VALU (up to twice the ready-set horizon),
    /// SALU, loads, stores, `s_waitcnt` and barriers, with per-wavefront
    /// trip jitter so wavefronts of one workgroup retire at different times.
    fn random_kernel(rng: &mut SplitMix64, wg_wf: u8) -> Kernel {
        let mut b = KernelBuilder::new("random", 1 << 20, wg_wf, rng.next_u64());
        let far = b.pattern(AddressPattern::Random { base: 0, region: 1 << 26 });
        let near = b.pattern(AddressPattern::Tile { base: 1 << 27, tile: 1 << 12 });
        b.begin_loop(2 + rng.next_below(12) as u16, rng.next_below(4) as u16);
        for _ in 0..4 + rng.next_below(12) {
            match rng.next_below(8) {
                0 => b.valu(1 + rng.next_below(2 * NEAR_CYCLES) as u8, 1),
                1 => b.salu(1),
                2 => b.load(far),
                3 => b.load(near),
                4 => b.store(far),
                5 => b.waitcnt_vm(rng.next_below(3) as u8),
                6 => b.waitcnt_st(rng.next_below(2) as u8),
                _ => b.barrier(),
            };
        }
        b.end_loop();
        b.finish()
    }

    /// Encodes `cu` and decodes it again, checking the round trip is
    /// byte-exact.
    fn round_trip(cu: &Cu) -> Cu {
        let mut w = Encoder::new();
        cu.encode(&mut w);
        let bytes = w.into_bytes();
        let back = Cu::decode(&mut Decoder::new(&bytes)).expect("CU snapshot decodes");
        let mut w = Encoder::new();
        back.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes, "CU snapshot round trip is not byte-exact");
        back
    }

    /// Drives one CU of `wf_slots` slots through `steps` steps of random
    /// kernels. Before every step the incremental ready list and wake-up
    /// must equal [`reference_ready`]; after it, exactly the first
    /// `issue_width` reference-ready wavefronts must have issued, and both
    /// pending lists must hold what eager sweeping would. Workgroups are
    /// dispatched at random times in `[last step, next_cycle]`, which
    /// re-anchors the cycle grid, and with random ages, so dispatch inserts
    /// mid-`sched_order`. Every few hundred steps the CU is replaced by its
    /// snapshot round trip, which rebuilds the derived state.
    fn check_ready_set(wf_slots: usize, seed: u64, steps: usize) {
        let mut rng = SplitMix64::new(seed);
        let issue_width = 1 + rng.next_below(4) as usize;
        let cfg = GpuConfig { n_cus: 1, wf_slots, issue_width, ..GpuConfig::default() };
        let wg_wf = 1 + rng.next_below(wf_slots.min(6) as u64) as u8;
        let kernels = vec![random_kernel(&mut rng, wg_wf), random_kernel(&mut rng, wg_wf)];
        let mut cu = Cu::new(0, &cfg);
        let mut m = MemSystem::new(MemConfig::default(), 1);
        let mut last = Femtos::ZERO;
        let mut uid = 0;
        let mut ready = Vec::new();
        for step in 0..steps {
            if cu.next_cycle == IDLE || rng.next_below(3) == 0 {
                let span = cu.next_cycle.min(last + Femtos::from_nanos(50)) - last;
                let t = last + Femtos(rng.next_below(span.as_fs() + 1));
                let k = rng.next_below(2) as usize;
                let age = rng.next_below(1 << 16);
                if cu.try_dispatch_wg(&kernels[k], k as u32, uid, age, t) {
                    uid += u64::from(wg_wf);
                }
            }
            if step % 397 == 396 {
                cu = round_trip(&cu);
            }
            let now = cu.next_cycle;
            assert_ne!(now, IDLE, "a dispatched CU is scheduled");
            let (want, want_wake) = reference_ready(&cu, now);
            let wake = cu.collect_ready(now, &mut ready);
            let got: Vec<u32> = ready.iter().map(|&p| cu.sched_order[p as usize]).collect();
            assert_eq!(got, want, "slots {wf_slots} seed {seed} step {step}: ready list");
            assert_eq!(wake, want_wake, "slots {wf_slots} seed {seed} step {step}: wake-up");
            let before: Vec<(u32, u8)> =
                (0..wf_slots).map(|i| (cu.wf_pc[i], cu.wf_state[i] & WF_FINISHED)).collect();
            cu.step_selected(now, &mut m, &kernels, &ready, wake);
            let issued: Vec<u32> = (0..wf_slots as u32)
                .filter(|&i| {
                    before[i as usize]
                        != (cu.wf_pc[i as usize], cu.wf_state[i as usize] & WF_FINISHED)
                })
                .collect();
            let mut chosen: Vec<u32> = want.iter().copied().take(issue_width).collect();
            chosen.sort_unstable();
            assert_eq!(issued, chosen, "slots {wf_slots} seed {seed} step {step}: issued set");
            for list in [&cu.cu_pending_loads, &cu.cu_pending_stores] {
                assert!(list.live().eq(list.eager.iter().copied()), "step {step}: pending list");
            }
            last = now;
        }
    }

    #[test]
    fn incremental_ready_set_matches_full_scan() {
        // 64 and 65 straddle one bitset word; 100 spans two.
        for wf_slots in [1, 8, 40, 64, 65, 100] {
            for seed in 0..4 {
                check_ready_set(wf_slots, 1000 * wf_slots as u64 + seed, 4000);
            }
        }
    }

    #[test]
    fn pos_bits_shift_like_vec_insert_and_remove() {
        let mut rng = SplitMix64::new(5);
        for n in [1, 63, 64, 65, 100, 130] {
            let mut bits = PosBits::new(n);
            let mut model: Vec<bool> = Vec::new();
            // Inserts outnumber removals, so the set fills past a word.
            for _ in 0..2000 {
                let len = model.len();
                match rng.next_below(5) {
                    0 | 1 if len < n => {
                        let p = rng.next_below(len as u64 + 1) as usize;
                        bits.insert(p);
                        model.insert(p, false);
                    }
                    2 if len > 0 => {
                        let p = rng.next_below(len as u64) as usize;
                        bits.remove(p);
                        model.remove(p);
                    }
                    _ if len > 0 => {
                        let p = rng.next_below(len as u64) as usize;
                        if model[p] {
                            bits.clear(p);
                        } else {
                            bits.set(p);
                        }
                        model[p] = !model[p];
                    }
                    _ => {}
                }
                let got: Vec<bool> =
                    (0..bits.0.len() * 64).map(|p| bits.0[p / 64] >> (p % 64) & 1 != 0).collect();
                let want: Vec<bool> =
                    (0..bits.0.len() * 64).map(|p| model.get(p) == Some(&true)).collect();
                assert_eq!(got, want, "n {n}");
            }
        }
    }

    #[test]
    fn lazy_pending_list_encodes_like_eager_sweeps() {
        // A small buffer forces frequent compactions; sweeps and pushes
        // follow the CU's pattern (monotone times, completions after the
        // sweep), with snapshot round trips mid-run.
        let mut rng = SplitMix64::new(11);
        let mut list = PendingList::with_capacity(4);
        let mut now = Femtos::ZERO;
        for i in 0..20_000 {
            now += Femtos(rng.next_below(3_000));
            let pending = list.sweep(now);
            assert_eq!(pending, !list.eager.is_empty(), "op {i}: pending answer");
            for _ in 0..rng.next_below(3) {
                list.push(now + Femtos(1 + rng.next_below(400_000)));
            }
            let mut w = Encoder::new();
            list.encode(&mut w);
            let bytes = w.into_bytes();
            let mut w = Encoder::new();
            list.eager.encode(&mut w);
            assert_eq!(bytes, w.into_bytes(), "op {i}: encoded list");
            if i % 1000 == 999 {
                list = PendingList::decode(&mut Decoder::new(&bytes)).expect("list decodes");
            }
        }
    }
}
