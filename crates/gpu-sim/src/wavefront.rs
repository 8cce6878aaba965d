//! Per-wavefront *cold* architectural and telemetry state.
//!
//! The hot scheduling fields the CU touches when it schedules —
//! active/barrier/finished state, `wait_until`, PC index and age — live in
//! dense struct-of-arrays form on [`crate::cu::Cu`] (`wf_state`,
//! `wf_wait`, `wf_pc`, `wf_age`, plus the ready set's age-ordered copy of
//! the waits), so the per-cycle ready scan reads a few cache lines instead
//! of striding over these ~200-byte payload structs.
//! This struct keeps everything the CU only touches when a wavefront
//! actually issues (identity, address-stream counters, outstanding memory
//! operations) or at epoch boundaries (telemetry).

use crate::time::Femtos;

/// One wavefront slot's cold state within a compute unit.
///
/// Wavefronts execute in order; asynchronous memory operations are tracked
/// as absolute completion timestamps in `pending_loads`/`pending_stores`,
/// which lets `s_waitcnt` blocking be resolved analytically (no response
/// events are needed).
#[derive(Debug, PartialEq, Eq)]
pub struct Wavefront {
    /// Globally unique id (drives address streams and loop jitter).
    pub uid: u64,
    /// Index into the CU's workgroup table.
    pub wg_local: u8,
    /// Which kernel of the app this wavefront executes.
    pub kernel_idx: u32,
    /// Per-loop iteration counters, sized to the kernel's loop table.
    pub branch_iters: Vec<u16>,
    /// Dynamic memory-operation counter (address-stream position).
    pub mem_counter: u64,
    /// Completion timestamps of outstanding loads.
    pub pending_loads: Vec<Femtos>,
    /// Ack timestamps of outstanding stores.
    pub pending_stores: Vec<Femtos>,
    /// Until when the wavefront is blocked on memory (`s_waitcnt`); used to
    /// attribute boundary-spanning stalls to the right epoch.
    pub mem_blocked_until: Femtos,
    /// When the wavefront entered the barrier (for stall accounting).
    pub barrier_since: Femtos,

    // ---- per-epoch telemetry (reset by `begin_epoch`) ----
    /// Instructions committed this epoch.
    pub e_committed: u32,
    /// Memory (`s_waitcnt`) stall time accumulated this epoch.
    pub e_stall: Femtos,
    /// Barrier stall time accumulated this epoch.
    pub e_barrier_stall: Femtos,
    /// Time this epoch spent ready but not selected by the scheduler.
    pub e_sched_wait: Femtos,
    /// Leading-load latency accumulated this epoch (wavefront-local).
    pub e_lead: Femtos,
    /// PC index at the start of the epoch (PC-table update key).
    pub e_start_pc_index: u32,
    /// Whether the wavefront entered the epoch still blocked on memory.
    pub e_start_blocked: bool,
    /// Whether the slot held a live wavefront at any point this epoch.
    pub e_present: bool,
}

/// Manual `Clone` so `clone_from` reuses the destination's heap buffers
/// (`branch_iters`, `pending_loads`, `pending_stores`). The oracle's fork
/// arena refreshes a persistent GPU clone every epoch; with the derived
/// impl that refresh would reallocate every wavefront's vectors.
impl Clone for Wavefront {
    fn clone(&self) -> Self {
        let mut out = Wavefront::empty();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        // Exhaustive destructuring: adding a field without updating this
        // copy is a compile error, not a silent stale-state bug.
        let Wavefront {
            uid,
            wg_local,
            kernel_idx,
            branch_iters,
            mem_counter,
            pending_loads,
            pending_stores,
            mem_blocked_until,
            barrier_since,
            e_committed,
            e_stall,
            e_barrier_stall,
            e_sched_wait,
            e_lead,
            e_start_pc_index,
            e_start_blocked,
            e_present,
        } = src;
        self.uid = *uid;
        self.wg_local = *wg_local;
        self.kernel_idx = *kernel_idx;
        self.branch_iters.clone_from(branch_iters);
        self.mem_counter = *mem_counter;
        self.pending_loads.clone_from(pending_loads);
        self.pending_stores.clone_from(pending_stores);
        self.mem_blocked_until = *mem_blocked_until;
        self.barrier_since = *barrier_since;
        self.e_committed = *e_committed;
        self.e_stall = *e_stall;
        self.e_barrier_stall = *e_barrier_stall;
        self.e_sched_wait = *e_sched_wait;
        self.e_lead = *e_lead;
        self.e_start_pc_index = *e_start_pc_index;
        self.e_start_blocked = *e_start_blocked;
        self.e_present = *e_present;
    }
}

impl Wavefront {
    /// An empty (inactive) slot.
    pub fn empty() -> Self {
        Wavefront {
            uid: 0,
            wg_local: 0,
            kernel_idx: 0,
            branch_iters: Vec::new(),
            mem_counter: 0,
            pending_loads: Vec::new(),
            pending_stores: Vec::new(),
            mem_blocked_until: Femtos::ZERO,
            barrier_since: Femtos::ZERO,
            e_committed: 0,
            e_stall: Femtos::ZERO,
            e_barrier_stall: Femtos::ZERO,
            e_sched_wait: Femtos::ZERO,
            e_lead: Femtos::ZERO,
            e_start_pc_index: 0,
            e_start_blocked: false,
            e_present: false,
        }
    }

    /// (Re-)initializes the cold state for a freshly dispatched wavefront.
    /// The hot SoA fields (state, wait, PC, age) are reset by the CU.
    pub fn dispatch(&mut self, uid: u64, wg_local: u8, kernel_idx: u32, n_loops: usize) {
        self.uid = uid;
        self.wg_local = wg_local;
        self.kernel_idx = kernel_idx;
        self.branch_iters.clear();
        self.branch_iters.resize(n_loops, 0);
        self.mem_counter = 0;
        self.pending_loads.clear();
        self.pending_stores.clear();
        self.mem_blocked_until = Femtos::ZERO;
        self.e_present = true;
        self.e_start_pc_index = 0;
    }

    /// Removes completed loads (completion time ≤ `now`).
    #[inline]
    pub fn drain_loads(&mut self, now: Femtos) {
        self.pending_loads.retain(|&t| t > now);
    }

    /// Removes acknowledged stores.
    #[inline]
    pub fn drain_stores(&mut self, now: Femtos) {
        self.pending_stores.retain(|&t| t > now);
    }

    /// The time at which the outstanding-load count drops to `target`
    /// (assuming the list has already been drained against `now`).
    /// Returns `now` if already satisfied.
    pub fn loads_satisfied_at(&mut self, now: Femtos, target: usize) -> Femtos {
        deadline(&mut self.pending_loads, now, target)
    }

    /// The time at which the outstanding-store count drops to `target`.
    pub fn stores_satisfied_at(&mut self, now: Femtos, target: usize) -> Femtos {
        deadline(&mut self.pending_stores, now, target)
    }

    /// Resets per-epoch telemetry. `pc_index` is the slot's current (hot)
    /// PC index and `live` whether the slot holds a live wavefront — both
    /// owned by the CU's SoA arrays. A memory stall still in progress at
    /// the boundary is carried into the new epoch (its tail was not charged
    /// to the previous one).
    pub fn begin_epoch(&mut self, epoch_start: Femtos, pc_index: u32, live: bool) {
        self.e_committed = 0;
        self.e_stall = self.mem_blocked_until.saturating_sub(epoch_start);
        self.e_start_blocked = self.mem_blocked_until > epoch_start;
        self.e_barrier_stall = Femtos::ZERO;
        self.e_sched_wait = Femtos::ZERO;
        self.e_lead = Femtos::ZERO;
        self.e_start_pc_index = pc_index;
        self.e_present = live;
    }
}

/// Time at which at most `target` entries of `pending` remain outstanding:
/// the `(len - target)`-th smallest completion time.
fn deadline(pending: &mut [Femtos], now: Femtos, target: usize) -> Femtos {
    if pending.len() <= target {
        return now;
    }
    let k = pending.len() - target; // need k completions
    pending.sort_unstable();
    pending[k - 1].max(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_resets_state() {
        let mut wf = Wavefront::empty();
        wf.pending_loads.push(Femtos(5));
        wf.mem_counter = 9;
        wf.dispatch(7, 1, 2, 4);
        assert_eq!(wf.branch_iters, vec![0; 4]);
        assert!(wf.pending_loads.is_empty());
        assert_eq!(wf.mem_counter, 0);
        assert_eq!(wf.uid, 7);
        assert!(wf.e_present);
    }

    #[test]
    fn drain_removes_only_completed() {
        let mut wf = Wavefront::empty();
        wf.pending_loads = vec![Femtos(10), Femtos(30), Femtos(20)];
        wf.drain_loads(Femtos(20));
        assert_eq!(wf.pending_loads, vec![Femtos(30)]);
    }

    #[test]
    fn waitcnt_deadline_kth_completion() {
        let mut wf = Wavefront::empty();
        wf.pending_loads = vec![Femtos(50), Femtos(10), Femtos(30)];
        // Wait until at most 1 outstanding: need 2 completions -> t=30.
        assert_eq!(wf.loads_satisfied_at(Femtos(5), 1), Femtos(30));
        // Wait until none outstanding -> t=50.
        assert_eq!(wf.loads_satisfied_at(Femtos(5), 0), Femtos(50));
        // Already satisfied.
        assert_eq!(wf.loads_satisfied_at(Femtos(5), 3), Femtos(5));
    }

    #[test]
    fn deadline_clamped_to_now() {
        let mut wf = Wavefront::empty();
        wf.pending_stores = vec![Femtos(10)];
        // Completion in the past (not drained): deadline is `now`.
        assert_eq!(wf.stores_satisfied_at(Femtos(100), 0), Femtos(100));
    }

    #[test]
    fn begin_epoch_snapshots_pc() {
        let mut wf = Wavefront::empty();
        wf.dispatch(1, 0, 0, 0);
        wf.e_committed = 55;
        wf.begin_epoch(Femtos::ZERO, 12, true);
        assert_eq!(wf.e_start_pc_index, 12);
        assert_eq!(wf.e_committed, 0);
        assert!(wf.e_present);
    }
}
