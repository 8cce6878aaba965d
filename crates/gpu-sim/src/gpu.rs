//! Top-level GPU: compute units + shared memory system + dispatcher.
//!
//! The whole structure is `Clone`, which is what implements the paper's
//! fork–pre-execute oracle methodology (Section 5.1): cloning the `Gpu` is
//! the in-process equivalent of forking the simulator process, and because
//! execution is fully deterministic, a clone re-run with the same
//! frequencies reproduces the original bit-for-bit.

use crate::config::GpuConfig;
use crate::cu::{CollectScratch, Cu, IDLE};
use crate::kernel::{App, Kernel};
use crate::lanes;
use crate::mem::MemSystem;
use crate::stats::{CuEpochStats, EpochStats};
use crate::time::{Femtos, Frequency, WakeTree};
use exec::WorkerPool;
use snapshot::{ContainerReader, ContainerWriter, SnapError, Snapshot};
use std::sync::Arc;

/// How a bounded completion run ([`Gpu::run_to_outcome`]) ended.
///
/// The non-`Completed` arms are *recoverable*: the simulator is left
/// intact at a chunk boundary, so the caller can inspect it, snapshot it
/// ([`Gpu::save_snapshot`]) and resume later, or give up — but never at
/// the cost of the whole process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The application finished; payload is its completion time.
    Completed(Femtos),
    /// The simulated-time deadline arrived first. State is valid at `now`
    /// and the run can be resumed bit-exactly from a snapshot.
    SimDeadline {
        /// Simulated time at which the run was preempted.
        now: Femtos,
    },
    /// The progress meter declared livelock: either the event queue
    /// drained with work outstanding, or no instruction retired for a
    /// full detection window.
    NoProgress {
        /// Simulated time at which the stall was declared.
        now: Femtos,
        /// Instructions retired between run start and the stall.
        committed: u64,
    },
}

impl RunOutcome {
    /// Completion time if the run finished, `None` otherwise.
    pub fn completed(self) -> Option<Femtos> {
        match self {
            RunOutcome::Completed(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the run finished.
    pub fn is_completed(self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }
}

/// Cooperative livelock detector for [`Gpu::run_metered`].
///
/// Tracks the retired-instruction watermark across fixed simulated-time
/// chunks; `window` consecutive chunks with zero retirement declare
/// [`RunOutcome::NoProgress`]. The default window (256 chunks of 10 µs =
/// 2.56 ms of simulated time) is far beyond any legitimate quiet period
/// in the synthetic workloads — long frequency-transition stalls at the
/// lowest DVFS state retire within a handful of chunks — so the detector
/// never false-positives on the shipped suite (pinned by test).
#[derive(Debug, Clone)]
pub struct ProgressMeter {
    window: u32,
    stalled: u32,
    base: u64,
    last: u64,
}

impl Default for ProgressMeter {
    fn default() -> Self {
        ProgressMeter::with_window(256)
    }
}

impl ProgressMeter {
    /// Meter declaring a stall after `chunks` consecutive 10 µs chunks
    /// with no retirement (clamped to at least 1).
    pub fn with_window(chunks: u32) -> Self {
        ProgressMeter { window: chunks.max(1), stalled: 0, base: 0, last: 0 }
    }

    /// Instructions retired since [`ProgressMeter::begin`].
    pub fn progressed(&self) -> u64 {
        self.last.saturating_sub(self.base)
    }

    fn begin(&mut self, watermark: u64) {
        self.stalled = 0;
        self.base = watermark;
        self.last = watermark;
    }

    /// Observes the watermark after one chunk; `true` means the stall
    /// window was exhausted.
    fn observe(&mut self, watermark: u64) -> bool {
        if watermark > self.last {
            self.stalled = 0;
        } else {
            self.stalled += 1;
        }
        self.last = watermark;
        self.stalled >= self.window
    }
}

/// Kernel-launch and workgroup-dispatch state, split out of [`Gpu`] so the
/// sharded lane coordinator (`lanes::run_window`) can drive dispatch while
/// the CUs themselves are behind per-lane locks. The dispatch algorithm is
/// identical in both execution modes; only how a freshly scheduled CU is
/// re-queued differs, which is what the `woken` callback abstracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaunchState {
    pub(crate) kernel_idx: usize,
    pub(crate) next_wg: u32,
    pub(crate) wgs_remaining: u32,
    pub(crate) next_uid: u64,
    pub(crate) next_age: u64,
    pub(crate) dispatch_cursor: usize,
    pub(crate) completion: Option<Femtos>,
}

/// How the dispatcher reaches compute units: directly (`&mut [Cu]` in the
/// serial loop) or through per-lane locks (sharded coordinator).
pub(crate) trait CuAccess {
    /// Number of CUs.
    fn len(&self) -> usize;
    /// Runs `f` with exclusive access to CU `i`.
    fn with_cu<R>(&mut self, i: usize, f: impl FnOnce(&mut Cu) -> R) -> R;
}

/// Plain-slice [`CuAccess`] for the serial event loop.
pub(crate) struct SliceCus<'a>(pub(crate) &'a mut [Cu]);

impl CuAccess for SliceCus<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn with_cu<R>(&mut self, i: usize, f: impl FnOnce(&mut Cu) -> R) -> R {
        f(&mut self.0[i])
    }
}

impl LaunchState {
    /// Handles one retired workgroup at time `t`: backfills dispatch, and
    /// on kernel completion launches the next kernel (device-wide sync) or
    /// records app completion. `woken(cu, next_cycle)` fires for every CU
    /// that received work and has a scheduled cycle.
    pub(crate) fn on_workgroup_done(
        &mut self,
        t: Femtos,
        kernels: &[Kernel],
        cus: &mut impl CuAccess,
        woken: &mut impl FnMut(usize, Femtos),
    ) {
        self.wgs_remaining -= 1;
        if self.next_wg < kernels[self.kernel_idx].workgroups {
            self.fill_cus(t, kernels, cus, woken);
        } else if self.wgs_remaining == 0 {
            self.kernel_idx += 1;
            if self.kernel_idx < kernels.len() {
                self.next_wg = 0;
                self.wgs_remaining = kernels[self.kernel_idx].workgroups;
                self.fill_cus(t, kernels, cus, woken);
            } else {
                self.completion = Some(t);
            }
        }
    }

    /// Dispatches as many pending workgroups as fit, round-robin over CUs.
    pub(crate) fn fill_cus(
        &mut self,
        t: Femtos,
        kernels: &[Kernel],
        cus: &mut impl CuAccess,
        woken: &mut impl FnMut(usize, Femtos),
    ) {
        let kernel = &kernels[self.kernel_idx];
        let n = cus.len();
        let mut full_streak = 0;
        while self.next_wg < kernel.workgroups && full_streak < n {
            let cu = self.dispatch_cursor % n;
            let wg_size = kernel.wg_wavefronts as u64;
            let kernel_idx = self.kernel_idx as u32;
            let (next_uid, next_age) = (self.next_uid, self.next_age);
            let dispatched = cus.with_cu(cu, |c| {
                c.try_dispatch_wg(kernel, kernel_idx, next_uid, next_age, t).then_some(c.next_cycle)
            });
            if let Some(next) = dispatched {
                self.next_uid += wg_size;
                self.next_age += wg_size;
                self.next_wg += 1;
                full_streak = 0;
                if next != IDLE {
                    woken(cu, next);
                }
            } else {
                full_streak += 1;
            }
            self.dispatch_cursor = (self.dispatch_cursor + 1) % n;
        }
    }
}

/// The simulated GPU.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    cus: Vec<Cu>,
    mem: MemSystem,
    app: Arc<App>,
    launch: LaunchState,
    now: Femtos,
    /// The event queue: every CU's `next_cycle` in a winner tree, taken in
    /// `(time, cu)` order. Each serial step, retime and dispatch that moves
    /// a `next_cycle` sets it here; a sharded window or a snapshot load
    /// rebuilds it from the CU clocks.
    wake: WakeTree,
    /// Lane count for sharded execution (`PCSTALL_SIM_LANES`); 1 = the
    /// classic serial event loop. Results are bit-identical either way.
    sim_lanes: usize,
    /// Worker pool for sharded execution; `None` uses the process-global
    /// pool. Excluded from snapshots (host resource, not simulator state).
    lane_pool: Option<Arc<WorkerPool>>,
    scratch: CollectScratch,
}

/// Manual `Clone` whose `clone_from` refreshes an existing fork in place.
///
/// `gpu.clone()` is the fork operation of the oracle methodology; forking
/// every V/f state every epoch made the allocations behind it (every CU's
/// wavefront slots, L1/L2 tag arrays, the event queue) the hottest
/// allocation site in the whole reproduction. `fork.clone_from(&gpu)`
/// produces the *same state bit-for-bit* as a fresh clone — the entire
/// clone chain (`Cu`, `Wavefront`, `Cache`, `MemSystem`) copies values
/// into the destination's existing buffers — so a persistent per-thread
/// fork (`exec::with_arena`) makes steady-state oracle sampling
/// allocation-free without affecting determinism.
///
/// The shared `app` is an `Arc` (refcount bump), and `scratch` holds no
/// cross-epoch state, so neither is deep-copied.
impl Clone for Gpu {
    fn clone(&self) -> Self {
        Gpu {
            cfg: self.cfg,
            cus: self.cus.clone(),
            mem: self.mem.clone(),
            app: Arc::clone(&self.app),
            launch: self.launch,
            now: self.now,
            wake: self.wake.clone(),
            sim_lanes: self.sim_lanes,
            lane_pool: self.lane_pool.clone(),
            scratch: CollectScratch::default(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        // Exhaustive destructuring: adding a field without updating this
        // copy is a compile error, not a silent stale-state bug.
        let Gpu {
            cfg,
            cus,
            mem,
            app,
            launch,
            now,
            wake,
            sim_lanes,
            lane_pool,
            scratch: _, // the destination keeps its own (stateless) scratch
        } = src;
        self.cfg = *cfg;
        self.cus.clone_from(cus);
        self.mem.clone_from(mem);
        if !Arc::ptr_eq(&self.app, app) {
            self.app = Arc::clone(app);
        }
        self.launch = *launch;
        self.now = *now;
        self.wake.clone_from(wake);
        self.sim_lanes = *sim_lanes;
        self.lane_pool.clone_from(lane_pool);
    }
}

impl Gpu {
    /// Creates a GPU and dispatches the first kernel of `app` at time zero.
    ///
    /// # Panics
    ///
    /// Panics if any kernel's workgroup size exceeds the CU's wavefront
    /// slots, or the app fails validation.
    pub fn new(cfg: GpuConfig, app: App) -> Self {
        for k in &app.kernels {
            k.validate().expect("invalid kernel");
            assert!(
                (k.wg_wavefronts as usize) <= cfg.wf_slots,
                "kernel {}: workgroup of {} wavefronts exceeds {} CU slots",
                k.name,
                k.wg_wavefronts,
                cfg.wf_slots
            );
        }
        let wgs0 = app.kernels[0].workgroups;
        let mut gpu = Gpu {
            cus: (0..cfg.n_cus).map(|i| Cu::new(i, &cfg)).collect(),
            mem: MemSystem::new(cfg.mem, cfg.n_cus),
            app: Arc::new(app),
            launch: LaunchState {
                kernel_idx: 0,
                next_wg: 0,
                wgs_remaining: wgs0,
                next_uid: 0,
                next_age: 0,
                dispatch_cursor: 0,
                completion: None,
            },
            now: Femtos::ZERO,
            wake: WakeTree::new(cfg.n_cus),
            sim_lanes: lanes::lanes_from_env(),
            lane_pool: None,
            scratch: CollectScratch::default(),
            cfg,
        };
        gpu.fill_cus(Femtos::ZERO);
        gpu
    }

    /// The lane count for sharded execution (see [`Gpu::set_sim_lanes`]).
    pub fn sim_lanes(&self) -> usize {
        self.sim_lanes
    }

    /// Sets the lane count for sharded execution (clamped to at least 1).
    ///
    /// With `n > 1`, [`Gpu::run_until`] advances CUs on independent
    /// per-lane schedules and merges shared-memory steps in deterministic
    /// `(time, cu)` order, so *all* observable results — epoch stats,
    /// telemetry, snapshots, completion times — are bit-identical to the
    /// serial `n = 1` loop. Defaults to the `PCSTALL_SIM_LANES`
    /// environment variable (or 1).
    pub fn set_sim_lanes(&mut self, n: usize) {
        self.sim_lanes = n.max(1);
    }

    /// Uses `pool` for sharded execution instead of the process-global
    /// worker pool. Purely a host-resource choice; never affects results.
    pub fn set_lane_pool(&mut self, pool: Arc<WorkerPool>) {
        self.lane_pool = Some(pool);
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The application being executed.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// Current simulated time.
    pub fn now(&self) -> Femtos {
        self.now
    }

    /// Whether every kernel has fully completed.
    pub fn is_done(&self) -> bool {
        self.launch.completion.is_some()
    }

    /// Completion time of the whole application, if finished.
    pub fn completion_time(&self) -> Option<Femtos> {
        self.launch.completion
    }

    /// Read-only access to a compute unit (telemetry, wavefront PCs).
    pub fn cu(&self, id: usize) -> &Cu {
        &self.cus[id]
    }

    /// Number of compute units.
    pub fn n_cus(&self) -> usize {
        self.cus.len()
    }

    /// Sets one CU's frequency. If the frequency actually changes, the CU
    /// stalls for `transition` (the IVR/FLL settling time) from the current
    /// simulation time.
    pub fn set_cu_frequency(&mut self, cu: usize, freq: Frequency, transition: Femtos) {
        if self.cus[cu].frequency() == freq {
            return;
        }
        self.cus[cu].set_frequency(freq);
        if self.cus[cu].next_cycle != IDLE {
            let stalled = (self.now + transition).max(self.cus[cu].next_cycle);
            self.cus[cu].next_cycle = stalled;
            self.wake.set(cu, stalled);
        }
    }

    /// Convenience: sets all CUs in `ids` to `freq`.
    pub fn set_frequency_of(&mut self, ids: &[usize], freq: Frequency, transition: Femtos) {
        for &id in ids {
            self.set_cu_frequency(id, freq, transition);
        }
    }

    /// Marks the start of a measurement epoch: resets all per-epoch
    /// telemetry in CUs and the memory system.
    pub fn begin_epoch(&mut self) {
        let t = self.now;
        for cu in &mut self.cus {
            cu.begin_epoch(t);
        }
        self.mem.begin_epoch();
    }

    /// Number of entries in the event queue: one per scheduled CU, so never
    /// more than [`Gpu::n_cus`].
    pub fn event_queue_len(&self) -> usize {
        self.wake.scheduled()
    }

    /// Rebuilds the event queue from the CU clocks.
    fn rebuild_wake(&mut self) {
        self.wake.rebuild(self.cus.iter().map(|cu| cu.next_cycle));
    }

    /// Advances simulation until `end` (exclusive). Events at or after
    /// `end` are left pending, so epochs compose exactly.
    ///
    /// With [`Gpu::sim_lanes`] > 1 this runs the sharded per-CU lane
    /// scheduler (`lanes::run_window`) instead of the serial event loop;
    /// results are bit-identical. Nested use from inside a worker pool
    /// (e.g. an oracle fork advancing its clone) stays serial so lane
    /// parallelism never deadlocks or oversubscribes the pool.
    pub fn run_until(&mut self, end: Femtos) {
        if self.sim_lanes > 1 && self.cus.len() > 1 && !exec::in_worker() {
            self.run_until_sharded(end);
        } else {
            self.run_until_serial(end);
        }
    }

    /// The classic serial event loop: take the earliest `(time, cu)`, step
    /// that CU against the shared memory system, retire its finished
    /// workgroups and re-queue it at its new `next_cycle`.
    fn run_until_serial(&mut self, end: Femtos) {
        // Allocation-freedom gate (debug builds, armed probe only): the
        // steady-state window must not allocate — see `alloc_probe`.
        let alloc_mark =
            (cfg!(debug_assertions) && crate::alloc_probe::armed()).then(crate::alloc_probe::count);
        let app = Arc::clone(&self.app);
        loop {
            let (t, i) = self.wake.min();
            if t >= end {
                break;
            }
            debug_assert_eq!(self.cus[i].next_cycle, t, "wake tree disagrees with CU {i}");
            let outcome =
                self.cus[i].step_with(t, &mut self.mem, &app.kernels, &mut self.scratch.ready);
            for _ in 0..outcome.workgroups_done {
                self.on_workgroup_done(t);
            }
            self.wake.set(i, self.cus[i].next_cycle);
        }
        if let Some(mark) = alloc_mark {
            debug_assert_eq!(
                crate::alloc_probe::count(),
                mark,
                "serial event loop allocated while the probe was armed"
            );
        }
        self.now = end;
    }

    /// Sharded execution: per-CU lanes advance independently through
    /// CU-local work; steps that touch shared L2/DRAM or the dispatcher
    /// are merged in `(time, cu)` order — exactly the serial pop order —
    /// so every observable result is bit-identical to the serial loop.
    fn run_until_sharded(&mut self, end: Femtos) {
        let app = Arc::clone(&self.app);
        let start = self.now;
        lanes::run_window(
            lanes::ShardCtx {
                cus: &mut self.cus,
                mem: &mut self.mem,
                launch: &mut self.launch,
                kernels: &app.kernels,
                lanes: self.sim_lanes,
                pool: self.lane_pool.as_ref(),
            },
            start,
            end,
        );
        self.now = end;
        // The lanes moved the CU clocks without the tree: re-sync it so the
        // serial loop can take over at any window.
        self.rebuild_wake();
    }

    /// Runs one epoch of `duration`, returning its telemetry.
    ///
    /// Allocates a fresh [`EpochStats`]; policy-in-the-loop drivers that
    /// run thousands of epochs should prefer [`Gpu::run_epoch_into`] with a
    /// reused buffer.
    pub fn run_epoch(&mut self, duration: Femtos) -> EpochStats {
        let mut out = EpochStats::empty();
        self.run_epoch_into(duration, &mut out);
        out
    }

    /// Runs one epoch of `duration`, writing its telemetry into `out`.
    ///
    /// `out`'s per-CU and per-wavefront vectors are reused in place (grown
    /// on first use), so steady-state epoch execution performs no telemetry
    /// allocation. Every field of `out` is overwritten; the buffer may come
    /// from [`EpochStats::empty`] or from a previous epoch of any GPU.
    pub fn run_epoch_into(&mut self, duration: Femtos, out: &mut EpochStats) {
        let start = self.now;
        self.begin_epoch();
        let end = start + duration;
        self.run_until(end);
        for cu in &mut self.cus {
            cu.flush_accounting(end);
        }
        out.start = start;
        out.duration = duration;
        out.mem = self.mem.epoch_stats();
        out.done = self.is_done();
        out.cus.truncate(self.cus.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        for (i, cu) in self.cus.iter().enumerate() {
            match out.cus.get_mut(i) {
                Some(slot) => cu.collect_into(end, slot, &mut scratch),
                None => {
                    let mut fresh = CuEpochStats::zeroed();
                    cu.collect_into(end, &mut fresh, &mut scratch);
                    out.cus.push(fresh);
                }
            }
        }
        self.scratch = scratch;
    }

    /// Runs until the application completes, the simulated-time `deadline`
    /// arrives, or the default progress meter declares livelock. The
    /// typed [`RunOutcome`] replaces the old panic-on-deadline behavior:
    /// a deadline or stall leaves the simulator fully intact, so the
    /// caller can [`Gpu::save_snapshot`] and resume later instead of
    /// losing the process.
    pub fn run_to_outcome(&mut self, deadline: Femtos) -> RunOutcome {
        self.run_metered(deadline, &mut ProgressMeter::default())
    }

    /// [`Gpu::run_to_outcome`] with a caller-supplied [`ProgressMeter`]
    /// (for a custom stall-detection window).
    ///
    /// Simulation advances in fixed 10 µs chunks. After each chunk the
    /// meter observes the retired-instruction watermark (the sum of
    /// per-CU epoch-committed counters, monotone here because this loop
    /// never crosses an epoch boundary); a full window of chunks with no
    /// retirement, or an event queue that drains while work is still
    /// outstanding, yields [`RunOutcome::NoProgress`]. Detection is part
    /// of the deterministic simulation (no wall clock), so a stall
    /// reproduces at the identical simulated time on every rerun.
    pub fn run_metered(&mut self, deadline: Femtos, meter: &mut ProgressMeter) -> RunOutcome {
        const CHUNK: Femtos = Femtos::from_micros(10);
        meter.begin(self.committed_watermark());
        while !self.is_done() && self.now < deadline {
            if !self.has_live_events() {
                // The event queue drained with the app unfinished: nothing
                // can ever be scheduled again, so this is a provable hang,
                // not just a slow patch.
                return RunOutcome::NoProgress { now: self.now, committed: meter.progressed() };
            }
            self.run_until((self.now + CHUNK).min(deadline));
            if meter.observe(self.committed_watermark()) {
                return RunOutcome::NoProgress { now: self.now, committed: meter.progressed() };
            }
        }
        match self.launch.completion {
            Some(t) => RunOutcome::Completed(t),
            None => RunOutcome::SimDeadline { now: self.now },
        }
    }

    /// Retired-instruction watermark for the progress meter: total
    /// instructions committed by all CUs since their last epoch reset.
    fn committed_watermark(&self) -> u64 {
        self.cus.iter().map(Cu::epoch_committed).sum()
    }

    /// Whether any CU still has a scheduled wake-up.
    fn has_live_events(&self) -> bool {
        self.cus.iter().any(|cu| cu.next_cycle != IDLE)
    }

    /// Serializes the complete simulator state to a versioned, checksummed
    /// snapshot container.
    ///
    /// The encode mirrors the manual `Clone` above: the same exhaustive
    /// destructuring, so adding a field without updating this path is a
    /// compile error. The event queue is written as the sorted
    /// `(next_cycle, cu)` list derived from the live CU clocks, which makes
    /// the byte stream independent of the execution mode that produced the
    /// state: serial and sharded runs of the same simulation snapshot to
    /// identical bytes. A GPU restored by [`Gpu::load_snapshot`] is
    /// *bit-exact*: stepping it produces the same event stream, stats and
    /// telemetry as the uninterrupted original.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let Gpu {
            cfg,
            cus,
            mem,
            app,
            launch:
                LaunchState {
                    kernel_idx,
                    next_wg,
                    wgs_remaining,
                    next_uid,
                    next_age,
                    dispatch_cursor,
                    completion,
                },
            now,
            wake: _,      // canonical form derived from `cus` below
            sim_lanes: _, // host execution knob, not simulator state
            lane_pool: _, // host resource
            scratch: _,   // stateless epoch scratch; rebuilt on load
        } = self;
        let mut c = ContainerWriter::new();
        c.section("config", |w| cfg.encode(w));
        c.section("app", |w| app.as_ref().encode(w));
        c.section("cus", |w| cus.encode(w));
        c.section("mem", |w| mem.encode(w));
        c.section("sched", |w| {
            w.put_usize(*kernel_idx);
            w.put_u32(*next_wg);
            w.put_u32(*wgs_remaining);
            w.put_u64(*next_uid);
            w.put_u64(*next_age);
            w.put_usize(*dispatch_cursor);
            now.encode(w);
            completion.encode(w);
            let mut events: Vec<(Femtos, usize)> = cus
                .iter()
                .enumerate()
                .filter(|(_, cu)| cu.next_cycle != IDLE)
                .map(|(i, cu)| (cu.next_cycle, i))
                .collect();
            events.sort_unstable();
            events.encode(w);
        });
        c.finish()
    }

    /// Restores a GPU from a snapshot produced by [`Gpu::save_snapshot`].
    ///
    /// Beyond the container-level checks (magic, format version, per-
    /// section CRC), every cross-structure invariant `Gpu::new` would
    /// establish is re-validated: CU count and ids against the config,
    /// wavefront-slot geometry, memory-system config and per-CU miss-port
    /// count, kernel launch-state bounds, and the event list: its indices
    /// must be in range and every scheduled CU must have an entry at
    /// exactly its `next_cycle` (entries matching no clock are legacy stale
    /// duplicates and are ignored). A corrupted or internally inconsistent
    /// snapshot yields a typed error, never a panicking simulator.
    pub fn load_snapshot(bytes: &[u8]) -> Result<Gpu, SnapError> {
        let c = ContainerReader::parse(bytes)?;
        let mut r = c.section("config")?;
        let cfg = GpuConfig::decode(&mut r)?;
        r.finish()?;
        let mut r = c.section("app")?;
        let app = App::decode(&mut r)?;
        r.finish()?;
        let mut r = c.section("cus")?;
        let cus = Vec::<Cu>::decode(&mut r)?;
        r.finish()?;
        let mut r = c.section("mem")?;
        let mem = MemSystem::decode(&mut r)?;
        r.finish()?;
        let mut r = c.section("sched")?;
        let kernel_idx = r.take_usize()?;
        let next_wg = r.take_u32()?;
        let wgs_remaining = r.take_u32()?;
        let next_uid = r.take_u64()?;
        let next_age = r.take_u64()?;
        let dispatch_cursor = r.take_usize()?;
        let now = Femtos::decode(&mut r)?;
        let completion = Option::<Femtos>::decode(&mut r)?;
        let events = Vec::<(Femtos, usize)>::decode(&mut r)?;
        r.finish()?;

        if cus.len() != cfg.n_cus {
            return Err(SnapError::invalid(format!(
                "snapshot has {} CUs, config requires {}",
                cus.len(),
                cfg.n_cus
            )));
        }
        for (i, cu) in cus.iter().enumerate() {
            if cu.id != i {
                return Err(SnapError::invalid(format!("CU at index {i} has id {}", cu.id)));
            }
            if cu.wavefronts().len() != cfg.wf_slots {
                return Err(SnapError::invalid(format!(
                    "CU {i} has {} wavefront slots, config requires {}",
                    cu.wavefronts().len(),
                    cfg.wf_slots
                )));
            }
        }
        if *mem.config() != cfg.mem {
            return Err(SnapError::invalid("memory-system config disagrees with GPU config"));
        }
        if mem.miss_ports() != cfg.n_cus {
            return Err(SnapError::invalid(format!(
                "memory system has {} miss ports, config requires {}",
                mem.miss_ports(),
                cfg.n_cus
            )));
        }
        for k in &app.kernels {
            if k.wg_wavefronts as usize > cfg.wf_slots {
                return Err(SnapError::invalid(format!(
                    "kernel {}: workgroup of {} wavefronts exceeds {} CU slots",
                    k.name, k.wg_wavefronts, cfg.wf_slots
                )));
            }
        }
        if kernel_idx > app.kernels.len() {
            return Err(SnapError::invalid(format!(
                "kernel_idx {kernel_idx} out of range for {} kernels",
                app.kernels.len()
            )));
        }
        if let Some(k) = app.kernels.get(kernel_idx) {
            if next_wg > k.workgroups {
                return Err(SnapError::invalid(format!(
                    "next_wg {next_wg} exceeds kernel's {} workgroups",
                    k.workgroups
                )));
            }
        }
        let mut queued = vec![false; cfg.n_cus];
        for &(t, i) in &events {
            if i >= cfg.n_cus {
                return Err(SnapError::invalid(format!(
                    "event queue references CU {i} of {}",
                    cfg.n_cus
                )));
            }
            queued[i] |= cus[i].next_cycle == t;
        }
        if let Some(i) = (0..cfg.n_cus).find(|&i| cus[i].next_cycle != IDLE && !queued[i]) {
            return Err(SnapError::invalid(format!(
                "CU {i} is scheduled at {} but the event queue has no entry for it",
                cus[i].next_cycle
            )));
        }
        let mut gpu = Gpu {
            cfg,
            cus,
            mem,
            app: Arc::new(app),
            launch: LaunchState {
                kernel_idx,
                next_wg,
                wgs_remaining,
                next_uid,
                next_age,
                dispatch_cursor,
                completion,
            },
            now,
            wake: WakeTree::new(cfg.n_cus),
            sim_lanes: lanes::lanes_from_env(),
            lane_pool: None,
            scratch: CollectScratch::default(),
        };
        gpu.rebuild_wake();
        Ok(gpu)
    }

    fn on_workgroup_done(&mut self, t: Femtos) {
        let app = Arc::clone(&self.app);
        let Gpu { cus, launch, wake, .. } = self;
        launch.on_workgroup_done(t, &app.kernels, &mut SliceCus(cus), &mut |cu, next| {
            wake.set(cu, next);
        });
    }

    /// Dispatches as many pending workgroups as fit, round-robin over CUs.
    fn fill_cus(&mut self, t: Femtos) {
        let app = Arc::clone(&self.app);
        let Gpu { cus, launch, wake, .. } = self;
        launch.fill_cus(t, &app.kernels, &mut SliceCus(cus), &mut |cu, next| {
            wake.set(cu, next);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AddressPattern, App, KernelBuilder};

    fn compute_app(wgs: u32) -> App {
        compute_app_trips(wgs, 16)
    }

    fn compute_app_trips(wgs: u32, trips: u16) -> App {
        let mut b = KernelBuilder::new("k", wgs, 4, 1);
        b.begin_loop(trips, 0);
        b.valu(2, 8);
        b.end_loop();
        App::new("compute", vec![b.finish()]).unwrap()
    }

    fn memory_app(wgs: u32) -> App {
        let mut b = KernelBuilder::new("m", wgs, 4, 2);
        let p = b.pattern(AddressPattern::Random { base: 0, region: 1 << 28 });
        b.begin_loop(32, 0);
        b.load(p);
        b.wait_all_loads();
        b.valu(1, 2);
        b.end_loop();
        App::new("memory", vec![b.finish()]).unwrap()
    }

    #[test]
    fn app_runs_to_completion() {
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app(16));
        let t = gpu
            .run_to_outcome(Femtos::from_micros(1000))
            .completed()
            .expect("compute app finishes well within the deadline");
        assert!(t > Femtos::ZERO);
        assert!(gpu.is_done());
    }

    #[test]
    fn sim_deadline_preempts_then_resumes_bit_exact() {
        let app = compute_app_trips(64, 400);
        // Reference: uninterrupted run to completion.
        let mut whole = Gpu::new(GpuConfig::tiny(), app.clone());
        let t_whole = whole.run_to_outcome(Femtos::from_micros(100_000)).completed().unwrap();

        // Preempt mid-flight at a simulated deadline, snapshot, restore
        // into a fresh process-equivalent, and resume.
        let mut preempted = Gpu::new(GpuConfig::tiny(), app);
        let outcome = preempted.run_to_outcome(Femtos::from_micros(3));
        assert_eq!(outcome, RunOutcome::SimDeadline { now: Femtos::from_micros(3) });
        assert!(!preempted.is_done(), "deadline must land before completion");
        let snap = preempted.save_snapshot();
        let mut resumed = Gpu::load_snapshot(&snap).expect("preemption snapshot decodes");
        let t_resumed = resumed.run_to_outcome(Femtos::from_micros(100_000)).completed().unwrap();
        // Semantic equivalence: same completion time as never preempting.
        assert_eq!(t_resumed, t_whole, "preempt→snapshot→resume must match uninterrupted run");
        // Bit-exactness of the snapshot hop: the restored simulator must be
        // indistinguishable from the original continuing in place (same
        // chunk grid, so states stay byte-identical all the way down).
        let t_cont = preempted.run_to_outcome(Femtos::from_micros(100_000)).completed().unwrap();
        assert_eq!(t_cont, t_resumed);
        assert_eq!(
            resumed.save_snapshot(),
            preempted.save_snapshot(),
            "resume-from-snapshot diverged from continuing in place"
        );
    }

    #[test]
    fn no_progress_on_drained_event_queue() {
        // Fabricate the provable-hang shape: work outstanding but nothing
        // scheduled. Private-field access is the point of this being an
        // in-crate test.
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
        gpu.run_until(Femtos::from_micros(1));
        assert!(!gpu.is_done());
        for cu in &mut gpu.cus {
            cu.next_cycle = IDLE;
        }
        gpu.rebuild_wake();
        match gpu.run_to_outcome(Femtos::from_micros(1000)) {
            RunOutcome::NoProgress { now, committed } => {
                assert_eq!(now, Femtos::from_micros(1), "detected before any time passes");
                assert_eq!(committed, 0);
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
    }

    #[test]
    fn no_progress_on_stalled_window_without_false_positive_margin() {
        // A frequency transition far longer than the meter window stalls
        // all retirement: the meter must declare NoProgress once the
        // window is exhausted, and well before the (huge) sim deadline.
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
        gpu.run_until(Femtos::from_micros(1));
        let all: Vec<usize> = (0..gpu.n_cus()).collect();
        gpu.set_frequency_of(&all, Frequency::from_mhz(1300), Femtos::from_micros(100_000));
        let mut meter = ProgressMeter::with_window(8);
        match gpu.run_metered(Femtos::from_micros(1_000_000), &mut meter) {
            RunOutcome::NoProgress { now, .. } => {
                assert!(
                    now <= Femtos::from_micros(1 + 8 * 10 + 10),
                    "stall declared right after the window, got {now}"
                );
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
        // The same shape with a stall shorter than the default window
        // completes: no false positive once progress resumes.
        let mut gpu2 = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
        gpu2.run_until(Femtos::from_micros(1));
        assert!(!gpu2.is_done());
        let all2: Vec<usize> = (0..gpu2.n_cus()).collect();
        gpu2.set_frequency_of(&all2, Frequency::from_mhz(1300), Femtos::from_micros(1_000));
        let outcome = gpu2.run_to_outcome(Femtos::from_micros(1_000_000));
        assert!(outcome.is_completed(), "transition shorter than window completes: {outcome:?}");
    }

    #[test]
    fn epochs_compose_to_same_result_as_one_run() {
        let app = compute_app(32);
        let mut a = Gpu::new(GpuConfig::tiny(), app.clone());
        let mut b = Gpu::new(GpuConfig::tiny(), app);
        // a: single long run; b: many 1us epochs.
        a.run_until(Femtos::from_micros(50));
        let mut total_b = 0u64;
        for _ in 0..50 {
            total_b += b.run_epoch(Femtos::from_micros(1)).committed_total();
        }
        // Per-epoch counters reset at each boundary, so only cumulative
        // quantities are comparable between the two schedules: completion
        // state/time must match exactly, and b's summed committed count
        // must be non-trivial.
        assert_eq!(a.is_done(), b.is_done());
        assert_eq!(a.completion_time(), b.completion_time());
        assert!(total_b > 0);
    }

    #[test]
    fn clone_divergence_free() {
        let mut gpu = Gpu::new(GpuConfig::tiny(), memory_app(16));
        gpu.run_epoch(Femtos::from_micros(5));
        let mut fork = gpu.clone();
        let s1 = gpu.run_epoch(Femtos::from_micros(5));
        let s2 = fork.run_epoch(Femtos::from_micros(5));
        assert_eq!(s1, s2, "clone diverged from original");
        assert_eq!(gpu.now(), fork.now());
    }

    #[test]
    fn clone_from_refresh_equals_fresh_clone() {
        // A reused fork (the oracle's arena) must be indistinguishable from
        // a fresh clone, even when the destination previously simulated a
        // different app at a different point in time.
        let mut gpu = Gpu::new(GpuConfig::tiny(), memory_app(16));
        gpu.run_epoch(Femtos::from_micros(5));
        let mut stale = Gpu::new(GpuConfig::tiny(), compute_app(32));
        stale.run_epoch(Femtos::from_micros(9));
        stale.clone_from(&gpu);
        let mut fresh = gpu.clone();
        for _ in 0..3 {
            let a = stale.run_epoch(Femtos::from_micros(2));
            let b = fresh.run_epoch(Femtos::from_micros(2));
            assert_eq!(a, b, "refreshed fork diverged from fresh clone");
        }
        assert_eq!(stale.now(), fresh.now());
        assert_eq!(stale.completion_time(), fresh.completion_time());
    }

    #[test]
    fn fork_with_different_frequency_diverges_meaningfully() {
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
        gpu.run_epoch(Femtos::from_micros(2));
        let mut slow = gpu.clone();
        let mut fast = gpu.clone();
        let all: Vec<usize> = (0..gpu.n_cus()).collect();
        slow.set_frequency_of(&all, Frequency::from_mhz(1300), Femtos::ZERO);
        fast.set_frequency_of(&all, Frequency::from_mhz(2200), Femtos::ZERO);
        let cs = slow.run_epoch(Femtos::from_micros(2)).committed_total();
        let cf = fast.run_epoch(Femtos::from_micros(2)).committed_total();
        assert!(cf > cs, "compute-bound work must commit more at higher f ({cf} vs {cs})");
    }

    #[test]
    fn memory_bound_insensitive_to_frequency() {
        let mut gpu = Gpu::new(GpuConfig::tiny(), memory_app(64));
        gpu.run_epoch(Femtos::from_micros(3));
        let mut slow = gpu.clone();
        let mut fast = gpu.clone();
        let all: Vec<usize> = (0..gpu.n_cus()).collect();
        slow.set_frequency_of(&all, Frequency::from_mhz(1300), Femtos::ZERO);
        fast.set_frequency_of(&all, Frequency::from_mhz(2200), Femtos::ZERO);
        let cs = slow.run_epoch(Femtos::from_micros(3)).committed_total().max(1);
        let cf = fast.run_epoch(Femtos::from_micros(3)).committed_total();
        let ratio = cf as f64 / cs as f64;
        assert!(ratio < 1.35, "memory-bound work should scale weakly with f, got ratio {ratio}");
    }

    #[test]
    fn frequency_transition_stalls_cu() {
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
        gpu.run_epoch(Femtos::from_micros(1));
        let mut with_stall = gpu.clone();
        let mut without = gpu.clone();
        let all: Vec<usize> = (0..gpu.n_cus()).collect();
        with_stall.set_frequency_of(&all, Frequency::from_mhz(2200), Femtos::from_nanos(400));
        without.set_frequency_of(&all, Frequency::from_mhz(2200), Femtos::ZERO);
        let c1 = with_stall.run_epoch(Femtos::from_micros(1)).committed_total();
        let c2 = without.run_epoch(Femtos::from_micros(1)).committed_total();
        assert!(c2 > c1, "transition stall should cost throughput ({c2} vs {c1})");
    }

    #[test]
    fn multi_kernel_apps_run_sequentially() {
        let mut b1 = KernelBuilder::new("k1", 8, 4, 1);
        b1.valu(1, 4);
        let mut b2 = KernelBuilder::new("k2", 8, 4, 2);
        b2.valu(1, 4);
        let app = App::new("two", vec![b1.finish(), b2.finish()]).unwrap();
        let mut gpu = Gpu::new(GpuConfig::tiny(), app);
        assert!(gpu.run_to_outcome(Femtos::from_micros(100)).is_completed());
        assert!(gpu.is_done());
    }

    /// Runs `epochs` epochs of 1 µs at the given lane count, returning the
    /// per-epoch stats and the final snapshot bytes.
    fn run_lanes(app: &App, lanes: usize, epochs: usize) -> (Vec<EpochStats>, Vec<u8>) {
        let mut gpu = Gpu::new(GpuConfig::tiny(), app.clone());
        gpu.set_sim_lanes(lanes);
        let mut out = Vec::new();
        for _ in 0..epochs {
            out.push(gpu.run_epoch(Femtos::from_micros(1)));
        }
        (out, gpu.save_snapshot())
    }

    #[test]
    fn sharded_compute_app_bit_identical_to_serial() {
        let app = compute_app_trips(64, 400);
        let (serial, snap1) = run_lanes(&app, 1, 12);
        for lanes in [2, 8] {
            let (sharded, snap) = run_lanes(&app, lanes, 12);
            assert_eq!(serial, sharded, "epoch stats diverged at {lanes} lanes");
            assert_eq!(snap1, snap, "snapshot diverged at {lanes} lanes");
        }
    }

    #[test]
    fn sharded_memory_app_bit_identical_to_serial() {
        let app = memory_app(64);
        let (serial, snap1) = run_lanes(&app, 1, 12);
        for lanes in [2, 8] {
            let (sharded, snap) = run_lanes(&app, lanes, 12);
            assert_eq!(serial, sharded, "epoch stats diverged at {lanes} lanes");
            assert_eq!(snap1, snap, "snapshot diverged at {lanes} lanes");
        }
    }

    #[test]
    fn sharded_completion_and_clone_match_serial() {
        let app = compute_app(32);
        let mut a = Gpu::new(GpuConfig::tiny(), app.clone());
        a.set_sim_lanes(1);
        let mut b = Gpu::new(GpuConfig::tiny(), app);
        b.set_sim_lanes(4);
        // Forks of a sharded GPU inherit the lane count and still match.
        let mut b_fork = b.clone();
        assert_eq!(b_fork.sim_lanes(), 4);
        let ta = a.run_to_outcome(Femtos::from_micros(1000));
        let tb = b.run_to_outcome(Femtos::from_micros(1000));
        let tf = b_fork.run_to_outcome(Femtos::from_micros(1000));
        assert_eq!(ta, tb);
        assert_eq!(ta, tf);
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn retiming_keeps_event_queue_bounded() {
        // Heavy per-epoch retiming (fine-grain DVFS retimes every domain
        // every epoch) must not grow the event queue: a retime overwrites
        // the CU's one entry, so the queue never exceeds one per CU.
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 2000));
        let all: Vec<usize> = (0..gpu.n_cus()).collect();
        let bound = gpu.n_cus();
        let mut max_len = 0;
        for e in 0..300 {
            // Alternate between two frequencies so every epoch actually
            // retimes (set_cu_frequency no-ops on an unchanged frequency).
            let mhz = if e % 2 == 0 { 1300 } else { 2200 };
            gpu.set_frequency_of(&all, Frequency::from_mhz(mhz), Femtos::from_nanos(1));
            gpu.run_epoch(Femtos::from_nanos(100));
            max_len = max_len.max(gpu.event_queue_len());
        }
        assert!(
            max_len <= bound,
            "event queue grew to {max_len} entries under per-epoch retiming (bound {bound})"
        );
    }

    #[test]
    fn no_progress_on_drained_event_queue_sharded() {
        // The provable-hang detection must behave identically under
        // sharded execution: the liveness check aggregates per-CU
        // next_cycle values, not the (mode-specific) event queue.
        let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
        gpu.set_sim_lanes(4);
        gpu.run_until(Femtos::from_micros(1));
        assert!(!gpu.is_done());
        for cu in &mut gpu.cus {
            cu.next_cycle = IDLE;
        }
        gpu.rebuild_wake();
        match gpu.run_to_outcome(Femtos::from_micros(1000)) {
            RunOutcome::NoProgress { now, committed } => {
                assert_eq!(now, Femtos::from_micros(1));
                assert_eq!(committed, 0);
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
    }

    #[test]
    fn no_progress_on_stalled_window_sharded_matches_serial() {
        // A transition stall longer than the meter window must be declared
        // at the identical simulated time whether the window between
        // chunks is executed serially or sharded.
        let outcome_at = |lanes: usize| {
            let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app_trips(64, 400));
            gpu.set_sim_lanes(lanes);
            gpu.run_until(Femtos::from_micros(1));
            let all: Vec<usize> = (0..gpu.n_cus()).collect();
            gpu.set_frequency_of(&all, Frequency::from_mhz(1300), Femtos::from_micros(100_000));
            let mut meter = ProgressMeter::with_window(8);
            gpu.run_metered(Femtos::from_micros(1_000_000), &mut meter)
        };
        let serial = outcome_at(1);
        assert!(matches!(serial, RunOutcome::NoProgress { .. }), "got {serial:?}");
        assert_eq!(serial, outcome_at(2));
        assert_eq!(serial, outcome_at(8));
    }

    #[test]
    fn committed_work_is_conserved_across_frequencies() {
        // Total committed instructions over a full app run must be the same
        // at any frequency (same program), only the time differs.
        let total = |mhz: u32| -> (u64, Femtos) {
            let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app(16));
            let all: Vec<usize> = (0..gpu.n_cus()).collect();
            gpu.set_frequency_of(&all, Frequency::from_mhz(mhz), Femtos::ZERO);
            let mut committed = 0;
            for _ in 0..2000 {
                let s = gpu.run_epoch(Femtos::from_micros(1));
                committed += s.committed_total();
                if s.done {
                    break;
                }
            }
            (committed, gpu.completion_time().unwrap())
        };
        let (c_slow, t_slow) = total(1300);
        let (c_fast, t_fast) = total(2200);
        assert_eq!(c_slow, c_fast, "work must be conserved");
        assert!(t_fast < t_slow, "higher frequency must finish sooner");
    }
}
