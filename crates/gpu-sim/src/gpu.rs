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
use crate::mem::MemSystem;
use crate::stats::{CuEpochStats, EpochStats};
use crate::time::{Femtos, Frequency, WakeTree};
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

/// Kernel-launch and workgroup-dispatch state: which kernel runs, how many
/// of its workgroups are dispatched and live, and where the round-robin
/// dispatcher resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaunchState {
    kernel_idx: usize,
    next_wg: u32,
    wgs_remaining: u32,
    next_uid: u64,
    next_age: u64,
    dispatch_cursor: usize,
    completion: Option<Femtos>,
}

impl LaunchState {
    /// Handles one retired workgroup at time `t`: backfills dispatch, and
    /// on kernel completion launches the next kernel (device-wide sync) or
    /// records app completion. Every CU that receives work is rescheduled
    /// in `wake` at its new `next_cycle`.
    fn on_workgroup_done(
        &mut self,
        t: Femtos,
        kernels: &[Kernel],
        cus: &mut [Cu],
        wake: &mut WakeTree,
    ) {
        self.wgs_remaining -= 1;
        if self.next_wg < kernels[self.kernel_idx].workgroups {
            self.fill_cus(t, kernels, cus, wake);
        } else if self.wgs_remaining == 0 {
            self.kernel_idx += 1;
            if self.kernel_idx < kernels.len() {
                self.next_wg = 0;
                self.wgs_remaining = kernels[self.kernel_idx].workgroups;
                self.fill_cus(t, kernels, cus, wake);
            } else {
                self.completion = Some(t);
            }
        }
    }

    /// The current kernel's workgroup size while it still has workgroups
    /// to dispatch: the slots a CU must have free to receive one. `None`
    /// once every workgroup is dispatched (or the app is done): the next
    /// dispatch then waits for the next kernel, which cannot launch while
    /// any CU still runs a wavefront of this one.
    fn dispatch_wg(&self, kernels: &[Kernel]) -> Option<usize> {
        kernels
            .get(self.kernel_idx)
            .filter(|k| self.next_wg < k.workgroups)
            .map(|k| k.wg_wavefronts as usize)
    }

    /// Dispatches as many pending workgroups as fit, round-robin over CUs.
    fn fill_cus(&mut self, t: Femtos, kernels: &[Kernel], cus: &mut [Cu], wake: &mut WakeTree) {
        let kernel = &kernels[self.kernel_idx];
        let n = cus.len();
        let mut full_streak = 0;
        while self.next_wg < kernel.workgroups && full_streak < n {
            let cu = self.dispatch_cursor % n;
            let wg_size = kernel.wg_wavefronts as u64;
            let c = &mut cus[cu];
            if c.try_dispatch_wg(kernel, self.kernel_idx as u32, self.next_uid, self.next_age, t) {
                self.next_uid += wg_size;
                self.next_age += wg_size;
                self.next_wg += 1;
                full_streak = 0;
                // Dispatch pulls the CU's clock back to `t` at the latest.
                wake.set(cu, c.next_cycle);
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
    /// `(time, cu)` order. Each step, retime and dispatch that moves a
    /// `next_cycle` sets it here; a snapshot load rebuilds it from the CU
    /// clocks.
    wake: WakeTree,
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
            scratch: CollectScratch::default(),
            cfg,
        };
        let Gpu { cus, launch, wake, app, .. } = &mut gpu;
        launch.fill_cus(Femtos::ZERO, &app.kernels, cus, wake);
        gpu
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
    /// The event loop: take the earliest `(time, cu)` and let that CU run
    /// ahead ([`Cu::run_ahead`]) against the shared memory system — every
    /// step while it is still the global minimum, then CU-local steps
    /// only — retire its finished workgroups at the time of the step that
    /// finished them, and re-queue it at its new `next_cycle`. Every L2/DRAM
    /// access, retirement and dispatch therefore happens in the same
    /// `(time, cu)` order as stepping one CU per pop (DESIGN.md §11).
    pub fn run_until(&mut self, end: Femtos) {
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
            let runner_up = self.wake.runner_up(i);
            let dispatch_wg = self.launch.dispatch_wg(&app.kernels);
            let (t, outcome) = self.cus[i].run_ahead(
                end,
                runner_up,
                dispatch_wg,
                &mut self.mem,
                &app.kernels,
                &mut self.scratch.ready,
            );
            for _ in 0..outcome.workgroups_done {
                debug_assert!((t, i) < runner_up, "CU {i} dispatched at {t} behind {runner_up:?}");
                self.launch.on_workgroup_done(t, &app.kernels, &mut self.cus, &mut self.wake);
            }
            self.wake.set(i, self.cus[i].next_cycle);
        }
        if let Some(mark) = alloc_mark {
            debug_assert_eq!(
                crate::alloc_probe::count(),
                mark,
                "event loop allocated while the probe was armed"
            );
        }
        // Epoch composition: nothing is left pending before `end`, so a
        // retime or snapshot between calls sees every CU at or past it.
        debug_assert!(
            self.cus.iter().all(|cu| cu.next_cycle >= end),
            "a CU was left behind the end of run_until at {end}"
        );
        self.now = end;
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
        self.run_epoch_with(duration, out, Gpu::run_until);
    }

    /// [`Gpu::run_epoch_into`] with the event loop passed in as `advance`:
    /// [`Gpu::run_until`], or in tests the one-step-per-pop reference loop.
    fn run_epoch_with(
        &mut self,
        duration: Femtos,
        out: &mut EpochStats,
        advance: fn(&mut Gpu, Femtos),
    ) {
        let start = self.now;
        self.begin_epoch();
        let end = start + duration;
        advance(self, end);
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
        self.run_metered_with(deadline, meter, Gpu::run_until)
    }

    /// [`Gpu::run_metered`] with the event loop passed in as `advance`, as
    /// in [`Gpu::run_epoch_with`].
    fn run_metered_with(
        &mut self,
        deadline: Femtos,
        meter: &mut ProgressMeter,
        advance: fn(&mut Gpu, Femtos),
    ) -> RunOutcome {
        const CHUNK: Femtos = Femtos::from_micros(10);
        meter.begin(self.committed_watermark());
        while !self.is_done() && self.now < deadline {
            if !self.has_live_events() {
                // The event queue drained with the app unfinished: nothing
                // can ever be scheduled again, so this is a provable hang,
                // not just a slow patch.
                return RunOutcome::NoProgress { now: self.now, committed: meter.progressed() };
            }
            advance(self, (self.now + CHUNK).min(deadline));
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
    /// `(next_cycle, cu)` list derived from the live CU clocks, so the byte
    /// stream depends only on the simulated state. A GPU restored by
    /// [`Gpu::load_snapshot`] is *bit-exact*: stepping it produces the same
    /// event stream, stats and telemetry as the uninterrupted original.
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
            wake: _,    // canonical form derived from `cus` below
            scratch: _, // stateless epoch scratch; rebuilt on load
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
    /// count, kernel launch-state bounds, the workgroup count (remaining
    /// workgroups = undispatched + live on the CUs, zero once complete),
    /// and the event list: its indices must be in range and every
    /// scheduled CU must have an entry at exactly its `next_cycle` (entries
    /// matching no clock are legacy stale duplicates and are ignored). A corrupted or internally inconsistent
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
        // Every workgroup of the current kernel is undispatched, live on a
        // CU, or retired; only the first two count as remaining.
        let live: u64 = cus.iter().map(|cu| u64::from(cu.live_workgroups())).sum();
        let (finished, undispatched) = match app.kernels.get(kernel_idx) {
            Some(k) => (false, u64::from(k.workgroups - next_wg)),
            None => (true, 0),
        };
        if finished != completion.is_some() {
            return Err(SnapError::invalid(format!(
                "kernel_idx {kernel_idx} of {} kernels disagrees with completion {completion:?}",
                app.kernels.len()
            )));
        }
        if finished && live != 0 {
            return Err(SnapError::invalid(format!(
                "app completed with {live} workgroups still live"
            )));
        }
        if u64::from(wgs_remaining) != undispatched + live {
            return Err(SnapError::invalid(format!(
                "wgs_remaining {wgs_remaining} disagrees with {undispatched} undispatched + \
                 {live} live workgroups"
            )));
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
            scratch: CollectScratch::default(),
        };
        gpu.rebuild_wake();
        Ok(gpu)
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

    /// The event loop `run_until` replaced: step the earliest `(time, cu)`
    /// once, retire, re-queue. Kept as the oracle for CU run-ahead.
    fn lockstep_until(gpu: &mut Gpu, end: Femtos) {
        let app = Arc::clone(&gpu.app);
        loop {
            let (t, i) = gpu.wake.min();
            if t >= end {
                break;
            }
            let outcome = gpu.cus[i].step(t, &mut gpu.mem, &app.kernels);
            for _ in 0..outcome.workgroups_done {
                gpu.launch.on_workgroup_done(t, &app.kernels, &mut gpu.cus, &mut gpu.wake);
            }
            gpu.wake.set(i, gpu.cus[i].next_cycle);
        }
        gpu.now = end;
    }

    /// An app built by another crate (against the non-test build of this
    /// one), carried over through its snapshot encoding.
    fn local_app(app: &impl Snapshot) -> App {
        let mut w = snapshot::Encoder::new();
        app.encode(&mut w);
        App::decode(&mut snapshot::Decoder::new(&w.into_bytes())).expect("app decodes")
    }

    /// Runs `app` on `cfg` under `run_until` and under [`lockstep_until`]
    /// for `epochs` 1 µs epochs, every CU retimed (with a 50 ns transition
    /// stall) at every boundary, requiring equal epoch stats and snapshot
    /// bytes after each; then runs both to completion in
    /// [`Gpu::run_metered`]'s 10 µs chunks and requires the same outcome
    /// and bytes again.
    fn assert_matches_lockstep(label: &str, cfg: GpuConfig, app: &App, epochs: usize) {
        let mut fast = Gpu::new(cfg, app.clone());
        let mut slow = Gpu::new(cfg, app.clone());
        let mut a = EpochStats::empty();
        let mut b = EpochStats::empty();
        for epoch in 0..epochs {
            for cu in 0..cfg.n_cus {
                let mhz = [1300, 2200, 1700][(epoch + cu) % 3];
                fast.set_cu_frequency(cu, Frequency::from_mhz(mhz), Femtos::from_nanos(50));
                slow.set_cu_frequency(cu, Frequency::from_mhz(mhz), Femtos::from_nanos(50));
            }
            fast.run_epoch_with(Femtos::from_micros(1), &mut a, Gpu::run_until);
            slow.run_epoch_with(Femtos::from_micros(1), &mut b, lockstep_until);
            assert!(format!("{a:?}") == format!("{b:?}"), "{label}: epoch {epoch} stats");
            assert!(fast.save_snapshot() == slow.save_snapshot(), "{label}: epoch {epoch} bytes");
        }
        let deadline = Femtos::from_micros(100_000);
        let meter = &mut ProgressMeter::default();
        let done = fast.run_metered_with(deadline, meter, Gpu::run_until);
        let meter = &mut ProgressMeter::default();
        let want = slow.run_metered_with(deadline, meter, lockstep_until);
        assert_eq!(done, want, "{label}: completion");
        assert!(done.is_completed(), "{label}: {done:?}");
        assert!(fast.save_snapshot() == slow.save_snapshot(), "{label}: completion bytes");
    }

    /// CU run-ahead against the lockstep oracle over every CU count,
    /// wavefront-slot count and issue width the stopping rule depends on:
    /// one CU (the runner-up is always beyond the end), CU counts that pad
    /// the wake tree, occupancy that does and does not leave a
    /// workgroup's worth of slots free, and single- and multi-kernel apps
    /// whose workgroups of 1, 2 and 4 wavefronts retire one straggler at a
    /// time.
    #[test]
    fn run_ahead_matches_lockstep_reference() {
        let registry = |name: &str| {
            local_app(&workloads::by_name(name, workloads::Scale::Quick).expect("registered"))
        };
        let fuzz = |index: u64| local_app(&scenarios::fuzz::generate(0xA11CE, index));
        let cases = [
            (1, 8, 1, registry("comd")),
            (1, 80, 2, fuzz(0)),
            (3, 40, 2, fuzz(1)),
            (3, 80, 4, registry("BwdBN")),
            (5, 8, 3, registry("lulesh")),
            (5, 40, 1, fuzz(2)),
            (5, 80, 2, registry("minife")),
            (16, 40, 4, registry("hacc")),
            (16, 8, 2, fuzz(3)),
            (16, 80, 3, registry("pennant")),
        ];
        for (n_cus, wf_slots, issue_width, app) in cases {
            let cfg = GpuConfig { n_cus, wf_slots, issue_width, ..GpuConfig::small() };
            let label =
                format!("{} on {n_cus} CUs x {wf_slots} slots, width {issue_width}", app.name);
            assert_matches_lockstep(&label, cfg, &app, 8);
        }
    }
}
