//! The layered run engine: a [`Session`] owns the simulated GPU and the
//! policy under test and exposes `step()`-granular execution, while
//! cross-cutting concerns — energy accounting, accuracy metering, frequency
//! residency, the Section 5.4 power-cap manager and sensitivity tracing —
//! are independent [`RunObserver`]s composed per call site.
//!
//! [`crate::runner::run`] is a thin composition over this engine; studies
//! and agreement analysis attach their own observers instead of duplicating
//! the policy-in-the-loop protocol.
//!
//! The per-epoch protocol (bit-compatible with the original monolithic
//! runner loop):
//!
//! 1. stop if the app is done or the epoch cap is reached;
//! 2. fork–pre-execute oracle sampling over the currently *allowed* states
//!    (when the policy needs it, or sampling is forced for observers);
//! 3. the policy decides every domain's next state;
//! 4. [`RunObserver::on_decisions`] fires — `current` still holds the
//!    *previous* frequencies at this point;
//! 5. frequencies are applied (with transition stalls) and the epoch runs,
//!    collecting telemetry into a reused buffer;
//! 6. [`RunObserver::on_epoch`] fires with the telemetry;
//! 7. observers may narrow the allowed state range for the next epoch via
//!    [`RunObserver::allowed`].

use crate::runner::{FaultReport, RunConfig, RunResult};
use dvfs::domain::DomainMap;
use dvfs::hierarchy::{PowerCapConfig, PowerCapManager};
use dvfs::states::FreqStates;
use exec::WorkerPool;
use faults::{ActuationEvent, FaultInjector, TelemetryEvent};
use gpu_sim::gpu::Gpu;
use gpu_sim::kernel::App;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::{Femtos, Frequency};
use pcstall::accuracy::AccuracyMeter;
use pcstall::oracle::{self, OracleSamples};
use pcstall::policy::{DecideCtx, Decision, DvfsPolicy, Telemetry};
use pcstall::resilience::ResilientPolicy;
use power::energy::EnergyAccount;
use power::model::PowerModel;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts every [`Session`] constructed in this process (each is one full
/// policy-in-the-loop simulator run; oracle forks are not counted). Used to
/// demonstrate that baseline caching performs strictly fewer runs.
static SIM_RUNS: AtomicUsize = AtomicUsize::new(0);

/// Number of policy-in-the-loop simulator runs started so far in this
/// process.
pub fn sim_runs() -> usize {
    SIM_RUNS.load(Ordering::Relaxed)
}

/// Everything an observer may inspect at an epoch boundary.
#[derive(Debug)]
pub struct EpochCtx<'a> {
    /// Zero-based index of the epoch being executed.
    pub epoch_index: usize,
    /// The run configuration.
    pub cfg: &'a RunConfig,
    /// The V/f domain partition.
    pub domains: &'a DomainMap,
    /// The state range the decisions were made over (narrowed under a
    /// power cap; aligned with each decision's `predicted` curve).
    pub allowed: &'a FreqStates,
    /// Per-domain frequencies — the *previous* epoch's in
    /// [`RunObserver::on_decisions`], the applied ones in
    /// [`RunObserver::on_epoch`].
    pub current: &'a [Frequency],
    /// The policy's per-domain decisions for this epoch.
    pub decisions: &'a [Decision],
    /// Fork–pre-execute samples of this epoch, when sampling ran (the
    /// policy needed it or [`Session::sampling_every_epoch`] forced it).
    pub samples: Option<&'a OracleSamples>,
    /// The power model in effect.
    pub power: &'a PowerModel,
    /// The live GPU (pre-epoch in `on_decisions`, post-epoch in
    /// `on_epoch`).
    pub gpu: &'a Gpu,
}

/// A cross-cutting concern attached to a [`Session`]. All methods default
/// to no-ops so observers implement only what they need.
pub trait RunObserver {
    /// Called after the policy decided, before frequencies are applied.
    fn on_decisions(&mut self, _ctx: &EpochCtx<'_>) {}

    /// Called after the epoch executed, with its telemetry.
    fn on_epoch(&mut self, _ctx: &EpochCtx<'_>, _stats: &EpochStats) {}

    /// The state range the next epoch's decisions must be restricted to
    /// (`None` = no opinion). Queried after every epoch; the last observer
    /// returning `Some` wins.
    fn allowed(&self) -> Option<FreqStates> {
        None
    }

    /// Folds this observer's measurements into the final result.
    fn finish(&mut self, _result: &mut RunResult) {}
}

/// Which telemetry source the current epoch's decide call consumes —
/// resolved in a first (mutating) pass over the fault state so the
/// [`Telemetry`] borrows can be taken immutably afterwards.
#[derive(Clone, Copy)]
enum TelemetrySrc {
    /// No epoch has elapsed yet.
    Warmup,
    /// Fresh counters straight from the simulator.
    Prev,
    /// Fresh counters, perturbed into the noise scratch buffer.
    Scratch,
    /// The stale replay register, `age` epochs old.
    Held(usize),
    /// Nothing delivered for `age` consecutive epochs.
    Lost(usize),
}

/// Per-session fault-injection state (present iff [`RunConfig::faults`] is
/// set): the injector plus the buffers that model a faulty counter path —
/// a replay register for stale deliveries and a scratch copy for noise, so
/// the *policy* sees perturbed counters while every observer keeps metering
/// ground truth.
#[derive(Debug)]
struct FaultState {
    injector: FaultInjector,
    /// The last delivered snapshot (what a stale epoch re-delivers).
    held: EpochStats,
    has_held: bool,
    /// Epochs since `held` was captured.
    held_age: usize,
    /// Scratch buffer noise perturbs (never the real telemetry).
    scratch: EpochStats,
    /// Consecutive lost epochs.
    lost_age: usize,
}

impl FaultState {
    fn new(cfg: faults::FaultConfig) -> Self {
        FaultState {
            injector: FaultInjector::new(cfg),
            held: EpochStats::empty(),
            has_held: false,
            held_age: 0,
            scratch: EpochStats::empty(),
            lost_age: 0,
        }
    }

    /// Resolves the epoch's telemetry source, advancing the injector and
    /// the replay/noise buffers. `prev` is the elapsed epoch's ground-truth
    /// telemetry.
    fn select(&mut self, epoch: u64, prev: &EpochStats) -> TelemetrySrc {
        self.held_age += 1;
        match self.injector.telemetry_event(epoch) {
            TelemetryEvent::Lost => {
                self.lost_age += 1;
                TelemetrySrc::Lost(self.lost_age)
            }
            TelemetryEvent::Stale if self.has_held => {
                self.lost_age = 0;
                TelemetrySrc::Held(self.held_age)
            }
            TelemetryEvent::Stale => {
                // Nothing delivered yet to replay: a stale event this early
                // is indistinguishable from loss.
                self.lost_age += 1;
                TelemetrySrc::Lost(self.lost_age)
            }
            TelemetryEvent::Deliver => {
                self.lost_age = 0;
                self.scratch.clone_from(prev);
                let noised = self.injector.apply_noise(epoch, &mut self.scratch);
                // The delivered (possibly noised) snapshot becomes what a
                // later stale epoch replays.
                self.held.clone_from(&self.scratch);
                self.has_held = true;
                self.held_age = 0;
                if noised {
                    TelemetrySrc::Scratch
                } else {
                    TelemetrySrc::Prev
                }
            }
        }
    }
}

/// One policy-in-the-loop run in progress: owns the GPU, the domain map,
/// the policy and the reusable telemetry buffers, and advances one epoch
/// per [`Session::step`].
pub struct Session {
    app_name: String,
    cfg: RunConfig,
    gpu: Gpu,
    domains: DomainMap,
    policy: Box<dyn DvfsPolicy>,
    power: PowerModel,
    current: Vec<Frequency>,
    allowed: FreqStates,
    epochs: usize,
    sample_always: bool,
    /// Pool the fork–pre-execute oracle samples on. Defaults to the
    /// process-global pool; a session nested inside a pool job (e.g. one
    /// grid cell) still passes it down — nested maps inline, so outer-level
    /// parallelism wins and the thread budget is never exceeded.
    pool: Arc<WorkerPool>,
    /// Telemetry buffer the epoch collects into (reused; no per-epoch
    /// allocation in steady state).
    stats_buf: EpochStats,
    /// The previous epoch's telemetry (swapped with `stats_buf`).
    prev_stats: EpochStats,
    has_prev: bool,
    decisions: Vec<Decision>,
    /// Fault injection state, present iff the config asked for it.
    faults: Option<FaultState>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("app", &self.app_name)
            .field("policy", &self.policy.name())
            .field("epochs", &self.epochs)
            .field("done", &self.gpu.is_done())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a session over `app` with `cfg`'s platform and policy; the
    /// GPU starts at the platform's initial frequency with the full state
    /// set allowed.
    pub fn new(app: &App, cfg: &RunConfig) -> Self {
        Self::with_warm_gpu(app, cfg, Gpu::new(cfg.gpu, app.clone()))
    }

    /// Creates a session that adopts an already-warmed GPU — restored from
    /// a warmup snapshot ([`crate::snapcache`]) or simulated elsewhere —
    /// instead of constructing a fresh one. The GPU must still be at the
    /// platform's initial frequency (warmup runs policy-free at the initial
    /// state, so every snapcache snapshot satisfies this); stepping the
    /// session is then bit-identical to warming up in-line.
    ///
    /// # Panics
    ///
    /// Panics if `gpu`'s platform is not `cfg.gpu`.
    pub fn with_warm_gpu(app: &App, cfg: &RunConfig, gpu: Gpu) -> Self {
        assert_eq!(*gpu.config(), cfg.gpu, "warmed GPU platform differs from the run config");
        SIM_RUNS.fetch_add(1, Ordering::Relaxed);
        let domains = DomainMap::grouped(cfg.gpu.n_cus, cfg.group);
        let mut policy = cfg.policy.build();
        if let Some(setup) = &cfg.faults {
            if let Some(fallback) = setup.fallback {
                policy = Box::new(ResilientPolicy::new(policy, fallback));
            }
        }
        let power = PowerModel::new(cfg.power);
        let init = Frequency::from_mhz(cfg.gpu.initial_freq_mhz);
        Session {
            app_name: app.name.clone(),
            current: vec![init; domains.len()],
            allowed: cfg.states.clone(),
            epochs: 0,
            sample_always: false,
            pool: exec::global_pool(),
            stats_buf: EpochStats::empty(),
            prev_stats: EpochStats::empty(),
            has_prev: false,
            decisions: Vec::new(),
            faults: cfg.faults.map(|s| FaultState::new(s.faults)),
            cfg: cfg.clone(),
            gpu,
            domains,
            policy,
            power,
        }
    }

    /// Creates a session whose warmup prefix — `warmup_epochs` epochs at
    /// the platform's initial frequency, before the policy engages — is
    /// served from the content-addressed warmup store
    /// ([`crate::snapcache`]) instead of re-simulated whenever a matching
    /// snapshot exists. The restored state is bit-exact, so the session's
    /// subsequent epochs are bit-identical to a cold warmup.
    ///
    /// # Errors
    ///
    /// [`crate::HarnessError::Io`] when a freshly simulated warmup snapshot
    /// cannot be persisted to the store's cache directory.
    pub fn warmed(
        app: &App,
        cfg: &RunConfig,
        warmup_epochs: usize,
    ) -> Result<Self, crate::HarnessError> {
        let gpu = crate::snapcache::warmed_gpu(app, cfg, warmup_epochs)?;
        Ok(Self::with_warm_gpu(app, cfg, gpu))
    }

    /// Forces fork–pre-execute sampling on every epoch even when the
    /// policy itself is not oracle-based, so observers (agreement scoring,
    /// sensitivity tracing) see ground-truth curves. Samples are still
    /// passed to the policy only when it asks for them.
    pub fn sampling_every_epoch(mut self, on: bool) -> Self {
        self.sample_always = on;
        self
    }

    /// Samples the oracle on `pool` instead of the process-global pool
    /// (useful for determinism tests and benchmarks that pin an explicit
    /// thread count).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Does nothing: the simulator has one serial event loop and no lane
    /// count. Kept only because `perfbench` still calls it with 1; it goes
    /// when that call does.
    pub fn with_sim_lanes(self, _lanes: usize) -> Self {
        self
    }

    /// The live GPU.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The V/f domain partition.
    pub fn domains(&self) -> &DomainMap {
        &self.domains
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Epochs executed so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The state range the next epoch's decisions will use.
    pub fn allowed(&self) -> &FreqStates {
        &self.allowed
    }

    /// Whether the session will not advance further (app done or epoch cap
    /// reached).
    pub fn is_finished(&self) -> bool {
        self.gpu.is_done() || self.epochs >= self.cfg.max_epochs
    }

    /// Executes one epoch, notifying `observers`. Returns `false` (without
    /// running anything) once the application completes or the epoch cap is
    /// reached.
    pub fn step(&mut self, observers: &mut [&mut dyn RunObserver]) -> bool {
        if self.is_finished() {
            return false;
        }
        let epoch = self.epochs as u64;
        // A transient thermal clamp shrinks the legal state set for this
        // epoch only — `self.allowed` (the power-cap manager's range) is
        // never mutated, so the clamp lifts by itself when the event ends.
        let clamped: Option<FreqStates> = match &mut self.faults {
            Some(fs) => {
                fs.injector.clamp_tick(epoch, self.allowed.len()).map(|k| self.allowed.prefix(k))
            }
            None => None,
        };
        let allowed = clamped.as_ref().unwrap_or(&self.allowed);
        let samples = if self.sample_always || self.cfg.policy.needs_oracle() {
            Some(oracle::sample_with(
                &self.pool,
                &self.gpu,
                self.cfg.epoch.duration,
                allowed,
                &self.domains,
            ))
        } else {
            None
        };
        // Telemetry faults sit between the simulator and the policy: the
        // decide call may see dropped, stale or noised counters, but every
        // observer (energy, accuracy, residency) meters ground truth.
        let src = match (&mut self.faults, self.has_prev) {
            (_, false) => TelemetrySrc::Warmup,
            (None, true) => TelemetrySrc::Prev,
            (Some(fs), true) => fs.select(epoch, &self.prev_stats),
        };
        self.decisions = {
            let telemetry = match src {
                TelemetrySrc::Warmup => Telemetry::Warmup,
                TelemetrySrc::Prev => Telemetry::Fresh(&self.prev_stats),
                TelemetrySrc::Scratch => {
                    let fs = self.faults.as_ref().expect("scratch source implies fault state");
                    Telemetry::Fresh(&fs.scratch)
                }
                TelemetrySrc::Held(age) => {
                    let fs = self.faults.as_ref().expect("held source implies fault state");
                    Telemetry::Stale { stats: &fs.held, age }
                }
                TelemetrySrc::Lost(age) => Telemetry::Lost { age },
            };
            let ctx = DecideCtx {
                telemetry,
                gpu: &self.gpu,
                domains: &self.domains,
                states: allowed,
                epoch: self.cfg.epoch,
                power: &self.power,
                objective: self.cfg.objective,
                current: &self.current,
                samples: if self.cfg.policy.needs_oracle() { samples.as_ref() } else { None },
            };
            self.policy.decide(&ctx)
        };
        {
            let ctx = EpochCtx {
                epoch_index: self.epochs,
                cfg: &self.cfg,
                domains: &self.domains,
                allowed,
                current: &self.current,
                decisions: &self.decisions,
                samples: samples.as_ref(),
                power: &self.power,
                gpu: &self.gpu,
            };
            for o in observers.iter_mut() {
                o.on_decisions(&ctx);
            }
        }
        for d in 0..self.decisions.len() {
            let freq = self.decisions[d].freq;
            let event = match &mut self.faults {
                Some(fs) => fs.injector.actuation_event(epoch, d as u64),
                None => ActuationEvent::Apply,
            };
            if matches!(event, ActuationEvent::Dropped) {
                // The command is silently lost: the domain keeps its old
                // state. `current` still records the commanded frequency —
                // the controller's command register, which is all the
                // policy can see on real hardware.
                self.current[d] = freq;
                continue;
            }
            let mut transition = self.cfg.epoch.transition;
            if let Some(fs) = &self.faults {
                transition += Femtos::from_nanos(fs.injector.config().relock_ns);
                if matches!(event, ActuationEvent::Delayed) {
                    transition += Femtos::from_nanos(fs.injector.config().extra_settle_ns);
                }
            }
            self.gpu.set_frequency_of(self.domains.cus(d), freq, transition);
            self.current[d] = freq;
        }
        self.gpu.run_epoch_into(self.cfg.epoch.duration, &mut self.stats_buf);
        {
            let ctx = EpochCtx {
                epoch_index: self.epochs,
                cfg: &self.cfg,
                domains: &self.domains,
                allowed,
                current: &self.current,
                decisions: &self.decisions,
                samples: samples.as_ref(),
                power: &self.power,
                gpu: &self.gpu,
            };
            for o in observers.iter_mut() {
                o.on_epoch(&ctx, &self.stats_buf);
            }
        }
        for o in observers.iter() {
            if let Some(a) = o.allowed() {
                self.allowed = a;
            }
        }
        std::mem::swap(&mut self.prev_stats, &mut self.stats_buf);
        self.has_prev = true;
        self.epochs += 1;
        true
    }

    /// Steps until the application completes or the epoch cap is reached.
    pub fn run(&mut self, observers: &mut [&mut dyn RunObserver]) {
        while self.step(observers) {}
    }

    /// Like [`Session::run`], but polls `cancelled` between epochs and
    /// stops early when it reports `true`. Returns `true` iff the run was
    /// preempted (the session is still steppable); `false` means it ran to
    /// its natural end. Epoch boundaries are the only preemption points, so
    /// a preempted session's GPU is always in a consistent, snapshottable
    /// state.
    pub fn run_preemptible(
        &mut self,
        observers: &mut [&mut dyn RunObserver],
        cancelled: &dyn Fn() -> bool,
    ) -> bool {
        loop {
            if cancelled() {
                return !self.is_finished();
            }
            if !self.step(observers) {
                return false;
            }
        }
    }

    /// The session-level portion of the result (identity, delay, epoch
    /// count); observer [`RunObserver::finish`] calls fill in the rest.
    pub fn finalize(&self) -> RunResult {
        let delay = self.gpu.completion_time().unwrap_or_else(|| self.gpu.now());
        RunResult {
            policy: self.policy.name(),
            app: self.app_name.clone(),
            metrics: power::energy::RunMetrics { energy_j: 0.0, delay_s: delay.as_secs_f64() },
            accuracy: f64::NAN,
            epochs: self.epochs,
            freq_residency: Vec::new(),
            completed: self.gpu.is_done(),
            sensitivity_trace: None,
            fault_report: self.faults.as_ref().map(|fs| FaultReport {
                counts: fs.injector.counts(),
                ladder: self.policy.fault_ladder(),
            }),
        }
    }
}

/// Integrates chip energy over every epoch ([`EnergyAccount`]).
#[derive(Debug)]
pub struct EnergyObserver {
    acct: EnergyAccount,
}

impl EnergyObserver {
    /// An observer integrating with `power`'s model.
    pub fn new(power: PowerModel) -> Self {
        EnergyObserver { acct: EnergyAccount::new(power) }
    }

    /// Total energy integrated so far.
    pub fn energy_j(&self) -> f64 {
        self.acct.energy_j()
    }
}

impl RunObserver for EnergyObserver {
    fn on_epoch(&mut self, _ctx: &EpochCtx<'_>, stats: &EpochStats) {
        self.acct.add_epoch(stats);
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.metrics.energy_j = self.acct.energy_j();
    }
}

/// Scores each decision's predicted instruction count against the measured
/// one ([`AccuracyMeter`], paper Figure 14).
#[derive(Debug, Default)]
pub struct AccuracyObserver {
    meter: AccuracyMeter,
}

impl AccuracyObserver {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RunObserver for AccuracyObserver {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>, stats: &EpochStats) {
        for (d, dec) in ctx.decisions.iter().enumerate() {
            // Decisions are made over `allowed`, but map an off-grid choice
            // (a policy bug, not a scoring concern) through `nearest` so
            // accuracy accounting can never panic a run.
            let a_idx = ctx.allowed.index_of(dec.freq).unwrap_or_else(|| {
                ctx.allowed.index_of(ctx.allowed.nearest(dec.freq)).expect("nearest is a member")
            });
            self.meter.observe(dec.predicted[a_idx], stats.committed_in(ctx.domains.cus(d)) as f64);
        }
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.accuracy = self.meter.mean();
    }
}

/// Tracks the fraction of domain-epochs spent at each state of the full
/// configured set.
#[derive(Debug)]
pub struct ResidencyObserver {
    states: FreqStates,
    counts: Vec<u64>,
}

impl ResidencyObserver {
    /// An observer over the run's full state set (residency is always
    /// reported against the full set, even when a power cap narrows the
    /// allowed range).
    pub fn new(states: FreqStates) -> Self {
        let counts = vec![0u64; states.len()];
        ResidencyObserver { states, counts }
    }
}

impl RunObserver for ResidencyObserver {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>, _stats: &EpochStats) {
        for dec in ctx.decisions {
            // A power-cap manager may hand the controller a narrowed set;
            // every allowed state is a member of the full set, but map
            // through `nearest` so an off-grid state can never panic the
            // accounting.
            let idx = self.states.index_of(dec.freq).unwrap_or_else(|| {
                self.states.index_of(self.states.nearest(dec.freq)).expect("nearest is a member")
            });
            self.counts[idx] += 1;
        }
    }

    fn finish(&mut self, result: &mut RunResult) {
        let total: u64 = self.counts.iter().sum::<u64>().max(1);
        result.freq_residency = self.counts.iter().map(|&r| r as f64 / total as f64).collect();
    }
}

/// The Section 5.4 chip-level power-cap manager as an observer: integrates
/// epoch energy with its own [`EnergyAccount`] replica and narrows/widens
/// the allowed state range at interval boundaries.
#[derive(Debug)]
pub struct PowerCapObserver {
    mgr: PowerCapManager,
    acct: EnergyAccount,
}

impl PowerCapObserver {
    /// A manager over `states` enforcing `cap`, metering with `power`.
    pub fn new(cap: PowerCapConfig, states: FreqStates, power: PowerModel) -> Self {
        PowerCapObserver { mgr: PowerCapManager::new(cap, states), acct: EnergyAccount::new(power) }
    }

    /// The underlying manager (narrowing/widening counters).
    pub fn manager(&self) -> &PowerCapManager {
        &self.mgr
    }
}

impl RunObserver for PowerCapObserver {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>, stats: &EpochStats) {
        let before = self.acct.energy_j();
        self.acct.add_epoch(stats);
        // The higher-level manager observes chip energy at coarse intervals
        // and adjusts the range the controller may use.
        self.mgr.record_epoch(self.acct.energy_j() - before, ctx.cfg.epoch.duration);
    }

    fn allowed(&self) -> Option<FreqStates> {
        Some(self.mgr.allowed())
    }
}

/// A per-epoch, per-domain frequency-sensitivity trace recorded during a
/// run (the Figure 6 characterization quantity, measured in the loop
/// instead of by a separate probe pass).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityTrace {
    /// Slope of the instruction-vs-frequency curve per `[epoch][domain]`,
    /// in committed instructions per MHz across the allowed range.
    pub per_domain: Vec<Vec<f64>>,
}

impl SensitivityTrace {
    /// Number of recorded epochs.
    pub fn epochs(&self) -> usize {
        self.per_domain.len()
    }

    /// The sensitivity time series of one domain.
    pub fn domain_trace(&self, domain: usize) -> Vec<f64> {
        self.per_domain.iter().map(|e| e[domain]).collect()
    }

    /// Magnitude floor for change metrics: a quarter of the mean absolute
    /// sensitivity across the trace (mirrors
    /// [`crate::studies::ProbeSeries::cu_floor`]).
    pub fn floor(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for epoch in &self.per_domain {
            for s in epoch {
                sum += s.abs();
                n += 1;
            }
        }
        if n == 0 {
            return 1e-9;
        }
        (0.25 * sum / n as f64).max(1e-9)
    }

    /// Average relative sensitivity change across consecutive epochs, over
    /// all domains (the paper's Figure 7a quantity).
    pub fn epoch_to_epoch_variability(&self) -> f64 {
        if self.per_domain.is_empty() {
            return 0.0;
        }
        let floor = self.floor();
        let n = self.per_domain[0].len();
        let per: Vec<f64> = (0..n)
            .map(|d| crate::studies::avg_floored_change(&self.domain_trace(d), floor))
            .collect();
        per.iter().sum::<f64>() / n.max(1) as f64
    }
}

/// Traces ride in sweep resume journals inside their [`RunResult`]; the
/// floats are exact LE bit patterns, so a journal round trip is
/// bit-identical.
impl snapshot::Snapshot for SensitivityTrace {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let SensitivityTrace { per_domain } = self;
        per_domain.encode(w);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(SensitivityTrace { per_domain: Vec::<Vec<f64>>::decode(r)? })
    }
}

/// Records a [`SensitivityTrace`] from each epoch's oracle samples (or,
/// lacking samples, from the policy's predicted curves). Pair with
/// [`Session::sampling_every_epoch`] for ground-truth traces under
/// non-oracle policies.
#[derive(Debug, Default)]
pub struct SensitivityTraceObserver {
    per_domain: Vec<Vec<f64>>,
}

impl SensitivityTraceObserver {
    /// An empty trace recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RunObserver for SensitivityTraceObserver {
    fn on_decisions(&mut self, ctx: &EpochCtx<'_>) {
        let df = (ctx.allowed.max().mhz() as f64 - ctx.allowed.min().mhz() as f64).max(1.0);
        let row: Vec<f64> = match ctx.samples {
            Some(s) => s
                .domain_curves
                .iter()
                .map(|curve| (curve[curve.len() - 1] - curve[0]) / df)
                .collect(),
            None => ctx
                .decisions
                .iter()
                .map(|d| {
                    let p = &d.predicted;
                    if p.len() >= 2 {
                        (p[p.len() - 1] - p[0]) / df
                    } else {
                        0.0
                    }
                })
                .collect(),
        };
        self.per_domain.push(row);
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.sensitivity_trace =
            Some(SensitivityTrace { per_domain: std::mem::take(&mut self.per_domain) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use pcstall::policy::PolicyKind;
    use workloads::{by_name, Scale};

    fn quick_cfg(policy: PolicyKind) -> RunConfig {
        let mut cfg = RunConfig::paper(policy);
        cfg.gpu = GpuConfig::tiny();
        cfg.max_epochs = 12;
        cfg
    }

    #[test]
    fn step_stops_at_epoch_cap() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let mut s = Session::new(&app, &quick_cfg(PolicyKind::Static(1700)));
        let mut n = 0;
        while s.step(&mut []) {
            n += 1;
            assert!(n <= 12, "session overran its epoch cap");
        }
        assert_eq!(n, s.epochs());
        assert!(s.is_finished());
        assert!(!s.step(&mut []), "finished session must not step");
    }

    #[test]
    fn forced_sampling_provides_samples_to_observers() {
        #[derive(Debug, Default)]
        struct SeenSamples(usize);
        impl RunObserver for SeenSamples {
            fn on_decisions(&mut self, ctx: &EpochCtx<'_>) {
                assert!(ctx.samples.is_some(), "sampling_every_epoch must sample");
                self.0 += 1;
            }
        }
        let app = by_name("comd", Scale::Quick).unwrap();
        let mut cfg = quick_cfg(PolicyKind::Static(1700));
        cfg.max_epochs = 3;
        let mut s = Session::new(&app, &cfg).sampling_every_epoch(true);
        let mut seen = SeenSamples::default();
        s.run(&mut [&mut seen]);
        assert_eq!(seen.0, s.epochs());
    }

    #[test]
    fn sim_run_counter_increments_per_session() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let before = sim_runs();
        let _ = Session::new(&app, &quick_cfg(PolicyKind::Static(1700)));
        let _ = Session::new(&app, &quick_cfg(PolicyKind::Static(1700)));
        assert!(sim_runs() >= before + 2);
    }

    #[test]
    fn sensitivity_trace_variability_matches_flat_series() {
        let t = SensitivityTrace { per_domain: vec![vec![2.0, 2.0]; 5] };
        assert_eq!(t.epochs(), 5);
        assert_eq!(t.domain_trace(1), vec![2.0; 5]);
        assert!(t.epoch_to_epoch_variability().abs() < 1e-12);
    }
}
