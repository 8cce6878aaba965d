//! The DVFS prediction designs of the paper's Table III.
//!
//! Every design is an (estimation model × control mechanism) composition:
//!
//! | Name    | Estimation model        | Control   |
//! |---------|-------------------------|-----------|
//! | STALL   | Stall (CU-level)        | Reactive  |
//! | LEAD    | Leading load            | Reactive  |
//! | CRIT    | Critical path           | Reactive  |
//! | CRISP   | CRISP GPU model         | Reactive  |
//! | ACCREAC | Accurate (fork) est.    | Reactive  |
//! | PCSTALL | Stall (wavefront-level) | PC-based  |
//! | ACCPC   | Accurate (fork) est.    | PC-based  |
//! | ORACLE  | Accurate (fork) est.    | Oracle    |
//!
//! Plus static-frequency baselines. All designs share one interface,
//! [`DvfsPolicy`]: once per epoch boundary they observe the elapsed epoch's
//! telemetry and decide every domain's next frequency, also reporting their
//! full predicted performance curve so the harness can score accuracy.

use crate::estimators::{CuEstimator, WfStallConfig, WfStallEstimator};
use crate::oracle::OracleSamples;
use crate::pc_table::{PcTable, PcTableConfig};
use crate::sensitivity::{fit_line, LinearModel};
use dvfs::domain::DomainMap;
use dvfs::epoch::EpochConfig;
use dvfs::objective::{Objective, SelectionContext};
use dvfs::states::FreqStates;
use gpu_sim::gpu::Gpu;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Frequency;
use power::model::PowerModel;

/// The delivery state of the elapsed epoch's telemetry.
///
/// On an ideal GPU this is always [`Telemetry::Warmup`] (before the first
/// epoch) or [`Telemetry::Fresh`]. A faulty counter path (see the `faults`
/// crate) can instead replay an old snapshot ([`Telemetry::Stale`]) or
/// deliver nothing at all ([`Telemetry::Lost`]); degradation-aware
/// wrappers such as [`crate::resilience::ResilientPolicy`] react to the
/// variant, while plain policies just consume [`Telemetry::stats`].
#[derive(Debug, Clone, Copy)]
pub enum Telemetry<'a> {
    /// No epoch has elapsed yet — there is nothing to deliver.
    Warmup,
    /// The elapsed epoch's counters arrived on time.
    Fresh(&'a EpochStats),
    /// An earlier epoch's counters were replayed; `age` is how many epochs
    /// old the snapshot is (1 = previous epoch's delivery).
    Stale {
        /// The stale snapshot.
        stats: &'a EpochStats,
        /// Snapshot age in epochs.
        age: usize,
    },
    /// Nothing arrived; `age` counts consecutive undelivered epochs.
    Lost {
        /// Consecutive epochs without any delivery.
        age: usize,
    },
}

impl<'a> Telemetry<'a> {
    /// The delivered counters, if any (fresh or stale). Plain policies use
    /// this and behave exactly as they did before faults existed: a stale
    /// snapshot is indistinguishable from a fresh one, and `Lost` looks
    /// like warmup.
    pub fn stats(&self) -> Option<&'a EpochStats> {
        match *self {
            Telemetry::Fresh(s) | Telemetry::Stale { stats: s, .. } => Some(s),
            Telemetry::Warmup | Telemetry::Lost { .. } => None,
        }
    }

    /// The ideal-path constructor: `None` before the first epoch, fresh
    /// afterwards.
    pub fn from_prev(prev: Option<&'a EpochStats>) -> Self {
        match prev {
            Some(s) => Telemetry::Fresh(s),
            None => Telemetry::Warmup,
        }
    }

    /// Whether this epoch delivered nothing (the policy is flying blind).
    pub fn is_blind(&self) -> bool {
        matches!(self, Telemetry::Lost { .. })
    }
}

/// Everything a policy sees at an epoch boundary.
#[derive(Debug)]
pub struct DecideCtx<'a> {
    /// Delivery state and counters of the elapsed epoch.
    pub telemetry: Telemetry<'a>,
    /// The live GPU (policies read each wavefront's *next* PC from it).
    pub gpu: &'a Gpu,
    /// The V/f domain partition.
    pub domains: &'a DomainMap,
    /// Candidate frequency states.
    pub states: &'a FreqStates,
    /// Epoch timing.
    pub epoch: EpochConfig,
    /// The power model (for objective evaluation).
    pub power: &'a PowerModel,
    /// The optimization objective.
    pub objective: Objective,
    /// Current frequency of each domain.
    pub current: &'a [Frequency],
    /// Fork–pre-execute samples of the *upcoming* epoch; present only for
    /// policies whose [`DvfsPolicy::needs_oracle`] returns true.
    pub samples: Option<&'a OracleSamples>,
}

impl<'a> DecideCtx<'a> {
    /// The elapsed epoch's counters, if delivered (`None` before the first
    /// epoch or when telemetry was lost).
    pub fn stats(&self) -> Option<&'a EpochStats> {
        self.telemetry.stats()
    }
}

/// One domain's decision: the chosen state and the design's predicted
/// instruction curve (aligned with the context's state set) for accuracy
/// scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Frequency for the next epoch.
    pub freq: Frequency,
    /// Predicted instructions at each candidate state.
    pub predicted: Vec<f64>,
}

/// A DVFS prediction design (Table III row).
pub trait DvfsPolicy: std::fmt::Debug + Send {
    /// Display name (matches the paper).
    fn name(&self) -> String;

    /// Whether this design consumes fork–pre-execute samples.
    fn needs_oracle(&self) -> bool {
        false
    }

    /// Decides every domain's next-epoch frequency.
    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision>;

    /// Degradation-ladder occupancy counters, for policies that wrap a
    /// fallback ladder (see [`crate::resilience::ResilientPolicy`]).
    /// `None` for plain policies.
    fn fault_ladder(&self) -> Option<crate::resilience::FallbackCounts> {
        None
    }
}

/// Maps a (kernel, pc) pair to the table's PC key: each kernel's code
/// object gets a distinct virtual base (as on real hardware, where kernels
/// load at different addresses), spaced by a non-power-of-two stride so
/// different kernels index different table regions.
#[inline]
fn table_pc(kernel_idx: u32, pc: gpu_sim::isa::Pc) -> gpu_sim::isa::Pc {
    pc.wrapping_add(kernel_idx.wrapping_mul(0x1970))
}

/// The maximum instructions a domain can commit in one epoch at `f`: its
/// CUs' issue slots. Capping the summed per-wavefront intrinsic demands at
/// this bound models the oldest-first scheduler's arbitration.
fn domain_capacity(ctx: &DecideCtx<'_>, domain: usize, f: Frequency) -> f64 {
    let cycles = f.cycles_in(ctx.epoch.duration) as f64;
    cycles * ctx.gpu.config().issue_width as f64 * ctx.domains.cus(domain).len() as f64
}

fn selection_ctx<'a>(ctx: &'a DecideCtx<'_>, domain: usize) -> SelectionContext<'a> {
    SelectionContext {
        states: ctx.states,
        epoch: ctx.epoch,
        power: ctx.power,
        domain_cus: ctx.domains.cus(domain).len(),
        issue_width: ctx.gpu.config().issue_width,
        total_cus: ctx.gpu.n_cus(),
        current: ctx.current[domain],
    }
}

fn decide_all<'a, F>(ctx: &'a DecideCtx<'a>, mut predict_domain: F) -> Vec<Decision>
where
    F: FnMut(usize) -> Box<dyn Fn(Frequency) -> f64 + 'a>,
{
    (0..ctx.domains.len())
        .map(|d| {
            let predict = predict_domain(d);
            let sel = selection_ctx(ctx, d);
            let freq = ctx.objective.choose(&sel, &*predict);
            let predicted = ctx.states.iter().map(&*predict).collect();
            Decision { freq, predicted }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Static baseline
// ---------------------------------------------------------------------------

/// Runs every domain at a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy {
    /// The fixed frequency.
    pub freq: Frequency,
}

impl DvfsPolicy for StaticPolicy {
    fn name(&self) -> String {
        format!("STATIC-{}", self.freq.mhz())
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        let n_states = ctx.states.len();
        (0..ctx.domains.len())
            .map(|d| {
                // A static design makes no prediction; report the last
                // actual as a flat curve so accuracy is still measurable.
                let last =
                    ctx.stats().map(|s| s.committed_in(ctx.domains.cus(d)) as f64).unwrap_or(0.0);
                // Clamp into the (possibly power-capped) state set.
                Decision { freq: ctx.states.nearest(self.freq), predicted: vec![last; n_states] }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Reactive designs (STALL / LEAD / CRIT / CRISP)
// ---------------------------------------------------------------------------

/// Last-value reactive control on top of a CU-level estimation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactivePolicy {
    /// The CU-level estimation model.
    pub estimator: CuEstimator,
}

impl DvfsPolicy for ReactivePolicy {
    fn name(&self) -> String {
        self.estimator.name().to_string()
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        decide_all(ctx, |d| {
            let cus = ctx.domains.cus(d).to_vec();
            let est = self.estimator;
            match ctx.stats() {
                Some(stats) => {
                    let responses: Vec<_> = cus
                        .iter()
                        .map(|&c| est.estimate(&stats.cus[c], ctx.epoch.duration))
                        .collect();
                    Box::new(move |f| responses.iter().map(|r| r.predict(f)).sum())
                }
                None => Box::new(|_| 0.0),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// ACCREAC: accurate estimates used reactively
// ---------------------------------------------------------------------------

/// Reactive control with *accurate* (fork-measured) estimates of the prior
/// epoch — the upper bound of any reactive design.
#[derive(Debug, Default)]
pub struct AccReactivePolicy {
    /// The previous epoch's accurate per-domain curves.
    prev: Option<Vec<Vec<f64>>>,
}

impl AccReactivePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DvfsPolicy for AccReactivePolicy {
    fn name(&self) -> String {
        "ACCREAC".to_string()
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        let prev = self.prev.clone();
        let decisions = decide_all(ctx, |d| match &prev {
            Some(curves) => {
                let curve = curves[d].clone();
                let states = ctx.states;
                Box::new(move |f: Frequency| states.index_of(f).map(|i| curve[i]).unwrap_or(0.0))
            }
            None => Box::new(|_| 0.0),
        });
        // This epoch's accurate curves become "the prior epoch's accurate
        // estimate" at the next boundary.
        self.prev = ctx.samples.map(|s| s.domain_curves.clone());
        decisions
    }
}

// ---------------------------------------------------------------------------
// HIST: global phase-history table (paper Section 2.4's alternative)
// ---------------------------------------------------------------------------

/// CU-level estimation (CRISP) behind a global phase-history table: the
/// recent pattern of per-domain instruction counts predicts the next
/// epoch's model, falling back to last-value on unseen patterns. The
/// strongest *history-based* (as opposed to PC-based) predictor family the
/// paper discusses.
#[derive(Debug)]
pub struct HistoryPolicy {
    cfg: crate::history::HistoryConfig,
    estimator: CuEstimator,
    tables: Vec<crate::history::HistoryTable>,
    last: Vec<LinearModel>,
}

impl HistoryPolicy {
    /// Creates the policy.
    pub fn new(cfg: crate::history::HistoryConfig) -> Self {
        HistoryPolicy { cfg, estimator: CuEstimator::Crisp, tables: Vec::new(), last: Vec::new() }
    }
}

impl DvfsPolicy for HistoryPolicy {
    fn name(&self) -> String {
        "HIST".to_string()
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        if self.tables.is_empty() {
            self.tables = (0..ctx.domains.len())
                .map(|_| crate::history::HistoryTable::new(self.cfg))
                .collect();
            self.last = vec![LinearModel::ZERO; ctx.domains.len()];
        }
        if let Some(stats) = ctx.stats() {
            let f_lo = ctx.states.min();
            let f_hi = ctx.states.max();
            for (d, cus) in ctx.domains.iter() {
                let model: LinearModel = cus
                    .iter()
                    .map(|&c| {
                        self.estimator
                            .estimate(&stats.cus[c], ctx.epoch.duration)
                            .linearize(f_lo, f_hi)
                    })
                    .sum();
                let observed = stats.committed_in(cus) as f64;
                self.tables[d].observe(observed, model);
                self.last[d] = model;
            }
        }
        let predictions: Vec<LinearModel> = (0..ctx.domains.len())
            .map(|d| self.tables[d].predict().unwrap_or(self.last[d]))
            .collect();
        decide_all(ctx, |d| {
            let m = predictions[d];
            Box::new(move |f| m.predict(f))
        })
    }
}

// ---------------------------------------------------------------------------
// ORACLE
// ---------------------------------------------------------------------------

/// Chooses each domain's state directly from the fork–pre-execute
/// measurement of the upcoming epoch — near-optimal by construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct OraclePolicy;

impl DvfsPolicy for OraclePolicy {
    fn name(&self) -> String {
        "ORACLE".to_string()
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        let samples = ctx.samples.expect("ORACLE requires fork-pre-execute samples");
        decide_all(ctx, |d| {
            let curve = samples.domain_curves[d].clone();
            let states = ctx.states;
            Box::new(move |f: Frequency| states.index_of(f).map(|i| curve[i]).unwrap_or(0.0))
        })
    }
}

// ---------------------------------------------------------------------------
// PCSTALL and ACCPC: PC-based prediction
// ---------------------------------------------------------------------------

/// Where PC tables are instantiated (the paper notes the table "could
/// either be instantiated one per CU or shared among many CUs").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableScope {
    /// One table per CU (default).
    PerCu,
    /// One table per V/f domain.
    PerDomain,
    /// A single table for the whole GPU.
    Global,
}

/// Configuration of the PCSTALL design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcStallConfig {
    /// PC-table geometry.
    pub table: PcTableConfig,
    /// Wavefront-level estimator options.
    pub wf: WfStallConfig,
    /// Table sharing granularity.
    pub scope: TableScope,
    /// Disambiguate entries by whether the wavefront *enters* the epoch
    /// blocked on memory (one extra index bit). Epochs starting at the same
    /// PC behave bimodally depending on this state; splitting the
    /// populations sharpens both entries.
    pub blocked_bit: bool,
}

impl Default for PcStallConfig {
    fn default() -> Self {
        PcStallConfig {
            table: PcTableConfig::default(),
            wf: WfStallConfig::default(),
            scope: TableScope::PerCu,
            blocked_bit: true,
        }
    }
}

/// The paper's contribution: wavefront-level STALL estimation feeding a
/// PC-indexed sensitivity table (Section 4.4, Figure 12).
#[derive(Debug)]
pub struct PcStallPolicy {
    cfg: PcStallConfig,
    est: WfStallEstimator,
    tables: Vec<PcTable>,
    /// Reactive per-(cu, slot) fallback models for table misses.
    last_wf: Vec<Vec<LinearModel>>,
}

impl PcStallPolicy {
    /// Creates the policy.
    pub fn new(cfg: PcStallConfig) -> Self {
        PcStallPolicy {
            cfg,
            est: WfStallEstimator::new(cfg.wf),
            tables: Vec::new(),
            last_wf: Vec::new(),
        }
    }

    /// Aggregate hit ratio over all table instances.
    pub fn table_hit_ratio(&self) -> f64 {
        let (h, m) =
            self.tables.iter().fold((0u64, 0u64), |(h, m), t| (h + t.hits(), m + t.misses()));
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    fn ensure_sized(&mut self, ctx: &DecideCtx<'_>) {
        if !self.tables.is_empty() {
            return;
        }
        let n_tables = match self.cfg.scope {
            TableScope::PerCu => ctx.gpu.n_cus(),
            TableScope::PerDomain => ctx.domains.len(),
            TableScope::Global => 1,
        };
        self.tables = (0..n_tables).map(|_| PcTable::new(self.cfg.table)).collect();
        let slots = ctx.gpu.config().wf_slots;
        self.last_wf = vec![vec![LinearModel::ZERO; slots]; ctx.gpu.n_cus()];
    }

    fn table_index(&self, ctx: &DecideCtx<'_>, cu: usize) -> usize {
        match self.cfg.scope {
            TableScope::PerCu => cu,
            TableScope::PerDomain => ctx.domains.domain_of(cu),
            TableScope::Global => 0,
        }
    }

    fn update_from_epoch(&mut self, ctx: &DecideCtx<'_>) {
        let Some(stats) = ctx.stats() else { return };
        let f_lo = ctx.states.min();
        let f_hi = ctx.states.max();
        for (cu, cu_stats) in stats.cus.iter().enumerate() {
            let tbl = self.table_index(ctx, cu);
            for (slot, wf) in cu_stats.wf.iter().enumerate() {
                if !wf.present {
                    continue;
                }
                // Zero-commit epochs are legitimate observations ("epochs
                // starting at this PC commit nothing"); skipping them would
                // bias shared entries toward productive epochs and make the
                // summed domain prediction systematically high.
                let resp = self.est.estimate(wf, cu_stats.freq, ctx.epoch.duration);
                let model = resp.linearize(f_lo, f_hi);
                // Store the wavefront's intrinsic demand (scheduler-denial
                // time factored out); the capacity cap at prediction time
                // re-introduces arbitration.
                let cont = self.est.contention(wf, ctx.epoch.duration);
                if wf.committed == 0 && cont > 0.5 {
                    // Fully starved by arbitration: the wavefront never
                    // executed this PC's code, so the epoch carries no
                    // information about it (unlike a memory- or
                    // barrier-stalled zero, which is a genuine property of
                    // the code there).
                    continue;
                }
                let stored = model.scaled(1.0 / (1.0 - cont));
                let class = self.cfg.blocked_bit && wf.start_blocked;
                self.tables[tbl].update_classed(
                    table_pc(wf.kernel_idx, wf.start_pc),
                    class,
                    stored,
                );
                self.last_wf[cu][slot] = stored;
            }
        }
    }
}

impl DvfsPolicy for PcStallPolicy {
    fn name(&self) -> String {
        "PCSTALL".to_string()
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        self.ensure_sized(ctx);
        // Update mechanism: fold the elapsed epoch into the tables.
        self.update_from_epoch(ctx);
        // Lookup mechanism: each resident wavefront's next PC.
        let mut domain_models = vec![LinearModel::ZERO; ctx.domains.len()];
        for (d, cus) in ctx.domains.iter() {
            for &cu in cus {
                let tbl = self.table_index(ctx, cu);
                let c = ctx.gpu.cu(cu);
                for (slot, wf) in c.wavefronts().iter().enumerate() {
                    if !c.wf_is_live(slot) {
                        continue;
                    }
                    let key = table_pc(wf.kernel_idx, c.wf_pc(slot));
                    let class = self.cfg.blocked_bit && wf.mem_blocked_until > ctx.gpu.now();
                    let model = self.tables[tbl]
                        .lookup_classed(key, class)
                        .unwrap_or(self.last_wf[cu][slot]);
                    domain_models[d] = domain_models[d] + model;
                }
            }
        }
        decide_all(ctx, |d| {
            let m = domain_models[d];
            let cap = move |f: Frequency| domain_capacity(ctx, d, f);
            Box::new(move |f| m.predict(f).min(cap(f)))
        })
    }
}

/// ACCPC: the PC-based control mechanism fed with *accurate* (fork-measured)
/// per-wavefront curves — the upper bound of any PC-based design.
#[derive(Debug)]
pub struct AccPcPolicy {
    cfg: PcStallConfig,
    tables: Vec<PcTable>,
    last_wf: Vec<Vec<LinearModel>>,
    /// Samples taken at the previous boundary (they measured the epoch that
    /// has now elapsed).
    prev: Option<OracleSamples>,
}

impl AccPcPolicy {
    /// Creates the policy.
    pub fn new(cfg: PcStallConfig) -> Self {
        AccPcPolicy { cfg, tables: Vec::new(), last_wf: Vec::new(), prev: None }
    }

    fn ensure_sized(&mut self, ctx: &DecideCtx<'_>) {
        if !self.tables.is_empty() {
            return;
        }
        let n_tables = match self.cfg.scope {
            TableScope::PerCu => ctx.gpu.n_cus(),
            TableScope::PerDomain => ctx.domains.len(),
            TableScope::Global => 1,
        };
        self.tables = (0..n_tables).map(|_| PcTable::new(self.cfg.table)).collect();
        self.last_wf = vec![vec![LinearModel::ZERO; ctx.gpu.config().wf_slots]; ctx.gpu.n_cus()];
    }

    fn table_index(&self, ctx: &DecideCtx<'_>, cu: usize) -> usize {
        match self.cfg.scope {
            TableScope::PerCu => cu,
            TableScope::PerDomain => ctx.domains.domain_of(cu),
            TableScope::Global => 0,
        }
    }
}

impl DvfsPolicy for AccPcPolicy {
    fn name(&self) -> String {
        "ACCPC".to_string()
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        self.ensure_sized(ctx);
        // Update from the previous boundary's samples (accurate curves of
        // the epoch that has now elapsed), keyed by its start PCs.
        if let Some(prev) = self.prev.take() {
            let mhz: Vec<f64> = ctx.states.iter().map(|f| f.mhz() as f64).collect();
            for cu in 0..prev.wf_committed.len() {
                let tbl = self.table_index(ctx, cu);
                for slot in 0..prev.wf_committed[cu].len() {
                    if !prev.wf_present[cu][slot] {
                        continue;
                    }
                    // Only states where the wavefront actually executed
                    // (or was genuinely stalled) inform the fit; fully
                    // arbitration-starved states carry no signal. A thermal
                    // clamp or the power cap can shrink the legal states to
                    // a prefix, so the samples may cover fewer states than
                    // `ctx.states`: fit only the states that were sampled.
                    let pts: Vec<(f64, f64)> = mhz
                        .iter()
                        .take(prev.wf_committed[cu][slot].len())
                        .enumerate()
                        .filter(|&(k, _)| {
                            prev.wf_committed[cu][slot][k] > 0 || prev.wf_denial[cu][slot][k] <= 0.5
                        })
                        .map(|(k, &x)| (x, prev.wf_intrinsic[cu][slot][k] as f64))
                        .collect();
                    if pts.is_empty() {
                        continue;
                    }
                    let (model, _) = fit_line(&pts);
                    let key = table_pc(prev.wf_kernel[cu][slot], prev.wf_start_pc[cu][slot]);
                    self.tables[tbl].update(key, model);
                    self.last_wf[cu][slot] = model;
                }
            }
        }
        // Lookup with each resident wavefront's next PC.
        let mut domain_models = vec![LinearModel::ZERO; ctx.domains.len()];
        for (d, cus) in ctx.domains.iter() {
            for &cu in cus {
                let tbl = self.table_index(ctx, cu);
                let c = ctx.gpu.cu(cu);
                for (slot, wf) in c.wavefronts().iter().enumerate() {
                    if !c.wf_is_live(slot) {
                        continue;
                    }
                    let model = self.tables[tbl]
                        .lookup(table_pc(wf.kernel_idx, c.wf_pc(slot)))
                        .unwrap_or(self.last_wf[cu][slot]);
                    domain_models[d] = domain_models[d] + model;
                }
            }
        }
        self.prev = ctx.samples.cloned();
        decide_all(ctx, |d| {
            let m = domain_models[d];
            let cap = move |f: Frequency| domain_capacity(ctx, d, f);
            Box::new(move |f| m.predict(f).min(cap(f)))
        })
    }
}

// ---------------------------------------------------------------------------
// Design registry (Table III)
// ---------------------------------------------------------------------------

/// A buildable description of every evaluated design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Static frequency baseline.
    Static(u32),
    /// Reactive on a CU-level estimator.
    Reactive(CuEstimator),
    /// Accurate estimates used reactively.
    AccReac,
    /// Global phase-history-table prediction on CRISP estimates
    /// (the paper's Section 2.4 alternative predictor family).
    History(crate::history::HistoryConfig),
    /// PCSTALL with the given configuration.
    PcStall(PcStallConfig),
    /// Accurate estimates in a PC table.
    AccPc(PcStallConfig),
    /// Fork–pre-execute oracle.
    Oracle,
}

impl PolicyKind {
    /// Instantiates the design.
    pub fn build(&self) -> Box<dyn DvfsPolicy> {
        match *self {
            PolicyKind::Static(mhz) => Box::new(StaticPolicy { freq: Frequency::from_mhz(mhz) }),
            PolicyKind::Reactive(est) => Box::new(ReactivePolicy { estimator: est }),
            PolicyKind::AccReac => Box::new(AccReactivePolicy::new()),
            PolicyKind::History(cfg) => Box::new(HistoryPolicy::new(cfg)),
            PolicyKind::PcStall(cfg) => Box::new(PcStallPolicy::new(cfg)),
            PolicyKind::AccPc(cfg) => Box::new(AccPcPolicy::new(cfg)),
            PolicyKind::Oracle => Box::new(OraclePolicy),
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        self.build().name()
    }

    /// Whether this design requires fork–pre-execute sampling every epoch.
    pub fn needs_oracle(&self) -> bool {
        matches!(self, PolicyKind::AccReac | PolicyKind::AccPc(_) | PolicyKind::Oracle)
    }

    /// The paper's Table III designs, in its order.
    pub fn table3() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Reactive(CuEstimator::Stall),
            PolicyKind::Reactive(CuEstimator::Lead),
            PolicyKind::Reactive(CuEstimator::Crit),
            PolicyKind::Reactive(CuEstimator::Crisp),
            PolicyKind::AccReac,
            PolicyKind::PcStall(PcStallConfig::default()),
            PolicyKind::AccPc(PcStallConfig::default()),
            PolicyKind::Oracle,
        ]
    }

    /// Extended designs beyond the paper's Table III (used by the
    /// extension benches).
    pub fn extensions() -> Vec<PolicyKind> {
        vec![PolicyKind::History(crate::history::HistoryConfig::default())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let names: Vec<String> = PolicyKind::table3().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["STALL", "LEAD", "CRIT", "CRISP", "ACCREAC", "PCSTALL", "ACCPC", "ORACLE"]
        );
    }

    #[test]
    fn oracle_designs_flagged() {
        assert!(PolicyKind::Oracle.needs_oracle());
        assert!(PolicyKind::AccReac.needs_oracle());
        assert!(PolicyKind::AccPc(PcStallConfig::default()).needs_oracle());
        assert!(!PolicyKind::PcStall(PcStallConfig::default()).needs_oracle());
        assert!(!PolicyKind::Reactive(CuEstimator::Crisp).needs_oracle());
        assert!(!PolicyKind::Static(1700).needs_oracle());
    }

    #[test]
    fn static_names_embed_frequency() {
        assert_eq!(PolicyKind::Static(1700).name(), "STATIC-1700");
    }
}
