//! Measurement studies behind the paper's characterization figures
//! (Figures 5–11): fork-probed sensitivity traces and their
//! post-processing.
//!
//! All studies run the application at the static 1.7 GHz baseline and, at
//! every epoch boundary, fork probe copies to measure that epoch's true
//! frequency response from identical starting conditions.

use crate::runner::RunConfig;
use crate::session::{EpochCtx, RunObserver, Session};
use dvfs::epoch::EpochConfig;
use dvfs::objective::Objective;
use dvfs::states::FreqStates;
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::isa::Pc;
use gpu_sim::kernel::App;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Femtos;
use pcstall::estimators::WfStallEstimator;
use pcstall::oracle;
use pcstall::policy::PolicyKind;
use pcstall::sensitivity::fit_line;
use power::model::PowerConfig;
use std::collections::HashMap;

/// Relative change between two sensitivity observations, with a magnitude
/// floor: pairs where both values are below `floor` carry no phase-change
/// signal (an idle or fully memory-bound wavefront staying that way) and
/// are skipped; otherwise the denominator is floored so instruction-count
/// quantization noise on near-zero sensitivities cannot dominate the
/// average.
pub(crate) fn floored_change(prev: f64, cur: f64, floor: f64) -> Option<f64> {
    if prev.abs() < floor && cur.abs() < floor {
        return None;
    }
    let denom = ((prev.abs() + cur.abs()) / 2.0).max(floor);
    Some((cur - prev).abs() / denom)
}

/// Average of [`floored_change`] over consecutive values of a series.
pub(crate) fn avg_floored_change(series: &[f64], floor: f64) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for w in series.windows(2) {
        if let Some(c) = floored_change(w[0], w[1], floor) {
            total += c;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// One wavefront's probe measurement for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WfProbe {
    /// Whether the slot held a live wavefront.
    pub present: bool,
    /// Age rank at the epoch end (0 = oldest / highest priority).
    pub age_rank: u32,
    /// PC at the epoch start.
    pub start_pc: Pc,
    /// Wavefront sensitivity ΔI/Δf (instructions per MHz).
    pub sensitivity: f64,
    /// Scheduling-contention fraction (ready-but-not-issued time share),
    /// used for the paper's age normalization when entries are shared.
    pub contention: f64,
}

/// A per-epoch sensitivity trace of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSeries {
    /// Epoch duration used.
    pub epoch: Femtos,
    /// Per-epoch, per-CU sensitivity (instructions per MHz).
    pub cu_sens: Vec<Vec<f64>>,
    /// Per-epoch, per-CU, per-slot wavefront probes.
    pub wf: Vec<Vec<Vec<WfProbe>>>,
}

/// Probes `app` for up to `max_epochs` epochs of `epoch` duration. The real
/// run proceeds at the platform's initial (1.7 GHz) frequency.
///
/// CU-level sensitivity is *ground truth*: measured by differencing
/// low/high-frequency forks from identical starting conditions. Per-
/// wavefront sensitivity is measured with the wavefront-level STALL
/// estimator on the real epoch's telemetry — at 1 µs a single wavefront
/// commits only a few dozen instructions, so fork-differencing per
/// wavefront is dominated by instruction-count quantization noise, whereas
/// the stall-time fraction is a smooth signal (and is also exactly the
/// quantity the PC table stores).
pub fn probe_series(
    app: &App,
    gpu_cfg: &GpuConfig,
    epoch: Femtos,
    max_epochs: usize,
) -> ProbeSeries {
    // The study rides the session engine with a static policy at the
    // platform's initial frequency (a timing no-op: re-applying the current
    // frequency incurs no transition), attaching the probes as an observer.
    let cfg = RunConfig {
        gpu: *gpu_cfg,
        epoch: EpochConfig::with_transition(epoch, Femtos::ZERO),
        group: 1,
        objective: Objective::MinEd2p,
        states: FreqStates::paper(),
        power: PowerConfig::default(),
        policy: PolicyKind::Static(gpu_cfg.initial_freq_mhz),
        max_epochs,
        power_cap: None,
        faults: None,
    };
    let mut session = Session::new(app, &cfg);
    let mut probe = ProbeObserver::new(epoch);
    session.run(&mut [&mut probe]);
    ProbeSeries { epoch, cu_sens: probe.cu_sens, wf: probe.wf }
}

/// The probing half of [`probe_series`]: forks ground-truth two-point
/// probes before each epoch runs and extracts wavefront-level estimates
/// from the epoch's telemetry afterwards.
struct ProbeObserver {
    states: FreqStates,
    est: WfStallEstimator,
    epoch: Femtos,
    /// Pool the two-point probe forks run on (the process-global pool; a
    /// nested probe inside a pool job inlines, so the budget holds).
    pool: std::sync::Arc<exec::WorkerPool>,
    cu_sens: Vec<Vec<f64>>,
    wf: Vec<Vec<Vec<WfProbe>>>,
}

impl ProbeObserver {
    fn new(epoch: Femtos) -> Self {
        ProbeObserver {
            states: FreqStates::paper(),
            est: WfStallEstimator::default(),
            epoch,
            pool: exec::global_pool(),
            cu_sens: Vec::new(),
            wf: Vec::new(),
        }
    }
}

impl RunObserver for ProbeObserver {
    fn on_decisions(&mut self, ctx: &EpochCtx<'_>) {
        // Fires before frequencies are applied, so the probe forks from the
        // exact pre-epoch state.
        let df = (self.states.max().mhz() - self.states.min().mhz()) as f64;
        let (lo, hi) = oracle::probe_two_point_with(&self.pool, ctx.gpu, self.epoch, &self.states);
        let mut epoch_cu = Vec::with_capacity(ctx.gpu.n_cus());
        for c in 0..ctx.gpu.n_cus() {
            epoch_cu.push((hi.cus[c].committed as f64 - lo.cus[c].committed as f64) / df);
        }
        self.cu_sens.push(epoch_cu);
    }

    fn on_epoch(&mut self, _ctx: &EpochCtx<'_>, stats: &EpochStats) {
        let epoch_wf = stats
            .cus
            .iter()
            .map(|cu| {
                cu.wf
                    .iter()
                    .map(|w| WfProbe {
                        present: w.present && w.committed > 0,
                        age_rank: w.age_rank,
                        start_pc: w.start_pc,
                        sensitivity: self
                            .est
                            .estimate(w, cu.freq, self.epoch)
                            .linearize(self.states.min(), self.states.max())
                            .s,
                        contention: self.est.contention(w, self.epoch),
                    })
                    .collect()
            })
            .collect();
        self.wf.push(epoch_wf);
    }
}

impl ProbeSeries {
    /// Number of probed epochs.
    pub fn epochs(&self) -> usize {
        self.cu_sens.len()
    }

    /// The sensitivity time series of one CU (paper Fig. 6).
    pub fn cu_trace(&self, cu: usize) -> Vec<f64> {
        self.cu_sens.iter().map(|e| e[cu]).collect()
    }

    /// Magnitude floor for CU-level change metrics: a quarter of the mean
    /// absolute CU sensitivity across the series.
    pub fn cu_floor(&self) -> f64 {
        let all: Vec<f64> = self.cu_sens.iter().flatten().map(|s| s.abs()).collect();
        if all.is_empty() {
            return 1e-9;
        }
        (0.25 * all.iter().sum::<f64>() / all.len() as f64).max(1e-9)
    }

    /// Magnitude floor for wavefront-level change metrics: a quarter of the
    /// mean absolute wavefront sensitivity across present wavefronts.
    pub fn wf_floor(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for epoch in &self.wf {
            for slots in epoch {
                for w in slots {
                    if w.present {
                        sum += w.sensitivity.abs();
                        n += 1;
                    }
                }
            }
        }
        if n == 0 {
            return 1e-9;
        }
        (0.25 * sum / n as f64).max(1e-9)
    }

    /// Average relative sensitivity change across consecutive epochs, over
    /// all CUs (paper Fig. 7a).
    pub fn epoch_to_epoch_variability(&self) -> f64 {
        if self.cu_sens.is_empty() {
            return 0.0;
        }
        let floor = self.cu_floor();
        let n_cus = self.cu_sens[0].len();
        let per_cu: Vec<f64> =
            (0..n_cus).map(|c| avg_floored_change(&self.cu_trace(c), floor)).collect();
        per_cu.iter().sum::<f64>() / n_cus.max(1) as f64
    }

    /// The per-wavefront sensitivity trace of one CU (paper Fig. 8):
    /// `[epoch][slot]`.
    pub fn wavefront_traces(&self, cu: usize) -> Vec<Vec<f64>> {
        self.wf
            .iter()
            .map(|e| e[cu].iter().map(|w| if w.present { w.sensitivity } else { 0.0 }).collect())
            .collect()
    }

    /// Average relative change of each epoch's **CU sensitivity** when
    /// reconstructed from the most recent *same-PC* wavefront observations
    /// at a given table-sharing scope — the paper's Figure 10 quantity.
    /// `offset_bits` is the PC index shift (Fig. 11b sweeps it).
    ///
    /// For every epoch, each wavefront's sensitivity is predicted by the
    /// last observation recorded for its starting-PC entry (falling back to
    /// the wavefront's own previous value on a cold entry); per-CU sums of
    /// these predictions are compared to the actual per-CU sums.
    pub fn same_pc_iteration_change(&self, scope: PcScope, offset_bits: u32) -> f64 {
        self.cu_reconstruction_error(Some((scope, offset_bits)))
    }

    /// Same metric as [`ProbeSeries::same_pc_iteration_change`] but with a
    /// pure last-value (reactive) per-wavefront predictor — the
    /// consecutive-epoch baseline the paper's Figure 7/10 comparison draws.
    pub fn last_value_change(&self) -> f64 {
        self.cu_reconstruction_error(None)
    }

    fn cu_reconstruction_error(&self, pc_scope: Option<(PcScope, u32)>) -> f64 {
        // Floor from the distribution of actual per-CU wavefront-sum
        // sensitivities.
        let mut actual_sums = Vec::new();
        for epoch in &self.wf {
            for slots in epoch {
                let sum: f64 = slots.iter().filter(|w| w.present).map(|w| w.sensitivity).sum();
                actual_sums.push(sum.abs());
            }
        }
        if actual_sums.is_empty() {
            return 0.0;
        }
        let floor = (0.25 * actual_sums.iter().sum::<f64>() / actual_sums.len() as f64).max(1e-9);

        let mut table: HashMap<(u64, Pc), f64> = HashMap::new();
        let mut last_wf: HashMap<u64, f64> = HashMap::new();
        let mut last_cont: HashMap<u64, f64> = HashMap::new();
        let mut total = 0.0;
        let mut count = 0usize;
        for (e, epoch) in self.wf.iter().enumerate() {
            for (cu, slots) in epoch.iter().enumerate() {
                let mut predicted = 0.0;
                let mut actual = 0.0;
                let mut covered = 0usize;
                for (slot, w) in slots.iter().enumerate() {
                    if !w.present {
                        continue;
                    }
                    let wf_key = (cu as u64) << 16 | slot as u64;
                    let lookup = match pc_scope {
                        Some((scope, offset_bits)) => {
                            let scope_key = match scope {
                                PcScope::Wavefront => wf_key,
                                PcScope::Cu => cu as u64,
                                PcScope::Gpu => 0,
                            };
                            // Entries store contention-neutral values; the
                            // looking-up wavefront re-applies its own most
                            // recent contention (the paper's age
                            // normalization).
                            let cont = last_cont.get(&wf_key).copied().unwrap_or(0.0);
                            table
                                .get(&(scope_key, w.start_pc >> offset_bits))
                                .map(|&v| v * (1.0 - cont))
                                .or_else(|| last_wf.get(&wf_key).copied())
                        }
                        None => last_wf.get(&wf_key).copied(),
                    };
                    if let Some(pred) = lookup {
                        predicted += pred;
                        covered += 1;
                    }
                    actual += w.sensitivity;
                }
                if e > 0 && covered > 0 {
                    if let Some(c) = floored_change(predicted, actual, floor) {
                        total += c;
                        count += 1;
                    }
                }
                // Record this epoch's observations for future predictions.
                for (slot, w) in slots.iter().enumerate() {
                    if !w.present {
                        continue;
                    }
                    let wf_key = (cu as u64) << 16 | slot as u64;
                    if let Some((scope, offset_bits)) = pc_scope {
                        let scope_key = match scope {
                            PcScope::Wavefront => wf_key,
                            PcScope::Cu => cu as u64,
                            PcScope::Gpu => 0,
                        };
                        let neutral = w.sensitivity / (1.0 - w.contention).max(0.05);
                        table.insert((scope_key, w.start_pc >> offset_bits), neutral);
                    }
                    last_wf.insert(wf_key, w.sensitivity);
                    last_cont.insert(wf_key, w.contention);
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Average relative change between consecutive epochs of the *same
    /// wavefront slot*, bucketed by age rank (paper Fig. 11a): index 0 is
    /// the oldest (highest-priority) wavefront.
    pub fn change_by_age_rank(&self, max_rank: usize) -> Vec<f64> {
        let floor = self.wf_floor();
        let mut sums = vec![0.0; max_rank];
        let mut counts = vec![0usize; max_rank];
        let mut last: HashMap<(u64, Pc), (u32, f64)> = HashMap::new();
        for epoch in &self.wf {
            for (cu, slots) in epoch.iter().enumerate() {
                for (slot, w) in slots.iter().enumerate() {
                    if !w.present {
                        continue;
                    }
                    let key = ((cu as u64) << 16 | slot as u64, w.start_pc >> 4);
                    if let Some((_, prev)) = last.insert(key, (w.age_rank, w.sensitivity)) {
                        let rank = (w.age_rank as usize).min(max_rank - 1);
                        if let Some(c) = floored_change(prev, w.sensitivity, floor) {
                            sums[rank] += c;
                            counts[rank] += 1;
                        }
                    }
                }
            }
        }
        sums.iter().zip(&counts).map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 }).collect()
    }
}

/// PC-table sharing scopes studied in paper Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcScope {
    /// Entries private to one wavefront slot.
    Wavefront,
    /// Shared across a CU's wavefronts (the paper's design point).
    Cu,
    /// Shared across the whole GPU.
    Gpu,
}

/// The Figure 5 linearity study: exhaustively samples `n_samples` epochs at
/// every state and reports the per-CU (frequency, instructions) curves and
/// the mean linear-fit R².
#[derive(Debug, Clone, PartialEq)]
pub struct LinearityResult {
    /// Sampled curves: `[sample][state] = (f_mhz, instructions)` for one CU.
    pub curves: Vec<Vec<(f64, f64)>>,
    /// Mean R² of per-curve linear fits (paper reports 0.82 on average).
    pub mean_r2: f64,
}

/// Runs the Fig. 5 study on `app`: epochs are sampled every
/// `sample_stride` epochs; each sampled epoch is exhaustively forked over
/// all states, and one active CU's curve is recorded per sample.
pub fn linearity_study(
    app: &App,
    gpu_cfg: &GpuConfig,
    epoch: Femtos,
    n_samples: usize,
    sample_stride: usize,
) -> LinearityResult {
    let states = FreqStates::paper();
    let pool = exec::global_pool();
    let mut gpu = Gpu::new(*gpu_cfg, app.clone());
    let mut curves = Vec::new();
    let mut epoch_idx = 0usize;
    while curves.len() < n_samples && !gpu.is_done() && epoch_idx < n_samples * sample_stride * 4 {
        if epoch_idx.is_multiple_of(sample_stride) {
            let all = oracle::sample_uniform_with(&pool, &gpu, epoch, &states);
            // Record the busiest CU's curve for this sample.
            let busiest = (0..gpu.n_cus())
                .max_by_key(|&c| all.iter().map(|s| s.cus[c].committed).sum::<u64>())
                .unwrap_or(0);
            let curve: Vec<(f64, f64)> = states
                .iter()
                .zip(&all)
                .map(|(f, s)| (f.mhz() as f64, s.cus[busiest].committed as f64))
                .collect();
            if curve.iter().any(|&(_, y)| y > 0.0) {
                curves.push(curve);
            }
        }
        gpu.run_epoch(epoch);
        epoch_idx += 1;
    }
    let r2s: Vec<f64> = curves.iter().map(|c| fit_line(c).1).collect();
    let mean_r2 = if r2s.is_empty() { 0.0 } else { r2s.iter().sum::<f64>() / r2s.len() as f64 };
    LinearityResult { curves, mean_r2 }
}

/// One design's graceful-degradation curve across fault rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCurve {
    /// Design name (e.g. "PCSTALL").
    pub policy: String,
    /// Mean energy savings vs the fault-free static 1.7 GHz baseline, one
    /// entry per swept fault rate.
    pub savings: Vec<f64>,
    /// Mean performance loss vs the same baseline, per rate.
    pub slowdown: Vec<f64>,
    /// Fallback-ladder engagements (hold + stall + safe-max epochs) summed
    /// over the swept apps, per rate.
    pub fallback_epochs: Vec<u64>,
    /// Total faults injected (telemetry + actuation + clamps) summed over
    /// the swept apps, per rate.
    pub faults_injected: Vec<u64>,
}

/// The resilience sweep's result: per-policy degradation curves over a
/// shared fault-rate axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCurves {
    /// The swept fault rates (the [`faults::FaultConfig::profile`] knob).
    pub rates: Vec<f64>,
    /// The apps averaged over.
    pub apps: Vec<String>,
    /// The fault seed all numerator runs share.
    pub seed: u64,
    /// One curve per design.
    pub curves: Vec<ResilienceCurve>,
}

impl ResilienceCurves {
    /// Renders the curves as a hand-rolled JSON document.
    pub fn to_json(&self) -> String {
        fn floats(v: &[f64]) -> String {
            let parts: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
            format!("[{}]", parts.join(","))
        }
        fn ints(v: &[u64]) -> String {
            let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", parts.join(","))
        }
        fn strings(v: &[String]) -> String {
            let parts: Vec<String> =
                v.iter().map(|s| format!("\"{}\"", s.replace('"', "\\\""))).collect();
            format!("[{}]", parts.join(","))
        }
        let curves: Vec<String> = self
            .curves
            .iter()
            .map(|c| {
                format!(
                    "{{\"policy\":\"{}\",\"savings\":{},\"slowdown\":{},\
                     \"fallback_epochs\":{},\"faults_injected\":{}}}",
                    c.policy,
                    floats(&c.savings),
                    floats(&c.slowdown),
                    ints(&c.fallback_epochs),
                    ints(&c.faults_injected),
                )
            })
            .collect();
        format!(
            "{{\n  \"rates\": {},\n  \"apps\": {},\n  \"seed\": {},\n  \"curves\": [\n    {}\n  ]\n}}\n",
            floats(&self.rates),
            strings(&self.apps),
            self.seed,
            curves.join(",\n    ")
        )
    }
}

/// Sweeps `policies` over `apps` at each fault rate, measuring energy and
/// performance against the *fault-free* static 1.7 GHz baseline.
///
/// Each rate builds `profile` ([`faults::FaultProfile::Proportional`] for
/// independent per-channel draws, [`faults::FaultProfile::Storm`] for the
/// bursty cross-channel-correlated windows the chaos soak uses) at the
/// shared `seed` and attaches the default degradation ladder
/// ([`crate::runner::FaultSetup::with_default_ladder`]); rate 0 is the
/// noop profile, so the first point of every curve is the ideal-GPU
/// result. Baselines always run on the ideal GPU (the cache forces
/// `faults: None`), so a curve's droop isolates what the faults cost.
pub fn resilience_sweep(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    rates: &[f64],
    seed: u64,
    profile: faults::FaultProfile,
    threads: usize,
) -> ResilienceCurves {
    use crate::runner::FaultSetup;
    use crate::sweeps::{global_baseline_cache, run_grid};

    let mut curves: Vec<ResilienceCurve> = policies
        .iter()
        .map(|p| ResilienceCurve {
            policy: p.name(),
            savings: Vec::new(),
            slowdown: Vec::new(),
            fallback_epochs: Vec::new(),
            faults_injected: Vec::new(),
        })
        .collect();
    for &rate in rates {
        let mut cfg = base.clone();
        cfg.faults = Some(FaultSetup::with_default_ladder(profile.build(rate, seed)));
        let cells = run_grid(apps, policies, &cfg, threads);
        let baselines = global_baseline_cache().baselines(apps, &cfg, 1700, threads);
        let n = policies.len();
        for (pi, curve) in curves.iter_mut().enumerate() {
            let mut savings = 0.0;
            let mut loss = 0.0;
            let mut engaged = 0u64;
            let mut injected = 0u64;
            for (app_cells, b) in cells.chunks(n).zip(&baselines) {
                let m = &app_cells[pi].result.metrics;
                savings += 1.0 - m.energy_vs(&b.result.metrics);
                loss += m.perf_loss_vs(&b.result.metrics);
                if let Some(report) = &app_cells[pi].result.fault_report {
                    injected += report.counts.total();
                    engaged += report.ladder.map_or(0, |l| l.engaged());
                }
            }
            let n_apps = apps.len().max(1) as f64;
            curve.savings.push(savings / n_apps);
            curve.slowdown.push(loss / n_apps);
            curve.fallback_epochs.push(engaged);
            curve.faults_injected.push(injected);
        }
    }
    ResilienceCurves {
        rates: rates.to_vec(),
        apps: apps.iter().map(|a| a.name.clone()).collect(),
        seed,
        curves,
    }
}

/// One hang-rate point of the supervision study (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionPoint {
    /// The injected per-cell hang probability.
    pub rate: f64,
    /// Chaos events the plan armed for this grid.
    pub armed: u64,
    /// Timeout give-ups across all attempts.
    pub timeouts: u64,
    /// Retry attempts launched.
    pub retries: u64,
    /// Cells recovered after at least one lost attempt.
    pub recovered: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Retries withheld by an open breaker.
    pub breaker_skips: u64,
    /// Cells never recovered.
    pub unrecovered: u64,
    /// Cells that produced a result.
    pub completed: u64,
    /// Whether every completed cell is bit-identical to the fault-free
    /// grid (the survivor-integrity invariant).
    pub matches_clean: bool,
    /// Wall-clock time of the supervised grid, in milliseconds (edge
    /// measurement — reported, never consulted by a decision).
    pub wall_ms: u64,
}

/// The supervision study's result: recovery behavior over a hang-rate
/// ladder, proving grids complete with bounded wall-clock under chaos.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionCurves {
    /// The swept hang rates.
    pub rates: Vec<f64>,
    /// The apps in the grid.
    pub apps: Vec<String>,
    /// The designs in the grid.
    pub policies: Vec<String>,
    /// Seed shared by the chaos plans and the backoff schedule.
    pub seed: u64,
    /// Per-attempt watchdog deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Harness-level retry rounds.
    pub max_retries: u32,
    /// One point per swept rate.
    pub points: Vec<SupervisionPoint>,
}

impl SupervisionCurves {
    /// Renders the study as a hand-rolled JSON document.
    pub fn to_json(&self) -> String {
        fn strings(v: &[String]) -> String {
            let parts: Vec<String> =
                v.iter().map(|s| format!("\"{}\"", s.replace('"', "\\\""))).collect();
            format!("[{}]", parts.join(","))
        }
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"rate\":{:.6},\"armed\":{},\"timeouts\":{},\"retries\":{},\
                     \"recovered\":{},\"breaker_trips\":{},\"breaker_skips\":{},\
                     \"unrecovered\":{},\"completed\":{},\"matches_clean\":{},\
                     \"wall_ms\":{}}}",
                    p.rate,
                    p.armed,
                    p.timeouts,
                    p.retries,
                    p.recovered,
                    p.breaker_trips,
                    p.breaker_skips,
                    p.unrecovered,
                    p.completed,
                    p.matches_clean,
                    p.wall_ms,
                )
            })
            .collect();
        format!(
            "{{\n  \"rates\": {},\n  \"apps\": {},\n  \"policies\": {},\n  \"seed\": {},\n  \
             \"deadline_ms\": {},\n  \"max_retries\": {},\n  \"points\": [\n    {}\n  ]\n}}\n",
            {
                let parts: Vec<String> = self.rates.iter().map(|x| format!("{x:.6}")).collect();
                format!("[{}]", parts.join(","))
            },
            strings(&self.apps),
            strings(&self.policies),
            self.seed,
            self.deadline_ms,
            self.max_retries,
            points.join(",\n    ")
        )
    }
}

/// Sweeps the supervised grid over a hang-rate ladder: each rate arms a
/// [`faults::ChaosPlan`] at `scfg.seed` and runs the full grid through
/// [`crate::supervised::run_grid_supervised`], comparing survivors
/// against a clean (chaos-free, unsupervised) reference grid. Rate 0
/// skips chaos entirely, so its point doubles as the overhead check:
/// supervision idles when nothing fails.
pub fn supervision_sweep(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    rates: &[f64],
    scfg: &crate::supervised::SuperviseConfig,
    threads: usize,
) -> SupervisionCurves {
    use crate::supervised::run_grid_supervised;
    use crate::sweeps::run_grid;

    let clean = run_grid(apps, policies, base, threads);
    let n_cells = clean.len();
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        let plan = (rate > 0.0).then(|| {
            faults::ChaosPlan::from_config(
                &faults::FaultConfig {
                    seed: scfg.seed,
                    hang_rate: rate,
                    ..faults::FaultConfig::default()
                },
                n_cells,
            )
        });
        let armed = plan.as_ref().map_or(0, faults::ChaosPlan::remaining) as u64;
        let t0 = supervise::edge::now_ms();
        let grid = run_grid_supervised(apps, policies, base, threads, scfg, plan.as_ref());
        let wall_ms = supervise::edge::now_ms().saturating_sub(t0);
        let matches_clean =
            grid.cells.iter().zip(&clean).all(|(got, want)| got.as_ref().is_none_or(|c| c == want));
        points.push(SupervisionPoint {
            rate,
            armed,
            timeouts: grid.report.timeouts,
            retries: grid.report.retries,
            recovered: grid.report.recovered,
            breaker_trips: grid.report.breaker_trips,
            breaker_skips: grid.report.breaker_skips,
            unrecovered: grid.report.unrecovered,
            completed: grid.cells.iter().flatten().count() as u64,
            matches_clean,
            wall_ms,
        });
    }
    SupervisionCurves {
        rates: rates.to_vec(),
        apps: apps.iter().map(|a| a.name.clone()).collect(),
        policies: policies.iter().map(|p| p.name()).collect(),
        seed: scfg.seed,
        deadline_ms: scfg.deadline.map_or(0, |d| d.as_millis() as u64),
        max_retries: scfg.max_retries,
        points,
    }
}

/// One fuzzed scenario's trip through the property-oracle catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzScenarioResult {
    /// Scenario name (`fuzz-{seed:x}-{index}`).
    pub name: String,
    /// Scenario index within the stream.
    pub index: u64,
    /// Kernel launches in the generated app.
    pub kernels: usize,
    /// Total instructions across its code objects.
    pub code_len: usize,
    /// Rendered property violations (empty = all three oracles passed).
    pub violations: Vec<String>,
}

/// The fuzz study's result: `count` seeded scenarios, each checked
/// against every differential oracle in `scenarios::properties`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzStudy {
    /// Stream seed every scenario derives from.
    pub seed: u64,
    /// Per-scenario outcomes, in index order.
    pub scenarios: Vec<FuzzScenarioResult>,
}

impl FuzzStudy {
    /// Total violations across all scenarios (0 = the study passed).
    pub fn total_violations(&self) -> usize {
        self.scenarios.iter().map(|s| s.violations.len()).sum()
    }

    /// Renders the study as a hand-rolled JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| {
                let v: Vec<String> = s
                    .violations
                    .iter()
                    .map(|m| format!("\"{}\"", m.replace('\\', "\\\\").replace('"', "\\\"")))
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"index\":{},\"kernels\":{},\"code_len\":{},\"violations\":[{}]}}",
                    s.name,
                    s.index,
                    s.kernels,
                    s.code_len,
                    v.join(",")
                )
            })
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"count\": {},\n  \"total_violations\": {},\n  \"scenarios\": [\n    {}\n  ]\n}}\n",
            self.seed,
            self.scenarios.len(),
            self.total_violations(),
            rows.join(",\n    ")
        )
    }
}

/// Generates scenarios `0..count` of the stream seeded by `seed` and runs
/// each through the full differential-oracle catalogue
/// (`scenarios::properties::check_all`). Scenarios check in parallel on
/// the global pool; results are in index order and — because generation
/// and every oracle are pure functions of the scenario — bit-identical at
/// any thread count.
pub fn fuzz_property_sweep(
    seed: u64,
    count: u64,
    pcfg: &scenarios::PropertyConfig,
    threads: usize,
) -> FuzzStudy {
    let indices: Vec<u64> = (0..count).collect();
    let scenarios = exec::global_pool().map_capped(&indices, threads, |&index| {
        let app = scenarios::fuzz::generate(seed, index);
        let violations =
            scenarios::properties::check_all(&app, pcfg).iter().map(|v| v.to_string()).collect();
        FuzzScenarioResult {
            name: app.name.clone(),
            index,
            kernels: app.kernels.len(),
            code_len: app.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum(),
            violations,
        }
    });
    FuzzStudy { seed, scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{by_name, Scale};

    fn series(name: &str, epochs: usize) -> ProbeSeries {
        let app = by_name(name, Scale::Quick).unwrap();
        probe_series(&app, &GpuConfig::tiny(), Femtos::from_micros(1), epochs)
    }

    #[test]
    fn probe_series_has_expected_shape() {
        let s = series("comd", 6);
        assert!(s.epochs() > 0);
        assert_eq!(s.cu_sens[0].len(), GpuConfig::tiny().n_cus);
        assert_eq!(s.wf[0][0].len(), GpuConfig::tiny().wf_slots);
    }

    #[test]
    fn compute_bound_sensitivity_exceeds_memory_bound() {
        let dg = series("dgemm", 6);
        let xs = series("xsbench", 6);
        let mean = |s: &ProbeSeries| {
            let all: Vec<f64> = s.cu_sens.iter().flatten().copied().collect();
            all.iter().sum::<f64>() / all.len() as f64
        };
        assert!(
            mean(&dg) > 2.0 * mean(&xs).max(0.01),
            "dgemm {} vs xsbench {}",
            mean(&dg),
            mean(&xs)
        );
    }

    #[test]
    fn same_pc_change_below_epoch_change() {
        // The paper's core observation (Fig. 10 vs Fig. 7): same-PC
        // iterations vary far less than consecutive epochs.
        let s = series("hacc", 20);
        let epoch_var = s.epoch_to_epoch_variability();
        let pc_wf = s.same_pc_iteration_change(PcScope::Wavefront, 4);
        assert!(
            pc_wf < epoch_var,
            "PC-based reconstruction ({pc_wf}) must be more stable than raw \
             consecutive-epoch sensitivity ({epoch_var})"
        );
        // Wavefront-private entries must be at least about as stable as a
        // pure last-value predictor (they degenerate to it on cold
        // entries); shared scopes trade some accuracy for storage.
        let last_value = s.last_value_change();
        assert!(
            pc_wf < 1.5 * last_value + 0.05,
            "WF-scope PC prediction ({pc_wf}) should track last-value ({last_value})"
        );
    }

    #[test]
    fn linearity_study_produces_good_fits() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let r = linearity_study(&app, &GpuConfig::tiny(), Femtos::from_micros(1), 3, 2);
        assert!(!r.curves.is_empty());
        assert!(r.mean_r2 > 0.5, "R² = {}", r.mean_r2);
    }

    #[test]
    fn age_rank_buckets_fill() {
        let s = series("quickS", 10);
        let by_rank = s.change_by_age_rank(8);
        assert_eq!(by_rank.len(), 8);
        assert!(by_rank.iter().any(|&v| v > 0.0), "no rank bucket populated");
    }
}
