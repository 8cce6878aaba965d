//! One experiment per paper figure/table, plus the ablation and extension
//! studies.
//!
//! Every function takes a [`Preset`] and returns a [`FigureOutput`] —
//! title, table rows and notes — that `repro run <id>` prints and archives
//! under `results/`. The preset is the only input a figure reads: the
//! reduced preset (default) uses a 16-CU GPU and quick workloads;
//! [`Preset::full`] (`repro --full`) is the paper's 64-CU platform at
//! standard scale. Its `faults`, `supervise` and `sources` fields carry
//! `repro`'s `--faults`, `--deadline`/`--max-retries` and `--apps` flags.

use crate::error::{self, HarnessError};
use crate::report::{f3, markdown_table, pct, results_dir, write_atomic};
use crate::runner::{run_with_sensitivity_trace, FaultSetup, RunConfig};
use crate::studies::{linearity_study, probe_series, resilience_sweep, PcScope};
use crate::sweeps::{default_threads, global_baseline_cache, run_grid, SuiteCell};
use dvfs::epoch::EpochConfig;
use dvfs::hierarchy::PowerCapConfig;
use dvfs::objective::Objective;
use dvfs::states::FreqStates;
use gpu_sim::config::GpuConfig;
use gpu_sim::kernel::App;
use gpu_sim::time::Femtos;
use pcstall::estimators::CuEstimator;
use pcstall::history::HistoryConfig;
use pcstall::policy::{PcStallConfig, PolicyKind, TableScope};
use power::energy::geomean;
use power::storage;
use workloads::{suite, table2, Scale};

/// The shorthand every figure entry point returns.
pub type FigureResult = Result<FigureOutput, HarnessError>;

/// Supervision knobs the `repro` CLI can override (`--deadline`,
/// `--max-retries`); unset fields keep the figure's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SuperviseOverride {
    /// Per-attempt watchdog deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Harness-level retry rounds.
    pub max_retries: Option<u32>,
}

/// Scale preset and inputs for the experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Preset {
    /// GPU platform.
    pub gpu: GpuConfig,
    /// Workload problem size.
    pub scale: Scale,
    /// Worker threads for grids.
    pub threads: usize,
    /// Whether this is the full paper-scale preset.
    pub full: bool,
    /// Fault setup every experiment's GPU runs under (`repro --faults`).
    /// Baselines stay fault-free, so normalized figures show what the
    /// faults cost. The resilience study ignores the rates (it sweeps its
    /// own) but adopts the seed.
    pub faults: Option<FaultSetup>,
    /// Supervision knobs for the supervision study.
    pub supervise: SuperviseOverride,
    /// Workload sources that replace the Table II suite in every suite
    /// figure (`repro --apps`); set through [`Preset::with_sources`].
    pub sources: Option<Vec<scenarios::Source>>,
}

impl Preset {
    /// Full paper scale: 64 CUs, standard workloads.
    pub fn full() -> Self {
        Preset { gpu: GpuConfig::default(), scale: Scale::Standard, full: true, ..Self::reduced() }
    }

    /// Reduced scale for quick runs: 16 CUs, quick workloads.
    pub fn reduced() -> Self {
        Preset {
            gpu: GpuConfig::small(),
            scale: Scale::Quick,
            threads: default_threads(),
            full: false,
            faults: None,
            supervise: SuperviseOverride::default(),
            sources: None,
        }
    }

    /// Redirects every suite figure at `sources` — registry names, trace
    /// files or fuzz scenarios. Each source is built once here, so a bad
    /// trace path or misspelled workload fails up front instead of
    /// mid-experiment.
    ///
    /// # Errors
    ///
    /// The first source that fails to build ([`HarnessError::Source`], with
    /// did-you-mean suggestions for registry misses).
    pub fn with_sources(self, sources: Vec<scenarios::Source>) -> Result<Self, HarnessError> {
        for s in &sources {
            s.build()?;
        }
        Ok(Preset { sources: Some(sources), ..self })
    }

    /// The paper's run setup on this preset's platform at `epoch_us`.
    fn base_cfg(&self, policy: PolicyKind, epoch_us: u64) -> RunConfig {
        let mut cfg = RunConfig::paper(policy);
        cfg.gpu = self.gpu;
        cfg.power = power::model::PowerConfig::scaled_to(self.gpu.n_cus);
        cfg.epoch = EpochConfig::paper(epoch_us);
        cfg.faults = self.faults;
        cfg
    }

    fn apps(&self) -> Result<Vec<App>, HarnessError> {
        match &self.sources {
            Some(sources) => sources.iter().map(|s| Ok(s.build()?)).collect(),
            None => Ok(suite(self.scale)),
        }
    }

    /// Builds the named registry workloads at this preset's scale.
    fn named_apps(&self, names: &[&str]) -> Result<Vec<App>, HarnessError> {
        names.iter().map(|n| error::app(n, self.scale)).collect()
    }
}

/// A rendered experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOutput {
    /// Figure/table identifier (e.g. "Figure 14").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (caveats, summary statistics).
    pub notes: Vec<String>,
}

impl FigureOutput {
    /// Renders the output as markdown.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&markdown_table(&headers, &self.rows));
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }
}

fn ed2p_ratio(cell: &SuiteCell, baseline: &SuiteCell) -> f64 {
    cell.result.metrics.ed2p_vs(&baseline.result.metrics)
}

fn edp_ratio(cell: &SuiteCell, baseline: &SuiteCell) -> f64 {
    cell.result.metrics.edp_vs(&baseline.result.metrics)
}

/// Runs `policies` over `apps` at one epoch duration under `objective`,
/// plus each app's static-1.7 baseline.
fn grid_with_baseline(
    preset: &Preset,
    apps: &[App],
    policies: &[PolicyKind],
    epoch_us: u64,
    objective: Objective,
) -> (Vec<SuiteCell>, Vec<SuiteCell>) {
    let mut base = preset.base_cfg(PolicyKind::Static(1700), epoch_us);
    base.objective = objective;
    grid_on(preset, apps, policies, &base, 1700)
}

/// Runs `policies` over `apps` on `base` (app-major cells) and fetches each
/// app's static baseline at `static_mhz` on the same platform. Static
/// baselines are objective-independent, so figures sweeping the same
/// apps/platform share them through the process-wide cache instead of
/// re-simulating once per figure.
fn grid_on(
    preset: &Preset,
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    static_mhz: u32,
) -> (Vec<SuiteCell>, Vec<SuiteCell>) {
    let cells = run_grid(apps, policies, base, preset.threads);
    let baselines = global_baseline_cache().baselines(apps, base, static_mhz, preset.threads);
    (cells, baselines)
}

/// Turns an app-major grid of `n` policies per app into one column per
/// policy, mapping each cell with its app's baseline through `f`.
fn columns<T>(
    cells: &[SuiteCell],
    baselines: &[SuiteCell],
    n: usize,
    f: impl Fn(&SuiteCell, &SuiteCell) -> T,
) -> Vec<Vec<T>> {
    (0..n)
        .map(|pi| {
            cells.chunks(n).zip(baselines).map(|(app_cells, b)| f(&app_cells[pi], b)).collect()
        })
        .collect()
}

/// One row per app — its name, then each policy column's value — and a
/// closing `label` row with each column's `summary`.
fn app_rows(
    apps: &[App],
    cols: &[Vec<f64>],
    cell: fn(f64) -> String,
    label: &str,
    summary: fn(&[f64]) -> f64,
) -> Vec<Vec<String>> {
    let row = |name: &str, values: Vec<f64>| {
        std::iter::once(name.to_string()).chain(values.into_iter().map(cell)).collect()
    };
    let mut rows: Vec<Vec<String>> = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| row(&app.name, cols.iter().map(|c| c[ai]).collect()))
        .collect();
    rows.push(row(label, cols.iter().map(|c| summary(c)).collect()));
    rows
}

/// Mean over the apps whose accuracy is defined (Figures 1b and 14).
fn mean_finite(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    finite.iter().fold(0.0, |a, b| a + b) / finite.len().max(1) as f64
}

/// The epoch durations (µs) swept by Figures 1 and 17.
pub fn epoch_sweep_points(preset: &Preset) -> Vec<u64> {
    if preset.full {
        vec![1, 2, 5, 10, 20, 50, 100]
    } else {
        vec![1, 5, 20]
    }
}

/// Workloads used by the epoch-duration and granularity *sweeps*: the full
/// suite at paper scale; a representative 8-app subset (spanning the
/// compute/memory spectrum and both categories) at the reduced preset so a
/// sweep's oracle sampling stays tractable on small machines.
pub fn sweep_apps(preset: &Preset) -> Result<Vec<App>, HarnessError> {
    if preset.sources.is_some() || preset.full {
        preset.apps()
    } else {
        preset.named_apps(&[
            "comd", "hpgmg", "xsbench", "hacc", "quickS", "dgemm", "BwdBN", "FwdPool",
        ])
    }
}

/// Figure 1(a): geomean ED²P improvement over static 1.7 GHz versus DVFS
/// epoch duration, for CRISP (reactive state of the art), PCSTALL and
/// ORACLE.
pub fn fig01a(preset: &Preset) -> FigureResult {
    let policies = [
        PolicyKind::Reactive(CuEstimator::Crisp),
        PolicyKind::PcStall(PcStallConfig::default()),
        PolicyKind::Oracle,
    ];
    let apps = sweep_apps(preset)?;
    let mut rows = Vec::new();
    for epoch_us in epoch_sweep_points(preset) {
        let (cells, baselines) =
            grid_with_baseline(preset, &apps, &policies, epoch_us, Objective::MinEd2p);
        let mut row = vec![format!("{epoch_us}")];
        for ratios in columns(&cells, &baselines, policies.len(), ed2p_ratio) {
            row.push(pct(1.0 - geomean(&ratios)));
        }
        rows.push(row);
    }
    Ok(FigureOutput {
        id: "Figure 1a".into(),
        title: "Geomean ED²P improvement vs static 1.7 GHz, by DVFS epoch duration".into(),
        headers: vec!["epoch (µs)".into(), "CRISP".into(), "PCSTALL".into(), "ORACLE".into()],
        rows,
        notes: vec![
            "Paper shape: improvement grows as epochs shrink; PCSTALL tracks ORACLE, CRISP lags."
                .into(),
        ],
    })
}

/// Figure 1(b): mean prediction accuracy versus epoch duration for CRISP,
/// ACCREAC (perfect-estimate reactive) and PCSTALL.
pub fn fig01b(preset: &Preset) -> FigureResult {
    let policies = [
        PolicyKind::Reactive(CuEstimator::Crisp),
        PolicyKind::AccReac,
        PolicyKind::PcStall(PcStallConfig::default()),
    ];
    let apps = sweep_apps(preset)?;
    let mut rows = Vec::new();
    for epoch_us in epoch_sweep_points(preset) {
        let (cells, baselines) =
            grid_with_baseline(preset, &apps, &policies, epoch_us, Objective::MinEd2p);
        let mut row = vec![format!("{epoch_us}")];
        for accs in columns(&cells, &baselines, policies.len(), |c, _| c.result.accuracy) {
            row.push(pct(mean_finite(&accs)));
        }
        rows.push(row);
    }
    Ok(FigureOutput {
        id: "Figure 1b".into(),
        title: "Mean prediction accuracy by epoch duration".into(),
        headers: vec!["epoch (µs)".into(), "CRISP".into(), "ACCREAC".into(), "PCSTALL".into()],
        rows,
        notes: vec![
            "Paper shape: PCSTALL stays high as epochs shrink; reactive designs degrade.".into()
        ],
    })
}

/// Figure 5: linearity of instructions-vs-frequency for sampled `comd`
/// epochs (paper reports mean R² ≈ 0.82).
pub fn fig05(preset: &Preset) -> FigureResult {
    let app = error::app("comd", preset.scale)?;
    let samples = if preset.full { 12 } else { 5 };
    let r = linearity_study(&app, &preset.gpu, Femtos::from_micros(1), samples, 3);
    let mut rows = Vec::new();
    for (i, curve) in r.curves.iter().enumerate() {
        let mut row = vec![format!("epoch sample {i}")];
        row.extend(curve.iter().map(|&(_, y)| format!("{y:.0}")));
        rows.push(row);
    }
    let mut headers = vec!["sample".to_string()];
    headers.extend(FreqStates::paper().iter().map(|f| format!("{} MHz", f.mhz())));
    Ok(FigureOutput {
        id: "Figure 5".into(),
        title: "Instructions committed per 1 µs epoch at each frequency (comd, one CU)".into(),
        headers,
        rows,
        notes: vec![format!(
            "Mean linear-fit R² = {:.3} (paper: 0.82 average across workloads).",
            r.mean_r2
        )],
    })
}

/// Figure 6: sensitivity-vs-time profiles of dgemm, hacc, BwdBN, xsbench,
/// recorded in the policy loop by the session's sensitivity-trace observer
/// (forced fork–pre-execute sampling at the static 1.7 GHz baseline).
pub fn fig06(preset: &Preset) -> FigureResult {
    let names = ["dgemm", "hacc", "BwdBN", "xsbench"];
    let epochs = if preset.full { 60 } else { 25 };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for name in names {
        let app = error::app(name, preset.scale)?;
        let mut cfg = preset.base_cfg(PolicyKind::Static(1700), 1);
        cfg.max_epochs = epochs;
        let r = run_with_sensitivity_trace(&app, &cfg);
        let series = r.sensitivity_trace.ok_or_else(|| HarnessError::MissingTrace {
            app: name.to_string(),
            policy: cfg.policy.name(),
        })?;
        let trace = series.domain_trace(0);
        let mean = trace.iter().sum::<f64>() / trace.len().max(1) as f64;
        let min = trace.iter().copied().fold(f64::INFINITY, f64::min);
        let max = trace.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        rows.push(vec![
            name.to_string(),
            format!("{}", trace.len()),
            f3(mean),
            f3(min),
            f3(max),
            pct(series.epoch_to_epoch_variability()),
        ]);
        let sparkline: Vec<String> = trace.iter().take(20).map(|v| format!("{v:.2}")).collect();
        notes.push(format!(
            "{name} CU0 sensitivity trace (first 20 epochs): {}",
            sparkline.join(", ")
        ));
    }
    Ok(FigureOutput {
        id: "Figure 6".into(),
        title: "Per-epoch (1 µs) CU sensitivity profiles".into(),
        headers: vec![
            "app".into(),
            "epochs".into(),
            "mean S".into(),
            "min S".into(),
            "max S".into(),
            "epoch-to-epoch change".into(),
        ],
        rows,
        notes,
    })
}

/// Figure 7(a): average relative sensitivity change across consecutive 1 µs
/// epochs, per workload; (b): the suite average versus epoch duration.
pub fn fig07(preset: &Preset) -> FigureResult {
    let epochs = if preset.full { 50 } else { 20 };
    let mut rows = Vec::new();
    let mut one_us = Vec::new();
    for w in workloads::registry::all() {
        let app = (w.build)(preset.scale);
        let series = probe_series(&app, &preset.gpu, Femtos::from_micros(1), epochs);
        let v = series.epoch_to_epoch_variability();
        one_us.push(v);
        rows.push(vec![w.name.to_string(), pct(v)]);
    }
    let avg_1us = one_us.iter().sum::<f64>() / one_us.len().max(1) as f64;
    rows.push(vec!["**average**".into(), pct(avg_1us)]);

    let mut notes = vec![format!("Suite average at 1 µs: {} (paper: ~37%).", pct(avg_1us))];
    // Part (b): variability versus epoch duration, suite average.
    let durations: &[u64] = if preset.full { &[1, 5, 10, 50, 100] } else { &[1, 5, 10] };
    let mut trend = Vec::new();
    for &us in durations {
        let span = epochs as u64; // keep the covered time comparable
        let n = ((span / us).max(3)) as usize;
        let vals: Vec<f64> = workloads::registry::all()
            .iter()
            .map(|w| {
                probe_series(&(w.build)(preset.scale), &preset.gpu, Femtos::from_micros(us), n)
                    .epoch_to_epoch_variability()
            })
            .collect();
        trend.push((us, vals.iter().sum::<f64>() / vals.len().max(1) as f64));
    }
    let trend_s: Vec<String> =
        trend.iter().map(|(us, v)| format!("{us}µs → {}", pct(*v))).collect();
    notes.push(format!(
        "Fig 7b (variability vs epoch duration, suite average): {} (paper: 12% at 100µs rising to 37% at 1µs).",
        trend_s.join(", ")
    ));
    Ok(FigureOutput {
        id: "Figure 7".into(),
        title: "Epoch-to-epoch sensitivity variability".into(),
        headers: vec!["app".into(), "avg relative change (1 µs)".into()],
        rows,
        notes,
    })
}

/// Figure 8: per-wavefront contributions to one CU's sensitivity (BwdBN).
pub fn fig08(preset: &Preset) -> FigureResult {
    let app = error::app("BwdBN", preset.scale)?;
    let epochs = if preset.full { 30 } else { 15 };
    let series = probe_series(&app, &preset.gpu, Femtos::from_micros(1), epochs);
    let traces = series.wavefront_traces(0);
    let mut rows = Vec::new();
    for (e, slots) in traces.iter().enumerate().take(12) {
        let total: f64 = slots.iter().sum();
        let active = slots.iter().filter(|&&s| s.abs() > 1e-9).count();
        let top = slots.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        rows.push(vec![
            format!("{e}"),
            f3(total),
            format!("{active}"),
            f3(top),
            pct(if total.abs() > 1e-9 { top / total } else { 0.0 }),
        ]);
    }
    Ok(FigureOutput {
        id: "Figure 8".into(),
        title: "Wavefront-level contributions to CU sensitivity (BwdBN, CU 0)".into(),
        headers: vec![
            "epoch".into(),
            "CU sensitivity".into(),
            "contributing wavefronts".into(),
            "largest WF share".into(),
            "top-WF fraction".into(),
        ],
        rows,
        notes: vec!["Contributions shift epoch to epoch — the CU total is not explained by any static wavefront subset.".into()],
    })
}

/// Figure 10: average relative sensitivity change across consecutive
/// *same-PC* iterations, by table-sharing granularity.
pub fn fig10(preset: &Preset) -> FigureResult {
    let epochs = if preset.full { 50 } else { 20 };
    let mut sums = [0.0f64; 3];
    let mut epoch_sum = 0.0;
    let mut rows = Vec::new();
    let all = workloads::registry::all();
    for w in &all {
        let app = (w.build)(preset.scale);
        let series = probe_series(&app, &preset.gpu, Femtos::from_micros(1), epochs);
        let wf = series.same_pc_iteration_change(PcScope::Wavefront, 4);
        let cu = series.same_pc_iteration_change(PcScope::Cu, 4);
        let gpu = series.same_pc_iteration_change(PcScope::Gpu, 4);
        let ep = series.epoch_to_epoch_variability();
        sums[0] += wf;
        sums[1] += cu;
        sums[2] += gpu;
        epoch_sum += ep;
        rows.push(vec![w.name.to_string(), pct(wf), pct(cu), pct(gpu), pct(ep)]);
    }
    let n = all.len() as f64;
    rows.push(vec![
        "**average**".into(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(epoch_sum / n),
    ]);
    Ok(FigureOutput {
        id: "Figure 10".into(),
        title: "Same-PC iteration stability vs consecutive-epoch variability".into(),
        headers: vec![
            "app".into(),
            "WF-scope".into(),
            "CU-scope".into(),
            "GPU-scope".into(),
            "consecutive epochs".into(),
        ],
        rows,
        notes: vec![
            "Paper: same-PC iterations change only ~10% on average vs ~37% for consecutive epochs — the basis for PC-indexed prediction.".into(),
        ],
    })
}

/// Figure 11(a): same-slot sensitivity change by age rank (quickS);
/// (b): same-PC change versus PC-index offset bits (suite average,
/// CU scope).
pub fn fig11(preset: &Preset) -> FigureResult {
    let epochs = if preset.full { 50 } else { 20 };
    let app = error::app("quickS", preset.scale)?;
    let series = probe_series(&app, &preset.gpu, Femtos::from_micros(1), epochs);
    let max_rank = if preset.full { 12 } else { 8 };
    let by_rank = series.change_by_age_rank(max_rank);
    let mut rows: Vec<Vec<String>> =
        by_rank.iter().enumerate().map(|(r, v)| vec![format!("rank {r}"), pct(*v)]).collect();

    // Part (b): offset sweep, averaged over a few representative apps.
    let offset_apps = ["comd", "dgemm", "BwdBN", "hacc"];
    let mut notes = vec!["Rank 0 is the oldest (highest-priority) wavefront; the paper observes contention grows with rank.".into()];
    let mut line = Vec::new();
    for offset in 0..=8u32 {
        let mut total = 0.0;
        for name in offset_apps {
            let app = error::app(name, preset.scale)?;
            let s = probe_series(&app, &preset.gpu, Femtos::from_micros(1), epochs / 2);
            total += s.same_pc_iteration_change(PcScope::Cu, offset);
        }
        line.push(format!("{offset} bits → {}", pct(total / offset_apps.len() as f64)));
    }
    notes.push(format!(
        "Fig 11b (same-PC change vs PC offset bits, CU scope): {} (paper: rises past 4 bits).",
        line.join(", ")
    ));
    rows.push(vec!["—".into(), "—".into()]);
    Ok(FigureOutput {
        id: "Figure 11".into(),
        title: "Inter-wavefront contention (quickS) and PC-offset tuning".into(),
        headers: vec!["wavefront slot (age rank)".into(), "avg sensitivity change".into()],
        rows,
        notes,
    })
}

/// Figure 14 (and Table III): prediction accuracy of every design at 1 µs.
pub fn fig14(preset: &Preset) -> FigureResult {
    let policies = PolicyKind::table3();
    let apps = preset.apps()?;
    let (cells, baselines) = grid_with_baseline(preset, &apps, &policies, 1, Objective::MinEd2p);
    let accs = columns(&cells, &baselines, policies.len(), |c, _| c.result.accuracy);
    let rows = app_rows(&apps, &accs, pct, "**average**", mean_finite);
    let mut headers = vec!["app".to_string()];
    headers.extend(policies.iter().map(|p| p.name()));
    Ok(FigureOutput {
        id: "Figure 14".into(),
        title: "Prediction accuracy at 1 µs epochs (all Table III designs)".into(),
        headers,
        rows,
        notes: vec![
            "Paper: reactive baselines ~60%, ACCREAC 63%, PCSTALL up to 81%, ACCPC ~90%.".into()
        ],
    })
}

/// Figure 15: per-workload ED²P normalized to static 1.7 GHz at 1 µs.
pub fn fig15(preset: &Preset) -> FigureResult {
    let policies = vec![
        PolicyKind::Static(1300),
        PolicyKind::Static(2200),
        PolicyKind::Reactive(CuEstimator::Crisp),
        PolicyKind::PcStall(PcStallConfig::default()),
        PolicyKind::AccPc(PcStallConfig::default()),
        PolicyKind::Oracle,
    ];
    let apps = preset.apps()?;
    let (cells, baselines) = grid_with_baseline(preset, &apps, &policies, 1, Objective::MinEd2p);
    let ratios = columns(&cells, &baselines, policies.len(), ed2p_ratio);
    let rows = app_rows(&apps, &ratios, f3, "**geomean**", geomean);
    let mut headers = vec!["app".to_string()];
    headers.extend(policies.iter().map(|p| p.name()));
    Ok(FigureOutput {
        id: "Figure 15".into(),
        title: "ED²P normalized to static 1.7 GHz (1 µs epochs; lower is better)".into(),
        headers,
        rows,
        notes: vec![
            "Paper: ORACLE up to 54% improvement, PCSTALL ~48%, ACCPC ~51%, CRISP ~23%.".into()
        ],
    })
}

/// Figure 16: frequency residency per workload under PCSTALL (ED²P, 1 µs).
pub fn fig16(preset: &Preset) -> FigureResult {
    let apps = preset.apps()?;
    let base = preset.base_cfg(PolicyKind::PcStall(PcStallConfig::default()), 1);
    let cells =
        run_grid(&apps, &[PolicyKind::PcStall(PcStallConfig::default())], &base, preset.threads);
    let states = FreqStates::paper();
    let mut rows = Vec::new();
    for cell in &cells {
        let mut row = vec![cell.app.clone()];
        row.extend(cell.result.freq_residency.iter().map(|r| pct(*r)));
        row.push(format!("{:.0}", cell.result.mean_freq_mhz(&states)));
        rows.push(row);
    }
    let mut headers = vec!["app".to_string()];
    headers.extend(states.iter().map(|f| format!("{}", f.mhz())));
    headers.push("mean MHz".into());
    Ok(FigureOutput {
        id: "Figure 16".into(),
        title: "Time share of each frequency state (PCSTALL, ED²P, 1 µs)".into(),
        headers,
        rows,
        notes: vec![
            "Paper: compute-bound apps (dgemm, hacc) sit high; memory-bound (hpgmg, xsbench) sit low.".into(),
        ],
    })
}

/// Figure 17: geomean EDP (vs static 1.7 GHz) by epoch duration.
pub fn fig17(preset: &Preset) -> FigureResult {
    let policies = [
        PolicyKind::Reactive(CuEstimator::Crisp),
        PolicyKind::PcStall(PcStallConfig::default()),
        PolicyKind::Oracle,
    ];
    let apps = sweep_apps(preset)?;
    let mut rows = Vec::new();
    for epoch_us in epoch_sweep_points(preset) {
        let (cells, baselines) =
            grid_with_baseline(preset, &apps, &policies, epoch_us, Objective::MinEdp);
        let mut row = vec![format!("{epoch_us}")];
        for ratios in columns(&cells, &baselines, policies.len(), edp_ratio) {
            row.push(f3(geomean(&ratios)));
        }
        rows.push(row);
    }
    Ok(FigureOutput {
        id: "Figure 17".into(),
        title: "Geomean EDP normalized to static 1.7 GHz, by epoch duration".into(),
        headers: vec!["epoch (µs)".into(), "CRISP".into(), "PCSTALL".into(), "ORACLE".into()],
        rows,
        notes: vec!["Paper: same trend as ED²P but with a smaller reactive/predictive gap.".into()],
    })
}

/// Figure 18(a): energy savings under 5% / 10% performance-degradation
/// limits, versus the full-performance static 2.2 GHz baseline.
pub fn fig18a(preset: &Preset) -> FigureResult {
    let policies =
        [PolicyKind::Reactive(CuEstimator::Crisp), PolicyKind::PcStall(PcStallConfig::default())];
    let apps = sweep_apps(preset)?;
    let mut rows = Vec::new();
    for limit in [0.05, 0.10] {
        let mut base = preset.base_cfg(PolicyKind::Static(2200), 1);
        base.objective = Objective::EnergyUnderPerfLoss(limit);
        let (cells, baselines) = grid_on(preset, &apps, &policies, &base, 2200);
        let mut row = vec![pct(limit)];
        let pairs = columns(&cells, &baselines, policies.len(), |c, b| {
            (
                1.0 - c.result.metrics.energy_vs(&b.result.metrics),
                c.result.metrics.perf_loss_vs(&b.result.metrics),
            )
        });
        for col in pairs {
            let n = col.len().max(1) as f64;
            let avg_savings = col.iter().map(|p| p.0).sum::<f64>() / n;
            let avg_loss = col.iter().map(|p| p.1).sum::<f64>() / n;
            row.push(format!("{} (loss {})", pct(avg_savings), pct(avg_loss)));
        }
        rows.push(row);
    }
    Ok(FigureOutput {
        id: "Figure 18a".into(),
        title: "Average energy savings under performance-degradation limits (vs static 2.2 GHz)"
            .into(),
        headers: vec!["perf-loss limit".into(), "CRISP".into(), "PCSTALL".into()],
        rows,
        notes: vec![
            "Paper: PCSTALL 9.6% savings at the 5% limit (CRISP 2.1%); 19.9% at 10% (CRISP 4.7%)."
                .into(),
        ],
    })
}

/// Figure 18(b): geomean ED²P improvement by V/f-domain granularity.
pub fn fig18b(preset: &Preset) -> FigureResult {
    let groups: Vec<usize> = if preset.full { vec![1, 2, 4, 8, 16, 32] } else { vec![1, 4, 16] };
    let policies = [
        PolicyKind::Reactive(CuEstimator::Crisp),
        PolicyKind::PcStall(PcStallConfig::default()),
        PolicyKind::Oracle,
    ];
    let apps = sweep_apps(preset)?;
    let mut rows = Vec::new();
    for group in groups {
        let mut base = preset.base_cfg(PolicyKind::Static(1700), 1);
        base.group = group;
        let (cells, baselines) = grid_on(preset, &apps, &policies, &base, 1700);
        let mut row = vec![format!("{group} CU")];
        for ratios in columns(&cells, &baselines, policies.len(), ed2p_ratio) {
            row.push(pct(1.0 - geomean(&ratios)));
        }
        rows.push(row);
    }
    Ok(FigureOutput {
        id: "Figure 18b".into(),
        title: "Geomean ED²P improvement by V/f-domain granularity (1 µs)".into(),
        headers: vec![
            "domain size".into(),
            "CRISP".into(),
            "PCSTALL".into(),
            "ORACLE".into(),
        ],
        rows,
        notes: vec![
            "Paper: opportunity shrinks with coarser domains; PCSTALL retains most of ORACLE's benefit even at 32 CUs (18% vs 24%) while CRISP collapses (~4%).".into(),
        ],
    })
}

/// Table I: hardware storage overhead per predictor instance.
pub fn table1(_preset: &Preset) -> FigureResult {
    let rows = storage::table1()
        .iter()
        .map(|s| {
            let parts: Vec<String> =
                s.components.iter().map(|(d, b)| format!("{d}: {b} B")).collect();
            vec![s.name.to_string(), parts.join("; "), format!("{}", s.total_bytes())]
        })
        .collect();
    Ok(FigureOutput {
        id: "Table I".into(),
        title: "Hardware storage overhead per instance (bytes)".into(),
        headers: vec!["design".into(), "components".into(), "total (B)".into()],
        rows,
        notes: vec!["PCSTALL total matches the paper exactly (328 B); baseline rows are reconstructed (see DESIGN.md).".into()],
    })
}

/// Table II: the workload suite, with measured behavioral profiles
/// (instruction mix and cache residency over a steady-state window at the
/// static 1.7 GHz baseline).
pub fn table2_figure(preset: &Preset) -> FigureResult {
    use gpu_sim::gpu::Gpu;
    use gpu_sim::stats::OpMix;
    let window = if preset.full { 30 } else { 15 };
    let rows = table2()
        .iter()
        .map(|&(name, cat, kernels)| {
            let app = error::app(name, preset.scale)?;
            let mut gpu = Gpu::new(preset.gpu, app);
            gpu.run_epoch(Femtos::from_micros(4)); // warm-up
            let mut mix = OpMix::default();
            let mut l1 = (0u64, 0u64);
            let mut l2 = (0u64, 0u64);
            for _ in 0..window {
                let s = gpu.run_epoch(Femtos::from_micros(1));
                for cu in &s.cus {
                    mix = mix.merged(&cu.op_mix);
                    l1.0 += cu.l1_hits;
                    l1.1 += cu.l1_misses;
                }
                l2.0 += s.mem.l2_hits;
                l2.1 += s.mem.l2_misses;
                if s.done {
                    break;
                }
            }
            let hit = |h: u64, m: u64| {
                if h + m == 0 {
                    "n/a".to_string()
                } else {
                    pct(h as f64 / (h + m) as f64)
                }
            };
            Ok(vec![
                name.to_string(),
                format!("{cat:?}"),
                format!("{kernels}"),
                pct(1.0 - mix.memory_fraction()),
                pct(mix.memory_fraction()),
                hit(l1.0, l1.1),
                hit(l2.0, l2.1),
            ])
        })
        .collect::<Result<Vec<_>, HarnessError>>()?;
    Ok(FigureOutput {
        id: "Table II".into(),
        title: "Workloads used for evaluation (unique kernels; measured profile)".into(),
        headers: vec![
            "app".into(),
            "category".into(),
            "unique kernels".into(),
            "compute instr".into(),
            "memory instr".into(),
            "L1 hit".into(),
            "L2 hit".into(),
        ],
        rows,
        notes: vec!["Profiles measured over a steady-state window at static 1.7 GHz.".into()],
    })
}

/// Runs `policies` over `apps` on `base` and summarizes each policy as
/// `[mean accuracy, geomean ED²P vs static 1.7 GHz, mean chip power (W)]`.
/// Unlike Figures 1b and 14, a non-finite accuracy counts as 0 and every
/// app is in the mean.
fn study(
    preset: &Preset,
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
) -> Vec<[f64; 3]> {
    let (cells, baselines) = grid_on(preset, apps, policies, base, 1700);
    let cols = columns(&cells, &baselines, policies.len(), |c, b| {
        let (acc, m) = (c.result.accuracy, &c.result.metrics);
        [if acc.is_finite() { acc } else { 0.0 }, ed2p_ratio(c, b), m.energy_j / m.delay_s]
    });
    let n = apps.len() as f64;
    let mean = |col: &[[f64; 3]], i: usize| col.iter().map(|v| v[i]).sum::<f64>() / n;
    let geo = |col: &[[f64; 3]]| geomean(&col.iter().map(|v| v[1]).collect::<Vec<_>>());
    cols.iter().map(|col| [mean(col, 0), geo(col), mean(col, 2)]).collect()
}

/// [`study`] of PCSTALL `variants` over the named apps at 1 µs (ED²P).
fn ablation(
    preset: &Preset,
    names: &[&str],
    variants: &[PcStallConfig],
) -> Result<Vec<[f64; 3]>, HarnessError> {
    let policies: Vec<PolicyKind> = variants.iter().map(|&c| PolicyKind::PcStall(c)).collect();
    Ok(study(
        preset,
        &preset.named_apps(names)?,
        &policies,
        &preset.base_cfg(PolicyKind::Static(1700), 1),
    ))
}

/// One `[label, mean accuracy]` row per ablation variant.
fn accuracy_rows(labels: &[String], summary: Vec<[f64; 3]>) -> Vec<Vec<String>> {
    labels.iter().zip(summary).map(|(label, [acc, ..])| vec![label.clone(), pct(acc)]).collect()
}

/// Ablation of PCSTALL's design choices (DESIGN.md §4): intrinsic-demand
/// (age) normalization, the blocked-entry class bit, and barrier-as-async
/// accounting. Reports prediction accuracy and ED²P vs static 1.7 GHz.
pub fn ablation_age_norm(preset: &Preset) -> FigureResult {
    let base = PcStallConfig::default();
    let mut no_age = base;
    no_age.wf.age_normalize = false;
    let mut no_block = base;
    no_block.blocked_bit = false;
    let mut no_barrier = base;
    no_barrier.wf.barrier_as_async = false;
    let apps = ["comd", "dgemm", "hacc", "BwdBN", "snapc"];
    let summary = ablation(preset, &apps, &[base, no_age, no_block, no_barrier])?;
    let labels = [
        "PCSTALL (default)",
        "no age normalization",
        "no blocked-class bit",
        "barrier time as core",
    ];
    let rows = labels
        .iter()
        .zip(summary)
        .map(|(l, [acc, ed2p, _])| vec![l.to_string(), pct(acc), f3(ed2p)])
        .collect();
    Ok(FigureOutput {
        id: "Ablation".into(),
        title: "PCSTALL design-choice ablation (5 apps, 1 µs, ED²P)".into(),
        headers: vec!["variant".into(), "mean accuracy".into(), "geomean ED²P vs 1.7".into()],
        rows,
        notes: vec![],
    })
}

/// Ablation of the PC table's geometry and storage (paper Fig. 11b's
/// offset tuning, entry count, last-writer vs averaged entries, and the
/// hardware byte-quantized storage mode).
pub fn ablation_table(preset: &Preset) -> FigureResult {
    let base = PcStallConfig::default();
    let mut variants: Vec<(String, PcStallConfig)> = Vec::new();
    for entries in [32usize, 128, 512] {
        let mut c = base;
        c.table.entries = entries;
        variants.push((format!("{entries} entries"), c));
    }
    for offset in [0u32, 4, 6, 8] {
        let mut c = base;
        c.table.offset_bits = offset;
        variants.push((format!("offset {offset} bits"), c));
    }
    let mut overwrite = base;
    overwrite.table.ewma_alpha = 1.0;
    variants.push(("overwrite entries (no averaging)".into(), overwrite));
    let mut quant = base;
    quant.table.quantize = true;
    variants.push(("byte-quantized entries".into(), quant));
    let (labels, variants): (Vec<String>, Vec<PcStallConfig>) = variants.into_iter().unzip();
    let summary = ablation(preset, &["comd", "dgemm", "hacc"], &variants)?;
    Ok(FigureOutput {
        id: "Ablation".into(),
        title: "PC-table geometry/storage ablation (3 apps, 1 µs)".into(),
        headers: vec!["variant".into(), "mean accuracy".into()],
        rows: accuracy_rows(&labels, summary),
        notes: vec![
            "Paper: 128 entries and a 4-bit offset suffice; accuracy falls past 4 offset bits."
                .into(),
        ],
    })
}

/// Ablation of PC-table sharing granularity (paper Fig. 10's 64CU/CU/WF
/// scopes map to Global/PerDomain/PerCu table instancing).
pub fn ablation_scope(preset: &Preset) -> FigureResult {
    let scopes = [TableScope::PerCu, TableScope::PerDomain, TableScope::Global];
    let variants = scopes.map(|scope| PcStallConfig { scope, ..Default::default() });
    let summary = ablation(preset, &["comd", "dgemm", "hacc", "xsbench"], &variants)?;
    let labels = ["per CU (paper design)", "per V/f domain", "one global table"].map(String::from);
    Ok(FigureOutput {
        id: "Ablation".into(),
        title: "PC-table sharing scope (4 apps, 1 µs)".into(),
        headers: vec!["scope".into(), "mean accuracy".into()],
        rows: accuracy_rows(&labels, summary),
        notes: vec![
            "Paper: sharing beyond a CU costs little accuracy, enabling shared tables.".into()
        ],
    })
}

/// Extension study: designs beyond the paper's Table III — the global
/// phase-history-table predictor (HIST, paper §2.4's alternative family)
/// and the §5.4 hierarchical power cap running on top of PCSTALL. The
/// capped design's baseline runs under the same cap.
pub fn ext_designs(preset: &Preset) -> FigureResult {
    let apps = preset.named_apps(&["comd", "dgemm", "hacc", "xsbench", "BwdBN"])?;
    let pcstall = PolicyKind::PcStall(PcStallConfig::default());
    let mut base = preset.base_cfg(PolicyKind::Static(1700), 1);
    let mut summary =
        study(preset, &apps, &[PolicyKind::History(HistoryConfig::default()), pcstall], &base);
    // A budget roughly 80% of the reduced chip's typical draw.
    base.power_cap = Some(PowerCapConfig::new(0.8 * 40.0 * preset.gpu.n_cus as f64 / 64.0 + 20.0));
    summary.extend(study(preset, &apps, &[pcstall], &base));
    let labels = ["HIST (phase history)", "PCSTALL", "PCSTALL + power cap"];
    let rows = labels
        .iter()
        .zip(summary)
        .map(|(l, [acc, ed2p, power])| {
            vec![l.to_string(), pct(acc), f3(ed2p), format!("{power:.1} W")]
        })
        .collect();
    Ok(FigureOutput {
        id: "Extension".into(),
        title: "Beyond Table III: history-table prediction and hierarchical power capping".into(),
        headers: vec![
            "design".into(),
            "mean accuracy".into(),
            "geomean ED²P vs 1.7".into(),
            "mean chip power".into(),
        ],
        rows,
        notes: vec![
            "HIST anticipates repeating patterns but has no insight into *why* behavior changes; the power cap trades ED²P for a firm average-power bound.".into(),
        ],
    })
}

/// The resilience study: energy savings and slowdown versus fault rate for
/// five designs, measured against the fault-free static 1.7 GHz baseline.
///
/// Each rate is a [`faults::FaultConfig::profile`] — telemetry dropout,
/// staleness and noise, dropped/delayed actuations and transient thermal
/// clamps all scaled together — with the default degradation ladder
/// attached, so the curves show graceful degradation rather than a cliff.
/// The raw curves are archived as `results/resilience.json` through the
/// atomic writer. `PCSTALL_BENCH_SMOKE=1` shrinks the sweep to 2 apps ×
/// 2 policies × 2 rates for CI.
pub fn resilience(preset: &Preset) -> FigureResult {
    let smoke = matches!(std::env::var("PCSTALL_BENCH_SMOKE"), Ok(v) if !v.is_empty() && v != "0");
    let names: &[&str] = if smoke {
        &["comd", "xsbench"]
    } else if preset.full {
        &["comd", "hpgmg", "xsbench", "hacc", "quickS", "dgemm", "BwdBN", "FwdPool"]
    } else {
        &["comd", "xsbench", "dgemm", "hacc"]
    };
    let apps = preset.named_apps(names)?;
    let policies: Vec<PolicyKind> = if smoke {
        vec![
            PolicyKind::Reactive(CuEstimator::Stall),
            PolicyKind::PcStall(PcStallConfig::default()),
        ]
    } else {
        vec![
            PolicyKind::Reactive(CuEstimator::Stall),
            PolicyKind::Reactive(CuEstimator::Crisp),
            PolicyKind::PcStall(PcStallConfig::default()),
            PolicyKind::AccPc(PcStallConfig::default()),
            PolicyKind::Oracle,
        ]
    };
    let rates: &[f64] = if smoke { &[0.0, 0.20] } else { &[0.0, 0.01, 0.05, 0.20] };
    let seed = preset.faults.map_or(42, |s| s.faults.seed);
    // A storm-shaped `--faults` override (e.g. `--faults storm=0.2,seed=7`)
    // switches the whole sweep to the bursty correlated profile the chaos
    // soak uses; the default stays the independent proportional profile.
    let profile = preset.faults.map_or(faults::FaultProfile::Proportional, |s| {
        if s.faults.storm_period > 0 {
            faults::FaultProfile::Storm
        } else {
            faults::FaultProfile::Proportional
        }
    });
    let mut base = preset.base_cfg(PolicyKind::Static(1700), 1);
    base.objective = Objective::MinEd2p;
    let curves = resilience_sweep(&apps, &policies, &base, rates, seed, profile, preset.threads);

    let json_path = archive_json("resilience.json", &curves.to_json())?;

    let mut rows = Vec::new();
    for (ri, &rate) in curves.rates.iter().enumerate() {
        let mut row = vec![pct(rate)];
        for c in &curves.curves {
            row.push(format!(
                "{} (loss {}, fb {})",
                pct(c.savings[ri]),
                pct(c.slowdown[ri]),
                c.fallback_epochs[ri]
            ));
        }
        rows.push(row);
    }
    let mut headers = vec!["fault rate".to_string()];
    headers.extend(policies.iter().map(|p| p.name()));
    Ok(FigureOutput {
        id: "Resilience".into(),
        title: "Energy savings vs fault rate (vs fault-free static 1.7 GHz)".into(),
        headers,
        rows,
        notes: vec![
            format!(
                "Fault profile ({}) per rate r: telemetry drop r, stale r/2, noise r (±15%); \
                 actuation drop/delay r/2; thermal clamps r/10. Seed {seed}; \
                 degradation ladder hold→STALL→safe-max attached to every design.",
                profile.name()
            ),
            format!("Raw curves archived at {json_path}."),
            "Cells read: savings (perf loss, fallback epochs engaged). Savings should \
             degrade smoothly — not cliff — as the fault rate rises."
                .into(),
        ],
    })
}

/// The supervision study: grid completion under injected hang chaos
/// (DESIGN.md §10). A hang-rate ladder arms [`faults::ChaosPlan`]s over
/// the grid and runs every point through the supervised executor —
/// watchdog deadlines, deterministic retry/backoff, per-app circuit
/// breaking — proving grids complete with bounded wall-clock and that
/// every surviving cell stays bit-identical to the fault-free grid.
///
/// The raw points are archived as `results/supervision.json` through the
/// atomic writer. `PCSTALL_BENCH_SMOKE=1` shrinks the sweep to 2 apps ×
/// 2 policies × 2 rates for CI. `repro --deadline`/`--max-retries`
/// override the supervision knobs through [`Preset::supervise`].
pub fn supervision(preset: &Preset) -> FigureResult {
    use crate::studies::supervision_sweep;
    use crate::supervised::SuperviseConfig;

    let smoke = matches!(std::env::var("PCSTALL_BENCH_SMOKE"), Ok(v) if !v.is_empty() && v != "0");
    let names: &[&str] =
        if smoke { &["comd", "xsbench"] } else { &["comd", "xsbench", "dgemm", "hacc"] };
    let apps = preset.named_apps(names)?;
    let policies: Vec<PolicyKind> = if smoke {
        vec![PolicyKind::Static(1700), PolicyKind::PcStall(PcStallConfig::default())]
    } else {
        vec![
            PolicyKind::Static(1700),
            PolicyKind::Reactive(CuEstimator::Stall),
            PolicyKind::PcStall(PcStallConfig::default()),
        ]
    };
    let rates: &[f64] = if smoke { &[0.0, 0.20] } else { &[0.0, 0.01, 0.05, 0.20] };
    let over = preset.supervise;
    // Seed 97 arms hang events at both the smoke and full grid sizes
    // (seeded channel draws are deterministic, so an unlucky seed would
    // demonstrate nothing at low rates).
    let scfg = SuperviseConfig {
        deadline: Some(std::time::Duration::from_millis(over.deadline_ms.unwrap_or(5_000))),
        max_retries: over.max_retries.unwrap_or(3),
        seed: preset.faults.map_or(97, |s| s.faults.seed),
        ..SuperviseConfig::default()
    };
    let mut base = preset.base_cfg(PolicyKind::Static(1700), 1);
    base.objective = Objective::MinEd2p;
    let curves = supervision_sweep(&apps, &policies, &base, rates, &scfg, preset.threads);

    let json_path = archive_json("supervision.json", &curves.to_json())?;

    let n_cells = (apps.len() * policies.len()) as u64;
    let rows = curves
        .points
        .iter()
        .map(|p| {
            vec![
                pct(p.rate),
                p.armed.to_string(),
                p.timeouts.to_string(),
                p.retries.to_string(),
                p.recovered.to_string(),
                format!("{}/{}", p.breaker_trips, p.breaker_skips),
                format!("{}/{}", p.completed, n_cells),
                if p.matches_clean { "yes" } else { "NO" }.to_string(),
                p.wall_ms.to_string(),
            ]
        })
        .collect();
    Ok(FigureOutput {
        id: "Supervision".into(),
        title: "Grid completion under injected hang chaos (supervised executor)".into(),
        headers: vec![
            "hang rate".into(),
            "armed".into(),
            "timeouts".into(),
            "retries".into(),
            "recovered".into(),
            "trips/skips".into(),
            "completed".into(),
            "survivors clean".into(),
            "wall ms".into(),
        ],
        rows,
        notes: vec![
            format!(
                "Deadline {} ms per attempt, {} retry rounds, breaker K={}, seed {}.",
                scfg.deadline.map_or(0, |d| d.as_millis()),
                scfg.max_retries,
                scfg.breaker_k,
                scfg.seed
            ),
            format!("Raw points archived at {json_path}."),
            "`survivors clean` pins the integrity invariant: every completed cell is \
             bit-identical to the same cell of a chaos-free, unsupervised grid."
                .into(),
        ],
    })
}

/// The fuzz study as a figure: seeded scenarios through the differential
/// property oracles (`repro run fuzz`; `repro fuzz` exposes the count and
/// seed as flags and turns violations into a non-zero exit).
pub fn fuzz(preset: &Preset) -> FigureResult {
    let count = if preset.full { 50 } else { 10 };
    fuzz_with(42, count, preset.threads)
}

/// The fuzz study at an explicit `(seed, count)`, archived to
/// `results/fuzz.json`.
pub fn fuzz_with(seed: u64, count: u64, threads: usize) -> FigureResult {
    let study = crate::studies::fuzz_property_sweep(
        seed,
        count,
        &scenarios::PropertyConfig::default(),
        threads,
    );
    let json_path = archive_json("fuzz.json", &study.to_json())?;
    let rows = study
        .scenarios
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.kernels.to_string(),
                s.code_len.to_string(),
                if s.violations.is_empty() { "pass".to_string() } else { s.violations.join("; ") },
            ]
        })
        .collect();
    Ok(FigureOutput {
        id: "Fuzz".into(),
        title: "Seeded scenarios through the differential property oracles".into(),
        headers: vec![
            "scenario".into(),
            "kernels".into(),
            "instrs".into(),
            "properties (monotonicity, conservation, snapshot)".into(),
        ],
        rows,
        notes: vec![
            format!(
                "{} scenarios from seed {}, {} violation(s) total.",
                study.scenarios.len(),
                seed,
                study.total_violations()
            ),
            format!("Raw outcomes archived at {json_path}."),
            "Every scenario is reproducible: `repro fuzz --seed S --count N` regenerates \
             the stream bit-identically at any thread count."
                .into(),
        ],
    })
}

/// Archives a raw study artifact as `results/<name>` through the atomic
/// writer and returns that repo-relative path for the figure's notes, so
/// the rendered figure does not depend on where the checkout lives.
fn archive_json(name: &str, json: &str) -> Result<String, HarnessError> {
    let path = results_dir().join(name);
    write_atomic(&path, json).map_err(|e| error::io_at(&path, e))?;
    Ok(format!("results/{name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_preset() -> Preset {
        Preset { gpu: GpuConfig::tiny(), threads: 4, ..Preset::reduced() }
    }

    #[test]
    fn table_figures_render() {
        let p = tiny_preset();
        let t1 = table1(&p).unwrap();
        assert!(t1.render().contains("PCSTALL"));
        assert!(t1.rows.iter().any(|r| r[2] == "328"));
        let t2 = table2_figure(&p).unwrap();
        assert_eq!(t2.rows.len(), 16);
    }

    #[test]
    fn fig05_runs_at_tiny_scale() {
        let f = fig05(&tiny_preset()).unwrap();
        assert!(!f.rows.is_empty());
        assert!(f.notes[0].contains("R²"));
    }

    #[test]
    fn ablation_and_extension_studies_run_at_tiny_scale() {
        let p = tiny_preset();
        assert_eq!(ablation_age_norm(&p).unwrap().rows.len(), 4);
        assert_eq!(ablation_table(&p).unwrap().rows.len(), 9);
        assert_eq!(ablation_scope(&p).unwrap().rows.len(), 3);
        let ext = ext_designs(&p).unwrap();
        assert_eq!(ext.rows.len(), 3);
        assert!(ext.rows.iter().all(|r| r[3].ends_with(" W")));
    }

    #[test]
    fn bad_source_fails_when_the_preset_is_built() {
        let missing = scenarios::Source::TraceFile { path: "no/such/trace.pckt".into() };
        assert!(Preset::reduced().with_sources(vec![missing]).is_err());
    }

    #[test]
    fn figure_output_renders_markdown() {
        let f = FigureOutput {
            id: "X".into(),
            title: "T".into(),
            headers: vec!["a".into()],
            rows: vec![vec!["1".into()]],
            notes: vec!["n".into()],
        };
        let md = f.render();
        assert!(md.contains("## X — T"));
        assert!(md.contains("| 1 |"));
        assert!(md.contains("> n"));
    }
}
