//! The per-application experiment runner: a thin composition of the
//! [`crate::session`] engine with the standard observer set (energy
//! accounting, accuracy scoring, frequency-residency tracking and the
//! optional Section 5.4 power-cap manager).

use crate::session::{
    AccuracyObserver, EnergyObserver, PowerCapObserver, ResidencyObserver, RunObserver,
    SensitivityTrace, SensitivityTraceObserver, Session,
};
use dvfs::epoch::EpochConfig;
use dvfs::objective::Objective;
use dvfs::states::FreqStates;
use gpu_sim::config::GpuConfig;
use gpu_sim::kernel::App;
use pcstall::policy::PolicyKind;
use power::energy::RunMetrics;
use power::model::{PowerConfig, PowerModel};

/// Configuration of one policy-controlled run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// GPU platform.
    pub gpu: GpuConfig,
    /// DVFS epoch timing.
    pub epoch: EpochConfig,
    /// CUs per V/f domain (1 = the paper's fine-grain default).
    pub group: usize,
    /// Optimization objective.
    pub objective: Objective,
    /// Candidate frequency states.
    pub states: FreqStates,
    /// Power-model parameters.
    pub power: PowerConfig,
    /// The design under test.
    pub policy: PolicyKind,
    /// Safety cap on simulated epochs.
    pub max_epochs: usize,
    /// Optional chip-level power cap (paper Section 5.4): a higher-level
    /// manager narrows/widens the V/f range at coarse intervals.
    pub power_cap: Option<dvfs::hierarchy::PowerCapConfig>,
    /// Optional fault injection + degradation setup (DESIGN.md §8).
    /// `None` — the ideal GPU — leaves every output bit-identical to a
    /// build without the fault subsystem.
    pub faults: Option<FaultSetup>,
}

/// Fault injection paired with its degradation response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSetup {
    /// Fault rates, magnitudes and the seed.
    pub faults: faults::FaultConfig,
    /// Fallback-ladder depths; `None` runs the policy raw (no wrapper), to
    /// measure how an unprotected design degrades.
    pub fallback: Option<pcstall::resilience::FallbackConfig>,
}

impl FaultSetup {
    /// The standard setup: `cfg`'s faults answered by the default ladder.
    pub fn with_default_ladder(cfg: faults::FaultConfig) -> Self {
        FaultSetup { faults: cfg, fallback: Some(pcstall::resilience::FallbackConfig::default()) }
    }
}

/// What the fault subsystem observed over one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultReport {
    /// Injected-event counters.
    pub counts: faults::FaultCounts,
    /// Ladder-rung occupancy, when a fallback ladder was attached.
    pub ladder: Option<pcstall::resilience::FallbackCounts>,
}

/// Fault reports ride in sweep resume journals inside their
/// [`RunResult`].
impl snapshot::Snapshot for FaultReport {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let FaultReport { counts, ladder } = *self;
        counts.encode(w);
        ladder.encode(w);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(FaultReport {
            counts: faults::FaultCounts::decode(r)?,
            ladder: Option::<pcstall::resilience::FallbackCounts>::decode(r)?,
        })
    }
}

/// Run results are what a sweep resume journal persists per completed
/// cell. Floats are exact LE bit patterns, so a journaled result is
/// bit-identical to the in-memory one it was decoded from — which is what
/// lets a resumed sweep produce output indistinguishable from an
/// uninterrupted run.
impl snapshot::Snapshot for RunResult {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let RunResult {
            policy,
            app,
            metrics,
            accuracy,
            epochs,
            freq_residency,
            completed,
            sensitivity_trace,
            fault_report,
        } = self;
        policy.encode(w);
        app.encode(w);
        metrics.encode(w);
        w.put_f64(*accuracy);
        w.put_usize(*epochs);
        freq_residency.encode(w);
        w.put_bool(*completed);
        sensitivity_trace.encode(w);
        fault_report.encode(w);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(RunResult {
            policy: String::decode(r)?,
            app: String::decode(r)?,
            metrics: RunMetrics::decode(r)?,
            accuracy: r.take_f64()?,
            epochs: r.take_usize()?,
            freq_residency: Vec::<f64>::decode(r)?,
            completed: r.take_bool()?,
            sensitivity_trace: Option::<SensitivityTrace>::decode(r)?,
            fault_report: Option::<FaultReport>::decode(r)?,
        })
    }
}

impl RunConfig {
    /// The paper's standard setup for a given design: 64-CU GPU, per-CU
    /// domains, 1 µs epochs, ED²P objective.
    pub fn paper(policy: PolicyKind) -> Self {
        RunConfig {
            gpu: GpuConfig::default(),
            epoch: EpochConfig::paper(1),
            group: 1,
            objective: Objective::MinEd2p,
            states: FreqStates::paper(),
            power: PowerConfig::default(),
            policy,
            max_epochs: 5_000,
            power_cap: None,
            faults: None,
        }
    }

    /// Reduced-scale setup (16-CU GPU) for tests and quick benches; the
    /// uncore power constants scale with the CU count so the energy
    /// landscape stays representative.
    pub fn reduced(policy: PolicyKind) -> Self {
        let gpu = GpuConfig::small();
        RunConfig {
            gpu,
            power: power::model::PowerConfig::scaled_to(gpu.n_cus),
            ..RunConfig::paper(policy)
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Design name.
    pub policy: String,
    /// Application name.
    pub app: String,
    /// Final energy/delay metrics.
    pub metrics: RunMetrics,
    /// Mean prediction accuracy in [0, 1] (NaN for designs scored on no
    /// epochs).
    pub accuracy: f64,
    /// Epochs simulated.
    pub epochs: usize,
    /// Fraction of domain-epochs spent at each state (aligned with the
    /// state set; sums to 1).
    pub freq_residency: Vec<f64>,
    /// Whether the application ran to completion within the epoch cap.
    pub completed: bool,
    /// Per-epoch, per-domain frequency-sensitivity trace, populated when
    /// the run attached a [`SensitivityTraceObserver`] (see
    /// [`run_with_sensitivity_trace`]).
    pub sensitivity_trace: Option<SensitivityTrace>,
    /// Fault-injection counters and ladder occupancy; `None` for runs on
    /// the ideal GPU ([`RunConfig::faults`] unset).
    pub fault_report: Option<FaultReport>,
}

impl RunResult {
    /// Residency-weighted mean frequency in MHz.
    pub fn mean_freq_mhz(&self, states: &FreqStates) -> f64 {
        states.iter().zip(&self.freq_residency).map(|(f, &r)| f.mhz() as f64 * r).sum()
    }
}

/// Runs `app` to completion (or the epoch cap) under `cfg`'s policy.
/// Oracle sampling uses the process-global [`exec::WorkerPool`].
pub fn run(app: &App, cfg: &RunConfig) -> RunResult {
    run_inner(app, cfg, false, None).expect("no cancel predicate, so the run cannot preempt")
}

/// What a deadline-preempted run leaves behind: enough to avoid redoing
/// the simulated prefix. The GPU snapshot is the PR-4 versioned format
/// ([`gpu_sim::Gpu::save_snapshot`]) and restores bit-exactly; observer
/// and policy state are *not* captured, so the snapshot seeds a fresh
/// retry's warmup (via [`crate::snapcache`]-style restore) rather than
/// resuming the interrupted session mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Preemption {
    /// Epochs the interrupted session had completed.
    pub epochs: usize,
    /// Versioned GPU snapshot taken at the preemption epoch boundary.
    pub snapshot: Vec<u8>,
}

/// Like [`run`], but polls `cancelled` between epochs: when it reports
/// `true`, the run stops at the next epoch boundary and returns the
/// partial progress as a [`Preemption`] instead of a result. A run that
/// finishes before cancellation returns its normal, bit-identical
/// [`RunResult`].
///
/// # Errors
///
/// `Err(Preemption)` when the run was cancelled before completing.
pub fn run_preemptible(
    app: &App,
    cfg: &RunConfig,
    cancelled: &dyn Fn() -> bool,
) -> Result<RunResult, Box<Preemption>> {
    run_inner(app, cfg, false, Some(cancelled))
}

/// Like [`run`], but additionally forces fork–pre-execute sampling every
/// epoch and records a ground-truth [`SensitivityTrace`] into
/// [`RunResult::sensitivity_trace`] (the Figure 6 measurement path).
pub fn run_with_sensitivity_trace(app: &App, cfg: &RunConfig) -> RunResult {
    run_inner(app, cfg, true, None).expect("no cancel predicate, so the run cannot preempt")
}

fn run_inner(
    app: &App,
    cfg: &RunConfig,
    trace: bool,
    cancelled: Option<&dyn Fn() -> bool>,
) -> Result<RunResult, Box<Preemption>> {
    let power = PowerModel::new(cfg.power);
    let mut session = Session::new(app, cfg).sampling_every_epoch(trace);
    let mut energy = EnergyObserver::new(power);
    let mut accuracy = AccuracyObserver::new();
    let mut residency = ResidencyObserver::new(cfg.states.clone());
    let mut cap = cfg.power_cap.map(|c| PowerCapObserver::new(c, cfg.states.clone(), power));
    let mut tracer = trace.then(SensitivityTraceObserver::new);
    {
        let mut observers: Vec<&mut dyn RunObserver> =
            vec![&mut energy, &mut accuracy, &mut residency];
        if let Some(c) = cap.as_mut() {
            observers.push(c);
        }
        if let Some(t) = tracer.as_mut() {
            observers.push(t);
        }
        match cancelled {
            Some(cancelled) => {
                if session.run_preemptible(&mut observers, cancelled) {
                    return Err(Box::new(Preemption {
                        epochs: session.epochs(),
                        snapshot: session.gpu().save_snapshot(),
                    }));
                }
            }
            None => session.run(&mut observers),
        }
    }
    let mut result = session.finalize();
    energy.finish(&mut result);
    accuracy.finish(&mut result);
    residency.finish(&mut result);
    if let Some(c) = cap.as_mut() {
        c.finish(&mut result);
    }
    if let Some(t) = tracer.as_mut() {
        t.finish(&mut result);
    }
    Ok(result)
}

/// Runs the static-1.7 GHz baseline every paper figure normalizes against.
pub fn run_static_baseline(app: &App, cfg: &RunConfig) -> RunResult {
    let mut base_cfg = cfg.clone();
    base_cfg.policy = PolicyKind::Static(1700);
    run(app, &base_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs::hierarchy::PowerCapConfig;
    use gpu_sim::time::Frequency;
    use pcstall::estimators::CuEstimator;
    use pcstall::policy::PcStallConfig;
    use workloads::{by_name, Scale};

    fn quick_cfg(policy: PolicyKind) -> RunConfig {
        let mut cfg = RunConfig::paper(policy);
        cfg.gpu = GpuConfig::tiny();
        cfg.max_epochs = 40;
        cfg
    }

    #[test]
    fn static_run_has_single_state_residency() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let r = run(&app, &quick_cfg(PolicyKind::Static(1700)));
        let idx = FreqStates::paper().index_of(Frequency::from_mhz(1700)).unwrap();
        assert!((r.freq_residency[idx] - 1.0).abs() < 1e-12);
        assert!(r.metrics.energy_j > 0.0);
        assert!(r.epochs > 0);
    }

    #[test]
    fn residency_sums_to_one() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let r = run(&app, &quick_cfg(PolicyKind::Reactive(CuEstimator::Crisp)));
        let sum: f64 = r.freq_residency.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pcstall_runs_and_scores_accuracy() {
        let app = by_name("hacc", Scale::Quick).unwrap();
        let r = run(&app, &quick_cfg(PolicyKind::PcStall(PcStallConfig::default())));
        assert!(r.accuracy.is_finite());
        assert!(r.accuracy > 0.3, "accuracy suspiciously low: {}", r.accuracy);
    }

    #[test]
    fn oracle_accuracy_is_near_perfect() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let r = run(&app, &quick_cfg(PolicyKind::Oracle));
        assert!(r.accuracy > 0.9, "oracle accuracy {}", r.accuracy);
    }

    #[test]
    fn memory_bound_app_clocks_lower_than_compute_bound() {
        let states = FreqStates::paper();
        let xs = run(&by_name("xsbench", Scale::Quick).unwrap(), &quick_cfg(PolicyKind::Oracle));
        let dg = run(&by_name("dgemm", Scale::Quick).unwrap(), &quick_cfg(PolicyKind::Oracle));
        assert!(
            xs.mean_freq_mhz(&states) < dg.mean_freq_mhz(&states),
            "xsbench {} vs dgemm {}",
            xs.mean_freq_mhz(&states),
            dg.mean_freq_mhz(&states)
        );
    }

    #[test]
    fn tight_power_cap_with_custom_states_never_panics() {
        // Regression: the cap manager used to rebuild its narrowed range
        // with a hardcoded 100 MHz step, producing off-grid states for
        // custom sets and panicking residency accounting. It now returns a
        // prefix of the configured set.
        let app = by_name("dgemm", Scale::Quick).unwrap();
        let mut cfg = quick_cfg(PolicyKind::Oracle);
        cfg.states = FreqStates::from_states(vec![
            Frequency::from_mhz(1000),
            Frequency::from_mhz(1150),
            Frequency::from_mhz(1333),
            Frequency::from_mhz(1633),
            Frequency::from_mhz(2000),
        ]);
        // A cap far below what dgemm draws, so the manager narrows hard.
        cfg.power_cap = Some(PowerCapConfig::new(1e-3));
        let r = run(&app, &cfg);
        let sum: f64 = r.freq_residency.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "residency sum {}", sum);
        assert_eq!(r.freq_residency.len(), cfg.states.len());
        assert!(r.epochs > 0);
    }

    #[test]
    fn sensitivity_trace_is_populated_and_shaped() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let cfg = quick_cfg(PolicyKind::Static(1700));
        let r = run_with_sensitivity_trace(&app, &cfg);
        let trace = r.sensitivity_trace.expect("trace must be recorded");
        assert_eq!(trace.epochs(), r.epochs);
        assert_eq!(trace.per_domain[0].len(), cfg.gpu.n_cus / cfg.group);
        assert!(trace.epoch_to_epoch_variability().is_finite());
        // The plain runner does not pay the tracing cost.
        assert!(run(&app, &cfg).sensitivity_trace.is_none());
    }

    #[test]
    fn session_path_matches_legacy_loop_shape() {
        // The composed observer path must reproduce the monolithic loop:
        // same epoch count, energy, accuracy and residency for a
        // deterministic policy.
        let app = by_name("hacc", Scale::Quick).unwrap();
        let cfg = quick_cfg(PolicyKind::PcStall(PcStallConfig::default()));
        let a = run(&app, &cfg);
        let b = run(&app, &cfg);
        assert_eq!(a, b);
    }
}
