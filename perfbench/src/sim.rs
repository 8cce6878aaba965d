//! `sim-pcstall` and `sim-oracle`: the paper's closed loop — simulated
//! GPU → telemetry → policy → V/f — stepped one `Session::step` at a time
//! over a pass of apps that repeats until the measured phase ends.

use std::sync::Arc;
use std::time::Instant;

use exec::WorkerPool;
use gpu_sim::config::GpuConfig;
use gpu_sim::kernel::App;
use gpu_sim::stats::EpochStats;
use harness::session::{
    AccuracyObserver, EnergyObserver, EpochCtx, ResidencyObserver, RunObserver, Session,
};
use harness::{RunConfig, RunResult};
use pcstall::policy::{PcStallConfig, PolicyKind};
use power::energy::{geomean, RunMetrics};
use power::model::{PowerConfig, PowerModel};
use scenarios::Source;
use workloads::Scale;

use crate::trace::SpanLog;
use crate::{ms, overhead_pct, pass_count, Args, Passes, Report};

/// Which policy closes the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sim-pcstall`: the default PCSTALL predictor on the 16-CU platform.
    PcStall,
    /// `sim-oracle`: fork–pre-execute sampling of every state on the 4-CU
    /// platform.
    Oracle,
}

/// Fuzz scenarios of the seed appended to each pass: the seed-dependent
/// share of the inputs, kept small next to the fixed apps.
const FUZZ_APPS: u64 = 2;
/// Nominal seconds of one measured pass, which with `--seconds` sets the
/// pass count.
fn nominal_pass_s(kind: Kind) -> f64 {
    match kind {
        Kind::PcStall => 5.0,
        Kind::Oracle => 5.0,
    }
}
/// `sim-oracle`'s fixed apps: memory-bound, compute-bound and mixed, few
/// enough that a pass takes seconds and a run well over 1,000 steps.
const ORACLE_APPS: [&str; 4] = ["comd", "xsbench", "dgemm", "BwdSoft"];
/// The static frequency every ED²P is normalised to, in MHz (Fig. 15).
const BASELINE_MHZ: u32 = 1700;

fn config(kind: Kind) -> RunConfig {
    match kind {
        Kind::PcStall => RunConfig::reduced(PolicyKind::PcStall(PcStallConfig::default())),
        Kind::Oracle => {
            let gpu = GpuConfig::tiny();
            RunConfig {
                gpu,
                power: PowerConfig::scaled_to(gpu.n_cus),
                ..RunConfig::paper(PolicyKind::Oracle)
            }
        }
    }
}

/// One pass's apps: the workload's fixed Table II apps, then the seed's
/// `fuzz:SEED:i` scenarios, all at `Scale::Quick`.
fn build_apps(kind: Kind, seed: u64) -> Result<Vec<App>, String> {
    let fixed: Vec<&str> = match kind {
        Kind::PcStall => workloads::registry::names(),
        Kind::Oracle => ORACLE_APPS.to_vec(),
    };
    let fuzz = (0..FUZZ_APPS).map(|i| format!("fuzz:{seed}:{i}"));
    fixed
        .into_iter()
        .map(String::from)
        .chain(fuzz)
        .map(|spec| {
            Source::parse(&spec, Scale::Quick).and_then(|s| s.build()).map_err(|e| e.to_string())
        })
        .collect()
}

/// The observers `harness::runner::run` attaches, so that a stepped run
/// assembles the same `RunResult`.
struct Meters {
    energy: EnergyObserver,
    accuracy: AccuracyObserver,
    residency: ResidencyObserver,
}

impl Meters {
    fn new(cfg: &RunConfig) -> Self {
        Meters {
            energy: EnergyObserver::new(PowerModel::new(cfg.power)),
            accuracy: AccuracyObserver::new(),
            residency: ResidencyObserver::new(cfg.states.clone()),
        }
    }

    fn finish(mut self, session: &Session) -> RunResult {
        let mut result = session.finalize();
        self.energy.finish(&mut result);
        self.accuracy.finish(&mut result);
        self.residency.finish(&mut result);
        result
    }
}

/// Simulated events of the traced steps.
#[derive(Debug, Default, Clone, Copy)]
struct SimCounts {
    epochs: u64,
    transitions: u64,
    insts: u64,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
}

impl SimCounts {
    fn add(&mut self, o: &SimCounts) {
        self.epochs += o.epochs;
        self.transitions += o.transitions;
        self.insts += o.insts;
        self.l1_hits += o.l1_hits;
        self.l1_accesses += o.l1_accesses;
        self.l2_hits += o.l2_hits;
        self.l2_accesses += o.l2_accesses;
    }
}

/// The traced steps' observer: stamps the boundaries between the layers
/// of one `Session::step` and counts the epoch's simulated events. It is
/// attached first, so its stamps precede every other observer's work.
#[derive(Debug, Default)]
struct StepTimer {
    decided: Option<Instant>,
    simulated: Option<Instant>,
    counts: SimCounts,
}

impl RunObserver for StepTimer {
    fn on_decisions(&mut self, ctx: &EpochCtx<'_>) {
        self.decided = Some(Instant::now());
        let changed = ctx.decisions.iter().zip(ctx.current).filter(|(d, f)| d.freq != **f).count();
        self.counts.transitions += changed as u64;
    }

    fn on_epoch(&mut self, _ctx: &EpochCtx<'_>, stats: &EpochStats) {
        self.simulated = Some(Instant::now());
        let c = &mut self.counts;
        c.epochs += 1;
        c.insts += stats.committed_total();
        for cu in &stats.cus {
            c.l1_hits += cu.l1_hits;
            c.l1_accesses += cu.l1_hits + cu.l1_misses;
        }
        c.l2_hits += stats.mem.l2_hits;
        c.l2_accesses += stats.mem.l2_hits + stats.mem.l2_misses;
    }
}

/// One app run to completion.
struct AppRun {
    result: RunResult,
    /// Host ms of each untraced step.
    untraced_ms: Vec<f64>,
    /// Host ms of each traced step.
    traced_ms: Vec<f64>,
    /// Host ns from step start to the policy's decisions, traced steps.
    decide_ns: u64,
    counts: SimCounts,
}

/// Runs `app` to completion, timing every step.
/// With `spans`, every other step carries the [`StepTimer`] and records a
/// `harness.step` span with `core.decide`, `gpu-sim.run_epoch` and
/// `harness.observe` children; the untraced steps in between measure the
/// tracing overhead under the same host conditions.
fn run_app(
    app: &App,
    cfg: &RunConfig,
    pool: &Arc<WorkerPool>,
    mut spans: Option<&mut SpanLog>,
) -> AppRun {
    let mut session = Session::new(app, cfg).with_pool(Arc::clone(pool)).with_sim_lanes(1);
    let mut meters = Meters::new(cfg);
    let mut timer = StepTimer::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut decide_ns = 0u64;
    for step in 0u64.. {
        let traced = spans.is_some() && step % 2 == 1;
        let Meters { energy, accuracy, residency } = &mut meters;
        let t0 = Instant::now();
        let more = if traced {
            let observers: &mut [&mut dyn RunObserver] =
                &mut [&mut timer, energy, accuracy, residency];
            session.step(observers)
        } else {
            let observers: &mut [&mut dyn RunObserver] = &mut [energy, accuracy, residency];
            session.step(observers)
        };
        let t3 = Instant::now();
        if !more {
            break;
        }
        match spans.as_deref_mut() {
            Some(log) if traced => {
                let t1 = timer.decided.take().expect("on_decisions fires on every executed step");
                let t2 = timer.simulated.take().expect("on_epoch fires on every executed step");
                decide_ns += (t1 - t0).as_nanos() as u64;
                let parent = log.push("harness.step", t0, t3, None);
                log.push("core.decide", t0, t1, Some(parent));
                log.push("gpu-sim.run_epoch", t1, t2, Some(parent));
                log.push("harness.observe", t2, t3, Some(parent));
                traced_ms.push(ms(t0, t3));
            }
            _ => untraced_ms.push(ms(t0, t3)),
        }
    }
    AppRun {
        result: meters.finish(&session),
        untraced_ms,
        traced_ms,
        decide_ns,
        counts: timer.counts,
    }
}

/// Simulates `app` at the static baseline: its part of the set-up.
fn static_baseline(
    app: &App,
    cfg: &RunConfig,
    pool: &Arc<WorkerPool>,
) -> Result<RunMetrics, String> {
    let static_cfg = RunConfig { policy: PolicyKind::Static(BASELINE_MHZ), ..cfg.clone() };
    let base = run_app(app, &static_cfg, pool, None).result;
    if !base.completed {
        return Err(format!("the static baseline of {} did not complete", app.name));
    }
    Ok(base.metrics)
}

/// Whether two runs of one app agree bit for bit.
fn same_run(a: &RunResult, b: &RunResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.epochs == b.epochs
        && a.completed == b.completed
        && a.metrics.energy_j.to_bits() == b.metrics.energy_j.to_bits()
        && a.metrics.delay_s.to_bits() == b.metrics.delay_s.to_bits()
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && bits(&a.freq_residency) == bits(&b.freq_residency)
}

/// The geomean over apps of ED²P normalised to the static baseline: the
/// geomean row of Fig. 15.
fn ed2p_vs_static(results: &[RunResult], baselines: &[RunMetrics]) -> f64 {
    let ratios: Vec<f64> =
        results.iter().zip(baselines).map(|(r, b)| r.metrics.ed2p_vs(b)).collect();
    geomean(&ratios)
}

/// Runs `sim-pcstall` or `sim-oracle`.
pub fn run(kind: Kind, args: &Args, nproc: usize) -> Result<Report, String> {
    let w = &args.workload;
    let cfg = config(kind);
    let threads = match kind {
        Kind::PcStall => 1,
        Kind::Oracle => nproc,
    };
    let pool = Arc::new(WorkerPool::new(threads));
    eprintln!("[{w}] {} CUs; pool threads={threads}, sim lanes=1", cfg.gpu.n_cus);
    let mut report = Report::default();

    // Traced sim-oracle runs every app a second time on a one-thread pool:
    // the same epochs, so the ratio of decide times is the pool's speed-up.
    let serial = (args.trace && kind == Kind::Oracle).then(|| Arc::new(WorkerPool::new(1)));
    let mut spans = args.trace.then(SpanLog::new);
    let (mut apps, mut baselines, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut steps) = (Passes::default(), Passes::default());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut counts = SimCounts::default();
    let mut decide_ns = [0u64; 2];
    let passes = pass_count(args.seconds, nominal_pass_s(kind));
    for pass in 0..passes {
        // Every pass sets up again, and each app's static baseline runs
        // just before its measured run: a set-up's parts are then timed
        // across the whole run, as the steps are, and each at its best.
        let t = Instant::now();
        let built = build_apps(kind, args.seed)?;
        let mut setup_ms = vec![ms(t, Instant::now())];
        if pass == 0 {
            apps = built;
        }
        let mut steps_ms = Vec::new();
        for (i, app) in apps.iter().enumerate() {
            let name = &app.name;
            let t = Instant::now();
            let base = static_baseline(app, &cfg, &pool)?;
            setup_ms.push(ms(t, Instant::now()));
            if pass == 0 {
                baselines.push(base);
            } else {
                report.op(base == baselines[i], || {
                    format!("{name}: another static baseline (pass {pass})")
                });
            }
            let run = run_app(app, &cfg, &pool, spans.as_mut());
            report.op(run.result.completed, || format!("{name} did not complete (pass {pass})"));
            if pass == 0 {
                first.push(run.result.clone());
            } else {
                report.op(same_run(&run.result, &first[i]), || {
                    format!("{name} differs from its first run (pass {pass})")
                });
            }
            steps_ms.extend(run.untraced_ms);
            traced_ms.extend(run.traced_ms);
            counts.add(&run.counts);
            decide_ns[0] += run.decide_ns;
            if let Some(serial) = &serial {
                let rerun = run_app(app, &cfg, serial, Some(&mut SpanLog::new()));
                decide_ns[1] += rerun.decide_ns;
                report.op(same_run(&rerun.result, &first[i]), || {
                    format!("{name} differs on a one-thread pool")
                });
            }
        }
        if args.trace {
            untraced_ms.extend_from_slice(&steps_ms);
        }
        steps.add(steps_ms);
        setups.add(setup_ms);
    }

    report.set(
        "setup_s",
        setups.best_ms().iter().sum::<f64>() / 1e3,
        format!(
            "build {} apps + simulate each at {BASELINE_MHZ} MHz, each part at its best of \
             {passes} passes",
            apps.len()
        ),
    );
    let domains = (cfg.gpu.n_cus / cfg.group) as u64;
    steps.report(&mut report, domains as f64, !args.trace);
    let ed2p = ed2p_vs_static(&first, &baselines);
    report.set("ed2p_vs_static", ed2p, format!("geomean over n={} apps, simulated", first.len()));
    let pass_epochs: usize = first.iter().map(|r| r.epochs).sum();
    eprintln!(
        "[{w}] seed {}: a pass is {pass_epochs} simulated epochs; ed2p_vs_static bits {:016x}",
        args.seed,
        ed2p.to_bits()
    );

    // One app per run, rotating with the seed, must match the library's
    // own runner bit for bit.
    let probe = (args.seed % apps.len() as u64) as usize;
    let reference = harness::run(&apps[probe], &cfg);
    report.op(same_run(&reference, &first[probe]), || {
        format!("{}: the stepped result differs from harness::runner::run", apps[probe].name)
    });

    if let Some(log) = &spans {
        let per_epoch = |x: u64| x as f64 / counts.epochs.max(1) as f64;
        report.set(
            "harness.step_ms",
            log.mean_ms("harness.step"),
            format!("mean over n={} traced steps", counts.epochs),
        );
        report.set(
            "core.decide_ms",
            log.mean_ms("core.decide"),
            "oracle sampling + policy decision",
        );
        report.set(
            "gpu-sim.run_epoch_ms",
            log.mean_ms("gpu-sim.run_epoch"),
            "apply V/f + simulate the epoch",
        );
        report.set(
            "harness.observe_ms",
            log.mean_ms("harness.observe"),
            "energy, accuracy, residency observers",
        );
        report.set("gpu-sim.insts_per_epoch", per_epoch(counts.insts), "committed, simulated");
        report.set(
            "gpu-sim.host_ns_per_inst",
            log.total_ns("gpu-sim.run_epoch") as f64 / counts.insts.max(1) as f64,
            "run_epoch host ns per committed instruction",
        );
        report.set(
            "gpu-sim.l1_hit_ratio",
            counts.l1_hits as f64 / counts.l1_accesses.max(1) as f64,
            "simulated",
        );
        report.set(
            "gpu-sim.l2_hit_ratio",
            counts.l2_hits as f64 / counts.l2_accesses.max(1) as f64,
            "simulated",
        );
        report.set(
            "dvfs.transitions_per_epoch",
            per_epoch(counts.transitions),
            format!("of {domains} domains, simulated"),
        );
        let accuracy: Vec<f64> =
            first.iter().map(|r| r.accuracy).filter(|a| a.is_finite()).collect();
        report.set(
            "core.pred_accuracy",
            accuracy.iter().sum::<f64>() / accuracy.len().max(1) as f64,
            format!("mean over n={} apps (Fig. 14)", accuracy.len()),
        );
        if serial.is_some() {
            report.set(
                "exec.pool_speedup",
                decide_ns[1] as f64 / decide_ns[0].max(1) as f64,
                format!("core.decide on 1 thread / on {threads} threads, same epochs"),
            );
        }
        report.set(
            "trace_overhead_pct",
            overhead_pct(&traced_ms, &untraced_ms),
            format!(
                "median of n={} traced vs n={} untraced steps",
                traced_ms.len(),
                untraced_ms.len()
            ),
        );
    }
    report.spans = spans;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ed2p_vs_static` and the simulated counts of the seed-dependent
    /// part of a `sim-pcstall` pass (its fuzz scenarios) plus one fixed
    /// app, stepped and traced as the benchmark steps them.
    fn fingerprint(seed: u64) -> (u64, usize, u64, u64, u64) {
        let cfg = config(Kind::PcStall);
        let pool = Arc::new(WorkerPool::new(1));
        let apps = build_apps(Kind::PcStall, seed).unwrap();
        let picked = apps.iter().filter(|a| a.name == "lulesh" || a.name.starts_with("fuzz-"));
        let (mut results, mut baselines, mut counts) =
            (Vec::new(), Vec::new(), SimCounts::default());
        for app in picked {
            baselines.push(static_baseline(app, &cfg, &pool).unwrap());
            let run = run_app(app, &cfg, &pool, Some(&mut SpanLog::new()));
            counts.add(&run.counts);
            results.push(run.result);
        }
        assert_eq!(results.len(), 1 + FUZZ_APPS as usize);
        let epochs = results.iter().map(|r| r.epochs).sum();
        (
            ed2p_vs_static(&results, &baselines).to_bits(),
            epochs,
            counts.insts,
            counts.transitions,
            counts.l2_hits,
        )
    }

    #[test]
    fn a_seed_reproduces_ed2p_and_the_simulated_counts() {
        let held_out = fingerprint(1009);
        assert_eq!(held_out, fingerprint(1009));
        assert_ne!(held_out, fingerprint(1010), "the seed must reach the inputs");
    }
}
