//! The repository benchmark: four closed-loop workloads over the
//! simulated GPU, the PCSTALL and oracle policies, the policy server and
//! its socket front end, each measured end to end and, in a separate
//! traced run, layer by layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-pcstall --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in a process of its own.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Everything
//! meant for people goes to standard error, each metric with its unit and
//! sample count. A failed correctness check makes the exit status
//! non-zero. `perfbench/README.md` explains the workloads and metrics.

mod fleet;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use trace::SpanLog;

const USAGE: &str =
    "usage: perfbench --workload <sim-pcstall|sim-oracle|serve-fleet|serve-tcp|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["sim-pcstall", "sim-oracle", "serve-fleet", "serve-tcp"];

/// Every end-to-end metric and its unit, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ed2p_vs_static", "ratio"),
];

/// Every per-layer metric of the traced run and its unit. A metric of a
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("harness.step_ms", "ms"),
    ("core.decide_ms", "ms"),
    ("gpu-sim.run_epoch_ms", "ms"),
    ("harness.observe_ms", "ms"),
    ("gpu-sim.insts_per_epoch", "count"),
    ("gpu-sim.host_ns_per_inst", "ns"),
    ("gpu-sim.l1_hit_ratio", "ratio"),
    ("gpu-sim.l2_hit_ratio", "ratio"),
    ("dvfs.transitions_per_epoch", "count"),
    ("core.pred_accuracy", "ratio"),
    ("exec.pool_speedup", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.run_epoch_ms_p50", "ms"),
    ("serve.run_epoch_ms_p99", "ms"),
    ("serve.evictions_per_epoch", "count"),
    ("serve.restores_per_epoch", "count"),
    ("snapshot.session_roundtrip_us", "us"),
    ("serve.fresh_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.cap_met_ratio", "ratio"),
    ("wire.submit_rpc_us", "us"),
    ("wire.tick_rpc_us", "us"),
    ("wire.fetch_rpc_us", "us"),
    ("wire.gateway_us", "us"),
    ("wire.codec_us", "us"),
    ("wire.bytes_per_decision", "B"),
    ("wire.frames_per_decision", "count"),
    ("wire.retries", "count"),
    ("wire.reconnects", "count"),
    ("wire.rejects", "count"),
    ("trace_overhead_pct", "%"),
];

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Nominal length of the measured phase; it sets the pass count.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: app runs or fleet epochs, plus final checks.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Metric values, each with a note on the samples behind it.
    pub metrics: BTreeMap<&'static str, (f64, String)>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.insert(name, (value, note.into()));
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// How many passes a run makes: `seconds` over the workload's nominal
/// pass length, rounded, made odd so that a median over passes is one
/// pass's value, and at least 3. It depends on the command line alone,
/// never on how fast the host or the code ran, so faster code does not
/// buy itself more passes to pick its best times from.
pub fn pass_count(seconds: Duration, nominal_pass_s: f64) -> usize {
    ((seconds.as_secs_f64() / nominal_pass_s).round() as usize).max(3) | 1
}

/// Host times of passes that repeat the same work step for step.
#[derive(Debug, Default)]
pub struct Passes {
    steps_ms: Vec<Vec<f64>>,
}

impl Passes {
    /// Adds one pass's step times, in step order.
    pub fn add(&mut self, steps_ms: Vec<f64>) {
        if let Some(first) = self.steps_ms.first() {
            assert_eq!(steps_ms.len(), first.len(), "passes repeat the same steps");
        }
        self.steps_ms.push(steps_ms);
    }

    /// Each step's best time over the passes: a lower bound on the step's
    /// time. The host's slow spells last seconds, so a step slowed in one
    /// pass is timed again in another; no single pass need reach every
    /// step's best.
    pub fn best_ms(&self) -> Vec<f64> {
        let mut passes = self.steps_ms.iter();
        let mut best = passes.next().cloned().unwrap_or_default();
        for pass in passes {
            for (b, &t) in best.iter_mut().zip(pass) {
                *b = b.min(t);
            }
        }
        best
    }

    /// Sets `epochs_per_s` and `epoch_p50_ms` from the best step times
    /// (so an upper bound on the rate and a lower bound on the typical
    /// step), `decisions_per_s`, and `epoch_p99_ms` as the median over
    /// passes of each pass's own p99, so that it is a tail a pass really
    /// had. With `enforce`, a pass whose p99 has fewer than ten samples
    /// beyond it fails the run.
    pub fn report(&self, report: &mut Report, decisions_per_step: f64, enforce: bool) {
        let mut best = self.best_ms();
        let (n, passes) = (best.len(), self.steps_ms.len());
        let rate = n as f64 / best.iter().sum::<f64>() * 1e3;
        report.set(
            "epochs_per_s",
            rate,
            format!("n={n} steps per pass, each at its best of {passes} passes"),
        );
        report.set(
            "decisions_per_s",
            rate * decisions_per_step,
            format!("{decisions_per_step} decisions per step"),
        );
        if let Some(p50) = stats::percentile(&mut best, 50) {
            let note = format!("{}, each step at its best of {passes} passes", p50.note());
            report.set("epoch_p50_ms", p50.value, note);
        }
        let (mut p99s, mut note) = (Vec::new(), String::new());
        for pass in &self.steps_ms {
            match stats::p50_p99(&mut pass.clone()) {
                Ok((_, p99)) => {
                    p99s.push(p99.value);
                    note = p99.note();
                }
                Err(e) if enforce => report.op(false, || format!("epoch latency: {e}")),
                Err(e) => eprintln!("warning: epoch latency: {e}"),
            }
        }
        if !p99s.is_empty() {
            let note = format!("median over {} passes; per pass {note}", p99s.len());
            report.set("epoch_p99_ms", stats::median(&p99s), note);
        }
    }
}

/// Host milliseconds from `start` to `end`.
pub fn ms(start: Instant, end: Instant) -> f64 {
    (end - start).as_secs_f64() * 1e3
}

/// How much slower the traced steps ran than the untraced steps
/// interleaved with them, in percent of the untraced median.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    (stats::median(traced_ms) / stats::median(untraced_ms) - 1.0) * 100.0
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: Duration::from_secs(15), trace: false };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            _ => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload `{}`: must be one of {} or all",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Keeps state from leaking into a run: the pool and lane sizes every
/// workload sets explicitly cannot be overridden from the environment,
/// and warmup snapshots stay in memory, so nothing is read from or
/// written to `results/`. Returns `nproc`.
fn isolate() -> usize {
    std::env::remove_var("PCSTALL_THREADS");
    std::env::remove_var("PCSTALL_SIM_LANES");
    let _ = harness::snapcache::set_dir(None);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[perfbench] nproc={nproc}; PCSTALL_THREADS and PCSTALL_SIM_LANES ignored; \
         warmup snapshot cache in memory only"
    );
    nproc
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".into())
}

/// Prints every metric for people, writes the traced run's spans, and
/// prints the result line; the exit status is non-zero if anything
/// failed.
fn emit(args: &Args, mut report: Report) -> ExitCode {
    let w = &args.workload;
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some((value, note)) = report.metrics.get(name) {
            eprintln!("[{w}] {name:<30} {value:>16.6} {unit:<6} {note}");
        }
    }
    if let Some(log) = &report.spans {
        let layers = log.layers();
        let all_self: u64 = layers.iter().map(|l| l.self_ns).sum();
        eprintln!("[{w}] traced steps, by layer (self time = span minus child spans):");
        for l in &layers {
            eprintln!(
                "[{w}]   {:<22} n={:<8} total {:>11.3} ms  self {:>11.3} ms  {:>5.1}% of self time",
                l.name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / all_self.max(1) as f64
            );
        }
        let path =
            PathBuf::from("perfbench").join("traces").join(format!("{w}-seed{}.json", args.seed));
        match log.write(&path, w, args.seed) {
            Ok(()) => eprintln!("[{w}] spans written to {}", path.display()),
            Err(e) => eprintln!("[{w}] warning: cannot write {}: {e}", path.display()),
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match report.metrics.get(name) {
            Some(&(v, _)) if v.is_finite() => v,
            Some(_) => {
                report.failures.push(format!("{name} is not a finite number"));
                0.0
            }
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                report.failures.push(format!("{name} was not measured"));
                0.0
            }
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for f in &report.failures {
        eprintln!("[{w}] FAILED: {f}");
    }
    let failed = report.failures.len() as u64;
    let attempted = report.attempted.max(failed).max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a process of its own so that peak memory
/// and process-global state stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.as_secs_f64().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let nproc = isolate();
    let run = match args.workload.as_str() {
        "sim-pcstall" => sim::run(sim::Kind::PcStall, &args, nproc),
        "sim-oracle" => sim::run(sim::Kind::Oracle, &args, nproc),
        "serve-fleet" => fleet::run(&args),
        _ => tcp::run(&args),
    };
    let run = run.and_then(|mut report| {
        report.set("peak_rss_mb", peak_rss_mb()?, "VmHWM of this process");
        Ok(report)
    });
    match run {
        Ok(report) => emit(&args, report),
        Err(e) => {
            eprintln!("[{}] error: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve-tcp --seed 42 --seconds 15 --trace 1").unwrap();
        let want = Args {
            workload: "serve-tcp".into(),
            seed: 42,
            seconds: Duration::from_secs(15),
            trace: true,
        };
        assert_eq!(a, want);
        assert!(parse("--workload all").is_ok());
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload sim-oracle --trace 2",
            "--workload sim-oracle --seed -1",
            "--workload sim-oracle --seconds 0",
            "--workload sim-oracle --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn the_pass_count_is_odd_and_follows_the_command_line_only() {
        let s = Duration::from_secs;
        assert_eq!(pass_count(s(15), 5.0), 3);
        assert_eq!(pass_count(s(15), 3.0), 5);
        assert_eq!(pass_count(s(20), 5.0), 5);
        assert_eq!(pass_count(s(1), 5.0), 3);
    }

    #[test]
    fn passes_report_best_steps_and_the_median_per_pass_tail() {
        // 1000 steps a pass, the last 20 of them slow.
        let pass = |base: f64, tail: f64| {
            let mut v = vec![base; 1000];
            v[980..].fill(tail);
            v
        };
        let mut p = Passes::default();
        p.add(pass(1.5, 5.0));
        p.add(pass(2.0, 10.0));
        p.add(pass(1.0, 9.0));
        assert_eq!(p.best_ms(), pass(1.0, 5.0));
        let mut r = Report::default();
        p.report(&mut r, 4.0, true);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let rate = 1000.0 / (980.0 + 20.0 * 5.0) * 1e3;
        assert_eq!(r.metrics["epochs_per_s"].0, rate);
        assert_eq!(r.metrics["decisions_per_s"].0, rate * 4.0);
        // The p50 of the best steps; the median of the per-pass p99s 5, 10
        // and 9, not the p99 of the best steps (5).
        assert_eq!(r.metrics["epoch_p50_ms"].0, 1.0);
        assert_eq!(r.metrics["epoch_p99_ms"].0, 9.0);
        assert!(r.metrics["epoch_p99_ms"].1.contains("median over 3 passes; per pass n=1000"));

        // Too few samples beyond the p99 fails an enforced run.
        let mut short = Passes::default();
        short.add(vec![1.0; 999]);
        let mut r = Report::default();
        short.report(&mut r, 1.0, true);
        assert_eq!((r.attempted, r.failures.len()), (1, 1));
        assert!(!r.metrics.contains_key("epoch_p99_ms"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) is not in BENCHMARK.json");
        }
        assert_eq!(json.matches("\"unit\": ").count(), END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} is not in BENCHMARK.json");
        }
    }
}
