//! The `repro` command line: the one entry point for every experiment of
//! the reproduction harness.
//!
//! ```text
//! repro list                           list every experiment id
//! repro run <id> [--full] [--threads N] [--faults SPEC]   run and archive one
//! repro all [--full] [--threads N] [--faults SPEC]        run and archive all
//! repro serve [--tenants N] [--epochs N] [--faults SPEC] ...
//! repro serve kill-recover [--kill-at E] ...      TCP kill/restart smoke
//! repro serve --listen ADDR | --connect ADDR [--verify] ...
//! repro snapshot save <app> [--epochs N] [--full] [--out PATH]
//! repro snapshot restore <path> [--epochs N]
//! repro snapshot ls
//! repro snapshot verify <path>
//! repro trace record <source> [--out PATH] [--text] [--full]
//! repro trace run <path> [--full] [--threads N]
//! repro trace ls <path>...
//! repro trace verify <path>...
//! repro fuzz [--count N] [--seed S] [--threads N] [--json]
//! repro --list-workloads
//! ```
//!
//! `run` and `all` print each experiment's table and always archive it as
//! `results/<stem>.md` and `.csv` (`repro list` shows the stems).
//!
//! Every flag is parsed once against one flag table; an unknown `--flag`,
//! or a value-taking flag with no value, is a usage error. The experiment
//! flags become the [`Preset`] every figure reads:
//!
//! * `--full`: the paper's 64-CU platform at standard workload scale
//!   (default: the reduced 16-CU preset).
//! * `--faults SPEC`: degrade every experiment's GPU with the seeded
//!   fault-injection layer and the default degradation ladder, e.g.
//!   `--faults rate=0.05,seed=7` (see `faults::FaultConfig`). Baselines
//!   always run fault-free, so normalized figures show what faults cost.
//! * `--deadline MS`, `--max-retries N`: the supervised executor's
//!   per-attempt watchdog deadline and retry rounds (the `supervision`
//!   experiment), e.g. `repro run supervision --faults hang=0.2,seed=7
//!   --deadline 5000 --max-retries 3`.
//! * `--apps SPEC[,SPEC...]`: run every suite figure on these workload
//!   sources instead of Table II (e.g. `--apps xsbench,trace:t.pckt,
//!   fuzz:42:7`), each built up front; `--list-workloads` prints the
//!   registry.
//!
//! Three flags set process-wide state: `--threads N` sizes the worker pool
//! (as `PCSTALL_THREADS=N`; results are bit-identical at every count),
//! `--snapshot-dir DIR` moves the warmup snapshot store from
//! `results/.snapcache/`, and `--resume` journals every finished grid cell
//! there so a restarted run skips them, bit-identically.
//!
//! `serve` chaos-soaks the multi-tenant policy server, in process or over
//! TCP (`kill-recover`, `--listen`, `--connect`), exiting 2 on an SLO
//! violation; `snapshot` saves, restores, lists and verifies simulator
//! snapshots; `trace` records, replays, lists and verifies PCKT kernel
//! traces; `fuzz` runs `--count` seeded scenarios through the three
//! property oracles (energy monotonicity, accounting conservation,
//! snapshot round-trip), exiting 2 on any violation.
//!
//! Exit codes: 0 on success, 1 on usage errors, 2 when an experiment
//! fails (the typed `HarnessError` is printed to stderr).

use gpu_sim::gpu::Gpu;
use harness::error::io_at;
use harness::figures::{self, FigureResult, Preset, SuperviseOverride};
use harness::report::{results_dir, write_atomic, write_csv};
use harness::runner::{FaultSetup, RunConfig};
use harness::{snapcache, sweeps, HarnessError};
use pcstall::policy::PolicyKind;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Shadows std's `println!` for this binary: it exits quietly once stdout
/// is closed, so `repro --list-workloads | head -5` ends without a panic
/// when `head` stops reading.
macro_rules! println {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

type FigureFn = fn(&Preset) -> FigureResult;
type CommandFn = fn(&Cli, &Preset) -> ExitCode;

/// Exit code for a failed experiment (vs 1 for usage errors).
const EXIT_EXPERIMENT_FAILED: u8 = 2;

/// Prints `msg` and returns the failed-experiment exit code.
fn failed(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(EXIT_EXPERIMENT_FAILED)
}

/// Prints a usage line and returns the usage-error exit code.
fn usage(line: &str) -> ExitCode {
    eprintln!("{line}");
    ExitCode::FAILURE
}

const USAGE: &str = "usage: repro <list|run <id>|all|serve|snapshot <save|restore|ls|verify>\
                     |trace <record|run|ls|verify>|fuzz> [--full] [--threads N] [--faults SPEC] \
                     [--apps SPEC,...] [--list-workloads] [--deadline MS] [--max-retries N] \
                     [--snapshot-dir DIR] [--resume]";

/// Every registered experiment: (id, archive stem under `results/`,
/// description, entry point).
const EXPERIMENTS: &[(&str, &str, &str, FigureFn)] = &[
    ("fig01a", "fig01a_ed2p_vs_epoch", "ED²P improvement vs DVFS epoch", figures::fig01a),
    ("fig01b", "fig01b_accuracy_vs_epoch", "prediction accuracy vs epoch", figures::fig01b),
    ("fig05", "fig05_linearity", "instructions-vs-frequency linearity", figures::fig05),
    ("fig06", "fig06_sensitivity_profiles", "sensitivity profiles over time", figures::fig06),
    ("fig07", "fig07_variability", "epoch-to-epoch sensitivity change", figures::fig07),
    ("fig08", "fig08_wavefront_contrib", "per-wavefront contributions", figures::fig08),
    ("fig10", "fig10_pc_iteration_stability", "same-PC iteration stability", figures::fig10),
    ("fig11", "fig11_slots_and_offsets", "slot contention, PC offsets", figures::fig11),
    ("fig14", "fig14_accuracy", "accuracy of all Table III designs", figures::fig14),
    ("fig15", "fig15_ed2p", "per-workload ED²P vs static 1.7 GHz", figures::fig15),
    ("fig16", "fig16_residency", "frequency residency (PCSTALL)", figures::fig16),
    ("fig17", "fig17_edp_vs_epoch", "geomean EDP vs epoch duration", figures::fig17),
    ("fig18a", "fig18a_energy_savings", "energy under perf-loss limits", figures::fig18a),
    ("fig18b", "fig18b_granularity", "ED²P vs V/f-domain size", figures::fig18b),
    ("table1", "table1_storage", "hardware storage per design", figures::table1),
    ("table2", "table2_workloads", "the workload suite", figures::table2_figure),
    ("ablation_age_norm", "ablation_age_norm", "PCSTALL mechanisms", figures::ablation_age_norm),
    ("ablation_table", "ablation_table", "PC-table geometry/storage", figures::ablation_table),
    ("ablation_scope", "ablation_scope", "PC-table sharing scope", figures::ablation_scope),
    ("ext_designs", "ext_designs", "HIST and power capping", figures::ext_designs),
    ("resilience", "resilience", "savings vs fault rate", figures::resilience),
    ("supervision", "supervision", "grids under hang chaos", figures::supervision),
    ("fuzz", "fuzz", "seeded scenarios, property oracles", figures::fuzz),
];

/// Every flag `repro` accepts: the ones that take a value, then switches.
const VALUE_FLAGS: &str = "--faults --deadline --max-retries --apps --threads --snapshot-dir \
                           --tenants --epochs --max-live --kill-at --torn --seed \
                           --listen --connect --out --count";
const SWITCHES: &str = "--full --resume --list-workloads --json --verify --text";

/// A parsed command line: positional arguments in order, plus every flag
/// (checked against the flag table) with its value.
struct Cli {
    positional: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Parses `args`. A value is the next argument unless that starts with
    /// `--`.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut args = args.into_iter().peekable();
        let mut cli = Cli { positional: Vec::new(), flags: Vec::new() };
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                cli.positional.push(arg);
                continue;
            }
            let known = |list: &'static str| list.split_whitespace().find(|f| *f == arg);
            let (name, takes_value) = match (known(VALUE_FLAGS), known(SWITCHES)) {
                (Some(name), _) => (name, true),
                (None, Some(name)) => (name, false),
                (None, None) => return Err(format!("unknown flag `{arg}`")),
            };
            let value = if takes_value {
                let value = args.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("{name} requires a value"))?)
            } else {
                None
            };
            cli.flags.push((name, value));
        }
        Ok(cli)
    }

    /// The `i`-th positional argument (0 is the subcommand).
    fn arg(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(name, _)| *name == flag).and_then(|(_, v)| v.as_deref())
    }

    /// `flag`'s value parsed as a `T` (`None` if the flag is absent); `what`
    /// describes a valid value for the error message.
    fn parsed<T: FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} requires {what}")))
            .transpose()
    }

    /// [`Cli::parsed`] with a default for an absent flag.
    fn parsed_or<T: FromStr>(&self, flag: &str, default: T, what: &str) -> Result<T, String> {
        Ok(self.parsed(flag, what)?.unwrap_or(default))
    }
}

/// Installs the process-wide state the flags select, before anything
/// touches it: the `--threads` worker pool, the `--snapshot-dir` warmup
/// store and the `--resume` journal directory.
fn install_process_state(cli: &Cli) -> Result<(), String> {
    let threads =
        cli.parsed::<NonZeroUsize>("--threads", "a positive integer, e.g. --threads 8")?;
    if threads.is_some_and(|n| !exec::set_global_threads(n.get())) {
        return Err("worker pool already initialized; pass --threads earlier".into());
    }
    let dir = match cli.value("--snapshot-dir") {
        Some(d) => {
            let dir = PathBuf::from(d);
            if !snapcache::set_dir(Some(dir.clone())) {
                return Err(
                    "snapshot store already initialized; pass --snapshot-dir earlier".into()
                );
            }
            dir
        }
        None => snapcache::default_dir(),
    };
    if cli.has("--resume") && !sweeps::set_resume_dir(dir) {
        return Err("resume directory already installed; pass --resume once".into());
    }
    Ok(())
}

/// The preset every experiment reads: `--full`, `--faults`,
/// `--deadline`/`--max-retries` and `--apps` (each source built up front).
fn preset(cli: &Cli) -> Result<Preset, String> {
    let mut p = if cli.has("--full") { Preset::full() } else { Preset::reduced() };
    if let Some(spec) = cli.value("--faults") {
        let cfg =
            faults::FaultConfig::parse(spec).map_err(|e| format!("bad --faults spec: {}", e.0))?;
        p.faults = Some(FaultSetup::with_default_ladder(cfg));
    }
    p.supervise = SuperviseOverride {
        deadline_ms: cli
            .parsed::<NonZeroU64>(
                "--deadline",
                "a positive millisecond count, e.g. --deadline 5000",
            )?
            .map(NonZeroU64::get),
        max_retries: cli.parsed("--max-retries", "a non-negative integer, e.g. --max-retries 3")?,
    };
    let Some(specs) = cli.value("--apps") else {
        return Ok(p);
    };
    let sources = specs
        .split(',')
        .map(|s| scenarios::Source::parse(s.trim(), p.scale))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    p.with_sources(sources).map_err(|e| e.to_string())
}

/// Runs one experiment, prints its table and archives it as
/// `results/<stem>.md` and `.csv` through the atomic writer, so an
/// interrupted run leaves the previous complete file.
fn run_and_archive(id: &str, stem: &str, f: FigureFn, p: &Preset) -> Result<(), HarnessError> {
    let t0 = Instant::now();
    let out = f(p)?;
    let md = out.render();
    println!("{md}");
    let md_path = results_dir().join(format!("{stem}.md"));
    write_atomic(&md_path, &md).map_err(|e| io_at(&md_path, e))?;
    let csv_path = results_dir().join(format!("{stem}.csv"));
    let headers: Vec<&str> = out.headers.iter().map(String::as_str).collect();
    write_csv(&csv_path, &headers, &out.rows).map_err(|e| io_at(&csv_path, e))?;
    eprintln!(
        "[{id}] {:.1}s, archived results/{stem}.md and .csv (preset: {})",
        t0.elapsed().as_secs_f64(),
        if p.full { "full 64-CU" } else { "reduced 16-CU; pass --full for the paper platform" },
    );
    Ok(())
}

/// `repro list`.
fn list_cmd(_: &Cli, _: &Preset) -> ExitCode {
    println!("available experiments (run with `repro run <id>`; archived as results/<stem>.md):\n");
    for (id, stem, desc, _) in EXPERIMENTS {
        println!("  {id:18} {stem:30} {desc}");
    }
    ExitCode::SUCCESS
}

/// `repro run <id>`.
fn run_cmd(cli: &Cli, p: &Preset) -> ExitCode {
    let Some(id) = cli.arg(1) else {
        return usage("usage: repro run <id> [--full] [--threads N] [--faults SPEC]");
    };
    let Some(&(id, stem, _, f)) = EXPERIMENTS.iter().find(|e| e.0 == id) else {
        return usage(&format!("unknown experiment `{id}`; see `repro list`"));
    };
    match run_and_archive(id, stem, f, p) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => failed(&format!("{id} failed: {e}")),
    }
}

/// `repro all`: every experiment in registry order, then the process's
/// simulator-run and baseline-cache totals.
fn all_cmd(_: &Cli, p: &Preset) -> ExitCode {
    for &(id, stem, _, f) in EXPERIMENTS {
        eprintln!("== {id} ==");
        if let Err(e) = run_and_archive(id, stem, f, p) {
            return failed(&format!("{id} failed: {e}"));
        }
    }
    let cache = sweeps::global_baseline_cache();
    eprintln!(
        "simulator runs: {} total; baseline cache: {} distinct, {} hits, {} misses",
        harness::session::sim_runs(),
        cache.len(),
        cache.hits(),
        cache.misses()
    );
    ExitCode::SUCCESS
}

/// The `repro --list-workloads` flag: prints the Table II registry with
/// per-scale dispatch sizes so users can discover apps without reading
/// source.
fn list_workloads() {
    use workloads::registry::{all, Scale};
    println!("registered workloads (see also `trace:PATH` and `fuzz:SEED:INDEX` sources):\n");
    println!(
        "  {:<8} {:<4} {:>7} {:>8} {:>13} {:>10}",
        "name", "cat", "kernels", "launches", "wg quick/std", "instrs"
    );
    for w in all() {
        let quick = (w.build)(Scale::Quick);
        let std_ = (w.build)(Scale::Standard);
        let wgs = |a: &gpu_sim::kernel::App| a.kernels.iter().map(|k| k.workgroups).sum::<u32>();
        let instrs: usize = quick.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum();
        println!(
            "  {:<8} {:<4} {:>7} {:>8} {:>13} {:>10}",
            w.name,
            match w.category {
                workloads::registry::Category::Hpc => "HPC",
                workloads::registry::Category::Mi => "MI",
            },
            w.unique_kernels,
            quick.kernels.len(),
            format!("{}/{}", wgs(&quick), wgs(&std_)),
            instrs,
        );
    }
    println!("\nscales: Quick (default, 16 CUs; tests/benches), Standard (--full, 64 CUs)");
}

/// A warmup-grade run configuration on the preset's platform (the policy
/// never engages during warmup, so a static placeholder is exact).
fn warmup_cfg(p: &Preset) -> RunConfig {
    let mut cfg = RunConfig::paper(PolicyKind::Static(1700));
    cfg.gpu = p.gpu;
    cfg
}

/// The `repro serve` subcommand: a bounded chaos soak of the multi-tenant
/// policy server. Faults reuse the same `--faults SPEC` grammar as the
/// experiments (`storm=RATE` selects the bursty correlated profile);
/// `hang=RATE` arms silent per-tenant hang windows and `--torn RATE` tears
/// restore reads. Exits 2 if any SLO is violated (tenants lost, tenants
/// unaccounted, or a missed global-cap epoch).
///
/// Transport modes put the same soak on a real wire (the `wire` crate):
/// `serve kill-recover` is a self-contained TCP smoke that kills and
/// restarts the wire server mid-soak and demands a bit-identical decision
/// digest; `--listen ADDR` serves the gateway until a remote driver has
/// ticked `--epochs` epochs; `--connect ADDR` drives the client fleet
/// against such a server (give both sides the same flags — the resume
/// token seed derives from `--seed`).
fn serve_cmd(cli: &Cli, _: &Preset) -> ExitCode {
    const USAGE: &str = "usage: repro serve [kill-recover] [--listen ADDR | --connect ADDR] \
                         [--tenants N] [--epochs N] [--max-live N] \
                         [--kill-at E] [--torn RATE] [--seed N] \
                         [--faults SPEC] [--threads N] [--verify] [--json]";
    const INT: &str = "a non-negative integer";
    let soak = || -> Result<serve::SoakConfig, String> {
        let defaults = serve::SoakConfig::default();
        let tenants = cli.parsed_or("--tenants", 64, INT)?.max(1);
        let torn_read_rate = cli.parsed_or("--torn", defaults.torn_read_rate, "a probability")?;
        if !(0.0..=1.0).contains(&torn_read_rate) {
            return Err("--torn requires a probability in [0, 1]".into());
        }
        let faults = match cli.value("--faults") {
            Some(spec) => faults::FaultConfig::parse(spec)
                .map_err(|e| format!("bad --faults spec: {}", e.0))?,
            None => defaults.faults,
        };
        Ok(serve::SoakConfig {
            tenants,
            epochs: cli.parsed_or("--epochs", 200, INT)?.max(1),
            // Default live cap at 3/4 of the fleet: eviction churn on by
            // default, so the restore path is exercised, not just compiled.
            max_live: cli.parsed_or("--max-live", (tenants as usize * 3 / 4).max(1), INT)?,
            kill_at: cli.parsed("--kill-at", "an epoch number")?,
            seed: cli.parsed_or("--seed", 42, INT)?,
            torn_read_rate,
            faults,
            ..defaults
        })
    };
    let cfg = match soak() {
        Ok(cfg) => cfg,
        Err(m) => return usage(&format!("{m}\n{USAGE}")),
    };
    if cli.arg(1) == Some("kill-recover") {
        return serve_kill_recover(&cfg);
    }
    if let Some(addr) = cli.value("--listen") {
        return serve_listen(&cfg, addr);
    }
    if let Some(addr) = cli.value("--connect") {
        return serve_connect(&cfg, addr, cli.has("--verify"));
    }
    let t0 = Instant::now();
    let report = serve::run_soak(&cfg);
    let secs = t0.elapsed().as_secs_f64();
    if cli.has("--json") {
        println!("{}", report.to_json());
    } else {
        let s = &report.stats;
        println!(
            "policy server soak: {} tenants x {} epochs, cap {:.1} W{}",
            report.tenants,
            report.epochs,
            report.power_cap_w,
            if report.killed { ", killed+recovered mid-soak" } else { "" },
        );
        println!(
            "  {} decisions in {secs:.2}s ({:.0}/s), digest {:016x}",
            s.decisions,
            s.decisions as f64 / secs.max(1e-9),
            report.digest,
        );
        println!(
            "  admission: {} admitted, {} evictions, {} restores ({} torn reads, {} cold rebuilds), {} live + {} stored",
            s.admitted, s.evictions, s.restores, s.torn_reads, s.rebuilt_cold,
            report.live, report.evicted,
        );
        println!(
            "  ladder: {} normal / {} hold / {} stall / {} safe; breakers: {} trips, {} recoveries ({} hung tenants)",
            s.rung_normal, s.rung_hold, s.rung_stall, s.rung_safe,
            report.supervision.breaker_trips, report.supervision.recovered, report.hung_tenants,
        );
        println!(
            "  ingest: {} accepted, {} shed {:?}; power cap: {} met / {} missed",
            report.shed.accepted,
            report.shed.total(),
            report.shed.per_tier,
            s.cap_epochs_met,
            s.cap_epochs_missed,
        );
        println!(
            "  SLOs: {} (lost={}, accounted={}, cap-missed={})",
            if report.slos_met() { "MET" } else { "VIOLATED" },
            s.lost_tenants,
            report.accounted(),
            s.cap_epochs_missed,
        );
    }
    if report.slos_met() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    }
}

/// Binds an ephemeral loopback port and fronts `gw` with a wire server.
fn start_wire_server(gw: wire::Gateway) -> Result<wire::WireServer, String> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    wire::WireServer::start(listener, gw, wire::TcpServerConfig::default())
        .map_err(|e| format!("start wire server: {e}"))
}

/// `repro serve kill-recover`: the wire layer's CLI smoke. Runs the soak
/// in-process for a baseline digest, then re-drives the identical closed
/// loop over a real TCP loopback — and just before the `--kill-at` epoch
/// (default: midway) snapshots the live gateway, tears the whole listener
/// down, and restarts the restored gateway on a NEW port. Every client
/// must redial, present its resume token, and continue; the decision
/// digest must come out bit-identical to the in-process run. Exits 2 on
/// any divergence, refused token, or exhausted retry budget.
fn serve_kill_recover(cfg: &serve::SoakConfig) -> ExitCode {
    use std::cell::RefCell;
    use std::rc::Rc;

    let fail = |msg: &str| failed(&format!("kill-recover smoke: {msg}"));
    let mut soak = *cfg;
    // Over the wire the kill is the *gateway* kill below, transport and
    // all — not the in-process server restart the plain soak performs.
    soak.kill_at = None;
    let kill_epoch = cfg.kill_at.unwrap_or(soak.epochs / 2);
    let baseline = serve::run_soak(&soak);

    let gw = wire::Gateway::new(
        serve::server_config_for(&soak),
        Arc::new(exec::WorkerPool::new(1)),
        wire::token_seed_for(&soak),
    );
    let server = match start_wire_server(gw) {
        Ok(s) => s,
        Err(m) => return failed(&m),
    };
    let addr = Rc::new(RefCell::new(server.addr()));
    let server = Rc::new(RefCell::new(Some(server)));

    let t0 = std::time::Instant::now();
    let drive = {
        let addr = Rc::clone(&addr);
        let srv = Rc::clone(&server);
        let seed = soak.seed;
        wire::drive_soak(
            &soak,
            64,
            {
                let addr = Rc::clone(&addr);
                move |id, tier| {
                    let addr = Rc::clone(&addr);
                    let ccfg = wire::ClientConfig {
                        seed: seed ^ 0xBAC0_FF5E ^ id,
                        sleep: true,
                        ..wire::ClientConfig::default()
                    };
                    // Dial whatever address the server currently lives at
                    // — after the kill, that is the NEW port.
                    wire::Client::new(id, tier, ccfg, move || {
                        let mut dial = wire::tcp_dialer(*addr.borrow(), 200);
                        dial()
                    })
                }
            },
            move |e| {
                if e == kill_epoch {
                    let old = srv.borrow_mut().take().expect("wire server running");
                    let gw = old.stop();
                    let bytes = gw.save_state();
                    let restored =
                        wire::Gateway::load_state(&bytes).expect("gateway snapshot must reload");
                    let new = start_wire_server(restored).expect("restart wire server");
                    *addr.borrow_mut() = new.addr();
                    *srv.borrow_mut() = Some(new);
                }
            },
        )
    };
    let drive = match drive {
        Ok(d) => d,
        Err(e) => return fail(&format!("retry budget exhausted: {e}")),
    };
    let secs = t0.elapsed().as_secs_f64();
    let final_srv = server.borrow_mut().take().expect("wire server running");
    let tcp = final_srv.stats();
    let gw = final_srv.stop();
    let info = gw.info();

    let identical = info.digest == baseline.digest && info.digest_count == baseline.digest_count;
    println!(
        "wire kill-recover smoke: {} tenants x {} epochs over TCP in {secs:.2}s, \
         server killed+restarted at epoch {kill_epoch}",
        soak.tenants, soak.epochs,
    );
    println!(
        "  digest {:016x} ({} decisions) vs in-process {:016x} ({}) — {}",
        info.digest,
        info.digest_count,
        baseline.digest,
        baseline.digest_count,
        if identical { "bit-identical" } else { "DIVERGED" },
    );
    let c = &drive.clients;
    println!(
        "  clients: {} connects ({} reconnects), {} retries, {} duplicate acks, {} resyncs",
        c.connects, c.reconnects, c.retries, c.duplicate_acks, c.resync_acks,
    );
    println!(
        "  gateway: {} submits ({} retransmits absorbed), {} bad tokens; \
         tcp: {} accepted, {} busy-rejected, {} reaped",
        gw.stats.submits,
        gw.stats.duplicates,
        gw.stats.bad_tokens,
        tcp.accepted,
        tcp.busy_rejects,
        tcp.reaped,
    );
    let resumed = c.reconnects >= soak.tenants;
    if !resumed {
        eprintln!(
            "kill-recover smoke: only {} reconnects for {} tenants — the kill never bit",
            c.reconnects, soak.tenants,
        );
    }
    if identical && resumed && gw.stats.bad_tokens == 0 && baseline.slos_met() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    }
}

/// `repro serve --listen ADDR`: fronts a fresh gateway with the TCP wire
/// server and serves until a remote `--connect` driver has ticked
/// `--epochs` epochs, then reports and exits by the server-side SLOs.
fn serve_listen(cfg: &serve::SoakConfig, addr: &str) -> ExitCode {
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("--listen {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gw = wire::Gateway::new(
        serve::server_config_for(cfg),
        Arc::new(exec::WorkerPool::new(1)),
        wire::token_seed_for(cfg),
    );
    let server = match wire::WireServer::start(listener, gw, wire::TcpServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--listen {addr}: start wire server: {e}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };
    println!(
        "policy server listening on {} ({} tenants x {} epochs expected; \
         resume tokens derive from --seed {})",
        server.addr(),
        cfg.tenants,
        cfg.epochs,
        cfg.seed,
    );
    // The epoch counter only advances when a remote admin ticks it; park
    // until the driver has pushed it to the configured horizon.
    while server.with_gateway(|gw| gw.server().epoch()) < cfg.epochs {
        supervise::edge::sleep_ms(20);
    }
    let tcp = server.stats();
    let gw = server.stop();
    let info = gw.info();
    println!(
        "served {} epochs: digest {:016x} ({} decisions), {} live + {} evicted, {} shed",
        info.epoch, info.digest, info.digest_count, info.live, info.evicted, info.shed_total,
    );
    println!(
        "  gateway: {} frames in / {} out, {} submits ({} retransmits absorbed), \
         {} rejects, {} bad tokens; tcp: {} accepted, {} busy-rejected, {} reaped",
        gw.stats.frames_in,
        gw.stats.frames_out,
        gw.stats.submits,
        gw.stats.duplicates,
        gw.stats.rejects,
        gw.stats.bad_tokens,
        tcp.accepted,
        tcp.busy_rejects,
        tcp.reaped,
    );
    if info.lost_tenants == 0 && info.cap_epochs_missed == 0 && gw.stats.bad_tokens == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    }
}

/// `repro serve --connect ADDR`: drives the soak's synthetic client fleet
/// against a remote `--listen` server over TCP, then asks the server for
/// its own account of the run. With `--verify`, additionally recomputes
/// the decision digest in-process locally and demands bit-equality.
fn serve_connect(cfg: &serve::SoakConfig, addr: &str, verify: bool) -> ExitCode {
    use std::net::ToSocketAddrs;
    let sock = match addr.to_socket_addrs().ok().and_then(|mut it| it.next()) {
        Some(a) => a,
        None => {
            eprintln!("--connect: cannot resolve {addr}");
            return ExitCode::FAILURE;
        }
    };
    let fail = |msg: &str| failed(&format!("--connect {addr}: {msg}"));
    let t0 = std::time::Instant::now();
    let seed = cfg.seed;
    let drive = wire::drive_soak(
        cfg,
        64,
        move |id, tier| {
            let ccfg = wire::ClientConfig {
                seed: seed ^ 0xBAC0_FF5E ^ id,
                sleep: true,
                ..wire::ClientConfig::default()
            };
            wire::Client::new(id, tier, ccfg, wire::tcp_dialer(sock, 500))
        },
        |_| {},
    );
    let drive = match drive {
        Ok(d) => d,
        Err(e) => return fail(&format!("retry budget exhausted: {e}")),
    };
    // One extra connection for the server's own account of the run.
    let ccfg = wire::ClientConfig { seed, sleep: true, ..wire::ClientConfig::default() };
    let mut probe = wire::Client::new(cfg.tenants + 2, 0, ccfg, wire::tcp_dialer(sock, 500));
    let info = match probe.query() {
        Ok(i) => i,
        Err(e) => return fail(&format!("final server query failed: {e}")),
    };
    probe.bye();
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "drove {} tenants x {} epochs against {sock} in {secs:.2}s: \
         digest {:016x} ({} decisions), {} live + {} evicted",
        cfg.tenants, cfg.epochs, info.digest, info.digest_count, info.live, info.evicted,
    );
    let c = &drive.clients;
    println!(
        "  clients: {} connects ({} reconnects), {} retries, {} duplicate acks, \
         {} resyncs, {} breaker trips",
        c.connects, c.reconnects, c.retries, c.duplicate_acks, c.resync_acks, c.breaker_trips,
    );
    let mut ok = info.lost_tenants == 0 && info.cap_epochs_missed == 0;
    if verify {
        let mut local = *cfg;
        local.kill_at = None;
        let baseline = serve::run_soak(&local);
        let same = baseline.digest == info.digest && baseline.digest_count == info.digest_count;
        println!(
            "  verify: in-process digest {:016x} ({} decisions) — {}",
            baseline.digest,
            baseline.digest_count,
            if same { "bit-identical" } else { "DIVERGED" },
        );
        ok &= same;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    }
}

/// The `repro snapshot <save|restore|ls|verify>` subcommand.
fn snapshot_cmd(cli: &Cli, p: &Preset) -> ExitCode {
    const USAGE: &str = "usage: repro snapshot <save <app> [--epochs N] [--full] [--out PATH] \
                         | restore <path> [--epochs N] | ls | verify <path>>";
    let epochs = |default: usize| -> Result<usize, String> {
        let n = cli.parsed::<NonZeroUsize>("--epochs", "a positive integer")?;
        Ok(n.map_or(default, NonZeroUsize::get))
    };
    match cli.arg(1) {
        Some("save") => {
            let Some(name) = cli.arg(2) else {
                return usage(USAGE);
            };
            let n = match epochs(40) {
                Ok(n) => n,
                Err(m) => return failed(&m),
            };
            let app = match harness::error::app(name, p.scale) {
                Ok(app) => app,
                Err(e) => return failed(&e.to_string()),
            };
            let cfg = warmup_cfg(p);
            // Populate the content-addressed store (so later warm runs hit
            // it) and report where the state landed.
            let gpu = match snapcache::warmed_gpu(&app, &cfg, n) {
                Ok(gpu) => gpu,
                Err(e) => return failed(&e.to_string()),
            };
            let bytes = gpu.save_snapshot();
            let key = snapcache::warmup_key(&app, &cfg, n);
            if let Some(out) = cli.value("--out") {
                let path = PathBuf::from(out);
                if let Err(e) = harness::report::write_atomic_bytes(&path, &bytes) {
                    return failed(&format!("cannot write {}: {e}", path.display()));
                }
                println!("wrote {} ({} bytes)", path.display(), bytes.len());
            }
            println!(
                "snapshot of `{name}` after {n} warmup epochs: key {key}, {} bytes, cached under {}",
                bytes.len(),
                snapcache::dir().unwrap_or_else(|| PathBuf::from("<memory>")).display(),
            );
            ExitCode::SUCCESS
        }
        Some("restore") => {
            let Some(path) = cli.arg(2) else {
                return usage(USAGE);
            };
            let n = match epochs(4) {
                Ok(n) => n,
                Err(m) => return failed(&m),
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return failed(&format!("cannot read {path}: {e}")),
            };
            let mut gpu = match Gpu::load_snapshot(&bytes) {
                Ok(gpu) => gpu,
                Err(e) => return failed(&format!("cannot decode snapshot {path}: {e}")),
            };
            let duration = dvfs::epoch::EpochConfig::default().duration;
            let mut stats = gpu_sim::stats::EpochStats::empty();
            for _ in 0..n {
                if gpu.is_done() {
                    break;
                }
                gpu.run_epoch_into(duration, &mut stats);
            }
            println!(
                "restored {path}: stepped {n} epoch(s), now at {:.3} us, app {}",
                gpu.now().as_secs_f64() * 1e6,
                if gpu.is_done() { "complete" } else { "running" },
            );
            ExitCode::SUCCESS
        }
        Some("ls") => {
            let Some(dir) = snapcache::dir() else {
                println!("snapshot store is memory-only (no directory)");
                return ExitCode::SUCCESS;
            };
            let Ok(rd) = std::fs::read_dir(&dir) else {
                println!("{}: empty (directory not created yet)", dir.display());
                return ExitCode::SUCCESS;
            };
            let mut rows: Vec<(String, u64)> = rd
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name.ends_with(".snap") || name.ends_with(".journal"))
                        .then(|| (name, e.metadata().map(|m| m.len()).unwrap_or(0)))
                })
                .collect();
            rows.sort();
            println!("{} ({} entries):", dir.display(), rows.len());
            for (name, len) in rows {
                println!("  {len:>10}  {name}");
            }
            ExitCode::SUCCESS
        }
        Some("verify") => {
            let Some(path) = cli.arg(2) else {
                return usage(USAGE);
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return failed(&format!("cannot read {path}: {e}")),
            };
            let gpu = match Gpu::load_snapshot(&bytes) {
                Ok(gpu) => gpu,
                Err(e) => return failed(&format!("{path}: INVALID — {e}")),
            };
            let round = gpu.save_snapshot();
            if round != bytes {
                return failed(&format!("{path}: INVALID — decode/encode round trip differs"));
            }
            let sections = match snapshot::ContainerReader::parse(&bytes) {
                Ok(c) => c.section_names().collect::<Vec<_>>().join(", "),
                Err(e) => return failed(&format!("{path}: INVALID — {e}")),
            };
            println!(
                "{path}: OK — {} bytes, sections [{sections}], {} CUs, t = {:.3} us, \
                 round trip bit-exact",
                bytes.len(),
                gpu.config().n_cus,
                gpu.now().as_secs_f64() * 1e6,
            );
            ExitCode::SUCCESS
        }
        _ => usage(USAGE),
    }
}

/// Summarizes one trace file (binary or text) for `trace ls`.
fn trace_summary(path: &str) -> Result<scenarios::trace::TraceInfo, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(&scenarios::trace::MAGIC) {
        scenarios::trace::info(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| format!("{path}: neither a PCKT binary trace nor UTF-8 text"))?;
        let app = scenarios::trace::parse_text(text).map_err(|e| format!("{path}: {e}"))?;
        Ok(scenarios::trace::TraceInfo {
            version: scenarios::trace::VERSION,
            app: app.name.clone(),
            kernels: app.kernels.len(),
            code_len: app.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum(),
            bytes: bytes.len(),
        })
    }
}

/// The `repro trace <record|run|ls|verify>` subcommand.
fn trace_cmd(cli: &Cli, p: &Preset) -> ExitCode {
    const USAGE: &str = "usage: repro trace <record <source> [--out PATH] [--text] [--full] \
                         | run <path> [--full] [--threads N] | ls <path>... | verify <path>...>";
    let paths = cli.positional.get(2..).unwrap_or_default();
    match cli.arg(1) {
        Some("record") => {
            let Some(spec) = cli.arg(2) else {
                return usage(USAGE);
            };
            let app = match scenarios::Source::parse(spec, p.scale).and_then(|s| s.build()) {
                Ok(app) => app,
                Err(e) => return failed(&e.to_string()),
            };
            let text = cli.has("--text");
            let bytes = if text {
                match scenarios::trace::render_text(&app) {
                    Ok(t) => t.into_bytes(),
                    Err(e) => return failed(&e.to_string()),
                }
            } else {
                scenarios::trace::record(&app)
            };
            let default_name =
                format!("{}.pckt{}", app.name.replace('/', "_"), if text { ".txt" } else { "" });
            let out = cli.value("--out").map_or(default_name, str::to_owned);
            let path = PathBuf::from(&out);
            if let Err(e) = harness::report::write_atomic_bytes(&path, &bytes) {
                return failed(&format!("cannot write {}: {e}", path.display()));
            }
            println!(
                "recorded `{}` to {} ({} bytes, {} kernel(s), {} instrs, {})",
                app.name,
                path.display(),
                bytes.len(),
                app.kernels.len(),
                app.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum::<usize>(),
                if text { "text v1" } else { "binary v1" },
            );
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(path) = cli.arg(2) else {
                return usage(USAGE);
            };
            let app = match scenarios::source::load_trace(std::path::Path::new(path)) {
                Ok(app) => app,
                Err(e) => return failed(&e.to_string()),
            };
            let mut cfg =
                RunConfig::paper(PolicyKind::PcStall(pcstall::policy::PcStallConfig::default()));
            cfg.gpu = p.gpu;
            cfg.power = power::model::PowerConfig::scaled_to(p.gpu.n_cus);
            let r = harness::run(&app, &cfg);
            println!(
                "replayed {path}: app `{}` under {}: {} epochs{}, {:.6} J, {:.3} us, \
                 EDP {:.4e} J.s",
                r.app,
                r.policy,
                r.epochs,
                if r.completed { " (completed)" } else { "" },
                r.metrics.energy_j,
                r.metrics.delay_s * 1e6,
                r.metrics.energy_j * r.metrics.delay_s,
            );
            ExitCode::SUCCESS
        }
        Some("ls") => {
            if paths.is_empty() {
                return usage(USAGE);
            }
            let mut code = ExitCode::SUCCESS;
            println!(
                "  {:>3} {:<24} {:>7} {:>8} {:>10}",
                "ver", "app", "kernels", "instrs", "bytes"
            );
            for path in paths {
                match trace_summary(path) {
                    Ok(i) => println!(
                        "  {:>3} {:<24} {:>7} {:>8} {:>10}  {path}",
                        i.version, i.app, i.kernels, i.code_len, i.bytes
                    ),
                    Err(e) => {
                        eprintln!("{e}");
                        code = ExitCode::from(EXIT_EXPERIMENT_FAILED);
                    }
                }
            }
            code
        }
        Some("verify") => {
            if paths.is_empty() {
                return usage(USAGE);
            }
            let mut code = ExitCode::SUCCESS;
            for path in paths {
                match verify_trace(path) {
                    Ok(msg) => println!("{path}: OK — {msg}"),
                    Err(e) => {
                        eprintln!("{path}: INVALID — {e}");
                        code = ExitCode::from(EXIT_EXPERIMENT_FAILED);
                    }
                }
            }
            code
        }
        _ => usage(USAGE),
    }
}

/// Checks one trace file parses and round-trips bit-exactly. Binary
/// traces must re-record to the identical byte string; text traces must
/// survive parse → binary record → parse structurally intact.
fn verify_trace(path: &str) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    if bytes.starts_with(&scenarios::trace::MAGIC) {
        let app = scenarios::trace::parse(&bytes).map_err(|e| e.to_string())?;
        if scenarios::trace::record(&app) != bytes {
            return Err("parse → record round trip is not byte-identical".into());
        }
        Ok(format!(
            "binary v{}, {} kernel(s), {} instrs, round trip bit-exact",
            scenarios::trace::VERSION,
            app.kernels.len(),
            app.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum::<usize>(),
        ))
    } else {
        let text = std::str::from_utf8(&bytes).map_err(|_| "not UTF-8 text".to_string())?;
        let app = scenarios::trace::parse_text(text).map_err(|e| e.to_string())?;
        let rebuilt =
            scenarios::trace::parse(&scenarios::trace::record(&app)).map_err(|e| e.to_string())?;
        if rebuilt != app {
            return Err("text → binary → parse changed the app".into());
        }
        Ok(format!(
            "text v1, {} kernel(s), {} instrs, binary round trip exact",
            app.kernels.len(),
            app.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum::<usize>(),
        ))
    }
}

/// The `repro fuzz` subcommand: `--count` seeded scenarios through the
/// three property oracles; exits 2 on any violation.
fn fuzz_cmd(cli: &Cli, _: &Preset) -> ExitCode {
    const USAGE: &str = "usage: repro fuzz [--count N] [--seed S] [--threads N] [--json]";
    const INT: &str = "a non-negative integer";
    let (count, seed) = match (cli.parsed_or("--count", 25, INT), cli.parsed_or("--seed", 42, INT))
    {
        (Ok(c), Ok(s)) => (c.max(1), s),
        (Err(m), _) | (_, Err(m)) => return usage(&format!("{m}\n{USAGE}")),
    };
    let t0 = Instant::now();
    let study = harness::studies::fuzz_property_sweep(
        seed,
        count,
        &scenarios::PropertyConfig::default(),
        sweeps::default_threads(),
    );
    let secs = t0.elapsed().as_secs_f64();
    if cli.has("--json") {
        println!("{}", study.to_json());
    } else {
        for s in &study.scenarios {
            for v in &s.violations {
                eprintln!("VIOLATION: {v}");
            }
        }
        let instrs: usize = study.scenarios.iter().map(|s| s.code_len).sum();
        println!(
            "fuzz: {} scenarios from seed {} ({} kernels, {} instrs) through 3 property \
             oracles (monotonicity, conservation, snapshot) in {secs:.2}s: {} violation(s)",
            study.scenarios.len(),
            seed,
            study.scenarios.iter().map(|s| s.kernels).sum::<usize>(),
            instrs,
            study.total_violations(),
        );
        println!("  reproduce any scenario: repro trace record fuzz:{seed}:<index>");
    }
    if study.total_violations() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    }
}

/// The subcommand table.
const COMMANDS: &[(&str, CommandFn)] = &[
    ("list", list_cmd),
    ("run", run_cmd),
    ("all", all_cmd),
    ("serve", serve_cmd),
    ("snapshot", snapshot_cmd),
    ("trace", trace_cmd),
    ("fuzz", fuzz_cmd),
];

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => return usage(&format!("{msg}\n{USAGE}")),
    };
    let preset = match install_process_state(&cli).and_then(|()| preset(&cli)) {
        Ok(p) => p,
        Err(msg) => return usage(&msg),
    };
    if cli.has("--list-workloads") {
        list_workloads();
        return ExitCode::SUCCESS;
    }
    match COMMANDS.iter().find(|(name, _)| Some(*name) == cli.arg(0)) {
        Some((_, command)) => command(&cli, &preset),
        None => usage(USAGE),
    }
}
