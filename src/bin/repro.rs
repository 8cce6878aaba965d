//! Command-line driver for the reproduction harness.
//!
//! ```text
//! repro list                           list every figure/table experiment
//! repro run <id> [--full] [--threads N] [--faults SPEC]   run one experiment
//! repro all [--full] [--threads N] [--faults SPEC]        run every experiment
//! repro serve [--tenants N] [--epochs N] [--shards N] [--faults SPEC] ...
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
//! `--full` selects the paper's 64-CU platform at standard workload scale
//! (equivalent to `PCSTALL_FULL=1`); the default is the reduced 16-CU
//! preset. `--threads N` sizes the process-global worker pool that grid
//! sweeps and fork–pre-execute oracle sampling run on (equivalent to
//! `PCSTALL_THREADS=N`; default: physical parallelism capped at 8).
//! Results are bit-identical at every thread count.
//!
//! `--faults SPEC` degrades every experiment's GPU with the seeded
//! fault-injection layer (telemetry dropout/staleness/noise, dropped and
//! delayed V/f transitions, transient thermal clamps) and attaches the
//! default degradation ladder. `SPEC` is comma-separated `key=value`
//! pairs, e.g. `--faults rate=0.05,seed=7` or
//! `--faults drop=0.1,noise=0.2,clamp=0.01`; see `faults::FaultConfig`.
//! Normalization baselines always run fault-free, so normalized figures
//! show what the faults cost. Outputs are printed and archived under
//! `results/`.
//!
//! `--deadline MS` and `--max-retries N` tune the supervised executor
//! (the `supervision` experiment): `--deadline` bounds each grid cell's
//! wall-clock per attempt (the watchdog cancels a lane past it and the
//! simulation preempts into a snapshot at the next epoch boundary), and
//! `--max-retries` caps the deterministic retry rounds for failed or
//! timed-out cells. Example: `repro run supervision --faults
//! hang=0.2,seed=7 --deadline 5000 --max-retries 3`.
//!
//! `--snapshot-dir DIR` points the content-addressed warmup snapshot
//! store (and `snapshot` subcommand) at `DIR` instead of the default
//! `results/.snapcache/`. `--resume` enables per-grid resume journals in
//! that directory: every completed (workload × design) cell is persisted
//! as it finishes, and a restarted invocation skips the journaled cells —
//! the resumed output is bit-identical to an uninterrupted run.
//!
//! The `serve` subcommand runs a bounded chaos soak of the multi-tenant
//! DVFS policy server (the `serve` crate): seeded synthetic tenants driven
//! closed-loop through admission, backpressure, the degradation ladder and
//! the global power-cap arbiter, with `--faults` storms, `--torn` snapshot
//! reads and an optional `--kill-at` mid-soak restart. It prints the typed
//! SLO summary (or `--json`) and exits 2 on any SLO violation. Its
//! transport modes put the same soak on a real TCP wire (the `wire`
//! crate's PCWR framing): `serve kill-recover` kills and restarts the
//! socket server mid-soak on a new port and demands a bit-identical
//! decision digest, while `--listen ADDR` / `--connect ADDR` split the
//! server and the driving client fleet across two processes (`--verify`
//! on the connect side recomputes the digest locally and compares).
//!
//! The `snapshot` subcommand works with versioned binary simulator
//! snapshots directly: `save` warms an application up and snapshots the
//! GPU, `restore` rehydrates one and steps it to prove it is live, `ls`
//! lists the cache, and `verify` checks a snapshot decodes and round-trips
//! bit-exactly.
//!
//! The `trace` subcommand works with the `scenarios` kernel-trace format:
//! `record` serializes any workload source (a registry name, `fuzz:S:I`,
//! or another trace) to a `.pckt` file (`--text` for the line-oriented
//! form), `run` replays a trace through the PCSTALL harness, `ls`
//! summarizes trace files, and `verify` proves a trace parses and
//! round-trips bit-exactly. The `fuzz` subcommand generates `--count`
//! seeded scenarios and runs every one through the differential property
//! oracles (energy monotonicity, accounting conservation, snapshot
//! round-trip), exiting 2 on any violation.
//!
//! `--apps SPEC[,SPEC...]` redirects every experiment at the given
//! workload sources instead of the Table II suite (e.g.
//! `--apps xsbench,trace:t.pckt,fuzz:42:7`); `--list-workloads` prints
//! the registry.
//!
//! Exit codes: 0 on success, 1 on usage errors, 2 when an experiment
//! fails (the typed `HarnessError` is printed to stderr).

use gpu_sim::gpu::Gpu;
use harness::figures::{self, FigureResult, Preset};
use harness::runner::{FaultSetup, RunConfig};
use harness::{snapcache, sweeps};
use pcstall::policy::PolicyKind;
use std::path::PathBuf;
use std::process::ExitCode;

type FigureFn = fn(&Preset) -> FigureResult;

/// Exit code for a failed experiment (vs 1 for usage errors).
const EXIT_EXPERIMENT_FAILED: u8 = 2;

/// Every registered experiment: (id, description, entry point).
fn registry() -> Vec<(&'static str, &'static str, FigureFn)> {
    vec![
        ("fig01a", "ED²P improvement vs DVFS epoch duration", figures::fig01a),
        ("fig01b", "prediction accuracy vs epoch duration", figures::fig01b),
        ("fig05", "instructions-vs-frequency linearity (comd)", figures::fig05),
        ("fig06", "sensitivity profiles (dgemm/hacc/BwdBN/xsbench)", figures::fig06),
        ("fig07", "epoch-to-epoch sensitivity variability", figures::fig07),
        ("fig08", "per-wavefront contributions (BwdBN)", figures::fig08),
        ("fig10", "same-PC iteration stability", figures::fig10),
        ("fig11", "wavefront-slot contention & PC offset tuning", figures::fig11),
        ("fig14", "prediction accuracy of all Table III designs", figures::fig14),
        ("fig15", "per-workload ED²P vs static 1.7 GHz", figures::fig15),
        ("fig16", "frequency residency under PCSTALL", figures::fig16),
        ("fig17", "geomean EDP vs epoch duration", figures::fig17),
        ("fig18a", "energy savings under perf-loss limits", figures::fig18a),
        ("fig18b", "ED²P vs V/f-domain granularity", figures::fig18b),
        ("table1", "hardware storage overhead per design", figures::table1),
        ("table2", "the workload suite", figures::table2_figure),
        ("resilience", "energy/slowdown vs fault rate (degradation ladder)", figures::resilience),
        ("supervision", "grid completion under injected hang chaos", figures::supervision),
        ("fuzz", "seeded scenarios through the property oracles", figures::fuzz),
    ]
}

fn preset(args: &[String]) -> Preset {
    if args.iter().any(|a| a == "--full") {
        Preset::full()
    } else {
        Preset::from_env()
    }
}

/// Applies a `--threads N` flag to the process-global worker pool (must
/// run before anything touches the pool). Returns `Err` on a malformed
/// flag.
fn apply_threads_flag(args: &[String]) -> Result<(), String> {
    let Some(pos) = args.iter().position(|a| a == "--threads") else {
        return Ok(());
    };
    let n: usize = args
        .get(pos + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .ok_or("--threads requires a positive integer, e.g. --threads 8")?;
    if !exec::set_global_threads(n) {
        return Err("worker pool already initialized; pass --threads earlier".into());
    }
    Ok(())
}

/// Applies a `--faults SPEC` flag: parses the spec, attaches the default
/// degradation ladder and installs it as the process-wide fault override.
fn apply_faults_flag(args: &[String]) -> Result<(), String> {
    let Some(pos) = args.iter().position(|a| a == "--faults") else {
        return Ok(());
    };
    let spec = args
        .get(pos + 1)
        .filter(|s| !s.starts_with("--"))
        .ok_or("--faults requires a spec, e.g. --faults rate=0.05,seed=7")?;
    let cfg =
        faults::FaultConfig::parse(spec).map_err(|e| format!("bad --faults spec: {}", e.0))?;
    if !figures::set_fault_override(FaultSetup::with_default_ladder(cfg)) {
        return Err("fault override already installed; pass --faults once".into());
    }
    Ok(())
}

/// Applies `--deadline MS` and `--max-retries N`: installs the
/// process-wide supervision override the `supervision` experiment (and
/// any supervised grid) picks up.
fn apply_supervise_flags(args: &[String]) -> Result<(), String> {
    let deadline_ms = match args.iter().position(|a| a == "--deadline") {
        None => None,
        Some(_) => Some(
            flag_value(args, "--deadline")
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&ms| ms > 0)
                .ok_or("--deadline requires a positive millisecond count, e.g. --deadline 5000")?,
        ),
    };
    let max_retries = match args.iter().position(|a| a == "--max-retries") {
        None => None,
        Some(_) => Some(
            flag_value(args, "--max-retries")
                .and_then(|v| v.parse::<u32>().ok())
                .ok_or("--max-retries requires a non-negative integer, e.g. --max-retries 3")?,
        ),
    };
    if deadline_ms.is_none() && max_retries.is_none() {
        return Ok(());
    }
    let over = figures::SuperviseOverride { deadline_ms, max_retries };
    if !figures::set_supervise_override(over) {
        return Err(
            "supervision override already installed; pass --deadline/--max-retries once".into()
        );
    }
    Ok(())
}

/// Reads the value following `flag`, rejecting a trailing flag as a value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).filter(|s| !s.starts_with("--"))
}

/// Applies an `--apps SPEC[,SPEC...]` flag: parses each workload source
/// (registry name, `trace:PATH`, `fuzz:SEED:INDEX`), validates it builds,
/// and installs the set as the process-wide source override every figure
/// inherits.
fn apply_apps_flag(args: &[String]) -> Result<(), String> {
    if !args.iter().any(|a| a == "--apps") {
        return Ok(());
    }
    let specs = flag_value(args, "--apps")
        .ok_or("--apps requires a comma-separated source list, e.g. --apps xsbench,fuzz:42:7")?;
    let scale = preset(args).scale;
    let sources = specs
        .split(',')
        .map(|s| scenarios::Source::parse(s.trim(), scale))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    match figures::set_source_override(sources) {
        Ok(true) => Ok(()),
        Ok(false) => Err("source override already installed; pass --apps once".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The `repro --list-workloads` flag: prints the Table II registry with
/// per-scale dispatch sizes so users can discover apps without reading
/// source.
fn list_workloads() {
    use workloads::registry::{all, Scale};
    println!("registered workloads (see also `trace:PATH` and `fuzz:SEED:INDEX` sources):\n");
    println!(
        "  {:<8} {:<4} {:>7} {:>8} {:>13} {:>12} {:>10}",
        "name", "cat", "kernels", "launches", "wg quick/std", "/full", "instrs"
    );
    for w in all() {
        let quick = (w.build)(Scale::Quick);
        let std_ = (w.build)(Scale::Standard);
        let full = (w.build)(Scale::Full);
        let wgs = |a: &gpu_sim::kernel::App| a.kernels.iter().map(|k| k.workgroups).sum::<u32>();
        let instrs: usize = quick.kernels.iter().map(gpu_sim::kernel::Kernel::len).sum();
        println!(
            "  {:<8} {:<4} {:>7} {:>8} {:>13} {:>12} {:>10}",
            w.name,
            match w.category {
                workloads::registry::Category::Hpc => "HPC",
                workloads::registry::Category::Mi => "MI",
            },
            w.unique_kernels,
            quick.kernels.len(),
            format!("{}/{}", wgs(&quick), wgs(&std_)),
            format!("/{}", wgs(&full)),
            instrs,
        );
    }
    println!("\nscales: Quick (tests/benches), Standard (default), Full (--full doubles Standard)");
}

/// Applies `--snapshot-dir DIR` (points the warmup store and the
/// `snapshot` subcommand at `DIR`) and `--resume` (enables per-grid
/// resume journals in that directory).
fn apply_snapshot_flags(args: &[String]) -> Result<(), String> {
    let dir = if args.iter().any(|a| a == "--snapshot-dir") {
        let d = flag_value(args, "--snapshot-dir")
            .ok_or("--snapshot-dir requires a path, e.g. --snapshot-dir results/.snapcache")?;
        let dir = PathBuf::from(d);
        if !snapcache::set_dir(Some(dir.clone())) {
            return Err("snapshot store already initialized; pass --snapshot-dir earlier".into());
        }
        dir
    } else {
        snapcache::default_dir()
    };
    if args.iter().any(|a| a == "--resume") && !sweeps::set_resume_dir(dir) {
        return Err("resume directory already installed; pass --resume once".into());
    }
    Ok(())
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
fn serve_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: repro serve [kill-recover] [--listen ADDR | --connect ADDR] \
                         [--tenants N] [--epochs N] [--shards N] \
                         [--max-live N] [--kill-at E] [--torn RATE] [--seed N] \
                         [--faults SPEC] [--threads N] [--verify] [--json]";
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(default),
            Some(_) => flag_value(args, flag)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} requires a non-negative integer")),
        }
    };
    let mut cfg = serve::SoakConfig {
        tenants: match num("--tenants", 64) {
            Ok(n) => n.max(1),
            Err(m) => {
                eprintln!("{m}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
        ..serve::SoakConfig::default()
    };
    let flags: Result<(), String> = (|| {
        cfg.epochs = num("--epochs", 200)?.max(1);
        cfg.shards = num("--shards", 1)?.max(1) as usize;
        // Default live cap at 3/4 of the fleet: eviction churn on by
        // default, so the restore path is exercised, not just compiled.
        cfg.max_live = num("--max-live", (cfg.tenants * 3 / 4).max(1))? as usize;
        cfg.kill_at = match args.iter().position(|a| a == "--kill-at") {
            None => None,
            Some(_) => Some(
                flag_value(args, "--kill-at")
                    .and_then(|v| v.parse().ok())
                    .ok_or("--kill-at requires an epoch number")?,
            ),
        };
        cfg.seed = num("--seed", 42)?;
        if args.iter().any(|a| a == "--torn") {
            cfg.torn_read_rate = flag_value(args, "--torn")
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or("--torn requires a probability in [0, 1]")?;
        }
        if let Some(spec) = flag_value(args, "--faults") {
            cfg.faults = faults::FaultConfig::parse(spec)
                .map_err(|e| format!("bad --faults spec: {}", e.0))?;
        }
        Ok(())
    })();
    if let Err(m) = flags {
        eprintln!("{m}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if args.get(1).map(String::as_str) == Some("kill-recover") {
        return serve_kill_recover(&cfg);
    }
    if let Some(addr) = flag_value(args, "--listen") {
        return serve_listen(&cfg, addr);
    }
    if let Some(addr) = flag_value(args, "--connect") {
        return serve_connect(&cfg, addr, args.iter().any(|a| a == "--verify"));
    }
    let t0 = std::time::Instant::now();
    let report = serve::run_soak(&cfg);
    let secs = t0.elapsed().as_secs_f64();
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        let s = &report.stats;
        println!(
            "policy server soak: {} tenants x {} epochs, {} shard(s), cap {:.1} W{}",
            report.tenants,
            report.epochs,
            report.shards,
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

    let fail = |msg: &str| {
        eprintln!("kill-recover smoke: {msg}");
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    };
    let mut soak = *cfg;
    // Over the wire the kill is the *gateway* kill below, transport and
    // all — not the in-process server restart the plain soak performs.
    soak.kill_at = None;
    let kill_epoch = cfg.kill_at.unwrap_or(soak.epochs / 2);
    let baseline = serve::run_soak(&soak);

    let gw = wire::Gateway::new(
        serve::server_config_for(&soak),
        exec::global_pool(),
        wire::token_seed_for(&soak),
    );
    let server = match start_wire_server(gw) {
        Ok(s) => s,
        Err(m) => return fail(&m),
    };
    let addr = Rc::new(RefCell::new(server.addr()));
    let server = Rc::new(RefCell::new(Some(server)));

    let t0 = std::time::Instant::now();
    let drive = {
        let addr = Rc::clone(&addr);
        let srv = Rc::clone(&server);
        let shards = soak.shards;
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
                    let mut gw = old.stop();
                    let bytes = gw.save_state();
                    let restored = wire::Gateway::load_state(&bytes, shards, exec::global_pool())
                        .expect("gateway snapshot must reload");
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
        exec::global_pool(),
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
    let fail = |msg: &str| {
        eprintln!("--connect {addr}: {msg}");
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    };
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
fn snapshot_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: repro snapshot <save <app> [--epochs N] [--full] [--out PATH] \
                         | restore <path> [--epochs N] | ls | verify <path>>";
    let epochs = |default: usize| -> Result<usize, String> {
        match args.iter().position(|a| a == "--epochs") {
            None => Ok(default),
            Some(_) => flag_value(args, "--epochs")
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| "--epochs requires a positive integer".to_string()),
        }
    };
    let fail = |msg: &str| {
        eprintln!("{msg}");
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    };
    match args.get(1).map(String::as_str) {
        Some("save") => {
            let Some(name) = args.get(2).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let n = match epochs(40) {
                Ok(n) => n,
                Err(m) => return fail(&m),
            };
            let p = preset(args);
            let app = match harness::error::app(name, p.scale) {
                Ok(app) => app,
                Err(e) => return fail(&e.to_string()),
            };
            let cfg = warmup_cfg(&p);
            // Populate the content-addressed store (so later warm runs hit
            // it) and report where the state landed.
            let gpu = match snapcache::warmed_gpu(&app, &cfg, n) {
                Ok(gpu) => gpu,
                Err(e) => return fail(&e.to_string()),
            };
            let bytes = gpu.save_snapshot();
            let key = snapcache::warmup_key(&app, &cfg, n);
            if let Some(out) = flag_value(args, "--out") {
                let path = PathBuf::from(out);
                if let Err(e) = harness::report::write_atomic_bytes(&path, &bytes) {
                    return fail(&format!("cannot write {}: {e}", path.display()));
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
            let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let n = match epochs(4) {
                Ok(n) => n,
                Err(m) => return fail(&m),
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            let mut gpu = match Gpu::load_snapshot(&bytes) {
                Ok(gpu) => gpu,
                Err(e) => return fail(&format!("cannot decode snapshot {path}: {e}")),
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
            let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            let gpu = match Gpu::load_snapshot(&bytes) {
                Ok(gpu) => gpu,
                Err(e) => return fail(&format!("{path}: INVALID — {e}")),
            };
            let round = gpu.save_snapshot();
            if round != bytes {
                return fail(&format!("{path}: INVALID — decode/encode round trip differs"));
            }
            let sections = match snapshot::ContainerReader::parse(&bytes) {
                Ok(c) => c.section_names().collect::<Vec<_>>().join(", "),
                Err(e) => return fail(&format!("{path}: INVALID — {e}")),
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
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
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
fn trace_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: repro trace <record <source> [--out PATH] [--text] [--full] \
                         | run <path> [--full] [--threads N] | ls <path>... | verify <path>...>";
    let fail = |msg: &str| {
        eprintln!("{msg}");
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    };
    let paths = |args: &[String]| -> Vec<String> {
        args.iter().skip(2).filter(|a| !a.starts_with("--")).cloned().collect()
    };
    match args.get(1).map(String::as_str) {
        Some("record") => {
            let Some(spec) = args.get(2).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let p = preset(args);
            let app = match scenarios::Source::parse(spec, p.scale).and_then(|s| s.build()) {
                Ok(app) => app,
                Err(e) => return fail(&e.to_string()),
            };
            let text = args.iter().any(|a| a == "--text");
            let bytes = if text {
                match scenarios::trace::render_text(&app) {
                    Ok(t) => t.into_bytes(),
                    Err(e) => return fail(&e.to_string()),
                }
            } else {
                scenarios::trace::record(&app)
            };
            let default_name =
                format!("{}.pckt{}", app.name.replace('/', "_"), if text { ".txt" } else { "" });
            let out = flag_value(args, "--out").cloned().unwrap_or(default_name);
            let path = PathBuf::from(&out);
            if let Err(e) = harness::report::write_atomic_bytes(&path, &bytes) {
                return fail(&format!("cannot write {}: {e}", path.display()));
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
            let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let app = match scenarios::source::load_trace(std::path::Path::new(path)) {
                Ok(app) => app,
                Err(e) => return fail(&e.to_string()),
            };
            let p = preset(args);
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
            let files = paths(args);
            if files.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
            let mut code = ExitCode::SUCCESS;
            println!(
                "  {:>3} {:<24} {:>7} {:>8} {:>10}",
                "ver", "app", "kernels", "instrs", "bytes"
            );
            for path in files {
                match trace_summary(&path) {
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
            let files = paths(args);
            if files.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
            let mut code = ExitCode::SUCCESS;
            for path in files {
                match verify_trace(&path) {
                    Ok(msg) => println!("{path}: OK — {msg}"),
                    Err(e) => {
                        eprintln!("{path}: INVALID — {e}");
                        code = ExitCode::from(EXIT_EXPERIMENT_FAILED);
                    }
                }
            }
            code
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
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

/// The `repro fuzz` subcommand: `--count` seeded scenarios through every
/// property oracle; exits 2 on any violation.
fn fuzz_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: repro fuzz [--count N] [--seed S] [--threads N] [--json]";
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(default),
            Some(_) => flag_value(args, flag)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} requires a non-negative integer")),
        }
    };
    let (count, seed) = match (num("--count", 25), num("--seed", 42)) {
        (Ok(c), Ok(s)) => (c.max(1), s),
        (Err(m), _) | (_, Err(m)) => {
            eprintln!("{m}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = std::time::Instant::now();
    let study = harness::studies::fuzz_property_sweep(
        seed,
        count,
        &scenarios::PropertyConfig::default(),
        sweeps::default_threads(),
    );
    let secs = t0.elapsed().as_secs_f64();
    if args.iter().any(|a| a == "--json") {
        println!("{}", study.to_json());
    } else {
        for s in &study.scenarios {
            for v in &s.violations {
                eprintln!("VIOLATION: {v}");
            }
        }
        let instrs: usize = study.scenarios.iter().map(|s| s.code_len).sum();
        println!(
            "fuzz: {} scenarios from seed {} ({} kernels, {} instrs) through 4 property \
             oracles in {secs:.2}s: {} violation(s)",
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = apply_threads_flag(&args) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if let Err(msg) = apply_faults_flag(&args) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if let Err(msg) = apply_snapshot_flags(&args) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if let Err(msg) = apply_supervise_flags(&args) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if let Err(msg) = apply_apps_flag(&args) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--list-workloads") {
        list_workloads();
        return ExitCode::SUCCESS;
    }
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available experiments (run with `repro run <id>`):\n");
            for (id, desc, _) in registry() {
                println!("  {id:10} {desc}");
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(id) = args.get(1) else {
                eprintln!("usage: repro run <id> [--full] [--threads N] [--faults SPEC]");
                return ExitCode::FAILURE;
            };
            let Some((_name, _, f)) = registry().into_iter().find(|(n, _, _)| n == id) else {
                eprintln!("unknown experiment `{id}`; see `repro list`");
                return ExitCode::FAILURE;
            };
            let p = preset(&args);
            match f(&p) {
                Ok(out) => println!("{}", out.render()),
                Err(e) => {
                    eprintln!("{id} failed: {e}");
                    return ExitCode::from(EXIT_EXPERIMENT_FAILED);
                }
            }
            println!(
                "(preset: {}; pass --full for the 64-CU paper platform)",
                if p.full { "full" } else { "reduced" }
            );
            ExitCode::SUCCESS
        }
        Some("all") => {
            let p = preset(&args);
            for (id, _, f) in registry() {
                eprintln!("== {id} ==");
                match f(&p) {
                    Ok(out) => println!("{}", out.render()),
                    Err(e) => {
                        eprintln!("{id} failed: {e}");
                        return ExitCode::from(EXIT_EXPERIMENT_FAILED);
                    }
                }
            }
            let cache = harness::sweeps::global_baseline_cache();
            eprintln!(
                "simulator runs: {} total; baseline cache: {} distinct, {} hits, {} misses",
                harness::session::sim_runs(),
                cache.len(),
                cache.hits(),
                cache.misses()
            );
            ExitCode::SUCCESS
        }
        Some("snapshot") => snapshot_cmd(&args),
        Some("serve") => serve_cmd(&args),
        Some("trace") => trace_cmd(&args),
        Some("fuzz") => fuzz_cmd(&args),
        _ => {
            eprintln!(
                "usage: repro <list|run <id>|all|serve|snapshot <save|restore|ls|verify>\
                 |trace <record|run|ls|verify>|fuzz> [--full] [--threads N] [--faults SPEC] \
                 [--apps SPEC,...] [--list-workloads] [--deadline MS] [--max-retries N] \
                 [--snapshot-dir DIR] [--resume]"
            );
            ExitCode::FAILURE
        }
    }
}
