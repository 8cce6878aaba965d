//! `serve-tcp`: the policy server behind `wire::WireServer` on a fresh
//! loopback port, driven from one thread by one `wire::Client` connection
//! per tenant — submit, tick, fetch each epoch, no faults.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use exec::WorkerPool;
use serve::server::DecisionLog;
use serve::{Decision, TelemetryBatch};
use wire::{
    decode_frame, encode_frame, tcp_dialer, token_seed_for, Client, ClientConfig, ClientReport,
    Conn, Frame, Gateway, TcpServerConfig, WireServer,
};

use crate::fleet::{self, Fleet, Spec, Tenants};
use crate::trace::SpanLog;
use crate::{ms, overhead_pct, pass_count, Args, Passes, Report};

/// Two tenants, each on its own connection, each reporting every epoch.
const LOOPBACK: Spec = Spec { tenants: 2, max_live: 2, silent_every: 0 };
/// Warm-up epochs: every connection open and past its Hello.
const WARMUP_EPOCHS: u64 = 256;
/// Measured epochs per pass, after the warm-up.
const PASS_EPOCHS: usize = 40_000;
/// Nominal seconds of one measured pass, which with `--seconds` sets the
/// pass count.
const PASS_S: f64 = 5.0;
/// Epochs of the traced run replayed through an in-process gateway.
const REPLAY_EPOCHS: usize = 20_000;
/// Attempts per client operation; a fault-free loopback needs one.
const MAX_ATTEMPTS: u32 = 8;
/// Client read timeout, ms: long enough that a slow host never makes a
/// client resend.
const READ_TIMEOUT_MS: u64 = 10_000;
/// Span names of the three RPCs, indexed as they are recorded.
const RPC_SPANS: [&str; 3] = ["wire.submit_rpc", "wire.tick_rpc", "wire.fetch_rpc"];

/// A running wire server and the fleet's clients.
struct Loopback {
    server: WireServer,
    clients: Vec<Client<TcpStream>>,
    tenants: Tenants,
    /// Every epoch's telemetry so far, kept for the traced run's replay.
    recorded: Option<Vec<Vec<TelemetryBatch>>>,
}

impl Loopback {
    /// Starts a server on a fresh loopback port, its threads on
    /// `server_cpu` if given, and connects the fleet through the warm-up
    /// epochs.
    fn start(seed: u64, record: bool, server_cpu: Option<usize>) -> Result<Self, String> {
        let soak = fleet::soak_config(&LOOPBACK, seed);
        let cfg = fleet::server_config(&LOOPBACK, seed);
        let tenants = Tenants::new(LOOPBACK, seed, cfg.epoch_us);
        let gateway = Gateway::new(cfg, Arc::new(WorkerPool::new(1)), token_seed_for(&soak));
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind a loopback port: {e}"))?;
        // The reaping watchdog wakes every `idle_reap_ms / 4`, and stopping
        // the server waits for it: a short window keeps each shutdown
        // under 250 ms, and both connections carry an RPC every epoch.
        let tcp = TcpServerConfig {
            max_conns: 16,
            read_timeout_ms: 50,
            idle_reap_ms: 1_000,
            epoch_interval_ms: 0,
        };
        let server = start_server(listener, gateway, tcp, server_cpu)?;
        let addr = server.addr();
        let ccfg = ClientConfig {
            max_attempts: MAX_ATTEMPTS,
            seed: soak.seed ^ 0xBAC0_FF5E,
            sleep: false,
            ..ClientConfig::default()
        };
        let clients = (0..LOOPBACK.tenants)
            .map(|t| Client::new(t, fleet::tier_of(t), ccfg, tcp_dialer(addr, READ_TIMEOUT_MS)))
            .collect();
        let mut lb = Loopback { server, clients, tenants, recorded: record.then(Vec::new) };
        for _ in 0..WARMUP_EPOCHS {
            if let Err(e) = lb.step(None) {
                lb.shutdown();
                return Err(format!("warm-up: {e}"));
            }
        }
        Ok(lb)
    }

    /// One closed-loop epoch over the wire. Returns the decisions
    /// delivered and the host ms from the first submit to the last
    /// decision received. With `spans`, records a `fleet.epoch` span with
    /// one child per RPC.
    fn step(&mut self, spans: Option<&mut SpanLog>) -> Result<(usize, f64), String> {
        let e = self.tenants.epoch();
        let batches = self.tenants.batches();
        if let Some(rec) = self.recorded.as_mut().filter(|r| r.len() < REPLAY_EPOCHS) {
            rec.push(batches.clone());
        }
        let tracing = spans.is_some();
        let mut rpcs: Vec<(usize, Instant, Instant)> = Vec::new();
        let t0 = Instant::now();
        for batch in batches {
            let s = Instant::now();
            self.clients[batch.tenant as usize].submit(batch).map_err(|x| x.to_string())?;
            if tracing {
                rpcs.push((0, s, Instant::now()));
            }
        }
        let mut ticks = 0;
        loop {
            let s = Instant::now();
            let server_epoch = self.clients[0].tick(e).map_err(|x| x.to_string())?;
            if tracing {
                rpcs.push((1, s, Instant::now()));
            }
            if server_epoch > e {
                break;
            }
            ticks += 1;
            if ticks >= MAX_ATTEMPTS {
                return Err(format!("epoch {e}: the server never stepped past it"));
            }
        }
        let mut decisions: Vec<Decision> = Vec::new();
        for client in &mut self.clients {
            let s = Instant::now();
            let (server_epoch, mut got, _notices) = client.fetch(e).map_err(|x| x.to_string())?;
            if tracing {
                rpcs.push((2, s, Instant::now()));
            }
            if server_epoch <= e {
                return Err(format!("epoch {e}: a fetch was answered before the tick"));
            }
            decisions.append(&mut got);
        }
        let t1 = Instant::now();
        if let Some(log) = spans {
            let parent = log.push("fleet.epoch", t0, t1, None);
            for (kind, s, end) in rpcs {
                log.push(RPC_SPANS[kind], s, end, Some(parent));
            }
        }
        Ok((self.tenants.absorb(&decisions), ms(t0, t1)))
    }

    /// Says goodbye on every connection and stops the server, joining its
    /// threads. Returns the gateway and the clients' summed counters.
    fn shutdown(self) -> (Gateway, ClientReport) {
        let mut total = ClientReport::default();
        for mut client in self.clients {
            client.bye();
            total.connects += client.report.connects;
            total.reconnects += client.report.reconnects;
            total.retries += client.report.retries;
            total.rejects += client.report.rejects;
        }
        (self.server.stop(), total)
    }
}

/// A `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: pid 0 names the calling thread, and `mask` is a live buffer of
    // exactly `cpusetsize` bytes that the kernel writes only during the call.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok((0..64 * mask.len()).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pins the calling thread to `cpu`; threads it spawns afterwards inherit
/// the mask.
fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    if cpu >= 64 * mask.len() {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live buffer of
    // exactly `cpusetsize` bytes that the kernel only reads during the call.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!("pin a thread to CPU {cpu}: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Places the driver (the calling thread) and the server's threads on two
/// different CPUs, the first two the process may use, so that every RPC
/// crosses CPUs. Left to the scheduler, the threads sometimes share a CPU
/// and a whole run takes the cheaper same-CPU wake-ups, which made runs
/// bimodal. Returns the server's CPU, or `None`, with a loud warning, when
/// the process may use only one CPU.
fn apart(w: &str) -> Result<Option<usize>, String> {
    let allowed = allowed_cpus()?;
    let [driver, server, ..] = allowed[..] else {
        eprintln!(
            "[{w}] WARNING: allowed CPUs {allowed:?}: the driver and the server threads share \
             one CPU, so RPCs take same-CPU wake-ups; this run is not comparable with a run \
             on two CPUs"
        );
        return Ok(None);
    };
    pin_current_thread(driver)?;
    eprintln!(
        "[{w}] allowed CPUs {allowed:?}: driver thread pinned to CPU {driver}, server threads \
         to CPU {server}"
    );
    Ok(Some(server))
}

/// Starts the wire server. With `cpu`, from a helper thread pinned there,
/// so that the server's threads inherit that CPU and the caller keeps its
/// own.
fn start_server(
    listener: TcpListener,
    gateway: Gateway,
    tcp: TcpServerConfig,
    cpu: Option<usize>,
) -> Result<WireServer, String> {
    let start = move || {
        if let Some(cpu) = cpu {
            pin_current_thread(cpu)?;
        }
        WireServer::start(listener, gateway, tcp).map_err(|e| format!("start the wire server: {e}"))
    };
    match cpu {
        None => start(),
        Some(_) => std::thread::spawn(start).join().map_err(|_| "the server start panicked")?,
    }
}

/// Per-RPC costs of a traced run's own frame sequence replayed through an
/// in-process gateway: no sockets, threads or locks.
#[derive(Debug, Default)]
struct Replay {
    rpcs: u64,
    /// Host ns inside `Conn::feed`.
    gateway_ns: u64,
    /// Host ns to encode and decode each request and response.
    codec_ns: u64,
    /// Request and response bytes.
    bytes: u64,
    /// Request and response frames.
    frames: u64,
    decisions: u64,
    log: DecisionLog,
}

fn replay(seed: u64, epochs: &[Vec<TelemetryBatch>]) -> Result<Replay, String> {
    let soak = fleet::soak_config(&LOOPBACK, seed);
    let cfg = fleet::server_config(&LOOPBACK, seed);
    let mut gw = Gateway::new(cfg, Arc::new(WorkerPool::new(1)), token_seed_for(&soak));
    let mut conns: Vec<Conn> = (0..LOOPBACK.tenants).map(|_| Conn::new()).collect();
    for (t, conn) in (0..LOOPBACK.tenants).zip(&mut conns) {
        let hello = Frame::Hello { tenant: t, tier: fleet::tier_of(t), resume: None };
        conn.feed(&encode_frame(&hello), &mut gw);
    }
    let mut r = Replay::default();
    for (e, batches) in (0u64..).zip(epochs) {
        // The clients' own sequence: every tenant submits once per epoch
        // (sequence numbers from 1), tenant 0 ticks, every tenant fetches.
        let mut requests: Vec<(usize, Frame)> = batches
            .iter()
            .map(|b| (b.tenant as usize, Frame::Submit { seq: e + 1, batch: b.clone() }))
            .collect();
        requests.push((0, Frame::Tick { expect_epoch: e }));
        requests.extend(
            (0..LOOPBACK.tenants).map(|t| (t as usize, Frame::Fetch { tenant: t, since_epoch: e })),
        );
        for (conn, frame) in requests {
            let request = encode_frame(&frame);
            let t0 = Instant::now();
            let step = conns[conn].feed(&request, &mut gw);
            let t1 = Instant::now();
            let decoded = decode_frame(&encode_frame(&frame));
            let response = decode_frame(&step.out).map_err(|x| format!("replay epoch {e}: {x}"))?;
            let reencoded = encode_frame(&response);
            let t2 = Instant::now();
            if step.close || decoded.is_err() || reencoded != step.out {
                return Err(format!("replay epoch {e}: the gateway refused {frame:?}"));
            }
            if let Frame::Decisions { decisions, .. } = &response {
                r.decisions += decisions.iter().filter(|d| d.epoch == e).count() as u64;
            }
            r.rpcs += 1;
            r.frames += 2;
            r.bytes += (request.len() + step.out.len()) as u64;
            r.gateway_ns += (t1 - t0).as_nanos() as u64;
            r.codec_ns += (t2 - t1).as_nanos() as u64;
        }
    }
    r.log = gw.server().decision_log();
    Ok(r)
}

/// The in-process server's decision log after `epochs` epochs of the same
/// fleet.
fn in_process_log(seed: u64, epochs: u64) -> DecisionLog {
    let mut reference = Fleet::new(LOOPBACK, seed);
    while reference.server.epoch() < epochs {
        reference.step(None);
    }
    reference.server.decision_log()
}

/// Runs `serve-tcp`.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    eprintln!(
        "[{w}] {} tenants, one wire::Client connection each, one driver thread; \
         1 shard, pool threads=1, a fresh 127.0.0.1 port per pass",
        LOOPBACK.tenants
    );
    let server_cpu = apart(w)?;
    let mut report = Report::default();
    let mut spans = args.trace.then(SpanLog::new);
    let mut steps = Passes::default();
    let (mut setup_s, mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut clients = ClientReport::default();
    let (mut recorded, mut gateway_rejects) = (None, 0);
    // The in-process server's log after the same epochs: every pass must
    // reach it over the wire.
    let expected = in_process_log(args.seed, WARMUP_EPOCHS + PASS_EPOCHS as u64);
    // Whole passes, each a fresh server on a fresh port driven through the
    // same epochs.
    let passes = pass_count(args.seconds, PASS_S);
    let mut score = f64::NAN;
    for _ in 0..passes {
        let t = Instant::now();
        let mut lb = Loopback::start(args.seed, args.trace && recorded.is_none(), server_cpu)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut steps_ms = Vec::with_capacity(PASS_EPOCHS);
        for i in 0..PASS_EPOCHS {
            let traced = spans.is_some() && i % 2 == 1;
            match lb.step(if traced { spans.as_mut() } else { None }) {
                Ok((delivered, epoch_ms)) => {
                    report.op(delivered == LOOPBACK.tenants as usize, || {
                        format!("epoch {}: {delivered} decisions delivered", lb.tenants.epoch() - 1)
                    });
                    if traced {
                        traced_ms.push(epoch_ms);
                    } else {
                        steps_ms.push(epoch_ms);
                    }
                }
                Err(e) => {
                    lb.shutdown();
                    return Err(e);
                }
            }
        }
        score = lb.tenants.score.ratio();
        recorded = recorded.or(lb.recorded.take());
        let (gateway, pass_clients) = lb.shutdown();
        let served = gateway.server().decision_log();
        report.op(served == expected, || {
            format!(
                "wire digest {:016x} over {} decisions, in-process {:016x} over {}",
                served.digest(),
                served.count(),
                expected.digest(),
                expected.count()
            )
        });
        gateway_rejects += gateway.stats.rejects;
        clients.retries += pass_clients.retries;
        clients.reconnects += pass_clients.reconnects;
        clients.rejects += pass_clients.rejects;
        if args.trace {
            untraced_ms.extend_from_slice(&steps_ms);
        }
        steps.add(steps_ms);
    }
    report.set(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        format!(
            "best of {passes} set-ups: server start, connects + Hellos, \
             {WARMUP_EPOCHS} warm-up epochs"
        ),
    );
    steps.report(&mut report, LOOPBACK.tenants as f64, !args.trace);
    report.set(
        "ed2p_vs_static",
        score,
        format!("geomean over n={} tenants, synthetic ground truth", LOOPBACK.tenants),
    );
    eprintln!(
        "[{w}] seed {}: decision digest {:016x} over {} decisions",
        args.seed,
        expected.digest(),
        expected.count()
    );

    if let Some(log) = &spans {
        for (metric, span) in [
            ("wire.submit_rpc_us", RPC_SPANS[0]),
            ("wire.tick_rpc_us", RPC_SPANS[1]),
            ("wire.fetch_rpc_us", RPC_SPANS[2]),
        ] {
            let n = log.durations_ms(span).len();
            report.set(metric, log.mean_ms(span) * 1e3, format!("mean over n={n} RPCs"));
        }
        let recorded = recorded.unwrap_or_default();
        let r = replay(args.seed, &recorded)?;
        report.op(r.log == in_process_log(args.seed, recorded.len() as u64), || {
            "the replayed frame sequence reached another decision log".into()
        });
        let per_rpc = |ns: u64| ns as f64 / 1e3 / r.rpcs.max(1) as f64;
        report.set(
            "wire.gateway_us",
            per_rpc(r.gateway_ns),
            format!("Conn::feed, mean over n={} replayed RPCs", r.rpcs),
        );
        report.set(
            "wire.codec_us",
            per_rpc(r.codec_ns),
            "encode + decode of request and response, per RPC",
        );
        report.set(
            "wire.bytes_per_decision",
            r.bytes as f64 / r.decisions.max(1) as f64,
            "requests + responses",
        );
        report.set(
            "wire.frames_per_decision",
            r.frames as f64 / r.decisions.max(1) as f64,
            "requests + responses",
        );
        report.set("wire.retries", clients.retries as f64, "ClientReport");
        report.set("wire.reconnects", clients.reconnects as f64, "ClientReport");
        report.set(
            "wire.rejects",
            (clients.rejects + gateway_rejects) as f64,
            "ClientReport + GatewayStats",
        );
        report.set(
            "trace_overhead_pct",
            overhead_pct(&traced_ms, &untraced_ms),
            format!(
                "median of n={} traced vs n={} untraced epochs",
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

    #[test]
    fn a_seed_reproduces_the_loopback_digest_and_it_matches_in_process() {
        let run = |seed| {
            let mut lb = Loopback::start(seed, true, None).unwrap();
            for _ in 0..32 {
                assert_eq!(lb.step(None).unwrap().0, LOOPBACK.tenants as usize);
            }
            let recorded = lb.recorded.take().unwrap();
            let (gateway, clients) = lb.shutdown();
            assert_eq!((clients.retries, clients.reconnects, clients.rejects), (0, 0, 0));
            assert_eq!(clients.connects, LOOPBACK.tenants);
            let served = gateway.server().decision_log();
            assert_eq!(served, in_process_log(seed, gateway.server().epoch()));
            let replayed = replay(seed, &recorded).unwrap();
            assert_eq!(replayed.log, served, "the replay is the run's own frame sequence");
            assert_eq!(replayed.decisions, LOOPBACK.tenants * recorded.len() as u64);
            served
        };
        let held_out = run(1009);
        assert_eq!(held_out, run(1009));
        assert_ne!(held_out, run(1010), "the seed must reach the inputs");
    }
}
