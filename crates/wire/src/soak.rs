//! The PR-8 chaos soak re-run over the wire.
//!
//! [`run_wire_soak`] drives the exact same closed loop as
//! [`serve::run_soak`] — same synthetic tenants, same fault draws, same
//! hang windows, same epoch cadence — but every byte between the fleet
//! and the policy server crosses a transport: the deterministic duplex
//! shim with byte-stream faults armed, or (from the CLI/bench) a real
//! TCP loopback. Telemetry goes through [`crate::Client::submit`], epochs
//! advance through an admin client's `Tick`, and decisions come back
//! through `Fetch`.
//!
//! **Digest-equality argument.** The policy server's decision stream is a
//! pure function of the batches it receives per epoch, in order. The
//! driver submits tenants in ascending order and blocks on each ack;
//! the gateway's sequence-number dedupe means retransmits forced by the
//! transport are absorbed before the policy server sees them; fetches
//! and ticks are idempotent reads/steps. So however hostile the
//! transport, the server's inbox per epoch — and therefore the decision
//! log digest — is bit-identical to the in-process path. The chaos test
//! pins exactly that, with a mid-soak kill-and-recover on top.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use dvfs::states::FreqStates;
use faults::stream::StreamFaultConfig;
use faults::{FaultInjector, TelemetryEvent};
use gpu_sim::time::Frequency;
use serve::{
    arm_hangs, server_config_for, synth_record, Decision, SoakConfig, SoakReport, TelemetryBatch,
};

use crate::client::{Client, ClientConfig, ClientReport, Exhausted};
use crate::gateway::{Gateway, GatewayStats};
use crate::shim::{ShimNet, TransportStats};

/// Gateway token seed derived from the soak seed — fixed so a `--listen`
/// process and a `--connect` process agree without coordination.
pub fn token_seed_for(soak: &SoakConfig) -> u64 {
    soak.seed ^ 0x7173_717E
}

/// Parameters for a soak over the shim transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSoakConfig {
    /// The underlying soak (tenant fleet, epochs, server faults…).
    /// `soak.kill_at` is ignored here — over the wire the kill is a
    /// *gateway* kill, taking the transport down with it; see
    /// [`WireSoakConfig::kill_at`].
    pub soak: SoakConfig,
    /// Byte-stream faults armed on every link, both directions.
    pub stream: StreamFaultConfig,
    /// Kill the gateway (server + wire sessions) just before this epoch,
    /// restore it from its own snapshot, and reset every connection.
    pub kill_at: Option<u64>,
    /// Client retry budget per operation.
    pub max_attempts: u32,
}

impl Default for WireSoakConfig {
    fn default() -> Self {
        WireSoakConfig {
            soak: SoakConfig::default(),
            stream: StreamFaultConfig::default(),
            kill_at: None,
            max_attempts: 64,
        }
    }
}

/// The soak report plus the transport-layer story.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSoakReport {
    /// Same shape as the in-process soak report — `digest` is the
    /// cross-transport equality witness.
    pub soak: SoakReport,
    /// Byte-level fault accounting from the shim.
    pub transport: TransportStats,
    /// Gateway frame/session counters.
    pub gateway: GatewayStats,
    /// Aggregate client resilience counters across the fleet.
    pub clients: ClientReport,
    /// Whether the mid-soak gateway kill happened.
    pub killed: bool,
}

impl WireSoakReport {
    /// SLOs plus wire-layer sanity: everything the in-process soak
    /// demands, over a transport that was actively hostile.
    pub fn slos_met(&self) -> bool {
        self.soak.slos_met()
    }
}

fn aggregate(reports: impl IntoIterator<Item = ClientReport>) -> ClientReport {
    let mut total = ClientReport::default();
    for r in reports {
        total.connects += r.connects;
        total.reconnects += r.reconnects;
        total.dial_failures += r.dial_failures;
        total.retries += r.retries;
        total.frame_errors += r.frame_errors;
        total.io_errors += r.io_errors;
        total.rejects += r.rejects;
        total.duplicate_acks += r.duplicate_acks;
        total.resync_acks += r.resync_acks;
        total.breaker_trips += r.breaker_trips;
        total.backoff_ms += r.backoff_ms;
    }
    total
}

/// What the transport-generic soak driver observed, transport aside.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveReport {
    /// Tenants armed with a silent hang window.
    pub hung_tenants: u64,
    /// Aggregate client resilience counters (fleet + admin ticker).
    pub clients: ClientReport,
    /// Decisions fetched per epoch, if [`SoakConfig::record_log`].
    pub log: Vec<Decision>,
}

/// Drives the PR-8 soak's closed loop — same synthetic telemetry, same
/// fault draws, same hang windows as [`serve::run_soak`] — through one
/// [`Client`] per tenant plus an admin epoch ticker, over *any*
/// transport `make_client` dials (the deterministic shim, TCP loopback,
/// a remote server). `before_epoch` runs at the top of each epoch, when
/// no request is in flight — the kill/recover hook.
///
/// Errors with [`Exhausted`] if any client burns its whole retry budget,
/// which callers treat as an SLO violation in its own right.
pub fn drive_soak<T: Read + Write>(
    soak: &SoakConfig,
    max_attempts: u32,
    mut make_client: impl FnMut(u64, u8) -> Client<T>,
    mut before_epoch: impl FnMut(u64),
) -> Result<DriveReport, Exhausted> {
    let states = FreqStates::paper();
    let tiers = u64::from(soak.tiers.max(1));
    let mut clients: Vec<Client<T>> =
        (0..soak.tenants).map(|t| make_client(t, (t % tiers) as u8)).collect();
    // The epoch ticker: an ordinary client on its own link, bound to an
    // id outside the fleet (Hello has no server-side effect).
    let mut admin = make_client(soak.tenants + 1, 0);

    let mut injector = FaultInjector::new(soak.faults);
    let hangs: BTreeMap<u64, (u64, u64)> = arm_hangs(soak);

    let mut cur = vec![states.min(); soak.tenants as usize];
    let mut prev = cur.clone();
    let mut log = Vec::new();

    for e in 0..soak.epochs {
        before_epoch(e);
        for t in 0..soak.tenants {
            if let Some(&(start, end)) = hangs.get(&t) {
                if e >= start && e < end {
                    continue;
                }
            }
            let rec = match injector.telemetry_event_for(e, t) {
                TelemetryEvent::Lost => continue,
                TelemetryEvent::Stale => {
                    if e == 0 {
                        continue;
                    }
                    synth_record(soak.seed, t, e - 1, prev[t as usize])
                }
                TelemetryEvent::Deliver => synth_record(soak.seed, t, e, cur[t as usize]),
            };
            let tier = (t % tiers) as u8;
            clients[t as usize].submit(TelemetryBatch { tenant: t, tier, records: vec![rec] })?;
        }
        // A duplicated or delayed transport chunk can surface a *stale*
        // response — an ack from the previous epoch's exchange. Submits
        // are immune (acks carry the sequence number), but tick and
        // fetch responses are only distinguishable by the server epoch
        // they report, so loop until the response proves the server is
        // past epoch `e`; anything earlier is a transport echo.
        let mut rounds = 0;
        while admin.tick(e)? <= e {
            rounds += 1;
            if rounds >= max_attempts {
                return Err(Exhausted {
                    op: "tick-advance",
                    attempts: rounds,
                    last: format!("server never observed past epoch {e}"),
                });
            }
        }
        prev.copy_from_slice(&cur);
        for t in 0..soak.tenants {
            let decisions = loop {
                let (server_epoch, decisions, _notices) = clients[t as usize].fetch(e)?;
                if server_epoch > e {
                    break decisions;
                }
                rounds += 1;
                if rounds >= max_attempts {
                    return Err(Exhausted {
                        op: "fetch-fresh",
                        attempts: rounds,
                        last: format!("tenant {t} kept fetching pre-tick echoes at epoch {e}"),
                    });
                }
            };
            for d in &decisions {
                if d.epoch == e {
                    cur[t as usize] = Frequency::from_mhz(d.freq_mhz);
                }
            }
            if soak.record_log {
                log.extend(decisions.into_iter().filter(|d| d.epoch == e));
            }
        }
    }

    for c in &mut clients {
        c.bye();
    }
    let mut all = aggregate(clients.iter().map(|c| c.report));
    all = aggregate([all, admin.report]);
    Ok(DriveReport { hung_tenants: hangs.len() as u64, clients: all, log })
}

/// Runs the chaos soak over the deterministic duplex shim. Errors with
/// [`Exhausted`] if any client burns its whole retry budget — which the
/// chaos test treats as an SLO violation in itself.
pub fn run_wire_soak(cfg: &WireSoakConfig) -> Result<WireSoakReport, Exhausted> {
    let soak = &cfg.soak;
    let states = FreqStates::paper();
    let cap = soak.resolve_cap(&states);
    let gateway = Gateway::new(server_config_for(soak), exec::global_pool(), token_seed_for(soak));
    let net = ShimNet::new(gateway, cfg.stream);

    let ccfg = ClientConfig {
        max_attempts: cfg.max_attempts,
        seed: soak.seed ^ 0xBAC0_FF5E,
        sleep: false,
        ..ClientConfig::default()
    };
    let mut killed = false;
    let drive = {
        let net = net.clone();
        let kill_net = net.clone();
        let killed = &mut killed;
        drive_soak(
            soak,
            cfg.max_attempts,
            move |id, tier| {
                let net = net.clone();
                Client::new(id, tier, ccfg, move || Ok(net.dial(id)))
            },
            move |e| {
                if cfg.kill_at == Some(e) {
                    kill_net.kill_and_recover().expect("gateway snapshot must reload");
                    *killed = true;
                }
            },
        )?
    };

    let (soak_report, gateway_stats) = net.with_gateway(|gw| {
        let server = gw.server();
        let dlog = server.decision_log();
        let report = SoakReport {
            tenants: soak.tenants,
            epochs: soak.epochs,
            power_cap_w: cap,
            killed,
            hung_tenants: drive.hung_tenants,
            digest: dlog.digest(),
            digest_count: dlog.count(),
            stats: server.stats(),
            shed: server.shed_stats().clone(),
            supervision: server.supervision().total,
            live: server.live_tenants(),
            evicted: server.evicted_tenants(),
            log: drive.log,
        };
        (report, gw.stats)
    });
    Ok(WireSoakReport {
        soak: soak_report,
        transport: net.transport_stats(),
        gateway: gateway_stats,
        clients: drive.clients,
        killed,
    })
}
