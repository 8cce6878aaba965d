//! The chaos soak re-run over the wire.
//!
//! [`run_wire_soak`] runs [`serve::drive_soak`] — the one closed loop the
//! in-process soak runs too — through a [`ClientFleet`], so every byte
//! between the fleet and the policy server crosses a transport: the
//! deterministic duplex shim with byte-stream faults armed, or (from the
//! CLI and the TCP tests) a real socket. Telemetry goes through
//! [`crate::Client::submit`], epochs advance through an admin client's
//! `Tick`, and decisions come back through `Fetch`.
//!
//! **Digest-equality argument.** The policy server's decision stream is a
//! pure function of the batches it receives per epoch, in order. The
//! fleet submits tenants in ascending order and blocks on each ack; the
//! gateway's sequence-number dedupe absorbs retransmits forced by the
//! transport before the policy server sees them; fetches and ticks are
//! idempotent reads/steps. So however hostile the transport, the
//! server's inbox per epoch — and therefore the decision log digest — is
//! bit-identical to the in-process path. The chaos test pins exactly
//! that, with a mid-soak kill-and-recover on top.

use std::io::{Read, Write};
use std::sync::Arc;

use faults::stream::StreamFaultConfig;
use serve::{
    drive_soak, server_config_for, Decision, SoakConfig, SoakFleet, SoakReport, TelemetryBatch,
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
    /// cross-transport equality witness, and `killed` says whether the
    /// mid-soak gateway kill happened.
    pub soak: SoakReport,
    /// Byte-level fault accounting from the shim.
    pub transport: TransportStats,
    /// Gateway frame/session counters.
    pub gateway: GatewayStats,
    /// Aggregate client resilience counters across the fleet.
    pub clients: ClientReport,
}

impl WireSoakReport {
    /// SLOs plus wire-layer sanity: everything the in-process soak
    /// demands, over a transport that was actively hostile.
    pub fn slos_met(&self) -> bool {
        self.soak.slos_met()
    }
}

/// The soak's tenants as wire clients: one [`Client`] per tenant plus an
/// admin client that ticks the epoch, over whatever transport
/// `make_client` dials (the deterministic shim, TCP loopback, a remote
/// server).
#[derive(Debug)]
pub struct ClientFleet<T: Read + Write> {
    clients: Vec<Client<T>>,
    admin: Client<T>,
    max_attempts: u32,
}

impl<T: Read + Write> ClientFleet<T> {
    /// Dials one client per tenant of `soak` at tier `t % tiers`, and the
    /// admin ticker under an id outside the fleet (Hello has no
    /// server-side effect). `max_attempts` bounds the stale-echo loops of
    /// [`SoakFleet::step`].
    pub fn new(
        soak: &SoakConfig,
        max_attempts: u32,
        mut make_client: impl FnMut(u64, u8) -> Client<T>,
    ) -> Self {
        let tiers = u64::from(soak.tiers.max(1));
        let clients = (0..soak.tenants).map(|t| make_client(t, (t % tiers) as u8)).collect();
        let admin = make_client(soak.tenants + 1, 0);
        ClientFleet { clients, admin, max_attempts }
    }

    /// Closes every tenant connection and returns the fleet's summed
    /// resilience counters, the admin ticker's included.
    pub fn finish(mut self) -> ClientReport {
        let mut total = self.admin.report;
        for c in &mut self.clients {
            c.bye();
            total.merge(&c.report);
        }
        total
    }
}

impl<T: Read + Write> SoakFleet for ClientFleet<T> {
    type Error = Exhausted;

    fn submit(&mut self, batch: TelemetryBatch) -> Result<(), Exhausted> {
        self.clients[batch.tenant as usize].submit(batch).map(drop)
    }

    /// A duplicated or delayed transport chunk can surface a *stale*
    /// response — an ack from the previous epoch's exchange. Submits are
    /// immune (acks carry the sequence number), but tick and fetch
    /// responses are only distinguishable by the server epoch they
    /// report, so each loops until the response proves the server is past
    /// `epoch`; anything earlier is a transport echo. All loops of one
    /// epoch share the `max_attempts` budget.
    fn step(&mut self, epoch: u64) -> Result<Vec<Decision>, Exhausted> {
        let mut rounds = 0;
        while self.admin.tick(epoch)? <= epoch {
            rounds += 1;
            if rounds >= self.max_attempts {
                return Err(Exhausted {
                    op: "tick-advance",
                    attempts: rounds,
                    last: format!("server never observed past epoch {epoch}"),
                });
            }
        }
        let mut out = Vec::with_capacity(self.clients.len());
        for (t, client) in self.clients.iter_mut().enumerate() {
            let decisions = loop {
                let (server_epoch, decisions, _notices) = client.fetch(epoch)?;
                if server_epoch > epoch {
                    break decisions;
                }
                rounds += 1;
                if rounds >= self.max_attempts {
                    return Err(Exhausted {
                        op: "fetch-fresh",
                        attempts: rounds,
                        last: format!("tenant {t} kept fetching pre-tick echoes at epoch {epoch}"),
                    });
                }
            };
            out.extend(decisions.into_iter().filter(|d| d.epoch == epoch));
        }
        Ok(out)
    }
}

/// Runs the chaos soak over the deterministic duplex shim. Errors with
/// [`Exhausted`] if any client burns its whole retry budget — which the
/// chaos test treats as an SLO violation in itself.
pub fn run_wire_soak(cfg: &WireSoakConfig) -> Result<WireSoakReport, Exhausted> {
    let soak = &cfg.soak;
    let gateway = Gateway::new(
        server_config_for(soak),
        Arc::new(exec::WorkerPool::new(1)),
        token_seed_for(soak),
    );
    let net = ShimNet::new(gateway, cfg.stream);

    let ccfg = ClientConfig {
        max_attempts: cfg.max_attempts,
        seed: soak.seed ^ 0xBAC0_FF5E,
        sleep: false,
        ..ClientConfig::default()
    };
    let mut fleet = ClientFleet::new(soak, cfg.max_attempts, |id, tier| {
        let net = net.clone();
        Client::new(id, tier, ccfg, move || Ok(net.dial(id)))
    });
    let mut killed = false;
    let log = drive_soak(soak, &mut fleet, |e, _| {
        if cfg.kill_at == Some(e) {
            net.kill_and_recover().expect("gateway snapshot must reload");
            killed = true;
        }
    })?;
    let clients = fleet.finish();

    let (soak_report, gateway_stats) =
        net.with_gateway(|gw| (SoakReport::new(soak, gw.server(), killed, log), gw.stats));
    Ok(WireSoakReport {
        soak: soak_report,
        transport: net.transport_stats(),
        gateway: gateway_stats,
        clients,
    })
}
