//! The seeded chaos soak: a closed-loop fleet of synthetic tenants driven
//! through the policy server under fault storms, hung tenants, torn
//! snapshot reads, and an optional mid-soak kill-and-recover.
//!
//! [`drive_soak`] is the one closed loop. It is a pure function of
//! [`SoakConfig`] and the decisions it gets back: tenant telemetry is
//! [`crate::telemetry::synth_record`] fed back the server's own frequency
//! decisions, fault draws come off the counter-based channels in
//! `faults`, and hang windows are armed up front from the fault seed.
//! Only the transport varies, behind [`SoakFleet`]: [`run_soak`] drives
//! a [`PolicyServer`] in process, and the `wire` crate drives a gateway
//! over PCWR through a client fleet. Two soaks with the same config —
//! with or without a kill, over any transport — must report the same
//! decision digest; the chaos integration test pins that digest as a
//! constant.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;

use dvfs::states::FreqStates;
use exec::WorkerPool;
use faults::{channel, FaultConfig, FaultInjector, TelemetryEvent};
use gpu_sim::time::Frequency;
use pcstall::resilience::FallbackConfig;
use power::model::{PowerConfig, PowerModel};
use supervise::{Backoff, SupervisionReport};

use crate::queue::ShedStats;
use crate::server::{Decision, PolicyServer, ServerConfig, ServerStats};
use crate::telemetry::{synth_record, TelemetryBatch};

/// Soak parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// Fleet size.
    pub tenants: u64,
    /// Epochs to drive.
    pub epochs: u64,
    /// Fault profile for telemetry dropout/staleness; `hang_rate` is
    /// reused as the per-tenant probability of one silent hang window.
    pub faults: FaultConfig,
    /// Workload-synthesis seed (independent of `faults.seed`).
    pub seed: u64,
    /// Kill the server and recover it from its own snapshot just before
    /// this epoch.
    pub kill_at: Option<u64>,
    /// Live-tenant cap; below `tenants` this forces continuous
    /// evict/restore churn through the server's held containers.
    pub max_live: usize,
    /// Priority tiers; tenant `t` submits at tier `t % tiers`.
    pub tiers: u8,
    /// Global power cap in watts. `0.0` resolves to ~70% of the fleet's
    /// nominal all-at-max demand (see [`SoakConfig::resolve_cap`]);
    /// `f64::INFINITY` disables the cap.
    pub power_cap_w: f64,
    /// Probability that an evicted tenant's restore read is torn.
    pub torn_read_rate: f64,
    /// Keep the full decision log in the report (memory-heavy; tests
    /// only).
    pub record_log: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            tenants: 64,
            epochs: 160,
            faults: FaultConfig::default(),
            seed: 42,
            kill_at: None,
            max_live: 64,
            tiers: 3,
            power_cap_w: 0.0,
            torn_read_rate: 0.0,
            record_log: false,
        }
    }
}

impl SoakConfig {
    /// The power cap the soak will actually run with: `power_cap_w` when
    /// positive, otherwise 70% of `tenants` × per-CU power at the grid
    /// ceiling and a mid-range instruction rate. 70% sits well above the
    /// fleet's all-at-floor demand (~45% of max here), so a correct
    /// arbiter can always meet it — which is what lets the soak assert
    /// `cap_epochs_missed == 0` as a hard SLO rather than a hope.
    pub fn resolve_cap(&self, states: &FreqStates) -> f64 {
        if self.power_cap_w > 0.0 {
            return self.power_cap_w;
        }
        let model = PowerModel::new(PowerConfig::scaled_to(1));
        let nominal_ips = 3000.0 / 50e-6;
        0.70 * self.tenants as f64 * model.cu_power_w(states.max(), nominal_ips)
    }
}

/// What the soak observed, SLOs included.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Fleet size driven.
    pub tenants: u64,
    /// Epochs driven.
    pub epochs: u64,
    /// Resolved global power cap in watts.
    pub power_cap_w: f64,
    /// Whether a mid-soak kill-and-recover happened.
    pub killed: bool,
    /// Tenants that got a silent hang window.
    pub hung_tenants: u64,
    /// Final decision-log digest (the kill-recover and wire equality
    /// witness).
    pub digest: u64,
    /// Decisions behind the digest.
    pub digest_count: u64,
    /// Server counters at the end of the soak.
    pub stats: ServerStats,
    /// Ingest shed/accept accounting.
    pub shed: ShedStats,
    /// Aggregate supervision counters (per-tenant breakdown lives on the
    /// server; the report keeps the roll-up).
    pub supervision: SupervisionReport,
    /// Live tenants at the end.
    pub live: usize,
    /// Evicted (stored) tenants at the end.
    pub evicted: usize,
    /// Full decision log, if [`SoakConfig::record_log`] was set.
    pub log: Vec<Decision>,
}

impl SoakReport {
    /// The report of a soak driven with `cfg` against `server`, whichever
    /// transport carried it; `log` is what [`drive_soak`] returned.
    pub fn new(cfg: &SoakConfig, server: &PolicyServer, killed: bool, log: Vec<Decision>) -> Self {
        let dlog = server.decision_log();
        SoakReport {
            tenants: cfg.tenants,
            epochs: cfg.epochs,
            power_cap_w: server.config().power_cap_w,
            killed,
            hung_tenants: arm_hangs(cfg).len() as u64,
            digest: dlog.digest(),
            digest_count: dlog.count(),
            stats: server.stats(),
            shed: server.shed_stats().clone(),
            supervision: server.supervision().total,
            live: server.live_tenants(),
            evicted: server.evicted_tenants(),
            log,
        }
    }

    /// Every tenant ever admitted is still live or stored — nobody fell
    /// through a crack.
    pub fn accounted(&self) -> bool {
        self.live + self.evicted == self.stats.admitted as usize
    }

    /// The soak's SLOs: full accounting ([`SoakReport::accounted`]) and
    /// no epoch whose decision set missed the global power cap. The
    /// `lost_tenants == 0` term cannot fail (see
    /// [`ServerStats::lost_tenants`]); it stays for the counter's sake.
    pub fn slos_met(&self) -> bool {
        self.stats.lost_tenants == 0 && self.accounted() && self.stats.cap_epochs_missed == 0
    }

    /// Renders the report as a hand-rolled JSON document.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let shed_tiers: Vec<String> = self.shed.per_tier.iter().map(|v| v.to_string()).collect();
        format!(
            concat!(
                "{{\n",
                "  \"tenants\": {},\n",
                "  \"epochs\": {},\n",
                "  \"power_cap_w\": {:.3},\n",
                "  \"killed\": {},\n",
                "  \"hung_tenants\": {},\n",
                "  \"digest\": \"{:016x}\",\n",
                "  \"decisions\": {},\n",
                "  \"slos_met\": {},\n",
                "  \"lost_tenants\": {},\n",
                "  \"cap_epochs_met\": {},\n",
                "  \"cap_epochs_missed\": {},\n",
                "  \"admitted\": {},\n",
                "  \"evictions\": {},\n",
                "  \"restores\": {},\n",
                "  \"torn_reads\": {},\n",
                "  \"rebuilt_cold\": {},\n",
                "  \"live\": {},\n",
                "  \"evicted\": {},\n",
                "  \"rungs\": {{ \"normal\": {}, \"hold\": {}, \"stall\": {}, \"safe\": {} }},\n",
                "  \"shed\": {{ \"accepted\": {}, \"per_tier\": [{}] }},\n",
                "  \"breaker_trips\": {},\n",
                "  \"recovered\": {},\n",
                "  \"retries\": {}\n",
                "}}"
            ),
            self.tenants,
            self.epochs,
            self.power_cap_w,
            self.killed,
            self.hung_tenants,
            self.digest,
            self.digest_count,
            self.slos_met(),
            s.lost_tenants,
            s.cap_epochs_met,
            s.cap_epochs_missed,
            s.admitted,
            s.evictions,
            s.restores,
            s.torn_reads,
            s.rebuilt_cold,
            self.live,
            self.evicted,
            s.rung_normal,
            s.rung_hold,
            s.rung_stall,
            s.rung_safe,
            self.shed.accepted,
            shed_tiers.join(", "),
            self.supervision.breaker_trips,
            self.supervision.recovered,
            self.supervision.retries,
        )
    }
}

/// Arms at most one silent hang window per tenant from the fault seed:
/// `(start, end)` epochs during which the tenant submits nothing at all
/// (no loss event fires — the channel simply goes dark, which is what
/// trips the tenant's breaker and walks its ladder).
fn arm_hangs(cfg: &SoakConfig) -> BTreeMap<u64, (u64, u64)> {
    let fs = cfg.faults.seed;
    (0..cfg.tenants)
        .filter_map(|t| {
            if faults::draw(fs, 0, channel::TENANT_HANG, t) >= cfg.faults.hang_rate {
                return None;
            }
            let span = cfg.epochs.max(1) as f64;
            let start = (faults::draw(fs, 1, channel::TENANT_HANG, t) * span * 0.6) as u64;
            let len = 8 + (faults::draw(fs, 2, channel::TENANT_HANG, t) * 24.0) as u64;
            Some((t, (start, start + len)))
        })
        .collect()
}

/// The exact [`ServerConfig`] a soak with this [`SoakConfig`] runs
/// against, in process or behind a wire gateway.
pub fn server_config_for(cfg: &SoakConfig) -> ServerConfig {
    let states = FreqStates::paper();
    let cap = cfg.resolve_cap(&states);
    ServerConfig {
        max_live: cfg.max_live.max(1),
        queue_capacity: (cfg.tenants as usize * 2).max(64),
        tiers: cfg.tiers.max(1),
        states,
        power_cap_w: cap,
        ladder: FallbackConfig::default(),
        breaker_threshold: 3,
        backoff: Backoff::default(),
        restore_retries: 4,
        torn_read_rate: cfg.torn_read_rate,
        seed: cfg.seed ^ 0xC1A0_5EED,
        epoch_us: 50,
    }
}

/// The transport a soak drives: how one tenant's telemetry reaches a
/// policy server and how an epoch's decisions come back. The server
/// itself is the in-process fleet; the `wire` crate's client fleet
/// carries the same two calls over PCWR.
pub trait SoakFleet {
    /// Why a transport gave up.
    type Error;

    /// Delivers one tenant's telemetry batch.
    fn submit(&mut self, batch: TelemetryBatch) -> Result<(), Self::Error>;

    /// Steps the server past `epoch` and returns that epoch's decisions
    /// in ascending tenant order.
    fn step(&mut self, epoch: u64) -> Result<Vec<Decision>, Self::Error>;
}

impl SoakFleet for PolicyServer {
    type Error = Infallible;

    fn submit(&mut self, batch: TelemetryBatch) -> Result<(), Infallible> {
        PolicyServer::submit(self, batch);
        Ok(())
    }

    fn step(&mut self, _epoch: u64) -> Result<Vec<Decision>, Infallible> {
        Ok(self.run_epoch())
    }
}

/// Drives the soak's closed loop through `fleet`: per epoch, every tenant
/// outside its hang window submits the record its fault draw allows
/// (fresh, a stale replay of the previous epoch, or nothing) at tier
/// `t % tiers`, the fleet steps, and each decided frequency feeds the
/// tenant's next record. `before_epoch` runs at the top of each epoch,
/// when nothing is in flight — the kill/recover hook.
///
/// The server's decision stream is a pure function of the batches it
/// receives per epoch, in order, and this loop is the only producer of
/// those batches, so every transport that delivers them faithfully ends
/// on the same decision digest. Returns the decision log when
/// [`SoakConfig::record_log`] is set, else an empty one.
pub fn drive_soak<F: SoakFleet>(
    cfg: &SoakConfig,
    fleet: &mut F,
    mut before_epoch: impl FnMut(u64, &mut F),
) -> Result<Vec<Decision>, F::Error> {
    let states = FreqStates::paper();
    let tiers = u64::from(cfg.tiers.max(1));
    let mut injector = FaultInjector::new(cfg.faults);
    let hangs = arm_hangs(cfg);

    // Frequency each tenant runs at during the current epoch (`cur`) and
    // ran at during the previous one (`prev`, the stale-replay source).
    // Both are driven purely by the server's own decisions.
    let mut cur = vec![states.min(); cfg.tenants as usize];
    let mut prev = cur.clone();
    let mut log = Vec::new();

    for e in 0..cfg.epochs {
        before_epoch(e, fleet);
        for t in 0..cfg.tenants {
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
                    synth_record(cfg.seed, t, e - 1, prev[t as usize])
                }
                TelemetryEvent::Deliver => synth_record(cfg.seed, t, e, cur[t as usize]),
            };
            let tier = (t % tiers) as u8;
            fleet.submit(TelemetryBatch { tenant: t, tier, records: vec![rec] })?;
        }
        let decisions = fleet.step(e)?;
        prev.copy_from_slice(&cur);
        for d in &decisions {
            if let Some(slot) = cur.get_mut(d.tenant as usize) {
                *slot = Frequency::from_mhz(d.freq_mhz);
            }
        }
        if cfg.record_log {
            log.extend(decisions);
        }
    }
    Ok(log)
}

/// Runs the soak in process. See module docs for the determinism
/// contract.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut server = PolicyServer::new(server_config_for(cfg), Arc::new(WorkerPool::new(1)));
    let mut killed = false;
    let Ok(log) = drive_soak(cfg, &mut server, |e, server| {
        if cfg.kill_at == Some(e) {
            *server =
                PolicyServer::load_state(&server.save_state()).expect("soak snapshot must reload");
            killed = true;
        }
    });
    SoakReport::new(cfg, &server, killed, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SoakConfig {
        SoakConfig { tenants: 12, epochs: 40, max_live: 12, ..SoakConfig::default() }
    }

    #[test]
    fn clean_soak_meets_slos() {
        let r = run_soak(&small());
        assert!(r.slos_met(), "{}", r.to_json());
        assert_eq!(r.stats.admitted, 12);
        assert_eq!(r.digest_count, r.stats.decisions);
        assert!(r.stats.rung_normal > 0);
    }

    #[test]
    fn kill_and_recover_is_transparent() {
        let base = small();
        let straight = run_soak(&base);
        let killed = run_soak(&SoakConfig { kill_at: Some(17), ..base });
        assert!(killed.killed);
        assert_eq!(straight.digest, killed.digest);
        assert_eq!(straight.stats, killed.stats);
    }

    #[test]
    fn eviction_churn_restores_everyone() {
        let cfg = SoakConfig { tenants: 16, epochs: 50, max_live: 10, ..SoakConfig::default() };
        let r = run_soak(&cfg);
        assert!(r.slos_met(), "{}", r.to_json());
        assert!(r.stats.evictions > 0, "cap below fleet size must force churn");
        assert!(r.stats.restores > 0);
        assert_eq!(r.live + r.evicted, 16);
    }

    #[test]
    fn storm_soak_engages_ladder_and_breakers() {
        let cfg = SoakConfig {
            tenants: 12,
            epochs: 60,
            max_live: 12,
            faults: FaultConfig { hang_rate: 0.3, ..FaultConfig::storm(0.2, 99) },
            torn_read_rate: 0.0,
            ..SoakConfig::default()
        };
        let r = run_soak(&cfg);
        assert!(r.slos_met(), "{}", r.to_json());
        assert!(r.stats.rung_hold + r.stats.rung_stall + r.stats.rung_safe > 0);
        assert!(r.hung_tenants > 0);
        assert!(r.supervision.breaker_trips > 0, "hung tenants must trip breakers");
    }
}
