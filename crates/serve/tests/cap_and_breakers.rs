//! Pins the two server steps the chaos soak does not reach: the power-cap
//! arbiter's demotion loop and the breaker gate. The soak's 70% cap never
//! binds on its fleet, and with its breaker threshold above the hold depth
//! the hold budget is spent before a breaker can open. Here the cap binds
//! every epoch and a breaker opens on the first missed delivery, so the
//! pinned digest moves if either step stops acting.

use std::sync::Arc;

use dvfs::states::FreqStates;
use exec::WorkerPool;
use faults::{FaultConfig, FaultInjector, TelemetryEvent};
use gpu_sim::time::Frequency;
use power::model::{PowerConfig, PowerModel};
use serve::{
    server_config_for, synth_record, Decision, PolicyServer, ServerConfig, SoakConfig,
    TelemetryBatch,
};

const TENANTS: u64 = 40;
const EPOCHS: u64 = 96;
const SEED: u64 = 11;

/// The soak's server for 40 tenants over 32 live slots with 25% torn
/// reads, a cap at 55% of the fleet's nominal all-at-max demand, and a
/// breaker that trips on the first miss (threshold 1 ≤ the 2 hold epochs).
fn config() -> ServerConfig {
    let soak = SoakConfig {
        tenants: TENANTS,
        max_live: 32,
        torn_read_rate: 0.25,
        seed: SEED,
        ..SoakConfig::default()
    };
    let states = FreqStates::paper();
    let cap = 0.55 / 0.70 * soak.resolve_cap(&states);
    let cfg = ServerConfig { power_cap_w: cap, breaker_threshold: 1, ..server_config_for(&soak) };
    assert!(cfg.breaker_threshold <= cfg.ladder.hold_epochs);
    cfg
}

/// Drives `server` closed-loop through a fault storm: each tenant reports
/// at the frequency the server last chose for it. Returns every epoch's
/// decisions.
fn drive(server: &mut PolicyServer) -> Vec<Vec<Decision>> {
    let states = FreqStates::paper();
    let mut injector = FaultInjector::new(FaultConfig::storm(0.2, 0x0BAD_CAB5));
    let mut cur = vec![states.min(); TENANTS as usize];
    let mut epochs = Vec::new();
    for e in 0..EPOCHS {
        for t in 0..TENANTS {
            if injector.telemetry_event_for(e, t) == TelemetryEvent::Lost {
                continue;
            }
            let rec = synth_record(SEED, t, e, cur[t as usize]);
            server.submit(TelemetryBatch { tenant: t, tier: (t % 3) as u8, records: vec![rec] });
        }
        let decisions = server.run_epoch();
        for d in &decisions {
            cur[d.tenant as usize] = Frequency::from_mhz(d.freq_mhz);
        }
        epochs.push(decisions);
    }
    epochs
}

/// Predicted power of one epoch's decisions, as the arbiter sums it.
fn power_w(decisions: &[Decision], epoch_us: u64) -> f64 {
    let model = PowerModel::new(PowerConfig::scaled_to(1));
    let epoch_s = epoch_us as f64 * 1e-6;
    decisions
        .iter()
        .map(|d| model.cu_power_w(Frequency::from_mhz(d.freq_mhz), d.predicted / epoch_s))
        .sum()
}

#[test]
fn binding_cap_and_open_breakers_pin_the_decision_stream() {
    let cfg = config();
    let mut server = PolicyServer::new(cfg.clone(), Arc::new(WorkerPool::new(1)));
    let capped = drive(&mut server);

    // The cap binds every epoch: the same server without a cap asks for
    // more than the cap allows, and the capped decisions fit under it.
    let mut free = PolicyServer::new(
        ServerConfig { power_cap_w: f64::INFINITY, ..cfg.clone() },
        Arc::new(WorkerPool::new(1)),
    );
    let uncapped = drive(&mut free);
    for (e, (c, u)) in capped.iter().zip(&uncapped).enumerate() {
        assert!(power_w(u, cfg.epoch_us) > cfg.power_cap_w, "epoch {e}: the cap does not bind");
        assert!(power_w(c, cfg.epoch_us) <= cfg.power_cap_w, "epoch {e}: over the cap");
    }

    let stats = server.stats();
    assert_eq!(stats.cap_epochs_met, EPOCHS, "{stats:?}");
    assert_eq!(stats.lost_tenants, 0);
    assert!(stats.evictions > 0 && stats.restores > 0 && stats.torn_reads > 0, "{stats:?}");
    let sup = server.supervision().total;
    assert!(sup.breaker_trips > 0 && sup.recovered > 0, "breakers never opened: {sup:?}");
    assert!(stats.rung_stall > 0, "an open breaker must skip hold: {stats:?}");

    let log = server.decision_log();
    assert_eq!(log.digest(), 0x5c41_558c_42d0_d45a, "decision stream changed: {stats:?}");
    assert_eq!(log.count(), 3072);
}
