//! The acceptance oracle for the wire layer: the chaos soak re-run over a
//! faulty transport must meet the same SLOs (every admitted tenant live
//! or held, zero missed cap epochs) and produce a decision-log digest
//! bit-identical to the in-process path — with byte-stream faults armed
//! in both directions, and across a mid-soak gateway kill-and-recover.
//! `lost_tenants` reads 0 by construction; `accounted()` is the tenant
//! check that can fail.

use faults::stream::StreamFaultConfig;
use faults::FaultConfig;
use serve::{run_soak, SoakConfig};
use wire::{run_wire_soak, WireSoakConfig};

/// The PR-8 chaos profile, verbatim from `serve/tests/chaos_soak.rs`:
/// 20%-intensity storm, hung tenants, torn restore reads, eviction churn.
fn chaos() -> SoakConfig {
    SoakConfig {
        tenants: 48,
        epochs: 120,
        max_live: 36,
        torn_read_rate: 0.25,
        faults: FaultConfig { hang_rate: 0.25, ..FaultConfig::storm(0.2, 0x00C0_FFEE) },
        seed: 7,
        ..SoakConfig::default()
    }
}

fn wire_chaos() -> WireSoakConfig {
    WireSoakConfig {
        soak: chaos(),
        // Transport chaos on every link, both directions: disconnects,
        // bit flips, drops, duplicates, delays, splits.
        stream: StreamFaultConfig::chaos(0.08, 0xD1A1_ED01),
        kill_at: None,
        max_attempts: 64,
    }
}

#[test]
fn quiet_wire_soak_is_bit_identical_to_in_process() {
    let base = SoakConfig { tenants: 12, epochs: 40, max_live: 12, ..SoakConfig::default() };
    let direct = run_soak(&base);
    let wired = run_wire_soak(&WireSoakConfig {
        soak: base,
        stream: StreamFaultConfig::quiet(1),
        kill_at: None,
        max_attempts: 8,
    })
    .expect("quiet transport must not exhaust retries");
    assert!(wired.slos_met(), "{:?}", wired.soak.stats);
    assert_eq!(direct.digest, wired.soak.digest, "a quiet wire changed the decision stream");
    assert_eq!(direct.digest_count, wired.soak.digest_count);
    assert_eq!(direct.stats, wired.soak.stats);
    // No faults armed: nothing on the transport side may fire.
    assert_eq!(wired.transport.corrupted, 0);
    assert_eq!(wired.transport.dropped, 0);
    assert_eq!(wired.clients.reconnects, 0);
    assert_eq!(wired.gateway.bad_tokens, 0);
}

#[test]
fn chaos_wire_soak_matches_in_process_digest() {
    let direct = run_soak(&chaos());
    assert!(direct.slos_met());
    let wired = run_wire_soak(&wire_chaos()).expect("chaos transport must not exhaust retries");
    assert!(wired.slos_met(), "SLO violation: {:?}", wired.soak.stats);
    assert_eq!(
        direct.digest, wired.soak.digest,
        "transport faults leaked into the decision stream"
    );
    assert_eq!(direct.digest_count, wired.soak.digest_count);
    assert_eq!(direct.stats, wired.soak.stats);

    // The adversary must actually have bitten for the pin to mean
    // anything — every fault class, and the recovery machinery.
    let t = wired.transport;
    assert!(t.corrupted > 0, "no corruption fired: {t:?}");
    assert!(t.dropped > 0, "no drops fired: {t:?}");
    assert!(t.duplicated > 0, "no duplicates fired: {t:?}");
    assert!(t.delayed > 0, "no delays fired: {t:?}");
    assert!(t.split > 0, "no splits fired: {t:?}");
    assert!(t.disconnects > 0, "no mid-frame disconnects fired: {t:?}");
    let c = wired.clients;
    assert!(c.reconnects > 0, "chaos never forced a reconnect: {c:?}");
    assert!(c.retries > 0, "chaos never forced a retry: {c:?}");
    assert!(
        wired.gateway.duplicates + c.resync_acks > 0,
        "retransmit dedupe never engaged: gw {:?} client {c:?}",
        wired.gateway
    );
    assert_eq!(wired.gateway.bad_tokens, 0, "a legitimate resume token failed auth");
}

#[test]
fn wire_soak_survives_gateway_kill_and_recover_mid_storm() {
    let direct = run_soak(&chaos());
    let killed = run_wire_soak(&WireSoakConfig { kill_at: Some(61), ..wire_chaos() })
        .expect("kill/recover must not exhaust retries");
    assert!(killed.soak.killed);
    assert!(killed.slos_met(), "SLO violation after restart: {:?}", killed.soak.stats);
    assert_eq!(
        direct.digest, killed.soak.digest,
        "gateway kill-and-recover perturbed the decision stream"
    );
    assert_eq!(direct.stats, killed.soak.stats);
    assert_eq!(direct.shed, killed.soak.shed);
    // Every client was cut off at the kill; the fleet must have come
    // back through resume tokens, not fresh sessions.
    assert!(killed.clients.reconnects >= killed.soak.tenants, "{:?}", killed.clients);
    assert_eq!(killed.gateway.bad_tokens, 0, "restored token seed must honor old tokens");
}
