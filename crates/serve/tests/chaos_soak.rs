//! The chaos soak SLO pin: a 20%-intensity seeded fault storm with hung
//! tenants, torn snapshot reads, and eviction churn must lose zero
//! tenants, miss zero global-cap epochs, reproduce the pinned decision
//! digest, and produce a bit-identical decision log across a mid-soak
//! kill-and-recover.

use faults::FaultConfig;
use serve::{run_soak, SoakConfig};

fn chaos() -> SoakConfig {
    SoakConfig {
        tenants: 48,
        epochs: 120,
        // Below the fleet size: continuous evict/restore churn through
        // the snapshot store, so torn reads have something to tear.
        max_live: 36,
        torn_read_rate: 0.25,
        faults: FaultConfig { hang_rate: 0.25, ..FaultConfig::storm(0.2, 0x00C0_FFEE) },
        seed: 7,
        ..SoakConfig::default()
    }
}

#[test]
fn chaos_soak_meets_slos() {
    let base = chaos();
    let r1 = run_soak(&base);
    assert!(r1.slos_met(), "SLO violation: {}", r1.to_json());
    assert_eq!(r1.stats.lost_tenants, 0);
    assert_eq!(r1.stats.cap_epochs_missed, 0);
    assert_eq!(r1.stats.cap_epochs_met, r1.epochs);

    // The chaos must actually bite for the SLOs to mean anything.
    assert!(r1.stats.evictions > 0 && r1.stats.restores > 0, "churn: {}", r1.to_json());
    assert!(r1.stats.torn_reads > 0, "torn-read chaos never fired: {}", r1.to_json());
    assert!(r1.hung_tenants > 0, "no tenant hung: {}", r1.to_json());
    assert!(r1.supervision.breaker_trips > 0, "no breaker tripped: {}", r1.to_json());
    assert!(
        r1.stats.rung_hold + r1.stats.rung_stall + r1.stats.rung_safe > 0,
        "ladder never engaged: {}",
        r1.to_json()
    );

    // The served decision stream itself: any change to admission,
    // breakers, observe, the arbiter or the log moves this digest.
    assert_eq!(r1.digest, 0x042d_d1a6_545e_f8d6, "decision stream changed: {}", r1.to_json());
    assert_eq!(r1.digest_count, 4320);
}

#[test]
fn chaos_soak_survives_kill_and_recover() {
    let base = chaos();
    let straight = run_soak(&base);
    // Kill mid-storm: the recovered server must finish the exact same
    // decision stream.
    let killed = run_soak(&SoakConfig { kill_at: Some(61), ..base });
    assert!(killed.killed);
    assert!(killed.slos_met(), "SLO violation after restart: {}", killed.to_json());
    assert_eq!(straight.digest, killed.digest, "kill-and-recover perturbed the decision stream");
    assert_eq!(straight.stats, killed.stats);
    assert_eq!(straight.shed, killed.shed);
}

#[test]
fn overload_sheds_low_tiers_first_and_counts_every_shed() {
    // A queue two sizes too small: overload is guaranteed, and the shed
    // accounting must show strictly lower-tier (higher number) batches
    // shed before higher-priority ones.
    let cfg = SoakConfig {
        tenants: 40,
        epochs: 30,
        max_live: 40,
        power_cap_w: f64::INFINITY,
        ..SoakConfig::default()
    };
    // run_soak sizes the queue generously; drive the queue directly via a
    // small server instead.
    use exec::global_pool;
    use serve::{PolicyServer, ServerConfig, SubmitOutcome, TelemetryBatch};
    let mut server = PolicyServer::new(
        ServerConfig { queue_capacity: 8, tiers: 3, ..ServerConfig::default() },
        global_pool(),
    );
    let mut outcomes = Vec::new();
    for t in 0..cfg.tenants {
        let rec = serve::synth_record(1, t, 0, gpu_sim::time::Frequency::from_mhz(1300));
        let tier = (t % 3) as u8;
        outcomes.push(server.submit(TelemetryBatch { tenant: t, tier, records: vec![rec] }));
    }
    let shed = server.shed_stats().clone();
    let accepted = outcomes.iter().filter(|o| !matches!(o, SubmitOutcome::ShedIncoming)).count();
    let displaced =
        outcomes.iter().filter(|o| matches!(o, SubmitOutcome::ShedQueued { .. })).count();
    let rejected = cfg.tenants as usize - accepted;
    // Every submission is accounted: accepted at submit time, and every
    // shed (displaced victim or rejected arrival) counted per tier.
    assert_eq!(shed.accepted as usize, accepted);
    assert_eq!(shed.total() as usize, displaced + rejected);
    assert!(shed.total() > 0, "queue of 8 under 40 submissions must shed");
    // Queued tier-0 work is never displaced — victims are always strictly
    // lower priority than the arrival that displaces them.
    assert!(
        !outcomes.iter().any(|o| matches!(o, SubmitOutcome::ShedQueued { tier: 0, .. })),
        "a queued tier-0 batch was displaced: {outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|o| matches!(o, SubmitOutcome::ShedQueued { .. })),
        "high-priority arrivals must displace queued low-priority work"
    );
    // And the epoch still runs for everyone who survived ingest (the
    // batches still queued: accepted minus displaced victims).
    let decisions = server.run_epoch();
    assert_eq!(decisions.len(), accepted - displaced);
    // With 14 tier-0 submissions fighting for 8 slots, the survivors are
    // all tier-0 tenants (`t % 3 == 0` by construction).
    assert!(decisions.iter().all(|d| d.tenant % 3 == 0), "low-tier work outlived tier 0");
}
