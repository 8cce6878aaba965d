//! The real wire: the same client/gateway pair over an actual TCP
//! loopback socket — handshake, idempotent submits, epoch ticks, decision
//! fetches, busy shedding at the connection cap, and a full
//! kill/restart-on-a-new-port reconnect with resume tokens.
//!
//! Determinism chaos lives in `wire_chaos.rs` over the shim; these tests
//! prove the thin TCP layer carries the identical protocol: a loopback
//! soak's decision digest must equal the in-process soak's.

use std::net::TcpListener;

use exec::global_pool;
use serve::{run_soak, server_config_for, synth_record, SoakConfig, TelemetryBatch};
use wire::tcp::TcpServerConfig;
use wire::{tcp_dialer, Client, ClientConfig, Gateway, WireServer};

const TOKEN_SEED: u64 = 0x70CE_2026;

fn small() -> SoakConfig {
    SoakConfig { tenants: 8, epochs: 24, max_live: 8, ..SoakConfig::default() }
}

fn start_server(soak: &SoakConfig) -> WireServer {
    let gw = Gateway::new(server_config_for(soak), global_pool(), TOKEN_SEED);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    WireServer::start(listener, gw, TcpServerConfig::default()).expect("start wire server")
}

fn client_for(server: &WireServer, tenant: u64, tier: u8) -> Client<std::net::TcpStream> {
    let cfg = ClientConfig { seed: 0xBEEF ^ tenant, sleep: true, ..ClientConfig::default() };
    Client::new(tenant, tier, cfg, tcp_dialer(server.addr(), 200))
}

/// Drives the soak's closed loop over TCP: submit (fault-free), tick,
/// fetch, feed decisions back. Returns the decision-log digest.
fn drive_loopback(server: &WireServer, soak: &SoakConfig) -> (u64, u64) {
    let states = dvfs::states::FreqStates::paper();
    let tiers = u64::from(soak.tiers.max(1));
    let mut clients: Vec<_> =
        (0..soak.tenants).map(|t| client_for(server, t, (t % tiers) as u8)).collect();
    let admin_id = soak.tenants + 1;
    let mut admin = client_for(server, admin_id, 0);
    let mut cur = vec![states.min(); soak.tenants as usize];
    for e in 0..soak.epochs {
        for t in 0..soak.tenants {
            let rec = synth_record(soak.seed, t, e, cur[t as usize]);
            let tier = (t % tiers) as u8;
            clients[t as usize]
                .submit(TelemetryBatch { tenant: t, tier, records: vec![rec] })
                .expect("loopback submit");
        }
        while admin.tick(e).expect("loopback tick") <= e {}
        for t in 0..soak.tenants {
            let decisions = loop {
                let (se, d, _) = clients[t as usize].fetch(e).expect("loopback fetch");
                if se > e {
                    break d;
                }
            };
            for d in &decisions {
                if d.epoch == e {
                    cur[t as usize] = gpu_sim::time::Frequency::from_mhz(d.freq_mhz);
                }
            }
        }
    }
    for c in &mut clients {
        c.bye();
    }
    server.with_gateway(|gw| {
        let log = gw.server().decision_log();
        (log.digest(), log.count())
    })
}

#[test]
fn loopback_soak_digest_matches_in_process() {
    // Fault-free compare baseline: the in-process soak with no faults.
    let soak = small();
    let direct = run_soak(&soak);
    let server = start_server(&soak);
    let (digest, count) = drive_loopback(&server, &soak);
    let gw = server.stop();
    assert_eq!(digest, direct.digest, "TCP transport changed the decision stream");
    assert_eq!(count, direct.digest_count);
    assert_eq!(gw.stats.bad_tokens, 0);
    assert!(gw.stats.submits >= soak.tenants * soak.epochs, "{:?}", gw.stats);
}

#[test]
fn kill_and_restart_on_new_port_resumes_sessions() {
    let soak = small();
    let states = dvfs::states::FreqStates::paper();
    let server = start_server(&soak);
    let mut client = client_for(&server, 3, 0);

    // A couple of epochs of traffic so the session has history.
    for e in 0..2u64 {
        let rec = synth_record(soak.seed, 3, e, states.min());
        client.submit(TelemetryBatch { tenant: 3, tier: 0, records: vec![rec] }).expect("submit");
        while client.tick(e).expect("tick") <= e {}
    }

    // Kill the server mid-session: snapshot the live gateway, tear the
    // whole front-end down, and bring a restored gateway up on a NEW
    // port. The client's next operation must reconnect (new dialer),
    // present its resume token, resync `last_seq`, and continue.
    let gw = server.stop();
    let bytes = gw.save_state();
    let restored = Gateway::load_state(&bytes).expect("gateway reload");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind new port");
    let server2 =
        WireServer::start(listener, restored, TcpServerConfig::default()).expect("restart");

    // Point the SAME client (with its token and sequence state) at the
    // new address.
    let addr = server2.addr();
    client.bye(); // drop the dead connection eagerly
    let mut client = {
        let cfg = ClientConfig { seed: 0xBEEF ^ 3, sleep: true, ..ClientConfig::default() };
        client.rebind(cfg, tcp_dialer(addr, 200))
    };

    let rec = synth_record(soak.seed, 3, 2, states.min());
    client
        .submit(TelemetryBatch { tenant: 3, tier: 0, records: vec![rec] })
        .expect("resumed submit");
    while client.tick(2).expect("resumed tick") <= 2 {}
    let (se, _, _) = client.fetch(2).expect("resumed fetch");
    assert!(se >= 3, "restored server must continue the epoch stream, got {se}");

    let gw2 = server2.stop();
    assert_eq!(gw2.stats.bad_tokens, 0, "the resume token must survive the restart");
    assert_eq!(gw2.server().epoch(), 3);
}

#[test]
fn connection_cap_sheds_with_typed_busy_reject() {
    let soak = small();
    let gw = Gateway::new(server_config_for(&soak), global_pool(), TOKEN_SEED);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let cfg = TcpServerConfig { max_conns: 1, ..TcpServerConfig::default() };
    let server = WireServer::start(listener, gw, cfg).expect("start");

    // First connection occupies the only slot.
    let mut first = client_for(&server, 0, 0);
    first.query().expect("first connection serves");

    // The second peer must get an explicit Reject(BUSY), not a hang or a
    // silent close — visible to the resilient client as rejects > 0.
    let cfg2 = ClientConfig { max_attempts: 3, sleep: true, ..ClientConfig::default() };
    let mut second = Client::new(1, 0, cfg2, tcp_dialer(server.addr(), 200));
    let err = second.query().expect_err("cap must refuse the second connection");
    assert!(err.last.contains("rejected"), "refusal must be a typed reject: {err}");
    assert!(second.report.rejects > 0, "{:?}", second.report);

    first.bye();
    let stats = server.stats();
    assert!(stats.busy_rejects > 0, "{stats:?}");
    server.stop();
}

#[test]
fn idle_half_open_connections_are_reaped() {
    let soak = small();
    let gw = Gateway::new(server_config_for(&soak), global_pool(), TOKEN_SEED);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let cfg = TcpServerConfig { idle_reap_ms: 100, ..TcpServerConfig::default() };
    let server = WireServer::start(listener, gw, cfg).expect("start");

    // A slowloris peer: connects, binds, then goes silent forever.
    let mut loris = client_for(&server, 7, 0);
    loris.query().expect("binds fine");

    // Wait out the reap window; the watchdog must cut the idle peer.
    let deadline = supervise::edge::now_ms() + 5_000;
    while server.stats().reaped == 0 && supervise::edge::now_ms() < deadline {
        supervise::edge::sleep_ms(20);
    }
    assert!(server.stats().reaped > 0, "watchdog never reaped the idle connection");
    server.stop();
}
