//! Wire-layer throughput bench: PCWR frame codec rates and end-to-end
//! decisions/sec over a real TCP loopback.
//!
//! Two families of cells:
//!
//! * **codec** — frames/sec through [`wire::encode_frame`] and
//!   [`wire::decode_frame`] for a representative telemetry `Submit`
//!   (8 records) and a `Decisions` response (8 decisions + 2 notices),
//!   pure CPU, no sockets;
//! * **loopback** — the soak's fault-free closed loop (submit → tick →
//!   fetch, every tenant every epoch) through [`wire::WireServer`] over
//!   `127.0.0.1`, at 32 and 128 tenants; decisions/sec counts the full
//!   loop wall time, framing + CRC + syscalls + gateway included.
//!
//! Honest caveat: the CI container is effectively single-core and the
//! driver is a single thread multiplexing all tenants, so loopback
//! numbers measure protocol + transport overhead on one core, not
//! concurrency. Compare against `BENCH_server.json`'s in-process
//! decisions/sec to read the cost of the wire.
//!
//! Set `PCSTALL_BENCH_SMOKE=1` for the CI smoke path: a quick codec
//! pass plus a loopback **regression gate** against the committed
//! `results/BENCH_wire.json` — best of up to 5 spread-out measurement
//! windows must clear `committed_median × (1 - PCSTALL_WIRE_TOL)`
//! (default tolerance 50%: loopback throughput on the shared container
//! is noisy, the gate is for structural slowdowns) — leaving the
//! committed JSON untouched. Full runs rewrite it (min/median/max over
//! ≥3 reps).

use std::net::TcpListener;
use std::time::Instant;

use dvfs::states::FreqStates;
use gpu_sim::time::Frequency;
use serve::{server_config_for, synth_record, SoakConfig, TelemetryBatch};
use wire::tcp::TcpServerConfig;
use wire::{
    decode_frame, encode_frame, tcp_dialer, Client, ClientConfig, Frame, Gateway, Notice,
    NoticeKind, WireServer,
};

/// A representative telemetry submit: one batch, 8 records.
fn submit_frame() -> Frame {
    let states = FreqStates::paper();
    let records = (0..8).map(|e| synth_record(42, 3, e, states.min())).collect();
    Frame::Submit { seq: 17, batch: TelemetryBatch { tenant: 3, tier: 1, records } }
}

/// A representative fetch response: 8 decisions and 2 notices.
fn decisions_frame() -> Frame {
    let decisions = (0..8)
        .map(|t| serve::Decision {
            tenant: t,
            epoch: 31,
            freq_mhz: 1450,
            rung: serve::Rung::Normal,
            predicted: 1.25e6,
        })
        .collect();
    let notices = vec![
        Notice { kind: NoticeKind::Admitted, epoch: 30 },
        Notice { kind: NoticeKind::Evicted, epoch: 31 },
    ];
    Frame::Decisions { epoch: 31, decisions, notices }
}

/// Frames/sec for one codec direction over `iters` iterations.
fn codec_rates(frame: &Frame, iters: u64) -> (f64, f64) {
    let bytes = encode_frame(frame);
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        sink = sink.wrapping_add(encode_frame(frame).len());
    }
    let enc = iters as f64 / t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..iters {
        let f = decode_frame(&bytes).expect("self-encoded frame decodes");
        sink = sink.wrapping_add(matches!(f, Frame::Bye) as usize + 1);
    }
    let dec = iters as f64 / t1.elapsed().as_secs_f64();
    assert!(sink > 0, "keep the loops observable");
    (enc, dec)
}

/// One loopback run: the fault-free closed soak loop over TCP. Returns
/// end-to-end decisions/sec (tenants × epochs over full wall time).
fn loopback_once(tenants: u64, epochs: u64) -> f64 {
    let soak = SoakConfig { tenants, epochs, max_live: tenants as usize, ..SoakConfig::default() };
    let gw = Gateway::new(server_config_for(&soak), exec::global_pool(), 0xBE9C);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = WireServer::start(listener, gw, TcpServerConfig::default()).expect("start");
    let addr = server.addr();
    let states = FreqStates::paper();

    let t0 = Instant::now();
    let mut clients: Vec<_> = (0..tenants)
        .map(|t| {
            let cfg = ClientConfig { seed: 0xB_E9C ^ t, sleep: true, ..ClientConfig::default() };
            Client::new(t, (t % 3) as u8, cfg, tcp_dialer(addr, 500))
        })
        .collect();
    let mut admin = {
        let cfg = ClientConfig { seed: 0xAD, sleep: true, ..ClientConfig::default() };
        Client::new(tenants + 1, 0, cfg, tcp_dialer(addr, 500))
    };
    let mut cur = vec![states.min(); tenants as usize];
    for e in 0..epochs {
        for t in 0..tenants {
            let rec = synth_record(soak.seed, t, e, cur[t as usize]);
            clients[t as usize]
                .submit(TelemetryBatch { tenant: t, tier: (t % 3) as u8, records: vec![rec] })
                .expect("loopback submit");
        }
        while admin.tick(e).expect("loopback tick") <= e {}
        for t in 0..tenants {
            let (_, decisions, _) = clients[t as usize].fetch(e).expect("loopback fetch");
            for d in &decisions {
                if d.epoch == e {
                    cur[t as usize] = Frequency::from_mhz(d.freq_mhz);
                }
            }
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    for c in &mut clients {
        c.bye();
    }
    server.stop();
    (tenants * epochs) as f64 / total_s
}

/// Measurement windows the smoke gate tries before declaring a
/// regression — same rationale as the hotpath gate: the shared
/// container's throughput swings ±30% over minutes, and a floor check
/// only needs one honest window.
const SMOKE_WINDOWS: usize = 5;

/// Pulls `"decisions_per_s_median": <float>` for the loopback row with
/// the given tenant count out of the committed JSON. Hand-rolled on
/// purpose: the bench writes this file itself in a fixed
/// one-line-per-row shape and the crate has no JSON parser dependency.
fn committed_loopback_median(json: &str, tenants: u64) -> Option<f64> {
    let key = format!("\"cell\": \"loopback\", \"tenants\": {tenants},");
    let row = &json[json.find(&key)?..];
    let row = &row[..row.find('}')?];
    let field = &row[row.find("\"decisions_per_s_median\":")?..];
    let rest = field.split_once(':')?.1;
    let end = rest.find(',').unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let smoke = std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let path = harness::report::results_dir().join("BENCH_wire.json");

    if smoke {
        // Codec cells: a does-the-loop-run pass, no gate.
        for (name, frame) in [("submit8", submit_frame()), ("decisions8", decisions_frame())] {
            let (enc, dec) = codec_rates(&frame, 2_000);
            println!("codec {name:<10} {enc:>10.0} enc frames/s  {dec:>10.0} dec frames/s");
        }
        // Loopback: regression-gated against the committed JSON. Socket
        // throughput on the shared container is far noisier than pure
        // CPU (3-rep spread reaches ±30%), so the tolerance is wide —
        // this catches the transport path getting structurally slower
        // (an extra round trip, a lost batch of syscalls), not jitter.
        let tol: f64 = std::env::var("PCSTALL_WIRE_TOL")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.50);
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "[wire] FAIL: cannot read committed {} ({e}); run the full bench \
                 (no PCSTALL_BENCH_SMOKE) to establish a baseline",
                path.display()
            );
            std::process::exit(1);
        });
        let committed = committed_loopback_median(&json, 32).unwrap_or_else(|| {
            eprintln!("[wire] FAIL: no loopback tenants=32 row in {}", path.display());
            std::process::exit(1);
        });
        let floor = committed * (1.0 - tol);
        // A single slow window is not evidence of a regression, but no
        // number of retries lets genuinely regressed code clear the
        // floor. Accept the first window that does; spread retries out.
        let mut best = f64::NEG_INFINITY;
        for attempt in 0..SMOKE_WINDOWS {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_secs(1 << (attempt - 1)));
            }
            best = best.max(loopback_once(32, 6));
            if best >= floor {
                break;
            }
        }
        if best < floor {
            eprintln!(
                "[wire] FAIL: loopback throughput regressed: best {best:.0} decisions/s \
                 over {SMOKE_WINDOWS} windows < {floor:.0} (committed median {committed:.0} \
                 - {:.0}% tolerance)",
                tol * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "[wire] smoke OK: loopback {best:.0} decisions/s vs committed {committed:.0} \
             (floor {floor:.0} at {:.0}% tolerance; committed JSON untouched)",
            tol * 100.0
        );
        return;
    }

    let reps = 3;
    let codec_iters: u64 = 200_000;
    let epochs: u64 = 40;
    let tenant_counts: &[u64] = &[32, 128];

    let mut rows = Vec::new();
    for (name, frame) in [("submit8", submit_frame()), ("decisions8", decisions_frame())] {
        let mut enc_runs = Vec::with_capacity(reps);
        let mut dec_runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (enc, dec) = codec_rates(&frame, codec_iters);
            enc_runs.push(enc);
            dec_runs.push(dec);
        }
        let enc = bench::rep_stats(&enc_runs);
        let dec = bench::rep_stats(&dec_runs);
        let bytes = encode_frame(&frame).len();
        println!(
            "codec {name:<10} {bytes:>4} B  {:>10.0} enc frames/s  {:>10.0} dec frames/s",
            enc.median, dec.median
        );
        rows.push(format!(
            "    {{ \"cell\": \"codec:{name}\", \"frame_bytes\": {bytes}, {}, {} }}",
            enc.json_fields("encode_frames_per_s"),
            dec.json_fields("decode_frames_per_s"),
        ));
    }

    for &tenants in tenant_counts {
        let mut runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            runs.push(loopback_once(tenants, epochs));
        }
        let dps = bench::rep_stats(&runs);
        println!("loopback tenants {tenants:>4}  {:>9.0} decisions/s end-to-end", dps.median);
        rows.push(format!(
            "    {{ \"cell\": \"loopback\", \"tenants\": {tenants}, \"epochs\": {epochs}, {} }}",
            dps.json_fields("decisions_per_s"),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"wire\",\n  \"reps\": {reps},\n  \
         \"note\": \"codec cells are pure CPU through encode_frame/decode_frame; loopback cells \
         drive the fault-free soak loop over 127.0.0.1 from one driver thread, so they price \
         protocol + CRC + syscalls on one core, not concurrency — compare BENCH_server.json \
         for the in-process rate\",\n  \"grid\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    harness::report::write_atomic(&path, &json).expect("write BENCH_wire.json");
    println!("wrote {}", path.display());
}
